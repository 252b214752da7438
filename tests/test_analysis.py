"""Floor proof, feature checks, gap reports, stats algebra."""

import json
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from bellgame import analysis
from bellgame.analysis import (
    DEFAULT_FAILURE_PROBABILITY,
    ExperimentStats,
    _exact_minimum,
    bell_gap_report,
    check_feature_i,
    check_feature_ii,
    hoeffding_radius,
    prove_bound,
)
from bellgame.core import (
    ALL_SETTING_PAIRS,
    INSTRUCTION_SETS,
    Color,
    InstructionSet,
    RunRecord,
    Setting,
    SettingPair,
)
from bellgame.protocol import ReplayMismatchError, RunConfig, execute_run, induced_instruction_set
from bellgame.quantum import singlet_joint
from bellgame.strategies import fixed_instruction_strategy, negotiation_strategy

CFG = RunConfig()


def _stats(per_pair):
    """Build stats from {(left, right): (same, different)}."""
    stats = ExperimentStats.empty()
    for (l, r), (same, diff) in per_pair.items():
        pair = SettingPair(Setting(l), Setting(r))
        stats.counts[pair][0] += same
        stats.counts[pair][1] += diff
    return stats


def _uniform_stats(p_same: float, n_per_pair: int):
    same = round(n_per_pair * p_same)
    return _stats({
        (l, r): (n_per_pair if l == r else same, 0 if l == r else n_per_pair - same)
        for l in (1, 2, 3)
        for r in (1, 2, 3)
    })


def _tally(records):
    stats = ExperimentStats.empty()
    for r in records:
        stats.record(r.settings, r.colors[0] is r.colors[1])
    return stats


def _oracle_record(run_index, left, right, color_left, color_right):
    return RunRecord(
        run_index=run_index,
        settings=SettingPair(Setting(left), Setting(right)),
        colors=(Color(color_left), Color(color_right)),
        transcript=(),
        seed=0,
        strategy_id="synthetic",
    )


class TestProveBound:
    def test_minimum_and_minimizers(self):
        report = prove_bound()
        assert report.minimum == Fraction(5, 9)
        assert {i.label for i in report.minimizers} == {
            "RRG", "RGR", "GRR", "GGR", "GRG", "RGG",
        }

    def test_per_set_values(self):
        report = prove_bound()
        assert report.per_set_fractions[InstructionSet.from_label("GGG")] == 1
        assert report.per_set_fractions[InstructionSet.from_label("RRR")] == 1
        five_ninths = [f for f in report.per_set_fractions.values() if f == Fraction(5, 9)]
        assert len(five_ninths) == 6

    def test_no_floats_anywhere(self):
        report = prove_bound()
        for f in report.per_set_fractions.values():
            assert isinstance(f, Fraction)
        assert isinstance(report.minimum, Fraction)

    def test_reproducible(self):
        assert prove_bound() == prove_bound()

    def test_text_states_mixture_reduction(self):
        text = prove_bound().to_text()
        assert "convex mixture" in text
        assert "minimum: 5/9" in text

    def test_json_shape(self):
        doc = json.loads(prove_bound().to_json())
        assert doc["minimum"] == "5/9"
        assert doc["per_set"]["RRG"] == "5/9"
        assert len(doc["minimizers"]) == 6

    def test_a_wrong_minimum_is_a_defect(self, monkeypatch):
        monkeypatch.setattr(analysis, "same_color_fraction", lambda iset: Fraction(1, 2))
        with pytest.raises(RuntimeError, match=r"^floor enumeration produced 1/2, not 5/9$"):
            prove_bound()

    def test_a_constant_set_at_the_floor_is_a_defect(self, monkeypatch):
        exact = analysis.same_color_fraction

        def rrr_at_the_floor(iset):
            return Fraction(5, 9) if iset.label == "RRR" else exact(iset)

        monkeypatch.setattr(analysis, "same_color_fraction", rrr_at_the_floor)
        with pytest.raises(RuntimeError, match=r"^unexpected minimizers: "):
            prove_bound()


# A member of each family below is a response table: the two wings' colors on
# each of the nine setting pairs, in ALL_SETTING_PAIRS order. In the lambdas,
# a and b are Left's and Right's settings counted from 0, and a one-bit leak
# sends whether the sender's setting is k.
SETTING_INDICES = [(a - 1, b - 1) for a, b in ALL_SETTING_PAIRS]
COLORS_OF_6 = tuple(product(Color, repeat=6))


def _table(left, right):
    """The table of wings whose colors are ``left(a, b)`` and ``right(a, b)``."""
    return tuple((left(a, b), right(a, b)) for a, b in SETTING_INDICES)


def _no_leak():
    """Each wing's color is a function of its own setting: 8 x 8 pairs."""
    return (_table(lambda a, b: l[a], lambda a, b: r[b]) for l in INSTRUCTION_SETS for r in INSTRUCTION_SETS)


def _one_split_from_left():
    """Right's color is a function of its setting and Left's bit: 8 x 3 x 64."""
    return (
        _table(lambda a, b: l[a], lambda a, b: r[2 * b + (a == k)])
        for l in INSTRUCTION_SETS for k in range(3) for r in COLORS_OF_6
    )


def _one_split_each_way():
    """Each wing's color is a function of its setting and the other's bit:
    3 x 3 x 64 x 64."""
    return (
        _table(lambda a, b: l[2 * a + (b == j)], lambda a, b: r[2 * b + (a == k)])
        for k in range(3) for j in range(3) for l in COLORS_OF_6 for r in COLORS_OF_6
    )


def _whole_setting_from_left():
    """Right's color is a function of both settings: 8 x 512."""
    return (_table(lambda a, b: l[a], lambda a, b: r[3 * a + b]) for l in INSTRUCTION_SETS for r in product(Color, repeat=9))


def _same_fraction(table):
    return Fraction(sum(left is right for left, right in table), 9)


def _feature_i(table):
    """All three equal-setting entries agree."""
    return table[0][0] is table[0][1] and table[4][0] is table[4][1] and table[8][0] is table[8][1]


def _frontier(family):
    """The least same-color fraction over ``family`` with feature (i)."""
    return _exact_minimum(family, _same_fraction, _feature_i)


# Eight one-bit strategies whose equal mixture is the quantum law: Left's
# instruction set, the settings on which Left sends bit 1, and Right's color
# for bit 0 and bit 1 under each of its three settings
ONE_BIT_ROWS = (
    ("RRG", {3}, "RR RG GG"),
    ("RGR", {3}, "RG GG RR"),
    ("RGR", {3}, "RG GG GR"),
    ("RGR", {2, 3}, "RR GG GR"),
    ("GRR", {2}, "GG RR RG"),
    ("GRG", {3}, "GR RR RG"),
    ("GRG", {3}, "GR RR GG"),
    ("GGG", {3}, "GG GR RG"),
)


def _one_bit_table(label, sends_one, right_colors):
    left = InstructionSet.from_label(label)
    right = [Color(c) for c in right_colors.replace(" ", "")]
    return _table(lambda a, b: left[a], lambda a, b: right[2 * b + (a + 1 in sends_one)])


class TestCensorshipFrontier:
    """How much may the frames tell before the floor falls? The least
    same-color fraction with feature (i), exactly, through the enumerator
    ``prove_bound`` calls: 5/9 with no leak, 4/9 once Left leaks one bit of
    its setting, 1/3 once a bit goes each way or Left's whole setting goes."""

    @pytest.mark.parametrize(
        "family, least, members, extremizers",
        [
            (_no_leak, Fraction(5, 9), 8, 6),
            (_one_split_from_left, Fraction(4, 9), 176, 24),
            (_one_split_each_way, Fraction(1, 3), 3_872, 48),
            (_whole_setting_from_left, Fraction(1, 3), 512, 8),
        ],
    )
    def test_least_same_fraction(self, family, least, members, extremizers):
        values, minimum, minimizers = _frontier(family())
        assert (len(values), minimum, len(minimizers)) == (members, least, extremizers)
        assert type(minimum) is Fraction

    def test_with_no_leak_the_agreed_non_uniform_sets_are_least(self):
        minimizers = _frontier(_no_leak())[2]
        assert minimizers == tuple(_table(lambda a, b: i[a], lambda a, b: i[b]) for i in prove_bound().minimizers)

    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 4), Fraction(1)])
    def test_measurement_dependence(self, p):
        # a fraction p of runs have settings the wings can predict, and they
        # know which runs those are; those runs take a whole-setting table,
        # whose least, 1/3, is the least feature (i) allows at all, and the
        # others a no-leak table
        predicted, free = _frontier(_whole_setting_from_left())[0], _frontier(_no_leak())[0]
        least = _exact_minimum(product(predicted, free), lambda m: p * predicted[m[0]] + (1 - p) * free[m[1]])[1]
        assert least == Fraction(5, 9) - 2 * p / 9

    def test_eight_one_bit_strategies_mix_to_the_quantum_law(self):
        tables = [_one_bit_table(*row) for row in ONE_BIT_ROWS]
        values, least, _ = _frontier(tables)
        assert len(values) == 8  # each row keeps feature (i)
        assert sorted(values.values()) == [Fraction(4, 9)] * 6 + [Fraction(2, 3)] * 2
        assert least == Fraction(4, 9)
        target = singlet_joint()
        for i, pair in enumerate(ALL_SETTING_PAIRS):
            assert Fraction(sum(left is right for left, right in (t[i] for t in tables)), 8) == target[pair]
            # uniform marginals: each wing flashes R in half the rows
            assert sum(t[i][0] is Color.R for t in tables) == sum(t[i][1] is Color.R for t in tables) == 4

    @pytest.mark.parametrize("value", [0.5, 1, "5/9"])
    def test_a_value_that_is_not_a_fraction_is_refused(self, value):
        with pytest.raises(TypeError, match=r"must be a Fraction, got "):
            _exact_minimum(INSTRUCTION_SETS, lambda iset: value)

    def test_prove_bound_is_one_call_of_the_enumerator(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return _exact_minimum(*args)

        monkeypatch.setattr(analysis, "_exact_minimum", spy)
        prove_bound()
        assert calls == [(INSTRUCTION_SETS, analysis.same_color_fraction)]


class TestHoeffdingRadius:
    def test_reference_value(self):
        # sqrt(ln(2/1e-6) / (2 * 100000))
        assert hoeffding_radius(100_000) == pytest.approx(0.0085172, abs=1e-6)

    def test_formula(self):
        n = 12345
        assert hoeffding_radius(n) == pytest.approx(
            math.sqrt(math.log(2 / DEFAULT_FAILURE_PROBABILITY) / (2 * n))
        )

    def test_rejects_bad_arguments(self):
        # a bool or a float equal to a count is not one
        for n, message in [
            (0, "must be >= 1, got 0"),
            (-1, "must be >= 1, got -1"),
            (True, "must be an integer, got True"),
            (2.5, "must be an integer, got 2.5"),
        ]:
            with pytest.raises(ValueError) as refused:
                hoeffding_radius(n)
            assert str(refused.value) == f"n {message}"


class TestFeatureI:
    def test_negotiation_stream_holds(self):
        strat = negotiation_strategy()
        records = [
            execute_run(CFG, strat, pair, seed)
            for seed in range(30)
            for pair in ALL_SETTING_PAIRS
        ]
        assert check_feature_i(_tally(records))

    def test_detects_violation(self):
        records = [
            _oracle_record(0, 1, 2, "R", "R"),
            _oracle_record(1, 2, 2, "R", "G"),
            _oracle_record(2, 3, 3, "G", "G"),
        ]
        assert not check_feature_i(_tally(records))

    def test_empty_stream_vacuously_holds(self):
        assert check_feature_i(ExperimentStats.empty())

    def test_stats_level_check_agrees(self):
        good = _uniform_stats(0.5, 100)
        assert check_feature_i(good)
        bad = _stats({(2, 2): (5, 1)})
        assert not check_feature_i(bad)
        # off-diagonal disagreement is not a feature (i) violation
        assert check_feature_i(_stats({(1, 1): (3, 0), (1, 3): (0, 7)}))


class TestFeatureII:
    def test_holds_near_half(self):
        # diagonal always agrees; off-diagonal at 1/4 puts the overall at 1/2
        stats = _uniform_stats(0.25, 11111)
        assert check_feature_ii(stats).holds

    def test_fails_for_constant_strategy(self):
        stats = _uniform_stats(1.0, 1000)
        result = check_feature_ii(stats)
        assert not result.holds
        assert result.observed == 1

    def test_fails_for_agreed_set_strategies(self):
        stats = _uniform_stats(2 / 3, 11111)
        result = check_feature_ii(stats)
        assert not result.holds
        assert float(result.observed) >= 5 / 9 - 0.005


class TestGapReport:
    def test_disjoint_at_scale(self):
        classical = _uniform_stats(2 / 3, 11112)  # ~100k runs
        quantum = _uniform_stats(0.25, 11112)
        report = bell_gap_report(classical, quantum)
        assert report.disjoint
        assert report.sufficient_power
        assert report.warning is None
        assert "disjoint" in report.verdict

    def test_underpowered_warns_without_failing(self):
        classical = _stats({(1, 1): (4, 0), (1, 2): (2, 4)})
        quantum = _stats({(2, 2): (3, 0), (2, 3): (1, 2)})
        report = bell_gap_report(classical, quantum)
        assert not report.sufficient_power
        assert report.warning is not None
        assert "insufficient power" in report.warning

    def test_identical_inputs_show_no_gap(self):
        stats = _uniform_stats(0.25, 11112)
        report = bell_gap_report(stats, stats)
        assert not report.disjoint
        assert "overlap" in report.verdict

    def test_json_fields(self):
        report = bell_gap_report(_uniform_stats(2 / 3, 1000), _uniform_stats(0.25, 1000))
        doc = json.loads(report.to_json())
        assert doc["floor"] == "5/9"
        assert doc["failure_probability"] == DEFAULT_FAILURE_PROBABILITY
        assert set(doc) >= {
            "classical_same", "quantum_same", "classical_radius",
            "quantum_radius", "disjoint", "sufficient_power", "verdict",
        }


class TestStatsAlgebra:
    def test_overall_same_is_exact(self):
        stats = _stats({(1, 1): (1, 0), (1, 2): (1, 2)})
        assert stats.overall_same == Fraction(2, 4)
        assert stats.n_runs == 4

    def test_empty_overall_raises(self):
        with pytest.raises(ValueError):
            ExperimentStats.empty().overall_same

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=8), st.booleans()),
            max_size=60,
        ),
        st.data(),
    )
    def test_merge_commutative_and_associative(self, events, data):
        split_a = data.draw(st.integers(min_value=0, max_value=len(events)))
        split_b = data.draw(st.integers(min_value=split_a, max_value=len(events)))

        def tally(chunk):
            s = ExperimentStats.empty()
            for idx, same in chunk:
                s.record(ALL_SETTING_PAIRS[idx], same)
            return s

        a = tally(events[:split_a])
        b = tally(events[split_a:split_b])
        c = tally(events[split_b:])
        assert a.merge(b) == b.merge(a)
        assert a.merge(b).merge(c) == a.merge(b.merge(c))
        assert a.merge(b).merge(c) == tally(events)

    def test_merge_identity(self):
        stats = _uniform_stats(0.5, 7)
        assert stats.merge(ExperimentStats.empty()) == stats

    def test_stats_equal_only_stats(self):
        # __eq__ returns NotImplemented for another type, so Python falls
        # back to identity
        stats = _uniform_stats(0.5, 7)
        assert stats != object()
        assert (stats == 1) is False
        assert stats.__eq__(1) is NotImplemented


class TestInducedInstructionSet:
    def test_fixed_strategy_round_trip(self):
        iset = InstructionSet.from_label("RRG")
        strat = fixed_instruction_strategy(iset)
        rec = execute_run(CFG, strat, SettingPair(Setting.ONE, Setting.TWO), 23)
        assert induced_instruction_set(strat, rec, CFG) == (iset, iset)

    def test_tampered_transcript_detected(self):
        strat = negotiation_strategy()
        rec = execute_run(CFG, strat, SettingPair(Setting.ONE, Setting.TWO), 23)
        bad_messages = list(rec.transcript)
        bad_messages[0] = b"\xff" * 32
        tampered = RunRecord(
            run_index=rec.run_index,
            settings=rec.settings,
            colors=rec.colors,
            transcript=tuple(bad_messages),
            seed=rec.seed,
            strategy_id=rec.strategy_id,
        )
        with pytest.raises(ReplayMismatchError, match="transcript"):
            induced_instruction_set(strat, tampered, CFG)

    def test_tampered_colors_detected(self):
        strat = negotiation_strategy()
        rec = execute_run(CFG, strat, SettingPair(Setting.ONE, Setting.TWO), 23)
        tampered = RunRecord(
            run_index=rec.run_index,
            settings=rec.settings,
            colors=tuple(Color.G if c is Color.R else Color.R for c in rec.colors),
            transcript=rec.transcript,
            seed=rec.seed,
            strategy_id=rec.strategy_id,
        )
        with pytest.raises(ReplayMismatchError, match="colors"):
            induced_instruction_set(strat, tampered, CFG)

    def test_record_of_another_strategy_refused(self):
        # a GGG record at settings (3, 3) flashes GG, which RRG also does
        # there, so without the id check it replays as two RRG sets
        ggg, rrg = (fixed_instruction_strategy(InstructionSet.from_label(label)) for label in ("GGG", "RRG"))
        rec = execute_run(CFG, ggg, SettingPair(Setting.THREE, Setting.THREE), 3)
        assert rec.colors == (Color.G, Color.G)
        with pytest.raises(ValueError, match="'fixed-GGG' record cannot be replayed under 'fixed-RRG'"):
            induced_instruction_set(rrg, rec, CFG)


class TestRenderers:
    def test_stats_json_dict(self):
        doc = _uniform_stats(0.5, 4).to_json_dict()
        assert doc["n_runs"] == 36
        assert doc["overall_same"] == "2/3"

    def test_uses_stated_default_failure_probability(self):
        assert DEFAULT_FAILURE_PROBABILITY == 1e-6
        stats = _uniform_stats(0.5, 100)
        assert check_feature_ii(stats).tolerance == math.sqrt(math.log(2 / 1e-6) / (2 * 900))
        report = bell_gap_report(stats, _uniform_stats(0.25, 10))
        assert report.quantum_radius == math.sqrt(math.log(2 / 1e-6) / (2 * 90))
