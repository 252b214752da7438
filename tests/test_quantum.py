"""The oracle's exact joint law and its sampled statistics."""

import io
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings as hsettings, strategies as st

from bellgame.core import ALL_SETTING_PAIRS, SETTINGS, Color, RunRecord, Setting, SettingPair
from bellgame.protocol import run_settings
from bellgame.quantum import (
    QUANTUM_ORACLE_ID,
    quantum_experiment,
    sample_quantum_run,
    singlet_joint,
)
from bellgame.randomness import ByteStream, derive_run_seed


def _first_master_seed(wanted) -> int:
    """The least master seed whose run 0 has settings and first two oracle
    bytes for which ``wanted(settings, first, second)`` holds."""
    for master in itertools.count():
        seed = derive_run_seed(master, 0)
        settings = run_settings(seed)
        first, second = ByteStream(seed, b"oracle").take(2)
        if wanted(settings, first, second):
            return master


# run 0 of each of these master seeds sits on one edge of the oracle's law
SECOND_BYTE_63 = _first_master_seed(lambda s, first, second: s.left is not s.right and second == 63)
SECOND_BYTE_64 = _first_master_seed(lambda s, first, second: s.left is not s.right and second == 64)
FIRST_BYTE_EVEN = _first_master_seed(lambda s, first, second: first % 2 == 0)
FIRST_BYTE_ODD = _first_master_seed(lambda s, first, second: first % 2 == 1)


def _oracle_records(n_runs: int, master_seed: int) -> list[RunRecord]:
    sink = io.StringIO()
    quantum_experiment(n_runs, master_seed, sink=sink)
    return [RunRecord.from_json_line(line) for line in sink.getvalue().splitlines()[1:]]


class _Bytes:
    """A stand-in stream that hands out the given bytes, then fails."""

    def __init__(self, *values):
        self._values = iter(values)

    def u8(self):
        return next(self._values)


class TestJointLaw:
    def test_diagonal_is_one(self):
        joint = singlet_joint()
        for s in SETTINGS:
            assert joint[SettingPair(s, s)] == 1

    def test_off_diagonal_is_quarter(self):
        joint = singlet_joint()
        assert joint[SettingPair(Setting.ONE, Setting.THREE)] == Fraction(1, 4)
        assert joint[SettingPair(Setting.TWO, Setting.ONE)] == Fraction(1, 4)

    def test_quarter_forced_by_consistency(self):
        # the off-diagonal value is pinned by: equal settings (prob 1/3)
        # always agree, overall agreement is exactly 1/2
        p = singlet_joint()[SettingPair(Setting.ONE, Setting.TWO)]
        assert Fraction(1, 3) * 1 + Fraction(2, 3) * p == Fraction(1, 2)

    def test_uniform_mixture_is_half(self):
        joint = singlet_joint()
        total = sum(joint[pair] for pair in ALL_SETTING_PAIRS)
        assert total / 9 == Fraction(1, 2)

    def test_symmetric(self):
        joint = singlet_joint()
        for pair in ALL_SETTING_PAIRS:
            assert joint[pair] == joint[SettingPair(pair.right, pair.left)]

    def test_sits_strictly_below_every_instruction_set(self):
        # the whole point: 1/2 is under the best any instruction set can do
        from bellgame.core import INSTRUCTION_SETS, same_color_fraction

        floor = min(same_color_fraction(i) for i in INSTRUCTION_SETS)
        assert Fraction(1, 2) < floor == Fraction(5, 9)


class TestSampling:
    def test_equal_settings_always_equal_colors(self):
        for seed in range(500):
            for s in SETTINGS:
                colors = sample_quantum_run(
                    SettingPair(s, s), ByteStream(seed, b"oracle")
                )
                assert colors[0] is colors[1]

    def test_unequal_pair_same_frequency(self):
        pair = SettingPair(Setting.ONE, Setting.TWO)
        same = 0
        n = 100_000
        for i in range(n):
            seed = derive_run_seed(31337, i)
            colors = sample_quantum_run(pair, ByteStream(seed, b"oracle"))
            same += colors[0] is colors[1]
        assert abs(same / n - 0.25) <= 0.01

    def test_left_marginal_uniform_over_mixed_settings(self):
        from bellgame.protocol import draw_settings

        reds = 0
        n = 100_000
        for i in range(n):
            seed = derive_run_seed(99, i)
            settings = draw_settings(ByteStream(seed, b"settings"))
            colors = sample_quantum_run(settings, ByteStream(seed, b"oracle"))
            reds += colors[0] is Color.R
        assert abs(reds / n - 0.5) <= 0.01

    def test_deterministic_in_seed(self):
        pair = SettingPair(Setting.TWO, Setting.THREE)
        a = sample_quantum_run(pair, ByteStream(4, b"oracle"))
        b = sample_quantum_run(pair, ByteStream(4, b"oracle"))
        assert a == b

    def test_both_marginals_uniform_at_fixed_pair(self):
        pair = SettingPair(Setting.ONE, Setting.TWO)
        n = 40_000
        reds = [0, 0]
        for i in range(n):
            seed = derive_run_seed(606, i)
            colors = sample_quantum_run(pair, ByteStream(seed, b"oracle"))
            reds[0] += colors[0] is Color.R
            reds[1] += colors[1] is Color.R
        assert abs(reds[0] / n - 0.5) <= 0.015
        assert abs(reds[1] / n - 0.5) <= 0.015


    @pytest.mark.parametrize("pair", ALL_SETTING_PAIRS, ids=lambda p: f"{int(p.left)}{int(p.right)}")
    def test_every_byte_pair_gives_the_exact_law(self, pair):
        # over all 256 first bytes (and, on unequal settings, all 256 second
        # bytes) the sampler's agreement is exactly the joint law, the left
        # color is exactly uniform, and equal settings read one byte only
        equal = pair.left is pair.right
        byte_pairs = [(first,) for first in range(256)] if equal else itertools.product(range(256), repeat=2)
        outcomes = [sample_quantum_run(pair, _Bytes(*bytes_)) for bytes_ in byte_pairs]
        agree = sum(left is right for left, right in outcomes)
        reds = sum(left is Color.R for left, _ in outcomes)
        assert Fraction(agree, len(outcomes)) == singlet_joint()[pair]
        assert Fraction(reds, len(outcomes)) == Fraction(1, 2)


class TestOracleEquivalence:
    """quantum_experiment draws each run from one digest; its records must
    hold what sample_quantum_run makes of the same run's ByteStream."""

    @given(master_seed=st.integers(0, 2**64 - 1), n_runs=st.integers(1, 12))
    @example(master_seed=SECOND_BYTE_63, n_runs=1)
    @example(master_seed=SECOND_BYTE_64, n_runs=1)
    @example(master_seed=FIRST_BYTE_EVEN, n_runs=1)
    @example(master_seed=FIRST_BYTE_ODD, n_runs=1)
    @hsettings(max_examples=60, deadline=None)
    def test_records_match_the_stream_sampler(self, master_seed, n_runs):
        records = _oracle_records(n_runs, master_seed)
        assert len(records) == n_runs
        for rec in records:
            assert rec.colors == sample_quantum_run(rec.settings, ByteStream(rec.seed, b"oracle"))

    def test_second_byte_63_agrees_and_64_differs(self):
        (agreed,) = _oracle_records(1, SECOND_BYTE_63)
        (differed,) = _oracle_records(1, SECOND_BYTE_64)
        assert agreed.colors[0] is agreed.colors[1]
        assert differed.colors[0] is not differed.colors[1]

    def test_first_byte_parity_picks_the_left_color(self):
        (even,) = _oracle_records(1, FIRST_BYTE_EVEN)
        (odd,) = _oracle_records(1, FIRST_BYTE_ODD)
        assert even.colors[0] is Color.R
        assert odd.colors[0] is Color.G


class TestQuantumExperiment:
    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            quantum_experiment(0, 1)

    def test_statistics_at_scale(self):
        stats = quantum_experiment(50_000, 7)
        eq_same, eq_diff = stats.equal_setting_counts()
        assert eq_diff == 0
        assert abs(stats.overall_same_float - 0.5) <= 0.01
        assert stats.overall_same_float < 5 / 9 - 0.02

    def test_swap_symmetry_of_statistics(self):
        stats = quantum_experiment(50_000, 8)
        per_pair = stats.per_pair_same
        for pair in ALL_SETTING_PAIRS:
            if pair.left is pair.right:
                continue
            mirrored = SettingPair(pair.right, pair.left)
            assert abs(float(per_pair[pair]) - float(per_pair[mirrored])) <= 0.03

    def test_record_stream_shape(self):
        sink = io.StringIO()
        quantum_experiment(4, 11, sink=sink)
        lines = sink.getvalue().splitlines()
        header = json.loads(lines[0])
        assert header["strategy"] == QUANTUM_ORACLE_ID
        for line in lines[1:]:
            obj = json.loads(line)
            assert obj["strategy"] == QUANTUM_ORACLE_ID
            assert obj["transcript"] == []

    def test_deterministic(self):
        assert quantum_experiment(2_000, 5) == quantum_experiment(2_000, 5)
