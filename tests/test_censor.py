"""Censor semantics: per-emission vetting and whole-run invariance."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings as hsettings, strategies as st

from bellgame.analysis import check_feature_i
from bellgame.censor import CensorViolation, verify_transcript_invariance, vet_emission
from bellgame.core import (
    ALL_SETTING_PAIRS,
    INSTRUCTION_SETS,
    SETTINGS,
    Color,
    InstructionSet,
    Setting,
    SettingPair,
    Wing,
)
from bellgame.protocol import ProtocolError, RunConfig, execute_run, run_experiment, run_settings
from bellgame.randomness import derive_run_seed
from bellgame.strategies import (
    StrategyError,
    WingStrategy,
    build_registry,
    cheat_strategy,
    negotiation_strategy,
    validate_strategy,
)

CFG = RunConfig()


def _vet(strategy, round=1, state=None, inbox=(), rand=bytes(16)):
    return vet_emission(strategy, Wing.LEFT, state, round, inbox, rand)


def _strategy(emit, strategy_id="test"):
    def init(wing_id, shared_tape, private_tape, run_index):
        return None

    def transition(state, round, inbox):
        return state

    def flash(state, full_inbox, setting):
        return Color.R

    return WingStrategy(strategy_id, init, transition, emit, flash)


class TestVetEmission:
    def test_setting_independent_passes(self):
        strat = _strategy(lambda state, round, inbox, rand, setting: bytes(32))
        assert _vet(strat) == bytes(32)

    def test_delivered_payload_is_the_setting_one_object(self):
        # three equal frames, one object per setting: the one delivered is
        # the setting-1 object, so its identity cannot carry the setting
        frames = tuple(bytes(bytearray(32)) for _ in SETTINGS)
        strat = _strategy(lambda state, round, inbox, rand, setting: frames[setting - 1])
        assert _vet(strat, round=2) is frames[0]

    def test_first_byte_leak_flagged_one_vs_two(self):
        strat = _strategy(
            lambda state, round, inbox, rand, setting: bytes([setting]) + bytes(31)
        )
        with pytest.raises(CensorViolation) as caught:
            _vet(strat)
        v = caught.value.violation
        assert v.setting_a is Setting.ONE
        assert v.setting_b is Setting.TWO
        assert v.payload_a != v.payload_b
        assert v.payload_a[0] == 1 and v.payload_b[0] == 2
        assert v.wing is Wing.LEFT and v.round == 1

    def test_partial_leak_identifies_differing_pair(self):
        # payload differs only when the setting is 3
        strat = _strategy(
            lambda state, round, inbox, rand, setting: (
                b"\xff" + bytes(31) if setting is Setting.THREE else bytes(32)
            )
        )
        with pytest.raises(CensorViolation) as caught:
            _vet(strat, round=4)
        assert caught.value.violation.setting_a is Setting.ONE
        assert caught.value.violation.setting_b is Setting.THREE

    def test_negotiation_round_one_passes(self):
        strat = negotiation_strategy()
        state = strat.init(Wing.LEFT, bytes(range(64)), bytes(64), 0)
        payload = _vet(strat, state=state)
        assert payload[:3].decode("ascii") in {i.label for i in INSTRUCTION_SETS}

    def test_violation_json_has_hex_payloads(self):
        strat = _strategy(
            lambda state, round, inbox, rand, setting: bytes([setting, 0xAB])
        )
        with pytest.raises(CensorViolation) as caught:
            _vet(strat)
        doc = json.loads(caught.value.violation.to_json())
        assert doc["payload_a"] == "01ab"
        assert doc["payload_b"] == "02ab"
        assert doc["wing"] == "L"
        assert doc["setting_a"] == 1 and doc["setting_b"] == 2


class _AlwaysEqual(bytes):
    """Other bytes that claim to equal anything."""

    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False

    __hash__ = bytes.__hash__


class _Short(bytes):
    """40 bytes that claim to be 32."""

    def __len__(self):
        return 32


_SHORT = _Short(bytes(40))

# emits that each make the first frame something other than exact bytes
_NOT_FRAMES = {
    # plain bytes under setting 1, other bytes that equal them under 2 and 3
    "always-equal-subclass": lambda state, round, inbox, rand, setting: (
        bytes(32) if setting is Setting.ONE else _AlwaysEqual(b"\x01" * 32)
    ),
    "short-len-subclass": lambda state, round, inbox, rand, setting: _SHORT,
    "none-under-setting-2": lambda state, round, inbox, rand, setting: (
        None if setting is Setting.TWO else bytes(32)
    ),
}
# the type each case's framing error names
_NOT_FRAME_TYPES = {
    "always-equal-subclass": "bytes subclass '_AlwaysEqual'",
    "short-len-subclass": "bytes subclass '_Short'",
    "none-under-setting-2": "NoneType",
}


class TestFramesAreExactBytes:
    """A frame is exact ``bytes``: the censor compares nothing else, as a
    subclass can redefine ``==``, and the referee's framing check rejects
    anything else in the first frame, wing L, round 1."""

    @pytest.mark.parametrize("case", sorted(_NOT_FRAMES))
    def test_stops_at_the_first_frame(self, case):
        with pytest.raises(ProtocolError, match="wing L, round 1: payload must be exactly 32 bytes") as caught:
            run_experiment(CFG, _strategy(_NOT_FRAMES[case]), 20, 3)
        assert caught.value.completed_runs == 0
        assert str(caught.value).endswith(f"32 bytes, got {_NOT_FRAME_TYPES[case]}")

    def test_short_len_subclass_refused_with_censor_off(self):
        with pytest.raises(ProtocolError, match="wing L, round 1"):
            run_experiment(CFG.replace(censor_enabled=False), _strategy(_NOT_FRAMES["short-len-subclass"]), 20, 3)

    def test_always_equal_subclass_fails_whole_run_replay(self):
        strat = _strategy(_NOT_FRAMES["always-equal-subclass"])
        with pytest.raises(ProtocolError, match="wing L, round 1"):
            verify_transcript_invariance(CFG, strat, SettingPair(Setting.ONE, Setting.TWO), 3)


class TestTransitionGuard:
    def test_all_registered_strategies_pass(self):
        for strategy in build_registry().values():
            validate_strategy(strategy)

    def test_transition_with_setting_parameter_rejected(self):
        def init(wing_id, shared_tape, private_tape, run_index):
            return None

        def transition(state, round, inbox, setting):
            return setting  # tries to store the setting in public state

        def emit(state, round, inbox, randomness_slice, setting):
            return bytes(32)

        def flash(state, full_inbox, setting):
            return Color.R

        smuggler = WingStrategy("smuggler", init, transition, emit, flash)
        with pytest.raises(StrategyError, match="never a setting"):
            validate_strategy(smuggler)

    def test_wrong_emit_arity_rejected(self):
        def init(wing_id, shared_tape, private_tape, run_index):
            return None

        def transition(state, round, inbox):
            return state

        def emit(state, round, inbox):
            return bytes(32)

        def flash(state, full_inbox, setting):
            return Color.R

        with pytest.raises(StrategyError, match="emit must take"):
            validate_strategy(WingStrategy("short-emit", init, transition, emit, flash))


_GLOBAL_STASH = {}


def _flash_stash(kind):
    """A strategy that tries to pass Left's setting to Right's ``flash``
    through a side channel, and flashes cheat's colors with what it finds.

    ``kind`` names the channel:

    - ``closure``: Left's ``flash`` writes a dict in the factory's closure;
    - ``global``: it writes a module global;
    - ``shared-state``: both ``init`` calls put one mutable dict in the state;
    - ``first-call``: it writes only on its first call of each run;
    - ``identity``: Left emits one equal-bytes frame object per setting, and
      Right's ``flash`` reads no side state but finds its round-1 frame by
      ``is``.

    Every frame is equal under all three settings, so the censor passes
    every emission."""
    filler = bytes(CFG.payload_bytes)
    frames = tuple(bytes(bytearray(CFG.payload_bytes)) for _ in SETTINGS)
    stash = _GLOBAL_STASH if kind == "global" else {}

    def init(wing_id, shared_tape, private_tape, run_index):
        return (wing_id, shared_tape[0], shared_tape[1], run_index, stash)

    def transition(state, round, inbox):
        return state

    def emit(state, round, inbox, randomness_slice, setting):
        if kind == "identity" and state[0] is Wing.LEFT:
            return frames[setting - 1]
        return filler

    def flash(state, full_inbox, setting):
        wing_id, color_byte, same_byte, run_index, box = state
        left_color = Color.R if color_byte & 1 == 0 else Color.G
        if wing_id is Wing.LEFT:
            if kind in ("closure", "global"):
                stash["left"] = setting
            elif kind == "shared-state":
                box["left"] = setting
            elif kind == "first-call":
                stash.setdefault(run_index, setting)
            return left_color
        if kind == "identity":
            left = next(s for s, frame in zip(SETTINGS, frames) if frame is full_inbox[0])
        elif kind == "shared-state":
            left = box["left"]
        else:
            left = stash[run_index if kind == "first-call" else "left"]
        same = setting is left or same_byte < 64
        return left_color if same else (Color.G if left_color is Color.R else Color.R)

    strategy = WingStrategy(f"{kind}-stash", init, transition, emit, flash, reads=("shared", "inbox"))
    validate_strategy(strategy)
    return strategy


_STASH_KINDS = ("closure", "global", "shared-state", "first-call", "identity")


class TestFlashSideChannel:
    """No call into strategy code depends on the actual settings, so a
    setting passed through a side channel is never the actual one: Right's
    color ignores Left's setting, and the strategy loses feature (i)."""

    @pytest.mark.parametrize("right", SETTINGS)
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kind", _STASH_KINDS)
    def test_right_color_ignores_left_setting(self, kind, seed, right):
        colors = {
            execute_run(CFG, _flash_stash(kind), SettingPair(left, right), seed).colors[1]
            for left in SETTINGS
        }
        assert len(colors) == 1

    @pytest.mark.parametrize("kind", _STASH_KINDS)
    def test_stash_fails_feature_i(self, kind):
        # at 2,000 runs a working channel holds feature (i) and lands near 1/2
        assert not check_feature_i(run_experiment(CFG, _flash_stash(kind), 2000, 2024))


def _emit_stash_strategy():
    """Every frame is filler; Left's ``emit`` leaves its setting in a dict in
    the factory's closure, and Right's ``flash`` reads it: Right flashes R
    when its setting equals the stashed one, G otherwise."""
    filler = bytes(CFG.payload_bytes)
    stash = {}

    def init(wing_id, shared_tape, private_tape, run_index):
        return wing_id

    def transition(state, round, inbox):
        return state

    def emit(state, round, inbox, randomness_slice, setting):
        if state is Wing.LEFT:
            stash["left"] = setting
        return filler

    def flash(state, full_inbox, setting):
        if state is Wing.LEFT:
            return Color.R
        return Color.R if setting is stash["left"] else Color.G

    return WingStrategy("emit-stash", init, transition, emit, flash)


class TestEmitSideState:
    """State a strategy keeps inside ``emit`` cannot reach the peer: the
    censor calls ``emit`` under all three settings, setting 3 last, so a
    stash written there never holds the actual setting."""

    def _right_colors(self, config, seed, right):
        strategy = _emit_stash_strategy()
        validate_strategy(strategy)
        return {
            execute_run(config, strategy, SettingPair(left, right), seed).colors[1]
            for left in SETTINGS
        }

    @pytest.mark.parametrize("right", SETTINGS)
    @pytest.mark.parametrize("seed", range(5))
    def test_censor_on_right_color_ignores_left_setting(self, seed, right):
        assert len(self._right_colors(CFG, seed, right)) == 1

    @pytest.mark.parametrize("right", SETTINGS)
    @pytest.mark.parametrize("seed", range(5))
    def test_censor_off_the_stash_is_a_channel(self, seed, right):
        assert self._right_colors(RunConfig(censor_enabled=False), seed, right) == {Color.R, Color.G}


def _settings_predicting_strategy(master_seed):
    """Settings are a public function of (master seed, run index), so a
    strategy that holds the master seed computes each run's settings in
    ``init``. On equal settings both wings take RRR; otherwise Left takes RRR
    and Right takes GGG. Every frame is filler, and it reads no stream."""
    filler = bytes(CFG.payload_bytes)
    rrr, ggg = InstructionSet.from_label("RRR"), InstructionSet.from_label("GGG")

    def init(wing_id, shared_tape, private_tape, run_index):
        left, right = run_settings(derive_run_seed(master_seed, run_index))
        return rrr if left is right or wing_id is Wing.LEFT else ggg

    def transition(state, round, inbox):
        return state

    def emit(state, round, inbox, randomness_slice, setting):
        return filler

    def flash(state, full_inbox, setting):
        return state[setting - 1]

    return WingStrategy("settings-predicting", init, transition, emit, flash, reads=())


class TestSettingsPrediction:
    """The 5/9 floor holds only for strategies that cannot compute the run's
    settings. The censor sees nothing wrong with one that can: it passes
    every check and, at the master seed it holds, keeps feature (i) at a
    same-color fraction near 1/3."""

    N_RUNS = 20_000

    def test_passes_the_censor_checks(self):
        strategy = _settings_predicting_strategy(2024)
        validate_strategy(strategy)
        for i in range(50):
            seed = derive_run_seed(2024, i)
            assert verify_transcript_invariance(CFG, strategy, run_settings(seed), seed, run_index=i)

    def test_beats_the_floor_at_its_master_seed(self):
        stats = run_experiment(CFG, _settings_predicting_strategy(2024), self.N_RUNS, 2024)
        assert stats.total_same == 6746  # a same-color fraction of 0.33730
        assert check_feature_i(stats)

    def test_fails_feature_i_at_another_master_seed(self):
        stats = run_experiment(CFG, _settings_predicting_strategy(2024), self.N_RUNS, 7)
        assert not check_feature_i(stats)


class TestLeakTiming:
    def test_late_leak_caught_in_its_round(self):
        def init(wing_id, shared_tape, private_tape, run_index):
            return None

        def transition(state, round, inbox):
            return state

        def emit(state, round, inbox, randomness_slice, setting):
            if round == 3:
                return bytes([setting]) + bytes(31)
            return bytes(32)

        def flash(state, full_inbox, setting):
            return Color.R

        sneaky = WingStrategy("late-leak", init, transition, emit, flash)
        with pytest.raises(CensorViolation) as excinfo:
            execute_run(CFG, sneaky, SettingPair(Setting.ONE, Setting.ONE), 8)
        assert excinfo.value.violation.round == 3
        assert excinfo.value.violation.wing is Wing.LEFT

    def test_cheat_caught_at_round_one_every_seed(self):
        cheat = cheat_strategy()
        for seed in range(20):
            with pytest.raises(CensorViolation) as excinfo:
                execute_run(CFG, cheat, SettingPair(Setting.TWO, Setting.ONE), seed)
            assert excinfo.value.violation.round == 1
            assert excinfo.value.violation.wing is Wing.LEFT


class TestWholeRunInvariance:
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from(["negotiation", "fixed-RGR", "clock-keyed", "tape-mixing", "max-random", "near-leak"]),
    )
    @hsettings(max_examples=40, deadline=None)
    def test_compliant_strategies_setting_invariant(self, seed, sid):
        strategy = build_registry()[sid]
        from bellgame.protocol import draw_settings
        from bellgame.randomness import ByteStream

        settings = draw_settings(ByteStream(seed, b"settings"))
        assert verify_transcript_invariance(CFG, strategy, settings, seed)

    def test_cheat_without_censor_is_not_invariant(self):
        cfg = RunConfig(censor_enabled=False)
        cheat = cheat_strategy()
        assert not verify_transcript_invariance(
            cfg, cheat, SettingPair(Setting.ONE, Setting.TWO), 77
        )

    def test_run_counter_is_not_invariant(self):
        # the three emits of a frame agree, so vetting passes every frame,
        # but the count kept across runs differs in every rerun
        runs = [0]

        def init(wing_id, shared_tape, private_tape, run_index):
            runs[0] += 1
            return runs[0]

        counter = _strategy(
            lambda state, round, inbox, rand, setting: state.to_bytes(CFG.payload_bytes, "big")
        ).replace(init=init)
        assert not verify_transcript_invariance(CFG, counter, SettingPair(Setting.ONE, Setting.TWO), 77)

    def test_censor_never_alters_payloads(self):
        # identical runs with the censor on and off produce identical
        # transcripts for a compliant strategy: pass or abort, never rewrite
        strat = negotiation_strategy()
        pair = SettingPair(Setting.THREE, Setting.TWO)
        with_censor = execute_run(CFG, strat, pair, 400)
        without = execute_run(RunConfig(censor_enabled=False), strat, pair, 400)
        assert with_censor.transcript == without.transcript


# Every one-bit strategy that reads only its shared tape, as lookup tables,
# run through the real referee at the smallest config. The tape is one byte
# and a wing's state is its low bit: seed 3 gives bit 0 and seed 0 bit 1.
TABLE_CFG = RunConfig(rounds=1, payload_bytes=1, shared_tape_bytes=1)
TABLE_SEEDS = {3: 0, 0: 1}  # seed: tape bit
TABLE_RUNS = [(seed, pair) for seed in TABLE_SEEDS for pair in ALL_SETTING_PAIRS]


def _entry(table: int, bit: int, setting: Setting) -> int:
    """Entry (tape bit, setting) of a six-entry one-bit table."""
    return table >> (3 * bit + setting - 1) & 1


def _table_strategy(emit_tables=((None, None),), flash_tables=(0, 0)):
    """``emit_tables[round - 1]`` holds that round's (Left, Right) tables: a
    wing sends entry (tape bit, setting) of its table as its byte, or a zero
    byte where the table is None. A wing flashes G where its entry of
    ``flash_tables`` (Left, Right) is 1, R elsewhere."""

    def init(wing_id, shared_tape, private_tape, run_index):
        return (0 if wing_id is Wing.LEFT else 1), shared_tape[0] & 1

    def emit(state, round, inbox, rand, setting):
        side, bit = state
        table = emit_tables[round - 1][side]
        return b"\x00" if table is None else bytes([_entry(table, bit, setting)])

    def flash(state, full_inbox, setting):
        side, bit = state
        return Color.G if _entry(flash_tables[side], bit, setting) else Color.R

    return _strategy(emit, "table").replace(init=init, flash=flash, reads=("shared",))


class TestTableStrategies:
    def test_censor_aborts_exactly_the_setting_dependent_emit_tables(self):
        aborted, expected = set(), set()
        for table in range(64):
            strategy = _table_strategy(emit_tables=((table, None),))
            for seed, pair in TABLE_RUNS:
                row = {_entry(table, TABLE_SEEDS[seed], setting) for setting in SETTINGS}
                if len(row) > 1:
                    expected.add((table, seed, pair))
                try:
                    record = execute_run(TABLE_CFG, strategy, pair, seed)
                except CensorViolation as violation:
                    assert (violation.violation.round, violation.violation.wing) == (1, Wing.LEFT)
                    aborted.add((table, seed, pair))
                else:
                    assert record.transcript == (bytes(row), b"\x00")
        assert len(aborted) == 864
        assert aborted == expected

    @given(
        st.tuples(*[st.tuples(st.integers(0, 63), st.integers(0, 63))] * 2),
        st.sampled_from(TABLE_RUNS),
    )
    @hsettings(max_examples=200, deadline=None)
    def test_censor_names_the_first_setting_dependent_frame(self, emit_tables, run):
        seed, pair = run
        frames = [
            (rnd, wing, [_entry(table, TABLE_SEEDS[seed], setting) for setting in SETTINGS])
            for rnd, tables in enumerate(emit_tables, 1)
            for wing, table in zip((Wing.LEFT, Wing.RIGHT), tables)
        ]
        leaks = [frame for frame in frames if len(set(frame[2])) > 1]
        strategy = _table_strategy(emit_tables=emit_tables)
        if not leaks:
            record = execute_run(TABLE_CFG.replace(rounds=2), strategy, pair, seed)
            assert record.transcript == tuple(bytes(row[:1]) for _, _, row in frames)
            return
        with pytest.raises(CensorViolation) as excinfo:
            execute_run(TABLE_CFG.replace(rounds=2), strategy, pair, seed)
        rnd, wing, row = leaks[0]
        violation = excinfo.value.violation
        assert (violation.round, violation.wing) == (rnd, wing)
        assert (violation.setting_a, violation.setting_b) == (
            (Setting.ONE, Setting.TWO) if row[0] != row[1] else (Setting.ONE, Setting.THREE)
        )

    def test_flash_tables_with_feature_i_sit_at_or_above_the_floor(self):
        kept = {}
        for flash_l in range(64):
            for flash_r in range(64):
                strategy = _table_strategy(flash_tables=(flash_l, flash_r))
                runs = [(pair, execute_run(TABLE_CFG, strategy, pair, seed).colors) for seed, pair in TABLE_RUNS]
                if all(left is right for pair, (left, right) in runs if pair.left == pair.right):
                    same = sum(left is right for _, (left, right) in runs)
                    kept[flash_l, flash_r] = Fraction(same, len(runs))
        assert sorted(kept) == [(table, table) for table in range(64)]
        assert min(kept.values()) == Fraction(5, 9)
