"""Referee state machine: determinism, framing, isolation, distribution."""

import copy
import io
import itertools
import json
import pickle
import re
import sys

import pytest
from hypothesis import given, settings as hsettings, strategies as st

from bellgame import quantum, randomness
from bellgame.censor import CensorViolation, ExperimentAborted
from bellgame.core import (
    ALL_SETTING_PAIRS,
    SETTINGS,
    Color,
    InstructionSet,
    RunRecord,
    Setting,
    SettingPair,
    Wing,
    _keep_state,
)
from bellgame.protocol import (
    ProtocolError,
    RunConfig,
    draw_settings,
    execute_run,
    induced_instruction_set,
    run_experiment,
)
from bellgame.quantum import QUANTUM_ORACLE_ID, quantum_experiment, sample_quantum_run
from bellgame.randomness import ByteStream, derive_run_seed
from bellgame.strategies import (
    WingStrategy,
    build_registry,
    cheat_strategy,
    fixed_instruction_strategy,
    negotiation_strategy,
)

CFG = RunConfig()
LONG_EXCHANGE = RunConfig(rounds=32, payload_bytes=256, shared_tape_bytes=256)
RRR = fixed_instruction_strategy(InstructionSet.from_label("RRR"))
# both sources of the shared run loop, as (n_runs, master_seed, sink) -> stats
EXPERIMENTS = {
    "classical": lambda n_runs, master_seed, sink: run_experiment(CFG, RRR, n_runs, master_seed, sink=sink),
    "quantum": lambda n_runs, master_seed, sink: quantum_experiment(n_runs, master_seed, sink=sink),
}


class TestDrawSettings:
    def test_deterministic(self):
        a = draw_settings(ByteStream(42, b"settings"))
        b = draw_settings(ByteStream(42, b"settings"))
        assert a == b

    def test_pairs_near_uniform(self):
        # binomial 5-sigma bound at p=1/9 over 90,000 draws is ~471 < 600
        counts = {pair: 0 for pair in ALL_SETTING_PAIRS}
        for i in range(90_000):
            seed = derive_run_seed(2024, i)
            counts[draw_settings(ByteStream(seed, b"settings"))] += 1
        for pair, n in counts.items():
            assert abs(n - 10_000) <= 600, (pair, n)

    def test_equal_settings_frequency(self):
        equal = 0
        n = 100_000
        for i in range(n):
            seed = derive_run_seed(555, i)
            pair = draw_settings(ByteStream(seed, b"settings"))
            equal += pair.left is pair.right
        assert abs(equal / n - 1 / 3) <= 0.01


class TestExecuteRun:
    def test_constant_strategy_colors(self):
        rec = execute_run(CFG, RRR, SettingPair(Setting.ONE, Setting.THREE), 99)
        assert rec.colors == (Color.R, Color.R)

    def test_negotiation_equal_settings_agree(self):
        strat = negotiation_strategy()
        for seed in (1, 2, 3, 1000, 2**60):
            for s in Setting:
                rec = execute_run(CFG, strat, SettingPair(s, s), seed)
                assert rec.colors[0] is rec.colors[1]

    def test_replay_reproduces_record(self):
        strat = negotiation_strategy()
        pair = SettingPair(Setting.TWO, Setting.THREE)
        first = execute_run(CFG, strat, pair, 777, run_index=12)
        second = execute_run(CFG, strat, pair, 777, run_index=12)
        assert first == second
        assert first.transcript == second.transcript

    def test_transcript_shape(self):
        for rounds in (1, 2, 4, 7):
            cfg = RunConfig(rounds=rounds, payload_bytes=16)
            strat = negotiation_strategy(payload_bytes=16)
            rec = execute_run(cfg, strat, SettingPair(Setting.ONE, Setting.ONE), 5)
            assert type(rec.transcript) is tuple
            assert len(rec.transcript) == 2 * rounds
            assert all(type(p) is bytes and len(p) == 16 for p in rec.transcript)

    @pytest.mark.parametrize("config", [CFG, LONG_EXCHANGE], ids=["default", "long-exchange"])
    def test_schedule_independent_of_settings(self, config):
        # sender and round are fixed by a payload's position, so what is left
        # to check is delivery: under every setting pair, each wing's inbox
        # in round r is its peer's first r payloads, round 1 first
        base = negotiation_strategy(payload_bytes=config.payload_bytes)
        seen = []

        def transition(state, round, inbox):
            seen.append((state[0], round, inbox))
            return base.transition(state, round, inbox)

        strat = base.replace(transition=transition)
        for pair in ALL_SETTING_PAIRS:
            seen.clear()
            t = execute_run(config, strat, pair, 31).transcript
            assert len(t) == 2 * config.rounds
            assert seen == [
                step
                for rnd in range(1, config.rounds + 1)
                for step in ((Wing.LEFT, rnd, t[1:2 * rnd:2]), (Wing.RIGHT, rnd, t[0:2 * rnd:2]))
            ]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("sid", [sid for sid, s in build_registry().items() if not s.requires_censor_off])
    def test_strategy_calls_independent_of_settings(self, sid, seed):
        # every slot call, with each bytes argument or inbox entry that an
        # emit call returned tagged by that call's index: under all nine
        # setting pairs the referee makes the same calls with the same
        # arguments and delivers the same objects
        base = build_registry()[sid]
        log, returned = [], []

        def tag(value):
            if isinstance(value, tuple):
                return tuple(tag(v) for v in value)
            if isinstance(value, bytes):
                return next((("emit", i) for i, r in enumerate(returned) if r is value), value)
            return value

        def logged(slot):
            fn = getattr(base, slot)

            def call(*args):
                log.append((slot, tag(args)))
                out = fn(*args)
                if slot == "emit":
                    returned.append(out)
                return out

            return call

        strat = base.replace(**{slot: logged(slot) for slot in ("init", "transition", "emit", "flash")})
        logs = []
        for pair in ALL_SETTING_PAIRS:
            log.clear()
            returned.clear()
            execute_run(CFG, strat, pair, seed)
            logs.append(list(log))
        assert all(run_log == logs[0] for run_log in logs)

    @pytest.mark.parametrize(
        "seed, run_index, pair, message",
        [
            (2**64 + 5, 0, (1, 2), "seed must be in [0, 2**64), got 18446744073709551621"),
            (-1, 0, (1, 2), "seed must be in [0, 2**64), got -1"),
            (5, -3, (1, 2), "run index must be >= 0, got -3"),
            (5, 0, (0, 1), "settings must be a pair of settings in [1, 3], got (0, 1)"),
            (5, 0, (1, 4), "settings must be a pair of settings in [1, 3], got (1, 4)"),
            (5, 0, (1.0, 2), "settings must be a pair of settings in [1, 3], got (1.0, 2)"),
            (5, 0, (True, 2), "settings must be a pair of settings in [1, 3], got (True, 2)"),
            (5, 1.0, (1, 2), "run index must be an integer, got 1.0"),
            (5, True, (1, 2), "run index must be an integer, got True"),
            (5.0, 0, (1, 2), "seed must be an integer, got 5.0"),
            (5, 0, None, "settings must be a pair of settings in [1, 3], got None"),
            (5, 0, [1, 2], "settings must be a pair of settings in [1, 3], got [1, 2]"),
        ],
        ids=[
            "seed-past-2**64", "negative-seed", "negative-run-index", "setting-0", "setting-4",
            "float-setting", "bool-setting", "float-run-index", "bool-run-index", "float-seed",
            "no-settings", "list-settings",
        ],
    )
    def test_refuses_what_no_record_line_holds(self, seed, run_index, pair, message):
        # the byte streams reduce a seed mod 2**64, so 2**64 + 5 would run
        # seed 5's bytes under a record that the writer refuses; setting 0
        # would flash as setting 3, and setting 4 would fail after the
        # rounds. A float or bool compares equal to an int, but no record
        # line holds it: a float setting would fail as an index after the
        # rounds. Each is refused before any strategy call, and a replay
        # refuses such a record as well
        calls = []

        def init(wing_id, shared_tape, private_tape, run_index):
            calls.append(wing_id)
            return RRR.init(wing_id, shared_tape, private_tape, run_index)

        strategy = RRR.replace(init=init)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            execute_run(CFG, strategy, pair, seed, run_index=run_index)
        assert calls == []
        record = execute_run(CFG, RRR, (1, 2), 5)._replace(seed=seed, run_index=run_index, settings=pair)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            record.to_json_line()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            induced_instruction_set(strategy, record, CFG)
        assert calls == []

    def test_takes_plain_setting_pairs(self):
        # a pair of ints is one of the nine pairs, and plays as its member
        for pair in ALL_SETTING_PAIRS:
            plain = tuple(int(s) for s in pair)
            assert execute_run(CFG, negotiation_strategy(), plain, 11) == execute_run(
                CFG, negotiation_strategy(), pair, 11
            )

    def test_accepts_the_ends_of_the_seed_range(self):
        for seed in (0, 2**64 - 1):
            line = execute_run(CFG, RRR, SettingPair(Setting.ONE, Setting.TWO), seed).to_json_line()
            assert RunRecord.from_json_line(line).seed == seed

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.sampled_from(ALL_SETTING_PAIRS))
    @hsettings(max_examples=30, deadline=None)
    def test_pure_in_seed_and_settings(self, seed, pair):
        a = execute_run(CFG, RRR, pair, seed)
        b = execute_run(CFG, RRR, pair, seed)
        assert a == b

    class _Frame(bytes):
        """A ``bytes`` subclass: never a valid frame, whatever its length."""

    @pytest.mark.parametrize("censor", [True, False], ids=["censor-on", "censor-off"])
    @pytest.mark.parametrize("bad", ["short", "subclass"])
    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("wing", [Wing.LEFT, Wing.RIGHT])
    def test_bad_frame_rejected(self, wing, k, bad, censor):
        # only ``wing`` sends a bad frame, in round k + 1, after k rounds of
        # one valid frame object that the referee need not check again; the
        # error names that wing and round
        good = bytes(32)
        frame = {"short": b"short", "subclass": self._Frame(32)}[bad]
        got = {"short": "5", "subclass": "bytes subclass '_Frame'"}[bad]

        def emit(state, round, inbox, randomness_slice, setting):
            return frame if state is wing and round > k else good

        broken = WingStrategy(
            "bad-frames", lambda wing_id, shared_tape, private_tape, run_index: wing_id,
            _keep_state, emit, lambda state, full_inbox, setting: Color.R,
        )
        config = CFG.replace(rounds=k + 2, censor_enabled=censor)
        message = f"wing {wing.value}, round {k + 1}: payload must be exactly 32 bytes, got {got}"
        with pytest.raises(ProtocolError, match=f"^{re.escape(message)}$"):
            execute_run(config, broken, SettingPair(Setting.ONE, Setting.ONE), 1)


    @pytest.mark.parametrize("sink", [None, io.StringIO()], ids=["no-sink", "sink"])
    def test_flash_must_return_a_color(self, sink):
        # the tally compares colors with `is`, so without the check the
        # interned letter would be tallied as a color
        rrg = build_registry()["fixed-RRG"]
        broken = rrg.replace(flash=lambda state, full_inbox, setting: "R")
        message = "wing L, setting 1: flash must return Color.R or Color.G, got 'R'"
        with pytest.raises(ProtocolError, match=re.escape(message)):
            run_experiment(CFG, broken, 100, 1, sink=sink)
        if sink is not None:
            assert sink.getvalue() == ""

    @staticmethod
    def _broken_from_run(first_bad, fault):
        """A copy of fixed-RRG that breaks the contract from run ``first_bad``
        on: its flash returns a letter, not a Color, its emit leaks the
        setting or sends a short frame, or its init is negotiation's at
        2-byte frames, which raises a ValueError."""
        rrg = build_registry()["fixed-RRG"]
        tiny = negotiation_strategy(payload_bytes=2)

        def init(wing, shared, private, run_index):
            if fault == "init" and run_index >= first_bad:
                return tiny.init(wing, shared, private, run_index)
            return (run_index, rrg.init(wing, shared, private, run_index))

        def flash(state, full_inbox, setting):
            if fault == "flash" and state[0] >= first_bad:
                return "R"
            return rrg.flash(state[1], full_inbox, setting)

        def emit(state, round, inbox, randomness_slice, setting):
            if fault == "leak" and state[0] >= first_bad:
                return bytes([setting]) * CFG.payload_bytes
            if fault == "short" and state[0] >= first_bad:
                return bytes(CFG.payload_bytes - 1)
            return rrg.emit(state[1], round, inbox, randomness_slice, setting)

        return rrg, rrg.replace(init=init, emit=emit, flash=flash)

    # one way out of an experiment: both faults leave the same attributes
    ABORTS = {"flash": ProtocolError, "leak": CensorViolation}

    @pytest.mark.parametrize("fault", sorted(ABORTS))
    def test_protocol_error_carries_the_completed_runs(self, fault):
        rrg, broken = self._broken_from_run(5, fault)
        sink = io.StringIO()
        with pytest.raises(ExperimentAborted) as excinfo:
            run_experiment(CFG, broken, 100, 1, sink=sink)
        assert type(excinfo.value) is self.ABORTS[fault]
        assert excinfo.value.completed_runs == 5
        assert excinfo.value.partial_stats == run_experiment(CFG, rrg, 5, 1)
        expected = io.StringIO()
        run_experiment(CFG, rrg, 5, 1, sink=expected)
        assert sink.getvalue() == expected.getvalue()  # the header and runs 0 to 4

    # what ends a run from run k on: a censor abort, a framing abort, or a
    # configuration error, which is no abort
    ENDINGS = {"leak": CensorViolation, "short": ProtocolError, "init": ValueError}

    @pytest.mark.parametrize("first_bad", [0, 3])
    @pytest.mark.parametrize("fault", sorted(ENDINGS))
    def test_a_sink_holds_only_the_completed_runs(self, fault, first_bad):
        # the header goes out with run 0's record, so whatever ends run 0
        # leaves the sink empty
        rrg, broken = self._broken_from_run(first_bad, fault)
        sink = io.StringIO()
        with pytest.raises(self.ENDINGS[fault]):
            run_experiment(CFG, broken, 10, 1, sink=sink)
        expected = io.StringIO()
        if first_bad:
            run_experiment(CFG, rrg, first_bad, 1, sink=expected)
        assert sink.getvalue() == expected.getvalue()
        assert sink.getvalue().count("\n") == (1 + first_bad if first_bad else 0)

    @pytest.mark.parametrize("fault", sorted(ABORTS))
    def test_bare_run_protocol_error_carries_nothing(self, fault):
        _, broken = self._broken_from_run(5, fault)
        with pytest.raises(self.ABORTS[fault]) as excinfo:
            execute_run(CFG, broken, SettingPair(Setting.ONE, Setting.TWO), 1, run_index=5)
        assert excinfo.value.completed_runs is None
        assert excinfo.value.partial_stats is None

    def test_experiment_aborted_is_the_base_of_both_aborts(self):
        import bellgame

        assert bellgame.ExperimentAborted.__bases__ == (Exception,)
        for abort in (bellgame.CensorViolation, bellgame.ProtocolError):
            assert abort.__bases__ == (bellgame.ExperimentAborted,)
            # the partial results are declared once, on the base
            assert "completed_runs" not in vars(abort)
            assert "partial_stats" not in vars(abort)

    @pytest.mark.parametrize("wing", [Wing.LEFT, Wing.RIGHT])
    @pytest.mark.parametrize("bad_setting", list(Setting))
    def test_every_flash_is_checked(self, wing, bad_setting):
        def init(wing_id, shared_tape, private_tape, run_index):
            return wing_id

        def transition(state, round, inbox):
            return state

        def emit(state, round, inbox, randomness_slice, setting):
            return bytes(32)

        def flash(state, full_inbox, setting):
            return None if (state, setting) == (wing, bad_setting) else Color.G

        strategy = WingStrategy("bad-flash", init, transition, emit, flash)
        message = f"wing {wing.value}, setting {int(bad_setting)}: flash must return Color.R or Color.G, got None"
        with pytest.raises(ProtocolError, match=re.escape(message)):
            execute_run(CFG, strategy, SettingPair(Setting.ONE, Setting.ONE), 1)


class TestIsolation:
    def test_wing_slots_never_see_peer_state(self):
        seen = {Wing.LEFT: [], Wing.RIGHT: []}
        states = {}

        def init(wing_id, shared_tape, private_tape, run_index):
            state = object()
            states[wing_id] = state
            return (wing_id, state)

        def transition(state, round, inbox):
            seen[state[0]].extend([state[1], inbox])
            return state

        def emit(state, round, inbox, randomness_slice, setting):
            seen[state[0]].extend([state[1], inbox, randomness_slice])
            return bytes(32)

        def flash(state, full_inbox, setting):
            seen[state[0]].extend([state[1], full_inbox])
            return Color.R

        spy = WingStrategy("spy", init, transition, emit, flash)
        execute_run(CFG, spy, SettingPair(Setting.ONE, Setting.TWO), 11)

        def reachable(objs):
            out = set()
            for obj in objs:
                out.add(id(obj))
                if isinstance(obj, tuple):
                    out.update(id(x) for x in obj)
            return out

        # the only inter-wing data paths are the shared tape and messages:
        # one wing's state object is never reachable from the other's inputs
        assert id(states[Wing.RIGHT]) not in reachable(seen[Wing.LEFT])
        assert id(states[Wing.LEFT]) not in reachable(seen[Wing.RIGHT])

    def test_private_tapes_differ_and_shared_tape_matches(self):
        captured = {}

        def init(wing_id, shared_tape, private_tape, run_index):
            captured[wing_id] = (shared_tape, private_tape)
            return None

        def transition(state, round, inbox):
            return state

        def emit(state, round, inbox, randomness_slice, setting):
            return bytes(32)

        def flash(state, full_inbox, setting):
            return Color.G

        probe = WingStrategy("probe", init, transition, emit, flash)
        execute_run(CFG, probe, SettingPair(Setting.THREE, Setting.ONE), 1234)
        assert captured[Wing.LEFT][0] == captured[Wing.RIGHT][0]
        assert captured[Wing.LEFT][1] != captured[Wing.RIGHT][1]

    @pytest.mark.parametrize("rounds", [4, 32])
    def test_undeclared_randomness_is_empty(self, rounds):
        captured = {}
        config = CFG.replace(rounds=rounds)

        def init(wing_id, shared_tape, private_tape, run_index):
            captured[wing_id] = [shared_tape, private_tape]
            return wing_id

        def emit(state, round, inbox, randomness_slice, setting):
            captured[state].append(randomness_slice)
            return bytes(32)

        def flash(state, full_inbox, setting):
            return Color.G

        probe = WingStrategy("probe", init, lambda state, round, inbox: state, emit, flash, reads=("shared",))
        execute_run(config, probe, SettingPair(Setting.TWO, Setting.THREE), 99)
        for wing in Wing:
            shared, private, *slices = captured[wing]
            assert len(shared) == config.shared_tape_bytes
            assert private == b""
            assert len(slices) == 3 * rounds  # the censor emits under every setting
            assert set(slices) == {b""}

    @pytest.mark.parametrize("rounds", [1, 4, 5, 32, 40])
    def test_declared_slices_cut_each_wing_stream_in_order(self, rounds):
        # round r's slice is bytes 16(r - 1) to 16r of its wing's stream, and
        # a frame's three counterfactual emit calls get the same slice object
        seed = 4242
        captured = {Wing.LEFT: [], Wing.RIGHT: []}

        def emit(state, round, inbox, randomness_slice, setting):
            captured[state].append((round, randomness_slice))
            return bytes(32)

        probe = WingStrategy(
            "slice-probe", lambda wing_id, shared_tape, private_tape, run_index: wing_id,
            _keep_state, emit, lambda state, full_inbox, setting: Color.G, reads=("slices",),
        )
        execute_run(CFG.replace(rounds=rounds), probe, SettingPair(Setting.ONE, Setting.TWO), seed)
        for wing, label in ((Wing.LEFT, b"slices/L"), (Wing.RIGHT, b"slices/R")):
            stream = randomness.stream_bytes(seed, label, 16 * rounds)
            calls = captured[wing]
            assert [rnd for rnd, _ in calls] == [r for r in range(1, rounds + 1) for _ in range(3)]
            for r in range(1, rounds + 1):
                first, second, third = (piece for _, piece in calls[3 * (r - 1):3 * r])
                assert type(first) is bytes and len(first) == 16
                assert first == stream[16 * (r - 1):16 * r]
                assert first is second is third


def _inbox_probe(config, reads, calls):
    """A strategy whose round-r frame from a wing is ``bytes([r, w])`` padded
    to size (w is 0 for Left, 1 for Right), and which logs every ``emit``,
    ``transition`` and ``flash`` call as ``(slot, wing, round, inbox)`` into
    ``calls``; a flash logs round None and its full inbox."""
    pad = bytes(config.payload_bytes - 2)

    def init(wing_id, shared_tape, private_tape, run_index):
        return wing_id

    def transition(state, round, inbox):
        calls.append(("transition", state, round, inbox))
        return state

    def emit(state, round, inbox, randomness_slice, setting):
        calls.append(("emit", state, round, inbox))
        return bytes((round, 0 if state is Wing.LEFT else 1)) + pad

    def flash(state, full_inbox, setting):
        calls.append(("flash", state, None, full_inbox))
        return Color.R

    return WingStrategy("inbox-probe", init, transition, emit, flash, reads=reads)


class TestInboxDeclaration:
    """A strategy that leaves ``"inbox"`` out of ``reads`` is passed ``()``
    for its inbox in every ``emit``, ``transition`` and ``flash`` call; one
    that declares it is passed its peer's payloads so far, where index
    ``r - 1`` holds round ``r``. The transcript is the same either way."""

    @pytest.mark.parametrize("censor", [True, False], ids=["censor-on", "censor-off"])
    @pytest.mark.parametrize("config", [CFG, LONG_EXCHANGE], ids=["default", "long-exchange"])
    @pytest.mark.parametrize("reads", [(), ("shared", "inbox")], ids=["inbox-blind", "inbox-reader"])
    def test_inbox_each_call_sees(self, reads, config, censor):
        config = config.replace(censor_enabled=censor)
        calls = []
        record = execute_run(config, _inbox_probe(config, reads, calls), SettingPair(Setting.TWO, Setting.ONE), 8)
        pad = bytes(config.payload_bytes - 2)
        sent = {
            wing: tuple(bytes((rnd, w)) + pad for rnd in range(1, config.rounds + 1))
            for w, wing in enumerate(Wing)
        }
        assert record.transcript == tuple(p for pair in zip(sent[Wing.LEFT], sent[Wing.RIGHT]) for p in pair)
        peer = {Wing.LEFT: sent[Wing.RIGHT], Wing.RIGHT: sent[Wing.LEFT]}

        def inbox(wing, n):
            return peer[wing][:n] if "inbox" in reads else ()

        expected = []
        for rnd in range(1, config.rounds + 1):
            for wing in Wing:
                expected += [("emit", wing, rnd, inbox(wing, rnd - 1))] * (3 if censor else 1)
            expected += [("transition", wing, rnd, inbox(wing, rnd)) for wing in Wing]
        for wing in Wing:
            expected += [("flash", wing, None, inbox(wing, config.rounds))] * 3
        assert calls == expected
        assert all(type(call[3]) is tuple for call in calls)

    @pytest.mark.parametrize("reads", [(), ("inbox",)], ids=["inbox-blind", "inbox-reader"])
    def test_censor_aborts_at_the_same_frame(self, reads):
        # Right's round-3 frame of run 2 names its setting: the abort comes at
        # that run, round and wing whatever the strategy declares
        filler = bytes(CFG.payload_bytes)

        def init(wing_id, shared_tape, private_tape, run_index):
            return (wing_id, run_index)

        def emit(state, round, inbox, randomness_slice, setting):
            if state == (Wing.RIGHT, 2) and round == 3:
                return bytes((setting,)) + filler[1:]
            return filler

        def flash(state, full_inbox, setting):
            return Color.R

        def violation(**declared):
            strategy = WingStrategy("late-leak", init, lambda state, round, inbox: state, emit, flash, **declared)
            with pytest.raises(CensorViolation) as excinfo:
                run_experiment(CFG, strategy, 10, 77)
            return excinfo.value.completed_runs, excinfo.value.violation

        completed, found = violation(reads=reads)
        assert (completed, found.round, found.wing) == (2, 3, Wing.RIGHT)
        assert (completed, found) == violation()  # the default reads everything


class TestRefereeCalls:
    """The slot calls the referee makes in one run, counted on a strategy
    whose transition is not the identity: ``init`` twice, ``emit`` three
    times per frame with the censor on and once with it off, ``transition``
    once per wing and round and ``flash`` under each setting for each wing."""

    @pytest.mark.parametrize("reads", [(), ("inbox",)], ids=["inbox-blind", "inbox-reader"])
    @pytest.mark.parametrize("censor", [True, False], ids=["censor-on", "censor-off"])
    @pytest.mark.parametrize("rounds", [1, 4, 32])
    def test_calls_per_run(self, rounds, censor, reads):
        counts = dict.fromkeys(("init", "transition", "emit", "flash"), 0)
        filler = bytes(CFG.payload_bytes)

        def init(wing_id, shared_tape, private_tape, run_index):
            counts["init"] += 1
            return (wing_id, 0)

        def transition(state, round, inbox):
            counts["transition"] += 1
            return (state[0], round)

        def emit(state, round, inbox, randomness_slice, setting):
            counts["emit"] += 1
            return filler

        def flash(state, full_inbox, setting):
            counts["flash"] += 1
            return Color.G

        strategy = WingStrategy("counting", init, transition, emit, flash, reads=reads)
        config = CFG.replace(rounds=rounds, censor_enabled=censor)
        execute_run(config, strategy, SettingPair(Setting.THREE, Setting.TWO), rounds)
        assert counts == {
            "init": 2,
            "transition": 2 * rounds,
            "emit": (3 if censor else 1) * 2 * rounds,
            "flash": 6,
        }

    @pytest.mark.parametrize("config", [CFG, LONG_EXCHANGE], ids=["default", "long-exchange"])
    @pytest.mark.parametrize("sid", list(build_registry()))
    def test_shipped_calls_per_run(self, config, sid):
        # every shipped strategy keeps its state, and the referee skips the
        # identity, so no transition call is made
        strategy = build_registry(config.payload_bytes)[sid]
        assert strategy.transition is _keep_state
        counts = dict.fromkeys(("init", "transition", "emit", "flash"), 0)

        def counted(slot):
            fn = getattr(strategy, slot)

            def call(*args):
                counts[slot] += 1
                return fn(*args)

            return call

        slots = [slot for slot in counts if getattr(strategy, slot) is not _keep_state]
        censor = not strategy.requires_censor_off
        counting = strategy.replace(**{slot: counted(slot) for slot in slots})
        run_experiment(config.replace(censor_enabled=censor), counting, 3, 9)
        rounds = config.rounds
        assert counts == {
            "init": 3 * 2,
            "transition": 0,
            "emit": 3 * (3 if censor else 1) * 2 * rounds,
            "flash": 3 * 6,
        }

    @pytest.mark.parametrize("config", [CFG, LONG_EXCHANGE], ids=["default", "long-exchange"])
    @pytest.mark.parametrize("sid", [sid for sid, s in build_registry().items() if s.transition is _keep_state])
    def test_skipped_identity_changes_no_byte(self, config, sid):
        # the referee skips the identity transition; called through a
        # wrapper, it gives the same record stream
        strategy = build_registry(config.payload_bytes)[sid]
        config = config.replace(censor_enabled=not strategy.requires_censor_off)
        wrapped = strategy.replace(transition=lambda state, round, inbox: _keep_state(state, round, inbox))
        streams = []
        for s in (strategy, wrapped):
            sink = io.StringIO()
            run_experiment(config, s, 30, 12, sink=sink)
            streams.append(sink.getvalue())
        assert streams[0] == streams[1]

def _digests_per_run(monkeypatch, experiment, n_runs, master_seed):
    """``(labels, states)`` of the keyed blake2b digests the package makes on
    each run's key while ``experiment(n_runs, master_seed)`` runs. ``labels``
    holds each run's labels in call order: a label is the digested message,
    passed to ``blake2b`` or fed to a keyed state, less its 8-byte block
    counter, and every digest must be of a block 0 and on the key of one of
    the runs. ``states`` holds each run's ``(built, copied)``: how many keyed
    states ``blake2b(key=...)`` built, and how many copies were made of them."""
    real = randomness.blake2b
    calls = []
    states = {}

    class Keyed:
        """A keyed blake2b state that records its copies and the messages
        fed to it."""

        def __init__(self, key, state):
            self._key, self._state = key, state

        def copy(self):
            states[self._key][1] += 1
            return Keyed(self._key, self._state.copy())

        def update(self, data):
            calls.append((self._key, data[:-8], data[-8:]))
            self._state.update(data)

        def digest(self):
            return self._state.digest()

    def recording(data=None, *, key, **kwargs):
        if data is None:
            states.setdefault(key, [0, 0])[0] += 1
            return Keyed(key, real(key=key, **kwargs))
        calls.append((key, data[:-8], data[-8:]))
        return real(data, key=key, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "bellgame" and getattr(module, "blake2b", None) is real:
            monkeypatch.setattr(module, "blake2b", recording)
    experiment(n_runs, master_seed)
    keys = [derive_run_seed(master_seed, i).to_bytes(8, "little") for i in range(n_runs)]
    labels = {key: [] for key in keys}
    for key, label, counter in calls:
        assert counter == bytes(8)
        labels[key].append(label)
    assert states.keys() <= labels.keys()
    return list(labels.values()), [tuple(states.get(key, (0, 0))) for key in keys]


class TestStreamsDrawn:
    """The referee computes only the streams a strategy declares, each from
    one digest on the run's key."""

    def _labels(self, monkeypatch, strategy):
        def experiment(n_runs, master_seed):
            run_experiment(CFG, strategy, n_runs, master_seed)

        return _digests_per_run(monkeypatch, experiment, 3, 5)[0]

    def test_fixed_draws_settings_only(self, monkeypatch):
        assert self._labels(monkeypatch, RRR) == [[b"settings"]] * 3

    def test_negotiation_draws_settings_and_shared_tape(self, monkeypatch):
        assert self._labels(monkeypatch, negotiation_strategy()) == [[b"settings", b"tape/shared"]] * 3

    def test_max_random_draws_shared_tape_and_slices(self, monkeypatch):
        labels = self._labels(monkeypatch, build_registry()["max-random"])
        assert labels == [[b"settings", b"tape/shared", b"slices/L", b"slices/R"]] * 3

    def test_near_leak_draws_private_tapes_and_slices(self, monkeypatch):
        labels = self._labels(monkeypatch, build_registry()["near-leak"])
        assert labels == [[b"settings", b"tape/private/L", b"tape/private/R", b"slices/L", b"slices/R"]] * 3

    @pytest.mark.parametrize("sid", list(build_registry()))
    def test_long_exchange_builds_no_byte_stream(self, monkeypatch, sid):
        # 256-byte tapes and 512-byte slice sets each span several blocks,
        # read from copies of one keyed state, not through a ByteStream
        def no_stream(seed, label):
            raise AssertionError(f"a ByteStream was built for {label!r}")

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "bellgame" and hasattr(module, "ByteStream"):
                monkeypatch.setattr(module, "ByteStream", no_stream)
        strategy = build_registry(LONG_EXCHANGE.payload_bytes)[sid]
        config = LONG_EXCHANGE.replace(censor_enabled=not strategy.requires_censor_off)
        for seed, pair in enumerate(ALL_SETTING_PAIRS):
            record = execute_run(config, strategy, pair, seed)
            assert len(record.transcript) == 2 * LONG_EXCHANGE.rounds


class TestOracleDraws:
    """The oracle takes each run's two bytes from one digest on the keyed
    state whose copy the settings digest used, one state per run, and builds
    no ByteStream; the stream sampler reads only the bytes it needs."""

    @pytest.mark.parametrize("sink", [None, io.StringIO()], ids=["no-sink", "sink"])
    def test_one_digest_per_run(self, monkeypatch, sink):
        def no_stream(seed, label):
            raise AssertionError("the oracle built a ByteStream")

        def experiment(n_runs, master_seed):
            quantum_experiment(n_runs, master_seed, sink=sink)

        monkeypatch.setattr(quantum, "ByteStream", no_stream)
        labels, states = _digests_per_run(monkeypatch, experiment, 7, 3)
        assert labels == [[b"settings", b"oracle"]] * 7
        assert states == [(1, 1)] * 7

    @pytest.mark.parametrize("pair", ALL_SETTING_PAIRS, ids=lambda p: f"{int(p.left)}{int(p.right)}")
    def test_sampler_reads_one_byte_on_equal_settings_two_otherwise(self, pair):
        seed = derive_run_seed(9, 0)
        stream = ByteStream(seed, b"oracle")
        sample_quantum_run(pair, stream)
        used = 1 if pair.left is pair.right else 2
        assert stream.u8() == ByteStream(seed, b"oracle").take(3)[used]


def _fallback_run(head: int) -> tuple[int, int]:
    """(master seed, run index) of the first run, over master seeds 0, 1, ...
    and run indices below 64, whose settings stream has a rejected 255 at
    byte ``head`` and not at the other of its first two bytes, and whose
    settings the two bytes alone, with the 255 read as setting 1, would get
    wrong."""
    for master in itertools.count():
        for index in range(64):
            seed = derive_run_seed(master, index)
            first_two = ByteStream(seed, b"settings").take(2)
            if first_two[head] != 255 or first_two[1 - head] == 255:
                continue
            unskipped = SettingPair(*(SETTINGS[b % 3] for b in first_two))
            if unskipped != draw_settings(ByteStream(seed, b"settings")):
                return master, index


# runs whose settings only the loop's redraw after a rejected byte gets right
FALLBACK_RUNS = {"byte-0": _fallback_run(0), "byte-1": _fallback_run(1)}


class TestSettingsFallback:
    """The run loop skips a rejected 255 setting byte as draw_settings does:
    every record carries the settings of its seed's settings stream, also on
    a run whose stream starts with a 255."""

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    @pytest.mark.parametrize("head", sorted(FALLBACK_RUNS))
    def test_records_carry_drawn_settings(self, experiment, head):
        master, index = FALLBACK_RUNS[head]
        sink = io.StringIO()
        EXPERIMENTS[experiment](index + 1, master, sink)
        records = [RunRecord.from_json_line(line) for line in sink.getvalue().splitlines()[1:]]
        assert [r.run_index for r in records] == list(range(index + 1))
        for record in records:
            assert record.seed == derive_run_seed(master, record.run_index)
            assert record.settings == draw_settings(ByteStream(record.seed, b"settings"))


class TestRunExperiment:
    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            run_experiment(CFG, RRR, 0, 1)

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    @pytest.mark.parametrize(
        "n_runs, master_seed, message",
        [
            pytest.param(n, seed, message, id=f"{n}-{seed}")
            for n, seed, message in [
                *((n, seed, "must be an integer") for n, seed in [
                    (True, 1), (2.0, 1), ("2", 1), (2, True), (2, False), (2, 1.5), (2, "1"), (2, None),
                ]),
                (0, 1, "n_runs must be >= 1, got 0"),
                # derive_run_seed reduces mod 2**64, so these would alias 2**64 - 1 and 0
                (2, -1, "master_seed must be in [0, 2**64), got -1"),
                (2, 2**64, "master_seed must be in [0, 2**64), got 18446744073709551616"),
            ]
        ],
    )
    def test_rejects_runs_or_seed_that_is_not_an_int(self, experiment, n_runs, master_seed, message):
        # a bool is an int, but neither a run count nor a seed
        sink = io.StringIO()
        with pytest.raises(ValueError, match=re.escape(message)):
            EXPERIMENTS[experiment](n_runs, master_seed, sink)
        assert sink.getvalue() == ""

    def test_deterministic_stats(self):
        strat = negotiation_strategy()
        a = run_experiment(CFG, strat, 500, 42)
        b = run_experiment(CFG, strat, 500, 42)
        assert a == b

    def test_record_stream_header_and_lines(self):
        sink = io.StringIO()
        run_experiment(CFG, RRR, 3, 42, sink=sink)
        lines = sink.getvalue().splitlines()
        assert len(lines) == 4
        header = json.loads(lines[0])
        assert header["type"] == "header"
        assert header["strategy"] == "fixed-RRR"
        assert header["master_seed"] == "42"
        assert header["seed_derivation"] == "splitmix64"
        assert header["config"]["rounds"] == 4
        for i, line in enumerate(lines[1:]):
            obj = json.loads(line)
            assert obj["run"] == i
            assert obj["seed"] == str(derive_run_seed(42, i))
            assert len(obj["transcript"]) == 8

    def test_abort_carries_partial_results(self):
        cheat = cheat_strategy()
        with pytest.raises(ExperimentAborted) as excinfo:
            run_experiment(CFG, cheat, 100, 5)
        aborted = excinfo.value
        assert aborted.completed_runs == 0
        assert aborted.partial_stats.n_runs == 0
        assert aborted.violation.round == 1
        assert aborted.violation.wing is Wing.LEFT

    def test_run_indices_recorded(self):
        sink = io.StringIO()
        run_experiment(CFG, RRR, 5, 11, sink=sink)
        runs = [json.loads(l)["run"] for l in sink.getvalue().splitlines()[1:]]
        assert runs == [0, 1, 2, 3, 4]


class TestWireRoundTrip:
    """Every record line parses back to a record that writes the same line
    and equals the run a replay of it produces."""

    @pytest.mark.parametrize("config, payload_bytes", [(CFG, 32), (LONG_EXCHANGE, 256)], ids=["default", "long-exchange"])
    @pytest.mark.parametrize("sid", list(build_registry()))
    def test_registry_lines_round_trip(self, config, payload_bytes, sid):
        strategy = build_registry(payload_bytes)[sid]
        if strategy.requires_censor_off:
            config = config.replace(censor_enabled=False)
        sink = io.StringIO()
        run_experiment(config, strategy, 50, 19, sink=sink)
        lines = sink.getvalue().splitlines()[1:]
        assert len(lines) == 50
        for line in lines:
            rec = RunRecord.from_json_line(line)
            assert rec.to_json_line() == line
            assert rec == execute_run(config, strategy, rec.settings, rec.seed, run_index=rec.run_index)
            assert len(rec.transcript) == 2 * config.rounds
            assert all(type(p) is bytes and len(p) == payload_bytes for p in rec.transcript)

    def test_oracle_lines_round_trip(self):
        sink = io.StringIO()
        quantum_experiment(50, 19, sink=sink)
        lines = sink.getvalue().splitlines()[1:]
        assert len(lines) == 50
        for i, line in enumerate(lines):
            rec = RunRecord.from_json_line(line)
            assert rec.to_json_line() == line
            assert (rec.run_index, rec.seed, rec.strategy_id) == (i, derive_run_seed(19, i), QUANTUM_ORACLE_ID)
            assert rec.transcript == ()
            assert rec.colors == sample_quantum_run(rec.settings, ByteStream(rec.seed, b"oracle"))


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(rounds=0)
    with pytest.raises(ValueError):
        RunConfig(payload_bytes=0)
    with pytest.raises(ValueError):
        RunConfig(shared_tape_bytes=-1)


class TestRunConfigClass:
    """RunConfig is an immutable slot class: checked on every construction,
    copies included, and compared, hashed and printed field by field."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("payload_bytes", 32.0, "payload_bytes must be an integer, got 32.0"),
            ("rounds", True, "rounds must be an integer, got True"),
            ("shared_tape_bytes", 64.0, "shared_tape_bytes must be an integer, got 64.0"),
            ("censor_enabled", 0, "censor_enabled must be a bool, got 0"),
        ],
    )
    def test_rejects_a_value_of_the_wrong_type(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(**{field: value})
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig().replace(**{field: value})

    def test_replace_checks_the_copy(self):
        with pytest.raises(ValueError, match="rounds must be >= 1"):
            RunConfig().replace(rounds=0)
        assert CFG.replace(rounds=8) == RunConfig(rounds=8)
        assert CFG.replace() == CFG and CFG.rounds == 4
        with pytest.raises(TypeError):
            CFG.replace(round=8)

    def test_fields_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            CFG.rounds = 5
        with pytest.raises(AttributeError):
            del CFG.censor_enabled
        with pytest.raises(AttributeError):
            CFG.extra = 1
        assert CFG == RunConfig()

    def test_equality_hash_and_repr_go_field_by_field(self):
        assert RunConfig() == RunConfig(4, 32, 64, True)
        assert hash(RunConfig()) == hash(RunConfig(4, 32, 64, True)) == hash((4, 32, 64, True))
        for changed in (RunConfig(rounds=5), RunConfig(payload_bytes=31), RunConfig(shared_tape_bytes=0), RunConfig(censor_enabled=False)):
            assert changed != CFG
        assert CFG != (4, 32, 64, True)
        assert repr(LONG_EXCHANGE) == (
            "RunConfig(rounds=32, payload_bytes=256, shared_tape_bytes=256, censor_enabled=True)"
        )

    @pytest.mark.parametrize("config", [CFG, LONG_EXCHANGE, RunConfig(censor_enabled=False)], ids=repr)
    def test_copy_and_pickle_round_trip(self, config):
        for twin in (copy.copy(config), copy.deepcopy(config), pickle.loads(pickle.dumps(config))):
            assert type(twin) is RunConfig
            assert twin == config and twin.to_json_dict() == config.to_json_dict()
