"""Behavior of every shipped strategy."""

import functools
import hashlib
import io
import itertools
import re

import pytest
from hypothesis import given, strategies as st

from bellgame.censor import CensorViolation
from bellgame.core import (
    ALL_SETTING_PAIRS,
    INSTRUCTION_SETS,
    Color,
    InstructionSet,
    Setting,
    SettingPair,
    Wing,
)
from bellgame.protocol import (
    ProtocolError,
    RunConfig,
    draw_settings,
    execute_run,
    induced_instruction_set,
    run_experiment,
)
from bellgame.quantum import sample_quantum_run
from bellgame.randomness import ByteStream, derive_run_seed
from bellgame.strategies import (
    _TAPE_SETS,
    StrategyError,
    WingStrategy,
    _tape_set_index,
    build_registry,
    cheat_strategy,
    clock_keyed_strategy,
    fixed_instruction_strategy,
    near_leak_strategy,
    negotiation_strategy,
    tape_mixing_strategy,
    validate_strategy,
)

CFG = RunConfig()
CFG_OFF = RunConfig(censor_enabled=False)


def _runs(strategy, n, master_seed, config=CFG):
    for i in range(n):
        seed = derive_run_seed(master_seed, i)
        settings = draw_settings(ByteStream(seed, b"settings"))
        yield execute_run(config, strategy, settings, seed, run_index=i)


class TestRegistry:
    def test_expected_ids(self):
        ids = set(build_registry())
        assert ids == {
            "negotiation",
            "fixed-RRG",
            "fixed-RGR",
            "fixed-GRR",
            "fixed-GGR",
            "fixed-GRG",
            "fixed-RGG",
            "fixed-RRR",
            "fixed-GGG",
            "clock-keyed",
            "tape-mixing",
            "max-random",
            "near-leak",
            "cheat",
        }

    def test_all_valid(self):
        for strategy in build_registry().values():
            validate_strategy(strategy)

    def test_each_is_keyed_by_its_own_id(self):
        # the CLI finds a strategy by its key and builds it alone
        for sid, strategy in build_registry().items():
            assert strategy.strategy_id == sid

    def test_flags(self):
        reg = build_registry()
        assert reg["cheat"].requires_censor_off
        assert not reg["near-leak"].agreement_based
        for sid in ("negotiation", "fixed-RRG", "clock-keyed", "tape-mixing", "max-random"):
            assert reg[sid].agreement_based, sid
            assert not reg[sid].requires_censor_off, sid

    def test_rejects_empty_id(self):
        base = negotiation_strategy()
        broken = type(base)(
            "", base.init, base.transition, base.emit, base.flash
        )
        with pytest.raises(StrategyError, match="^strategy id must be non-empty$"):
            validate_strategy(broken)

    def test_rejects_unknown_read(self):
        broken = negotiation_strategy().replace(reads=("slice",))
        with pytest.raises(StrategyError, match="'slice'"):
            validate_strategy(broken)

    def test_rejects_an_id_that_is_not_a_string(self):
        # the record encoder would raise TypeError at the first record
        with pytest.raises(StrategyError, match="^strategy id must be a string, got 5$"):
            validate_strategy(negotiation_strategy().replace(strategy_id=5))

    @pytest.mark.parametrize("reads", [None, "shared", b"shared"], ids=["none", "str", "bytes"])
    def test_rejects_reads_that_is_not_a_collection_of_names(self, reads):
        # a string would be read one letter at a time
        with pytest.raises(StrategyError, match=f"^negotiation: reads must be a tuple, list or set of names, got {reads!r}$"):
            validate_strategy(negotiation_strategy().replace(reads=reads))

    @pytest.mark.parametrize("reads", [["shared"], {"shared"}, frozenset(), ()], ids=["list", "set", "frozenset", "empty"])
    def test_accepts_reads_in_any_collection(self, reads):
        validate_strategy(negotiation_strategy().replace(reads=reads))


ALL_READS = ("shared", "private", "slices", "inbox")
LONG_EXCHANGE = RunConfig(rounds=32, payload_bytes=256, shared_tape_bytes=256)


def _jsonl_sha256(config, strategy, n, master_seed):
    sink = io.StringIO()
    run_experiment(config, strategy, n, master_seed, sink=sink)
    return hashlib.sha256(sink.getvalue().encode()).hexdigest()


class TestReadsDeclarations:
    """Each shipped ``reads`` is exact: computing every stream and passing
    the inbox instead gives the same record stream, byte for byte."""

    @pytest.mark.parametrize(
        "config, payload_bytes",
        [(CFG, CFG.payload_bytes), (LONG_EXCHANGE, 256)],
        ids=["default", "long-exchange"],
    )
    @pytest.mark.parametrize("sid", list(build_registry()))
    def test_declaration_changes_no_byte(self, config, payload_bytes, sid):
        strategy = build_registry(payload_bytes)[sid]
        if strategy.requires_censor_off:
            config = config.replace(censor_enabled=False)
        reads_all = strategy.replace(reads=ALL_READS)
        assert _jsonl_sha256(config, strategy, 50, 8) == _jsonl_sha256(config, reads_all, 50, 8)

    def test_declared_reads(self):
        reads = {sid: s.reads for sid, s in build_registry().items()}
        assert reads.pop("max-random") == ("shared", "slices")
        assert reads.pop("near-leak") == ("private", "slices", "inbox")
        for sid in ("negotiation", "tape-mixing", "cheat"):
            assert reads.pop(sid) == ("shared", "inbox"), sid
        assert set(reads.values()) == {()}  # the fixed sets and clock-keyed


class TestNegotiation:
    def test_agreed_set_read_off_for_known_proposal(self):
        # settle the agreed set via replay, then read colors off it
        strat = negotiation_strategy()
        seed = 90125
        rec = execute_run(CFG, strat, SettingPair(Setting.ONE, Setting.THREE), seed)
        left, right = induced_instruction_set(strat, rec, CFG)
        assert left == right
        assert rec.colors == (
            left.color_for(Setting.ONE),
            left.color_for(Setting.THREE),
        )

    def test_specific_agreement_rrg(self):
        # find a run whose agreed set is RRG and check colors at (1,3)
        strat = negotiation_strategy()
        target = InstructionSet.from_label("RRG")
        for seed in range(200):
            rec = execute_run(CFG, strat, SettingPair(Setting.ONE, Setting.THREE), seed)
            left, _ = induced_instruction_set(strat, rec, CFG)
            if left == target:
                assert rec.colors == (Color.R, Color.G)
                return
        pytest.fail("no seed among 200 produced an RRG agreement")

    def test_equal_settings_always_agree(self):
        strat = negotiation_strategy()
        for rec in _runs(strat, 300, 6):
            if rec.settings.left is rec.settings.right:
                assert rec.colors[0] is rec.colors[1]

    def test_works_with_single_round(self):
        cfg = RunConfig(rounds=1)
        strat = negotiation_strategy()
        rec = execute_run(cfg, strat, SettingPair(Setting.TWO, Setting.TWO), 17)
        assert rec.colors[0] is rec.colors[1]

    def test_floor_at_moderate_n(self):
        stats = run_experiment(CFG, negotiation_strategy(), 5_000, 2)
        # expectation is 2/3 under a uniform agreement distribution
        assert 0.62 <= stats.overall_same_float <= 0.71

    @pytest.mark.parametrize(
        "head, error, message",
        [
            (b"R\xffG", UnicodeDecodeError, "'ascii' codec can't decode byte 0xff in position 1"),
            (b"RGX", ValueError, "instruction set label must be three R/G letters, got 'RGX'"),
            (b"rgr", ValueError, "instruction set label must be three R/G letters, got 'rgr'"),
        ],
    )
    def test_a_head_that_is_no_label_raises_as_the_decode_did(self, head, error, message):
        strategy = negotiation_strategy()
        right = strategy.init(Wing.RIGHT, bytes(3), b"", 0)
        with pytest.raises(error, match=re.escape(message)):
            strategy.flash(right, (head + bytes(29),), Setting.ONE)

    @pytest.mark.parametrize("rounds, payload_bytes", [(4, 32), (32, 256)])
    def test_right_echoes_the_very_frame_left_sent(self, rounds, payload_bytes):
        # from round 2 on, Right sends the object Left sent in round 1, so the
        # referee checks that frame once per wing
        config = RunConfig(rounds=rounds, payload_bytes=payload_bytes, shared_tape_bytes=payload_bytes)
        strategy = negotiation_strategy(payload_bytes)
        for rec in _runs(strategy, 20, 3, config):
            proposal = rec.transcript[0]
            assert proposal[:3].decode("ascii") in {iset.label for iset in INSTRUCTION_SETS}
            assert rec.transcript[1] == bytes(payload_bytes)
            assert all(frame is proposal for frame in rec.transcript[3::2])

    def test_a_proposal_with_a_nonzero_tail_still_agrees(self):
        # a frame that is no entry of the lookup is decoded from its head
        base = negotiation_strategy()

        def emit(state, round, inbox, randomness_slice, setting):
            frame = base.emit(state, round, inbox, randomness_slice, setting)
            return frame[:3] + b"\x01" * 29 if state[0] is Wing.LEFT and round == 1 else frame

        strategy = base.replace(emit=emit)
        labels = set()
        for rec in _runs(strategy, 40, 8):
            assert rec.transcript[0][3:] == b"\x01" * 29
            left, right = induced_instruction_set(strategy, rec, CFG)
            assert left == right == InstructionSet.from_label(rec.transcript[0][:3].decode("ascii"))
            labels.add(left.label)
        assert len(labels) > 4

    def test_rejects_tiny_frames(self):
        strategy = negotiation_strategy(payload_bytes=2)  # building it is fine
        config = RunConfig(payload_bytes=2)
        with pytest.raises(ValueError, match="at least 3 bytes"):
            run_experiment(config, strategy, 1, 0)


class TestFixedSets:
    def test_rrr_always_same(self):
        stats = run_experiment(CFG, fixed_instruction_strategy(INSTRUCTION_SETS[6]), 2_000, 9)
        assert stats.overall_same_float == 1.0

    @pytest.mark.parametrize("label", ["RRG", "RGG"])
    def test_empirical_tracks_exact_fraction(self, label):
        iset = InstructionSet.from_label(label)
        from bellgame.core import same_color_fraction

        exact = float(same_color_fraction(iset))
        assert exact == pytest.approx(5 / 9)
        stats = run_experiment(CFG, fixed_instruction_strategy(iset), 20_000, 3)
        assert abs(stats.overall_same_float - exact) < 0.02

    def test_induced_sets_match_construction(self):
        iset = InstructionSet.from_label("RRG")
        strat = fixed_instruction_strategy(iset)
        rec = next(iter(_runs(strat, 1, 44)))
        assert induced_instruction_set(strat, rec, CFG) == (iset, iset)

    def test_per_pair_fractions_are_exact_indicators(self):
        # given the pair, a fixed set's outcome is deterministic: the
        # per-pair same fraction must be exactly 0 or 1, matching the set
        iset = InstructionSet.from_label("GRG")
        stats = run_experiment(CFG, fixed_instruction_strategy(iset), 3_000, 61)
        for pair, frac in stats.per_pair_same.items():
            expected = 1 if iset.color_for(pair.left) is iset.color_for(pair.right) else 0
            assert frac == expected, (pair, frac)


class TestCheat:
    def test_equal_settings_always_agree_censor_off(self):
        cheat = cheat_strategy()
        for seed in range(200):
            for s in Setting:
                rec = execute_run(CFG_OFF, cheat, SettingPair(s, s), seed)
                assert rec.colors[0] is rec.colors[1]

    def test_reproduces_half_overall(self):
        stats = run_experiment(CFG_OFF, cheat_strategy(), 20_000, 14)
        assert abs(stats.overall_same_float - 0.5) < 0.015

    def test_violates_immediately_with_censor_on(self):
        with pytest.raises(CensorViolation) as excinfo:
            execute_run(CFG, cheat_strategy(), SettingPair(Setting.ONE, Setting.TWO), 5)
        v = excinfo.value.violation
        assert v.round == 1
        assert v.payload_a[0] != v.payload_b[0]

    def test_flashes_the_oracle_outcome_for_every_byte_pair(self):
        # the oracle reads the same two bytes from its stream that cheat
        # reads from the shared tape
        class TwoBytes:
            def __init__(self, first, second):
                self.u8 = iter((first, second)).__next__

        cheat = cheat_strategy()
        frames = {s: cheat.emit(None, 1, (), b"", s) for s in Setting}
        for first in range(256):
            for second in range(256):
                tape = bytes((first, second))
                left = cheat.init(Wing.LEFT, tape, b"", 0)
                right = cheat.init(Wing.RIGHT, tape, b"", 0)
                for pair in ALL_SETTING_PAIRS:
                    colors = (
                        cheat.flash(left, (frames[pair.right],), pair.left),
                        cheat.flash(right, (frames[pair.left],), pair.right),
                    )
                    assert colors == sample_quantum_run(pair, TwoBytes(first, second)), (first, second, pair)

    def test_induced_sets_refused(self):
        cheat = cheat_strategy()
        rec = execute_run(CFG_OFF, cheat, SettingPair(Setting.ONE, Setting.TWO), 5)
        with pytest.raises(ValueError, match="censor-compliant"):
            induced_instruction_set(cheat, rec, CFG_OFF)


class TestAdversarialSuite:
    def test_clock_keyed_cycles_sets(self):
        strat = clock_keyed_strategy()
        for i, rec in enumerate(_runs(strat, 16, 8)):
            expected = INSTRUCTION_SETS[i % 8]
            assert rec.colors[0] is expected.color_for(rec.settings.left)
            assert rec.colors[1] is expected.color_for(rec.settings.right)

    def test_clock_keyed_floor_sanity(self):
        stats = run_experiment(CFG, clock_keyed_strategy(), 10_000, 21)
        assert stats.overall_same_float >= 5 / 9 - 0.02

    def test_tape_mixing_agreement_and_message_dependence(self):
        strat = tape_mixing_strategy()
        for rec in _runs(strat, 200, 33):
            left, right = induced_instruction_set(strat, rec, CFG)
            assert left == right
            if rec.settings.left is rec.settings.right:
                assert rec.colors[0] is rec.colors[1]

    def test_near_leak_passes_censor_but_breaks_agreement(self):
        strat = near_leak_strategy()
        saw_disagreement = False
        for rec in _runs(strat, 400, 77):  # no CensorViolation raised
            if rec.settings.left is rec.settings.right:
                saw_disagreement |= rec.colors[0] is not rec.colors[1]
        assert saw_disagreement, "private coins should disagree sometimes"

    def test_max_random_frames_vary_by_round(self):
        reg = build_registry()
        rec = execute_run(
            CFG, reg["max-random"], SettingPair(Setting.ONE, Setting.ONE), 13
        )
        left_payloads = rec.transcript[::2]
        assert len(set(left_payloads)) == len(left_payloads)


def _wrapped(fn):
    """``fn`` behind a functools.wraps wrapper, as perfbench's tracer wraps slots."""

    @functools.wraps(fn)
    def call(*args):
        return fn(*args)

    return call


class TestWingStrategyClass:
    """WingStrategy is an immutable slot class, compared, hashed and printed
    field by field."""

    def test_fields_cannot_be_assigned(self):
        strategy = negotiation_strategy()
        with pytest.raises(AttributeError):
            strategy.flash = strategy.emit
        with pytest.raises(AttributeError):
            strategy.agreement_based = False
        with pytest.raises(AttributeError):
            del strategy.reads
        assert strategy.agreement_based and strategy.reads == ("shared", "inbox")

    def test_keyword_construction(self):
        # the keyword shape perfbench's tracer builds strategies with
        base = build_registry()["tape-mixing"]
        built = WingStrategy(
            base.strategy_id,
            init=base.init,
            transition=base.transition,
            emit=base.emit,
            flash=base.flash,
            requires_censor_off=base.requires_censor_off,
            agreement_based=base.agreement_based,
            reads=base.reads,
        )
        validate_strategy(built)
        assert built == base
        assert _jsonl_sha256(CFG, built, 20, 4) == _jsonl_sha256(CFG, base, 20, 4)

    def test_defaults(self):
        base = negotiation_strategy()
        bare = WingStrategy("bare", base.init, base.transition, base.emit, base.flash)
        assert (bare.requires_censor_off, bare.agreement_based, bare.reads) == (False, False, ALL_READS)

    def test_equality_hash_and_repr_go_field_by_field(self):
        base = negotiation_strategy()
        twin = base.replace()
        assert twin == base and twin is not base
        assert hash(twin) == hash(base)
        assert base.replace(agreement_based=False) != base
        assert base.replace(emit=_wrapped(base.emit)) != base
        # each factory call makes new closures, so two calls are two strategies
        assert negotiation_strategy() != base
        assert repr(base) == (
            f"WingStrategy(strategy_id='negotiation', init={base.init!r}, "
            f"transition={base.transition!r}, emit={base.emit!r}, flash={base.flash!r}, "
            "requires_censor_off=False, agreement_based=True, reads=('shared', 'inbox'))"
        )

    @pytest.mark.parametrize("sid", list(build_registry()))
    def test_validate_accepts_wrapped_slots(self, sid):
        base = build_registry()[sid]
        wrapped = base.replace(**{slot: _wrapped(getattr(base, slot)) for slot in ("init", "transition", "emit", "flash")})
        validate_strategy(wrapped)
        config = CFG_OFF if base.requires_censor_off else CFG
        assert _jsonl_sha256(config, wrapped, 20, 6) == _jsonl_sha256(config, base, 20, 6)

    @pytest.mark.parametrize(
        "slot, bad, shape",
        [
            ("init", lambda wing_id, shared_tape, private_tape: None, "init must take"),
            ("init", lambda wing_id, shared_tape, private_tape, run_index, setting: None, "init must take"),
            ("transition", lambda state, round: state, "never a setting"),
            ("transition", lambda state, round, setting: state, "never a setting"),
            ("transition", lambda state, round, inbox, setting: state, "never a setting"),
            ("emit", lambda state, round, inbox, setting: b"", "emit must take"),
            ("emit", lambda state, round, inbox, setting, randomness_slice: b"", "emit must take"),
            ("emit", lambda state, round, inbox, randomness_slice, other: b"", "emit must take"),
            ("flash", lambda state, full_inbox: None, "flash must take"),
            ("flash", lambda state, setting, full_inbox: None, "flash must take"),
            ("flash", lambda state, full_inbox, colour: None, "flash must take"),
        ],
    )
    @pytest.mark.parametrize("wrap", [False, True], ids=["bare", "wrapped"])
    def test_validate_rejects_every_malformed_shape(self, slot, bad, shape, wrap):
        broken = negotiation_strategy().replace(**{slot: _wrapped(bad) if wrap else bad})
        with pytest.raises(StrategyError, match=shape):
            validate_strategy(broken)


# Reference slot bodies for the strategies that compute frame parts and
# decodes once, in the factory or at import: the same frames, recomputed on
# every call from the slice length, ``bytes([...])``, the instruction set's
# label and a generator decode.


def _generator_decode(raw):
    # two-bit decode per setting: low bits 0..1 pick R, 2..3 pick G
    return InstructionSet(*(Color.R if (b & 3) < 2 else Color.G for b in raw[:3]))


def _reference_max_random(payload_bytes):
    def init(wing_id, shared_tape, private_tape, run_index):
        if len(shared_tape) < 3:
            raise ValueError("max-random needs at least 3 shared tape bytes")
        return _generator_decode(shared_tape)

    def emit(state, round, inbox, randomness_slice, setting):
        reps = -(-payload_bytes // len(randomness_slice))
        return (randomness_slice * reps)[: payload_bytes - 1] + bytes([round & 0xFF])

    def flash(state, full_inbox, setting):
        return state.color_for(setting)

    return {"init": init, "emit": emit, "flash": flash}


def _reference_near_leak(payload_bytes):
    def init(wing_id, shared_tape, private_tape, run_index):
        coin = Color.R if private_tape[0] & 1 == 0 else Color.G
        return (wing_id, coin, run_index & 0xFF)

    def emit(state, round, inbox, randomness_slice, setting):
        wing_id, coin, clock = state
        last = inbox[-1][0] if inbox else 0
        head = bytes(
            (round & 0xFF, clock, last, 0 if wing_id is Wing.LEFT else 1, 0 if coin is Color.R else 1)
        )
        return (head + randomness_slice * payload_bytes)[:payload_bytes]

    def flash(state, full_inbox, setting):
        return state[1]

    return {"init": init, "emit": emit, "flash": flash}


def _reference_negotiation(payload_bytes):
    filler = bytes(payload_bytes)
    pad = bytes(max(payload_bytes - 3, 0))

    def init(wing_id, shared_tape, private_tape, run_index):
        if payload_bytes < 3:
            raise ValueError("negotiation needs payload frames of at least 3 bytes")
        if len(shared_tape) < 3:
            raise ValueError("negotiation needs at least 3 shared tape bytes")
        if wing_id is Wing.LEFT:
            proposal = _generator_decode(shared_tape)
            return (wing_id, proposal, proposal.label.encode("ascii") + pad)
        return (wing_id, None, None)

    def transition(state, round, inbox):
        wing_id, agreed, payload = state
        if agreed is None and inbox:
            return (wing_id, InstructionSet.from_label(inbox[0][:3].decode("ascii")), None)
        return state

    def emit(state, round, inbox, randomness_slice, setting):
        wing_id, agreed, payload = state
        if wing_id is Wing.LEFT:
            return payload if round == 1 else filler
        return inbox[0] if inbox else filler

    def flash(state, full_inbox, setting):
        return state[1].color_for(setting)

    return {"init": init, "transition": transition, "emit": emit, "flash": flash}


def _reference_tape_mixing(payload_bytes):
    filler = bytes(payload_bytes)

    def init(wing_id, shared_tape, private_tape, run_index):
        if len(shared_tape) < 4:
            raise ValueError("tape-mixing needs at least 4 shared tape bytes")
        proposal = ((shared_tape[0] & 1) << 2) | ((shared_tape[1] & 1) << 1) | (shared_tape[2] & 1)
        return (wing_id, proposal, shared_tape[3] & 7, None)

    def transition(state, round, inbox):
        wing_id, proposal, mix, agreed = state
        if agreed is None and inbox:
            peer_value = inbox[0][0] & 7
            idx = (proposal + peer_value) % 8 if wing_id is Wing.LEFT else (peer_value + mix) % 8
            return (wing_id, proposal, mix, INSTRUCTION_SETS[idx])
        return state

    def emit(state, round, inbox, randomness_slice, setting):
        wing_id, proposal, mix, agreed = state
        if round == 1:
            return bytes([proposal if wing_id is Wing.LEFT else mix]) + filler[1:]
        return filler

    def flash(state, full_inbox, setting):
        return state[3].color_for(setting)

    return {"init": init, "transition": transition, "emit": emit, "flash": flash}


def _reference_cheat(payload_bytes):
    filler = bytes(payload_bytes)

    def emit(state, round, inbox, randomness_slice, setting):
        return bytes([setting]) + filler[1:] if round == 1 else filler

    return {"emit": emit}


_REFERENCE_SLOTS = {
    "cheat": _reference_cheat,
    "max-random": _reference_max_random,
    "near-leak": _reference_near_leak,
    "negotiation": _reference_negotiation,
    "tape-mixing": _reference_tape_mixing,
}


def _outcome(config, strategy, n, master_seed):
    """The JSONL stream of an experiment, with the type and text of the
    ValueError that ended it, if one did."""
    sink = io.StringIO()
    try:
        run_experiment(config, strategy, n, master_seed, sink=sink)
    except ValueError as exc:
        return sink.getvalue(), type(exc), str(exc)
    return sink.getvalue(), None, None


class TestComputedOnce:
    """Frame parts and decodes computed once give the frames that recomputing
    them on every call gives, byte for byte."""

    @pytest.mark.parametrize("payload_bytes", [1, 2, 3, 4, 5, 6, 15, 16, 17, 255, 257])
    # round 260 wraps the round byte of max-random and near-leak
    @pytest.mark.parametrize("rounds, n_runs", [(1, 200), (17, 30), (260, 5)], ids=["1", "17", "260"])
    @pytest.mark.parametrize("sid", list(_REFERENCE_SLOTS))
    def test_same_record_stream_as_the_reference_slots(self, sid, rounds, n_runs, payload_bytes):
        strategy = build_registry(payload_bytes)[sid]
        config = RunConfig(rounds=rounds, payload_bytes=payload_bytes, censor_enabled=not strategy.requires_censor_off)
        reference = strategy.replace(**_REFERENCE_SLOTS[sid](payload_bytes))
        shipped = _outcome(config, strategy, n_runs, 5)
        assert shipped == _outcome(config, reference, n_runs, 5)
        # negotiation refuses frames below 3 bytes; every other case runs
        assert shipped[1] is (ValueError if sid == "negotiation" and payload_bytes < 3 else None)

    @given(
        st.lists(st.integers(min_value=0, max_value=63), min_size=3, max_size=3),
        st.binary(max_size=8),
    )
    def test_table_decode_matches_the_generator_decode(self, high_bits, rest):
        for low_bits in itertools.product(range(4), repeat=3):
            raw = bytes(high << 2 | low for high, low in zip(high_bits, low_bits)) + rest
            assert _TAPE_SETS[_tape_set_index(raw)] == _generator_decode(raw), raw

    @pytest.mark.parametrize(
        "sid, reads, size", [("max-random", ("shared",), 1), ("near-leak", ("private", "inbox"), 5)]
    )
    def test_a_frame_without_its_slices_is_a_protocol_error(self, sid, reads, size):
        # with b"" for a slice, the frame is only its last byte or its head
        strategy = build_registry()[sid].replace(reads=reads)
        message = f"^wing L, round 1: payload must be exactly 32 bytes, got {size}$"
        with pytest.raises(ProtocolError, match=message) as excinfo:
            run_experiment(CFG, strategy, 3, 0)
        assert excinfo.value.completed_runs == 0
