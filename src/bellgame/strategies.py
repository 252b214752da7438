"""Wing strategies: the classical explanations and the stress cases.

A strategy is four deterministic slots behind one frozen interface, a
``WingStrategy`` (an immutable slot class; ``strategy.replace(flash=...)``
makes a changed copy):

    init(wing_id, shared_tape, private_tape, run_index) -> public_state
    transition(state, round, inbox) -> public_state
    emit(state, round, inbox, randomness_slice, setting) -> payload
    flash(state, full_inbox, setting) -> Color

Only ``emit`` (vetted by the censor) and the final ``flash`` (deliberately
not vetted) ever receive a setting; ``transition`` cannot, by shape. The
``run_index`` argument is the synchronized clock both wings share.

A payload is a ``bytes`` frame. ``inbox`` is the tuple of the peer's
payloads delivered so far (a round's two payloads are delivered at its end),
and ``full_inbox`` all of them: index ``r - 1`` holds round ``r``. A run's
transcript is every payload in the order sent, Left's before Right's in each
round, so payload ``i`` was sent by Left when ``i`` is even, in round
``i // 2 + 1``.

``reads`` names the inputs a strategy uses: ``"shared"`` (the shared tape),
``"private"`` (each wing's private tape), ``"slices"`` (the per-round
randomness slices) and ``"inbox"``; the default is all four. The referee
computes only the declared streams and passes ``b""`` for the others, and
passes ``()`` as ``inbox`` and ``full_inbox`` to a strategy that does not
declare the inbox. So a declaration that is too narrow changes what the
strategy sees, never what the censor checks: every frame is still vetted
under all three settings. A strategy whose ``transition`` is the identity
``_keep_state`` has none of its transition calls made.

Every declared randomness slice is exactly ``RANDOMNESS_SLICE_BYTES`` (16)
long, and an undeclared one is ``b""``. The shipped strategies rely on it:
they size their frames from constants computed once in the factory, not
from each slice's length.

A frame's three censored ``emit`` calls get the very same inputs, so
``max-random`` and ``near-leak`` build it once: each keeps its last frame,
built from exact ``bytes`` and tuples, with those objects and the round in
one tuple (a concurrent run can only miss it), and returns it to a call
given them.

Strategies are untrusted but do not inspect or patch the interpreter (the
threat model is in ``censor``). With the censor on, ``emit`` and ``flash``
are each called under settings 1, 2 and 3 in a fixed order, so no strategy
call depends on the actual settings, and a ``flash`` that passes its setting
to the peer through side state loses feature (i).
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from .core import _GREEN, _LEFT, _RED, _RIGHT, INSTRUCTION_SETS, InstructionSet, _Frozen, _keep_state
from .protocol import DEFAULT_PAYLOAD_BYTES, RANDOMNESS_SLICE_BYTES
from .quantum import _AGREE_BELOW, _OUTCOMES

__all__ = [
    "WingStrategy",
    "StrategyError",
    "validate_strategy",
    "negotiation_strategy",
    "fixed_instruction_strategy",
    "cheat_strategy",
    "build_registry",
]


# What a strategy may declare in ``reads``: the randomness streams and the inbox.
_READABLE = ("shared", "private", "slices", "inbox")


class WingStrategy(_Frozen):
    """Behavioral slots plus metadata. Instances are immutable; per-run
    state lives in the run, so one instance is safe across concurrent runs.
    ``replace`` makes a copy with some slots or flags changed.

    ``agreement_based`` marks strategies whose wings flash from one common
    instruction set every run (so equal settings always give equal colors).
    ``reads`` names the inputs the slots use, all of them by default (see
    the module docstring). ``"inbox"`` is one of those names, so a narrowed
    declaration must list it when ``emit``, ``transition`` or ``flash``
    reads the inbox: without it they are passed ``()``. ``emit`` gets a
    randomness slice of exactly ``RANDOMNESS_SLICE_BYTES`` bytes when
    ``"slices"`` is declared and ``b""`` when it is not.
    """

    __slots__ = ("strategy_id", "init", "transition", "emit", "flash", "requires_censor_off", "agreement_based", "reads")

    def __init__(
        self, strategy_id: str, init: Callable, transition: Callable, emit: Callable, flash: Callable,
        requires_censor_off: bool = False, agreement_based: bool = False, reads: tuple[str, ...] = _READABLE,
    ):
        self._fill(strategy_id, init, transition, emit, flash, requires_censor_off, agreement_based, reads)


class StrategyError(Exception):
    """A strategy does not fit the slot interface."""


# (slot, parameter count, index of the setting parameter or None, required shape)
_SLOT_SHAPES = (
    ("init", 4, None, "init must take (wing_id, shared_tape, private_tape, run_index)"),
    ("transition", 3, None, "transition must take exactly (state, round, inbox), never a setting"),
    ("emit", 5, 4, "emit must take (state, round, inbox, randomness_slice, setting)"),
    ("flash", 3, 2, "flash must take (state, full_inbox, setting)"),
)


def validate_strategy(strategy: WingStrategy) -> None:
    """Reject a strategy that does not fit the slot interface: an id that is
    not a non-empty string, a ``reads`` that is not a tuple, list or set of
    known names, or a slot of the wrong shape. Run it on a strategy written
    outside the package; the tests run it on the shipped ones. The shapes
    are not what keeps a setting out of ``transition``: the referee never
    passes it one.
    """
    from inspect import signature  # here, so that importing bellgame does not load inspect

    sid, reads = strategy.strategy_id, strategy.reads
    if not isinstance(sid, str):
        raise StrategyError(f"strategy id must be a string, got {sid!r}")
    if not sid:
        raise StrategyError("strategy id must be non-empty")
    if not isinstance(reads, (tuple, list, frozenset, set)):
        raise StrategyError(f"{sid}: reads must be a tuple, list or set of names, got {reads!r}")
    for name in reads:
        if name not in _READABLE:
            raise StrategyError(f"{sid}: reads names {name!r}, not one of {', '.join(_READABLE)}")
    for slot, arity, setting_at, shape in _SLOT_SHAPES:
        params = [
            p.name
            for p in signature(getattr(strategy, slot)).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD) and p.default is p.empty
        ]
        found_at = params.index("setting") if "setting" in params else None
        if len(params) != arity or found_at != setting_at:
            raise StrategyError(f"{sid}: {shape}")


def _agreed_flash(state, full_inbox, setting):
    """Flash from the instruction set the state holds: its ``color_for``
    without the method call, as the referee flashes six times a run."""
    return state[setting - 1]


def _zero_frame_strategy(strategy_id: str, init: Callable, payload_bytes: int) -> WingStrategy:
    """A strategy that reads nothing and says nothing: every frame is zeros,
    and each wing flashes from the instruction set ``init`` returns."""
    filler = bytes(payload_bytes)

    def emit(state, round, inbox, randomness_slice, setting):
        return filler

    return WingStrategy(strategy_id, init, _keep_state, emit, _agreed_flash, agreement_based=True, reads=())


# Every one-byte ``bytes``, by value: indexing costs less than ``bytes([b])``.
_BYTE = tuple(bytes((b,)) for b in range(256))

# The instruction set three tape bytes decode to, two bits per setting: low
# bits 0..1 pick R and 2..3 pick G (uniform), so bit 1 alone decides. The
# set of ``raw`` is ``_TAPE_SETS[_tape_set_index(raw)]``.
_TAPE_SETS = tuple(InstructionSet(*(_GREEN if i & bit else _RED for bit in (4, 2, 1))) for i in range(8))


def _tape_set_index(raw: bytes) -> int:
    """Bit 1 of each of the first three bytes of ``raw``, read as a number below 8."""
    return (raw[0] & 2) << 1 | raw[1] & 2 | (raw[2] & 2) >> 1


def negotiation_strategy(payload_bytes: int = DEFAULT_PAYLOAD_BYTES) -> WingStrategy:
    """Both wings settle on one instruction set in every run.

    Left proposes the set decoded from the first three shared-tape bytes and
    sends it in round 1; Right echoes that frame back as acknowledgement and
    flashes from the set it proposes. No message depends on any setting, so
    the whole exchange passes the censor, yet agreement is reached whether
    or not the settings happen to be equal.
    """
    filler = bytes(payload_bytes)
    # A wing's state is (wing, agreed set, round-1 frame, later frame), fixed
    # at init: Left has one per proposal; Right has neither set nor echo, so
    # it echoes the very frame Left sent and flashes from the set it proposes.
    left_states = tuple((_LEFT, iset, iset.label.encode("ascii") + filler[3:], filler) for iset in _TAPE_SETS)
    proposed = {state[2]: state[1] for state in left_states}
    right_state = (_RIGHT, None, filler, None)

    def init(wing_id, shared_tape, private_tape, run_index):
        if payload_bytes < 3:
            raise ValueError("negotiation needs payload frames of at least 3 bytes")
        if len(shared_tape) < 3:
            raise ValueError("negotiation needs at least 3 shared tape bytes")
        return left_states[_tape_set_index(shared_tape)] if wing_id is _LEFT else right_state

    def emit(state, round, inbox, randomness_slice, setting):
        return state[2] if round == 1 else state[3] or inbox[0]

    def flash(state, full_inbox, setting):
        # Right looks up, or decodes, the set Left's frame proposes; a head that is no label fails
        agreed = state[1] or proposed.get(full_inbox[0]) or InstructionSet.from_label(full_inbox[0][:3].decode("ascii"))
        return agreed[setting - 1]

    return WingStrategy(
        "negotiation", init, _keep_state, emit, flash, agreement_based=True, reads=("shared", "inbox")
    )


def fixed_instruction_strategy(
    iset: InstructionSet, payload_bytes: int = DEFAULT_PAYLOAD_BYTES
) -> WingStrategy:
    """Both wings carry the same predetermined instruction set every run."""

    def init(wing_id, shared_tape, private_tape, run_index):
        return iset

    return _zero_frame_strategy(f"fixed-{iset.label}", init, payload_bytes)


def cheat_strategy(payload_bytes: int = DEFAULT_PAYLOAD_BYTES) -> WingStrategy:
    """Announce the setting in round 1, then sample the target joint law.

    With the censor off, both wings learn both settings after one round and
    draw one joint outcome from two shared-tape bytes by the quantum
    oracle's byte rule: perfectly correlated on equal settings, agreeing
    with probability exactly 1/4 otherwise, uniform marginals. With the
    censor on, the very first emission is caught, which is the point.
    """
    filler = bytes(payload_bytes)
    tail = filler[1:]

    def init(wing_id, shared_tape, private_tape, run_index):
        if len(shared_tape) < 2:
            raise ValueError("cheat needs at least 2 shared tape bytes")
        # the wing's index in the oracle's (left, right) outcome
        return (0 if wing_id is _LEFT else 1, shared_tape[0], shared_tape[1])

    def emit(state, round, inbox, randomness_slice, setting):
        if round == 1:
            return _BYTE[setting] + tail
        return filler

    def flash(state, full_inbox, setting):
        side, color_byte, same_byte = state
        return _OUTCOMES[2 * (color_byte & 1) + (setting == full_inbox[0][0] or same_byte < _AGREE_BELOW)][side]

    return WingStrategy(
        "cheat", init, _keep_state, emit, flash, requires_censor_off=True, reads=("shared", "inbox")
    )


def clock_keyed_strategy(payload_bytes: int = DEFAULT_PAYLOAD_BYTES) -> WingStrategy:
    """Instruction set varies with the run index, the wings' shared clock.

    No communication is needed at all; synchronized clocks alone coordinate
    the wings, and every emission is inert filler.
    """

    def init(wing_id, shared_tape, private_tape, run_index):
        return INSTRUCTION_SETS[run_index % 8]

    return _zero_frame_strategy("clock-keyed", init, payload_bytes)


def tape_mixing_strategy(payload_bytes: int = DEFAULT_PAYLOAD_BYTES) -> WingStrategy:
    """Agreement assembled from both wings' round-1 messages.

    Left sends a proposal index, Right sends a mixing value, both decoded
    from the shared tape; each wing combines its own value with the one it
    received, so the final set genuinely depends on the transcript.
    """
    filler = bytes(payload_bytes)
    # round 1's frame for each value a wing can send: the value, then zeros
    firsts = tuple(_BYTE[value] + filler[1:] for value in range(8))

    def init(wing_id, shared_tape, private_tape, run_index):
        # a wing's state is the value it sends: Left's proposal or Right's mix
        if len(shared_tape) < 4:
            raise ValueError("tape-mixing needs at least 4 shared tape bytes")
        if wing_id is _LEFT:
            return (shared_tape[0] & 1) << 2 | (shared_tape[1] & 1) << 1 | shared_tape[2] & 1
        return shared_tape[3] & 7

    def emit(state, round, inbox, randomness_slice, setting):
        return firsts[state] if round == 1 else filler

    def flash(state, full_inbox, setting):
        # (proposal + mix) % 8 is the same set from either side
        return INSTRUCTION_SETS[(state + (full_inbox[0][0] & 7)) % 8][setting - 1]

    return WingStrategy(
        "tape-mixing", init, _keep_state, emit, flash, agreement_based=True, reads=("shared", "inbox")
    )


def max_randomness_strategy(payload_bytes: int = DEFAULT_PAYLOAD_BYTES) -> WingStrategy:
    """Burns its entire per-round randomness slice into every frame.

    Randomness slices are pre-cut per round, so even maximal consumption
    cannot modulate anything the other wing observes based on the setting.
    The flash still follows a tape-agreed instruction set.
    """
    # the slice repeated to fill all but the last byte, the round mod 256
    reps = -(-payload_bytes // RANDOMNESS_SLICE_BYTES)
    cut = payload_bytes - 1
    # the last frame built, after the slice and round it was built from
    last = (None, None, None)

    def init(wing_id, shared_tape, private_tape, run_index):
        if len(shared_tape) < 3:
            raise ValueError("max-random needs at least 3 shared tape bytes")
        return _TAPE_SETS[_tape_set_index(shared_tape)]

    def emit(state, round, inbox, randomness_slice, setting):
        nonlocal last
        last_slice, last_round, frame = last
        if randomness_slice is last_slice and round == last_round:
            return frame
        frame = (randomness_slice * reps)[:cut] + _BYTE[round & 0xFF]
        if type(randomness_slice) is bytes:
            last = (randomness_slice, round, frame)
        return frame

    return WingStrategy(
        "max-random", init, _keep_state, emit, _agreed_flash, agreement_based=True,
        reads=("shared", "slices"),
    )


def near_leak_strategy(payload_bytes: int = DEFAULT_PAYLOAD_BYTES) -> WingStrategy:
    """Payloads depend on everything available except the setting.

    Wing identity, round number, clock, inbox contents, randomness and the
    wing's private coin all feed the frame; the censor passes every
    emission. The flash is the private coin, so the wings do not implement
    any agreed set (equal settings agree only about half the time).
    """
    # a 5-byte head, then as many slices as the rest of the frame needs
    reps = -(-max(payload_bytes - 5, 0) // RANDOMNESS_SLICE_BYTES)
    # the last frame built, after the state, inbox, slice and round it was built from
    last = (None, None, None, None, None)

    def init(wing_id, shared_tape, private_tape, run_index):
        coin = _RED if private_tape[0] & 1 == 0 else _GREEN
        # the coin, then the head's clock byte and its wing-and-coin bytes
        return (coin, _BYTE[run_index & 0xFF], bytes((wing_id is not _LEFT, coin is not _RED)))

    def emit(state, round, inbox, randomness_slice, setting):
        nonlocal last
        last_state, last_inbox, last_slice, last_round, frame = last
        if randomness_slice is last_slice and inbox is last_inbox and state is last_state and round == last_round:
            return frame
        # head: round, clock, first byte of the last frame received, wing,
        # coin; cut to size, so a frame under 5 bytes is the head's first
        # bytes, and one cut from b"" (no "slices" declared) stays short
        coin, clock, wing_coin = state
        frame = b"".join(
            (_BYTE[round & 0xFF], clock, _BYTE[inbox[-1][0]] if inbox else b"\0", wing_coin, randomness_slice * reps)
        )[:payload_bytes]
        # kept only when no input it read can change
        if type(randomness_slice) is type(clock) is type(wing_coin) is bytes and type(inbox) is type(state) is tuple and (
            not inbox or type(inbox[-1]) is bytes
        ):
            last = (state, inbox, randomness_slice, round, frame)
        return frame

    def flash(state, full_inbox, setting):
        return state[0]

    return WingStrategy("near-leak", init, _keep_state, emit, flash, reads=("private", "slices", "inbox"))


# Every shipped strategy's factory of ``payload_bytes``, by id, in list
# order: the agreed-set explanations, then the stress cases (clock
# coordination, transcript-dependent agreement, maximal randomness use,
# near-leak payloads and an open leak). Every CLI command builds one strategy
# at a time, and a strategy's position here fixes its verify-censor seeds.
_FACTORIES: dict[str, Callable[[int], WingStrategy]] = {
    "negotiation": negotiation_strategy,
    **{f"fixed-{iset.label}": partial(fixed_instruction_strategy, iset) for iset in INSTRUCTION_SETS},
    "clock-keyed": clock_keyed_strategy,
    "tape-mixing": tape_mixing_strategy,
    "max-random": max_randomness_strategy,
    "near-leak": near_leak_strategy,
    "cheat": cheat_strategy,
}


def build_registry(payload_bytes: int = DEFAULT_PAYLOAD_BYTES) -> dict[str, WingStrategy]:
    """Every shipped strategy keyed by id, in list order; the tests validate them."""
    return {sid: factory(payload_bytes) for sid, factory in _FACTORIES.items()}
