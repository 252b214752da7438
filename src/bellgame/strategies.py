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

``reads`` names the randomness a strategy uses: ``"shared"`` (the shared
tape), ``"private"`` (each wing's private tape) and ``"slices"`` (the
per-round randomness slices); the default is all three. The referee computes
only the declared streams and passes ``b""`` for the others, so a
declaration that is too narrow changes what the strategy sees, never what
the censor checks: randomness never carries a setting.

Strategies are untrusted but do not inspect or patch the interpreter (the
threat model is in ``censor``). With the censor on, ``emit`` and ``flash``
are each called under settings 1, 2 and 3 in a fixed order, so no strategy
call depends on the actual settings, and a ``flash`` that passes its setting
to the peer through side state loses feature (i).
"""

from __future__ import annotations

from typing import Callable

from .core import _GREEN, _LEFT, _RED, INSTRUCTION_SETS, InstructionSet, _Frozen
from .protocol import DEFAULT_PAYLOAD_BYTES
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


# The randomness streams a strategy may declare in ``reads``.
_READABLE = ("shared", "private", "slices")


class WingStrategy(_Frozen):
    """Behavioral slots plus metadata. Instances are immutable; per-run
    state lives in the run, so one instance is safe across concurrent runs.
    ``replace`` makes a copy with some slots or flags changed.

    ``agreement_based`` marks strategies whose wings flash from one common
    instruction set every run (so equal settings always give equal colors).
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


def _keep_state(state, round, inbox):
    """The identity transition, for strategies whose state never changes."""
    return state


def _agreed_flash(state, full_inbox, setting):
    """Flash from the instruction set the state holds: its ``color_for``
    without the method call, as the referee flashes six times a run."""
    return state[setting - 1]


def _decode_instruction_set(raw: bytes) -> InstructionSet:
    # two-bit decode per setting: low bits 0..1 pick R, 2..3 pick G (uniform)
    return InstructionSet(*(_RED if (b & 3) < 2 else _GREEN for b in raw[:3]))


def negotiation_strategy(payload_bytes: int = DEFAULT_PAYLOAD_BYTES) -> WingStrategy:
    """Both wings settle on one instruction set in every run.

    Left proposes the set decoded from the first three shared-tape bytes and
    sends it in round 1; Right parses the proposal from its inbox and echoes
    it back as acknowledgement. No message depends on any setting, so the
    whole exchange passes the censor, yet agreement is reached whether or
    not the settings happen to be equal.
    """
    filler = bytes(payload_bytes)
    pad = bytes(max(payload_bytes - 3, 0))

    def init(wing_id, shared_tape, private_tape, run_index):
        if payload_bytes < 3:
            raise ValueError("negotiation needs payload frames of at least 3 bytes")
        if len(shared_tape) < 3:
            raise ValueError("negotiation needs at least 3 shared tape bytes")
        if wing_id is _LEFT:
            proposal = _decode_instruction_set(shared_tape)
            return (wing_id, proposal, proposal.label.encode("ascii") + pad)
        return (wing_id, None, None)

    def transition(state, round, inbox):
        wing_id, agreed, payload = state
        if agreed is None and inbox:
            label = inbox[0][:3].decode("ascii")
            return (wing_id, InstructionSet.from_label(label), None)
        return state

    def emit(state, round, inbox, randomness_slice, setting):
        wing_id, agreed, payload = state
        if wing_id is _LEFT:
            return payload if round == 1 else filler
        return inbox[0] if inbox else filler

    def flash(state, full_inbox, setting):
        return state[1].color_for(setting)

    return WingStrategy(
        "negotiation", init, transition, emit, flash, agreement_based=True, reads=("shared",)
    )


def fixed_instruction_strategy(
    iset: InstructionSet, payload_bytes: int = DEFAULT_PAYLOAD_BYTES
) -> WingStrategy:
    """Both wings carry the same predetermined instruction set every run."""
    filler = bytes(payload_bytes)

    def init(wing_id, shared_tape, private_tape, run_index):
        return iset

    def emit(state, round, inbox, randomness_slice, setting):
        return filler

    return WingStrategy(
        f"fixed-{iset.label}", init, _keep_state, emit, _agreed_flash, agreement_based=True, reads=()
    )


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
            return bytes([setting]) + tail
        return filler

    def flash(state, full_inbox, setting):
        side, color_byte, same_byte = state
        return _OUTCOMES[2 * (color_byte & 1) + (setting == full_inbox[0][0] or same_byte < _AGREE_BELOW)][side]

    return WingStrategy(
        "cheat", init, _keep_state, emit, flash, requires_censor_off=True, reads=("shared",)
    )


def clock_keyed_strategy(payload_bytes: int = DEFAULT_PAYLOAD_BYTES) -> WingStrategy:
    """Instruction set varies with the run index, the wings' shared clock.

    No communication is needed at all; synchronized clocks alone coordinate
    the wings, and every emission is inert filler.
    """
    filler = bytes(payload_bytes)

    def init(wing_id, shared_tape, private_tape, run_index):
        return INSTRUCTION_SETS[run_index % 8]

    def emit(state, round, inbox, randomness_slice, setting):
        return filler

    return WingStrategy(
        "clock-keyed", init, _keep_state, emit, _agreed_flash, agreement_based=True, reads=()
    )


def tape_mixing_strategy(payload_bytes: int = DEFAULT_PAYLOAD_BYTES) -> WingStrategy:
    """Agreement assembled from both wings' round-1 messages.

    Left sends a proposal index, Right sends a mixing value, both decoded
    from the shared tape; each wing combines its own value with the one it
    received, so the final set genuinely depends on the transcript.
    """
    filler = bytes(payload_bytes)
    tail = filler[1:]

    def init(wing_id, shared_tape, private_tape, run_index):
        if len(shared_tape) < 4:
            raise ValueError("tape-mixing needs at least 4 shared tape bytes")
        proposal = (
            ((shared_tape[0] & 1) << 2)
            | ((shared_tape[1] & 1) << 1)
            | (shared_tape[2] & 1)
        )
        mix = shared_tape[3] & 7
        return (wing_id, proposal, mix, None)

    def transition(state, round, inbox):
        wing_id, proposal, mix, agreed = state
        if agreed is None and inbox:
            peer_value = inbox[0][0] & 7
            if wing_id is _LEFT:
                idx = (proposal + peer_value) % 8
            else:
                idx = (peer_value + mix) % 8
            return (wing_id, proposal, mix, INSTRUCTION_SETS[idx])
        return state

    def emit(state, round, inbox, randomness_slice, setting):
        wing_id, proposal, mix, agreed = state
        if round == 1:
            value = proposal if wing_id is _LEFT else mix
            return bytes([value]) + tail
        return filler

    def flash(state, full_inbox, setting):
        return state[3].color_for(setting)

    return WingStrategy(
        "tape-mixing", init, transition, emit, flash, agreement_based=True, reads=("shared",)
    )


def max_randomness_strategy(payload_bytes: int = DEFAULT_PAYLOAD_BYTES) -> WingStrategy:
    """Burns its entire per-round randomness slice into every frame.

    Randomness slices are pre-cut per round, so even maximal consumption
    cannot modulate anything the other wing observes based on the setting.
    The flash still follows a tape-agreed instruction set.
    """

    def init(wing_id, shared_tape, private_tape, run_index):
        if len(shared_tape) < 3:
            raise ValueError("max-random needs at least 3 shared tape bytes")
        return _decode_instruction_set(shared_tape)

    def emit(state, round, inbox, randomness_slice, setting):
        reps = -(-payload_bytes // len(randomness_slice))
        return (randomness_slice * reps)[: payload_bytes - 1] + bytes([round & 0xFF])

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

    def init(wing_id, shared_tape, private_tape, run_index):
        coin = _RED if private_tape[0] & 1 == 0 else _GREEN
        return (wing_id, coin, run_index & 0xFF)

    def emit(state, round, inbox, randomness_slice, setting):
        wing_id, coin, clock = state
        last = inbox[-1][0] if inbox else 0
        head = bytes(
            (
                round & 0xFF,
                clock,
                last,
                0 if wing_id is _LEFT else 1,
                0 if coin is _RED else 1,
            )
        )
        return (head + randomness_slice * payload_bytes)[:payload_bytes]

    def flash(state, full_inbox, setting):
        return state[1]

    return WingStrategy("near-leak", init, _keep_state, emit, flash, reads=("private", "slices"))


def build_registry(payload_bytes: int = DEFAULT_PAYLOAD_BYTES) -> dict[str, WingStrategy]:
    """Every shipped strategy keyed by id, in list order; the tests validate them."""
    strategies = [negotiation_strategy(payload_bytes)]
    strategies.extend(
        fixed_instruction_strategy(iset, payload_bytes) for iset in INSTRUCTION_SETS
    )
    strategies += [
        # stress cases: clock coordination, transcript-dependent agreement,
        # maximal randomness use, near-leak payloads and an open leak
        clock_keyed_strategy(payload_bytes),
        tape_mixing_strategy(payload_bytes),
        max_randomness_strategy(payload_bytes),
        near_leak_strategy(payload_bytes),
        cheat_strategy(payload_bytes),
    ]
    return {s.strategy_id: s for s in strategies}
