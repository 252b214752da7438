"""Wing strategies: the classical explanations and the stress cases.

A strategy is four deterministic slots behind one frozen interface:

    init(wing_id, shared_tape, private_tape, run_index) -> public_state
    transition(state, round, inbox) -> public_state
    emit(state, round, inbox, randomness_slice, setting) -> payload
    flash(state, full_inbox, setting) -> Color

Only ``emit`` (vetted by the censor) and the final ``flash`` (deliberately
not vetted) ever receive the setting; ``transition`` cannot, by shape. The
``run_index`` argument is the synchronized clock both wings share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .censor import _positional_parameters, state_transition_guard
from .core import INSTRUCTION_SETS, Color, InstructionSet, Wing
from .protocol import DEFAULT_PAYLOAD_BYTES

__all__ = [
    "WingStrategy",
    "StrategyError",
    "validate_strategy",
    "negotiation_strategy",
    "fixed_instruction_strategy",
    "cheat_strategy",
    "clock_keyed_strategy",
    "tape_mixing_strategy",
    "max_randomness_strategy",
    "near_leak_strategy",
    "adversarial_strategy_suite",
    "build_registry",
]


@dataclass(frozen=True)
class WingStrategy:
    """Behavioral slots plus metadata. Instances are immutable; per-run
    state lives in the run, so one instance is safe across concurrent runs.

    ``agreement_based`` marks strategies whose wings flash from one common
    instruction set every run (so equal settings always give equal colors).
    """

    strategy_id: str
    init: Callable
    transition: Callable
    emit: Callable
    flash: Callable
    requires_censor_off: bool = False
    agreement_based: bool = False


class StrategyError(Exception):
    """A strategy does not fit the slot interface."""


def validate_strategy(strategy: WingStrategy) -> None:
    """Reject malformed strategies at registration time.

    The decisive check is the transition shape: a strategy that tried to
    store its setting in public state simply has nowhere to receive it.
    """
    sid = strategy.strategy_id
    if not sid:
        raise StrategyError("strategy id must be non-empty")
    init_params = _positional_parameters(strategy.init)
    if len(init_params) != 4 or "setting" in init_params:
        raise StrategyError(
            f"{sid}: init must take (wing_id, shared_tape, private_tape, run_index)"
        )
    if not state_transition_guard(strategy):
        raise StrategyError(
            f"{sid}: transition must take exactly (state, round, inbox), never a setting"
        )
    emit_params = _positional_parameters(strategy.emit)
    if len(emit_params) != 5 or emit_params[-1] != "setting":
        raise StrategyError(
            f"{sid}: emit must take (state, round, inbox, randomness_slice, setting)"
        )
    flash_params = _positional_parameters(strategy.flash)
    if len(flash_params) != 3 or flash_params[-1] != "setting":
        raise StrategyError(
            f"{sid}: flash must take (state, full_inbox, setting)"
        )


# Reading an Enum member off its class costs a metaclass lookup; the slots
# below run once per frame or run, so they read these module names instead.
_LEFT = Wing.LEFT
_RED, _GREEN = Color.R, Color.G


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
            label = inbox[0].payload[:3].decode("ascii")
            return (wing_id, InstructionSet.from_label(label), None)
        return state

    def emit(state, round, inbox, randomness_slice, setting):
        wing_id, agreed, payload = state
        if wing_id is _LEFT:
            return payload if round == 1 else filler
        return inbox[0].payload if inbox else filler

    def flash(state, full_inbox, setting):
        return state[1].color_for(setting)

    return WingStrategy(
        "negotiation", init, transition, emit, flash, agreement_based=True
    )


def fixed_instruction_strategy(
    iset: InstructionSet, payload_bytes: int = DEFAULT_PAYLOAD_BYTES
) -> WingStrategy:
    """Both wings carry the same predetermined instruction set every run."""
    filler = bytes(payload_bytes)

    def init(wing_id, shared_tape, private_tape, run_index):
        return iset

    def transition(state, round, inbox):
        return state

    def emit(state, round, inbox, randomness_slice, setting):
        return filler

    def flash(state, full_inbox, setting):
        return state.color_for(setting)

    return WingStrategy(
        f"fixed-{iset.label}", init, transition, emit, flash, agreement_based=True
    )


def cheat_strategy(payload_bytes: int = DEFAULT_PAYLOAD_BYTES) -> WingStrategy:
    """Announce the setting in round 1, then sample the target joint law.

    With the censor off, both wings learn both settings after one round and
    use two shared-tape bytes to draw the same joint outcome: perfectly
    correlated on equal settings, agreeing with probability exactly 1/4
    otherwise, uniform marginals. With the censor on, the very first
    emission is caught, which is the point.
    """
    filler = bytes(payload_bytes)
    tail = filler[1:]

    def init(wing_id, shared_tape, private_tape, run_index):
        if len(shared_tape) < 2:
            raise ValueError("cheat needs at least 2 shared tape bytes")
        return (wing_id, shared_tape[0], shared_tape[1])

    def transition(state, round, inbox):
        return state

    def emit(state, round, inbox, randomness_slice, setting):
        if round == 1:
            return bytes([setting]) + tail
        return filler

    def flash(state, full_inbox, setting):
        wing_id, color_byte, same_byte = state
        peer_setting = full_inbox[0].payload[0]
        left_color = _RED if color_byte & 1 == 0 else _GREEN
        same = True if int(setting) == peer_setting else same_byte < 64
        if wing_id is _LEFT:
            return left_color
        return left_color if same else left_color.flip()

    return WingStrategy(
        "cheat", init, transition, emit, flash, requires_censor_off=True
    )


def clock_keyed_strategy(payload_bytes: int = DEFAULT_PAYLOAD_BYTES) -> WingStrategy:
    """Instruction set varies with the run index, the wings' shared clock.

    No communication is needed at all; synchronized clocks alone coordinate
    the wings, and every emission is inert filler.
    """
    filler = bytes(payload_bytes)

    def init(wing_id, shared_tape, private_tape, run_index):
        return INSTRUCTION_SETS[run_index % 8]

    def transition(state, round, inbox):
        return state

    def emit(state, round, inbox, randomness_slice, setting):
        return filler

    def flash(state, full_inbox, setting):
        return state.color_for(setting)

    return WingStrategy(
        "clock-keyed", init, transition, emit, flash, agreement_based=True
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
            raise ValueError("tape mixing needs at least 4 shared tape bytes")
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
            peer_value = inbox[0].payload[0] & 7
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
        "tape-mixing", init, transition, emit, flash, agreement_based=True
    )


def max_randomness_strategy(payload_bytes: int = DEFAULT_PAYLOAD_BYTES) -> WingStrategy:
    """Burns its entire per-round randomness slice into every frame.

    Randomness slices are pre-cut per round, so even maximal consumption
    cannot modulate anything the other wing observes based on the setting.
    The flash still follows a tape-agreed instruction set.
    """

    def init(wing_id, shared_tape, private_tape, run_index):
        if len(shared_tape) < 3:
            raise ValueError("needs at least 3 shared tape bytes")
        return _decode_instruction_set(shared_tape)

    def transition(state, round, inbox):
        return state

    def emit(state, round, inbox, randomness_slice, setting):
        reps = -(-payload_bytes // len(randomness_slice))
        return (randomness_slice * reps)[: payload_bytes - 1] + bytes([round & 0xFF])

    def flash(state, full_inbox, setting):
        return state.color_for(setting)

    return WingStrategy(
        "max-random", init, transition, emit, flash, agreement_based=True
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

    def transition(state, round, inbox):
        return state

    def emit(state, round, inbox, randomness_slice, setting):
        wing_id, coin, clock = state
        last = inbox[-1].payload[0] if inbox else 0
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

    return WingStrategy("near-leak", init, transition, emit, flash)


def adversarial_strategy_suite(payload_bytes: int = DEFAULT_PAYLOAD_BYTES) -> list[WingStrategy]:
    """Stress strategies: clock coordination, transcript-dependent
    agreement, maximal randomness use, and near-leak payloads."""
    return [
        clock_keyed_strategy(payload_bytes),
        tape_mixing_strategy(payload_bytes),
        max_randomness_strategy(payload_bytes),
        near_leak_strategy(payload_bytes),
    ]


def build_registry(payload_bytes: int = DEFAULT_PAYLOAD_BYTES) -> dict[str, WingStrategy]:
    """Every shipped strategy keyed by id, validated at load time."""
    strategies = [negotiation_strategy(payload_bytes)]
    strategies.extend(
        fixed_instruction_strategy(iset, payload_bytes) for iset in INSTRUCTION_SETS
    )
    strategies.extend(adversarial_strategy_suite(payload_bytes))
    strategies.append(cheat_strategy(payload_bytes))
    registry: dict[str, WingStrategy] = {}
    for strategy in strategies:
        validate_strategy(strategy)
        if strategy.strategy_id in registry:
            raise StrategyError(f"duplicate strategy id {strategy.strategy_id!r}")
        registry[strategy.strategy_id] = strategy
    return registry
