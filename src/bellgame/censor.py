"""Information-flow enforcement for wing-to-wing messages.

The single rule of the game: no emitted payload may carry any information
about the emitting wing's setting. Enforcement is exact counterfactual
replay: every emission is recomputed under all three settings with every
other input byte-identical, and must come out byte-identical. The censor
never alters payloads; it only passes or aborts.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from .core import SETTINGS, Setting, SettingPair, Wing, canonical_json

__all__ = [
    "Violation",
    "CensorViolation",
    "vet_emission",
    "state_transition_guard",
    "verify_transcript_invariance",
]


# vet_emission runs three emits per frame; reading Setting.ONE off the Enum
# class is a metaclass lookup, so it reads these module names instead
_ONE, _TWO, _THREE = SETTINGS


@dataclass(frozen=True)
class Violation:
    """Diagnosis of a censored emission: the first two counterfactual
    settings whose payloads differ."""

    wing: Wing
    round: int
    setting_a: Setting
    setting_b: Setting
    payload_a: bytes
    payload_b: bytes

    def to_json(self) -> str:
        return canonical_json(
            {
                "wing": self.wing.value,
                "round": self.round,
                "setting_a": int(self.setting_a),
                "setting_b": int(self.setting_b),
                "payload_a": self.payload_a.hex(),
                "payload_b": self.payload_b.hex(),
            }
        )


class CensorViolation(Exception):
    """Raised when an emission depends on the emitting wing's setting."""

    def __init__(self, violation: Violation):
        self.violation = violation
        super().__init__(
            f"wing {violation.wing.value}, round {violation.round}: payload "
            f"differs between settings {int(violation.setting_a)} and "
            f"{int(violation.setting_b)}"
        )


def vet_emission(strategy, wing: Wing, state, round: int, inbox, randomness_slice: bytes, setting: Setting) -> bytes:
    """Recompute the emission under each counterfactual setting.

    All other inputs (public state, inbox, randomness slice) are passed
    byte-identical. Returns the actual-setting payload, cleared for
    delivery, when the three payloads agree; otherwise raises
    CensorViolation naming the first pair of settings whose payloads differ.
    """
    emit = strategy.emit
    payloads = p1, p2, p3 = (
        emit(state, round, inbox, randomness_slice, _ONE),
        emit(state, round, inbox, randomness_slice, _TWO),
        emit(state, round, inbox, randomness_slice, _THREE),
    )
    if p1 == p2 == p3:
        return payloads[setting - 1]
    # pairs in the order (1, 2), (1, 3), (2, 3); with p1 == p2 the first
    # differing pair is always (1, 3)
    ia, ib = (0, 1) if p1 != p2 else (0, 2)
    raise CensorViolation(
        Violation(wing, round, SETTINGS[ia], SETTINGS[ib], payloads[ia], payloads[ib])
    )


def _positional_parameters(fn) -> list[str]:
    kinds = (
        inspect.Parameter.POSITIONAL_ONLY,
        inspect.Parameter.POSITIONAL_OR_KEYWORD,
    )
    return [
        p.name
        for p in inspect.signature(fn).parameters.values()
        if p.kind in kinds and p.default is inspect.Parameter.empty
    ]

def state_transition_guard(strategy) -> bool:
    """True when the strategy's state transition cannot receive a setting.

    The transition slot takes exactly (state, round, inbox); the setting is
    supplied only to the vetted emit slot and to the final flash. This shape
    is what makes per-emission vetting imply whole-transcript invariance.
    """
    params = _positional_parameters(strategy.transition)
    return len(params) == 3 and "setting" not in params


def verify_transcript_invariance(config, strategy, settings: SettingPair, seed: int, run_index: int = 0) -> bool:
    """Whole-run counterfactual replay: rerun with either wing's setting
    replaced and require a byte-identical transcript every time."""
    from .protocol import execute_run  # protocol depends on this module for vetting

    base = execute_run(config, strategy, settings, seed, run_index=run_index)
    for alt in SETTINGS:
        if alt is not settings.left:
            rerun = execute_run(
                config, strategy, SettingPair(alt, settings.right), seed, run_index=run_index
            )
            if rerun.transcript != base.transcript:
                return False
        if alt is not settings.right:
            rerun = execute_run(
                config, strategy, SettingPair(settings.left, alt), seed, run_index=run_index
            )
            if rerun.transcript != base.transcript:
                return False
    return True
