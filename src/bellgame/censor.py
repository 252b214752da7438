"""Information-flow enforcement for wing-to-wing messages.

The single rule of the game: no emitted payload may carry any information
about the emitting wing's setting. Enforcement is exact counterfactual
replay: every emission is recomputed under all three settings with every
other input byte-identical, and must come out byte-identical. The censor
never alters payloads; it only passes or aborts with a ``CensorViolation``,
which carries the diagnosis. It and the referee's ``ProtocolError`` share
the base ``ExperimentAborted``, which carries an experiment's completed runs.
``verify_transcript_invariance`` repeats the check on whole runs.

Threat model: strategies are untrusted code that does not inspect or patch
the interpreter. In scope is all a strategy can do through its slot
arguments, its return values and the Python objects it captures (closures,
module globals, a state object both wings share). With the censor on, no
strategy call depends on the actual settings: ``vet_emission`` delivers the
setting-1 payload object, and the referee calls each ``flash`` under all
three settings in a fixed order. A setting stashed in a captured object is
never the actual one, so a strategy relying on it loses feature (i). This
holds whatever the slot shapes that ``validate_strategy`` checks.

The 5/9 floor holds only for strategies that cannot compute the run's
settings. A run's settings are a public function of the master seed and the
run index, ``run_settings(derive_run_seed(master_seed, run_index))``, and a
strategy can read its slot arguments (``run_index`` among them), the objects
it captures and the environment (for example ``BELLGAME_SEED``). One that
learns the master seed this way passes every check here and keeps feature
(i) at a same-color fraction near 1/3.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import _ONE, _SETTING_PAIRS, _THREE, _TWO, SETTINGS, Setting, SettingPair, Wing, canonical_json

__all__ = [
    "Violation",
    "CensorViolation",
    "ExperimentAborted",
    "vet_emission",
    "verify_transcript_invariance",
]


class Violation(NamedTuple):
    """Diagnosis of a censored emission: the first two counterfactual
    settings whose payloads differ."""

    wing: Wing
    round: int
    setting_a: Setting
    setting_b: Setting
    payload_a: bytes
    payload_b: bytes

    def to_json_dict(self) -> dict:
        return {
            "wing": self.wing.value,
            "round": self.round,
            "setting_a": int(self.setting_a),
            "setting_b": int(self.setting_b),
            "payload_a": self.payload_a.hex(),
            "payload_b": self.payload_b.hex(),
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())


class ExperimentAborted(Exception):
    """A strategy broke a rule of the game: a ``CensorViolation`` or a
    ``ProtocolError``.

    Raised out of an experiment, it carries the number of runs completed
    before it and their tallies; raised by a bare run, both are None. Its
    ``kind`` and ``to_json_dict`` give the ``error`` and fields of its CLI line."""

    completed_runs = None
    partial_stats = None
    kind = "experiment-aborted"

    def to_json_dict(self) -> dict:
        return {"completed_runs": self.completed_runs, "detail": str(self)}


class CensorViolation(ExperimentAborted):
    """Raised when an emission depends on the emitting wing's setting."""

    kind = "censor-violation"

    def __init__(self, violation: Violation):
        self.violation = violation
        super().__init__(
            f"wing {violation.wing.value}, round {violation.round}: payload "
            f"differs between settings {int(violation.setting_a)} and "
            f"{int(violation.setting_b)}"
        )

    def to_json_dict(self) -> dict:
        return {"completed_runs": self.completed_runs, "violation": self.violation.to_json_dict()}


def vet_emission(strategy, wing: Wing, state, round: int, inbox, randomness_slice: bytes) -> bytes:
    """Compute the emission under each of the three settings.

    All other inputs (public state, inbox, randomness slice) are passed
    byte-identical. Returns the setting-1 payload, cleared for delivery,
    when the three payloads are equal exact ``bytes``, so neither the bytes
    nor the object delivered depends on the actual setting; otherwise raises
    CensorViolation naming the first pair of settings whose payloads differ.
    A payload of another type, a ``bytes`` subclass too (it can redefine
    ``==``), is returned to the referee's framing check, which rejects it.
    """
    emit = strategy.emit
    p1 = emit(state, round, inbox, randomness_slice, _ONE)
    p2 = emit(state, round, inbox, randomness_slice, _TWO)
    p3 = emit(state, round, inbox, randomness_slice, _THREE)
    if p1 is p2 is p3:
        return p1
    if not (type(p1) is type(p2) is type(p3) is bytes):
        return next(p for p in (p1, p2, p3) if type(p) is not bytes)
    if p1 == p2 == p3:
        return p1
    payloads = (p1, p2, p3)
    # pairs in the order (1, 2), (1, 3), (2, 3); with p1 == p2 the first
    # differing pair is always (1, 3)
    ia, ib = (0, 1) if p1 != p2 else (0, 2)
    raise CensorViolation(
        Violation(wing, round, SETTINGS[ia], SETTINGS[ib], payloads[ia], payloads[ib])
    )


def verify_transcript_invariance(config, strategy, settings: SettingPair, seed: int, run_index: int = 0) -> bool:
    """Whole-run counterfactual replay: rerun with either wing's setting
    replaced and require a byte-identical transcript every time. With the
    censor on, no strategy call depends on the actual settings, so this can
    fail only for a strategy that is not deterministic, such as one that
    counts its runs."""
    from .protocol import execute_run  # protocol depends on this module for vetting

    base = execute_run(config, strategy, settings, seed, run_index=run_index).transcript
    left, right = settings
    for alt in SETTINGS:
        for other in (_SETTING_PAIRS[alt, right], _SETTING_PAIRS[left, alt]):  # members pass the run-id check fastest
            if other != settings and execute_run(config, strategy, other, seed, run_index=run_index).transcript != base:
                return False
    return True
