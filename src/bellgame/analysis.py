"""Exact verification of the classical floor and statistics over run streams.

The floor proof is pure integer arithmetic over the eight instruction sets.
Everything empirical carries Hoeffding confidence radii at one failure
probability, 1e-6. ``BoundReport`` and ``GapReport`` render themselves for
the CLI; the report of a single experiment is the CLI's own.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .core import (
    ALL_SETTING_PAIRS,
    INSTRUCTION_SETS,
    SETTINGS,
    InstructionSet,
    SettingPair,
    _check_int,
    canonical_json,
    same_color_fraction,
)

__all__ = [
    "ExperimentStats",
    "BoundReport",
    "FeatureIIResult",
    "GapReport",
    "hoeffding_radius",
    "prove_bound",
    "check_feature_i",
    "check_feature_ii",
    "bell_gap_report",
]

DEFAULT_FAILURE_PROBABILITY = 1e-6

CLASSICAL_FLOOR = Fraction(5, 9)
# the floor-to-half gap, 1/18, that two confidence radii must not cover
_FLOOR_GAP = float(CLASSICAL_FLOOR - Fraction(1, 2))


def hoeffding_radius(n: int) -> float:
    """Two-sided Hoeffding confidence half-width for a mean of n coin flips,
    at failure probability ``DEFAULT_FAILURE_PROBABILITY``."""
    _check_int("n", n, 1)
    return math.sqrt(math.log(2.0 / DEFAULT_FAILURE_PROBABILITY) / (2.0 * n))


class ExperimentStats:
    """Exact per-setting-pair tallies of same/different flashes.

    Merging is associative and commutative, so partial tallies from
    concurrent workers can be combined in any order.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: Optional[dict[SettingPair, list[int]]] = None):
        if counts is None:
            counts = {pair: [0, 0] for pair in ALL_SETTING_PAIRS}
        self.counts = counts

    @classmethod
    def empty(cls) -> "ExperimentStats":
        return cls()

    def record(self, pair: SettingPair, same: bool) -> None:
        self.counts[pair][0 if same else 1] += 1

    @property
    def n_runs(self) -> int:
        return sum(a + b for a, b in self.counts.values())

    @property
    def total_same(self) -> int:
        return sum(a for a, _ in self.counts.values())

    @property
    def overall_same(self) -> Fraction:
        """Exact empirical same-color fraction."""
        n = self.n_runs
        if n == 0:
            raise ValueError("no runs recorded")
        return Fraction(self.total_same, n)

    @property
    def overall_same_float(self) -> float:
        return float(self.overall_same)

    @property
    def per_pair_same(self) -> dict[SettingPair, Fraction]:
        """Exact same-color fraction per setting pair (pairs seen at least once)."""
        return {
            pair: Fraction(a, a + b)
            for pair, (a, b) in self.counts.items()
            if a + b > 0
        }

    def equal_setting_counts(self) -> tuple[int, int]:
        """(same, different) totals over the three equal-setting pairs."""
        same = diff = 0
        for s in SETTINGS:
            a, b = self.counts[SettingPair(s, s)]
            same += a
            diff += b
        return same, diff

    def merge(self, other: "ExperimentStats") -> "ExperimentStats":
        merged = {
            pair: [
                self.counts[pair][0] + other.counts[pair][0],
                self.counts[pair][1] + other.counts[pair][1],
            ]
            for pair in ALL_SETTING_PAIRS
        }
        return ExperimentStats(merged)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExperimentStats):
            return NotImplemented
        return self.counts == other.counts

    def to_json_dict(self) -> dict:
        out = {
            "n_runs": self.n_runs,
            "counts": {
                f"{int(p.left)}{int(p.right)}": {"same": a, "different": b}
                for p, (a, b) in self.counts.items()
            },
        }
        if self.n_runs > 0:
            out["overall_same"] = str(self.overall_same)
            out["overall_same_float"] = float(self.overall_same)
        return out


class BoundReport(NamedTuple):
    """The eight exact same-color fractions, their minimum and minimizers."""

    per_set_fractions: dict[InstructionSet, Fraction]
    minimum: Fraction
    minimizers: tuple[InstructionSet, ...]

    def to_text(self) -> str:
        lines = ["instruction set   same-color fraction"]
        for iset, frac in self.per_set_fractions.items():
            lines.append(f"  {iset.label}             {frac}")
        lines.append(f"minimum: {self.minimum}")
        lines.append(
            "minimizers: " + ", ".join(i.label for i in self.minimizers)
        )
        lines.append(
            "Each run's expected same-color fraction is a convex mixture of "
            "these eight values, so no per-run choice of instruction set can "
            f"push the long-run fraction below {self.minimum}."
        )
        return "\n".join(lines)

    def to_csv(self) -> str:
        rows = (f"{iset.label},{frac}" for iset, frac in self.per_set_fractions.items())
        return "\n".join(["instruction_set,same_color_fraction", *rows])

    def to_json(self) -> str:
        return canonical_json(
            {
                "per_set": {i.label: str(f) for i, f in self.per_set_fractions.items()},
                "minimum": str(self.minimum),
                "minimizers": [i.label for i in self.minimizers],
            }
        )


def _exact_minimum(family, statistic, constraint=None):
    """Every member of ``family`` that meets ``constraint``, mapped to its
    exact ``statistic``; the least of those values; and the members that reach
    it, in family order. A value that is not a ``Fraction`` raises TypeError,
    so no float enters an exact claim. For a maximum, negate the statistic."""
    values = {}
    for member in family:
        if constraint is None or constraint(member):
            value = values[member] = statistic(member)
            if not isinstance(value, Fraction):
                raise TypeError(f"the value of {member!r} must be a Fraction, got {value!r}")
    least = min(values.values())
    return values, least, tuple(m for m, v in values.items() if v == least)


def prove_bound() -> BoundReport:
    """Enumerate all eight instruction sets in exact arithmetic and verify
    the minimum same-color fraction is exactly 5/9.

    A failure here is a build-breaking defect, not a runtime condition.
    """
    report = BoundReport(*_exact_minimum(INSTRUCTION_SETS, same_color_fraction))
    if report.minimum != CLASSICAL_FLOOR:
        raise RuntimeError(f"floor enumeration produced {report.minimum}, not 5/9")
    expected_minimizers = tuple(
        i for i in INSTRUCTION_SETS if len(set(i)) > 1
    )
    if report.minimizers != expected_minimizers:
        raise RuntimeError(f"unexpected minimizers: {report.minimizers}")
    return report


def check_feature_i(stats: ExperimentStats) -> bool:
    """Equal settings always produced equal colors."""
    return stats.equal_setting_counts()[1] == 0


class FeatureIIResult(NamedTuple):
    """Is the overall same-color fraction consistent with exactly 1/2?"""

    holds: bool
    observed: Fraction
    tolerance: float


def check_feature_ii(stats: ExperimentStats) -> FeatureIIResult:
    """The tolerance is the Hoeffding radius for the sample size."""
    tolerance = hoeffding_radius(stats.n_runs)
    observed = stats.overall_same
    holds = abs(float(observed) - 0.5) <= tolerance
    return FeatureIIResult(holds=holds, observed=observed, tolerance=tolerance)


class GapReport(NamedTuple):
    """Classical floor vs target statistics, with confidence intervals.

    ``sufficient_power`` means only that the two Hoeffding radii sum to less
    than the 1/18 gap between the floor and 1/2. It does not promise that
    ``disjoint`` holds with probability 1 - 1e-6: against a 100,000-run tally
    at the floor, 10,000 runs at 1/2 give overlapping intervals once their
    fraction exceeds 1/2 by 0.0201, about a 4-sigma event (3e-5 a report).
    """

    classical_same: Fraction
    quantum_same: Fraction
    classical_n: int
    quantum_n: int
    classical_radius: float
    quantum_radius: float
    disjoint: bool
    sufficient_power: bool

    @property
    def warning(self) -> Optional[str]:
        if not self.sufficient_power:
            return (
                "insufficient power: confidence radii "
                f"{self.classical_radius:.6f}+{self.quantum_radius:.6f} cover "
                f"the floor-to-half gap {_FLOOR_GAP:.6f}"
            )
        return None

    @property
    def verdict(self) -> str:
        if self.disjoint:
            return (
                "intervals disjoint: the strategy's statistics and the target "
                "statistics cannot be the same distribution"
            )
        return "intervals overlap: no gap exhibited at this sample size"

    def to_text(self) -> str:
        lines = [
            f"classical: same fraction {float(self.classical_same):.6f} "
            f"+/- {self.classical_radius:.6f}  (n={self.classical_n})",
            f"quantum:   same fraction {float(self.quantum_same):.6f} "
            f"+/- {self.quantum_radius:.6f}  (n={self.quantum_n})",
            f"exact classical floor: {CLASSICAL_FLOOR} = {float(CLASSICAL_FLOOR):.6f}",
            f"verdict: {self.verdict}",
        ]
        if self.warning:
            lines.append(f"warning: {self.warning}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return canonical_json(
            {
                "classical_same": str(self.classical_same),
                "classical_same_float": float(self.classical_same),
                "quantum_same": str(self.quantum_same),
                "quantum_same_float": float(self.quantum_same),
                "classical_n": self.classical_n,
                "quantum_n": self.quantum_n,
                "classical_radius": self.classical_radius,
                "quantum_radius": self.quantum_radius,
                "floor": str(CLASSICAL_FLOOR),
                "disjoint": self.disjoint,
                "sufficient_power": self.sufficient_power,
                "failure_probability": DEFAULT_FAILURE_PROBABILITY,
                "verdict": self.verdict,
                "warning": self.warning,
            }
        )


def bell_gap_report(
    classical_stats: ExperimentStats,
    quantum_stats: ExperimentStats,
) -> GapReport:
    """Compare a classical strategy's long-run same fraction against the
    target statistics, with Hoeffding intervals. Underpowered comparisons
    warn instead of failing."""
    c_n, q_n = classical_stats.n_runs, quantum_stats.n_runs
    c_r = hoeffding_radius(c_n)
    q_r = hoeffding_radius(q_n)
    c, q = classical_stats.overall_same, quantum_stats.overall_same
    disjoint = float(c) - c_r > float(q) + q_r or float(q) - q_r > float(c) + c_r
    sufficient = c_r + q_r < _FLOOR_GAP
    return GapReport(
        classical_same=c,
        quantum_same=q,
        classical_n=c_n,
        quantum_n=q_n,
        classical_radius=c_r,
        quantum_radius=q_r,
        disjoint=disjoint,
        sufficient_power=sufficient,
    )

