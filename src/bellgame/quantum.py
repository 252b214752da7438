"""The target statistics as a drop-in color source.

Samples the joint outcome law of the three-setting singlet geometry
directly (no state vectors): perfect agreement on equal settings,
agreement probability exactly 1/4 otherwise, uniform marginals. This
source bypasses wings and censor entirely; it exists to be compared
against what censored classical strategies can do.
"""

from __future__ import annotations

from fractions import Fraction
from typing import IO, Optional

from .analysis import ExperimentStats
from .core import ALL_SETTING_PAIRS, Color, SettingPair
from .protocol import RunConfig, _experiment
from .randomness import ByteStream

__all__ = [
    "QUANTUM_ORACLE_ID",
    "singlet_joint",
    "sample_quantum_run",
    "quantum_experiment",
]

QUANTUM_ORACLE_ID = "quantum-oracle"


def singlet_joint() -> dict[SettingPair, Fraction]:
    """Probability that both wings flash the same color, per setting pair,
    for the singlet geometry.

    The off-diagonal value 1/4 is forced by consistency: equal settings
    (probability 1/3) always agree and overall agreement is exactly 1/2,
    so (1/3)*1 + (2/3)*p = 1/2 gives p = 1/4. The same number falls out of
    the cos^2 law at 120 degrees once one wing's color labels are swapped.
    """
    p = {
        pair: Fraction(1) if pair.left is pair.right else Fraction(1, 4)
        for pair in ALL_SETTING_PAIRS
    }
    mixture = sum(p.values()) / 9
    if mixture != Fraction(1, 2):
        raise ValueError(f"overall agreement must be exactly 1/2, got {mixture}")
    return p


def sample_quantum_run(settings: SettingPair, stream: ByteStream) -> tuple[Color, Color]:
    """One joint outcome: uniform left color; right equals left always on
    equal settings, with probability exactly 1/4 (byte < 64) otherwise."""
    left = Color.R if stream.u8() & 1 == 0 else Color.G
    if settings.left is settings.right:
        return (left, left)
    if stream.u8() < 64:
        return (left, left)
    return (left, left.flip())


def quantum_experiment(
    n_runs: int,
    master_seed: int,
    config: Optional[RunConfig] = None,
    sink: Optional[IO[str]] = None,
) -> ExperimentStats:
    """The full referee pipeline with the oracle as color source.

    Stats are comparable field for field with classical experiments; the
    record stream uses the same format with an empty transcript.
    """

    def play(settings, seed, run_index):
        return sample_quantum_run(settings, ByteStream(seed, b"oracle")), None

    return _experiment(RunConfig() if config is None else config, QUANTUM_ORACLE_ID, play, n_runs, master_seed, sink)
