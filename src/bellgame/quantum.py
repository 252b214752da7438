"""The target statistics as a drop-in color source.

Samples the joint outcome law of the three-setting singlet geometry
directly (no state vectors): perfect agreement on equal settings,
agreement probability exactly 1/4 otherwise, uniform marginals. This
source bypasses wings and censor entirely; it exists to be compared
against what censored classical strategies can do.

A run's outcome comes from the first two bytes of its ``b"oracle"``
stream, which one digest yields on the keyed blake2b state the run loop
made for the run, after the settings digest read a copy of it: the first
byte's parity picks the left color, and on unequal settings a second byte
below 64 makes the right color equal it. On equal settings the second byte
is never used.
"""

from __future__ import annotations

from fractions import Fraction
from typing import IO, Optional

from .analysis import ExperimentStats
from .core import ALL_SETTING_PAIRS, Color, SettingPair
from .protocol import RunConfig, _experiment
from .randomness import _FIRST_BLOCK, ByteStream

__all__ = [
    "QUANTUM_ORACLE_ID",
    "singlet_joint",
    "sample_quantum_run",
    "quantum_experiment",
]

QUANTUM_ORACLE_ID = "quantum-oracle"

# The joint outcome at index 2 * (first byte & 1) + same, where ``same``
# says whether the right color equals the left one. A tuple, not a dict keyed
# by Color, whose __hash__ runs Python code.
_OUTCOMES = ((Color.R, Color.G), (Color.R, Color.R), (Color.G, Color.R), (Color.G, Color.G))
# a byte is below this with probability exactly 1/4
_AGREE_BELOW = 64
_ORACLE_BLOCK = b"oracle" + _FIRST_BLOCK  # the message of the oracle stream's block 0


def singlet_joint() -> dict[SettingPair, Fraction]:
    """Probability that both wings flash the same color, per setting pair,
    for the singlet geometry.

    The off-diagonal value 1/4 is forced by consistency: equal settings
    (probability 1/3) always agree and overall agreement is exactly 1/2,
    so (1/3)*1 + (2/3)*p = 1/2 gives p = 1/4. The same number falls out of
    the cos^2 law at 120 degrees once one wing's color labels are swapped.
    """
    return {
        pair: Fraction(1) if pair.left is pair.right else Fraction(1, 4)
        for pair in ALL_SETTING_PAIRS
    }


def sample_quantum_run(settings: SettingPair, stream: ByteStream) -> tuple[Color, Color]:
    """One joint outcome: uniform left color; right equals left always on
    equal settings, with probability exactly 1/4 (byte < 64) otherwise.
    Reads one stream byte on equal settings and two otherwise."""
    return _OUTCOMES[2 * (stream.u8() & 1) + (settings[0] is settings[1] or stream.u8() < _AGREE_BELOW)]


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

    def play(settings, seed, keyed, run_index):
        # sample_quantum_run on ByteStream(seed, b"oracle"), from one digest
        # on the run's keyed state, which nothing reads after it
        keyed.update(_ORACLE_BLOCK)
        first, second = keyed.digest()[:2]
        return _OUTCOMES[2 * (first & 1) + (settings[0] is settings[1] or second < _AGREE_BELOW)], None

    return _experiment(RunConfig() if config is None else config, QUANTUM_ORACLE_ID, play, n_runs, master_seed, sink)
