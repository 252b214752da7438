"""Deterministic simulator and verifier for a censored-communication
two-wing flash game.

Two wings receive independent random settings from {1, 2, 3}, may exchange
fixed-size messages under a censor that forbids any setting information,
then each flashes R or G. Classical strategies that always agree on equal
settings cannot push the long-run same-color fraction below 5/9 (proved
here by exact enumeration); the quantum color source sits at exactly 1/2.
This package runs both sides of that gap, replayably and byte-for-byte
deterministically. Each module's ``__all__`` declares the names it adds to
the package, and this file re-exports every one of them.
"""

from . import analysis, censor, core, protocol, quantum, randomness, strategies
from ._version import __version__
from .analysis import *
from .censor import *
from .core import *
from .protocol import *
from .quantum import *
from .randomness import *
from .strategies import *

__all__ = ["__version__"]
__all__ += analysis.__all__
__all__ += censor.__all__
__all__ += core.__all__
__all__ += protocol.__all__
__all__ += quantum.__all__
__all__ += randomness.__all__
__all__ += strategies.__all__
