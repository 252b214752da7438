"""Deterministic simulator and verifier for a censored-communication
two-wing flash game.

Two wings receive independent random settings from {1, 2, 3}, may exchange
fixed-size messages under a censor that forbids any setting information,
then each flashes R or G. Classical strategies that always agree on equal
settings cannot push the long-run same-color fraction below 5/9 (proved
here by exact enumeration); the quantum color source sits at exactly 1/2.
This package runs both sides of that gap, replayably and byte-for-byte
deterministically.
"""

from ._version import __version__
from .analysis import (
    BoundReport,
    ExperimentStats,
    GapReport,
    bell_gap_report,
    check_feature_i,
    check_feature_ii,
    hoeffding_radius,
    prove_bound,
)
from .censor import (
    CensorViolation,
    Violation,
    verify_transcript_invariance,
    vet_emission,
)
from .core import (
    ALL_SETTING_PAIRS,
    INSTRUCTION_SETS,
    SETTINGS,
    Color,
    InstructionSet,
    RunRecord,
    Setting,
    SettingPair,
    Wing,
    same_color_fraction,
)
from .protocol import (
    ExperimentAborted,
    ProtocolError,
    RunConfig,
    draw_settings,
    execute_run,
    induced_instruction_set,
    run_experiment,
)
from .quantum import (
    QUANTUM_ORACLE_ID,
    quantum_experiment,
    sample_quantum_run,
    singlet_joint,
)
from .randomness import ByteStream, derive_run_seed, mix64
from .strategies import (
    WingStrategy,
    build_registry,
    cheat_strategy,
    fixed_instruction_strategy,
    negotiation_strategy,
    validate_strategy,
)

__all__ = [
    "__version__",
    "ALL_SETTING_PAIRS",
    "INSTRUCTION_SETS",
    "QUANTUM_ORACLE_ID",
    "SETTINGS",
    "BoundReport",
    "ByteStream",
    "CensorViolation",
    "Color",
    "ExperimentAborted",
    "ExperimentStats",
    "GapReport",
    "InstructionSet",
    "ProtocolError",
    "RunConfig",
    "RunRecord",
    "Setting",
    "SettingPair",
    "Violation",
    "Wing",
    "WingStrategy",
    "bell_gap_report",
    "build_registry",
    "cheat_strategy",
    "check_feature_i",
    "check_feature_ii",
    "derive_run_seed",
    "draw_settings",
    "execute_run",
    "fixed_instruction_strategy",
    "hoeffding_radius",
    "induced_instruction_set",
    "mix64",
    "negotiation_strategy",
    "prove_bound",
    "quantum_experiment",
    "run_experiment",
    "same_color_fraction",
    "sample_quantum_run",
    "singlet_joint",
    "validate_strategy",
    "verify_transcript_invariance",
    "vet_emission",
]
