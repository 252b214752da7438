"""The referee: setting assignment, phased message exchange, flash collection.

A run is strictly sequential: T rounds of (Left emits, Right emits, both
delivered at round end), then one flash per wing. Message frames have a
fixed size every round in both directions, so neither length, count, nor
timing can carry setting information. Everything is a pure function of
(config, strategy, settings, seed), which is what makes counterfactual
replay and byte-exact re-runs possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Optional

from ._version import __version__
from .analysis import ExperimentStats
from .censor import CensorViolation, Violation, vet_emission
from .core import (
    ALL_SETTING_PAIRS,
    EMPTY_TRANSCRIPT,
    SETTINGS,
    Message,
    RunRecord,
    Setting,
    SettingPair,
    Transcript,
    Wing,
    canonical_json,
)
from .randomness import ByteStream, derive_run_seed, stream_bytes

__all__ = [
    "DEFAULT_ROUNDS",
    "DEFAULT_PAYLOAD_BYTES",
    "DEFAULT_SHARED_TAPE_BYTES",
    "PRIVATE_TAPE_BYTES",
    "RANDOMNESS_SLICE_BYTES",
    "RunConfig",
    "ProtocolError",
    "ExperimentAborted",
    "draw_settings",
    "run_settings",
    "execute_run",
    "run_experiment",
]

DEFAULT_ROUNDS = 4
DEFAULT_PAYLOAD_BYTES = 32
DEFAULT_SHARED_TAPE_BYTES = 64

# Per-wing sizes are fixed: the private tape seeds wing-local choices, and
# each round's randomness slice is pre-cut so the number of random bytes a
# wing consumes can never depend on its setting.
PRIVATE_TAPE_BYTES = 64
RANDOMNESS_SLICE_BYTES = 16

# A Message from its field tuple in one C call: the frames of the referee
# loop skip the keyword-capable constructor NamedTuple generates.
_new_message = tuple.__new__
_LEFT, _RIGHT = Wing.LEFT, Wing.RIGHT


class ProtocolError(Exception):
    """A strategy broke the framing contract (payload type or size)."""


@dataclass(frozen=True)
class RunConfig:
    """Referee parameters for one experiment."""

    rounds: int = DEFAULT_ROUNDS
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES
    shared_tape_bytes: int = DEFAULT_SHARED_TAPE_BYTES
    censor_enabled: bool = True

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.payload_bytes < 1:
            raise ValueError("payload_bytes must be >= 1")
        if self.shared_tape_bytes < 0:
            raise ValueError("shared_tape_bytes must be >= 0")

    def to_json_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "payload_bytes": self.payload_bytes,
            "shared_tape_bytes": self.shared_tape_bytes,
            "censor": self.censor_enabled,
        }


class ExperimentAborted(RuntimeError):
    """A censor violation stopped an experiment; partial tallies attached."""

    def __init__(self, violation: Violation, partial_stats: ExperimentStats, completed_runs: int):
        self.violation = violation
        self.partial_stats = partial_stats
        self.completed_runs = completed_runs
        super().__init__(
            f"experiment aborted after {completed_runs} completed runs: "
            f"censor violation by wing {violation.wing.value} in round {violation.round}"
        )


def _draw_setting(stream: ByteStream) -> Setting:
    # rejection-free would bias 256 % 3; reject the single overflow byte
    b = stream.u8()
    while b == 255:
        b = stream.u8()
    return SETTINGS[b % 3]


def draw_settings(stream: ByteStream) -> SettingPair:
    """Independent uniform settings for the two wings."""
    return SettingPair(_draw_setting(stream), _draw_setting(stream))


def run_settings(seed: int) -> SettingPair:
    """The settings of the run with this seed, equal to
    ``draw_settings(ByteStream(seed, b"settings"))``: the first two stream
    bytes decide them unless one is a rejected 255."""
    a, b = stream_bytes(seed, b"settings", 2)
    if a == 255 or b == 255:
        return draw_settings(ByteStream(seed, b"settings"))
    return ALL_SETTING_PAIRS[3 * (a % 3) + b % 3]


def _frame_error(wing: Wing, rnd: int, payload_bytes: int) -> ProtocolError:
    return ProtocolError(
        f"wing {wing.value}, round {rnd}: payload must be exactly {payload_bytes} bytes"
    )


def _play(config: RunConfig, strategy, settings: SettingPair, seed: int, run_index: int = 0):
    """The referee loop: ``(record, (state_l, inbox_l), (state_r, inbox_r))``, the
    final wing states and inboxes kept for counterfactual flash evaluation."""
    rounds = config.rounds
    payload_bytes = config.payload_bytes
    left, right = _LEFT, _RIGHT
    shared = stream_bytes(seed, b"tape/shared", config.shared_tape_bytes)
    # round r's randomness slice is bytes 16(r-1) to 16r of its wing's stream
    rand_l = stream_bytes(seed, b"slices/L", rounds * RANDOMNESS_SLICE_BYTES)
    rand_r = stream_bytes(seed, b"slices/R", rounds * RANDOMNESS_SLICE_BYTES)

    state_l = strategy.init(left, shared, stream_bytes(seed, b"tape/private/L", PRIVATE_TAPE_BYTES), run_index)
    state_r = strategy.init(right, shared, stream_bytes(seed, b"tape/private/R", PRIVATE_TAPE_BYTES), run_index)

    if config.censor_enabled:
        emit = vet_emission  # the module name, looked up once per run
    else:
        unvetted = strategy.emit

        def emit(strategy, wing, state, rnd, inbox, rand, setting):
            return unvetted(state, rnd, inbox, rand, setting)

    transition = strategy.transition
    setting_l, setting_r = settings
    inbox_l: tuple[Message, ...] = ()
    inbox_r: tuple[Message, ...] = ()
    got_l: list[Message] = []
    got_r: list[Message] = []
    messages: list[Message] = []
    cut = 0
    for rnd in range(1, rounds + 1):
        end = cut + RANDOMNESS_SLICE_BYTES
        payload_l = emit(strategy, left, state_l, rnd, inbox_l, rand_l[cut:end], setting_l)
        if not isinstance(payload_l, bytes) or len(payload_l) != payload_bytes:
            raise _frame_error(left, rnd, payload_bytes)
        payload_r = emit(strategy, right, state_r, rnd, inbox_r, rand_r[cut:end], setting_r)
        if not isinstance(payload_r, bytes) or len(payload_r) != payload_bytes:
            raise _frame_error(right, rnd, payload_bytes)
        cut = end
        msg_l = _new_message(Message, (left, rnd, payload_l))
        msg_r = _new_message(Message, (right, rnd, payload_r))
        messages += (msg_l, msg_r)
        got_l.append(msg_r)
        got_r.append(msg_l)
        inbox_l = tuple(got_l)
        inbox_r = tuple(got_r)
        state_l = transition(state_l, rnd, inbox_l)
        state_r = transition(state_r, rnd, inbox_r)

    colors = (strategy.flash(state_l, inbox_l, setting_l), strategy.flash(state_r, inbox_r, setting_r))
    record = RunRecord(run_index, settings, colors, Transcript(tuple(messages)), seed, strategy.strategy_id)
    return record, (state_l, inbox_l), (state_r, inbox_r)


def execute_run(
    config: RunConfig,
    strategy,
    settings: SettingPair,
    seed: int,
    run_index: int = 0,
) -> RunRecord:
    """One complete run: T censored exchange rounds, then both flashes.

    Byte-for-byte deterministic in (config, strategy, settings, seed).
    Raises CensorViolation if any emission depends on the local setting.
    """
    return _play(config, strategy, settings, seed, run_index)[0]


def _experiment(config: RunConfig, source_id: str, play, n_runs: int, master_seed: int, sink) -> ExperimentStats:
    """The run loop of classical and quantum experiments alike: per-run seeds
    off the master seed, settings, ``play(settings, seed, run_index) ->
    (colors, record)``, the tally and, with a sink, the JSONL header and one
    record line per run. ``record`` is the run's ``RunRecord``, or None from a
    source without a transcript, for which one is built only to be written.

    The header goes out with the first record, or with the abort of run 0, so
    a configuration error raised by run 0 leaves the sink empty. A censor
    violation aborts the experiment."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    header = ""
    if sink is not None:
        header = canonical_json({
            "type": "header",
            "config": config.to_json_dict(),
            "strategy": source_id,
            "master_seed": str(master_seed),
            "seed_derivation": "splitmix64",
            "version": __version__,
        }) + "\n"
    stats = ExperimentStats()
    record_stat = stats.record
    for i in range(n_runs):
        seed_i = derive_run_seed(master_seed, i)
        settings = run_settings(seed_i)
        try:
            colors, record = play(settings, seed_i, i)
        except CensorViolation as exc:
            if header:
                sink.write(header)
            raise ExperimentAborted(exc.violation, stats, i) from exc
        record_stat(settings, colors[0] is colors[1])
        if sink is not None:
            if record is None:
                record = RunRecord(i, settings, colors, EMPTY_TRANSCRIPT, seed_i, source_id)
            sink.write(header + record.to_json_line() + "\n")
            header = ""
    return stats


def run_experiment(
    config: RunConfig,
    strategy,
    n_runs: int,
    master_seed: int,
    sink: Optional[IO[str]] = None,
) -> ExperimentStats:
    """A long series of runs with per-run seeds split off the master seed.

    Identical arguments produce identical stats and an identical record
    stream. The first censor violation aborts with partial tallies attached.
    """

    def play(settings, seed, run_index):
        record = execute_run(config, strategy, settings, seed, run_index)
        return record.colors, record

    return _experiment(config, strategy.strategy_id, play, n_runs, master_seed, sink)
