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
    SETTINGS,
    Message,
    RunRecord,
    Setting,
    SettingPair,
    Transcript,
    Wing,
    canonical_json,
)
from .randomness import ByteStream, derive_run_seed

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


def _randomness_slices(seed: int, label: bytes, rounds: int) -> list[bytes]:
    stream = ByteStream(seed, label)
    return [stream.take(RANDOMNESS_SLICE_BYTES) for _ in range(rounds)]


def _emission(strategy, wing: Wing, state, rnd: int, inbox, rand: bytes, setting: Setting, config: RunConfig) -> bytes:
    if config.censor_enabled:
        payload = vet_emission(strategy, wing, state, rnd, inbox, rand, setting)
    else:
        payload = strategy.emit(state, rnd, inbox, rand, setting)
    if not isinstance(payload, bytes) or len(payload) != config.payload_bytes:
        raise ProtocolError(
            f"wing {wing.value}, round {rnd}: payload must be exactly "
            f"{config.payload_bytes} bytes"
        )
    return payload


def _play(config: RunConfig, strategy, settings: SettingPair, seed: int, run_index: int = 0):
    """The referee loop: ``(record, (state_l, inbox_l), (state_r, inbox_r))``, the
    final wing states and inboxes kept for counterfactual flash evaluation."""
    shared = ByteStream(seed, b"tape/shared").take(config.shared_tape_bytes)
    priv_l = ByteStream(seed, b"tape/private/L").take(PRIVATE_TAPE_BYTES)
    priv_r = ByteStream(seed, b"tape/private/R").take(PRIVATE_TAPE_BYTES)
    rand_l = _randomness_slices(seed, b"slices/L", config.rounds)
    rand_r = _randomness_slices(seed, b"slices/R", config.rounds)

    state_l = strategy.init(Wing.LEFT, shared, priv_l, run_index)
    state_r = strategy.init(Wing.RIGHT, shared, priv_r, run_index)

    transition = strategy.transition
    setting_l, setting_r = settings

    inbox_l: tuple[Message, ...] = ()
    inbox_r: tuple[Message, ...] = ()
    messages: list[Message] = []

    for rnd in range(1, config.rounds + 1):
        payload_l = _emission(strategy, Wing.LEFT, state_l, rnd, inbox_l, rand_l[rnd - 1], setting_l, config)
        payload_r = _emission(strategy, Wing.RIGHT, state_r, rnd, inbox_r, rand_r[rnd - 1], setting_r, config)
        msg_l = Message(Wing.LEFT, rnd, payload_l)
        msg_r = Message(Wing.RIGHT, rnd, payload_r)
        messages.append(msg_l)
        messages.append(msg_r)
        inbox_l = inbox_l + (msg_r,)
        inbox_r = inbox_r + (msg_l,)
        state_l = transition(state_l, rnd, inbox_l)
        state_r = transition(state_r, rnd, inbox_r)

    color_l = strategy.flash(state_l, inbox_l, setting_l)
    color_r = strategy.flash(state_r, inbox_r, setting_r)
    record = RunRecord(
        run_index=run_index,
        settings=settings,
        colors=(color_l, color_r),
        transcript=Transcript(tuple(messages)),
        seed=seed,
        strategy_id=strategy.strategy_id,
    )
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
    (colors, transcript)``, the tally and, with a sink, the JSONL header and
    one record line per run. A censor violation aborts the experiment."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if sink is not None:
        header = {
            "type": "header",
            "config": config.to_json_dict(),
            "strategy": source_id,
            "master_seed": str(master_seed),
            "seed_derivation": "splitmix64",
            "version": __version__,
        }
        sink.write(canonical_json(header) + "\n")
    stats = ExperimentStats.empty()
    record_stat = stats.record
    for i in range(n_runs):
        seed_i = derive_run_seed(master_seed, i)
        settings = draw_settings(ByteStream(seed_i, b"settings"))
        try:
            colors, transcript = play(settings, seed_i, i)
        except CensorViolation as exc:
            raise ExperimentAborted(exc.violation, stats, i) from exc
        record_stat(settings, colors[0] is colors[1])
        # a record is built only to be written: the oracle's runs are cheap
        # enough that building one per run would show in their throughput
        if sink is not None:
            record = RunRecord(i, settings, colors, transcript, seed_i, source_id)
            sink.write(record.to_json_line() + "\n")
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
        record = execute_run(config, strategy, settings, seed, run_index=run_index)
        return record.colors, record.transcript

    return _experiment(config, strategy.strategy_id, play, n_runs, master_seed, sink)
