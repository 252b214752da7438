"""The referee: setting assignment, phased message exchange, flash collection.

A run is strictly sequential: T rounds of (Left emits, Right emits, both
delivered at round end), then each wing's flash under all three settings.
Frames have a fixed size every round in both directions, so neither length,
count, nor timing can carry setting information. Everything is a pure
function of (config, strategy, settings, seed), which is what makes
counterfactual replay and byte-exact re-runs possible.

``RunConfig`` is an immutable slot class, like ``WingStrategy``: its sizes
must be ints, and ``config.replace(rounds=8)`` makes a copy that its
constructor checks again.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from struct import Struct
from typing import IO, Optional

from ._version import __version__
from .analysis import ExperimentStats
from .censor import ExperimentAborted, vet_emission
from .core import (
    _GREEN,
    _LEFT,
    _MEMO_SIZE,
    _ONE,
    _RED,
    _RIGHT,
    _THREE,
    _TWO,
    ALL_SETTING_PAIRS,
    SETTINGS,
    InstructionSet,
    RunRecord,
    SettingPair,
    Wing,
    _Frozen,
    _check_int,
    _check_run_ids,
    _keep_state,
    canonical_json,
)
from .randomness import _FIRST_BLOCK, MASK64, ByteStream, blake2b, derive_run_seed, stream_bytes

__all__ = [
    "RunConfig",
    "ProtocolError",
    "ReplayMismatchError",
    "draw_settings",
    "execute_run",
    "induced_instruction_set",
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

_new_tuple = tuple.__new__
# an undeclared wing's randomness slice every round: one endless iterator
# that every run shares
_NO_SLICES = repeat(b"")
# each wing's last checked frame before its first; never a strategy's return value
_UNCHECKED = object()
_SETTINGS_BLOCK = b"settings" + _FIRST_BLOCK  # the message of the settings stream's block 0


class ProtocolError(ExperimentAborted):
    """A strategy broke the framing contract: a payload of the wrong type or
    size, or a flash that is not a Color."""

    kind = "protocol-error"


class RunConfig(_Frozen):
    """Referee parameters for one experiment. Immutable: ``replace`` makes a
    changed copy, checked like a new one."""

    __slots__ = ("rounds", "payload_bytes", "shared_tape_bytes", "censor_enabled")

    def __init__(
        self, rounds: int = DEFAULT_ROUNDS, payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
        shared_tape_bytes: int = DEFAULT_SHARED_TAPE_BYTES, censor_enabled: bool = True,
    ):
        _check_int("rounds", rounds, 1)
        _check_int("payload_bytes", payload_bytes, 1)
        _check_int("shared_tape_bytes", shared_tape_bytes)
        if not isinstance(censor_enabled, bool):
            raise ValueError(f"censor_enabled must be a bool, got {censor_enabled!r}")
        self._fill(rounds, payload_bytes, shared_tape_bytes, censor_enabled)

    def to_json_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "payload_bytes": self.payload_bytes,
            "shared_tape_bytes": self.shared_tape_bytes,
            "censor": self.censor_enabled,
        }


def draw_settings(stream: ByteStream) -> SettingPair:
    """Independent uniform settings for the two wings, one stream byte each;
    a 255 is skipped, as 256 % 3 would bias the draw. The pair returned is
    the member of ``ALL_SETTING_PAIRS``, as ``run_settings`` returns."""
    u8 = stream.u8
    left = u8()
    while left == 255:
        left = u8()
    right = u8()
    while right == 255:
        right = u8()
    return ALL_SETTING_PAIRS[3 * (left % 3) + right % 3]


def _keyed_settings(keyed, seed: int) -> SettingPair:
    """``draw_settings(ByteStream(seed, b"settings"))`` for the run with this
    seed, where ``keyed`` is a blake2b state keyed by the seed that nothing
    has been fed yet: one digest on its copy decides the settings unless one
    of the first two bytes is a rejected 255. ``keyed`` is left as it was."""
    digest = keyed.copy()
    digest.update(_SETTINGS_BLOCK)
    a, b = digest.digest()[:2]
    if a == 255 or b == 255:
        return draw_settings(ByteStream(seed, b"settings"))
    return ALL_SETTING_PAIRS[3 * (a % 3) + b % 3]


def run_settings(seed: int) -> SettingPair:
    """The settings of the run with this seed, reduced mod 2**64 as in
    ``ByteStream``; ``execute_run`` refuses a seed outside [0, 2**64)."""
    return _keyed_settings(blake2b(key=(seed & MASK64).to_bytes(8, "little")), seed)


@lru_cache(maxsize=_MEMO_SIZE)
def _slice_cutter(rounds: int):
    """``cut(stream) -> slices``: the ``rounds`` randomness slices of one
    wing's stream, in round order; one ``Struct`` per round count, for the
    last ``_MEMO_SIZE`` counts used."""
    return Struct(f"{RANDOMNESS_SLICE_BYTES}s" * rounds).unpack


def _frame_error(wing: Wing, rnd: int, payload_bytes: int, payload) -> ProtocolError:
    """The error naming the frame, and its size or, when it is not exact
    ``bytes``, its type."""
    kind = type(payload)
    if kind is bytes:
        got = len(payload)
    elif isinstance(payload, bytes):
        got = f"bytes subclass {kind.__name__!r}"
    else:
        got = kind.__name__
    return ProtocolError(
        f"wing {wing.value}, round {rnd}: payload must be exactly {payload_bytes} bytes, got {got}"
    )


def _flash_error(colors_l, colors_r) -> ProtocolError:
    """The error naming the first of the six flashes that is not a Color."""
    wing, setting, color = next(
        (wing, setting, color)
        for wing, colors in ((_LEFT, colors_l), (_RIGHT, colors_r))
        for setting, color in zip(SETTINGS, colors)
        if color is not _RED and color is not _GREEN
    )
    return ProtocolError(
        f"wing {wing.value}, setting {int(setting)}: flash must return Color.R or Color.G, got {color!r}"
    )


def _play(config: RunConfig, strategy, settings: SettingPair, seed: int, run_index: int):
    """The referee loop: ``(record, colors_l, colors_r)``, where ``colors_l``
    and ``colors_r`` are each wing's flashes under settings 1, 2 and 3. A run
    index, seed or settings pair that no record line holds is refused before
    any strategy call: the byte streams would reduce the seed mod 2**64."""
    _check_run_ids(run_index, seed, settings)
    rounds = config.rounds
    payload_bytes = config.payload_bytes
    setting_l, setting_r = settings
    # only the streams the strategy declares are computed; the others are b""
    reads = strategy.reads
    shared = private_l = private_r = b""
    slices_l = slices_r = _NO_SLICES
    if "shared" in reads:
        shared = stream_bytes(seed, b"tape/shared", config.shared_tape_bytes)
    if "private" in reads:
        private_l = stream_bytes(seed, b"tape/private/L", PRIVATE_TAPE_BYTES)
        private_r = stream_bytes(seed, b"tape/private/R", PRIVATE_TAPE_BYTES)
    if "slices" in reads:
        # round r's randomness slice is bytes 16(r-1) to 16r of its wing's
        # stream, all cut by one unpack; past 4 rounds the read spans blocks,
        # each a digest on a copy of one keyed state (``stream_bytes``)
        cut = _slice_cutter(rounds)
        slices_l = cut(stream_bytes(seed, b"slices/L", rounds * RANDOMNESS_SLICE_BYTES))
        slices_r = cut(stream_bytes(seed, b"slices/R", rounds * RANDOMNESS_SLICE_BYTES))

    state_l = strategy.init(_LEFT, shared, private_l, run_index)
    state_r = strategy.init(_RIGHT, shared, private_r, run_index)

    if config.censor_enabled:
        emit = vet_emission  # the module name, looked up once per run
    else:
        unvetted = strategy.emit

        def emit(strategy, wing, state, rnd, inbox, rand):
            return unvetted(state, rnd, inbox, rand, setting_l if wing is _LEFT else setting_r)

    # the identity transition cannot change a state, so it is not called
    transition = strategy.transition
    if transition is _keep_state:
        transition = None
    # Each wing's payloads go on a list, appended once a round. A strategy
    # that reads its inbox gets a new tuple of its peer's payloads each round
    # (index r - 1 holds round r), the very one for all three emit calls of a
    # frame, and none can change it; one that does not is passed ().
    reads_inbox = "inbox" in reads
    inbox_l = inbox_r = ()
    sent_l, sent_r = [], []
    # A frame that is the very object of its wing's last checked frame is not
    # checked again: exact bytes cannot change, so it is still valid.
    last_l = last_r = _UNCHECKED
    for rnd, rand_l, rand_r in zip(range(1, rounds + 1), slices_l, slices_r):
        payload_l = emit(strategy, _LEFT, state_l, rnd, inbox_l, rand_l)
        if payload_l is not last_l:
            if type(payload_l) is not bytes or len(payload_l) != payload_bytes:
                raise _frame_error(_LEFT, rnd, payload_bytes, payload_l)
            last_l = payload_l
        payload_r = emit(strategy, _RIGHT, state_r, rnd, inbox_r, rand_r)
        if payload_r is not last_r:
            if type(payload_r) is not bytes or len(payload_r) != payload_bytes:
                raise _frame_error(_RIGHT, rnd, payload_bytes, payload_r)
            last_r = payload_r
        sent_l.append(payload_l)
        sent_r.append(payload_r)
        if reads_inbox:
            inbox_l = tuple(sent_r)
            inbox_r = tuple(sent_l)
        if transition is not None:
            state_l = transition(state_l, rnd, inbox_l)
            state_r = transition(state_r, rnd, inbox_r)
    # the transcript, every payload in the order sent, is built once the
    # rounds are over, not copied whole each round
    transcript = [None] * (2 * rounds)
    transcript[0::2] = sent_l  # Left's payloads
    transcript[1::2] = sent_r  # Right's
    transcript = tuple(transcript)

    # every flash under every setting, in a fixed order, so that no strategy
    # call depends on the actual settings; those only pick the colors
    flash = strategy.flash
    colors_l = (flash(state_l, inbox_l, _ONE), flash(state_l, inbox_l, _TWO), flash(state_l, inbox_l, _THREE))
    colors_r = (flash(state_r, inbox_r, _ONE), flash(state_r, inbox_r, _TWO), flash(state_r, inbox_r, _THREE))
    for color in colors_l + colors_r:
        if color is not _RED and color is not _GREEN:
            raise _flash_error(colors_l, colors_r)
    colors = (colors_l[setting_l - 1], colors_r[setting_r - 1])
    # the tuple RunRecord(...) builds, without its Python-level __new__
    record = _new_tuple(RunRecord, (run_index, settings, colors, transcript, seed, strategy.strategy_id))
    return record, colors_l, colors_r


def execute_run(
    config: RunConfig,
    strategy,
    settings: SettingPair,
    seed: int,
    run_index: int = 0,
) -> RunRecord:
    """One complete run: T censored exchange rounds, then the flashes.

    Byte-for-byte deterministic in (config, strategy, settings, seed).
    Raises CensorViolation if any emission depends on the local setting, and
    ValueError for a run index, seed or settings no record line can hold.
    """
    return _play(config, strategy, settings, seed, run_index)[0]


class ReplayMismatchError(RuntimeError):
    """A recorded run did not reproduce under replay: a determinism defect."""


def induced_instruction_set(strategy, record: RunRecord, config: RunConfig) -> tuple[InstructionSet, InstructionSet]:
    """Replay a run and read off each wing's instruction set.

    With the transcript fixed (valid because censored emissions cannot
    depend on settings), each wing's flash is a function of its local
    setting alone; the referee evaluates it at all three settings, which
    yields that wing's instruction set for the run. A record of another
    strategy id is refused, as its run need not replay under this one.
    """
    if strategy.requires_censor_off:
        raise ValueError("induced sets are only defined for censor-compliant strategies")
    if record.strategy_id != strategy.strategy_id:
        raise ValueError(f"a {record.strategy_id!r} record cannot be replayed under {strategy.strategy_id!r}")
    replayed, colors_l, colors_r = _play(
        config, strategy, record.settings, record.seed, run_index=record.run_index
    )
    if replayed.transcript != record.transcript:
        raise ReplayMismatchError(
            f"run {record.run_index}: replayed transcript differs from record"
        )
    if replayed.colors != record.colors:
        raise ReplayMismatchError(
            f"run {record.run_index}: replayed colors differ from record"
        )
    return InstructionSet(*colors_l), InstructionSet(*colors_r)


def _experiment(config: RunConfig, source_id: str, play, n_runs: int, master_seed: int, sink) -> ExperimentStats:
    """The run loop of classical and quantum experiments alike: per-run seeds
    off the master seed, settings, ``play(settings, seed, keyed, run_index)
    -> (colors, record)``, the tally and, with a sink, the JSONL header and
    one record line per run. ``keyed`` is a blake2b state keyed by the seed's
    8 bytes, made once per run: the settings digest reads a copy of it, and
    ``play`` may feed it one first block and take its digest. ``record`` is
    the run's ``RunRecord``, or None from a source without a transcript, for
    which one is built only to be written.

    The header goes out with the first record, so whatever ends run 0 leaves
    the sink empty. An ExperimentAborted propagates with the completed runs
    and their tallies attached. Master seeds lie in [0, 2**64), where
    ``derive_run_seed`` gives each its own runs."""
    _check_int("n_runs", n_runs, 1)
    _check_int("master_seed", master_seed, seed=True)
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
        keyed = blake2b(key=seed_i.to_bytes(8, "little"))  # derive_run_seed is below 2**64
        settings = _keyed_settings(keyed, seed_i)
        try:
            colors, record = play(settings, seed_i, keyed, i)
        except ExperimentAborted as exc:
            exc.completed_runs = i
            exc.partial_stats = stats
            raise
        record_stat(settings, colors[0] is colors[1])
        if sink is not None:
            if record is None:
                record = _new_tuple(RunRecord, (i, settings, colors, (), seed_i, source_id))
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
    stream. The first ExperimentAborted, a censor violation or a protocol
    error, aborts with partial tallies attached.
    """

    def play(settings, seed, keyed, run_index):
        record = execute_run(config, strategy, settings, seed, run_index)
        return record.colors, record

    return _experiment(config, strategy.strategy_id, play, n_runs, master_seed, sink)
