"""A reference referee, written from README's protocol text, that the
package's record streams must match byte for byte.

Nothing here calls ``bellgame.protocol`` or ``bellgame.randomness`` to
play a run: the run seeds, byte streams, settings, tapes, slices, rounds,
the censor's delivery rule, the framing check, the flashes and the record
line are each derived again from their description, the plain way. So a
shortcut in the package's referee (a cached slice cutter, a skipped
transition, a frame not checked twice, a one-digest stream read) must give
exactly what the plain rules give, on shapes the golden digests never
reach.
"""

import base64
import hashlib
import io
import itertools
import json

from hypothesis import given, settings as hsettings, strategies as st

from bellgame import __version__
from bellgame.censor import CensorViolation, ExperimentAborted
from bellgame.core import SETTINGS, Color, Wing
from bellgame.protocol import RunConfig, run_experiment
from bellgame.strategies import build_registry

MASK64 = (1 << 64) - 1
PRIVATE_TAPE_BYTES = 64
SLICE_BYTES = 16
WINGS = (Wing.LEFT, Wing.RIGHT)
PEER = {Wing.LEFT: Wing.RIGHT, Wing.RIGHT: Wing.LEFT}
# the stream labels of a run: the settings, the tapes and each wing's slices
SETTINGS_LABEL = b"settings"
SHARED_TAPE = b"tape/shared"
PRIVATE_TAPE = {Wing.LEFT: b"tape/private/L", Wing.RIGHT: b"tape/private/R"}
SLICES = {Wing.LEFT: b"slices/L", Wing.RIGHT: b"slices/R"}


def run_seed(master_seed, run_index):
    """The (run_index + 1)-th output of the splitmix64 sequence started at
    the master seed."""
    z = (master_seed + (run_index + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def stream(seed, label):
    """The endless byte stream of (seed, label): block i is the 64-byte
    blake2b digest of ``label`` and i's 8 little-endian bytes, keyed by the
    seed's 8 little-endian bytes."""
    key = seed.to_bytes(8, "little")
    for counter in itertools.count():
        yield from hashlib.blake2b(label + counter.to_bytes(8, "little"), key=key).digest()


def take(seed, label, n):
    return bytes(itertools.islice(stream(seed, label), n))


def draw_settings(seed):
    """Left's setting from the first settings byte that is not 255, then
    Right's from the next: byte % 3 + 1."""
    usable = (byte for byte in stream(seed, SETTINGS_LABEL) if byte != 255)
    return SETTINGS[next(usable) % 3], SETTINGS[next(usable) % 3]


class Abort(Exception):
    """A broken rule, as ``(type name, detail)``: the package must raise
    that type with that diagnosis."""


def framing_error(wing, rnd, payload_bytes, payload):
    kind = type(payload)
    if kind is bytes:
        got = len(payload)
    elif isinstance(payload, bytes):
        got = f"bytes subclass {kind.__name__!r}"
    else:
        got = kind.__name__
    return Abort(
        "ProtocolError", f"wing {wing.value}, round {rnd}: payload must be exactly {payload_bytes} bytes, got {got}"
    )


def delivered(config, strategy, wing, state, rnd, inbox, randomness_slice, setting):
    """The frame the peer receives. With the censor on, ``emit`` runs under
    settings 1, 2 and 3, and the setting-1 payload goes out when all three
    are equal exact ``bytes``; the first pair that differs is a violation.
    With it off, ``emit`` gets the actual setting."""
    if not config.censor_enabled:
        return strategy.emit(state, rnd, inbox, randomness_slice, setting)
    payloads = [strategy.emit(state, rnd, inbox, randomness_slice, s) for s in SETTINGS]
    odd = [p for p in payloads if type(p) is not bytes]
    if odd:
        return odd[0]  # for the framing check to refuse
    for a, b in ((0, 1), (0, 2), (1, 2)):
        if payloads[a] != payloads[b]:
            raise Abort("CensorViolation", {
                "wing": wing.value, "round": rnd, "setting_a": a + 1, "setting_b": b + 1,
                "payload_a": payloads[a].hex(), "payload_b": payloads[b].hex(),
            })
    return payloads[0]


def play(config, strategy, settings, seed, run_index):
    """One run: ``(colors, transcript)``."""
    reads = strategy.reads
    shared = take(seed, SHARED_TAPE, config.shared_tape_bytes) if "shared" in reads else b""
    state, slices = {}, {}
    for wing in WINGS:
        private = take(seed, PRIVATE_TAPE[wing], PRIVATE_TAPE_BYTES) if "private" in reads else b""
        state[wing] = strategy.init(wing, shared, private, run_index)
        # round r's slice is bytes 16(r - 1) to 16r of the wing's stream
        joined = take(seed, SLICES[wing], SLICE_BYTES * config.rounds) if "slices" in reads else None
        slices[wing] = [joined[SLICE_BYTES * r : SLICE_BYTES * (r + 1)] if joined else b"" for r in range(config.rounds)]
    actual = dict(zip(WINGS, settings))
    sent = {wing: [] for wing in WINGS}

    def inbox(wing):
        """What the wing's peer has delivered to it so far."""
        return tuple(sent[PEER[wing]]) if "inbox" in reads else ()

    for rnd in range(1, config.rounds + 1):
        # a round's frames are delivered at its end: both wings emit first
        frames = {}
        for wing in WINGS:
            frame = delivered(
                config, strategy, wing, state[wing], rnd, inbox(wing), slices[wing][rnd - 1], actual[wing]
            )
            if type(frame) is not bytes or len(frame) != config.payload_bytes:
                raise framing_error(wing, rnd, config.payload_bytes, frame)
            frames[wing] = frame
        for wing in WINGS:
            sent[wing].append(frames[wing])
        for wing in WINGS:
            state[wing] = strategy.transition(state[wing], rnd, inbox(wing))
    flashes = {wing: [strategy.flash(state[wing], inbox(wing), s) for s in SETTINGS] for wing in WINGS}
    for wing in WINGS:
        for s, color in zip(SETTINGS, flashes[wing]):
            if color is not Color.R and color is not Color.G:
                raise Abort(
                    "ProtocolError", f"wing {wing.value}, setting {int(s)}: flash must return Color.R or Color.G, got {color!r}"
                )
    colors = tuple(flashes[wing][actual[wing] - 1] for wing in WINGS)
    transcript = [payload for pair in zip(sent[Wing.LEFT], sent[Wing.RIGHT]) for payload in pair]
    return colors, transcript


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def experiment(config, strategy, n_runs, master_seed):
    """``(stream, tallies, abort)``: the JSONL stream the runs before any
    abort write, the same-color and different-color counts per setting pair,
    and the abort as ``(type name, completed runs, detail)``, or None."""
    tallies = {(a, b): [0, 0] for a in SETTINGS for b in SETTINGS}
    lines, abort = [], None
    for i in range(n_runs):
        seed = run_seed(master_seed, i)
        settings = draw_settings(seed)
        try:
            colors, transcript = play(config, strategy, settings, seed, i)
        except Abort as exc:
            abort = (exc.args[0], i, exc.args[1])
            break
        except ValueError as exc:  # a size the strategy refuses
            abort = ("ValueError", None, str(exc))
            break
        tallies[settings][0 if colors[0] is colors[1] else 1] += 1
        lines.append(canonical({
            "colors": colors[0].value + colors[1].value,
            "run": i,
            "seed": str(seed),
            "settings": [int(s) for s in settings],
            "strategy": strategy.strategy_id,
            "transcript": [
                {"payload": base64.b64encode(payload).decode("ascii"), "round": k // 2 + 1, "sender": "LR"[k % 2]}
                for k, payload in enumerate(transcript)
            ],
        }))
    if lines:  # the header goes out with run 0's record
        lines.insert(0, canonical({
            "config": {
                "censor": config.censor_enabled,
                "payload_bytes": config.payload_bytes,
                "rounds": config.rounds,
                "shared_tape_bytes": config.shared_tape_bytes,
            },
            "master_seed": str(master_seed),
            "seed_derivation": "splitmix64",
            "strategy": strategy.strategy_id,
            "type": "header",
            "version": __version__,
        }))
    return "".join(line + "\n" for line in lines), tallies, abort


def package_experiment(config, strategy, n_runs, master_seed):
    """``experiment``'s triple, from ``run_experiment``."""
    sink = io.StringIO()
    abort = None
    try:
        stats = run_experiment(config, strategy, n_runs, master_seed, sink=sink)
    except (ExperimentAborted, ValueError) as exc:
        detail = exc.violation.to_json_dict() if isinstance(exc, CensorViolation) else str(exc)
        abort = (type(exc).__name__, getattr(exc, "completed_runs", None), detail)
        stats = getattr(exc, "partial_stats", None)
    tallies = None if stats is None else {pair: list(counts) for pair, counts in stats.counts.items()}
    return sink.getvalue(), tallies, abort


STRATEGY_IDS = sorted(build_registry())


class TestReferenceReferee:
    @hsettings(derandomize=True, max_examples=500, deadline=None)
    @given(
        strategy_id=st.sampled_from(STRATEGY_IDS),
        rounds=st.integers(1, 40),
        payload_bytes=st.integers(1, 300),
        tape_bytes=st.integers(0, 300),
        master_seed=st.integers(0, MASK64),
        n_runs=st.integers(1, 4),
    )
    def test_record_stream_matches(self, strategy_id, rounds, payload_bytes, tape_bytes, master_seed, n_runs):
        strategy = build_registry(payload_bytes)[strategy_id]
        config = RunConfig(rounds=rounds, payload_bytes=payload_bytes, shared_tape_bytes=tape_bytes)
        configs = [config, config.replace(censor_enabled=False)] if strategy.requires_censor_off else [config]
        for config in configs:
            stream_text, tallies, abort = experiment(config, strategy, n_runs, master_seed)
            got_text, got_tallies, got_abort = package_experiment(config, strategy, n_runs, master_seed)
            assert got_text == stream_text
            assert got_abort == abort
            if abort is None or abort[0] != "ValueError":  # a refused size carries no tallies
                assert got_tallies == tallies

    def test_the_draw_reaches_every_outcome(self):
        # a stream that plays runs, a censor violation and a refused size,
        # at the shapes the hypothesis test draws from
        cases = {
            "negotiation": (RunConfig(rounds=40, payload_bytes=300, shared_tape_bytes=300), None),
            "cheat": (RunConfig(rounds=1, payload_bytes=1, shared_tape_bytes=2), "CensorViolation"),
            "tape-mixing": (RunConfig(rounds=2, payload_bytes=5, shared_tape_bytes=3), "ValueError"),
        }
        for strategy_id, (config, kind) in cases.items():
            strategy = build_registry(config.payload_bytes)[strategy_id]
            stream_text, _, abort = experiment(config, strategy, 2, MASK64)
            assert bool(stream_text) is (kind is None)
            assert (abort and abort[0]) == kind
            got_text, _, got_abort = package_experiment(config, strategy, 2, MASK64)
            assert (got_text, got_abort) == (stream_text, abort)
