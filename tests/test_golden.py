"""Golden digests: every JSONL byte, CLI output and abort diagnostic, pinned.

Each stream digest is the sha256 of the record stream that
``run_experiment`` (or ``quantum_experiment``) writes at n=2000, master seed
2024, default config; or at n=50 in the long-exchange shape (32 rounds of
256-byte frames), where every stream spans several blake2b blocks; or at
n=50 in a shape whose tapes and slice sets end mid-block. The CLI digests
are the sha256 of the stdout of one command line each, and the CLI error
lines are pinned byte for byte. A refactor or speed-up must leave all of
them unchanged; a change that moves one has changed observable output and
must say why.
"""

import functools
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from bellgame.censor import ExperimentAborted
from bellgame.cli import main
from bellgame.core import RunRecord
from bellgame.protocol import RunConfig, run_experiment
from bellgame.quantum import QUANTUM_ORACLE_ID, quantum_experiment
from bellgame.strategies import build_registry

N_RUNS = 2000
MASTER_SEED = 2024

# censor on for every compliant strategy; cheat runs with the censor off
STREAM_SHA256 = {
    "negotiation": "18c627e246fe3b042fc7dc5362edf355de327d381a866a688fab80b679165d28",
    "fixed-RRG": "4a02670a6ccc37603fdc452c285acd4f0742ac10a263a09490bfec2238d54ed5",
    "fixed-RGR": "6188f2cea9bceaa1bfce6819be71c32e5a96c50c5cbe451ecf2e2e1199414726",
    "fixed-GRR": "995ea796684d4ed3c2661aa6b28d7e201303fca7115ff94f73b08e6fb694f583",
    "fixed-GGR": "c1b33f9bc773c85e49faa633dd29424ac2f9042b039bcaa8687c1bf241d9ebb6",
    "fixed-GRG": "89c7c1aab051bfe03a9ca96bb8e8fb8e5d122005d035843b3c6cfb23e026e9de",
    "fixed-RGG": "29b3a0ce4bfc7ef0dda1b80827b0be5a2e83a39988411e0028dd62a5dfc9c0d2",
    "fixed-RRR": "e01d21c608558fb38737c5b0df7f594bb1cbf633f3255947254abac374c4c0c6",
    "fixed-GGG": "c3efb851fdaa0c449e1ca23c6d7a995b18a3fb0c1bc7718d2bab016014022e6d",
    "clock-keyed": "4d3f252515c8caa455cbd4fbfb9bbb0c4bc32a042b590aa05ae5ae2f9cbcb4d7",
    "tape-mixing": "e2bdb93ec7aa3be8d1b434dfccce71d2fc1e0644f756bc5ca38320aa0f589e35",
    "max-random": "25e6c036a2a22f6d62763437c4bd8d4547308903d3d383a7c168335a912fe78b",
    "near-leak": "1c937383b5b37370d7857aa82e80720d196c4d4e72a6e31aa38e711313457808",
    "cheat": "95ae299f009fd2fbe703e76d84c960e5d4e858cd08b140adaa396164237f2e6b",
}
QUANTUM_SHA256 = "c0cb608f5c068297b1df1bef8164bd69a3ed2518d31eba98e68930fdf1855c6f"

# The long-exchange shape: 32 rounds of 256-byte frames and a 256-byte shared
# tape, so every tape and slice set spans several blake2b blocks; n=50, seed
# 2024. Censor on for every compliant strategy; cheat runs with the censor off.
LONG_N_RUNS = 50
LONG_PAYLOAD_BYTES = 256
LONG_STREAM_SHA256 = {
    "negotiation": "44640a99763d7e9676c69bd0d2089055276d1e1971d0d7ac993a6cc40bd64543",
    "fixed-RRG": "a5defaa22eb3b0430eab640b4c3d91ea2e12660b2c5f6eea1cef62f76066faf2",
    "fixed-RGR": "079aed66cb947b37f72e57d49e56af3d41f0e0785fcd8b84d848eb006d75b5d2",
    "fixed-GRR": "37517c7826636066130c8f09dde561ab087aac22b257709b0feb0f39d13caa89",
    "fixed-GGR": "f710f1056b1ed9160936363704bbc6480d6f2bba0b2176c01991188156879808",
    "fixed-GRG": "25563d1304198c09d1120aa6024dc0217cc188ff3d7100260ac620cd9e0bdd2d",
    "fixed-RGG": "fb9e6daf0576d6a0088af78fe290c744e13b71aa108d2ee0d4f488357df4ccae",
    "fixed-RRR": "c6ab5e881a89633b400f84bc13d2708ae1ca9637ee3472f4cfbf1012da410943",
    "fixed-GGG": "f87d161a03e7a864c43de159fa64adf213a488a9e6cf3d86ed9fd4a65b7e5a57",
    "clock-keyed": "13970142167bf3baf4db0607957b8ae721d04b4879f85f61064b2599a9d639bd",
    "tape-mixing": "c3458091d494ddd204a26899eb05224b968d7fae0a57737eea477ac89e3fe3d6",
    "max-random": "73408ee95e6e429597d31385520ba81f34e6cc6859521a0a6b9319fe98bf2aca",
    "near-leak": "cb867bb16f9384b58f04f1ac3b81230bf8837057f388a3e9289862345a6207a3",
    "cheat": "5f04144a9c6789f483958e5da8ea5d25fda16d5ed4f0ac6740bd9da81798f0dd",
}

# A shape whose reads end mid-block: 5 rounds of 48-byte frames and a 100-byte
# shared tape, so the tape ends 36 bytes into block 1 and each slice set 16
# bytes into it; n=50, seed 2024, censor on. Recorded with ByteStream's
# reader, so they also hold the keyed-state reader of stream_bytes to it.
MID_BLOCK_CONFIG = RunConfig(rounds=5, payload_bytes=48, shared_tape_bytes=100)
MID_BLOCK_STREAM_SHA256 = {
    "negotiation": "d07fa6e00ca91b7f29b7f911f00db0a2db20d8b663822792d83d7cdf3d37b555",
    "tape-mixing": "85f49d4e2fc80675c744fae3ea18d14c3bf599c41723bf6e27d684f4bb0d0cbc",
    "max-random": "f042114079a30191da7ec2ece2b80171e5aa8cf42b95102bbbd2dee0c1f5fd44",
    "near-leak": "01749485df8cd5435da646c7bb381d6b5a69063df2acabe0c7ce0f60a11d1dc0",
}

# cheat with the censor on: Left's round-1 frame is its setting byte
CHEAT_VIOLATION = {
    "payload_a": "01" + "00" * 31,
    "payload_b": "02" + "00" * 31,
    "round": 1,
    "setting_a": 1,
    "setting_b": 2,
    "wing": "L",
}

REGISTRY = build_registry()
LONG_REGISTRY = build_registry(LONG_PAYLOAD_BYTES)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_registry_ids_all_pinned():
    assert sorted(REGISTRY) == sorted(STREAM_SHA256) == sorted(LONG_STREAM_SHA256)


@functools.cache
def _stream(strategy_id: str, long: bool = False) -> str:
    """The pinned record stream of a registry id or of the quantum oracle."""
    if strategy_id == QUANTUM_ORACLE_ID:
        sink = io.StringIO()
        quantum_experiment(N_RUNS, MASTER_SEED, sink=sink)
        return sink.getvalue()
    strategy = (LONG_REGISTRY if long else REGISTRY)[strategy_id]
    censor = not strategy.requires_censor_off
    if long:
        config = RunConfig(rounds=32, payload_bytes=LONG_PAYLOAD_BYTES, shared_tape_bytes=256, censor_enabled=censor)
    else:
        config = RunConfig(censor_enabled=censor)
    sink = io.StringIO()
    run_experiment(config, strategy, LONG_N_RUNS if long else N_RUNS, MASTER_SEED, sink=sink)
    return sink.getvalue()


@pytest.mark.parametrize("strategy_id", sorted(STREAM_SHA256))
def test_classical_stream(strategy_id):
    assert _sha256(_stream(strategy_id)) == STREAM_SHA256[strategy_id]


@pytest.mark.parametrize("strategy_id", sorted(LONG_STREAM_SHA256))
def test_long_exchange_stream(strategy_id):
    assert _sha256(_stream(strategy_id, long=True)) == LONG_STREAM_SHA256[strategy_id]


@pytest.mark.parametrize("strategy_id", sorted(MID_BLOCK_STREAM_SHA256))
def test_mid_block_stream(strategy_id):
    strategy = build_registry(MID_BLOCK_CONFIG.payload_bytes)[strategy_id]
    sink = io.StringIO()
    run_experiment(MID_BLOCK_CONFIG, strategy, LONG_N_RUNS, MASTER_SEED, sink=sink)
    assert _sha256(sink.getvalue()) == MID_BLOCK_STREAM_SHA256[strategy_id]


def test_quantum_stream():
    assert _sha256(_stream(QUANTUM_ORACLE_ID)) == QUANTUM_SHA256


# every pinned stream: each registry id at both shapes, and the oracle
PINNED_STREAMS = [(sid, False) for sid in sorted(STREAM_SHA256)] + [
    (sid, True) for sid in sorted(LONG_STREAM_SHA256)
] + [(QUANTUM_ORACLE_ID, False)]


@pytest.mark.parametrize(
    "strategy_id, long",
    PINNED_STREAMS,
    ids=[f"{sid}-{'long' if long else 'default'}" for sid, long in PINNED_STREAMS],
)
def test_record_lines_round_trip(strategy_id, long):
    lines = _stream(strategy_id, long).splitlines()[1:]
    assert len(lines) == (LONG_N_RUNS if long else N_RUNS)
    for line in lines:
        assert RunRecord.from_json_line(line).to_json_line() == line


def test_cheat_abort_diagnostic():
    sink = io.StringIO()
    with pytest.raises(ExperimentAborted) as caught:
        run_experiment(RunConfig(), REGISTRY["cheat"], N_RUNS, MASTER_SEED, sink=sink)
    aborted = caught.value
    assert aborted.completed_runs == 0
    assert aborted.violation.to_json() == json.dumps(
        CHEAT_VIOLATION, sort_keys=True, separators=(",", ":")
    )
    assert aborted.partial_stats.n_runs == 0
    assert sink.getvalue() == ""  # the header goes out only with run 0's record


_RUN = ("run", "--strategy", "negotiation", "--n", "2000", "--seed", "2024")
_GAP = ("gap", "--n", "2000", "--seed", "2024")

CLI_STDOUT_SHA256 = {
    _RUN + ("--format", "text"): "6be18ff5c7510509c2911f46dd52055869c208794bafa52fad6063115d3684a9",
    _RUN + ("--format", "csv"): "0a454840031cd8335115f190170440add7a75b961caeb784adc113ee9093f211",
    _RUN + ("--format", "jsonl"): "e0791b05b3b4039e432c4082b44f38f549bd4fea6f72efd2f2ae25c816217b4f",
    _GAP + ("--format", "text"): "f33b85e10d1bb9326aa9a5f5c9efb8eba585944446f4c364e5d4a26de434698d",
    _GAP + ("--format", "jsonl"): "82b559a3d3a4366343778fd91972bf4a554542d2c85270737e8729662f0b7e8e",
    ("prove-bound", "--format", "text"): "6ddcdf0cf42c158f7cf5aba1b958f20f543f955b93f261252394d3ea935252a3",
    ("prove-bound", "--format", "jsonl"): "9b977c2f28fb45ae9d3030dcd9291b85f9c5fd4a4e0b4a4a5a28232b9eb7105c",
    ("prove-bound", "--format", "csv"): "c2c36af7ca0046601507d27e85eef6ae9a1d53b7a662f3645e2d036d9b838a00",
    # registry order fixes the list and the seeds checked for each strategy
    ("list-strategies",): "5e0761c8d81e5c71d0320421fc2bd6fdc622c5b496a05deb8df77b3fd875335e",
    ("verify-censor", "--n", "20", "--seed", "7"): "4cfdfc8334cba32a73bcf28bc6fb86dc7b561fc8406702b6688d27bbe07a6365",
}

_CHEAT_PAYLOADS = (
    '"payload_a":"01' + "00" * 31 + '","payload_b":"02' + "00" * 31 + '"'
)
# (argv, exit code, the whole of stderr)
CLI_ERROR_LINES = {
    "unknown-strategy": (
        ("run", "--strategy", "nope", "--n", "5"),
        3,
        '{"available":["cheat","clock-keyed","fixed-GGG","fixed-GGR","fixed-GRG",'
        '"fixed-GRR","fixed-RGG","fixed-RGR","fixed-RRG","fixed-RRR","max-random",'
        '"near-leak","negotiation","tape-mixing","quantum-oracle"],'
        '"error":"unknown-strategy","strategy":"nope"}\n',
    ),
    "config": (
        ("run", "--strategy", "negotiation", "--n", "0"),
        2,
        '{"detail":"argument --n: must be >= 1, got 0","error":"config"}\n',
    ),
    "censor-violation": (
        ("run", "--strategy", "cheat", "--n", "2000", "--seed", "2024"),
        4,
        '{"completed_runs":0,"error":"censor-violation","strategy":"cheat",'
        '"violation":{' + _CHEAT_PAYLOADS + ',"round":1,"setting_a":1,'
        '"setting_b":2,"wing":"L"}}\n',
    ),
    "power-warning": (
        ("gap", "--n", "50"),
        0,
        '{"detail":"insufficient power: confidence radii 0.380902+0.380902 cover '
        'the floor-to-half gap 0.055556","error":"power-warning"}\n',
    ),
}


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv("BELLGAME_SEED", raising=False)
    monkeypatch.delenv("BELLGAME_OUTPUT", raising=False)


@pytest.mark.parametrize("argv", list(CLI_STDOUT_SHA256), ids=" ".join)
def test_cli_stdout(argv, capsys, clean_env):
    assert main(list(argv)) == 0
    assert _sha256(capsys.readouterr().out) == CLI_STDOUT_SHA256[argv]


@pytest.mark.parametrize("kind", sorted(CLI_ERROR_LINES))
def test_cli_error_line(kind, capsys, clean_env):
    argv, code, line = CLI_ERROR_LINES[kind]
    assert main(list(argv)) == code
    assert capsys.readouterr().err == line


def test_cli_pins_hold_on_repeated_calls(capsys, clean_env):
    """Every pinned command line twice in one process, in order: a parser or
    module state that one call leaves behind would move a later output."""
    for _ in range(2):
        for argv, digest in CLI_STDOUT_SHA256.items():
            assert main(list(argv)) == 0
            assert _sha256(capsys.readouterr().out) == digest, argv
        for argv, code, line in CLI_ERROR_LINES.values():
            assert main(list(argv)) == code
            assert capsys.readouterr().err == line, argv


def test_ci_workflow_digests_are_golden_pins():
    """Every 64-hex digest the CI workflow spells out is one of the pins
    above: a pin that moves here without its copy in the workflow fails
    Tier-1, not only on a CI runner."""
    workflow = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"
    found = re.findall(r"(?<![0-9A-Fa-f])[0-9A-Fa-f]{64}(?![0-9A-Fa-f])", workflow.read_text())
    pinned = {
        QUANTUM_SHA256,
        *STREAM_SHA256.values(),
        *LONG_STREAM_SHA256.values(),
        *MID_BLOCK_STREAM_SHA256.values(),
        *CLI_STDOUT_SHA256.values(),
    }
    assert found, "the workflow checks no digest"
    assert [digest for digest in found if digest not in pinned] == []
