"""The benchmark's pinned outputs: cycle 0 of every perfbench workload, at
the pin seed and the pinned op sizes, reproduces each op's pinned
fingerprint and reports no problems, as ``perfbench/run.py`` requires of a
run at that seed. Imports perfbench's workloads and reads its pins; edits
nothing under ``perfbench/``."""

import json
import sys
from pathlib import Path

import pytest

import bellgame
import bellgame.cli  # noqa: F401  (record-audit drives bellgame.cli.main)

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))
try:
    from workloads import WORKLOADS, master_seed
finally:
    sys.path.remove(str(BENCH))

PINNED = json.loads((BENCH / "pinned.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_cycle_0_matches_pins(name, tmp_path):
    sizes = PINNED["sizes"][name]
    if name == "record-audit":
        workload = WORKLOADS[name](bellgame, tmp_path / "record-audit.jsonl", **sizes)
    else:
        workload = WORKLOADS[name](bellgame, **sizes)
    pins = PINNED["workloads"][name]
    assert sorted(workload.entries) == sorted(pins)
    for index, entry in enumerate(workload.entries):
        res = workload.op(index, master_seed(PINNED["seed"], 0))
        assert res.problems == [], entry
        assert res.fingerprint == pins[entry], entry
