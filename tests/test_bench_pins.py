"""The benchmark's pinned outputs: cycle 0 of every perfbench workload, at
the pin seed and the pinned op sizes, reproduces each op's pinned
fingerprint and reports no problems, as ``perfbench/run.py`` requires of a
run at that seed. A traced cycle at the traced sizes, as ``--trace 1`` runs
it, fails no op, finds every entry point and keeps the count identities.
Imports perfbench's modules and reads its pins; edits nothing under
``perfbench/``."""

import json
import sys
from pathlib import Path

import pytest

import bellgame
import bellgame.cli  # noqa: F401  (record-audit drives bellgame.cli.main)

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))
try:
    from run import TRACE_SIZES, Ledger, run_cycle
    from spans import Tracer, identity_problems, layer_metrics
    from workloads import WORKLOADS, master_seed
finally:
    sys.path.remove(str(BENCH))

PINNED = json.loads((BENCH / "pinned.json").read_text())


def make_workload(name, sizes, tmp_path):
    if name == "record-audit":
        return WORKLOADS[name](bellgame, tmp_path / "record-audit.jsonl", **sizes)
    return WORKLOADS[name](bellgame, **sizes)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_cycle_0_matches_pins(name, tmp_path):
    workload = make_workload(name, PINNED["sizes"][name], tmp_path)
    pins = PINNED["workloads"][name]
    assert sorted(workload.entries) == sorted(pins)
    for index, entry in enumerate(workload.entries):
        res = workload.op(index, master_seed(PINNED["seed"], 0))
        assert res.problems == [], entry
        assert res.fingerprint == pins[entry], entry


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_cycle_keeps_the_identities(name, tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        workload = make_workload(name, TRACE_SIZES[name], tmp_path)  # built while tracing, so slots are wrapped
        ledger = Ledger()
        run_cycle(workload, master_seed(PINNED["seed"], 0), ledger, tracer=tracer)
    finally:
        tracer.restore()
    assert ledger.failed == 0, ledger.failures
    assert tracer.missing == []
    metrics = layer_metrics(tracer.summary())
    assert identity_problems(metrics, workload.rounds) == []
    # the one violation is cheat's abort with the censor on, which the
    # tracer counts as a CensorViolation raised out of vet_emission
    assert metrics["censor.violations"] == (1 if name == "classical-sweep" else 0)
