#!/usr/bin/env python3
"""Self-checks of the benchmark's tracing.

    python3 perfbench/selftest.py

Runs the traced cycle of every workload twice at one seed and checks that
the per-layer counts repeat exactly, that the count identities hold, that
the counts are the ones each workload's shape implies, and that tracing
leaves no wrapper behind. Also checks that a missing entry point is skipped
and that a censor violation counts whether it is returned or raised. Kept out of the package's pytest suite on purpose:
it lives here, and its name does not match pytest's test file patterns.
"""

from __future__ import annotations

import sys
import unittest
from unittest import mock

from run import OUT, SCRATCH, TRACE_SIZES, Ledger, load_bellgame, traced_cycle
import spans
from spans import COUNT_METRICS, FUNCTIONS, METHODS, Tracer, identity_problems, layer_metrics
from workloads import WORKLOADS, master_seed

SEED = 7
bg = load_bellgame()


def traced_metrics(name: str) -> dict:
    ledger = Ledger()
    try:
        tracer, _ = traced_cycle(bg, name, master_seed(SEED, 0), ledger)
    finally:
        SCRATCH.unlink(missing_ok=True)
    if ledger.failed:
        raise AssertionError(ledger.failures)
    return layer_metrics(tracer.summary())


class TracedCounts(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        OUT.mkdir(exist_ok=True)
        cls.metrics = {name: [traced_metrics(name), traced_metrics(name)] for name in WORKLOADS}

    def test_counts_repeat_exactly(self):
        for name, (first, second) in self.metrics.items():
            with self.subTest(workload=name):
                self.assertEqual({k: first[k] for k in COUNT_METRICS}, {k: second[k] for k in COUNT_METRICS})

    def test_identities_hold(self):
        for name, (m, _) in self.metrics.items():
            with self.subTest(workload=name):
                self.assertEqual(identity_problems(m, WORKLOADS[name].rounds), [])
                self.assertEqual(m["censor.emit_calls"], 3 * m["censor.vetted_frames"])

    def test_classical_sweep_shape(self):
        m = self.metrics["classical-sweep"][0]
        n = TRACE_SIZES["classical-sweep"]["n"]
        self.assertEqual(m["protocol.runs"], 14 * n)  # 13 compliant + cheat off; cheat on aborts
        self.assertEqual(m["protocol.frames"], 2 * 4 * 14 * n)
        self.assertEqual(m["censor.violations"], 1)
        self.assertEqual(m["censor.vetted_frames"], 2 * 4 * 13 * n + 1)
        self.assertEqual(m["analysis.tallies"], 14 * n)
        for zero in ("core.records_serialized", "core.records_parsed", "cli.invocations", "quantum.samples"):
            self.assertEqual(m[zero], 0, zero)

    def test_record_audit_shape(self):
        m = self.metrics["record-audit"][0]
        n = TRACE_SIZES["record-audit"]["n"]
        self.assertEqual(m["cli.invocations"], 3)
        self.assertEqual(m["core.records_serialized"], 3 * n)
        self.assertEqual(m["core.records_parsed"], 3 * n)
        self.assertEqual(m["analysis.replays"], 3 * n)
        self.assertEqual(m["analysis.tallies"], 2 * 3 * n)  # written, then re-tallied
        self.assertEqual(m["protocol.runs"], 2 * 2 * n)  # two classical strategies, run and replayed
        self.assertEqual(m["quantum.samples"], 2 * n)

    def test_quantum_oracle_is_the_control(self):
        m = self.metrics["quantum-oracle"][0]
        n = TRACE_SIZES["quantum-oracle"]["n"]
        self.assertEqual(m["quantum.samples"], n)
        self.assertEqual(m["randomness.seed_derivations"], n)
        for zero in ("protocol.runs", "censor.vetted_frames", "strategies.slot_calls", "cli.invocations"):
            self.assertEqual(m[zero], 0, zero)

    def test_long_exchange_shape(self):
        m = self.metrics["long-exchange"][0]
        size = TRACE_SIZES["long-exchange"]
        self.assertEqual(m["censor.invariance_checks"], 13 * size["trials"])
        # each invariance check replays the run under four other settings
        self.assertEqual(m["protocol.runs"], 13 * (size["n"] + 5 * size["trials"]))

    def test_tracing_restores_every_entry_point(self):
        def bindings():
            found = {}
            for module, attr, _, _ in FUNCTIONS:
                found[(module, attr)] = getattr(sys.modules[module], attr)
            for module, cls, attr, _, _ in METHODS:
                found[(cls, attr)] = getattr(sys.modules[module], cls).__dict__[attr]
            found["WingStrategy"] = sys.modules["bellgame.strategies"].WingStrategy
            return found

        before = bindings()
        traced_metrics("record-audit")
        self.assertEqual(bindings(), before)
        strategy = bg.build_registry()["negotiation"]
        self.assertFalse(hasattr(strategy.emit, "__wrapped__"))


class TracerEdges(unittest.TestCase):
    def test_missing_entry_point_is_skipped(self):
        absent = ("bellgame.protocol", "no_such_function", "protocol.no_such_function", None)
        tracer = Tracer()
        with mock.patch.object(spans, "FUNCTIONS", FUNCTIONS + (absent,)):
            tracer.install()
            tracer.restore()
        self.assertEqual(tracer.missing, ["bellgame.protocol.no_such_function"])
        self.assertEqual(layer_metrics(tracer.summary())["protocol.runs"], 0)

    def test_violation_counts_when_returned_or_raised(self):
        measure = {name: m for _, _, name, m in FUNCTIONS}["censor.vet_emission"]
        home, exc_name = spans.RAISED["censor.vet_emission"]
        violation = getattr(sys.modules[home], exc_name)

        class Raised(violation):
            def __init__(self):
                Exception.__init__(self, "emission depends on the setting")

        def raising():
            raise Raised()

        tracer = Tracer()
        returns = tracer.wrap("censor.vet_emission", lambda verdict: verdict, measure, violation)
        raises = tracer.wrap("censor.vet_emission", raising, measure, violation)
        for verdict in (bg.CensorVerdict(True, payload=b""), bg.CensorVerdict(False), True, False):
            returns(verdict)
        with self.assertRaises(violation):
            raises()
        self.assertEqual(tracer.summary()["censor.vet_emission"]["value"], 3)


if __name__ == "__main__":
    unittest.main()
