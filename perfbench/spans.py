"""In-memory span recorder and the per-layer metrics derived from it.

``Tracer.install`` wraps the public entry points of every bellgame layer,
wherever the package binds them, and ``Tracer.restore`` puts the originals
back. Each wrapped call records one span: name, start, end, parent span and
the benchmark op it belongs to. Spans live in flat arrays so that a few
hundred thousand of them stay small; they are written to disk once, by
``Tracer.write``, after the benchmark has finished measuring.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array

# (module, attribute, span name, measure) for module-level functions. The
# measure maps a call's result to the number stored with its span. An entry
# point the package no longer has is skipped and listed in Tracer.missing;
# the metrics it feeds then read 0.
FUNCTIONS = (
    ("bellgame.randomness", "derive_run_seed", "randomness.derive_run_seed", None),
    ("bellgame.protocol", "draw_settings", "protocol.draw_settings", None),
    ("bellgame.protocol", "execute_run", "protocol.execute_run", lambda r: len(r.transcript)),
    ("bellgame.protocol", "run_experiment", "protocol.run_experiment", None),
    ("bellgame.censor", "vet_emission", "censor.vet_emission", lambda v: 0 if getattr(v, "ok", v) else 1),
    ("bellgame.censor", "verify_transcript_invariance", "censor.verify_transcript_invariance", None),
    ("bellgame.quantum", "sample_quantum_run", "quantum.sample_quantum_run", None),
    ("bellgame.quantum", "quantum_experiment", "quantum.quantum_experiment", None),
    ("bellgame.cli", "main", "cli.main", None),
)

# (module, class, attribute, span name, measure) for methods.
METHODS = (
    ("bellgame.randomness", "ByteStream", "__init__", "randomness.ByteStream", None),
    ("bellgame.randomness", "ByteStream", "take", "randomness.take", len),
    ("bellgame.randomness", "ByteStream", "u8", "randomness.u8", lambda b: 1),
    ("bellgame.core", "RunRecord", "to_json_line", "core.to_json_line", len),
    ("bellgame.core", "RunRecord", "from_json_line", "core.from_json_line", None),
    ("bellgame.analysis", "ExperimentStats", "record", "analysis.record", None),
)

# Span name -> (module, exception class): a call that raises this exception
# stores 1 with its span. vet_emission counts a violation whether the censor
# reports it in a falsy or not-ok verdict or raises it.
RAISED = {"censor.vet_emission": ("bellgame.censor", "CensorViolation")}

SLOTS = ("init", "transition", "emit", "flash")

# layers whose self time is a metric; core and analysis report their calls' times instead
SELF_TIMED = ("randomness", "protocol", "censor", "strategies", "quantum", "cli")
_NO_SPANS = {"calls": 0, "incl_ns": 0, "self_ns": 0, "value": 0, "nonzero": 0}

# Count metrics: equal on every traced run of one workload at one seed.
COUNT_METRICS = (
    "randomness.seed_derivations",
    "randomness.streams",
    "randomness.bytes_taken",
    "protocol.runs",
    "protocol.frames",
    "censor.vetted_frames",
    "censor.emit_calls",
    "censor.violations",
    "censor.useful_ratio",
    "censor.invariance_checks",
    "strategies.slot_calls",
    "core.records_serialized",
    "core.bytes_per_record",
    "core.records_parsed",
    "analysis.tallies",
    "analysis.replays",
    "quantum.samples",
    "cli.invocations",
)


class Tracer:
    """Span arrays plus the wrappers that fill them."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op_id = array("i")
        self.value = array("q")
        self._stack = [-1]
        self.op = -1
        self._undo: list = []
        self.missing: list[str] = []  # entry points install() did not find

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op_id.append(self.op)
        self.start.append(0)
        self.end.append(0)
        self.value.append(0)
        self._stack.append(idx)
        return idx

    def wrap(self, name: str, fn, measure=None, raised=None):
        """``fn`` with a span recorded around every call. A call that raises
        ``raised`` (an exception class) stores 1 with its span."""
        nid = self._intern(name)
        open_span, stack, start, end, value = self._open, self._stack, self.start, self.end, self.value
        clock = time.perf_counter_ns
        counted = raised or ()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except counted:
                value[idx] = 1
                raise
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if measure is not None:
                value[idx] = measure(result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._open(self._intern(name))
        self.start[idx] = time.perf_counter_ns()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def _set(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every entry point in FUNCTIONS, METHODS and the strategy slots."""
        modules = [m for n, m in sys.modules.items() if n == "bellgame" or n.startswith("bellgame.")]
        for module, attr, name, measure in FUNCTIONS:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            raised = None
            if name in RAISED:
                home, exc_name = RAISED[name]
                raised = getattr(sys.modules.get(home), exc_name, None)
            traced = self.wrap(name, original, measure, raised)
            # callers import these by name, so rebind every module's copy
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, key, traced)
        for module, cls_name, attr, name, measure in METHODS:
            cls = getattr(sys.modules.get(module), cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                self.missing.append(f"{module}.{cls_name}.{attr}")
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__, measure))
            else:
                new = self.wrap(name, raw, measure)
            self._set(cls, attr, new)
        # Every factory builds its strategy through this module-level name, so
        # strategies made while tracing get wrapped slots. functools.wraps keeps
        # the signatures that validate_strategy inspects.
        strategies = sys.modules.get("bellgame.strategies")
        real = getattr(strategies, "WingStrategy", None)
        if real is None:
            self.missing.append("bellgame.strategies.WingStrategy")
            return
        slot_wrappers = {slot: f"strategies.{slot}" for slot in SLOTS}

        def traced_strategy(strategy_id, init, transition, emit, flash, **flags):
            slots = {
                slot: self.wrap(slot_wrappers[slot], fn)
                for slot, fn in zip(SLOTS, (init, transition, emit, flash))
            }
            return real(strategy_id, **slots, **flags)

        self._set(strategies, "WingStrategy", traced_strategy)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, inclusive ns, self ns, summed values; plus
        the same per (name, parent name) pair under 'name<parent'."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, int]] = {}
        names, name_id, value = self.names, self.name_id, self.value
        for i in range(n):
            name = names[name_id[i]]
            p = parent[i]
            keys = (name, f"{name}<{names[name_id[p]] if p >= 0 else ''}")
            for key in keys:
                row = out.get(key)
                if row is None:
                    row = out[key] = dict(_NO_SPANS)
                row["calls"] += 1
                row["incl_ns"] += dur[i]
                row["self_ns"] += dur[i] - child[i]
                row["value"] += value[i]
                row["nonzero"] += value[i] != 0
        return out

    def write(self, path) -> None:
        """All spans as gzipped CSV: name, start_ns, end_ns, parent, op."""
        with gzip.open(path, "wt", newline="\n") as fh:
            fh.write("index,name,start_ns,end_ns,parent,op\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{names[self.name_id[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.op_id[i]}\n"
                )


def layer_metrics(summary: dict[str, dict[str, int]]) -> dict[str, float]:
    """The per-layer metrics of one traced pass, named as in BENCHMARK.json."""

    def row(key):
        return summary.get(key, _NO_SPANS)

    def self_ms(layer):
        return sum(r["self_ns"] for k, r in summary.items() if "<" not in k and k.startswith(layer + ".")) / 1e6

    vet = row("censor.vet_emission")
    emits_vetted = row("strategies.emit<censor.vet_emission")["calls"]
    violations = vet["value"]
    serialized = row("core.to_json_line")
    # the benchmark replays records by calling these directly from an op
    replays = [row("protocol.execute_run<bench.op"), row("quantum.sample_quantum_run<bench.op")]
    m = {
        "randomness.seed_derivations": row("randomness.derive_run_seed")["calls"],
        "randomness.streams": row("randomness.ByteStream")["calls"],
        "randomness.bytes_taken": row("randomness.take")["value"] + row("randomness.u8")["value"],
        "protocol.runs": row("protocol.execute_run")["nonzero"],
        "protocol.frames": row("protocol.execute_run")["value"],
        "protocol.draw_settings_ms": row("protocol.draw_settings")["incl_ns"] / 1e6,
        "censor.vetted_frames": vet["calls"],
        "censor.emit_calls": emits_vetted,
        "censor.violations": violations,
        "censor.useful_ratio": (vet["calls"] - violations) / emits_vetted if emits_vetted else 0.0,
        "censor.invariance_checks": row("censor.verify_transcript_invariance")["calls"],
        "censor.invariance_ms": row("censor.verify_transcript_invariance")["incl_ns"] / 1e6,
        "strategies.slot_calls": sum(row(f"strategies.{s}")["calls"] for s in SLOTS),
        "core.records_serialized": serialized["calls"],
        "core.bytes_per_record": serialized["value"] / serialized["calls"] if serialized["calls"] else 0.0,
        "core.serialize_ms": serialized["incl_ns"] / 1e6,
        "core.records_parsed": row("core.from_json_line")["calls"],
        "core.parse_ms": row("core.from_json_line")["incl_ns"] / 1e6,
        "analysis.tallies": row("analysis.record")["calls"],
        "analysis.tally_ms": row("analysis.record")["incl_ns"] / 1e6,
        "analysis.replays": sum(r["calls"] for r in replays),
        "analysis.replay_ms": sum(r["incl_ns"] for r in replays) / 1e6,
        "quantum.samples": row("quantum.sample_quantum_run")["calls"],
        "cli.invocations": row("cli.main")["calls"],
    }
    for layer in SELF_TIMED:
        m[f"{layer}.self_ms"] = self_ms(layer)
    return m


def identity_problems(metrics: dict[str, float], rounds: int) -> list[str]:
    """Exact count identities every traced pass must satisfy."""
    problems = []
    if metrics["censor.emit_calls"] != 3 * metrics["censor.vetted_frames"]:
        problems.append(
            f"censor.emit_calls {metrics['censor.emit_calls']} != 3 * censor.vetted_frames "
            f"{metrics['censor.vetted_frames']}"
        )
    if metrics["protocol.frames"] != 2 * rounds * metrics["protocol.runs"]:
        problems.append(
            f"protocol.frames {metrics['protocol.frames']} != 2 * {rounds} * protocol.runs "
            f"{metrics['protocol.runs']}"
        )
    return problems
