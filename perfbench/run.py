#!/usr/bin/env python3
"""Closed-loop benchmark of bellgame, one workload per invocation.

    python3 perfbench/run.py --workload classical-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. One process, one caller, no extra threads: each op starts
when the previous one has returned.

With ``--trace 0`` the run measures set-up time in fresh interpreters, runs
one warm-up cycle, then whole cycles of the workload until ``--seconds``
have passed, and prints the end-to-end metrics listed in BENCHMARK.json.
With ``--trace 1`` it runs one smaller cycle untraced and then traced, and
prints the per-layer metrics. Every op's output is checked; a wrong output
or an exception is a failed op, never a crash. The last line of standard
output is the result as JSON; a fuller record with an environment stamp
goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, identity_problems, layer_metrics
from workloads import WORKLOADS, OpResult, master_seed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PINS = BENCH / "pinned.json"
SCRATCH = OUT / f"record-audit-{os.getpid()}.jsonl"  # the stream record-audit writes and reads

# Op sizes of the measured runs, and of the traced runs (smaller, so that
# the spans of one cycle fit in memory).
SIZES = {
    "classical-sweep": {"n": 1000},
    "record-audit": {"n": 400},
    "quantum-oracle": {"n": 10000},
    "long-exchange": {"n": 64, "trials": 12},
}
TRACE_SIZES = {
    "classical-sweep": {"n": 100},
    "record-audit": {"n": 50},
    "quantum-oracle": {"n": 5000},
    "long-exchange": {"n": 8, "trials": 2},
}
# Second-phase throughput each workload reports besides runs_per_s.
CHECK_METRICS = {"record-audit": "audit_runs_per_s", "long-exchange": "replays_per_s"}

SETUP_SAMPLES = 21
SETUP_CODE = (
    "import sys, time; t0 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import bellgame; bellgame.build_registry(); bellgame.prove_bound(); "
    "print(time.perf_counter() - t0)"
)
# The reference for a set-up sample: a fresh interpreter importing a fixed
# set of standard-library modules. It is the same kind of work as SETUP_CODE
# (reading and running module byte code) and runs no bellgame code.
REFERENCE_CODE = (
    "import time; t0 = time.perf_counter(); "
    "import unittest, email.parser, http.client, xml.dom.minidom, logging, argparse, statistics; "
    "print(time.perf_counter() - t0)"
)
# Typical REFERENCE_CODE time on the machine that defined this benchmark.
REFERENCE_S = 0.05
# Typical calibration_ms() on the machine that defined this benchmark
# (Intel Xeon at 2.1 GHz, 2 cores, Python 3.11.7): the reference speed.
CALIBRATION_REF_MS = 3.0
UNTRACED_REPEATS = 3  # in traced runs: untraced cycles for us_per_run and trace.overhead_frac
MAX_LOGGED_FAILURES = 20


def load_bellgame():
    """Import bellgame from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "bellgame" / "__init__.py").is_file():
        print(f"perfbench: no bellgame sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import bellgame
    import bellgame.cli  # noqa: F401  (record-audit drives bellgame.cli.main)

    if Path(bellgame.__file__).resolve().parent != SRC / "bellgame":
        print(f"perfbench: imported bellgame from {bellgame.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return bellgame


def make_workload(bg, name: str, sizes: dict):
    cls = WORKLOADS[name]
    if name == "record-audit":
        return cls(bg, SCRATCH, **sizes[name])
    return cls(bg, **sizes[name])


class Ledger:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def note(self, entry: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < MAX_LOGGED_FAILURES:
                self.failures.append(f"{entry}: {'; '.join(problems)}")


def run_cycle(workload, master: int, ledger: Ledger, pins=None, tracer=None, after_op=None) -> list:
    """One op per entry of the workload. Returns (entry, OpResult, wall_s).
    ``after_op`` runs after each op, outside its timing."""
    done = []
    for index, entry in enumerate(workload.entries):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = workload.op(index, master)
            else:
                tracer.op = ledger.attempted
                with tracer.span("bench.op"):
                    res = workload.op(index, master)
        except Exception as exc:  # a raising op is a failed op; the loop goes on
            res = OpResult(problems=[f"{type(exc).__name__}: {exc}"])
        wall = time.perf_counter() - t0
        if pins is not None and res.fingerprint != pins[entry]:
            res.problems.append(f"output differs from the pinned output: {res.fingerprint}")
        ledger.note(entry, res.problems)
        done.append((entry, res, wall))
        if after_op is not None:
            after_op()
    return done


def rate(results, units: str, seconds: str) -> float:
    total = sum(getattr(r, seconds) for _, r, _ in results)
    return sum(getattr(r, units) for _, r, _ in results) / total if total else 0.0


def child_seconds(code: str) -> float:
    """What a fresh interpreter running ``code`` prints: seconds timed inside
    it, so that process start-up, which bellgame does not control, is left out."""
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], cwd=ROOT, check=True, capture_output=True, text=True
    )
    return float(out.stdout)


def setup_once() -> tuple[float, float]:
    """Seconds a fresh interpreter spends importing bellgame, building the
    registry and proving the bound, and the seconds of the reference child
    run right after it."""
    return child_seconds(SETUP_CODE), child_seconds(REFERENCE_CODE)


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def _kernel_step(cell: _Cell, byte: int, i: int) -> _Cell:
    return _Cell(cell.b, (cell.a * 31 + byte + i) & 0xFFFF)


def calibration_ms() -> float:
    """Wall time of a fixed pure-Python kernel that runs no bellgame code:
    calls, small objects, tuples and dict stores, the interpreter work that
    dominates the referee loop."""
    t0 = time.perf_counter()
    cell, table = _Cell(0, 0), {}
    for i in range(6000):
        cell = _kernel_step(cell, i & 255, i)
        table[cell.a & 63] = (cell.a, cell.b, i)
    return (time.perf_counter() - t0) * 1e3


class Calibration:
    """Kernel times taken before the first sample and after each sample.

    The machine is shared and its speed swings by a third within minutes,
    far more than the changes the benchmark must resolve. Each timed op
    is therefore scaled to the reference speed by the kernel times measured
    just before and just after it: a sample taken while the machine ran at
    half speed counts half its wall time.
    """

    def __init__(self):
        self.kernel_ms = [calibration_ms()]

    def after_sample(self) -> None:
        self.kernel_ms.append(calibration_ms())

    def factor(self, j: int) -> float:
        """Reference time over measured time for sample j."""
        return 2 * CALIBRATION_REF_MS / (self.kernel_ms[j] + self.kernel_ms[j + 1])


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    """Peak resident set size of this process, or with RUSAGE_CHILDREN of
    its largest finished child."""
    return resource.getrusage(who).ru_maxrss / 1024


def measure(bg, name: str, seed: int, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    """The end-to-end metrics of one untraced run, plus extra figures.

    Op times and rates are at the reference speed (see Calibration), and
    setup_s is scaled so that its reference child takes REFERENCE_S; the raw
    figures go to the result file beside them.
    """
    pins = None
    pinned = json.loads(PINS.read_text())
    if seed == pinned["seed"]:
        if pinned["sizes"] != SIZES:
            raise SystemExit("perfbench: pinned.json was made at other op sizes; run pin.py")
        pins = pinned["workloads"][name]

    workload = make_workload(bg, name, SIZES)
    run_cycle(workload, master_seed(seed, 0), ledger, pins=pins)  # warm-up, checked like the rest
    setup_once()  # untimed: fills the byte-code cache
    op_cal, cycles = Calibration(), []
    setup = []  # (set-up seconds, reference seconds)

    def after_op():
        op_cal.after_sample()
        # set-up samples are spread evenly over the measured time, between ops
        if len(setup) < SETUP_SAMPLES and time.perf_counter() - start >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(setup_once())

    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        cycles.append(run_cycle(workload, master_seed(seed, len(cycles) + 1), ledger, after_op=after_op))
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_once())
    measured_s = time.perf_counter() - start

    # per cycle: (runs, main_s, checked, check_s) at the reference speed
    scaled, op_ms, raw_op_ms = [], [], []
    j = 0
    for cycle in cycles:
        totals = [0, 0.0, 0, 0.0]
        for _, res, wall in cycle:
            f = op_cal.factor(j)
            j += 1
            totals[0] += res.runs
            totals[1] += res.main_s * f
            totals[2] += res.checked
            totals[3] += res.check_s * f
            op_ms.append(wall * 1e3 * f)
            raw_op_ms.append(wall * 1e3)
        scaled.append(totals)

    def p90(values):
        return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]

    metrics = {
        # the machine's speed drifts; the reference child, run beside each
        # sample, drifts with it, so their ratio holds still
        "setup_s": statistics.median(s / ref for s, ref in setup) * REFERENCE_S,
        # a cycle is one op per entry, so per-cycle rates keep the entry mix fixed
        "runs_per_s": statistics.median(runs / t for runs, t, _, _ in scaled if t),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": p90(op_ms),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {
        "raw": {
            "setup_s": statistics.median(s for s, _ in setup),
            "setup_reference_s": statistics.median(ref for _, ref in setup),
            "runs_per_s": statistics.median(rate(c, "runs", "main_s") for c in cycles),
            "op_ms_p50": statistics.median(raw_op_ms),
            "op_ms_p90": p90(raw_op_ms),
        },
        # the set-up children: with RUSAGE_SELF, peak_rss_mb leaves them out
        "children_peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        "calibration_ms_median": statistics.median(op_cal.kernel_ms),
        "calibration_ms_range": [min(op_cal.kernel_ms), max(op_cal.kernel_ms)],
        "cycles": len(cycles),
        "ops_measured": len(op_ms),
        "measured_s": measured_s,
    }
    if name in CHECK_METRICS:
        extra[CHECK_METRICS[name]] = statistics.median(k / t for _, _, k, t in scaled if t)
    return metrics, extra


def strategy_costs(bg, seed: int, ledger: Ledger) -> dict:
    """strategies.<id>.us_per_run from untraced classical-sweep ops (cheat
    with the censor off stands for cheat) and quantum-oracle ops."""
    sweep = make_workload(bg, "classical-sweep", SIZES)
    oracle = make_workload(bg, "quantum-oracle", SIZES)
    per_run: dict[str, list] = {}
    for _ in range(UNTRACED_REPEATS):
        for workload in (sweep, oracle):
            for entry, res, _ in run_cycle(workload, master_seed(seed, 0), ledger):
                if res.runs:
                    per_run.setdefault(entry.split("/")[0], []).append(res.main_s / res.runs * 1e6)
    return {f"strategies.{sid}.us_per_run": statistics.median(v) for sid, v in per_run.items()}


def traced_cycle(bg, name: str, master: int, ledger: Ledger) -> tuple[Tracer, float]:
    """One cycle at the traced sizes with every entry point wrapped; the
    wrappers are gone again when this returns."""
    tracer = Tracer()
    tracer.install()
    try:
        workload = make_workload(bg, name, TRACE_SIZES)  # built while tracing, so slots are wrapped
        t0 = time.perf_counter()
        run_cycle(workload, master, ledger, tracer=tracer)
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    return tracer, wall


def trace(bg, name: str, seed: int, ledger: Ledger) -> tuple[dict, dict, list]:
    """The per-layer metrics of one traced cycle, with identity problems.
    The same cycle runs untraced first, for trace.overhead_frac."""
    master = master_seed(seed, 0)
    metrics = strategy_costs(bg, seed, ledger)
    plain = make_workload(bg, name, TRACE_SIZES)
    walls, rates = [], []
    for _ in range(UNTRACED_REPEATS):
        t0 = time.perf_counter()
        cycle = run_cycle(plain, master, ledger)
        walls.append(time.perf_counter() - t0)
        rates.append(rate(cycle, "checked", "check_s"))
    tracer, traced_wall = traced_cycle(bg, name, master, ledger)
    metrics.update(layer_metrics(tracer.summary()))
    metrics["trace.overhead_frac"] = traced_wall / statistics.median(walls) - 1
    for workload_name, check_metric in CHECK_METRICS.items():
        metrics[check_metric] = statistics.median(rates) if workload_name == name else 0.0
    problems = identity_problems(metrics, plain.rounds)
    spans_path = OUT / f"spans-{name}-seed{seed}.csv.gz"
    tracer.write(spans_path)
    extra = {
        "spans": len(tracer.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        # entry points the package no longer has; the metrics they feed read 0
        "missing_entry_points": tracer.missing,
    }
    for entry_point in tracer.missing:
        print(f"perfbench: not traced, no such entry point: {entry_point}", file=sys.stderr)
    return metrics, extra, problems


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_sha256() -> str:
    """Digest of the package sources, which names the code also where the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "bellgame").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def env_stamp(bg, args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "bellgame": bg.__version__,
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": (TRACE_SIZES if args.trace else SIZES)[args.workload],
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bg = load_bellgame()
    OUT.mkdir(exist_ok=True)
    ledger = Ledger()
    problems: list[str] = []
    try:
        if args.trace:
            metrics, extra, problems = trace(bg, args.workload, args.seed, ledger)
        else:
            metrics, extra = measure(bg, args.workload, args.seed, args.seconds, ledger)
    finally:
        SCRATCH.unlink(missing_ok=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": ledger.failed == 0 and not problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record = {
        "env": env_stamp(bg, args),
        "result": result,
        "failed_op_ratio": ledger.failed / ledger.attempted,
        "failures": ledger.failures,
        "identity_problems": problems,
        "all_metrics": metrics,
        **extra,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for line in ledger.failures + problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
