#!/usr/bin/env python3
"""Run every workload over sets of seeds and record the medians and spreads.

    python3 perfbench/baseline.py [--seeds 1-10 [--seeds 11-20]] [--output perfbench/baseline.json]

For each set of seeds, workload and end-to-end metric this runs run.py once
per seed and reports the median, the quartiles and the spread: the distance
between the first and third quartile as a share of the median. Each spread
is compared with the metric's bound from BENCHMARK.json. With two or more
sets, each later set's medians are compared with the first set's: the change
in the metric's worse direction must stay within the bound. Exits 1 if any
run reports an incorrect output or a later set is worse by more than a bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
ENV_KEYS = ("python", "nproc", "platform", "machine", "bellgame", "commit", "source_sha256")


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(spec: dict, seeds: list[int]) -> tuple[dict, bool]:
    """Medians and spreads of one set of seeds, and whether every run was correct."""
    report = {"seeds": seeds, "workloads": {}}
    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            cmd = [
                sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.splitlines()[-1])
            all_correct &= result["correct"] and result["failed"] == 0
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        env = json.loads((BENCH / "out" / f"{workload}-seed{seeds[-1]}-trace0.json").read_text())["env"]
        rows = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            spread = (q3 - q1) / median
            rows[m["name"]] = {
                "unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": m["bound"], "values": v,
            }
            print(
                f"seeds {seeds[0]}-{seeds[-1]} {workload:16s} {m['name']:12s} median {median:12.4f} "
                f"{m['unit']:4s} spread {spread:.4f} (bound {m['bound']}, a third {m['bound'] / 3:.4f})",
                flush=True,
            )
        report["workloads"][workload] = {"env": {k: env[k] for k in ENV_KEYS}, "metrics": rows}
    return report, all_correct


def worse_by(metric: dict, first: float, later: float) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, action="append")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args()

    sets, all_correct = [], True
    for seeds in args.seeds or [seeds_arg("1-10")]:
        report, correct = run_set(spec, seeds)
        sets.append(report)
        all_correct &= correct

    agreed = True
    for later in sets[1:]:
        later["against_first"] = {}
        for workload, block in later["workloads"].items():
            for m in spec["end_to_end"]:
                first = sets[0]["workloads"][workload]["metrics"][m["name"]]["median"]
                worse = worse_by(m, first, block["metrics"][m["name"]]["median"])
                ok = worse <= m["bound"]
                agreed &= ok
                later["against_first"].setdefault(workload, {})[m["name"]] = {"worse_by": worse, "bound": m["bound"]}
                print(
                    f"seeds {later['seeds'][0]}-{later['seeds'][-1]} against the first set: {workload:16s} "
                    f"{m['name']:12s} worse by {worse:+.4f} (bound {m['bound']}) {'ok' if ok else 'TOO FAR'}",
                    flush=True,
                )
    if args.output:
        report = {"run_seconds": spec["run_seconds"], "sets": sets}
        args.output.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_correct and agreed else 1


if __name__ == "__main__":
    sys.exit(main())
