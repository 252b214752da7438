#!/usr/bin/env python3
"""Record the outputs that run.py pins at the pin seed.

    python3 perfbench/pin.py

Runs the first cycle of every workload at seed 0 and the measured op sizes
and writes each op's fingerprint (tally counts, JSONL sha256, gap report
digest, abort point) to perfbench/pinned.json. A later run at seed 0 counts
every op whose output differs as failed. Re-pin only in a change that says
why an output byte changed.
"""

from __future__ import annotations

import json
import sys

from run import OUT, PINS, SCRATCH, SIZES, Ledger, load_bellgame, make_workload, run_cycle
from workloads import WORKLOADS, master_seed

PIN_SEED = 0


def main() -> int:
    bg = load_bellgame()
    OUT.mkdir(exist_ok=True)
    ledger = Ledger()
    pins = {}
    try:
        for name in WORKLOADS:
            cycle = run_cycle(make_workload(bg, name, SIZES), master_seed(PIN_SEED, 0), ledger)
            pins[name] = {entry: res.fingerprint for entry, res, _ in cycle}
    finally:
        SCRATCH.unlink(missing_ok=True)
    if ledger.failed:
        print("\n".join(ledger.failures), file=sys.stderr)
        return 1
    doc = {"seed": PIN_SEED, "sizes": SIZES, "workloads": pins}
    PINS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS.name}: {sum(len(p) for p in pins.values())} pinned ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
