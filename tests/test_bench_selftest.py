"""The benchmark's own self-test, run as the script it is.

``perfbench/selftest.py`` patches the package while it traces and writes
under ``perfbench/out/``, so it runs in a child process, not in this one.
Three of its nine cases fail today on one known defect (known defect 1 in
ROADMAP.md): one case builds a ``CensorVerdict``, a type the package no
longer has, and two expect ``quantum.samples``, the count of
``sample_quantum_run`` calls, to count every oracle run, though
``quantum_experiment`` no longer calls it. This test pins those three
failures exactly, so a new failure, or one whose message changes, shows up
here; the change that mends the defect empties ``KNOWN_DEFECT_1``, and the
test then requires all nine to pass.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# case name -> (how it ends, the last line of its traceback)
KNOWN_DEFECT_1 = {
    "test_violation_counts_when_returned_or_raised": (
        "ERROR", "AttributeError: module 'bellgame' has no attribute 'CensorVerdict'",
    ),
    "test_quantum_oracle_is_the_control": ("FAIL", "AssertionError: 0 != 5000"),
    "test_record_audit_shape": ("FAIL", "AssertionError: 50 != 100"),
}

# one line per case under -v: "test_name (__main__.Class[.test_name]) ... ok"
_OUTCOME = re.compile(r"^(test_\w+) \(.*\) \.\.\. (ok|FAIL|ERROR)$", re.M)
_SEPARATOR = "=" * 70


def test_selftest_fails_only_on_known_defect_1():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py", "-v"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    report = proc.stderr
    assert proc.returncode == (1 if KNOWN_DEFECT_1 else 0), report
    assert "\nRan 9 tests in " in report
    outcomes = dict(_OUTCOME.findall(report))
    assert len(outcomes) == 9, report
    passed = {name for name, outcome in outcomes.items() if outcome == "ok"}
    assert passed == set(outcomes) - set(KNOWN_DEFECT_1), report
    assert len(passed) == 9 - len(KNOWN_DEFECT_1)  # 6 while the defect is open
    # each failure's block: "<FAIL|ERROR>: <name> (...)", then its traceback
    tracebacks = {}
    for block in report.split(_SEPARATOR)[1:]:
        head, _, body = block.strip().partition("\n")
        kind, name = head.split()[:2]
        tracebacks[name] = (kind.rstrip(":"), body)
    assert set(tracebacks) == set(KNOWN_DEFECT_1), report
    for name, (kind, last_line) in KNOWN_DEFECT_1.items():
        assert outcomes[name] == kind
        found_kind, body = tracebacks[name]
        assert found_kind == kind
        assert last_line in body.splitlines(), body
