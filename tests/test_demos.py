"""Smoke test: every demo script, and the README's library snippet, runs to
completion against the package."""

import contextlib
import io
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from test_cli import _child_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
# arguments a demo takes on its command line; the rest run as they are
ARGS = {"04_the_gap.py": ["20000"]}


def test_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    proc = subprocess.run(
        [sys.executable, str(demo), *ARGS.get(demo.name, [])],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_library_snippet():
    # the one python block in the README, run as written, with the value its
    # comment names for master seed 7
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["stats"].overall_same == Fraction(6683, 10000)
    assert "6683/10000" in blocks[0]
    assert printed.getvalue().splitlines()[0] == "6683/10000"
