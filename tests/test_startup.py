"""What start-up loads: importing bellgame, building the registry, proving
the bound and the CLI's run, prove-bound, list-strategies and verify-censor
commands load no module they never use.

Each check runs in a fresh interpreter with ``src`` on PYTHONPATH and the
flags of this one, and is compared with a bare interpreter started the same
way, so a module the interpreter loads by itself is not counted.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
WATCHED = ("dataclasses", "hashlib", "_hashlib", "inspect")


def _loaded_after(code: str) -> set:
    """The WATCHED modules loaded once a fresh interpreter has run ``code``."""
    report = f"import sys; print(','.join(m for m in {WATCHED!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("BELLGAME_OUTPUT", None)
    proc = subprocess.run(
        [sys.executable, *subprocess._args_from_interpreter_flags(), "-c", f"{code}\n{report}"],
        capture_output=True, text=True, env=env, check=True,
    )
    return set(filter(None, proc.stdout.splitlines()[-1].split(",")))


def test_import_registry_and_bound_load_none_of_them():
    loaded = _loaded_after("import bellgame; bellgame.build_registry(); bellgame.prove_bound()")
    assert loaded - _loaded_after("") == set()


def test_cli_commands_load_none_of_them():
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from bellgame import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['prove-bound']) == 0\n"
        "    assert cli.main(['run', '--strategy', 'quantum-oracle', '--n', '5']) == 0\n"
        "    assert cli.main(['run', '--strategy', 'negotiation', '--n', '5']) == 0\n"
        "    assert cli.main(['list-strategies']) == 0\n"
        "    assert cli.main(['verify-censor', '--n', '1']) == 0"
    )
    assert loaded - _loaded_after("") == set()
