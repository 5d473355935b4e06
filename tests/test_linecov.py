"""tests/linecov.py fails on an unreached line and passes a failing command's code through."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_linecov(*command):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "tests" / "linecov.py"), *command],
                          capture_output=True, text=True, env=env, timeout=60)


def test_an_import_alone_leaves_lines_unreached():
    done = run_linecov(sys.executable, "-c", "import blockperm.perm")
    assert done.returncode == 1, done.stdout + done.stderr
    assert re.search(r"^src/blockperm/perm\.py:\d+: never ran$", done.stdout, re.MULTILINE), \
        done.stdout


def test_a_failing_command_exits_with_its_code_unchecked():
    done = run_linecov(sys.executable, "-c", "import sys; sys.exit(3)")
    assert done.returncode == 3, done.stdout + done.stderr
    assert "coverage not checked" in done.stdout
