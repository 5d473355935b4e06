"""Line coverage of ``src/blockperm`` from the standard library alone.

    python tests/linecov.py python -m pytest -q

runs the command with a ``sitecustomize`` first on ``PYTHONPATH``, so that
the command and every Python subprocess that keeps that ``PYTHONPATH`` load
this file and trace their lines with ``sys.settrace``.  Each traced process
writes the lines of ``src/blockperm`` it ran to a data directory on exit.
If the command exits nonzero, this exits with its code and checks nothing.
Otherwise the executable lines of each source file, those of its code
objects' ``co_lines``, are checked against the lines run, and this exits 1
and names each one that never ran.
"""

from __future__ import annotations

import atexit
import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blockperm"
DATA = "LINECOV_DATA"

_prefix = str(PACKAGE) + os.sep
_traced: dict[str, bool] = {}  # co_filename -> whether it lies in the package
_hits: set[tuple[str, int]] = set()


def _line(frame, event, arg):
    """The local tracer: records each line run.  Module-level, so that no
    frame's tracer is a closure that holds a reference cycle."""
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    """The global tracer: traces only frames of the package's files."""
    name = frame.f_code.co_filename
    keep = _traced.get(name)
    if keep is None:
        keep = _traced[name] = os.path.realpath(name).startswith(_prefix)
    return _line if keep else None


def _save(directory: str) -> None:
    lines: dict[str, list[int]] = {}
    for name, line in _hits:
        lines.setdefault(os.path.realpath(name), []).append(line)
    with tempfile.NamedTemporaryFile("w", dir=directory, suffix=".json", delete=False) as out:
        json.dump(lines, out)


def start() -> None:
    """Trace this process's main thread, the only one the package runs in,
    and save the lines run on exit."""
    atexit.register(_save, os.environ[DATA])
    sys.settrace(_call)


def executable(path: Path) -> set[int]:
    """The lines of path that hold code, from the line tables of its code objects."""
    lines: set[int] = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 3.11 puts RESUME at 0
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def main(argv: list[str]) -> int:
    if not argv:
        raise SystemExit("usage: python tests/linecov.py COMMAND...")
    with tempfile.TemporaryDirectory() as site, tempfile.TemporaryDirectory() as data:
        Path(site, "sitecustomize.py").write_text(
            "import importlib.util\n"
            f"spec = importlib.util.spec_from_file_location('linecov', {__file__!r})\n"
            "linecov = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(linecov)\n"
            "linecov.start()\n", encoding="utf-8")
        path = os.pathsep.join(filter(None, [site, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, **{DATA: data})
        code = subprocess.run(argv, env=env).returncode
        if code:
            print(f"linecov: the command exited {code}; coverage not checked")
            return code
        ran: set[tuple[str, int]] = set()
        for saved in Path(data).iterdir():
            for name, lines in json.loads(saved.read_text(encoding="utf-8")).items():
                ran.update((name, line) for line in lines)
    unreached, total = [], 0
    for source in sorted(PACKAGE.glob("*.py")):
        lines = executable(source)
        total += len(lines)
        unreached += [f"{source.relative_to(ROOT).as_posix()}:{line}"
                      for line in sorted(lines) if (str(source), line) not in ran]
    print(f"linecov: {total - len(unreached)} of {total} executable lines ran")
    for place in unreached:
        print(f"{place}: never ran")
    return int(bool(unreached))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
