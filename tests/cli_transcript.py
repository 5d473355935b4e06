"""The CLI transcript: each command of ``COMMANDS``, its exit code and stdout.

``cli_transcript.json`` beside this file holds one record per command:
``argv``, ``exit`` and either ``stdout``, or, for stdout over 4 KB,
``stdout_bytes`` and ``stdout_sha256`` of its UTF-8 encoding.  Selftest's
seconds vary from run to run, so every match of ``SECONDS`` in its stdout
reads ``#s`` before it is stored or compared.  ``test_cli_transcript.py``
replays every record through ``cli.main`` and compares byte for byte; a
change that alters output on purpose regenerates the file with

    python tests/cli_transcript.py --write

and the altered records show in its diff.  Each command runs in a directory
holding the code files of ``INPUTS``, built from the standard library alone,
so ``verify`` reads the same words whatever the library constructs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import sys
import tempfile
from pathlib import Path

TRANSCRIPT = Path(__file__).resolve().with_name("cli_transcript.json")
SECONDS = re.compile(r"\d+\.\d+s\b")
MAX_STORED = 4096


def _lines(words) -> str:
    return "".join(" ".join(map(str, w)) + "\n" for w in words)


def _greedy_8_3() -> str:
    """The lexicographic greedy code of S_8 at distance 3: 1,760 words.

    A permutation s is n-1-a from the identity, a the count of its places
    with s[i+1] = s[i]+1, so the ball of radius 2 is the s with a >= 5; each
    word w taken blocks w∘s for every s in it."""
    perms = list(itertools.permutations(range(1, 9)))
    ball = [s for s in perms if sum(b == a + 1 for a, b in zip(s, s[1:])) >= 5]
    blocked, words = set(), []
    for w in perms:
        if w not in blocked:
            words.append(w)
            blocked.update(tuple(w[i - 1] for i in s) for s in ball)
    return _lines(words)


# One code file per route of ``verify_min_distance``, one at its guard and one past it.
INPUTS = {
    "top.txt": lambda: "1 2 3 4 5 6\n6 5 4 3 2 1\n",  # no shared pair: the top end, 5
    "rotation.txt": lambda: "1 2 3 4 5\n3 1 5 2 4\n2 3 4 5 1\n",  # a rotation: 1
    # the 720 words of S_7 that start with 1: sphere 2's first member keeps them there
    "sphere2.txt": lambda: _lines((1, *w) for w in itertools.permutations(range(2, 8))),
    "plane.txt": lambda: _lines((1, *w) for w in itertools.permutations(range(2, 6))),
    "greedy83.txt": _greedy_8_3,  # misses sphere 2, then the planes find 3
    "limit.txt": lambda: _lines(itertools.islice(itertools.permutations(range(1, 9)),
                                                  10_000)),
    "guard.txt": lambda: _lines(itertools.islice(itertools.permutations(range(1, 9)), 10_001)),
    "code.json": lambda: json.dumps({"n": 4, "d": 3, "provenance": "even", "verified_min_distance": 9,
                                     "words": [[1, 2, 3, 4], [2, 4, 1, 3], [3, 1, 4, 2],
                                               [4, 3, 2, 1]]}),
    "headed.txt": lambda: "4 2 file\n1 2 3 4\n2 1 4 3\n",
}

WORKED = ["4 8 3 2 6 7 5 1 9", "6 7 8 3 2 5 1 9 4"]
COMMANDS = [
    ["dist", "1 2 3", "3 2 1"],
    ["dist", *WORKED],
    ["dist", *WORKED, "--format", "json"],
    ["dist", *WORKED, "--check-definition"],
    ["dist", " ".join(map(str, range(1, 17))), " ".join(map(str, range(16, 0, -1))),
     "--check-definition"],
    ["dist", " ".join(map(str, range(1, 18))), " ".join(map(str, range(17, 0, -1))),
     "--check-definition"],
    # the reversal, by the byte table at n = 255 and by the pair sets at n = 300
    ["dist", " ".join(map(str, range(1, 256))), " ".join(map(str, range(255, 0, -1)))],
    ["dist", " ".join(map(str, range(1, 301))), " ".join(map(str, range(300, 0, -1)))],
    ["dist", "1 2 3", "1 2"],
    ["dist", "1 1 2", "1 2 3"],
    ["charset", "3 1 4 2 5"],
    ["charset", "1 2 0"],
    ["spheres", "--n", "7"],
    ["spheres", "--n", "7", "--format", "json"],
    ["spheres", "--n", "1"],
    ["spheres", "--n", "300", "--format", "json"],
    ["spheres", "--n", "0"],
    ["ball", "--n", "7", "--t", "2"],
    ["ball", "--n", "7", "--t", "2", "--format", "json"],
    ["ball", "--n", "30", "--t", "4", "--bounds"],
    ["ball", "--n", "30", "--t", "4", "--bounds", "--format", "json"],
    ["ball", "--n", "9", "--t", "7", "--bounds"],
    ["ball", "--n", "2000", "--t", "1999"],
    ["ball", "--n", "10000", "--t", "5"],
    ["ball", "--n", "5", "--t", "5"],
    *[["construct", "--method", "syndrome", "--n", str(n), "--d", str(d), *fmt]
      for n in range(3, 9) for d in range(2, n) for fmt in ([], ["--format", "json"])],
    ["construct", "--method", "syndrome", "--n", "6", "--d", "3", "--f", "1,2"],
    ["construct", "--method", "syndrome", "--n", "6", "--d", "3", "--f", "1,2", "--format", "json"],
    ["construct", "--method", "syndrome", "--n", "6", "--d", "3", "--f", "1"],
    ["construct", "--method", "syndrome", "--n", "6"],
    ["construct", "--method", "syndrome", "--n", "8", "--d", "3"],
    ["construct", "--method", "syndrome", "--n", "9", "--d", "3"],
    ["construct", "--method", "syndrome", "--n", "5", "--d", "5"],
    ["construct", "--method", "syndrome", "--n", "2", "--d", "2"],
    *[["construct", "--method", "cyclic", "--n", str(n), *fmt]
      for n in (1, 5, 8) for fmt in ([], ["--format", "json"])],
    *[["construct", "--method", "even", "--n", str(n), *fmt]
      for n in (2, 8, 60) for fmt in ([], ["--format", "json"])],
    # the even family's label picks well past n = 60, settled by its pairs
    ["construct", "--method", "even", "--n", "130", "--format", "json"],
    ["construct", "--method", "even", "--n", "7"],
    *[["construct", "--method", "zn1", "--n", str(n), *fmt]
      for n in (4, 10) for fmt in ([], ["--format", "json"])],
    ["construct", "--method", "zn1", "--n", "8"],
    ["construct", "--method", "hamdecomp", "--n", "7"],
    ["construct", "--method", "hamdecomp", "--n", "7", "--format", "json"],
    ["construct", "--method", "hamdecomp", "--n", "5"],
    ["construct", "--method", "hamdecomp", "--n", "17"],
    ["construct", "--method", "hamdecomp", "--n", "19"],
    ["construct", "--method", "cyclic", "--n", "5", "--d", "2"],
    ["verify", "--d", "5", "top.txt"],
    ["verify", "--d", "1", "rotation.txt"],
    ["verify", "--d", "2", "sphere2.txt"],
    ["verify", "--d", "3", "sphere2.txt"],
    ["verify", "--d", "2", "plane.txt"],
    ["verify", "--d", "3", "greedy83.txt"],
    ["verify", "--d", "3", "code.json"],
    ["verify", "--d", "2", "headed.txt"],
    ["verify", "--d", "1", "limit.txt"],
    ["verify", "--d", "1", "guard.txt"],
    ["verify", "--d", "0", "top.txt"],
    ["verify", "--d", "2", "missing.txt"],
    ["bounds", "--n", "7", "--d", "3"],
    ["bounds", "--n", "7", "--d", "3", "--format", "json"],
    ["bounds", "--n", "7", "--d", "4", "--exact"],
    ["bounds", "--n", "7", "--d", "4", "--exact", "--format", "json"],
    ["bounds", "--n", "40", "--d", "9"],
    ["bounds", "--n", "13", "--d", "9"],  # the new bound's floor and exact value
    ["bounds", "--n", "2000", "--d", "1999", "--exact"],
    ["bounds", "--n", "2000", "--d", "1999", "--exact", "--format", "json"],
    ["bounds", "--table1"],
    ["bounds", "--table1", "--format", "csv"],
    ["bounds", "--table1", "--format", "json"],
    ["bounds", "--table1", "--n", "5"],
    ["bounds", "--n", "7", "--d", "3", "--format", "csv"],
    ["bounds", "--n", "7"],
    ["graph", "--n", "5", "--d", "3", "--stats"],
    ["graph", "--n", "5", "--d", "3", "--greedy"],
    ["graph", "--n", "5", "--d", "3", "--greedy", "--format", "json"],
    ["graph", "--n", "5", "--d", "3", "--exact"],
    ["graph", "--n", "5", "--d", "3", "--exact", "--format", "json"],
    # every full-group solve through n = 6 that finishes; (5, 3) is above
    *[["graph", "--n", str(n), "--d", str(d), "--exact"] for n in range(1, 7)
      for d in range(1, n + 1) if (n, d) not in ((5, 3), (6, 3), (6, 4))],
    ["graph", "--n", "7", "--d", "3", "--greedy"],
    ["graph", "--n", "8", "--d", "3", "--greedy"],
    ["graph", "--n", "8", "--d", "3", "--stats"],
    ["graph", "--n", "7", "--d", "6", "--exact"],
    ["graph", "--n", "5", "--d", "3"],
    ["selftest"],
]


def write_inputs(directory: Path) -> None:
    for name, make in INPUTS.items():
        (directory / name).write_text(make(), encoding="utf-8")


def run(argv) -> dict:
    """The record of one command, run through ``cli.main`` in the current
    directory, stderr discarded."""
    from blockperm import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    stdout = out.getvalue()
    if argv[0] == "selftest":
        stdout = SECONDS.sub("#s", stdout)
    record = {"argv": list(argv), "exit": code}
    data = stdout.encode("utf-8")
    if len(data) > MAX_STORED:
        record.update(stdout_bytes=len(data), stdout_sha256=hashlib.sha256(data).hexdigest())
    else:
        record["stdout"] = stdout
    return record


def load() -> list[dict]:
    return json.loads(TRANSCRIPT.read_text(encoding="utf-8"))


def write() -> None:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(Path(directory))
        os.chdir(directory)
        try:
            records = [run(argv) for argv in COMMANDS]
        finally:
            os.chdir(cwd)
    TRANSCRIPT.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} records written to {TRANSCRIPT}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/cli_transcript.py --write")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    write()
