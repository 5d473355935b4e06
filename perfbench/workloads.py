"""The benchmark's four workloads, as fixed lists of checked queries.

A query is a label, a call that is timed, and a check of the call's result.
Checks run untimed and untraced.  Each check compares against a pinned value
or against a second route for the seeded inputs, never against the same code
path it checks.  Queries run one after another; a query may use the result of
an earlier one in the same pass through ``state``.

The seed picks only the random parts of each workload (vertex subsets,
syndromes, permutation pairs, code files); the query list, and so its length,
does not depend on it.  Calls use default guards and worker counts throughout.
Queries look library functions up when they run (``bp.name``), so that a
traced run, which wraps them after set-up, sees the wrappers.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import blockperm as bp
from launcher import child_env

#: maximum code sizes the exact solver must reproduce
PINNED_ALPHA = {(3, 2): 2, (4, 2): 6, (4, 3): 4, (5, 2): 24, (5, 4): 4, (5, 3): 14, (6, 5): 6}

#: the one published bound-table row that disagrees with its own formula
PINNED_TABLE1_DEVIATION = "(18,11): new bound 262461207 off published 262461363 by more than 1"

#: hub-cycle search outcomes: None proves that no decomposition exists
PINNED_HAM = {3: None, 5: None, 7: 7, 9: 9}

#: seconds allowed for one command-line invocation
CLI_TIMEOUT_S = 120


@dataclass
class Query:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    name: str
    queries: list[Query]
    inputs: dict = field(default_factory=dict)  # the seeded parts, for tests and the record
    state: dict = field(default_factory=dict)  # results shared between queries of one pass


def ball_closed_form(n: int, t: int) -> int:
    """|ball(n, t)| from the sphere formula, a second route to the n! scan."""
    return 1 + sum(bp.myers_count(n, k) for k in range(1, min(t, n - 1) + 1))


def _random_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return tuple(p)


def _distinct_perms(rng: random.Random, n: int, count: int) -> list[tuple[int, ...]]:
    seen: dict[tuple[int, ...], None] = {}
    while len(seen) < count:
        seen[_random_perm(rng, n)] = None
    return list(seen)


def _keep(state: dict, key, fn: Callable[[], Any]) -> Callable[[], Any]:
    """A query call that also stores its result for later queries of the pass."""
    def run():
        state[key] = result = fn()
        return result
    return run


def _certified(code, d: int) -> bool:
    return bp.verify_min_distance(code) >= d


def _with_distance(code):
    """A code and its verified minimum distance: building and certifying a
    code is one query, as a user would run it."""
    return code, (None if code is None else bp.verify_min_distance(code))


# -- graph ----------------------------------------------------------------------


def _graph_queries(w: Workload, rng: random.Random) -> None:
    q, st = w.queries, w.state

    def build(n, d):
        def check(g):
            degree = ball_closed_form(n, d - 1) - 1
            return len(g.vertices) == math.factorial(n) and all(x == degree for x in g.degrees())
        q.append(Query(f"build_graph({n},{d})",
                       _keep(st, ("g", n, d), lambda: bp.build_graph(n, d)), check))

    def search(key, name, d):
        for order in ("lexicographic", "degree"):
            q.append(Query(f"greedy {order} + verify on {name}",
                           lambda order=order: _with_distance(
                               bp.greedy_independent_set(st[key], order)),
                           lambda out: len(out[0].words) >= 1 and out[1] >= d))

    for n, d in [(5, d) for d in range(1, 6)] + [(6, d) for d in range(1, 7)] + [(7, 3)]:
        build(n, d)
        search(("g", n, d), f"G({n},{d})", d)

    def alpha_ok(codes):
        return all(len(code.words) == PINNED_ALPHA[(n, d)] and _certified(code, d)
                   for (n, d), code in codes.items())

    # Sub-millisecond solves are one query, as are the two distances of each
    # neighborhood row, so that the median latency is not a timer reading.
    small = [(n, d) for n, d in PINNED_ALPHA if n < 5 or d in (2, 4)]
    q.append(Query("exact_independent_set on " + " ".join(f"G({n},{d})" for n, d in small),
                   lambda: {(n, d): bp.exact_independent_set(
                       st[("g", n, d)] if n >= 5 else bp.build_graph(n, d)) for n, d in small},
                   alpha_ok))
    for n, d in [key for key in PINNED_ALPHA if key not in small]:
        q.append(Query(f"exact_independent_set({n},{d})",
                       lambda n=n, d=d: {(n, d): bp.exact_independent_set(st[("g", n, d)])},
                       alpha_ok))

    for n in range(3, 8):
        q.append(Query(f"neighborhood_stats({n}, d=3,4)",
                       lambda n=n: [bp.neighborhood_stats(n, d) for d in (3, 4)],
                       lambda rows, n=n: all(s.delta == ball_closed_form(n, s.d - 1) - 1
                                             and s.zero_x_edge_count == 0 for s in rows)))

    for size, d in ((400, 4), (1000, 3)):
        verts = sorted(_distinct_perms(rng, 8, size))
        probes = [tuple(rng.sample(range(size), 2)) for _ in range(200)]
        w.inputs[f"subset{size}"] = verts

        def check(g, verts=verts, probes=probes, d=d):
            adj = [set(ns) for ns in g.adjacency]
            if any(i in adj[i] or any(i not in adj[j] for j in adj[i]) for i in range(len(adj))):
                return False
            return all((j in adj[i]) == (0 < bp.block_distance(verts[i], verts[j]) < d)
                       for i, j in probes)

        key = ("s", size, d)
        q.append(Query(f"graph_on(S_8 subset {size},{d})",
                       _keep(st, key, lambda verts=verts, d=d: bp.graph_on(verts, d)), check))
        search(key, f"S_8 subset {size},{d}", d)


# -- codes ----------------------------------------------------------------------


def _codes_queries(w: Workload, rng: random.Random) -> None:
    q = w.queries

    def code_query(label, make, check, d, exact=None):
        """Build a code and certify it; ``check`` sees the code."""
        def verdict(out):
            code, dist = out
            if not check(code):
                return False
            return code is None or (dist == exact if exact is not None else dist >= d)
        q.append(Query(f"{label} + verify", lambda: _with_distance(make()), verdict))

    def same_fiber(code, d, enc):
        f = bp.syndrome(code.words[0], d, enc)
        return all(bp.in_syndrome_class(word, d, f, enc) for word in code.words)

    for n in (7, 8):
        q.append(Query(f"syndrome_classes({n},3)",
                       lambda n=n: bp.syndrome_classes(n, 3),
                       lambda buckets, n=n: sum(map(len, buckets.values())) == math.factorial(n)))

    for n in (7, 8):
        enc = bp.PairEncoder.for_n(n)
        for d in (3, 4, 5):
            floor = -(-math.factorial(n) // enc.q ** (d - 1))
            code_query(f"largest_syndrome_class({n},{d})",
                       lambda n=n, d=d: bp.largest_syndrome_class(n, d),
                       lambda code, d=d, enc=enc, floor=floor:
                       len(code.words) >= floor and same_fiber(code, d, enc), d)

    for n in (7, 8):
        enc = bp.PairEncoder.for_n(n)
        for d in (3, 4):
            member = _random_perm(rng, n)
            f = bp.syndrome(member, d, enc)
            w.inputs[f"syndrome{n},{d}"] = f
            code_query(f"syndrome_class({n},{d},f)",
                       lambda n=n, d=d, f=f: bp.syndrome_class(n, d, f),
                       lambda code, member=member, d=d, f=f, enc=enc:
                       member in code.words
                       and all(bp.in_syndrome_class(wd, d, f, enc) for wd in code.words), d)

    for n in (7, 8):
        code_query(f"cyclic_class_code({n})", lambda n=n: bp.cyclic_class_code(n),
                   lambda code, n=n: len(code.words) == math.factorial(n - 1), 2)

    families = [("even_n_code", n) for n in range(4, 61, 2)]
    families += [("zn1_code", n) for n in range(4, 61) if all((n + 1) % k for k in range(2, n))]
    for name, n in families:
        code_query(f"{name}({n})", lambda name=name, n=n: getattr(bp, name)(n),
                   lambda code, n=n: len(code.words) == n, n - 1, exact=n - 1)

    for n, size in PINNED_HAM.items():
        code_query(f"ham_decomp_code({n})", lambda n=n: bp.ham_decomp_code(n),
                   lambda code, size=size: (code is None if size is None
                                            else len(code.words) == size),
                   n - 1, exact=n - 1)

    d = 4
    for n in range(20, 41):
        enc = bp.PairEncoder.for_n(n)
        batch = []
        for k in range(20):
            p = _random_perm(rng, n)
            f = list(bp.syndrome(p, d, enc))
            if k % 2:  # a syndrome p does not have
                f[k % (d - 1)] = (f[k % (d - 1)] + 1) % enc.q
            batch.append((p, tuple(f), k % 2 == 0))
        w.inputs[f"membership{n}"] = batch
        q.append(Query(f"in_syndrome_class(n={n}, {len(batch)} perms)",
                       lambda batch=batch, enc=enc:
                       [bp.in_syndrome_class(p, d, f, enc) for p, f, _ in batch],
                       lambda got, batch=batch: got == [want for _, _, want in batch]))

    for n in (7, 8):
        for b in range(4):
            pairs = [(_random_perm(rng, n), _random_perm(rng, n)) for _ in range(40)]
            w.inputs[f"pairs{n},{b}"] = pairs
            key = ("pairs", n, b)
            q.append(Query(f"block_distance(n={n}, batch {b})",
                           _keep(w.state, key, lambda pairs=pairs:
                                 [bp.block_distance(x, y) for x, y in pairs]),
                           lambda got, pairs=pairs: got == [bp.block_distance(y, x)
                                                            for x, y in pairs]))
            q.append(Query(f"distance_by_definition(n={n}, batch {b})",
                           lambda pairs=pairs: [bp.distance_by_definition(x, y) for x, y in pairs],
                           lambda got, key=key: got == w.state[key]))


# -- bounds ---------------------------------------------------------------------


def _exact_row_ok(n, reports) -> bool:
    fact = math.factorial(n)
    for rep in reports:
        t = (rep.bound_distance - 1) // 2
        if rep.sp_upper != fact // ball_closed_form(n, t):
            return False
        if rep.gv_lower != -(-fact // ball_closed_form(n, 2 * t)):
            return False
        known = bp.special_exact(n, rep.bound_distance)
        if known is not None and not rep.gv_lower <= known <= rep.sp_upper:
            return False
        if rep.new_upper != math.floor(rep.new_upper_exact):
            return False
    return True


def _estimate_row_ok(reports) -> bool:
    for rep in reports:
        if rep.bound_distance % 2 == 0 or rep.new_upper != math.floor(rep.new_upper_exact):
            return False
        if rep.gv_lower is not None and rep.sp_upper is not None and rep.gv_lower > rep.sp_upper:
            return False
        if (rep.d == rep.bound_distance and rep.corollary_applies
                and rep.new_upper > rep.sp_upper):
            return False
    return True


def _sandwich_ok(n, rows) -> bool:
    for t, (lower, upper) in rows:
        if lower * n != upper:
            return False
        if n <= 8 and not lower <= ball_closed_form(n, t) <= upper:
            return False
    return True


def _bounds_queries(w: Workload) -> None:
    # Sub-millisecond calls are grouped one query per table row, so the
    # median latency is not a timer reading.
    q, st = w.queries, w.state
    for n in range(2, 9):
        q.append(Query(f"bound_report(exact) n={n}",
                       lambda n=n: [bp.bound_report(n, d, exact=True) for d in range(1, n)],
                       lambda reps, n=n: _exact_row_ok(n, reps)))
    for n in range(1, 9):
        q.append(Query(f"ball_size_exact n={n}",
                       lambda n=n: [bp.ball_size_exact(n, t).size for t in range(n)],
                       lambda sizes, n=n: sizes == [ball_closed_form(n, t) for t in range(n)]))
    for n in range(1, 9):
        q.append(Query(f"enumerate_spheres({n})",
                       lambda n=n: bp.enumerate_spheres(n),
                       lambda prof, n=n: (prof.counts[0] == 1
                                          and sum(prof.counts) == math.factorial(n)
                                          and all(prof.counts[k] == bp.myers_count(n, k)
                                                  for k in range(1, n)))))
    for n in range(2, 61):
        q.append(Query(f"bound_report(estimate) n={n}",
                       lambda n=n: [bp.bound_report(n, d) for d in range(1, n)],
                       _estimate_row_ok))
    for n in range(2, 41):
        q.append(Query(f"myers_count n={n}",
                       lambda n=n: [bp.myers_count(n, k) for k in range(1, n)],
                       lambda counts, n=n: 1 + sum(counts) == math.factorial(n)))
    for n in range(1, 61):
        radii = [t for t in range(n) if (n - t - 1) ** 2 >= n]
        q.append(Query(f"ball_size_bounds n={n}",
                       lambda n=n, radii=radii: [(t, bp.ball_size_bounds(n, t)) for t in radii],
                       lambda rows, n=n: _sandwich_ok(n, rows)))
    q.append(Query("table1()", _keep(st, "table1", lambda: bp.table1()),
                   lambda reps: [(r.n, r.d) for r in reps] == sorted(bp.bounds.TABLE1_PUBLISHED)))
    q.append(Query("table1_deviations()",
                   lambda: bp.bounds.table1_deviations(st["table1"]),
                   lambda problems: problems == [PINNED_TABLE1_DEVIATION]))


# -- cli ------------------------------------------------------------------------


def _perm_arg(p) -> str:
    return " ".join(map(str, p))


def _parse_code(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    n, d, provenance = lines[0].split(maxsplit=2)
    words = [tuple(int(x) for x in ln.split()) for ln in lines[1:]]
    return int(n), int(d), provenance, words


def _code_ok(out, n, d, provenance, size=None, member=None) -> bool:
    rc, stdout, _ = out
    if rc != 0:
        return False
    hn, hd, hprov, words = _parse_code(stdout)
    code = bp.CodeBook(hn, hd, tuple(words), hprov)
    return ((hn, hd, hprov) == (n, d, provenance)
            and (size is None or len(words) == size)
            and (member is None or member in words)
            and _certified(code, d))


def _selftest_ok(out) -> bool:
    rc, stdout, _ = out
    lines = stdout.splitlines()
    fails = [ln for ln in lines if ln.startswith("FAIL")]
    passes = [ln for ln in lines if ln.startswith("PASS")]
    return (rc == 2 and len(passes) == 9 and len(fails) == 1
            and fails[0].startswith("FAIL criterion 4:")
            and lines[-1] == "9 passed, 1 failed, 0 skipped")


def _cli_queries(w: Workload, rng: random.Random, root: str, workdir: str, launcher: str,
                 spans_dir: str | None) -> None:
    q = w.queries

    def invoke(args: list[str], check):
        index, runs = len(q), itertools.count()

        def run():
            spans = os.path.join(spans_dir, f"q{index}.{next(runs)}.tsv") if spans_dir else None
            proc = subprocess.run([sys.executable, launcher, *args], capture_output=True,
                                  text=True, env=child_env(root, spans), cwd=root,
                                  timeout=CLI_TIMEOUT_S)
            return proc.returncode, proc.stdout, proc.stderr

        q.append(Query(" ".join(args), run, check))

    def text_is(expected, rc=0):
        return lambda out: out[0] == rc and out[1] == expected

    p, r = _random_perm(rng, 8), _random_perm(rng, 8)
    invoke(["dist", _perm_arg(p), _perm_arg(r)], text_is(f"{bp.block_distance(p, r)}\n"))
    invoke(["dist", _perm_arg(p), _perm_arg(r), "--check-definition"],
           text_is(f"{bp.distance_by_definition(p, r)}\n"))
    s, u = _random_perm(rng, 12), _random_perm(rng, 12)
    invoke(["dist", _perm_arg(s), _perm_arg(u), "--format", "json"],
           lambda out, s=s, u=u: out[0] == 0 and json.loads(out[1]) == {
               "distance": bp.block_distance(s, u), "n": 12})
    c = _random_perm(rng, 9)
    invoke(["charset", _perm_arg(c)],
           lambda out: out[0] == 0 and json.loads(out[1]) == {
               "n": 9, "pairs": sorted([a, b] for a, b in zip(c, c[1:]))})
    w.inputs["cli_perms"] = [p, r, s, u, c]

    invoke(["spheres", "--n", "7"],
           text_is("k,count\n0,1\n"
                   + "".join(f"{k},{bp.myers_count(7, k)}\n" for k in range(1, 7))))
    invoke(["spheres", "--n", "8", "--format", "json"],
           lambda out: out[0] == 0 and json.loads(out[1]) == {
               "n": 8, "counts": [1] + [bp.myers_count(8, k) for k in range(1, 8)]})
    invoke(["ball", "--n", "8", "--t", "3"], text_is(f"{ball_closed_form(8, 3)}\n"))
    invoke(["ball", "--n", "30", "--t", "5", "--bounds"],
           text_is(f"{math.prod(range(25, 30))} {math.prod(range(25, 31))}\n"))

    enc = bp.PairEncoder.for_n(7)
    member = _random_perm(rng, 7)
    f = bp.syndrome(member, 3, enc)
    w.inputs["cli_syndrome"] = f
    invoke(["construct", "--method", "syndrome", "--n", "7", "--d", "3"],
           lambda out: _code_ok(out, 7, 3, "syndrome"))
    invoke(["construct", "--method", "syndrome", "--n", "7", "--d", "3",
            "--f", ",".join(map(str, f))],
           lambda out: _code_ok(out, 7, 3, "syndrome", member=member))
    invoke(["construct", "--method", "cyclic", "--n", "6"],
           lambda out: _code_ok(out, 6, 2, "cyclic", size=120))
    invoke(["construct", "--method", "even", "--n", "20"],
           lambda out: _code_ok(out, 20, 19, "even", size=20))
    invoke(["construct", "--method", "zn1", "--n", "22"],
           lambda out: _code_ok(out, 22, 21, "zn1", size=22))
    invoke(["construct", "--method", "hamdecomp", "--n", "7"],
           lambda out: _code_ok(out, 7, 6, "hamdecomp", size=7))
    invoke(["construct", "--method", "hamdecomp", "--n", "5"],
           lambda out: out[0] == 2 and out[1] == "" and "no code found" in out[2])

    # Code files the benchmark writes itself: one with a header, one bare.
    files = {
        "cyclic6.txt": (2, "6 2 cyclic", [(*x, 6) for x in itertools.permutations(range(1, 6))]),
        "random7.txt": (3, None, _distinct_perms(rng, 7, 150)),
        "random10.txt": (4, "10 4 random", _distinct_perms(rng, 10, 40)),
    }
    for name, (d, header, words) in files.items():
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            lines = ([header] if header else []) + [_perm_arg(x) for x in words]
            fh.write("\n".join(lines) + "\n")
        dist = min(bp.block_distance(a, b) for a, b in itertools.combinations(words, 2))
        if name.startswith("random"):
            w.inputs[name] = words
        invoke(["verify", "--d", str(d), os.path.relpath(path, root)],
               text_is(f"{len(words)} words, minimum distance {dist}, required {d}\n",
                       rc=0 if dist >= d else 2))

    rep = bp.bound_report(13, 9)
    invoke(["bounds", "--n", "13", "--d", "9"],
           lambda out: out[0] == 0 and f"sp_upper        {rep.sp_upper} (estimate)" in out[1]
           and f"new_upper       {rep.new_upper} (exact {rep.new_upper_exact})" in out[1])
    invoke(["bounds", "--n", "8", "--d", "5", "--exact", "--format", "json"],
           lambda out: out[0] == 0 and _exact_row_ok(8, [bp.bounds.bound_report_from_payload(
               json.loads(out[1]))]))
    invoke(["bounds", "--table1"],
           lambda out: out[0] == 2 and len(out[1].splitlines()) == 11
           and out[2] == f"deviation: {PINNED_TABLE1_DEVIATION}\n")

    invoke(["graph", "--n", "5", "--d", "3", "--stats"],
           lambda out: out[0] == 0 and json.loads(out[1])["delta"] == ball_closed_form(5, 2) - 1
           and json.loads(out[1])["zero_x_edges"] == 0)
    invoke(["graph", "--n", "6", "--d", "3", "--greedy"],
           lambda out: _code_ok(out, 6, 3, "greedy-lexicographic"))
    invoke(["graph", "--n", "5", "--d", "4", "--exact"],
           lambda out: _code_ok(out, 5, 4, "exact-independent", size=PINNED_ALPHA[(5, 4)]))
    invoke(["graph", "--n", "4", "--d", "3", "--exact"],
           lambda out: _code_ok(out, 4, 3, "exact-independent", size=PINNED_ALPHA[(4, 3)]))

    invoke(["selftest"], _selftest_ok)


# -------------------------------------------------------------------------------

NAMES = ("graph", "codes", "bounds", "cli")


def build(name: str, seed: int, root: str, workdir: str, launcher: str,
          spans_dir: str | None = None) -> Workload:
    """The query list of one workload; ``workdir`` receives the cli code files."""
    rng = random.Random(f"{name}:{seed}")
    w = Workload(name, [])
    if name == "graph":
        _graph_queries(w, rng)
    elif name == "codes":
        _codes_queries(w, rng)
    elif name == "bounds":
        _bounds_queries(w)
    elif name == "cli":
        _cli_queries(w, rng, root, workdir, launcher, spans_dir)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return w
