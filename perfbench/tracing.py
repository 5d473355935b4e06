"""Spans around blockperm's public functions, installed from outside the library.

``install`` replaces each traced function in every blockperm module namespace
that binds it (modules import each other's names with ``from .x import y``, and
``selftest.CRITERIA`` holds the criteria in a tuple), so calls between modules
are caught as well as calls from the benchmark.  The library itself is not
edited.

Per-element helpers (``syndrome``, ``compose``, ``is_minimal``, ...) are not
wrapped: a span costs about as much as one of their calls, so their time stays
in the caller's self time.

Spans (name, start, end, parent, query id) are kept in flat arrays while the
run lasts and written out when it ends.  A span's self time is its duration
minus the durations of its direct children; calls are single-threaded, so the
children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import time
from array import array
from collections import defaultdict

MODULES = ("perm", "enumeration", "constructions", "bounds", "graph", "selftest", "cli")

#: module -> public functions wrapped in it
TRACED = {
    "perm": ("block_distance", "distance_by_definition", "char_set"),
    "enumeration": ("enumerate_spheres", "ball_size_exact", "myers_count", "ball_size_bounds"),
    "constructions": ("syndrome_classes", "syndrome_class", "largest_syndrome_class",
                      "ham_decomp_code", "in_syndrome_class", "verify_min_distance",
                      "cyclic_class_code", "even_n_code", "zn1_code"),
    "bounds": ("bound_report", "gv_lower", "sp_upper", "new_upper", "table1"),
    "graph": ("build_graph", "graph_on", "exact_independent_set", "neighborhood_stats",
              "greedy_independent_set"),
    "selftest": ("run_all",),
    "cli": ("main", "cmd_dist", "cmd_charset", "cmd_spheres", "cmd_ball", "cmd_construct",
            "cmd_verify", "cmd_bounds", "cmd_graph", "cmd_selftest"),
}

#: the three explicit code families are reported as one layer
_FAMILIES = {"cyclic_class_code", "even_n_code", "zn1_code"}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _factorial_of_n(args, kwargs, result):
    return {"perms_scanned": math.factorial(_arg(args, kwargs, 0, "n"))}


#: span name -> work counts computed from a call's arguments and result
WORK = {
    "enumeration.enumerate_spheres": _factorial_of_n,
    "constructions.syndrome_classes": _factorial_of_n,
    "constructions.syndrome_class": _factorial_of_n,
    "constructions.verify_min_distance": lambda args, kwargs, result: {
        "word_pairs": math.comb(len(_arg(args, kwargs, 0, "code").words), 2)},
    "graph.graph_on": lambda args, kwargs, result: {
        "vertex_pairs": math.comb(len(result.vertices), 2), "edges": result.edge_count()},
    "graph.exact_independent_set": lambda args, kwargs, result: {
        "vertices": len(_arg(args, kwargs, 0, "g").vertices)},
}


def span_name(module: str, function: str) -> str:
    if function in _FAMILIES:
        return "constructions.families"
    if function.startswith("criterion_"):
        return "selftest." + "_".join(function.split("_")[:2])
    return f"{module}.{function}"


class Tracer:
    """In-memory span store; one per process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work: dict[str, int] = defaultdict(int)
        self.query_id = -1
        self.active = True
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        work = WORK.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.query.append(self.query_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if work is not None:
                for key, value in work(args, kwargs, result).items():
                    self.work[f"{name}.{key}"] += value
            return result

        return functools.update_wrapper(traced, fn)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s, and the computed work counts."""
        count = len(self.start)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals: dict[str, dict[str, float]] = {}
        for i in range(count):
            entry = totals.setdefault(self.names[self.name[i]], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self.end[i] - self.start[i] - child[i]
        for key, value in self.work.items():
            name, stat = key.rsplit(".", 1)
            totals.setdefault(name, {"calls": 0, "self_s": 0.0})[stat] = value
        return totals

    def dump(self, path: str) -> None:
        """Write the spans as TSV: a JSON header line, then one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "work": dict(self.work)}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"{self.name[i]}\t{self.parent[i]}\t{self.query[i]}\t"
                         f"{self.start[i]!r}\t{self.end[i]!r}\n")

    def absorb(self, path: str, query_id: int) -> None:
        """Append the spans another process dumped, under this query id."""
        offset = len(self.start)
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            ids = [self._intern(name) for name in header["names"]]
            for line in fh:
                nid, parent, _, start, end = line.split("\t")
                parent = int(parent)
                self.name.append(ids[int(nid)])
                self.parent.append(parent + offset if parent >= 0 else -1)
                self.query.append(query_id)
                self.start.append(float(start))
                self.end.append(float(end))
        for key, value in header["work"].items():
            self.work[key] += value

    def write_spans(self, path: str) -> None:
        """All spans, gzip TSV: query, name, parent index, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("query\tname\tparent\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(f"{self.query[i]}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                         f"{self.start[i]!r}\t{self.end[i]!r}\n")


def install(tracer: Tracer):
    """Wrap every traced function wherever a blockperm namespace binds it.

    Returns a callable that puts the original functions back.
    """
    package = importlib.import_module("blockperm")
    modules = [package] + [importlib.import_module(f"blockperm.{m}") for m in MODULES]
    swaps = {}
    for modname, functions in TRACED.items():
        mod = importlib.import_module(f"blockperm.{modname}")
        if modname == "selftest":
            functions += tuple(fn.__name__ for fn in mod.CRITERIA)
        for function in functions:
            original = getattr(mod, function)
            swaps[id(original)] = (original, tracer.wrap(span_name(modname, function), original))
    undo = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in swaps:  # the originals stay alive in swaps, so ids are unique
                replacement = swaps[id(value)][1]
            elif isinstance(value, tuple) and any(id(v) in swaps for v in value):
                replacement = tuple(swaps[id(v)][1] if id(v) in swaps else v for v in value)
            else:
                continue
            setattr(mod, attr, replacement)
            undo.append((mod, attr, value))

    def uninstall():
        for mod, attr, value in undo:
            setattr(mod, attr, value)

    return uninstall
