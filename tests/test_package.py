"""The package namespace: every public name resolves to its module's object, no
module imports a name it never reads, no private name is left unread, no
public callable takes a size guard, every integer argument is pinned by a
range-table row, and the records keep the behaviour they had as frozen
dataclasses."""

import ast
import collections
import hashlib
import importlib
import inspect
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blockperm
from blockperm import bounds, constructions, enumeration, graph
from blockperm.selftest import CriterionResult

# Every name ``blockperm`` exported when it imported all its modules eagerly,
# with the module that defines it.
EXPORTED = {
    "bounds": ["BoundReport", "bound_report", "corollary_applies", "gv_lower", "new_upper",
               "sp_upper", "special_exact", "table1"],
    "constructions": ["CodeBook", "PairEncoder", "cyclic_class_code", "even_n_code",
                      "ham_decomp_code", "in_syndrome_class", "largest_syndrome_class",
                      "select_prime", "syndrome", "syndrome_class", "syndrome_classes",
                      "verify_min_distance", "zn1_code"],
    "enumeration": ["BallSize", "SphereProfile", "ball_size_bounds", "ball_size_exact",
                    "enumerate_spheres", "identity_sphere", "myers_count", "sandwich_applies",
                    "sphere_profile"],
    "graph": ["BlockGraph", "NeighborhoodStats", "build_graph", "exact_independent_set",
              "graph_on", "greedy_independent_set", "jv_lower_formula", "neighborhood_stats"],
    "perm": ["block_distance", "char_set", "compose", "cyclic_shifts", "distance_by_definition",
             "from_one_line", "identity", "inverse", "is_minimal"],
}
ROWS = [(module, name) for module, names in EXPORTED.items() for name in names]


@pytest.mark.parametrize("module, name", ROWS, ids=[name for _, name in ROWS])
def test_each_name_is_its_modules_object(module, name):
    home = importlib.import_module(f"blockperm.{module}")
    namespace = {}
    exec(f"from blockperm import {name}", namespace)
    assert namespace[name] is getattr(home, name)
    assert getattr(blockperm, name) is getattr(home, name)
    assert name in vars(blockperm)  # kept, so later lookups skip __getattr__


def test_dir_lists_every_name_and_module():
    listed = dir(blockperm)
    assert set(EXPORTED) | {name for _, name in ROWS} <= set(listed)
    assert listed == sorted(listed)
    assert sorted(blockperm.__all__) == sorted(name for _, name in ROWS)


def test_no_public_callable_takes_a_guard_value():
    """Size guards are module constants: no public function or class lets a
    caller pass a ``max_*`` value past one."""
    settable = [f"{name}({param})" for name in blockperm.__all__
                if callable(obj := getattr(blockperm, name))
                for param in inspect.signature(obj).parameters if param.startswith("max_")]
    assert settable == []


#: result records that no library function checks as input, so no table has a row for them
RECORDS = {"BallSize", "SphereProfile", "BoundReport", "NeighborhoodStats"}


def test_every_integer_argument_has_a_row_in_a_range_table():
    """A public callable with an n, d, k, t, q or design_distance parameter
    checks it through ``perm``'s range rule, pinned by a row of
    ``test_guards``'s positive-int table or domain-edge table."""
    import test_guards

    rows = {key for key, *_ in test_guards.SIZE_ENTRY_POINTS}
    rows |= {param.id for param in test_guards.DOMAIN_EDGES}
    covered = {row.split("-")[0] for row in rows}
    integer = {"n", "d", "k", "t", "q", "design_distance"}
    unpinned = [name for name in blockperm.__all__ if name not in RECORDS | covered
                and callable(obj := getattr(blockperm, name))
                and integer & set(inspect.signature(obj).parameters)]
    assert unpinned == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        blockperm.no_such_name
    with pytest.raises(ImportError):
        exec("from blockperm import no_such_name", {})


def test_fresh_import_loads_no_module_until_a_name_is_used():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("import sys, blockperm as bp\n"
              "loaded = lambda: sorted(m for m in sys.modules if m.startswith('blockperm.'))\n"
              "print(loaded())\n"
              "print(len(bp.bounds.TABLE1_PUBLISHED), bp.block_distance((1, 2), (2, 1)))\n"
              "print(loaded())\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        "[]", "10 1", "['blockperm.bounds', 'blockperm.enumeration', 'blockperm.perm']"]


def _own_nodes(scope: ast.AST):
    """The nodes under scope, not descending into the functions it defines."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo += ast.iter_child_nodes(node)


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that nothing in its scope reads: the module for
    an import at module level, the function for a lazy import inside one."""
    unused = []
    for scope in [tree, *(node for node in ast.walk(tree)
                          if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))]:
        bound = []
        for node in _own_nodes(scope):
            if isinstance(node, ast.Import):
                bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [alias.asname or alias.name for alias in node.names]
        read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        unused += [name for name in bound if name not in read]
    return unused


def test_no_module_imports_a_name_it_never_uses():
    src = Path(blockperm.__file__).resolve().parent
    unused = {path.name: names for path in sorted(src.glob("*.py"))
              if (names := _unused_imports(ast.parse(path.read_text())))}
    assert unused == {}


def _private_names(tree: ast.Module) -> dict[str, ast.AST]:
    """The private names a module's top level defines (not dunders), each with
    the statement that binds it."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return {name: node for name, node in bound.items()
            if name.startswith("_") and not name.startswith("__")}


def _reads(node: ast.AST) -> collections.Counter:
    """How often each name is read under node, as a name or an attribute."""
    return collections.Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        or isinstance(sub, ast.Attribute))


def test_every_private_name_is_read_somewhere():
    """A private helper nothing reads, such as a search step left behind by
    a rewrite, is dead code; a function reading only itself counts as unread."""
    src = Path(blockperm.__file__).resolve().parent
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    reads = sum(map(_reads, trees), collections.Counter())
    defined = {name: node for tree in trees for name, node in _private_names(tree).items()}
    assert len(defined) > 30  # the scan finds the helpers at all
    unread = [name for name, node in defined.items() if reads[name] <= _reads(node)[name]]
    assert unread == []


# -- records -------------------------------------------------------------------
#
# The records are NamedTuples (``dataclasses`` would cost each process the
# import of ``inspect``); they keep the frozen dataclasses' repr, read-only
# fields, equality and hash.

# One record of each type with its repr as the frozen dataclasses printed it.
RECORD_REPRS = {
    "SphereProfile": (lambda: enumeration.enumerate_spheres(4),
                      "SphereProfile(n=4, counts=(1, 3, 9, 11))"),
    "BallSize": (lambda: enumeration.BallSize(5, 2, 27), "BallSize(n=5, t=2, size=27)"),
    "CodeBook": (lambda: constructions.CodeBook(3, 2, ((1, 2, 3), (3, 1, 2)), "cyclic"),
                 "CodeBook(n=3, design_distance=2, words=((1, 2, 3), (3, 1, 2)), "
                 "provenance='cyclic')"),
    "PairEncoder": (lambda: constructions.PairEncoder.for_n(4), "PairEncoder(n=4, q=7)"),
    "BoundReport": (lambda: bounds.bound_report(7, 3, exact=True),
                    "BoundReport(n=7, d=3, bound_distance=3, gv_lower=97, sp_upper=720, "
                    "new_upper=1960, new_upper_exact=Fraction(1960, 1), exact_mode=True, "
                    "corollary_applies=False)"),
    "BlockGraph": (lambda: graph.build_graph(3, 2),
                   "BlockGraph(n=3, d=2, vertices=((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), "
                   "(3, 1, 2), (3, 2, 1)), bits=(24, 36, 34, 17, 9, 6))"),
    "NeighborhoodStats": (lambda: graph.neighborhood_stats(5, 3),
                          "NeighborhoodStats(n=5, d=3, delta=22, p_edges=92, triangle_count=144, "
                          "zero_x_edge_count=0)"),
    "CriterionResult": (lambda: CriterionResult(1, "worked example distance", "pass", "3"),
                        "CriterionResult(number=1, name='worked example distance', "
                        "status='pass', detail='3')"),
}


def test_every_record_type_has_a_row():
    records = {name for name in blockperm.__all__ if isinstance(getattr(blockperm, name), type)}
    assert records | {"CriterionResult"} == set(RECORD_REPRS)


@pytest.mark.parametrize("name", RECORD_REPRS)
def test_record_keeps_its_repr(name):
    make, text = RECORD_REPRS[name]
    record = make()
    assert type(record).__name__ == name
    assert repr(record) == text


@pytest.mark.parametrize("name", RECORD_REPRS)
def test_record_fields_are_read_only(name):
    record = RECORD_REPRS[name][0]()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("name", RECORD_REPRS)
def test_equal_fields_give_equal_records_and_hashes(name):
    record = RECORD_REPRS[name][0]()
    twin = type(record)(**record._asdict())
    assert twin is not record and type(twin) is type(record)
    assert twin == record and hash(twin) == hash(record)
    # as tuples they also equal, and hash as, their fields in order
    assert twin == tuple(record) and hash(twin) == hash(tuple(record))


def test_a_record_unpacks_into_its_fields():
    n, t, size = enumeration.BallSize(5, 2, 27)
    assert (n, t, size) == (5, 2, 27)
    assert list(constructions.PairEncoder.for_n(4)) == [4, 7]


@pytest.mark.parametrize("count", [0, 1, 4, 6])
def test_codebook_length_counts_its_words(count):
    code = constructions.CodeBook(3, 1, tuple(itertools.islice(
        itertools.permutations((1, 2, 3)), count)), "file")
    assert len(code) == len(code.words) == count
    assert bool(code) == (count > 0)
    assert code._replace(provenance="copy") == (3, 1, code.words, "copy")


def test_replace_runs_the_record_checks():
    with pytest.raises(ValueError, match="field size 6 is not prime"):
        constructions.PairEncoder.for_n(4)._replace(q=6)
    code = constructions.CodeBook(3, 2, ((1, 2, 3),), "file")
    with pytest.raises(ValueError):
        code._replace(words=((1, 2, 3), (1, 2, 3)))


def test_block_graph_caches_its_adjacency():
    g = graph.build_graph(3, 2)
    assert g.adjacency is g.adjacency
    assert vars(g) == {"adjacency": g.adjacency}
    assert g == graph.build_graph(3, 2)  # the cache is not a field


def test_bound_report_payloads_are_unchanged():
    """Every exact payload with n <= 8 and every estimate payload with n <= 60,
    in field order, hashed; the digest is the one the dataclass reports gave."""
    reports = [bounds.bound_report(n, d, exact=True) for n in range(2, 9) for d in range(1, n)]
    reports += [bounds.bound_report(n, d) for n in range(2, 61) for d in range(1, n)]
    payloads = [bounds.bound_report_payload(rep) for rep in reports]
    digest = hashlib.sha256(json.dumps(payloads).encode()).hexdigest()
    assert (len(payloads), digest) == (
        1798, "fd905e53999b079a2a70a55b5e8f953ea4cf557b091f86352fcb738e92e6c097")
