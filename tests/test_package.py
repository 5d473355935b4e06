"""The package namespace: every public name resolves to its module's object, no
module imports a name it never reads, no private name is left unread, no
public callable takes a size guard, and every integer argument is pinned by a
range-table row."""

import ast
import collections
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blockperm

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

    rows = {key for key, _, _ in test_guards.SIZE_ENTRY_POINTS}
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


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module's top-level imports bind that nothing in it reads."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


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
