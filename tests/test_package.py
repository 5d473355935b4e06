"""The package namespace: every public name resolves to its module's object."""

import importlib
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
                      "verify_min_distance", "with_verified_min_distance", "zn1_code"],
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
