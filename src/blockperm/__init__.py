"""Permutation codes under the block permutation metric.

Distance computation and its cut-and-reorder cross-check, exhaustive sphere
and ball statistics, syndrome and maximum-distance code constructions, size
bound calculators, and distance graphs with independent-set solvers.

Importing the package loads none of its modules: each public name, and each
module named in ``_EXPORTS``, is imported on first use (PEP 562) and then kept
in the package namespace, so later lookups cost what a plain attribute does.
"""

from importlib import import_module

__version__ = "0.1.0"

#: module -> the public names the package takes from it
_EXPORTS = {
    "bounds": ("BoundReport", "bound_report", "corollary_applies", "gv_lower", "new_upper",
               "sp_upper", "special_exact", "table1"),
    "constructions": ("CodeBook", "PairEncoder", "cyclic_class_code", "even_n_code",
                      "ham_decomp_code", "in_syndrome_class", "largest_syndrome_class",
                      "select_prime", "syndrome", "syndrome_class", "syndrome_classes",
                      "verify_min_distance", "with_verified_min_distance", "zn1_code"),
    "enumeration": ("BallSize", "SphereProfile", "ball_size_bounds", "ball_size_exact",
                    "enumerate_spheres", "identity_sphere", "myers_count", "sandwich_applies",
                    "sphere_profile"),
    "graph": ("BlockGraph", "NeighborhoodStats", "build_graph", "exact_independent_set",
              "graph_on", "greedy_independent_set", "jv_lower_formula", "neighborhood_stats"),
    "perm": ("block_distance", "char_set", "compose", "cyclic_shifts",
             "distance_by_definition", "from_one_line", "identity", "inverse", "is_minimal"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it in the package
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})
