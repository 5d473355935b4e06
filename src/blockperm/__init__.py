"""Permutation codes under the block permutation metric.

Distance computation and its cut-and-reorder cross-check, exhaustive sphere
and ball statistics, syndrome and maximum-distance code constructions, size
bound calculators, and distance graphs with independent-set solvers.
"""

from .bounds import (
    BoundReport,
    bound_report,
    corollary_applies,
    gv_lower,
    new_upper,
    sp_upper,
    special_exact,
    table1,
)
from .constructions import (
    CodeBook,
    PairEncoder,
    cyclic_class_code,
    even_n_code,
    ham_decomp_code,
    in_syndrome_class,
    largest_syndrome_class,
    select_prime,
    syndrome,
    syndrome_class,
    syndrome_classes,
    verify_min_distance,
    with_verified_min_distance,
    zn1_code,
)
from .enumeration import (
    BallSize,
    SphereProfile,
    ball_size_bounds,
    ball_size_exact,
    enumerate_spheres,
    identity_sphere,
    myers_count,
    sandwich_applies,
    sphere_profile,
)
from .graph import (
    BlockGraph,
    NeighborhoodStats,
    build_graph,
    exact_independent_set,
    graph_on,
    greedy_independent_set,
    jv_lower_formula,
    neighborhood_stats,
)
from .perm import (
    block_distance,
    char_set,
    compose,
    cyclic_shifts,
    distance_by_definition,
    from_one_line,
    identity,
    inverse,
    is_minimal,
)

__version__ = "0.1.0"
