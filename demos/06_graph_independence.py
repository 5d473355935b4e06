"""Codes as independent sets of a distance graph.

Vertices are all of S_n, edges join permutations closer than d; a code with
minimum distance d is exactly an independent set.  Shows the measured graph
parameters, the locally-sparse independence formula evaluated on them, and
greedy vs exact maximum independent sets (the exact sizes are the true
maximum code sizes).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from blockperm import (
    build_graph,
    exact_independent_set,
    greedy_independent_set,
    jv_lower_formula,
    neighborhood_stats,
)

g = build_graph(4, 3)
print(f"graph on S_4 with edges below distance 3: {len(g.vertices)} vertices, "
      f"{g.edge_count()} edges, degrees {set(g.degrees())}")

stats = neighborhood_stats(4, 3)
print(f"one neighborhood: degree {stats.delta}, {stats.p_edges} internal edges, "
      f"{stats.triangle_count} triangles, {stats.zero_x_edge_count} zero-overlap ring edges")
print(f"locally-sparse independence formula gives >= {jv_lower_formula(stats):.3f}\n")

print("greedy vs exact maximum independent sets (= maximum code sizes):\n")
print(f"{'n':>3} {'d':>3} {'greedy':>7} {'exact':>6}")
for n, d in [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)]:
    graph = build_graph(n, d)
    greedy = len(greedy_independent_set(graph, order="degree").words)
    exact = len(exact_independent_set(graph).words)
    print(f"{n:>3} {d:>3} {greedy:>7} {exact:>6}")

print("\nan exact witness for (5,4), four words pairwise at distance 4:")
for w in exact_independent_set(build_graph(5, 4)).words:
    print(f"  {w}")
