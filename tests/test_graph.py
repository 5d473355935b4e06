"""Distance graphs, neighborhood statistics, and independent-set solvers."""

import gc
import itertools
import math
import random
from operator import itemgetter

import pytest

from blockperm import graph
from blockperm.bounds import gv_lower
from blockperm.constructions import verify_min_distance
from blockperm.enumeration import enumerate_spheres, myers_count
from blockperm.graph import (
    _identity_ball,
    _neighbor_columns,
    build_graph,
    exact_independent_set,
    graph_on,
    greedy_independent_set,
    jv_lower_formula,
    neighborhood_stats,
    neighborhood_stats_payload,
)
from blockperm.perm import block_distance


def test_build_graph_4_3_shape():
    g = build_graph(4, 3)
    assert len(g.vertices) == 24
    assert set(g.degrees()) == {12}
    assert g.edge_count() == 144
    assert g.vertices[0] == (1, 2, 3, 4)  # lexicographic order


def test_build_graph_extremes():
    empty = build_graph(4, 1)
    assert empty.edge_count() == 0
    complete = build_graph(4, 4)
    assert complete.edge_count() == 24 * 23 // 2


def test_build_graph_guard():
    with pytest.raises(ValueError):
        build_graph(8, 3)


@pytest.mark.parametrize("n", [0, -1])
def test_build_graph_rejects_n_below_1(n):
    with pytest.raises(ValueError, match="at least 1"):
        build_graph(n, 2)


def test_graph_on_rejects_empty_permutations():
    with pytest.raises(ValueError, match="at least 1"):
        graph_on([()], 2)


@pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 7) for d in range(1, n + 2)])
def test_build_graph_matches_pair_loop(n, d):
    assert build_graph(n, d) == graph_on(itertools.permutations(range(1, n + 1)), d)


def _lookup_columns(verts, ball):
    """col_s[i] = index of verts[i]∘s, by building each tuple and hashing it
    into the vertex index: the reference for the composed columns."""
    index = {v: i for i, v in enumerate(verts)}
    return [list(map(index.__getitem__, map(itemgetter(*(j - 1 for j in s)), verts)))
            for s, _ in ball]


@pytest.fixture
def looked_up(monkeypatch):
    """The s whose column build_graph looks up tuple by tuple, in order."""
    seen = []

    def getter(*items):
        seen.append(tuple(j + 1 for j in items))
        return itemgetter(*items)

    monkeypatch.setattr(graph, "itemgetter", getter)
    return seen


def _two_lookups(n, d):
    """The columns that no two built columns compose to, within radius d-1."""
    cycle, fixed_1 = (*range(2, n + 1), 1), (1, *range(3, n + 1), 2)
    return [cycle, fixed_1][:max(0, min(d - 1, n - 1, 2))]


@pytest.mark.parametrize("d", [3, 4])
def test_build_graph_7_matches_tuple_lookup(looked_up, d):
    verts = tuple(itertools.permutations(range(1, 8)))
    rows = zip(*_lookup_columns(verts, _identity_ball(7, d - 1)))
    assert build_graph(7, d) == graph.BlockGraph(7, d, verts, tuple(map(tuple, map(sorted, rows))))
    assert looked_up == _two_lookups(7, d)


@pytest.mark.parametrize("n", range(2, 7))
def test_composed_columns_match_tuple_lookup_on_all_of_s_n(looked_up, n):
    verts = tuple(itertools.permutations(range(1, n + 1)))
    ball = _identity_ball(n, n - 1)  # every s but the identity
    assert _neighbor_columns(verts, ball) == _lookup_columns(verts, ball)
    assert looked_up == _two_lookups(n, n)


@pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 7) for d in range(1, n + 2)])
def test_build_graph_looks_up_at_most_two_columns(looked_up, n, d):
    build_graph(n, d)
    assert looked_up == _two_lookups(n, d)


def test_build_graph_7_3_against_distance():
    g = build_graph(7, 3)
    assert set(g.degrees()) == {myers_count(7, 1) + myers_count(7, 2)}
    rng = random.Random(73)
    for _ in range(2000):
        i, j = rng.sample(range(5040), 2)
        dist = block_distance(g.vertices[i], g.vertices[j])
        assert (j in g.adjacency[i]) == (0 < dist < 3)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_full_graph_regularity(n, d):
    g = build_graph(n, d)
    expected = enumerate_spheres(n).ball(min(d - 1, n - 1)) - 1
    assert set(g.degrees()) == {expected}


def test_edge_criterion_matches_distance():
    g = build_graph(4, 3)
    rng = random.Random(9)
    for _ in range(200):
        i, j = rng.sample(range(24), 2)
        dist = block_distance(g.vertices[i], g.vertices[j])
        assert (j in g.adjacency[i]) == (0 < dist < 3)


def test_neighborhood_stats_4_3():
    stats = neighborhood_stats(4, 3)
    assert stats.delta == 12  # ball(4, 2) - 1
    assert stats.zero_x_edge_count == 0
    assert stats.p_edges >= 1


@pytest.mark.parametrize("d", [0, -1])
def test_neighborhood_stats_rejects_d_below_1(d):
    with pytest.raises(ValueError, match=f"design distance must be positive, got {d}"):
        neighborhood_stats(4, d)


def test_neighborhood_stats_trivial_distance():
    stats = neighborhood_stats(4, 1)
    assert stats.delta == 0
    assert stats.p_edges == 0
    assert stats.triangle_count == 0


@pytest.mark.parametrize("n,d", [(5, 3), (5, 4), (6, 3)])
def test_neighborhood_matches_sphere_sizes_and_no_zero_x_edges(n, d):
    stats = neighborhood_stats(n, d)
    assert stats.delta == sum(myers_count(n, k) for k in range(1, d))
    assert stats.zero_x_edge_count == 0


@pytest.mark.parametrize("n,d", [(4, 3), (5, 3), (5, 4), (6, 3)])
def test_neighborhood_edges_and_triangles_by_brute_force(n, d):
    g = build_graph(n, d)
    sub = graph_on([g.vertices[j] for j in g.adjacency[0]], d)
    adj = [set(nbrs) for nbrs in sub.adjacency]
    triangles = sum(1 for a, b, c in itertools.combinations(range(len(adj)), 3)
                    if b in adj[a] and c in adj[a] and c in adj[b])
    stats = neighborhood_stats(n, d)
    assert (stats.p_edges, stats.triangle_count) == (sub.edge_count(), triangles)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_zero_x_edges_only_at_distance_2(n):
    assert neighborhood_stats(n, 2).zero_x_edge_count == math.comb(n - 1, 2)
    for d in range(3, n + 1):
        assert neighborhood_stats(n, d).zero_x_edge_count == 0


def test_jv_formula_plugin():
    stats = neighborhood_stats(4, 3)
    value = jv_lower_formula(stats)
    expected = 24 / (10 * stats.delta) * (
        math.log2(stats.delta) - 0.5 * math.log2(stats.p_edges / 3))
    assert value == pytest.approx(expected)
    alpha = len(exact_independent_set(build_graph(4, 3)).words)
    assert value <= alpha


def test_jv_formula_low_neighborhood_edges_floor():
    from blockperm.graph import NeighborhoodStats

    for p_edges in (1, 2, 3):  # log2(P/3) <= 0, so the degree term is a floor
        stats = NeighborhoodStats(4, 3, delta=12, p_edges=p_edges,
                                  triangle_count=0, zero_x_edge_count=0)
        assert jv_lower_formula(stats) >= 24 * math.log2(12) / 120


def test_jv_formula_validation():
    with pytest.raises(ValueError):
        jv_lower_formula(neighborhood_stats(4, 1))  # degree 0: logs undefined


@pytest.mark.parametrize("order", ["lexicographic", "degree"])
def test_greedy_independent_set_is_independent_and_maximal(order):
    g = build_graph(4, 3)
    code = greedy_independent_set(g, order=order)
    assert len(code.words) >= 2  # ceil(24 / 13)
    assert verify_min_distance(code) >= 3
    chosen = set(code.words)
    index = {v: i for i, v in enumerate(g.vertices)}
    for v in g.vertices:  # maximality: everything outside has a chosen neighbor
        if v not in chosen:
            assert any(g.vertices[j] in chosen for j in g.adjacency[index[v]])


def test_greedy_on_edgeless_graph_takes_everything():
    g = build_graph(3, 1)
    assert len(greedy_independent_set(g).words) == 6


def test_greedy_rejects_unknown_order():
    with pytest.raises(ValueError):
        greedy_independent_set(build_graph(3, 2), order="random")


@pytest.mark.parametrize("n,d,alpha", [(3, 2, 2), (4, 2, 6), (5, 4, 4), (5, 2, 24),
                                       (4, 3, 4), (5, 3, 14), (6, 5, 6)])
def test_exact_independence_numbers(n, d, alpha):
    code = exact_independent_set(build_graph(n, d))
    assert len(code.words) == alpha
    assert verify_min_distance(code) >= d


def test_exact_at_least_greedy_at_least_gv():
    g = build_graph(5, 3)
    exact = len(exact_independent_set(g).words)
    greedy = len(greedy_independent_set(g).words)
    assert exact >= greedy >= gv_lower(5, 3)


STAR = [(1, 2, 3, 4, 5), (2, 1, 3, 4, 5), (1, 2, 3, 5, 4)]
# Both greedy orders find only 2 here, and vertex 0 is in no maximum set.
NO_ZERO = [(1, 2, 5, 4, 3), (2, 3, 4, 5, 1), (3, 1, 5, 4, 2),
           (3, 4, 5, 2, 1), (5, 1, 2, 4, 3), (5, 3, 4, 2, 1)]


@pytest.mark.parametrize("vertices,d,expected", [
    (STAR, 3, STAR[1:]),
    (NO_ZERO, 4, NO_ZERO[2:5]),
])
def test_exact_does_not_fix_vertex_0_off_the_full_group(vertices, d, expected):
    code = exact_independent_set(graph_on(vertices, d))
    assert code.words == tuple(sorted(expected))
    assert vertices[0] not in code.words


@pytest.mark.parametrize("solve", [greedy_independent_set, exact_independent_set])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_solvers_reject_d_past_n(solve, n):
    g = build_graph(n, n + 1)  # the graph itself is still defined there
    with pytest.raises(ValueError, match=f"design distance {n + 1} exceeds n={n},"):
        solve(g)
    code = solve(build_graph(n, n))  # complete graph: one word, at distance n by convention
    assert len(code.words) == 1 and verify_min_distance(code) == n


def test_exact_guard():
    with pytest.raises(ValueError):
        exact_independent_set(build_graph(5, 3), max_vertices=10)


def _seeded_subset(rng, n, size):
    """size distinct permutations of 1..n (all of S_n when size >= n!)."""
    group = list(itertools.permutations(range(1, n + 1)))
    return rng.sample(group, min(size, len(group)))


@pytest.mark.parametrize("n", range(1, 9))
def test_graph_on_matches_block_distance_on_every_pair(n):
    rng = random.Random(100 + n)
    verts = _seeded_subset(rng, n, 40)
    verts.append(verts[0])  # a repeated vertex is at distance 0: never an edge
    for d in range(0, n + 2):  # d <= 1 is edge-free and d >= n complete
        g = graph_on(verts, d)
        for i, p in enumerate(verts):
            expected = tuple(j for j, q in enumerate(verts) if 0 < block_distance(p, q) < d)
            assert g.adjacency[i] == expected, (n, d, i)


@pytest.mark.parametrize("vertices", [[(1, 2, 2)], [(0, 1, 2)], [(1, 2, 3), (1, 2)]])
def test_graph_on_rejects_non_permutations(vertices):
    with pytest.raises(ValueError, match="permutations of 1..n"):
        graph_on(vertices, 2)


def _alpha_by_exhaustion(vertices, d):
    """Largest independent set size, found by testing every vertex subset."""
    m = len(vertices)
    adj = [sum(1 << j for j, q in enumerate(vertices) if 0 < block_distance(p, q) < d)
           for p in vertices]
    independent = [True] * (1 << m)
    alpha = 0
    for mask in range(1, 1 << m):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        independent[mask] = independent[rest] and not adj[low] & rest
        if independent[mask]:
            alpha = max(alpha, mask.bit_count())
    return alpha


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_exact_matches_exhaustive_search_off_the_full_group(n, d):
    rng = random.Random(10 * n + d)
    for _ in range(6):
        verts = _seeded_subset(rng, n, rng.randint(6, 14))
        code = exact_independent_set(graph_on(verts, d))
        assert len(code.words) == _alpha_by_exhaustion(verts, d)
        assert all(block_distance(p, q) >= d for p, q in itertools.combinations(code.words, 2))


def test_graph_layer_leaves_no_reference_cycles():
    subset = tuple(itertools.permutations(range(1, 6)))[::3]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        g = build_graph(5, 3)
        exact_independent_set(g)
        graph_on(subset, 3)
        neighborhood_stats(5, 3)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_graph_on_subset():
    vertices = [(1, 2, 3), (2, 3, 1), (1, 3, 2)]
    g = graph_on(vertices, 2)
    assert g.adjacency[0] == (1,)  # rotation pair only
    assert g.adjacency[2] == ()


def test_stats_payload_keys():
    payload = neighborhood_stats_payload(neighborhood_stats(4, 3))
    assert set(payload) == {"delta", "p_edges", "triangles", "zero_x_edges"}
    assert payload["zero_x_edges"] == 0
