"""Distance graphs, neighborhood statistics, and independent-set solvers."""

import functools
import gc
import hashlib
import itertools
import math
import random
from operator import itemgetter

import pytest

from blockperm import graph
from blockperm.bounds import gv_lower, new_upper, special_exact
from blockperm.constructions import CodeBook, verify_min_distance
from blockperm.enumeration import (_anticode_size, enumerate_spheres, identity_sphere,
                                   myers_count)
from blockperm.graph import (
    _identity_ball,
    build_graph,
    exact_independent_set,
    graph_on,
    greedy_independent_set,
    jv_lower_formula,
    neighborhood_stats,
    neighborhood_stats_payload,
)
from blockperm.perm import _planes, block_distance, compose, distance_by_definition, inverse


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
    with pytest.raises(ValueError, match=f"^n must be positive, got {n}$"):
        build_graph(n, 2)


@pytest.mark.parametrize("vertices", [[], (), iter([])])
def test_graph_on_rejects_no_vertices(vertices):
    with pytest.raises(ValueError, match="^graph needs at least one vertex$"):
        graph_on(vertices, 2)


def test_graph_on_rejects_empty_permutations():
    with pytest.raises(ValueError, match="^n must be positive, got 0$"):
        graph_on([()], 2)


@functools.lru_cache(maxsize=None)
def _distances(n):
    """S_n in lexicographic order and block_distance on every pair of it."""
    verts = tuple(itertools.permutations(range(1, n + 1)))
    return verts, tuple(tuple(block_distance(p, q) for q in verts) for p in verts)


def _lookup_bits(n, d, rows):
    """Row i of the full (n, d) graph for each i in rows, by left-invariance:
    the neighbors of p are p∘s for s in the identity's ball, each found by
    building the tuple and hashing it into the vertex index."""
    verts = tuple(itertools.permutations(range(1, n + 1)))
    index = {v: i for i, v in enumerate(verts)}
    picked = [verts[i] for i in rows]
    bits = [0] * len(picked)
    for s, _ in _identity_ball(n, d - 1):  # s has at least two entries
        for k, v in enumerate(map(itemgetter(*(j - 1 for j in s)), picked)):
            bits[k] |= 1 << index[v]
    return bits


@pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 7) for d in range(1, n + 2)])
def test_build_graph_matches_pair_loop(n, d):
    """Against block_distance on every pair for n <= 5, and against the
    left-invariance lookup at n = 6, where that pair loop would be slow."""
    g = build_graph(n, d)
    if n <= 5:
        verts, dist = _distances(n)
        expected = [sum(1 << j for j, r in enumerate(row) if 0 < r < d) for row in dist]
    else:
        verts, expected = g.vertices, _lookup_bits(n, d, range(math.factorial(n)))
    assert g.vertices == verts
    assert list(g.bits) == expected


@pytest.mark.parametrize("d", [3, 4, 6])
def test_build_graph_7_matches_tuple_lookup(d):
    g = build_graph(7, d)
    assert g.vertices == tuple(itertools.permutations(range(1, 8)))
    # At d = 6 each row has 2,920 neighbors, so every 10th row is looked up.
    rows = range(0, 5040, 10 if d == 6 else 1)
    assert [g.bits[i] for i in rows] == _lookup_bits(7, d, rows)


def _lookup_columns(verts, ball):
    """col_s[i] = index of verts[i]∘s, by building each tuple and hashing it
    into the vertex index."""
    index = {v: i for i, v in enumerate(verts)}
    return [list(map(index.__getitem__, map(itemgetter(*(j - 1 for j in s)), verts)))
            for s, _ in ball]


def _composed_columns(verts, ball, looked_up):
    """The same columns by the group law: if s = t∘u then v∘s = (v∘t)∘u, so
    col_s[i] = col_u[col_t[i]], one list index per entry.  Each s tries the t
    of spheres 1-2 built so far; only when none works is its column looked up
    tuple by tuple, and s appended to looked_up."""
    built = {}
    factors = []  # (t⁻¹, col_t) for t in spheres 1-2
    cols = []
    for s, k in ball:
        for t_inv, col_t in factors:
            col_u = built.get(compose(t_inv, s))
            if col_u is not None:
                col = list(map(col_u.__getitem__, col_t))
                break
        else:
            looked_up.append(s)
            [col] = _lookup_columns(verts, [(s, k)])
        built[s] = col
        if k <= 2:
            factors.append((inverse(s), col))
        cols.append(col)
    return cols


def _two_lookups(n, d):
    """The columns that no two earlier columns compose to, within radius d-1."""
    cycle, fixed_1 = (*range(2, n + 1), 1), (1, *range(3, n + 1), 2)
    return [cycle, fixed_1][:max(0, min(d - 1, n - 1, 2))]


@pytest.mark.parametrize("n", range(2, 7))
def test_composed_columns_match_tuple_lookup_on_all_of_s_n(n):
    """On every s but the identity the group law agrees with the tuple
    lookup, and the kernel puts each p∘s in p's row exactly from the
    threshold d = distance(identity, s) + 1 on."""
    verts = tuple(itertools.permutations(range(1, n + 1)))
    ball = _identity_ball(n, n - 1)
    looked_up = []
    cols = _composed_columns(verts, ball, looked_up)
    assert cols == _lookup_columns(verts, ball)
    assert looked_up == _two_lookups(n, n)
    expected = [0] * len(verts)
    for d in range(1, n + 2):
        for (_, k), col in zip(ball, cols):
            if k == d - 1:  # sphere d-1 joins the rows from d on
                for i, j in enumerate(col):
                    expected[i] |= 1 << j
        assert list(build_graph(n, d).bits) == expected, d


@pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 7) for d in range(1, n + 2)])
def test_build_graph_looks_up_at_most_two_columns(n, d):
    """The former build, columns of the (n, d) ball composed from at most two
    looked-up ones and each row sorted, gives the kernel's ``adjacency``."""
    verts = tuple(itertools.permutations(range(1, n + 1)))
    looked_up = []
    cols = _composed_columns(verts, _identity_ball(n, d - 1), looked_up)
    assert looked_up == _two_lookups(n, d)
    rows = zip(*cols) if cols else [()] * len(verts)
    assert build_graph(n, d).adjacency == tuple(tuple(sorted(row)) for row in rows)


def _adder_rows(monkeypatch):
    """Wrap graph's ``_planes`` and return the list of chunk sizes it is given."""
    sizes = []

    def counted(columns, holders, rows):
        sizes.append(len(rows))
        return _planes(columns, holders, rows)

    monkeypatch.setattr(graph, "_planes", counted)
    return sizes


@pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 7) for d in range(1, n + 2)]
                         + [(7, d) for d in range(2, 7)])
def test_mirrored_build_matches_the_generic_kernel(monkeypatch, n, d):
    """Between the trivial distances the adder runs on the lower half of the
    rows only, and the mirrored upper half is the generic kernel's."""
    sizes = _adder_rows(monkeypatch)
    g = build_graph(n, d)
    assert sum(sizes) == (math.factorial(n) // 2 if 1 < d < n else 0)
    monkeypatch.undo()
    assert g.bits == graph_on(itertools.permutations(range(1, n + 1)), d).bits


def test_kernel_work_of_the_mirrored_build_and_a_subset_of_s8(monkeypatch):
    """The adder's rows and chunks: build_graph(7, 3) puts its 2,520 lower
    rows through in 49 chunks of at most _CHUNK_BITS // 5040 = 52, and
    graph_on on 1,000 words of S_8 puts all 1,000 through in 4 chunks of at
    most _CHUNK_BITS // 1000 = 262."""
    sizes = _adder_rows(monkeypatch)
    build_graph(7, 3)
    assert sizes == [52] * 48 + [24]
    sizes.clear()
    words = random.Random(8).sample(list(itertools.permutations(range(1, 9))), 1000)
    g = graph_on(words, 3)
    assert sizes == [262] * 3 + [214]
    rng = random.Random(1000)
    for _ in range(2000):
        i, j = rng.sample(range(1000), 2)
        assert g.bits[i] >> j & 1 == (block_distance(words[i], words[j]) < 3)


@pytest.mark.parametrize("n", range(1, 8))
def test_relabelling_by_w0_reverses_the_rank(n):
    verts = list(itertools.permutations(range(1, n + 1)))
    rank = {w: i for i, w in enumerate(verts)}
    assert all(rank[tuple(n + 1 - x for x in w)] == len(verts) - 1 - i
               for i, w in enumerate(verts))


@pytest.mark.parametrize("count", [1, 6, 24, 5040])
def test_mirror_moves_bit_i_to_count_minus_1_minus_i(count):
    rng = random.Random(count)
    assert list(graph._mirrors([1 << i for i in range(count)], count)) == [
        1 << count - 1 - i for i in range(count)]
    bitsets = [rng.getrandbits(count) for _ in range(20)]
    assert list(graph._mirrors(bitsets, count)) == [int(f"{b:0{count}b}"[::-1], 2)
                                                     for b in bitsets]
    assert list(graph._mirrors(graph._mirrors(bitsets, count), count)) == bitsets


def test_build_graph_7_3_against_distance():
    g = build_graph(7, 3)
    assert set(g.degrees()) == {myers_count(7, 1) + myers_count(7, 2)}
    rng = random.Random(73)
    for _ in range(2000):
        i, j = rng.sample(range(5040), 2)
        dist = block_distance(g.vertices[i], g.vertices[j])
        assert g.bits[i] >> j & 1 == (0 < dist < 3)


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


@pytest.mark.parametrize("n", range(2, 7))
def test_neighborhood_stats_builds_the_ball_once(monkeypatch, n):
    """One holder build serves the kernel and the zero-overlap count, and the
    adder reads the ball's rows once for 1 < d < n and not at all past it,
    where every two words of the ball are adjacent."""
    holders, sizes = [], _adder_rows(monkeypatch)
    build = graph._holders

    def built(columns, size):
        holders.append(size)
        return build(columns, size)

    monkeypatch.setattr(graph, "_holders", built)
    for d in range(2, n + 2):
        holders.clear()
        sizes.clear()
        stats = neighborhood_stats(n, d)
        assert holders == [n]
        assert sum(sizes) == (stats.delta if d < n else 0)
        if d >= n:
            assert stats.p_edges == math.comb(stats.delta, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_zero_x_edges_only_at_distance_2(n):
    assert neighborhood_stats(n, 2).zero_x_edge_count == math.comb(n - 1, 2)
    for d in range(3, n + 1):
        assert neighborhood_stats(n, d).zero_x_edge_count == 0


@pytest.mark.parametrize("n, d", [(n, d) for n in range(1, 8) for d in range(1, 5)])
def test_zero_x_edges_match_an_edge_walk(n, d):
    # the reference: every edge of the outer sphere, tested for a pair union
    # that holds each identity pair
    ring = list(identity_sphere(n, d - 1)) if 2 <= d <= n else []
    ids = set(zip(range(1, n), range(2, n + 1)))
    walked = sum(1 for p, s in itertools.combinations(ring, 2)
                 if block_distance(p, s) < d and ids <= {*zip(p, p[1:]), *zip(s, s[1:])})
    assert neighborhood_stats(n, d).zero_x_edge_count == walked


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
    message = fr"^design distance must be an int in \[1, {n}\], got {n + 1}$"
    with pytest.raises(ValueError, match=message):
        solve(g)
    code = solve(build_graph(n, n))  # complete graph: one word, at distance n by convention
    assert len(code.words) == 1 and verify_min_distance(code) == n


def _seeded_subset(rng, n, size):
    """size distinct permutations of 1..n (all of S_n when size >= n!)."""
    if n > 8:  # draw them without listing S_n
        words = {}
        while len(words) < size:
            words[tuple(rng.sample(range(1, n + 1), n))] = None
        return list(words)
    group = list(itertools.permutations(range(1, n + 1)))
    return rng.sample(group, min(size, len(group)))


@pytest.mark.parametrize("n", range(1, 10))
def test_graph_on_matches_block_distance_on_every_pair(n):
    """Every threshold, on more vertices than one machine word holds: the
    shared counts take 3 bit planes at n = 5..8 and 4 at n = 9."""
    rng = random.Random(100 + n)
    verts = _seeded_subset(rng, n, 100)
    dist = [[block_distance(p, q) for q in verts] for p in verts]
    for d in range(1, n + 2):  # d = 1 is edge-free and d >= n complete
        expected = tuple(sum(1 << j for j, r in enumerate(row) if 0 < r < d) for row in dist)
        assert graph_on(verts, d).bits == expected, (n, d)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_one_vertex_graph_has_no_edges(n):
    for d in range(1, n + 2):
        g = graph_on([tuple(range(n, 0, -1))], d)
        assert (g.bits, g.adjacency, g.degrees(), g.edge_count()) == ((0,), ((),), (0,), 0)


@pytest.mark.parametrize("make", [
    lambda: build_graph(5, 3),
    lambda: build_graph(6, 4),
    lambda: graph_on(_seeded_subset(random.Random(8), 8, 300), 4),
], ids=["G(5,3)", "G(6,4)", "S_8 subset"])
def test_adjacency_degrees_and_edge_count_read_the_bits(make):
    g = make()
    count = len(g.vertices)
    assert g.adjacency == tuple(tuple(j for j in range(count) if b >> j & 1) for b in g.bits)
    assert g.degrees() == tuple(map(len, g.adjacency))
    assert g.edge_count() * 2 == sum(g.degrees()) > 0
    for i, row in enumerate(g.adjacency):  # symmetric, without loops
        assert i not in row and all(g.bits[j] >> i & 1 for j in row)


def test_whole_group_solvers_read_no_degrees(monkeypatch):
    degrees = graph.BlockGraph.degrees
    calls = []

    def spy(g):
        calls.append(g)
        return degrees(g)

    monkeypatch.setattr(graph.BlockGraph, "degrees", spy)
    g = build_graph(7, 3)
    assert greedy_independent_set(g, "degree").words == greedy_independent_set(g).words
    exact_independent_set(build_graph(5, 4))
    assert calls == []


@pytest.mark.parametrize("seed", range(6))
def test_exact_fixes_vertex_0_on_all_of_s_n_in_any_order(seed):
    verts = _seeded_subset(random.Random(seed), 5, 120)  # S_5, shuffled
    assert verts[0] != (1, 2, 3, 4, 5)  # so the translates work off the identity
    for d, alpha in [(2, 24), (3, 14), (4, 4), (5, 1)]:
        code = exact_independent_set(graph_on(verts, d))
        assert len(code.words) == alpha and verts[0] in code.words
        assert all(block_distance(p, q) >= d for p, q in itertools.combinations(code.words, 2))


def _reversal_conjugate(p):
    """w0∘p∘w0, for the reversal w0 of p's labels."""
    w0 = tuple(range(len(p), 0, -1))
    return compose(compose(w0, p), w0)


@pytest.mark.parametrize("n", range(1, 6))
def test_conjugating_by_the_reversal_fixes_e_and_keeps_every_distance(n):
    """The map behind the root's second drop, checked by the cut search."""
    group = list(itertools.permutations(range(1, n + 1)))
    index = {p: i for i, p in enumerate(group)}
    image = [index[_reversal_conjugate(p)] for p in group]
    assert image[0] == 0  # e is first in lexicographic order
    dist = [[distance_by_definition(p, q) for q in group] for p in group]
    assert all(dist[image[i]][image[j]] == dist[i][j]
               for i, j in itertools.product(range(len(group)), repeat=2))


@pytest.mark.parametrize("seed", range(3))
def test_translates_drop_the_moved_copies_of_a_finished_root_pair(seed):
    """After the root branch on u, the words w and w' drop each other exactly
    when w⁻¹∘w' is r, r⁻¹, ρ or ρ⁻¹, r = g0⁻¹∘u for the fixed word g0 and
    ρ = w0∘r∘w0: the relabelling g0∘w⁻¹ moves such a pair onto g0 and one of
    g0's four partners.  words[i] sits at bit i, g0 at the top bit, and
    drop is indexed by ``bit_length``."""
    rng = random.Random(seed)
    words = _seeded_subset(rng, 5, 120)  # S_5, shuffled: g0 is not the identity
    g0, u = words[-1], rng.randrange(119)
    r = compose(inverse(g0), words[u])
    rho = _reversal_conjugate(r)
    assert rho not in (r, inverse(r))  # so the conjugate's pairs are new ones
    quotients = (r, inverse(r), rho, inverse(rho))
    cand = ((1 << 119) - 1) & ~(1 << u)  # the root's candidates once u has finished
    drop = [0] * 121
    kept = graph._translates(words, drop, u + 1, cand)
    among = [k for k in range(120) if k != u]
    expected = {(x, y) for x in among for y in among
                if compose(inverse(words[x]), words[y]) in quotients}
    assert {(x, y) for x in range(120) for y in range(120) if drop[x + 1] >> y & 1} == expected
    assert drop[0] == 0
    partners = [compose(g0, s) for s in quotients]
    for x, y in expected:
        moved = [compose(compose(g0, inverse(words[x])), w) for w in (words[x], words[y])]
        assert moved[0] == g0 and moved[1] in partners
    conjugate = {(x, y) for x, y in expected
                 if compose(inverse(words[x]), words[y]) in quotients[2:]}
    assert conjugate and not conjugate & {(x, y) for x, y in expected
                                          if compose(inverse(words[x]), words[y]) in quotients[:2]}
    assert kept == cand & ~sum(1 << words.index(w) for w in set(partners))


def test_a_drop_pair_joins_the_clique_cover():
    """Vertex 1 is joined to 2 and 3, and 2, 3 are a drop pair: no set that
    beats the one-vertex incumbent holds both.  The pair makes {1, 2, 3} one
    clique of the table, so the root closes; the adjacency alone covers by
    {3, 1} and branches on 2 to the set {2, 3}."""
    bits = [0, 0b001, 0b010, 0b100]
    adjacency = [0, 0b110, 0b001, 0b001]
    best = [None]
    assert graph._grow([0, 0b110, 0b101, 0b011], bits, [], 0b111, best, 3) == 1
    assert best == [None]
    assert graph._grow(adjacency, bits, [], 0b111, best, 3) == 3
    assert best == [2, 3]


def _count_nodes(monkeypatch):
    """Count the search nodes, the calls of ``graph._grow``, from now on."""
    grow = graph._grow
    nodes = []

    def spy(*args):
        nodes.append(None)
        return grow(*args)

    monkeypatch.setattr(graph, "_grow", spy)  # the recursion looks the name up too
    return nodes


@pytest.mark.parametrize("n,d,count", [(5, 3, 2515), (6, 5, 85), (5, 4, 59), (4, 3, 4),
                                       (5, 2, 0), (6, 1, 0), (6, 2, 0), (6, 6, 0)])
def test_exact_search_nodes_are_pinned(monkeypatch, n, d, count):
    """Where the seed already meets the clique-coclique bound, the search
    never starts."""
    g = build_graph(n, d)
    nodes = _count_nodes(monkeypatch)
    exact_independent_set(g)
    assert len(nodes) == count


WHOLE_GROUP = [(n, d) for n in range(1, 6) for d in range(1, n + 1)]
WHOLE_GROUP += [(6, 1), (6, 2), (6, 5), (6, 6)]
LIMITS = {(4, 3): 4, (5, 3): 20, (6, 2): 120, (6, 5): 6}  # n! // |anticode|


def _anticodes(n, d):
    """The two families behind ``enumeration._anticode_size``, built by their
    definitions: the rotations of the identity, kept only for d >= 2, and the
    words holding 1, 2, ..., n-m+1 as one increasing run, m = min(d, n)."""
    e = tuple(range(1, n + 1))
    rotations = {e[i:] + e[:i] for i in range(n)} if d > 1 else set()
    m = min(d, n)
    pieces = [e[:n - m + 1], *[(label,) for label in e[n - m + 1:]]]
    runs = {sum(order, ()) for order in itertools.permutations(pieces)}
    return rotations, runs


@functools.cache
def _distance_from_identity(s):
    return distance_by_definition(tuple(range(1, len(s) + 1)), s)


def _pairwise_below(words, d):
    """Every two of words are closer than d, by the cut search.  Relabelling
    keeps distances, so d(p, q) = d(e, p⁻¹∘q), and each quotient is searched
    once; the quotients of all of S_n are all of S_n."""
    n = len(next(iter(words)))
    if len(words) == math.factorial(n):
        quotients = words
    else:
        quotients = {compose(inverse(p), q) for p, q in itertools.combinations(words, 2)}
    return all(_distance_from_identity(s) < d for s in quotients - {tuple(range(1, n + 1))})


@pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 8) for d in range(1, n + 2)])
def test_clique_coclique_stop_is_sound_on_all_of_s_n(n, d):
    rotations, runs = _anticodes(n, d)
    assert len(runs) == math.factorial(min(d, n))
    for family in filter(None, (rotations, runs)):
        assert tuple(range(1, n + 1)) in family and _pairwise_below(family, d)
    assert max(len(rotations), len(runs)) == _anticode_size(n, d)
    limit = math.factorial(n) // _anticode_size(n, d)
    assert LIMITS.get((n, d), limit) == limit
    if (n, d) in WHOLE_GROUP:
        alpha = len(exact_independent_set(build_graph(n, d)).words)
        assert alpha <= limit
        assert special_exact(n, d) in (None, alpha)


def _alpha_by_plain_search(g, at_least):
    """The largest independent set of the full S_n graph g, or at_least if
    none is larger: a plain branch and bound with no translates.  Vertex 0 is
    fixed, since the graph is vertex-transitive.  A node covers its
    candidates by cliques, first fit in index order, and branches on them
    from the last clique back until the clique number no longer beats best
    (Tomita's MCQ)."""
    adj = g.bits
    best = at_least

    def grow(size, cand):
        nonlocal best
        best = max(best, size)
        numbered, k, left = [], 0, cand
        while left:
            k += 1
            q = left
            while q:
                v = (q & -q).bit_length() - 1
                left ^= 1 << v
                q &= adj[v] & ~(1 << v)
                numbered.append((v, k))
        for v, k in reversed(numbered):
            if size + k <= best:
                return
            cand ^= 1 << v
            grow(size + 1, cand & ~adj[v])

    grow(1, (1 << len(adj)) - 2 & ~adj[0])
    return best


@pytest.mark.parametrize("n,d", WHOLE_GROUP)
def test_exact_size_matches_a_plain_search_on_all_of_s_n(n, d):
    """The translates prune no set larger than the one the solver returns:
    a plain search seeded with its size finds none larger."""
    g = build_graph(n, d)
    code = exact_independent_set(g)
    assert verify_min_distance(code) >= d
    assert _alpha_by_plain_search(g, len(code.words)) == len(code.words)


def test_clique_coclique_bound_is_not_used_off_the_full_group(monkeypatch):
    g = graph_on(STAR, 3)  # a path: not vertex-transitive, so alpha * omega may exceed |V|
    assert g.bits == (0b110, 0b001, 0b001)  # STAR[1] - STAR[0] - STAR[2]
    omega = 2
    nodes = _count_nodes(monkeypatch)
    alpha = len(exact_independent_set(g).words)
    assert alpha == 2 and alpha * omega > len(STAR)  # a stop at |V| // omega = 1 would be wrong
    assert nodes


def test_exact_seeds_once_on_a_regular_graph(monkeypatch):
    orders = []
    greedy = graph._greedy

    def spy(g, order):
        orders.append(order)
        return greedy(g, order)

    monkeypatch.setattr(graph, "_greedy", spy)
    exact_independent_set(build_graph(5, 4))  # regular: degree order is index order
    assert orders == ["lexicographic"]
    orders.clear()
    exact_independent_set(graph_on(STAR, 3))  # degrees 2, 1, 1
    assert orders == ["lexicographic", "degree"]


@pytest.mark.parametrize("vertices", [[(1, 2, 2)], [(0, 1, 2)], [(1, 2, 3), (1, 2)]])
def test_graph_on_rejects_non_permutations(vertices):
    with pytest.raises(ValueError, match=r"^not a rearrangement of 1\.\.3: \["):
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


# Seeded graph_on subsets, (seed, n, size, d), whose solves search past the seed.
PINNED_SUBSETS = [(0, 5, 60, 3), (1, 6, 90, 4), (2, 7, 120, 4)]
# sha256 of the words of every finishing full-group solve and of the subsets,
# one line each as below, from the solver before the bit layout, the
# reversal conjugate and the kernel-built rows.
WORDS_DIGEST = "4f24e9cb92285d2d5b290467e12b02c30c7c5c1d11bffc4cb428e8cc197dd4fc"


def _seeded_graph(seed, n, size, d):
    """graph_on at d of size words of S_n drawn from seed."""
    return graph_on(_seeded_subset(random.Random(seed), n, size), d)


def test_exact_words_are_pinned():
    lines = [f"{n} {d}: {exact_independent_set(build_graph(n, d)).words}"
             for n, d in WHOLE_GROUP]
    for seed, n, size, d in PINNED_SUBSETS:
        code = exact_independent_set(_seeded_graph(seed, n, size, d))
        lines.append(f"{seed} {n} {size} {d}: {code.words}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == WORDS_DIGEST


class _Searched(Exception):
    """Raised by the first search node, with the rows and bits it reads."""


def _searched_rows(monkeypatch, g):
    """Start solving g and return the words the search relabels, in bit
    order, with the rows and bits its first node reads, or None if no search
    starts.  The solve stops at that node."""
    seen = []
    neighbor_bits = graph._neighbor_bits

    def rows_spy(words, n, d):
        seen.append(list(words))
        return neighbor_bits(words, n, d)

    def grow_spy(rows, bits, *rest):
        raise _Searched(rows, bits)

    monkeypatch.setattr(graph, "_neighbor_bits", rows_spy)
    monkeypatch.setattr(graph, "_grow", grow_spy)
    try:
        exact_independent_set(g)
    except _Searched as searched:
        return (*seen, *searched.args)
    finally:
        monkeypatch.undo()
    assert not seen
    return None


SOLVER_GRAPHS = (
    [pytest.param(lambda n=n, d=d: build_graph(n, d), id=f"G({n},{d})") for n, d in WHOLE_GROUP]
    + [pytest.param(lambda seed=seed, d=d: _seeded_graph(seed, 5, 120, d),
                    id=f"S_5 shuffled {seed} d={d}") for seed in range(6) for d in range(2, 6)]
    + [pytest.param(lambda: graph_on(STAR, 3), id="star"),
       pytest.param(lambda: graph_on(NO_ZERO, 4), id="no zero")]
    + [pytest.param(lambda args=args: _seeded_graph(*args), id=f"subset {args}")
       for args in PINNED_SUBSETS]
    + [pytest.param(lambda n=n, d=d: [graph_on(_seeded_subset(rng, n, rng.randint(6, 14)), d)
                                      for rng in [random.Random(10 * n + d)] for _ in range(6)],
                    id=f"small subsets n={n} d={d}") for n in (5, 6) for d in range(2, 6)])


@pytest.mark.parametrize("make", SOLVER_GRAPHS)
def test_search_rows_are_the_graph_bits_relabelled(monkeypatch, make):
    """The kernel-built rows of every search are the graph's own bitsets
    gathered in label order: the word at bit i of L has its row at index
    i + 1, and holds bit j exactly when the graph joins it to the word at
    bit j."""
    graphs = make()
    for g in graphs if isinstance(graphs, list) else [graphs]:
        searched = _searched_rows(monkeypatch, g)
        if searched is None:
            continue
        words, rows, bits = searched
        index = {w: v for v, w in enumerate(g.vertices)}
        order = [index[w] for w in words]
        assert rows[0] == 0 and len(rows) == len(words) + 1
        assert bits == [0] + [1 << i for i in range(len(words))]
        assert rows[1:] == [sum(1 << j for j, u in enumerate(order) if g.bits[v] >> u & 1)
                            for v in order]


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


def _clique_size(bits, cand):
    """The size of the largest clique among the vertices of the bitset cand,
    by trying each one as its highest member."""
    best = 0
    while cand:
        v = cand.bit_length() - 1
        cand ^= 1 << v
        best = max(best, 1 + _clique_size(bits, cand & bits[v]))
    return best


def _clique_number(n, d):
    """The largest clique of the full (n, d) graph, by exhaustive search.  The
    graph is vertex-transitive, so some largest clique holds the identity,
    and its other members are pairwise adjacent words of the identity's ball
    of radius d - 1."""
    ball = [s for s, _ in _identity_ball(n, d - 1)]
    return 1 + _clique_size(graph_on(ball, d).bits, (1 << len(ball)) - 1)


@pytest.mark.parametrize("n,omega,alpha", [(4, 6, 4), (5, 8, 14)])
def test_clique_coclique_bound_holds_against_the_exact_solver(n, omega, alpha):
    # On a vertex-transitive graph alpha * omega <= |V|; at (4, 3) it is tight.
    assert _clique_number(n, 3) == omega
    assert len(exact_independent_set(build_graph(n, 3)).words) == alpha <= math.factorial(n) // omega


@pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 6) for d in range(1, n + 1)]
                         + [(6, 1), (6, 2), (6, 3), (6, 5), (6, 6)])
def test_code_size_bounds_chain_in_order(n, d):
    # alpha <= n!//omega <= n!//|A| <= n!//d! <= new_upper: a clique is at least
    # as large as the anticode A, |A| >= d!, and new_upper is n·n!/(d·d!).
    # The exact solver runs past 30 s at (6, 3), so its alpha is the 72-word
    # rotation-orbit code of the test below.
    full = math.factorial(n)
    alpha = 72 if (n, d) == (6, 3) else len(exact_independent_set(build_graph(n, d)).words)
    chain = [alpha]
    if 2 <= d <= 3:  # the clique search takes seconds from (4, 4) on
        chain.append(full // _clique_number(n, d))
    chain += [full // _anticode_size(n, d), full // math.factorial(d)]
    if d <= n - 1:
        chain.append(new_upper(n, d)[1])
    assert chain == sorted(chain)


# Representatives of the orbits of a (6, 3) code under the label rotation
# h(i) = i mod 6 + 1, which preserves the distance: d(h∘p, h∘q) = d(p, q).
ROTATION_REPS = ["123546", "125364", "132654", "134256", "136452", "143562",
                 "145326", "152436", "154632", "156234", "163524", "165342"]


def test_rotation_orbit_code_meets_the_clique_bound_at_6_3():
    words = set()
    for rep in ROTATION_REPS:
        word = tuple(map(int, rep))
        for _ in range(6):
            words.add(word)
            word = tuple(i % 6 + 1 for i in word)  # h∘word
    code = CodeBook(6, 3, tuple(sorted(words)), "rotation-orbits")
    assert len(code.words) == 72
    assert verify_min_distance(code) == 3
    assert all(distance_by_definition(p, q) >= 3 for p, q in itertools.combinations(code.words, 2))
    assert math.factorial(6) // _clique_number(6, 3) == 72  # so C_B(6, 3) = 72
