"""Distance-threshold graphs on sets of permutations.

Vertices are permutations; two are adjacent when their block distance is
positive but below a threshold d.  Codes with minimum distance d are exactly
the independent sets of this graph, so the module carries a greedy and an
exact (branch-and-bound) independent-set solver, plus the neighborhood
statistics that feed the locally-sparse independence lower bound
|V|/(10 D) (log2 D - 1/2 log2(P/3)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

from .constructions import CodeBook
from .enumeration import identity_sphere
from .perm import Perm, compose, identity, inverse

GRAPH_MAX_N = 7
EXACT_MAX_VERTICES = 1000


@dataclass(frozen=True)
class BlockGraph:
    n: int
    d: int
    vertices: tuple[Perm, ...]
    adjacency: tuple[tuple[int, ...], ...]  # sorted neighbor indices per vertex

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adjacency)


@dataclass(frozen=True)
class NeighborhoodStats:
    """Measured parameters of the subgraph induced by one vertex's neighbors.

    Left-invariance makes every vertex's neighborhood isomorphic, so the
    identity's suffices.  ``zero_x_edge_count`` counts adjacent pairs on the
    outermost sphere that share no missing identity adjacency.  For d >= 3
    there are none, and keeping the counter at zero is the checkable form of
    that claim; at d = 2 the count is C(n-1, 2).
    """

    n: int
    d: int
    delta: int
    p_edges: int
    triangle_count: int
    zero_x_edge_count: int


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")


def _check_graph_n(n: int, max_n: int) -> None:
    _check_n(n)
    if n > max_n:
        raise ValueError(f"n={n} exceeds graph guard {max_n} (n! vertices)")


def _check_exact_size(count: int, max_vertices: int) -> None:
    if count > max_vertices:
        raise ValueError(f"{count} vertices exceed exact-solver guard {max_vertices}")


def _check_design_distance(g: BlockGraph) -> None:
    """Distinct permutations of 1..n are at most n-1 apart, so past d = n
    a solver could only return one word, whose distance n by convention
    is below d."""
    if g.d > g.n:
        raise ValueError(f"design distance {g.d} exceeds n={g.n}, the distance of a one-word code")


def _identity_ball(n: int, radius: int) -> list[tuple[Perm, int]]:
    """Every s with 0 < d(identity, s) <= radius, with its distance, sphere by
    sphere."""
    return [(s, k) for k in range(1, min(radius, n - 1) + 1) for s in identity_sphere(n, k)]


def _pair_masks(perms, n: int) -> list[int]:
    """Each characteristic set as an int: bit (a-1)·n + (b-1) marks the pair
    (a, b), so popcount(mask_p & mask_q) counts the pairs p and q share."""
    return [sum(1 << (a - 1) * n + b - 1 for a, b in zip(p, p[1:])) for p in perms]


def _later_neighbors(masks: list[int], n: int, d: int) -> list[list[int]]:
    """Row i lists, in increasing order, the j > i with 0 < distance < d.

    Both characteristic sets hold n-1 pairs, so the distance is n-1 minus
    the shared count, and 0 < distance < d exactly when
    n-d <= popcount(mi & mj) <= n-2.
    """
    lo, hi = n - d, n - 2
    return [[j for j in range(i + 1, len(masks)) if lo <= (mi & masks[j]).bit_count() <= hi]
            for i, mi in enumerate(masks)]


def _bitsets(rows, size: int) -> list[int]:
    """Each row of indices below size as one int with those bits set."""
    bits = [1 << j for j in range(size)]
    return [sum(map(bits.__getitem__, row)) for row in rows]


def graph_on(vertices, d: int) -> BlockGraph:
    """Explicit graph on the given permutations of 1..n; edge iff
    0 < distance < d.

    Compares every pair by the popcount of their pair masks, so it serves
    any vertex subset; it is also the reference that ``build_graph`` is
    tested against.
    """
    verts = tuple(vertices)
    if not verts:
        raise ValueError("graph needs at least one vertex")
    n = len(verts[0])
    _check_n(n)
    labels = set(range(1, n + 1))
    if any(len(v) != n or set(v) != labels for v in verts):
        raise ValueError("vertices must be permutations of 1..n with one n")
    neighbors: list[list[int]] = [[] for _ in verts]
    # Row i reaches every k < i before its own later neighbors are added, so
    # each list comes out sorted.
    for i, row in enumerate(_later_neighbors(_pair_masks(verts, n), n, d)):
        neighbors[i] += row
        for j in row:
            neighbors[j].append(i)
    return BlockGraph(n, d, verts, tuple(map(tuple, neighbors)))


def _neighbor_columns(verts: tuple[Perm, ...], ball) -> list[list[int]]:
    """One column per s of the ball, in its order: col_s[i] is the index of
    verts[i]∘s.

    Columns compose by the group law: if s = t∘u then v∘s = (v∘t)∘u, so
    col_s[i] = col_u[col_t[i]], one list index per entry.  Each s tries the
    t already built in spheres 1-2 until u = t⁻¹∘s is built too.  Only when
    none works is the column looked up tuple by tuple, by hashing each
    verts[i]∘s into the vertex index.  Walking all of S_n in sphere order,
    that happens for exactly two columns when 3 <= n <= 6 (tested): the
    n-cycle (2, 3, ..., n, 1) on sphere 1 and (1, 3, 4, ..., n, 2) on
    sphere 2.
    """
    index = {v: i for i, v in enumerate(verts)}
    built: dict[Perm, list[int]] = {}
    factors: list[tuple[Perm, list[int]]] = []  # (t⁻¹, col_t) for t in spheres 1-2
    cols = []
    for s, k in ball:
        for t_inv, col_t in factors:
            col_u = built.get(compose(t_inv, s))
            if col_u is not None:
                col = list(map(col_u.__getitem__, col_t))
                break
        else:  # s has at least two entries, so itemgetter returns tuples
            col = list(map(index.__getitem__, map(itemgetter(*(j - 1 for j in s)), verts)))
        built[s] = col
        if k <= 2:
            factors.append((inverse(s), col))
        cols.append(col)
    return cols


def build_graph(n: int, d: int, max_n: int = GRAPH_MAX_N) -> BlockGraph:
    """The full graph on S_n in lexicographic vertex order.

    The metric is left-invariant, d(p∘s, p∘t) = d(s, t), so the neighbors of
    p are p∘s for s in the identity's ball of radius d-1: O(n!·Δ) work
    instead of the O(n!²) pair loop of ``graph_on``.  The index of p∘s for
    every p is one column, composed from two earlier columns (see
    ``_neighbor_columns``); each vertex's row is then sorted.
    """
    _check_graph_n(n, max_n)
    verts = tuple(itertools.permutations(range(1, n + 1)))
    cols = _neighbor_columns(verts, _identity_ball(n, d - 1))
    rows = zip(*cols) if cols else [()] * len(verts)
    return BlockGraph(n, d, verts, tuple(tuple(sorted(row)) for row in rows))


def neighborhood_stats(n: int, d: int, max_n: int = GRAPH_MAX_N) -> NeighborhoodStats:
    """Measure the identity's neighborhood in the full (n, d) graph.

    Only permutations within distance d-1 of the identity are touched, so this
    stays cheap even where building the whole graph would not.  The design
    distance d must be positive, as for a code.
    """
    if d < 1:
        raise ValueError(f"design distance must be positive, got {d}")
    if n > max_n:
        raise ValueError(f"n={n} exceeds graph guard {max_n}")
    ball = _identity_ball(n, d - 1)
    masks = _pair_masks([s for s, _ in ball], n)
    delta = len(masks)
    rows = _later_neighbors(masks, n, d)
    p_edges = sum(map(len, rows))
    # later[i] is the bitset of neighbors j > i, so each triangle i < j < k
    # is counted once, as a bit of later[i] & later[j] on its edge (i, j).
    later = _bitsets(rows, delta)
    triangles = sum((later[i] & later[j]).bit_count() for i, row in enumerate(rows) for j in row)
    # Edges on the sphere at distance d-1 whose two sets together hold every
    # identity pair, so that no identity pair is missing from both.
    aid = _pair_masks([identity(n)], n)[0]
    ring = {i for i, (_, k) in enumerate(ball) if k == d - 1}
    zero_x = sum(1 for i in ring for j in rows[i]
                 if j in ring and not aid & ~(masks[i] | masks[j]))
    return NeighborhoodStats(n, d, delta, p_edges, triangles, zero_x)


def jv_lower_formula(stats: NeighborhoodStats) -> float:
    """Independence lower bound for locally sparse graphs, evaluated with the
    measured degree and neighborhood edge count of the full (n, d) graph
    that ``stats`` describes."""
    if stats.delta < 2 or stats.p_edges < 1:
        raise ValueError("formula needs degree >= 2 and at least one neighborhood edge")
    vertices = math.factorial(stats.n)
    return vertices / (10 * stats.delta) * (
        math.log2(stats.delta) - 0.5 * math.log2(stats.p_edges / 3))


def greedy_independent_set(g: BlockGraph, order: str = "lexicographic") -> CodeBook:
    """Maximal independent set by greedy insertion, for d <= n.

    Order "lexicographic" sweeps vertices as indexed; "degree" tries
    low-degree vertices first (ties by index).
    """
    _check_design_distance(g)
    if order == "lexicographic":
        sweep = range(len(g.vertices))
    elif order == "degree":
        sweep = sorted(range(len(g.vertices)), key=lambda i: (len(g.adjacency[i]), i))
    else:
        raise ValueError(f"order must be 'lexicographic' or 'degree', got {order!r}")
    blocked = set()
    chosen = []
    for v in sweep:
        if v not in blocked:
            chosen.append(v)
            blocked.add(v)
            blocked.update(g.adjacency[v])
    words = tuple(sorted(g.vertices[v] for v in chosen))
    return CodeBook(g.n, g.d, words, f"greedy-{order}")


def _grow(adj: list[int], chosen: list[int], cand: int, best: list[int]) -> None:
    """Search every independent extension of chosen by vertices of the
    bitset cand, replacing best's contents whenever chosen outgrows it.

    Not a closure: one that calls itself is a reference cycle, which keeps
    each search's bitsets alive until a full collection.
    """
    if len(chosen) > len(best):
        best[:] = chosen
    room = len(best) - len(chosen)
    if cand.bit_count() <= room:
        return
    # Cover cand by `room` cliques, one at a time (see exact_independent_set).
    # An independent set takes at most one vertex per clique, so only the
    # vertices still left can push past the incumbent; those are the branch
    # vertices, taken highest index first.
    left = cand
    for _ in range(room):
        q = left
        while q:
            low = q & -q
            left ^= low
            q &= adj[low.bit_length() - 1]
        if not left:
            return
    while left:
        v = left.bit_length() - 1
        bit = 1 << v
        left ^= bit
        chosen.append(v)
        _grow(adj, chosen, cand & ~(adj[v] | bit), best)
        chosen.pop()
        cand ^= bit


def check_exact_full_graph(n: int) -> None:
    """Raise where ``exact_independent_set(build_graph(n, d))`` would stop at
    a default guard, before anything is built: the graph guard on n, then the
    solver's vertex guard on the n! vertices, with the messages those give."""
    _check_graph_n(n, GRAPH_MAX_N)
    _check_exact_size(math.factorial(n), EXACT_MAX_VERTICES)


def exact_independent_set(g: BlockGraph, max_vertices: int = EXACT_MAX_VERTICES) -> CodeBook:
    """A maximum independent set by branch and bound over vertex bitsets, for
    d <= n.

    Seeded with the better of the two greedy solutions, then pruned and
    guided by a greedy clique cover of the candidate set: an independent set
    takes at most one vertex per clique, so a node is closed when the cover
    is within the incumbent and otherwise only the overflow vertices need
    branching.  Deterministic.  On the full S_n graph the result size is the
    maximum code size for that (n, d).

    The cover is built one clique at a time, as in San Segundo's BBMC: a
    clique starts from the lowest candidate left and keeps intersecting its
    pool with the neighbors of the lowest vertex in it.  That is the
    partition that first fit in index order builds, because first fit puts a
    vertex in clique k exactly when it is in no earlier clique and adjacent
    to every lower vertex already in clique k.  After as many cliques as the
    incumbent leaves room for, the vertices still uncovered are the branch
    set.

    When the vertices are exactly the lexicographic S_n of ``build_graph``,
    the graph is a Cayley graph, so vertex-transitive: some maximum
    independent set contains vertex 0 (the identity), and the search fixes
    it there.  Any other vertex set is searched from the empty set.
    """
    count = len(g.vertices)
    _check_exact_size(count, max_vertices)
    _check_design_distance(g)
    adj = _bitsets(g.adjacency, count)
    index = {v: i for i, v in enumerate(g.vertices)}
    seed = max((greedy_independent_set(g, order) for order in ("lexicographic", "degree")),
               key=lambda code: len(code.words))
    best = [index[w] for w in seed.words]
    everything = (1 << count) - 1
    if g.vertices == tuple(itertools.permutations(range(1, g.n + 1))):
        _grow(adj, [0], everything & ~(adj[0] | 1), best)
    else:
        _grow(adj, [], everything, best)
    words = tuple(sorted(g.vertices[v] for v in best))
    return CodeBook(g.n, g.d, words, "exact-independent")


def neighborhood_stats_payload(stats: NeighborhoodStats) -> dict:
    return {
        "delta": stats.delta,
        "p_edges": stats.p_edges,
        "triangles": stats.triangle_count,
        "zero_x_edges": stats.zero_x_edge_count,
    }
