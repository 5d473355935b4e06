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
from .perm import Perm, char_set, identity

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


def _identity_ball(n: int, radius: int) -> list[tuple[Perm, int]]:
    """Every s with 0 < d(identity, s) <= radius, with its distance, sphere by
    sphere."""
    return [(s, k) for k in range(1, min(radius, n - 1) + 1) for s in identity_sphere(n, k)]


def graph_on(vertices, d: int) -> BlockGraph:
    """Explicit graph on the given permutations; edge iff 0 < distance < d.

    Compares every pair, so it serves any vertex subset; it is also the
    reference that ``build_graph`` is tested against.
    """
    verts = tuple(vertices)
    if not verts:
        raise ValueError("graph needs at least one vertex")
    n = len(verts[0])
    _check_n(n)
    if any(len(v) != n for v in verts):
        raise ValueError("vertices must share one n")
    sets = [char_set(v) for v in verts]
    neighbors: list[list[int]] = [[] for _ in verts]
    for i, si in enumerate(sets):
        for j in range(i + 1, len(verts)):
            if 0 < len(si - sets[j]) < d:
                neighbors[i].append(j)
                neighbors[j].append(i)
    return BlockGraph(n, d, verts, tuple(tuple(sorted(ns)) for ns in neighbors))


def build_graph(n: int, d: int, max_n: int = GRAPH_MAX_N) -> BlockGraph:
    """The full graph on S_n in lexicographic vertex order.

    The metric is left-invariant, d(p∘s, p∘t) = d(s, t), so the neighbors of
    p are p∘s for s in the identity's ball of radius d-1: O(n!·Δ) work
    instead of the O(n!²) pair loop of ``graph_on``.
    """
    _check_n(n)
    if n > max_n:
        raise ValueError(f"n={n} exceeds graph guard {max_n} (n! vertices)")
    verts = tuple(itertools.permutations(range(1, n + 1)))
    index = {v: i for i, v in enumerate(verts)}
    # One column per s: the index of p∘s for every vertex p.  The ball is
    # empty at n = 1, so itemgetter always gets at least two indices here and
    # returns tuples.
    cols = [list(map(index.__getitem__, map(itemgetter(*(j - 1 for j in s)), verts)))
            for s, _ in _identity_ball(n, d - 1)]
    rows = zip(*cols) if cols else [()] * len(verts)
    return BlockGraph(n, d, verts, tuple(tuple(sorted(row)) for row in rows))


def neighborhood_stats(n: int, d: int, max_n: int = GRAPH_MAX_N) -> NeighborhoodStats:
    """Measure the identity's neighborhood in the full (n, d) graph.

    Only permutations within distance d-1 of the identity are touched, so this
    stays cheap even where building the whole graph would not.
    """
    if n > max_n:
        raise ValueError(f"n={n} exceeds graph guard {max_n}")
    aid = char_set(identity(n))
    ball = _identity_ball(n, d - 1)
    members = [char_set(s) for s, _ in ball]
    ring = [i for i, (_, k) in enumerate(ball) if k == d - 1]  # exactly at distance d-1
    delta = len(members)
    # later[i] is the bitset of neighbors j > i, so each triangle i < j < k
    # is counted once, as a bit of later[i] & later[j] on its edge (i, j).
    later = [0] * delta
    edges: list[tuple[int, int]] = []
    for i, si in enumerate(members):
        for j in range(i + 1, delta):
            if 0 < len(si - members[j]) < d:
                later[i] |= 1 << j
                edges.append((i, j))
    p_edges = len(edges)
    triangles = sum((later[i] & later[j]).bit_count() for i, j in edges)
    zero_x = 0
    for a, b in itertools.combinations(ring, 2):
        sa, sb = members[a], members[b]
        if len(sa - sb) < d and len((aid - sa) & (aid - sb)) == 0:
            zero_x += 1
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
    """Maximal independent set by greedy insertion.

    Order "lexicographic" sweeps vertices as indexed; "degree" tries
    low-degree vertices first (ties by index).
    """
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


def exact_independent_set(g: BlockGraph, max_vertices: int = EXACT_MAX_VERTICES) -> CodeBook:
    """A maximum independent set by branch and bound over vertex bitsets.

    Seeded with the better of the two greedy solutions, then pruned and
    guided by a greedy clique cover of the candidate set: an independent set
    takes at most one vertex per clique, so a node is closed when the cover
    is within the incumbent and otherwise only the overflow vertices need
    branching.  Deterministic.  On the full S_n graph the result size is the
    maximum code size for that (n, d).

    When the vertices are exactly the lexicographic S_n of ``build_graph``,
    the graph is a Cayley graph, so vertex-transitive: some maximum
    independent set contains vertex 0 (the identity), and the search fixes
    it there.  Any other vertex set is searched from the empty set.
    """
    count = len(g.vertices)
    if count > max_vertices:
        raise ValueError(f"{count} vertices exceed exact-solver guard {max_vertices}")
    adj = [0] * count
    for i, nbrs in enumerate(g.adjacency):
        for j in nbrs:
            adj[i] |= 1 << j

    index = {v: i for i, v in enumerate(g.vertices)}
    seed = max((greedy_independent_set(g, order) for order in ("lexicographic", "degree")),
               key=lambda code: len(code.words))
    best = [index[w] for w in seed.words]
    best_size = len(best)

    def grow(chosen: list[int], cand: int):
        nonlocal best, best_size
        if len(chosen) > best_size:
            best, best_size = list(chosen), len(chosen)
        if not cand:
            return
        room = best_size - len(chosen)
        if cand.bit_count() <= room:
            return
        # Greedy clique cover of the candidates, first fit in index order.
        # An independent set takes at most one vertex per clique, so only
        # vertices landing in cliques beyond `room` can push past the
        # incumbent; those are the branch vertices, taken last-clique first.
        masks: list[int] = []  # running intersection of adj[] over each clique
        assigned: list[int] = []  # vertices in cover order
        clique_of: list[int] = []
        m = cand
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            for idx, shared in enumerate(masks):
                if shared & low:
                    masks[idx] = shared & adj[v]
                    break
            else:
                idx = len(masks)
                masks.append(adj[v])
            assigned.append(v)
            clique_of.append(idx)
        if len(masks) <= room:
            return
        branchable = [v for v, idx in zip(assigned, clique_of) if idx >= room]
        for v in reversed(branchable):
            chosen.append(v)
            grow(chosen, cand & ~(adj[v] | (1 << v)))
            chosen.pop()
            cand &= ~(1 << v)

    everything = (1 << count) - 1
    if g.vertices == tuple(itertools.permutations(range(1, g.n + 1))):
        grow([0], everything & ~(adj[0] | 1))
    else:
        grow([], everything)
    words = tuple(sorted(g.vertices[v] for v in best))
    return CodeBook(g.n, g.d, words, "exact-independent")


def neighborhood_stats_payload(stats: NeighborhoodStats) -> dict:
    return {
        "delta": stats.delta,
        "p_edges": stats.p_edges,
        "triangles": stats.triangle_count,
        "zero_x_edges": stats.zero_x_edge_count,
    }
