"""Distance-threshold graphs on sets of permutations.

Vertices are permutations; two are adjacent when their block distance is
positive but below a threshold d.  Codes with minimum distance d are exactly
the independent sets of this graph, so the module carries a greedy and an
exact (branch-and-bound) independent-set solver, plus the neighborhood
statistics that feed the locally-sparse independence lower bound
|V|/(10 D) (log2 D - 1/2 log2(P/3)).

Every graph is one neighbor bitset per vertex, and every vertex set gets its
bitsets from ``_neighbor_bits``, which thresholds the shared-pair counts of
the pair-count kernel in ``perm``, the one that also verifies codes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

from .constructions import CodeBook
from .enumeration import identity_sphere
from .perm import Perm, _check_words, _int_in, _pair_masks, _shared_planes, identity

GRAPH_MAX_N = 7
EXACT_MAX_VERTICES = 1000
_DIGITS = bytes.maketrans(b"01", b"\0\1")  # binary digits to bit values


def _indices(bitset: int):
    """The positions of the set bits of bitset, lowest first."""
    return itertools.compress(itertools.count(), bin(bitset)[:1:-1].encode().translate(_DIGITS))


@dataclass(frozen=True)
class BlockGraph:
    """Bit j of ``bits[i]`` is set when vertices i and j are adjacent, so
    the bitsets of N vertices take N²/8 bytes."""

    n: int
    d: int
    vertices: tuple[Perm, ...]
    bits: tuple[int, ...]

    @functools.cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor indices per vertex, derived from ``bits`` on first read."""
        return tuple(tuple(_indices(b)) for b in self.bits)

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.bits)) // 2

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(int.bit_count, self.bits))


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


def _identity_ball(n: int, radius: int) -> list[tuple[Perm, int]]:
    """Every s with 0 < d(identity, s) <= radius, with its distance, sphere by
    sphere."""
    return [(s, k) for k in range(1, min(radius, n - 1) + 1) for s in identity_sphere(n, k)]


def _neighbor_bits(verts: tuple[Perm, ...], n: int, d: int) -> list[int]:
    """Bit j of entry i is set exactly when 0 < distance(verts[i], verts[j]) < d,
    for distinct verts, that is, when the two share at least n-d of their
    n-1 pairs and j is not i (only a permutation itself holds all its
    pairs).  Vertex i's shared-pair counts come from ``perm._shared_planes``
    as bit planes; a comparator from the top plane down keeps the counts of
    at least n-d.  A vertex takes at most n·⌈log2 n⌉ kernel and comparator
    steps of two or three operations on N-bit integers each, whatever d is.
    """
    if d <= 1:  # no two distinct permutations share all n-1 pairs
        return [0] * len(verts)
    everything = (1 << len(verts)) - 1
    if d >= n:  # nor are any two n or more apart
        return [everything ^ 1 << i for i in range(len(verts))]
    need = n - d  # 1 <= need <= n-2 here
    width = (n - 1).bit_length()  # the number of planes
    top_down = range(width - 1, (need & -need).bit_length() - 2, -1)  # to need's lowest 1
    bits = []
    for i, planes in enumerate(_shared_planes(verts, n)):
        more, same = 0, everything  # shared count above / equal to need so far
        for k in top_down:
            if need >> k & 1:
                same &= planes[k]
            else:
                more |= same & planes[k]
                same &= ~planes[k]
        bits.append((more | same) ^ 1 << i)
    return bits


def graph_on(vertices, d: int) -> BlockGraph:
    """Explicit graph on the given distinct permutations of 1..n; edge iff
    0 < distance < d, for d >= 1.  Built by ``_neighbor_bits``, about
    N·n·log2(n) operations on N-bit integers for N vertices."""
    verts = tuple(vertices)
    if not verts:
        raise ValueError("graph needs at least one vertex")
    n = len(verts[0])
    _check_words(verts, n)
    _int_in("design distance", d)
    return BlockGraph(n, d, verts, tuple(_neighbor_bits(verts, n, d)))


def build_graph(n: int, d: int) -> BlockGraph:
    """The full graph on S_n, d >= 1, in lexicographic vertex order, built by the
    kernel of ``graph_on``; its bitsets take n!²/8 bytes, 3.2 MB at n = 7."""
    _int_in("n", n)
    if n > GRAPH_MAX_N:
        raise ValueError(f"n={n} exceeds graph guard {GRAPH_MAX_N} (n! vertices)")
    _int_in("design distance", d)
    verts = tuple(itertools.permutations(range(1, n + 1)))
    return BlockGraph(n, d, verts, tuple(_neighbor_bits(verts, n, d)))


def neighborhood_stats(n: int, d: int) -> NeighborhoodStats:
    """Measure the identity's neighborhood in the full (n, d) graph.

    Only permutations within distance d-1 of the identity are touched, so this
    stays cheap even where building the whole graph would not; d >= 1, as for a code.
    """
    _int_in("design distance", d)
    _int_in("n", n)
    if n > GRAPH_MAX_N:
        raise ValueError(f"n={n} exceeds graph guard {GRAPH_MAX_N}")
    ball = _identity_ball(n, d - 1)
    verts = tuple(s for s, _ in ball)
    bits = _neighbor_bits(verts, n, d)
    p_edges = sum(map(int.bit_count, bits)) // 2
    # later[i] keeps the neighbors j > i, so each triangle i < j < k is
    # counted once, as a bit of later[i] & later[j] on its edge (i, j).
    later = [b >> i + 1 << i + 1 for i, b in enumerate(bits)]
    triangles = sum((row & later[j]).bit_count() for row in later for j in _indices(row))
    # Edges on the sphere at distance d-1 whose two sets together hold every
    # identity pair, so that no identity pair is missing from both.  The ball
    # runs sphere by sphere, so that sphere is its tail, and the later
    # neighbors of its vertices lie in it too.
    masks = _pair_masks(verts, n)
    aid = _pair_masks([identity(n)], n)[0]
    ring = range(sum(k < d - 1 for _, k in ball), len(verts))
    zero_x = sum(1 for i in ring for j in _indices(later[i]) if not aid & ~(masks[i] | masks[j]))
    return NeighborhoodStats(n, d, len(verts), p_edges, triangles, zero_x)


def jv_lower_formula(stats: NeighborhoodStats) -> float:
    """Independence lower bound for locally sparse graphs, evaluated with the
    measured degree and neighborhood edge count of the full (n, d) graph
    that ``stats`` describes."""
    _int_in("n", stats.n)
    if stats.delta < 2 or stats.p_edges < 1:
        raise ValueError("formula needs degree >= 2 and at least one neighborhood edge")
    vertices = math.factorial(stats.n)
    return vertices / (10 * stats.delta) * (
        math.log2(stats.delta) - 0.5 * math.log2(stats.p_edges / 3))


def greedy_independent_set(g: BlockGraph, order: str = "lexicographic") -> CodeBook:
    """Maximal independent set by greedy insertion, for 1 <= d <= n.

    Order "lexicographic" sweeps vertices as indexed; "degree" tries
    low-degree vertices first (ties by index).
    """
    words = tuple(sorted(g.vertices[v] for v in _greedy(g, order)))
    return CodeBook(g.n, g.d, words, f"greedy-{order}")


def _greedy(g: BlockGraph, order: str) -> list[int]:
    """The vertices that ``greedy_independent_set`` chooses, after it checks
    n and d."""
    _int_in("n", g.n)
    # past d = n only one word is left, and n, the distance of a one-word code, is below d
    _int_in("design distance", g.d, 1, g.n)
    count = len(g.vertices)
    chosen = []
    if order == "degree" and count != math.factorial(g.n):  # all of S_n is regular
        blocked = 0
        for v in sorted(range(count), key=g.degrees().__getitem__):  # stable: ties by index
            if not blocked >> v & 1:
                chosen.append(v)
                blocked |= g.bits[v] | 1 << v
    elif order not in ("lexicographic", "degree"):
        raise ValueError(f"order must be 'lexicographic' or 'degree', got {order!r}")
    else:  # in index order the next vertex is the lowest one left
        free = (1 << count) - 1
        while free:
            v = (free & -free).bit_length() - 1
            chosen.append(v)
            free &= ~(g.bits[v] | 1 << v)
    return chosen


def _first_fit_clique(adj: tuple[int, ...], pool: int) -> list[int]:
    """The clique that first fit in index order starts in the bitset pool:
    its lowest vertex, then again and again the lowest vertex of pool adjacent
    to every vertex taken so far."""
    clique = []
    while pool:
        v = (pool & -pool).bit_length() - 1
        clique.append(v)
        pool &= adj[v]
    return clique


def _grow(adj: list[int], chosen: list[int], cand: int, best: list[int], limit: int) -> None:
    """Search every independent extension of chosen by vertices of the
    bitset cand, replacing best's contents whenever chosen outgrows it, and
    stop the whole search once best holds limit vertices (a bound on its size).

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
        _grow(adj, chosen, cand & ~(adj[v] | bit), best, limit)
        chosen.pop()
        if len(best) >= limit:
            return
        cand ^= bit


def exact_independent_set(g: BlockGraph) -> CodeBook:
    """A maximum independent set by branch and bound over vertex bitsets, for
    1 <= d <= n, which the greedy seed checks before the search.

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
    set.  The search runs on the candidates relabelled in ascending order of
    their degree among the candidates, ties by index: Tomita and Seki's MCQ
    order, read in the complement.  The cover then starts its cliques from
    the vertices with fewest candidate neighbors, and the branching takes the
    vertices with most first.  Each relabelled row is gathered from the
    digits of the original bitset.

    The vertices are distinct permutations of 1..n, so n! of them are all of
    S_n, in any order, and the graph is a Cayley graph.  It is regular, so one
    greedy order seeds the search, and vertex-transitive, so some maximum
    independent set holds vertex 0 and the search fixes it there; the
    candidates are then the non-neighbors of vertex 0.  Vertex-transitive
    also gives the clique–coclique bound α·ω <= n!, so with the clique that
    first fit builds from vertex 0 no independent set exceeds n! // |clique|,
    and the search stops, or never starts, once the incumbent has that many
    words: 4 at (4, 3), 20 at (5, 3), 120 at (6, 2) and 6 at (6, 5).  Any
    other vertex set is seeded from both orders, and all of its vertices are
    candidates, searched from the empty set with no bound but their number.
    Search nodes (calls of ``_grow``): 4 at (4, 3), 59 at (5, 4), 9,025 at
    (5, 3) and 85 at (6, 5); none where the seed meets the bound, as at
    d <= 2 and at d = n for n <= 6.
    """
    count = len(g.vertices)
    if count > EXACT_MAX_VERTICES:
        raise ValueError(f"{count} vertices exceed exact-solver guard {EXACT_MAX_VERTICES}")
    adj = g.bits
    seed = _greedy(g, "lexicographic")  # checks n and d before n! is taken
    everything = (1 << count) - 1
    if count == math.factorial(g.n):
        limit = count // len(_first_fit_clique(adj, everything))
        fixed, cand = [0], everything & ~(adj[0] | 1)
    else:
        seed = max(seed, _greedy(g, "degree"), key=len)
        limit, fixed, cand = count, [], everything
    if len(seed) < limit:
        # Vertex 0 keeps label 0 on S_n.  The sort is stable, so ties stay in
        # index order.
        order = fixed + sorted(_indices(cand), key=lambda v: (adj[v] & cand).bit_count())
        # bin(row | top) is "0b1" and then the digits of bits count-1 .. 0, so
        # bit v sits at index count + 2 - v; the gather puts the last label first.
        gather = itemgetter(*[count + 2 - v for v in reversed(order)])
        top = 1 << count
        rows = [int("".join(gather(bin(adj[v] | top))), 2) for v in order]
        best = [None] * len(seed)  # only its size counts until the search outgrows the seed
        _grow(rows, fixed, (1 << len(order)) - (1 << len(fixed)), best, limit)
        if len(best) > len(seed):
            seed = [order[k] for k in best]
    words = tuple(sorted(g.vertices[v] for v in seed))
    return CodeBook(g.n, g.d, words, "exact-independent")


def neighborhood_stats_payload(stats: NeighborhoodStats) -> dict:
    return {
        "delta": stats.delta,
        "p_edges": stats.p_edges,
        "triangles": stats.triangle_count,
        "zero_x_edges": stats.zero_x_edge_count,
    }
