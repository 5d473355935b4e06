"""Distance-threshold graphs on sets of permutations.

Vertices are permutations; two are adjacent when their block distance is
positive but below a threshold d.  Codes with minimum distance d are exactly
the independent sets of this graph, so the module carries a greedy and an
exact (branch-and-bound) independent-set solver, plus the neighborhood
statistics that feed the locally-sparse independence lower bound
|V|/(10 D) (log2 D - 1/2 log2(P/3)).

Every graph is one neighbor bitset per vertex: row i is the vertices that
share at least n-d pairs with vertex i.  ``_sharing`` reads the rows from the
pair-count kernel of ``perm`` a chunk at a time, the kernel that also
verifies codes: ``perm._planes`` adds the holders of each row's pairs and
``perm._at_least`` compares, each step one ``map`` over the chunk.  A vertex
set gets its bitsets from ``_neighbor_bits``, except that ``build_graph``
computes only the lower half of S_n's rows, from the pair codes of
``perm._pair_columns``, and mirrors them into the upper half: on the
5,040 words of S_7, the adder and comparator run for 2,520 rows in 49 chunks,
and the 49 holder mirrors and 2,520 row mirrors are one ``map`` chain each.
The exact solver's search rows come from ``_neighbor_bits`` as well, on
its candidate words in their search order.
"""

from __future__ import annotations

import functools
import itertools
import math
from itertools import repeat
from operator import and_, itemgetter, or_
from typing import NamedTuple

from .constructions import CodeBook, _code_columns
from .enumeration import _anticode_size, identity_sphere
from .perm import (Perm, _at_least, _check_words, _chunks, _holders, _int_in, _pair_columns,
                   _planes, compose, inverse)

GRAPH_MAX_N = 7
EXACT_MAX_VERTICES = 1000
_DIGITS = bytes.maketrans(b"01", b"\0\1")  # binary digits to bit values
_REV = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # each byte's bits reversed


def _indices(bitset: int):
    """The positions of the set bits of bitset, lowest first."""
    return itertools.compress(itertools.count(), bin(bitset)[:1:-1].encode().translate(_DIGITS))


def _mirrors(bitsets, count: int):
    """Each bitset < 2**count with bit i moved to bit count-1-i: its bytes in
    reverse order, each byte's bits reversed, less the pad above count, each
    step one ``map`` over all the bitsets."""
    size = (count + 7) // 8
    flipped = map(bytes.translate, map(int.to_bytes, bitsets, repeat(size), repeat("big")),
                  repeat(_REV))
    mirrored = map(int.from_bytes, flipped, repeat("little"))
    return map(int.__rshift__, mirrored, repeat(8 * size - count)) if count % 8 else mirrored


class _BlockGraphFields(NamedTuple):
    n: int
    d: int
    vertices: tuple[Perm, ...]
    bits: tuple[int, ...]


class BlockGraph(_BlockGraphFields):
    """Bit j of ``bits[i]`` is set when vertices i and j are adjacent, so
    the bitsets of N vertices take N²/8 bytes.  Without ``__slots__`` an
    instance has the ``__dict__`` that ``adjacency`` caches in.  The solvers
    build codes from the vertices unchecked: ``graph_on`` checked them, and a
    hand-built graph is trusted as it is, as its bits are."""

    @functools.cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor indices per vertex, derived from ``bits`` on first read."""
        return tuple(tuple(_indices(b)) for b in self.bits)

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.bits)) // 2

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(int.bit_count, self.bits))


class NeighborhoodStats(NamedTuple):
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


def _sharing(columns, holders: list[int], need: int, rows: range, count: int) -> list[int]:
    """For each of the rows of the pair-code columns, the bitset of the other
    words among count that share at least need of its pairs, 0 <= need < n-1,
    a chunk of rows at a time through ``perm._planes`` and ``perm._at_least``;
    at need 0 that is every other word, with no kernel."""
    everything = (1 << count) - 1
    found: list[int] = []
    for chunk in _chunks(rows, count):
        others = [everything ^ 1 << i for i in chunk]
        found += _at_least(_planes(columns, holders, chunk), need, others) if need else others
    return found


def _neighbor_bits(verts: tuple[Perm, ...], n: int, d: int) -> list[int]:
    """Bit j of entry i is set exactly when 0 < distance(verts[i], verts[j]) < d,
    for distinct verts: ``_sharing`` finds the words other than i that share
    at least n-d pairs with it.
    """
    if d <= 1:  # no two distinct permutations share all n-1 pairs
        return [0] * len(verts)
    everything = (1 << len(verts)) - 1
    if d >= n:  # nor are any two n or more apart
        return [everything ^ 1 << i for i in range(len(verts))]
    columns = _code_columns(verts, n)
    return _sharing(columns, _holders(columns, n), n - d, range(len(verts)), len(verts))


def graph_on(vertices, d: int) -> BlockGraph:
    """Explicit graph on the given distinct permutations of 1..n; edge iff
    0 < distance < d, for d >= 1.  Built by ``_neighbor_bits``: for N
    vertices the adder takes 5(n-1-w) + 2h operations on N-bit integers per
    vertex, with w = (n-1).bit_length() planes and h < w half adders (17 at
    n = 7), and the comparator at most three more per plane."""
    verts = tuple(vertices)
    if not verts:
        raise ValueError("graph needs at least one vertex")
    n = len(verts[0])
    _check_words(verts, n)
    _int_in("design distance", d)
    return BlockGraph(n, d, verts, tuple(_neighbor_bits(verts, n, d)))


def build_graph(n: int, d: int) -> BlockGraph:
    """The full graph on S_n, d >= 1, in lexicographic vertex order; its
    bitsets take n!²/8 bytes, 3.2 MB at n = 7.

    For 1 < d < n the kernel of ``graph_on`` runs on half the rows.
    Relabelling by w0 (label x to n+1-x) keeps every distance and reverses
    the order, so w0∘w has rank N-1-rank(w) among the N = n! vertices, and
    row N-1-r is row r mirrored: bit j moved to bit N-1-j.  w0 takes the
    pair with code x to the pair with code n²-1-x, so the holders of pair x
    among the upper half are the mirror of the lower half's holders of pair
    n²-1-x.  The pair codes come from ``perm._pair_columns``, and
    the holders, plane adder and comparator run for the N/2 lower rows only,
    2,520 of the 5,040 at n = 7, at the price of n² holder mirrors and N/2
    row mirrors of N bits each, both through ``_mirrors``.
    """
    _int_in("n", n)
    if n > GRAPH_MAX_N:
        raise ValueError(f"n={n} exceeds graph guard {GRAPH_MAX_N} (n! vertices)")
    _int_in("design distance", d)
    verts = tuple(itertools.permutations(range(1, n + 1)))
    if not 1 < d < n:
        return BlockGraph(n, d, verts, tuple(_neighbor_bits(verts, n, d)))
    count = len(verts)  # n! is even for n >= 2
    columns = [column[:count // 2] for column in _pair_columns(n)]
    low = _holders(columns, n)
    holders = list(map(or_, low, _mirrors(reversed(low), count)))
    rows = _sharing(columns, holders, n - d, range(count // 2), count)
    return BlockGraph(n, d, verts, (*rows, *_mirrors(reversed(rows), count)))


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
    columns = _code_columns(verts, n)
    holders = _holders(columns, n)
    bits = _sharing(columns, holders, n - min(d, n), range(len(verts)), len(verts))
    p_edges = sum(map(int.bit_count, bits)) // 2
    # later[i] keeps the neighbors j > i, so each triangle i < j < k is
    # counted once, as a bit of later[i] & later[j] on its edge (i, j).
    later = [b >> i + 1 << i + 1 for i, b in enumerate(bits)]
    triangles = sum((row & later[j]).bit_count() for row in later for j in _indices(row))
    # Edges on the sphere at distance d-1 whose two sets together hold every
    # identity pair, so that no identity pair is missing from both.  The ball
    # runs sphere by sphere, so that sphere is its tail, and the later
    # neighbors of its vertices lie in it too.  A ring vertex misses d-1
    # identity pairs, so its count is its later neighbors that hold them all:
    # later[i] and the holders of each, at most d-1 ANDs.
    ids = set(range(1, n * n - n, n + 1))  # (a-1)·n + a: the identity's pairs (a, a+1)
    ring = range(sum(k < d - 1 for _, k in ball), len(verts))
    zero_x = sum(functools.reduce(and_, map(holders.__getitem__, ids.difference(
        [column[i] for column in columns])), later[i]).bit_count() for i in ring)
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
    return CodeBook._built(g.n, g.d, words, f"greedy-{order}")


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


def _grow(rows: list[int], bits: list[int], chosen: list[int], cand: int, best: list[int],
          limit: int, finished=None) -> int:
    """Search every independent extension of chosen by vertices of the
    bitset cand, replacing best's contents whenever chosen outgrows it, and
    stop the whole search once best holds limit vertices (a bound on its size).
    Returns the number of search nodes taken, this one included.

    A vertex is named by its index: the ``bit_length`` of its bit, so that
    bits[b] is 1 << b-1.  rows[b] holds b's neighbors and any vertex that no
    set larger than the incumbent holds together with b (``_translates``):
    choosing b drops them, and the clique cover reads the same rows.  If
    given, finished(b, cand) is called after each branch b of this node that
    took at least as many nodes as there are candidates left, with those
    candidates, and returns the ones to keep.

    Not a closure: one that calls itself is a reference cycle, which keeps
    each search's bitsets alive until a full collection.
    """
    room = len(best) - len(chosen)
    if room < 0:
        best[:] = chosen
        room = 0
    if cand.bit_count() <= room:
        return 1
    # Cover cand by `room` cliques, one at a time (see exact_independent_set),
    # each step from the highest bit left.  A set that beats the incumbent,
    # which only grows, takes at most one vertex per clique, so only the
    # vertices still left can push past it: the branch set, lowest bit first.
    left = cand
    for _ in range(room):
        q = left
        while q:
            b = q.bit_length()
            left ^= bits[b]
            q &= rows[b]
        if not left:
            return 1
    nodes = 1
    while left:
        bit = left & -left
        left ^= bit
        cand ^= bit
        b = bit.bit_length()
        chosen.append(b)
        below = _grow(rows, bits, chosen, cand & ~rows[b], best, limit)
        nodes += below
        chosen.pop()
        if len(best) >= limit:
            return nodes
        if finished and below >= cand.bit_count():
            cand = finished(b, cand)
            left &= cand
    return nodes


def _translates(words: list[Perm], rows: list[int], b: int, cand: int) -> int:
    """Isomorph rejection by the distance-keeping maps of S_n, called after
    the root branch on index b of a search that fixes one word g0 on all of
    S_n, with the root's candidates left.  words[i] is the word at bit i, g0
    at the top bit, and rows[i + 1] is the row of bit i, as ``_grow`` reads
    it.  Returns the root's candidates to keep.

    In coordinates where g0 is the identity e, the finished branch has
    bounded by the incumbent every independent set that holds e and r =
    g0⁻¹∘(b's word).  The map φ(p) = w0∘p∘w0, with w0 the reversal, fixes e
    and keeps every distance, so it bounds every set that holds e and
    ρ = φ(r) too.  Left translation keeps distances, so a set that holds x
    and x∘s, for s = r or ρ, moved by x⁻¹, is such a set.  From now on the
    rows join w and w∘s; in raw words too, since g0⁻¹∘(w∘s) equals
    (g0⁻¹∘w)∘s.  g0 is in every set searched, so the root drops its
    partners g0∘r⁻¹, g0∘ρ and g0∘ρ⁻¹; its other partner, g0∘r, is b's word
    itself.  The update maps the words back to their bits afresh on each
    call, then makes one pass over the candidates left per s, so ``_grow``
    calls it only after a branch whose search took at least as many nodes.
    """
    labels = dict(zip(words, itertools.count()))
    root = len(words) - 1  # g0's bit
    r = compose(inverse(words[root]), words[b - 1])
    among = cand | 1 << root
    for s in {r, tuple(len(r) + 1 - c for c in reversed(r))}:  # r and w0∘r∘w0
        right = itemgetter(*[c - 1 for c in s])  # w ↦ w∘s
        for x in _indices(among):
            y = labels.get(right(words[x]))
            if y is not None and among >> y & 1:
                rows[x + 1] |= 1 << y
                rows[y + 1] |= 1 << x
    return cand & ~rows[root + 1]


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
    partition that first fit in label order builds, because first fit puts a
    vertex in clique k exactly when it is in no earlier clique and adjacent
    to every lower vertex already in clique k.  After as many cliques as the
    incumbent leaves room for, the vertices still uncovered are the branch
    set.  The search runs on the candidates relabelled in ascending order of
    their degree among the candidates, ties by index: Tomita and Seki's MCQ
    order, read in the complement.  The cover then starts its cliques from
    the vertices with fewest candidate neighbors, and the branching takes the
    vertices with most first.  Label k of L sits at bit L-1-k, so the lowest
    label left is the top bit, and each cover step is one ``bit_length``, one
    XOR and one AND; the branching takes the lowest bit first.  The relabelled
    rows come from ``_neighbor_bits`` on the candidate words in reverse label
    order, the kernel that built the graph.

    The vertices are distinct permutations of 1..n, so n! of them are all of
    S_n, in any order, and the graph is a Cayley graph.  It is regular, so one
    greedy order seeds the search, and vertex-transitive, so some maximum
    independent set holds vertex 0 and the search fixes it there; the
    candidates are then the non-neighbors of vertex 0.  A clique is an
    anticode, so no independent set exceeds n! // ``_anticode_size(n, d)``,
    the code-anticode bound, and the search stops, or never starts, once the
    incumbent has that many words: 4 at (4, 3), 20 at (5, 3), 120 at (6, 2)
    and 6 at (6, 5).  Any other vertex set is seeded from both orders, and
    all of its vertices are candidates, searched from the empty set with no
    bound but their number.

    The left translations that make the graph vertex-transitive also prune
    the search on S_n, with the map p ↦ w0∘p∘w0 that fixes vertex 0's word:
    once the root branch on u has finished, its translates and their images
    under the map join the search rows (``_translates``).  Search nodes
    (calls of ``_grow``): 2,515 at (5, 3) in 61,147 cover steps, 3,342 with
    the translates but not their images and 9,025 with neither; 4 at (4, 3),
    59 at (5, 4) and 85 at (6, 5), where no root branch searches long enough
    to pay for its translates; none where the seed meets the bound, as at
    d <= 2 and at d = n for n <= 6.
    """
    count = len(g.vertices)
    if count > EXACT_MAX_VERTICES:
        raise ValueError(f"{count} vertices exceed exact-solver guard {EXACT_MAX_VERTICES}")
    adj = g.bits
    seed = _greedy(g, "lexicographic")  # checks n and d before n! is taken
    everything = (1 << count) - 1
    if count == math.factorial(g.n):
        limit = count // _anticode_size(g.n, g.d)
        fixed, cand = [0], everything & ~(adj[0] | 1)
    else:
        seed = max(seed, _greedy(g, "degree"), key=len)
        limit, fixed, cand = count, [], everything
    if len(seed) < limit:
        # Vertex 0 keeps label 0 on S_n.  The sort is stable, so ties stay in
        # index order.
        order = fixed + sorted(_indices(cand), key=lambda v: (adj[v] & cand).bit_count())
        top = len(order)
        by_bit = [g.vertices[v] for v in reversed(order)]  # label k at bit top-1-k
        rows = [0, *_neighbor_bits(by_bit, g.n, g.d)]  # by bit_length, as are bits
        bits = [0, *map((1).__lshift__, range(top))]
        best = [None] * len(seed)  # only its size counts until the search outgrows the seed
        # label 0 has no neighbors among the labels, so rows[top] starts empty
        finished = functools.partial(_translates, by_bit, rows) if fixed else None
        _grow(rows, bits, [top] * len(fixed), (1 << top - len(fixed)) - 1, best, limit, finished)
        if len(best) > len(seed):
            seed = [order[top - b] for b in best]
    words = tuple(sorted(g.vertices[v] for v in seed))
    return CodeBook._built(g.n, g.d, words, "exact-independent")


def neighborhood_stats_payload(stats: NeighborhoodStats) -> dict:
    return {
        "delta": stats.delta,
        "p_edges": stats.p_edges,
        "triangles": stats.triangle_count,
        "zero_x_edges": stats.zero_x_edge_count,
    }
