"""Code constructions for the block permutation metric.

A code is a set of permutations whose pairwise block distance is at least a
design distance d.  This module builds them four ways:

* syndrome classes: adjacent pairs are labelled with prime-field elements and
  each permutation is mapped to the first d-1 elementary symmetric values of
  its labels; for 2 <= d <= n-1, permutations sharing that syndrome are at
  distance >= d, so each fiber is a code and the fibers partition S_n (the
  scans of S_n work in n's own field, q = ``select_prime(n)``, on power-sum
  lanes cached per (n, k), at most 270,414 bytes in all; ``syndrome`` and
  ``in_syndrome_class`` take any ``PairEncoder``),
* cyclic-class representatives: one permutation per rotation class gives a
  distance-2 code of size (n-1)!,
* maximum-distance families for d = n-1: an arithmetic construction for even
  n, a multiplication-table construction when n+1 is prime, and for small odd
  n a backtracking search for a Hamiltonian decomposition of the complete
  digraph on n+1 vertices (adding a hub vertex turns each permutation into a
  directed Hamiltonian cycle; n arc-disjoint cycles give n codewords whose
  adjacency pairs partition all ordered pairs).
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections import Counter, defaultdict
from operator import itemgetter
from typing import NamedTuple

from .enumeration import DEFAULT_MAX_N, identity_sphere
from .perm import (Perm, _at_least, _check_words, _chunks, _holders, _int_in, _pair_columns,
                   _parse_labels, _planes, _unrank, format_permutation, parse_permutation)

PAIRWISE_MAX_WORDS = 10_000
HAM_SEARCH_MAX_N = 17


class _CodeBookFields(NamedTuple):
    n: int
    design_distance: int
    words: tuple[Perm, ...]
    provenance: str


class CodeBook(_CodeBookFields):
    """A set of same-size permutations with construction metadata.  The
    design distance d is 1 <= d <= n, as for the solvers: two words are at
    most n-1 apart, and a one-word code is n apart by convention.  Words and
    d are checked on construction, also through ``_make`` and ``_replace``;
    the library's own builders skip it through ``_built`` (see ``perm``)."""

    __slots__ = ()

    def __new__(cls, n: int, design_distance: int, words: tuple[Perm, ...], provenance: str):
        _check_words(words, n)
        _int_in("design distance", design_distance, 1, n)
        return super().__new__(cls, n, design_distance, words, provenance)

    @classmethod
    def _make(cls, iterable) -> "CodeBook":
        """Through ``__new__``, so ``_replace`` checks too; the inherited one
        counts the fields with ``len``, which here counts the words."""
        return cls(*iterable)

    @classmethod
    def _built(cls, *fields) -> "CodeBook":
        """The code of fields whose words and d the library made, unchecked."""
        return tuple.__new__(cls, fields)

    def __len__(self) -> int:
        return len(self.words)


# -- prime field and pair labelling ------------------------------------------


def _is_prime(m: int) -> bool:
    return m > 1 and all(m % f for f in range(2, math.isqrt(m) + 1))


def select_prime(n: int) -> int:
    """Smallest prime q >= n(n-1)/2, for n >= 2, so every unordered pair of
    labels gets a distinct field element.  Bertrand's postulate keeps q <= n(n-1)."""
    _int_in("n", n, 2)
    q = max(n * (n - 1) // 2, 2)
    while not _is_prime(q):
        q += 1
    return q


class _PairEncoderFields(NamedTuple):
    n: int
    q: int


class PairEncoder(_PairEncoderFields):
    """Orientation-insensitive labels for pairs of [n] as elements of F_q,
    n >= 1 and q a prime at least n(n-1)/2.

    {x, y} maps to its lexicographic rank among the n(n-1)/2 unordered pairs,
    so two ordered pairs collide exactly when they are the same pair or each
    other's reversal.  Any injection on unordered pairs would do; the rank is
    fixed for reproducibility.
    """

    __slots__ = ()

    def __new__(cls, n: int, q: int):
        _int_in("n", n)
        _int_in("field size", q, n * (n - 1) // 2)
        if not _is_prime(q):  # the fiber distance proof needs a field
            raise ValueError(f"field size {q} is not prime")
        return super().__new__(cls, n, q)

    @classmethod
    def _make(cls, iterable) -> "PairEncoder":
        """Through ``__new__``, so ``_replace`` checks too."""
        return cls(*iterable)

    @classmethod
    def for_n(cls, n: int) -> "PairEncoder":
        return cls(n, select_prime(n))

    def value(self, x: int, y: int) -> int:
        a, b = (x, y) if x < y else (y, x)
        if a < 1 or b > self.n or a == b:
            raise ValueError(f"not a pair of distinct labels in [1, {self.n}]: ({x}, {y})")
        return _pair_rank(self.n, a, b)


def _pair_rank(n: int, a: int, b: int) -> int:
    """Lexicographic rank of the pair a < b among the pairs of [n]."""
    return (a - 1) * n - (a - 1) * a // 2 + (b - a - 1)


def syndrome(p: Perm, d: int, enc: PairEncoder) -> tuple[int, ...]:
    """First d-1 elementary symmetric values of p's encoded adjacent pairs, d >= 2.

    e_k is the coefficient of X^k in prod_g (1 + g X) over the n-1 pair labels
    g, which needs no division.  If d-1 exceeds n-1 the surplus coordinates
    are zero (there are only n-1 pair labels to multiply), so the product
    keeps m = min(d-1, n-1) terms: e_0..e_m as lanes of one int, e_k at bit
    k·width (Kronecker substitution), read mod q at the end.

    No lane carries while width covers every lane's value.  The labels are
    pair ranks, at most L = n(n-1)/2 - 1 in any field, so exactly
    e_k <= C(n-1, k)·L^k <= ((n-1)L)^k, and m·bitlen((n-1)L) bits, in whole
    bytes with a bit to spare, cover the whole product.

    Work: n-1 steps of one shift, multiply, add and mask, ``(poly + g *
    (poly << width)) & mask``, each linear in the int's (m+1)·width bits,
    about m²·bitlen((n-1)L), so d beyond n adds only its zero coordinates
    and q none.  The time per label grows with m²: the int is 24 bytes at
    (40, 4), 5,985 at (300, 45), 269,400 at (300, 300) and 3,622,000 at
    (1000, 1000).  In n's own field, lanes reduced mod q once per 20 labels
    would stay near 21·bitlen(q) bits and are faster past about d = 30, 39
    times at (1000, 1000); one width is kept for its simplicity, since the
    benchmark's calls have n <= 40 and d <= 5.
    """
    n = enc.n
    if len(p) != n:
        raise ValueError(f"permutation size {len(p)} does not match encoder n={n}")
    _int_in("design distance", d, 2)
    _check_words((p,), n)
    q = enc.q
    m = min(d - 1, n - 1)
    # bytes per lane; e_0 = 1 needs a bit even at n = 1
    size = m * ((n - 1) * (n * (n - 1) // 2 - 1)).bit_length() // 8 + 1
    width = 8 * size
    total = size * (m + 1)
    mask = (1 << 8 * total) - 1
    odd, past = 2 * n - 1, n + 1
    poly = 1
    for a, b in zip(p, p[1:]):
        if a > b:
            a, b = b, a
        # g = _pair_rank(n, a, b) = a(2n-1-a)/2 + b - (n+1)
        poly = (poly + ((a * (odd - a) >> 1) + b - past) * (poly << width)) & mask
    raw = poly.to_bytes(total, "little")
    return tuple([int.from_bytes(raw[i:i + size], "little") % q
                  for i in range(size, total, size)]) + (0,) * (d - 1 - m)


# -- syndrome fibers on packed power sums -------------------------------------
#
# A multiset of labels in F_q is keyed by its power sums p_k = sum g^k mod q,
# k = 1..m, packed one byte each into one integer, p_k as byte k-1.  Newton's
# identities k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i turn power sums into
# elementary symmetric values and back; k <= m < q is invertible mod q, so the
# map is a bijection and a fiber keyed by its packed power sums is the same
# fiber as the one keyed by its syndrome.  The scans stop at n =
# DEFAULT_MAX_N = 8, where q = 29, so the n-1 terms of a lane, each below q,
# sum to at most (n-1)(q-1) = 196 and add in a byte without carrying.


def _encode(f, q: int) -> int:
    """The packed power sums of the labels whose elementary symmetric values
    mod q are f, by Newton's identities solved for p_k, for q <= 256."""
    e = (1, *f)
    p: list[int] = []
    for k in range(1, len(e)):
        t = k * e[k] - sum((-1) ** (i - 1) * e[k - i] * p[i - 1] for i in range(1, k))
        p.append((-1) ** (k - 1) * t % q)
    return int.from_bytes(bytes(p), "little")


def _decode(keys, m: int, q: int) -> list[tuple[int, ...]]:
    """The syndromes (e_1..e_m mod q) of packed power-sum keys, inverting
    ``_encode`` column-wise: each Newton term is one pass over all keys."""
    p = [[key >> s & 255 for key in keys] for s in range(0, 8 * m, 8)]
    # p_i times (-1)^(i-1), so k e_k = sum_{i=1..k} e_{k-i} p_i has no signs
    p = [column if i % 2 else [-x for x in column] for i, column in enumerate(p, 1)]
    e: dict[int, list[int]] = {}
    for k in range(1, m + 1):
        terms = p[k - 1]  # i = k, times e_0 = 1
        for i in range(1, k):
            terms = [t + x * y for t, x, y in zip(terms, e[k - i], p[i - 1])]
        inverse = pow(k, -1, q)
        e[k] = [t * inverse % q for t in terms]
    return list(zip(*e.values()))


def _fiber_field(n: int, d: int) -> int:
    """n's own field size, once n and d admit a scan of the fibers."""
    # Fibers are codes of distance d only for 2 <= d <= n-1: a word and its
    # reverse share every syndrome and lie at distance n-1.  No d is left below n = 3.
    _int_in("n", n, 3)
    _int_in("design distance", d, 2, n - 1)
    if n > DEFAULT_MAX_N:
        raise ValueError(f"n={n} exceeds enumeration guard {DEFAULT_MAX_N}")
    return select_prime(n)


def _code_columns(words, n: int) -> list:
    """The pair codes of any words, one ``array`` per place, as
    ``perm._pair_columns`` gives them for S_n.  Each place is one int with a lane
    per word wide enough for a·n + b, so a column is one multiply-add,
    a·n + b - (n+1), that neither carries nor borrows."""
    from array import array  # a shared library, loaded only where words are scanned
    size = 1 << ((n * n + n).bit_length() - 1 >> 3).bit_length()  # bytes per lane: 1, 2, 4, 8
    kind = "BHIQ"[size.bit_length() - 1]
    flat = array(kind, itertools.chain.from_iterable(words))
    places = [int.from_bytes(flat[i::n], sys.byteorder) for i in range(n)]
    lanes = (n + 1) * int.from_bytes(array(kind, [1]) * len(words), sys.byteorder)
    return [array(kind, (a * n + b - lanes).to_bytes(size * len(words), sys.byteorder))
            for a, b in zip(places, places[1:])]


@functools.cache
def _lane(n: int, k: int) -> bytes:
    """The power sums p_k mod q of the pair labels of every word of S_n in
    n's own field, one byte per word in lexicographic order, for
    3 <= n <= DEFAULT_MAX_N and 1 <= k <= n-2.  Each of the n-1
    ``_pair_columns`` is translated to g^k mod q of its pairs' labels g, the
    columns are summed as little-endian integers, one byte per word and no
    carry, and one more translate reduces the sums mod q.

    Cached per (n, k), as the columns are per n, since every fiber scan at n
    reads lanes 1..d-1: the lanes of every n up to the guard take at most
    sum (n-2)·n! = 270,414 bytes.
    """
    q = select_prime(n)
    columns = _pair_columns(n)
    # the label of each pair code; no word holds a pair (a, a)
    labels = [_pair_rank(n, *sorted(pair)) for pair in itertools.product(range(1, n + 1), repeat=2)]
    table = bytes(pow(g, k, q) for g in labels).ljust(256, b"\0")
    total = sum(int.from_bytes(column.translate(table), "little") for column in columns)
    return total.to_bytes(len(columns[0]), "little").translate(bytes(x % q for x in range(256)))


def _word_keys(n: int, m: int) -> memoryview:
    """The packed power sums of m lanes of the pair labels of every word of
    S_n in n's own field, in lexicographic order, as a memoryview of ints,
    for 3 <= n <= DEFAULT_MAX_N and 1 <= m <= n-2.  Each key sits in a slot
    of m bytes rounded up to 1, 2, 4 or 8, in a fresh buffer; byte k-1 of a
    slot is ``_lane(n, k)``, built once per (n, k) and shared by every scan.
    """
    size = 1 << (m - 1).bit_length()  # bytes per slot
    keys = bytearray(size * math.factorial(n))
    for k in range(1, m + 1):
        # byte k-1 of a key, in the machine's order
        keys[k - 1 if sys.byteorder == "little" else size - k::size] = _lane(n, k)
    return memoryview(keys).cast("BHIQ"[size.bit_length() - 1])


def _fiber(n: int, d: int, keys: memoryview, key: int) -> CodeBook:
    """The code of the words of S_n whose place in keys holds key.  The key's
    bytes are found in the buffer by ``bytes.find``, and a hit counts only at
    a multiple of the item size (elsewhere it straddles two keys)."""
    words, size = keys.obj, keys.itemsize
    needle = key.to_bytes(size, sys.byteorder)
    ranks = []
    at = -1
    while (at := words.find(needle, at + 1)) >= 0:
        if not at % size:
            ranks.append(at // size)
    return CodeBook._built(n, d, tuple(_unrank(n, r) for r in ranks), "syndrome")


def syndrome_classes(n: int, d: int) -> dict[tuple[int, ...], list[Perm]]:
    """Partition of all of S_n into syndrome fibers in n's own field, each a
    code of distance >= d, for 2 <= d <= n-1.

    Keys come in the order of their fiber's first word and words in
    lexicographic order, as bucketing ``itertools.permutations`` by
    ``syndrome`` gives.  The words are filed under their packed power sums
    from ``_word_keys``; the keys then become syndromes by Newton's
    identities, one pass over all fibers per term.
    """
    q = _fiber_field(n, d)
    buckets: dict[int, list[Perm]] = defaultdict(list)
    for key, word in zip(_word_keys(n, d - 1), itertools.permutations(range(1, n + 1))):
        buckets[key].append(word)
    return dict(zip(_decode(buckets, d - 1, q), buckets.values()))


def _syndrome_vector(d: int, f, q: int) -> tuple[int, ...]:
    """f reduced mod q, checked to have the d-1 int coordinates of a syndrome."""
    if len(f) != d - 1:
        raise ValueError(f"syndrome must have d-1 = {d - 1} coordinates, got {len(f)}")
    if not {int}.issuperset(map(type, f)):
        raise ValueError(f"syndrome coordinates must be ints, got {f!r}")
    return tuple(v % q for v in f)


def in_syndrome_class(p: Perm, d: int, f, enc: PairEncoder) -> bool:
    """Membership test for the fiber of f, usable at any n (no group scan)."""
    return syndrome(p, d, enc) == _syndrome_vector(d, f, enc.q)


def syndrome_class(n: int, d: int, f) -> CodeBook:
    """The code {p in S_n : syndrome(p) = f} in n's own field, of distance
    >= d for 2 <= d <= n-1, words in lexicographic order; empty when f is missed.

    f, checked before the scan, is keyed once, and the words with its key in
    ``_word_keys`` are unranked.  For n beyond the scan guard, test
    individual permutations with ``in_syndrome_class`` instead.
    """
    q = _fiber_field(n, d)
    target = _encode(_syndrome_vector(d, f, q), q)
    return _fiber(n, d, _word_keys(n, d - 1), target)


def largest_syndrome_class(n: int, d: int) -> CodeBook:
    """A maximum-cardinality syndrome fiber in n's own field, for
    2 <= d <= n-1; at least n!/q^(d-1) words by pigeonhole.  Ties break
    toward the smallest syndrome vector, decoded from every tied key."""
    q = _fiber_field(n, d)
    keys = _word_keys(n, d - 1)
    counts = Counter(keys)
    size = max(counts.values())
    tied = [key for key, count in counts.items() if count == size]
    best = min(zip(_decode(tied, d - 1, q), tied))[1]
    return _fiber(n, d, keys, best)


# -- explicit families --------------------------------------------------------


def cyclic_class_code(n: int) -> CodeBook:
    """One representative per rotation class, n >= 2: all permutations ending in n.

    Two permutations are at distance 1 exactly when one is a rotation of the
    other, so distinct representatives are at distance >= 2.
    """
    _int_in("n", n, 2)
    words = tuple(p + (n,) for p in itertools.permutations(range(1, n)))
    return CodeBook._built(n, 2, words, "cyclic")


def even_n_code(n: int) -> CodeBook:
    """n codewords at pairwise distance n-1, for even n >= 2.

    The i-th word starts at i and advances by the fixed gap sequence
    a_j = j for odd j and a_j = n - j for even j, all mod n (residue 0 is
    written n).  The prefix sums of the gaps are distinct mod n, so each word
    is a permutation, and each difference arises from exactly one gap, so the
    adjacency pairs of the n words partition all n(n-1) ordered pairs.  The
    n prefix sums mod n are one ``itemgetter``, and word i is its pick from
    the labels i, ..., n, 1, ..., i-1.
    """
    _int_in("n", n, 2)
    if n % 2:
        raise ValueError(f"n must be even, got {n}")
    gaps = [j if j % 2 else n - j for j in range(1, n)]
    pick = itemgetter(*[s % n for s in itertools.accumulate(gaps, initial=0)])
    labels = [*range(1, n + 1)] * 2
    return CodeBook._built(n, n - 1, tuple(pick(labels[i:i + n]) for i in range(n)), "even")


def zn1_code(n: int) -> CodeBook:
    """n codewords at pairwise distance n-1, for n >= 2 with n+1 prime.

    The i-th word is (i, 2i, ..., ni) mod n+1; each ordered pair (a, b)
    appears in exactly one word, the one with i = b - a mod n+1.
    """
    _int_in("n", n, 2)
    if not _is_prime(n + 1):
        raise ValueError(f"need n+1 prime, got n+1 = {n + 1}")
    m = n + 1
    words = tuple(tuple(k * i % m for k in range(1, m)) for i in range(1, m))
    return CodeBook._built(n, n - 1, words, "zn1")


def _hub_cycles(n: int, path: list[int], seen: int, free: list[int],
                cycles: list[tuple[int, ...]]) -> bool:
    """Close path, a path from the hub 0 over the vertex set seen, into a
    Hamiltonian cycle on free arcs, then find the rest of n arc-disjoint
    Hamiltonian cycles of the complete digraph on {0, ..., n}; True once
    cycles holds all n.

    free[u] is the bitset of u's unused out-arcs, tried lowest first.  Cycle
    i leaves the hub toward i, which only fixes the order of the unordered
    cycles, so the hub's out-arcs need no record.  Not a closure: one that
    calls itself is a reference cycle.
    """
    u = path[-1]
    if len(path) > n:
        if not free[u] & 1:
            return False
        free[u] ^= 1
        cycles.append(tuple(path))
        i = len(cycles) + 1
        if i > n or _hub_cycles(n, [0, i], 1 | 1 << i, free, cycles):
            return True
        cycles.pop()
        free[u] ^= 1
        return False
    options = free[u] & ~seen
    while options:
        bit = options & -options
        options ^= bit
        free[u] ^= bit
        path.append(bit.bit_length() - 1)
        if _hub_cycles(n, path, seen | bit, free, cycles):
            return True
        path.pop()
        free[u] ^= bit
    return False


def ham_decomp_code(n: int) -> CodeBook | None:
    """Hamiltonian-decomposition code for odd n >= 1, or None when none exists.

    Dropping the hub from each cycle of a decomposition found by
    ``_hub_cycles`` leaves n codewords at pairwise distance n-1.  Cycle 1 is
    fixed to 0 -> 1 -> ... -> n -> 0, as relabelling 2..n maps any
    decomposition to one with that cycle, and only cycles 2..n are searched
    (at n = 5 in 356 calls, against 10,271 with cycle 1 searched too).  The
    search is exhaustive, so None is a proof of nonexistence at this n (the
    n = 3 and n = 5 cases are the known failures).
    """
    _int_in("n", n)
    if n % 2 == 0:
        raise ValueError(f"hub-cycle search applies to odd n, got {n}")
    if n > HAM_SEARCH_MAX_N:
        raise ValueError(f"n={n} exceeds search guard {HAM_SEARCH_MAX_N}")
    every = (1 << n + 1) - 1
    cycles = [tuple(range(n + 1))]
    free = [every ^ 1 << u ^ 1 << (u + 1) % (n + 1) for u in range(n + 1)]
    if n > 1 and not _hub_cycles(n, [0, 2], 0b101, free, cycles):
        return None
    return CodeBook._built(n, max(n - 1, 1), tuple(cycle[1:] for cycle in cycles), "hamdecomp")


# -- verification -------------------------------------------------------------


def verify_min_distance(code: CodeBook) -> int:
    """Exact minimum pairwise block distance; n by convention for <= 1 word.

    The top end comes first.  Two words are n-1 apart exactly when they share
    no adjacent pair, and a word's n-1 pairs are distinct, so a code of N
    words is n-1 apart exactly when it holds N(n-1) distinct pairs.  Each
    word holds n-1 of the n(n-1) ordered pairs, so by pigeonhole no code of
    more than n words can pass, and those skip the test.  The d = n-1
    families, whose pairs partition all n(n-1), end here.

    Otherwise the bottom end.  By left-invariance, words w and w' are r
    apart exactly when w' = w∘s for some s on the identity's sphere r.
    Sphere 1 is the n-1 non-trivial rotations: keyed by its rotation that
    puts label 1 first, two words share a key exactly when they are 1 apart.
    Sphere 2 is probed, one ``itemgetter`` per s over all N words, when its
    n·N·|S_2| labels, |S_2| = 3·C(n-1, 2), stay within the N(N-1)/2 pairs a
    pairwise check compares: when N > 3n(n-1)(n-2).  A hit is the minimum 2;
    otherwise ``_plane_min`` finishes from floor 3, and below the threshold
    from floor 2.  Sphere 3 is never worth a probe: its labels need N >=
    2n(|S_2| + |S_3|) + 1 words, at least 3 apart once sphere 2 has missed,
    so N <= n! // ``_anticode_size(n, 3)``, and no n meets both within the
    pairwise guard.  At n = 2 and 3 the top end and the rotation keys
    always answer first.

    The 5040-word ``cyclic_class_code(8)`` ends after 5,040 rotation keys
    and two s of sphere 2, 2 × 5,040 words picked, where ``_plane_min``
    would add bit planes over all 12,698,280 pairs of words;
    ``even_n_code(60)`` ends after one set of its 3,540 pairs.
    """
    words = code.words
    count = len(words)
    if count > PAIRWISE_MAX_WORDS:
        raise ValueError(f"{count} words exceed pairwise guard {PAIRWISE_MAX_WORDS}")
    if count <= 1:
        return code.n
    n = code.n
    # the pair (a, b) as the int a·n + b: a set of N(n-1) tuples feeds the cyclic GC
    if count <= n and len({a * n + b for w in words for a, b in zip(w, w[1:])}) == count * (n - 1):
        return n - 1
    if len({w[i:] + w[:i] for w in words for i in (w.index(1),)}) < count:
        return 1
    if count <= 3 * n * (n - 1) * (n - 2):
        return _plane_min(words, n, 2)
    members = set(words)
    for s in identity_sphere(n, 2):
        if not members.isdisjoint(map(itemgetter(*[i - 1 for i in s]), words)):
            return 2
    return _plane_min(words, n, 3)


def _plane_min(words, n: int, floor: int) -> int:
    """The minimum distance of two or more distinct words of S_n, no two of
    them closer than floor, 1 <= floor <= n-1, unchecked.

    Words sharing s adjacent pairs are n-1-s apart, so the minimum is n-1
    less the most pairs two words share, which is at most n-1-floor.  The
    kernel of ``perm`` takes the words a chunk of rows at a time, first 16
    rows, so that a close pair among the first words ends the scan early,
    and then runs of ``perm._chunks``.  For each chunk, ``perm._at_least``
    asks whether any row has another word sharing one pair more than the most
    so far, until none has; that is at most one round per chunk and
    n-1-floor more, and a most of n-1-floor is distance floor and ends it.
    At floor n-1 no two words share a pair, so no round finds one.
    """
    top = n - 1 - floor
    most = 0  # the most pairs two words share so far
    columns = _code_columns(words, n)
    holders = _holders(columns, n)
    rows = range(len(words))
    for chunk in itertools.chain([rows[:16]], _chunks(rows[16:], len(words))):
        planes = _planes(columns, holders, chunk)
        others = [~(1 << i) for i in chunk]
        while any(_at_least(planes, most + 1, others)):
            most += 1
            if most == top:
                return floor
    return n - 1 - most


# -- file and JSON formats ----------------------------------------------------
#
# Text format: header line "n d provenance", then one permutation per line.
# The JSON payload adds the minimum distance, computed and never read back.


def codebook_to_text(code: CodeBook) -> str:
    header = f"{code.n} {code.design_distance} {code.provenance}"
    return "\n".join([header, *map(format_permutation, code.words)]) + "\n"


def codebook_from_text(text: str, d: int | None = None) -> CodeBook:
    """A code file: JSON if it starts with ``{``; given d, bare words at distance
    d if the first line is a permutation; else a header, then the words."""
    if text.lstrip().startswith("{"):
        import json
        return codebook_from_payload(json.loads(text))
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty code file")
    if d is not None:
        try:
            first = parse_permutation(lines[0])
        except ValueError:
            pass
        else:
            return CodeBook(len(first), d, (first, *map(_parse_labels, lines[1:])), "file")
    try:
        n, dist, provenance = lines[0].split(maxsplit=2)
        n, dist = int(n), int(dist)
    except ValueError:
        raise ValueError(f"malformed header {lines[0]!r}; expected 'n d provenance'") from None
    return CodeBook(n, dist, tuple(map(_parse_labels, lines[1:])), provenance)


def codebook_payload(code: CodeBook) -> dict:
    verified = verify_min_distance(code) if len(code) <= PAIRWISE_MAX_WORDS else None
    return {
        "n": code.n,
        "d": code.design_distance,
        "provenance": code.provenance,
        "verified_min_distance": verified,  # null past the pairwise guard
        "words": [list(w) for w in code.words],
    }


def codebook_from_payload(payload: dict) -> CodeBook:
    """The code of a ``codebook_payload``; its stored distance is ignored."""
    try:
        return CodeBook(payload["n"], payload["d"], tuple(map(tuple, payload["words"])),
                        str(payload["provenance"]))
    except KeyError as key:
        raise ValueError(f"code payload lacks {key}") from None
    except TypeError as exc:  # a value of the wrong JSON type, such as "words": 5
        raise ValueError(f"malformed code payload: {exc}") from None
