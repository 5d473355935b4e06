"""Code constructions for the block permutation metric.

A code is a set of permutations whose pairwise block distance is at least a
design distance d.  This module builds them four ways:

* syndrome classes: adjacent pairs are labelled with prime-field elements and
  each permutation is mapped to the first d-1 elementary symmetric values of
  its labels; for 2 <= d <= n-1, permutations sharing that syndrome are at
  distance >= d, so each fiber is a code and the fibers partition S_n,
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

import itertools
import json
from dataclasses import dataclass
from operator import add, mul, neg, sub

from .enumeration import DEFAULT_MAX_N
from .perm import (Perm, _check_words, _int_in, _parse_labels, _shared_planes,
                   format_permutation, parse_permutation)

PAIRWISE_MAX_WORDS = 10_000
HAM_SEARCH_MAX_N = 17


@dataclass(frozen=True)
class CodeBook:
    """A set of same-size permutations with construction metadata."""

    n: int
    design_distance: int
    words: tuple[Perm, ...]
    provenance: str

    def __post_init__(self):
        _check_words(self.words, self.n)
        _int_in("design distance", self.design_distance)

    def __len__(self) -> int:
        return len(self.words)


# -- prime field and pair labelling ------------------------------------------


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def select_prime(n: int) -> int:
    """Smallest prime q >= n(n-1)/2, for n >= 2, so every unordered pair of
    labels gets a distinct field element.  Bertrand's postulate keeps q <= n(n-1)."""
    _int_in("n", n, 2)
    q = max(n * (n - 1) // 2, 2)
    while not _is_prime(q):
        q += 1
    return q


@dataclass(frozen=True)
class PairEncoder:
    """Orientation-insensitive labels for pairs of [n] as elements of F_q,
    n >= 1 and q a prime at least n(n-1)/2.

    {x, y} maps to its lexicographic rank among the n(n-1)/2 unordered pairs,
    so two ordered pairs collide exactly when they are the same pair or each
    other's reversal.  Any injection on unordered pairs would do; the rank is
    fixed for reproducibility.
    """

    n: int
    q: int

    def __post_init__(self):
        _int_in("n", self.n)
        _int_in("field size", self.q, self.n * (self.n - 1) // 2)
        if not _is_prime(self.q):  # the fiber distance proof needs a field
            raise ValueError(f"field size {self.q} is not prime")

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

    Computed mod q by the incremental product expansion of prod_i (x + g_i),
    which needs no division.  If d-1 exceeds n-1 the surplus coordinates are
    zero (there are only n-1 pair labels to multiply).
    """
    n = enc.n
    if len(p) != n:
        raise ValueError(f"permutation size {len(p)} does not match encoder n={n}")
    _int_in("design distance", d, 2)
    _check_words((p,), n)
    q = enc.q
    es = [1] + [0] * (d - 1)
    for a, b in zip(p, p[1:]):
        g = _pair_rank(n, a, b) if a < b else _pair_rank(n, b, a)
        for k in range(d - 1, 0, -1):
            es[k] = (es[k] + g * es[k - 1]) % q
    return tuple(es[1:])


# -- syndrome fibers on packed power sums -------------------------------------
#
# A multiset of labels in F_q is walked by its power sums p_k = sum g^k mod q,
# k = 1..m, one lane of q.bit_length() + 1 bits each in one integer: a value
# below q plus a guard bit, so two lanes add without carrying into the next.
# Newton's identities k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i turn power
# sums into elementary symmetric values and back; k <= m < q is invertible
# mod q, so the map is a bijection and a fiber keyed by its packed power sums
# is the same fiber as the one keyed by its syndrome.


def _lanes(m: int, q: int) -> range:
    """Bit offsets of m power-sum lanes mod q; the step is the lane width."""
    width = q.bit_length() + 1
    return range(0, width * m, width)


def _encode(f, q: int) -> int:
    """The packed power sums of the labels whose elementary symmetric values
    mod q are f, by Newton's identities solved for p_k."""
    e = (1, *f)
    p: list[int] = []
    for k in range(1, len(e)):
        t = k * e[k] - sum((-1) ** (i - 1) * e[k - i] * p[i - 1] for i in range(1, k))
        p.append((-1) ** (k - 1) * t % q)
    return sum(v << s for v, s in zip(p, _lanes(len(p), q)))


def _decode(keys, m: int, q: int) -> list[tuple[int, ...]]:
    """The syndromes (e_1..e_m mod q) of packed power-sum keys, inverting
    ``_encode`` column-wise: each Newton term is one pass over all keys."""
    shifts = _lanes(m, q)
    lane = (1 << shifts.step) - 1
    p = [[key >> s & lane for key in keys] for s in shifts]
    e: dict[int, list[int]] = {}
    for k in range(1, m + 1):
        terms = p[k - 1] if k % 2 else map(neg, p[k - 1])  # i = k, times e_0 = 1
        for i in range(1, k):
            terms = map(add if i % 2 else sub, terms, map(mul, e[k - i], p[i - 1]))
        inverse = pow(k, -1, q)
        e[k] = [t * inverse % q for t in terms]
    return list(zip(*e.values()))


def _scan_fibers(n: int, d: int, enc: PairEncoder | None, target=None):
    """The syndrome fibers of S_n keyed by packed power sums (see
    ``_decode``), with the field size q; only target's fiber (if hit) when
    a target syndrome is given.  Keys come in the order of each fiber's first
    word, every fiber's words in lexicographic order.

    One depth-first walk over prefixes stands in for a syndrome per
    permutation.  Each prefix carries the packed power sums of its pair
    labels, every lane below q, so the packed integer is canonical and is
    itself the key.  A label enters by one add of its packed powers
    (g, g^2, ..., g^(d-1)) and one lane-wise conditional subtract of q:
    adding 2^(w-1) - q to every lane of width w sets its guard bit exactly
    when the lane reached q.  The last three labels of each permutation
    enter as one tabulated sum, so each of the n! leaves costs one add and
    one subtract and reduces nothing mod q.  With a target, each node of
    the last three labels instead computes the one tabulated sum that
    reaches it, lane-wise target - sums mod q, and looks it up.
    """
    # Fibers are codes of distance d only for 2 <= d <= n-1: a word and its
    # reverse share every syndrome and lie at distance n-1.  No d is left below n = 3.
    _int_in("n", n, 3)
    _int_in("design distance", d, 2, n - 1)
    if n > DEFAULT_MAX_N:
        raise ValueError(f"n={n} exceeds enumeration guard {DEFAULT_MAX_N}")
    enc = enc or PairEncoder.for_n(n)
    if enc.n != n:
        raise ValueError(f"permutation size {n} does not match encoder n={enc.n}")
    q = enc.q
    if target is not None:
        target = _encode(_syndrome_vector(d, target, q), q)
    shifts = _lanes(d - 1, q)
    top = shifts.step - 1
    guards = sum(1 << s + top for s in shifts)
    bias = sum((1 << top) - q << s for s in shifts)
    labels = tuple(range(1, n + 1))
    powers = {a: {b: sum(pow(enc.value(a, b), k, q) << s for k, s in enumerate(shifts, 1))
                  for b in labels if b != a} for a in labels}
    # tails[u][rest]: the orderings of the labels rest after a prefix ending u,
    # in lexicographic order, with the reduced power sums t of their pair
    # labels: listed as (ordering, t) to file every fiber, or grouped by t to
    # look up the one t that reaches a target.  Tails of three labels measured
    # fastest at n = 7 and 8: two leave more calls, four cost more to tabulate.
    tails: dict[int, dict[tuple[int, ...], list | dict[int, list]]] = {u: {} for u in labels}
    for path in itertools.permutations(labels, min(4, n)):
        t = 0
        for v, w in zip(path, path[1:]):
            t += powers[v][w]
            t -= ((t + bias & guards) >> top) * q
        rest = tuple(sorted(path[1:]))
        if target is None:
            tails[path[0]].setdefault(rest, []).append((path[1:], t))
        else:
            tails[path[0]].setdefault(rest, {}).setdefault(t, []).append(path[1:])
    lift = sum(q << s for s in shifts)  # q in every lane: target + lift - sums stays positive
    scan = (powers, tails, bias, guards, top, q, target, lift)
    buckets: dict[int, list[Perm]] = {}
    for i, first in enumerate(labels):
        _walk_fibers((first,), labels[:i] + labels[i + 1:], 0, scan, buckets)
    return buckets, q


def _walk_fibers(prefix, rest, sums, scan, buckets) -> None:
    """File each completion of prefix by the increasing labels rest, in
    lexicographic order, under its packed power sums; sums packs prefix's
    (see ``_scan_fibers``).

    Not a closure: one that calls itself is a reference cycle, which keeps
    each scan's buckets alive until a full collection.
    """
    powers, tails, bias, guards, top, q, target, lift = scan
    u = prefix[-1]
    tail = tails[u].get(rest)
    if tail is not None:  # every completion here, saving the calls below
        if target is None:
            for order, t in tail:
                key = sums + t
                key -= ((key + bias & guards) >> top) * q
                buckets.setdefault(key, []).append(prefix + order)
        else:  # the one tail sum that lands on target: lane-wise target - sums mod q
            t = target + lift - sums
            for order in tail.get(t - ((t + bias & guards) >> top) * q, ()):
                buckets.setdefault(target, []).append(prefix + order)
        return
    row = powers[u]
    for i, v in enumerate(rest):
        s = sums + row[v]
        _walk_fibers(prefix + (v,), rest[:i] + rest[i + 1:],
                     s - ((s + bias & guards) >> top) * q, scan, buckets)


def syndrome_classes(n: int, d: int,
                     enc: PairEncoder | None = None) -> dict[tuple[int, ...], list[Perm]]:
    """Partition of all of S_n into syndrome fibers, each a code of distance
    >= d, for 2 <= d <= n-1.

    Keys come in the order of their fiber's first word and words in
    lexicographic order, as bucketing ``itertools.permutations`` by
    ``syndrome`` gives.  One prefix-sharing walk files the words under their
    packed power sums; the keys then become syndromes by Newton's
    identities, one pass over all fibers per term.
    """
    buckets, q = _scan_fibers(n, d, enc)
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


def syndrome_class(n: int, d: int, f, enc: PairEncoder | None = None) -> CodeBook:
    """The code {p in S_n : syndrome(p) = f} of distance >= d, for
    2 <= d <= n-1, words in lexicographic order; empty when f is missed.

    The same walk as ``syndrome_classes``, filing only f's fiber, with f
    turned into packed power sums once.  For n beyond the scan guard, test
    individual permutations with ``in_syndrome_class`` instead.
    """
    fiber, _ = _scan_fibers(n, d, enc, target=f)  # f's fiber, or nothing
    return CodeBook(n, d, tuple(w for words in fiber.values() for w in words), "syndrome")


def largest_syndrome_class(n: int, d: int, enc: PairEncoder | None = None) -> CodeBook:
    """A maximum-cardinality syndrome fiber, for 2 <= d <= n-1; at least
    n!/q^(d-1) words by pigeonhole.  Ties break toward the smallest syndrome
    vector.  Its first coordinate e_1 = p_1 is the key's low lane, so only
    the tied keys with the least e_1 are turned into syndromes."""
    buckets, q = _scan_fibers(n, d, enc)
    size = max(map(len, buckets.values()))
    lane = (1 << _lanes(d - 1, q).step) - 1
    tied = [key for key, words in buckets.items() if len(words) == size]
    least = min(key & lane for key in tied)
    tied = [key for key in tied if key & lane == least]
    best = min(zip(_decode(tied, d - 1, q), tied))[1]
    return CodeBook(n, d, tuple(buckets[best]), "syndrome")


# -- explicit families --------------------------------------------------------


def cyclic_class_code(n: int) -> CodeBook:
    """One representative per rotation class, n >= 2: all permutations ending in n.

    Two permutations are at distance 1 exactly when one is a rotation of the
    other, so distinct representatives are at distance >= 2.
    """
    _int_in("n", n, 2)
    words = tuple(p + (n,) for p in itertools.permutations(range(1, n)))
    return CodeBook(n, 2, words, "cyclic")


def even_n_code(n: int) -> CodeBook:
    """n codewords at pairwise distance n-1, for even n >= 2.

    The i-th word starts at i and advances by the fixed gap sequence
    a_j = j for odd j and a_j = n - j for even j, all mod n (residue 0 is
    written n).  The prefix sums of the gaps are distinct mod n, so each word
    is a permutation, and each difference arises from exactly one gap, so the
    adjacency pairs of the n words partition all n(n-1) ordered pairs.
    """
    _int_in("n", n, 2)
    if n % 2:
        raise ValueError(f"n must be even, got {n}")
    gaps = [j if j % 2 else n - j for j in range(1, n)]
    words = []
    for i in range(1, n + 1):
        acc = i
        word = [i]
        for g in gaps:
            acc += g
            word.append((acc - 1) % n + 1)
        words.append(tuple(word))
    return CodeBook(n, n - 1, tuple(words), "even")


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
    return CodeBook(n, n - 1, words, "zn1")


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
    ``_hub_cycles`` leaves n codewords at pairwise distance n-1.  The search
    is exhaustive, so None is a proof of nonexistence at this n (the n = 3
    and n = 5 cases are the known failures).
    """
    _int_in("n", n)
    if n % 2 == 0:
        raise ValueError(f"hub-cycle search applies to odd n, got {n}")
    if n > HAM_SEARCH_MAX_N:
        raise ValueError(f"n={n} exceeds search guard {HAM_SEARCH_MAX_N}")
    every = (1 << n + 1) - 1
    cycles: list[tuple[int, ...]] = []
    if not _hub_cycles(n, [0, 1], 0b11, [every ^ 1 << u for u in range(n + 1)], cycles):
        return None
    return CodeBook(n, max(n - 1, 1), tuple(cycle[1:] for cycle in cycles), "hamdecomp")


# -- verification -------------------------------------------------------------


def verify_min_distance(code: CodeBook) -> int:
    """Exact minimum pairwise block distance; n by convention for <= 1 word.

    Words sharing s adjacent pairs are n-1-s apart, so the minimum is n-1
    less the most pairs two words share.  For each word, the pair-count
    kernel ``perm._shared_planes`` gives its counts with every word as bit
    planes, and the largest among the other words is read from the top
    plane down.  The words are distinct, so clearing the word's own bit
    removes the only count of n-1.  The scan stops at a count of n-2, since
    no two distinct words are closer than 1.
    """
    words = code.words
    count = len(words)
    if count > PAIRWISE_MAX_WORDS:
        raise ValueError(f"{count} words exceed pairwise guard {PAIRWISE_MAX_WORDS}")
    if count <= 1:
        return code.n
    n = code.n
    most = 0  # the most pairs two words share so far
    for i, planes in enumerate(_shared_planes(words, n)):
        rest, shared = ~(1 << i), 0  # others tied on the bits read so far, and those bits
        for k in reversed(range(len(planes))):
            if rest & planes[k]:
                rest &= planes[k]
                shared |= 1 << k
        if shared > most:
            most = shared
            if most == n - 2:
                break
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
