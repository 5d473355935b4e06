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
import math
from dataclasses import dataclass, replace
from operator import itemgetter

from .enumeration import DEFAULT_MAX_N, identity_sphere, myers_count
from .perm import Perm, char_set, format_permutation, from_one_line, parse_permutation

PAIRWISE_MAX_WORDS = 10_000
HAM_SEARCH_MAX_N = 17


@dataclass(frozen=True)
class CodeBook:
    """A set of same-size permutations with construction metadata."""

    n: int
    design_distance: int
    words: tuple[Perm, ...]
    provenance: str
    verified_min_distance: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.design_distance < 1:
            raise ValueError(f"design distance must be positive, got {self.design_distance}")
        for w in self.words:
            if len(w) != self.n or sorted(w) != list(range(1, self.n + 1)):
                raise ValueError(f"word {w} is not a permutation of 1..{self.n}")
        if len(set(self.words)) != len(self.words):
            raise ValueError("duplicate words in code")

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
    """Smallest prime q >= n(n-1)/2, so every unordered pair of labels gets a
    distinct field element.  Bertrand's postulate keeps q <= n(n-1)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    q = max(n * (n - 1) // 2, 2)
    while not _is_prime(q):
        q += 1
    return q


@dataclass(frozen=True)
class PairEncoder:
    """Orientation-insensitive labels for pairs of [n] as elements of F_q,
    q a prime at least n(n-1)/2.

    {x, y} maps to its lexicographic rank among the n(n-1)/2 unordered pairs,
    so two ordered pairs collide exactly when they are the same pair or each
    other's reversal.  Any injection on unordered pairs would do; the rank is
    fixed for reproducibility.
    """

    n: int
    q: int

    def __post_init__(self):
        if self.q < self.n * (self.n - 1) // 2:
            raise ValueError(f"field size {self.q} below pair count {self.n * (self.n - 1) // 2}")
        if not _is_prime(self.q):  # the fiber distance proof needs a field
            raise ValueError(f"field size {self.q} is not prime")

    @classmethod
    def for_n(cls, n: int) -> "PairEncoder":
        return cls(n, select_prime(n))

    def value(self, x: int, y: int) -> int:
        a, b = (x, y) if x < y else (y, x)
        if a < 1 or b > self.n or a == b:
            raise ValueError(f"not a pair of distinct labels in [1, {self.n}]: ({x}, {y})")
        return (a - 1) * self.n - (a - 1) * a // 2 + (b - a - 1)


def syndrome(p: Perm, d: int, enc: PairEncoder) -> tuple[int, ...]:
    """First d-1 elementary symmetric values of p's encoded adjacent pairs.

    Computed mod q by the incremental product expansion of prod_i (x + g_i),
    which needs no division.  If d-1 exceeds n-1 the surplus coordinates are
    zero (there are only n-1 pair labels to multiply).
    """
    if len(p) != enc.n:
        raise ValueError(f"permutation size {len(p)} does not match encoder n={enc.n}")
    if d < 2:
        raise ValueError(f"design distance must be at least 2, got {d}")
    q = enc.q
    es = [1] + [0] * (d - 1)
    for a, b in zip(p, p[1:]):
        g = enc.value(a, b)
        for k in range(d - 1, 0, -1):
            es[k] = (es[k] + g * es[k - 1]) % q
    return tuple(es[1:])


def _scan_fibers(n: int, d: int, enc: PairEncoder | None, max_n: int, target=None):
    """The syndrome fibers of S_n, or only target's fiber (if hit) when a
    target is given, keyed in the order of each fiber's first word, every
    fiber's words in lexicographic order.

    One depth-first walk over prefixes stands in for a syndrome per
    permutation.  Each prefix carries its exact elementary symmetric values
    e_0 = 1, e_1, ..., e_{d-1} (the product of 1 + g x over its pair labels
    g, cut at degree d-1) packed `width` bits apart in one integer, so a
    label enters by one shift, multiply, mask and add, once per prefix:
    sum_{j=2..n} n!/(n-j)! updates, about e·n!, against (n-1)·n!.  `width`
    holds the largest exact value, C(n-1, k)·(q-1)^k, so the packed values
    never carry into each other; each permutation reduces its own mod q.
    """
    # Fibers are codes of distance d only for 2 <= d <= n-1: a word and its
    # reverse share every syndrome and lie at distance n-1.
    if not 2 <= d <= n - 1:
        raise ValueError(f"syndrome codes need 2 <= d <= n-1, got (n, d) = ({n}, {d})")
    if n > max_n:
        raise ValueError(f"n={n} exceeds enumeration guard {max_n}")
    enc = enc or PairEncoder.for_n(n)
    if enc.n != n:
        raise ValueError(f"permutation size {n} does not match encoder n={enc.n}")
    q = enc.q
    if target is not None:
        target = _syndrome_vector(d, target, q)
    labels = tuple(range(1, n + 1))
    label = {a: {b: enc.value(a, b) for b in labels if b != a} for a in labels}
    width = max(math.comb(n - 1, k) * (q - 1) ** k for k in range(d)).bit_length()
    scan = (label, width, (1 << width * d) - 1, (1 << width) - 1,
            range(width, width * d, width), q, target)
    buckets: dict[tuple[int, ...], list[Perm]] = {}
    for i, first in enumerate(labels):
        _walk_fibers((first,), labels[:i] + labels[i + 1:], 1, scan, buckets)
    return buckets


def _walk_fibers(prefix, rest, poly, scan, buckets) -> None:
    """File each completion of prefix by the increasing labels rest, in
    lexicographic order, under its syndrome; poly packs prefix's exact
    elementary symmetric values (see ``_scan_fibers``).

    Not a closure: one that calls itself is a reference cycle, which keeps
    each scan's buckets alive until a full collection.
    """
    label, width, mask, lane, shifts, q, target = scan
    row = label[prefix[-1]]
    if len(rest) == 2:  # both completions here, saving a call per permutation
        a, b = rest
        for x, y in ((a, b), (b, a)):
            packed = poly + (row[x] * (poly << width) & mask)
            packed += label[x][y] * (packed << width) & mask
            key = tuple([(packed >> shift & lane) % q for shift in shifts])
            if target is None or key == target:
                buckets.setdefault(key, []).append(prefix + (x, y))
        return
    for i, v in enumerate(rest):
        _walk_fibers(prefix + (v,), rest[:i] + rest[i + 1:],
                     poly + (row[v] * (poly << width) & mask), scan, buckets)


def syndrome_classes(n: int, d: int, enc: PairEncoder | None = None,
                     max_n: int = DEFAULT_MAX_N) -> dict[tuple[int, ...], list[Perm]]:
    """Partition of all of S_n into syndrome fibers, each a code of distance
    >= d, for 2 <= d <= n-1.

    Keys come in the order of their fiber's first word and words in
    lexicographic order, as bucketing ``itertools.permutations`` by
    ``syndrome`` gives; one prefix-sharing walk computes them.
    """
    return _scan_fibers(n, d, enc, max_n)


def _syndrome_vector(d: int, f, q: int) -> tuple[int, ...]:
    """f reduced mod q, checked to have the d-1 coordinates of a syndrome."""
    if len(f) != d - 1:
        raise ValueError(f"syndrome must have d-1 = {d - 1} coordinates, got {len(f)}")
    return tuple(int(v) % q for v in f)


def in_syndrome_class(p: Perm, d: int, f, enc: PairEncoder) -> bool:
    """Membership test for the fiber of f, usable at any n (no group scan)."""
    return syndrome(p, d, enc) == _syndrome_vector(d, f, enc.q)


def syndrome_class(n: int, d: int, f, enc: PairEncoder | None = None,
                   max_n: int = DEFAULT_MAX_N) -> CodeBook:
    """The code {p in S_n : syndrome(p) = f} of distance >= d, for
    2 <= d <= n-1, words in lexicographic order; empty when f is missed.

    The same walk as ``syndrome_classes``, filing only f's fiber.  For n
    beyond the scan guard, test individual permutations with
    ``in_syndrome_class`` instead.
    """
    fiber = _scan_fibers(n, d, enc, max_n, target=f)  # f's fiber, or nothing
    return CodeBook(n, d, tuple(w for words in fiber.values() for w in words), "syndrome")


def largest_syndrome_class(n: int, d: int, enc: PairEncoder | None = None,
                           max_n: int = DEFAULT_MAX_N) -> CodeBook:
    """A maximum-cardinality syndrome fiber, for 2 <= d <= n-1; at least
    n!/q^(d-1) words by pigeonhole.  Ties break toward the smallest syndrome
    vector."""
    buckets = syndrome_classes(n, d, enc, max_n=max_n)
    best = min(buckets, key=lambda f: (-len(buckets[f]), f))
    return CodeBook(n, d, tuple(buckets[best]), "syndrome")


# -- explicit families --------------------------------------------------------


def cyclic_class_code(n: int) -> CodeBook:
    """One representative per rotation class: all permutations ending in n.

    Two permutations are at distance 1 exactly when one is a rotation of the
    other, so distinct representatives are at distance >= 2.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    words = tuple(p + (n,) for p in itertools.permutations(range(1, n)))
    return CodeBook(n, 2, words, "cyclic")


def even_n_code(n: int) -> CodeBook:
    """n codewords at pairwise distance n-1, for even n.

    The i-th word starts at i and advances by the fixed gap sequence
    a_j = j for odd j and a_j = n - j for even j, all mod n (residue 0 is
    written n).  The prefix sums of the gaps are distinct mod n, so each word
    is a permutation, and each difference arises from exactly one gap, so the
    adjacency pairs of the n words partition all n(n-1) ordered pairs.
    """
    if n < 2 or n % 2:
        raise ValueError(f"need even n >= 2, got {n}")
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
    """n codewords at pairwise distance n-1 when n+1 is prime.

    The i-th word is (i, 2i, ..., ni) mod n+1; each ordered pair (a, b)
    appears in exactly one word, the one with i = b - a mod n+1.
    """
    if not _is_prime(n + 1):
        raise ValueError(f"need n+1 prime, got n+1 = {n + 1}")
    m = n + 1
    words = tuple(tuple(k * i % m for k in range(1, m)) for i in range(1, m))
    return CodeBook(n, n - 1, words, "zn1")


def _hub_cycle_decomposition(n: int) -> list[tuple[int, ...]] | None:
    """n arc-disjoint directed Hamiltonian cycles covering the complete
    digraph on {0, 1, ..., n}, or None if no decomposition exists.

    Vertex 0 is the hub.  Each cycle uses exactly one arc out of the hub and
    the cycles are unordered, so forcing cycle i to leave the hub toward i is
    a pure symmetry reduction; the search is otherwise exhaustive.
    """
    used = [[False] * (n + 1) for _ in range(n + 1)]
    cycles: list[tuple[int, ...]] = []
    return cycles if _start_cycle(n, 1, used, cycles) else None


def _start_cycle(n: int, i: int, used: list[list[bool]], cycles: list[tuple[int, ...]]) -> bool:
    """Find cycles i..n on unused arcs; not a closure, which would leave a reference cycle."""
    if i > n:
        return True
    used[0][i] = True
    if _extend_cycle(n, [0, i], 1 << i, used, cycles):
        return True
    used[0][i] = False
    return False


def _extend_cycle(n: int, path: list[int], mask: int, used: list[list[bool]],
                  cycles: list[tuple[int, ...]]) -> bool:
    """Close path into a cycle on unused arcs, then find the rest; not a closure, as above."""
    u = path[-1]
    if len(path) == n + 1:
        if used[u][0]:
            return False
        used[u][0] = True
        cycles.append(tuple(path))
        if _start_cycle(n, len(cycles) + 1, used, cycles):
            return True
        cycles.pop()
        used[u][0] = False
        return False
    for v in range(1, n + 1):
        if mask & (1 << v) or used[u][v]:
            continue
        used[u][v] = True
        path.append(v)
        if _extend_cycle(n, path, mask | (1 << v), used, cycles):
            return True
        path.pop()
        used[u][v] = False
    return False


def ham_decomp_code(n: int, max_n: int = HAM_SEARCH_MAX_N) -> CodeBook | None:
    """Hamiltonian-decomposition code for odd n, or None when none exists.

    Dropping the hub from each cycle of a decomposition found by
    ``_hub_cycle_decomposition`` leaves n codewords at pairwise distance n-1.
    The search is exhaustive, so None is a proof of nonexistence at this n
    (the n = 3 and n = 5 cases are the known failures).
    """
    if n % 2 == 0:
        raise ValueError(f"hub-cycle search applies to odd n, got {n}")
    if n > max_n:
        raise ValueError(f"n={n} exceeds search guard {max_n}")
    cycles = _hub_cycle_decomposition(n)
    if cycles is None:
        return None
    words = tuple(cycle[1:] for cycle in cycles)
    return CodeBook(n, max(n - 1, 1), words, "hamdecomp")


# -- verification -------------------------------------------------------------


def verify_min_distance(code: CodeBook, max_words: int = PAIRWISE_MAX_WORDS) -> int:
    """Exact minimum pairwise block distance; n by convention for <= 1 word.

    The metric is left-invariant, so d(w, v) = r exactly when v = w∘s for some
    s on the identity's sphere of radius r.  Spheres r = 1, 2, ... are walked,
    looking up w∘s among the words, while the total lookups N·Σ|sphere| stay
    within the C(N, 2) pairs of a pairwise scan; the first radius with a hit
    is the minimum.  Past that point the pairwise scan finishes the job,
    stopping as soon as it meets the first radius not walked.  Both costs come
    from closed-form sphere sizes, so the choice is made before any work.
    """
    words = code.words
    count = len(words)
    if count > max_words:
        raise ValueError(f"{count} words exceed pairwise guard {max_words}")
    if count <= 1:
        return code.n
    n = code.n
    lookups, walked = 0, 0
    while walked < n - 1:
        lookups += count * myers_count(n, walked + 1)
        if lookups > math.comb(count, 2):
            break
        walked += 1
    members = set(words)
    for r in range(1, walked + 1):
        for s in identity_sphere(n, r):
            if not members.isdisjoint(map(itemgetter(*(j - 1 for j in s)), words)):
                return r
    floor = walked + 1
    sets = [char_set(w) for w in words]
    best = n
    for i, si in enumerate(sets):
        for sj in sets[i + 1 :]:
            dist = len(si - sj)
            if dist < best:
                best = dist
                if best == floor:
                    return best
    return best


def with_verified_min_distance(code: CodeBook, max_words: int = PAIRWISE_MAX_WORDS) -> CodeBook:
    return replace(code, verified_min_distance=verify_min_distance(code, max_words))


# -- file and JSON formats ----------------------------------------------------
#
# Text format: header line "n d provenance", then one permutation per line.
# JSON payload carries the verified minimum distance as well.


def codebook_to_text(code: CodeBook) -> str:
    lines = [f"{code.n} {code.design_distance} {code.provenance}"]
    lines += [format_permutation(w) for w in code.words]
    return "\n".join(lines) + "\n"


def codebook_from_text(text: str) -> CodeBook:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty code file")
    head = lines[0].split(maxsplit=2)
    if len(head) != 3:
        raise ValueError(f"malformed header {lines[0]!r}; expected 'n d provenance'")
    n, d = int(head[0]), int(head[1])
    words = tuple(parse_permutation(ln) for ln in lines[1:])
    for w in words:
        if len(w) != n:
            raise ValueError(f"word {w} does not match header n={n}")
    return CodeBook(n, d, words, head[2])


def codebook_payload(code: CodeBook) -> dict:
    return {
        "n": code.n,
        "d": code.design_distance,
        "provenance": code.provenance,
        "verified_min_distance": code.verified_min_distance,
        "words": [list(w) for w in code.words],
    }


def codebook_from_payload(payload: dict) -> CodeBook:
    words = tuple(from_one_line(w) for w in payload["words"])
    vmd = payload.get("verified_min_distance")
    return CodeBook(int(payload["n"]), int(payload["d"]), words, str(payload["provenance"]),
                    None if vmd is None else int(vmd))
