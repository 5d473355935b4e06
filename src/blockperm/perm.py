"""Permutations in one-line notation and the block permutation metric.

A permutation of [n] = {1, ..., n} is stored as a tuple ``(p(1), ..., p(n))``
of the labels 1..n (one-line notation; labels are 1-based everywhere,
including file and CLI formats).

The block permutation distance between two permutations is the smallest d
such that the first can be cut into d+1 consecutive blocks which, reordered
by a *minimal* permutation (one that glues no two blocks back together),
yield the second.  Equivalently, and far cheaper, it is the number of
adjacent pairs of the first that are not adjacent pairs of the second.
``block_distance`` computes the pair-count form; ``distance_by_definition``
performs the literal cut-and-reorder search, so the two routes can be checked
against each other.

``_shared_planes`` counts the pairs each of N permutations shares with all N at
once, as bit planes; the distance graphs and code verification both read it.

Input policy: entry points check integers with ``_int_in`` (ints, not bools, in
the range each docstring states) and words with ``_check_words`` (distinct
words, each rearranging 1..n in int labels).  Metric primitives
(``block_distance``, ``char_set``, ``compose``, ``inverse``, ``cyclic_shifts``,
``is_minimal``, ``_shared_planes``) trust their input: on a 2-core Xeon, 1000 S_8 pairs take
``block_distance`` 2.5 ms, 7.5 checking both.  So do the private bodies of the
bound functions (``bounds._gv_lower``, ``_sp_upper``, ``_corollary_applies``,
``enumeration._sandwich_applies``), which ``bound_report`` calls with
values it has checked or derived.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

Perm = tuple[int, ...]
Pair = tuple[int, int]
CharSet = frozenset[Pair]

#: the cut-and-reorder search visits at most 2,816 partial cut sets at n = 16
#: (every pattern of runs tried), about 2 ms on a 2-core Xeon; the bound grows
#: exponentially in n
DEFINITION_SEARCH_MAX_N = 16


def _int_in(name: str, value, low: int = 1, high: int | None = None) -> None:
    """Raise unless value is an int, not a bool, in [low, high]; high None: no top end."""
    if type(value) is not int or value < low or high is not None and value > high:
        span = (("positive" if low == 1 else f"an int >= {low}") if high is None
                else f"an int in [{low}, {high}]")
        raise ValueError(f"{name} must be {span}, got {value!r}")


def _check_words(words: Sequence[Sequence[int]], n: int) -> None:
    """Raise unless n is positive and the words are distinct rearrangements
    of 1..n in int labels."""
    _int_in("n", n)
    labels = list(range(1, n + 1))
    typed = {int}.issuperset(map(type, itertools.chain.from_iterable(words)))
    seen = set()
    for w in words:  # types again only to find the bad word, before sorting [1, "2"] raises
        if not (typed or {int}.issuperset(map(type, w))) or sorted(w) != labels:
            raise ValueError(f"not a rearrangement of 1..{n}: {list(w)!r}")
        if (w := tuple(w)) in seen:
            raise ValueError(f"duplicate word: {list(w)!r}")
        seen.add(w)


def from_one_line(values: Sequence[int]) -> Perm:
    """Validate a 1-based one-line permutation of ints and return it as a tuple.

    >>> from_one_line([4, 8, 3, 2, 6, 7, 5, 1, 9])[:3]
    (4, 8, 3)
    >>> from_one_line((True, 2))
    Traceback (most recent call last):
    ValueError: not a rearrangement of 1..2: [True, 2]
    """
    p = tuple(values)
    if not p:
        raise ValueError("empty input: a permutation has length at least 1")
    _check_words((p,), len(p))
    return p


def identity(n: int) -> Perm:
    _int_in("n", n)
    return tuple(range(1, n + 1))


def compose(outer: Perm, inner: Perm) -> Perm:
    """Composition outer∘inner, mapping i to outer(inner(i))."""
    if len(outer) != len(inner):
        raise ValueError(f"mismatched sizes {len(outer)} and {len(inner)}")
    return tuple([outer[j - 1] for j in inner])


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p, start=1):
        inv[v - 1] = i
    return tuple(inv)


def char_set(p: Perm) -> CharSet:
    """The characteristic set of p: all adjacent ordered pairs (p(i), p(i+1)).

    Its n-1 pairs are the arcs of a directed Hamiltonian path on [n].

    >>> sorted(char_set((1, 2, 3, 4)))
    [(1, 2), (2, 3), (3, 4)]
    """
    return frozenset(zip(p, p[1:]))


def block_distance(p1: Perm, p2: Perm) -> int:
    """Number of adjacent pairs of p1 that are not adjacent pairs of p2.

    Symmetric, zero exactly on equal arguments, and at most n-1.
    """
    if len(p1) != len(p2):
        raise ValueError(f"mismatched sizes {len(p1)} and {len(p2)}")
    return len(set(zip(p1, p1[1:])).difference(zip(p2, p2[1:])))


def _pair_codes(p: Perm, n: int) -> list[int]:
    """Each adjacent pair (a, b) of p as the code (a-1)·n + (b-1)."""
    return [(a - 1) * n + b - 1 for a, b in zip(p, p[1:])]


def _pair_masks(perms, n: int) -> list[int]:
    """Each characteristic set as an int: bit (a-1)·n + (b-1) marks the pair
    (a, b), so popcount(mask_p & mask_q) counts the pairs p and q share."""
    return [sum(1 << x for x in _pair_codes(p, n)) for p in perms]


def _shared_planes(perms: Sequence[Perm], n: int):
    """For each permutation in turn, the (n-1).bit_length() planes of its
    shared-pair counts: bit j of plane k is bit k of the number of adjacent
    pairs it shares with perms[j], which is n-1 less their distance, so n-1
    only for a copy.  For each of its n-1 pairs, a permutation adds the
    bitset of the permutations holding that pair into the planes, each carry
    rippling up while it is non-zero: about n·⌈log2 n⌉ operations on N-bit
    integers.
    """
    pairs = [_pair_codes(p, n) for p in perms]
    holders = [0] * (n * n)
    for i, row in enumerate(pairs):
        for x in row:
            holders[x] |= 1 << i
    width = (n - 1).bit_length()
    for row in pairs:
        planes = [0] * width
        for carry in map(holders.__getitem__, row):
            k = 0
            while carry:
                x = planes[k]
                planes[k] = x ^ carry
                carry &= x
                k += 1
        yield planes


def is_minimal(p: Perm) -> bool:
    """True when p has no adjacent pair of consecutive labels (p(i+1) = p(i)+1).

    Minimal permutations are the valid block reorderings: they never glue two
    cut blocks back together.
    """
    return all(b != a + 1 for a, b in zip(p, p[1:]))


def cyclic_shifts(p: Perm) -> set[Perm]:
    """All n rotations of p, including p itself."""
    return {p[t:] + p[:t] for t in range(len(p))}


def _blocks(p: Perm, cuts: tuple[int, ...]) -> list[Perm]:
    bounds = (0, *cuts, len(p))
    return [p[a:b] for a, b in zip(bounds, bounds[1:])]


def _run_ends(p1: Perm, p2: Perm) -> list[int]:
    """For each start a, the largest end b such that the block p1[a:b] occurs
    in p2 as one contiguous run; so does every shorter block from a."""
    where = {v: j for j, v in enumerate(p2)}
    n = len(p1)
    ends = []
    for a, v in enumerate(p1):
        shift = where[v] - a
        b = a + 1
        while b < n and b + shift < n and p2[b + shift] == p1[b]:
            b += 1
        ends.append(b)
    return ends


def _run_cuts(ends: list[int], d: int, a: int = 0):
    """The sets of d cut points after position a, in lexicographic order,
    that leave every block a run of the target (block [a, b) needs
    b <= ends[a]).  No other cut set can concatenate to the target, so the
    search drops a partial set as soon as its last block breaks off."""
    n = len(ends)
    if not d:
        if ends[a] == n:
            yield ()
        return
    for c in range(a + 1, min(ends[a], n - d) + 1):
        for rest in _run_cuts(ends, d - 1, c):
            yield (c, *rest)


def _block_order(blocks: list[Perm], target: Perm) -> Perm | None:
    """The unique ordering of blocks whose concatenation is target, if any.

    Blocks partition the labels, so whichever block starts at each position of
    the target is forced; either that single candidate ordering works or none
    does.  Returned 1-based: result[j] = index of the block at position j+1.
    """
    start = {b[0]: k for k, b in enumerate(blocks)}
    order = []
    j = 0
    while j < len(target):
        k = start.get(target[j])
        if k is None:
            return None
        block = blocks[k]
        if target[j : j + len(block)] != block:
            return None
        order.append(k + 1)
        j += len(block)
    return tuple(order)


def distance_by_definition(p1: Perm, p2: Perm) -> int:
    """Block permutation distance via the literal cut-and-reorder search.

    Tries d = 0, 1, ... in turn; for each choice of d cut points the block
    ordering that reproduces p2 is unique if it exists, and counts only when
    that ordering is minimal.  Cut points are chosen left to right, and a
    partial choice is dropped once its last block is not a run of p2, since
    the reordered blocks concatenate to p2.  Cuts inside a run of p2 are
    still tried, and fail the minimality check.  Serves as an independent
    cross-check for ``block_distance``: it never counts shared pairs.
    """
    p1, p2 = from_one_line(p1), tuple(p2)
    n = len(p1)
    _check_words((p2,), n)
    if n > DEFINITION_SEARCH_MAX_N:
        raise ValueError(f"n={n} exceeds search guard {DEFINITION_SEARCH_MAX_N}")
    ends = _run_ends(p1, p2)
    for d in range(n):
        for cuts in _run_cuts(ends, d):
            order = _block_order(_blocks(p1, cuts), p2)
            if order is not None and is_minimal(order):
                return d
    raise RuntimeError(f"no block decomposition found for {p1} -> {p2}")


# -- text / JSON formats ----------------------------------------------------
#
# Permutation text format: space-separated decimal labels, one permutation
# per line.  Characteristic set JSON: {"n": n, "pairs": [[a, b], ...]} with
# pairs sorted lexicographically.


def _parse_labels(text: str) -> Perm:
    """The integer tokens of one line, not yet checked to be a permutation."""
    try:
        return tuple(int(tok) for tok in text.split())
    except ValueError:
        raise ValueError(f"permutation tokens must be integers: {text!r}") from None


def parse_permutation(text: str) -> Perm:
    return from_one_line(_parse_labels(text))


def format_permutation(p: Iterable[int]) -> str:
    return " ".join(str(v) for v in p)


def char_set_payload(p: Perm) -> dict:
    return {"n": len(p), "pairs": [list(pair) for pair in sorted(char_set(p))]}
