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
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

Perm = tuple[int, ...]
Pair = tuple[int, int]
CharSet = frozenset[Pair]

#: the cut-and-reorder search tries up to 2^(n-1) cut sets, about 0.2 s at n = 16
#: on a 2-core Xeon; the cost doubles with each step of n
DEFINITION_SEARCH_MAX_N = 16


def from_one_line(values: Sequence[int]) -> Perm:
    """Validate a 1-based one-line permutation and return it as a tuple.

    >>> from_one_line([4, 8, 3, 2, 6, 7, 5, 1, 9])[:3]
    (4, 8, 3)
    """
    p = tuple(values)
    if not p:
        raise ValueError("empty input: a permutation has length at least 1")
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a rearrangement of 1..{len(p)}: {list(values)!r}")
    return p


def identity(n: int) -> Perm:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
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


def distance_by_definition(p1: Perm, p2: Perm, max_n: int = DEFINITION_SEARCH_MAX_N) -> int:
    """Block permutation distance via the literal cut-and-reorder search.

    Tries d = 0, 1, ... in turn; for each choice of d cut points the block
    ordering that reproduces p2 is unique if it exists, and counts only when
    that ordering is minimal.  At most 2^(n-1) cut sets, so exponential in n;
    serves as an independent cross-check for ``block_distance``.
    """
    if len(p1) != len(p2):
        raise ValueError(f"mismatched sizes {len(p1)} and {len(p2)}")
    n = len(p1)
    if n > max_n:
        raise ValueError(f"n={n} exceeds search guard {max_n}")
    for d in range(n):
        for cuts in itertools.combinations(range(1, n), d):
            order = _block_order(_blocks(p1, cuts), p2)
            if order is not None and is_minimal(order):
                return d
    raise RuntimeError(f"no block decomposition found for {p1} -> {p2}")


# -- text / JSON formats ----------------------------------------------------
#
# Permutation text format: space-separated decimal labels, one permutation
# per line.  Characteristic set JSON: {"n": n, "pairs": [[a, b], ...]} with
# pairs sorted lexicographically.


def parse_permutation(text: str) -> Perm:
    try:
        labels = [int(tok) for tok in text.split()]
    except ValueError:
        raise ValueError(f"permutation tokens must be integers: {text!r}") from None
    return from_one_line(labels)


def format_permutation(p: Iterable[int]) -> str:
    return " ".join(str(v) for v in p)


def char_set_payload(p: Perm) -> dict:
    return {"n": len(p), "pairs": [list(pair) for pair in sorted(char_set(p))]}
