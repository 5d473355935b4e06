"""Exhaustive statistics over S_n for the block permutation metric.

Distance spheres around the identity, the closed-form sphere count and the
sphere's members generated by cut-and-reorder, and ball sizes with their
product sandwich bounds.  Everything here is exact integer arithmetic.
Sphere and ball sizes come from one integer recurrence and work at any n;
only ``enumerate_spheres`` walks all n! permutations, the independent
cross-check of that recurrence, and it carries a size guard.  It walks them
by shared prefixes: each prefix carries its break count (adjacent pairs
(a, b) with b != a + 1), and the last three labels of every permutation come
as one tabulated histogram, so no permutation is built or tested pair by
pair, yet each is counted once and no sphere formula is used.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from .perm import Perm, _int_in, is_minimal

DEFAULT_MAX_N = 8


@dataclass(frozen=True)
class SphereProfile:
    """counts[k] = number of permutations at block distance k from the identity."""

    n: int
    counts: tuple[int, ...]

    def ball(self, t: int) -> int:
        """Permutations within distance t, for 0 <= t <= n-1."""
        _int_in("t", t, 0, self.n - 1)
        return sum(self.counts[: t + 1])


@dataclass(frozen=True)
class BallSize:
    n: int
    t: int
    size: int


def enumerate_spheres(n: int) -> SphereProfile:
    """Scan all of S_n and histogram block distances to the identity.

    A pair (a, b) is an identity adjacency exactly when b = a + 1, so the
    distance to the identity is the number of adjacent pairs failing that,
    its breaks.  One depth-first walk over prefixes stands in for a test of
    each pair of each permutation: a prefix carries its break count, and a
    label enters by one comparison with the prefix's last label.  The last
    three labels come from a table built once per call from the (n)_4 paths
    of four labels (of all n when n < 4): ``tails[u][rest]`` holds the
    histogram of break counts, the junction with u included, over every
    ordering of the labels rest.  Each histogram packs one lane per distance
    into one int, lanes as wide as n! needs, so a prefix with b breaks adds
    the whole histogram shifted b lanes up.  At n = 8 that is 1,680 table
    paths and 8,800 walk calls, 6,720 of them ending in a tabulated tail,
    where a pair test per permutation makes 7 tests for each of 40,320.
    """
    _int_in("n", n)
    if n > DEFAULT_MAX_N:
        raise ValueError(f"n={n} exceeds enumeration guard {DEFAULT_MAX_N}")
    step = math.factorial(n).bit_length()
    labels = tuple(range(1, n + 1))
    tails: dict[int, dict[tuple[int, ...], int]] = {u: {} for u in labels}
    for first, *tail in itertools.permutations(labels, min(4, n)):
        breaks, prev = 0, first
        for v in tail:
            breaks += v != prev + 1
            prev = v
        row = tails[first]
        rest = tuple(sorted(tail))
        row[rest] = row.get(rest, 0) + (1 << breaks * step)
    packed = sum(_walk_spheres(u, labels[:i] + labels[i + 1:], 0, tails, step)
                 for i, u in enumerate(labels))
    lane = (1 << step) - 1
    return SphereProfile(n, tuple(packed >> k * step & lane for k in range(n)))


def _walk_spheres(u, rest, shift, tails, step) -> int:
    """The packed break-count histogram of every completion of a prefix
    ending in u by the increasing labels rest; shift is the prefix's break
    count times the lane width step (see ``enumerate_spheres``).

    Not a closure: one that calls itself is a reference cycle, which lives
    until a full collection.
    """
    tail = tails[u].get(rest)
    if tail is not None:  # every completion here, saving the calls below
        return tail << shift
    packed = 0
    for i, v in enumerate(rest):
        packed += _walk_spheres(v, rest[:i] + rest[i + 1:],
                                shift if v == u + 1 else shift + step, tails, step)
    return packed


def _sphere_sizes(n: int, t: int) -> Iterator[int]:
    """|sphere(n, k)| = C(n-1, k) m_k for k = 0..t, as running integers.

    A distance-k permutation is the identity cut at k of its n-1 gaps and
    reordered by a minimal order of the k+1 blocks (see ``identity_sphere``).
    m_k counts those orders, the permutations of k+1 items with no i directly
    followed by i+1 (OEIS A000255): m_0 = m_1 = 1 and
    m_k = k m_{k-1} + (k-1) m_{k-2}.  Stopping at t keeps small radii cheap
    at any n.
    """
    binom, m, m_prev = 1, 1, 0
    for k in range(t + 1):
        yield binom * m
        binom = binom * (n - 1 - k) // (k + 1)
        m, m_prev = (k + 1) * m + k * m_prev, m


def myers_count(n: int, k: int) -> int:
    """Closed-form size of the distance-k sphere, n >= 2 and 1 <= k <= n-1."""
    _int_in("n", n, 2)
    _int_in("k", k, 1, n - 1)
    *_, size = _sphere_sizes(n, k)
    return size


def sphere_profile(n: int) -> SphereProfile:
    """Every sphere size around the identity in closed form, at any n >= 1."""
    _int_in("n", n)
    return SphereProfile(n, tuple(_sphere_sizes(n, n - 1)))


def identity_sphere(n: int, k: int) -> Iterator[Perm]:
    """Every permutation at block distance exactly k from the identity,
    n >= 2 and 1 <= k <= n-1, as an iterator.

    By the metric's definition: cut the identity at k of its n-1 gaps and
    reorder the k+1 blocks by a minimal order (block j never directly before
    block j+1).  The blocks are then the maximal runs of consecutive labels of
    the result, so no member repeats and there are ``myers_count(n, k)`` of
    them.  The minimal orders are listed up front, by filtering all (k+1)!
    orders; the members follow lazily, one cut set at a time.
    """
    _int_in("n", n, 2)
    _int_in("k", k, 1, n - 1)
    orders = [itemgetter(*o) for o in itertools.permutations(range(k + 1)) if is_minimal(o)]
    blockings = ([tuple(range(a, b)) for a, b in zip((1, *cuts), (*cuts, n + 1))]
                 for cuts in itertools.combinations(range(2, n + 1), k))
    return (tuple(itertools.chain.from_iterable(pick(blocks)))
            for blocks in blockings for pick in orders)


def ball_size_exact(n: int, t: int) -> BallSize:
    """Exact number of permutations within block distance t of any center,
    for n >= 1 and 0 <= t <= n-1.

    Left-invariance of the metric makes the size center-independent, so the
    count is taken around the identity: the sphere sizes for k = 0..t.
    """
    _int_in("n", n)
    _int_in("t", t, 0, n - 1)
    return BallSize(n, t, sum(_sphere_sizes(n, t)))


def sandwich_applies(n: int, t: int) -> bool:
    """The product sandwich's hypothesis t <= n - sqrt(n) - 1, for n >= 1 and
    t >= 0, tested in exact integers, so no floating-point boundary doubt."""
    _int_in("n", n)
    _int_in("t", t, 0)
    return _sandwich_applies(n, t)


def _sandwich_applies(n: int, t: int) -> bool:
    """``sandwich_applies`` for ints n >= 1 and t >= 0, unchecked."""
    return n - t - 1 >= 0 and (n - t - 1) ** 2 >= n


def ball_size_bounds(n: int, t: int) -> tuple[int, int]:
    """Product sandwich for the t-ball size, where ``sandwich_applies`` (which
    checks n >= 1 and t >= 0, and so needs t <= n-1).

    Returns (prod_{i=1..t} (n-i), prod_{i=0..t} (n-i)); empty products are 1.
    """
    _require_sandwich(n, t)
    return math.prod(range(n - t, n)), math.prod(range(n - t, n + 1))


def _require_sandwich(n: int, t: int) -> None:
    """Raise unless ``sandwich_applies(n, t)``, which checks n and t."""
    if not sandwich_applies(n, t):
        raise ValueError(f"sandwich bounds need t <= n - sqrt(n) - 1; (n, t) = ({n}, {t}) fails")


def sphere_profile_payload(profile: SphereProfile) -> dict:
    return {"n": profile.n, "counts": list(profile.counts)}
