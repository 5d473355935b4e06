"""Sphere profiles, the closed-form count, and ball sizes."""

import itertools
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from blockperm.enumeration import (
    DEFAULT_MAX_N,
    SphereProfile,
    ball_size_bounds,
    ball_size_exact,
    enumerate_spheres,
    identity_sphere,
    myers_count,
    sandwich_applies,
    sphere_profile,
    sphere_profile_payload,
)
from blockperm.perm import block_distance, identity, is_minimal


def test_sphere_profile_small_frozen():
    assert enumerate_spheres(1).counts == (1,)
    assert enumerate_spheres(3).counts == (1, 2, 3)
    assert enumerate_spheres(4).counts == (1, 3, 9, 11)


def _spheres_by_pair_test(n):
    """Reference: test each adjacent pair of each permutation of S_n, the
    loop the prefix walk stands in for."""
    counts = [0] * n
    for p in itertools.permutations(range(1, n + 1)):
        k = 0
        prev = p[0]
        for cur in p[1:]:
            if cur != prev + 1:
                k += 1
            prev = cur
        counts[k] += 1
    return SphereProfile(n, tuple(counts))


@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_spheres_matches_a_pair_test_per_permutation(n):
    assert enumerate_spheres(n) == _spheres_by_pair_test(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_sphere_profile_mass_and_center(n):
    profile = enumerate_spheres(n)
    assert profile.counts[0] == 1
    assert sum(profile.counts) == math.factorial(n)


@pytest.mark.parametrize("n", range(3, 7))
def test_sphere_profile_matches_closed_formula(n):
    profile = enumerate_spheres(n)
    for k in range(1, n):
        assert profile.counts[k] == myers_count(n, k)


def _myers_by_inclusion_exclusion(n, k):
    """Reference: k! C(n-1, k) sum_{i=0..k} (-1)^(k-i) (i+1) / (k-i)!, an
    inclusion-exclusion over retained identity adjacencies, in rationals."""
    acc = sum(Fraction((-1) ** (k - i) * (i + 1), math.factorial(k - i)) for i in range(k + 1))
    value = math.factorial(k) * math.comb(n - 1, k) * acc
    assert value.denominator == 1
    return int(value)


def test_myers_count_matches_inclusion_exclusion():
    for n in range(2, 60):
        assert [myers_count(n, k) for k in range(1, n)] == [
            _myers_by_inclusion_exclusion(n, k) for k in range(1, n)]


@pytest.mark.parametrize("k", range(8))
def test_single_cut_sphere_counts_minimal_orders(k):
    # with n = k+1 there is one way to cut every gap, so the distance-k
    # sphere is exactly the minimal orders of k+1 blocks (k = 0: the identity)
    minimal = sum(1 for o in itertools.permutations(range(k + 1)) if is_minimal(o))
    assert sphere_profile(k + 1).counts[k] == minimal


def test_myers_count_frozen_values():
    assert myers_count(4, 1) == 3
    assert myers_count(4, 3) == 11
    assert myers_count(5, 2) == 18


@pytest.mark.parametrize("bad_k", [0, 4, -1])
def test_myers_count_range(bad_k):
    with pytest.raises(ValueError):
        myers_count(4, bad_k)


# n = 10 stops at k = 6: its spheres k = 7..9 hold 3.4 of its 3.6 million
# members, too many to generate and hold in a set in the unit suite.
@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 11)
                                  for k in range(1, n if n < 10 else 7)])
def test_identity_sphere_members_are_distinct_and_counted_by_formula(n, k):
    members = list(identity_sphere(n, k))
    assert len(set(members)) == len(members) == myers_count(n, k)


def _ball_by_scan(n, radius):
    """The identity's ball minus the identity, by a scan of all of S_n."""
    e = identity(n)
    return {p for p in itertools.permutations(e) if 0 < block_distance(e, p) <= radius}


@pytest.mark.parametrize("n", range(2, 8))
def test_identity_spheres_match_the_scan(n):
    e = identity(n)
    union = set()
    for k in range(1, n):
        members = set(identity_sphere(n, k))
        assert {block_distance(e, s) for s in members} == {k}
        union |= members
        assert union == _ball_by_scan(n, k)


@pytest.mark.parametrize("n, k", [(1, 1), (4, 0), (4, 4), (4, -1)])
def test_identity_sphere_range(n, k):
    with pytest.raises(ValueError):
        identity_sphere(n, k)


@pytest.mark.parametrize("n", range(1, 10))
def test_sphere_profile_matches_the_scan(n):
    if n <= DEFAULT_MAX_N:
        assert sphere_profile(n) == enumerate_spheres(n)
    else:  # past the scan's guard, S_n is scanned here by the pair count
        e = identity(n)
        counts = Counter(block_distance(e, p) for p in itertools.permutations(e))
        assert sphere_profile(n).counts == tuple(counts[k] for k in range(n))


@pytest.mark.parametrize("n", [1, 2, 3, 13, 100, 500])
def test_sphere_profile_mass(n):
    counts = sphere_profile(n).counts
    assert len(counts) == n and counts[0] == 1
    assert sum(counts) == math.factorial(n)


@pytest.mark.parametrize("n", [0, -3])
def test_sphere_profile_range(n):
    with pytest.raises(ValueError):
        sphere_profile(n)


def test_ball_size_exact_frozen():
    assert ball_size_exact(4, 1).size == 4
    assert ball_size_exact(4, 0).size == 1
    assert ball_size_exact(4, 3).size == 24
    with pytest.raises(ValueError):
        ball_size_exact(4, 4)


@pytest.mark.parametrize("n", range(1, 9))
def test_ball_size_exact_matches_the_scan(n):
    profile = enumerate_spheres(n)
    assert [ball_size_exact(n, t).size for t in range(n)] == [profile.ball(t) for t in range(n)]


def test_ball_size_exact_full_ball_is_the_group():
    for n in range(1, 21):
        assert ball_size_exact(n, n - 1).size == math.factorial(n)


def test_ball_size_exact_is_fast_at_large_n():
    start = time.perf_counter()
    assert ball_size_exact(2000, 1999).size == math.factorial(2000)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert ball_size_exact(10000, 5).size == 1 + sum(myers_count(10000, k) for k in range(1, 6))
    # the recurrence stops at the radius, whatever n is
    assert time.perf_counter() - start < 0.1


def test_ball_sizes_strictly_increase():
    profile = enumerate_spheres(6)
    sizes = [profile.ball(t) for t in range(6)]
    assert sizes == sorted(set(sizes))
    assert sizes[-1] == 720


@pytest.mark.parametrize("n", [3, 4, 5])
def test_ball_size_is_center_independent(n):
    rng = random.Random(31 + n)
    perms = list(itertools.permutations(range(1, n + 1)))
    profile = enumerate_spheres(n)
    for _ in range(5):
        center = rng.choice(perms)
        for t in range(n):
            around = sum(1 for p in perms if block_distance(center, p) <= t)
            assert around == profile.ball(t)


def test_ball_size_bounds_frozen():
    assert ball_size_bounds(4, 1) == (3, 12)
    assert ball_size_bounds(5, 0) == (1, 5)
    assert ball_size_bounds(13, 4) == (11880, 154440)


def test_sandwich_applies_matches_the_real_inequality():
    for n in range(1, 300):
        for t in range(n + 2):
            # n - sqrt(n) - 1 is an integer only when n is a square, where
            # math.sqrt is exact, so the float comparison is safe here
            assert sandwich_applies(n, t) == (t <= n - math.sqrt(n) - 1), (n, t)


def test_ball_size_bounds_hypothesis_errors():
    with pytest.raises(ValueError):
        ball_size_bounds(4, 2)  # (4-2-1)^2 = 1 < 4
    with pytest.raises(ValueError):
        ball_size_bounds(2, 0)  # (2-0-1)^2 = 1 < 2
    with pytest.raises(ValueError):
        ball_size_bounds(5, -1)


@pytest.mark.parametrize("n", range(3, 8))
def test_sandwich_contains_exact_ball(n):
    profile = enumerate_spheres(n)
    for t in range(n):
        if not sandwich_applies(n, t):
            continue
        lower, upper = ball_size_bounds(n, t)
        assert lower <= profile.ball(t) <= upper


def test_sphere_profile_payload_round_trip():
    payload = sphere_profile_payload(enumerate_spheres(5))
    assert payload == {"n": 5, "counts": [1, 4, 18, 44, 53]}
    assert json.loads(json.dumps(payload)) == payload
