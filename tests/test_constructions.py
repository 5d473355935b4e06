"""Syndrome codes, the explicit families, and code verification."""

import collections
import gc
import hashlib
import itertools
import json
import math
import random
import re
import sys
import time

import pytest

from blockperm import constructions
from blockperm.constructions import (
    _code_columns,
    _decode,
    _encode,
    _fiber,
    _lane,
    _pair_rank,
    _plane_min,
    _word_keys,
    HAM_SEARCH_MAX_N,
    PAIRWISE_MAX_WORDS,
    CodeBook,
    PairEncoder,
    codebook_from_payload,
    codebook_from_text,
    codebook_payload,
    codebook_to_text,
    cyclic_class_code,
    even_n_code,
    ham_decomp_code,
    in_syndrome_class,
    largest_syndrome_class,
    select_prime,
    syndrome,
    syndrome_class,
    syndrome_classes,
    verify_min_distance,
    zn1_code,
)
from blockperm.enumeration import DEFAULT_MAX_N, _anticode_size, identity_sphere, myers_count
from blockperm.graph import build_graph, greedy_independent_set
from blockperm.perm import _pair_columns, block_distance, char_set, compose, identity


def test_select_prime_frozen():
    assert select_prime(4) == 7
    assert select_prime(5) == 11
    assert select_prime(2) == 2
    with pytest.raises(ValueError):
        select_prime(1)


@pytest.mark.parametrize("n", range(2, 41))
def test_select_prime_stays_below_pair_count(n):
    q = select_prime(n)
    assert q >= n * (n - 1) // 2
    assert q <= max(n * (n - 1), 2)
    assert all(q % f for f in range(2, int(q**0.5) + 1))


def test_is_prime_matches_a_sieve():
    """Every m below 10^5 against a sieve of Eratosthenes, and the wide field
    the tests use, prime, against a product with a prime factor near 10^6."""
    limit = 10**5
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for f in range(2, math.isqrt(limit - 1) + 1):
        if sieve[f]:
            sieve[f * f::f] = bytes(len(range(f * f, limit, f)))
    assert [m for m in range(limit) if constructions._is_prime(m)] == [
        m for m in range(limit) if sieve[m]]
    assert constructions._is_prime(1_000_003)
    assert not constructions._is_prime(999_983 * 3)


def test_pair_encoder_frozen_table():
    enc = PairEncoder(4, 7)
    table = {(a, b): enc.value(a, b) for a in range(1, 5) for b in range(a + 1, 5)}
    assert table == {(1, 2): 0, (1, 3): 1, (1, 4): 2, (2, 3): 3, (2, 4): 4, (3, 4): 5}
    assert enc.value(2, 1) == enc.value(1, 2) == 0


@pytest.mark.parametrize("n", range(2, 9))
def test_pair_encoder_injective_on_unordered_pairs(n):
    enc = PairEncoder.for_n(n)
    values = [enc.value(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    assert len(set(values)) == n * (n - 1) // 2
    assert all(0 <= v < enc.q for v in values)


def test_pair_encoder_validation():
    with pytest.raises(ValueError):
        PairEncoder(4, 5)  # needs q >= 6
    enc = PairEncoder(4, 7)
    with pytest.raises(ValueError):
        enc.value(1, 1)
    with pytest.raises(ValueError):
        enc.value(0, 3)


@pytest.mark.parametrize("q", [10, 12, 15, 16])
def test_pair_encoder_rejects_a_composite_field_size(q):
    with pytest.raises(ValueError, match="not prime"):
        PairEncoder(5, q)


def test_pair_encoder_minimal_field():
    enc = PairEncoder(3, 3)  # image fills the whole field
    assert sorted(enc.value(a, b) for a in (1, 2, 3) for b in range(a + 1, 4)) == [0, 1, 2]


def test_syndrome_frozen_values():
    enc = PairEncoder(4, 7)
    assert syndrome((1, 2, 3, 4), 3, enc) == (1, 1)  # labels 0,3,5: e1=8, e2=15
    assert syndrome((4, 3, 2, 1), 3, enc) == (1, 1)  # same unordered pairs
    assert block_distance((1, 2, 3, 4), (4, 3, 2, 1)) == 3


def test_syndrome_single_coordinate_is_label_sum():
    enc = PairEncoder.for_n(5)
    for p in [(1, 2, 3, 4, 5), (3, 1, 5, 2, 4)]:
        total = sum(enc.value(a, b) for a, b in zip(p, p[1:])) % enc.q
        assert syndrome(p, 2, enc) == (total,)


def test_syndrome_surplus_coordinates_are_zero():
    enc = PairEncoder.for_n(3)
    values = syndrome((2, 1, 3), 6, enc)
    assert len(values) == 5
    assert values[2:] == (0, 0, 0)  # only two pair labels exist


def _syndrome_by_subsets(p, d, enc):
    """e_k as the sum over the k-subsets of p's pair labels of their
    products, mod q: the definition, with no product expansion."""
    labels = [enc.value(a, b) for a, b in zip(p, p[1:])]
    return tuple(sum(map(math.prod, itertools.combinations(labels, k))) % enc.q
                 for k in range(1, d))


def _syndrome_by_loop(p, d, enc):
    """The per-pair loop ``syndrome`` once ran, kept as its reference: d-1
    updates mod q for each label."""
    es = [1] + [0] * (d - 1)
    for a, b in zip(p, p[1:]):
        g = enc.value(a, b)
        for k in range(d - 1, 0, -1):
            es[k] = (es[k] + g * es[k - 1]) % enc.q
    return tuple(es[1:])


def _seeded_words(n, count, seed):
    rng = random.Random(seed)
    return [tuple(rng.sample(range(1, n + 1), n)) for _ in range(count)]


@pytest.mark.parametrize("n", range(2, 10))
def test_syndrome_is_the_elementary_symmetric_sums(n):
    """Every word of S_n up to n = 5, seeded words past it, at every d up to
    n+2, so the surplus coordinates are crossed, in n's field and a wide one."""
    words = (list(itertools.permutations(range(1, n + 1))) if n <= 5
             else _seeded_words(n, 20, n))
    for enc in (PairEncoder.for_n(n), PairEncoder(n, 1_000_003)):
        for p in words:
            full = _syndrome_by_subsets(p, n + 2, enc)
            for d in range(2, n + 3):
                assert syndrome(p, d, enc) == full[:d - 1]


@pytest.mark.parametrize("n", [40, 100, 300])
def test_syndrome_matches_the_per_pair_loop(n):
    """Lanes as wide as the whole product, m = 3 up to m = n-1 (299 at
    n = 300), against d-1 updates mod q per label."""
    words = _seeded_words(n, 3, n)
    for enc in (PairEncoder.for_n(n), PairEncoder(n, 1_000_003)):
        for d in (4, 20, 132, n - 1, n, n + 3):
            for p in words:
                assert syndrome(p, d, enc) == _syndrome_by_loop(p, d, enc)


@pytest.mark.parametrize("n", range(10, 16))
def test_syndrome_matches_the_per_pair_loop_at_every_d(n):
    """The n between the subset sums' range and the sampled large n, at
    every d from 2 to n+1: every lane count m from 1 to n-1, the last lane
    ending at the int's top byte, and one surplus coordinate."""
    words = _seeded_words(n, 3, n)
    for enc in (PairEncoder.for_n(n), PairEncoder(n, 1_000_003)):
        for d in range(2, n + 2):
            for p in words:
                assert syndrome(p, d, enc) == _syndrome_by_loop(p, d, enc)


def test_syndrome_of_a_huge_design_distance_stays_cheap():
    """The product keeps min(d-1, n-1) lanes whatever d is; the per-pair loop
    made d-1 updates per label, about 0.3 s here on a 2-core Xeon."""
    enc = PairEncoder.for_n(5)
    p = (3, 1, 5, 2, 4)
    start = time.perf_counter()
    f = syndrome(p, 10**6, enc)
    assert time.perf_counter() - start < 0.15
    assert len(f) == 999_999
    assert f[:4] == _syndrome_by_subsets(p, 5, enc) and not any(f[4:])
    assert in_syndrome_class(p, 10**6, f, enc)
    assert not in_syndrome_class(p, 10**6, (*f[:4], 1, *f[5:]), enc)


def test_syndrome_validation():
    enc = PairEncoder.for_n(4)
    with pytest.raises(ValueError):
        syndrome((1, 2, 3), 3, enc)
    with pytest.raises(ValueError):
        syndrome((1, 2, 3, 4), 1, enc)


@pytest.mark.parametrize("word", [(1, 2, 1, 3), (1, 2, 3, 5), (0, 1, 2, 3)],
                         ids=["repeated", "past-n", "zero"])
def test_syndrome_rejects_a_word_that_is_not_a_permutation(word):
    enc = PairEncoder.for_n(4)
    message = re.escape(f"not a rearrangement of 1..4: {list(word)!r}")
    with pytest.raises(ValueError, match=message):
        syndrome(word, 3, enc)
    with pytest.raises(ValueError, match=message):
        in_syndrome_class(word, 3, (1, 0), enc)


def test_syndrome_class_frozen():
    code = syndrome_class(4, 3, (1, 1))  # q = 7
    assert (1, 2, 3, 4) in code.words
    assert (4, 3, 2, 1) in code.words
    assert verify_min_distance(code) >= 3
    assert code.provenance == "syndrome"


def test_syndrome_class_can_be_empty():
    sizes = {f: len(syndrome_class(4, 3, f).words)
             for f in itertools.product(range(3), repeat=2)}
    assert any(size == 0 for size in sizes.values())


def test_in_syndrome_class_matches_scan():
    enc = PairEncoder.for_n(5)
    code = syndrome_class(5, 3, (1, 1))
    members = set(code.words)
    for p in itertools.permutations(range(1, 6)):
        assert in_syndrome_class(p, 3, (1, 1), enc) == (p in members)
    # usable beyond the scan guard
    big = PairEncoder.for_n(12)
    assert isinstance(in_syndrome_class(tuple(range(1, 13)), 4, (0, 0, 0), big), bool)


@pytest.mark.parametrize("f", [(1,), (1, 1, 1)], ids=["too-few", "too-many"])
def test_in_syndrome_class_needs_d_minus_1_coordinates(f):
    with pytest.raises(ValueError, match=f"d-1 = 2 coordinates, got {len(f)}"):
        in_syndrome_class((1, 2, 3, 4, 5), 3, f, PairEncoder.for_n(5))


def test_syndrome_coordinates_are_reduced_mod_q():
    enc = PairEncoder.for_n(5)
    word = (3, 1, 5, 2, 4)
    f = syndrome(word, 3, enc)
    shifted = (f[0] - enc.q, f[1] + 2 * enc.q)
    assert in_syndrome_class(word, 3, shifted, enc)
    code = syndrome_class(5, 3, shifted)
    assert word in code.words and code == syndrome_class(5, 3, f)


@pytest.mark.parametrize("d", [3, 4])
def test_syndrome_fibers_separate_at_n7(d):
    buckets = syndrome_classes(7, d)
    assert sum(len(ws) for ws in buckets.values()) == math.factorial(7)
    for words in buckets.values():
        sets = [char_set(w) for w in words]
        for i, si in enumerate(sets):
            for sj in sets[i + 1 :]:
                assert len(si - sj) >= d


@pytest.mark.parametrize("d", [3, 4])
def test_syndrome_fibers_partition_and_separate(d):
    n = 5
    buckets = syndrome_classes(n, d)
    assert sum(len(ws) for ws in buckets.values()) == math.factorial(n)
    for words in buckets.values():
        for a, b in itertools.combinations(words, 2):
            assert block_distance(a, b) >= d


@pytest.mark.parametrize("n", range(3, 8))
def test_syndrome_fibers_are_codes_over_the_whole_range(n):
    for d in range(2, n):
        for words in syndrome_classes(n, d).values():
            assert verify_min_distance(CodeBook(n, d, tuple(words), "syndrome")) >= d
    # a word and its reverse share every syndrome at distance n-1
    for d in (n, n + 1):
        message = re.escape(f"design distance must be an int in [2, {n - 1}], got {d}")
        with pytest.raises(ValueError, match=message):
            syndrome_classes(n, d)
        with pytest.raises(ValueError, match=message):
            syndrome_class(n, d, (0,) * (d - 1))
        with pytest.raises(ValueError, match=message):
            largest_syndrome_class(n, d)


def test_largest_syndrome_class_pigeonhole():
    for n, d in [(5, 3), (6, 3)]:
        code = largest_syndrome_class(n, d)
        assert len(code.words) >= -(-math.factorial(n) // select_prime(n) ** (d - 1))
    assert len(largest_syndrome_class(6, 3).words) >= 3


def _fibers_by_syndrome(n, d, enc):
    """The per-permutation route: bucket every permutation by ``syndrome``."""
    buckets = {}
    for p in itertools.permutations(range(1, n + 1)):
        buckets.setdefault(syndrome(p, d, enc), []).append(p)
    return buckets


def _assert_walk_matches(n, d, every):
    """The fiber scans against the per-permutation route; syndrome_class is
    checked at every ``every``-th fiber, and at the last as f and as f + q."""
    enc = PairEncoder.for_n(n)
    expected = _fibers_by_syndrome(n, d, enc)
    # same keys in the same order, each fiber's words in the same order
    assert list(syndrome_classes(n, d).items()) == list(expected.items())
    # ties break toward the smallest syndrome vector
    best = min(expected, key=lambda f: (-len(expected[f]), f))
    assert largest_syndrome_class(n, d).words == tuple(expected[best])
    if every is None:
        return
    fibers = list(expected.items())
    for f, words in fibers[::every] + fibers[-1:]:
        assert syndrome_class(n, d, f).words == tuple(words)
    assert syndrome_class(n, d, [v + enc.q for v in f]).words == tuple(words)
    missed = (f for f in itertools.product(range(enc.q), repeat=d - 1) if f not in expected)
    for f in itertools.islice(missed, 5):
        assert syndrome_class(n, d, f).words == ()


# at n = 8, d = 3..7 cross every slot size, 2, 4 and 8 bytes, with ``syndrome``
@pytest.mark.parametrize("n, d", [(n, d) for n in range(3, 8) for d in range(2, n)]
                         + [(8, d) for d in range(3, 8)])
def test_fiber_walk_matches_per_permutation_syndromes(n, d):
    _assert_walk_matches(n, d, every=1 if n <= 6 else None)


# Byte r of column i is the pair code of places i, i+1 of word r.
@pytest.mark.parametrize("n", range(1, 9))
def test_pair_columns_read_each_place_of_every_word(n):
    words = list(itertools.permutations(range(1, n + 1)))
    assert _pair_columns(n) == tuple(bytes((p[i] - 1) * n + p[i + 1] - 1 for p in words)
                                     for i in range(n - 1))
    assert _pair_columns(n) is _pair_columns(n)  # built once per n
    for k in range(1, n - 1):
        assert _lane(n, k) is _lane(n, k)  # and each lane once per (n, k)


# Lanes of 1, 2 and 4 bytes: a·n + b outgrows a byte from n = 16 and two bytes from n = 256.
@pytest.mark.parametrize("n", [1, 2, 3, 8, 15, 16, 17, 255, 256, 300])
def test_code_columns_read_each_place_of_every_word(n):
    rng = random.Random(n)
    words = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(7)]
    columns = _code_columns(words, n)
    assert [list(column) for column in columns] == [
        [(p[i] - 1) * n + p[i + 1] - 1 for p in words] for i in range(n - 1)]
    assert {column.itemsize for column in columns} <= {1 if n < 16 else 2 if n < 256 else 4}
    assert [len(column) for column in _code_columns([], n)] == [0] * (n - 1)


@pytest.mark.parametrize("n", range(2, 9))
def test_code_columns_of_s_n_are_its_pair_columns(n):
    assert tuple(map(bytes, _code_columns(list(itertools.permutations(range(1, n + 1))), n))) == (
        _pair_columns(n))


# A lane sums n-1 terms below q = select_prime(n) in one byte, so the scan
# guard must stop before that sum outgrows it, which it does at n = 9.
def test_scan_guard_keeps_lane_sums_within_a_byte():
    for n in range(3, DEFAULT_MAX_N + 1):
        assert (n - 1) * (select_prime(n) - 1) <= 255
    assert 8 * (select_prime(9) - 1) > 255


# A key of m lanes takes m bytes, in a slot of 1, 2, 4 or 8 bytes; at n = 8
# the widest two, m = 5 and 6, take 8.
@pytest.mark.parametrize("n", range(3, 9))
def test_default_encoder_keys_fit_one_machine_word(n):
    for m in range(1, n - 1):
        keys = _word_keys(n, m)
        assert isinstance(keys, memoryview)
        assert len(keys) == math.factorial(n) and keys.itemsize == 1 << (m - 1).bit_length()
    if n == 8:
        assert _word_keys(8, 5).itemsize == _word_keys(8, 6).itemsize == 8


# The lanes against each word's power sums: byte k-1 of a key is the sum of
# g^k mod q over the word's pair labels g.  m runs down, then up, so every m
# but the first reads lanes another m built.
@pytest.mark.parametrize("n", range(3, 8))
def test_word_keys_are_each_words_power_sums(n):
    q = select_prime(n)
    labels = [[_pair_rank(n, min(a, b), max(a, b)) for a, b in zip(p, p[1:])]
              for p in itertools.permutations(range(1, n + 1))]
    for m in [*range(n - 2, 0, -1), *range(1, n - 1)]:
        assert list(_word_keys(n, m)) == [
            sum(sum(pow(g, k, q) for g in word) % q << 8 * (k - 1) for k in range(1, m + 1))
            for word in labels]


def test_a_repeated_scan_builds_no_lane():
    largest_syndrome_class(8, 5)
    built = _lane.cache_info().misses
    assert largest_syndrome_class(8, 5) == largest_syndrome_class(8, 5)
    assert _lane.cache_info().misses == built


# Lanes k = 1..n-2 of n! bytes each for every n the scans admit: 270,414 bytes
# in 21 lanes.  Only the fiber scans build lanes, so nothing else is cached.
def test_cached_lanes_stay_within_their_bound():
    for n in range(3, DEFAULT_MAX_N + 1):
        _word_keys(n, n - 2)
    every = [(n, k) for n in range(3, DEFAULT_MAX_N + 1) for k in range(1, n - 1)]
    assert _lane.cache_info().currsize == len(every) == 21
    assert sum(len(_lane(n, k)) for n, k in every) == 270_414


# syndrome_classes and largest_syndrome_class as the earlier prefix walk
# returned them, so a change to the key or word order fails here: the first 16
# hex digits of the SHA-256 of the repr of (the partition's items, the largest
# fiber's words).
FIBER_DIGESTS = {(3, 2): "5c76b1cb612cf467", (4, 2): "89ffd55d4e28fb7d", (4, 3): "bc89cf39c19b63e1",
                 (5, 2): "22e472400ad69beb", (5, 3): "5ad511d1b01eeaf4", (5, 4): "dd539c1e12a1877b",
                 (6, 2): "1b933792aeab3252", (6, 3): "80f3563da9bc738a", (6, 4): "c11e20c15f3acce7",
                 (6, 5): "ac5b704bd9d5de1b", (7, 2): "ae0c0a0695cb5c5e", (7, 3): "c4e352f9a88a6fa1",
                 (7, 4): "a1525eb36e7e0ad1", (7, 5): "ed179f5d9f615658", (7, 6): "1e74a3e35de5c358",
                 (8, 3): "3977e2464d590883", (8, 4): "eea99972e46b9a9b", (8, 5): "8417fa53ae8a4d20"}


@pytest.mark.parametrize("n, d", sorted(FIBER_DIGESTS))
def test_fiber_scans_keep_their_output(n, d):
    scanned = (list(syndrome_classes(n, d).items()), largest_syndrome_class(n, d).words)
    assert hashlib.sha256(repr(scanned).encode()).hexdigest()[:16] == FIBER_DIGESTS[n, d]


@pytest.mark.parametrize("q, m", [(7, 2), (11, 3), (13, 4)])
def test_power_sums_and_syndromes_convert_both_ways(q, m):
    everything = list(itertools.product(range(q), repeat=m))
    assert _decode([_encode(f, q) for f in everything], m, q) == everything
    # and the packed values are the labels' power sums
    rng = random.Random(q)
    for _ in range(50):
        labels = [rng.randrange(q) for _ in range(rng.randrange(1, 2 * m))]
        e = [1] + [0] * m
        for g in labels:
            e = [1] + [(e[k] + g * e[k - 1]) % q for k in range(1, m + 1)]
        shifts = range(0, 8 * m, 8)
        sums = sum(sum(g ** k for g in labels) % q << s for k, s in enumerate(shifts, 1))
        assert _encode(e[1:], q) == sums


def test_fiber_counts_only_hits_at_a_key_boundary():
    # six 2-byte keys: the target's bytes straddle slots 0 and 1, fill slots
    # 2 and 3, and a run of one byte holds another key's bytes at every offset
    target = 0x0304
    needle = target.to_bytes(2, sys.byteorder)
    buffer = bytes([0]) + needle + bytes([0]) + needle * 2 + bytes([5]) * 4
    keys = memoryview(buffer).cast("H")
    assert keys.tolist()[2:4] == [target, target] and target not in keys.tolist()[:2]
    expected = {target: ((2, 1, 3), (2, 3, 1)), 0x0505: ((3, 1, 2), (3, 2, 1)),
                keys[0]: ((1, 2, 3),), keys[1]: ((1, 3, 2),), 0x0403: (), 0: ()}
    for key, words in expected.items():
        assert _fiber(3, 2, keys, key) == CodeBook(3, 2, words, "syndrome")


def test_fiber_scans_take_no_field():
    enc = PairEncoder.for_n(5)
    for scan in (lambda: syndrome_classes(5, 3, enc),
                 lambda: syndrome_class(5, 3, (0, 0), enc),
                 lambda: largest_syndrome_class(5, 3, enc),
                 lambda: syndrome_classes(5, 3, enc=enc),
                 lambda: syndrome_class(5, 3, (0, 0), enc=enc),
                 lambda: largest_syndrome_class(5, 3, enc=enc)):
        with pytest.raises(TypeError):
            scan()


def test_fiber_scans_leave_no_reference_cycles():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        syndrome_classes(6, 3)
        syndrome_class(6, 3, (1, 1))
        largest_syndrome_class(6, 3)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# Pinned as the hub-cycle search printed them before its helpers left their
# closures, so a change to the search order fails here.
HAM_DECOMP_7 = ((1, 2, 3, 4, 5, 6, 7), (2, 1, 3, 5, 4, 7, 6), (3, 1, 4, 6, 2, 7, 5),
                (4, 1, 5, 7, 2, 6, 3), (5, 3, 6, 1, 7, 4, 2), (6, 5, 2, 4, 3, 7, 1),
                (7, 3, 2, 5, 1, 6, 4))


def test_hub_cycle_search_leaves_no_reference_cycles():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert ham_decomp_code(5) is None
        assert ham_decomp_code(7).words == HAM_DECOMP_7
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_hub_cycle_search_fixes_the_first_cycle(monkeypatch):
    """Cycle 1 is 0 -> 1 -> ... -> n -> 0 and only cycles 2..n are searched:
    the proofs of nonexistence at n = 3 and 5 take 3 and 356 calls (13 and
    10,271 with cycle 1 searched too)."""
    search = constructions._hub_cycles
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return search(*args)

    monkeypatch.setattr(constructions, "_hub_cycles", counted)
    for n, expected in [(1, 0), (3, 3), (5, 356)]:
        calls = 0
        code = ham_decomp_code(n)
        assert (code is None, calls) == (n > 1, expected), n
    assert ham_decomp_code(7).words[0] == (1, 2, 3, 4, 5, 6, 7)


def test_cyclic_class_code():
    assert set(cyclic_class_code(3).words) == {(1, 2, 3), (2, 1, 3)}
    code4 = cyclic_class_code(4)
    assert len(code4.words) == 6
    assert all(w[-1] == 4 for w in code4.words)
    assert verify_min_distance(code4) == 2


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cyclic_class_code_distance_property(n):
    code = cyclic_class_code(n)
    assert len(code.words) == math.factorial(n - 1)
    assert verify_min_distance(code) >= 2


def _assert_pairs_partition(code):
    pairs = [pr for w in code.words for pr in char_set(w)]
    n = code.n
    assert len(pairs) == n * (n - 1)
    assert len(set(pairs)) == n * (n - 1)


def test_even_n_code_frozen():
    code = even_n_code(4)
    assert set(code.words) == {(1, 2, 4, 3), (2, 3, 1, 4), (3, 4, 2, 1), (4, 1, 3, 2)}
    assert verify_min_distance(code) == 3
    _assert_pairs_partition(code)
    with pytest.raises(ValueError):
        even_n_code(5)


def _even_words_by_gaps(n):
    """Its docstring's definition, one label at a time: word i starts at i
    and advances by the gaps a_j, mod n with residue 0 written n."""
    gaps = [j if j % 2 else n - j for j in range(1, n)]
    words = []
    for i in range(1, n + 1):
        acc = i
        word = [i]
        for g in gaps:
            acc += g
            word.append((acc - 1) % n + 1)
        words.append(tuple(word))
    return tuple(words)


@pytest.mark.parametrize("n", range(2, 131, 2))
def test_even_n_code_properties(n):
    code = even_n_code(n)
    assert code.words == _even_words_by_gaps(n)
    assert verify_min_distance(code) == max(n - 1, 1)
    _assert_pairs_partition(code)


def test_zn1_code_frozen():
    code = zn1_code(4)
    assert set(code.words) == {(1, 2, 3, 4), (2, 4, 1, 3), (3, 1, 4, 2), (4, 3, 2, 1)}
    assert verify_min_distance(code) == 3
    _assert_pairs_partition(code)
    with pytest.raises(ValueError):
        zn1_code(5)  # 6 is composite


@pytest.mark.parametrize("n", [1, 0, -1])
def test_zn1_code_needs_two_labels(n):
    # n = 1 passes the primality test (2 is prime) but has no distance n-1 = 0
    with pytest.raises(ValueError, match=f"^n must be an int >= 2, got {n}$"):
        zn1_code(n)


@pytest.mark.parametrize("n", [4, 6, 10])
def test_zn1_code_properties(n):
    code = zn1_code(n)
    assert len(code.words) == n
    assert verify_min_distance(code) == n - 1
    _assert_pairs_partition(code)


@pytest.mark.parametrize("n", [3, 5])
def test_ham_decomp_code_not_found(n):
    assert ham_decomp_code(n) is None


# The words of ham_decomp_code(n) at each odd n where a decomposition exists,
# as the search over an (n+1)x(n+1) arc matrix returned them: the first 16
# hex digits of the SHA-256 of their repr.  A change to the search order fails here.
HAM_DECOMP_DIGESTS = {1: "8349bb5d2d44e8d6", 7: "9d3248ea26f33a5a", 9: "65baec48c53893e4",
                      11: "882c9ee04c8e617d", 13: "1a6dd296871b43ee", 15: "65c0a62203d4e485",
                      17: "d0c4f2158423f4ba"}


@pytest.mark.parametrize("n", sorted(HAM_DECOMP_DIGESTS))
def test_ham_decomp_code_keeps_its_words_and_partitions_every_arc(n):
    code = ham_decomp_code(n)
    assert hashlib.sha256(repr(code.words).encode()).hexdigest()[:16] == HAM_DECOMP_DIGESTS[n]
    assert len(code.words) == n and verify_min_distance(code) == max(n - 1, 1)
    # with the hub 0 around each word, the n cycles hold every arc of the
    # complete digraph on {0, ..., n} exactly once
    arcs = [arc for w in code.words for arc in char_set((0, *w, 0))]
    assert len(arcs) == len(set(arcs)) == (n + 1) * n


def test_ham_decomp_code_validation():
    with pytest.raises(ValueError):
        ham_decomp_code(6)
    with pytest.raises(ValueError):
        ham_decomp_code(HAM_SEARCH_MAX_N + 2)  # beyond the default search guard


def test_verify_min_distance_conventions():
    assert verify_min_distance(CodeBook(5, 4, ((1, 2, 3, 4, 5),), "file")) == 5
    assert verify_min_distance(CodeBook(3, 1, (), "file")) == 3


def _random_code(seed):
    """Seeded distinct words at n = 3..9; sizes log-uniform over 2..300."""
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    size = min(math.factorial(n), round(2 * 150 ** rng.random()))
    words = set()
    while len(words) < size:
        words.add(tuple(rng.sample(range(1, n + 1), n)))
    return CodeBook(n, 1, tuple(sorted(words)), "random")


def _pairwise_min(code):
    return min(block_distance(a, b) for a, b in itertools.combinations(code.words, 2))


def _routes_agree(code, pairwise=True):
    """The minimum of a code of two or more words, from ``verify_min_distance``,
    checked against the plane scan alone (floor 1) and, if pairwise, every pair."""
    got = verify_min_distance(code)
    assert _plane_min(code.words, code.n, 1) == got, code.provenance
    assert not pairwise or _pairwise_min(code) == got, code.provenance
    return got


DIFFERENTIAL_SEEDS = range(40)


@pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
def test_verify_min_distance_matches_pairwise_on_random_codes(seed):
    _routes_agree(_random_code(seed))


# n = 8 is 12.7 million pairs, so only the plane scan checks it
@pytest.mark.parametrize("n", range(3, 9))
def test_verify_min_distance_routes_agree_on_the_cyclic_codes(n):
    assert _routes_agree(cyclic_class_code(n), pairwise=n < 8) == 2


@pytest.mark.parametrize("n", range(3, 8))
def test_verify_min_distance_routes_agree_on_the_largest_syndrome_classes(n):
    for d in range(2, n):
        code = largest_syndrome_class(n, d)
        if len(code) > 1:
            assert _routes_agree(code) >= d, (n, d)


@pytest.mark.parametrize("n", range(2, 7))
def test_verify_min_distance_routes_agree_on_the_greedy_codes(n):
    codes = {}  # both orders take all of S_n at d = 1
    for d in range(1, n + 1):
        g = build_graph(n, d)
        for order in ("lexicographic", "degree"):
            code = greedy_independent_set(g, order)
            codes[code.words] = code
    for code in codes.values():
        if len(code) > 1:
            assert _routes_agree(code) >= code.design_distance, (n, code.design_distance)
        else:
            assert verify_min_distance(code) == n


def test_verify_min_distance_of_the_cyclic_code_8_asks_the_planes_nothing(monkeypatch):
    """Its minimum 2 is a swap of the first two labels, on the identity's sphere 2."""
    def refuse(*args):
        raise AssertionError("the plane reader was asked")

    monkeypatch.setattr(constructions, "_at_least", refuse)
    assert verify_min_distance(cyclic_class_code(8)) == 2


def test_verify_min_distance_of_the_even_code_60_walks_no_sphere(monkeypatch):
    """60·60·|S_2| labels, |S_2| = C(59, 2)·3, exceed the C(60, 2) pairs."""
    def refuse(*args):
        raise AssertionError("a sphere was walked")

    monkeypatch.setattr(constructions, "identity_sphere", refuse)
    assert verify_min_distance(even_n_code(60)) == 59


@pytest.mark.parametrize("make, args", [(cyclic_class_code, (6,)), (largest_syndrome_class, (7, 3)),
                                        (even_n_code, (8,)), (zn1_code, (10,))],
                         ids=["cyclic-6", "syndrome-7-3", "even-8", "zn1-10"])
def test_verify_min_distance_matches_pairwise_on_constructions(make, args):
    _routes_agree(make(*args))


def test_verify_min_distance_of_the_5040_word_cyclic_code():
    assert verify_min_distance(cyclic_class_code(8)) == 2


def _count_sphere_walk(monkeypatch):
    """A counter of the members ``verify_min_distance`` takes from each sphere."""
    walked = collections.Counter()
    sphere = constructions.identity_sphere

    def counted(size, r):
        for s in sphere(size, r):
            walked[r] += 1
            yield s

    monkeypatch.setattr(constructions, "identity_sphere", counted)
    return walked


@pytest.mark.parametrize("n", range(2, 9))
def test_verify_min_distance_walks_two_members_of_sphere_2_for_the_cyclic_codes(monkeypatch, n):
    """From n = 7 the code affords sphere 2, whose second member swaps the
    first two labels and so lands in the code; below, no sphere is walked."""
    walked = _count_sphere_walk(monkeypatch)
    assert verify_min_distance(cyclic_class_code(n)) == 2
    assert walked == ({2: 2} if n >= 7 else {})


@pytest.mark.parametrize("count, probed", [(630, False), (631, True)])
def test_verify_min_distance_probes_sphere_2_just_past_its_threshold(monkeypatch, count, probed):
    """At n = 7 the threshold 3n(n-1)(n-2) is 630.  Words that all start with
    1 are never 1 apart, so 631 of them reach the probe and 630 do not."""
    words = tuple(itertools.islice(((1, *w) for w in itertools.permutations(range(2, 8))), count))
    walked = _count_sphere_walk(monkeypatch)
    assert verify_min_distance(CodeBook(7, 1, words, "file")) == _plane_min(words, 7, 1)
    assert bool(walked) == probed


def _greedy_code(n, d):
    """The lexicographic greedy code of S_n at distance d: each word taken
    blocks w∘s for every s within d-1 of the identity."""
    ball = [s for r in range(1, d) for s in identity_sphere(n, r)]
    blocked, words = set(), []
    for w in itertools.permutations(range(1, n + 1)):
        if w not in blocked:
            words.append(w)
            blocked.update(compose(w, s) for s in ball)
    return CodeBook(n, d, tuple(words), "greedy")


def test_verify_min_distance_misses_sphere_2_on_the_greedy_8_3_code(monkeypatch):
    """1,760 words exceed 3·8·7·6 = 1,008, so all 63 members of sphere 2 are
    probed and miss, and the planes finish from floor 3.  The probe is
    mispriced here: 23.2 ms for ``verify_min_distance`` against 6.6 ms for
    ``_plane_min`` alone from floor 1 (best of 7, Python 3.11.7 on a 2-core
    Intel Xeon VM)."""
    code = _greedy_code(8, 3)
    assert len(code) == 1760 and _plane_min(code.words, 8, 1) == 3
    walked = _count_sphere_walk(monkeypatch)
    floors = []

    def plane_min(words, n, floor):
        floors.append(floor)
        return _plane_min(words, n, floor)

    monkeypatch.setattr(constructions, "_plane_min", plane_min)
    assert verify_min_distance(code) == 3
    assert walked == {2: 63} and floors == [3]


def test_the_sphere_2_threshold_is_the_walks_budget():
    """The sphere walk this probe replaced read n·N·(|S_2| + ... + |S_r|)
    labels, spheres 2..n-2, while they stayed within the N(N-1)/2 pairs.
    Recomputed from ``myers_count``, it takes sphere 2 exactly when
    N > 3n(n-1)(n-2), and sphere 3 never: past sphere 2 the words are 3
    apart, so no code holds more than n! // ``_anticode_size(n, 3)``.  From
    n = 16 on, 3n(n-1)(n-2) >= 10,080 exceeds the guard, so no sphere is
    taken; n = 2 and 3 have no sphere to walk (see the next test)."""
    for n in range(2, 40):
        sizes = [myers_count(n, r) for r in range(2, n - 1)]
        most = min(PAIRWISE_MAX_WORDS, math.factorial(n) // _anticode_size(n, 3))
        for count in range(2, PAIRWISE_MAX_WORDS + 1):
            budget, taken = count * (count - 1) // 2, 0
            for size in sizes:
                budget -= n * count * size
                if budget < 0:
                    break
                taken += 1
            assert (taken >= 1) == (n >= 4 and count > 3 * n * (n - 1) * (n - 2)), (n, count)
            assert taken < 2 or count > most, (n, count)


@pytest.mark.parametrize("n", [2, 3])
def test_verify_min_distance_answers_every_code_of_s2_and_s3_before_the_probe(monkeypatch, n):
    """There 3n(n-1)(n-2) is 0 or 18, yet the top end and the rotation keys
    settle every code of two or more words."""
    def refuse(*args):
        raise AssertionError("a code reached the probe or the planes")

    perms = list(itertools.permutations(range(1, n + 1)))
    codes = [CodeBook(n, 1, words, "file")
             for size in range(2, len(perms) + 1) for words in itertools.combinations(perms, size)]
    expected = [_pairwise_min(code) for code in codes]
    for name in ("identity_sphere", "_plane_min"):
        monkeypatch.setattr(constructions, name, refuse)
    assert [verify_min_distance(code) for code in codes] == expected


def _blocks_reversed(n, r):
    """The identity cut into the blocks 1, 2, ..., r and r+1..n, put back in
    reverse order, so r+1..n, r, ..., 1: at distance r from the identity."""
    return tuple(range(r + 1, n + 1)) + tuple(range(r, 0, -1))


# The kernel keeps (n-1).bit_length() planes, one more from n = 2, 3, 5, 9, 17 on.
@pytest.mark.parametrize("n", [2, 5, 9, 17])
def test_verify_min_distance_at_every_distance_where_the_plane_count_changes(n):
    """For each r, a pair r apart among words at least r from each other, in
    random order, so the most shared pairs n-1-r takes every plane pattern."""
    rng = random.Random(n)
    for r in range(1, n):
        g = tuple(rng.sample(range(1, n + 1), n))  # relabelling keeps distances
        words = [compose(g, identity(n)), compose(g, _blocks_reversed(n, r))]
        for _ in range(200):
            w = tuple(rng.sample(range(1, n + 1), n))
            if len(words) < 8 and all(block_distance(w, v) >= r for v in words):
                words.append(w)
        rng.shuffle(words)
        code = CodeBook(n, 1, tuple(words), "random")
        assert verify_min_distance(code) == _pairwise_min(code) == r


@pytest.mark.parametrize("n", [4, 6, 17])
def test_verify_min_distance_finds_the_close_pair_after_a_far_word(n):
    """The first word is 2 from the others, which are 1 apart: the scan goes
    on past the first word that lowers the minimum, to the stop at 1."""
    code = CodeBook(n, 1, (_blocks_reversed(n, 2), identity(n), _blocks_reversed(n, 1)), "file")
    assert verify_min_distance(code) == _pairwise_min(code) == 1


@pytest.mark.parametrize("n", [2, 3, 9, 33])
def test_verify_min_distance_of_a_word_and_its_reverse(n):
    w = tuple(random.Random(n).sample(range(1, n + 1), n))
    assert verify_min_distance(CodeBook(n, 1, (w, w[::-1]), "file")) == n - 1


def _arithmetic_families(n):
    """The even and zn1 codes at n, where they exist."""
    codes = [even_n_code(n)] if n % 2 == 0 else []
    if all((n + 1) % f for f in range(2, n + 1)):
        codes.append(zn1_code(n))
    return codes


def test_verify_min_distance_of_the_distance_n_minus_1_families_to_60():
    for n in range(2, 61):
        for code in _arithmetic_families(n):
            assert _routes_agree(code) == n - 1, code.provenance


def test_verify_min_distance_settles_the_families_from_their_pairs_to_60(monkeypatch):
    """Their pairs partition all n(n-1), so the pair test answers alone."""
    def refuse(*args):
        raise AssertionError("the pair test left the code to a later route")

    for name in ("_code_columns", "_holders", "_planes", "_at_least", "identity_sphere"):
        monkeypatch.setattr(constructions, name, refuse)
    for n in range(2, 61):
        for code in _arithmetic_families(n):
            assert verify_min_distance(code) == n - 1, code.provenance


def test_plane_min_from_floor_n_minus_1_runs_the_kernel_and_finds_no_shared_pair():
    for n in range(4, 13):
        for code in _arithmetic_families(n):
            assert _plane_min(code.words, n, n - 1) == n - 1, code.provenance


def test_verify_min_distance_of_a_random_3000_word_code_at_30_in_46_rounds(monkeypatch):
    """No sphere is affordable, so after the rotation pass (floor 2) the plane
    scan reads all 3,000 rows: a first chunk of 16 and chunks of
    _CHUNK_BITS // 3000 = 87, 36 chunks in all, each ending in one failing
    comparator round, and 10 rounds that each raise the most shared pairs,
    to 10 (distance 19)."""
    rng = random.Random(30)
    words = {}
    while len(words) < 3000:
        words.setdefault(tuple(rng.sample(range(1, 31), 30)), None)
    needs = []
    at_least = constructions._at_least

    def counted(planes, need, among):
        needs.append(need)
        return at_least(planes, need, among)

    monkeypatch.setattr(constructions, "_at_least", counted)
    assert verify_min_distance(CodeBook(30, 1, tuple(words), "random")) == 19
    assert needs == [*range(1, 9)] + [9] * 3 + [10] * 31 + [11] * 4


@pytest.mark.parametrize("n", range(3, 13))
def test_verify_min_distance_matches_both_routes_on_codes_of_at_most_n_words(n):
    """The codes the pair test reads: seeded random codes of 2..n words, and
    each family code at n, as built and with one word swapped for a rotation
    of another (1 apart, so it falls through) or for a random word."""
    rng = random.Random(n)
    codes = []
    for size in range(2, n + 1):
        for _ in range(3):
            words = set()
            while len(words) < size:
                words.add(tuple(rng.sample(range(1, n + 1), n)))
            codes.append(CodeBook(n, 1, tuple(words), "random"))
    families = _arithmetic_families(n)
    if n in HAM_DECOMP_DIGESTS:
        families.append(ham_decomp_code(n))
    for code in families:
        i, j = rng.sample(range(n), 2)
        rotated = code.words[j][1:] + code.words[j][:1]
        drawn = tuple(rng.sample(range(1, n + 1), n))
        codes.append(code)
        for word, provenance in ((rotated, "rotated"), (drawn, "drawn")):
            if word not in code.words:
                words = code.words[:i] + (word,) + code.words[i + 1:]
                codes.append(CodeBook(n, 1, words, provenance))
    for code in codes:
        got = verify_min_distance(code)
        assert got == _plane_min(code.words, n, 1) == _pairwise_min(code), code
        assert code.provenance != "rotated" or got == 1, code
        assert code.design_distance == 1 or got == n - 1, code


def test_codebook_payload_computes_the_distance():
    assert codebook_payload(even_n_code(6))["verified_min_distance"] == 5
    assert codebook_payload(cyclic_class_code(5))["verified_min_distance"] == 2
    words = tuple(itertools.islice(itertools.permutations(range(1, 9)), PAIRWISE_MAX_WORDS + 1))
    assert codebook_payload(CodeBook(8, 1, words, "file"))["verified_min_distance"] is None


def test_codebook_has_no_stored_distance():
    assert list(CodeBook._fields) == ["n", "design_distance", "words", "provenance"]


def test_codebook_rejects_bad_words():
    with pytest.raises(ValueError):
        CodeBook(3, 2, ((1, 2, 3), (1, 2, 3)), "file")
    with pytest.raises(ValueError):
        CodeBook(3, 2, ((1, 2),), "file")
    with pytest.raises(ValueError):
        CodeBook(3, 0, ((1, 2, 3),), "file")
    with pytest.raises(ValueError):
        CodeBook(0, 2, ((),), "file")
    with pytest.raises(ValueError):
        CodeBook(0, 2, (), "file")


def test_codebook_text_round_trip():
    code = even_n_code(4)
    text = codebook_to_text(code)
    assert text.splitlines()[0] == "4 3 even"
    back = codebook_from_text(text)
    assert back.words == code.words
    assert back.design_distance == 3
    with pytest.raises(ValueError):
        codebook_from_text("4 3\n1 2 3 4\n")


def test_codebook_payload_round_trip():
    code = zn1_code(4)
    assert codebook_from_payload(codebook_payload(code)) == code


def test_codebook_from_payload_ignores_the_stored_distance():
    payload = dict(codebook_payload(even_n_code(4)), verified_min_distance=99)
    code = codebook_from_payload(payload)
    assert code == even_n_code(4) and verify_min_distance(code) == 3


EVEN_4 = codebook_payload(even_n_code(4))


@pytest.mark.parametrize("payload, message", [
    ({k: v for k, v in EVEN_4.items() if k != "words"}, "code payload lacks 'words'"),
    ({k: v for k, v in EVEN_4.items() if k != "n"}, "code payload lacks 'n'"),
    (dict(EVEN_4, words=5), "malformed code payload: 'int' object is not iterable"),
    (dict(EVEN_4, words=[5]), "malformed code payload: 'int' object is not iterable"),
], ids=["no-words", "no-n", "words-5", "word-5"])
def test_codebook_from_payload_rejects_a_malformed_payload(payload, message):
    with pytest.raises(ValueError) as raised:
        codebook_from_payload(payload)
    assert str(raised.value) == message


@pytest.mark.parametrize("code", [even_n_code(4), CodeBook(3, 2, ((1, 2, 3), (3, 2, 1)), "1"),
                                  CodeBook(4, 3, ((1, 2, 3, 4),), "2 1"), cyclic_class_code(3)],
                         ids=["even", "header-3-2-1", "header-4-3-2-1", "cyclic"])
def test_codebook_from_text_reads_every_form(code):
    """Headed text reads back whatever its provenance when no d is given,
    JSON with or without d, and bare words at the d given, here n."""
    text = codebook_to_text(code)
    assert codebook_from_text(text) == code
    as_json = json.dumps(codebook_payload(code))
    assert codebook_from_text(as_json) == codebook_from_text(" \n" + as_json, 9) == code
    bare = "".join(text.splitlines(keepends=True)[1:])
    assert codebook_from_text(bare, code.n) == CodeBook(code.n, code.n, code.words, "file")


@pytest.mark.parametrize("text", ["", "\n", " \n\t\n"])
@pytest.mark.parametrize("d", [None, 3])
def test_codebook_from_text_rejects_an_empty_file(text, d):
    with pytest.raises(ValueError, match="^empty code file$"):
        codebook_from_text(text, d)
