"""Syndrome codes, the explicit families, and code verification."""

import gc
import itertools
import math
import random

import pytest

from blockperm.constructions import (
    HAM_SEARCH_MAX_N,
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
    with_verified_min_distance,
    zn1_code,
)
from blockperm.enumeration import myers_count
from blockperm.perm import block_distance, char_set


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


def test_syndrome_validation():
    enc = PairEncoder.for_n(4)
    with pytest.raises(ValueError):
        syndrome((1, 2, 3), 3, enc)
    with pytest.raises(ValueError):
        syndrome((1, 2, 3, 4), 1, enc)


def test_syndrome_class_frozen():
    enc = PairEncoder(4, 7)
    code = syndrome_class(4, 3, (1, 1), enc)
    assert (1, 2, 3, 4) in code.words
    assert (4, 3, 2, 1) in code.words
    assert verify_min_distance(code) >= 3
    assert code.provenance == "syndrome"


def test_syndrome_class_can_be_empty():
    enc = PairEncoder.for_n(4)
    sizes = {f: len(syndrome_class(4, 3, f, enc).words)
             for f in itertools.product(range(3), repeat=2)}
    assert any(size == 0 for size in sizes.values())


def test_in_syndrome_class_matches_scan():
    enc = PairEncoder.for_n(5)
    code = syndrome_class(5, 3, (1, 1), enc)
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


@pytest.mark.parametrize("d", [3, 4])
def test_syndrome_fibers_separate_at_n7(d):
    enc = PairEncoder.for_n(7)
    buckets = syndrome_classes(7, d, enc)
    assert sum(len(ws) for ws in buckets.values()) == math.factorial(7)
    for words in buckets.values():
        sets = [char_set(w) for w in words]
        for i, si in enumerate(sets):
            for sj in sets[i + 1 :]:
                assert len(si - sj) >= d


@pytest.mark.parametrize("d", [3, 4])
def test_syndrome_fibers_partition_and_separate(d):
    n = 5
    enc = PairEncoder.for_n(n)
    buckets = syndrome_classes(n, d, enc)
    assert sum(len(ws) for ws in buckets.values()) == math.factorial(n)
    for words in buckets.values():
        for a, b in itertools.combinations(words, 2):
            assert block_distance(a, b) >= d


@pytest.mark.parametrize("n", range(3, 8))
def test_syndrome_fibers_are_codes_over_the_whole_range(n):
    enc = PairEncoder.for_n(n)
    for d in range(2, n):
        for words in syndrome_classes(n, d, enc).values():
            assert verify_min_distance(CodeBook(n, d, tuple(words), "syndrome")) >= d
    # a word and its reverse share every syndrome at distance n-1
    for d in (n, n + 1):
        with pytest.raises(ValueError, match="2 <= d <= n-1"):
            syndrome_classes(n, d, enc)
        with pytest.raises(ValueError, match="2 <= d <= n-1"):
            syndrome_class(n, d, (0,) * (d - 1), enc)
        with pytest.raises(ValueError, match="2 <= d <= n-1"):
            largest_syndrome_class(n, d, enc)


def test_largest_syndrome_class_pigeonhole():
    for n, d in [(5, 3), (6, 3)]:
        enc = PairEncoder.for_n(n)
        code = largest_syndrome_class(n, d, enc)
        assert len(code.words) >= -(-math.factorial(n) // enc.q ** (d - 1))
    assert len(largest_syndrome_class(6, 3).words) >= 3


def _fibers_by_syndrome(n, d, enc):
    """The per-permutation route: bucket every permutation by ``syndrome``."""
    buckets = {}
    for p in itertools.permutations(range(1, n + 1)):
        buckets.setdefault(syndrome(p, d, enc), []).append(p)
    return buckets


@pytest.mark.parametrize("n, d", [(n, d) for n in range(3, 8) for d in range(2, n)] + [(8, 3)])
def test_fiber_walk_matches_per_permutation_syndromes(n, d):
    enc = PairEncoder.for_n(n)
    expected = _fibers_by_syndrome(n, d, enc)
    # same keys in the same order, each fiber's words in the same order
    assert list(syndrome_classes(n, d, enc).items()) == list(expected.items())
    if n > 6:
        return
    for f, words in expected.items():
        assert syndrome_class(n, d, f, enc).words == tuple(words)
    assert syndrome_class(n, d, [v + enc.q for v in f], enc).words == tuple(words)
    missed = (f for f in itertools.product(range(enc.q), repeat=d - 1) if f not in expected)
    for f in itertools.islice(missed, 5):
        assert syndrome_class(n, d, f, enc).words == ()


def test_fiber_scans_reject_an_encoder_of_another_size():
    for scan in (lambda: syndrome_classes(5, 3, PairEncoder.for_n(6)),
                 lambda: syndrome_class(5, 3, (0, 0), PairEncoder.for_n(4))):
        with pytest.raises(ValueError, match="does not match encoder"):
            scan()


def test_fiber_scans_leave_no_reference_cycles():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        syndrome_classes(6, 3)
        syndrome_class(6, 3, (1, 1))
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


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_even_n_code_properties(n):
    code = even_n_code(n)
    assert len(code.words) == n
    assert verify_min_distance(code) == max(n - 1, 1)
    _assert_pairs_partition(code)


def test_zn1_code_frozen():
    code = zn1_code(4)
    assert set(code.words) == {(1, 2, 3, 4), (2, 4, 1, 3), (3, 1, 4, 2), (4, 3, 2, 1)}
    assert verify_min_distance(code) == 3
    _assert_pairs_partition(code)
    with pytest.raises(ValueError):
        zn1_code(5)  # 6 is composite


@pytest.mark.parametrize("n", [4, 6, 10])
def test_zn1_code_properties(n):
    code = zn1_code(n)
    assert len(code.words) == n
    assert verify_min_distance(code) == n - 1
    _assert_pairs_partition(code)


def test_ham_decomp_code_found_at_7():
    code = ham_decomp_code(7)
    assert code is not None
    assert len(code.words) == 7
    assert verify_min_distance(code) == 6
    _assert_pairs_partition(code)


@pytest.mark.parametrize("n", [3, 5])
def test_ham_decomp_code_not_found(n):
    assert ham_decomp_code(n) is None


def test_ham_decomp_code_validation():
    with pytest.raises(ValueError):
        ham_decomp_code(6)
    with pytest.raises(ValueError):
        ham_decomp_code(HAM_SEARCH_MAX_N + 2)  # beyond the default search guard


def test_verify_min_distance_conventions():
    assert verify_min_distance(CodeBook(5, 4, ((1, 2, 3, 4, 5),), "file")) == 5
    assert verify_min_distance(CodeBook(3, 1, (), "file")) == 3
    with pytest.raises(ValueError):
        verify_min_distance(cyclic_class_code(5), max_words=5)


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


def _walked_radius(n, count):
    """Spheres walked before the switch: while N·Σ myers_count(n, r) <= C(N, 2)."""
    lookups, r = 0, 0
    while r < n - 1:
        lookups += count * myers_count(n, r + 1)
        if lookups > math.comb(count, 2):
            break
        r += 1
    return r


DIFFERENTIAL_SEEDS = range(40)


@pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
def test_verify_min_distance_matches_pairwise_on_random_codes(seed):
    code = _random_code(seed)
    assert verify_min_distance(code) == _pairwise_min(code)


def test_random_codes_reach_every_route():
    """The seeded codes finish inside the walk, on its last sphere, exactly at
    the first radius left to the pairwise scan, and beyond it."""
    routes = set()
    for seed in DIFFERENTIAL_SEEDS:
        code = _random_code(seed)
        walked, found = _walked_radius(code.n, len(code.words)), _pairwise_min(code)
        routes.add("inside" if found < walked else "last sphere" if found == walked
                   else "switch" if found == walked + 1 else "pairwise")
    assert routes == {"inside", "last sphere", "switch", "pairwise"}


@pytest.mark.parametrize("make, args", [(cyclic_class_code, (6,)), (largest_syndrome_class, (7, 3)),
                                        (even_n_code, (8,)), (zn1_code, (10,))],
                         ids=["cyclic-6", "syndrome-7-3", "even-8", "zn1-10"])
def test_verify_min_distance_matches_pairwise_on_constructions(make, args):
    code = make(*args)
    assert verify_min_distance(code) == _pairwise_min(code)


def test_verify_min_distance_of_the_5040_word_cyclic_code():
    assert verify_min_distance(cyclic_class_code(8)) == 2


def test_with_verified_min_distance():
    code = with_verified_min_distance(even_n_code(6))
    assert code.verified_min_distance == 5


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
    code = with_verified_min_distance(zn1_code(4))
    assert codebook_from_payload(codebook_payload(code)) == code
