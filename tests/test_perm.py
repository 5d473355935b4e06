"""Core permutation operations, the two distance routes, the row-parallel
pair-count kernel, and the block metric against the generalized Cayley metric."""

import collections
import doctest
import itertools
import math
import random

import pytest

from blockperm import cli, constructions, graph, perm
from blockperm.perm import (
    DEFINITION_SEARCH_MAX_N,
    block_distance,
    char_set,
    char_set_payload,
    compose,
    cyclic_shifts,
    distance_by_definition,
    format_permutation,
    from_one_line,
    identity,
    inverse,
    is_minimal,
    parse_permutation,
)

WORKED_P1 = (4, 8, 3, 2, 6, 7, 5, 1, 9)
WORKED_P2 = (6, 7, 8, 3, 2, 5, 1, 9, 4)


def test_from_one_line_accepts_valid_input():
    assert from_one_line([1, 2, 3, 4]) == (1, 2, 3, 4)
    assert from_one_line(WORKED_P1) == WORKED_P1
    assert from_one_line([1]) == (1,)


@pytest.mark.parametrize("bad", [[1, 1, 2], [0, 1, 2], [2, 3, 4], [], [1, 3], [1.0, 2.0],
                                 [True, 2], [1, "2"], ["1"]])
def test_from_one_line_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        from_one_line(bad)


def test_compose_evaluates_outer_of_inner():
    assert compose((2, 1, 3), (3, 1, 2)) == (3, 2, 1)
    p = (3, 1, 4, 2)
    assert compose(identity(4), p) == p
    assert compose(p, inverse(p)) == identity(4)
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


def test_inverse_small_cases():
    assert inverse((3, 1, 2)) == (2, 3, 1)
    assert inverse((2, 1)) == (2, 1)
    assert inverse(identity(5)) == identity(5)


@pytest.mark.parametrize("n", range(1, 8))
def test_unrank_inverts_the_order_of_itertools_permutations(n):
    words = list(itertools.permutations(range(1, n + 1)))
    assert [perm._unrank(n, r) for r in range(len(words))] == words


def test_char_set_values():
    assert char_set((1, 2, 3, 4)) == {(1, 2), (2, 3), (3, 4)}
    assert char_set(WORKED_P1) == {
        (4, 8), (8, 3), (3, 2), (2, 6), (6, 7), (7, 5), (5, 1), (1, 9)}
    assert char_set((1,)) == frozenset()


def test_char_set_is_a_single_directed_path():
    rng = random.Random(7)
    for n in range(1, 9):
        for _ in range(20):
            p = tuple(rng.sample(range(1, n + 1), n))
            pairs = char_set(p)
            assert len(pairs) == n - 1
            firsts = [a for a, _ in pairs]
            seconds = [b for _, b in pairs]
            assert len(set(firsts)) == len(firsts)
            assert len(set(seconds)) == len(seconds)
            # walking from the unique source visits every label: one path, no cycle
            step = dict(pairs)
            sources = set(firsts) - set(seconds)
            if n == 1:
                continue
            assert len(sources) == 1
            node, seen = sources.pop(), 1
            while node in step:
                node = step[node]
                seen += 1
            assert seen == n


def test_block_distance_worked_example():
    assert block_distance(WORKED_P1, WORKED_P2) == 3
    assert block_distance(WORKED_P1, WORKED_P1) == 0
    assert block_distance((1, 2, 3, 4), (3, 4, 1, 2)) == 1
    with pytest.raises(ValueError):
        block_distance((1, 2), (1, 2, 3))


@pytest.mark.parametrize("n", [1, 2, 254, 255, 256, 257, 300])
def test_block_distance_counts_the_pairs_missing_from_the_other_set(n):
    """Both routes, the byte table up to n = 255 and the pair sets from 256
    on, against the characteristic sets: seeded pairs, and each word against
    itself, its reversal, a rotation and a copy with one block moved."""
    rng = random.Random(n)
    labels = list(range(1, n + 1))
    for _ in range(50):
        a = tuple(rng.sample(labels, n))
        i, j = sorted(rng.sample(range(n + 1), 2)) if n > 1 else (0, 1)
        moved = a[:i] + a[j:] + a[i:j]
        for b in (tuple(rng.sample(labels, n)), a, a[::-1], a[1:] + a[:1], moved):
            assert block_distance(a, b) == len(char_set(a) - char_set(b))


def test_is_minimal():
    assert is_minimal((3, 2, 4, 1))
    assert not is_minimal(identity(4))
    assert is_minimal((1,))
    assert is_minimal((2, 1))
    assert not is_minimal((1, 2))


def test_distance_by_definition_worked_example():
    assert distance_by_definition(WORKED_P1, WORKED_P2) == 3
    assert distance_by_definition(WORKED_P1, WORKED_P1) == 0
    assert distance_by_definition((1, 2, 3, 4), (3, 4, 1, 2)) == 1


def test_distance_by_definition_guards():
    assert DEFINITION_SEARCH_MAX_N == 16
    top = identity(16)
    # reversal is at distance n - 1, the deepest search the guard admits
    assert distance_by_definition(top, top[::-1]) == 15
    with pytest.raises(ValueError, match="exceeds search guard 16"):
        distance_by_definition(identity(17), identity(17))
    with pytest.raises(ValueError):
        distance_by_definition((1, 2), (1, 2, 3))


def test_cyclic_shifts():
    assert cyclic_shifts((1, 2, 3)) == {(1, 2, 3), (2, 3, 1), (3, 1, 2)}
    assert cyclic_shifts((1,)) == {(1,)}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_distance_one_is_exactly_nontrivial_rotation(n):
    perms = list(itertools.permutations(range(1, n + 1)))
    for a in perms:
        shifts = cyclic_shifts(a)
        for b in perms:
            expected = b in shifts and b != a
            assert (block_distance(a, b) == 1) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cut_search_agrees_with_pair_count_exhaustively(n):
    perms = list(itertools.permutations(range(1, n + 1)))
    for a in perms:
        for b in perms:
            assert distance_by_definition(a, b) == block_distance(a, b)


@pytest.mark.parametrize("n", [6, 7])
def test_cut_search_agrees_with_pair_count_randomly(n):
    rng = random.Random(100 + n)
    labels = list(range(1, n + 1))
    for _ in range(10_000):
        a = tuple(rng.sample(labels, n))
        b = tuple(rng.sample(labels, n))
        assert distance_by_definition(a, b) == block_distance(a, b)


def test_cut_search_never_counts_shared_pairs(monkeypatch):
    def refuse(*args):
        raise AssertionError("the cut search used the pair-count route")

    for name in ("block_distance", "char_set", "_pair_masks"):
        monkeypatch.setattr(perm, name, refuse)
    assert distance_by_definition(WORKED_P1, WORKED_P2) == 3
    assert distance_by_definition(identity(16), identity(16)[::-1]) == 15


def _fewest_cuts_by_brute_force(p1, p2):
    """The smallest d such that some d cuts of p1 and some minimal order of
    the d + 1 blocks spell p2: every cut set and every order, as demo 01's
    find_decomposition tries them."""
    n = len(p1)
    for d in range(n):
        for cuts in itertools.combinations(range(1, n), d):
            bounds = (0, *cuts, n)
            blocks = [p1[a:b] for a, b in zip(bounds, bounds[1:])]
            for order in itertools.permutations(range(d + 1)):
                if is_minimal(order) and sum((blocks[k] for k in order), ()) == p2:
                    return d
    raise AssertionError(f"no decomposition of {p1} into {p2}")


@pytest.mark.parametrize("base", ["identity", "seeded"])
def test_cut_search_answer_rests_on_the_literal_checks(base):
    # the reference tries every cut set and every minimal block order and
    # compares the concatenation with p2: it never looks at a pair
    labels = list(range(1, 6))
    p1 = identity(5) if base == "identity" else tuple(random.Random(5).sample(labels, 5))
    for p2 in itertools.permutations(labels):
        assert distance_by_definition(p1, p2) == _fewest_cuts_by_brute_force(p1, p2)


def test_check_definition_catches_a_broken_pair_count(monkeypatch, capsys):
    perms = [format_permutation(p) for p in itertools.permutations(range(1, 5))]
    argvs = [["dist", a, b, "--check-definition"] for a in perms for b in perms]
    assert {cli.main(argv) for argv in argvs} == {0}
    capsys.readouterr()

    def broken(p1, p2):  # the pair count, blind to the pair (p1[0], p1[1])
        return len(set(zip(p1[1:], p1[2:])).difference(zip(p2, p2[1:])))

    monkeypatch.setattr(perm, "block_distance", broken)
    assert 2 in {cli.main(argv) for argv in argvs}
    assert "mismatch: pair-count" in capsys.readouterr().err


@pytest.mark.parametrize("base", ["identity", "seeded"])
def test_cut_search_agrees_with_pair_count_on_all_of_s7(base):
    labels = list(range(1, 8))
    p1 = identity(7) if base == "identity" else tuple(random.Random(7).sample(labels, 7))
    for p2 in itertools.permutations(labels):
        assert distance_by_definition(p1, p2) == block_distance(p1, p2)


def test_metric_axioms_exhaustive_s4():
    perms = list(itertools.permutations(range(1, 5)))
    dist = {(a, b): block_distance(a, b) for a in perms for b in perms}
    for a in perms:
        for b in perms:
            assert dist[a, b] == dist[b, a]
            assert (dist[a, b] == 0) == (a == b)
            assert 0 <= dist[a, b] <= 3
    for c in perms:
        for a in perms:
            ca = compose(c, a)
            for b in perms:
                assert dist[ca, compose(c, b)] == dist[a, b]
    for a in perms:
        for b in perms:
            for c in perms:
                assert dist[a, c] <= dist[a, b] + dist[b, c]


@pytest.mark.parametrize("n", [6, 7])
def test_metric_axioms_random(n):
    rng = random.Random(55 + n)
    labels = list(range(1, n + 1))
    for _ in range(2_000):
        a = tuple(rng.sample(labels, n))
        b = tuple(rng.sample(labels, n))
        c = tuple(rng.sample(labels, n))
        dab = block_distance(a, b)
        assert dab == block_distance(b, a)
        assert 0 <= dab <= n - 1
        assert block_distance(compose(c, a), compose(c, b)) == dab
        assert block_distance(a, c) <= dab + block_distance(b, c)


def test_permutation_text_round_trip():
    text = format_permutation(WORKED_P1)
    assert text == "4 8 3 2 6 7 5 1 9"
    assert parse_permutation(text) == WORKED_P1
    with pytest.raises(ValueError):
        parse_permutation("1 2 x")


def test_char_set_payload_sorted_pairs():
    payload = char_set_payload((2, 1, 3))
    assert payload == {"n": 3, "pairs": [[1, 3], [2, 1]]}
    assert payload["pairs"] == sorted(payload["pairs"])


def test_the_doctests_of_perm_pass():
    failed, attempted = doctest.testmod(perm)
    assert failed == 0
    assert attempted >= 3


# -- the row-parallel pair-count kernel ---------------------------------------


def _seeded_words(n, count=60):
    """Up to count distinct words of S_n, drawn with a seed that depends on n."""
    everything = list(itertools.permutations(range(1, n + 1)))
    return tuple(random.Random(30 + n).sample(everything, min(count, len(everything))))


def _drawn_words(n, count):
    """min(count, n!) distinct seeded words of S_n, drawn one at a time."""
    rng = random.Random(n)
    words = {}
    while len(words) < min(count, math.factorial(n)):
        words.setdefault(tuple(rng.sample(range(1, n + 1), n)), None)
    return tuple(words)


def _kernel(words, n, rows):
    """The kernel's inputs for the words and its count planes of rows, a chunk
    at a time: (chunk, planes) pairs."""
    columns = constructions._code_columns(words, n)
    holders = perm._holders(columns, n)
    return [(chunk, perm._planes(columns, holders, chunk))
            for chunk in perm._chunks(rows, len(words))]


def _check_answers(words, n, rows):
    """Row i's answer, for each s, is the words sharing at least s pairs with
    word i, counted pair by pair, with i itself left out by either form of
    among (at s = 0, among itself); with all words as among, i is in it, and
    alone at s = n-1."""
    everything = (1 << len(words)) - 1
    seen = []
    for chunk, planes in _kernel(words, n, rows):
        assert len(planes) == (n - 1).bit_length()
        assert all(len(plane) == len(chunk) for plane in planes)
        seen += chunk
        shared = [[n - 1 - block_distance(words[i], w) for w in words] for i in chunk]
        for s in range(n):
            want = [sum(1 << j for j, c in enumerate(row) if c >= s) for row in shared]
            assert perm._at_least(planes, s, [everything] * len(chunk)) == want
            for others in ([everything ^ 1 << i for i in chunk], [~(1 << i) for i in chunk]):
                got = perm._at_least(planes, s, others)
                assert got == ([w & ~(1 << i) for w, i in zip(want, chunk)] if s else others)
        assert perm._at_least(planes, n - 1, [everything] * len(chunk)) == [1 << i for i in chunk]
    assert seen == list(rows)


@pytest.mark.parametrize("n", range(3, 10))
def test_at_least_matches_the_pair_count(n):
    words = _seeded_words(n)
    _check_answers(words, n, range(len(words)))


@pytest.mark.parametrize("n", range(2, 21))  # n = 2, 3, 5, 9 and 17 start widths 1 to 5
def test_kernel_matches_the_pair_count_across_chunk_edges(monkeypatch, n):
    """With chunks of 3 rows: 1, chunk-1, chunk, chunk+1 and 2·chunk+1 rows,
    as many as S_n has words for."""
    words = _drawn_words(n, 12)
    monkeypatch.setattr(perm, "_CHUNK_BITS", 3 * len(words))
    for rows in (1, 2, 3, 4, 7):
        if rows <= len(words):
            assert [len(chunk) for chunk, _ in _kernel(words, n, range(rows))] == (
                [3] * (rows // 3) + [rows % 3] * (rows % 3 > 0))
            _check_answers(words, n, range(rows))


def test_chunks_hold_the_bit_budget():
    """A chunk of rows of N-bit integers takes at most _CHUNK_BITS bits per
    list, and one row when N alone exceeds it; the chunks tile the rows."""
    for count in (1, 2, 720, 5040, perm._CHUNK_BITS, perm._CHUNK_BITS + 1):
        cap = max(1, perm._CHUNK_BITS // count)
        runs = list(perm._chunks(range(5, 6 + 2 * cap), count))
        assert [(run.start, run.stop) for run in runs] == [
            (5, 5 + cap), (5 + cap, 5 + 2 * cap), (5 + 2 * cap, 6 + 2 * cap)]
    assert list(perm._chunks(range(0), 0)) == []


def test_carry_save_adder_leaves_one_list_per_plane():
    """With n-1 columns of one row, each holding the word's own pair, every
    count is n-1, so the planes are the bits of n-1, and no plane is left
    with two lists or none (``_planes`` unpacks one from each)."""
    for n in range(2, 301):
        planes = perm._planes([[0]] * (n - 1), [1], range(1))
        assert planes == [[(n - 1) >> k & 1] for k in range((n - 1).bit_length())], n


def _count_adder_rows(monkeypatch, module):
    """Wrap module's ``_planes`` and return the list of chunk sizes it is given."""
    sizes = []

    def counted(columns, holders, rows):
        sizes.append(len(rows))
        return perm._planes(columns, holders, rows)

    monkeypatch.setattr(module, "_planes", counted)
    return sizes


def _count_rounds(monkeypatch, module):
    """Wrap module's ``_at_least`` and return the list of needs it is asked."""
    calls = []

    def counted(planes, need, among):
        calls.append(need)
        return perm._at_least(planes, need, among)

    monkeypatch.setattr(module, "_at_least", counted)
    return calls


@pytest.mark.parametrize("n", [4, 5])
def test_neighbor_bits_reads_each_row_once_between_the_trivial_distances(monkeypatch, n):
    sizes = _count_adder_rows(monkeypatch, graph)
    words = _seeded_words(n)
    for d in range(-1, n + 2):
        sizes.clear()
        rows = graph._neighbor_bits(words, n, d)
        assert sum(sizes) == (len(words) if 1 < d < n else 0)
        assert rows == [sum(1 << j for j, w in enumerate(words) if 0 < block_distance(v, w) < d)
                        for v in words]


def test_verify_min_distance_probes_at_most_once_per_chunk_and_step(monkeypatch):
    """Sphere 2 answers for the cyclic code, so the plane scan is asked
    directly: its 720 rows are a first chunk of 16 and chunks of
    _CHUNK_BITS // 720 = 364, one failing round each and one per step."""
    calls = _count_rounds(monkeypatch, constructions)
    sizes = _count_adder_rows(monkeypatch, constructions)
    code = constructions.cyclic_class_code(7)
    assert constructions.verify_min_distance(code) == 2 and calls == []
    assert constructions._plane_min(code.words, 7, 1) == 2
    assert sizes == [16, 364, 340]
    assert calls == [1, 2, 3, 4, 5, 5, 5]  # 3 chunks and 4 steps


def test_verify_min_distance_returns_at_the_first_distance_one_pair(monkeypatch):
    """Seeded words give the pairwise minimum within one round per chunk and
    step.  Add a rotation of the first word, which shares n-2 of its pairs:
    each round of the first chunk finds it, and the plane scan returns after
    n-2 rounds (``verify_min_distance`` finds that pair by its rotation key
    first)."""
    calls = _count_rounds(monkeypatch, constructions)
    words = _seeded_words(8, 49)
    assert constructions._plane_min(words, 8, 1) == min(
        itertools.starmap(block_distance, itertools.combinations(words, 2)))
    assert len(calls) <= 2 + 6
    calls.clear()
    first = words[0]
    assert constructions._plane_min(words + (first[1:] + first[:1],), 8, 1) == 1
    assert calls == [1, 2, 3, 4, 5, 6]


# -- the generalized Cayley metric --------------------------------------------


def _cayley_distances(n):
    """d_G(identity, p) for every p in S_n, by a breadth-first search whose
    step exchanges two non-overlapping segments p[a:b] and p[c:e], a < b <= c < e.
    Both metrics are left-invariant, so these distances cover every pair."""
    cuts = [cut for cut in itertools.combinations_with_replacement(range(n + 1), 4)
            if cut[0] < cut[1] and cut[2] < cut[3]]
    dist = {identity(n): 0}
    frontier = [identity(n)]
    while frontier:
        grown = []
        for p in frontier:
            for a, b, c, e in cuts:
                q = p[:a] + p[c:e] + p[b:c] + p[a:b] + p[e:]
                if q not in dist:
                    dist[q] = dist[p] + 1
                    grown.append(q)
        frontier = grown
    return dist


#: how many p in S_n lie at each (d_G, d_B) from the identity
JOINT_COUNTS = {
    5: {(0, 0): 1, (1, 1): 4, (1, 2): 18, (1, 3): 12, (1, 4): 1, (2, 3): 32, (2, 4): 52},
    6: {(0, 0): 1, (1, 1): 5, (1, 2): 30, (1, 3): 30, (1, 4): 5, (2, 3): 80, (2, 4): 260,
        (2, 5): 129, (3, 5): 180},
    7: {(0, 0): 1, (1, 1): 6, (1, 2): 45, (1, 3): 60, (1, 4): 15, (2, 3): 160, (2, 4): 780,
        (2, 5): 774, (2, 6): 155, (3, 5): 1080, (3, 6): 1964},
}


@pytest.mark.parametrize("n", range(1, 8))
def test_block_metric_is_of_the_order_of_the_generalized_cayley_metric(n):
    """d_G <= d_B <= 4·d_G on all of S_n, the factor 4 first reached at n = 5.
    So a code at block distance 4d-3 has generalized Cayley distance at least
    d, and one at Cayley distance d has block distance at least d:
    C_B(n, 4d-3) <= C_G(n, d) <= C_B(n, d)."""
    dist = _cayley_distances(n)
    assert len(dist) == math.factorial(n)
    joint = collections.Counter((g, block_distance(identity(n), p)) for p, g in dist.items())
    assert all(g <= b <= 4 * g for g, b in joint)
    assert any(b == 4 * g > 0 for g, b in joint) == (n >= 5)
    if n in JOINT_COUNTS:
        assert joint == JOINT_COUNTS[n]
