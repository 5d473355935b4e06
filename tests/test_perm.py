"""Core permutation operations and the two distance routes."""

import doctest
import itertools
import random

import pytest

from blockperm import perm
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

    for name in ("block_distance", "char_set", "_pair_codes", "_pair_masks"):
        monkeypatch.setattr(perm, name, refuse)
    assert distance_by_definition(WORKED_P1, WORKED_P2) == 3
    assert distance_by_definition(identity(16), identity(16)[::-1]) == 15


def test_cut_search_checks_only_cut_sets_of_runs(monkeypatch):
    calls = []
    order = perm._block_order
    monkeypatch.setattr(perm, "_block_order", lambda *args: calls.append(args) or order(*args))
    top = identity(16)
    # every block of a cut set that can concatenate to top[::-1] is one label
    assert distance_by_definition(top, top[::-1]) == 15
    assert len(calls) <= 16


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
