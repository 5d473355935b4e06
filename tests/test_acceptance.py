"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in
captured output).  Nine criteria must pass.  Criterion 4 compares the
new-bound column against the published reference table at tolerance +-1;
the (18, 11) reference entry disagrees with its own defining formula by
156, so criterion 4 must fail, and the test pins that verdict: exactly one
deviation, the (18, 11) one, reported within the criterion's 1 s gate.  Any
other deviation, or none, fails the test, as does a slow table.
"""

import ast
import itertools
import math
import random
import re

import pytest

from blockperm import selftest
from blockperm.bounds import TABLE1_PUBLISHED
from blockperm.constructions import cyclic_class_code, even_n_code, syndrome_classes
from blockperm.enumeration import ball_size_bounds, enumerate_spheres, myers_count
from blockperm.graph import build_graph, neighborhood_stats
from blockperm.perm import _pair_masks, block_distance, char_set, compose, distance_by_definition


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in selftest.run_all()}


def _expected_table_erratum() -> str:
    # computed here in integers, independently of bounds.new_upper: its
    # C(n,d)^2 (n-d)! / C(n-1, n-d) simplifies to n·n! / (d·d!)
    floor = 18 * math.factorial(18) // (11 * math.factorial(11))
    published = TABLE1_PUBLISHED[(18, 11)][1]
    return f"(18,11): new bound {floor} off published {published} by more than 1"


@pytest.mark.parametrize("number", range(1, 11))
def test_criterion(results, number):
    result = results[number]
    print(selftest.format_result(result))
    if number != 4:
        assert result.status == "pass", selftest.format_result(result)
        return
    assert result.status == "fail", selftest.format_result(result)
    parsed = re.fullmatch(r"10 rows, (\d+\.\d+)s; (\[.*\])", result.detail)
    assert parsed, f"unexpected criterion 4 detail: {result.detail}"
    assert float(parsed.group(1)) < 1.0, f"table took {parsed.group(1)}s, gate is 1s"
    assert ast.literal_eval(parsed.group(2)) == [_expected_table_erratum()]


def test_criterion_9_detail(results):
    assert re.fullmatch(r"exhaustive on S_4, S_5; 100000 random S_7 triples; 0 violations, \d+\.\d\ds",
                        results[9].detail), results[9].detail


def _skewed_distance(p, q):
    """Symmetric, but not left-invariant: one extra unit when exactly one of
    p and q starts with 1."""
    return block_distance(p, q) + ((p[0] == 1) != (q[0] == 1))


def _losing_first_pair(which):
    """``_pair_masks`` with the first pair's bit cleared in each word ``which`` picks."""
    def masks(perms, n):
        return [mask & ~(1 << (p[0] - 1) * n + p[1] - 1) if which(p) else mask
                for p, mask in zip(perms, _pair_masks(perms, n))]
    return masks


# S_4 and S_5 count each violated pair (a, b) once per condition it fails,
# S_7 each violated triple once.  Right-composition breaks left-invariance on
# S_4, S_5 and S_7 alike; the skewed distance is only read on S_7; a broken
# inverse misreads d(a, b) as f(a∘b) on S_4 and S_5.  A mask that lost a bit
# miscounts its word's pairs; on S_7 the pair count's check against
# block_distance sees it, and the reversed S_7 word is in no S_4 or S_5 check.
@pytest.mark.parametrize("name, broken, expected", [
    ("compose", lambda outer, inner: compose(inner, outer), 72_147),
    ("block_distance", _skewed_distance, 24_359),
    ("inverse", lambda p: p, 7_476),
    ("_pair_masks", _losing_first_pair(lambda p: p[0] == 1), 28_448),
    ("_pair_masks", _losing_first_pair(lambda p: p == (7, 6, 5, 4, 3, 2, 1)), 19),
], ids=["right-composition", "not-left-invariant", "identity-inverse",
        "masks-short-after-1", "mask-short-on-reversal"])
def test_criterion_9_catches_broken_invariance(monkeypatch, name, broken, expected):
    monkeypatch.setattr(selftest, name, broken)
    result = selftest.criterion_9_metric_axioms()
    violations = int(re.search(r"; (\d+) violations", result.detail).group(1))
    assert result.status == "fail" and violations == expected, result.detail


def test_criterion_9_draws_cover_s7(monkeypatch):
    firsts, outers, inners = [], set(), set()

    def distance_spy(p, q):
        firsts.append(p)
        return block_distance(p, q)

    def compose_spy(outer, inner):
        if len(outer) == 7:  # the S_4 and S_5 pair checks compose too
            outers.add(outer)
            inners.add(inner)
        return compose(outer, inner)

    monkeypatch.setattr(selftest, "block_distance", distance_spy)
    monkeypatch.setattr(selftest, "compose", compose_spy)
    assert selftest.criterion_9_metric_axioms().status == "pass"
    assert len(firsts) == 100_000  # one left-invariance check per triple
    # c∘a covers S_7 even if some index is never drawn; c, a and b do only if each can be
    assert len(set(firsts)) == len(outers) == len(inners) == math.factorial(7)


def test_criterion_9_draws_are_one_choices_call(monkeypatch):
    """The S_7 triples, in order, are those of one ``choices`` call of 300,000
    draws, whatever chunks the criterion draws them in."""
    calls = []

    def compose_spy(outer, inner):
        if len(outer) == 7:
            calls.append((outer, inner))
        return compose(outer, inner)

    monkeypatch.setattr(selftest, "compose", compose_spy)
    assert selftest.criterion_9_metric_axioms().status == "pass"
    draws = iter(random.Random(2759).choices(list(itertools.permutations(range(1, 8))), k=300_000))
    assert calls == [call for a, b, c in zip(draws, draws, draws) for call in ((c, a), (c, b))]


def _first_mass_doubled(n):
    profile = enumerate_spheres(n)
    return profile._replace(counts=(2, *profile.counts[1:]))


def _one_word_short(n):
    code = even_n_code(n)
    return code._replace(words=code.words[:-1])


# One mutation for each failure line of criteria 2, 3, 5, 6 and 8, each
# pinning the detail its criterion reports, seconds read as #s.
@pytest.mark.parametrize("criterion, name, broken, expected", [
    (selftest.criterion_2_sphere_formula, "myers_count",
     lambda n, k: myers_count(n, k) + ((n, k) == (5, 2)), "n=3..7, #s; mismatches ['n=5 k=2']"),
    (selftest.criterion_2_sphere_formula, "enumerate_spheres", _first_mass_doubled,
     "n=3..7, #s; mismatches ['n=3 mass', 'n=4 mass', 'n=5 mass', 'n=6 mass', 'n=7 mass']"),
    (selftest.criterion_3_ball_sandwich, "ball_size_bounds",
     lambda n, t: (ball_size_bounds(n, t)[0],) * 2,
     "12 admissible (n, t) pairs; failed ['(n=4, t=1): 3 <= 4 <= 3', '(n=5, t=1): 4 <= 5 <= 4', "
     "'(n=6, t=1): 5 <= 6 <= 5', '(n=6, t=2): 20 <= 36 <= 20', '(n=7, t=1): 6 <= 7 <= 6', "
     "'(n=7, t=2): 30 <= 52 <= 30', '(n=7, t=3): 120 <= 272 <= 120']"),
    (selftest.criterion_5_syndrome_partition, "verify_min_distance",
     lambda code: code.design_distance - 1,
     "all fiber pairs checked: (5,3) 80, (5,4) 60, (6,3) 1156, (6,4) 392, (7,3) 26744; #s; "
     "['(n=5, d=3): fiber pair below distance 3', '(n=5, d=3): fiber pair below distance 3', "
     "'(n=5, d=3): fiber pair below distance 3']"),
    (selftest.criterion_5_syndrome_partition, "syndrome_classes",
     lambda n, d: dict(itertools.islice(syndrome_classes(n, d).items(), 1, None)),
     "all fiber pairs checked: (5,3) 79, (5,4) 59, (6,3) 1150, (6,4) 391, (7,3) 26678; #s; "
     "['(n=5, d=3): fiber sizes do not sum to n!', '(n=5, d=4): fiber sizes do not sum to n!', "
     "'(n=6, d=3): fiber sizes do not sum to n!']"),
    (selftest.criterion_5_syndrome_partition, "select_prime", lambda n: 2,
     "all fiber pairs checked: (5,3) 80, (5,4) 60, (6,3) 1156, (6,4) 392, (7,3) 26744; #s; "
     "['(n=5, d=3): largest fiber below pigeonhole floor 30', "
     "'(n=5, d=4): largest fiber below pigeonhole floor 15', "
     "'(n=6, d=3): largest fiber below pigeonhole floor 180']"),
    (selftest.criterion_6_max_distance_codes, "even_n_code", _one_word_short,
     "even n in {4..12}, n+1 prime in {4..12}, hub cycles at n=3,5,7; "
     "['even n=4: 3 words', 'even n=6: 5 words', 'even n=8: 7 words']"),
    (selftest.criterion_6_max_distance_codes, "distance_by_definition",
     lambda a, b: distance_by_definition(a, b) - 1,
     "even n in {4..12}, n+1 prime in {4..12}, hub cycles at n=3,5,7; "
     "['even n=4: min distance != 3', 'even n=6: min distance != 5', "
     "'even n=8: min distance != 7']"),
    (selftest.criterion_6_max_distance_codes, "char_set",
     lambda w: frozenset(tuple(sorted(pr)) for pr in char_set(w)),
     "even n in {4..12}, n+1 prime in {4..12}, hub cycles at n=3,5,7; "
     "['even n=4: adjacency pairs do not partition', "
     "'even n=6: adjacency pairs do not partition', "
     "'even n=8: adjacency pairs do not partition']"),
    (selftest.criterion_6_max_distance_codes, "ham_decomp_code", lambda n: None,
     "even n in {4..12}, n+1 prime in {4..12}, hub cycles at n=3,5,7; "
     "['hub-cycle search at n=7 did not yield 7 words at distance 6']"),
    (selftest.criterion_6_max_distance_codes, "ham_decomp_code", cyclic_class_code,
     "even n in {4..12}, n+1 prime in {4..12}, hub cycles at n=3,5,7; "
     "['cyclic n=7: 720 words', 'hub-cycle search claims a decomposition at n=3', "
     "'hub-cycle search claims a decomposition at n=5']"),
    (selftest.criterion_8_graph_structure, "build_graph", lambda n, d: build_graph(n, d + 1),
     "regularity n<=6, ring check n<=7; "
     "['G(3,1) not 0-regular', 'G(3,2) not 2-regular', 'G(4,1) not 0-regular']"),
    (selftest.criterion_8_graph_structure, "neighborhood_stats",
     lambda n, d: neighborhood_stats(n, d)._replace(zero_x_edge_count=1),
     "regularity n<=6, ring check n<=7; "
     "['(3,3): 1 zero-overlap edges', '(3,4): 1 zero-overlap edges', "
     "'(4,3): 1 zero-overlap edges']"),
], ids=["2-sphere-size", "2-sphere-mass", "3-upper-is-lower", "5-distance-short",
        "5-fiber-dropped", "5-prime-too-small", "6-word-dropped", "6-distance-short",
        "6-unordered-pairs", "6-no-hub-cycles", "6-cyclic-as-hub-cycles",
        "8-distance-one-too-far", "8-zero-overlap-edge"])
def test_criterion_catches_a_broken_library(monkeypatch, criterion, name, broken, expected):
    monkeypatch.setattr(selftest, name, broken)
    result = criterion()
    assert result.status == "fail", result.detail
    assert re.sub(r"\d+\.\d+s\b", "#s", result.detail) == expected
