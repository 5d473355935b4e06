"""End-to-end acceptance checks for the whole library.

Each criterion is a self-contained verification at desk scale, on fixed
sizes that the library's guards admit (S_n is scanned for n <= 7 only);
``run_all`` executes them in order and reports one line each, "pass" or
"fail".
"""

from __future__ import annotations

import itertools
import math
import random
import time
from typing import NamedTuple

from . import bounds as bounds_mod
from .constructions import (
    CodeBook,
    even_n_code,
    ham_decomp_code,
    select_prime,
    syndrome_classes,
    verify_min_distance,
    zn1_code,
)
from .enumeration import ball_size_bounds, enumerate_spheres, myers_count, sandwich_applies
from .graph import build_graph, exact_independent_set, jv_lower_formula, neighborhood_stats
from .perm import (_pair_masks, block_distance, char_set, compose, distance_by_definition,
                   from_one_line, inverse)


class CriterionResult(NamedTuple):
    number: int
    name: str
    status: str  # "pass" or "fail"
    detail: str


def _result(number, name, ok, detail) -> CriterionResult:
    return CriterionResult(number, name, "pass" if ok else "fail", detail)


def criterion_1_worked_example() -> CriterionResult:
    """The 9-element example pair is at distance 3 by both routes, fast."""
    start = time.perf_counter()
    p1 = from_one_line((4, 8, 3, 2, 6, 7, 5, 1, 9))
    p2 = from_one_line((6, 7, 8, 3, 2, 5, 1, 9, 4))
    fast = block_distance(p1, p2)
    slow = distance_by_definition(p1, p2)
    elapsed = time.perf_counter() - start
    ok = fast == 3 and slow == 3 and elapsed < 1.0
    return _result(1, "worked example distance", ok,
                   f"pair-count {fast}, cut-search {slow}, {elapsed:.3f}s")


def criterion_2_sphere_formula() -> CriterionResult:
    """Enumerated sphere sizes equal the closed formula for n = 3..7."""
    start = time.perf_counter()
    bad = []
    for n in range(3, 8):
        profile = enumerate_spheres(n)
        if sum(profile.counts) != math.factorial(n) or profile.counts[0] != 1:
            bad.append(f"n={n} mass")
        for k in range(1, n):
            if profile.counts[k] != myers_count(n, k):
                bad.append(f"n={n} k={k}")
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 300.0
    detail = f"n=3..7, {elapsed:.2f}s" + (f"; mismatches {bad}" if bad else "")
    return _result(2, "sphere counts vs formula", ok, detail)


def criterion_3_ball_sandwich() -> CriterionResult:
    """Product sandwich holds exactly for every admissible (n, t), n <= 7."""
    checked, bad = 0, []
    for n in range(1, 8):
        profile = enumerate_spheres(n)
        for t in range(n):
            if not sandwich_applies(n, t):
                continue
            lower, upper = ball_size_bounds(n, t)
            size = profile.ball(t)
            checked += 1
            if not lower <= size <= upper:
                bad.append(f"(n={n}, t={t}): {lower} <= {size} <= {upper}")
    ok = not bad and checked > 0
    detail = f"{checked} admissible (n, t) pairs" + (f"; failed {bad}" if bad else "")
    return _result(3, "ball size sandwich", ok, detail)


def criterion_4_bound_table() -> CriterionResult:
    """All ten published comparison rows reproduce within tolerance, fast."""
    start = time.perf_counter()
    problems = bounds_mod.table1_deviations(bounds_mod.table1())
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 1.0
    detail = f"10 rows, {elapsed:.3f}s" + (f"; {problems}" if problems else "")
    return _result(4, "published bound table", ok, detail)


def criterion_5_syndrome_partition() -> CriterionResult:
    """Syndrome fibers partition S_n into codes of the designed distance."""
    start = time.perf_counter()
    bad = []
    pairs = {}
    for n, d in ((5, 3), (5, 4), (6, 3), (6, 4), (7, 3)):
        buckets = syndrome_classes(n, d)
        if sum(len(ws) for ws in buckets.values()) != math.factorial(n):
            bad.append(f"(n={n}, d={d}): fiber sizes do not sum to n!")
        for words in buckets.values():
            if verify_min_distance(CodeBook(n, d, tuple(words), "syndrome")) < d:
                bad.append(f"(n={n}, d={d}): fiber pair below distance {d}")
        pairs[n, d] = sum(math.comb(len(ws), 2) for ws in buckets.values())
        floor = -(-math.factorial(n) // select_prime(n) ** (d - 1))
        if max(len(ws) for ws in buckets.values()) < floor:
            bad.append(f"(n={n}, d={d}): largest fiber below pigeonhole floor {floor}")
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 300.0
    ran = ", ".join(f"({n},{d}) {count}" for (n, d), count in pairs.items())
    detail = f"all fiber pairs checked: {ran}; {elapsed:.2f}s" + (f"; {bad[:3]}" if bad else "")
    return _result(5, "syndrome fibers are codes", ok, detail)


def criterion_6_max_distance_codes() -> CriterionResult:
    """The d = n-1 families: sizes, exact distances, and pair partitions.

    The partition is the fact ``verify_min_distance`` reads for such codes,
    so the distances come from ``distance_by_definition`` on every pair.
    """
    bad = []

    def check(code, n):
        if len(code.words) != n:
            bad.append(f"{code.provenance} n={n}: {len(code.words)} words")
            return
        if any(distance_by_definition(a, b) != n - 1
               for a, b in itertools.combinations(code.words, 2)):
            bad.append(f"{code.provenance} n={n}: min distance != {n - 1}")
        pairs = [pr for w in code.words for pr in char_set(w)]
        if len(pairs) != len(set(pairs)) or len(set(pairs)) != n * (n - 1):
            bad.append(f"{code.provenance} n={n}: adjacency pairs do not partition")

    for n in (4, 6, 8, 10, 12):
        check(even_n_code(n), n)
    for n in (4, 6, 10, 12):
        check(zn1_code(n), n)
    found = ham_decomp_code(7)
    if found is None:
        bad.append("hub-cycle search at n=7 did not yield 7 words at distance 6")
    else:
        check(found, 7)
    for n in (3, 5):
        if ham_decomp_code(n) is not None:
            bad.append(f"hub-cycle search claims a decomposition at n={n}")
    detail = "even n in {4..12}, n+1 prime in {4..12}, hub cycles at n=3,5,7" + (
        f"; {bad[:3]}" if bad else "")
    return _result(6, "maximum-distance constructions", not bad, detail)


def criterion_7_independence_numbers() -> CriterionResult:
    """Exact maximum code sizes from the solver: (3,2)->2, (4,2)->6, (5,4)->4."""
    start = time.perf_counter()
    got = {case: len(exact_independent_set(build_graph(*case)).words)
           for case in ((3, 2), (4, 2), (5, 4))}
    elapsed = time.perf_counter() - start
    want = {(3, 2): 2, (4, 2): 6, (5, 4): 4}
    ok = got == want and elapsed < 300.0
    return _result(7, "exact independence numbers", ok, f"{got}, {elapsed:.2f}s")


def criterion_8_graph_structure() -> CriterionResult:
    """Regularity of the full graphs and absence of zero-overlap ring edges."""
    bad = []
    for n in range(3, 7):
        profile = enumerate_spheres(n)
        for d in range(1, 5):
            g = build_graph(n, d)
            expected = profile.ball(min(d - 1, n - 1)) - 1
            if any(deg != expected for deg in g.degrees()):
                bad.append(f"G({n},{d}) not {expected}-regular")
    for n in range(3, 8):
        for d in (3, 4):
            stats = neighborhood_stats(n, d)
            if stats.zero_x_edge_count != 0:
                bad.append(f"({n},{d}): {stats.zero_x_edge_count} zero-overlap edges")
    detail = "regularity n<=6, ring check n<=7" + (f"; {bad[:3]}" if bad else "")
    return _result(8, "graph structure", not bad, detail)


def criterion_9_metric_axioms() -> CriterionResult:
    """The metric axioms, exhaustively on S_4 and S_5 and on 10^5 random
    triples in S_7.

    The S_7 triples are ``rng.choices`` draws from the 5040 permutations,
    3,000 at a time, each uniform on S_7 to within about 2^-40.  Each triple
    (a, b, c) checks left-invariance and agreement with the pair count: the
    library's ``block_distance(c∘a, c∘b)`` against |A \\ B|, which is
    (a & ~b).bit_count() on pair masks.  That count is symmetric for any two
    sets of n-1 pairs and meets the triangle inequality for any three sets,
    so both are checked where a fault can break them: on S_4 and S_5, for
    every pair, through the library's ``compose`` and ``inverse`` and the
    identity's row f(x) = d(e, x): left-invariance for every (c, a, b) holds
    exactly when d(a, b) = f(a⁻¹∘b) for every pair (take c = a⁻¹; conversely
    (c∘a)⁻¹∘(c∘b) = a⁻¹∘b), and given that, the triangle inequality
    d(a, c) <= d(a, b) + d(b, c) for every triple holds exactly when
    f(x∘y) <= f(x) + f(y) for every pair (x = a⁻¹∘b, y = b⁻¹∘c).
    """
    start = time.perf_counter()
    violations = 0
    for n in (4, 5):
        perms = list(itertools.permutations(range(1, n + 1)))
        masks = dict(zip(perms, _pair_masks(perms, n)))
        identity_mask = masks[perms[0]]
        f = {x: (identity_mask & ~sx).bit_count() for x, sx in masks.items()}
        for a, sa in masks.items():
            fa, a_inv = f[a], inverse(a)
            for b, sb in masks.items():
                dab = (sa & ~sb).bit_count()
                violations += ((dab != (sb & ~sa).bit_count())  # symmetry
                               + ((dab == 0) != (a == b))  # identity of indiscernibles
                               + (dab != f[compose(a_inv, b)])  # left-invariance
                               + (f[compose(a, b)] > fa + f[b]))  # triangle, x = a, y = b
    perms = list(itertools.permutations(range(1, 8)))
    table = list(zip(perms, _pair_masks(perms, 7)))
    rng = random.Random(2759)
    # in chunks: one list of all 300,000 draws would add 2.4 MB to the peak memory
    draws = itertools.chain.from_iterable(rng.choices(table, k=3_000) for _ in range(100))
    for (a, sa), (b, sb), (c, _) in zip(draws, draws, draws):
        violations += block_distance(compose(c, a), compose(c, b)) != (sa & ~sb).bit_count()
    elapsed = time.perf_counter() - start
    ok = violations == 0
    detail = f"exhaustive on S_4, S_5; 100000 random S_7 triples; " \
             f"{violations} violations, {elapsed:.2f}s"
    return _result(9, "metric axioms", ok, detail)


def criterion_10_asymptotics_substitute() -> CriterionResult:
    """The asymptotic improvement claims are out of desk scale by declaration;
    the finite stand-in plugs measured graph parameters into the independence
    formula and checks it does not exceed the measured optimum on (4, 3)."""
    stats = neighborhood_stats(4, 3)
    value = jv_lower_formula(stats)
    alpha = len(exact_independent_set(build_graph(4, 3)).words)
    ok = value <= alpha
    detail = (f"formula {value:.3f} <= measured maximum {alpha} on (4,3); "
              f"asymptotic statements themselves declared untestable at desk scale")
    return _result(10, "asymptotics stand-in", ok, detail)


CRITERIA = (
    criterion_1_worked_example,
    criterion_2_sphere_formula,
    criterion_3_ball_sandwich,
    criterion_4_bound_table,
    criterion_5_syndrome_partition,
    criterion_6_max_distance_codes,
    criterion_7_independence_numbers,
    criterion_8_graph_structure,
    criterion_9_metric_axioms,
    criterion_10_asymptotics_substitute,
)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in CRITERIA]


def format_result(result: CriterionResult) -> str:
    return f"{result.status.upper():4s} criterion {result.number}: {result.name} ({result.detail})"
