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
from dataclasses import dataclass

from . import bounds as bounds_mod
from .constructions import (
    CodeBook,
    PairEncoder,
    even_n_code,
    ham_decomp_code,
    syndrome_classes,
    verify_min_distance,
    zn1_code,
)
from .enumeration import ball_size_bounds, enumerate_spheres, myers_count, sandwich_applies
from .graph import build_graph, exact_independent_set, jv_lower_formula, neighborhood_stats
from .perm import (_pair_masks, block_distance, char_set, compose, distance_by_definition,
                   from_one_line, inverse)


@dataclass(frozen=True)
class CriterionResult:
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
        enc = PairEncoder.for_n(n)
        buckets = syndrome_classes(n, d, enc)
        if sum(len(ws) for ws in buckets.values()) != math.factorial(n):
            bad.append(f"(n={n}, d={d}): fiber sizes do not sum to n!")
        for words in buckets.values():
            if verify_min_distance(CodeBook(n, d, tuple(words), "syndrome")) < d:
                bad.append(f"(n={n}, d={d}): fiber pair below distance {d}")
        pairs[n, d] = sum(math.comb(len(ws), 2) for ws in buckets.values())
        floor = -(-math.factorial(n) // enc.q ** (d - 1))
        if max(len(ws) for ws in buckets.values()) < floor:
            bad.append(f"(n={n}, d={d}): largest fiber below pigeonhole floor {floor}")
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 300.0
    ran = ", ".join(f"({n},{d}) {count}" for (n, d), count in pairs.items())
    detail = f"all fiber pairs checked: {ran}; {elapsed:.2f}s" + (f"; {bad[:3]}" if bad else "")
    return _result(5, "syndrome fibers are codes", ok, detail)


def criterion_6_max_distance_codes() -> CriterionResult:
    """The d = n-1 families: sizes, exact distances, and pair partitions."""
    bad = []

    def check(code, n):
        if len(code.words) != n:
            bad.append(f"{code.provenance} n={n}: {len(code.words)} words")
            return
        if verify_min_distance(code) != n - 1:
            bad.append(f"{code.provenance} n={n}: min distance != {n - 1}")
        pairs = [pr for w in code.words for pr in char_set(w)]
        if len(pairs) != len(set(pairs)) or len(set(pairs)) != n * (n - 1):
            bad.append(f"{code.provenance} n={n}: adjacency pairs do not partition")

    for n in (4, 6, 8, 10, 12):
        check(even_n_code(n), n)
    for n in (4, 6, 10, 12):
        check(zn1_code(n), n)
    found = ham_decomp_code(7)
    if found is None or len(found.words) != 7 or verify_min_distance(found) != 6:
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
    """Symmetry, left-invariance and the triangle inequality, exhaustively on
    S_4 and S_5 and on 10^5 random triples in S_7.

    The S_7 triples are indices into the 5040 permutations drawn by
    ``rng.choices``, each uniform on S_7 to within about 2^-40.  Symmetry and
    the triangle inequality are checked on pair masks, left-invariance with
    the library's ``compose`` and ``block_distance``.  On S_4 and S_5 every
    pair is checked through the identity's row f(x) = d(e, x): left-invariance
    for every (c, a, b) holds exactly when d(a, b) = f(a⁻¹∘b) for every pair
    (take c = a⁻¹; conversely (c∘a)⁻¹∘(c∘b) = a⁻¹∘b), and given that, the
    triangle inequality d(a, c) <= d(a, b) + d(b, c) for every triple holds
    exactly when f(x∘y) <= f(x) + f(y) for every pair (x = a⁻¹∘b, y = b⁻¹∘c).
    """
    start = time.perf_counter()
    violations = 0
    for n in (4, 5):
        perms = list(itertools.permutations(range(1, n + 1)))
        sets = {p: frozenset(zip(p, p[1:])) for p in perms}
        identity_set = sets[perms[0]]
        f = {x: len(identity_set - sx) for x, sx in sets.items()}
        for a, sa in sets.items():
            fa, a_inv = f[a], inverse(a)
            for b, sb in sets.items():
                dab = len(sa - sb)
                violations += ((dab != len(sb - sa))  # symmetry
                               + ((dab == 0) != (a == b))  # identity of indiscernibles
                               + (dab != f[compose(a_inv, b)])  # left-invariance
                               + (f[compose(a, b)] > fa + f[b]))  # triangle, x = a, y = b
    # 1000 triples per draw; on pair masks, |A \ B| is (a & ~b).bit_count()
    perms = list(itertools.permutations(range(1, 8)))
    masks = _pair_masks(perms, 7)
    rng = random.Random(2759)
    for _ in range(100):
        draws = iter(rng.choices(range(len(perms)), k=3000))
        for ia, ib, ic in zip(draws, draws, draws):
            sa, sb, sc = masks[ia], masks[ib], masks[ic]
            dab = (sa & ~sb).bit_count()
            if dab != (sb & ~sa).bit_count():
                violations += 1
            c = perms[ic]
            if block_distance(compose(c, perms[ia]), compose(c, perms[ib])) != dab:
                violations += 1
            if (sa & ~sc).bit_count() > dab + (sb & ~sc).bit_count():
                violations += 1
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
