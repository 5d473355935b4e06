"""Size bounds for block-permutation codes, all in exact integer/rational
arithmetic (no floating point anywhere in this module).

For odd minimum distance d = 2t+1 the classical pair is

    gv_lower:   n! / |ball(n, 2t)|  <=  max code size  <=  n! / |ball(n, t)|   :sp_upper

where balls are counted exactly at any n (``ball_size_exact``) or, in
estimate mode (``exact=False``), replaced by the *upper* product of
``ball_size_bounds``, n(n-1)...(n-r) = n!/(n-r-1)! for radius r, which needs r
to satisfy ``sandwich_applies``.  That product divides n!, so the estimate
entries are the factorials gv_lower = (n-2t-1)! and sp_upper = (n-t-1)!; the
latter is a floor of the true sphere-packing value and the conventional way
these tables are quoted.

The newer upper bound counts (n-d)-subsets of characteristic sets:

    new_upper = C(n, d)^2 (n-d)! / C(n-1, n-d) = n n! / (d d!)

which beats (n-t-1)! whenever ``corollary_applies`` holds.  It is computed
as n n!/(d d!), n/d times the code-anticode bound n!/d!; the paper's binomial
form is the tests' second route.  Lower bounds are rounded up, upper bounds
down.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .enumeration import _anticode_size, _require_sandwich, _sandwich_applies, ball_size_exact
from .perm import _int_in

#: the published comparison rows: (n, d) -> (sphere-packing estimate, new bound)
TABLE1_PUBLISHED = {
    (13, 9): (40320, 24787),
    (15, 11): (362880, 44672),
    (16, 11): (3628800, 762415),
    (17, 11): (39916800, 13771113),
    (17, 13): (3628800, 74696),
    (18, 11): (479001600, 262461363),
    (18, 13): (39916800, 1423607),
    (19, 11): (6227020800, 5263805324),
    (19, 13): (479001600, 28551213),
    (20, 13): (6227020800, 601078154),
}

#: the published new-bound column rounds inconsistently; allow one off
TABLE1_TOLERANCE = 1


def _odd_radius(n: int, d: int) -> int:
    _int_in("n", n)
    _int_in("distance", d)
    if d % 2 == 0:
        raise ValueError(
            f"ball bounds are stated for odd d = 2t+1 only, got d={d}; "
            f"query d+1={d + 1} for the stronger requirement instead")
    return (d - 1) // 2


def gv_lower(n: int, d: int, *, exact: bool = True) -> int:
    """Existence lower bound ceil(n! / |ball(n, d-1)|) for odd d."""
    t = _odd_radius(n, d)
    if not exact:
        _require_sandwich(n, 2 * t)
    return _gv_lower(n, t, exact)


def _gv_lower(n: int, t: int, exact: bool) -> int:
    """``gv_lower`` at d = 2t+1, input unchecked; in estimate mode (n-2t-1)!,
    which trusts that the sandwich applies to 2t."""
    if not exact:
        return math.factorial(n - 2 * t - 1)
    return -(-math.factorial(n) // ball_size_exact(n, min(2 * t, n - 1)).size)


def sp_upper(n: int, d: int, *, exact: bool = True) -> int:
    """Packing upper bound floor(n! / |ball(n, t)|) for odd d = 2t+1.

    In estimate mode the ball is replaced by its upper product, giving
    (n-t-1)!, an optimistic floor of the true sphere-packing value.
    """
    t = _odd_radius(n, d)
    if not exact:
        _require_sandwich(n, t)
    return _sp_upper(n, t, exact)


def _sp_upper(n: int, t: int, exact: bool) -> int:
    """``sp_upper`` at d = 2t+1, input unchecked; in estimate mode (n-t-1)!,
    which trusts that the sandwich applies to t."""
    if not exact:
        return math.factorial(n - t - 1)
    return math.factorial(n) // ball_size_exact(n, min(t, n - 1)).size


def new_upper(n: int, d: int) -> tuple[Fraction, int]:
    """Exact rational C(n,d)^2 (n-d)! / C(n-1, n-d) and its floor, n >= 2 and
    1 <= d <= n-1."""
    _int_in("n", n, 2)
    _int_in("distance", d, 1, n - 1)
    return _new_upper(n, d)


def _new_upper(n: int, d: int) -> tuple[Fraction, int]:
    """``new_upper``, input unchecked, by its closed form n n!/(d d!) =
    n (n!/d!)/d."""
    top = n * math.perm(n, n - d)
    return Fraction(top, d), top // d


def special_exact(n: int, d: int) -> int | None:
    """Known exact maximum code sizes, where the distance pins them down, for
    n >= 1 and d >= 1; None at 2 < d < n-1, where they do not.

    Elsewhere it is the code-anticode bound n! // ``_anticode_size(n, d)``:
    rotations are pairwise at distance 1, and the words sharing the run's n-m
    pairs are at most m-1 apart.  All of S_n meets it at d = 1,
    ``cyclic_class_code`` at d = 2, ``even_n_code``, ``zn1_code`` or
    ``ham_decomp_code`` at d = n-1 >= 3 (by Tillson's theorem, for every n
    but 3 and 5), and one word at d >= n.  At (5, 4) the bound is 5, but the
    exhaustive solver finds 4 (``exact_independent_set``).
    """
    _int_in("n", n)
    _int_in("distance", d)
    if 2 < d < n - 1:
        return None
    if (n, d) == (5, 4):
        return 4
    return math.factorial(n) // _anticode_size(n, d)


def corollary_applies(n: int, d: int) -> bool:
    """True when the new bound provably does not exceed the packing estimate:
    odd d = 2t+1 where the product sandwich applies to radius t,
    n * prod_{i=0..t}(n-i) <= d * d!, and d <= n-1."""
    t = _odd_radius(n, d)
    return _corollary_applies(n, d, t, _sandwich_applies(n, t))


def _corollary_applies(n: int, d: int, t: int, sandwich: bool) -> bool:
    """``corollary_applies`` at d = 2t+1, input unchecked, given whether the
    sandwich applies to t."""
    return d <= n - 1 and sandwich and n * math.perm(n, t + 1) <= d * math.factorial(d)


class BoundReport(NamedTuple):
    """One row of bound values for a given (n, d).

    ``bound_distance`` is the odd distance the GV / sphere-packing columns
    refer to; it equals d, or d+1 when d is even (those bounds are only
    stated for odd distances, so an even request reports the stronger
    requirement and says so here).  In estimate mode a GV or SP entry is None
    when its radius violates the product-sandwich hypothesis.
    """

    n: int
    d: int
    bound_distance: int
    gv_lower: int | None
    sp_upper: int | None
    new_upper: int
    new_upper_exact: Fraction
    exact_mode: bool
    corollary_applies: bool


def bound_report(n: int, d: int, exact: bool = False) -> BoundReport:
    """The bound row for n >= 2 and 1 <= d <= n-1.

    n and d are checked here, in one pass; the odd distance, its radius t,
    the GV radius 2t and whether the sandwich applies to each are derived
    once, so the bound bodies take them unchecked.
    """
    _int_in("n", n, 2)
    _int_in("distance", d)
    _int_in("distance", d, 1, n - 1)
    bd = d if d % 2 else d + 1
    t = (bd - 1) // 2
    gv_sandwich = _sandwich_applies(n, 2 * t)
    sp_sandwich = _sandwich_applies(n, t)
    gv = _gv_lower(n, t, exact) if exact or gv_sandwich else None
    sp = _sp_upper(n, t, exact) if exact or sp_sandwich else None
    exact_frac, floor = _new_upper(n, d)
    return BoundReport(n, d, bd, gv, sp, floor, exact_frac, exact,
                       _corollary_applies(n, bd, t, sp_sandwich))


def table1() -> list[BoundReport]:
    """Estimate-mode reports for the published comparison rows."""
    return [bound_report(n, d) for n, d in sorted(TABLE1_PUBLISHED)]


def table1_deviations(reports) -> list[str]:
    """Mismatches of reports against the published rows, empty when all agree
    (sphere-packing exactly, new bound within ``TABLE1_TOLERANCE``)."""
    problems = []
    for rep in reports:
        published = TABLE1_PUBLISHED.get((rep.n, rep.d))
        if published is None:
            continue
        sp, new = published
        if rep.sp_upper != sp:
            problems.append(f"({rep.n},{rep.d}): sphere-packing {rep.sp_upper} != published {sp}")
        if abs(rep.new_upper - new) > TABLE1_TOLERANCE:
            problems.append(f"({rep.n},{rep.d}): new bound {rep.new_upper} "
                            f"off published {new} by more than {TABLE1_TOLERANCE}")
    return problems


def bound_report_payload(report: BoundReport) -> dict:
    """The report's fields as JSON values; the exact new bound as "num/den"."""
    payload = report._asdict()
    frac = report.new_upper_exact
    payload["new_upper_exact"] = f"{frac.numerator}/{frac.denominator}"
    return payload


def bound_report_from_payload(payload: dict) -> BoundReport:
    """Inverse of ``bound_report_payload``; a missing or unknown key raises."""
    return BoundReport(**{**payload, "new_upper_exact": Fraction(payload["new_upper_exact"])})
