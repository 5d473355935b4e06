"""Bound calculators and the published comparison table."""

import math
from fractions import Fraction

import pytest

from blockperm import bounds, enumeration, perm
from blockperm.bounds import (
    TABLE1_PUBLISHED,
    BoundReport,
    bound_report,
    bound_report_from_payload,
    bound_report_payload,
    corollary_applies,
    gv_lower,
    new_upper,
    sp_upper,
    special_exact,
    table1,
    table1_deviations,
)
from blockperm.enumeration import ball_size_bounds, ball_size_exact, sandwich_applies


def test_gv_lower_exact_frozen():
    assert gv_lower(5, 3) == 6  # ceil(120 / 23)
    assert gv_lower(5, 1) == 120  # radius-0 ball is a single point
    assert gv_lower(4, 1) == 24


def test_gv_lower_estimate_frozen():
    # ceil(13! / prod_{i=0..8}(13-i)) = ceil(13! / (13!/4!)) = 24
    assert gv_lower(13, 9, exact=False) == 24
    with pytest.raises(ValueError):
        gv_lower(13, 11, exact=False)  # radius 10 fails the product hypothesis


def test_bounds_reject_even_distance():
    for fn in (gv_lower, sp_upper):
        with pytest.raises(ValueError):
            fn(6, 2)
    with pytest.raises(ValueError):
        corollary_applies(6, 4)


def test_sp_upper_frozen():
    assert sp_upper(13, 9, exact=False) == 40320  # 8!
    assert sp_upper(15, 11, exact=False) == 362880  # 9!
    assert sp_upper(5, 3) == 24  # 120 / 5


def test_new_upper_frozen():
    exact, floor = new_upper(13, 9)
    assert exact == Fraction(12269400, 495)
    assert floor == 24786
    assert new_upper(15, 11)[1] == 44672
    with pytest.raises(ValueError):
        new_upper(10, 10)


@pytest.mark.parametrize("n,d", [(7, 3), (9, 5), (13, 9), (16, 11), (20, 13)])
def test_new_upper_algebraic_identity(n, d):
    exact, floor = new_upper(n, d)
    assert exact * math.comb(n - 1, n - d) == math.comb(n, d) ** 2 * math.factorial(n - d)
    assert floor <= exact < floor + 1
    assert floor >= 1


def test_special_exact_values():
    assert special_exact(4, 3) == 4
    assert special_exact(5, 4) == 4
    assert special_exact(3, 2) == 2
    assert special_exact(6, 2) == 120
    assert special_exact(6, 1) == 720
    assert special_exact(6, 6) == 1
    assert special_exact(6, 4) is None
    assert special_exact(7, 6) == 7
    assert special_exact(1, 1) == 1  # the least n and d: S_1 is one word


@pytest.mark.parametrize("n, d", [(0, 3), (-2, 1), (5, 0), (1, 0), (0, 1)])
def test_special_exact_range(n, d):
    name, value = ("n", n) if n < 1 else ("distance", d)  # n is checked first
    with pytest.raises(ValueError, match=f"^{name} must be positive, got {value}$"):
        special_exact(n, d)


def test_corollary_applies_frozen():
    assert corollary_applies(13, 9) is True  # 2007720 <= 3265920
    assert corollary_applies(13, 5) is False  # 22308 > 600
    assert corollary_applies(7, 7) is False  # d <= n-1 fails


def test_corollary_guarantee_on_table_rows():
    for rep in table1():
        if rep.corollary_applies:
            assert rep.new_upper <= rep.sp_upper


def test_corollary_guarantee_scan():
    for n in range(4, 21):
        for d in range(3, n, 2):
            if corollary_applies(n, d):
                t = (d - 1) // 2
                assert new_upper(n, d)[1] <= math.factorial(n - t - 1)


def test_estimate_entries_are_the_group_over_the_upper_product():
    """The library states the estimate entries as (n-2t-1)! and (n-t-1)!; by
    the definition they are n! over the sandwich's upper product, which it
    divides, and the corollary is that product's test."""
    divisions = 0
    for n in range(1, 61):
        fact = math.factorial(n)
        for d in range(1, 2 * n + 3, 2):
            t = (d - 1) // 2
            for fn, r in ((gv_lower, 2 * t), (sp_upper, t)):
                if sandwich_applies(n, r):
                    quotient, remainder = divmod(fact, ball_size_bounds(n, r)[1])
                    assert (fn(n, d, exact=False), remainder) == (quotient, 0), (fn, n, d)
                    divisions += 1
            product_test = (d <= n - 1 and sandwich_applies(n, t)
                            and n * ball_size_bounds(n, t)[1] <= d * math.factorial(d))
            assert corollary_applies(n, d) is product_test, (n, d)
    assert divisions == 2248


def test_table_sphere_packing_column_exact():
    for rep in table1():
        t = (rep.d - 1) // 2
        assert rep.sp_upper == math.factorial(rep.n - t - 1)
        assert rep.sp_upper == TABLE1_PUBLISHED[(rep.n, rep.d)][0]


@pytest.mark.parametrize("n,d", sorted(k for k in TABLE1_PUBLISHED if k != (18, 11)))
def test_table_new_bound_column_within_rounding(n, d):
    rep = bound_report(n, d)
    assert abs(rep.new_upper - TABLE1_PUBLISHED[(n, d)][1]) <= 1


def test_published_18_11_value_disagrees_with_formula():
    # The reference table's (18, 11) entry is 262461363, but the formula value
    # is C(18,11)^2 * 7! / C(17,7) = 2887073280/11 = 262461207.27...; the
    # printed number is off by about 156 and no rounding accounts for it.
    exact, floor = new_upper(18, 11)
    assert exact == Fraction(2887073280, 11)
    assert floor == 262461207
    assert TABLE1_PUBLISHED[(18, 11)][1] - floor == 156
    deviations = table1_deviations(table1())
    assert len(deviations) == 1
    assert "(18,11)" in deviations[0]


def test_neighbour_rows_place_18_11_at_the_formula_value():
    # Second route to the same verdict, without the (18, 11) row itself: the
    # published (17, 11) and (19, 11) entries, each within the table's +-1,
    # carried to (18, 11) by the formula's exact ratios, bound where the true
    # value lies.  The formula value is inside; the printed one is far outside.
    formula = Fraction(2887073280, 11)
    up = new_upper(18, 11)[0] / new_upper(17, 11)[0]
    down = new_upper(19, 11)[0] / new_upper(18, 11)[0]
    below, above = TABLE1_PUBLISHED[(17, 11)][1], TABLE1_PUBLISHED[(19, 11)][1]
    low = max((below - 1) * up, (above - 1) / down)
    high = min((below + 1) * up, (above + 1) / down)
    assert low <= formula <= high
    printed = TABLE1_PUBLISHED[(18, 11)][1]
    assert not low <= printed <= high
    roundings = {math.floor(formula), math.ceil(formula), round(formula)}
    assert printed not in roundings


def test_bound_report_even_distance_uses_next_odd():
    rep = bound_report(6, 2, exact=True)
    assert rep.bound_distance == 3
    assert rep.gv_lower == 20  # ceil(720 / 36)
    assert rep.sp_upper == 120  # 720 / 6
    odd = bound_report(5, 3, exact=True)
    assert odd.bound_distance == 3


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("d", [1, 2])
def test_known_sizes_sit_between_exact_bounds(n, d):
    # even d falls back to the next odd distance, as in bound_report
    bd = d if d % 2 else d + 1
    known = special_exact(n, d)
    assert gv_lower(n, bd) <= known <= sp_upper(n, bd)


def test_gv_never_exceeds_sp_exact_mode():
    for n in range(3, 8):
        for d in range(1, n, 2):
            assert gv_lower(n, d) <= sp_upper(n, d)


def test_estimate_report_marks_unavailable_radii():
    rep = bound_report(17, 13)  # GV radius 12 fails the product hypothesis
    assert rep.gv_lower is None
    assert rep.sp_upper == 3628800


def _report_by_public_functions(n, d, exact):
    """bound_report's row built from the public bound functions, each
    checking its own input, at the odd distance the row refers to."""
    bd = d if d % 2 else d + 1
    t = (bd - 1) // 2
    exact_frac, floor = new_upper(n, d)
    gv = gv_lower(n, bd, exact=exact) if exact or sandwich_applies(n, 2 * t) else None
    sp = sp_upper(n, bd, exact=exact) if exact or sandwich_applies(n, t) else None
    return BoundReport(n, d, bd, gv, sp, floor, exact_frac, exact, corollary_applies(n, bd))


@pytest.mark.parametrize("exact, top", [(False, 60), (True, 12)], ids=["estimate", "exact"])
def test_bound_report_matches_the_public_functions(exact, top):
    for n in range(2, top + 1):
        for d in range(1, n):
            assert bound_report(n, d, exact=exact) == _report_by_public_functions(n, d, exact)


def test_an_estimate_report_runs_the_range_rule_at_most_four_times(monkeypatch):
    """n and d once in bound_report and once in new_upper; nothing it
    derives from them is checked again."""
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        perm._int_in(*args)

    monkeypatch.setattr(bounds, "_int_in", counted)
    monkeypatch.setattr(enumeration, "_int_in", counted)
    reports = [bound_report(n, d) for n in range(2, 61) for d in range(1, n)]
    assert len(reports) == 1770
    assert calls <= 4 * len(reports)


def test_bound_report_payload_round_trip():
    for rep in (bound_report(13, 9), bound_report(17, 13), bound_report(5, 3, exact=True)):
        assert bound_report_from_payload(bound_report_payload(rep)) == rep


def test_bound_report_payload_rejects_missing_or_unknown_keys():
    payload = bound_report_payload(bound_report(13, 9))
    assert payload["new_upper_exact"] == "74360/3"
    missing = {k: v for k, v in payload.items() if k != "corollary_applies"}
    with pytest.raises(TypeError):
        bound_report_from_payload(missing)
    with pytest.raises(TypeError):
        bound_report_from_payload({**payload, "mode": "estimate"})


def test_exact_is_keyword_only():
    for fn in (gv_lower, sp_upper):
        with pytest.raises(TypeError):
            fn(5, 3, "estimate")  # a truthy string must not silently mean exact


def test_exact_ball_backs_the_exact_bounds():
    ball = ball_size_exact(5, 2).size
    assert ball == 23
    assert gv_lower(5, 3) == -(-math.factorial(5) // ball)


@pytest.mark.parametrize("n,d", sorted(TABLE1_PUBLISHED))
def test_exact_bounds_on_table_rows_lie_in_the_product_brackets(n, d):
    # where the product sandwich holds, lower <= ball <= upper, so n!/ball lies
    # between n!/upper and n!/lower; every row's packing radius satisfies it
    t = (d - 1) // 2
    fact = math.factorial(n)
    lower, upper = ball_size_bounds(n, t)
    assert fact // upper <= sp_upper(n, d) <= fact // lower
    try:
        lower, upper = ball_size_bounds(n, 2 * t)
    except ValueError:
        return  # the GV radius fails the hypothesis on this row
    assert -(-fact // upper) <= gv_lower(n, d) <= -(-fact // lower)


def test_exact_bounds_at_13_9():
    rep = bound_report(13, 9, exact=True)
    assert (rep.gv_lower, rep.sp_upper) == (71, 215721)
