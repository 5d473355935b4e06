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
import math
import re

import pytest

from blockperm import selftest
from blockperm.bounds import TABLE1_PUBLISHED
from blockperm.perm import block_distance, compose


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in selftest.run_all()}


def _expected_table_erratum() -> str:
    # computed here in integers, independently of bounds.new_upper
    floor = math.comb(18, 11) ** 2 * math.factorial(7) // math.comb(17, 7)
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


# S_4 and S_5 count each violated pair (a, b) once per condition it fails,
# S_7 each violated triple once per condition.  Right-composition breaks
# left-invariance on S_4, S_5 and S_7 alike; the skewed distance is only
# read on S_7; a broken inverse misreads d(a, b) as f(a∘b) on S_4 and S_5.
@pytest.mark.parametrize("name, broken, expected", [
    ("compose", lambda outer, inner: compose(inner, outer), 72_147),
    ("block_distance", _skewed_distance, 24_359),
    ("inverse", lambda p: p, 7_476),
], ids=["right-composition", "not-left-invariant", "identity-inverse"])
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
