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
