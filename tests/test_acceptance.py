"""Acceptance suite: every criterion at its stated tolerance, one line each.

Each test delegates to the corresponding check in
:mod:`entropy_banach.checks` (the same code the ``check`` CLI subcommand
runs), prints a PASS/FAIL line, and asserts the outcome.
"""

import pytest

from entropy_banach.checks import ALL_CRITERIA

#: per-criterion wall-clock budgets (seconds)
BUDGETS = {1: 10, 2: 1, 3: 5, 4: 30, 5: 10, 6: 60, 7: 120, 8: 600, 9: 20, 10: 1}


@pytest.mark.parametrize("check", ALL_CRITERIA,
                         ids=[f"criterion_{i}" for i in range(1, 11)])
def test_acceptance(check):
    result = check(seed=0)
    print(result)
    assert result.passed, f"criterion {result.number}: {result.detail}"
    budget = BUDGETS[result.number]
    assert result.seconds < budget, (
        f"criterion {result.number} took {result.seconds:.1f}s "
        f"(budget {budget}s)")
