"""Acceptance gate: the full verification battery, one test case per criterion.

The same battery backs ``fussdeform verify``.  Each case prints its
criterion's PASS/FAIL line (shown with ``pytest -s``, and always shown on
failure) so a run of this module reads as the acceptance report.
"""

import pytest

from fussdeform.verify import CRITERIA, format_report, run_criteria


@pytest.mark.parametrize("ident", [ident for ident, *_ in CRITERIA])
def test_criterion(ident):
    (res,) = run_criteria(only=ident)
    line = format_report([res]).splitlines()[0]
    print(line)
    assert res.passed, line
