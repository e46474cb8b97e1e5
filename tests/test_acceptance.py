"""Acceptance gate: every criterion runs at its pinned tolerance and prints
one pass/fail line.  Run with `pytest tests/test_acceptance.py -s` to see the
lines, or `python -m spinlab selftest`."""

import pytest

from spinlab import acceptance


@pytest.mark.parametrize("criterion", acceptance.CRITERIA, ids=lambda f: f.__name__)
def test_criterion(criterion):
    result = acceptance.run_criterion(criterion)
    assert result.passed, f"{result.name}: {result.detail}"
