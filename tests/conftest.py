"""Fixtures shared by the test modules."""
import builtins
import math

import pytest

from obbtrack import campaign, metrics


def _compensated_sum(values, start=0):
    """`sum` as Python 3.12 and later compute it: floats are added with
    Neumaier's compensation; a sum of ints alone is left exact."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return builtins.sum(values, start)
    total, c = float(start), 0.0
    for v in values:
        t = total + v
        c += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


@pytest.fixture
def compensated_sum(monkeypatch):
    """Shadow `sum` in the modules that build report values with the
    compensated sum of Python 3.12 on, so that a test run on any interpreter
    shows whether the report bytes depend on how `sum` rounds floats."""
    for module in (metrics, campaign):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
