"""Fixtures shared by the test modules."""

import pytest
from scipy import fft as sfft


def _counting(fn, name, calls):
    def counting(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return counting


@pytest.fixture
def fft_calls(monkeypatch):
    """Count calls of ``scipy.fft`` transforms.

    ``fft_calls("dctn", "idctn")`` wraps the named functions for the rest of
    the test and returns the list to which each call appends the function's
    name.  pamlab calls the transforms through the ``scipy.fft`` module, so
    every call is seen.
    """
    calls = []

    def count(*names):
        for name in names:
            monkeypatch.setattr(sfft, name, _counting(getattr(sfft, name), name, calls))
        return calls

    return count
