"""Shared test helpers."""

import tracemalloc

import pytest


def _peak_bytes(fn):
    """Run fn() under tracemalloc; return its result and the peak traced bytes above entry."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def peak_bytes():
    """The `_peak_bytes(fn)` helper: (fn's result, peak traced bytes while it ran)."""
    return _peak_bytes
