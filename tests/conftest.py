"""Shared test helpers, and a bound on each test phase: a hang is a failure."""

import signal
import tracemalloc

import pytest

# seconds that one setup, call or teardown may take; the slowest phase of the suite takes about 9
PHASE_BOUND_S = 120


def _bounded(item, phase):
    """A hook-wrapper body that fails `item` once `phase` runs past PHASE_BOUND_S."""

    def expire(signum, frame):
        pytest.fail(f"{item.nodeid}: {phase} ran past {PHASE_BOUND_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(PHASE_BOUND_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


if hasattr(signal, "SIGALRM"):  # POSIX only

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_setup(item):
        yield from _bounded(item, "setup")

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        yield from _bounded(item, "call")

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_teardown(item):
        yield from _bounded(item, "teardown")


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


def pytest_addoption(parser):
    parser.addoption("--rewrite-ledger", action="store_true",
                     help="write tests/ledger/acceptance.json from this run's results")
