"""Shared test fixtures."""

import contextlib
import signal

import pytest


class WallClockExceeded(Exception):
    pass


@contextlib.contextmanager
def _limit(seconds):
    """Interrupt the body with WallClockExceeded after `seconds`."""

    def fire(signum, frame):
        raise WallClockExceeded(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def wall_clock_limit():
    """`with wall_clock_limit(seconds): ...` fails the test with
    WallClockExceeded when the body runs longer than `seconds` of wall time,
    instead of letting it hang."""
    return _limit
