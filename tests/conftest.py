"""Fixtures shared by several test modules."""

import signal

import pytest

from noninv import combinatorics


@pytest.fixture
def refuse_growth(monkeypatch):
    """Make building any Stirling row fail the test: every row of both
    kinds is summed by ``combinatorics.add`` inside ``StirlingTable.ensure``,
    so a refusal that comes after growth starts is caught at once."""

    def grew(*_args):
        raise AssertionError("built a Stirling row before refusing")

    monkeypatch.setattr(combinatorics, "add", grew)


@pytest.fixture
def deadline():
    """Fail a test that is still running after 5 s (a hang), instead of
    hanging the suite.  Needs SIGALRM, so the test is skipped without it."""
    if not hasattr(signal, "setitimer"):
        pytest.skip("no interval timer on this platform")

    def expire(*_args):
        raise AssertionError("still running after 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)
