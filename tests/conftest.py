"""Fixtures shared by several test modules."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import noninv
from noninv import combinatorics

# the address space a capped CLI run may map: a Python process and any
# honest command fit easily, a list of 10^9 counts (8 GB) does not
CAPPED_BYTES = 1 << 30


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


@pytest.fixture
def capped_python():
    """Run ``python ARGV...`` in a child process whose address space is
    capped at ``CAPPED_BYTES``, with this package importable; returns
    (exit code, stdout, stderr).

    The limit is set in the child only, so a call that would exhaust
    memory fails fast there with a MemoryError (exit 1) instead of
    taking the host's memory.  Needs ``resource``, so the test is
    skipped without it."""
    resource = pytest.importorskip("resource")
    src = str(Path(noninv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CAPPED_BYTES, CAPPED_BYTES))

    def run(*argv):
        done = subprocess.run(
            [sys.executable, *map(str, argv)],
            env=env, preexec_fn=cap, capture_output=True, text=True,
            timeout=60,
        )
        return done.returncode, done.stdout, done.stderr

    return run


@pytest.fixture
def capped_cli(capped_python):
    """Run one ``noninv`` call under ``capped_python``'s cap; returns
    (exit code, stdout, stderr)."""

    def run(*argv):
        return capped_python("-m", "noninv.cli", *argv)

    return run
