"""Fixtures shared by several test modules."""

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
