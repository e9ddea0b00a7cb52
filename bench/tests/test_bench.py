"""Tests of the benchmark itself: failure counting and reference values.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import exact  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from noninv import ChainSpec, StirlingTable, expected_degree_chain  # noqa: E402
from noninv import expected_degree_q  # noqa: E402
from noninv.cli import run as cli_run  # noqa: E402

# A stand-in `noninv.cli` that answers each subcommand with a canned exit
# code and stdout, read from the JSON file named by FAKE_REPLIES.
FAKE_CLI = """
import json, os, sys
reply = json.load(open(os.environ["FAKE_REPLIES"]))[sys.argv[1]]
sys.stdout.write(reply["stdout"])
sys.exit(reply["code"])
"""


def _envelope(results, all_match=None):
    doc = {"command": "x", "parameters": {}, "results": results}
    if all_match is not None:
        doc["all_match"] = all_match
    return json.dumps(doc)


def _fraction(x: Fraction) -> dict:
    return {"numerator": x.numerator, "denominator": x.denominator,
            "decimal": None}


@pytest.fixture
def fake_cli(tmp_path, monkeypatch):
    """Point the benchmark at a fake package; return a reply setter."""
    package = tmp_path / "src" / "noninv"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(FAKE_CLI)
    replies_path = tmp_path / "replies.json"
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setenv("FAKE_REPLIES", str(replies_path))
    (tmp_path / "work").mkdir()

    def set_replies(replies: dict) -> None:
        replies.setdefault("expected", {"code": 0, "stdout": _envelope(
            [{"expected_degree": _fraction(Fraction(3, 2))}])})
        replies_path.write_text(json.dumps(replies))

    return set_replies


def _one_pass(monkeypatch, calls) -> dict:
    monkeypatch.setitem(workloads.WORKLOADS, "fake",
                        lambda rng, workdir: lambda: list(calls))
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return run.run_workload("fake", seed=1, seconds=0, trace=False, spec=spec)


def test_wrong_value_nonzero_exit_and_z_are_counted(fake_cli, monkeypatch):
    want = exact.expected_degree_q(3, 3, 4)
    fake_cli({
        "expected-q": {"code": 0, "stdout": _envelope(
            [{"expected_degree_q": _fraction(want + 1)}])},
        "verify": {"code": 1, "stdout": _envelope([], all_match=False)},
        "simulate": {"code": 0, "stdout": _envelope(
            [{"mean": 1.6, "std_error": 0.1}])},
        "deg": {"code": 0, "stdout": "not json"},
    })
    calls = [
        workloads._expected_q(3, 3, 4),
        workloads._verify_degq(3, 3, 2),
        workloads.call("z", ["simulate"], workloads._z_check(1.0)),
        workloads.call("parse", ["deg"], lambda doc: None),
    ]
    result = _one_pass(monkeypatch, calls)
    assert result["failed"] == 4
    assert result["correct"] is False
    # the warm-up, the probes before and at the start of the pass, a
    # reference run before each probe and call and one after the last all
    # passed
    probes = run.FIRST_PROBES + 1
    assert result["attempted"] == 1 + 2 * probes + 2 * len(calls) + 1


def test_right_values_pass(fake_cli, monkeypatch):
    want = exact.expected_degree_q(3, 3, 4)
    fake_cli({
        "expected-q": {"code": 0, "stdout": _envelope(
            [{"expected_degree_q": _fraction(want)}])},
        "simulate": {"code": 0, "stdout": _envelope(
            [{"mean": 1.4, "std_error": 0.1}])},
    })
    calls = [workloads._expected_q(3, 3, 4),
             workloads.call("z", ["simulate"], workloads._z_check(1.0))]
    result = _one_pass(monkeypatch, calls)
    assert (result["failed"], result["correct"]) == (0, True)
    assert set(result["metrics"]) == {"wall_ref", "cpu_ref", "setup_s",
                                      "peak_rss_mib"}


def test_missing_source_exits_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "verify", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_extra_paths_and_keys_pass(fake_cli, monkeypatch, tmp_path):
    """A later verification path or output key is not a failure."""
    value = exact.chain_expectation((2, 2))
    path = {"parameters": {}, "oracle": _fraction(value),
            "closed": _fraction(value), "match": True}
    images = [0, 0, 2]
    fake_cli({
        "verify": {"code": 0, "stdout": _envelope(
            [{"check": name, **path} for name in
             ("chain-enumeration", "chain-multinomial", "chain-profile")],
            all_match=True)},
        "deg": {"code": 0, "stdout": _envelope([{
            "domain": 3, "codomain": 3, "q": 2, "max_fiber": 2,
            "degree": _fraction(exact.degree_q([2, 0, 1], 3, 2)),
            "fibers": [2, 0, 1]}])},
    })
    calls = [workloads._verify_chain((2, 2), enumerated=True),
             workloads._deg_file(tmp_path / "f.fn", images, 3, 2)]
    result = _one_pass(monkeypatch, calls)
    assert (result["failed"], result["correct"]) == (0, True)


def test_missing_path_fails(fake_cli, monkeypatch):
    value = exact.chain_expectation((2, 2))
    fake_cli({"verify": {"code": 0, "stdout": _envelope(
        [{"check": "chain-multinomial", "parameters": {},
          "oracle": _fraction(value), "closed": _fraction(value),
          "match": True}], all_match=True)}})
    calls = [workloads._verify_chain((2, 2), enumerated=True)]
    assert _one_pass(monkeypatch, calls)["failed"] == 1


@pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (4, 2), (5, 5), (6, 4)])
def test_expected_q_agrees_with_noninv(n, m):
    for q in range(1, 9):
        assert exact.expected_degree_q(n, m, q) == expected_degree_q(n, m, q)


def test_stirling_row_sums_agree_with_noninv():
    rows = 40
    table = StirlingTable(rows)
    bells, facts = exact.bell_numbers(rows + 1), exact.factorials(rows + 1)
    for n in range(rows + 1):
        assert sum(table.second_row(n)) == bells[n]
        assert sum(table.first_row(n)) == facts[n]


def test_chain_expectation_and_decimals_agree_with_noninv(capsys):
    for sizes in [(2, 2), (3, 1, 3), (4, 5, 6, 7), (10**6,) * 3]:
        assert exact.chain_expectation(sizes) == expected_degree_chain(
            ChainSpec(sizes))
    sizes = "7,3,9,2"
    assert cli_run(["expected", "--sizes", sizes, "--decimals", "12",
                    "--json"]) == 0
    got = json.loads(capsys.readouterr().out)["results"][0]["expected_degree"]
    value = exact.chain_expectation((7, 3, 9, 2))
    assert got["decimal"] == exact.decimal_string(value, 12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_max_fiber_expectation_matches_enumeration(n):
    total = sum(max(exact.fiber_counts(f, n))
                for f in itertools.product(range(n), repeat=n))
    assert exact.max_fiber_expectation(n) == pytest.approx(
        total / n**n, rel=1e-12)
