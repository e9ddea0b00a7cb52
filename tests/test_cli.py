"""CLI surface: dispatch, formats, exit codes."""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from noninv import (
    BoundReport,
    ChainSpec,
    FiniteFunction,
    StirlingTable,
    VerificationReport,
    check_square_moment_identity,
    compare_bounds,
    expected_degree_chain,
    expected_degree_q,
    montecarlo,
    stirling1_signed,
)
from noninv import cli, combinatorics, oracle
from noninv.cli import run

GOLDEN = Path(__file__).parent / "golden"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpected:
    def test_plain(self, capsys):
        code, out, _ = invoke(capsys, "expected", "--sizes", "2,2,2")
        assert code == 0
        assert out.strip() == "7/4"

    def test_integer_prints_without_denominator(self, capsys):
        code, out, _ = invoke(capsys, "expected", "--sizes", "3,1,3")
        assert code == 0
        assert out.strip() == "3"

    def test_decimals(self, capsys):
        code, out, _ = invoke(
            capsys, "expected", "--sizes", "2,2", "--decimals", "3"
        )
        assert code == 0
        assert out.strip() == "3/2 (1.500)"

    def test_json_round_trip(self, capsys):
        code, out, _ = invoke(capsys, "expected", "--sizes", "2,2,2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "expected"
        value = doc["results"][0]["expected_degree"]
        fresh = expected_degree_chain(ChainSpec((2, 2, 2)))
        assert Fraction(value["numerator"], value["denominator"]) == fresh

    def test_json_always_carries_denominator(self, capsys):
        code, out, _ = invoke(capsys, "expected", "--sizes", "3,1,3", "--json")
        value = json.loads(out)["results"][0]["expected_degree"]
        assert value == {"numerator": 3, "denominator": 1, "decimal": None}

    def test_bad_sizes(self, capsys):
        code, _, err = invoke(capsys, "expected", "--sizes", "2,x")
        assert code == 2
        assert "error" in err

    def test_too_few_sizes(self, capsys):
        code, _, err = invoke(capsys, "expected", "--sizes", "5")
        assert code == 2


class TestExpectedQ:
    def test_plain(self, capsys):
        code, out, _ = invoke(
            capsys, "expected-q", "--n", "2", "--m", "2", "--q", "3"
        )
        assert code == 0
        assert out.strip() == "5/2"

    def test_invalid_exponent(self, capsys):
        code, _, err = invoke(
            capsys, "expected-q", "--n", "2", "--m", "2", "--q", "0"
        )
        assert code == 2


class TestDeg:
    def test_text_file(self, capsys, tmp_path):
        path = tmp_path / "f.fn"
        path.write_text("3 3 : 1 1 2\n")
        code, out, _ = invoke(capsys, "deg", "--file", str(path))
        assert code == 0
        assert out.strip() == "5/3"

    def test_json_file_and_q(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"domain": 3, "codomain": 3, "images": [0, 0, 1]}')
        code, out, _ = invoke(capsys, "deg", "--file", str(path), "--q", "3")
        assert code == 0
        assert out.strip() == "3"

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "deg", "--file", "missing.fn")
        assert code == 2
        assert "error" in err

    def test_malformed_file_reports_position(self, capsys, tmp_path):
        path = tmp_path / "bad.fn"
        path.write_text("2 2 : 0 1\n")
        code, _, err = invoke(capsys, "deg", "--file", str(path))
        assert code == 2
        assert "line 1" in err and "column" in err

    @pytest.mark.parametrize("text", [
        '{"domain": true, "codomain": 2, "images": [1]}',
        '{"domain": 1, "codomain": true, "images": [0]}',
    ], ids=["domain", "codomain"])
    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_bool_size_refused(self, capsys, tmp_path, text, mode):
        # true is an int to isinstance, but not a set size
        path = tmp_path / "f.json"
        path.write_text(text)
        code, out, err = invoke(capsys, "deg", "--file", str(path), *mode)
        assert (code, out) == (2, "")
        assert err == (
            "error: line 1, column 1: domain and codomain must be integers\n"
        )

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_non_utf8_file(self, capsys, tmp_path, mode):
        path = tmp_path / "bad.fn"
        path.write_bytes(b"3 3 : 1 \xff 1\n")
        code, out, err = invoke(capsys, "deg", "--file", str(path), *mode)
        assert (code, out) == (2, "")
        assert err == (
            "error: line 1, column 9: byte 0xff is not UTF-8 text\n"
        )


class TestVerify:
    def test_chain(self, capsys):
        code, out, _ = invoke(capsys, "verify", "chain", "--sizes", "2,2,2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert all("match=true" in line for line in lines)

    def test_chain_budget_skips_enumeration(self, capsys):
        code, out, _ = invoke(capsys, "verify", "chain", "--sizes", "8,8")
        assert code == 0
        assert "chain-multinomial" in out
        assert "skipped" in out

    def test_chain_json_envelope(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "chain", "--sizes", "2,2", "--json"
        )
        doc = json.loads(out)
        assert doc["all_match"] is True
        assert {r["check"] for r in doc["results"]} == {
            "chain-enumeration",
            "chain-multinomial",
        }

    @pytest.mark.parametrize("argv", [
        ("chain", "--sizes", "100000,100000,2"),
        ("degq", "--n", "100000", "--m", "100000", "--qmax", "1"),
        ("chain", "--sizes", "11,11,11"),
        ("chain", "--sizes", "1000,1000,3"),
        ("en", "--m", "30", "--parts", ",".join(["1"] * 30)),
    ])
    def test_refusals_exit_2(self, capsys, argv):
        code, out, err = invoke(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert "budget is 1000000" in err and len(err) < 200

    def test_long_chain_of_ones(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "chain", "--sizes", ",".join(["1"] * 1200),
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_match"] is True
        assert [r["check"] for r in doc["results"]] == [
            "chain-enumeration",
            "chain-multinomial",
        ]

    def test_long_chain_of_twos(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "chain", "--sizes", ",".join(["2"] * 1200),
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_match"] is True
        nested, enumeration = doc["results"]
        assert nested["check"] == "chain-multinomial" and nested["match"]
        assert enumeration["check"] == "chain-enumeration"
        assert "budget is 1000000" in enumeration["skipped"]

    def test_degq_many_parts(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "degq", "--n", "1", "--m", "2000", "--qmax", "1"
        )
        assert code == 0
        assert out.count("match=true") == 2

    def test_en_many_parts(self, capsys):
        # 1000 compositions of 1000 parts: 10^6 steps, at the budget
        code, out, _ = invoke(
            capsys, "verify", "en", "--m", "1", "--parts", ",".join(["1"] * 1000)
        )
        assert code == 0
        assert "match=true" in out

    def test_en_refused_by_parts_times_compositions(self, capsys, deadline):
        # 60,000 compositions of 60,000 parts each
        code, out, err = invoke(
            capsys, "verify", "en", "--m", "1", "--parts", ",".join(["1"] * 60000)
        )
        assert (code, out) == (2, "")
        assert "needs 3600000000 enumerated objects" in err

    def test_en_refused_by_the_words_of_its_numbers(self, capsys, deadline):
        # 20,001 compositions of two parts, each forming numbers of up to
        # 625 words: refused at once, where the walk had run past 15 s
        code, out, err = invoke(
            capsys, "verify", "en", "--m", "20000", "--parts", "1,1"
        )
        assert (code, out) == (2, "")
        assert "needs 25001250 enumerated objects" in err

    def test_en_refused_by_the_bits_of_its_powers(self, capsys, deadline):
        # one composition walked, but powers of 10^8 bits
        code, out, err = invoke(
            capsys, "verify", "en", "--m", "100000000", "--parts", "0,2"
        )
        assert (code, out) == (2, "")
        assert "need 200000000 bits, budget is 1000000" in err

    @pytest.mark.parametrize("argv", [
        ("degq", "--n", "1", "--m", "1000000", "--qmax", "1"),
        ("chain", "--sizes", "1,1000000"),
    ], ids=["degq", "chain"])
    def test_one_point_into_a_million(self, capsys, deadline, argv):
        # 10^6 compositions of length 10^6 as written; one partition
        code, out, _ = invoke(capsys, "verify", *argv, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_match"] is True
        assert len(doc["results"]) == 2
        assert all(r["match"] for r in doc["results"])

    @pytest.mark.parametrize("argv, check, what", [
        (("degq", "--n", "1001", "--m", "1", "--qmax", "1"),
         "degq-enumeration", "enumeration of all functions (1001, 1)"),
        (("chain", "--sizes", "1001,1"),
         "chain-enumeration", "chain enumeration for (1001, 1)"),
    ], ids=["degq", "chain"])
    def test_start_profile_over_budget_skips(
        self, capsys, monkeypatch, argv, check, what
    ):
        # one tuple, but 1001 start points: refused before the walk
        def walked(*_args):
            raise AssertionError("enumerated before refusing")

        monkeypatch.setattr(oracle, "_set_partitions", walked)
        oracle._fiber_profiles.cache_clear()
        code, out, _ = invoke(
            capsys, "verify", *argv, "--budget", "1000", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_match"] is True
        nested, skipped = doc["results"]
        assert nested["match"]
        assert skipped == {
            "check": check,
            "skipped": f"start profile of {what} needs 1001 enumerated "
                       f"objects, budget is 1000",
        }

    @pytest.mark.parametrize("argv", [
        ("verify", "degq", "--n", "2", "--m", "2", "--qmax", "0"),
        ("verify", "corollary", "--qmax", "0", "--nmax", "0"),
        ("verify", "corollary", "--nmax", "-1"),
        ("expected", "--sizes", "3,3", "--decimals", "-3"),
        ("stirling", "--rows", "-1"),
    ])
    def test_out_of_range_counts_exit_2(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert "must be >=" in err

    def test_degq(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "degq", "--n", "3", "--m", "3", "--qmax", "5"
        )
        assert code == 0
        assert "match=false" not in out
        assert "degq-enumeration" in out and "degq-power-sum" in out

    def test_en(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "en", "--m", "4", "--parts", "1,2,0"
        )
        assert code == 0
        assert "square-moment" in out and "match=true" in out

    def test_corollary(self, capsys):
        code, out, _ = invoke(capsys, "verify", "corollary", "--qmax", "30")
        assert code == 0
        assert out.count("stirling-identity") == 30
        assert out.count("stirling-power") == 30
        assert "match=false" not in out

    def test_corollary_reads_every_entry_of_row_q(self, capsys, monkeypatch):
        # {20 brace 5} + 1 in the shared table: the identity weighs it by
        # a_5 = 0 and the power-sum form (q <= 6) never reads row 20, so
        # only the stirling-power check at q = 20 fails
        table = StirlingTable(30)
        row = list(table.second_row(20))
        row[5] += 1
        table._second[20] = tuple(row)
        monkeypatch.setattr(combinatorics, "_SHARED", table)
        code, out, _ = invoke(capsys, "verify", "corollary", "--qmax", "30",
                              "--json")
        assert code == 1
        failed = [(r["check"], r["parameters"])
                  for r in json.loads(out)["results"] if not r["match"]]
        assert failed == [("stirling-power", {"q": 20})]


class TestStirling:
    def test_second_rows(self, capsys):
        code, out, _ = invoke(capsys, "stirling", "--kind", "second",
                              "--rows", "4")
        assert code == 0
        assert out.strip().splitlines()[4] == "4: 0 1 7 6 1"

    def test_first_rows(self, capsys):
        code, out, _ = invoke(capsys, "stirling", "--kind", "first",
                              "--rows", "4")
        assert out.strip().splitlines()[4] == "4: 0 6 11 6 1"

    def test_signed_rows(self, capsys):
        code, out, _ = invoke(capsys, "stirling", "--kind", "first-signed",
                              "--rows", "3")
        assert out.strip().splitlines()[3] == "3: 0 2 -3 1"

    def test_transform(self, capsys):
        code, out, _ = invoke(capsys, "stirling", "--transform", "1,1,1")
        assert code == 0
        assert out.strip() == "1 2 5"

    def test_transform_not_integers(self, capsys):
        # the message names the option the text came from
        code, out, err = invoke(capsys, "stirling", "--transform", ",")
        assert (code, out) == (2, "")
        assert err == (
            "error: transform must be comma-separated integers, got ','\n"
        )

    @pytest.mark.parametrize("kind", ["second", "first", "first-signed"])
    def test_text_lines_match_json_triangle(self, capsys, kind):
        code, out, _ = invoke(capsys, "stirling", "--kind", kind,
                              "--rows", "12")
        assert code == 0
        code, doc, _ = invoke(capsys, "stirling", "--kind", kind,
                              "--rows", "12", "--json")
        triangle = json.loads(doc)["results"][0]["triangle"]
        assert out.splitlines() == [
            f"{n}: " + " ".join(str(v) for v in row)
            for n, row in enumerate(triangle)
        ]

    def test_signed_rows_match_per_entry_sign(self, capsys):
        code, doc, _ = invoke(capsys, "stirling", "--kind", "first-signed",
                              "--rows", "12", "--json")
        triangle = json.loads(doc)["results"][0]["triangle"]
        assert triangle == [
            [stirling1_signed(n, k) for k in range(n + 1)] for n in range(13)
        ]


class TestClosedFormGoldens:
    """stdout of closed-form calls, recorded before the closed forms
    shared one Stirling sum: every byte must stay the same."""

    @pytest.mark.parametrize("name, argv", [
        ("expected_q_1000_1000_400.json",
         ("expected-q", "--n", "1000", "--m", "1000", "--q", "400")),
        ("verify_degq_6_6.json", ("verify", "degq", "--n", "6", "--m", "6")),
        ("stirling_transform_1_40.json",
         ("stirling", "--transform", ",".join(map(str, range(1, 41))))),
    ])
    def test_golden_bytes(self, capsys, name, argv):
        code, out, err = invoke(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        assert out == (GOLDEN / name).read_text()

    def test_corollary_golden_bytes(self, capsys):
        # recorded before the stirling-power check, which is left out
        code, out, err = invoke(capsys, "verify", "corollary", "--qmax", "30",
                                "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        doc["results"] = [r for r in doc["results"]
                          if r["check"] != "stirling-power"]
        assert json.dumps(doc, indent=2) + "\n" == (
            GOLDEN / "verify_corollary_30.json").read_text()


class TestFiberGoldens:
    """stdout of the commands that count fibers, recorded before every
    fiber statistic was read from one histogram: every byte must stay
    the same."""

    # labels fewer than, as many as and more than the points
    FILES = {
        "dense.fn": "8 5 : 1 1 2 3 3 3 5 5\n",
        "wide.fn": "5 8 : 1 1 2 8 8\n",
        "sparse.fn": "3 1000 : 7 7 999\n",
        "small.fn": "4 3 : 1 2 2 3\n",
        "endo.json": '{"domain": 5, "codomain": 5, "images": [0, 2, 2, 4, 0]}',
    }
    CALLS = [
        ("deg", "--file", "dense.fn"),
        ("deg", "--file", "dense.fn", "--q", "3", "--decimals", "30"),
        ("deg", "--file", "wide.fn", "--q", "3"),
        ("deg", "--file", "sparse.fn"),
        ("deg", "--file", "sparse.fn", "--q", "3", "--decimals", "30"),
        ("deg", "--file", "endo.json", "--decimals", "30"),
        ("bounds", "endo.json", "endo.json"),
        ("bounds", "wide.fn", "dense.fn"),
        ("bounds", "dense.fn", "wide.fn"),
        ("bounds", "sparse.fn", "small.fn"),
    ]

    def test_function_file_golden_bytes(self, capsys, tmp_path):
        # each call's text stdout, then its --json stdout with the file
        # paths left out of the parameters
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text)
        transcript = []
        for argv in self.CALLS:
            located = [str(tmp_path / a) if a in self.FILES else a
                       for a in argv]
            code, text, err = invoke(capsys, *located)
            assert (code, err) == (0, "")
            code, out, err = invoke(capsys, *located, "--json")
            assert (code, err) == (0, "")
            doc = json.loads(out)
            for key in ("file", "outer", "inner"):
                doc["parameters"].pop(key, None)
            transcript.append("$ noninv " + " ".join(argv) + "\n" + text
                              + json.dumps(doc, indent=2) + "\n")
        assert "".join(transcript) == (
            GOLDEN / "function_files.txt").read_text()

    @pytest.mark.parametrize("name, argv", [
        ("verify_chain_3x5.txt", ("verify", "chain", "--sizes", "3,3,3,3,3")),
        ("verify_chain_3x5.json",
         ("verify", "chain", "--sizes", "3,3,3,3,3", "--json")),
        ("bounds_exhaustive_4.json",
         ("bounds", "--exhaustive", "--n", "4", "--json")),
    ])
    def test_golden_bytes(self, capsys, name, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / name).read_text()


class TestHugeCodomain:
    """Files with 10^9 labels and one or two points: the fibers are
    counted in memory bounded by the points, so the calls succeed in a
    child capped at about 1 GiB (``capped_cli``)."""

    def test_deg(self, capped_cli, tmp_path):
        path = tmp_path / "f.fn"
        path.write_text("1 1000000000 : 1\n")
        code, out, err = capped_cli("deg", "--file", path, "--json")
        assert (code, err) == (0, "")
        (result,) = json.loads(out)["results"]
        assert result["degree"] == {
            "numerator": 1, "denominator": 1, "decimal": None
        }
        assert result["max_fiber"] == 1

    def test_bounds(self, capped_cli, tmp_path):
        outer, inner = tmp_path / "f.fn", tmp_path / "g.fn"
        outer.write_text("2 1000000000 : 1 2\n")
        inner.write_text("2 2 : 1 2\n")
        code, out, err = capped_cli("bounds", outer, inner)
        assert (code, err) == (0, "")
        assert out == (
            "bound deg_composition=1 new_bound=1 new_bound_sq=1 "
            "old_bound_sq=2 new_holds=true chain_holds=true\n"
        )

    def test_enumeration_profiles(self, capped_cli):
        # a fiber profile holds the nonzero fibers only, not m counts
        code, out, err = capped_cli(
            "verify", "degq", "--n", "1", "--m", "1000000000", "--qmax", "1",
            "--budget", "1000000000",
        )
        assert (code, err) == (0, "")
        assert out.count("match=true") == 2


class TestClosedFormCaps:
    """Closed-form commands past their caps exit 2 before any Stirling
    row is built (``refuse_growth``) or any sum is taken."""

    def refused(self, capsys, *argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        return err

    def test_expected_q_past_row_cap(self, capsys, refuse_growth):
        err = self.refused(capsys, "expected-q", "--n", "5", "--m", "5",
                           "--q", "5000")
        assert "Stirling rows up to 5000 exceed the cap of 600 rows" in err

    def test_stirling_past_row_cap(self, capsys, refuse_growth):
        err = self.refused(capsys, "stirling", "--rows", "3000")
        assert "exceed the cap of 600 rows" in err

    def test_stirling_past_output_cap(self, capsys, refuse_growth):
        # 448 rows are within the row cap, but may print 100,519,875 digits
        err = self.refused(capsys, "stirling", "--rows", "448", "--json")
        assert "may print up to 100519875 digits, cap is 100000000" in err

    def test_output_cap_is_the_digit_bound(self, capsys, monkeypatch):
        # rows 0..12: 91 entries of at most 9 digits (12! = 479001600)
        monkeypatch.setattr(cli, "MAX_STIRLING_OUTPUT_DIGITS", 91 * 9)
        code, _, _ = invoke(capsys, "stirling", "--rows", "12")
        assert code == 0
        self.refused(capsys, "stirling", "--rows", "13")

    def test_corollary_past_budget(self, capsys, refuse_growth):
        err = self.refused(capsys, "verify", "corollary", "--qmax", "3000")
        assert "needs 9003000" in err and "budget is 1000000" in err

    def test_corollary_counts_stirling_products(self, capsys):
        # two sums of q products at each q: sum_{q<=5} 2q = 30 products
        code, _, _ = invoke(capsys, "verify", "corollary", "--qmax", "5",
                            "--nmax", "0", "--budget", "30")
        assert code == 0
        err = self.refused(capsys, "verify", "corollary", "--qmax", "5",
                           "--nmax", "0", "--budget", "29")
        assert "needs 30" in err

    @pytest.mark.parametrize("argv, needs", [
        # weak compositions of 12 into 12 parts: comb(23, 11)
        (("--qmax", "600", "--nmax", "12"),
         "weak compositions of 12 into 12 parts needs 1352078 enumerated "
         "objects, budget is 1000000"),
        (("--qmax", "1", "--nmax", "3", "--budget", "9"),
         "weak compositions of 3 into 3 parts needs 10 enumerated "
         "objects, budget is 9"),
    ])
    def test_corollary_power_sums_refused_before_any_sweep(
        self, capsys, monkeypatch, argv, needs
    ):
        calls = []
        monkeypatch.setattr(cli, "stirling_identity_sum", calls.append)
        err = self.refused(capsys, "verify", "corollary", *argv)
        assert err == f"error: {needs}\n" and calls == []

    def test_corollary_power_sums_at_budget(self, capsys):
        # comb(5, 2) = 10 weak compositions of 3 into 3 parts
        code, out, _ = invoke(capsys, "verify", "corollary", "--qmax", "1",
                              "--nmax", "3", "--budget", "10")
        assert code == 0 and out.count("check=power-sum-form") == 3

    def test_corollary_at_row_cap_within_budget(self, capsys, deadline):
        # 360,600 products under the default budget: the row cap, not
        # the budget, limits the sweep
        code, out, _ = invoke(capsys, "verify", "corollary", "--qmax", "600",
                              "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_match"] is True
        for check in ("stirling-identity", "stirling-power"):
            sweep = [r["parameters"]["q"] for r in doc["results"]
                     if r["check"] == check]
            assert sweep == list(range(1, 601)), check
        # the power sweep comes after every earlier entry
        checks = [r["check"] for r in doc["results"]]
        assert checks[-600:] == ["stirling-power"] * 600

    def test_corollary_past_row_cap(self, capsys, refuse_growth):
        err = self.refused(capsys, "verify", "corollary", "--qmax", "601",
                           "--budget", str(10**9))
        assert "exceed the cap of 600 rows" in err

    @pytest.mark.parametrize("qmax", [601, 700, 10**8])
    def test_degq_past_row_cap(self, capsys, deadline, refuse_growth, qmax):
        # refused before q = 1 is checked, not after 600 closed forms
        err = self.refused(capsys, "verify", "degq", "--n", "2", "--m", "2",
                           "--qmax", str(qmax))
        assert err == (
            f"error: Stirling rows up to {qmax} exceed the cap of 600 rows\n"
        )


class TestBounds:
    def test_files(self, capsys, tmp_path):
        outer = tmp_path / "f.fn"
        outer.write_text("3 3 : 1 1 2\n")
        inner = tmp_path / "g.fn"
        inner.write_text("3 3 : 1 2 2\n")
        code, out, _ = invoke(capsys, "bounds", str(outer), str(inner))
        assert code == 0
        assert "new_holds=true" in out

    @pytest.mark.parametrize("bad", ["outer", "inner"])
    def test_non_utf8_file(self, capsys, tmp_path, bad):
        paths = {}
        for name in ("outer", "inner"):
            paths[name] = tmp_path / f"{name}.fn"
            paths[name].write_bytes(
                b"\n3 3 : 1 1 \xc3\n" if name == bad else b"3 3 : 1 1 2\n"
            )
        code, out, err = invoke(
            capsys, "bounds", str(paths["outer"]), str(paths["inner"])
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: line 2, column 11: byte 0xc3 is not UTF-8 text\n"
        )

    def test_exhaustive(self, capsys):
        code, out, _ = invoke(capsys, "bounds", "--exhaustive", "--n", "3")
        assert code == 0
        assert "pairs=729" in out
        assert "new_violations=0" in out

    def test_missing_arguments(self, capsys):
        code, _, err = invoke(capsys, "bounds")
        assert code == 2

    def test_exhaustive_budget(self, capsys):
        # 5^10 pairs: refused before any function is enumerated
        code, out, err = invoke(capsys, "bounds", "--exhaustive", "--n", "5")
        assert code == 2 and out == ""
        assert "needs 9765625 enumerated objects" in err

    def test_exhaustive_size_guard(self, capsys):
        for n in ("0", "-1"):
            code, _, err = invoke(capsys, "bounds", "--exhaustive", "--n", n)
            assert code == 2 and "--n must be >= 1" in err


class TestSimulate:
    def test_chain(self, capsys):
        code, out, _ = invoke(
            capsys, "simulate", "chain", "--sizes", "2,2",
            "--samples", "2000", "--seed", "42",
        )
        assert code == 0
        assert "closed=3/2" in out and "seed=42" in out

    def test_chain_json(self, capsys):
        code, out, _ = invoke(
            capsys, "simulate", "chain", "--sizes", "2,2",
            "--samples", "1000", "--seed", "7", "--json",
        )
        doc = json.loads(out)
        result = doc["results"][0]
        assert result["samples"] == 1000 and result["seed"] == 7
        assert result["closed_form"] == {
            "numerator": 3, "denominator": 2, "decimal": None
        }

    def test_chain_reproducible(self, capsys):
        args = ("simulate", "chain", "--sizes", "3,3", "--samples", "500",
                "--seed", "9")
        _, first, _ = invoke(capsys, *args)
        _, second, _ = invoke(capsys, *args)
        assert first == second

    def test_maxfiber(self, capsys):
        code, out, _ = invoke(
            capsys, "simulate", "maxfiber", "--n", "10",
            "--samples", "500", "--seed", "3",
        )
        assert code == 0
        assert "theta_ratio=" in out

    def test_maxfiber_guard(self, capsys):
        code, _, err = invoke(
            capsys, "simulate", "maxfiber", "--n", "2",
            "--samples", "10", "--seed", "1",
        )
        assert code == 2

    def test_json_carries_stream_contract(self, capsys):
        for argv in (
            ("chain", "--sizes", "3,4,2"),
            ("maxfiber", "--n", "5"),
        ):
            code, out, _ = invoke(
                capsys, "simulate", *argv, "--samples", "50", "--seed", "1",
                "--json",
            )
            assert code == 0
            assert json.loads(out)["results"][0]["stream_contract"] == 5

    @pytest.mark.parametrize("name, argv", [
        ("simulate_chain_50x4.json",
         ("chain", "--sizes", "50,50,50,50", "--samples", "1100")),
        ("simulate_chain_20x20.json",
         ("chain", "--sizes", ",".join(["20"] * 20), "--samples", "1100")),
        ("simulate_maxfiber_10000.json",
         ("maxfiber", "--n", "10000", "--samples", "20")),
    ])
    def test_golden_bytes(self, capsys, name, argv):
        # stdout recorded under stream contract 5; 1,100 samples cross
        # into a second block.  A changed draw moves the sums behind the
        # mean and standard error, so any bit the generator changes
        # fails here
        code, out, err = invoke(
            capsys, "simulate", *argv, "--seed", "17", "--json"
        )
        assert (code, err) == (0, "")
        assert out == (GOLDEN / name).read_text()

    def test_chain_through_a_one_point_set(self, capsys, deadline):
        # bound 1: every byte is accepted, and each is a draw of 0
        code, out, _ = invoke(
            capsys, "simulate", "chain", "--sizes", "3,1,3",
            "--samples", "50", "--seed", "1", "--json",
        )
        assert code == 0
        (result,) = json.loads(out)["results"]
        assert result["mean"] == 3.0 and result["std_error"] == 0.0

    def test_set_size_above_one_word(self, capsys, deadline):
        # a bound above 2^64 would reject every unit: refused at the
        # first draw
        code, out, err = invoke(
            capsys, "simulate", "chain", "--sizes", f"1,{2**64 + 1}",
            "--samples", "1", "--seed", "1",
        )
        assert code == 2 and out == ""
        assert err == f"error: bound must be <= 2^64 (one SplitMix64 " \
            f"word), got {2**64 + 1}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("chain", "--sizes", "1000000000,2", "--samples", "1"),
            ("chain", "--sizes", "2,2", "--samples", str(10**12)),
            ("maxfiber", "--n", "1000000000", "--samples", "1"),
        ],
    )
    def test_draw_cap(self, capsys, monkeypatch, argv):
        # refused with exit code 2 before a single value is drawn
        def no_draw(state, bound, words):
            raise AssertionError("drew before refusing")

        monkeypatch.setattr(montecarlo, "_accepted", no_draw)
        code, out, err = invoke(capsys, "simulate", *argv, "--seed", "1")
        assert code == 2 and out == ""
        assert "random draws, cap is 100000000" in err


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run([]) == 2

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert run(["expected"]) == 2


class TestBranchParser:
    """``run`` parses with only the parser branch argv's first two words
    name; whatever exits there is parsed again by the whole parser."""

    @pytest.mark.parametrize("argv", [
        ["--help"], ["verify", "--help"], ["verify", "chain", "--help"],
        [], ["frobnicate"], ["verify", "chain"],
        ["verify", "corollary", "--qmax", "0"],
        # a group without its subcommand, or with an unknown one; an
        # invalid choice and an invalid int inside a branch
        ["simulate"], ["verify", "frobnicate"],
        ["stirling", "--kind", "third"],
        ["simulate", "chain", "--sizes", "2,2", "--samples", "x",
         "--seed", "1"],
    ])
    def test_same_bytes_as_the_whole_parser(self, capsys, monkeypatch, argv):
        # the help's width, whatever the terminal
        monkeypatch.setenv("COLUMNS", "80")
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parse_branch", lambda argv: None)
            whole = invoke(capsys, *argv)
        assert invoke(capsys, *argv) == whole
        assert whole[0] in (0, 2) and any(whole[1:])

    @pytest.mark.parametrize("argv", [
        ["deg", "--file", "f.txt", "--q", "3"],
        ["expected", "--sizes", "2,2", "--decimals", "4", "--json"],
        ["expected-q", "--n", "3", "--m", "4", "--q", "2"],
        ["verify", "chain", "--sizes", "3,3"],
        ["verify", "degq", "--n", "2", "--m", "2", "--qmax", "3"],
        ["verify", "en", "--m", "3", "--parts", "1,2"],
        ["verify", "corollary", "--nmax", "0"],
        ["stirling", "--kind", "first", "--rows", "4"],
        ["bounds", "f.txt", "g.txt"],
        ["bounds", "--exhaustive", "--n", "2"],
        ["simulate", "chain", "--sizes", "2,2", "--samples", "9",
         "--seed", "1"],
        ["simulate", "maxfiber", "--n", "5", "--samples", "9", "--seed", "1",
         "--json"],
    ])
    def test_branch_parses_as_the_whole_parser(self, monkeypatch, argv):
        # every command: the branch alone gives the whole parser's
        # arguments, and run builds nothing more
        built = []
        build = cli._build_parser

        def recording(branch=None):
            built.append(branch)
            return build(branch)

        monkeypatch.setattr(cli, "_build_parser", recording)
        args = cli._parse_branch(argv)
        assert args == build().parse_args(argv)
        assert built == [argv[:2]]
        branch = build(argv[:2])
        (commands,) = [
            action for action in branch._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert list(commands.choices) == [argv[0]]


def _failing_square_moment(m, parts):
    report = check_square_moment_identity(m, parts)
    return VerificationReport.compare(
        report.parameters, report.oracle_value, report.closed_value + 1
    )


def _failing_bounds(f, g):
    report = compare_bounds(f, g)
    return BoundReport(
        deg_composition=report.deg_composition,
        new_bound=report.new_bound,
        old_bound_squared_scaled=report.old_bound_squared_scaled,
        new_holds=False,
        chain_holds=report.chain_holds,
    )


class TestMismatch:
    """A failed check exits 1 and says so, in text and in JSON: each case
    patches the name the handler calls so that one check fails."""

    CASES = [
        ("expected_degree_chain",
         lambda spec: expected_degree_chain(spec) + 1,
         ["verify", "chain", "--sizes", "2,2,2"], "match=false"),
        ("expected_degree_q",
         lambda n, m, q: expected_degree_q(n, m, q) + 1,
         ["verify", "degq", "--n", "2", "--m", "3", "--qmax", "2"],
         "match=false"),
        ("check_square_moment_identity", _failing_square_moment,
         ["verify", "en", "--m", "3", "--parts", "1,2"], "match=false"),
        ("stirling_identity_sum", lambda q: 2,
         ["verify", "corollary", "--qmax", "3", "--nmax", "1"],
         "match=false"),
        ("compare_bounds", _failing_bounds,
         ["bounds", "OUTER", "INNER"], "new_holds=false"),
    ]

    @pytest.fixture
    def files(self, tmp_path):
        outer, inner = tmp_path / "f.fn", tmp_path / "g.fn"
        outer.write_text("3 3 : 1 1 2\n")
        inner.write_text("3 3 : 1 2 2\n")
        return {"OUTER": str(outer), "INNER": str(inner)}

    @pytest.mark.parametrize("name,fake,argv,marker", CASES,
                             ids=[case[0] for case in CASES])
    def test_exit_1(self, capsys, monkeypatch, files, name, fake, argv,
                    marker):
        argv = [files.get(a, a) for a in argv]
        monkeypatch.setattr(cli, name, fake)
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and err == ""
        assert marker in out
        code, out, err = invoke(capsys, *argv, "--json")
        assert code == 1 and err == ""
        assert json.loads(out)["all_match"] is False


class TestTooLongToPrint:
    """A value Python would refuse to print (more than
    sys.get_int_max_str_digits() digits) exits 2 with one error line."""

    ERROR = "error: a value of more than 4300 digits is too long to print\n"

    @pytest.fixture(autouse=True)
    def default_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("argv", [
        ["expected-q", "--n", "10000000000", "--m", "3", "--q", "600"],
        ["expected", "--sizes",
         ",".join(["10000000000"] + ["1" + "0" * 20] * 250)],
        ["simulate", "chain", "--sizes",
         ",".join(["2"] + ["1" + "0" * 19] * 250),
         "--samples", "2", "--seed", "1"],
        ["expected", "--sizes", "2,2", "--decimals", "5000"],
        ["expected", "--sizes", "2,2", "--decimals", "100000000"],
        ["stirling", "--transform", ",".join(["9" * 4299] * 10)],
    ], ids=["expected-q", "expected", "simulate", "decimals",
            "huge-decimals", "transform"])
    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_refused(self, capsys, deadline, argv, mode):
        code, out, err = invoke(capsys, *argv, *mode)
        assert (code, out, err) == (2, "", self.ERROR)

    @pytest.mark.parametrize("q", ["100000000", "1000000000000"])
    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_deg_huge_q_refused_before_powers(
        self, capsys, tmp_path, deadline, q, mode
    ):
        path = tmp_path / "f.fn"
        path.write_text("3 3 : 1 1 1\n")
        code, out, err = invoke(capsys, "deg", "--file", str(path),
                                "--q", q, *mode)
        assert (code, out, err) == (2, "", self.ERROR)

    @pytest.mark.parametrize("q, printed", [
        # 3^q / 3 = 3^(q-1): 8999 * log10(3) < 4300 digits
        ("9000", str(3**8999) + "\n"),
        # refused after computing: q * (bit_length(3) - 1) - bit_length(3)
        # = 17199 is below 4 * 4300, the early cut-off
        ("17201", None),
    ])
    def test_deg_q_near_the_cut_off(self, capsys, tmp_path, q, printed):
        path = tmp_path / "f.fn"
        path.write_text("3 3 : 1 1 1\n")
        code, out, err = invoke(capsys, "deg", "--file", str(path), "--q", q)
        if printed is None:
            assert (code, out, err) == (2, "", self.ERROR)
        else:
            assert (code, out, err) == (0, printed, "")

    def test_deg_cut_off_forms_no_power(self, capsys, tmp_path, monkeypatch):
        def formed(*_args):
            raise AssertionError("formed the powers before refusing")

        monkeypatch.setattr(FiniteFunction, "degree_q", formed)
        path = tmp_path / "f.fn"
        path.write_text("3 3 : 1 1 1\n")
        code, out, err = invoke(capsys, "deg", "--file", str(path),
                                "--q", "17202")
        assert (code, out, err) == (2, "", self.ERROR)

    def test_deg_injective_huge_q(self, capsys, tmp_path, deadline):
        # every fiber has at most one point, so deg(f, q) = 1 for any q
        path = tmp_path / "f.fn"
        path.write_text("3 4 : 1 4 2\n")
        code, out, err = invoke(capsys, "deg", "--file", str(path),
                                "--q", "1000000000000")
        assert (code, out, err) == (0, "1\n", "")

    def test_expansion_at_the_limit(self, capsys):
        # 3/2 * 10^4299 has 4300 digits and prints; 3/2 * 10^4300 has 4301
        code, out, _ = invoke(capsys, "expected", "--sizes", "2,2",
                              "--decimals", "4299")
        assert code == 0
        assert out == "3/2 (1.5" + "0" * 4298 + ")\n"
        code, out, err = invoke(capsys, "expected", "--sizes", "2,2",
                                "--decimals", "4300")
        assert (code, out, err) == (2, "", self.ERROR)


def cli_env(buffered=True):
    """The environment of a child ``python -m noninv.cli`` run the way a
    user runs it: stdout block-buffered, as when PYTHONUNBUFFERED is
    unset, or unbuffered."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return env


CLI = [sys.executable, "-m", "noninv.cli"]


def cli_process(*argv, buffered=True, **kwargs):
    """Run one call in a child; ``kwargs`` go to ``subprocess.run``."""
    return subprocess.run([*CLI, *argv], env=cli_env(buffered), timeout=60,
                          **kwargs)


def _stderr_read_only():
    # fd 2 stays open, but for reading only, so every write to it fails
    # with EBADF: what `2>&-` leaves behind a launcher script that opened
    # a file on the free descriptor
    fd = os.open(os.devnull, os.O_RDONLY)
    os.dup2(fd, 2)
    os.close(fd)


BUFFERING = pytest.mark.parametrize("buffered", [True, False],
                                    ids=["buffered", "unbuffered"])
STIRLING_JSON = ["stirling", "--kind", "first", "--rows", "300", "--json"]
BAD_SIZES = "error: sizes must be comma-separated integers, got '2,x'\n"


class TestProcessExit:
    """A real process: ``run`` flushes stdout, ``main`` leaves through
    ``os._exit``, and what it prints and its exit code are those of
    ``run``, buffered or not."""

    @pytest.mark.parametrize("argv", [
        # 11 MB of JSON, cut short if stdout were not flushed
        STIRLING_JSON,
        # two shares on two CPUs: a forked worker
        ["simulate", "chain", "--sizes", "2,2", "--samples", "40000",
         "--seed", "3", "--json"],
        # refused, exit 2
        ["verify", "chain", "--sizes", "2,2", "--budget", "0"],
        # written by argparse: help on stdout, usage on stderr
        ["--help"],
        ["expected"],
    ], ids=["stirling", "simulate", "refusal", "help", "usage"])
    def test_same_as_in_process(self, capsys, monkeypatch, argv):
        # the help's width, here and in the child, whatever the terminal
        monkeypatch.setenv("COLUMNS", "80")
        expected = invoke(capsys, *argv)
        done = cli_process(*argv, capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == expected

    @BUFFERING
    def test_reader_closes_early(self, buffered):
        proc = subprocess.Popen([*CLI, *STIRLING_JSON], env=cli_env(buffered),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert (proc.returncode, err) == (2, b"error: [Errno 32] Broken pipe\n")

    @BUFFERING
    @pytest.mark.parametrize("argv", [
        # buffered, these 4 bytes fail only when stdout is flushed
        ["expected", "--sizes", "2,2"], STIRLING_JSON,
        # a help text, which argparse writes
        ["--help"], ["deg", "--help"],
    ], ids=["small", "large", "help", "subcommand-help"])
    def test_full_device(self, buffered, argv):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "wb") as full:
            done = cli_process(*argv, buffered=buffered, stdout=full,
                               stderr=subprocess.PIPE, text=True)
        assert (done.returncode, done.stderr) == (
            2, "error: [Errno 28] No space left on device\n")

    @BUFFERING
    @pytest.mark.parametrize("argv, code, err", [
        (["expected", "--sizes", "2,2"], 0, ""),
        (["expected", "--sizes", "2,x"], 2, BAD_SIZES),
    ], ids=["ok", "input-error"])
    def test_stdout_closed_at_start(self, buffered, argv, code, err):
        # sys.stdout is None: print writes nothing
        done = cli_process(*argv, buffered=buffered,
                           stderr=subprocess.PIPE, text=True,
                           preexec_fn=lambda: os.close(1))
        assert (done.returncode, done.stderr) == (code, err)

    @BUFFERING
    def test_error_stderr_refuses(self, buffered):
        # the message cannot be written; the exit code still says input
        # error
        done = cli_process("expected", "--sizes", "2,x", buffered=buffered,
                           capture_output=True, text=True,
                           preexec_fn=_stderr_read_only)
        assert (done.returncode, done.stdout) == (2, "")

    @BUFFERING
    def test_error_stderr_closed_at_start(self, buffered):
        # sys.stderr is None: the message is dropped, not printed to
        # stdout as print(..., file=None) would
        done = cli_process("expected", "--sizes", "2,x", buffered=buffered,
                           stdout=subprocess.PIPE, text=True,
                           preexec_fn=lambda: os.close(2))
        assert (done.returncode, done.stdout) == (2, "")
