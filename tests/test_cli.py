"""CLI surface: dispatch, formats, exit codes."""

import dataclasses
import json
import sys
from fractions import Fraction

import pytest

from noninv import (
    ChainSpec,
    FiniteFunction,
    VerificationReport,
    check_square_moment_identity,
    compare_bounds,
    expected_degree_chain,
    expected_degree_q,
    montecarlo,
    stirling1_signed,
)
from noninv import cli, oracle
from noninv.cli import run


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
        code, out, _ = invoke(
            capsys, "verify", "en", "--m", "1", "--parts", ",".join(["1"] * 1500)
        )
        assert code == 0
        assert "match=true" in out

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
        assert "match=false" not in out


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
        assert "needs 4504501000" in err and "budget is 1000000" in err

    def test_corollary_counts_stirling_products(self, capsys):
        # sum_{q<=5} q(q+1)/2 = 35 products
        code, _, _ = invoke(capsys, "verify", "corollary", "--qmax", "5",
                            "--nmax", "0", "--budget", "35")
        assert code == 0
        err = self.refused(capsys, "verify", "corollary", "--qmax", "5",
                           "--nmax", "0", "--budget", "34")
        assert "needs 35" in err

    def test_corollary_past_row_cap(self, capsys, refuse_growth):
        err = self.refused(capsys, "verify", "corollary", "--qmax", "601",
                           "--budget", str(10**9))
        assert "exceed the cap of 600 rows" in err


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
            assert json.loads(out)["results"][0]["stream_contract"] == 3

    def test_chain_through_a_one_point_set(self, capsys, deadline):
        # bound 1: every word is accepted and holds 64 zero digits
        code, out, _ = invoke(
            capsys, "simulate", "chain", "--sizes", "3,1,3",
            "--samples", "50", "--seed", "1", "--json",
        )
        assert code == 0
        (result,) = json.loads(out)["results"]
        assert result["mean"] == 3.0 and result["std_error"] == 0.0

    def test_set_size_above_one_word(self, capsys, deadline):
        # a bound above 2^64 would reject every word: refused at the
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
        def no_draw(state, bound, count):
            raise AssertionError("drew before refusing")

        monkeypatch.setattr(montecarlo, "_draw", no_draw)
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


def _failing_square_moment(m, parts):
    report = check_square_moment_identity(m, parts)
    return VerificationReport.compare(
        report.parameters, report.oracle_value, report.closed_value + 1
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
        ("compare_bounds",
         lambda f, g: dataclasses.replace(compare_bounds(f, g),
                                          new_holds=False),
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
