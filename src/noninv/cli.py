"""Command-line interface.

Exit codes: 0 = success (all verifications passed), 1 = at least one
verification or bound check failed, 2 = usage or input error.  Text
output is line-oriented, one record per line; ``--json`` emits a single
JSON document per invocation.

Each ``_cmd_*`` handler returns an ``_Output`` and prints nothing.
``run`` is the only code that writes to stdout (the JSON envelope or
the text lines) and the only code that picks the exit code: 1 iff the
output's ``all_match`` is False, 2 on any ``NoninvError`` or
``OSError``, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import cache
from typing import Iterable, NamedTuple

from .bounds import (
    check_composition_bound,
    compare_bounds,
    sweep_endofunction_pairs,
)
from .closed_form import (
    ChainSpec,
    expected_degree_chain,
    expected_degree_q,
    power_sum_stirling_form,
    stirling_identity_sum,
)
from .combinatorics import (
    StirlingTable,
    check_stirling_rows,
    stirling_transform,
)
from .errors import BudgetExceededError, InvalidSizeError, NoninvError
from .functions import load_function
from .montecarlo import (
    STREAM_CONTRACT,
    SamplerConfig,
    estimate_expected_degree_chain,
    estimate_max_fiber_mean,
)
from .oracle import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    VerificationReport,
    brute_expected_degree_chain,
    brute_expected_degree_q,
    check_square_moment_identity,
    enumerate_functions,
    multinomial_expected_degree_chain,
    multinomial_power_sum,
)

__all__ = ["run", "main", "MAX_STIRLING_OUTPUT_DIGITS"]

# `stirling --rows R` prints at most (R+1)(R+2)/2 entries of at most as
# many digits as R!; refused past this bound (R <= 447 fits), before
# any row is built
MAX_STIRLING_OUTPUT_DIGITS = 10**8


class _Output(NamedTuple):
    """What one command prints: the JSON envelope's ``parameters`` and
    ``results``, or else its text ``lines``, which may be a generator
    that ``--json`` never runs.  ``all_match`` is None for a command
    that checks nothing."""

    parameters: dict
    results: list
    lines: Iterable[str]
    all_match: bool | None = None


# --------------------------------------------------------------------------
# formatting helpers


@cache
def _power_of_ten(exponent: int) -> int:
    # 10^4300 takes about 60 us to build, far more than a check
    return 10**exponent


def _digit_limit() -> int:
    """L = ``sys.get_int_max_str_digits()``, or 0 for no limit."""
    # Python before 3.10.7 has no such limit
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _too_long(digits: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"a value of more than {digits} digits is too long to print"
    )


def _check_printable(x: Fraction, decimals: int | None = None) -> None:
    """Refuse a value that Python will not print in full: its numerator,
    its denominator or, with ``decimals`` K, its expansion |x|*10^K
    reaches 10^L, L = ``_digit_limit()``."""
    digits = _digit_limit()
    if not digits:
        return
    bound = _power_of_ten(digits)
    too_long = abs(x.numerator) >= bound or x.denominator >= bound
    if decimals and not too_long:
        # |x| > 10^-L here, so every K >= 2L reaches the bound (and with
        # both parts below 10^L, rounding never carries |x|*10^K up to it)
        too_long = abs(x) * 10 ** min(decimals, 2 * digits) >= bound
    if too_long:
        raise _too_long(digits)


def _frac_decimal(x: Fraction, places: int) -> str:
    """Exact decimal expansion to ``places`` >= 1 digits, round half away."""
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    num, den = abs(x.numerator), x.denominator
    scaled, rem = divmod(num * 10**places, den)
    if 2 * rem >= den:
        scaled += 1
    digits = str(scaled).rjust(places + 1, "0")
    return sign + digits[:-places] + "." + digits[-places:]


def _frac_json(x: Fraction, decimals: int | None = None) -> dict:
    """JSON form of an exact value; every handler builds it for each
    value before any text, so it is where over-long values are refused."""
    x = Fraction(x)
    _check_printable(x, decimals)
    out = {"numerator": x.numerator, "denominator": x.denominator}
    out["decimal"] = _frac_decimal(x, decimals) if decimals else None
    return out


def _report_json(check: str, report: VerificationReport) -> dict:
    return {
        "check": check,
        "parameters": dict(report.parameters),
        "oracle": _frac_json(report.oracle_value),
        "closed": _frac_json(report.closed_value),
        "match": report.match,
    }


def _report_line(check: str, report: VerificationReport) -> str:
    params = " ".join(f"{k}={v}" for k, v in report.parameters.items())
    return (
        f"check={check} {params} oracle={report.oracle_value} "
        f"closed={report.closed_value} "
        f"match={'true' if report.match else 'false'}"
    )


def _value_output(args, parameters: dict, result: dict, value) -> _Output:
    """Output of a command with one exact value; its text line is the
    reduced rational and, with ``--decimals K``, its expansion."""
    text = str(value)
    if args.decimals:
        text += f" ({_frac_decimal(value, args.decimals)})"
    return _Output(parameters, [result], [text])


class _Checks:
    """The verification reports of one command, in order, and the paths
    it skipped, each with the reason."""

    def __init__(self):
        self.reports = []
        self.skipped = []

    def compare(self, name: str, params: dict, value, closed) -> None:
        """Record path ``name``'s value against the closed form."""
        self.reports.append(
            (name, VerificationReport.compare(params, value, closed))
        )

    def compare_or_skip(self, name: str, params: dict, path, closed) -> None:
        """Compare ``path()`` against the closed form, or record why the
        path refused to run (an enumeration past its budget)."""
        try:
            value = path()
        except NoninvError as exc:
            self.skipped.append((name, str(exc)))
        else:
            self.compare(name, params, value, closed)

    def output(self, parameters: dict) -> _Output:
        """Reports first, then skipped paths; ``all_match`` covers the
        reports."""
        results = [_report_json(name, r) for name, r in self.reports]
        lines = [_report_line(name, r) for name, r in self.reports]
        for name, reason in self.skipped:
            results.append({"check": name, "skipped": reason})
            lines.append(f"check={name} skipped={reason}")
        all_match = all(r.match for _, r in self.reports)
        return _Output(parameters, results, lines, all_match)


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise NoninvError(
            f"{what} must be comma-separated integers, got {text!r}"
        ) from None


# --------------------------------------------------------------------------
# command handlers; each returns its _Output and prints nothing


def _cmd_deg(args) -> _Output:
    f = load_function(args.file)
    # deg(f, q) = sum_y |f^-1(y)|^q / n has a reduced numerator of at
    # least M^q / n for the largest fiber M, so when that is 2^(4L) or
    # more (> 10^L) it is refused before the powers are formed
    digits, max_fiber = _digit_limit(), f.max_fiber()
    if digits and max_fiber > 1 and (
        args.q * (max_fiber.bit_length() - 1) - f.domain_size.bit_length()
        >= 4 * digits
    ):
        raise _too_long(digits)
    value = f.degree_q(args.q)
    return _value_output(
        args,
        {"file": args.file, "q": args.q},
        {
            "domain": f.domain_size,
            "codomain": f.codomain_size,
            "q": args.q,
            "degree": _frac_json(value, args.decimals),
            "max_fiber": max_fiber,
        },
        value,
    )


def _cmd_expected(args) -> _Output:
    spec = ChainSpec(_parse_ints(args.sizes, "sizes"))
    value = expected_degree_chain(spec)
    return _value_output(
        args,
        {"sizes": list(spec.sizes)},
        {"expected_degree": _frac_json(value, args.decimals)},
        value,
    )


def _cmd_expected_q(args) -> _Output:
    value = expected_degree_q(args.n, args.m, args.q)
    return _value_output(
        args,
        {"n": args.n, "m": args.m, "q": args.q},
        {"expected_degree_q": _frac_json(value, args.decimals)},
        value,
    )


def _cmd_verify_chain(args) -> _Output:
    spec = ChainSpec(_parse_ints(args.sizes, "sizes"))
    budget = EnumerationBudget(args.budget)
    closed = expected_degree_chain(spec)
    params = {"sizes": ",".join(str(s) for s in spec.sizes)}
    checks = _Checks()
    checks.compare_or_skip(
        "chain-enumeration", params,
        lambda: brute_expected_degree_chain(spec, budget), closed,
    )
    checks.compare(
        "chain-multinomial", params,
        multinomial_expected_degree_chain(spec, budget), closed,
    )
    return checks.output({"sizes": list(spec.sizes)})


def _cmd_verify_degq(args) -> _Output:
    budget = EnumerationBudget(args.budget)
    n, m = args.n, args.m
    checks = _Checks()
    for q in range(1, args.qmax + 1):
        params = {"n": n, "m": m, "q": q}
        closed = expected_degree_q(n, m, q)
        checks.compare_or_skip(
            "degq-enumeration", params,
            lambda: brute_expected_degree_q(n, m, q, budget), closed,
        )
        checks.compare(
            "degq-power-sum", params,
            multinomial_power_sum(n, m, q, budget), n * m**n * closed,
        )
    return checks.output({"n": n, "m": m, "qmax": args.qmax})


def _cmd_verify_en(args) -> _Output:
    parts = _parse_ints(args.parts, "parts")
    checks = _Checks()
    checks.reports.append(
        ("square-moment", check_square_moment_identity(args.m, parts))
    )
    return checks.output({"m": args.m, "parts": list(parts)})


def _cmd_verify_corollary(args) -> _Output:
    budget = EnumerationBudget(args.budget)
    # the identity sum at q multiplies q(q+1)/2 pairs of Stirling numbers
    qmax = args.qmax
    budget.check(qmax * (qmax + 1) * (qmax + 2) // 6,
                 f"Stirling identity sweep to q={qmax}")
    check_stirling_rows(qmax)
    checks = _Checks()
    for q in range(1, qmax + 1):
        checks.compare("stirling-identity", {"q": q},
                       stirling_identity_sum(q), 1)
    for n in range(1, args.nmax + 1):
        for q in range(1, min(qmax, 6) + 1):
            checks.compare(
                "power-sum-form", {"n": n, "q": q},
                multinomial_power_sum(n, n, q, budget),
                power_sum_stirling_form(n, q),
            )
    return checks.output({"qmax": qmax, "nmax": args.nmax})


def _bound_report_json(report) -> dict:
    new_sq, old_sq = report.old_bound_squared_scaled
    return {
        "deg_composition": _frac_json(report.deg_composition),
        "new_bound": _frac_json(report.new_bound),
        "new_bound_squared": _frac_json(new_sq),
        "old_bound_squared": _frac_json(old_sq),
        "new_holds": report.new_holds,
        "chain_holds": report.chain_holds,
    }


def _bound_report_line(report) -> str:
    new_sq, old_sq = report.old_bound_squared_scaled
    return (
        f"bound deg_composition={report.deg_composition} "
        f"new_bound={report.new_bound} "
        f"new_bound_sq={new_sq} old_bound_sq={old_sq} "
        f"new_holds={'true' if report.new_holds else 'false'} "
        f"chain_holds={'true' if report.chain_holds else 'false'}"
    )


def _cmd_bounds(args) -> _Output:
    if args.exhaustive:
        n = args.n
        if n is None:
            raise NoninvError("--exhaustive requires --n")
        if n < 1:
            raise InvalidSizeError(f"--n must be >= 1, got {n}")
        DEFAULT_BUDGET.check_powers(
            [(n, 2 * n)], f"exhaustive sweep of endofunction pairs on a {n}-set"
        )
        pairs, new_violations, chain_violations = sweep_endofunction_pairs(
            list(enumerate_functions(n, n))
        )
        return _Output(
            {"n": n, "exhaustive": True},
            [{"pairs": pairs, "new_violations": new_violations,
              "chain_violations": chain_violations}],
            [f"pairs={pairs} new_violations={new_violations} "
             f"chain_violations={chain_violations}"],
            new_violations == 0 and chain_violations == 0,
        )
    if not args.outer or not args.inner:
        raise NoninvError("provide OUTER and INNER function files, "
                          "or --exhaustive --n N")
    f = load_function(args.outer)
    g = load_function(args.inner)
    endo = (
        f.domain_size == f.codomain_size == g.domain_size == g.codomain_size
    )
    report = compare_bounds(f, g) if endo else check_composition_bound(f, g)
    return _Output(
        {"outer": args.outer, "inner": args.inner},
        [_bound_report_json(report)],
        [_bound_report_line(report)],
        report.new_holds and (report.chain_holds or not endo),
    )


def _cmd_stirling(args) -> _Output:
    if args.transform is not None:
        seq = list(_parse_ints(args.transform, "parts"))
        out = stirling_transform(seq)
        _check_printable(Fraction(max(map(abs, out))))
        return _Output(
            {"transform": seq},
            [{"transformed": out}],
            [" ".join(str(v) for v in out)],
        )
    rows = args.rows
    check_stirling_rows(rows)
    # every entry of rows 0..R is at most R!, which bounds the digits
    digits = (rows + 1) * (rows + 2) // 2 * len(str(math.factorial(rows)))
    if digits > MAX_STIRLING_OUTPUT_DIGITS:
        raise BudgetExceededError(
            f"stirling --rows {rows} may print up to {digits} digits, "
            f"cap is {MAX_STIRLING_OUTPUT_DIGITS}"
        )
    table = StirlingTable(rows)
    if args.kind == "second":
        triangle = [table.second_row(n) for n in range(rows + 1)]
    else:
        triangle = table.first_rows(rows)
        if args.kind == "first-signed":
            triangle = [
                [-v if (n - k) % 2 else v for k, v in enumerate(row)]
                for n, row in enumerate(triangle)
            ]
    return _Output(
        {"kind": args.kind, "rows": rows},
        [{"triangle": triangle}],
        (f"{n}: " + " ".join(map(str, row))
         for n, row in enumerate(triangle)),
    )


def _estimate_json(report) -> dict:
    out = {
        "mean": report.mean,
        "std_error": report.std_error,
        "samples": report.samples,
        "seed": report.seed,
    }
    closed = report.closed_form
    out["closed_form"] = None if closed is None else _frac_json(closed)
    out["z_score"] = report.z_score
    if report.theta_ratio is not None:
        out["theta_ratio"] = report.theta_ratio
    out["stream_contract"] = STREAM_CONTRACT
    return out


def _cmd_simulate_chain(args) -> _Output:
    spec = ChainSpec(_parse_ints(args.sizes, "sizes"))
    config = SamplerConfig(seed=args.seed, samples=args.samples, sizes=spec)
    report = estimate_expected_degree_chain(config)
    z = "none" if report.z_score is None else repr(report.z_score)
    return _Output(
        {"sizes": list(spec.sizes), "samples": args.samples,
         "seed": args.seed},
        [_estimate_json(report)],
        [f"mean={report.mean!r} std_error={report.std_error!r} "
         f"closed={report.closed_form} z={z} samples={report.samples} "
         f"seed={report.seed}"],
    )


def _cmd_simulate_maxfiber(args) -> _Output:
    config = SamplerConfig(seed=args.seed, samples=args.samples)
    report = estimate_max_fiber_mean(args.n, config)
    return _Output(
        {"n": args.n, "samples": args.samples, "seed": args.seed},
        [_estimate_json(report)],
        [f"mean={report.mean!r} std_error={report.std_error!r} "
         f"theta_ratio={report.theta_ratio!r} "
         f"samples={report.samples} seed={report.seed}"],
    )


# --------------------------------------------------------------------------
# parser


def _int_at_least(minimum: int):
    """argparse type for an integer option that refuses values below
    ``minimum`` (exit code 2, like every usage error)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}"
            )
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _add_common(parser, decimals=False, budget=False):
    if budget:
        parser.add_argument("--budget", type=int,
                            default=DEFAULT_BUDGET.max_states)
    parser.add_argument("--json", action="store_true",
                        help="emit a single JSON document")
    if decimals:
        parser.add_argument(
            "--decimals", type=_int_at_least(0), default=0, metavar="K",
            help="also print a K-digit decimal approximation",
        )


def _command(sub, name: str, handler, **kwargs) -> argparse.ArgumentParser:
    """Add subcommand ``name``, run by ``handler``; the JSON envelope's
    ``command`` is the parser's prog without the leading ``noninv``."""
    p = sub.add_parser(name, **kwargs)
    p.set_defaults(handler=handler,
                   command_path=p.prog.removeprefix("noninv "))
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noninv",
        description="Exact degrees of noninvertibility of finite "
        "functions: closed forms, independent verification paths, "
        "bounds and seeded Monte Carlo estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "deg", _cmd_deg,
                 help="degree of a function read from a file")
    p.add_argument("--file", required=True,
                   help="function file (text 'n m : images' one-based, "
                   "or JSON zero-based)")
    p.add_argument("--q", type=int, default=2,
                   help="fiber power (default 2, the degree)")
    _add_common(p, decimals=True)

    p = _command(sub, "expected", _cmd_expected,
                 help="exact expected degree of a composition chain")
    p.add_argument("--sizes", required=True,
                   help="comma-separated set sizes n1,...,n_{t+1}")
    _add_common(p, decimals=True)

    p = _command(sub, "expected-q", _cmd_expected_q,
                 help="exact expected generalized degree")
    p.add_argument("--n", type=int, required=True, help="domain size")
    p.add_argument("--m", type=int, required=True, help="codomain size")
    p.add_argument("--q", type=int, required=True, help="fiber power")
    _add_common(p, decimals=True)

    v = sub.add_parser("verify",
                       help="check closed forms against independent paths")
    vsub = v.add_subparsers(dest="verify_command", required=True)

    p = _command(vsub, "chain", _cmd_verify_chain,
                 help="chain expectation, three paths")
    p.add_argument("--sizes", required=True)
    _add_common(p, budget=True)

    p = _command(vsub, "degq", _cmd_verify_degq,
                 help="generalized-degree expectation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--qmax", type=_int_at_least(1), default=6)
    _add_common(p, budget=True)

    p = _command(vsub, "en", _cmd_verify_en,
                 help="square-moment multinomial identity")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--parts", required=True,
                   help="comma-separated nonnegative weights")
    _add_common(p)

    p = _command(vsub, "corollary", _cmd_verify_corollary,
                 help="Stirling identity sweep and power-sum form")
    p.add_argument("--qmax", type=_int_at_least(1), default=30)
    p.add_argument("--nmax", type=_int_at_least(0), default=5)
    _add_common(p, budget=True)

    p = _command(sub, "stirling", _cmd_stirling,
                 help="print Stirling triangles or a transform")
    p.add_argument("--kind", choices=["second", "first", "first-signed"],
                   default="second")
    p.add_argument("--rows", type=_int_at_least(0), default=10)
    p.add_argument("--transform", default=None,
                   help="comma-separated sequence to transform")
    _add_common(p)

    p = _command(sub, "bounds", _cmd_bounds, help="composition bound reports")
    p.add_argument("outer", nargs="?", default=None,
                   help="file for the outer function f of f(g(x))")
    p.add_argument("inner", nargs="?", default=None,
                   help="file for the inner function g")
    p.add_argument("--exhaustive", action="store_true",
                   help="sweep all endofunction pairs on an n-set")
    p.add_argument("--n", type=int, default=None)
    _add_common(p)

    s = sub.add_parser("simulate", help="seeded Monte Carlo estimates")
    ssub = s.add_subparsers(dest="simulate_command", required=True)

    p = _command(ssub, "chain", _cmd_simulate_chain,
                 help="sample random composition chains")
    p.add_argument("--sizes", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_common(p)

    p = _command(ssub, "maxfiber", _cmd_simulate_maxfiber,
                 help="sample max fiber sizes of endofunctions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_common(p)

    return parser


def run(argv=None) -> int:
    """Parse argv, run the command and print its output; returns the
    process exit code.  The only code that writes to stdout."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        out = args.handler(args)
        if args.json:
            envelope = {
                "command": args.command_path,
                "parameters": out.parameters,
                "results": out.results,
            }
            if out.all_match is not None:
                envelope["all_match"] = out.all_match
            print(json.dumps(envelope, indent=2))
        else:
            for line in out.lines:
                print(line)
    except (NoninvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if out.all_match is False else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
