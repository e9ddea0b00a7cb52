"""The benchmark's workloads: fixed `noninv` CLI calls and their checks.

Each workload function takes the run's seeded RNG and a scratch
directory, generates whatever inputs it needs (set-up, not timed) and
returns a function that builds one pass: the list of calls to make.
Exact workloads use fixed parameters, so a pass costs the same on every
seed; the seed picks Monte Carlo seeds, generated function files and the
order of calls.  Every check recomputes the expected output through
``exact``, never through `noninv`.

Sizes stay inside the enumeration budget (10^6 objects) and inside the
caps the roadmap proposes for later (no `10,10,10` nested sum, no
`--threads`), so a later cap that refuses a call shows up as a failure.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import exact

Check = Callable[[dict], Optional[str]]

# |z| of a Monte Carlo mean against the exact expectation above which the
# call counts as failed; 5 sigma flakes about once per 1.7 million calls.
Z_GATE = 5.0


@dataclass(frozen=True)
class Call:
    """One child process, ``python PROGRAM ARGV``, and its output check.

    ``check`` gets the parsed JSON output and returns a failure reason, or
    None when the output is right.  ``samples`` and ``images`` are the
    Monte Carlo samples drawn and function images parsed by the call.
    """

    name: str
    argv: tuple[str, ...]
    check: Check
    samples: int = 0
    images: int = 0
    program: tuple[str, ...] = ("-m", "noninv.cli")


def frac(doc: dict) -> Fraction:
    return Fraction(doc["numerator"], doc["denominator"])


def _results(doc: dict, verification: bool) -> list:
    if verification and doc.get("all_match") is not True:
        raise ValueError("all_match is not true")
    return doc["results"]


def _guard(check: Check) -> Check:
    """Turn a malformed envelope into a failure reason."""

    def guarded(doc: dict) -> Optional[str]:
        try:
            return check(doc)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"

    return guarded


def call(name: str, argv: list, check: Check, **work) -> Call:
    """A `noninv` CLI call with ``--json`` output."""
    return Call(name, tuple(str(a) for a in [*argv, "--json"]), _guard(check),
                **work)


def mismatch(what: str, got, want) -> Optional[str]:
    return None if got == want else f"{what}: got {got}, want {want}"


def missing(what: str, seen: set, required: set) -> Optional[str]:
    """Every required result must be present; more results may be, so a
    later verification path or output key does not count as a failure."""
    absent = required - seen
    return f"{what} missing: {sorted(absent)}" if absent else None


def mismatch_in(what: str, got: dict, want: dict) -> Optional[str]:
    """Compare only the keys the benchmark computed."""
    return mismatch(what, {k: got.get(k) for k in want}, want)


# ---------------------------------------------------------------------------
# verify: exact oracle paths (enumeration, nested sums, exhaustive bounds)


def _verify_chain(sizes: tuple[int, ...], enumerated: bool) -> Call:
    want = exact.chain_expectation(sizes)
    names = {"chain-multinomial"} | ({"chain-enumeration"} if enumerated else set())

    def check(doc):
        results = _results(doc, verification=True)
        seen = set()
        for r in results:
            if "skipped" in r:
                continue
            seen.add(r["check"])
            if not (r["match"] and frac(r["oracle"]) == frac(r["closed"]) == want):
                return f"{r['check']}: oracle {frac(r['oracle'])}, want {want}"
        return missing("paths checked", seen, names)

    return call(f"verify-chain-{len(sizes)}x{sizes[0]}",
                ["verify", "chain", "--sizes", ",".join(map(str, sizes))], check)


def _verify_degq(n: int, m: int, qmax: int) -> Call:
    want = {q: exact.expected_degree_q(n, m, q) for q in range(1, qmax + 1)}
    scales = {"degq-enumeration": 1, "degq-power-sum": n * m**n}

    def check(doc):
        seen = set()
        for r in _results(doc, verification=True):
            q = r["parameters"]["q"]
            seen.add((r["check"], q))
            scale = scales.get(r["check"])
            if not r["match"] or (scale is not None
                                  and frac(r["oracle"]) != scale * want[q]):
                return f"{r['check']} q={q}: oracle {frac(r['oracle'])}"
        return missing("results", seen, {(c, q) for c in scales for q in want})

    return call(f"verify-degq-{n}-{m}-{qmax}",
                ["verify", "degq", "--n", n, "--m", m, "--qmax", qmax], check)


def _bounds_exhaustive(n: int) -> Call:
    want = {"pairs": n ** (2 * n), "new_violations": 0, "chain_violations": 0}

    def check(doc):
        return mismatch_in("sweep", _results(doc, verification=True)[0], want)

    return call(f"bounds-exhaustive-{n}",
                ["bounds", "--exhaustive", "--n", n], check)


def verify(rng: random.Random, workdir: Path):
    calls = [
        _verify_chain((3, 3, 3, 3, 3), enumerated=True),
        _verify_chain((8, 8, 8), enumerated=False),
        _verify_degq(6, 6, 6),
        _bounds_exhaustive(4),
    ]
    return lambda: list(calls)


# ---------------------------------------------------------------------------
# simulate: seeded Monte Carlo, gated on |z| against the exact expectation


def _z_check(want: float, closed: Optional[Fraction] = None) -> Check:
    def check(doc):
        r = _results(doc, verification=False)[0]
        if closed is not None and frac(r["closed_form"]) != closed:
            return f"closed form {frac(r['closed_form'])}, want {closed}"
        z = (r["mean"] - want) / r["std_error"]
        return None if abs(z) <= Z_GATE else f"|z| = {abs(z):.2f} > {Z_GATE}"

    return check


def simulate(rng: random.Random, workdir: Path):
    chains = {
        # the acceptance suite's criterion-8 shape
        "simulate-chain-4x50": ((50,) * 4, 10_000),
        # a long chain: the image of the partial composition shrinks
        # towards about 2n/s, so image-only draws would gain most here
        "simulate-chain-20x20": ((20,) * 20, 4_000),
    }
    closed = {name: exact.chain_expectation(sizes)
              for name, (sizes, _) in chains.items()}
    maxfiber_n, maxfiber_samples = 10_000, 100
    maxfiber_mean = exact.max_fiber_expectation(maxfiber_n)

    def make_pass():
        calls = [
            call(name, ["simulate", "chain", "--sizes", ",".join(map(str, sizes)),
                        "--samples", samples, "--seed", rng.getrandbits(63)],
                 _z_check(float(closed[name]), closed[name]), samples=samples)
            for name, (sizes, samples) in chains.items()
        ]
        calls.append(call(
            f"simulate-maxfiber-{maxfiber_n}",
            ["simulate", "maxfiber", "--n", maxfiber_n, "--samples",
             maxfiber_samples, "--seed", rng.getrandbits(63)],
            _z_check(maxfiber_mean), samples=maxfiber_samples))
        return calls

    return make_pass


# ---------------------------------------------------------------------------
# closed-forms: closed forms and Stirling tables at large parameters


def _expected_q(n: int, m: int, q: int) -> Call:
    want = exact.expected_degree_q(n, m, q)

    def check(doc):
        got = frac(_results(doc, verification=False)[0]["expected_degree_q"])
        return mismatch("expected-q", got, want)

    return call(f"expected-q-{n}-{m}-{q}",
                ["expected-q", "--n", n, "--m", m, "--q", q], check)


def _corollary(qmax: int, nmax: int = 5) -> Call:
    required = ({("stirling-identity", None, q) for q in range(1, qmax + 1)}
                | {("power-sum-form", n, q) for n in range(1, nmax + 1)
                   for q in range(1, min(qmax, 6) + 1)})

    def check(doc):
        seen = set()
        for r in _results(doc, verification=True):
            params = r["parameters"]
            seen.add((r["check"], params.get("n"), params["q"]))
            if not r["match"]:
                return f"{r['check']} {r['parameters']} does not match"
            if r["check"] == "stirling-identity" and frac(r["oracle"]) != 1:
                return f"stirling identity at {r['parameters']} is not 1"
        return missing("results", seen, required)

    return call(f"verify-corollary-{qmax}",
                ["verify", "corollary", "--qmax", qmax], check)


def _stirling(kind: str, rows: int, row_sums: list[int]) -> Call:
    def check(doc):
        triangle = _results(doc, verification=False)[0]["triangle"]
        if [len(row) for row in triangle] != list(range(1, rows + 2)):
            return "triangle has the wrong shape"
        return mismatch(f"{kind} row sums", [sum(r) for r in triangle], row_sums)

    return call(f"stirling-{kind}-{rows}",
                ["stirling", "--kind", kind, "--rows", rows], check)


def _expected_decimals(sizes: tuple[int, ...], decimals: int) -> Call:
    want = exact.chain_expectation(sizes)
    want_decimal = exact.decimal_string(want, decimals)

    def check(doc):
        got = _results(doc, verification=False)[0]["expected_degree"]
        return (mismatch("expected", frac(got), want)
                or mismatch("decimal", got["decimal"], want_decimal))

    return call(f"expected-{len(sizes)}x{sizes[0]}",
                ["expected", "--sizes", ",".join(map(str, sizes)),
                 "--decimals", decimals], check)


def closed_forms(rng: random.Random, workdir: Path):
    rows = 300
    calls = [
        _expected_q(1000, 1000, 400),
        _corollary(120),
        _stirling("second", rows, exact.bell_numbers(rows + 1)),
        _stirling("first", rows, exact.factorials(rows + 1)),
        _expected_decimals((10**6,) * 20, 40),
    ]
    return lambda: list(calls)


# ---------------------------------------------------------------------------
# function-files: one huge user-supplied function per call


def _write_function(path: Path, images: list[int], codomain: int) -> None:
    """Text files are one-based, JSON files zero-based."""
    if path.suffix == ".json":
        text = json.dumps({"domain": len(images), "codomain": codomain,
                           "images": images})
    else:
        text = f"{len(images)} {codomain} : " + " ".join(str(y + 1) for y in images)
    path.write_text(text, encoding="utf-8")


def _deg_file(path: Path, images: list[int], codomain: int, q: int) -> Call:
    counts = exact.fiber_counts(images, codomain)
    want = {"domain": len(images), "codomain": codomain, "q": q,
            "degree": exact.degree_q(counts, len(images), q),
            "max_fiber": max(counts)}

    def check(doc):
        got = dict(_results(doc, verification=False)[0])
        got["degree"] = frac(got["degree"])
        return mismatch_in("deg", got, want)

    return call(f"deg-{path.suffix[1:]}-{len(images)}",
                ["deg", "--file", path, "--q", q], check, images=len(images))


def _bounds_files(outer_path: Path, outer: list[int],
                  inner_path: Path, inner: list[int]) -> Call:
    n = len(outer)
    outer_counts = exact.fiber_counts(outer, n)
    deg_f = exact.degree_q(outer_counts, n, 2)
    deg_g = exact.degree_q(exact.fiber_counts(inner, n), n, 2)
    new_bound = max(outer_counts) * deg_g
    want = {
        "deg_composition": exact.degree_q(
            exact.fiber_counts([outer[y] for y in inner], n), n, 2),
        "new_bound": new_bound,
        "new_bound_squared": new_bound * new_bound,
        "old_bound_squared": n * deg_f * deg_g**2,
        "new_holds": True,
        "chain_holds": True,
    }

    def check(doc):
        got = dict(_results(doc, verification=True)[0])
        for key in ("deg_composition", "new_bound", "new_bound_squared",
                    "old_bound_squared"):
            got[key] = frac(got[key])
        return mismatch_in("bounds", got, want)

    return call(f"bounds-files-{n}", ["bounds", outer_path, inner_path],
                check, images=2 * n)


def function_files(rng: random.Random, workdir: Path):
    big, pair = 10**6, 2 * 10**5

    def draw(n: int, m: int) -> list[int]:
        return rng.choices(range(m), k=n)

    text_images, json_images = draw(big, big), draw(big, big // 4)
    outer, inner = draw(pair, pair), draw(pair, pair)
    files = {
        "big.fn": (text_images, big),
        "big.json": (json_images, big // 4),
        "outer.fn": (outer, pair),
        "inner.json": (inner, pair),
    }
    for name, (images, codomain) in files.items():
        _write_function(workdir / name, images, codomain)
    calls = [
        _deg_file(workdir / "big.fn", text_images, big, 2),
        _deg_file(workdir / "big.json", json_images, big // 4, 3),
        _bounds_files(workdir / "outer.fn", outer, workdir / "inner.json", inner),
    ]
    return lambda: list(calls)


WORKLOADS = {
    "verify": verify,
    "simulate": simulate,
    "closed-forms": closed_forms,
    "function-files": function_files,
}
