"""Run one `noninv` CLI call with per-layer timers installed.

Usage: python bench/tracer.py OUT.json ARGV...

Wraps the package's public functions at the names their callers look
them up by, runs ``noninv.cli.run(ARGV)``, and writes one JSON object to
OUT.json when the call ends: the import time of ``noninv.cli`` and, per
wrapped layer, calls, total seconds, child seconds (time inside other
wrapped layers), errors raised and units of work.  Counters live in
memory until the end; nothing is written per call.  Exits with the code
``run`` returned.  ``src`` must be on PYTHONPATH.
"""

from __future__ import annotations

from time import perf_counter

# json and sys are imported by noninv.cli too, so they count as its import.
_import_start = perf_counter()
import json  # noqa: E402
import sys  # noqa: E402

import noninv.bounds  # noqa: E402
import noninv.cli  # noqa: E402
import noninv.closed_form  # noqa: E402
import noninv.montecarlo  # noqa: E402
import noninv.oracle  # noqa: E402
from noninv.combinatorics import StirlingTable  # noqa: E402
from noninv.functions import FiniteFunction  # noqa: E402

IMPORT_S = perf_counter() - _import_start


class Tracer:
    """Aggregated span counters keyed by layer name.

    ``stack`` holds one child-time accumulator per open span; the bottom
    entry catches time of spans opened outside ``cli.run``.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.stack: list[list[float]] = [[0.0]]

    def stat(self, name: str) -> list:
        # calls, total_s, child_s, errors, work
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])

    def _close(self, stat, frame, start) -> None:
        elapsed = perf_counter() - start
        self.stack.pop()
        self.stack[-1][0] += elapsed
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += frame[0]

    def wrap(self, name: str, fn, work=None):
        """Time every call of ``fn`` under ``name``; ``work(args, result)``
        counts the units of work a successful call did."""
        stat = self.stat(name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stat[3] += 1
                raise
            finally:
                self._close(stat, frame, start)
            if work is not None:
                stat[4] += work(args, result)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn):
        """Like ``wrap`` for a generator function: each resumption is
        timed on its own, so interleaved consumers are attributed right."""
        stat = self.stat(name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                frame = [0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(stat, frame, start)
                stat[4] += 1
                yield item

        return wrapper


def install(tracer: Tracer) -> None:
    """Patch each traced function where its caller looks it up."""
    cli, oracle, closed_form = noninv.cli, noninv.oracle, noninv.closed_form
    montecarlo, bounds = noninv.montecarlo, noninv.bounds

    def patch(module, attr, name, work=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), work))

    def tuples(args, _result):
        return args[0].tuple_count()

    patch(cli, "brute_expected_degree_chain", "oracle.brute_chain", tuples)
    patch(cli, "multinomial_expected_degree_chain", "oracle.nested_chain")
    patch(cli, "brute_expected_degree_q", "oracle.brute_degq")
    patch(cli, "multinomial_power_sum", "oracle.power_sum")
    cli.enumerate_functions = tracer.wrap_generator(
        "oracle.enumerate_functions", cli.enumerate_functions
    )

    patch(oracle, "multinomial", "combinatorics.multinomial")
    # Every read of a Stirling number goes through StirlingTable.ensure,
    # hundreds of thousands of times in one closed-forms call, so reads
    # are counted and not timed; only a call that builds rows is timed.
    # A table that already holds row n has nothing to build (the contract
    # of ``ensure``), so a read costs the traced run one counter more.
    grow = tracer.wrap("combinatorics.stirling_table", StirlingTable.ensure)
    reads = tracer.stat("combinatorics.stirling_read")

    def ensure_traced(table, n):
        if n <= table.max_n:
            reads[0] += 1
        else:
            grow(table, n)

    StirlingTable.ensure = ensure_traced

    for attr in ("expected_degree_chain", "expected_degree_q",
                 "stirling_identity_sum", "power_sum_stirling_form"):
        patch(cli, attr, "closed_form")
    patch(montecarlo, "expected_degree_chain", "closed_form")

    def samples(args, _result):
        return args[3]

    patch(montecarlo, "_chain_block", "montecarlo.chain_block", samples)
    patch(montecarlo, "_maxfiber_block", "montecarlo.maxfiber_block", samples)
    patch(cli, "estimate_expected_degree_chain", "montecarlo.estimate")
    patch(cli, "estimate_max_fiber_mean", "montecarlo.estimate")

    def images(_args, result):
        return result.domain_size

    patch(cli, "load_function", "functions.load", images)
    for attr in ("degree", "degree_q", "max_fiber"):
        patch(FiniteFunction, attr, "functions.degree")
    patch(bounds, "compose", "functions.compose")

    patch(cli, "compare_bounds", "bounds.report")
    patch(cli, "check_composition_bound", "bounds.report")


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    run = tracer.wrap("cli.run", noninv.cli.run)
    try:
        code = run(cli_argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": IMPORT_S, "stats": tracer.stats}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
