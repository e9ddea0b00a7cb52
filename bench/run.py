"""Benchmark of the `noninv` CLI: fixed workloads of cold calls, checked.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; NAME is one of the workloads in
``workloads.py``, or ``all`` to run each in turn.  Every call starts a
fresh ``python -m noninv.cli ... --json`` process with ``src`` on
PYTHONPATH, so it pays the cold start a user pays.  Calls run one at a
time (a closed loop with one client).  The run repeats passes over the
workload's calls, in an order drawn from the seed, until S seconds have
passed, and always completes at least one pass.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json:
wall and CPU time of one pass in units of a reference run, cold start to
ready (also measured against the reference run, then scaled to seconds),
and the largest child RSS.  With ``--trace 1`` each call also runs
under ``tracer.py`` and the run reports the per-layer metrics.
Human-readable lines come first; the last line of each workload is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits with 2, printing no result, when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Optional

from workloads import WORKLOADS, Call, mismatch, call, frac

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACER = BENCH / "tracer.py"
WORK = BENCH / ".work"

# Cold start to ready: interpreter start, `import noninv` and parser
# build, on a call whose own work is negligible.
PROBE = call("probe", ["expected", "--sizes", "2,2"],
             lambda doc: mismatch("expected", frac(
                 doc["results"][0]["expected_degree"]), Fraction(3, 2)))
# Probes made before the first pass; one more starts every pass.
FIRST_PROBES = 4

# The machine's current speed: a fixed pure-Python loop in a fresh
# interpreter that imports nothing from the repository.  On a shared
# machine (measured on a 2-core VM) speed drifts by +-20% over tens of
# seconds, so seconds measured in one run do not repeat in the next; each
# call's time divided by the mean of the reference runs just before and
# after it does (see README.md).
REFERENCE_LOOPS = 600_000
# setup_s is the probe's time in units of the reference run times this
# nominal reference time: the seconds set-up takes on a machine whose
# reference run takes 0.15 s (its median ranged 0.12-0.21 s from run to
# run on the 2-core VM of the first baseline).
REFERENCE_NOMINAL_S = 0.15
REFERENCE = Call(
    "reference", (),
    lambda out: mismatch("reference sum", out, 14 * (REFERENCE_LOOPS // 7)
                         + sum((0, 1, 4, 2, 2, 4)[:REFERENCE_LOOPS % 7])),
    program=("-c", f"s = 0\nfor i in range({REFERENCE_LOOPS}):\n"
                   "    s += i * i % 7\nprint(s)"))


@dataclass
class Outcome:
    """What one child process did."""

    call: Call
    wall_s: float
    cpu_s: float
    rss_kib: int
    stdout_bytes: int
    error: Optional[str]
    trace: Optional[dict] = None
    # mean wall and CPU seconds of the reference runs around the call
    reference: tuple[float, float] = (0.0, 0.0)


def execute(c: Call, env: dict, trace_path: Optional[Path] = None) -> Outcome:
    """Run one call in a fresh process and check its output."""
    if trace_path is None:
        cmd = [sys.executable, *c.program, *c.argv]
    else:
        cmd = [sys.executable, str(TRACER), str(trace_path), *c.argv]
    stderr_path = WORK / "stderr.txt"
    with open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=env, cwd=ROOT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    outcome = Outcome(c, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss, len(out), None)
    if code != 0:
        tail = stderr_path.read_text(errors="replace").strip()[-300:]
        outcome.error = f"exit code {code}: {tail}"
        return outcome
    try:
        doc = json.loads(out)
    except ValueError:
        outcome.error = "unparsable envelope"
        return outcome
    outcome.error = c.check(doc)
    if trace_path is not None and outcome.error is None:
        outcome.trace = json.loads(trace_path.read_text())
    return outcome


def per_call(outcomes: list[Outcome], value, average=statistics.median) -> float:
    """Sum over call names of the ``average`` of ``value`` over that
    name's outcomes: the cost of one typical pass."""
    groups: dict[str, list[float]] = {}
    for o in outcomes:
        groups.setdefault(o.call.name, []).append(value(o))
    return sum(average(v) for v in groups.values())


def per_pass(outcomes: list[Outcome], value) -> float:
    """Counts and layer times of one pass: means, so rare work counts."""
    return per_call(outcomes, value, statistics.fmean)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(probes: list[Outcome], untraced: list[Outcome]) -> dict:
    return {
        "wall_ref": per_call(untraced, lambda o: o.wall_s / o.reference[0]),
        "cpu_ref": per_call(untraced, lambda o: o.cpu_s / o.reference[1]),
        "setup_s": REFERENCE_NOMINAL_S * statistics.median(
            o.wall_s / o.reference[0] for o in probes),
        "peak_rss_mib": max(o.rss_kib for o in probes + untraced) / 1024,
    }


def per_layer(probes: list[Outcome], untraced: list[Outcome],
              traced: list[Outcome]) -> dict:
    """Per-layer metrics of one pass, from the traced calls.

    Every ``_s`` metric is self time: the layer's own time minus the
    time of traced layers it called, so the layer times add up.
    """

    def total(*names: str, field: int = 1) -> float:
        # stats fields: 0 calls, 1 total_s, 2 child_s, 3 errors, 4 work
        return sum(
            per_pass(traced, lambda o: o.trace["stats"].get(n, [0] * 5)[field])
            for n in names
        )

    def self_s(*names: str) -> float:
        return total(*names) - total(*names, field=2)

    oracle_paths = ("oracle.brute_chain", "oracle.nested_chain",
                    "oracle.brute_degq", "oracle.power_sum",
                    "oracle.enumerate_functions")
    stirling = ("combinatorics.stirling_read", "combinatorics.stirling_table")
    blocks = ("montecarlo.chain_block", "montecarlo.maxfiber_block")
    traced_wall = per_call(traced, lambda o: o.wall_s)
    untraced_wall = per_call(untraced, lambda o: o.wall_s)
    sampled = [o for o in untraced if o.call.samples]
    loaded = [o for o in untraced if o.call.images]
    return {
        "wall_s": untraced_wall,
        "cpu_s": per_call(untraced, lambda o: o.cpu_s),
        "reference_s": statistics.median(o.reference[0] for o in untraced),
        "setup.probe_s": statistics.median(o.wall_s for o in probes),
        "setup.import_s": statistics.median(o.trace["import_s"] for o in traced),
        "cli.self_s": self_s("cli.run"),
        "cli.stdout_bytes": per_pass(traced, lambda o: o.stdout_bytes),
        "oracle.brute_chain_s": self_s("oracle.brute_chain"),
        "oracle.brute_chain_tuples_per_s": _ratio(
            total("oracle.brute_chain", field=4), total("oracle.brute_chain")),
        "oracle.nested_chain_s": self_s("oracle.nested_chain"),
        "oracle.brute_degq_s": self_s("oracle.brute_degq"),
        "oracle.power_sum_s": self_s("oracle.power_sum"),
        "oracle.enumerate_functions_s": self_s("oracle.enumerate_functions"),
        "oracle.skipped_paths": total(*oracle_paths, field=3),
        "combinatorics.stirling_calls": total(*stirling, field=0),
        "combinatorics.stirling_s": self_s(*stirling),
        "combinatorics.multinomial_calls": total(
            "combinatorics.multinomial", field=0),
        "combinatorics.multinomial_s": self_s("combinatorics.multinomial"),
        "closed_form.calls": total("closed_form", field=0),
        "closed_form.self_s": self_s("closed_form"),
        "montecarlo.chain_sample_us": 1e6 * _ratio(
            total("montecarlo.chain_block"),
            total("montecarlo.chain_block", field=4)),
        "montecarlo.maxfiber_sample_us": 1e6 * _ratio(
            total("montecarlo.maxfiber_block"),
            total("montecarlo.maxfiber_block", field=4)),
        "montecarlo.blocks": total(*blocks, field=0),
        "functions.load_s": self_s("functions.load"),
        "functions.images_per_s": _ratio(
            total("functions.load", field=4), total("functions.load")),
        "functions.degree_s": self_s("functions.degree"),
        "functions.compose_calls": total("functions.compose", field=0),
        "functions.compose_s": self_s("functions.compose"),
        "bounds.report_calls": total("bounds.report", field=0),
        "bounds.report_s": self_s("bounds.report"),
        "trace_overhead_share": _ratio(traced_wall - untraced_wall,
                                       untraced_wall),
        "samples_per_s": _ratio(sum(o.call.samples for o in sampled),
                                sum(o.wall_s for o in sampled)),
        "images_per_s": _ratio(sum(o.call.images for o in loaded),
                               sum(o.wall_s for o in loaded)),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    rng = random.Random(seed)
    workdir = WORK / name
    workdir.mkdir(parents=True, exist_ok=True)
    # Children may cache bytecode, as an installed package does; the
    # warm-up call fills the cache.
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    make_pass = WORKLOADS[name](rng, workdir)
    warmup = execute(PROBE, env)  # fills bytecode and page caches
    references: list[Outcome] = []
    probes: list[Outcome] = []
    untraced: list[Outcome] = []
    traced: list[Outcome] = []
    bracketed: list[tuple[Outcome, int]] = []  # call, reference before it
    trace_path = workdir / "trace.json"

    def measure(c: Call, group: list[Outcome], path=None) -> None:
        group.append(execute(c, env, path))
        bracketed.append((group[-1], len(references) - 1))

    # Each probe and each call comes right after a reference run and right
    # before the next one.
    for _ in range(FIRST_PROBES):
        references.append(execute(REFERENCE, env))
        measure(PROBE, probes)
    deadline = perf_counter() + seconds
    passes = 0
    while passes == 0 or perf_counter() < deadline:
        calls = make_pass()
        rng.shuffle(calls)
        references.append(execute(REFERENCE, env))
        measure(PROBE, probes)
        for c in calls:
            if passes and perf_counter() >= deadline:
                break
            references.append(execute(REFERENCE, env))
            runs = [untraced] if not trace else (
                [traced, untraced] if len(traced) % 2 else [untraced, traced])
            for group in runs:
                measure(c, group, trace_path if group is traced else None)
        else:
            passes += 1
    references.append(execute(REFERENCE, env))
    shutil.rmtree(workdir)
    for o, i in bracketed:
        before, after = references[i], references[i + 1]
        o.reference = ((before.wall_s + after.wall_s) / 2,
                       (before.cpu_s + after.cpu_s) / 2)

    outcomes = [warmup] + probes + references + untraced + traced
    failures = [o for o in outcomes if o.error is not None]
    for o in failures[:10]:
        print(f"FAILED {o.call.name} {' '.join(o.call.argv)}: "
              f"{o.error[:500]}", file=sys.stderr)
    probes, untraced, traced = (
        [o for o in group if o.error is None]
        for group in (probes, untraced, traced))
    values = {}
    if all(r.error is None for r in references):
        try:
            values = (per_layer(probes, untraced, traced) if trace
                      else end_to_end(probes, untraced))
        except statistics.StatisticsError:  # every call of some kind failed
            pass
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if values}
    print(f"# workload {name}: seed {seed}, {passes} full passes, "
          f"{len(probes)} probes, {len(outcomes)} calls")
    for metric, v in metrics.items():
        print(f"{name} {metric} = {v['value']:.6g} {v['unit']}")
    print(f"{name} failed_share = {len(failures)}/{len(outcomes)}")
    return {"correct": not failures, "attempted": len(outcomes),
            "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "noninv" / "cli.py").is_file():
        print(f"error: package source {SRC / 'noninv'} not found",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), spec)
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
