"""Run the benchmark over several seeds and summarise each metric's spread.

Usage:
    python3 bench/spread.py [--seeds 1,2,3] [--trace-runs K] [--out FILE]

Runs ``bench/run.py`` once per workload of BENCHMARK.json and seed
(untraced), and K more traced runs per workload, one at a time, each for
the ``run_seconds`` of BENCHMARK.json.  For every end-to-end metric it
prints the median, the quartiles from ``statistics.quantiles(n=4)`` and
the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json.  ``--out`` writes all of it, with the commit, Python
version and CPU count, as JSON: that is how ``baseline.json`` was made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def _git_sha() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    report = {"sha": _git_sha(), "python": platform.python_version(),
              "nproc": os.cpu_count(), "run_seconds": seconds,
              "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        traced = [run_once(workload, 1000 + k, seconds, 1)
                  for k in range(args.trace_runs)]
        entry = {
            "attempted": sum(r["attempted"] for r in runs + traced),
            "failed": sum(r["failed"] for r in runs + traced),
            "end_to_end": {
                name: {"unit": m["unit"], **summarise(
                    [r["metrics"][name]["value"] for r in runs])}
                for name, m in runs[0]["metrics"].items()
            },
        }
        if traced:
            entry["per_layer"] = {
                name: {"unit": m["unit"], "median": statistics.median(
                    r["metrics"][name]["value"] for r in traced)}
                for name, m in traced[0]["metrics"].items()
            }
        report["workloads"][workload] = entry
        print(f"{workload}: {entry['failed']}/{entry['attempted']} failed")
        for name, s in entry["end_to_end"].items():
            flag = "ok" if s["spread"] < bounds[name] / 3 else "WIDE"
            print(f"  {name:14s} median {s['median']:.4f} {s['unit']:4s} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread "
                  f"{s['spread']:.3f} (bound {bounds[name]}) {flag}",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
