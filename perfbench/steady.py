"""Steadiness check: run a workload repeatedly and summarize each metric.

    python3 perfbench/steady.py --workload NAME|all --runs 10 [--trace 0|1]

Each run is a fresh ``run.py`` process, as the benchmark is run in
practice, with the run's index as its seed and BENCHMARK.json's
``run_seconds``.  For every metric this prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the bound
in BENCHMARK.json.  Attempted and failed counts are printed per run, since
their ratio must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"run failed ({done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(workload: str, results: list[dict], bounds: dict[str, float]) -> None:
    counts = sorted({(r["attempted"], r["failed"]) for r in results})
    correct = all(r["correct"] for r in results)
    print(f"{workload}: {len(results)} runs, correct={correct}, "
          f"(attempted, failed) per run: {counts}")
    print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
          f"{'bound':>6s}  unit")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        spread = (q3 - q1) / median if median else 0.0
        bound = f"{bounds[name]:.2f}" if name in bounds else "-"
        print(f"  {name:28s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{bound:>6s}  {first['unit']}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in names:
        results = []
        for seed in range(1, args.runs + 1):
            results.append(run_once(workload, seed, bench["run_seconds"], args.trace))
            print(f"  seed {seed}: " + json.dumps(
                {k: round(v["value"], 4) for k, v in results[-1]["metrics"].items()}),
                flush=True)
        summarize(workload, results, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
