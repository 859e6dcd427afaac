"""Trajectory bench: the benchmark's end-to-end metrics and whole-`verify`
timings of one checkout, written to bench/BENCH_<commit>.json.

    python3 bench/trajectory.py

Each workload of BENCHMARK.json runs once through ``perfbench/run.py
--trace 0`` in a child process, and its JSON line is kept as it is; then
once through ``--trace 1``, and the per-layer table it writes to
perfbench/out/layers-<workload>.json is kept as {metric: value}.  Then
``verify`` runs in-process, all check groups at the default precision,
seven times each at E7 L12, E8 L8, E8 L24, E7 L40 and E6 L12, the one
whose solve group folds nodes into orbits: the file keeps the fastest
run's wall time, its per-group times (``diagnostics.timings``), its
overall verdict and every check's status.  <commit> is ``git describe
--always --dirty`` of the checkout, so a tree with uncommitted changes is
named after its parent commit with ``-dirty`` appended.  Compare two files
only when both were written on the same host, close in time.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERIFY_CONFIGS = (("E7", 12), ("E8", 8), ("E8", 24), ("E7", 40), ("E6", 12))


def workload_metrics(name: str) -> dict:
    """The last line of ``perfbench/run.py --workload name --trace 0``."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name, "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def workload_layers(name: str) -> dict:
    """The per-layer table of one ``perfbench/run.py --workload name --trace
    1`` run, as {metric: value}."""
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", name, "--trace", "1"],
                   cwd=ROOT, capture_output=True, text=True, check=True)
    table = json.loads((ROOT / "perfbench" / "out" / f"layers-{name}.json").read_text())
    return {metric: entry["value"] for metric, entry in table.items()}


def verify_timings(type_label: str, level: int, runs: int = 7) -> dict:
    """The fastest of ``runs`` in-process ``verify`` runs of every check
    group: wall time, the report's per-group timings, its verdict and each
    check's status."""
    from qslab.report import RunConfig, report_to_dict, run

    timed = []
    for _ in range(runs):
        start = time.perf_counter()
        report = report_to_dict(run(RunConfig(type_label=type_label, level=level)))
        timed.append((time.perf_counter() - start, report))
    wall, report = min(timed, key=lambda t: t[0])
    return {
        "wall_s": wall,
        "timings_s": report["diagnostics"]["timings"],
        "overall": report["overall"],
        "checks": [f"{c['name']}" + (f" node {c['node']}" if c.get("node") else "")
                   + f": {c['status']}" for c in report["checks"]],
    }


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    result = {
        "commit": commit,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": {name: workload_metrics(name) for name in names},
        "layers": {name: workload_layers(name) for name in names},
        "verify": {f"{t} L{level}": verify_timings(t, level) for t, level in VERIFY_CONFIGS},
    }
    path = ROOT / "bench" / f"BENCH_{commit}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
