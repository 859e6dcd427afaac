"""Trajectory bench: the benchmark's end-to-end metrics and in-process
`verify` and `solve` timings of one checkout, written to
bench/BENCH_<commit>.json.

    python3 bench/trajectory.py

Each workload of BENCHMARK.json runs once through ``perfbench/run.py
--trace 0`` in a child process, and its JSON line is kept as it is; then
once through ``--trace 1``, and the per-layer table it writes to
perfbench/out/layers-<workload>.json is kept as {metric: value}.  Then, in
this process, ``verify`` runs all check groups at the default precision at
E7 L12, E8 L8, E8 L24, E7 L40 and E6 L12, the one that folds nodes into
orbits of the diagram's involution: its solve group solves one row per
orbit, its grid build walks one, and its residual, theorem entries,
alcove lines and dilogarithm arguments are computed once per shared row,
bit for bit as node by node (nodes of one mark walk equal plans, as the
roots come in non-decreasing height; the solve group still compares every
cell); the grid path's fold took it 5.89 -> 4.66 ms (BENCH_ee04ff3.json
and its -dirty pair).  And ``solve_restricted`` runs alone at E7 L28, E8
L24 and E8 L130.  The runs are interleaved: each of RUNS rounds runs
every configuration once, in that order.  Each run is bracketed by perfbench's
reference loop, and its time is divided by the host's slowdown around it
(``reference_s`` and ``slowdown`` of perfbench/run.py), as perfbench
adjusts its operations.  The file keeps, per configuration, the median
adjusted time over the rounds (``statistic`` says so); for ``verify``,
that median run's per-group times (``diagnostics.timings``), its overall
verdict and every check's status; for ``solve``, the residual.  <commit> is ``git describe --always
--dirty`` of the checkout, so a tree with uncommitted changes is named
after its parent commit with ``-dirty`` appended.  Compare two files only
when both were written on the same host, close in time.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 7
VERIFY_CONFIGS = (("E7", 12), ("E8", 8), ("E8", 24), ("E7", 40), ("E6", 12))
SOLVE_CONFIGS = (("E7", 28), ("E8", 24), ("E8", 130))
STATISTIC = (f"median over {RUNS} interleaved in-process runs of each time divided by the "
             "host's slowdown around it (perfbench/run.py reference_s and slowdown)")


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


def interleaved_runs(jobs: dict) -> dict:
    """Run every job once per round, RUNS rounds, each run between two
    calls of perfbench's reference loop; per job, the median run by
    adjusted time as (adjusted seconds, result)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import reference_s, slowdown

    samples: dict[str, list] = {name: [] for name in jobs}
    for _ in range(RUNS):
        for name, job in jobs.items():
            before = reference_s()
            start = time.perf_counter()
            result = job()
            wall = time.perf_counter() - start
            samples[name].append((wall / slowdown(before, reference_s()), result))
    return {name: sorted(runs, key=lambda run: run[0])[len(runs) // 2]
            for name, runs in samples.items()}


def verify_job(type_label: str, level: int):
    """One in-process ``verify`` of every check group, as its report dict."""
    from qslab.report import RunConfig, report_to_dict, run

    return lambda: report_to_dict(run(RunConfig(type_label=type_label, level=level)))


def solve_job(type_label: str, level: int):
    """One in-process ``solve_restricted`` at the default precision."""
    from qslab.qnum import LevelContext
    from qslab.qsolver import solve_restricted
    from qslab.rootsys import build_root_system

    rs = build_root_system(type_label)
    return lambda: solve_restricted(LevelContext(rs, level))


def in_process_timings() -> tuple[dict, dict]:
    """The ``verify`` and ``solve`` entries of the file, from one set of
    interleaved rounds."""
    from qslab.qnum import render_decimal

    jobs = {("verify", f"{t} L{level}"): verify_job(t, level) for t, level in VERIFY_CONFIGS}
    jobs.update({("solve", f"{t} L{level}"): solve_job(t, level) for t, level in SOLVE_CONFIGS})
    timed = interleaved_runs(jobs)
    verify, solve = {}, {}
    for (kind, name), (wall_adj_s, result) in timed.items():
        if kind == "solve":
            solve[name] = {"wall_adj_s": wall_adj_s,
                           "residual": render_decimal(result.residual_max)}
            continue
        verify[name] = {
            "wall_adj_s": wall_adj_s,
            "timings_s": result["diagnostics"]["timings"],
            "overall": result["overall"],
            "checks": [f"{c['name']}" + (f" node {c['node']}" if c.get("node") else "")
                       + f": {c['status']}" for c in result["checks"]],
        }
    return verify, solve


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    verify, solve = in_process_timings()
    result = {
        "commit": commit,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": {name: workload_metrics(name) for name in names},
        "layers": {name: workload_layers(name) for name in names},
        "statistic": STATISTIC,
        "verify": verify,
        "solve": solve,
    }
    path = ROOT / "bench" / f"BENCH_{commit}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
