"""Benchmark of the qslab command line, run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one ``qslab.cli.main(argv)`` call that writes its output
to a file, which the independent checks in ``checks.py`` then read.  The
operations of a workload run one after another on one thread (a closed
loop with a single client), in PASSES whole passes over the workload on
every commit.  The workloads are fixed lists and the run length is the
number of passes, so ``--seed`` and ``--seconds`` change nothing.

Other tenants of the host slow this process by up to 1.9x, in bursts and
in spells that last minutes, and the slowdown is not time off the
processor, so CPU time does not remove it.  Each operation is therefore
bracketed by a fixed reference loop that gauges the host's speed at that
moment, and the end-to-end times are the operations' times scaled to the
speed at which that loop takes REFERENCE_QUIET_S (see ``adjusted_times``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` every operation runs untraced
and then traced, and the JSON object holds the per-layer metrics and the
tracing overhead; the spans and the layer table are written under
perfbench/out/.

The program is imported from the checkout's ``src`` directory; without it
the benchmark exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import mpmath

from checks import solve_output_problems, verify_report_problems
from tracing import METRICS as LAYER_METRICS, Tracer
from workloads import WORKLOADS, Operation, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# Every operation runs once per pass.  The number of passes is fixed, so
# that a fast commit gets as many samples as a slow one.
PASSES = 6
SETUP_SAMPLES = 15
# The reference loop's least time on the 2-core host the benchmark was
# tuned on (Python 3.11, mpmath 1.3.0), over 4 500 runs: adjusted times are
# the times at the speed at which the loop takes this long.
REFERENCE_QUIET_S = 3.8e-3
# The reference loop's own mpmath context and operands, at the program's
# pinned precision.
REF_CTX = mpmath.MPContext()
REF_CTX.prec = 128
REF_VALUES = [REF_CTX.mpf(i) / 7 + 1 for i in range(300)]
# Import qslab and build each root system in a fresh interpreter.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qslab
from qslab.rootsys import build_root_system
for t in sys.argv[2:]:
    build_root_system(t)
print(time.perf_counter() - start)
"""


class Result(NamedTuple):
    op: Operation
    seconds: float
    failure: str | None  # None when the operation succeeded
    problems: list[str]  # what the correctness checks found in its output
    ref_before_s: float  # the reference loop's time just before the operation
    ref_after_s: float  # and just after it


def import_cli():
    sys.path.insert(0, str(SRC))
    try:
        import qslab.cli
    except ImportError as exc:
        sys.exit(f"error: cannot import qslab from {SRC}: {exc}")
    if not Path(qslab.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: qslab was imported from {qslab.cli.__file__}, not {SRC}")
    return qslab.cli.main


def setup_time(types: tuple[str, ...]) -> float:
    """Seconds a fresh interpreter takes to import qslab and build the root systems.

    Like an operation's time, it is divided by the host's slowdown around it.
    """
    before = reference_s()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *types],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout) / slowdown(before, reference_s())


def reference_s() -> float:
    """Seconds a fixed loop takes on its second of two runs.

    The loop does the two kinds of work the program spends its time in,
    interpreter work on dicts, tuples and integers and 128-bit mpmath
    arithmetic, about half each, and none of the program's code, so its
    time gauges the host's speed at the moment.  The first run refills the
    caches that the operation before it may have evicted.
    """
    for _ in range(2):
        start = time.perf_counter()
        table: dict[tuple[int, int], int] = {}
        for i in range(10_000):
            key = (i % 101, i % 7)
            table[key] = table.get(key, 0) + i * i % 13
        acc = REF_CTX.mpf(0)
        for x, y in itertools.pairwise(REF_VALUES):
            acc = REF_CTX.sqrt(x * y + acc / 3)
        elapsed = time.perf_counter() - start
    return elapsed


def run_operation(invoke, op, out_path: Path) -> tuple[float, str | None, list[str]]:
    """Run one operation; return (seconds, failure, problems found by the checks).

    ``failure`` is None when the operation succeeded, and otherwise names
    the report checks that failed, the exit code or the uncaught exception.
    Whatever output the operation wrote is checked, failed or not.
    """
    argv = [a.replace("{out}", str(out_path)) for a in op.argv]
    out_path.unlink(missing_ok=True)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                code = invoke(argv)
            except Exception as exc:  # an uncaught error in qslab fails this operation only
                sys.stderr.write(f"{op.label}: {traceback.format_exc()}")
                code = f"uncaught {type(exc).__name__}"
            elapsed = time.perf_counter() - start
        if not out_path.exists():
            return elapsed, f"exit {code}, no output", []
        text = out_path.read_text()
    finally:
        out_path.unlink(missing_ok=True)
    failing = ""
    if op.command == "verify":
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            return elapsed, None if code == 0 else f"exit {code}", [f"report is not JSON: {exc}"]
        problems = verify_report_problems(report, op.type_label, op.level)
        failing = ",".join(c["name"] for c in report["checks"] if c["status"] == "fail")
    else:
        problems = solve_output_problems(text, op.type_label, op.level)
    if code == 0:
        return elapsed, None, problems
    return elapsed, failing or f"exit {code}", problems


def failure_problems(workload: Workload, results) -> list[str]:
    """Problems unless one pass failed exactly the workload's known failures."""
    failed = {r.op.label: r.failure for r in results if r.failure is not None}
    problems = []
    for label in sorted(failed.keys() | workload.known_failures.keys()):
        got, expected = failed.get(label), workload.known_failures.get(label)
        if got != expected:
            problems.append(f"{label}: failed {got or 'nothing'}, "
                            f"expected {expected or 'no failure'}")
    return problems


def run_pass(cli_main, workload: Workload, tmp: Path, tracer: Tracer | None, between):
    """All operations of the workload once, calling ``between()`` after each.

    With a tracer, each operation runs untraced and then at once traced, so
    that both see the same load on the host.  Returns the untraced and the
    traced results.
    """
    untraced, traced = [], []

    def timed(invoke, op, out_path):
        before = reference_s()
        outcome = run_operation(invoke, op, out_path)
        return Result(op, *outcome, before, reference_s())

    for op_id, op in enumerate(workload.operations):
        out_path = tmp / f"op{op_id}.out"
        untraced.append(timed(cli_main, op, out_path))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(timed(functools.partial(tracer.run_op, op_id, cli_main),
                                    op, out_path))
            finally:
                tracer.uninstall()
        if between is not None:
            between()
    return untraced, traced


def adjusted_times(workload: Workload, passes) -> list[float]:
    """Each operation's median over the passes of its time at the quiet speed.

    A sample's time is divided by its slowdown: the mean reference time
    before and after it over REFERENCE_QUIET_S.  That is the time the
    operation would have taken had the host run the reference loop in
    REFERENCE_QUIET_S.  Scaling by a per-run quietest time instead made the
    figures less steady, because that minimum itself varies from run to run.
    """
    return [statistics.median(p[i].seconds / slowdown(p[i].ref_before_s, p[i].ref_after_s)
                              for p in passes)
            for i in range(len(workload.operations))]


def slowdown(ref_before_s: float, ref_after_s: float) -> float:
    return (ref_before_s + ref_after_s) / 2 / REFERENCE_QUIET_S


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted for a uniform interface; the workloads are fixed")
    parser.add_argument("--seconds", type=float, default=10,
                        help="accepted for a uniform interface; a run is PASSES passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    cli_main = import_cli()

    # Set-up is timed in fresh interpreters spread over the whole run, so
    # that a burst of load on the host does not hit every sample.
    setup_samples: list[float] = []
    ops_done = itertools.count(1)
    total_ops = PASSES * len(workload.operations)
    sample_after = {round((j + 1) * total_ops / SETUP_SAMPLES) for j in range(SETUP_SAMPLES)}

    def take_setup_sample():
        if next(ops_done) in sample_after:
            setup_samples.append(setup_time(workload.types))

    between = None if args.trace else take_setup_sample
    if not args.trace:
        setup_time(workload.types)  # warms the file and bytecode caches; not counted

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    passes, traced, tracers = [], [], []
    origin = time.perf_counter()
    try:
        for _ in range(PASSES):
            tracer = Tracer() if args.trace else None
            untraced_pass, traced_pass = run_pass(cli_main, workload, tmp, tracer, between)
            passes.append(untraced_pass)
            if tracer is not None:
                traced.append(traced_pass)
                tracers.append(tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    results = [r for p in passes + traced for r in p]
    failed = [(r.op.label, r.failure) for r in results if r.failure is not None]
    problems = [f"{r.op.label}: {p}" for r in results for p in r.problems]
    for pass_results in passes + traced:
        problems += failure_problems(workload, pass_results)
    for label, failure in dict(failed).items():
        sys.stderr.write(f"failed: {label} ({failure})\n")
    for p in problems[:20]:
        sys.stderr.write(f"incorrect: {p}\n")

    op_times = adjusted_times(workload, passes)
    if args.trace:
        per_pass = [t.layer_metrics() for t in tracers]
        values = {name: min(m[name] for m in per_pass) for name in per_pass[0]}
        traced_times = adjusted_times(workload, traced)
        values["trace.overhead_pct"] = 100 * (sum(traced_times) / sum(op_times) - 1)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
        with open(OUT / f"spans-{workload.name}.csv", "w") as f:
            f.write("pass,op,span,parent,name,start_us,end_us\n")
            for pass_no, tracer in enumerate(tracers):
                tracer.write_spans(f, pass_no, origin)
        (OUT / f"layers-{workload.name}.json").write_text(json.dumps(metrics, indent=2) + "\n")
        for name, m in metrics.items():
            sys.stderr.write(f"{name:28s} {m['value']:>14.6g} {m['unit']}\n")
    else:
        for op, t, p in zip(workload.operations, op_times, zip(*passes)):
            samples = " ".join(f"{r.seconds:.3f}/{slowdown(r.ref_before_s, r.ref_after_s):.2f}"
                               for r in p)
            sys.stderr.write(f"{op.label:16s} adjusted {t:.3f} s; measured s/slowdown: "
                             f"{samples}\n")
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "wall_adj_s": {"value": sum(op_times), "unit": "s"},
            "op_p50_adj_s": {"value": statistics.median(op_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
