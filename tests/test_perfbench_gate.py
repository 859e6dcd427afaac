"""The benchmark's correctness gate holds on every workload.

Each operation of perfbench/workloads.py runs once through perfbench/run.py's
``run_operation``, whose output checks live in perfbench/checks.py, and each
workload must fail exactly its pinned known failures.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from qslab.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    # run.py imports checks, tracing and workloads as top-level modules
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.mark.parametrize("name", ["verify-matrix", "level-sweep", "solve-deep"])
def test_workload_outputs_pass_the_checks(bench, name, tmp_path):
    workload = bench.WORKLOADS[name]
    results = []
    for op in workload.operations:
        seconds, failure, problems = bench.run_operation(main, op, tmp_path / "op.out")
        assert not problems, (op.label, problems)
        results.append(bench.Result(op, seconds, failure, problems, 0.0, 0.0))
    assert bench.failure_problems(workload, results) == []
