"""The benchmark's per-layer tracer still finds every layer of the program.

perfbench/tracing.py wraps functions by patching module attributes, so a
layer function that is renamed, moved, or called through a reference taken
at import time drops out of its layer without any error.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from qslab.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_layers_resolve_and_attribute_verify(tmp_path):
    tracing = _load_tracing()
    for mod_name, fn_name in tracing.LAYERS:
        module = importlib.import_module("qslab." + mod_name)
        assert callable(getattr(module, fn_name, None)), (mod_name, fn_name)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = tracer.run_op(0, main, ["verify", "--type", "E6", "--level", "2",
                                       "--out", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracer.layer_metrics()
    for layer in ("qsolver.theorem_s", "qsolver.solve_s", "qsolver.dilog_s",
                  "qsolver.grid_s", "affweyl.sign_trials_s", "rootsys.checks_s"):
        assert metrics[layer] > 0, layer
    # qdim calls made straight from the pipeline are the alcove positivity test
    qdim_id = tracer.names.index("qnum.qdim")
    alcove_qdims = sum(1 for name_id, _, _, parent, _ in tracer.spans
                       if name_id == qdim_id and parent >= 0 and tracer.spans[parent][0] == 0)
    assert alcove_qdims == metrics["affweyl.alcove_weights"] > 0
