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
    # the sign certificate reads each of the 7 generators off its images of 0
    # and of the 6 unit vectors and tests it on 4 probes, all through
    # affweyl.apply_word, which the tracer counts; a loop inlined into report
    # would zero the yield
    assert metrics["affweyl.apply_word_calls"] == 7 * (1 + 6 + 4)
    assert metrics["affweyl.trial_yield"] == 4 / 77
    # alcove positivity is an integer certificate: no alcove is enumerated
    # and no qdim is called outside a traced layer
    qdim_id = tracer.names.index("qnum.qdim")
    assert not any(name_id == qdim_id and parent >= 0 and tracer.spans[parent][0] == 0
                   for name_id, _, _, parent, _ in tracer.spans)
    assert metrics["affweyl.alcove_weights"] == 0 and metrics["affweyl.alcove_s"] == 0
    # the grid's direct rows call qdim through a module attribute, which the
    # tracer patches, so their sine products stay in qnum.qdim_s
    grid_id = tracer.names.index("qsolver.build_qgrid")
    assert any(name_id == qdim_id and parent >= 0 and tracer.spans[parent][0] == grid_id
               for name_id, _, _, parent, _ in tracer.spans)


def test_tracer_attributes_rootedness(tmp_path):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = tracer.run_op(0, main, ["logconcave", "--type", "E7", "--level", "4",
                                       "--node", "7", "--branden",
                                       "--out", str(tmp_path / "line.txt")])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracer.layer_metrics()
    # the CLI calls branden_criterion through the seqanalysis module attribute,
    # which the tracer patches
    assert metrics["seqanalysis.branden_s"] > 0
    assert metrics["seqanalysis.branden_calls"] == 1


def test_tracer_counts_dilog_terms(tmp_path):
    # the tracer's dilog_sum hook reads the grid from the first positional
    # argument and counts rank * (level - 1) terms per call
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = tracer.run_op(0, main, ["verify", "--type", "E6", "--level", "6",
                                       "--checks", "grid,dilog",
                                       "--out", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracer.layer_metrics()
    assert metrics["qsolver.dilog_s"] > 0
    assert metrics["qsolver.dilog_terms"] == 30
