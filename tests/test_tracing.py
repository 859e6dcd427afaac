"""The benchmark's per-layer tracer still finds every layer of the program.

perfbench/tracing.py wraps functions by patching module attributes, so a
layer function that is renamed, moved, or called through a reference taken
at import time drops out of its layer without any error.
"""

from __future__ import annotations

import importlib
import importlib.util
from collections import Counter
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
    # would zero the yield.  The fixed-word check reads the map of s0 the
    # same way, through report.word_map: 11 more calls.
    assert metrics["affweyl.apply_word_calls"] == 7 * (1 + 6 + 4) + 11
    assert metrics["affweyl.trial_yield"] == 4 / 77
    # alcove positivity is an integer certificate: no alcove is enumerated,
    # and no qdim or qdim_line runs outside a traced layer.  A qdim span
    # under the root would land in affweyl.alcove_s; the qdim_line spans
    # under the root are the log-concavity group's alcove lines k w_i, k <=
    # 2 // a_i, 13 weights, whose time stays in qnum.qdim_line_s
    under_root = Counter(tracer.names[name_id] for name_id, _, _, parent, _ in tracer.spans
                         if parent >= 0 and tracer.spans[parent][0] == 0)
    assert under_root["qnum.qdim"] == 0
    assert under_root["qnum.qdim_line"] == sum(2 // a + 1 for a in (1, 2, 2, 3, 2, 1)) == 13
    assert metrics["qnum.qdim_line_s"] > 0 and metrics["qnum.qdim_line_calls"] > 13
    assert metrics["affweyl.alcove_weights"] == 0 and metrics["affweyl.alcove_s"] == 0
    # the grid's direct rows call qdim_line through a module attribute, which
    # the tracer patches, so the sine products of E6's rows (which have no
    # paired shell) stay in qnum.qdim_line_s; those of the interior weights
    # of a paired E7 or E8 shell run outside it and land in the caller's layer
    grid_id = tracer.names.index("qsolver.build_qgrid")
    line_id = tracer.names.index("qnum.qdim_line")
    assert any(name_id == line_id and parent >= 0 and tracer.spans[parent][0] == grid_id
               for name_id, _, _, parent, _ in tracer.spans)


def test_tracer_sees_the_kleber_cross_check(tmp_path):
    # E7 has Kleber tables at two nodes, of 9 and 4 terms, which the grid
    # group's cross-check evaluates through krchar.qdim_kr; qsolver calls it
    # through a module global, which the tracer patches, and the grid build
    # itself calls no qdim_kr.  E6, traced above, has no Kleber tables.
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = tracer.run_op(0, main, ["verify", "--type", "E7", "--level", "2",
                                       "--checks", "grid",
                                       "--out", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracer.layer_metrics()
    assert metrics["krchar.kr_terms"] == 9 + 4
    assert metrics["krchar.qdim_kr_s"] > 0
    assert metrics["qsolver.grid_s"] > 0


def test_package_names_follow_the_tracer():
    # qslab reads each public name from its module on every access and keeps
    # no copy, so a name read while the tracer is installed is the wrapper,
    # and after uninstall it is the original again
    import qslab
    from qslab import qnum

    tracing = _load_tracing()
    original = qnum.qdim
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qslab.qdim is qnum.qdim is not original
    finally:
        tracer.uninstall()
    assert qslab.qdim is qnum.qdim is original
    assert "qdim" not in vars(qslab)


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
