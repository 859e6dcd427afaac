"""Per-layer tracing of qslab from outside the program.

``Tracer.install`` replaces each traced function with a wrapper in every
``qslab`` module namespace that holds a reference to it, so calls made
inside the package are traced too; ``uninstall`` puts the originals back.
Each call records a span (function, start, end, parent span, operation id)
in memory.  A layer's self time is the summed duration of its spans minus
the time covered by their child spans.  ``affweyl.apply_word``, called about
30 000 times per verify, is only counted, which keeps the tracing overhead
small; its time stays in its caller's span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

# (module, function) -> the layer that gets the span's self time.
LAYERS = {
    ("rootsys", "build_root_system"): "rootsys.build_s",
    ("report", "fixture_check"): "rootsys.checks_s",
    ("rootsys", "lee_witness"): "rootsys.checks_s",
    ("rootsys", "height_symmetry_check"): "rootsys.checks_s",
    ("rootsys", "delta"): "rootsys.checks_s",
    ("qnum", "qdim"): "qnum.qdim_s",
    ("qnum", "qdim_line"): "qnum.qdim_line_s",
    ("krchar", "qdim_kr"): "krchar.qdim_kr_s",
    ("report", "sign_identity_trials"): "affweyl.sign_trials_s",
    ("affweyl", "enumerate_alcove"): "affweyl.alcove_s",
    ("qsolver", "build_qgrid"): "qsolver.grid_s",
    ("qsolver", "residual"): "qsolver.residual_s",
    ("qsolver", "solve_restricted"): "qsolver.solve_s",
    ("qsolver", "theorem_report"): "qsolver.theorem_s",
    ("qsolver", "dilog_args"): "qsolver.dilog_s",
    ("qsolver", "dilog_sum"): "qsolver.dilog_s",
    ("seqanalysis", "make_sequence"): "seqanalysis.logconcave_s",
    ("seqanalysis", "is_log_concave"): "seqanalysis.logconcave_s",
    ("seqanalysis", "log_concavity_order"): "seqanalysis.logconcave_s",
    ("seqanalysis", "branden_criterion"): "seqanalysis.branden_s",
    ("report", "write_report"): "report.serialize_s",
}

# Span counts reported as layer metrics.
CALL_COUNTS = {
    "qnum.qdim": "qnum.qdim_calls",
    "qnum.qdim_line": "qnum.qdim_line_calls",
    "seqanalysis.branden_criterion": "seqanalysis.branden_calls",
}

# Every metric the traced run reports, with its unit.
METRICS = {
    "rootsys.build_s": "s",
    "rootsys.checks_s": "s",
    "qnum.qdim_s": "s",
    "qnum.qdim_calls": "count",
    "qnum.qdim_distinct": "count",
    "qnum.qdim_line_s": "s",
    "qnum.qdim_line_calls": "count",
    "krchar.qdim_kr_s": "s",
    "krchar.kr_terms": "count",
    "affweyl.sign_trials_s": "s",
    "affweyl.apply_word_calls": "count",
    "affweyl.trial_yield": "ratio",
    "affweyl.alcove_s": "s",
    "affweyl.alcove_weights": "count",
    "qsolver.grid_s": "s",
    "qsolver.grid_cells": "count",
    "qsolver.grid_unresolved": "count",
    "qsolver.residual_s": "s",
    "qsolver.solve_s": "s",
    "qsolver.solve_unknowns": "count",
    "qsolver.solve_updates": "count",
    "qsolver.theorem_s": "s",
    "qsolver.dilog_s": "s",
    "qsolver.dilog_terms": "count",
    "seqanalysis.logconcave_s": "s",
    "seqanalysis.branden_s": "s",
    "seqanalysis.branden_calls": "count",
    "report.serialize_s": "s",
    "report.bytes": "bytes",
    "trace.unattributed_s": "s",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Spans and counts of one traced pass over a workload.

    ``install`` and ``uninstall`` may alternate any number of times; spans
    and counts accumulate while installed.
    """

    def __init__(self):
        self.names: list[str] = ["op"]  # name 0: the operation's root span
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self.open: list[tuple[int, int]] = [(-1, -1)]  # (span index, name id)
        self.op = -1
        self.counts: Counter = Counter()
        self.qdim_keys: set = set()
        self.kept_trials = 0
        self.trial_words = 0
        self._replacements: list[tuple[str, object, object]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _span(self, name_id: int, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        self.open.append((idx, name_id))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.open.pop()
            self.spans[idx] = (name_id, start, end, self.open[-1][0], self.op)

    def run_op(self, op_id: int, fn, *args):
        """Run one operation under a root span."""
        self.op = op_id
        return self._span(0, fn, args, {})

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        hook = getattr(self, "_hook_" + fn.__name__, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is None:
                return self._span(name_id, fn, args, kwargs)
            return self._span(name_id, hook, (fn, args, kwargs), {})

        return traced

    # -- counts taken at the layer boundaries ------------------------------

    def _hook_qdim(self, fn, args, kwargs):
        weight, ctx = args
        self.qdim_keys.add((self.op, id(ctx), tuple(weight)))
        return fn(*args, **kwargs)

    def _hook_qdim_kr(self, fn, args, kwargs):
        self.counts["krchar.kr_terms"] += len(args[0].terms)
        return fn(*args, **kwargs)

    def _hook_sign_identity_trials(self, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        self.kept_trials += bound.arguments["trials"]
        return fn(*args, **kwargs)

    def _hook_enumerate_alcove(self, fn, args, kwargs):
        weights = fn(*args, **kwargs)
        self.counts["affweyl.alcove_weights"] += len(weights)
        return weights

    def _hook_build_qgrid(self, fn, args, kwargs):
        grid = fn(*args, **kwargs)
        self.counts["qsolver.grid_cells"] += grid.root_system.rank * (grid.k_max + 1)
        self.counts["qsolver.grid_unresolved"] += len(grid.unresolved)
        return grid

    def _hook_solve_restricted(self, fn, args, kwargs):
        ctx = args[0]
        mp = ctx.mp
        sqrt = mp.sqrt

        def counted_sqrt(x):
            self.counts["qsolver.solve_updates"] += 1
            return sqrt(x)

        self.counts["qsolver.solve_unknowns"] += ctx.root_system.rank * (ctx.level - 1)
        mp.sqrt = counted_sqrt
        try:
            return fn(*args, **kwargs)
        finally:
            mp.sqrt = sqrt

    def _hook_dilog_sum(self, fn, args, kwargs):
        grid = args[0]
        self.counts["qsolver.dilog_terms"] += grid.root_system.rank * (grid.level - 1)
        return fn(*args, **kwargs)

    def _hook_write_report(self, fn, args, kwargs):
        content = fn(*args, **kwargs)
        self.counts["report.bytes"] += len(content.encode())
        return content

    def _count_apply_word(self, fn):
        sign_id = self.names.index("report.sign_identity_trials")

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts["affweyl.apply_word_calls"] += 1
            if self.open[-1][1] == sign_id:
                self.trial_words += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if not self._replacements:
            for mod_name, fn_name in LAYERS:
                original = getattr(sys.modules["qslab." + mod_name], fn_name)
                self._replacements.append((fn_name, original,
                                           self._wrap(f"{mod_name}.{fn_name}", original)))
            original = sys.modules["qslab.affweyl"].apply_word
            self._replacements.append(("apply_word", original,
                                       self._count_apply_word(original)))
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "qslab" or name.startswith("qslab."))]
        for fn_name, original, wrapper in self._replacements:
            for module in modules:
                if vars(module).get(fn_name) is original:
                    self._restore.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            module, fn_name, original = self._restore.pop()
            setattr(module, fn_name, original)

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every metric in METRICS except the overhead, which needs untraced passes."""
        layer_of = {i: LAYERS[tuple(n.split(".", 1))] for i, n in enumerate(self.names) if i}
        qdim_id = self.names.index("qnum.qdim")
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = dict.fromkeys(METRICS, 0)
        del out["trace.overhead_pct"]
        alcove_qdims = 0
        for idx, (name_id, start, end, parent, _) in enumerate(self.spans):
            self_time = end - start - child_time[idx]
            if name_id == 0:
                out["trace.unattributed_s"] += self_time
            elif name_id == qdim_id and parent >= 0 and self.spans[parent][0] == 0:
                # The verify pipeline calls qdim outside every traced
                # function only to test the alcove weights for positivity.
                out["affweyl.alcove_s"] += self_time
                alcove_qdims += 1
            else:
                out[layer_of[name_id]] += self_time
            count = CALL_COUNTS.get(self.names[name_id])
            if count:
                out[count] += 1
        out.update(self.counts)
        out["qnum.qdim_distinct"] = len(self.qdim_keys)
        out["affweyl.trial_yield"] = (self.kept_trials / self.trial_words
                                      if self.trial_words else 0.0)
        if alcove_qdims != out["affweyl.alcove_weights"]:
            sys.stderr.write(f"warning: {alcove_qdims} qdim calls from untraced code for "
                             f"{out['affweyl.alcove_weights']} alcove weights; "
                             "affweyl.alcove_s is misattributed\n")
        return out

    def write_spans(self, f, pass_no: int, origin: float) -> None:
        """CSV rows: pass, op, span, parent span, name, start and end in us from origin."""
        for idx, (name_id, start, end, parent, op) in enumerate(self.spans):
            f.write(f"{pass_no},{op},{idx},{parent},{self.names[name_id]},"
                    f"{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f}\n")
