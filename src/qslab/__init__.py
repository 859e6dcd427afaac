"""Quantum dimensions at roots of unity and restricted Q-systems for E6/E7/E8.

The public names resolve on each read (PEP 562), so ``import qslab`` loads
no layer, and each name loads only the module that defines it.  A name is
read from its module every time, never copied here, so a function patched
in its module (as perfbench's tracer does) is what the package hands out.
"""

import importlib

_LAYER_NAMES = {
    "affweyl": ("AffineReduction", "apply_word", "reduce_to_dominant"),
    "krchar": ("KRDecomposition", "chari_decomposition", "kleber_q1", "qdim_kr"),
    "qnum": ("LevelContext", "QReal", "qdim", "qdim_classical", "qdim_line"),
    "qsolver": ("QGrid", "SolverDivergence", "build_qgrid", "dilog_args", "dilog_sum",
                "residual", "solve_restricted", "theorem_report"),
    "report": ("RunConfig", "VerificationReport", "fixture_check", "run"),
    "rootsys": ("RootSystem", "Weight", "build_root_system", "cartan_matrix", "delta",
                "height_symmetry_check", "lee_witness"),
    "seqanalysis": ("RealSequence", "RootednessVerdict", "branden_criterion", "is_log_concave",
                    "l_operator", "log_concavity_order", "make_sequence"),
}
_LAYER_OF = {name: layer for layer, names in _LAYER_NAMES.items() for name in names}

__all__ = list(_LAYER_OF)
__version__ = "1.0.0"


def __getattr__(name):
    if name in _LAYER_NAMES:  # the layer module itself, which importing binds here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAYER_OF[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(_LAYER_NAMES) | set(__all__))
