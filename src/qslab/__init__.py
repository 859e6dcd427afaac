"""Quantum dimensions at roots of unity and restricted Q-systems for E6/E7/E8."""

from .affweyl import (
    AffineReduction,
    apply_word,
    enumerate_alcove,
    in_alcove,
    reduce_to_dominant,
    s0_dot,
    si_dot,
)
from .krchar import KRDecomposition, chari_decomposition, kleber_q1, qdim_kr
from .qnum import (
    LevelContext,
    QReal,
    qdim,
    qdim_classical,
    qdim_line,
)
from .qsolver import (
    QGrid,
    SolverDivergence,
    build_qgrid,
    dilog_args,
    dilog_sum,
    residual,
    solve_restricted,
    theorem_report,
)
from .report import RunConfig, VerificationReport, fixture_check, run
from .rootsys import (
    RootSystem,
    Weight,
    a_series_cartan,
    build_root_system,
    cartan_matrix,
    delta,
    height_symmetry_check,
    lee_witness,
)
from .seqanalysis import (
    RealSequence,
    RootednessVerdict,
    branden_criterion,
    is_log_concave,
    l_operator,
    log_concavity_order,
    make_sequence,
    palindromize,
)

__version__ = "1.0.0"
