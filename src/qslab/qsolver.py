"""Q-grids from KR quantum dimensions, restricted-system solving, and checks.

The recurrence tying the grid together is, at every node i and level k >= 1,

    Q_k(i)^2 = Q_{k-1}(i) Q_{k+1}(i) + prod_{j ~ i} Q_k(j),

with Q_0(i) = 1; the level-restricted variant additionally fixes
Q_level(i) = 1 and looks for the unique positive solution on [0, level].
``_neighbor_product`` is the one place that forms prod_{j ~ i} Q_k(j), and
``_defect`` the one place that forms the recurrence defect: the solver,
the grid ``residual`` and ``dilog_args`` all call them.  They and the other
grid consumers here compute on the p-bit triples of :mod:`qslab.qnum`, in
which the grid is built, at the context's precision p: each step rounds to
nearest with ties to even, as the mpmath.libmp call of the mpf operator it
stands for, in the same order, so the bits are those of mpf arithmetic
without libmp's normalization.  A ``QGrid`` holds triples, and so do the
residual, the dilogarithm arguments, margin and sum and every check's
violation.  Nothing here imports mpmath: ``QGrid.cell`` hands out a cell as
an exact ``fractions.Fraction``, the solver's divergence message writes its
numbers by ``qnum.render_decimal``, as the report writes its cells, the notes
by ``qnum.render_note``, and the logarithms, pi and Bernoulli numbers of the
dilogarithm sum are computed on integers.
``dilog_sum`` alone leaves the mpf operators' order: it sums Rogers'
dilogarithms (``_rogers``) in one fixed-point integer and rounds once.  Every
tolerance or margin verdict is decided here (``grid_checks``, ``solve_checks``,
``theorem_report``, ``dilog_checks``) through one kernel on triples:
``_at_most`` (the worst deviation, against a bound) and ``_above`` (a least
value, against a margin), with ``_rel_gap`` for |a - b| / max(|a|, |b|, 1).
``solve_restricted`` finds the restricted solution on its own: float Newton on
y = log Q (``_warm_start``), then corrections against the defect at working
precision; every step re-forms the float log-variable Jacobian of
``_log_newton_step`` from its current cells and solves it with
``_block_thomas``.  The restricted system is unchanged by k <-> level - k,
so its solution is symmetric and so is every step from the symmetric start:
both stages solve for k = 1 .. level // 2 only and mirror each cell by
assignment, Q_{level-k}(i) = Q_k(i).

``build_qgrid`` fills the table from the closed-form rows outward along the
routes of the per-type proofs: extremal rows are evaluated directly, their
neighbours by subtraction and the remaining rows by division, with recurring
zero-window cells hypothesized as zero and validated afterwards through the
global residual.  ``_route_walk`` alone decides which route fills which cell,
in the arithmetic it is given: ``QReal`` at the level here, exact integers
at q = 1 in the tests, where every division must leave no remainder.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from operator import mul
from typing import NamedTuple, Sequence

from .krchar import chari_qdim, kleber_q1, qdim_kr
from .qnum import (FINF, TRIPLE_ORDER, ZERO, LevelContext, QReal, abs_triple, add_triples,
                   cmp_triples, div_triples, float_triple, log_fixed, mul_triples, one_triple,
                   pi_fixed, render_decimal, render_note, round_triple, triple_float,
                   triple_fraction)
from .rootsys import RootSystem, TypeData, delta, is_proven, type_data

# The certification checks' bounds (at the default precision or above), one
# per kind of deviation: a zero-window cell against its scale; the grid's
# recurrence residual; the relative gap of two values that must agree
# (symmetry, boundaries, periodicity, the Kleber cross-check, the two paths);
# a least value or rise above zero (positivity, unimodality); and the
# distance of a dilogarithm argument to 0 and 1.
ZERO_WINDOW_TOL = 1e-20
FULL_GRID_RESIDUAL_TOL = 1e-20
REL_GAP_TOL = 1e-22
POSITIVITY_MARGIN = 1e-12
DILOG_MARGIN = 1e-10

# Restricted-system solver: the float Newton start and the corrections at
# working precision each get at most MAX_NEWTON_STEPS steps; the corrections
# must bring the normalized residual within the tolerance, SOLVER_TOLERANCE
# unless the caller gives one.  The float start hands over once its largest
# |log defect| is at most HANDOVER_LOG_DEFECT: one more float step from there
# reaches only the float floor, about 2^-52, while each correction squares
# the defect, 2^-40 -> about 2^-80 -> about 2^-160, past SOLVER_TOLERANCE
# after two.
SOLVER_TOLERANCE = 1e-30
MAX_NEWTON_STEPS = 20
HANDOVER_LOG_DEFECT = 2.0 ** -40


def proven_positivity_window(rs: RootSystem, node: int, level: int, k: int) -> bool:
    """Whether Q_k at a positivity-window node of TYPE_DATA (the E7 branch
    nodes) lies in its proven window a_i k <= level or a_i k >= (a_i - 1)
    level, established through the log-concavity route."""
    a = rs.marks[node - 1]
    return a * k <= level or a * k >= (a - 1) * level


class SolverDivergence(RuntimeError):
    """Raised when the restricted-system solver does not reach its tolerance
    within MAX_NEWTON_STEPS Newton steps, meets a singular Jacobian block,
    overflows the float range in the float start or in a step, or takes a
    step that leaves a cell non-positive."""


class QGrid:
    """The table Q_k(i) as rows of p-bit triples (``qslab.qnum``) at the
    precision p, the int ``precision_bits``, None when unresolved, with
    per-cell provenance and the residual ``residual_max``, a triple too;
    ``scales`` holds a KR-built grid's magnitude scales as triples, indexed
    like ``rows``, and is None on a solved grid.  ``cell`` reads a cell as
    an exact ``Fraction``."""

    __slots__ = ("root_system", "level", "k_max", "rows", "precision_bits", "provenance",
                 "residual_max", "unresolved", "scales")

    def __init__(self, root_system: RootSystem, level: int, k_max: int,
                 rows: list[list[tuple | None]], precision_bits: int,
                 provenance: list[list[str | None]], residual_max: tuple | None = None,
                 unresolved: list[tuple[int, int]] | None = None,
                 scales: list[list[tuple]] | None = None):
        self.root_system, self.level, self.k_max, self.rows = root_system, level, k_max, rows
        self.precision_bits, self.provenance = precision_bits, provenance
        self.residual_max = residual_max
        self.unresolved, self.scales = [] if unresolved is None else unresolved, scales

    def __eq__(self, other):
        return type(other) is QGrid and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def cell(self, node: int, k: int):
        """Q_k(node) as an exact ``Fraction``, None when unresolved;
        IndexError when the node is outside 1..rank or k outside 0..k_max."""
        if not (1 <= node <= len(self.rows) and 0 <= k <= self.k_max):
            raise IndexError(f"no cell (node {node}, k={k}) in a grid of nodes "
                             f"1..{len(self.rows)} and k = 0..{self.k_max}")
        c = self.rows[node - 1][k]
        return None if c is None else triple_fraction(c)


def _neighbor_rows(rs: RootSystem) -> list[list[int]]:
    """The Dynkin neighbours of each node as 0-based row indices."""
    return [[j - 1 for j in rs.neighbors[i]] for i in range(1, rs.rank + 1)]


def _neighbor_product(rows, neighbors: Sequence[int], k: int, p: int):
    """prod_{j ~ i} Q_k(j): the product of the p-bit triples rows[j][k] over
    the neighbour rows j of node i; 1 when there are none, None when a
    factor is None.  The first factor stands for 1 * Q_k(j), which a cell
    already rounded to p bits equals."""
    prod = None
    for j in neighbors:
        v = rows[j][k]
        if v is None:
            return None
        prod = v if prod is None else mul_triples(prod, v, p)
    return one_triple(p) if prod is None else prod


def _defect(cells, neighbors: list[list[int]], i: int, k: int):
    """The recurrence defect F = Q_k^2 - (Q_{k-1} Q_{k+1} + prod_{j~i} Q_k(j))
    at row i, and |F| / max(Q_k^2, 1), both p-bit triples; None when a
    stencil cell is None.  ``cells`` pairs the rows of triples with the
    precision p every step takes."""
    rows, p = cells
    row = rows[i]
    lo, mid, hi = row[k - 1], row[k], row[k + 1]
    prod = _neighbor_product(rows, neighbors[i], k, p)
    if lo is None or mid is None or hi is None or prod is None:
        return None
    lhs = mul_triples(mid, mid, p)
    f = add_triples(lhs, add_triples(mul_triples(lo, hi, p), prod, p), p, 1)
    size = abs_triple(f)
    # |F| / 1 is |F|, exactly
    return f, div_triples(size, lhs, p) if cmp_triples(lhs, one_triple(p)) > 0 else size


def _route_walk(td: TypeData, k_max: int, one, direct, divide, zero_at):
    """Fill the rows k = 0..k_max of every node along the routes of ``td``.

    The arithmetic is given: ``one`` (row k = 0), ``direct(i, k)`` (a direct
    row), ``divide(num, div)`` (None when the divisor fails its guard) and
    ``zero_at(k)`` (a cell no route fills: the zero hypothesis, None outside
    its window); values need only ``*``, ``-`` and truth besides, and a
    route whose divisor is exactly 0 is skipped before its numerator.  A
    route at k reads its source at k-1..k+1 and its divisors at k, so each
    row first gets its reach, k_max plus what the routes that read it need,
    worked out from the last route back; then the direct rows are filled,
    then each target in route order.  Returns the rows and their tags
    (boundary, direct, subtraction, division, zero_hypothesis, unresolved)
    out to k_max, node by node; an unresolved cell is None.
    """
    reach = dict.fromkeys(td.direct_nodes, k_max)
    reach.update((target, k_max) for target, _ in td.derived_routes)
    for target, routes in reversed(td.derived_routes):
        for source, divisors in routes:
            reach[source] = max(reach[source], reach[target] + 1)
            for d in divisors:
                reach[d] = max(reach[d], reach[target])
    rows = {i: [one] + [direct(i, k) for k in range(1, reach[i] + 1)] for i in td.direct_nodes}
    tags = {i: ["boundary"] + ["direct"] * reach[i] for i in td.direct_nodes}
    for target, routes in td.derived_routes:
        row, tag = [one], ["boundary"]
        rows[target], tags[target] = row, tag
        for k in range(1, reach[target] + 1):
            out, how = None, "unresolved"
            for source, divisors in routes:
                cells = rows[source][k - 1:k + 2] + [rows[d][k] for d in divisors]
                if any(c is None for c in cells):
                    continue
                lo, mid, hi, *factors = cells
                if not factors:
                    out, how = mid * mid - lo * hi, "subtraction"
                    break
                div = functools.reduce(mul, factors)
                if not div:
                    continue
                out = divide(mid * mid - lo * hi, div)
                if out is not None:
                    how = "division"
                    break
            if out is None:
                out = zero_at(k)
                if out is not None:
                    how = "zero_hypothesis"
            row.append(out)
            tag.append(how)
    nodes = range(1, len(rows) + 1)
    return [rows[i][:k_max + 1] for i in nodes], [tags[i][:k_max + 1] for i in nodes]


def build_qgrid(ctx: LevelContext, k_max: int | None = None) -> QGrid:
    """Fill the Q-grid for the context's type from the closed-form rows.

    ``_route_walk`` fills and tags the cells in ``QReal`` arithmetic.  A
    division whose divisor is numerically zero (not clear of zero by
    2^-(p//2) times its scale, at the context's precision p) is hypothesized
    as zero when k falls (mod l) in the recurring zero window [level+1, l-1];
    anything else lands in ``unresolved`` and is never silently filled.  The
    returned residual_max measures how well every fully-stencilled cell
    satisfies the defining recurrence.
    """
    rs = ctx.root_system
    level, l = ctx.level, ctx.shifted_level
    if k_max is None:
        k_max = l
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    if k_max > 4 * l:
        raise ValueError("k_max is capped at 4l")

    half = ctx.precision_bits // 2

    def divide(num: QReal, div: QReal) -> QReal | None:
        return num.div(div) if div.is_clear_of_zero(half) else None

    table, provenance = _route_walk(
        type_data(rs.type_label), k_max, ctx.one, lambda i, k: chari_qdim(i, k, ctx), divide,
        lambda k: ctx.zero if level < k % l < l else None)
    rows = [[None if c is None else c._v for c in row] for row in table]
    scales = [[None if c is None else c._s for c in row] for row in table]
    unresolved = [(i, k) for i, row in enumerate(rows, 1) for k, c in enumerate(row) if c is None]
    grid = QGrid(rs, level, k_max, rows, ctx.precision_bits, provenance, unresolved=unresolved,
                 scales=scales)
    grid.residual_max = residual(grid)
    return grid


def residual(grid: QGrid) -> tuple:
    """Normalized max violation of the recurrence over fully-present stencils,
    a p-bit triple; 0 when there is none."""
    cells = (grid.rows, grid.precision_bits)
    neighbors = _neighbor_rows(grid.root_system)
    worst = ZERO
    for i in range(len(neighbors)):
        for k in range(1, grid.k_max):
            d = _defect(cells, neighbors, i, k)
            if d is not None and cmp_triples(d[1], worst) > 0:
                worst = d[1]
    return worst


def _block_solve(mat, diag, rhs):
    """Solve mat [G | g] = [diag(diag) | rhs] by Gauss-Jordan elimination
    with partial pivoting (the first largest |entry| on ties), all
    right-hand sides carried through one elimination.  Returns G as a list
    of rows and g as a list.  With ``diag`` None only mat g = rhs is solved
    and G is None; pivots and multipliers come from ``mat`` alone, so g has
    the same bits either way.  Nothing reads a pivot column after its step,
    so the step writes only the columns right of it.
    """
    n = len(mat)
    aug = [list(mat[r]) + ([] if diag is None else [diag[r] if c == r else 0 for c in range(n)])
           + [rhs[r]] for r in range(n)]
    for c in range(n):
        p, top = c, abs(aug[c][c])
        for r in range(c + 1, n):
            if abs(aug[r][c]) > top:
                p, top = r, abs(aug[r][c])
        if not aug[p][c]:
            raise SolverDivergence("singular Jacobian block")
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c]
        inv = 1 / piv[c]
        piv[c + 1:] = tail = [x * inv for x in piv[c + 1:]]
        for r, row in enumerate(aug):
            f = row[c]
            if r != c and f:
                row[c + 1:] = [x - f * y for x, y in zip(row[c + 1:], tail)]
    return (None if diag is None else [row[n:2 * n] for row in aug]), [row[-1] for row in aug]


def _block_thomas(blocks, off, rhs):
    """Solve the block-tridiagonal system whose block row k reads

        diag(off[k]) x_{k-1} + blocks[k] x_k + diag(off[k]) x_{k+1} = rhs[k]

    by block Thomas elimination: the forward pass eliminates each pivot
    block once with ``_block_solve``, giving x_k = g_k - G_k x_{k+1}, and
    the backward pass substitutes from x_m = g_m, so the last block solves
    for g_m alone.  Returns the list of x_k.
    """
    gs, gvecs = [], []
    last = len(blocks) - 1
    for k, (block, o, r) in enumerate(zip(blocks, off, rhs)):
        if gs:
            g_prev, gvec_prev = gs[-1], gvecs[-1]
            block = [[b - c * x for b, x in zip(brow, grow)]
                     for brow, c, grow in zip(block, o, g_prev)]
            r = [ri - c * x for ri, c, x in zip(r, o, gvec_prev)]
        g, gvec = _block_solve(block, None if k == last else o, r)
        gs.append(g)
        gvecs.append(gvec)
    xs = []
    for g, gvec in zip(reversed(gs), reversed(gvecs)):
        if xs:
            x = xs[-1]
            gvec = [gi - sum(a * b for a, b in zip(row, x)) for gi, row in zip(gvec, g)]
        xs.append(gvec)
    return xs[::-1]


def _log_newton_step(neighbors: list[list[int]], weights, rhs, level: int):
    """Solve the log-variable Jacobian for dy = dQ / Q against ``rhs``.

    ``weights[k - 1][i]`` is the share w of Q_{k-1} Q_{k+1} in the recurrence
    at node i and level k.  Block row k has the diagonal block 2I - (1 - w) A
    (A the Dynkin adjacency, row i scaled by its w) and off-diagonal -diag(w).
    The system is the symmetric half k = 1 .. level // 2 of a right-hand
    side with rhs_{level-k} = rhs_k, whose solution is mirrored too, so the
    last row m folds in its mirrored neighbour dy_{m+1}: dy_{m-1} when the
    level is even (off-diagonal -2 diag(w)), dy_m when it is odd (-diag(w)
    added to the diagonal block).  ``_block_thomas`` reads the last row's
    off-diagonal only as its lower coupling.
    """
    blocks = []
    for col in weights:
        block = [[0.0] * len(col) for _ in col]
        for i, w in enumerate(col):
            block[i][i] = 2.0
            for j in neighbors[i]:
                block[i][j] = w - 1
        blocks.append(block)
    off = [[-w for w in col] for col in weights]
    if weights:
        if level % 2:
            for i, w in enumerate(weights[-1]):
                blocks[-1][i][i] -= w
        else:
            off[-1] = [2 * o for o in off[-1]]
    return _block_thomas(blocks, off, rhs)


def _warm_start(rs: RootSystem, level: int) -> list[list[float]]:
    """Float Newton on y = log Q from y = 0, returned as rows of Q = e^y.

    The defect at row i and level k is
    2 y_k(i) - log(e^a + e^b), a = y_{k-1}(i) + y_{k+1}(i), b = sum_{j~i} y_k(j),
    convex log-sum-exp in y.  Its Jacobian is the one of
    ``_log_newton_step`` with the log-sum-exp weight w = e^a / (e^a + e^b).
    Only k <= level // 2 is solved; after each step y_{level-k} = y_k.
    Steps stop at the first iterate whose largest |defect| is at most
    HANDOVER_LOG_DEFECT, from where the corrections of ``solve_restricted``
    square the error away, or else once the largest |defect| stops falling;
    if it still falls after MAX_NEWTON_STEPS steps, or a defect or a
    returned cell is not a finite float, SolverDivergence is raised.
    """
    neighbors = _neighbor_rows(rs)
    half = range(1, level // 2 + 1)
    y = [[0.0] * (level + 1) for _ in range(rs.rank)]
    best = math.inf
    for step in range(MAX_NEWTON_STEPS + 1):
        weights, minus_g = [], []
        worst = 0.0
        for k in half:
            w_col, g_col = [], []
            for i, row in enumerate(y):
                a = row[k - 1] + row[k + 1]
                b = sum(y[j][k] for j in neighbors[i])
                e = math.exp(-abs(a - b))
                w_col.append(1 / (1 + e) if a >= b else e / (1 + e))
                g = 2 * row[k] - max(a, b) - math.log1p(e)
                if not math.isfinite(g):
                    raise SolverDivergence(f"float overflow: log defect {g} at cell "
                                           f"(node {i + 1}, k={k})")
                worst = max(worst, abs(g))
                g_col.append(-g)
            weights.append(w_col)
            minus_g.append(g_col)
        if worst <= HANDOVER_LOG_DEFECT or not worst < best:
            break
        if step == MAX_NEWTON_STEPS:
            raise SolverDivergence(f"no convergence within {MAX_NEWTON_STEPS} Newton steps; "
                                   f"last float log defect {worst:.3g}")
        best = worst
        for k, dy in enumerate(_log_newton_step(neighbors, weights, minus_g, level), 1):
            for row, d in zip(y, dy):
                row[k] += d
                row[level - k] = row[k]
    try:
        return [[math.exp(c) for c in row] for row in y]
    except OverflowError:
        c, i, k = max((c, i, k) for i, row in enumerate(y) for k, c in enumerate(row))
        raise SolverDivergence(f"float overflow: cell (node {i + 1}, k={k}) "
                               f"is e^{c:.6g}") from None


def solve_restricted(ctx: LevelContext, tolerance: float = SOLVER_TOLERANCE) -> QGrid:
    """Newton's method from a float start to the unique positive solution.

    The unknowns are Q_k(i), k in [1, level // 2]: the solution is symmetric
    under k <-> level - k, so each step sets Q_{level-k}(i) to the same
    triple as Q_k(i), and the stopping test's max over the half equals
    ``residual`` over the whole grid bit for bit.  The start is float Newton
    on y = log Q from Q = 1 (see ``_warm_start``), so the solver never reads
    the KR grid; it hands over at a log defect of HANDOVER_LOG_DEFECT, from
    where two corrections reach SOLVER_TOLERANCE at the default precision.
    The cells are p-bit triples (``qslab.qnum``); only those at k <= level
    // 2 + 1, the half with the rows either side of it that the weights
    read, pass between float and triple, and the other cells are mirrored.
    Corrections then follow at the context's precision
    (iterative refinement): each solves the float Jacobian of
    ``_log_newton_step`` for dy = dQ / Q against the relative defect
    -F / Q_k(i)^2, F formed at the context's precision by ``_defect``.  Each
    re-forms that Jacobian from the current cells through the weights
    w = (Q_{k-1} / Q_k)(Q_{k+1} / Q_k), which stay in the float range where
    Q^2 does not.  Iteration stops once the normalized residual is within
    ``tolerance``, which must be finite and lie above 2^(8 - precision_bits)
    (else ValueError, as for a tolerance <= 0); the start or the corrections
    exceeding MAX_NEWTON_STEPS steps, a singular Jacobian block, a float
    overflow or a non-positive cell raises SolverDivergence.  The grid's
    residual_max is that of the last stopping test.
    """
    p = ctx.precision_bits
    if not math.isfinite(tolerance):
        raise ValueError(f"solver tolerance must be finite, got {tolerance}")
    tol = float_triple(tolerance, p)
    if cmp_triples(tol, (0, 1 << p - 1, 9 - 2 * p)) <= 0:  # 2^(8 - p)
        raise ValueError("solver tolerance is below the working precision")
    rs = ctx.root_system
    level, rank = ctx.level, rs.rank
    half = range(1, level // 2 + 1)
    reach = level // 2 + 2  # k = 0 .. level // 2 + 1: the half and the rows either side
    v = []
    for row in _warm_start(rs, level):
        row = [float_triple(x, p) for x in row[:reach]]
        v.append(row + [row[level - k] for k in range(reach, level + 1)])
    neighbors = _neighbor_rows(rs)

    for step in range(MAX_NEWTON_STEPS + 1):
        # -F / Q^2 column by column: ``_defect``'s size signed as -F, as every
        # interior cell exceeds 1; ``residual`` calls ``_defect`` too, and a
        # mirrored cell is the same value as its image, so the last stopping
        # test over the half computes the grid's residual_max
        res = ZERO
        rhs = []
        for k in half:
            col = []
            for i in range(rank):
                fi, size = _defect((v, p), neighbors, i, k)
                if cmp_triples(size, res) > 0:
                    res = size
                size = triple_float(size)
                col.append(size if fi[0] or not fi[1] else -size)
            rhs.append(col)
        if cmp_triples(res, tol) <= 0:
            break
        if step == MAX_NEWTON_STEPS:
            raise SolverDivergence(f"no convergence within {MAX_NEWTON_STEPS} Newton steps; "
                                   f"last residual {render_decimal(res)}")
        q = [[triple_float(c) for c in row[:reach]] for row in v]
        weights = [[row[k - 1] / row[k] * (row[k + 1] / row[k]) for row in q] for k in half]
        for k, dy in enumerate(_log_newton_step(neighbors, weights, rhs, level), 1):
            for i, d in enumerate(dy):
                dq = q[i][k] * d
                if not math.isfinite(dq):
                    raise SolverDivergence(f"float overflow: Newton step {step + 1} is {dq} "
                                           f"at cell (node {i + 1}, k={k})")
                c = add_triples(v[i][k], float_triple(dq, p), p)
                if c[0] or not c[1]:
                    raise SolverDivergence(
                        f"Newton step {step + 1} left cell (node {i + 1}, k={k}) non-positive")
                v[i][k] = v[i][level - k] = c
    provenance = [["solver"] * (level + 1) for _ in v]
    return QGrid(rs, level, level, v, p, provenance, res)


class CheckResult(NamedTuple):
    """Outcome of one certified property at one node (or globally);
    ``max_violation`` is a p-bit triple, libmp's raw +inf (``qnum.FINF``), an
    int count or None."""

    name: str
    node: int | None
    status: str  # "pass" | "fail" | "conjecture-violated"
    proven: bool
    max_violation: tuple | int | None = None
    note: str = ""


def _mk_check(name, node, ok, proven, violation, note="") -> CheckResult:
    status = "pass" if ok else ("fail" if proven else "conjecture-violated")
    return CheckResult(name, node, status, proven, violation, note)


def _least(cells):
    """The least of the p-bit triples ``cells``; None, read as -inf, when
    one of them is None."""
    return None if None in cells else min(cells, key=TRIPLE_ORDER)


def _at_most(devs, bound: float, p: int):
    """Whether the worst of the p-bit deviations ``devs`` is at most the
    float ``bound``, read exactly, and that worst: ZERO when there is none,
    FINF at the first None."""
    worst = ZERO
    for d in devs:
        if d is None:
            return False, FINF
        if cmp_triples(d, worst) > 0:
            worst = d
    return cmp_triples(worst, float_triple(bound, p)) <= 0, worst


def _above(least, margin: float, p: int):
    """Whether the p-bit ``least`` (None reads -inf) lies above the finite
    float ``margin``, read exactly, and the violation max(0, margin - least):
    FINF when least is -inf."""
    if least is None:
        return False, FINF
    m = float_triple(margin, p)
    gap = add_triples(m, least, p, 1)
    return cmp_triples(least, m) > 0, gap if gap[1] and not gap[0] else ZERO


def _rel_gap(a, b, p: int):
    """|a - b| / max(|a|, |b|, 1) of p-bit triples; None when either is None."""
    if a is None or b is None:
        return None
    den = max(abs_triple(a), abs_triple(b), one_triple(p), key=TRIPLE_ORDER)
    return div_triples(abs_triple(add_triples(a, b, p, 1)), den, p)


def grid_checks(ctx: LevelContext, grid: QGrid) -> list[CheckResult]:
    """The grid's recurrence residual and unresolved cells, and at the
    Kleber nodes of TYPE_DATA its row k = 1 against ``qdim_kr``."""
    rs, res, p = ctx.root_system, grid.residual_max, ctx.precision_bits
    ok, _ = _at_most([res], FULL_GRID_RESIDUAL_TOL, p)
    out = [_mk_check("grid_residual", None, ok, True, res, note=f"k_max={grid.k_max}"),
           _mk_check("grid_unresolved", None, not grid.unresolved, True, None,
                     note=f"unresolved cells {grid.unresolved}" if grid.unresolved else "")]
    nodes = type_data(rs.type_label).kleber_q1
    if nodes:
        ok, worst = _at_most([_rel_gap(qdim_kr(kleber_q1(rs, i), ctx)._v, grid.rows[i - 1][1], p)
                              for i in nodes], REL_GAP_TOL, p)
        out.append(_mk_check("kleber_cross_check", None, ok, True, worst))
    return out


def solve_checks(ctx: LevelContext, grid: QGrid) -> list[CheckResult]:
    """The restricted solution's residual and agreement with ``grid``; a
    divergence, or a precision too low for SOLVER_TOLERANCE, fails the first."""
    try:
        solved = solve_restricted(ctx, SOLVER_TOLERANCE)
    except (SolverDivergence, ValueError) as exc:
        return [_mk_check("solver_residual", None, False, True, None, note=str(exc))]
    p, res = ctx.precision_bits, solved.residual_max
    out = [_mk_check("solver_residual", None, _at_most([res], SOLVER_TOLERANCE, p)[0], True, res)]
    ok, worst = _at_most((_rel_gap(a, b, p)
                          for row, solved_row in zip(grid.rows, solved.rows)
                          for a, b in zip(row[:ctx.level + 1], solved_row)), REL_GAP_TOL, p)
    out.append(_mk_check("two_path_agreement", None, ok, True, worst))
    return out


def theorem_report(ctx: LevelContext, grid: QGrid) -> list[CheckResult]:
    """Certify the claimed grid properties node by node.

    Checks per node: the recurring zero window, the reflection symmetry
    Q_{level-k} = Q_k, positivity and strict unimodality on [0, level], the
    boundary value Q_level = 1, and at the closed-form rows
    Q_{k+l} = (-1)^delta Q_k plus Q_l = (-1)^delta; positivity on its
    proven window at the positivity-window nodes of TYPE_DATA whose
    positivity is unproven.  Failures are report entries, never
    exceptions.  Each entry's proven label is the ``proven_nodes`` entry of
    TYPE_DATA under its own name.  ``grid`` comes from ``build_qgrid``: its
    cells' scales set the tolerances.
    """
    rs = ctx.root_system
    label = rs.type_label
    level, l = ctx.level, ctx.shifted_level
    if grid.k_max < l:
        raise ValueError("theorem report needs the grid out to k = l")
    checks: list[CheckResult] = []
    p = ctx.precision_bits
    one = one_triple(p)
    uni_margin = float_triple(POSITIVITY_MARGIN, p)
    rows, scales = grid.rows, grid.scales

    def add(name, node, ok, violation, note=""):
        checks.append(_mk_check(name, node, ok, is_proven(label, name, node), violation, note))

    def rel(f, scale):
        return div_triples(abs_triple(f), scale, p)

    def gap(a, b, sa, sb, flip=1):
        """|a - b| (|a + b| with ``flip`` 0) / max(sa, sb); None when a or b
        is None."""
        if a is None or b is None:
            return None
        return rel(add_triples(a, b, p, flip), sb if cmp_triples(sb, sa) > 0 else sa)

    for i in range(1, rs.rank + 1):
        row, srow = rows[i - 1], scales[i - 1]
        # (i) recurring zeros on [level+1, l-1]
        window = row[level + 1:l]
        missing = None in window
        ok, worst = _at_most((rel(c, s) for c, s in zip(window, srow[level + 1:l])
                              if c is not None), ZERO_WINDOW_TOL, p)
        add("zero_window", i, ok and not missing, worst,
            "unresolved cells in window" if missing else "")

        # (ii) symmetry on [0, level]; the gap at level - k is the one at k,
        # as a - b and b - a round to one magnitude
        ok, worst = _at_most((gap(row[k], row[level - k], srow[k], srow[level - k])
                              for k in range(level // 2 + 1)), REL_GAP_TOL, p)
        add("symmetry", i, ok, worst)

        # (iii) positivity on [0, level]; a None cell reads -inf
        line = row[:level + 1]
        least = _least(line)
        ok, violation = _above(least, POSITIVITY_MARGIN, p)
        add("positivity", i, ok, violation,
            f"min value {'-inf' if least is None else render_note(least, 8)}")
        if i in type_data(label).positivity_window_nodes and not checks[-1].proven:
            # The sub-range covered by theorems gets its own proven entry;
            # rounding is monotone, so max(0, margin - least) is the largest
            # gap over its failing cells.
            cells = [c for k, c in enumerate(line) if proven_positivity_window(rs, i, level, k)]
            ok, violation = _above(_least(cells), POSITIVITY_MARGIN, p) if cells else (True, ZERO)
            add("positivity_window", i, ok, violation)

        # (iv) strict increase on [0, floor(level/2) - 1]: every
        # margin - (Q_{k+1} - Q_k) at most 0
        ok, worst = _at_most(
            (None if row[k] is None or row[k + 1] is None
             else add_triples(uni_margin, add_triples(row[k + 1], row[k], p, 1), p, 1)
             for k in range(level // 2)), 0.0, p)
        add("unimodality", i, ok, worst)

        # boundary Q_level = 1
        ok, dev = _at_most([gap(row[level], one, srow[level], srow[level])], REL_GAP_TOL, p)
        add("boundary_one", i, ok, dev)

    # (anti)periodicity and the k = l sign, at the closed-form rows only;
    # both signs are (-1)^delta, and x - sign * y is x - y or x + y.
    for i in type_data(label).direct_nodes:
        sign = -1 if delta(rs, i) % 2 else 1
        flip = int(sign > 0)
        pairs = [(chari_qdim(i, k, ctx), chari_qdim(i, k + l, ctx))
                 for k in range(min(level, 3) + 1)]
        ok, worst = _at_most((gap(b._v, a._v, a._s, b._s, flip) for a, b in pairs),
                             REL_GAP_TOL, p)
        add("periodicity", i, ok, worst, f"sign {sign:+d}")

        srow = scales[i - 1]
        ok, dev = _at_most([gap(rows[i - 1][l], one, srow[l], srow[l], flip)], REL_GAP_TOL, p)
        add("shifted_boundary_sign", i, ok, dev, f"expected {sign:+d}")

    return checks


def dilog_args(grid: QGrid) -> dict[tuple[int, int], tuple]:
    """The ratios prod_{j~i} Q_k(j) / Q_k(i)^2 over the restricted range, as
    p-bit triples."""
    if grid.k_max < grid.level:
        raise ValueError("dilog arguments need the grid out to k = level")
    rows = grid.rows
    ks = range(grid.level + 1)
    for i, row in enumerate(rows, 1):
        for k in ks:
            if row[k] is None or row[k][0] or not row[k][1]:
                raise ValueError(f"grid cell (node {i}, k={k}) is not positive")
    p = grid.precision_bits
    neighbors = _neighbor_rows(grid.root_system)
    return {(i + 1, k): div_triples(_neighbor_product(rows, neighbors[i], k, p),
                                    mul_triples(row[k], row[k], p), p)
            for i, row in enumerate(rows) for k in ks}


def dilog_args_margin(grid: QGrid, args: dict[tuple[int, int], tuple]) -> tuple | None:
    """Smallest distance of the interior ratios ``args`` of the grid to the
    ends of (0, 1), a p-bit triple.

    Boundary columns k = 0 and k = level equal 1 and are excluded.  Returns
    None when there is no interior.
    """
    p = grid.precision_bits
    one = one_triple(p)
    worst = None
    for (_, k), x in args.items():
        if k == 0 or k == grid.level:
            continue
        m = add_triples(one, x, p, 1)
        m = m if cmp_triples(m, x) < 0 else x
        if worst is None or cmp_triples(m, worst) < 0:
            worst = m
    return worst


def dilog_checks(ctx: LevelContext, grid: QGrid) -> tuple[list[CheckResult], bool, tuple | None]:
    """The dilog checks, with the report's dilog block: whether the arguments
    clear their margin, and their sum, None unless every one is in (0, 1)."""
    proven = type_data(ctx.root_system.type_label).dilog_proven
    try:
        args = dilog_args(grid)
    except ValueError as exc:
        return [_mk_check("dilog_args", None, False, proven, None, note=str(exc))], False, None
    margin = dilog_args_margin(grid, args)
    p = ctx.precision_bits
    if margin is None:
        ok, violation, note = True, None, "no interior cells"
    else:
        ok, violation = _above(margin, DILOG_MARGIN, p)
        note = f"min distance to {{0,1}}: {render_note(margin, 8)}"
    checks = [_mk_check("dilog_args", None, ok, proven, violation, note=note)]
    if margin is not None and not _above(margin, 0.0, p)[0]:
        return checks, ok, None  # an argument outside (0, 1) has no Rogers dilogarithm
    total = dilog_sum(grid, args)
    checks.append(_mk_check("dilog_sum", None, True, True, None,
                            note=f"normalized sum {render_note(total, 12)}"))
    return checks, ok, total


@functools.cache
def _tangent_numbers(n: int) -> tuple[int, ...]:
    """The tangent numbers T_1 .. T_n (tan x = sum T_m x^(2m-1) / (2m-1)!),
    by the integer recurrence of Brent and Zimmermann, Modern Computer
    Arithmetic, section 4.7.2."""
    t = [1] * (n + 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(t[1:])


@functools.lru_cache(maxsize=64)
def _li2_coefficients(wp: int) -> tuple[int, ...]:
    """B_2m / (2m+1)! for m = 1, 2, ... at ``wp`` bits in fixed point, rounded
    to nearest, up to the first that rounds to 0; every later one does too,
    as they fall like 2 (2 pi)^-2m / (2m+1).  B_2m = (-1)^(m-1) 2m T_m /
    (4^m (4^m - 1)) exactly, from the tangent numbers T_m; |c_m| 2^wp falls
    below 1/2 once (2 pi)^2m > 2^(wp+1), so m <= wp // 5 + 4 terms suffice.
    """
    out = []
    for m, t in enumerate(_tangent_numbers(wp // 5 + 4), 1):
        num = 2 * m * t if m % 2 else -2 * m * t
        den = (1 << 2 * m) * ((1 << 2 * m) - 1) * math.factorial(2 * m + 1)
        c = ((num << (wp + 1)) // den + 1) >> 1
        if not c:
            return tuple(out)
        out.append(c)
    raise AssertionError("the Bernoulli series did not end")


@functools.lru_cache(maxsize=64)
def _pi_constants(wp: int) -> tuple[int, int]:
    """pi^2/6 and 6/pi^2 at ``wp`` bits in fixed point."""
    pi = pi_fixed(wp + 8)
    pi2 = (pi * pi) >> (wp + 16)
    return pi2 // 6, (6 << (2 * wp)) // pi2


def _rogers(x: tuple, wp: int) -> int:
    """Rogers' L(x) = Li2(x) + log x log(1 - x) / 2 for 0 < x < 1, given as
    (sign, mantissa, exponent) with a mantissa of any width or as a raw
    ``_mpf_`` tuple, in fixed point at ``wp`` bits.

    Reflects to y = min(x, 1 - x) <= 1/2, where L(x) = pi^2/6 - L(1 - x)
    holds exactly, and takes u = -log(1 - y) <= log 2 and g = log y once
    each, from ``qnum.log_fixed``, each within one unit at wp bits.  The
    Bernoulli series Li2(y) = u - u^2/4 + sum B_2m u^(2m+1)/(2m+1)!
    (``_li2_coefficients``, 30 terms at 168 bits) gives L(y) = Li2(y) - u g / 2.
    The result is off by fewer than 8 + |log y| units at wp bits: the series
    in u by a few units, u's unit by at most one more, and u g / 2 by
    |g| / 2 + u / 2 + 1 from the two logarithms' units and the shift.  So a
    caller that wants y's relative precision adds -log2 y bits to wp.
    """
    _, m, e = x[:3]
    z = (1 << -e) - m  # 1 - x = z 2**e exactly, as x < 1 makes e < 0
    reflect = z < m
    y, one_minus_y = (z, m) if reflect else (m, z)
    u = -log_fixed(one_minus_y, e, wp)
    u2 = (u * u) >> wp
    tail = 0  # sum B_2m u^(2m-2) / (2m+1)!, by Horner's rule in u^2
    for c in reversed(_li2_coefficients(wp)):
        tail = ((tail * u2) >> wp) + c
    total = u - (u2 >> 2) + ((((tail * u2) >> wp) * u) >> wp)
    total -= (u * log_fixed(y, e, wp)) >> (wp + 1)
    return _pi_constants(wp)[0] - total if reflect else total


def dilog_sum(grid: QGrid, args: dict[tuple[int, int], tuple] | None = None) -> tuple:
    """(6/pi^2) sum of Rogers dilogarithms of the interior ratios, a p-bit
    triple.

    ``args`` are the grid's ``dilog_args``, computed here when omitted.  The
    terms (``_rogers``) are summed in one integer at 40 guard bits above the
    context's precision, more when the sum is below 2^-8, multiplied by
    6/pi^2 at that precision and rounded once to nearest.  The sum is exact,
    so each distinct argument's term is taken once, times its count: about
    half of them repeat, by the grid's k <-> L - k symmetry.
    Diagnostic output only; no closed-form value is asserted for it.
    """
    prec = grid.precision_bits
    if args is None:
        args = dilog_args(grid)
    xs = Counter(args[key] for key in sorted(args) if 0 < key[1] < grid.level)
    for x in xs:
        sign, man, exp = x
        # man 2**exp in (0, 1), whatever the width of man: man < 2**-exp
        if sign or not man or exp >= 0 or man >> -exp:
            raise ValueError(f"dilogarithm argument {render_note(x, 8)} outside (0, 1)")
    wp = prec + 40
    while True:
        # every term is positive, so each term's few units at wp bits are a
        # small share of the sum once it has prec + 32 bits; a smaller sum,
        # of tiny arguments, widens wp by the bits it lacks
        total = sum(_rogers(x, wp) * n for x, n in xs.items())
        short = prec + 32 - total.bit_length()
        if not xs or short <= 0:
            total *= _pi_constants(wp)[1]
            return round_triple(int(total < 0), abs(total), -2 * wp, prec)
        wp += short
