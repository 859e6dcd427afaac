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
precision; every step forms the float log-variable Jacobian from its
current cells and solves it in ``_log_newton_step`` by block LU without
pivoting, each block row formed straight into the row it eliminates, which
is stable as, with weights in [0, 1], the Jacobian is a nonsingular
M-matrix (the lemma at ``_log_newton_step``; Berman and Plemmons ch. 6,
Higham ch. 9).  The system is unchanged by k <-> level - k and by every
automorphism of the Dynkin diagram, so both stages solve for k = 1 ..
level // 2 and one row per orbit (``_orbits``, ``_fold``; E6 4 rows) only,
and give each mirrored cell and each node its image's triple.  The grid
path folds by the same ``_fold``: ``build_qgrid`` walks the orbits' first
rows (E6: direct 1 and 2, routes 3 <- 1 and 4 <- 2), which the orbit's
nodes share.  ``residual`` reads a shared row once, and ``_per_row`` is the
one place where a shared row's results reach the orbit's other nodes:
``theorem_report``, ``dilog_args`` and the report's alcove lines measure
each shared row once through it.  No bit moves: E6's nodes 1 and 6 have
mark 1 and the positive roots come in non-decreasing height, so their
one-node plans walk the same steps on the same integers; 5 <- 6 is 3 <-
1's subtraction on equal cells; neighbour products agree
(``solve_restricted``); alcove lines are correctly rounded.  The solve
group's agreement loses no comparison: node 6's cells were node 1's
numbers already.

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
    within MAX_NEWTON_STEPS Newton steps, meets a Newton weight outside
    [0, 1] or a singular Jacobian block, overflows the float range, or takes
    a step that leaves a cell non-positive."""


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


def _orbits(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """The orbits of the Dynkin diagram's automorphism group on its nodes,
    each as its sorted Bourbaki nodes, in order of their smallest node: E6
    (1, 6), (2,), (3, 5), (4,); E7 and E8 singletons."""
    return _tree_orbits(tuple(rs.neighbors.items()))


@functools.cache
def _tree_orbits(adjacency: tuple[tuple[int, tuple[int, ...]], ...]
                 ) -> tuple[tuple[int, ...], ...]:
    """Orbits of a tree's automorphisms, given as (node, neighbours) pairs in
    node order: two nodes share an orbit exactly when the tree rooted at
    one is isomorphic to the tree rooted at the other, which their
    canonical forms (the sorted tuple of the children's forms) decide."""
    neighbors = dict(adjacency)

    def form(node, parent):
        return tuple(sorted(form(j, node) for j in neighbors[node] if j != parent))

    orbits: dict[tuple, list[int]] = {}
    for i in neighbors:
        orbits.setdefault(form(i, None), []).append(i)
    return tuple(map(tuple, orbits.values()))


def _fold(rs: RootSystem) -> tuple[tuple[tuple[int, ...], ...], list[int], list[list[int]]]:
    """The solver's folded system: the ``_orbits``, the orbit index of each
    0-based row, and each orbit's neighbour list, its smallest node's
    neighbours in node order as orbit indices, with repeats (E6 node 4
    reads orbit (3, 5) twice).  With singleton orbits the lists are
    ``_neighbor_rows``."""
    orbits = _orbits(rs)
    index = [0] * rs.rank
    for o, orbit in enumerate(orbits):
        for i in orbit:
            index[i - 1] = o
    return orbits, index, [[index[j - 1] for j in rs.neighbors[orbit[0]]] for orbit in orbits]


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
    out to k_max, for the direct nodes and targets of ``td`` in node order;
    an unresolved cell is None.
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
    nodes = sorted(rows)
    return [rows[i][:k_max + 1] for i in nodes], [tags[i][:k_max + 1] for i in nodes]


def build_qgrid(ctx: LevelContext, k_max: int | None = None) -> QGrid:
    """Fill the Q-grid for the context's type from the closed-form rows.

    ``_route_walk`` fills and tags the cells in ``QReal`` arithmetic.  A
    division whose divisor is numerically zero (not clear of zero by
    2^-(p//2) times its scale, at the context's precision p) is hypothesized
    as zero when k falls (mod l) in the recurring zero window [level+1, l-1];
    anything else lands in ``unresolved`` and is never silently filled.  The
    returned residual_max measures how well every fully-stencilled cell
    satisfies the defining recurrence.  Each orbit's nodes (``_fold``) share
    the lists of cells, scales and tags the walk fills for its first node.
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

    orbits, index, _ = _fold(rs)
    td, firsts = type_data(rs.type_label), {orbit[0] for orbit in orbits}
    td = td._replace(direct_nodes=tuple(i for i in td.direct_nodes if i in firsts),
                     derived_routes=tuple(r for r in td.derived_routes if r[0] in firsts))
    table, tags = _route_walk(td, k_max, ctx.one, lambda i, k: chari_qdim(i, k, ctx), divide,
                              lambda k: ctx.zero if level < k % l < l else None)
    rows = [[None if c is None else c._v for c in row] for row in table]
    scales = [[None if c is None else c._s for c in row] for row in table]
    rows, scales, provenance = ([part[o] for o in index] for part in (rows, scales, tags))
    unresolved = [(i, k) for i, row in enumerate(rows, 1) for k, c in enumerate(row) if c is None]
    grid = QGrid(rs, level, k_max, rows, ctx.precision_bits, provenance, unresolved=unresolved,
                 scales=scales)
    grid.residual_max = residual(grid)
    return grid


def _representatives(grid: QGrid) -> list[int]:
    """The 0-based row each row of ``grid`` takes its results from: its
    orbit's first (``_orbits``) when each orbit's nodes hold that row's very
    lists of cells and scales, as ``build_qgrid``'s do, else itself."""
    reps = [0] * len(grid.rows)
    for orbit in _orbits(grid.root_system):
        for i in orbit:
            reps[i - 1] = orbit[0] - 1
    parts = grid.rows, grid.scales or grid.rows
    shared = all(part[i] is part[r] for part in parts for i, r in enumerate(reps))
    return reps if shared else list(range(len(reps)))


def _per_row(grid: QGrid, nodes, measure) -> dict:
    """{i: measure(i) for i in nodes}, with ``measure`` called once per row
    the grid shares (``_representatives``), at the first of ``nodes`` that
    reads it: the orbit's other nodes get that very result.  This is the one
    place where a shared row's results reach other nodes."""
    reps, measured = _representatives(grid), {}
    for i in nodes:
        if reps[i - 1] not in measured:
            measured[reps[i - 1]] = measure(i)
    return {i: measured[reps[i - 1]] for i in nodes}


def residual(grid: QGrid) -> tuple:
    """Normalized max violation of the recurrence over fully-present stencils,
    a p-bit triple; 0 when there is none; a shared row is read once."""
    cells = (grid.rows, grid.precision_bits)
    neighbors = _neighbor_rows(grid.root_system)
    worst = ZERO
    for i in sorted(set(_representatives(grid))):
        for k in range(1, grid.k_max):
            d = _defect(cells, neighbors, i, k)
            if d is not None and cmp_triples(d[1], worst) > 0:
                worst = d[1]
    return worst


def _log_newton_step(orbits, neighbors: list[list[int]], weights, rhs, level: int):
    """Solve the log-variable Jacobian J for dy = dQ / Q against ``rhs``.

    ``weights[k - 1][i]`` is the share w of Q_{k-1} Q_{k+1} in the recurrence
    at row i and level k, so row (k, i) of J reads 2 dy_k(i) - w (dy_{k-1}(i)
    + dy_{k+1}(i)) - (1 - w) sum_{j~i} dy_k(j), dy_0 = 0, with w - 1 added
    once per listed neighbour (a folded list names an orbit once per node of
    it).  It is the symmetric half k = 1 .. level // 2 of a right-hand side
    with rhs_{level-k} = rhs_k, whose solution is mirrored too, so the last
    row m folds in its mirrored dy_{m+1}: dy_m when the level is odd (-w on
    the diagonal), dy_{m-1} when it is even (coupling -2 w).
    Each block row is formed straight into the augmented row that block LU
    without pivoting eliminates: its Schur complement against the previous
    block's rows [g | G], the right-hand side, and but for the last block
    the coupling diag(-w) to x_{k+1}.  Each block is eliminated below its
    diagonal, skipping exact zeros, and back-substituted, giving x_k = g_k -
    G_k x_{k+1} (the last block x_m alone), and a final sweep substitutes.
    A w outside [0, 1] raises SolverDivergence naming the cell by its
    orbit's smallest node; a zero pivot raises it as a singular block.

    Lemma: with every w in [0, 1], J is a nonsingular M-matrix.  Its
    off-diagonal entries are <= 0, a folded repeat's too (A4's orbit (2, 3),
    its own neighbour, adds to the diagonal).  With v > 0 the Perron vector
    of the folded adjacency, A v = rho v, rho = 2 cos(pi / h) < 2, x_k(i) =
    sin(pi k / level) v_i > 0 has (J x)_k(i) = x_k(i) (2 - 2 w cos(pi /
    level) - (1 - w) rho) > 0, the mirrored last row included.  So the
    pivots are positive and the factorization is stable (A. Berman and R. J.
    Plemmons, Nonnegative Matrices in the Mathematical Sciences, ch. 6; N. J.
    Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 9).
    The corrections' Q_{k-1} Q_{k+1} / Q_k^2 are in [0, 1], as 1 minus the
    dilogarithm arguments at the solution.
    """
    sols, xs, m = [], [], len(weights)  # sols[k]: rows [g_k(i), G_k(i, 1), .., G_k(i, n)]
    for k, (col, r) in enumerate(zip(weights, rhs), 1):
        n, aug = len(col), []
        for i, w in enumerate(col):
            if not 0.0 <= w <= 1.0:
                raise SolverDivergence(f"Newton weight {w} at cell (node {orbits[i][0]}, "
                                       f"k={k}) is outside [0, 1]")
            row = [0.0] * n
            row[i] = 2.0
            for j in neighbors[i]:
                row[j] += w - 1
            if 2 * k + 1 == level:  # the last row, dy_{m+1} = dy_m
                row[i] -= w
            o = -2 * w if 2 * k == level else -w  # the last row: dy_{m+1} = dy_{m-1}
            if sols:
                srow = sols[-1][i]
                row = [b - o * x for b, x in zip(row, srow[1:])]
                row.append(r[i] - o * srow[0])
            else:
                row.append(r[i])
            if k < m:  # past column n + 1 + c pivot row c holds zeros
                row += [0.0] * n
                row[n + 1 + i] = o
            aug.append(row)
        for c, piv in enumerate(aug):
            if not (p := piv[c]):
                raise SolverDivergence("singular Jacobian block")
            end = n + 2 + c
            tail = piv[c + 1:end]
            for row in aug[c + 1:]:
                if f := row[c]:
                    f /= p
                    row[c + 1:end] = [x - f * y for x, y in zip(row[c + 1:end], tail)]
        sol = []
        for i in range(n - 1, -1, -1):
            row = aug[i]
            if k == m:
                sol.append((row[n] - sum(map(mul, row[i + 1:n], reversed(sol)))) / row[i])
                continue
            acc = row[n:]
            for u, s in zip(row[i + 1:n], reversed(sol)):
                if u:
                    acc = [a - u * y for a, y in zip(acc, s)]
            sol.append([a / row[i] for a in acc])
        (xs if k == m else sols).append(sol[::-1])
    for sol in reversed(sols):
        v = [1.0] + [-y for y in xs[-1]]
        xs.append([sum(map(mul, srow, v)) for srow in sol])
    return xs[::-1]


def _warm_start(orbits, neighbors: list[list[int]], level: int) -> list[list[float]]:
    """Float Newton on y = log Q from y = 0, returned as Q = e^y at k = 0 ..
    level // 2 + 1 (all that ``solve_restricted`` reads) per orbit.

    The defect at row i and level k is
    2 y_k(i) - log(e^a + e^b), a = y_{k-1}(i) + y_{k+1}(i), b = sum_{j~i} y_k(j),
    convex log-sum-exp in y.  Its Jacobian is the one of
    ``_log_newton_step`` with the log-sum-exp weight w = e^a / (e^a + e^b),
    in [0, 1].  The rows of the caller's ``_fold`` at k <= level // 2 are
    solved, and mirrored.  Steps stop at the first iterate whose largest
    |defect| is at most HANDOVER_LOG_DEFECT, from where the corrections of
    ``solve_restricted`` square the error away, or else once the largest
    |defect| stops falling; if it still falls after MAX_NEWTON_STEPS steps,
    or a defect or a cell of the mirrored row is not a finite float,
    SolverDivergence is raised, naming the orbit's smallest node.
    """
    half = range(1, level // 2 + 1)
    y = [[0.0] * (level + 1) for _ in orbits]
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
                                           f"(node {orbits[i][0]}, k={k})")
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
        for k, dy in enumerate(_log_newton_step(orbits, neighbors, weights, minus_g, level), 1):
            for row, d in zip(y, dy):
                row[k] += d
                row[level - k] = row[k]
    try:  # the cells past k = level // 2 + 1 mirror these
        return [[math.exp(c) for c in row[:level // 2 + 2]] for row in y]
    except OverflowError:
        c, node, k = max((c, orbit[0], k) for orbit, row in zip(orbits, y)
                         for k, c in enumerate(row))
        raise SolverDivergence(f"float overflow: cell (node {node}, k={k}) "
                               f"is e^{c:.6g}") from None


def solve_restricted(ctx: LevelContext, tolerance: float = SOLVER_TOLERANCE) -> QGrid:
    """Newton's method from a float start to the unique positive solution.

    The unknowns are Q_k(i), k in [1, level // 2], at one node i per orbit
    of the Dynkin diagram's automorphisms (``_fold``).  The system is
    unchanged by k <-> level - k and by each automorphism, so its solution
    is too, and so is every step from the symmetric start: each step sets
    Q_{level-k}(i) to the same triple as Q_k(i), and the returned grid gives
    every node of an orbit its orbit's row.  The neighbour products of an
    orbit's nodes then agree bit for bit: only the branch node, if any, has
    three neighbours, and every automorphism fixes it, while a product of
    two triples rounds the same either way round.  So the stopping test's
    max over the half of one row per orbit equals ``residual`` over the
    whole grid bit for bit.  The start is float Newton on y = log Q from
    Q = 1 (``_warm_start``), so the solver never reads the KR grid; it hands
    over at a log defect of HANDOVER_LOG_DEFECT, from where one or two
    corrections reach SOLVER_TOLERANCE at the default precision.
    The cells are p-bit triples (``qslab.qnum``); only those at k <= level
    // 2 + 1, the half and the rows either side of it that the weights
    read, pass between float and triple.  Each correction, at the context's
    precision (iterative refinement), solves the float Jacobian of
    ``_log_newton_step`` for dy = dQ / Q against the relative defect
    -F / Q_k(i)^2, F formed by ``_defect``, re-formed from the current cells
    through the weights w = (Q_{k-1} / Q_k)(Q_{k+1} / Q_k), which stay in
    the float range where Q^2 does not.  Iteration stops once the
    normalized residual is within ``tolerance``, which must be finite and
    lie above 2^(8 - precision_bits) (else ValueError, as for a tolerance
    <= 0); the start or the corrections exceeding MAX_NEWTON_STEPS steps, a
    Newton weight outside [0, 1], a singular Jacobian block, a float
    overflow or a non-positive cell raises SolverDivergence, whose message
    names a cell by its orbit's smallest node.  The grid's residual_max is
    that of the last stopping test.
    """
    p = ctx.precision_bits
    if not math.isfinite(tolerance):
        raise ValueError(f"solver tolerance must be finite, got {tolerance}")
    tol = float_triple(tolerance, p)
    if cmp_triples(tol, (0, 1 << p - 1, 9 - 2 * p)) <= 0:  # 2^(8 - p)
        raise ValueError("solver tolerance is below the working precision")
    rs = ctx.root_system
    level = ctx.level
    half = range(1, level // 2 + 1)
    reach = level // 2 + 2  # k = 0 .. level // 2 + 1: the half and the rows either side
    orbits, index, neighbors = _fold(rs)
    v = []  # one row per orbit
    for start in _warm_start(orbits, neighbors, level):
        row = [float_triple(x, p) for x in start]
        v.append(row + [row[level - k] for k in range(reach, level + 1)])

    for step in range(MAX_NEWTON_STEPS + 1):
        # -F / Q^2 column by column: ``_defect``'s size signed as -F, as every
        # interior cell exceeds 1; ``residual`` calls ``_defect`` too, and a
        # mirrored cell, or one of another node of the orbit, is the same
        # value as its image, so the last stopping test over the half of
        # one row per orbit computes the grid's residual_max
        res = ZERO
        rhs = []
        for k in half:
            col = []
            for i in range(len(v)):
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
        for k, dy in enumerate(_log_newton_step(orbits, neighbors, weights, rhs, level), 1):
            for i, d in enumerate(dy):
                dq = q[i][k] * d
                if not math.isfinite(dq):
                    raise SolverDivergence(f"float overflow: Newton step {step + 1} is {dq} "
                                           f"at cell (node {orbits[i][0]}, k={k})")
                c = add_triples(v[i][k], float_triple(dq, p), p)
                if c[0] or not c[1]:
                    raise SolverDivergence(f"Newton step {step + 1} left cell "
                                           f"(node {orbits[i][0]}, k={k}) non-positive")
                v[i][k] = v[i][level - k] = c
    provenance = [["solver"] * (level + 1) for _ in index]
    return QGrid(rs, level, level, [list(v[o]) for o in index], p, provenance, res)


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
    cells' scales set the tolerances.  A node sharing a row takes its row's
    verdicts, violations and notes (``_per_row``) under its own proven label.
    """
    rs = ctx.root_system
    label = rs.type_label
    level, l = ctx.level, ctx.shifted_level
    if grid.k_max < l:
        raise ValueError("theorem report needs the grid out to k = l")
    p = ctx.precision_bits
    one = one_triple(p)
    uni_margin = float_triple(POSITIVITY_MARGIN, p)
    rows, scales = grid.rows, grid.scales

    def rel(f, scale):
        return div_triples(abs_triple(f), scale, p)

    def gap(a, b, sa, sb, flip=1):
        """|a - b| (|a + b| with ``flip`` 0) / max(sa, sb); None when a or b
        is None."""
        if a is None or b is None:
            return None
        return rel(add_triples(a, b, p, flip), sb if cmp_triples(sb, sa) > 0 else sa)

    def row_entries(i):
        """(name, ok, violation, note) of each per-node check on row i."""
        row, srow = rows[i - 1], scales[i - 1]
        # (i) recurring zeros on [level+1, l-1]
        window = row[level + 1:l]
        missing = None in window
        ok, worst = _at_most((rel(c, s) for c, s in zip(window, srow[level + 1:l])
                              if c is not None), ZERO_WINDOW_TOL, p)
        out = [("zero_window", ok and not missing, worst,
                "unresolved cells in window" if missing else "")]

        # (ii) symmetry on [0, level]; the gap at level - k is the one at k,
        # as a - b and b - a round to one magnitude
        ok, worst = _at_most((gap(row[k], row[level - k], srow[k], srow[level - k])
                              for k in range(level // 2 + 1)), REL_GAP_TOL, p)
        out.append(("symmetry", ok, worst, ""))

        # (iii) positivity on [0, level]; a None cell reads -inf
        line = row[:level + 1]
        least = _least(line)
        ok, violation = _above(least, POSITIVITY_MARGIN, p)
        out.append(("positivity", ok, violation,
                    f"min value {'-inf' if least is None else render_note(least, 8)}"))
        if i in type_data(label).positivity_window_nodes and not is_proven(label, "positivity", i):
            # The sub-range covered by theorems gets its own proven entry;
            # rounding is monotone, so max(0, margin - least) is the largest
            # gap over its failing cells.
            cells = [c for k, c in enumerate(line) if proven_positivity_window(rs, i, level, k)]
            ok, violation = _above(_least(cells), POSITIVITY_MARGIN, p) if cells else (True, ZERO)
            out.append(("positivity_window", ok, violation, ""))

        # (iv) strict increase on [0, floor(level/2) - 1]: every
        # margin - (Q_{k+1} - Q_k) at most 0
        ok, worst = _at_most(
            (None if row[k] is None or row[k + 1] is None
             else add_triples(uni_margin, add_triples(row[k + 1], row[k], p, 1), p, 1)
             for k in range(level // 2)), 0.0, p)
        out.append(("unimodality", ok, worst, ""))

        # boundary Q_level = 1
        ok, dev = _at_most([gap(row[level], one, srow[level], srow[level])], REL_GAP_TOL, p)
        out.append(("boundary_one", ok, dev, ""))
        return out

    def direct_entries(i):
        """(Anti)periodicity and the k = l sign of the closed-form row i;
        both signs are (-1)^delta, and x - sign * y is x - y or x + y."""
        sign = -1 if delta(rs, i) % 2 else 1
        flip = int(sign > 0)
        pairs = [(chari_qdim(i, k, ctx), chari_qdim(i, k + l, ctx))
                 for k in range(min(level, 3) + 1)]
        srow = scales[i - 1]
        periodic = _at_most((gap(b._v, a._v, a._s, b._s, flip) for a, b in pairs), REL_GAP_TOL, p)
        at_l = _at_most([gap(rows[i - 1][l], one, srow[l], srow[l], flip)], REL_GAP_TOL, p)
        return [("periodicity", *periodic, f"sign {sign:+d}"),
                ("shifted_boundary_sign", *at_l, f"expected {sign:+d}")]

    measured = (_per_row(grid, range(1, rs.rank + 1), row_entries),
                _per_row(grid, type_data(label).direct_nodes, direct_entries))
    return [_mk_check(name, i, ok, is_proven(label, name, i), violation, note)
            for by_node in measured for i, entries in by_node.items()
            for name, ok, violation, note in entries]


def dilog_args(grid: QGrid) -> dict[tuple[int, int], tuple]:
    """The ratios prod_{j~i} Q_k(j) / Q_k(i)^2 over the restricted range, as
    p-bit triples keyed node-major, once per row the grid shares (``_per_row``)."""
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
    ratios = _per_row(grid, range(1, len(rows) + 1), lambda i: [
        div_triples(_neighbor_product(rows, neighbors[i - 1], k, p),
                    mul_triples(rows[i - 1][k], rows[i - 1][k], p), p) for k in ks])
    return {(i, k): x for i, xs in ratios.items() for k, x in zip(ks, xs)}


def dilog_args_margin(grid: QGrid, args: dict[tuple[int, int], tuple]) -> tuple | None:
    """Smallest distance of the interior ratios ``args`` of the grid to the
    ends of (0, 1), a p-bit triple: the lesser of the least ratio and of 1
    minus the greatest, rounded.  That is the least of min(x, 1 - x) over
    the ratios, as rounding to nearest is monotone.

    Boundary columns k = 0 and k = level equal 1 and are excluded.  Returns
    None when there is no interior.
    """
    xs = [x for (_, k), x in args.items() if k != 0 and k != grid.level]
    if not xs:
        return None
    lo = min(xs, key=TRIPLE_ORDER)
    p = grid.precision_bits
    m = add_triples(one_triple(p), max(xs, key=TRIPLE_ORDER), p, 1)
    return m if cmp_triples(m, lo) < 0 else lo


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
