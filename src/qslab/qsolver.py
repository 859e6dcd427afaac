"""Q-grids from KR quantum dimensions, restricted-system solving, and checks.

The recurrence tying the grid together is, at every node i and level k >= 1,

    Q_k(i)^2 = Q_{k-1}(i) Q_{k+1}(i) + prod_{j ~ i} Q_k(j),

with Q_0(i) = 1; the level-restricted variant additionally fixes
Q_level(i) = 1 and looks for the unique positive solution on [0, level].

``build_qgrid`` fills the table from the closed-form rows outward, exactly
mirroring the propagation order of the per-type proofs: extremal rows are
evaluated directly, their neighbours by subtraction, and the remaining
rows by division, with recurring zero-window cells hypothesized as zero and
validated afterwards through the global residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .krchar import chari_decomposition, qdim_kr
from .qnum import LevelContext, QReal
from .rootsys import RootSystem, delta, is_proven, type_data

# Tolerances used by the certification checks (at >= 128-bit precision).
ZERO_WINDOW_TOL = 1e-20
SYMMETRY_TOL = 1e-22
BOUNDARY_TOL = 1e-22
PERIODICITY_TOL = 1e-22
POSITIVITY_MARGIN = 1e-12
UNIMODALITY_MARGIN = 1e-12
FULL_GRID_RESIDUAL_TOL = 1e-20
TWO_PATH_REL_TOL = 1e-22
DILOG_MARGIN = 1e-10

# Restricted-system solver: the float warm start stops once no cell moves
# by more than WARM_START_TOL relative (or after WARM_START_SWEEPS sweeps);
# Newton then gets at most MAX_NEWTON_STEPS steps to bring the normalized
# residual within the tolerance, SOLVER_TOLERANCE unless the caller gives one.
SOLVER_TOLERANCE = 1e-30
WARM_START_TOL = 1e-9
WARM_START_SWEEPS = 100_000
MAX_NEWTON_STEPS = 20


def proven_positivity_window(rs: RootSystem, node: int, level: int, k: int) -> bool:
    """Whether positivity of Q_k at this node is covered by a theorem.

    Every node is covered for k <= level / a_i and, by symmetry where it is
    proven, for k >= level - level / a_i; the positivity-window nodes of
    TYPE_DATA (the E7 branch nodes) come with the wider windows
    a_i k <= level or a_i k >= (a_i - 1) level, established through the
    log-concavity route.
    """
    if is_proven(rs.type_label, "positivity", node):
        return True
    if node in type_data(rs.type_label).positivity_window_nodes:
        a = rs.marks[node - 1]
        return a * k <= level or a * k >= (a - 1) * level
    return False


class SolverDivergence(RuntimeError):
    """Raised when the restricted-system solver does not reach its tolerance
    within MAX_NEWTON_STEPS Newton steps, meets a singular Jacobian block, or
    takes a step that leaves a cell non-positive."""


@dataclass
class QGrid:
    """The table Q_k(i) with per-cell provenance and residual diagnostics."""

    root_system: RootSystem
    level: int
    shifted_level: int
    k_max: int
    values: list[list[QReal | None]]
    provenance: list[list[str | None]]
    residual_max: object = None
    unresolved: list[tuple[int, int]] = field(default_factory=list)

    def cell(self, node: int, k: int) -> QReal | None:
        return self.values[node - 1][k]

    def value(self, node: int, k: int):
        c = self.values[node - 1][k]
        if c is None:
            raise KeyError(f"cell (node {node}, k={k}) is unresolved")
        return c.value


def _neighbor_product(grid_values, rs: RootSystem, node: int, k: int):
    """Product over Dynkin neighbours; 1 when there are none, None when a
    neighbour cell is unresolved."""
    anchor = grid_values[0][0].value
    unit = anchor * 0 + 1
    prod = QReal(unit, unit)
    for j in rs.neighbors[node]:
        v = grid_values[j - 1][k]
        if v is None:
            return None
        prod = prod * v
    return prod


def build_qgrid(ctx: LevelContext, k_max: int | None = None) -> QGrid:
    """Fill the Q-grid for the context's type from the closed-form rows.

    Cells are tagged direct / subtraction / division / zero_hypothesis /
    boundary.  A division whose divisor is numerically zero is hypothesized
    as zero when k falls (mod l) in the recurring zero window
    [level+1, l-1]; anything else lands in ``unresolved`` and is never
    silently filled.  The returned residual_max measures how well every
    fully-stencilled cell satisfies the defining recurrence.
    """
    rs = ctx.root_system
    td = type_data(rs.type_label)
    level, l = ctx.level, ctx.shifted_level
    if k_max is None:
        k_max = l
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    if k_max > 4 * l:
        raise ValueError("k_max is capped at 4l")

    direct = set(td.direct_nodes)
    routes = dict(td.derived_routes)
    cells: dict[tuple[int, int], QReal | None] = {}
    prov: dict[tuple[int, int], str] = {}
    unresolved: list[tuple[int, int]] = []

    def in_zero_window(k: int) -> bool:
        return level < (k % l) < l

    def cell(i: int, k: int) -> QReal | None:
        key = (i, k)
        if key in cells:
            return cells[key]
        if k == 0:
            out, tag = ctx.one(), "boundary"
        elif i in direct:
            out, tag = qdim_kr(chari_decomposition(rs, i, k), ctx), "direct"
        else:
            out, tag = None, "unresolved"
            for source, divisors in routes[i]:
                mid = cell(source, k)
                lo = cell(source, k - 1)
                hi = cell(source, k + 1)
                if mid is None or lo is None or hi is None:
                    continue
                num = mid * mid - lo * hi
                div = None
                ok = True
                for d in divisors:
                    dv = cell(d, k)
                    if dv is None:
                        ok = False
                        break
                    div = dv if div is None else div * dv
                if not ok:
                    continue
                if div is None:
                    out, tag = num, "subtraction"
                    break
                if abs(div.value) > ctx.zero_tolerance * div.magnitude_scale:
                    out, tag = num.div(div), "division"
                    break
            if out is None and in_zero_window(k):
                out, tag = ctx.zero(), "zero_hypothesis"
        cells[key] = out
        prov[key] = tag
        if out is None:
            unresolved.append(key)
        return out

    for i in direct:
        for k in range(k_max + 1):
            cell(i, k)
    for i, _ in td.derived_routes:
        for k in range(k_max + 1):
            cell(i, k)

    values = [[cells.get((i, k)) for k in range(k_max + 1)] for i in range(1, rs.rank + 1)]
    provenance = [[prov.get((i, k)) for k in range(k_max + 1)] for i in range(1, rs.rank + 1)]
    grid = QGrid(
        root_system=rs,
        level=level,
        shifted_level=l,
        k_max=k_max,
        values=values,
        provenance=provenance,
        unresolved=sorted(k for k in unresolved if k[1] <= k_max),
    )
    grid.residual_max = residual(grid)
    return grid


def grid_from_values(rs: RootSystem, level: int, shifted_level: int, rows, tag: str = "solver") -> QGrid:
    """Wrap a plain table of QReals (rows indexed [node-1][k]) as a QGrid."""
    k_max = len(rows[0]) - 1
    values = [list(r) for r in rows]
    provenance = [[tag] * (k_max + 1) for _ in rows]
    grid = QGrid(rs, level, shifted_level, k_max, values, provenance)
    grid.residual_max = residual(grid) if k_max >= 2 else values[0][0].value * 0
    return grid


def residual(grid: QGrid) -> object:
    """Normalized max violation of the recurrence over fully-present stencils."""
    rs = grid.root_system
    if grid.k_max < 2:
        raise ValueError("residual needs at least three levels")
    worst = None
    for i in range(1, rs.rank + 1):
        for k in range(1, grid.k_max):
            mid = grid.cell(i, k)
            lo = grid.cell(i, k - 1)
            hi = grid.cell(i, k + 1)
            if mid is None or lo is None or hi is None:
                continue
            prod = _neighbor_product(grid.values, rs, i, k)
            if prod is None:
                continue
            lhs = mid.value * mid.value
            rhs = lo.value * hi.value + prod.value
            denom = lhs if lhs > 1 else 1
            r = abs(lhs - rhs) / denom
            if worst is None or r > worst:
                worst = r
    if worst is None:
        worst = grid.cell(1, 0).value * 0
    return worst


def _warm_start(rs: RootSystem, level: int) -> list[list[float]]:
    """Float Gauss-Seidel from all ones, the square-root update swept in
    increasing (k, node) order, until no cell moves by WARM_START_TOL
    relative or WARM_START_SWEEPS sweeps have run.

    The update is increasing in every argument and all ones lies below the
    positive solution, so the sweeps rise monotonically toward it.
    """
    x = [[1.0] * (level + 1) for _ in range(rs.rank)]
    for _ in range(WARM_START_SWEEPS):
        worst = 0.0
        for k in range(1, level):
            for i in range(1, rs.rank + 1):
                prod = 1.0
                for j in rs.neighbors[i]:
                    prod *= x[j - 1][k]
                row = x[i - 1]
                new = math.sqrt(row[k - 1] * row[k + 1] + prod)
                worst = max(worst, abs(new - row[k]) / new)
                row[k] = new
        if worst < WARM_START_TOL:
            break
    return x


def _block_solve(mat, diag, rhs):
    """Solve mat [G | g] = [diag(diag) | rhs] by Gauss-Jordan elimination
    with partial pivoting, all right-hand sides carried through one
    elimination.  Returns G as a list of rows and g as a list.
    """
    n = len(mat)
    aug = [list(mat[r]) + [diag[r] if c == r else 0 for c in range(n)] + [rhs[r]]
           for r in range(n)]
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(aug[r][c]))
        if not aug[p][c]:
            raise SolverDivergence("singular Jacobian block")
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c]
        inv = 1 / piv[c]
        piv[c:] = [x * inv for x in piv[c:]]
        for r in range(n):
            f = aug[r][c]
            if r != c and f:
                row = aug[r]
                row[c:] = [x - f * y for x, y in zip(row[c:], piv[c:])]
    return [row[n:2 * n] for row in aug], [row[2 * n] for row in aug]


def solve_restricted(ctx: LevelContext, tolerance: float = SOLVER_TOLERANCE) -> QGrid:
    """Newton's method from a float warm start to the unique positive solution.

    The warm start is Gauss-Seidel in plain floats from all ones (see
    ``_warm_start``), so the solver never reads the KR grid.  Newton steps
    then run in the context's precision on the unknowns Q_k(i), k in
    [1, level-1]: the Jacobian is block-tridiagonal in k with rank x rank
    blocks, and each step is a block Thomas elimination.  Iteration stops
    once the normalized residual is within ``tolerance``, which must lie
    above 2^(8 - precision_bits) (so a tolerance <= 0 raises ValueError);
    exceeding MAX_NEWTON_STEPS or reaching a non-positive cell raises
    SolverDivergence.
    """
    mp = ctx.mp
    tol = mp.mpf(tolerance)
    if not tol > mp.mpf(2) ** (-ctx.precision_bits + 8):
        raise ValueError("solver tolerance is below the working precision")
    rs = ctx.root_system
    level, rank = ctx.level, rs.rank
    one = mp.mpf(1)
    v = [[mp.mpf(x) for x in row] for row in _warm_start(rs, level)]
    neighbors = [[j - 1 for j in rs.neighbors[i]] for i in range(1, rank + 1)]

    for step in range(MAX_NEWTON_STEPS + 1):
        # -F column by column, in the operation order of ``residual`` so that
        # the stopping test sees the residual_max the grid will report
        res = mp.mpf(0)
        minus_f = []
        for k in range(1, level):
            col = []
            for i in range(rank):
                prod = one
                for j in neighbors[i]:
                    prod *= v[j][k]
                lhs = v[i][k] * v[i][k]
                fi = lhs - (v[i][k - 1] * v[i][k + 1] + prod)
                res = max(res, abs(fi) / (lhs if lhs > 1 else one))
                col.append(-fi)
            minus_f.append(col)
        if res <= tol:
            break
        if step == MAX_NEWTON_STEPS:
            raise SolverDivergence(
                f"no convergence within {MAX_NEWTON_STEPS} Newton steps; last residual {res}")
        # Block Thomas elimination of J dx = -F.  Block row k holds
        # diag(-Q_{k+1}) left of the diagonal block and diag(-Q_{k-1}) right
        # of it; G_k = M_k^{-1} diag(-Q_{k-1}) and g_k carry the forward pass.
        gs, gvecs = [], []
        for k in range(1, level):
            block = [[0] * rank for _ in range(rank)]
            rhs = minus_f[k - 1]
            for i in range(rank):
                block[i][i] = 2 * v[i][k]
                for j in neighbors[i]:
                    partial = one
                    for m in neighbors[i]:
                        if m != j:
                            partial *= v[m][k]
                    block[i][j] = -partial
            if gs:
                for i in range(rank):
                    lower = -v[i][k + 1]
                    for j in range(rank):
                        block[i][j] -= lower * gs[-1][i][j]
                    rhs[i] -= lower * gvecs[-1][i]
            g, gvec = _block_solve(block, [-v[i][k - 1] for i in range(rank)], rhs)
            gs.append(g)
            gvecs.append(gvec)
        dx = gvecs[-1]
        for k in range(level - 1, 0, -1):
            if k < level - 1:
                dx = [gvecs[k - 1][i] - mp.fdot(gs[k - 1][i], dx) for i in range(rank)]
            for i in range(rank):
                v[i][k] += dx[i]
                if not v[i][k] > 0:
                    raise SolverDivergence(
                        f"Newton step {step + 1} left cell (node {i + 1}, k={k}) non-positive")
    rows = [[QReal(x, abs(x) if abs(x) > 1 else one) for x in row] for row in v]
    return grid_from_values(rs, level, ctx.shifted_level, rows, tag="solver")


@dataclass
class CheckResult:
    """Outcome of one certified property at one node (or globally)."""

    name: str
    node: int | None
    status: str  # "pass" | "fail" | "conjecture-violated"
    proven: bool
    max_violation: object = None
    note: str = ""


def _mk_check(name, node, ok, proven, violation, note="") -> CheckResult:
    status = "pass" if ok else ("fail" if proven else "conjecture-violated")
    return CheckResult(name, node, status, proven, violation, note)


def theorem_report(ctx: LevelContext, grid: QGrid | None = None) -> list[CheckResult]:
    """Certify the claimed grid properties node by node.

    Checks per node: the recurring zero window, the reflection symmetry
    Q_{level-k} = Q_k, positivity and strict unimodality on [0, level], the
    boundary value Q_level = 1, and at the closed-form rows
    Q_{k+l} = (-1)^delta Q_k plus Q_l = (-1)^delta.  Failures are
    report entries, never exceptions; each entry carries the proven or
    conjectural label of the property it checks.
    """
    rs = ctx.root_system
    label = rs.type_label
    level, l = ctx.level, ctx.shifted_level
    if grid is None:
        grid = build_qgrid(ctx, k_max=l)
    if grid.k_max < l:
        raise ValueError("theorem report needs the grid out to k = l")
    checks: list[CheckResult] = []
    zero = ctx.mp.mpf(0)

    for i in range(1, rs.rank + 1):
        # (i) recurring zeros on [level+1, l-1]
        worst = zero
        missing = False
        for k in range(level + 1, l):
            c = grid.cell(i, k)
            if c is None:
                missing = True
                continue
            r = abs(c.value) / c.magnitude_scale
            worst = max(worst, r)
        ok = not missing and worst <= ZERO_WINDOW_TOL
        checks.append(_mk_check(
            "zero_window", i, ok, is_proven(label, "zero_window", i), worst,
            note="unresolved cells in window" if missing else ""))

        # (ii) symmetry on [0, level]
        worst = zero
        for k in range(0, level + 1):
            a, b = grid.cell(i, k), grid.cell(i, level - k)
            if a is None or b is None:
                worst = ctx.mp.inf
                break
            scale = max(a.magnitude_scale, b.magnitude_scale)
            worst = max(worst, abs(a.value - b.value) / scale)
        checks.append(_mk_check(
            "symmetry", i, worst <= SYMMETRY_TOL,
            is_proven(label, "symmetry", i), worst))

        # (iii) positivity on [0, level]
        min_val = None
        for k in range(0, level + 1):
            c = grid.cell(i, k)
            val = c.value if c is not None else ctx.mp.ninf
            if min_val is None or val < min_val:
                min_val = val
        violation = max(zero, POSITIVITY_MARGIN - min_val)
        full_ok = min_val > POSITIVITY_MARGIN
        checks.append(_mk_check(
            "positivity", i, full_ok, is_proven(label, "positivity", i),
            violation, note=f"min value {ctx.mp.nstr(min_val, 8)}"))
        if not is_proven(label, "positivity", i):
            # The sub-range covered by theorems gets its own proven entry.
            worst_w = zero
            ok_w = True
            for k in range(0, level + 1):
                if proven_positivity_window(rs, i, level, k):
                    c = grid.cell(i, k)
                    val = c.value if c is not None else ctx.mp.ninf
                    if not val > POSITIVITY_MARGIN:
                        ok_w = False
                        worst_w = max(worst_w, POSITIVITY_MARGIN - val)
            checks.append(_mk_check("positivity_window", i, ok_w, True, worst_w))

        # (iv) strict increase on [0, floor(level/2) - 1]
        worst = zero
        for k in range(0, level // 2):
            a, b = grid.cell(i, k), grid.cell(i, k + 1)
            if a is None or b is None:
                worst = ctx.mp.inf
                break
            worst = max(worst, UNIMODALITY_MARGIN - (b.value - a.value))
        checks.append(_mk_check(
            "unimodality", i, worst <= zero,
            is_proven(label, "unimodality", i), max(worst, zero)))

        # boundary Q_level = 1
        c = grid.cell(i, level)
        if c is None:
            dev = ctx.mp.inf
        else:
            dev = abs(c.value - 1) / c.magnitude_scale
        checks.append(_mk_check(
            "boundary_one", i, dev <= BOUNDARY_TOL,
            is_proven(label, "boundary_one", i), dev))

    # (anti)periodicity and the k = l sign, at the closed-form rows only;
    # both signs are (-1)^delta.
    for i in type_data(label).direct_nodes:
        sign = -1 if delta(rs, i) % 2 else 1
        worst = zero
        for k in range(0, min(level, 3) + 1):
            a = qdim_kr(chari_decomposition(rs, i, k), ctx)
            b = qdim_kr(chari_decomposition(rs, i, k + l), ctx)
            scale = max(a.magnitude_scale, b.magnitude_scale)
            worst = max(worst, abs(b.value - sign * a.value) / scale)
        checks.append(_mk_check("periodicity", i, worst <= PERIODICITY_TOL, True, worst,
                                note=f"sign {sign:+d}"))

        c = grid.cell(i, l)
        dev = ctx.mp.inf if c is None else abs(c.value - sign) / c.magnitude_scale
        checks.append(_mk_check("shifted_boundary_sign", i, dev <= BOUNDARY_TOL, True,
                                dev, note=f"expected {sign:+d}"))

    return checks


def dilog_args(grid: QGrid) -> dict[tuple[int, int], QReal]:
    """The ratios prod_{j~i} Q_k(j) / Q_k(i)^2 over the restricted range."""
    rs = grid.root_system
    level = grid.level
    out: dict[tuple[int, int], QReal] = {}
    for i in range(1, rs.rank + 1):
        for k in range(0, level + 1):
            c = grid.cell(i, k)
            if c is None or not c.value > 0:
                raise ValueError(f"grid cell (node {i}, k={k}) is not positive")
    for i in range(1, rs.rank + 1):
        for k in range(0, level + 1):
            c = grid.cell(i, k)
            prod = _neighbor_product(grid.values, rs, i, k)
            out[(i, k)] = prod.div(c * c)
    return out


def dilog_args_margin(args: dict[tuple[int, int], QReal], level: int):
    """Smallest distance of the interior ratios to the ends of (0, 1).

    Boundary columns k = 0 and k = level equal 1 and are excluded.  Returns
    None when there is no interior.
    """
    worst = None
    for (_, k), x in args.items():
        if k == 0 or k == level:
            continue
        m = min(x.value, 1 - x.value)
        if worst is None or m < worst:
            worst = m
    return worst


def dilog_sum(grid: QGrid, ctx: LevelContext):
    """(6/pi^2) sum of Rogers dilogarithms of the interior ratios.

    Diagnostic output only; no closed-form value is asserted for it.
    """
    mp = ctx.mp
    args = dilog_args(grid)
    total = mp.mpf(0)
    for (i, k) in sorted(args):
        if k == 0 or k == grid.level:
            continue
        x = args[(i, k)].value
        if not (0 < x < 1):
            raise ValueError(f"dilogarithm argument {mp.nstr(x, 8)} outside (0, 1)")
        total += mp.polylog(2, x) + mp.log(x) * mp.log(1 - x) / 2
    return 6 / mp.pi ** 2 * total
