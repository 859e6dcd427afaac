"""Reference implementations that only the tests read.

Each states one operation in its plainest form, independent of the code
path that a qslab command runs, so a test can compare the two.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

from mpmath.libmp import (fone, from_man_exp, fzero, mpf_abs, mpf_div, mpf_gt, mpf_log, mpf_lt,
                          mpf_mul, mpf_pi, mpf_pos, mpf_sub, round_nearest, to_fixed)

from qslab import krchar, qsolver, report
from qslab.krchar import chari_decomposition, chari_qdim
from qslab.qnum import (DEFAULT_PRECISION_BITS, LevelContext, QReal, _abs_sines, mp_context,
                        qdim_classical, render_note)
from qslab.qsolver import (DILOG_MARGIN, FULL_GRID_RESIDUAL_TOL, POSITIVITY_MARGIN, REL_GAP_TOL,
                           SOLVER_TOLERANCE, ZERO_WINDOW_TOL, QGrid, _mk_check,
                           proven_positivity_window)
from qslab.rootsys import _closure, build_root_system, delta, is_proven, type_data
from qslab.seqanalysis import (RealSequence, RootednessVerdict, _newton_violation, _sturm_verdict,
                               is_log_concave)


def zero_tolerance(ctx):
    """2^-(p//2) as an exact Fraction, p the context's precision: how far
    clear of zero, relative to its scale, the grid's divisor guard wants a
    value (``QReal.is_clear_of_zero(p // 2)``), and the tests' tolerance
    for values that agree up to rounding."""
    return Fraction(1, 1 << ctx.precision_bits // 2)


def si_dot(rs, node: int, weight: Sequence[int]) -> tuple[int, ...]:
    """Dot reflection in the simple root alpha_node (an involution).

    alpha_node in the fundamental-weight basis is row node of the Cartan
    matrix.
    """
    if not 1 <= node <= rs.rank:
        raise ValueError(f"node {node} out of range")
    c = weight[node - 1] + 1
    alpha = rs.cartan[node - 1]
    return tuple(w - c * a for w, a in zip(weight, alpha))


def s0_dot(weight: Sequence[int], ctx) -> tuple[int, ...]:
    """Dot action of the affine generator: s_theta(lam+rho) + l*theta - rho."""
    rs = ctx.root_system
    pair = sum(a * (w + 1) for a, w in zip(rs.marks, weight))
    c = ctx.shifted_level - pair
    theta = rs.theta_weight
    return tuple(w + c * t for w, t in zip(weight, theta))


def pairing(rs, weight: Sequence[int], root_index: int) -> int:
    """(weight | beta) for the positive root with the given canonical index."""
    if len(weight) != rs.rank:
        raise ValueError("weight has wrong rank")
    return sum(w * c for w, c in zip(weight, rs.positive_roots[root_index]))


def find_root(rs, coeffs: Sequence[int]) -> int:
    """Canonical index of a positive root given by its coefficient vector."""
    return rs.positive_roots.index(tuple(coeffs))


def reflection_dot(rs, root_index: int, weight: Sequence[int]) -> tuple[int, ...]:
    """Dot reflection in an arbitrary positive root (parity -1)."""
    beta_w = rs.root_as_weight(root_index)
    pair = pairing(rs, tuple(w + 1 for w in weight), root_index)
    return tuple(w - pair * b for w, b in zip(weight, beta_w))


def translate_by_root(rs, root_index: int, multiple: int,
                      weight: Sequence[int]) -> tuple[int, ...]:
    """Translation by multiple*beta; commutes with the rho shift (parity +1)."""
    beta_w = rs.root_as_weight(root_index)
    return tuple(w + multiple * b for w, b in zip(weight, beta_w))


def in_alcove(rs, weight: Sequence[int], level: int) -> bool:
    """Membership in the closed fundamental alcove at the given level."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    return (
        all(c >= 0 for c in weight)
        and sum(a * c for a, c in zip(rs.marks, weight)) <= level
    )


def sine_signature(pairings: Iterable[int], l: int) -> tuple[int, tuple[int, ...]]:
    """The sign and the sorted folded residues of prod sin(pi*p/l).

    sin(pi*p/l) depends only on r = p mod 2l: it is zero when l divides p,
    and otherwise has sign +1 for r < l and -1 for r > l and magnitude
    sin(pi*f/l), f = min(r mod l, l - r mod l).  Two products with the same
    folded residues therefore have exactly the same magnitude.  Returns
    (0, ()) when some pairing is a multiple of l.
    """
    period = 2 * l
    sign = 1
    folded = []
    for p in pairings:
        r = p % period
        if r > l:
            sign = -sign
            r -= l
        elif r == l or r == 0:
            return 0, ()
        folded.append(min(r, l - r))
    folded.sort()
    return sign, tuple(folded)


@functools.cache
def _wide_sines(l: int, p: int) -> list:
    """sin(pi*r/l) for 0 <= r < 2l as raw mpf values: mpmath's sinpi at 4p
    bits."""
    hi = mp_context(4 * p)
    return [hi.sinpi(hi.mpf(r) / l)._mpf_ for r in range(2 * l)]


def sin_pi_over_l(ctx, r: int):
    """sin(pi*r/l) as an mpf of the context: mpmath's sinpi at 4p bits,
    rounded once to nearest at the context's precision p."""
    p, l = ctx.precision_bits, ctx.shifted_level
    return ctx.mp.make_mpf(mpf_pos(_wide_sines(l, p)[r % (2 * l)], p, round_nearest))


def wide_sine_product(l: int, p: int, factors: Iterable[tuple[int, int]]) -> tuple:
    """(value, scale) of the product of sin(pi*num/l)/sin(pi*den/l) over the
    (num, den) pairs, scale the largest |partial product| from 1, as raw mpf
    values formed in mpmath at 4p bits, each of the 2n operations rounded to
    nearest there, so within 2n 2**-4p of the exact ones, relatively;
    (0, 1) when some numerator is a multiple of l."""
    factors = list(factors)
    if any(num % l == 0 for num, _ in factors):
        return fzero, fone
    sines, wide = _wide_sines(l, p), 4 * p
    value = scale = fone
    for num, den in factors:
        value = mpf_div(mpf_mul(value, sines[num % (2 * l)], wide, round_nearest),
                        sines[den % (2 * l)], wide, round_nearest)
        if mpf_gt(mpf_abs(value), scale):
            scale = mpf_abs(value)
    return value, scale


def sine_fold(ctx, factors: Iterable[tuple[int, int]]):
    """``wide_sine_product`` at the context's l and precision p, each rounded
    once to nearest at p bits, as mpf numbers of the context."""
    p = ctx.precision_bits
    return tuple(ctx.mp.make_mpf(mpf_pos(x, p, round_nearest))
                 for x in wide_sine_product(ctx.shifted_level, p, factors))


@functools.cache
def _wide_qdim(label: str, level: int, p: int, weight: tuple) -> tuple:
    """``wide_sine_product`` of a dominant weight's factors, one per positive
    root that pairs with it nonzero, as exact Fractions."""
    rs, factors = build_root_system(label), []
    for b, ht in zip(rs.positive_roots, rs.heights):
        lam = sum(wi * bi for wi, bi in zip(weight, b))
        if lam:
            factors.append((lam + ht, ht))
    l = level + rs.coxeter_number
    return tuple(_fraction(x) for x in wide_sine_product(l, p, factors))


@functools.cache
def reference_ratio_rows(l: int, top: int, w: int) -> list:
    """``LevelContext._ratio_rows(w)`` entry by entry, for the heights 0 <
    ht < ``top`` (h for a context's own rows): entry r of height ht is
    floor(s(r + ht) 2**w / s(ht)), s(j) the sine of ``_abs_sines`` at w +
    bitlen(w) + 4 bits whose index is j mod l folded into the half period by
    |sin(pi j / l)| = sin(pi min(j, l - j) / l)."""
    sines = _abs_sines(l, w + w.bit_length() + 4)

    def s(j):
        return sines[min(j % l, l - j % l)]

    return [None] + [[(s(r + ht) << w) // s(ht) for r in range(l)] for ht in range(1, top)]


def reference_support_plan(ctx: LevelContext, support: tuple[int, ...]) -> tuple:
    """``qnum.support_plan(ctx, support)`` built root by root, outside the
    context's plan memo: each root's vector on the support zipped from the
    support's columns, its row that of its height in ``_ratio_rows`` at the
    term width, each group's residue table counted from its cuts l - ht, and
    the walks' c = n (6l + 2) for n steps with the bit length of 2**(p + 34
    + bitlen(c)), the least partial product that gives a row term."""
    rs, l = ctx.root_system, ctx.shifted_level
    groups, steps = {}, []  # vector -> (group, its l - ht); product steps
    for v, ht in zip(zip(*[rs.root_columns[j] for j in support]), rs.heights):
        if any(v):
            g, cuts = groups.setdefault(v, (len(groups), []))
            cuts.append(l - ht)
            steps.append((g, ht, ctx._ratio_rows(ctx.term_width)[ht]))
    signs = []
    for _, cuts in groups.values():
        marks = [0] * l
        for c in cuts:
            marks[c] += 1
        table = list(accumulate(marks))  # the heights >= l - r
        for c in cuts:
            table[c] = None
        signs.append((len(cuts), table))
    c = len(steps) * (6 * l + 2)
    least = 1 << ctx.precision_bits + 34 + c.bit_length()
    return tuple(groups), steps, signs, c, least.bit_length()


def _fraction(x) -> Fraction:
    sign, man, exp, _ = x
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def kr_sum(rs, level: int, terms, p: int) -> tuple[Fraction, Fraction]:
    """(sum of mult * qdim(weight), sum of mult * its scale) over a
    decomposition's terms, each term ``wide_sine_product`` at 4p bits and
    the sums exact: within 2n 2**-4p of the exact Chari sum and its scale,
    relatively to the scale, n <= 120 factors per term."""
    value = scale = Fraction(0)
    for mult, weight in terms:
        v, s = _wide_qdim(rs.type_label, level, p, tuple(weight))
        value, scale = value + mult * v, scale + mult * s
    return value, scale


@dataclass(frozen=True)
class MpfQReal:
    """qslab.qnum.QReal's arithmetic in mpf operators: a value and its
    magnitude scale as mpf numbers of one context."""

    value: object
    magnitude_scale: object

    def __add__(self, other: "MpfQReal") -> "MpfQReal":
        return MpfQReal(self.value + other.value,
                        self.magnitude_scale + other.magnitude_scale)

    def __sub__(self, other: "MpfQReal") -> "MpfQReal":
        return MpfQReal(self.value - other.value,
                        self.magnitude_scale + other.magnitude_scale)

    def __mul__(self, other: "MpfQReal") -> "MpfQReal":
        v = self.value * other.value
        scale = (abs(self.value) * other.magnitude_scale
                 + abs(other.value) * self.magnitude_scale)
        return MpfQReal(v, _clamp(scale, v))

    def div(self, other: "MpfQReal") -> "MpfQReal":
        v = self.value / other.value
        scale = (self.magnitude_scale + abs(v) * other.magnitude_scale) / abs(other.value)
        return MpfQReal(v, _clamp(scale, v))


def _clamp(scale, value):
    """The scale raised to |value|, then to 1."""
    m = abs(value)
    if scale < m:
        scale = m
    if scale < 1:
        scale = scale * 0 + 1
    return scale


def palindromize(seq: RealSequence, parity: str) -> RealSequence:
    """Reflect a strictly log-concave increasing-tail sequence into a palindrome.

    ``parity`` selects the top index of the result: "even" produces
    (a_0..a_n..a_0) of length 2n+1 with a single central entry, "odd"
    produces (a_0..a_n,a_n..a_0) of length 2n+2 with the center doubled.
    The output is certified strictly log-concave before it is returned.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    a, values, tol = seq.entries, mpf_entries(seq), mpf_tolerance(seq)
    n = len(a) - 1
    if n < 1:
        raise ValueError("need at least two entries to reflect")
    if not all(e > tol for e in values):
        raise ValueError("sequence must be positive")
    if not is_log_concave(seq):
        raise ValueError("sequence must be strictly log-concave")
    if not values[n - 1] < values[n] - tol:
        raise ValueError("sequence must end on a strict increase")
    if parity == "even":
        entries = a + tuple(reversed(a[:-1]))
    else:
        entries = a + tuple(reversed(a))
    out = RealSequence(entries, seq.tolerance, seq.precision_bits)
    if not is_log_concave(out):
        raise RuntimeError("reflection lost strict log-concavity")
    return out


def mpf_entries(seq: RealSequence) -> list:
    """A sequence's p-bit triple entries as mpf numbers of the context of
    its precision p, the numbers that its arithmetic rounds as."""
    mp = mp_context(seq.precision_bits)
    return [mp.make_mpf(raw(e)) for e in seq.entries]


def mpf_tolerance(seq: RealSequence):
    """A sequence's tolerance as an mpf number at its precision p."""
    return mp_context(seq.precision_bits).make_mpf(raw(seq.tolerance))


# qslab.seqanalysis on mpf numbers, as it stood before its entries became
# p-bit triples: the port must give the same entries, tolerances, iterates
# and verdicts, bit for bit.  Each operation rounds in the context of its
# left operand, and the tolerance is formed in the entries' context, so
# everything rounds at the entries' precision.

_MP = mp_context(DEFAULT_PRECISION_BITS)


class MpfSequence(NamedTuple):
    entries: tuple
    tolerance: object


def _mpf_max_abs_or_one(entries):
    return max(max(abs(e) for e in entries), entries[0].context.mpf(1))


def mpf_default_tolerance(entries):
    m = _mpf_max_abs_or_one(entries)
    return m.context.mpf(2) ** -64 * m * m


def mpf_make_sequence(values) -> MpfSequence:
    entries = tuple(v if hasattr(v, "_mpf_") else _MP.mpf(str(v)) for v in values)
    return MpfSequence(entries, mpf_default_tolerance(entries))


def mpf_l_operator(seq: MpfSequence) -> MpfSequence:
    a = seq.entries
    n = len(a)
    out = []
    for k in range(n):
        left = a[k - 1] if k - 1 >= 0 else 0
        right = a[k + 1] if k + 1 < n else 0
        out.append(a[k] * a[k] - right * left)
    tol = 2 * seq.tolerance * _mpf_max_abs_or_one(a) + mpf_default_tolerance(a)
    return MpfSequence(tuple(out), tol)


def mpf_log_concavity_order(seq: MpfSequence, max_order: int) -> int:
    cur = seq
    for i in range(max_order + 1):
        if not all(e >= -cur.tolerance for e in cur.entries):
            return i - 1
        if i < max_order:
            cur = mpf_l_operator(cur)
    return max_order


def mpf_is_log_concave(seq: MpfSequence) -> bool:
    a, tol = seq.entries, seq.tolerance
    return all(a[k] * a[k] > a[k - 1] * a[k + 1] + tol for k in range(1, len(a) - 1))


def mpf_branden_criterion(seq: MpfSequence) -> RootednessVerdict:
    """The coefficients read from the mpf entries' raw mantissas; the integer
    Newton and Sturm steps are qslab's."""
    parts = [e._mpf_ for e in seq.entries]
    exponents = [exp for _, man, exp, _ in parts if man]
    if not exponents:
        raise ValueError("zero polynomial")
    low = min(exponents)
    coeffs = [(-man if sign else man) << (exp - low) if man else 0
              for sign, man, exp, _ in parts]
    while coeffs[-1] == 0:
        coeffs.pop()
    if coeffs[0] == 0:
        return RootednessVerdict("not_real_negative", witness="root at 0")
    k = _newton_violation(coeffs)
    if k is not None:
        return RootednessVerdict(
            "not_real_negative", witness=f"non-real root (Newton inequality at k={k})")
    return _sturm_verdict(coeffs)


def a_series_cartan(rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of the chain A_n, used for solver cross-checks."""
    if rank < 1:
        raise ValueError("rank must be positive")
    return tuple(
        tuple(2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(rank))
        for i in range(rank)
    )


def d_series_cartan(rank: int) -> list[list[int]]:
    """Cartan matrix of D_n: the chain 1..n-1 with node n joined to node n-2."""
    edges = [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
    rows = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for a, b in edges:
        rows[a][b] = rows[b][a] = -1
    return rows


def closure_system(cartan: Sequence[Sequence[int]], label: str):
    """The root system of a finite simply-laced Cartan matrix outside
    TYPE_DATA (an A or D series, say), through qslab's one closure, which
    build_root_system reaches by E-type label only."""
    return _closure(label, tuple(tuple(row) for row in cartan))


# The solver's block-tridiagonal elimination by Gauss-Jordan blocks with
# partial pivoting, as it stood before qslab.qsolver's ``_log_newton_step``
# came to eliminate without pivoting: every block carries G, and each pivot
# step rewrites its own column.  A solve through either must reach the same
# solution to 1e-33 at a tolerance of 1e-35.

def block_solve(mat, diag, rhs):
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
            raise qsolver.SolverDivergence("singular Jacobian block")
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


def block_thomas(blocks, off, rhs):
    """Solve the block-tridiagonal system whose block row k reads

        diag(off[k]) x_{k-1} + blocks[k] x_k + diag(off[k]) x_{k+1} = rhs[k]

    by block Thomas elimination: the forward pass eliminates each pivot
    block once with ``block_solve``, giving x_k = g_k - G_k x_{k+1}, and
    the backward pass substitutes.  Returns the list of x_k.
    """
    gs, gvecs = [], []
    for block, o, r in zip(blocks, off, rhs):
        if gs:
            g_prev, gvec_prev = gs[-1], gvecs[-1]
            block = [[b - c * x for b, x in zip(brow, grow)]
                     for brow, c, grow in zip(block, o, g_prev)]
            r = [ri - c * x for ri, c, x in zip(r, o, gvec_prev)]
        g, gvec = block_solve(block, o, r)
        gs.append(g)
        gvecs.append(gvec)
    xs = []
    for g, gvec in zip(reversed(gs), reversed(gvecs)):
        if xs:
            x = xs[-1]
            gvec = [gi - sum(a * b for a, b in zip(row, x)) for gi, row in zip(gvec, g)]
        xs.append(gvec)
    return xs[::-1]


# The KR-grid fill as it stood before ``qslab.qsolver._route_walk``: one
# memoized recursion per cell, each route pulling the cells it reads on
# demand.  ``qslab.qsolver.build_qgrid`` must return an equal QGrid.

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

    prec, rnd = ctx.precision_bits, round_nearest
    zero_tol = from_man_exp(1, -(ctx.precision_bits // 2))
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
            out, tag = ctx.one, "boundary"
        elif i in direct:
            out, tag = chari_qdim(i, k, ctx), "direct"
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
                if mpf_gt(mpf_abs(raw(div._v), prec, rnd),
                          mpf_mul(zero_tol, raw(div._s), prec, rnd)):
                    out, tag = num.div(div), "division"
                    break
            if out is None and in_zero_window(k):
                out, tag = ctx.zero, "zero_hypothesis"
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
    # ``cell`` refers to itself through its closure: unbind it, so that the
    # closure's tables go with this call instead of at the next cyclic
    # garbage collection
    del cell

    table = [[cells.get((i, k)) for k in range(k_max + 1)] for i in range(1, rs.rank + 1)]
    provenance = [[prov.get((i, k)) for k in range(k_max + 1)] for i in range(1, rs.rank + 1)]
    grid = QGrid(
        root_system=rs,
        level=level,
        k_max=k_max,
        rows=[[None if c is None else c._v for c in row] for row in table],
        precision_bits=ctx.precision_bits,
        provenance=provenance,
        unresolved=sorted(k for k in unresolved if k[1] <= k_max),
        scales=[[None if c is None else c._s for c in row] for row in table],
    )
    grid.residual_max = qsolver.residual(grid)
    return grid


# The KR grid path before it folded its rows by the orbits of the Dynkin
# diagram's automorphisms: ``qslab.qsolver._route_walk`` over every node of
# TYPE_DATA, with ``build_qgrid``'s arithmetic, each node's lists its own.

def unfolded_qgrid(ctx: LevelContext) -> QGrid:
    """``build_qgrid(ctx)`` with every node's row walked and its lists of
    cells, scales and tags its own, so ``qsolver`` reads it node by node."""
    rs = ctx.root_system
    level, l, half = ctx.level, ctx.shifted_level, ctx.precision_bits // 2
    table, provenance = qsolver._route_walk(
        type_data(rs.type_label), l, ctx.one, lambda i, k: chari_qdim(i, k, ctx),
        lambda num, div: num.div(div) if div.is_clear_of_zero(half) else None,
        lambda k: ctx.zero if level < k % l < l else None)
    rows = [[None if c is None else c._v for c in row] for row in table]
    scales = [[None if c is None else c._s for c in row] for row in table]
    unresolved = [(i, k) for i, row in enumerate(rows, 1) for k, c in enumerate(row) if c is None]
    grid = QGrid(rs, level, l, rows, ctx.precision_bits, provenance, unresolved=unresolved,
                 scales=scales)
    grid.residual_max = qsolver.residual(grid)
    return grid


def fold_pairs(rs, level: int) -> list[tuple[str, object, object]]:
    """(what, folded, unfolded) for the folded grid path at ``level``: the
    grid against ``unfolded_qgrid`` on a context of its own (rows, scales,
    provenance, unresolved cells, residual_max), then ``theorem_report``,
    the log-concavity group's entries and ``dilog_args`` on the folded grid
    against a copy of it whose every list is its own, read on that context,
    and the copy's ``_representatives``, which must be its rows themselves."""
    ctx, own = LevelContext(rs, level), LevelContext(rs, level)
    grid, ref = qsolver.build_qgrid(ctx), unfolded_qgrid(own)
    copy = QGrid(rs, level, grid.k_max, [list(r) for r in grid.rows], grid.precision_bits,
                 [list(t) for t in grid.provenance], grid.residual_max, list(grid.unresolved),
                 [list(s) for s in grid.scales])
    return [("grid", grid, ref),
            ("theorem", qsolver.theorem_report(ctx, grid), qsolver.theorem_report(own, copy)),
            ("logconcave", report._logconcave_checks(None, ctx, grid),
             report._logconcave_checks(None, own, copy)),
            ("dilog_args", list(qsolver.dilog_args(grid).items()),
             list(qsolver.dilog_args(copy).items())),
            ("copy's representatives", qsolver._representatives(copy), list(range(rs.rank)))]


def classical_grid(rs, k_max: int, td=None) -> list[list[int]]:
    """The rows Q_k(i), k = 0..k_max, at q = 1 in exact integers, filled by
    ``qslab.qsolver._route_walk`` along the routes of ``td`` (the type's
    TYPE_DATA entry when None).

    A direct row is the classical dimension of its Chari decomposition; a
    route's division must leave no remainder, else ArithmeticError; there
    is no zero window, so a cell no route fills stays None.
    """
    dims: dict[tuple[int, ...], int] = {}

    def direct(i: int, k: int) -> int:
        total = 0
        for mult, w in chari_decomposition(rs, i, k).terms:
            if w not in dims:
                dims[w] = qdim_classical(rs, w)
            total += mult * dims[w]
        return total

    def divide(num: int, div: int) -> int:
        q, r = divmod(num, div)
        if r:
            raise ArithmeticError(f"{num} / {div} leaves remainder {r}")
        return q

    td = type_data(rs.type_label) if td is None else td
    rows, _ = qsolver._route_walk(td, k_max, 1, direct, divide, lambda k: None)
    return rows


# The grid consumers of qslab.qsolver and the grid, solve and dilog groups
# of qslab.report in mpf-object arithmetic: each operator dispatches on its
# cells' own context.  qslab computes the same values and verdicts on p-bit
# integer triples, bit for bit.

def raw(x):
    """A value of qslab's grid layer, a p-bit triple (sign, mantissa,
    exponent), as libmp's raw ``_mpf_`` tuple, the form the tests compare
    and read; None, an int and a raw tuple (such as ``finf``) pass
    through."""
    if x is None or isinstance(x, int) or len(x) == 4:
        return x
    sign, man, exp = x
    return from_man_exp(-man if sign else man, exp)


def triple(x, p):
    """The p-bit triple (sign, mantissa, exponent) of an mpf number or a raw
    ``_mpf_`` tuple of at most p bits: the mantissa exactly p bits wide."""
    sign, man, exp, bc = getattr(x, "_mpf_", x)
    return (sign, man << p - bc, exp - (p - bc)) if man else (0, 0, 0)


def mpf(mp, x):
    """A p-bit triple as an mpf number of the context ``mp``; None stays
    None.  qslab hands a value out as an exact Fraction, which mpmath does
    not compare with an mpf number, so a test that computes with mpf
    numbers converts through here."""
    return None if x is None else mp.make_mpf(raw(x))


def mpf_cell(grid, node, k):
    """``grid.cell(node, k)`` as an mpf number at the grid's precision."""
    return mpf(mp_context(grid.precision_bits), grid.rows[node - 1][k])


def mpf_qreal(ctx, q):
    """A QReal's value and scale as an MpfQReal of the context's precision."""
    return MpfQReal(mpf(ctx.mp, q._v), mpf(ctx.mp, q._s))


def mpf_table(mp, rows):
    """A table of p-bit triples, such as a grid's ``rows`` or ``scales``,
    as mpf numbers of the context ``mp``; None stays None."""
    return [[mpf(mp, c) for c in row] for row in rows]


def neighbor_product(values, neighbors: Sequence[int], k: int):
    """prod_{j ~ i} Q_k(j): the product of values[j][k] over the neighbour
    rows j of node i; 1 when there are none, None when a factor is None."""
    prod = 1
    for j in neighbors:
        v = values[j][k]
        if v is None:
            return None
        prod *= v
    return prod


def defect(values, neighbors: list[list[int]], i: int, k: int):
    """The recurrence defect F = Q_k^2 - (Q_{k-1} Q_{k+1} + prod_{j~i} Q_k(j))
    at row i, and |F| / max(Q_k^2, 1); None when a stencil cell is None."""
    row = values[i]
    lo, mid, hi = row[k - 1], row[k], row[k + 1]
    prod = neighbor_product(values, neighbors[i], k)
    if lo is None or mid is None or hi is None or prod is None:
        return None
    lhs = mid * mid
    f = lhs - (lo * hi + prod)
    return f, abs(f) / (lhs if lhs > 1 else 1)


def residual(grid):
    """Normalized max violation of the recurrence over fully-present stencils;
    0 when there is none."""
    neighbors = qsolver._neighbor_rows(grid.root_system)
    values = mpf_table(mp_context(grid.precision_bits), grid.rows)
    worst = mpf_cell(grid, 1, 0) * 0
    for i in range(len(neighbors)):
        for k in range(1, grid.k_max):
            d = defect(values, neighbors, i, k)
            if d is not None:
                worst = max(worst, d[1])
    return worst


def theorem_report(ctx, grid):
    """qslab.qsolver.theorem_report on a built grid, its tolerances and
    violations formed with mpf operators."""
    rs = ctx.root_system
    label = rs.type_label
    level, l = ctx.level, ctx.shifted_level
    checks = []
    scales = mpf_table(ctx.mp, grid.scales)
    zero = ctx.mp.mpf(0)

    for i in range(1, rs.rank + 1):
        # (i) recurring zeros on [level+1, l-1]
        worst = zero
        missing = False
        for k in range(level + 1, l):
            c = mpf_cell(grid, i, k)
            if c is None:
                missing = True
                continue
            r = abs(c) / scales[i - 1][k]
            worst = max(worst, r)
        ok = not missing and worst <= ZERO_WINDOW_TOL
        checks.append(_mk_check(
            "zero_window", i, ok, is_proven(label, "zero_window", i), worst,
            note="unresolved cells in window" if missing else ""))

        # (ii) symmetry on [0, level]
        worst = zero
        for k in range(0, level + 1):
            a, b = mpf_cell(grid, i, k), mpf_cell(grid, i, level - k)
            if a is None or b is None:
                worst = ctx.mp.inf
                break
            scale = max(scales[i - 1][k], scales[i - 1][level - k])
            worst = max(worst, abs(a - b) / scale)
        checks.append(_mk_check(
            "symmetry", i, worst <= REL_GAP_TOL,
            is_proven(label, "symmetry", i), worst))

        # (iii) positivity on [0, level]
        min_val = None
        for k in range(0, level + 1):
            c = mpf_cell(grid, i, k)
            val = c if c is not None else ctx.mp.ninf
            if min_val is None or val < min_val:
                min_val = val
        violation = max(zero, POSITIVITY_MARGIN - min_val)
        full_ok = min_val > POSITIVITY_MARGIN
        checks.append(_mk_check(
            "positivity", i, full_ok, is_proven(label, "positivity", i),
            violation, note=f"min value {render_note(min_val._mpf_, 8)}"))
        if i in type_data(label).positivity_window_nodes and not is_proven(label, "positivity", i):
            # The sub-range covered by theorems gets its own proven entry.
            worst_w = zero
            ok_w = True
            for k in range(0, level + 1):
                if proven_positivity_window(rs, i, level, k):
                    c = mpf_cell(grid, i, k)
                    val = c if c is not None else ctx.mp.ninf
                    if not val > POSITIVITY_MARGIN:
                        ok_w = False
                        worst_w = max(worst_w, POSITIVITY_MARGIN - val)
            checks.append(_mk_check("positivity_window", i, ok_w, True, worst_w))

        # (iv) strict increase on [0, floor(level/2) - 1]
        worst = zero
        for k in range(0, level // 2):
            a, b = mpf_cell(grid, i, k), mpf_cell(grid, i, k + 1)
            if a is None or b is None:
                worst = ctx.mp.inf
                break
            worst = max(worst, POSITIVITY_MARGIN - (b - a))
        checks.append(_mk_check(
            "unimodality", i, worst <= zero,
            is_proven(label, "unimodality", i), max(worst, zero)))

        # boundary Q_level = 1
        c = mpf_cell(grid, i, level)
        if c is None:
            dev = ctx.mp.inf
        else:
            dev = abs(c - 1) / scales[i - 1][level]
        checks.append(_mk_check(
            "boundary_one", i, dev <= REL_GAP_TOL,
            is_proven(label, "boundary_one", i), dev))

    # (anti)periodicity and the k = l sign, at the closed-form rows only;
    # both signs are (-1)^delta.
    for i in type_data(label).direct_nodes:
        sign = -1 if delta(rs, i) % 2 else 1
        worst = zero
        for k in range(0, min(level, 3) + 1):
            a = mpf_qreal(ctx, chari_qdim(i, k, ctx))
            b = mpf_qreal(ctx, chari_qdim(i, k + l, ctx))
            scale = max(a.magnitude_scale, b.magnitude_scale)
            worst = max(worst, abs(b.value - sign * a.value) / scale)
        checks.append(_mk_check("periodicity", i, worst <= REL_GAP_TOL, True, worst,
                                note=f"sign {sign:+d}"))

        c = mpf_cell(grid, i, l)
        dev = ctx.mp.inf if c is None else abs(c - sign) / scales[i - 1][l]
        checks.append(_mk_check("shifted_boundary_sign", i, dev <= REL_GAP_TOL, True,
                                dev, note=f"expected {sign:+d}"))

    return checks


def dilog_args(grid):
    """The ratios prod_{j~i} Q_k(j) / Q_k(i)^2 over the restricted range."""
    neighbors = qsolver._neighbor_rows(grid.root_system)
    values = mpf_table(mp_context(grid.precision_bits), grid.rows)
    ks = range(grid.level + 1)
    for i, row in enumerate(values, 1):
        for k in ks:
            if row[k] is None or not row[k] > 0:
                raise ValueError(f"grid cell (node {i}, k={k}) is not positive")
    return {(i + 1, k): neighbor_product(values, neighbors[i], k) / (row[k] * row[k])
            for i, row in enumerate(values) for k in ks}


def dilog_args_margin(args: dict[tuple[int, int], object], level: int):
    """Smallest distance of the interior ratios to the ends of (0, 1).

    Boundary columns k = 0 and k = level equal 1 and are excluded.  Returns
    None when there is no interior.
    """
    worst = None
    for (_, k), x in args.items():
        if k == 0 or k == level:
            continue
        m = min(x, 1 - x)
        if worst is None or m < worst:
            worst = m
    return worst


def rel_gap(a, b):
    """|a - b| / max(|a|, |b|, 1), of two mpf numbers or two Fractions."""
    return abs(a - b) / max(abs(a), abs(b), 1)


def grid_checks(ctx, grid):
    """The checks of qslab.report's grid group, decided with mpf operators."""
    res = mp_context(grid.precision_bits).make_mpf(raw(grid.residual_max))
    out = [_mk_check("grid_residual", None, res <= FULL_GRID_RESIDUAL_TOL, True, res,
                     note=f"k_max={grid.k_max}"),
           _mk_check("grid_unresolved", None, not grid.unresolved, True, None,
                     note=f"unresolved cells {grid.unresolved}" if grid.unresolved else "")]
    kleber_tables = type_data(ctx.root_system.type_label).kleber_q1
    if kleber_tables:
        worst = ctx.mp.mpf(0)
        for node in kleber_tables:
            direct = krchar.qdim_kr(krchar.kleber_q1(ctx.root_system, node), ctx)
            cell = mpf_cell(grid, node, 1)
            if cell is None:
                worst = ctx.mp.inf
                continue
            worst = max(worst, rel_gap(mpf(ctx.mp, direct._v), cell))
        out.append(_mk_check("kleber_cross_check", None, worst <= REL_GAP_TOL, True, worst))
    return out


def solve_checks(ctx, grid):
    """The checks of qslab.report's solve group, decided with mpf operators
    on the grid of qslab.qsolver.solve_restricted."""
    try:
        solved = qsolver.solve_restricted(ctx, SOLVER_TOLERANCE)
    except (qsolver.SolverDivergence, ValueError) as exc:
        return [_mk_check("solver_residual", None, False, True, None, note=str(exc))]
    res = ctx.mp.make_mpf(raw(solved.residual_max))
    out = [_mk_check("solver_residual", None, res <= ctx.mp.mpf(SOLVER_TOLERANCE), True, res)]
    worst = ctx.mp.mpf(0)
    for i in range(1, ctx.root_system.rank + 1):
        for k in range(0, ctx.level + 1):
            a = mpf_cell(grid, i, k)
            b = mpf_cell(solved, i, k)
            if a is None:
                worst = ctx.mp.inf
                continue
            worst = max(worst, rel_gap(a, b))
    out.append(_mk_check("two_path_agreement", None, worst <= REL_GAP_TOL, True, worst))
    return out


def dilog_checks(report, ctx, grid):
    """qslab.report's dilog group with mpf operators and the mpf formulas
    here for the arguments, their margin and the sum."""
    proven = type_data(ctx.root_system.type_label).dilog_proven
    try:
        args = dilog_args(grid)
    except ValueError as exc:
        report.dilog_in_range = False
        return [_mk_check("dilog_args", None, False, proven, None, note=str(exc))]
    margin = dilog_args_margin(args, ctx.level)
    ok = margin is None or margin > DILOG_MARGIN
    checks = [_mk_check("dilog_args", None, ok, proven,
                        None if margin is None else max(ctx.mp.mpf(0), DILOG_MARGIN - margin),
                        note="no interior cells" if margin is None
                        else f"min distance to {{0,1}}: {render_note(margin._mpf_, 8)}")]
    report.dilog_in_range = bool(ok)
    if margin is not None and margin <= 0:
        return checks
    total = dilog_sum(grid, ctx, args)
    checks.append(_mk_check("dilog_sum", None, True, True, None,
                            note=f"normalized sum {render_note(total._mpf_, 12)}"))
    report.dilog_sum = total
    return checks


def li2_power_series(x, mp):
    """Li2(x) for 0 < x < 1, rounded once to nearest at the context's precision.

    Reflects to y = min(x, 1 - x) <= 1/2 through
    Li2(x) = pi^2/6 - log x log(1 - x) - Li2(1 - x), then sums y^n/n^2 on
    Python ints in fixed point.  The working precision grows with -log2 y, so
    a tiny argument keeps its full relative precision; every libmp call takes
    an explicit precision, so mpmath's global state is never read.
    """
    xm = x._mpf_
    ym = mpf_sub(fone, xm)  # exact: no rounding at prec 0
    reflect = mpf_lt(ym, xm)
    if not reflect:
        ym = xm
    _, _, exp, bc = ym
    wp = mp.prec + 40 + max(0, -(exp + bc))
    y = to_fixed(ym, wp)
    total, power, n = 0, y, 1
    while power:
        total += power // (n * n)
        n += 1
        power = (power * y) >> wp
    if reflect:
        pi = to_fixed(mpf_pi(wp), wp)
        logs = (to_fixed(mpf_log(xm, wp), wp) * to_fixed(mpf_log(ym, wp), wp)) >> wp
        total = ((pi * pi) >> wp) // 6 - logs - total
    return mp.make_mpf(from_man_exp(total, -wp, mp.prec, round_nearest))


def dilog_sum(grid, ctx, args=None):
    """(6/pi^2) sum of Rogers dilogarithms of the interior ratios.

    ``args`` are the grid's ``dilog_args``, computed here when omitted.
    Diagnostic output only; no closed-form value is asserted for it.
    """
    mp = ctx.mp
    if args is None:
        args = dilog_args(grid)
    total = mp.mpf(0)
    for (i, k) in sorted(args):
        if k == 0 or k == grid.level:
            continue
        x = args[(i, k)]
        if not (0 < x < 1):
            raise ValueError(f"dilogarithm argument {render_note(x._mpf_, 8)} outside (0, 1)")
        total += li2_power_series(x, mp) + mp.log(x) * mp.log(1 - x) / 2
    return 6 / mp.pi ** 2 * total
