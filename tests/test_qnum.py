from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath.libmp import (fone, from_float, from_man_exp, fzero, mpf_abs, mpf_add, mpf_cmp,
                          mpf_div, mpf_gt, mpf_mul, mpf_mul_int, mpf_pos, mpf_sub, round_nearest,
                          to_float)

import qslab
from qslab import krchar, qnum, qsolver
from qslab.krchar import chari_decomposition, kleber_q1
from qslab.qnum import (
    ZERO,
    LevelContext,
    QReal,
    abs_triple,
    add_triples,
    cmp_triples,
    div_triples,
    float_triple,
    mp_context,
    mul_triples,
    qdim,
    qdim_classical,
    qdim_line,
    qdim_unmemoized,
    round_triple,
    triple_float,
)
from qslab.qsolver import build_qgrid
from qslab.report import RunConfig, run
from qslab.rootsys import delta, fundamental_weight, type_data

from oracles import (MpfQReal, pairing, raw, reference_ratio_rows, reference_support_plan,
                     sin_pi_over_l, sine_fold, sine_signature, triple, zero_tolerance)


def fw(rs, node, mult=1):
    return fundamental_weight(rs.rank, node, mult)


def test_qdim_trivial_weight(rs_map):
    for rs in rs_map.values():
        ctx = LevelContext(rs, 4)
        q = qdim((0,) * rs.rank, ctx)
        assert q.value == 1


def test_qdim_rejects_non_dominant(e6):
    ctx = LevelContext(e6, 4)
    with pytest.raises(ValueError):
        qdim((-1, 0, 0, 0, 0, 0), ctx)


def test_qdim_rejects_non_integer_coordinates(e6):
    # a coordinate is taken only when it equals its int: 1.5 is not w1 and
    # '2' is not 2, before and after w1 enters the memo; 1.0 is 1
    ctx, w1 = LevelContext(e6, 4), fw(e6, 1)
    bad = [(1.5, 0, 0, 0, 0, 0), ("2", 0, 0, 0, 0, 0), (0, 0.5, 0, 0, 0, 0)]
    for weight in bad:
        for f in (qdim, qnum.qdim_unmemoized):
            with pytest.raises(ValueError, match="integers"):
                f(weight, ctx)
        with pytest.raises(ValueError, match="integers"):
            qdim_classical(e6, weight)
    # a miss stores 1.0's value under the int weight, which a hit returns
    one = qdim((1.0, 0, 0, 0, 0, 0), ctx)
    assert one._v == qnum.qdim_unmemoized(w1, ctx)[0]._v
    assert qdim(w1, ctx) is one and qdim((1.0, 0, 0, 0, 0, 0), ctx) is one
    assert all(type(c) is int for key in ctx._qdim_cache for c in key)
    for weight in bad:
        with pytest.raises(ValueError, match="integers"):
            qdim(weight, ctx)
    assert qdim_classical(e6, (1.0, 0, 0, 0, 0, 0)) == 27


def test_qdim_shifted_adjoint_signs(e6, e7):
    # at l times the adjoint fundamental weight the product collapses to
    # (-1)**delta: +1 in E6 (even), -1 in E7 (odd)
    ctx6 = LevelContext(e6, 3)
    v6 = qdim(fw(e6, 2, ctx6.shifted_level), ctx6)
    assert abs(v6.value - 1) < Fraction(1, 10**30)
    ctx7 = LevelContext(e7, 3)
    v7 = qdim(fw(e7, 2, ctx7.shifted_level), ctx7)
    assert abs(v7.value + 1) < Fraction(1, 10**30)
    assert delta(e6, 2) % 2 == 0
    assert delta(e7, 2) % 2 == 1


@pytest.mark.parametrize("level", [3, 5, 7])
def test_qdim_exact_zero_on_wall_e6(e6, level):
    ctx = LevelContext(e6, level)
    q = qdim(fw(e6, 2, (level + 1) // 2), ctx)
    assert q.value == 0  # exact zero from the integer congruence


def test_qdim_exact_zero_iff_congruence(e6):
    ctx = LevelContext(e6, 2)
    l = ctx.shifted_level
    import itertools

    for coeffs in itertools.product(range(3), repeat=3):
        w = coeffs + (0, 0, 0)
        shifted = tuple(c + 1 for c in w)
        congruent = any(
            pairing(e6, shifted, i) % l == 0 for i in range(len(e6.positive_roots))
        )
        assert (qdim(w, ctx).value == 0) == congruent


def test_qdim_classical_values(rs_map):
    e6, e7, e8 = rs_map["E6"], rs_map["E7"], rs_map["E8"]
    assert qdim_classical(e6, (0,) * 6) == 1
    assert qdim_classical(e6, fw(e6, 1)) == 27
    # adjoint dimension is rank + number of roots
    for rs in rs_map.values():
        assert qdim_classical(rs, rs.theta_weight) == rs.rank + 2 * len(rs.positive_roots)
    assert qdim_classical(e8, rs_map["E8"].theta_weight) == 248
    assert qdim_classical(e7, fw(e7, 7)) == 56


def test_qdim_approaches_classical_dimension(e6):
    ctx = LevelContext(e6, 200)
    for w in [fw(e6, 1), fw(e6, 6)]:
        quantum = qdim(w, ctx).value
        classical = qdim_classical(e6, w)
        assert abs(quantum / classical - 1) < 1e-2


def test_qdim_precision_stability(e7):
    w = (0, 0, 1, 0, 0, 0, 1)  # inside the level-5 alcove, so nonzero
    v128 = qdim(w, LevelContext(e7, 5, precision_bits=128)).value
    v256 = qdim(w, LevelContext(e7, 5, precision_bits=256)).value
    rel = abs(v128 - v256) / abs(v256)
    assert rel < 2.0 ** -64


def test_qdim_memo_returns_identical_object(e6):
    ctx = LevelContext(e6, 4)
    assert qdim(fw(e6, 1), ctx) is qdim(fw(e6, 1), ctx)


def _reference_qdim(weight, ctx):
    """qdim by the textbook route: a full pairing per positive root and a
    product in mpmath at 4p bits, rounded once to the context's precision."""
    rs = ctx.root_system
    factors = []
    for b, ht in zip(rs.positive_roots, rs.heights):
        lam = sum(wi * bi for wi, bi in zip(weight, b))
        if lam != 0:
            factors.append((lam + ht, ht))
    return sine_fold(ctx, factors)


def _random_dominant_weights(rs, l, seed, count=200):
    """Distinct weights with one to three nonzero coordinates, each 1, 2 or up
    to l/3: walls, where a pairing reaches a multiple of l, and interiors."""
    rng = random.Random(seed)
    weights = {}
    while len(weights) < count:
        w = [0] * rs.rank
        for j in rng.sample(range(rs.rank), rng.randint(1, 3)):
            w[j] = rng.randint(1, rng.choice((1, 2, l // 3)))
        weights[tuple(w)] = None
    return list(weights)


@pytest.mark.parametrize("label", ["E6", "E7", "E8"])
def test_qdim_bits_match_reference_fold(rs_map, label):
    # the sparse pairings and the fixed-point kernel give the product and
    # its scale correctly rounded: mpmath's at 4p bits rounded once, at
    # every precision and whatever the global mpmath precision
    rs = rs_map[label]
    for bits in (128, 256):
        ref_ctx = LevelContext(rs, 5, precision_bits=bits)
        weights = _random_dominant_weights(rs, ref_ctx.shifted_level, seed=bits)
        reference = [_reference_qdim(w, ref_ctx) for w in weights]
        zeros = sum(1 for value, _ in reference if value == 0)
        assert 30 <= zeros <= len(weights) - 30, zeros  # walls and interiors
        for global_prec in (None, 20):
            ctx = LevelContext(rs, 5, precision_bits=bits)
            if global_prec is None:
                got = [qdim(w, ctx) for w in weights]
            else:
                with mpmath.workprec(global_prec):
                    got = [qdim(w, ctx) for w in weights]
            for w, q, (value, scale) in zip(weights, got, reference):
                assert raw(q._v) == value._mpf_, (label, bits, w)
                assert raw(q._s) == scale._mpf_, (label, bits, w)


def _grid_weights(rs, l):
    """Every weight of the closed-form rows the grid reads, out to the box
    counts k <= l + 3 of the periodicity check, and of Kleber's tables."""
    td = type_data(rs.type_label)
    decs = [chari_decomposition(rs, node, k) for node in td.direct_nodes for k in range(l + 4)]
    decs += [kleber_q1(rs, node) for node in td.kleber_q1]
    return list({w: None for dec in decs for _, w in dec.terms})


@pytest.mark.parametrize("label,level", [("E7", 28), ("E8", 24)])
def test_qdim_bits_match_reference_fold_on_every_grid_weight(rs_map, label, level):
    # every weight of the grid's closed-form rows, zeros included
    rs = rs_map[label]
    for bits in (97, 256):
        ctx = LevelContext(rs, level, precision_bits=bits)
        weights = _grid_weights(rs, ctx.shifted_level)
        assert len(weights) > 1000
        for w in weights:
            q, (value, scale) = qdim(w, ctx), _reference_qdim(w, ctx)
            assert raw(q._v) == value._mpf_, (bits, w)
            assert raw(q._s) == scale._mpf_, (bits, w)


@pytest.mark.parametrize("label,level", [("E7", 12), ("E8", 8)])
def test_qdim_zeros_by_congruence_match_the_full_pairing_list(rs_map, label, level, monkeypatch):
    # qdim decides a zero by one height lookup per group of support roots
    # and folds the support roots' factors only; a pairing with every
    # positive root gives the same zeros and the same bits on every weight
    # of the grid's closed-form rows
    rs = rs_map[label]
    ctx = LevelContext(rs, level)
    weights = _grid_weights(rs, ctx.shifted_level)
    zeros = 0
    for w in weights:
        q, (value, scale) = qdim(w, ctx), _reference_qdim(w, ctx)
        zeros += value == 0
        assert raw(q._v) == value._mpf_, w
        assert raw(q._s) == scale._mpf_, w
    assert 0 < zeros < len(weights)
    # the interior weights r w_a + (j - r) w_b, 0 < r < j, of the paired
    # shells (E7 node 2, E8 node 1), on every shell j <= l + 3 that the grid
    # and the periodicity check read, L1-40: the sine walk sees, in order of
    # r, the residues of exactly the weights with no weight + rho pairing to
    # a multiple of l with some positive root, and the shell's summed
    # interior term has scale (j - 1) 2**W, each walk here giving 2**W and
    # each zero adding 2**W; the full walk is too slow here, so only the
    # zeros are compared
    ((node, pair),) = type_data(label).paired_shells.items()
    a, b = pair
    roots = [(beta[a], beta[b], ht) for beta, ht in zip(rs.positive_roots, rs.heights)]
    walked = []

    def walk(ctx, steps, res, w):
        walked.append((steps, tuple(res)))
        return (1 << w,) * 3

    monkeypatch.setattr(qnum, "_ratio_walk", walk)
    seen = set()
    for lev in range(1, 41):
        ctx = LevelContext(rs, lev)
        l, plan = ctx.shifted_level, qnum.support_plan(ctx, pair)
        for j in range(l + 4):
            walked.clear()
            terms = krchar._shell_terms(node, j, ctx)
            zero = [any((r * ca + (j - r) * cb + ht) % l == 0 for ca, cb, ht in roots)
                    for r in range(1, j)]
            want = [tuple((r * va + (j - r) * vb) % l for va, vb in plan[0])
                    for r, z in zip(range(1, j), zero) if not z]
            assert [res for steps, res in walked if steps is plan[1]] == want, (lev, j)
            if j > 1:
                assert len(terms) == 3 and terms[2][1] == j - 1 << ctx.term_width, (lev, j)
                seen.add((all(zero), any(zero)))
    # shells with no zero interior, some and only zeros
    assert seen >= {(False, False), (False, True), (True, True)}, seen


@pytest.mark.parametrize("label,levels", [("E7", (*range(1, 13), 28)),
                                          ("E8", (*range(1, 9), 16))])
def test_progression_terms_sum_the_plan_qdim_terms(rs_map, label, levels, monkeypatch):
    # a paired shell's interior in one pass, its walks unrounded, equals the
    # exact sum of its weights' plan_qdim row terms, bit for bit, on every
    # paired shell j <= l + 3; an all-zero shell gives (0, (j - 1) 2**W).
    # It does so too when each weight's first walk is off by a unit and has
    # too small a least partial product, so that every nonzero weight takes
    # _walk_terms' retry
    rs = rs_map[label]
    ((_, pair),) = type_data(label).paired_shells.items()
    all_zero, walks, real_walk = 0, [], qnum._ratio_walk

    def first_walk_short(ctx, steps, res, w):
        x, hi, lo = real_walk(ctx, steps, res, w)
        first = not walks or walks[-1] != (w, tuple(res))
        walks.append((w, tuple(res)))
        return (x + 1, hi + 1, 1) if first else (x, hi, lo)

    for lev in levels:
        ctx = LevelContext(rs, lev)
        plan = qnum.support_plan(ctx, pair)
        for j in range(2, ctx.shifted_level + 4):
            dots = [[r * va + (j - r) * vb for va, vb in plan[0]] for r in range(1, j)]
            terms = [qnum.plan_qdim(plan, d, ctx)[1] for d in dots]
            want = tuple(map(sum, zip(*terms)))
            step = [va - vb for va, vb in plan[0]]
            assert qnum.progression_terms(plan, dots[0], step, j - 1, ctx) == want, (lev, j)
            walks.clear()
            with monkeypatch.context() as m:
                m.setattr(qnum, "_ratio_walk", first_walk_short)
                assert qnum.progression_terms(plan, dots[0], step, j - 1, ctx) == want, (lev, j)
            nonzero = sum(t != (0, 1 << ctx.term_width) for t in terms)
            assert len(walks) == 2 * nonzero and walks[::2] == walks[1::2], (lev, j)
            if not nonzero:
                all_zero += 1
                assert want == (0, j - 1 << ctx.term_width)
    assert all_zero > 0


@pytest.mark.parametrize("label,level", [("E6", 30), ("E7", 28), ("E8", 16)])
def test_verify_builds_each_row_once_and_the_reference_plans(label, level, monkeypatch):
    # a full verify makes each width's ratio rows once per context (one
    # sine table each), and every support plan it builds, one-node, paired
    # and (E7) Kleber supports alike, equals the root-by-root reference.
    # The one-node supports are those of the orbit representatives of the
    # diagram's automorphisms: E6's nodes 6 and 5 take nodes 1 and 3's rows
    contexts, tables, rows = [], [], {}
    real_init, real_rows = LevelContext.__init__, LevelContext._ratio_rows
    real_sines = qnum._abs_sines

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        contexts.append(self)

    def sines(*args):
        tables.append(args)
        return real_sines(*args)

    def ratio_rows(self, w):
        got = real_rows(self, w)
        assert rows.setdefault((self, w), got) is got
        return got

    monkeypatch.setattr(LevelContext, "__init__", init)
    monkeypatch.setattr(LevelContext, "_ratio_rows", ratio_rows)
    monkeypatch.setattr(qnum, "_abs_sines", sines)
    run(RunConfig(type_label=label, level=level))
    monkeypatch.undo()
    assert rows and len(tables) == len(rows)
    plans = {(ctx, s): plan for ctx in contexts for s, plan in ctx._plans.items()}
    assert all(plan == reference_support_plan(ctx, s) for (ctx, s), plan in plans.items())
    supports = {s for _, s in plans}
    orbits = qsolver._orbits(contexts[0].root_system)
    assert {s for s in supports if len(s) == 1} == {(orbit[0] - 1,) for orbit in orbits}
    assert set(type_data(label).paired_shells.values()) <= supports
    for _, weight in (t for table in type_data(label).kleber_q1.values() for t in table):
        assert tuple(j for j, c in enumerate(weight) if c) in supports | {()}, weight


def test_grid_skips_qdim_on_paired_shell_interiors(e7, monkeypatch):
    # the interior weights r w2 + (j - r) w7, 0 < r < j, of E7 node 2's
    # shells are evaluated from their support plan: no qdim or qdim_line
    # call sees one, and the sine walk runs once per distinct nonzero weight
    ctx = LevelContext(e7, 28)
    qdim_weights, kernel_calls = [], []
    real_qdim, real_line, real_kernel = qnum.qdim, qnum.qdim_line, qnum._ratio_walk

    def counted_qdim(weight, c):
        qdim_weights.append(tuple(weight))
        return real_qdim(weight, c)

    def counted_line(node, k, c):
        qdim_weights.append(fundamental_weight(e7.rank, node, k))
        return real_line(node, k, c)

    def counted_kernel(*args):
        kernel_calls.append(args)
        return real_kernel(*args)

    monkeypatch.setattr(qnum, "qdim", counted_qdim)
    monkeypatch.setattr(qnum, "qdim_line", counted_line)
    monkeypatch.setattr(krchar, "qdim_line", counted_line)
    monkeypatch.setattr(qnum, "_ratio_walk", counted_kernel)
    build_qgrid(ctx)
    monkeypatch.undo()
    interior = {w for i, k in ctx._chari_rows if i == 2
                for _, w in chari_decomposition(e7, 2, k).terms if w[1] and w[6]}
    assert len(interior) > 900
    assert qdim_weights and not interior & set(qdim_weights)
    ref_ctx = LevelContext(e7, 28)
    nonzero = {w for w in interior | set(qdim_weights) if qdim(w, ref_ctx).value != 0}
    assert len(kernel_calls) == len(nonzero) > 100



@pytest.mark.parametrize("label,level", [("E6", 4), ("E7", 12), ("E8", 8)])
@pytest.mark.parametrize("bits", [64, 128, 256])
def test_qdim_line_equals_qdim_unmemoized(rs_map, label, level, bits):
    # a memo miss of qdim_line goes straight to its one-node plan: value,
    # scale and row term equal qdim_unmemoized's of k w_node, for every node
    # and k <= l + 3, and the memo holds that one entry per weight
    rs = rs_map[label]
    ctx = LevelContext(rs, level, bits)
    for node in range(1, rs.rank + 1):
        for k in range(ctx.shifted_level + 4):
            w = fundamental_weight(rs.rank, node, k)
            value, term = qdim_unmemoized(w, ctx)
            got = qdim_line(node, k, ctx)
            assert (got._v, got._s) == (value._v, value._s), (node, k)
            entry = ctx._qdim_cache[w]
            assert entry[0] is got and entry[1] == term, (node, k)
    assert len(ctx._qdim_cache) == rs.rank * (ctx.shifted_level + 3) + 1
    # every refusal of a public call stays: qdim's and fundamental_weight's
    for node, k, match in ((0, 1, "node 0 out of range"),
                           (rs.rank + 1, 1, f"node {rs.rank + 1} out of range"),
                           (1, -1, "requires a dominant weight"),
                           (1, 1.5, "must be integers")):
        with pytest.raises(ValueError, match=match):
            qdim_line(node, k, LevelContext(rs, level, bits))


def test_zero_line_weight_takes_the_node_plan(rs_map, monkeypatch):
    # with qdim refusing every call, qdim_line(node, 0) at every node equals
    # qdim_unmemoized of the weight 0, value, scale and row term, through
    # the node's one-node plan; and a grid build with every node's alcove
    # line never calls qdim
    def no_qdim(*args):
        raise AssertionError("qdim called")

    for label, rs in rs_map.items():
        zero = (0,) * rs.rank
        for level in (1, 2, 5, 16, 30):
            for bits in (64, 128, 256):
                value, term = qdim_unmemoized(zero, LevelContext(rs, level, bits))
                for node in range(1, rs.rank + 1):
                    ctx = LevelContext(rs, level, bits)
                    with monkeypatch.context() as m:
                        m.setattr(qnum, "qdim", no_qdim)
                        got = qdim_line(node, 0, ctx)
                    assert (got._v, got._s) == (value._v, value._s) == (ctx.one._v, ctx.one._s)
                    assert ctx._qdim_cache[zero] == (got, term), (label, level, bits, node)
                    assert (node - 1,) in ctx._plans
        ctx = LevelContext(rs, {"E6": 4, "E7": 6, "E8": 4}[label])
        with monkeypatch.context() as m:
            m.setattr(qnum, "qdim", no_qdim)
            build_qgrid(ctx)
            for node in range(1, rs.rank + 1):
                qnum.alcove_line(node, ctx)
        assert zero in ctx._qdim_cache


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_ratio_rows_are_made_once_per_width_from_the_half_period(rs_map, bits, monkeypatch):
    # each width's rows, one per root height 0 < ht < h, are made once per
    # context from one half-period sine table, and equal the reference's
    # quotients entry by entry, for odd and even l, heights past l / 2
    # included (L1)
    tables, real_sines = [], qnum._abs_sines
    monkeypatch.setattr(qnum, "_abs_sines", lambda *args: tables.append(args) or real_sines(*args))
    for rs in rs_map.values():
        for level in (1, 2, 30):
            ctx = LevelContext(rs, level, bits)
            l, h = ctx.shifted_level, rs.coxeter_number
            for w in (ctx.term_width, 2 * ctx.term_width + 7):
                tables.clear()
                rows = ctx._ratio_rows(w)
                assert ctx._ratio_rows(w) is rows and tables == [(l, w + w.bit_length() + 4)]
                assert rows == reference_ratio_rows(l, h, w), (rs, level, w)


def _product(ctx, factors):
    """The sine-product kernel on (num, den) pairs, 0 < den < l: a plan of
    one group per pair, of pairing num - den, and one step of height den,
    whose numerator passes (q + 1) l from residue l - den on.  The
    context's rows, made for the root heights den < h, go on to every den <
    l with the reference rows, which they equal (``reference_ratio_rows``)."""
    l, h = ctx.shifted_level, ctx.root_system.coxeter_number
    ctx._ratio_rows = lambda w: LevelContext._ratio_rows(ctx, w) + reference_ratio_rows(l, l, w)[h:]
    rows = ctx._ratio_rows(ctx.precision_bits + qnum.GUARD_BITS)
    steps = [(g, den, rows[den]) for g, (_, den) in enumerate(factors)]
    signs = [(1, [None if den == l - r else int(den > l - r) for r in range(l)])
             for _, den in factors]
    c = len(steps) * (6 * l + 2)
    least = (1 << ctx.precision_bits + 34 + c.bit_length()).bit_length()
    plan = ((), steps, signs, c, least)
    return qnum.plan_qdim(plan, [num - den for num, den in factors], ctx)[0]


@st.composite
def _factor_lists(draw):
    """(level, bits, factors): (num, den) pairs, no numerator a multiple of
    l.  A quarter of the draws take up to 40 at random; a quarter make
    numerators near multiples of l and denominators near l/2, products far
    below 1; a quarter repeat one factor 40 times, products far from 1; and
    a quarter follow 20 to 45 such small factors with their inverses, a
    product of exactly +-1 whose partial products dip far below 1."""
    level = draw(st.integers(1, 60))
    bits = draw(st.sampled_from([64, 97, 128, 256]))
    l = level + 12  # E6
    kind = draw(st.integers(0, 3))
    if kind in (1, 3):
        small = st.tuples(st.sampled_from([1, l - 1, l + 1, 2 * l - 1, -1]),
                          st.integers(l // 2 - 1, l // 2 + 1))
        factors = draw(st.lists(small, min_size=20 if kind == 3 else 0, max_size=45))
        if kind == 3:
            factors += [(den, num % l) for num, den in factors]
        return level, bits, factors
    num = st.integers(-3 * l, 3 * l).filter(lambda n: n % l)
    factors = draw(st.lists(st.tuples(num, st.integers(1, l - 1)), max_size=40))
    return level, bits, factors[:1] * 40 if kind == 2 else factors


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_factor_lists())
def test_sine_product_is_correctly_rounded(e6, case):
    # value and scale are mpmath's product at 4p bits rounded once, with
    # the sign taken by the parity of the negative numerators
    level, bits, factors = case
    ctx = LevelContext(e6, level, precision_bits=bits)
    value, scale = sine_fold(ctx, factors)
    got = _product(ctx, factors)
    assert (raw(got._v), raw(got._s)) == (value._mpf_, scale._mpf_), factors


@pytest.mark.parametrize("bits", [64, 97, 128])
def test_tiny_guard_takes_the_wider_pass_to_the_same_bits(e8, monkeypatch, bits):
    # with 2 guard bits the first pass cannot round most products; the
    # wider passes give every triple that the default guard gives
    weights = [fw(e8, i, k) for i in range(1, 9) for k in range(1, 6)]
    weights += [(0, 1, 0, 0, 0, 0, 2, 0), (1, 0, 1, 0, 0, 1, 0, 1), (3, 0, 0, 0, 0, 0, 0, 7)]
    want = [qdim(w, LevelContext(e8, 16, bits)) for w in weights]
    widths = set()
    real_rows = LevelContext._ratio_rows

    def ratio_rows(self, w):
        widths.add(w)
        return real_rows(self, w)

    monkeypatch.setattr(qnum, "GUARD_BITS", 2)
    monkeypatch.setattr(LevelContext, "_ratio_rows", ratio_rows)
    ctx = LevelContext(e8, 16, bits)
    got = [qdim(w, ctx) for w in weights]
    monkeypatch.undo()
    assert [(q._v, q._s) for q in got] == [(q._v, q._s) for q in want]
    assert min(widths) == bits + 2 and len(widths) > 1, widths


@pytest.mark.parametrize("bits", [64, 97, 128, 256])
def test_sine_product_rounds_quotients_like_libmp(e6, bits):
    # a one-step product is a quotient of two sines: libmp's mpf_div of the
    # 4p-bit sines, rounded to nearest at p bits, and its scale that
    # quotient's magnitude or 1, at every numerator and denominator, for
    # odd and even l
    for level in (1, 4):
        ctx = LevelContext(e6, level, precision_bits=bits)
        l = ctx.shifted_level
        wide = [sin_pi_over_l(LevelContext(e6, level, 4 * bits), r)._mpf_ for r in range(2 * l)]
        for num in range(2 * l):
            for den in range(1, l) if num % l else ():
                want = mpf_div(wide[num], wide[den], bits, round_nearest)
                got = _product(ctx, [(num, den)])
                assert raw(got._v) == want, (l, num, den)
                scale = mpf_abs(want) if mpf_gt(mpf_abs(want), fone) else fone
                assert raw(got._s) == scale, (l, num, den)


def test_ratio_rows_are_per_precision(e8):
    # qdim calls at three precisions, interleaved in one process, each give
    # the bits of the reference at that precision
    weights = [fw(e8, i, k) for i in range(1, 9) for k in range(1, 4)]
    weights += [(0, 1, 0, 0, 0, 0, 2, 0), (1, 0, 1, 0, 0, 1, 0, 1)]
    precisions = (64, 128, 256)
    fresh = {bits: [_reference_qdim(w, LevelContext(e8, 16, bits)) for w in weights]
             for bits in precisions}
    ctxs = {bits: LevelContext(e8, 16, bits) for bits in precisions}
    for n, w in enumerate(weights):
        for bits in precisions:
            got = qdim(w, ctxs[bits])
            value, scale = fresh[bits][n]
            assert (raw(got._v), raw(got._s)) == (value._mpf_, scale._mpf_), (bits, w)


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_sine_table_matches_sinpi(rs_map, bits):
    # entry r of the row of height ht is |sin(pi (r + ht) / l)| / sin(pi ht
    # / l) 2**w by mp.sinpi within l units per unit of ratio, exactly 2**w
    # where the ratio is 1 and 0 where the numerator is, the entries of j
    # and l - j equal; one list of rows per w, a row per height 0 < ht < h,
    # for odd and even l
    for rs in rs_map.values():
        for level in (1, 2, 30):
            ctx = LevelContext(rs, level, precision_bits=bits)
            l, w = ctx.shifted_level, bits + qnum.GUARD_BITS
            hi = mp_context(w + 64)
            sines = [abs(hi.sinpi(hi.mpf(r) / l)) for r in range(l)]
            rows = ctx._ratio_rows(w)
            assert len(rows) == rs.coxeter_number and ctx._ratio_rows(w) is rows
            for ht in range(1, rs.coxeter_number):
                row = rows[ht]
                assert len(row) == l
                assert all(row[(j - ht) % l] == row[(-j - ht) % l] for j in range(l))
                for r, got in enumerate(row):
                    j = (r + ht) % l
                    ratio = sines[j] / sines[ht]
                    assert abs(got - hi.ldexp(ratio, w)) <= l * ratio, (rs, l, ht, r)
                    assert got == 1 << w if j in (ht, l - ht) else j or got == 0


def test_qdim_line_matches_qdim_on_dominant_range(e7):
    ctx = LevelContext(e7, 4)
    for k in range(0, 8):
        assert qdim_line(7, k, ctx) is qdim(fw(e7, 7, k), ctx)


def test_line_antiperiodicity_sign_e7_node7(e7):
    ctx = LevelContext(e7, 3)
    l = ctx.shifted_level
    for k in range(0, l):
        a = qdim_line(7, k, ctx)
        b = qdim_line(7, k + l, ctx)
        tol = zero_tolerance(ctx) * (a.magnitude_scale + b.magnitude_scale)
        assert abs(b.value + a.value) <= tol


def test_level_context_validation(e6):
    with pytest.raises(ValueError):
        LevelContext(e6, 0)
    with pytest.raises(ValueError):
        LevelContext(e6, 3, precision_bits=32)
    ctx = LevelContext(e6, 3)
    assert ctx.shifted_level == 15


def test_level_contexts_share_one_mp_context_per_precision(e6, e7):
    # a LevelContext takes its mpmath context from qnum's per-precision cache
    # instead of building one per operation
    a, b = LevelContext(e6, 3), LevelContext(e7, 5)
    c = LevelContext(e6, 3, precision_bits=256)
    assert a.mp is b.mp and a.mp is not c.mp
    assert (a.mp.prec, c.mp.prec) == (128, 256)


def test_sine_signature_fixes_the_sine_product(e7):
    # the signature is the product's sign and the multiset of its factors'
    # magnitudes, so it decides sign and magnitude exactly
    ctx = LevelContext(e7, 3)  # l = 21
    l = ctx.shifted_level
    rng = random.Random(5)
    for _ in range(300):
        pairings = [rng.randint(-3 * l, 3 * l) for _ in range(rng.randint(1, 8))]
        sign, folded = sine_signature(pairings, l)
        product = ctx.mp.fprod(sin_pi_over_l(ctx, p) for p in pairings)
        if any(p % l == 0 for p in pairings):
            assert (sign, folded) == (0, ())
            continue
        assert sorted(folded) == list(folded) and all(1 <= f <= l // 2 for f in folded)
        magnitude = ctx.mp.fprod(sin_pi_over_l(ctx, f) for f in folded)
        assert abs(product - sign * magnitude) <= 1e-35 * magnitude


def _seeded_pairs(mp, seed, count=400):
    """(value, scale) mpf pairs: negative, positive and zero values with
    scales above max(1, |v|), below |v| and below 1."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        if rng.random() < 0.15:
            v = mp.mpf(0)
        else:
            v = mp.ldexp(mp.mpf(rng.getrandbits(mp.prec) | 1), rng.randint(-40, 40) - mp.prec)
            v = -v if rng.random() < 0.5 else v
        kind = rng.randrange(3)
        if kind == 0:
            scale = max(abs(v), 1) * (1 + mp.mpf(rng.random()))
        elif kind == 1:
            scale = abs(v) * mp.mpf(rng.random())
        else:
            scale = mp.mpf(rng.random())
        pairs.append((v, scale))
    return pairs


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_qreal_arithmetic_matches_mpf_formulas(bits):
    # QReal's libmp arithmetic gives the bits of the mpf-operator formulas,
    # clamps included, at its context's precision whatever the global one
    mp = mp_context(bits)
    pairs = _seeded_pairs(mp, seed=bits)
    operands = list(zip(pairs, pairs[1:]))
    # both clamp branches, in products and in quotients
    raised = dict.fromkeys(("*|v|", "*1", "/|v|", "/1"), 0)
    for (va, sa), (vb, sb) in operands:
        for op, v, scale in [("*", va * vb, abs(va) * sb + abs(vb) * sa)] + (
                [("/", va / vb, (sa + abs(va / vb) * sb) / abs(vb))] if vb else []):
            raised[op + "|v|"] += scale < abs(v)
            raised[op + "1"] += max(scale, abs(v)) < 1
    assert min(raised.values()) > 20, raised
    for global_prec in (None, 20):
        for (va, sa), (vb, sb) in operands:
            a = QReal(triple(va, bits), triple(sa, bits), bits)
            b = QReal(triple(vb, bits), triple(sb, bits), bits)
            ra, rb = MpfQReal(va, sa), MpfQReal(vb, sb)
            if global_prec is None:
                got = [a - b, a * b] + ([a.div(b)] if vb else [])
            else:
                with mpmath.workprec(global_prec):
                    got = [a - b, a * b] + ([a.div(b)] if vb else [])
            ref = [ra - rb, ra * rb] + ([ra.div(rb)] if vb else [])
            for op, q, r in zip("-*/", got, ref):
                assert raw(q._v) == r.value._mpf_, (op, va, vb)
                assert raw(q._s) == r.magnitude_scale._mpf_, (op, va, sa, vb, sb)


@st.composite
def _triple_cases(draw):
    """(p, kind, a, b, n): p-bit triples a and b and an integer n >= 1.  The
    kind builds the rounding case: "plain" draws b at an exponent gap of 0 to
    beyond 2p below a; "add_tie" makes b half a unit in a's last place, so
    that a + b is a tie, and "add_carry" the tie 2**p - 1/2 as well;
    "mul_tie" makes a*b and a*n (n = 3) ties; "mul_carry" makes a*b the
    p + 1 ones that round to 2**p (when p + 1 is composite); "cancel" makes
    a - b zero; "zero" zeroes an operand.  The mantissa's parity, drawn
    freely, decides which way a tie goes."""
    p = draw(st.sampled_from([64, 97, 128, 256, 1024]))
    lo, hi = 1 << p - 1, 1 << p
    kind = draw(st.sampled_from(
        ["plain", "add_tie", "add_carry", "mul_tie", "mul_carry", "cancel", "zero"]))
    rng = draw(st.randoms(use_true_random=False))

    def mantissa():  # uniform, or one at the ends of the binade
        return rng.choice([lo, lo + 1, hi - 2, hi - 1, rng.randrange(lo, hi)])

    sa, sb, ea = rng.getrandbits(1), rng.getrandbits(1), rng.randint(-3 * p, 3 * p)
    # p + 2 is the least gap at which a + b rounds to a whatever b is
    gap = rng.choice([0, 1, p + 1, p + 2, rng.randrange(2 * p + 17), rng.randrange(2 * p + 17)])
    ma = mantissa()
    a, b = (sa, ma, ea), (sb, mantissa(), ea - gap)
    n = rng.choice([1, 2, 3, rng.randrange(1, 1 << 80)])
    if kind == "add_tie":
        b = (sa, lo, ea - p)
    elif kind == "add_carry":
        a, b = (sa, hi - 1, ea), (sa, lo, ea - p)
    elif kind == "mul_tie":
        # t = 3 ma 2**(p-2) drops p - 1 bits below 2**(2p-1), p bits above:
        # its dropped bits are 10...0 when 3 ma is odd, or 2 mod 4
        ma = ma | 1 if 3 * ma < 2 * hi else ma & -4 | 2
        a, b, n = (sa, ma, ea), (sb, 3 << p - 2, b[2]), 3
    elif kind == "mul_carry":
        d = next((d for d in range(2, p + 1) if (p + 1) % d == 0), None)
        assume(d is not None)
        # (2**d - 1) times (2**(p+1) - 1) / (2**d - 1): p + 1 ones
        q = ((1 << p + 1) - 1) // ((1 << d) - 1)
        a, b = (sa, ((1 << d) - 1) << p - d, ea), (sb, q << p - q.bit_length(), b[2])
    elif kind == "cancel":
        b = a
    elif kind == "zero":
        a, b = rng.choice([(ZERO, b), (a, ZERO), (ZERO, ZERO)])
    return p, kind, a, b, n


@settings(max_examples=700, deadline=None, derandomize=True, database=None)
@given(_triple_cases())
def test_triple_arithmetic_matches_libmp(case):
    # each operation on p-bit triples rounds as libmp does at p bits, to
    # nearest with ties to even, and returns a p-bit triple
    p, kind, a, b, n = case
    x, y = (from_man_exp(-m if s else m, e) for s, m, e in (a, b))

    def raw(t):
        sign, man, exp = t
        assert man.bit_length() == p or t == ZERO, t
        return from_man_exp(-man if sign else man, exp)

    def is_tie(exact):  # halfway between its roundings down and up
        down, up = mpf_pos(exact, p, "f"), mpf_pos(exact, p, "c")
        return down != up and mpf_sub(exact, down) == mpf_sub(up, exact)

    assert raw(add_triples(a, b, p)) == mpf_add(x, y, p, "n"), (kind, a, b)
    assert raw(add_triples(a, b, p, 1)) == mpf_sub(x, y, p, "n"), (kind, a, b)
    assert raw(mul_triples(a, b, p)) == mpf_mul(x, y, p, "n"), (kind, a, b)
    assert raw(round_triple(a[0], a[1] * n, a[2], p)) == mpf_mul_int(x, n, p, "n"), (kind, a, n)
    if b[1]:
        assert raw(div_triples(a, b, p)) == mpf_div(x, y, p, "n"), (kind, a, b)
    # the case is the one its kind names
    if kind in ("add_tie", "add_carry"):
        assert is_tie(mpf_add(x, y))
    if kind == "add_carry":
        assert add_triples(a, b, p) == (a[0], 1 << p - 1, a[2] + 1)
    if kind == "mul_tie":
        assert is_tie(mpf_mul(x, y)) and is_tie(mpf_mul(x, from_man_exp(n, 0)))
    if kind == "mul_carry":
        assert is_tie(mpf_mul(x, y)) and mul_triples(a, b, p)[1] == 1 << p - 1
    if kind == "cancel":
        assert add_triples(a, b, p, 1) == ZERO


def _exact(t):
    sign, man, exp = t
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def _rounded_once(x: Fraction, p: int) -> tuple:
    """x rounded to nearest at p bits, ties to even, as a p-bit triple."""
    if not x:
        return ZERO
    sign, x = int(x < 0), abs(x)
    e = x.numerator.bit_length() - x.denominator.bit_length() - p
    while x >= Fraction(2) ** (e + p):
        e += 1
    while x < Fraction(2) ** (e + p - 1):
        e -= 1
    man = round(x / Fraction(2) ** e)  # Fraction rounds half to even
    return (sign, man >> 1, e + 1) if man >> p else (sign, man, e)


@st.composite
def _fraction_cases(draw):
    """(p, a, b): p-bit triples of one p in {64, 97, 128, 256, 512}, their
    exponents up to 2 200 apart either way.  "gap" puts b at an exponent
    gap of p - 1 to p + 3 below a, about the p + 1 past which a sum is a,
    or at any gap; "zero" zeroes one or both; "near" makes b +-a, give or
    take a unit in its last place; "tie" sets b's low bits so that a + b
    is an exact tie at p bits, or a unit of b off one."""
    p = draw(st.sampled_from([64, 97, 128, 256, 512]))
    lo, hi = 1 << p - 1, 1 << p
    kind = draw(st.sampled_from(["gap", "zero", "near", "tie"]))
    rng = draw(st.randoms(use_true_random=False))

    def mantissa():  # uniform, or one at the ends of the binade
        return rng.choice([lo, lo + 1, hi - 1, rng.randrange(lo, hi)])

    sa, sb, ea = rng.getrandbits(1), rng.getrandbits(1), rng.randint(-600, 600)
    a = (sa, mantissa(), ea)
    gap = rng.choice([p - 1, p, p + 1, p + 2, p + 3, rng.randint(-2200, 2200)])
    b = (sb, mantissa(), ea - gap)
    if kind == "zero":
        a, b = rng.choice([(ZERO, b), (a, ZERO), (ZERO, ZERO)])
    elif kind == "near":
        b = (sb, min(max(a[1] + rng.choice([-1, 0, 1]), lo), hi - 1), ea)
    elif kind == "tie":
        g = rng.randint(0, p + 1)
        mb = mantissa()
        total = (a[1] << g) + (mb if sa == sb else -mb)
        d = abs(total).bit_length() - p  # the bits a + b drops at p bits
        step = (1 << d - 1) - abs(total) % (1 << d) if d > 0 else 0
        mb += step if sa == sb or total < 0 else -step
        assume(d > 0 and lo <= mb < hi)
        b = (sb, mb + rng.choice([0, 0, 1, -1]) if lo < mb < hi - 1 else mb, ea - g)
    if rng.getrandbits(1):
        a, b = b, a
    return p, a, b


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(_fraction_cases())
def test_add_and_cmp_triples_are_exact_then_rounded_once(case):
    # add_triples is the exact sum (difference) rounded once to nearest at p
    # bits, ties to even, and cmp_triples the exact comparison, whatever the
    # exponent gap
    p, a, b = case
    x, y = _exact(a), _exact(b)
    assert cmp_triples(a, b) == (x > y) - (x < y)
    assert add_triples(a, b, p) == _rounded_once(x + y, p)
    assert add_triples(a, b, p, 1) == _rounded_once(x - y, p)


@st.composite
def _compare_cases(draw):
    """(p, kind, a, b): p-bit triples.  "plain" draws each freely; "zero"
    zeroes one or both; "negative" makes both negative; "equal_exp" gives
    both one exponent; "equal" and "opposite" make b a, or -a."""
    p = draw(st.sampled_from([64, 97, 128, 256]))
    kind = draw(st.sampled_from(["plain", "zero", "negative", "equal_exp", "equal", "opposite"]))
    rng = draw(st.randoms(use_true_random=False))

    def draw_triple(exp=None):
        man = rng.choice([1 << p - 1, (1 << p) - 1, rng.randrange(1 << p - 1, 1 << p)])
        return rng.getrandbits(1), man, rng.randint(-3 * p, 3 * p) if exp is None else exp

    a, b = draw_triple(), draw_triple()
    if kind == "zero":
        a, b = rng.choice([(ZERO, b), (a, ZERO), (ZERO, ZERO)])
    elif kind == "negative":
        a, b = (1, *a[1:]), (1, *b[1:])
    elif kind == "equal_exp":
        b = draw_triple(a[2])
    elif kind == "equal":
        b = a
    elif kind == "opposite":
        b = (1 - a[0], *a[1:])
    return p, kind, a, b


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_compare_cases())
def test_triple_compare_and_abs_match_libmp(case):
    p, kind, a, b = case
    x, y = raw(a), raw(b)
    assert cmp_triples(a, b) == mpf_cmp(x, y), (kind, a, b)
    assert cmp_triples(b, a) == mpf_cmp(y, x), (kind, a, b)
    for t in (a, b):
        assert abs_triple(t) == triple(mpf_abs(raw(t)), p) == triple(mpf_abs(raw(t), p, "n"), p)
    # the case is the one its kind names
    if kind == "negative":
        assert a[0] == b[0] == 1
    if kind == "equal_exp":
        assert a[2] == b[2]
    if kind == "zero":
        assert ZERO in (a, b)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([64, 97, 128, 256]),
       st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
           [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, 1.0, -0.5, 1e-30]))
def test_float_triple_is_from_float(p, x):
    # every finite float, subnormals and both zeros included, is exact at
    # p >= 53 bits
    t = float_triple(x, p)
    assert t == ZERO or t[1].bit_length() == p
    assert raw(t) == from_float(x), x
    assert triple_float(t) == x


@st.composite
def _float_cases(draw):
    """(p, kind, t): a p-bit triple.  "plain" lies anywhere from below the
    subnormals to past the float range; "tie" lies halfway between two
    neighbouring floats, with either parity below it, and "near_tie" one
    unit of the p-bit place either side of such a tie; "overflow" lies at or
    past 2^1024 - 2^970, where rounding to 53 bits reaches 2^1024;
    "subnormal" is below 2^-1022."""
    p = draw(st.sampled_from([64, 97, 128, 256]))
    kind = draw(st.sampled_from(["plain", "tie", "near_tie", "overflow", "subnormal"]))
    rng = draw(st.randoms(use_true_random=False))
    sign = rng.getrandbits(1)
    man = rng.choice([1 << p - 1, (1 << p) - 1, rng.randrange(1 << p - 1, 1 << p)])
    if kind == "plain":
        exp = rng.randint(-1100 - p, 1030 - p)
    elif kind in ("tie", "near_tie"):
        man = rng.randrange(1 << 52, 1 << 53) << p - 53 | 1 << p - 54
        man += rng.choice([-1, 1]) if kind == "near_tie" else 0
        exp = rng.randint(-1021, 1023) - p
    elif kind == "overflow":
        man = rng.randrange(((1 << 54) - 1) << p - 54, 1 << p)
        exp = rng.randint(1024 - p, 1100 - p)
    else:
        exp = rng.randint(-1080, -1023) - p
    return p, kind, (sign, man, exp)


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(_float_cases())
def test_triple_float_is_to_float_to_nearest(case):
    # to nearest, ties to even, +-inf past the float range, as libmp's
    # to_float gives at round_nearest; the solver reads its cells so
    p, kind, t = case
    want = to_float(raw(t), rnd=round_nearest)
    got = triple_float(t)
    assert got.hex() == want.hex(), (kind, t)
    if kind == "tie":  # exactly halfway between two floats
        assert math.isfinite(got)
        other = math.nextafter(got, math.inf if mpf_cmp(from_float(got), raw(t)) < 0 else -math.inf)
        assert mpf_abs(mpf_sub(raw(t), from_float(got))) == mpf_abs(
            mpf_sub(from_float(other), raw(t))) != fzero
    if kind == "overflow":
        assert got == (-math.inf if t[0] else math.inf)


@pytest.mark.parametrize("bits", [64, 97, 128])
def test_divisor_guard_is_the_mpf_comparison(bits):
    # |value| > 2**-(p//2) * scale decided on exponents and mantissas, as
    # mpf_gt decided it on the exact product, at the boundary and one unit
    # of the last place either side of it
    half, rng = bits // 2, random.Random(bits)
    seen = set()
    for _ in range(300):
        ms, es = rng.randrange(1 << bits - 1, 1 << bits), rng.randint(-bits, bits)
        mv = ms + rng.choice([-1, 0, 1, rng.randint(-ms // 2, ms // 2)])
        ev = es - half + rng.choice([-1, 0, 0, 0, 1])
        v = triple(from_man_exp(mv, ev, bits, "n"), bits) if rng.random() < 0.95 else ZERO
        s = triple(from_man_exp(ms, es), bits)
        q = QReal(v, s, bits)
        bound = mpf_mul(from_man_exp(1, -half), raw(q._s))
        expected = mpf_gt(mpf_abs(raw(q._v)), bound)
        assert q.is_clear_of_zero(half) == expected, (v, s)
        seen.add((expected, raw(q._v)[1:3] == bound[1:3]))
    assert seen == {(True, False), (False, False), (False, True)}
