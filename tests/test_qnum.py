from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath.libmp import (fone, from_float, from_man_exp, fzero, mpf_abs, mpf_add, mpf_cmp,
                          mpf_div, mpf_gt, mpf_mul, mpf_mul_int, mpf_neg, mpf_pos, mpf_sub,
                          round_nearest, to_float)

import qslab
from qslab import krchar, qnum
from qslab.krchar import chari_decomposition, kleber_q1
from qslab.qnum import (
    ZERO,
    LevelContext,
    QReal,
    _fold_step,
    _sine_product,
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
    round_triple,
    shell_qdims,
    support_plan,
    triple_float,
)
from qslab.qsolver import build_qgrid
from qslab.rootsys import delta, fundamental_weight, type_data

from oracles import (MpfQReal, pairing, raw, sin_pi_over_l, sine_fold, sine_signature, triple,
                     zero_tolerance)


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
    assert one._v == qnum.qdim_unmemoized(w1, ctx)._v
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
    left fold in mpf arithmetic of the context."""
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
    # the sparse pairings and the integer kernel round exactly like the
    # mpf fold, at every precision and whatever the global mpmath precision
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
    # and the periodicity check read, L1-40: shell_qdims gives ctx.zero
    # exactly where weight + rho pairs with some positive root to a multiple
    # of l; the full fold is too slow here, so only the zeros are compared
    (pair,) = type_data(label).paired_shells.values()
    a, b = pair
    roots = [(beta[a], beta[b], ht) for beta, ht in zip(rs.positive_roots, rs.heights)]
    monkeypatch.setattr(qnum, "_sine_product", lambda *args: None)  # zeros only
    seen = set()
    for lev in range(1, 41):
        ctx = LevelContext(rs, lev)
        l, plan = ctx.shifted_level, support_plan(ctx, pair)
        for j in range(l + 4):
            got = [q is ctx.zero for q in shell_qdims(plan, j, ctx)]
            want = [any((r * ca + (j - r) * cb + ht) % l == 0 for ca, cb, ht in roots)
                    for r in range(1, j)]
            assert got == want, (lev, j)
            seen.add((all(got), any(got)))
    # shells with no zero interior, some and only zeros
    assert seen >= {(False, False), (False, True), (True, True)}, seen


def test_grid_skips_qdim_on_paired_shell_interiors(e7, monkeypatch):
    # the interior weights r w2 + (j - r) w7, 0 < r < j, of E7 node 2's
    # shells are evaluated from their support plan: no qdim call sees one,
    # and the sine kernel runs once per distinct nonzero weight
    ctx = LevelContext(e7, 28)
    qdim_weights, kernel_calls = [], []
    real_qdim, real_kernel = qnum.qdim, qnum._sine_product

    def counted_qdim(weight, c):
        qdim_weights.append(tuple(weight))
        return real_qdim(weight, c)

    def counted_kernel(*args):
        kernel_calls.append(args)
        return real_kernel(*args)

    monkeypatch.setattr(qnum, "qdim", counted_qdim)
    monkeypatch.setattr(krchar, "qdim", counted_qdim)
    monkeypatch.setattr(qnum, "_sine_product", counted_kernel)
    build_qgrid(ctx)
    monkeypatch.undo()
    interior = {w for k in range(len(ctx._chari_rows[2]))
                for _, w in chari_decomposition(e7, 2, k).terms if w[1] and w[6]}
    assert len(interior) > 900
    assert qdim_weights and not interior & set(qdim_weights)
    ref_ctx = LevelContext(e7, 28)
    nonzero = {w for w in interior | set(qdim_weights) if qdim(w, ref_ctx).value != 0}
    assert len(kernel_calls) == len(nonzero) > 100


def _libmp_fold(ctx, factors):
    """The sine-product fold step by step in mpf_mul and mpf_div, rounding to
    nearest at the context's precision."""
    prec = ctx.precision_bits
    value = scale = fone
    for num, den in factors:
        value = mpf_mul(value, sin_pi_over_l(ctx, num)._mpf_, prec, "n")
        value = mpf_div(value, sin_pi_over_l(ctx, den)._mpf_, prec, "n")
        if mpf_gt(mpf_abs(value), scale):
            scale = mpf_abs(value)
    return value, scale


def _kernel(ctx, factors):
    """The sine-product kernel on (num, den) residue pairs of the context's
    table: one group of pairing 0, a ``_fold_step`` per pair."""
    steps = [_fold_step(ctx, 0, num, den) for num, den in factors]
    return _sine_product(ctx, steps, (0,))


def _context_with_sines(rs, bits, entries):
    """A context whose sine table holds the given (sign, mantissa, exponent)
    entries at residues 1, 2, ... and 1 at residue 0."""
    ctx = LevelContext(rs, 2, precision_bits=bits)
    one = (0, 1 << (bits - 1), 1 - bits)
    ctx._sines = (one, *entries) + ((0, 0, 0),) * (2 * ctx.shifted_level - 1 - len(entries))
    return ctx


@pytest.mark.parametrize("bits", [64, 97, 128])  # p + 1 composite, for the carry
def test_sine_product_rounds_exact_ties_like_libmp(e6, bits):
    p = bits
    # x times 3 * 2**(p-2) is a product of 2p-1 or 2p bits; it lies halfway
    # between two p-bit mantissas when the bits dropped are 10...0.  Find ties
    # of both widths that go down to even and up to even.
    three = (0, 3 << (p - 2), -p)
    ties = {}
    for start in (1 << (p - 1), -(-(1 << (p + 1)) // 3)):
        for x in range(start, start + 16):
            t = x * three[1]
            width = t.bit_length()
            drop = width - p
            if t & ((1 << drop) - 1) == 1 << (drop - 1):
                ties.setdefault((width, (t >> drop) & 1), x)  # odd kept bits go up
    assert sorted(ties) == [(2 * p - 1, 0), (2 * p - 1, 1), (2 * p, 0), (2 * p, 1)]
    # (2**d - 1) * (2**(p+1) - 1) / (2**d - 1), for d dividing p+1, is p+1
    # ones: the tie rounds the all-ones mantissa up to 2**p, which carries
    # into the exponent
    d = next(d for d in range(2, p + 1) if (p + 1) % d == 0)
    a, b = (1 << d) - 1, ((1 << (p + 1)) - 1) // ((1 << d) - 1)
    carry = [(1, a << (p - d), -p), (0, b << (p - b.bit_length()), -p)]
    divisor = (0, (1 << p) - 3, -p)
    for entries in [[(0, x, -p), three] for x in ties.values()] + [carry]:
        ctx = _context_with_sines(e6, bits, [*entries, divisor])
        # value = entry 1, then entry 1 * entry 2, alone and divided by entry 3
        for factors in ([(1, 0), (2, 0)], [(1, 0), (2, 3)]):
            value, scale = _libmp_fold(ctx, factors)
            got = _kernel(ctx, factors)
            assert raw(got._v) == value, (entries, factors)
            assert raw(got._s) == scale, (entries, factors)
    carried, _ = _libmp_fold(ctx, [(1, 0), (2, 0)])  # ctx holds the carry case
    assert carried[:2] == (1, 1)  # minus a power of two


@pytest.mark.parametrize("bits", [64, 97, 128, 256])
def test_sine_product_rounds_quotients_like_libmp(e6, bits):
    # a quotient of two p-bit mantissas is never a tie (the odd part of the
    # dividend would exceed 2**p); check rounding up and down on both sides
    # of m >= d against mpf_div
    p = bits
    divisor = (0, (1 << (p - 1)) + (1 << (p - 3)) + 1, -p)
    seen = set()
    for m in [*range(1 << (p - 1), (1 << (p - 1)) + 100), *range((1 << p) - 100, 1 << p)]:
        ctx = _context_with_sines(e6, bits, [(0, m, -p), divisor])
        value, scale = _libmp_fold(ctx, [(1, 2)])
        got = _kernel(ctx, [(1, 2)])
        assert raw(got._v) == value and raw(got._s) == scale, m
        dm = divisor[1]
        r = (m << (p if m < dm else p - 1)) % dm
        seen.add((m >= dm, 2 * r > dm))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@st.composite
def _mantissa_pairs(draw):
    """(p, m, d): two p-bit mantissas, m on either side of d; half the draws
    put m*2**s mod d within 1 of d/2 (s = p-1 when m >= d, else p), the
    quotients nearest to a half-integer."""
    p = draw(st.sampled_from([64, 97, 128, 256, 1024]))
    lo, hi = 1 << (p - 1), 1 << p

    def mantissa():  # spread over [lo, hi) by its top byte
        return lo + draw(st.integers(0, 255)) * (lo >> 8) + draw(st.integers(0, (lo >> 8) - 1))

    d = mantissa()
    if draw(st.booleans()):
        return p, mantissa(), d
    d |= 1  # odd, so 2**s is invertible mod d
    rem = draw(st.sampled_from([(d - 1) // 2, (d + 1) // 2]))
    s = draw(st.sampled_from([p - 1, p]))
    m = rem * pow(2, -s, d) % d + (d if s == p - 1 else 0)
    assume(lo <= m < hi and (m >= d) == (s == p - 1))
    return p, m, d


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_mantissa_pairs())
def test_reciprocal_quotient_matches_long_division(e6, case):
    # the kernel divides by multiplying with r = floor(2**(3p+2) / d); its
    # mantissa must be the long division's nearest integer to m*2**s/d
    p, m, d = case
    s = p - 1 if m >= d else p
    q = ((m << (s + 1)) // d + 1) >> 1
    ctx = _context_with_sines(e6, p, [(0, m, -p), (0, d, -p)])
    got = raw(_kernel(ctx, [(1, 2)])._v)
    assert got == from_man_exp(q, -s)
    assert got == mpf_div(from_man_exp(m, -p), from_man_exp(d, -p), p, "n")


def test_reciprocal_tables_are_per_precision(e8):
    # qdim calls at three precisions, interleaved in one process, each give
    # the bits of a fresh context at that precision
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
    # the fixed-width table gives back mp.sinpi at 4p bits rounded to nearest
    # at p bits, mirrored and negated, at every residue mod 2l, for odd and
    # even l
    hi = mp_context(4 * bits)
    for rs in rs_map.values():
        for level in (1, 2):
            ctx = LevelContext(rs, level, precision_bits=bits)
            l = ctx.shifted_level
            base = [mpf_pos(hi.sinpi(hi.mpf(k) / l)._mpf_, bits, round_nearest)
                    for k in range(l // 2 + 1)]
            half = [base[min(k, l - k)] for k in range(l)]
            expected = half + [mpf_neg(x) for x in half]
            for r in range(-2 * l, 4 * l):
                assert sin_pi_over_l(ctx, r)._mpf_ == expected[r % (2 * l)], (rs, l, r)


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
