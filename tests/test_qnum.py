from __future__ import annotations

import random

import mpmath
import pytest

import qslab
from qslab.qnum import (
    LevelContext,
    qdim,
    qdim_classical,
    qdim_line,
    sine_signature,
)
from qslab.rootsys import delta, fundamental_weight


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


def test_qdim_shifted_adjoint_signs(e6, e7):
    # at l times the adjoint fundamental weight the product collapses to
    # (-1)**delta: +1 in E6 (even), -1 in E7 (odd)
    ctx6 = LevelContext(e6, 3)
    v6 = qdim(fw(e6, 2, ctx6.shifted_level), ctx6)
    assert abs(v6.value - 1) < ctx6.mp.mpf(10) ** -30
    ctx7 = LevelContext(e7, 3)
    v7 = qdim(fw(e7, 2, ctx7.shifted_level), ctx7)
    assert abs(v7.value + 1) < ctx7.mp.mpf(10) ** -30
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
            e6.pairing(shifted, i) % l == 0 for i in range(len(e6.positive_roots))
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
    rs, l, mp = ctx.root_system, ctx.shifted_level, ctx.mp
    factors = []
    for b, ht in zip(rs.positive_roots, rs.heights):
        lam = sum(wi * bi for wi, bi in zip(weight, b))
        if lam != 0:
            factors.append((lam + ht, ht))
    if any(num % l == 0 for num, _ in factors):
        return mp.mpf(0), mp.mpf(1)
    value = mp.mpf(1)
    scale = mp.mpf(1)
    for num, den in factors:
        value = value * ctx.sin_pi_over_l(num) / ctx.sin_pi_over_l(den)
        a = abs(value)
        if a > scale:
            scale = a
    return value, scale


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
    # the sparse pairings and the raw-mantissa kernel round exactly like the
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
                assert q.value._mpf_ == value._mpf_, (label, bits, w)
                assert q.magnitude_scale._mpf_ == scale._mpf_, (label, bits, w)


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
        tol = ctx.zero_tolerance * (a.magnitude_scale + b.magnitude_scale)
        assert abs(b.value + a.value) <= tol


def test_level_context_validation(e6):
    with pytest.raises(ValueError):
        LevelContext(e6, 0)
    with pytest.raises(ValueError):
        LevelContext(e6, 3, precision_bits=32)
    ctx = LevelContext(e6, 3)
    assert ctx.shifted_level == 15


def test_sine_signature_fixes_the_sine_product(e7):
    # the signature is the product's sign and the multiset of its factors'
    # magnitudes, so it decides sign and magnitude exactly
    ctx = LevelContext(e7, 3)  # l = 21
    l = ctx.shifted_level
    rng = random.Random(5)
    for _ in range(300):
        pairings = [rng.randint(-3 * l, 3 * l) for _ in range(rng.randint(1, 8))]
        sign, folded = sine_signature(pairings, l)
        product = ctx.mp.fprod(ctx.sin_pi_over_l(p) for p in pairings)
        if any(p % l == 0 for p in pairings):
            assert (sign, folded) == (0, ())
            continue
        assert sorted(folded) == list(folded) and all(1 <= f <= l // 2 for f in folded)
        magnitude = ctx.mp.fprod(ctx.sin_pi_over_l(f) for f in folded)
        assert abs(product - sign * magnitude) <= 1e-35 * magnitude

