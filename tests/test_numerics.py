"""qslab's own transcendentals against mpmath as the reference.

The sine table and the rows of sine ratios, pi and the logarithms stay
within their stated units, the Bernoulli coefficients are exact, Rogers'
dilogarithm keeps its stated bound.
"""

from __future__ import annotations

import math
import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import mpf_pos, round_nearest

from qslab import qsolver
from qslab.qnum import (GUARD_BITS, LevelContext, _abs_sines, atanh_fixed, float_triple,
                        log_fixed, mp_context, pi_fixed, qdim, render_decimal, round_triple)
from qslab.rootsys import build_root_system, fundamental_weight

from oracles import triple

PRECISIONS = (64, 97, 128, 256, 512)
# every l up to 130 and a spread up to 530
SINE_LEVELS = list(range(1, 131)) + list(range(131, 530, 41)) + [530]


def _reference_sines(l: int, w: int) -> list:
    """|sin(pi r / l)| 2**w, 0 <= r < l, as mpf numbers at w + 64 bits: the
    powers of exp(i pi / l), each step one complex product, off by far less
    than a unit at w bits."""
    hi = mp_context(w + 64)
    c, s = hi.cospi(hi.mpf(1) / l), hi.sinpi(hi.mpf(1) / l)
    out, ck, sk = [], hi.mpf(1), hi.mpf(0)
    for _ in range(l):
        out.append(hi.ldexp(abs(sk), w))
        ck, sk = ck * c - sk * s, sk * c + ck * s
    return out


@pytest.mark.parametrize("p", PRECISIONS)
def test_sine_table_is_correctly_rounded(p):
    # each entry of the half period 0 <= r <= l // 2 within its stated 2v
    # units at v bits, at the width of the rows of precision p and at the
    # least width the bound covers; at the rows' width the bound decides
    # every nonzero entry's correctly rounded p-bit sine, the reference's
    w = p + GUARD_BITS
    for v in (w + w.bit_length() + 4, 8):
        for l in SINE_LEVELS:
            ours = _abs_sines(l, v)
            assert len(ours) == l // 2 + 1
            for r, (s, ref) in enumerate(zip(ours, _reference_sines(l, v))):
                assert abs(s - ref) < 2 * v, (v, l, r)
                if v > 8 and r:
                    want = triple(mpf_pos(mpmath.ldexp(ref, -v)._mpf_, p, round_nearest), p)
                    assert round_triple(0, s - 2 * v, -v, p) == want, (l, r)
                    assert round_triple(0, s + 2 * v, -v, p) == want, (l, r)


@pytest.mark.parametrize("p", PRECISIONS)
def test_niven_values_are_exact(p):
    # sin 0 and sin(pi/2) are exact in the table, whatever l and width; a
    # product of sine ratios whose value is rational is an exact p-bit
    # value, so its correct rounding is exact: the simple currents L w_1 and
    # L w_6 of E6 and L w_7 of E7 have quantum dimension 1 at every level
    for l in range(2, 600, 2):
        for v in (8, p + GUARD_BITS):
            sines = _abs_sines(l, v)
            assert sines[0] == 0 and sines[l // 2] == 1 << v
    one = (0, 1 << p - 1, 1 - p)
    for label, nodes in (("E6", (1, 6)), ("E7", (7,))):
        rs = build_root_system(label)
        for level in range(1, 41):
            ctx = LevelContext(rs, level, p)
            for node in nodes:
                assert qdim(fundamental_weight(rs.rank, node, level), ctx)._v == one


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3000))
def test_pi_within_one_unit(w):
    hi = mp_context(w + 64)
    assert abs(pi_fixed(w) - hi.ldexp(hi.pi, w)) < 1


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 1 << 700), st.integers(-5000, 5000), st.integers(8, 700))
def test_log_within_one_unit(man, exp, w):
    hi = mp_context(w + 16 + man.bit_length() + 64)
    exact = hi.ldexp(hi.log(hi.ldexp(man, exp)), w)
    assert abs(log_fixed(man, exp, w) - exact) < 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 10 ** 6), st.integers(8, 700))
def test_atanh_within_one_unit(num, den, w):
    num, den = min(num, den), 3 * den  # num / den <= 1/3
    hi = mp_context(w + 64)
    assert abs(atanh_fixed(num, den, w) - hi.ldexp(hi.atanh(hi.mpf(num) / den), w)) < 1


def test_li2_coefficients_equal_the_bernfrac_table():
    # _li2_coefficients as it stood on mpmath's bernfrac, at every width
    fractions = [(p, q * math.factorial(2 * m + 1))
                 for m in range(1, 120) for p, q in [mpmath.bernfrac(2 * m)]]
    for wp in range(104, 553):
        table = []
        for p, q in fractions:
            c = ((p << (wp + 1)) // q + 1) >> 1
            if not c:
                break
            table.append(c)
        assert qsolver._li2_coefficients(wp) == tuple(table), wp


def test_rogers_keeps_its_stated_bound():
    # |_rogers(x, wp) - L(x) 2^wp| < 8 + |log y| units, y = min(x, 1 - x)
    rng = random.Random(2041)
    for wp in (104, 168, 296, 552):
        hi = mp_context(wp + 128)
        for _ in range(40):
            x = hi.ldexp(rng.getrandbits(wp) | 1, -wp - rng.choice([0, 0, 1, 20, 200]))
            exact = hi.ldexp(hi.polylog(2, x) + hi.log(x) * hi.log1p(-x) / 2, wp)
            y = min(x, 1 - x)
            assert abs(qsolver._rogers(x._mpf_, wp) - exact) < 8 + abs(hi.log(y)), (wp, x)


def test_solver_divergence_writes_the_residual_as_render_decimal(monkeypatch, e6):
    # a solve whose corrections are all zero stops at MAX_NEWTON_STEPS; its
    # message writes the last residual as `qslab solve` writes a converged
    # one, by render_decimal at its default 30 digits
    ctx = LevelContext(e6, 4)
    p = ctx.precision_bits
    orbits, index, neighbors = qsolver._fold(e6)
    start = [[round(x, 6) for x in row] for row in qsolver._warm_start(orbits, neighbors, 4)]
    monkeypatch.setattr(qsolver, "_warm_start", lambda orbits, neighbors, level: start)
    monkeypatch.setattr(qsolver, "_log_newton_step", lambda orbits, neighbors, weights, rhs,
                        level: [[0.0] * len(c) for c in rhs])
    with pytest.raises(qsolver.SolverDivergence) as exc:
        qsolver.solve_restricted(ctx)
    # each node reads its orbit's row k = 0 .. 3, and Q_4 mirrors Q_0
    rows = [[float_triple(x, p) for x in start[o] + start[o][:1]] for o in index]
    grid = qsolver.QGrid(e6, 4, 4, rows, p, [])
    residual = render_decimal(qsolver.residual(grid))
    assert str(exc.value).endswith(f"; last residual {residual}")
