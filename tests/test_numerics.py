"""qslab's own transcendentals against mpmath as the reference.

The sine table is correctly rounded, pi and the logarithms stay within
their stated units, the Bernoulli coefficients are exact, Rogers'
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
from qslab.qnum import (ZERO, LevelContext, atanh_fixed, float_triple, log_fixed, mp_context,
                        pi_fixed, render_decimal, sinpi_triple)
from qslab.rootsys import build_root_system

from oracles import triple

PRECISIONS = (64, 97, 128, 256, 512)
# every l up to 130 and a spread up to 530
SINE_LEVELS = list(range(1, 131)) + list(range(131, 530, 41)) + [530]


def _reference_sines(l: int, p: int) -> list[tuple]:
    """sin(pi k / l), 0 <= k <= l / 2, from 4p-bit mpmath arithmetic rounded
    to nearest at p bits: the powers of exp(i pi / l), each step one complex
    product, off by far less than a unit at p bits."""
    hi = mp_context(4 * p)
    c, s = hi.cospi(hi.mpf(1) / l), hi.sinpi(hi.mpf(1) / l)
    out, ck, sk = [], hi.mpf(1), hi.mpf(0)
    for _ in range(l // 2 + 1):
        out.append(triple(mpf_pos(sk._mpf_, p, round_nearest), p))
        ck, sk = ck * c - sk * s, sk * c + ck * s
    return out


@pytest.mark.parametrize("p", PRECISIONS)
def test_sine_table_is_correctly_rounded(p):
    # one unit off anywhere makes an entry unequal to its reference
    for l in SINE_LEVELS:
        ours = [sinpi_triple(k, l, p) for k in range(l // 2 + 1)]
        assert ours == _reference_sines(l, p), l


@pytest.mark.parametrize("p", PRECISIONS)
def test_niven_values_are_exact(p):
    # sin 0, sin(pi/6) and sin(pi/2), the only rational values, whatever l;
    # the context table mirrors them to sin(5 pi/6) and negates them past pi
    half, one = (0, 1 << p - 1, -p), (0, 1 << p - 1, 1 - p)
    for l in range(6, 600, 6):
        assert sinpi_triple(0, l, p) == ZERO
        assert sinpi_triple(l // 6, l, p) == half
        assert sinpi_triple(l // 2, l, p) == one
    ctx = LevelContext(build_root_system("E6"), 6, p)  # l = 18
    ctx._build_sin_tables()
    sines = ctx._sines
    assert sines[3] == sines[15] == half and sines[9] == one
    assert sines[21] == sines[33] == (1, *half[1:]) and sines[27] == (1, *one[1:])
    assert sines[0] == sines[18] == ZERO


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
    start = [[round(x, 6) for x in row] for row in qsolver._warm_start(e6, 4)]
    monkeypatch.setattr(qsolver, "_warm_start", lambda rs, level: start)
    monkeypatch.setattr(qsolver, "_log_newton_step",
                        lambda neighbors, weights, rhs, level: [[0.0] * len(c) for c in rhs])
    with pytest.raises(qsolver.SolverDivergence) as exc:
        qsolver.solve_restricted(ctx)
    grid = qsolver.QGrid(e6, 4, 4, [[float_triple(x, p) for x in row] for row in start], p, [])
    residual = render_decimal(qsolver.residual(grid))
    assert str(exc.value).endswith(f"; last residual {residual}")
