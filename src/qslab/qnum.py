"""Quantum dimensions at the primitive 2l-th root of unity exp(i*pi/l).

Every sine argument that occurs is an integer multiple of pi/l, so a
LevelContext keeps a table of sin(pi*r/l) indexed by the residue of r
modulo 2l, and all products are assembled from table lookups at the
context's working precision.  Exact zeros are decided by integer
congruences on pairings, never by float thresholding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_man_exp

from .rootsys import RootSystem, Weight, fundamental_weight, is_dominant

MIN_PRECISION_BITS = 64
# The working precision wherever none is given.
DEFAULT_PRECISION_BITS = 128


@dataclass(frozen=True)
class QReal:
    """A high-precision real together with a coarse magnitude scale.

    ``magnitude_scale`` bounds the largest intermediate magnitude that went
    into the value (never below max(1, |value|)); tolerance checks multiply
    the context's base tolerance by it.
    """

    value: object
    magnitude_scale: object

    # Both scales are at least 1 and at least |value|, and rounding to
    # nearest is monotone, so the rounded scale sum already bounds the
    # rounded |v1 +- v2| and 1: a sum or difference needs no clamp.
    def __add__(self, other: "QReal") -> "QReal":
        return QReal(self.value + other.value,
                     self.magnitude_scale + other.magnitude_scale)

    def __sub__(self, other: "QReal") -> "QReal":
        return QReal(self.value - other.value,
                     self.magnitude_scale + other.magnitude_scale)

    def __mul__(self, other: "QReal") -> "QReal":
        v = self.value * other.value
        scale = (abs(self.value) * other.magnitude_scale
                 + abs(other.value) * self.magnitude_scale)
        return QReal(v, _clamp(scale, v))

    def div(self, other: "QReal") -> "QReal":
        """Division; the caller is responsible for guarding the divisor."""
        v = self.value / other.value
        scale = (self.magnitude_scale + abs(v) * other.magnitude_scale) / abs(other.value)
        return QReal(v, _clamp(scale, v))


@functools.cache
def mp_context(precision_bits: int) -> MPContext:
    """The one mpmath context at this precision, made on first use.

    Every LevelContext at the same precision shares it, so an operation does
    not pay for a fresh context.  No code writes its ``prec`` (or any other
    attribute) after it is made, so nothing leaks from one run into the next.
    """
    mp = MPContext()
    mp.prec = precision_bits
    return mp


def _clamp(scale, value):
    m = abs(value)
    if scale < m:
        scale = m
    if scale < 1:
        scale = scale * 0 + 1
    return scale


class LevelContext:
    """Carries the root system, the level, and the arithmetic precision.

    Each context computes in the shared mpmath context of its precision
    (``mp_context``; no global precision state), and owns a table of sine
    values and one memo of quantum dimensions keyed by dominant weight,
    which every quantum-dimension path goes through.
    It also memoizes the closed-form KR rows of :mod:`qslab.krchar`, one
    list per direct node indexed by box count.
    """

    def __init__(
        self,
        root_system: RootSystem,
        level: int,
        precision_bits: int = DEFAULT_PRECISION_BITS,
    ):
        if level < 1:
            raise ValueError("level must be a positive integer")
        if precision_bits < MIN_PRECISION_BITS:
            raise ValueError(f"precision_bits must be at least {MIN_PRECISION_BITS}")
        self.root_system = root_system
        self.level = int(level)
        self.shifted_level = self.level + root_system.coxeter_number
        self.precision_bits = int(precision_bits)
        self.mp = mp = mp_context(self.precision_bits)
        self.zero_tolerance = mp.mpf(2) ** (-(self.precision_bits // 2))
        self._one = QReal(mp.mpf(1), mp.mpf(1))
        self._zero = QReal(mp.mpf(0), mp.mpf(1))
        # sin(pi*r/l) by residue r mod 2l as (sign, mantissa, exponent): the
        # value (-1)**sign * mantissa * 2**exponent, the mantissa exactly
        # precision_bits wide (zero at the two zeros of the sine)
        self._sines: tuple | None = None
        self._qdim_cache: dict[Weight, QReal] = {}
        self._chari_rows: dict[int, list[QReal]] = {}

    def __repr__(self) -> str:
        return (f"LevelContext({self.root_system.type_label}, level={self.level}, "
                f"l={self.shifted_level}, prec={self.precision_bits})")

    def _build_sin_tables(self) -> None:
        """Fill ``_sines`` with sin(pi*r/l) for every residue r mod 2l.

        Only the first quarter period is evaluated; the rest of the table is
        filled through the exact identities sin(pi*(l-r)/l) = sin(pi*r/l) and
        sin(pi*(l+r)/l) = -sin(pi*r/l), so the sign and mirror symmetries of
        the products built here are structurally exact.
        """
        l, mp, p = self.shifted_level, self.mp, self.precision_bits
        base = []
        for k in range(l // 2 + 1):
            _, man, exp, bc = mp.sinpi(mp.mpf(k) / l)._mpf_
            base.append((man << (p - bc), exp - (p - bc)) if man else (0, 0))
        half = [base[min(k, l - k)] for k in range(l)]
        self._sines = tuple([(0, m, e) for m, e in half]
                            + [(1 if m else 0, m, e) for m, e in half])

    def one(self) -> QReal:
        return self._one

    def zero(self) -> QReal:
        return self._zero


def _sine_product(ctx: LevelContext, factors: Sequence[tuple[int, int]]) -> QReal:
    """Product of sin(pi*num/l)/sin(pi*den/l) over (num, den) pairs.

    Returns an exact zero when some numerator is divisible by l; the scale
    records the largest intermediate partial product.  The value is the left
    fold value = value * sin(num) / sin(den) in mpf arithmetic at the
    context's precision p, bit for bit, computed on plain integers: the
    partial product is a sign, a mantissa of exactly p bits and an exponent.

    The bits agree because mpf_mul and mpf_div each return the
    round-to-nearest-even value of their exact result (mpf_div divides to at
    least p+4 quotient bits plus a sticky bit), so any other correctly
    rounded pair of steps gives the same values, whatever the mantissa
    representation:

    - The product of two p-bit mantissas has 2p-1 or 2p bits; its top bit
      picks how many low bits to drop, rounded half to even, and a round-up
      to 2**p carries into the exponent.
    - The quotient n/d of two p-bit mantissas, with n the dividend scaled by
      2**(p-1) when it is at least d and by 2**p otherwise, lies in
      [2**(p-1), 2**p).  It is never halfway between two integers q and
      q+1: the odd part of the dividend would then be a multiple of
      2q+1 > 2**p.  Nor does it round up to 2**p, which would take a
      dividend of at least 2d or d respectively.  So (floor(2n/d) + 1) // 2
      is its nearest integer, with no tie to break and no carry.
    - The sign is the XOR of the factors' signs, and magnitudes compare as
      (exponent, mantissa).

    The zeros of the table have mantissa 0, which the fold keeps at 0.
    """
    if ctx._sines is None:
        ctx._build_sin_tables()
    sines, period = ctx._sines, 2 * ctx.shifted_level
    p = ctx.precision_bits
    p1, p2, top = p - 1, p + 1, 2 * p - 1
    # added before dropping p (or p-1) bits: half the dropped unit, less one
    below_half, below_half_low = (1 << (p - 1)) - 1, (1 << (p - 2)) - 1
    sign = 0
    man = scale_man = 1 << p1
    exp = scale_exp = -p1
    for num, den in factors:
        num_sign, num_man, num_exp = sines[num % period]
        den_sign, den_man, den_exp = sines[den % period]
        sign ^= num_sign ^ den_sign
        # plus 1 below for a 2p-bit product (p bits dropped, not p-1), minus
        # 1 for a dividend below d (scaled by 2**p, not 2**(p-1))
        exp += num_exp - den_exp
        t = man * num_man
        if t >> top:
            man = (t + below_half + ((t >> p) & 1)) >> p
            exp += 1
        else:
            man = (t + below_half_low + ((t >> p1) & 1)) >> p1
        if man >> p:
            man >>= 1
            exp += 1
        if man >= den_man:
            man = ((man << p) // den_man + 1) >> 1
        else:
            man = ((man << p2) // den_man + 1) >> 1
            exp -= 1
        if exp > scale_exp or (exp == scale_exp and man > scale_man):
            scale_exp, scale_man = exp, man
    if not man:
        return ctx.zero()
    return QReal(ctx.mp.make_mpf(from_man_exp(-man if sign else man, exp)),
                 ctx.mp.make_mpf(from_man_exp(scale_man, scale_exp)))


def qdim(weight: Sequence[int], ctx: LevelContext) -> QReal:
    """Quantum dimension of the irreducible with the given dominant highest weight.

    Computed as the product over positive roots beta of
    sin(pi (weight+rho | beta) / l) / sin(pi (rho | beta) / l); factors with
    (weight | beta) = 0 equal 1 exactly and are skipped.  The result is an
    exact zero precisely when some numerator pairing is divisible by l.
    """
    cache = ctx._qdim_cache
    if type(weight) is tuple:
        # every cached key is a dominant weight of the right rank
        cached = cache.get(weight)
        if cached is not None:
            return cached
    w = tuple(int(c) for c in weight)
    rs = ctx.root_system
    if len(w) != rs.rank:
        raise ValueError("weight has wrong rank")
    if not is_dominant(w):
        raise ValueError(
            "qdim requires a dominant weight; reduce general weights first"
        )
    cached = cache.get(w)
    if cached is not None:
        return cached
    # (w + rho | beta) = ht(beta) + (w | beta), and (w | beta) > 0 exactly on
    # the support roots; a root of height ht and support vector g pairs to a
    # multiple of l iff ht = -(w | g) mod l, as 1 <= ht < h < l
    l = ctx.shifted_level
    support = tuple(j for j, c in enumerate(w) if c)
    roots, vectors, heights = rs.support_roots(support)
    coords = [w[j] for j in support]
    dots = [sum(map(mul, coords, g)) for g in vectors]
    if any(-d % l in hts for d, hts in zip(dots, heights)):
        out = ctx.zero()
    else:
        out = _sine_product(ctx, [(ht + dots[g], ht) for g, ht in roots])
    cache[w] = out
    return out


def qdim_line(node: int, k: int, ctx: LevelContext) -> QReal:
    """Quantum dimension of k*w_node for k >= 0, from the qdim memo."""
    return qdim(fundamental_weight(ctx.root_system.rank, node, k), ctx)


def alcove_line(node: int, ctx: LevelContext) -> list:
    """The values qdim(k*w_node) for the k with k*w_node in the level's
    alcove, k = 0 .. level // a_node, one ``qdim_line`` call each."""
    top = ctx.level // ctx.root_system.marks[node - 1]
    return [qdim_line(node, k, ctx).value for k in range(top + 1)]


def qdim_classical(rs: RootSystem, weight: Sequence[int]) -> int:
    """Dimension of the irreducible via the Weyl formula, in exact arithmetic."""
    w = tuple(int(c) for c in weight)
    if not is_dominant(w):
        raise ValueError("classical dimension requires a dominant weight")
    out = Fraction(1)
    for b, ht in zip(rs.positive_roots, rs.heights):
        lam = sum(wi * bi for wi, bi in zip(w, b))
        out *= Fraction(lam + ht, ht)
    if out.denominator != 1:
        raise AssertionError("Weyl formula did not produce an integer")
    return int(out)
