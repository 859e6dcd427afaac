"""Quantum dimensions at the primitive 2l-th root of unity exp(i*pi/l).

Every sine argument that occurs is an integer multiple of pi/l, so a
LevelContext keeps a table of sin(pi*r/l) indexed by the residue of r
modulo 2l, and all products are assembled from table lookups at the
context's working precision.  Exact zeros are decided by integer
congruences on pairings, never by float thresholding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from mpmath.ctx_mp import MPContext

from .rootsys import RootSystem, Weight, delta, fundamental_weight, is_dominant

MIN_PRECISION_BITS = 64


@dataclass(frozen=True)
class QReal:
    """A high-precision real together with a coarse magnitude scale.

    ``magnitude_scale`` bounds the largest intermediate magnitude that went
    into the value (never below max(1, |value|)); tolerance checks multiply
    the context's base tolerance by it.
    """

    value: object
    magnitude_scale: object

    def __add__(self, other: "QReal") -> "QReal":
        return QReal(self.value + other.value,
                     _clamp(self.magnitude_scale + other.magnitude_scale,
                            self.value + other.value))

    def __sub__(self, other: "QReal") -> "QReal":
        return QReal(self.value - other.value,
                     _clamp(self.magnitude_scale + other.magnitude_scale,
                            self.value - other.value))

    def __mul__(self, other: "QReal") -> "QReal":
        v = self.value * other.value
        scale = (abs(self.value) * other.magnitude_scale
                 + abs(other.value) * self.magnitude_scale)
        return QReal(v, _clamp(scale, v))

    def __neg__(self) -> "QReal":
        return QReal(-self.value, self.magnitude_scale)

    def div(self, other: "QReal") -> "QReal":
        """Division; the caller is responsible for guarding the divisor."""
        v = self.value / other.value
        scale = (self.magnitude_scale + abs(v) * other.magnitude_scale) / abs(other.value)
        return QReal(v, _clamp(scale, v))


def _clamp(scale, value):
    m = abs(value)
    if scale < m:
        scale = m
    if scale < 1:
        scale = scale * 0 + 1
    return scale


class LevelContext:
    """Carries the root system, the level, and the arithmetic precision.

    Each context owns an independent mpmath context (no global precision
    state), a table of sine values and one memo of quantum dimensions keyed
    by dominant weight, which every quantum-dimension path goes through.
    The memo only ever returns identical values for identical keys, so
    shared concurrent reads are safe under the GIL.
    """

    def __init__(
        self,
        root_system: RootSystem,
        level: int,
        precision_bits: int = 128,
        zero_tolerance=None,
    ):
        if level < 1:
            raise ValueError("level must be a positive integer")
        if precision_bits < MIN_PRECISION_BITS:
            raise ValueError(f"precision_bits must be at least {MIN_PRECISION_BITS}")
        self.root_system = root_system
        self.level = int(level)
        self.shifted_level = self.level + root_system.coxeter_number
        self.precision_bits = int(precision_bits)
        mp = MPContext()
        mp.prec = self.precision_bits
        self.mp = mp
        if zero_tolerance is None:
            self.zero_tolerance = mp.mpf(2) ** (-(self.precision_bits // 2))
        else:
            self.zero_tolerance = mp.mpf(zero_tolerance)
            if not self.zero_tolerance > 0:
                raise ValueError("zero_tolerance must be positive")
        self._sin_table: list | None = None
        self._qdim_cache: dict[Weight, QReal] = {}

    def __repr__(self) -> str:
        return (f"LevelContext({self.root_system.type_label}, level={self.level}, "
                f"l={self.shifted_level}, prec={self.precision_bits})")

    def sin_pi_over_l(self, r: int):
        """sin(pi*r/l), looked up by the residue of r mod 2l.

        Only the first quarter period is evaluated; the rest of the table is
        filled through the exact identities sin(pi*(l-r)/l) = sin(pi*r/l) and
        sin(pi*(l+r)/l) = -sin(pi*r/l), so the sign and mirror symmetries of
        the products built here are structurally exact.
        """
        l = self.shifted_level
        if self._sin_table is None:
            mp = self.mp
            base = [mp.sinpi(mp.mpf(k) / l) for k in range(l // 2 + 1)]
            half = [base[min(k, l - k)] for k in range(l)]
            self._sin_table = half + [-x for x in half]
        return self._sin_table[r % (2 * l)]

    def one(self) -> QReal:
        return QReal(self.mp.mpf(1), self.mp.mpf(1))

    def zero(self) -> QReal:
        return QReal(self.mp.mpf(0), self.mp.mpf(1))


def zeta_integer(k: int, ctx: LevelContext) -> QReal:
    """The zeta-integer sin(k*pi/l)/sin(pi/l): odd and 2l-antiperiodic in k."""
    v = ctx.sin_pi_over_l(k) / ctx.sin_pi_over_l(1)
    return QReal(v, _clamp(ctx.mp.mpf(1), v))


def _sine_product(ctx: LevelContext, factors: Sequence[tuple[int, int]]) -> QReal:
    """Product of sin(pi*num/l)/sin(pi*den/l) over (num, den) pairs.

    Returns an exact zero when some numerator is divisible by l; the scale
    records the largest intermediate partial product.
    """
    l = ctx.shifted_level
    for num, _ in factors:
        if num % l == 0:
            return ctx.zero()
    mp = ctx.mp
    value = mp.mpf(1)
    scale = mp.mpf(1)
    for num, den in factors:
        value = value * ctx.sin_pi_over_l(num) / ctx.sin_pi_over_l(den)
        a = abs(value)
        if a > scale:
            scale = a
    return QReal(value, scale)


def qdim(weight: Sequence[int], ctx: LevelContext) -> QReal:
    """Quantum dimension of the irreducible with the given dominant highest weight.

    Computed as the product over positive roots beta of
    sin(pi (weight+rho | beta) / l) / sin(pi (rho | beta) / l); factors with
    (weight | beta) = 0 equal 1 exactly and are skipped.  The result is an
    exact zero precisely when some numerator pairing is divisible by l.
    """
    w = tuple(int(c) for c in weight)
    rs = ctx.root_system
    if len(w) != rs.rank:
        raise ValueError("weight has wrong rank")
    if not is_dominant(w):
        raise ValueError(
            "qdim requires a dominant weight; reduce general weights first"
        )
    cached = ctx._qdim_cache.get(w)
    if cached is not None:
        return cached
    factors = []
    for b, ht in zip(rs.positive_roots, rs.heights):
        lam = sum(wi * bi for wi, bi in zip(w, b))
        if lam != 0:
            factors.append((lam + ht, ht))
    out = _sine_product(ctx, factors)
    ctx._qdim_cache[w] = out
    return out


def qdim_line(node: int, k: int, ctx: LevelContext) -> QReal:
    """Quantum dimension of k*w_node for k >= 0, from the qdim memo."""
    return qdim(fundamental_weight(ctx.root_system.rank, node, k), ctx)


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


def qdim_periodicity_check(node: int, ctx: LevelContext) -> bool:
    """Check 2l-periodicity and the (-1)^delta sign at k+l on the weight line.

    Evaluates the weight line for k in [0, 4l] and verifies value(k+2l) =
    value(k) and value(k+l) = (-1)^delta_node value(k) within the scaled
    tolerance.
    """
    l = ctx.shifted_level
    sign = -1 if delta(ctx.root_system, node) % 2 == 1 else 1
    for k in range(0, 2 * l + 1):
        a = qdim_line(node, k, ctx)
        b = qdim_line(node, k + 2 * l, ctx)
        tol = ctx.zero_tolerance * (a.magnitude_scale + b.magnitude_scale)
        if abs(a.value - b.value) > tol:
            return False
        c = qdim_line(node, k + l, ctx)
        tol = ctx.zero_tolerance * (a.magnitude_scale + c.magnitude_scale)
        if abs(c.value - sign * a.value) > tol:
            return False
    return True
