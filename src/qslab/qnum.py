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
from typing import Iterable, Sequence

from mpmath.ctx_mp import MPContext
from mpmath.libmp import fone, mpf_abs, mpf_div, mpf_gt, mpf_mul

from .rootsys import RootSystem, Weight, fundamental_weight, is_dominant

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
    It also memoizes the closed-form KR rows of :mod:`qslab.krchar`, one
    list per direct node indexed by box count.  The memos only ever return
    identical values for identical keys, so shared concurrent reads are
    safe under the GIL.
    """

    def __init__(
        self,
        root_system: RootSystem,
        level: int,
        precision_bits: int = 128,
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
        self.zero_tolerance = mp.mpf(2) ** (-(self.precision_bits // 2))
        self._sin_table: list | None = None
        self._sin_raw: list | None = None
        self._qdim_cache: dict[Weight, QReal] = {}
        self._chari_rows: dict[int, list[QReal]] = {}

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
        if self._sin_table is None:
            self._build_sin_tables()
        return self._sin_table[r % (2 * self.shifted_level)]

    def _build_sin_tables(self) -> None:
        l, mp = self.shifted_level, self.mp
        base = [mp.sinpi(mp.mpf(k) / l) for k in range(l // 2 + 1)]
        half = [base[min(k, l - k)] for k in range(l)]
        self._sin_table = half + [-x for x in half]
        self._sin_raw = [x._mpf_ for x in self._sin_table]

    def one(self) -> QReal:
        return QReal(self.mp.mpf(1), self.mp.mpf(1))

    def zero(self) -> QReal:
        return QReal(self.mp.mpf(0), self.mp.mpf(1))


def _sine_product(ctx: LevelContext, factors: Sequence[tuple[int, int]]) -> QReal:
    """Product of sin(pi*num/l)/sin(pi*den/l) over (num, den) pairs.

    Returns an exact zero when some numerator is divisible by l; the scale
    records the largest intermediate partial product.  The left fold
    value = value * sin(num) / sin(den) runs on raw mpf tuples through
    mpmath.libmp at the context's precision and rounding: the same roundings
    as the mpf operators, without their wrappers or any global state.
    """
    l = ctx.shifted_level
    for num, _ in factors:
        if num % l == 0:
            return ctx.zero()
    if ctx._sin_raw is None:
        ctx._build_sin_tables()
    sines, period = ctx._sin_raw, 2 * l
    prec, rounding = ctx.mp._prec_rounding
    value = scale = fone
    for num, den in factors:
        value = mpf_div(mpf_mul(value, sines[num % period], prec, rounding),
                        sines[den % period], prec, rounding)
        a = mpf_abs(value, prec, rounding)
        if mpf_gt(a, scale):
            scale = a
    return QReal(ctx.mp.make_mpf(value), ctx.mp.make_mpf(scale))


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
    factors = [(p, ht) for p, ht in zip(rs.rho_pairings(w), rs.heights) if p != ht]
    out = _sine_product(ctx, factors)
    cache[w] = out
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
