"""Quantum dimensions at the primitive 2l-th root of unity exp(i*pi/l).

Every sine argument that occurs is an integer multiple of pi/l, so a
LevelContext keeps a table of sin(pi*r/l) indexed by the residue of r
modulo 2l, and all products are assembled from table lookups at the
context's working precision.  Exact zeros are decided by integer
congruences on pairings, never by float thresholding.

The sine table, the kernel's partial products and ``QReal`` hold p-bit
triples (sign, mantissa exactly p bits wide, exponent), or ``ZERO``, at
the context's precision p.  Each operation rounds as the libmp call it
stands for, to nearest with ties to even, so the bits are those of mpf
arithmetic; libmp's normal form is made only where a value is read out.

The sine table is qnum's own: ``sinpi_triple`` rounds sin(pi*k/l) correctly
to nearest from an integer Taylor series, with pi from Machin's formula
(``pi_fixed``) and Ziv's rounding test.  ``log_fixed`` gives the
logarithms of the dilogarithm sum in fixed point, and ``render_decimal``
writes every number qslab prints, a triple as one correctly rounded decimal
division.  mpmath is imported in ``mp_context`` alone, inside the call: by
the mpf read-outs (``QReal.value`` and ``magnitude_scale``,
``LevelContext.mp``) and by ``seqanalysis`` to parse a sequence entry that
is not already a number, as ``logconcave --seq`` does.
"""

from __future__ import annotations

import functools
import math
from decimal import ROUND_HALF_EVEN, Context as DecimalContext, Decimal
from itertools import compress
from operator import index, mul
from typing import Sequence

from .rootsys import RootSystem, Weight, fundamental_weight, int_weight, is_dominant

MIN_PRECISION_BITS = 64
# The working precision wherever none is given.
DEFAULT_PRECISION_BITS = 128
ZERO = (0, 0, 0)  # the p-bit triple of 0, at every p
# libmp's raw +inf, -inf and nan, which a check's violation may hold
FINF, FNINF, FNAN = (0, 0, -456, -2), (1, 0, -789, -3), (0, 0, -123, -1)


def round_triple(sign: int, man: int, exp: int, p: int) -> tuple:
    """(-1)**sign * man * 2**exp, man >= 0, rounded to nearest at p bits,
    ties to even, as a p-bit triple (sign, mantissa, exponent): the mantissa
    exactly p bits wide, or ZERO.  A tie is the one case where the dropped
    bits of man plus half their unit are all zero; it rounds half up, then
    clears the low bit."""
    n = man.bit_length() - p
    if n > 0:
        t = man + (1 << n - 1)
        man = t >> n
        if t == man << n:  # a tie
            man &= -2
        if man >> p:  # carried to 2**p
            return sign, man >> 1, exp + n + 1
        return sign, man, exp + n
    return (sign, man << -n, exp + n) if man else ZERO


def add_triples(a: tuple, b: tuple, p: int, flip: int = 0) -> tuple:
    """a + b (a - b with ``flip`` 1) of p-bit triples, rounded as
    ``round_triple``: mpf_add's (mpf_sub's) bits.  When b's exponent lies
    p + 2 or more below a's, |b| is under a quarter unit in a's last place,
    and under half a unit below a too: the sum rounds to a."""
    sa, ma, ea = a
    sb, mb, eb = b
    if not mb:
        return a
    if not ma:
        return sb ^ flip, mb, eb
    sb ^= flip
    if ea < eb:
        sa, ma, ea, sb, mb, eb = sb, mb, eb, sa, ma, ea
    gap = ea - eb
    if gap > p + 1:
        return sa, ma, ea
    man = (ma << gap) + (mb if sa == sb else -mb)
    return round_triple(sa ^ (man < 0), abs(man), eb, p)


def mul_triples(a: tuple, b: tuple, p: int) -> tuple:
    """a * b of p-bit triples, rounded as ``round_triple``: mpf_mul's bits."""
    if not (a[1] and b[1]):
        return ZERO
    return round_triple(a[0] ^ b[0], a[1] * b[1], a[2] + b[2], p)


def div_triples(a: tuple, b: tuple, p: int) -> tuple:
    """a / b of p-bit triples, b nonzero, rounded to nearest: mpf_div's bits.
    As in ``_sine_product``, x = ma*2**s/mb is never a tie and never rounds
    up to 2**p, so floor(2x + 1) / 2 rounds it."""
    sa, ma, ea = a
    sb, mb, eb = b
    if not ma:
        return ZERO
    s = p - 1 if ma >= mb else p
    return sa ^ sb, ((ma << s + 1) // mb + 1) >> 1, ea - eb - s


def cmp_triples(a: tuple, b: tuple) -> int:
    """-1, 0 or 1 as a <, = or > b, for p-bit triples of one p: mpf_cmp's
    answer.  ZERO has sign 0, and nonzero magnitudes order as (exponent,
    mantissa)."""
    sa, ma, ea = a
    sb, mb, eb = b
    if sa != sb:
        return 1 - 2 * sa
    if not (ma and mb):
        return (ma > 0) - (mb > 0)
    d = ea - eb or ma - mb
    return 0 if not d else 1 - 2 * ((d < 0) ^ sa)


# The order of p-bit triples of one p, as a key of min, max and sorted.
TRIPLE_ORDER = functools.cmp_to_key(cmp_triples)


def one_triple(p: int) -> tuple:
    """1 as a p-bit triple."""
    return 0, 1 << p - 1, 1 - p


def abs_triple(t: tuple) -> tuple:
    """|t| of a p-bit triple, exact: mpf_abs's bits."""
    return 0, t[1], t[2]


def float_triple(x: float, p: int) -> tuple:
    """The finite float x as a p-bit triple, rounded as ``round_triple``, so
    exact for p >= 53: from_float's value."""
    m, e = math.frexp(x)
    return round_triple(int(m < 0), int(abs(m) * 2.0 ** 53), e - 53, p)


def triple_float(t: tuple) -> float:
    """A triple as the nearest float, ties to even, and as +-inf past the
    float range: to_float(..., rnd=round_nearest)."""
    sign, man, exp = round_triple(*t, 53)
    try:
        return math.ldexp(-man if sign else man, exp)
    except OverflowError:
        return -math.inf if sign else math.inf


def raw_mpf(t: tuple) -> tuple:
    """The libmp normal form (raw ``_mpf_`` tuple) of a p-bit triple: odd
    mantissa, bit count."""
    sign, man, exp = t
    if not man:
        return 0, 0, 0, 0
    tz = (man & -man).bit_length() - 1
    return sign, man >> tz, exp + tz, man.bit_length() - tz


_SPECIAL = {FNAN: "nan", FINF: "inf", FNINF: "-inf"}
# one per digit count: a division only raises flags on it, which nothing reads
_decimal_context = functools.cache(
    lambda digits: DecimalContext(prec=digits, rounding=ROUND_HALF_EVEN))


def render_decimal(x, digits: int = 30) -> str:
    """Render a p-bit triple, a raw ``_mpf_`` tuple or an int exactly,
    round-half-even at ``digits`` digits: qslab writes every number it
    prints through this one function.

    Either tuple begins (sign, man, exp): (-1)^sign man 2^exp, the integer
    quotient man / 2^-exp (or the integer man 2^exp), so one correctly
    rounded decimal division renders it, and the output never depends on
    any global precision state.
    """
    if isinstance(x, int):
        num, den = x, 1
    elif x in _SPECIAL:
        return _SPECIAL[x]
    else:
        sign, man, exp = x[:3]
        if not man:
            return "0"
        num = -int(man) if sign else int(man)
        num, den = (num << exp, 1) if exp >= 0 else (num, 1 << -exp)
    return str(_decimal_context(digits).divide(Decimal(num), Decimal(den)))


# ---------------------------------------------------------------------------
# pi, sines and logarithms in integer fixed point


@functools.cache
def pi_fixed(w: int) -> int:
    """pi * 2**w, off by less than one unit for w < 100 000.

    Machin's formula pi = 16 atan(1/5) - 4 atan(1/239), each series summed
    at g = w + 20 bits.  Every term floor(2**g / (n**(2j+1) (2j+1))) is
    short by less than a unit and the alternating tail is below a unit, so
    the sum is off by less than 3.7 g + 48 units at g bits (the n = 5 series
    has at most g / 4.6 + 1 terms), under 0.36 of a unit at w bits; the
    rounding to w bits adds at most half a unit.
    """
    g = w + 20

    def atan_inv(n: int) -> int:
        total, power, n2, k = 0, (1 << g) // n, n * n, 1
        while power:
            total += -(power // k) if k & 2 else power // k
            power //= n2
            k += 2
        return total

    return (16 * atan_inv(5) - 4 * atan_inv(239) + (1 << 19)) >> 20


def atanh_fixed(num: int, den: int, w: int) -> int:
    """atanh(num / den) * 2**w for 0 <= num / den <= 1/3, off by less than
    one unit for w < 100 000.

    The series sum z**(2j+1) / (2j+1) is summed at g = w + 20 bits: each
    floored power of z is off by less than 1.8 units, so each term by less
    than 2.8, and the tail after the first power that floors to 0 sums to
    less than 2.1; with at most g / 3.17 + 1 terms that is under 0.1 of a
    unit at w bits, and the rounding to w bits adds at most half a unit.
    """
    g = w + 20
    z = (num << g) // den
    z2 = (z * z) >> g
    total, power, k = 0, z, 1
    while power:
        total += power // k
        power = (power * z2) >> g
        k += 2
    return (total + (1 << 19)) >> 20


# log(1 + d) for 0 <= d < 2**-_LOG_TABLE_BITS is left to the atanh series
_LOG_TABLE_BITS = 7


@functools.lru_cache(maxsize=64)
def _ln2_fixed(w: int) -> int:
    """log 2 * 2**w = 2 atanh(1/3) 2**w, off by less than two units."""
    return 2 * atanh_fixed(1, 3, w)


@functools.lru_cache(maxsize=64)
def _log_table(w: int) -> list[int]:
    """log(1 + j / 2**r) * 2**w for j < 2**r, r = _LOG_TABLE_BITS, each off
    by less than one unit: the running sum of the steps
    log((2**r + j + 1) / (2**r + j)) = 2 atanh(1 / (2**(r+1) + 2j + 1)), each
    off by less than 2 units at w + 10 bits, rounded to w bits."""
    r = 1 << _LOG_TABLE_BITS
    logs, acc = [0], 0
    for j in range(r - 1):
        acc += 2 * atanh_fixed(1, 2 * (r + j) + 1, w + 10)
        logs.append((acc + 512) >> 10)
    return logs


def log_fixed(man: int, exp: int, w: int) -> int:
    """log(man * 2**exp) * 2**w for man > 0, off by less than one unit.

    With b the bit length of man, r = _LOG_TABLE_BITS and s = b - 1 - r,
    man * 2**exp = 2**e (1 + j / 2**r)(1 + d): e = exp + b - 1, 2**r + j the
    leading r + 1 bits of man, top = man >> s, and d = (man - top 2**s) /
    (top 2**s) < 2**-r.  So the logarithm is e log 2 + ``_log_table``[j] +
    2 atanh(d / (2 + d)), all at g = w + 24 bits: e log 2 from log 2 at
    g + bitlen |e| bits is off by less than 3 units there, the table entry
    by less than one, the series by less than 2, and the sum rounds once to
    w bits.
    """
    b = man.bit_length()
    e, s = exp + b - 1, b - 1 - _LOG_TABLE_BITS
    g = w + 24
    extra = abs(e).bit_length()
    total = (e * _ln2_fixed(g + extra)) >> extra
    if s > 0:
        top = man >> s
        rest = man - (top << s)
        if rest:
            total += 2 * atanh_fixed(rest, rest + (top << s + 1), g)
    else:
        top = man << -s
    total += _log_table(g)[top - (1 << _LOG_TABLE_BITS)]
    return (total + (1 << 23)) >> 24


def _sinpi_fixed(k: int, l: int, w: int) -> tuple[int, int]:
    """(s, err) with |sin(pi k / l) 2**w - s| < err, for 0 < 2k < l.

    x = pi k / l is taken as pi_fixed(w) k // l (sin x, for 4k <= l) or as
    y = pi (l - 2k) / (2 l) (cos y = sin x, for 4k > l), below pi/4 and off
    by less than 1.25 units either way.  Its Taylor series is summed with
    every term floored from the one before: each term is then off by less
    than 2 units, and the first that floors to 0 bounds the alternating
    tail by 2 more, so n terms leave s within 2n + 4 units.
    """
    pi = pi_fixed(w)
    if 4 * k <= l:
        x = pi * k // l
        term, i = x, 2
    else:
        x = pi * (l - 2 * k) // (2 * l)
        term, i = 1 << w, 1
    x2 = (x * x) >> w
    total = n = 0
    while term:
        total += -term if n & 1 else term
        n += 1
        term = ((term * x2) >> w) // (i * (i + 1))
        i += 2
    return total, 2 * n + 4


def sinpi_triple(k: int, l: int, p: int) -> tuple:
    """sin(pi k / l) for 0 <= 2k <= l as a p-bit triple, correctly rounded to
    nearest.

    By Niven's theorem the only rational values are sin 0 = 0, sin(pi/6) =
    1/2 and sin(pi/2) = 1, which are exact.  Every other value is
    irrational, so never a tie, and Ziv's test ends: the fixed-point value at
    w = p + 32 bits, and 32 more per retry, is taken once both ends of its
    error interval round to the same triple.
    """
    if not k:
        return ZERO
    if 6 * k == l:
        return 0, 1 << p - 1, -p
    if 2 * k == l:
        return one_triple(p)
    w = p + 32
    while True:
        s, err = _sinpi_fixed(k, l, w)
        lo = round_triple(0, s - err, -w, p)
        if lo == round_triple(0, s + err, -w, p):
            return lo
        w += 32


class QReal:
    """A high-precision real together with a coarse magnitude scale.

    ``magnitude_scale`` bounds the largest intermediate magnitude that went
    into the value (never below max(1, |value|)); ``build_qgrid``'s
    ``is_clear_of_zero`` guard and ``theorem_report``'s relative gaps read
    it.  Both are held as p-bit triples at
    the precision ``p``; the operators round as the libmp calls of the mpf
    operators do, in the same order, to the same bits.  ``value`` and
    ``magnitude_scale`` read them as mpf numbers of ``mp_context(p)``;
    ``_v`` and ``_s`` are the triples themselves.
    """

    __slots__ = ("_v", "_s", "_p")

    def __init__(self, value: tuple, scale: tuple, p: int):
        self._v, self._s, self._p = value, scale, p

    value = property(lambda self: mp_context(self._p).make_mpf(raw_mpf(self._v)))
    magnitude_scale = property(lambda self: mp_context(self._p).make_mpf(raw_mpf(self._s)))

    # Both scales are at least 1 and at least |value|, and rounding to
    # nearest is monotone, so the rounded scale sum already bounds the
    # rounded |v1 - v2| and 1: a difference needs no clamp.
    def __sub__(self, other: "QReal") -> "QReal":
        p = self._p
        return QReal(add_triples(self._v, other._v, p, 1),
                     add_triples(self._s, other._s, p), p)

    def __mul__(self, other: "QReal") -> "QReal":
        p = self._p
        a, b = self._v, other._v
        scale = add_triples(mul_triples((0, a[1], a[2]), other._s, p),
                            mul_triples((0, b[1], b[2]), self._s, p), p)
        return self._clamped(mul_triples(a, b, p), scale, p)

    def div(self, other: "QReal") -> "QReal":
        """Division; the caller is responsible for guarding the divisor."""
        p = self._p
        _, mb, eb = other._v
        v = div_triples(self._v, other._v, p)
        scale = add_triples(self._s, mul_triples((0, v[1], v[2]), other._s, p), p)
        return self._clamped(v, div_triples(scale, (0, mb, eb), p), p)

    def is_clear_of_zero(self, bits: int) -> bool:
        """|value| > 2**-bits * scale, decided exactly on the exponents and
        the p-bit mantissas."""
        (_, mv, ev), (_, ms, es) = self._v, self._s
        return bool(mv) and (not ms or ev + bits > es or ev + bits == es and mv > ms)

    def _clamped(self, v: tuple, scale: tuple, p: int) -> "QReal":
        """QReal(v, scale) with the scale raised to |v|, then to 1."""
        _, mv, ev = v
        _, ms, es = scale
        if mv and (not ms or ev > es or ev == es and mv > ms):
            ms, es = mv, ev
        if not ms or es < 1 - p:
            ms, es = 1 << p - 1, 1 - p
        return QReal(v, (0, ms, es), p)


@functools.cache
def mp_context(precision_bits: int):
    """The one mpmath context at this precision, made on first use; the
    read-outs that hand out mpf numbers import mpmath here, and the one
    command path that reaches it is ``logconcave --seq``, which parses its
    entries here.

    Every LevelContext and QGrid at the same precision shares it.  No code
    writes its ``prec`` (or any other attribute) after it is made, so
    nothing leaks from one run into the next.
    """
    from mpmath.ctx_mp import MPContext

    mp = MPContext()
    mp.prec = precision_bits
    return mp


class LevelContext:
    """Carries the root system, the level, and the arithmetic precision.

    Each context computes on p-bit triples at its precision p (no global
    precision state); ``mp``, the shared mpmath context of that precision
    (``mp_context``), is made only when read.  It owns a table of sine
    values, one fold plan per support pattern (``support_plan``) and a memo
    of ``qdim`` keyed by dominant weight.  It also memoizes the closed-form
    KR rows of :mod:`qslab.krchar`, one list per direct node indexed by box
    count; their paired-shell interior weights are evaluated from their
    plan by ``shell_qdims``, outside the memo.  ``one`` and ``zero`` are its
    exact 1 and 0.
    """

    def __init__(
        self,
        root_system: RootSystem,
        level: int,
        precision_bits: int = DEFAULT_PRECISION_BITS,
    ):
        level, precision_bits = index(level), index(precision_bits)  # TypeError, not truncation
        if level < 1:
            raise ValueError("level must be a positive integer")
        if precision_bits < MIN_PRECISION_BITS:
            raise ValueError(f"precision_bits must be at least {MIN_PRECISION_BITS}")
        self.root_system, self.level, self.precision_bits = root_system, level, precision_bits
        self.shifted_level = level + root_system.coxeter_number
        one = one_triple(precision_bits)
        self.one, self.zero = QReal(one, one, precision_bits), QReal(ZERO, one, precision_bits)
        # sin(pi*r/l) by residue r mod 2l as (sign, mantissa, exponent): the
        # value (-1)**sign * mantissa * 2**exponent, the mantissa exactly
        # precision_bits wide (zero at the two zeros of the sine)
        self._sines: tuple | None = None
        self._qdim_cache: dict[Weight, QReal] = {}
        self._plans: dict[tuple[int, ...], tuple] = {}
        self._recips: dict[int, int] = {}  # den residue -> _fold_step's r
        self._chari_rows: dict[int, list[QReal]] = {}

    mp = property(lambda self: mp_context(self.precision_bits))

    def __repr__(self) -> str:
        return (f"LevelContext({self.root_system.type_label}, level={self.level}, "
                f"l={self.shifted_level}, prec={self.precision_bits})")

    def _build_sin_tables(self) -> None:
        """Fill ``_sines`` with sin(pi*r/l) for every residue r mod 2l.

        Only the first quarter period is evaluated, each value correctly
        rounded (``sinpi_triple``); the rest of the table is filled through
        the exact identities sin(pi*(l-r)/l) = sin(pi*r/l) and
        sin(pi*(l+r)/l) = -sin(pi*r/l), so the sign and mirror symmetries of
        the products built here are structurally exact.
        """
        l, p = self.shifted_level, self.precision_bits
        base = [sinpi_triple(k, l, p)[1:] for k in range(l // 2 + 1)]
        half = [base[min(k, l - k)] for k in range(l)]
        self._sines = tuple([(0, m, e) for m, e in half]
                            + [(1 if m else 0, m, e) for m, e in half])


def support_plan(ctx: LevelContext, support: tuple[int, ...]) -> tuple:
    """``(vectors, zero_residues, steps)`` for the weights whose nonzero
    coordinates are the 0-based ``support``, which pair only with the roots
    nonzero there; made once per context.  ``vectors`` holds those roots'
    distinct coefficient vectors on the support, one per group; pairing to d
    with group g's is an exact zero iff d mod l is in ``zero_residues[g]``,
    the -ht mod l of the group's heights (1 <= ht < h < l).  ``steps`` holds
    one ``_fold_step`` per such root in canonical order, its denominator
    sin(pi*height/l) > 0."""
    plan = ctx._plans.get(support)
    if plan is not None:
        return plan
    if ctx._sines is None:
        ctx._build_sin_tables()
    rs, l = ctx.root_system, ctx.shifted_level
    groups, steps = {}, []  # vector -> (group, zero residues); fold steps
    for v, ht in zip(zip(*[rs.root_columns[j] for j in support]), rs.heights):
        if any(v):
            g, zeros = groups.setdefault(v, (len(groups), set()))
            zeros.add(-ht % l)
            steps.append(_fold_step(ctx, g, ht, ht))
    plan = ctx._plans[support] = (tuple(groups), [zeros for _, zeros in groups.values()], steps)
    return plan


def plan_qdim(plan: tuple, dots: Sequence[int], ctx: LevelContext) -> QReal:
    """The quantum dimension of the weight whose pairings with the groups of
    a ``support_plan`` are ``dots``: ``ctx.zero`` when one of them is an
    exact zero by its group's residues, else the plan's sine product."""
    l = ctx.shifted_level
    for d, zeros in zip(dots, plan[1]):
        if d % l in zeros:
            return ctx.zero
    return _sine_product(ctx, plan[2], dots)


def shell_qdims(plan: tuple, j: int, ctx: LevelContext) -> list[QReal]:
    """The quantum dimensions of the weights r w_a + (j - r) w_b, 0 < r < j,
    of the two-node ``support_plan`` of (a, b), by ``plan_qdim`` on their
    pairings r va + (j - r) vb with the plan's groups (va, vb)."""
    return [plan_qdim(plan, [r * va + (j - r) * vb for va, vb in plan[0]], ctx)
            for r in range(1, j)]


def _fold_step(ctx: LevelContext, g: int, ht: int, den: int) -> tuple:
    """The ``_sine_product`` step ``(g, ht, den_man, r, den_exp)``: times the
    table's sine at residue dots[g] + ht, over its sine at residue ``den``
    (den_man, den_exp), with r = floor(2**(3p+2) / den_man) kept per context."""
    _, man, exp = ctx._sines[den]
    if den not in ctx._recips:
        ctx._recips[den] = (1 << 3 * ctx.precision_bits + 2) // man
    return g, ht, man, ctx._recips[den], exp


def _sine_product(ctx: LevelContext, steps: Sequence[tuple], dots: Sequence[int]) -> QReal:
    """Product of sin(pi*(dots[g]+ht)/l)/sin(pi*ht/l) over the plan steps
    (g, ht, den_man, r, den_exp) of ``_fold_step``, no numerator a multiple
    of l; the scale records the largest partial product.

    The value is the left fold value = value * sin(num) / sin(den) in mpf
    arithmetic at the context's precision p, bit for bit, computed on plain
    integers: the partial product is a sign, a mantissa of exactly p bits
    and an exponent.  The bits agree because mpf_mul and mpf_div each
    return the round-to-nearest-even value of their exact result (mpf_div
    divides to at least p+4 quotient bits plus a sticky bit), so any other
    correctly rounded pair of steps gives the same values, whatever the
    mantissa representation:

    - The product t of two p-bit mantissas has 2p-1 or 2p bits; its top
      bit picks how many low bits w to drop.  t + 2**(w-1) >> w rounds half
      up; the dropped bits of t + 2**(w-1) are all zero only at a tie, which
      then goes to even by clearing the low bit.  A round-up to 2**p carries
      into the exponent.
    - The quotient x = m*2**s/d of two p-bit mantissas, s = p-1 if m >= d
      and p otherwise, lies in [2**(p-1), 2**p).  It is never halfway
      between two integers q and q+1: the odd part of m*2**s would then be
      a multiple of 2q+1 > 2**p.  So x is at least 1/(2d) > 2**-(p+1) from
      every half-integer (nor does it round up to 2**p), and m*r/2**(K-s),
      with K = 3p+2 and r = floor(2**K/d), falls short of x by less than
      2**(p+s-K) <= 2**-(p+2): (m*r + 2**(K-s-1)) >> (K-s) is the nearest
      integer to x, with no tie, no carry and no division.
    - The sign is the XOR of the numerators' signs, and magnitudes compare
      as (exponent, mantissa).

    The value and the scale are handed over as ``QReal`` triples.
    """
    sines, period = ctx._sines, 2 * ctx.shifted_level
    p = ctx.precision_bits
    p1, full, top = p - 1, 1 << p, 1 << 2 * p - 1
    # half the unit of the p (or p-1) bits dropped, and their mask
    half, half_low = 1 << p1, 1 << p - 2
    mask, mask_low = (1 << p) - 1, (1 << p1) - 1
    sh, sh_low = 2 * p + 3, 2 * p + 2  # K - s, then half its unit
    qhalf, qhalf_low = 1 << sh - 1, 1 << sh_low - 1
    sign = 0
    man = scale_man = 1 << p1
    exp = scale_exp = -p1
    for g, ht, den_man, r, den_exp in steps:
        num_sign, num_man, num_exp = sines[(dots[g] + ht) % period]
        sign ^= num_sign
        # plus 1 below for a 2p-bit product (p bits dropped, not p-1), minus
        # 1 for a dividend below d (scaled by 2**p, not 2**(p-1))
        exp += num_exp - den_exp
        t = man * num_man
        if t >= top:
            t += half
            man = t >> p
            exp += 1
            if not t & mask:
                man &= -2
        else:
            t += half_low
            man = t >> p1
            if not t & mask_low:
                man &= -2
        if man == full:
            man >>= 1
            exp += 1
        if man >= den_man:
            man = (man * r + qhalf) >> sh
        else:
            man = (man * r + qhalf_low) >> sh_low
            exp -= 1
        if exp >= scale_exp and (exp > scale_exp or man > scale_man):
            scale_exp, scale_man = exp, man
    return QReal((sign, man, exp), (0, scale_man, scale_exp), p)


def qdim(weight: Sequence[int], ctx: LevelContext) -> QReal:
    """Quantum dimension of the irreducible with the given dominant highest weight.

    Computed as the product over positive roots beta of
    sin(pi (weight+rho | beta) / l) / sin(pi (rho | beta) / l); factors with
    (weight | beta) = 0 equal 1 exactly and are skipped.  The result is an
    exact zero precisely when some numerator pairing is divisible by l.
    """
    cache = ctx._qdim_cache
    w = weight if type(weight) is tuple else tuple(weight)
    # every cached key is a dominant weight of the right rank
    cached = cache.get(w)
    if cached is not None:
        return cached
    w = int_weight(w)
    out = cache[w] = qdim_unmemoized(w, ctx)
    return out


def qdim_unmemoized(weight: Sequence[int], ctx: LevelContext) -> QReal:
    """``qdim`` evaluated without its memo, which it neither reads nor fills."""
    w = int_weight(weight)
    if len(w) != ctx.root_system.rank:
        raise ValueError("weight has wrong rank")
    if not is_dominant(w):
        raise ValueError("qdim requires a dominant weight; reduce general weights first")
    # (w + rho | beta) = ht(beta) + (w | beta), and (w | beta) > 0 exactly on
    # the support roots, which pair with w through their group's vector
    plan = support_plan(ctx, tuple(compress(range(len(w)), w)))
    coords = tuple(filter(None, w))
    return plan_qdim(plan, [sum(map(mul, coords, g)) for g in plan[0]], ctx)


def qdim_line(node: int, k: int, ctx: LevelContext) -> QReal:
    """Quantum dimension of k*w_node for k >= 0, from the qdim memo."""
    return qdim(fundamental_weight(ctx.root_system.rank, node, k), ctx)


def alcove_line(node: int, ctx: LevelContext) -> list[tuple]:
    """The values qdim(k*w_node) for the k with k*w_node in the level's
    alcove, k = 0 .. level // a_node, as p-bit triples, one ``qdim_line``
    call each."""
    top = ctx.level // ctx.root_system.marks[node - 1]
    return [qdim_line(node, k, ctx)._v for k in range(top + 1)]


def qdim_classical(rs: RootSystem, weight: Sequence[int]) -> int:
    """Dimension of the irreducible via the Weyl formula, in exact arithmetic:
    the product of (weight | beta) + ht(beta) over the product of ht(beta)."""
    w = int_weight(weight)
    if not is_dominant(w):
        raise ValueError("classical dimension requires a dominant weight")
    num = den = 1
    for b, ht in zip(rs.positive_roots, rs.heights):
        num, den = num * (sum(map(mul, w, b)) + ht), den * ht
    if num % den:
        raise AssertionError("Weyl formula did not produce an integer")
    return num // den
