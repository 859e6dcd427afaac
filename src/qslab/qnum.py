"""Quantum dimensions at the primitive 2l-th root of unity exp(i*pi/l).

Every sine argument that occurs is an integer multiple of pi/l, so a
LevelContext keeps, per width, a row of the ratios |sin(pi*(r+ht)/l)| /
sin(pi*ht/l) by residue r mod l for every root height ht in fixed point,
and a quantum dimension is one fixed-point pass over such rows, rounded once.
Exact zeros are decided by integer congruences on pairings, never by float
thresholding.

A quantum dimension, its scale and ``QReal`` hold p-bit triples (sign,
mantissa exactly p bits wide, exponent), or ``ZERO``, at the context's
precision p.  Every weight takes one path: one pass over its support's
groups decides an exact zero and the sign (``plan_qdim``, or
``progression_terms`` inline for weights whose pairings advance by one
vector), and a fixed-point walk (``_walk_terms``) gives the product and its
scale, correctly rounded (a proven error bound and Ziv's test), and the row
term that :mod:`qslab.krchar` adds; one ``qdim`` memo entry holds both.
``QReal``'s operations round as the libmp calls they stand for, to nearest
with ties to even, so their bits are those of mpf arithmetic, without
libmp's normal form.

The sines are qnum's own: an integer Taylor series with pi from Machin's
formula (``pi_fixed``), within a stated bound (``_abs_sines``).
``log_fixed`` gives the logarithms of the dilogarithm sum in fixed point,
and ``render_decimal`` writes every number qslab prints, a triple as one
correctly rounded decimal division (``render_note``: without trailing
zeros), and ``triple_fraction`` hands a triple out as the exact
``fractions.Fraction`` it stands for (``QReal.value`` and
``magnitude_scale``).  No command imports mpmath: ``mp_context`` imports it
inside the call, for ``LevelContext.mp`` alone.
"""

from __future__ import annotations

import functools
import math
from decimal import ROUND_HALF_EVEN, Context as DecimalContext, Decimal
from itertools import accumulate, compress
from operator import index, mul
from typing import Sequence

from .rootsys import RootSystem, Weight, fundamental_weight, int_weight, is_dominant

MIN_PRECISION_BITS = 64
# The working precision wherever none is given.
DEFAULT_PRECISION_BITS = 128
ZERO = (0, 0, 0)  # the p-bit triple of 0, at every p
# libmp's raw +inf, -inf and nan, which a check's violation may hold
FINF, FNINF, FNAN = (0, 0, -456, -2), (1, 0, -789, -3), (0, 0, -123, -1)
# Bits past the precision in ``plan_qdim``'s first walk: the 34 436 products of full
# verify runs at E6 L1-30, E7 L1-40 and E8 L1-30 all round in one pass at 32
GUARD_BITS = 64


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
    With s = p - 1 if ma >= mb, else p, x = ma*2**s/mb lies in [2**(p-1),
    2**p - 1/2).  It is never halfway between integers q and q + 1, as the
    odd part of ma would then be a multiple of 2q + 1 > 2**p, so
    floor(2x + 1) / 2 rounds it, and never up to 2**p."""
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


def triple_fraction(t: tuple):
    """A triple (sign, mantissa, exponent) as the exact ``fractions.Fraction``
    (-1)**sign * mantissa * 2**exponent."""
    from fractions import Fraction

    sign, man, exp = t
    num = -man if sign else man
    return Fraction(num << exp) if exp >= 0 else Fraction(num, 1 << -exp)


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


def render_note(x, digits: int) -> str:
    """A note's number: ``render_decimal`` without the trailing zeros of its
    fraction, so equal rounded values print equally, exact or not."""
    mant, e, exp = render_decimal(x, digits).partition("E")
    return (mant.rstrip("0").rstrip(".") if "." in mant else mant) + e + exp


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


def _sinpi_fixed(k: int, l: int, w: int) -> int:
    """s with |sin(pi k / l) 2**w - s| < 2w, for 0 < 2k < l and w >= 8.

    x = pi k / l is taken as pi_fixed(w) k // l (sin x, for 4k <= l) or as
    y = pi (l - 2k) / (2 l) (cos y = sin x, for 4k > l), below pi/4 and off
    by less than 1.25 units either way.  Its Taylor series is summed with
    every term floored from the one before: each term is then off by less
    than 2 units, and the first that floors to 0 bounds the alternating
    tail by 2 more, so n terms leave s within 2n + 4 units.  Each term is
    under 0.31 of the one before ((pi/4)**2 / 2), so n <= 0.6 w + 1, and
    2n + 4 < 2w.
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
    return total


def _abs_sines(l: int, w: int) -> list[int]:
    """sin(pi r / l) 2**w for the half period 0 <= r <= l // 2, each off by
    less than 2w units (w >= 8), with sin 0 and sin(pi/2) exact: the rest of
    the period mirrors it, |sin(pi (l - r) / l)| = sin(pi r / l)."""
    half = [0] + [_sinpi_fixed(k, l, w) for k in range(1, (l + 1) // 2)]
    return half + [1 << w] if l % 2 == 0 else half


class QReal:
    """A high-precision real together with a coarse magnitude scale.

    ``magnitude_scale`` bounds the largest intermediate magnitude that went
    into the value (never below max(1, |value|)); ``build_qgrid``'s
    ``is_clear_of_zero`` guard and ``theorem_report``'s relative gaps read
    it.  Both are held as p-bit triples at the precision ``p``; the
    operators round as the libmp calls of the mpf operators do, in the same
    order, to the same bits.  ``value`` and ``magnitude_scale`` read them as
    exact ``Fraction``s; ``_v`` and ``_s`` are the triples themselves.
    """

    __slots__ = ("_v", "_s", "_p")

    def __init__(self, value: tuple, scale: tuple, p: int):
        self._v, self._s, self._p = value, scale, p

    value = property(lambda self: triple_fraction(self._v))
    magnitude_scale = property(lambda self: triple_fraction(self._s))
    __bool__ = lambda self: bool(self._v[1])  # false exactly for the value 0

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
    """The one mpmath context at this precision, made on first use: qslab's
    one import of mpmath, for ``LevelContext.mp`` alone, which stays because
    perfbench/tracing.py's solve hook reads it (ROADMAP item 1b).  No code
    writes its ``prec`` after it is made, so nothing leaks between runs."""
    from mpmath.ctx_mp import MPContext

    mp = MPContext()
    mp.prec = precision_bits
    return mp


class LevelContext:
    """Carries the root system, the level, and the arithmetic precision.

    Each context computes on p-bit triples at its precision p (no global
    precision state); ``mp``, the shared mpmath context of that precision
    (``mp_context``), is made only when read.  It owns the fixed-point rows
    of sine ratios, one list of every root height's row per width
    (``_ratio_rows``), one plan per support pattern (``support_plan``), the
    ``qdim`` memo (a dominant weight's value and row term) and the summed
    Chari rows of :mod:`qslab.krchar` by (node, box count), with the nested
    nodes' running sums.  ``one`` and ``zero`` are its exact 1 and 0, and
    ``term_width`` = p + GUARD_BITS the width of its walks and row terms.
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
        self.term_width = precision_bits + GUARD_BITS
        one = one_triple(precision_bits)
        self.one, self.zero = QReal(one, one, precision_bits), QReal(ZERO, one, precision_bits)
        self._qdim_cache: dict[Weight, tuple[QReal, tuple[int, int]]] = {}
        self._plans: dict[tuple[int, ...], tuple] = {}
        self._rows: dict[int, list] = {}  # width -> row by height
        self._chari_rows: dict[tuple[int, int], QReal] = {}  # (node, box count) -> summed row
        self._chari_sums: dict[int, list[tuple[int, int]]] = {}  # nested node -> running sums

    mp = property(lambda self: mp_context(self.precision_bits))

    def __repr__(self) -> str:
        return (f"LevelContext({self.root_system.type_label}, level={self.level}, "
                f"l={self.shifted_level}, prec={self.precision_bits})")

    def _ratio_rows(self, w: int) -> list:
        """By root height 0 < ht < h (entry 0 None), the row of ratios
        |sin(pi (r + ht) / l)| / sin(pi ht / l) at w bits, r = 0 .. l - 1,
        each within l 2**-w of its ratio, relatively; made once per width.

        The entries are floor(s 2**w / t) of ``_abs_sines`` at v = w + c
        bits, c = bitlen(w) + 4, so each sine is within 2v <= 2**(c-2) units
        (w >= 8), and within l 2**-(w+3) relatively, as sin(pi/l) >= 2/l.
        The quotient of two such is within l 2**-(w+1) of the ratio, and the
        floor drops less than one unit, which is under l 2**-(w+1) of a
        ratio of at least 2/l.  A ratio of 1 is exact.  A row is the half
        period of quotients, mirrored to the full period, rotated by ht.
        """
        rows = self._rows.get(w)
        if rows is None:
            l = self.shifted_level
            sines = _abs_sines(l, w + w.bit_length() + 4)
            rows = self._rows[w] = [None]
            for ht in range(1, self.root_system.coxeter_number):
                den = sines[min(ht, l - ht)]
                half = [(s << w) // den for s in sines]
                full = half + half[1:(l + 1) // 2][::-1]
                rows.append(full[ht:] + full[:ht])
        return rows


def support_plan(ctx: LevelContext, support: tuple[int, ...]) -> tuple:
    """``(vectors, steps, signs, c, least)`` for the weights whose nonzero
    coordinates are the 0-based ``support``, which pair only with the roots
    nonzero there; made once per context.  ``vectors[g]`` is group g's
    coefficient vector on the support, shared by its n roots, and
    ``signs[g]`` is ``(n, table)``: for a pairing d = q l + r, ``table[r]``
    is None when some numerator d + ht is a multiple of l (ht = l - r, as 1
    <= ht < h < l), else the count of those passing (q + 1) l.  ``steps``
    holds ``(g, ht, row)`` per root in canonical order, row that of ht in
    ``ctx._ratio_rows`` at ``ctx.term_width``.  A one-node support groups
    its roots by the entries of its root column.  The walks' bounds close
    it: c = n (6l + 2) for its n steps, and ``least``, the bit length p + 35
    + bitlen(c) of the least partial product that gives a row term."""
    plan = ctx._plans.get(support)
    if plan is not None:
        return plan
    rs, l = ctx.root_system, ctx.shifted_level
    rows = ctx._ratio_rows(ctx.term_width)
    cols = [rs.root_columns[j] for j in support]
    one = len(cols) == 1  # its vectors are the column's entries
    groups, steps = {}, []  # vector -> (group, its l - ht); product steps
    for v, ht in zip(cols[0] if one else zip(*cols), rs.heights):
        if v if one else any(v):
            group = groups.get(v)
            if group is None:
                group = groups[v] = len(groups), []
            group[1].append(l - ht)
            steps.append((group[0], ht, rows[ht]))
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
    plan = ctx._plans[support] = (tuple((v,) for v in groups) if one else tuple(groups),
                                  steps, signs, c, ctx.precision_bits + 35 + c.bit_length())
    return plan


def plan_qdim(plan: tuple, dots: Sequence[int], ctx: LevelContext) -> tuple:
    """``(quantum dimension, row term)`` of the weight whose pairings with
    the groups of a ``support_plan`` are ``dots``.  One pass over the groups
    decides an exact zero (``ctx.zero``, row term (0, 2**W), W =
    ``ctx.term_width``) and the sign, the parity of the sum of the quotients
    floor((d + ht) / l), n q + table[r] over a group for d = q l + r; the
    walks of ``_walk_terms`` give the rest.
    """
    l = ctx.shifted_level
    neg, res = 0, []
    for d, (n, table) in zip(dots, plan[2]):
        q, r = divmod(d, l)
        t = table[r]
        if t is None:
            return ctx.zero, (0, 1 << ctx.term_width)
        neg += n * q + t
        res.append(r)
    return _walk_terms(plan, neg & 1, res, ctx, True)


def progression_terms(plan: tuple, first: Sequence[int], step: Sequence[int], count: int,
                      ctx: LevelContext) -> tuple[int, int]:
    """The exact sums (signed x, hi) of the row terms of ``plan_qdim(plan,
    dots_r, ctx)`` for the weights whose pairings with the plan's groups are
    dots_r = first + r step, r = 0 .. count - 1, in units of 2**-W, W =
    ``ctx.term_width``.  Each weight takes ``plan_qdim``'s pass over the
    groups inline; an exact zero ends it and is only counted, its row terms
    (0, 2**W) added to the sums at once, and the others walk unrounded: one
    ``_ratio_walk`` at W bits each, and ``_walk_terms``, which walks again
    wider, only where its least partial product is shorter than the plan's
    ``least``."""
    l, steps, least, w = ctx.shifted_level, plan[1], plan[4], ctx.term_width
    groups = [(f, s, n, table) for f, s, (n, table) in zip(first, step, plan[2])]
    value = scale = zeros = 0
    for i in range(count):
        neg, res = 0, []
        for f, s, n, table in groups:
            q, r = divmod(f + i * s, l)
            t = table[r]
            if t is None:
                zeros += 1
                break
            neg += n * q + t
            res.append(r)
        else:
            x, hi, lo = _ratio_walk(ctx, steps, res, w)
            if lo.bit_length() < least:
                x, hi = _walk_terms(plan, 0, res, ctx, False)[1]
            value += -x if neg & 1 else x
            scale += hi
    return value, scale + (zeros << w)


def _walk_terms(plan: tuple, sign: int, res: list[int], ctx: LevelContext, rounded: bool) -> tuple:
    """``plan_qdim``'s (value, row term) of a nonzero weight of the given
    sign and residues, the value None unless ``rounded``.  The walks
    (``_ratio_walk`` over the plan's steps, the first at W bits) give the
    product and its scale, hi, correctly rounded to p bits if ``rounded``
    (Ziv's test: rounding to nearest is monotone, so when both ends of [x -
    e, x + e] round to one p-bit value, so does the exact one), and the
    signed x and hi of the first walk whose lo is ``least`` bits long or
    more, lo >= 2**(p + 34 + bitlen(c)) for the plan's c, floored to W
    bits: then e < hi 2**-(p+34) + 1 and the floor adds under 2 units, so
    both lie within 2**-(p+33) hi of 2**W times their exact values (for W
    >= p + 36).  Until both are found the walk runs again with the guard
    bits doubled, plus those lost at lo; only an exact p-bit tie never
    rounds, and the walks give up past 64 p bits.  Neither the widths nor
    the walk that gives the row term depend on ``rounded``, so neither does
    the row term.
    """
    (_, steps, _, c, least), p, w = plan, ctx.precision_bits, ctx.term_width
    value = term = None
    while True:
        x, hi, lo = _ratio_walk(ctx, steps, res, w)
        k = lo.bit_length() - 1
        if term is None and lo.bit_length() >= least:
            n = w - ctx.term_width
            term = -(x >> n) if sign else x >> n, hi >> n
        if rounded and value is None and k >= p:
            e = (c * x >> k) + 1
            v = round_triple(sign, x - e, -w, p)
            if v == round_triple(sign, x + e, -w, p):
                e = (c * hi >> k) + 1
                s = round_triple(0, hi - e, -w, p)
                if s == round_triple(0, hi + e, -w, p):
                    value = QReal(v, s, p)
        if term is not None and (value is not None or not rounded):
            return value, term
        if w > 64 * p:
            raise RuntimeError(f"sine product undecided at {w} bits")
        w += (w - p) + (w - k)


def _ratio_walk(ctx: LevelContext, steps: list, res: Sequence[int], w: int) -> tuple:
    """``(x, hi, lo)`` of the product of |sin(pi (r + ht) / l)| / sin(pi ht /
    l) over the ``support_plan`` steps (g, ht, row), r = res[g] the residue
    of group g's pairing: one fixed-point pass at w bits.

    x_k = floor(x_{k-1} R_k / 2**w) from x_0 = 2**w, on row entries R_k
    within eta = l 2**-w of the ratios, relatively, to the last x, the
    largest hi and the least lo.  With lo >= 2**j, j >= p, x_k / (2**w t_k)
    for the exact partial products t_k lies between ((1 - eta) / (1 +
    2**-j))**k and (1 + eta)**k, so for n steps x_k is within e = n (6l + 2)
    x_k 2**-j + 1 units of 2**w t_k wherever n (2**-j + 3 eta) <= 1, and hi
    within the same of 2**w max t_k.
    """
    if w != ctx.term_width:
        rows = ctx._ratio_rows(w)
        steps = [(g, ht, rows[ht]) for g, ht, _ in steps]
    x = hi = lo = 1 << w
    for g, _, row in steps:
        x = x * row[res[g]] >> w
        if x > hi:
            hi = x
        elif x < lo:
            lo = x
    return x, hi, lo


def qdim(weight: Sequence[int], ctx: LevelContext) -> QReal:
    """Quantum dimension of the irreducible with the given dominant highest weight.

    Computed as the product over positive roots beta of
    sin(pi (weight+rho | beta) / l) / sin(pi (rho | beta) / l); factors with
    (weight | beta) = 0 equal 1 exactly and are skipped.  The result is an
    exact zero precisely when some numerator pairing is divisible by l.  The
    memo holds one entry per weight, ``qdim_unmemoized``'s value and row term.
    """
    cache = ctx._qdim_cache
    w = weight if type(weight) is tuple else tuple(weight)
    # every cached key is a dominant weight of the right rank
    entry = cache.get(w)
    if entry is None:  # keyed by ints: each coordinate equals its int
        entry = cache[int_weight(w)] = qdim_unmemoized(w, ctx)
    return entry[0]


def qdim_unmemoized(weight: Sequence[int], ctx: LevelContext) -> tuple:
    """``plan_qdim`` of a dominant weight, (value, row term), without the
    ``qdim`` memo, which it neither reads nor fills."""
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
    """Quantum dimension of k*w_node for k >= 0, from the qdim memo; a miss
    at an int k >= 0 pairs k with the one-node plan's groups (all 0 at k =
    0, the weight 0's value 1), and ``qdim`` refuses any other k."""
    w = fundamental_weight(ctx.root_system.rank, node, k)
    entry = ctx._qdim_cache.get(w)
    if entry is None:
        if type(k) is not int or k < 0:
            return qdim(w, ctx)
        plan = support_plan(ctx, (node - 1,))
        entry = ctx._qdim_cache[w] = plan_qdim(plan, [k * v for v, in plan[0]], ctx)
    return entry[0]


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
