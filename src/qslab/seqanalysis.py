"""Log-concavity analysis of real sequences.

Provides the squared-difference operator L mapping (a_k) to
(a_k^2 - a_{k+1} a_{k-1}) with zero padding, iterated log-concavity
probing, and an exact test of whether the coefficient polynomial has only
real negative roots (a sufficient condition for infinite log-concavity).

A sequence holds its entries and its tolerance as p-bit triples
(``qslab.qnum``) at its precision p, and computes on them with qnum's
helpers: products and sums round to nearest at p bits, ties to even, as the
mpf operators do, and comparisons are exact.  An entry given as text, such
as a ``logconcave --seq`` number, is a decimal literal or a/b of two ints,
parsed exactly (with ``decimal``) and rounded once to p bits.

The rootedness verdict reads the entries exactly as the coefficients of an
integer polynomial.  A failed Newton inequality on them proves a non-real
root; where every inequality holds, a Descartes bisection on the integers
counts the positive and the negative roots, and an exact Sturm count of the
distinct real and positive roots decides what the bisection leaves open,
as it leaves a repeated real root.
"""

from __future__ import annotations

import math
from decimal import Decimal
from itertools import accumulate, groupby, islice
from typing import NamedTuple, Sequence

from .qnum import (DEFAULT_PRECISION_BITS, TRIPLE_ORDER, abs_triple, add_triples, cmp_triples,
                   mul_triples, one_triple, render_decimal, round_triple)

# The most characters on either side of an a/b entry, checked before int()
# reads them: Python refuses to convert more than 4 300 digits.
MAX_RATIO_SIDE = 1000
# The most halvings of (0, 1) in ``_unit_roots`` before an interval is left
# to the Sturm chain, as a repeated real root never settles; distinct roots
# m 2^e, |m| < 2^30, |e| <= 30, of up to 80 entries lie 2^-99 apart or more
# once scaled into (0, 1)
BISECTION_DEPTH = 128


def _max_abs_or_one(entries, p: int) -> tuple:
    """max(|e|) over the p-bit entries, raised to 1 when it is below 1."""
    return max([*map(abs_triple, entries), one_triple(p)], key=TRIPLE_ORDER)


class RealSequence:
    """A finite sequence of p-bit triples, p = ``precision_bits``, with a
    comparison tolerance, a p-bit triple too; the triples given are rounded
    to p bits, as ``round_triple`` does."""

    __slots__ = ("entries", "tolerance", "precision_bits")

    def __init__(self, entries: tuple, tolerance: tuple,
                 precision_bits: int = DEFAULT_PRECISION_BITS):
        if len(entries) < 1:
            raise ValueError("sequence must be nonempty")
        object.__setattr__(self, "entries",
                           tuple(round_triple(*e, precision_bits) for e in entries))
        object.__setattr__(self, "tolerance", round_triple(*tolerance, precision_bits))
        object.__setattr__(self, "precision_bits", precision_bits)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to RealSequence.{name}")

    def __eq__(self, other):
        return type(other) is RealSequence and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __len__(self) -> int:
        return len(self.entries)


def _default_tolerance(m: tuple, p: int) -> tuple:
    """2^-64 m^2 at p bits, m the entries' ``_max_abs_or_one``."""
    _, man, exp = mul_triples(m, m, p)
    return 0, man, exp - 64


def _entry(value, p: int) -> tuple:
    """A sequence entry as a p-bit triple: a triple or an mpf number's raw
    value rounded to nearest; an int or a ``Fraction`` by its numerator and
    denominator; else the ``str`` of a float or text, a decimal literal or
    a/b of two ints of at most ``MAX_RATIO_SIDE`` characters each.  A
    number's exact value is rounded once through a sticky bit.  An entry
    must be 0 or in the double range, as the root counts of
    ``branden_criterion`` cost more the wider the exponents spread; the
    refusal quotes at most 40 characters of the entry.  Infinities and nans
    are refused."""
    raw = value if isinstance(value, tuple) else getattr(value, "_mpf_", None)
    if raw is not None:
        sign, man, exp = raw[:3]
        if not man and exp:
            raise ValueError("entries must be finite")
        return round_triple(sign, man, exp, p)
    den = getattr(value, "denominator", None)
    if den is not None:
        num, text = value.numerator, None
    else:
        text = str(value)
        num, slash, den = text.partition("/")
        if slash:
            if max(len(num), len(den)) > MAX_RATIO_SIDE:
                raise ValueError(f"{clip(text)}: a side of a/b exceeds {MAX_RATIO_SIDE} "
                                 "characters")
            num, den = int(num), int(den)
            if not den:
                raise ValueError(f"{clip(text)}: division by zero")
        else:
            float(text)  # the float syntax, and its ValueError for anything else
            d = Decimal(text)
            if not d.is_finite():
                raise ValueError("entries must be finite")
            if d and abs(d.adjusted()) > 400:  # refused before any integer is formed
                raise ValueError(_outside(text))
            num, den = d.as_integer_ratio()
    sign, num, den = (num < 0) ^ (den < 0), abs(num), abs(den)
    shift = p + 2 - num.bit_length() + den.bit_length()
    q, r = divmod(num << shift, den) if shift >= 0 else divmod(num, den << -shift)
    t = round_triple(sign, q << 1 | (r > 0), -shift - 1, p)
    if t[1] and not -1073 <= t[2] + p <= 1024:
        raise ValueError(_outside(render_decimal(t, 17) if text is None else text))
    return t


def clip(text: str) -> str:
    """``text`` as a refusal quotes it: whole up to 40 characters, else its
    first 37 and "..."."""
    return text if len(text) <= 40 else text[:37] + "..."


def _outside(text: str) -> str:
    """The refusal of an entry outside the double range."""
    return f"{clip(text)} is outside the double range [2^-1074, 2^1024)"


def make_sequence(values: Sequence, precision_bits: int = DEFAULT_PRECISION_BITS) -> RealSequence:
    """Build a RealSequence of ``precision_bits``-bit entries whose tolerance
    scales with max|entry|^2; each value becomes an entry as ``_entry``
    says."""
    entries = tuple(_entry(v, precision_bits) for v in values)
    m = _max_abs_or_one(entries, precision_bits)
    return RealSequence(entries, _default_tolerance(m, precision_bits), precision_bits)


def l_operator(seq: RealSequence) -> RealSequence:
    """One application of a_k -> a_k^2 - a_{k+1} a_{k-1} (zero padded)."""
    a, p = seq.entries, seq.precision_bits
    out = [mul_triples(e, e, p) for e in a]
    for k in range(1, len(a) - 1):
        out[k] = add_triples(out[k], mul_triples(a[k + 1], a[k - 1], p), p, 1)
    m = _max_abs_or_one(a, p)
    sign, man, exp = seq.tolerance  # twice it is (sign, man, exp + 1)
    tol = add_triples(mul_triples((sign, man, exp + 1), m, p), _default_tolerance(m, p), p)
    return RealSequence(tuple(out), tol, p)


def log_concavity_order(seq: RealSequence, max_order: int) -> int:
    """Largest i <= max_order with the i-th L-iterate nonnegative within tolerance.

    i = 0 means the sequence itself; a sequence that already fails at i = 0
    reports -1.  Reaching max_order means the order is at least max_order.
    """
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    cur = seq
    for i in range(max_order + 1):
        sign, man, exp = cur.tolerance
        least = (sign ^ 1, man, exp)  # -tolerance
        if not all(cmp_triples(e, least) >= 0 for e in cur.entries):
            return i - 1
        if i < max_order:
            cur = l_operator(cur)
    return max_order


def order_text(order: int, max_order: int) -> str:
    """A ``log_concavity_order`` probed up to ``max_order``, in words."""
    if order == max_order:
        return f">= {order} (probed up to {order})"
    if order < 0:
        return "-1 (the sequence itself fails)"
    return f"{order} (iterate {order + 1} fails)"


def is_log_concave(seq: RealSequence) -> bool:
    """Strict log-concavity within the sequence's tolerance: a_k^2 > a_{k-1}
    a_{k+1} + tolerance at every interior index, the bound rounded at p
    bits.  On a positive sequence this triple form is equivalent to the
    pairwise form a_k a_m > a_{k-1} a_{m+1} for k <= m, so it alone decides.
    """
    a, tol, p = seq.entries, seq.tolerance, seq.precision_bits
    return all(cmp_triples(mul_triples(a[k], a[k], p),
                           add_triples(mul_triples(a[k - 1], a[k + 1], p), tol, p)) > 0
               for k in range(1, len(a) - 1))


class RootednessVerdict(NamedTuple):
    status: str  # "real_negative" | "not_real_negative"
    witness: str | None = None


def verdict_text(verdict: RootednessVerdict) -> str:
    """A ``branden_criterion`` verdict in words: ``status (witness)``, or the status alone."""
    return f"{verdict.status} ({verdict.witness})" if verdict.witness else verdict.status


def _neg_prem(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of -(a mod b), on Z; [] when the remainder is zero.

    Each division step first scales by |lc b| rather than lc b, so the
    remainder keeps its sign and the chain stays a Sturm chain.
    """
    lead = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    a = list(a)
    while len(a) >= len(b):
        top = sign * a.pop()
        if top:
            shift = len(a) - len(b) + 1
            a = [lead * c for c in a]
            for k, c in enumerate(b[:-1]):
                a[shift + k] -= top * c
    while a and a[-1] == 0:
        a.pop()
    content = math.gcd(*a)
    return [-c // content for c in a]


def _variations(values) -> int:
    signs = [v > 0 for v in values if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _sturm_verdict(coeffs: list[int]) -> RootednessVerdict:
    """Verdict for an integer polynomial with nonzero constant and leading terms.

    The chain p, p', then primitive negated pseudo-remainders, ends in
    gcd(p, p'); its sign changes count the distinct real and positive roots
    of p, and deg p - deg gcd(p, p') is the number of distinct roots.
    """
    chain = [coeffs]
    nxt = [k * c for k, c in enumerate(coeffs)][1:]
    while nxt:
        chain.append(nxt)
        nxt = _neg_prem(chain[-2], chain[-1])
    at_plus = _variations([q[-1] for q in chain])
    at_minus = _variations([q[-1] if len(q) % 2 else -q[-1] for q in chain])
    at_zero = _variations([q[0] for q in chain])
    return _counted(at_minus - at_plus < len(coeffs) - len(chain[-1]), at_zero > at_plus)


def _counted(non_real: bool, positive: bool) -> RootednessVerdict:
    """The verdict of an exact root count."""
    if non_real:
        return RootednessVerdict("not_real_negative", "non-real root (exact count)")
    if positive:
        return RootednessVerdict("not_real_negative", "positive real root (exact count)")
    return RootednessVerdict("real_negative")


def _shifted(a: list[int]):
    """The coefficients of a(x + 1), lowest power first, for a held highest
    power first: each pass of running sums fixes the next one."""
    while a:
        a = list(accumulate(a))
        yield a.pop()


def _unit_roots(a: list[int], depth: int) -> int | None:
    """The roots in (0, 1) of a, lowest power first, each simple, or None.

    Descartes' rule on (x + 1)^n a(1/(x + 1)) settles an interval with 0 or
    1 sign changes (counted up to 2); otherwise (0, 1/2) and (1/2, 1) are
    mapped onto (0, 1) by 2^n a(x/2) and its shift, a root at 1/2 counted
    once.  None when a root at 1/2 is repeated or ``depth`` halvings leave
    an interval open.
    """
    v = len(list(islice(groupby(c > 0 for c in _shifted(a) if c), 3))) - 1
    if v < 2:
        return v
    if not depth:
        return None
    n = len(a) - 1
    left = [c << n - k for k, c in enumerate(a)]
    right = list(_shifted(left[::-1]))
    mid = not right[0]
    if mid:
        if not right[1]:
            return None
        del right[0]
    lo = _unit_roots(left, depth - 1)
    hi = None if lo is None else _unit_roots(right, depth - 1)
    return None if hi is None else lo + mid + hi


def _positive_roots(c: list[int]) -> int | None:
    """The positive roots of sum c_k x^k, c_0 != 0, each simple, or None
    (``_unit_roots``).  With 2^s above Fujiwara's bound 2 max |c_k /
    c_n|^(1/(n-k)), x -> 2^s x maps them into (0, 1)."""
    v = _variations(c)
    if v < 2:
        return v
    n, top = len(c) - 1, c[-1].bit_length() - 1
    s = 1 + max(-((top - c[k].bit_length()) // (n - k)) for k in range(n))
    return _unit_roots([ck << (s * k if s > 0 else -s * (n - k)) for k, ck in enumerate(c)],
                       BISECTION_DEPTH)


def _newton_violation(coeffs: list[int]) -> int | None:
    """First k with c_k^2 k(n-k) < c_{k-1} c_{k+1} (k+1)(n-k+1), else None.

    These are Newton's inequalities for c_k / binom(n, k), n the degree
    (Hardy, Littlewood and Polya, Inequalities, 2.22).  Every real-rooted
    real polynomial satisfies them, whatever the signs of its coefficients,
    so a violation proves a non-real root.
    """
    n = len(coeffs) - 1
    for k in range(1, n):
        if (coeffs[k] ** 2 * k * (n - k)
                < coeffs[k - 1] * coeffs[k + 1] * (k + 1) * (n - k + 1)):
            return k
    return None


def branden_criterion(seq: RealSequence) -> RootednessVerdict:
    """Classify whether sum a_k x^k has only real, strictly negative roots.

    The coefficients are the entries times the power of two that makes them
    integers, not all even: the signed mantissas aligned to the least exponent
    of the nonzero entries, their common trailing zeros shifted out.  Trailing
    zero coefficients are dropped and a zero constant term is a root at 0.
    Otherwise the first failed Newton inequality witnesses a non-real root.
    Where none fails, a Descartes bisection counts the positive roots of
    p(x) and p(-x) exactly (Collins and Akritas, SYMSAC 1976): fewer than
    deg p is a non-real root, else a positive one is a positive real root.
    An interval it does not settle (a repeated real root never does) leaves
    the verdict to the Sturm chain, which counts the distinct real and
    positive roots, so the status and witness are the chain's either way.
    """
    if not any(man for _, man, _ in seq.entries):
        raise ValueError("zero polynomial")
    low = min(exp for _, man, exp in seq.entries if man)
    coeffs = [(-man if sign else man) << exp - low if man else 0 for sign, man, exp in seq.entries]
    zeros = min((c & -c).bit_length() for c in coeffs if c) - 1
    coeffs = [c >> zeros for c in coeffs]
    while coeffs[-1] == 0:
        coeffs.pop()
    if coeffs[0] == 0:
        return RootednessVerdict("not_real_negative", "root at 0")
    k = _newton_violation(coeffs)
    if k is not None:
        return RootednessVerdict("not_real_negative", f"non-real root (Newton inequality at k={k})")
    pos = _positive_roots(coeffs)
    neg = None if pos is None else _positive_roots([-c if i & 1 else c
                                                     for i, c in enumerate(coeffs)])
    if neg is None:
        return _sturm_verdict(coeffs)
    return _counted(pos + neg < len(coeffs) - 1, pos > 0)
