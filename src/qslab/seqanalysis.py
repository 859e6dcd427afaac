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
root; where every inequality holds, an exact Sturm count, on the integers,
of the real and the positive roots decides.
"""

from __future__ import annotations

import math
from decimal import Decimal
from typing import NamedTuple, Sequence

from .qnum import (DEFAULT_PRECISION_BITS, TRIPLE_ORDER, abs_triple, add_triples, cmp_triples,
                   mul_triples, one_triple, round_triple)


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
    value rounded to nearest; else the ``str`` of an int, a float, a
    ``Fraction`` or text, a decimal literal or a/b of two ints, its exact
    value rounded once through a sticky bit.  A parsed entry must be 0 or
    in the double range, as the Sturm chain of ``branden_criterion`` costs
    more the wider the exponents spread.  Infinities and nans are refused."""
    raw = value if isinstance(value, tuple) else getattr(value, "_mpf_", None)
    if raw is not None:
        sign, man, exp = raw[:3]
        if not man and exp:
            raise ValueError("entries must be finite")
        return round_triple(sign, man, exp, p)
    text = str(value)
    outside = f"{text} is outside the double range [2^-1074, 2^1024)"
    num, slash, den = text.partition("/")
    if slash:
        num, den = int(num), int(den)
        if not den:
            raise ValueError(f"{text}: division by zero")
    else:
        float(text)  # the float syntax, and its ValueError for anything else
        d = Decimal(text)
        if not d.is_finite():
            raise ValueError("entries must be finite")
        if d and abs(d.adjusted()) > 400:  # refused before any integer is formed
            raise ValueError(outside)
        num, den = d.as_integer_ratio()
    sign, num, den = (num < 0) ^ (den < 0), abs(num), abs(den)
    shift = p + 2 - num.bit_length() + den.bit_length()
    q, r = divmod(num << shift, den) if shift >= 0 else divmod(num, den << -shift)
    t = round_triple(sign, q << 1 | (r > 0), -shift - 1, p)
    if t[1] and not -1073 <= t[2] + p <= 1024:
        raise ValueError(outside)
    return t


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


def is_log_concave(seq: RealSequence, strict: bool = False) -> bool:
    """Whether a_k^2 >= a_{k-1} a_{k+1} holds at every interior index, within
    the sequence's tolerance (a_k^2 > a_{k-1} a_{k+1} + tolerance when
    ``strict``); the bound a_{k-1} a_{k+1} -+ tolerance rounds at p bits.

    On a positive sequence this triple form is equivalent to the pairwise
    form a_k a_m >= a_{k-1} a_{m+1} for k <= m, so the triple form alone
    decides.
    """
    a, tol, p = seq.entries, seq.tolerance, seq.precision_bits
    least = 1 if strict else 0
    return all(cmp_triples(mul_triples(a[k], a[k], p),
                           add_triples(mul_triples(a[k - 1], a[k + 1], p), tol, p, 1 - least))
               >= least for k in range(1, len(a) - 1))


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
    if at_minus - at_plus < len(coeffs) - len(chain[-1]):
        return RootednessVerdict("not_real_negative", "non-real root (exact count)")
    if at_zero - at_plus > 0:
        return RootednessVerdict("not_real_negative", "positive real root (exact count)")
    return RootednessVerdict("real_negative")


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
    Otherwise the first failed Newton inequality witnesses a non-real root;
    where none fails, an exact Sturm count over the integers of the distinct
    real and positive roots decides, multiple roots included.
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
    return _sturm_verdict(coeffs)
