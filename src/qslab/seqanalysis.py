"""Log-concavity analysis of real sequences.

Provides the squared-difference operator L mapping (a_k) to
(a_k^2 - a_{k+1} a_{k-1}) with zero padding, iterated log-concavity
probing, and an exact test of whether the coefficient polynomial has only
real negative roots (a sufficient condition for infinite log-concavity).

A sequence holds its entries as p-bit triples (``qslab.qnum``) at its
precision p and its tolerance as a triple at 128 bits.  The arithmetic is
that of the mpf numbers the entries once were, bit for bit: products and
differences of entries round to nearest at p bits, as the entries' own
mpmath context rounded them, and tolerances at 128 bits, as the fixed
context that formed them; comparisons are exact.  The operands need not
share a width, so the sums and comparisons here take any two triples.

The rootedness verdict reads the entries exactly as the coefficients of an
integer polynomial: each binary mantissa shifted to the sequence's least
exponent.  A failed Newton inequality on those coefficients proves a non-real
root; where every inequality holds, an exact Sturm count, on the integers, of
the real and the positive roots decides.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .qnum import DEFAULT_PRECISION_BITS, ZERO, mp_context, mul_triples, raw_mpf, round_triple

# The precision of every tolerance, and the base relative tolerance for
# nonnegativity comparisons, 2^-64 at that precision; scaled per sequence by
# the squared magnitude of the largest entry.
_TOL_BITS = DEFAULT_PRECISION_BITS
_EPS_BASE = (0, 1 << _TOL_BITS - 1, -63 - _TOL_BITS)
_ONE = (0, 1 << _TOL_BITS - 1, 1 - _TOL_BITS)


def _cmp(a: tuple, b: tuple) -> int:
    """-1, 0 or 1 as a <, = or > b, for triples of any widths, exactly."""
    sa, ma, ea = a
    sb, mb, eb = b
    if sa != sb or not (ma and mb):
        d = (ma and 1 - 2 * sa) - (mb and 1 - 2 * sb)
        return (d > 0) - (d < 0)
    d = ea + ma.bit_length() - eb - mb.bit_length()
    if not d:  # the same leading bit: the shifts are at most the widths
        d = (ma << max(0, ea - eb)) - (mb << max(0, eb - ea))
    return (d > 0) - (d < 0) if not sa else (d < 0) - (d > 0)


def _add(a: tuple, b: tuple, p: int, flip: int = 0) -> tuple:
    """a + b (a - b with ``flip`` 1) of triples of any widths, rounded to
    nearest at p bits, ties to even: mpf_add's (mpf_sub's) bits.

    With a the larger, its leading bit at 2**(top - 1), let low = min(its
    lowest bit, top - p - 3).  The rounding boundaries near a at p bits are
    multiples of 2**low, and so is a; a b below 2**low in magnitude leaves
    the sum strictly between the same two of them as any other such b
    does, so it is replaced by 2**(low - 1) and the sum is exact.
    """
    sa, ma, ea = a
    sb, mb, eb = b
    sb ^= flip
    if not mb:
        return round_triple(sa, ma, ea, p)
    if not ma:
        return round_triple(sb, mb, eb, p)
    top = ea + ma.bit_length()
    if top < eb + mb.bit_length():
        sa, ma, ea, sb, mb, eb = sb, mb, eb, sa, ma, ea
        top = ea + ma.bit_length()
    low = min(ea, top - p - 3)
    if eb + mb.bit_length() <= low:
        mb, eb = 1, low - 1
    e = min(ea, eb)
    man = (ma << ea - e) + ((mb << eb - e) if sa == sb else -(mb << eb - e))
    return round_triple(sa ^ (man < 0), abs(man), e, p)


def _max_abs_or_one(entries) -> tuple:
    """max(|e|) over the entries, raised to 1 when it is below 1, exactly."""
    m = ZERO
    for _, man, exp in entries:
        if _cmp((0, man, exp), m) > 0:
            m = (0, man, exp)
    return m if _cmp(m, _ONE) >= 0 else _ONE


class RealSequence:
    """A finite sequence of p-bit triples, p = ``precision_bits``, with a
    comparison tolerance, a triple at 128 bits."""

    __slots__ = ("entries", "tolerance", "precision_bits")

    def __init__(self, entries: tuple, tolerance: tuple,
                 precision_bits: int = DEFAULT_PRECISION_BITS):
        if len(entries) < 1:
            raise ValueError("sequence must be nonempty")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "precision_bits", precision_bits)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to RealSequence.{name}")

    def __eq__(self, other):
        return type(other) is RealSequence and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __len__(self) -> int:
        return len(self.entries)


def _default_tolerance(entries) -> tuple:
    """2^-64 max(|e|, 1)^2, both products at 128 bits."""
    m = _max_abs_or_one(entries)
    return mul_triples(mul_triples(_EPS_BASE, m, _TOL_BITS), m, _TOL_BITS)


def _entry(value, p: int) -> tuple:
    """A sequence entry as a p-bit triple: a triple rounded to nearest, an
    mpf number's raw value too, and anything else, such as an int, a float
    or a string, parsed from ``str`` by mpmath at p bits, which only such
    values import."""
    if isinstance(value, tuple):
        return round_triple(*value[:3], p)
    raw = getattr(value, "_mpf_", None)
    if raw is None:
        raw = mp_context(p).mpf(str(value))._mpf_
    sign, man, exp = raw[:3]
    if not man and exp:
        raise ValueError("entries must be finite")
    return round_triple(sign, man, exp, p)


def make_sequence(values: Sequence, precision_bits: int = DEFAULT_PRECISION_BITS) -> RealSequence:
    """Build a RealSequence of ``precision_bits``-bit entries whose tolerance
    scales with max|entry|^2; each value becomes an entry as ``_entry``
    says."""
    entries = tuple(_entry(v, precision_bits) for v in values)
    return RealSequence(entries, _default_tolerance(entries), precision_bits)


def l_operator(seq: RealSequence) -> RealSequence:
    """One application of a_k -> a_k^2 - a_{k+1} a_{k-1} (zero padded)."""
    a, p = seq.entries, seq.precision_bits
    out = [mul_triples(e, e, p) for e in a]
    for k in range(1, len(a) - 1):
        out[k] = _add(out[k], mul_triples(a[k + 1], a[k - 1], p), p, 1)
    sign, man, exp = seq.tolerance
    twice = (sign, man, exp + 1) if man else ZERO
    tol = _add(mul_triples(twice, _max_abs_or_one(a), _TOL_BITS), _default_tolerance(a),
               _TOL_BITS)
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
        least = (sign ^ 1, man, exp) if man else ZERO  # -tolerance
        if not all(_cmp(e, least) >= 0 for e in cur.entries):
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
    return all(_cmp(mul_triples(a[k], a[k], p),
                    _add(mul_triples(a[k - 1], a[k + 1], p), tol, p, 1 - least)) >= least
               for k in range(1, len(a) - 1))


class RootednessVerdict(NamedTuple):
    status: str  # "real_negative" | "not_real_negative"
    witness: str | None = None


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
        return RootednessVerdict(
            "not_real_negative", witness="non-real root (exact count)")
    if at_zero - at_plus > 0:
        return RootednessVerdict(
            "not_real_negative", witness="positive real root (exact count)")
    return RootednessVerdict("real_negative", witness=None)


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

    Each entry's binary mantissa, shifted to the least exponent of the
    sequence, is read as an exact integer coefficient.  Trailing zero
    coefficients are dropped and a zero constant term is a root at 0.
    Otherwise the first failed Newton inequality on the coefficients
    witnesses a non-real root; where none fails, an exact Sturm count over
    the integers of the distinct real and positive roots decides the
    verdict, multiple roots included.
    """
    parts = [raw_mpf(e) for e in seq.entries]  # (sign, odd mantissa, exponent, bits)
    exponents = [exp for _, man, exp, _ in parts if man]
    if not exponents:
        raise ValueError("zero polynomial")
    low = min(exponents)
    coeffs = [(-man if sign else man) << (exp - low) if man else 0
              for sign, man, exp, _ in parts]
    while coeffs[-1] == 0:
        coeffs.pop()
    if coeffs[0] == 0:
        return RootednessVerdict("not_real_negative", witness="root at 0")
    k = _newton_violation(coeffs)
    if k is not None:
        return RootednessVerdict(
            "not_real_negative", witness=f"non-real root (Newton inequality at k={k})")
    return _sturm_verdict(coeffs)
