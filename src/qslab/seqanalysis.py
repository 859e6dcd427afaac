"""Log-concavity analysis of real sequences.

Provides the squared-difference operator L mapping (a_k) to
(a_k^2 - a_{k+1} a_{k-1}) with zero padding, iterated log-concavity
probing, and an exact test of whether the coefficient polynomial has only
real negative roots (a sufficient condition for infinite log-concavity).

The rootedness verdict reads the entries exactly as the coefficients of an
integer polynomial: each binary mantissa shifted to the sequence's least
exponent.  A failed Newton inequality on those coefficients proves a non-real
root; where every inequality holds, an exact Sturm count, on the integers, of
the real and the positive roots decides.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import mpmath

from .qnum import DEFAULT_PRECISION_BITS, mp_context

# Fixed-precision context for parsing raw inputs and forming tolerances;
# sequences built from a LevelContext keep that context's precision instead.
_MP = mp_context(DEFAULT_PRECISION_BITS)

# Base relative tolerance for nonnegativity comparisons; scaled per sequence
# by the squared magnitude of the largest entry.
_EPS_BASE = _MP.mpf(2) ** -64


class RealSequence:
    """A finite sequence of high-precision reals with a comparison tolerance."""

    __slots__ = ("entries", "tolerance")

    def __init__(self, entries: tuple, tolerance: object):
        if len(entries) < 1:
            raise ValueError("sequence must be nonempty")
        for e in entries:
            if not mpmath.isfinite(e):
                raise ValueError("entries must be finite")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "tolerance", tolerance)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to RealSequence.{name}")

    def __eq__(self, other):
        return type(other) is RealSequence and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __len__(self) -> int:
        return len(self.entries)


def _default_tolerance(entries) -> object:
    m = max((abs(e) for e in entries), default=_MP.mpf(0))
    if m < 1:
        m = _MP.mpf(1)
    return _EPS_BASE * m * m


def make_sequence(values: Sequence) -> RealSequence:
    """Build a RealSequence whose tolerance scales with max|entry|^2."""
    entries = tuple(
        v if hasattr(v, "_mpf_") else _MP.mpf(str(v)) for v in values
    )
    return RealSequence(entries=entries, tolerance=_default_tolerance(entries))


def l_operator(seq: RealSequence) -> RealSequence:
    """One application of a_k -> a_k^2 - a_{k+1} a_{k-1} (zero padded)."""
    a = seq.entries
    n = len(a)
    out = []
    for k in range(n):
        left = a[k - 1] if k - 1 >= 0 else 0
        right = a[k + 1] if k + 1 < n else 0
        out.append(a[k] * a[k] - right * left)
    m = max(abs(e) for e in a)
    if m < 1:
        m = _MP.mpf(1)
    tol = 2 * seq.tolerance * m + _default_tolerance(a)
    return RealSequence(entries=tuple(out), tolerance=tol)


def log_concavity_order(seq: RealSequence, max_order: int) -> int:
    """Largest i <= max_order with the i-th L-iterate nonnegative within tolerance.

    i = 0 means the sequence itself; a sequence that already fails at i = 0
    reports -1.  Reaching max_order means the order is at least max_order.
    """
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    cur = seq
    for i in range(max_order + 1):
        if not all(e >= -cur.tolerance for e in cur.entries):
            return i - 1
        if i < max_order:
            cur = l_operator(cur)
    return max_order


def is_log_concave(seq: RealSequence, strict: bool = False) -> bool:
    """Whether a_k^2 >= a_{k-1} a_{k+1} holds at every interior index, within
    the sequence's tolerance (a_k^2 > a_{k-1} a_{k+1} + tolerance when
    ``strict``).

    On a positive sequence this triple form is equivalent to the pairwise
    form a_k a_m >= a_{k-1} a_{m+1} for k <= m, so the triple form alone
    decides.
    """
    a = seq.entries
    tol = seq.tolerance

    def holds(x, y) -> bool:
        return x > y + tol if strict else x >= y - tol

    return all(holds(a[k] * a[k], a[k - 1] * a[k + 1]) for k in range(1, len(a) - 1))


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
    parts = [e._mpf_ for e in seq.entries]  # (sign, mantissa, exponent, bits)
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
