"""Log-concavity analysis of real sequences.

Provides the squared-difference operator L mapping (a_k) to
(a_k^2 - a_{k+1} a_{k-1}) with zero padding, iterated log-concavity
probing, palindromic reflection, and an exact test of whether the
coefficient polynomial has only real negative roots (a sufficient
condition for infinite log-concavity).

The rootedness verdict is an exact Sturm count, in rational arithmetic, of
the real and the positive roots of the polynomial whose coefficients are the
entries rounded to mpmath's global working precision (53 bits by default).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath
from mpmath.ctx_mp import MPContext

# Fixed-precision context for parsing raw inputs and forming tolerances;
# sequences built from a LevelContext keep that context's precision instead.
_MP = MPContext()
_MP.prec = 128

# Base relative tolerance for nonnegativity comparisons; scaled per sequence
# by the squared magnitude of the largest entry.
_EPS_BASE = _MP.mpf(2) ** -64


@dataclass(frozen=True)
class RealSequence:
    """A finite sequence of high-precision reals with a comparison tolerance."""

    entries: tuple
    tolerance: object

    def __post_init__(self):
        if len(self.entries) < 1:
            raise ValueError("sequence must be nonempty")
        for e in self.entries:
            if not mpmath.isfinite(e):
                raise ValueError("entries must be finite")

    def __len__(self) -> int:
        return len(self.entries)


def _default_tolerance(entries) -> object:
    m = max((abs(e) for e in entries), default=_MP.mpf(0))
    if m < 1:
        m = _MP.mpf(1)
    return _EPS_BASE * m * m


def make_sequence(values: Sequence, tolerance=None) -> RealSequence:
    """Build a RealSequence; default tolerance scales with max|entry|^2."""
    entries = tuple(
        v if hasattr(v, "_mpf_") else _MP.mpf(str(v)) for v in values
    )
    tol = _default_tolerance(entries) if tolerance is None else _MP.mpf(str(tolerance))
    return RealSequence(entries=entries, tolerance=tol)


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


def _nonnegative(seq: RealSequence, strict: bool) -> bool:
    if strict:
        return all(e > seq.tolerance for e in seq.entries)
    return all(e >= -seq.tolerance for e in seq.entries)


def log_concavity_order(seq: RealSequence, max_order: int, strict: bool = False) -> int:
    """Largest i <= max_order with the i-th L-iterate (strictly) nonnegative.

    i = 0 means the sequence itself; a sequence that already fails at i = 0
    reports -1.  Reaching max_order means the order is at least max_order.
    """
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    cur = seq
    for i in range(max_order + 1):
        if not _nonnegative(cur, strict):
            return i - 1
        if i < max_order:
            cur = l_operator(cur)
    return max_order


def is_log_concave(seq: RealSequence, strict: bool = False) -> bool:
    """Whether a_k^2 >= a_{k-1} a_{k+1} holds at every interior index.

    For positive sequences the equivalent pairwise form
    a_k a_m >= a_{k-1} a_{m+1} (k <= m: products of closer indices dominate)
    is evaluated as well; a verdict mismatch between the two forms indicates
    an internal inconsistency and raises.
    """
    a = seq.entries
    n = len(a) - 1
    tol = seq.tolerance

    def holds(x, y) -> bool:
        return x > y + tol if strict else x >= y - tol

    triple = all(holds(a[k] * a[k], a[k - 1] * a[k + 1]) for k in range(1, n))
    if all(e > tol for e in a) and n >= 1:
        pairwise = all(
            holds(a[k] * a[m], a[k - 1] * a[m + 1])
            for k in range(1, n)
            for m in range(k, n)
        )
        if pairwise != triple:
            raise RuntimeError(
                "log-concavity forms disagree: "
                f"triple={triple} pairwise={pairwise} for {tuple(map(float, a))}"
            )
    return triple


def palindromize(seq: RealSequence, parity: str) -> RealSequence:
    """Reflect a strictly log-concave increasing-tail sequence into a palindrome.

    ``parity`` selects the top index of the result: "even" produces
    (a_0..a_n..a_0) of length 2n+1 with a single central entry, "odd"
    produces (a_0..a_n,a_n..a_0) of length 2n+2 with the center doubled.
    The output is certified strictly log-concave before it is returned.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    a = seq.entries
    n = len(a) - 1
    if n < 1:
        raise ValueError("need at least two entries to reflect")
    if not all(e > seq.tolerance for e in a):
        raise ValueError("sequence must be positive")
    if not is_log_concave(seq, strict=True):
        raise ValueError("sequence must be strictly log-concave")
    if not a[n - 1] < a[n] - seq.tolerance:
        raise ValueError("sequence must end on a strict increase")
    if parity == "even":
        entries = a + tuple(reversed(a[:-1]))
    else:
        entries = a + tuple(reversed(a))
    out = RealSequence(entries=entries, tolerance=seq.tolerance)
    if not is_log_concave(out, strict=True):
        raise RuntimeError("reflection lost strict log-concavity")
    return out


@dataclass(frozen=True)
class RootednessVerdict:
    status: str  # "real_negative" | "not_real_negative"
    witness: str | None = None


def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    if man == 0:
        return Fraction(0)
    val = Fraction(int(man), 1) * Fraction(2) ** exp
    return -val if sign else val


def _poly_eval_sign_at_zero(coeffs: list[Fraction]) -> int:
    c = coeffs[0]
    return (c > 0) - (c < 0)


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    quot = [Fraction(0)] * max(dn - dd + 1, 1)
    inv = Fraction(1) / den[-1]
    for i in range(dn - dd, -1, -1):
        q = num[i + dd] * inv
        quot[i] = q
        if q:
            for j, d in enumerate(den):
                num[i + j] -= q * d
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _poly_gcd(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    a, b = list(p), list(q)
    while len(b) > 1 or b[0] != 0:
        _, r = _poly_divmod(a, b)
        lead = max(abs(c) for c in r)
        if lead:
            r = [c / lead for c in r]
        a, b = b, r
    lead = a[-1]
    return [c / lead for c in a]


def _sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    chain = [list(p), [i * c for i, c in enumerate(p)][1:] or [Fraction(0)]]
    while len(chain[-1]) > 1 or chain[-1][0] != 0:
        _, r = _poly_divmod(chain[-2], chain[-1])
        chain.append([-c for c in r])
    chain.pop()
    return chain


def _sign_changes(signs: list[int]) -> int:
    filtered = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(filtered, filtered[1:]) if a * b < 0)


def _sturm_counts(p: list[Fraction]) -> tuple[int, int]:
    """(#real roots, #real roots > 0) of a squarefree rational polynomial."""
    chain = _sturm_chain(p)

    def sign_at_inf(poly, positive: bool) -> int:
        lead = poly[-1]
        s = (lead > 0) - (lead < 0)
        if not positive and (len(poly) - 1) % 2 == 1:
            s = -s
        return s

    v_minus = _sign_changes([sign_at_inf(q, False) for q in chain])
    v_plus = _sign_changes([sign_at_inf(q, True) for q in chain])
    v_zero = _sign_changes([_poly_eval_sign_at_zero(q) for q in chain])
    return v_minus - v_plus, v_zero - v_plus


def _sturm_verdict(coeffs: list[Fraction]) -> RootednessVerdict:
    """Verdict for a rational polynomial with nonzero constant and leading terms."""
    degree = len(coeffs) - 1
    if degree == 0:
        return RootednessVerdict("real_negative", witness=None)
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    g = _poly_gcd(coeffs, deriv)
    if len(g) > 1:
        squarefree, rem = _poly_divmod(coeffs, g)
        if len(rem) > 1 or rem[0] != 0:
            raise AssertionError("inexact squarefree division")
    else:
        squarefree = coeffs
    real_count, positive_count = _sturm_counts(squarefree)
    if real_count < len(squarefree) - 1:
        return RootednessVerdict(
            "not_real_negative", witness="non-real root (exact count)")
    if positive_count > 0:
        return RootednessVerdict(
            "not_real_negative", witness="positive real root (exact count)")
    return RootednessVerdict("real_negative", witness=None)


def branden_criterion(seq: RealSequence) -> RootednessVerdict:
    """Classify whether sum a_k x^k has only real, strictly negative roots.

    The entries, rounded to mpmath's global working precision, are read as
    exact binary rationals.  Trailing zero coefficients are dropped and a
    zero constant term is a root at 0; otherwise the squarefree part of the
    polynomial gets an exact Sturm count, whose real-root and positive-root
    numbers decide the verdict, multiple roots included.
    """
    coeffs = [_mpf_to_fraction(e) for e in seq.entries]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial")
    if coeffs[0] == 0:
        return RootednessVerdict("not_real_negative", witness="root at 0")
    return _sturm_verdict(coeffs)
