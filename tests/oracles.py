"""Reference implementations that only the tests read.

Each states one operation in its plainest form, independent of the code
path that a qslab command runs, so a test can compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from mpmath.libmp import from_man_exp

from qslab.seqanalysis import RealSequence, is_log_concave


def si_dot(rs, node: int, weight: Sequence[int]) -> tuple[int, ...]:
    """Dot reflection in the simple root alpha_node (an involution).

    alpha_node in the fundamental-weight basis is row node of the Cartan
    matrix.
    """
    if not 1 <= node <= rs.rank:
        raise ValueError(f"node {node} out of range")
    c = weight[node - 1] + 1
    alpha = rs.cartan[node - 1]
    return tuple(w - c * a for w, a in zip(weight, alpha))


def s0_dot(weight: Sequence[int], ctx) -> tuple[int, ...]:
    """Dot action of the affine generator: s_theta(lam+rho) + l*theta - rho."""
    rs = ctx.root_system
    pair = sum(a * (w + 1) for a, w in zip(rs.marks, weight))
    c = ctx.shifted_level - pair
    theta = rs.theta_weight
    return tuple(w + c * t for w, t in zip(weight, theta))


def pairing(rs, weight: Sequence[int], root_index: int) -> int:
    """(weight | beta) for the positive root with the given canonical index."""
    if len(weight) != rs.rank:
        raise ValueError("weight has wrong rank")
    return sum(w * c for w, c in zip(weight, rs.positive_roots[root_index]))


def find_root(rs, coeffs: Sequence[int]) -> int:
    """Canonical index of a positive root given by its coefficient vector."""
    return rs.positive_roots.index(tuple(coeffs))


def reflection_dot(rs, root_index: int, weight: Sequence[int]) -> tuple[int, ...]:
    """Dot reflection in an arbitrary positive root (parity -1)."""
    beta_w = rs.root_as_weight(root_index)
    pair = pairing(rs, tuple(w + 1 for w in weight), root_index)
    return tuple(w - pair * b for w, b in zip(weight, beta_w))


def translate_by_root(rs, root_index: int, multiple: int,
                      weight: Sequence[int]) -> tuple[int, ...]:
    """Translation by multiple*beta; commutes with the rho shift (parity +1)."""
    beta_w = rs.root_as_weight(root_index)
    return tuple(w + multiple * b for w, b in zip(weight, beta_w))


def in_alcove(rs, weight: Sequence[int], level: int) -> bool:
    """Membership in the closed fundamental alcove at the given level."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    return (
        all(c >= 0 for c in weight)
        and sum(a * c for a, c in zip(rs.marks, weight)) <= level
    )


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


def sin_pi_over_l(ctx, r: int):
    """sin(pi*r/l) as an mpf, read from the context's sine table by the
    residue of r mod 2l."""
    if ctx._sines is None:
        ctx._build_sin_tables()
    sign, man, exp = ctx._sines[r % (2 * ctx.shifted_level)]
    return ctx.mp.make_mpf(from_man_exp(-man if sign else man, exp))


def sine_fold(ctx, factors: Iterable[tuple[int, int]]):
    """(value, scale) of the product of sin(pi*num/l)/sin(pi*den/l) over the
    (num, den) pairs: the left fold value = value * sin(num) / sin(den) in
    mpf arithmetic of the context, scale the largest |partial product| and
    at least 1; (0, 1) when some numerator is a multiple of l."""
    mp, l = ctx.mp, ctx.shifted_level
    factors = list(factors)
    if any(num % l == 0 for num, _ in factors):
        return mp.mpf(0), mp.mpf(1)
    value = mp.mpf(1)
    scale = mp.mpf(1)
    for num, den in factors:
        value = value * sin_pi_over_l(ctx, num) / sin_pi_over_l(ctx, den)
        a = abs(value)
        if a > scale:
            scale = a
    return value, scale


@dataclass(frozen=True)
class MpfQReal:
    """qslab.qnum.QReal's arithmetic in mpf operators: a value and its
    magnitude scale as mpf numbers of one context."""

    value: object
    magnitude_scale: object

    def __add__(self, other: "MpfQReal") -> "MpfQReal":
        return MpfQReal(self.value + other.value,
                        self.magnitude_scale + other.magnitude_scale)

    def __sub__(self, other: "MpfQReal") -> "MpfQReal":
        return MpfQReal(self.value - other.value,
                        self.magnitude_scale + other.magnitude_scale)

    def __mul__(self, other: "MpfQReal") -> "MpfQReal":
        v = self.value * other.value
        scale = (abs(self.value) * other.magnitude_scale
                 + abs(other.value) * self.magnitude_scale)
        return MpfQReal(v, _clamp(scale, v))

    def div(self, other: "MpfQReal") -> "MpfQReal":
        v = self.value / other.value
        scale = (self.magnitude_scale + abs(v) * other.magnitude_scale) / abs(other.value)
        return MpfQReal(v, _clamp(scale, v))


def _clamp(scale, value):
    """The scale raised to |value|, then to 1."""
    m = abs(value)
    if scale < m:
        scale = m
    if scale < 1:
        scale = scale * 0 + 1
    return scale


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


def a_series_cartan(rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of the chain A_n, used for solver cross-checks."""
    if rank < 1:
        raise ValueError("rank must be positive")
    return tuple(
        tuple(2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(rank))
        for i in range(rank)
    )
