"""Level-l affine Weyl group: dot-action reflections and alcove reduction.

Everything here is exact integer arithmetic on fundamental-weight
coordinates.  The dot action is w . lam = w(lam + rho) - rho at level
l = level + h; a weight whose rho-shift lands on a reflection wall has
vanishing quantum dimension, which the reducer reports as ``on_wall``.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .qnum import LevelContext
from .rootsys import RootSystem, Weight

# The most reflections the greedy walk of ``reduce_to_dominant`` takes from
# the weight as given, about 10 ms of them; a walk that goes on starts again
# from a translate of the weight near the alcove.
_WALK_LIMIT = 10_000


class AffineReduction(NamedTuple):
    result_kind: str  # "dominant" | "on_wall"
    dominant_weight: Weight | None
    sign: int
    word_length: int


def _reflect(w: list[int], g: int, rs: RootSystem, shift: int) -> None:
    """Apply the dot action of generator g (0 = affine) to w in place.

    s_g (g >= 1) subtracts c * alpha_g with c = w_g + 1.  alpha_g is row g of
    the simply-laced Cartan matrix, so w_g drops by 2c and each Dynkin
    neighbour of g gains c.  s0 . lam = s_theta(lam + rho) + l*theta - rho
    adds c * theta with c = l - sum(marks * (w + 1)) = shift - sum(marks * w).
    """
    if g == 0:
        c = shift - sum(map(mul, rs.marks, w))
        for j, t in enumerate(rs.theta_weight):
            w[j] += c * t
    elif 1 <= g <= rs.rank:
        c = w[g - 1] + 1
        w[g - 1] -= 2 * c
        for j in rs.neighbors[g]:
            w[j - 1] += c
    else:
        raise ValueError(f"node {g} out of range")


def apply_word(word: Iterable[int], weight: Sequence[int], ctx: LevelContext) -> tuple[Weight, int]:
    """Apply a generator word (0 = affine generator) right-to-left.

    Returns the image together with (-1)**len(word), which equals the parity
    of the group element however it is expressed.
    """
    rs = ctx.root_system
    shift = ctx.shifted_level - sum(rs.marks)  # l - sum(marks * rho)
    w = list(weight)
    letters = list(word)
    for g in reversed(letters):
        _reflect(w, g, rs, shift)
    return tuple(w), -1 if len(letters) % 2 else 1


def reduce_to_dominant(weight: Sequence[int], ctx: LevelContext) -> AffineReduction:
    """Greedy reduction of a weight into the fundamental alcove.

    Applies the simple reflection at the smallest node whose rho-shifted
    coordinate is negative, or the affine generator when the marks-weighted
    sum exceeds l, until lam+rho lies in the closed alcove.  Landing on a
    wall (a zero coordinate, or sum exactly l) is reported as on_wall.

    Each reflection crosses one of the walls (x | beta) = m l between lam+rho
    and the alcove.  A walk still going after _WALK_LIMIT reflections starts
    again from lam translated by l gamma, gamma in the root lattice (parity
    +1), within a few walls of the alcove.  A dominant outcome then reports
    the length the walk would have had, the number of walls, sum over
    beta > 0 of |floor((lam+rho | beta) / l)|; an on_wall one the length of
    another word that takes lam+rho there, the translation's sum over
    beta > 0 of |(gamma | beta)| plus the walk's.
    """
    rs, l = ctx.root_system, ctx.shifted_level
    w = [int(c) for c in weight]
    red = _walk(list(w), ctx, _WALK_LIMIT)
    if red is not None:
        return red
    # gamma = -round(C^-1 (lam + rho) / l) in simple-root coordinates
    gamma = [-round(c / l) for c in _root_coordinates(rs.cartan, [c + 1 for c in w])]
    shift = [sum(map(mul, row, gamma)) for row in rs.cartan]
    red = _walk([c + l * s for c, s in zip(w, shift)], ctx)
    if red.result_kind == "dominant":
        length = sum(abs(p // l) for p in rs.rho_pairings(w))
    else:
        length = red.word_length + sum(abs(sum(map(mul, shift, b))) for b in rs.positive_roots)
    return red._replace(sign=-1 if length % 2 else 1, word_length=length)


def _walk(w: list[int], ctx: LevelContext, limit: int | None = None) -> AffineReduction | None:
    """The greedy walk of ``reduce_to_dominant`` from w, in place; None once
    it has taken ``limit`` reflections without ending.  Each reflection
    crosses a wall between w + rho and the alcove, so the walk ends."""
    rs = ctx.root_system
    shift = ctx.shifted_level - sum(rs.marks)
    steps = 0
    while -1 not in w:  # a coordinate of lam + rho at 0 is a wall
        for g, c in enumerate(w, 1):
            if c < -1:
                break
        else:
            excess = sum(map(mul, rs.marks, w)) - shift
            if excess < 0:
                return AffineReduction("dominant", tuple(w), (-1) ** steps, steps)
            if excess == 0:
                break  # on the affine wall
            g = 0
        if steps == limit:
            return None
        _reflect(w, g, rs, shift)
        steps += 1
    return AffineReduction("on_wall", None, (-1) ** steps, steps)


def _root_coordinates(cartan: Sequence[Sequence[int]], x: Sequence[int]) -> list:
    """C^-1 x: the simple-root coordinates of the weight x, as exact
    fractions, by Gauss-Jordan elimination; the Cartan matrix C is positive
    definite, so no pivot is zero."""
    # imported here, for the far weights alone: every qslab process would
    # pay for the module at start-up
    from fractions import Fraction

    n = len(cartan)
    aug = [[Fraction(c) for c in row] + [Fraction(v)] for row, v in zip(cartan, x)]
    for c in range(n):
        piv = aug[c] = [v / aug[c][c] for v in aug[c]]
        for r, row in enumerate(aug):
            if r != c and row[c]:
                aug[r] = [a - row[c] * b for a, b in zip(row, piv)]
    return [row[n] for row in aug]


def enumerate_alcove(rs: RootSystem, level: int) -> list[Weight]:
    """All dominant weights in the fundamental alcove (level capped at 12)."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    if level > 12:
        raise ValueError("alcove enumeration is guarded at level 12")
    out: list[Weight] = []

    def rec(prefix: list[int], budget: int, pos: int) -> None:
        if pos == rs.rank:
            out.append(tuple(prefix))
            return
        a = rs.marks[pos]
        for c in range(budget // a + 1):
            prefix.append(c)
            rec(prefix, budget - a * c, pos + 1)
            prefix.pop()

    rec([], level, 0)
    return out
