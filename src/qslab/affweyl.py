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

_REDUCE_GUARD = 1_000_000


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
    """
    rs = ctx.root_system
    shift = ctx.shifted_level - sum(rs.marks)
    w, steps = [int(c) for c in weight], 0
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
        if steps == _REDUCE_GUARD:
            raise RuntimeError(f"alcove reduction did not finish within {steps} reflections")
        _reflect(w, g, rs, shift)
        steps += 1
    return AffineReduction("on_wall", None, (-1) ** steps, steps)


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
