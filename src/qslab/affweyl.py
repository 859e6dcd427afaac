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


def apply_word(word: Iterable[int], weight: Sequence[int], ctx: LevelContext) -> tuple[Weight, int]:
    """Apply a generator word (0 = affine generator) right-to-left.

    Returns the image together with (-1)**len(word), which equals the parity
    of the group element however it is expressed.

    Each letter updates one list in place.  The simple dot reflection s_g
    subtracts c * alpha_g, c = w_g + 1; alpha_g is row g of the simply-laced
    Cartan matrix, so s_g lowers coordinate g by 2c and raises each Dynkin
    neighbour of g by c.  The affine generator s0 . lam =
    s_theta(lam + rho) + l*theta - rho adds c * theta with
    c = l - sum(marks * (w + 1)).
    """
    rs = ctx.root_system
    rank = rs.rank
    neighbors = rs.neighbors
    marks = rs.marks
    theta = rs.theta_weight
    shift = ctx.shifted_level - sum(marks)  # l - sum(marks * rho)
    w = list(weight)
    letters = list(word)
    for g in reversed(letters):
        if g == 0:
            c = shift - sum(map(mul, marks, w))
            for j, t in enumerate(theta):
                w[j] += c * t
        elif 1 <= g <= rank:
            c = w[g - 1] + 1
            w[g - 1] -= 2 * c
            for j in neighbors[g]:
                w[j - 1] += c
        else:
            raise ValueError(f"node {g} out of range")
    return tuple(w), -1 if len(letters) % 2 else 1


def reduce_to_dominant(weight: Sequence[int], ctx: LevelContext) -> AffineReduction:
    """Greedy reduction of a weight into the fundamental alcove.

    Applies the simple reflection at the smallest node whose rho-shifted
    coordinate is negative, or the affine generator when the marks-weighted
    sum exceeds l, until lam+rho lies in the closed alcove.  Landing on a
    wall (a zero coordinate, or sum exactly l) is reported as on_wall.
    """
    marks = ctx.root_system.marks
    l = ctx.shifted_level
    lam = tuple(int(c) for c in weight)
    sign = 1
    steps = 0
    while True:
        shifted = tuple(c + 1 for c in lam)
        if any(c == 0 for c in shifted):
            return AffineReduction("on_wall", None, sign, steps)
        node = next((i + 1 for i, c in enumerate(shifted) if c < 0), None)
        if node is None:
            total = sum(a * c for a, c in zip(marks, shifted))
            if total == l:
                return AffineReduction("on_wall", None, sign, steps)
            if total < l:
                return AffineReduction("dominant", lam, sign, steps)
            node = 0  # the affine generator
        lam = apply_word((node,), lam, ctx)[0]
        sign = -sign
        steps += 1
        if steps > _REDUCE_GUARD:
            raise RuntimeError("alcove reduction failed to terminate")


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
