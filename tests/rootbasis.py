"""Exact root-basis coordinates of weights, an oracle for the tests only."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def inverse_cartan(cartan: Sequence[Sequence[int]]) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of a Cartan matrix (Gauss-Jordan over Q)."""
    n = len(cartan)
    aug = [
        [Fraction(cartan[i][j]) for j in range(n)]
        + [Fraction(1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def to_root_basis(rs, weight: Sequence[int]) -> tuple[Fraction, ...]:
    """Exact coordinates of a weight over the simple roots of ``rs``."""
    inv = inverse_cartan(rs.cartan)
    return tuple(
        sum(inv[i][j] * weight[j] for j in range(rs.rank))
        for i in range(rs.rank)
    )
