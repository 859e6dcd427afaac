"""Dominant-weight decompositions of Kirillov-Reshetikhin modules.

Only the nodes with known closed-form decompositions are generated here:
Chari's formulas cover the extremal nodes of E6/E7/E8 and Kleber's tables
cover the two remaining E7 nodes at a single box.  Everything else is
reached through Q-system propagation in :mod:`qslab.qsolver`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qnum import LevelContext, QReal, qdim
from .rootsys import RootSystem, Weight, fundamental_weight, is_dominant, type_data


@dataclass(frozen=True)
class KRDecomposition:
    """A weighted multiset of dominant weights: restriction of one KR module."""

    node: int
    box_count: int
    terms: tuple[tuple[int, Weight], ...]

    def __post_init__(self):
        seen = set()
        for mult, weight in self.terms:
            if mult < 1:
                raise ValueError("multiplicities must be positive")
            if not is_dominant(weight):
                raise ValueError(f"non-dominant weight {weight} in decomposition")
            if weight in seen:
                raise ValueError(f"duplicate weight {weight} in decomposition")
            seen.add(weight)

    @property
    def total_multiplicity(self) -> int:
        return sum(m for m, _ in self.terms)


def chari_decomposition(rs: RootSystem, node: int, box_count: int) -> KRDecomposition:
    """Closed-form decomposition at the direct nodes of TYPE_DATA.

    Term order is deterministic (ascending in the running index, and for the
    E8 node-1 double sum ascending in the shell r+s then in r) so that
    prefix-sum identities between consecutive box counts hold exactly even
    in floating point.
    """
    label, k, n = rs.type_label, box_count, rs.rank
    if k < 0:
        raise ValueError("box count must be nonnegative")
    if node not in type_data(label).direct_nodes:
        raise ValueError(f"no closed-form decomposition for ({label}, node {node})")

    def fw(i: int, c: int) -> Weight:
        return fundamental_weight(n, i, c)

    if (label, node) in (("E6", 1), ("E6", 6), ("E7", 7)):
        terms = [(1, fw(node, k))]
    elif (label, node) in (("E6", 2), ("E7", 1), ("E8", 8)):
        terms = [(1, fw(node, r)) for r in range(k + 1)]
    elif (label, node) == ("E7", 2):
        terms = [
            (1, tuple(r if j == 1 else (k - r) if j == 6 else 0 for j in range(n)))
            for r in range(k + 1)
        ]
    else:  # ("E8", 1)
        terms = []
        for shell in range(k + 1):
            for r in range(shell + 1):
                s = shell - r
                terms.append(
                    (1, tuple(r if j == 0 else s if j == 7 else 0 for j in range(n)))
                )
    return KRDecomposition(node=node, box_count=k, terms=tuple(terms))


def kleber_q1(rs: RootSystem, node: int) -> KRDecomposition:
    """Kleber's single-box decompositions at the two remaining E7 nodes."""
    if node not in type_data(rs.type_label).kleber_nodes:
        raise ValueError(f"no single-box table for ({rs.type_label}, node {node})")

    def w(**coords: int) -> Weight:
        return tuple(coords.get(f"w{j}", 0) for j in range(1, 8))

    if node == 5:
        terms = (
            (1, w(w5=1)),
            (1, w(w1=1, w7=1)),
            (2, w(w2=1)),
            (2, w(w7=1)),
        )
    else:
        terms = (
            (2, w()),
            (4, w(w1=1)),
            (1, w(w1=2)),
            (3, w(w3=1)),
            (1, w(w4=1)),
            (4, w(w6=1)),
            (1, w(w7=2)),
            (1, w(w1=1, w6=1)),
            (2, w(w2=1, w7=1)),
        )
    return KRDecomposition(node=node, box_count=1, terms=terms)


def type_a_kr(rank: int, node: int, box_count: int) -> KRDecomposition:
    """Type-A KR modules restrict irreducibly: a single rectangular term."""
    if not 1 <= node <= rank:
        raise ValueError(f"node {node} out of range for rank {rank}")
    return KRDecomposition(
        node=node,
        box_count=box_count,
        terms=((1, fundamental_weight(rank, node, box_count)),),
    )


def qdim_kr(dec: KRDecomposition, ctx: LevelContext) -> QReal:
    """Quantum dimension of a decomposition: sum of mult * qdim(weight).

    Terms are accumulated left to right in the decomposition's order, so two
    decompositions sharing a prefix produce bit-identical partial sums.
    """
    total = None
    for mult, weight in dec.terms:
        q = qdim(weight, ctx)
        if mult != 1:
            q = QReal(q.value * mult, q.magnitude_scale * mult)
        total = q if total is None else total + q
    return total if total is not None else ctx.zero()
