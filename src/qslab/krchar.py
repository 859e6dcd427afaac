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


# Chari's formulas, one shell per running index j.  At the nested nodes box
# count k sums the shells 0..k, at the other direct nodes shell k alone.
# Shell j is r w_a + (j - r) w_b for r = 0..j at the paired nodes (0-based
# coordinates a, b) and j w_node everywhere else.
_NESTED_NODES = {("E6", 2), ("E7", 1), ("E8", 8), ("E8", 1)}
_PAIRED_SHELLS = {("E7", 2): (1, 6), ("E8", 1): (0, 7)}


def _chari_shell(rs: RootSystem, node: int, j: int) -> list[Weight]:
    """The weights of shell j of Chari's formula at a direct node, in summation order."""
    n = rs.rank
    pair = _PAIRED_SHELLS.get((rs.type_label, node))
    if pair is None:
        return [fundamental_weight(n, node, j)]
    a, b = pair
    return [tuple(r if c == a else (j - r) if c == b else 0 for c in range(n))
            for r in range(j + 1)]


def _check_direct(rs: RootSystem, node: int, box_count: int) -> None:
    if box_count < 0:
        raise ValueError("box count must be nonnegative")
    if node not in type_data(rs.type_label).direct_nodes:
        raise ValueError(f"no closed-form decomposition for ({rs.type_label}, node {node})")


def chari_decomposition(rs: RootSystem, node: int, box_count: int) -> KRDecomposition:
    """Closed-form decomposition at the direct nodes of TYPE_DATA.

    Term order is deterministic (ascending in the running index, and for the
    E8 node-1 double sum ascending in the shell r+s then in r) so that
    prefix-sum identities between consecutive box counts hold exactly even
    in floating point; ``chari_qdim`` builds its rows on them.
    """
    _check_direct(rs, node, box_count)
    label, k = rs.type_label, box_count
    shells = range(k + 1) if (label, node) in _NESTED_NODES else (k,)
    terms = [(1, w) for j in shells for w in _chari_shell(rs, node, j)]
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


def _fold(total: QReal | None, terms, ctx: LevelContext) -> QReal | None:
    """Add mult * qdim(weight) over (mult, weight) terms to total, left to right."""
    for mult, weight in terms:
        q = qdim(weight, ctx)
        if mult != 1:
            q = QReal(q.value * mult, q.magnitude_scale * mult)
        total = q if total is None else total + q
    return total


def qdim_kr(dec: KRDecomposition, ctx: LevelContext) -> QReal:
    """Quantum dimension of a decomposition: sum of mult * qdim(weight).

    Terms are accumulated left to right in the decomposition's order, so two
    decompositions sharing a prefix produce bit-identical partial sums.
    """
    total = _fold(None, dec.terms, ctx)
    return total if total is not None else ctx.zero()


def chari_qdim(node: int, box_count: int, ctx: LevelContext) -> QReal:
    """qdim_kr(chari_decomposition(rs, node, box_count), ctx), bit for bit.

    Each direct node keeps a row in the context, extended on demand in
    increasing box count.  Row k folds the terms of shell k left in the
    decomposition's order, onto row k-1 at the nested nodes and onto nothing
    at the others.
    """
    rs = ctx.root_system
    _check_direct(rs, node, box_count)
    rows = ctx._chari_rows.setdefault(node, [])
    nested = (rs.type_label, node) in _NESTED_NODES
    while len(rows) <= box_count:
        k = len(rows)
        shell = [(1, w) for w in _chari_shell(rs, node, k)]
        total = _fold(rows[k - 1] if nested and k else None, shell, ctx)
        # a slice store, not append: if another thread filled row k first,
        # this rewrites it with the same bits instead of shifting the row
        rows[k:k + 1] = [total]
    return rows[box_count]
