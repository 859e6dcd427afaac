"""Dominant-weight decompositions of Kirillov-Reshetikhin modules.

Only the nodes with known closed-form decompositions are generated here:
Chari's formulas cover the extremal nodes of E6/E7/E8, and Kleber's tables
for the two remaining E7 nodes at a single box are read from
``rootsys.TYPE_DATA``.  Everything else is reached through Q-system
propagation in :mod:`qslab.qsolver`.

A KR quantum dimension folds ``qdim`` over a decomposition on ``QReal``'s
p-bit triples, with the bits of the mpf sum; a paired shell's interior
weights go to ``qnum.shell_qdims`` as pairings with the groups of one
support plan, whose ``plan_qdim`` decides their zeros as for every weight.
"""

from __future__ import annotations

from typing import NamedTuple

from .qnum import (ZERO, LevelContext, QReal, add_triples, qdim, qdim_unmemoized, round_triple,
                   shell_qdims, support_plan)
from .rootsys import RootSystem, Weight, fundamental_weight, is_dominant, type_data


class _KRFields(NamedTuple):
    node: int
    box_count: int
    terms: tuple[tuple[int, Weight], ...]


class KRDecomposition(_KRFields):
    """A weighted multiset of dominant weights: restriction of one KR module,
    checked by the constructor, ``_make`` and ``_replace``."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # each distinct multiplicity and coordinate equals its int, as 1.0
        # does and 0.5 or '1' do not
        for v in {m for m, _ in self.terms}.union(*(w for _, w in self.terms)):
            if int(v) != v:
                raise ValueError(f"multiplicities and weight coordinates must be integers, "
                                 f"got {v!r}")
        seen = set()
        for mult, weight in self.terms:
            if mult < 1:
                raise ValueError("multiplicities must be positive")
            if not is_dominant(weight):
                raise ValueError(f"non-dominant weight {weight} in decomposition")
            if weight in seen:
                raise ValueError(f"duplicate weight {weight} in decomposition")
            seen.add(weight)
        return self


def _chari_shell(rs: RootSystem, node: int, j: int) -> list[Weight]:
    """The weights of shell j of Chari's formula at a direct node, in summation order."""
    n = rs.rank
    pair = type_data(rs.type_label).paired_shells.get(node)
    if pair is None:
        return [fundamental_weight(n, node, j)]
    a, b = pair
    template, out = [0] * n, []
    for r in range(j + 1):
        template[a], template[b] = r, j - r
        out.append(tuple(template))
    return out


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
    k = box_count
    shells = range(k + 1) if node in type_data(rs.type_label).nested_nodes else (k,)
    terms = [(1, w) for j in shells for w in _chari_shell(rs, node, j)]
    return KRDecomposition(node=node, box_count=k, terms=tuple(terms))


def chari_term_count(rs: RootSystem, node: int, box_count: int) -> int:
    """len(chari_decomposition(rs, node, box_count).terms), in closed form: a
    paired shell j has j + 1 weights, and the nested nodes sum shells 0..k."""
    _check_direct(rs, node, box_count)
    td, k = type_data(rs.type_label), box_count
    paired = node in td.paired_shells
    if node in td.nested_nodes:
        return (k + 1) * (k + 2) // 2 if paired else k + 1
    return k + 1 if paired else 1


def kleber_q1(rs: RootSystem, node: int) -> KRDecomposition:
    """Kleber's single-box decomposition at a node of TYPE_DATA's ``kleber_q1``."""
    terms = type_data(rs.type_label).kleber_q1.get(node)
    if terms is None:
        raise ValueError(f"no single-box table for ({rs.type_label}, node {node})")
    return KRDecomposition(node=node, box_count=1, terms=terms)


def _fold(total: QReal | None, terms, ctx: LevelContext) -> QReal:
    """Add mult * q over (mult, q) terms to total, left to right, on the
    p-bit triples, each product and sum rounded as mpf_mul_int and mpf_add
    round it.  Without a total the sum starts from 0 with scale 0, to which
    the first term adds exactly; an exact zero term leaves the value's bits,
    so it adds only its scale."""
    p = ctx.precision_bits
    value, scale = (ZERO, ZERO) if total is None else (total._v, total._s)
    for mult, q in terms:
        v, s = q._v, q._s
        if mult != 1:
            v, s = round_triple(v[0], v[1] * mult, v[2], p), round_triple(0, s[1] * mult, s[2], p)
        if v[1]:
            value = add_triples(value, v, p)
        scale = add_triples(scale, s, p)
    return QReal(value, scale, p)


def qdim_kr(dec: KRDecomposition, ctx: LevelContext) -> QReal:
    """Quantum dimension of a decomposition: sum of mult * qdim(weight).

    Terms are accumulated left to right in the decomposition's order, so two
    decompositions sharing a prefix produce bit-identical partial sums.  Each
    term is evaluated as it is added, outside the ``qdim`` memo, so a
    decomposition of many terms holds none of their values.
    """
    if not dec.terms:
        return ctx.zero
    return _fold(None, ((mult, qdim_unmemoized(w, ctx)) for mult, w in dec.terms), ctx)


def _shell_qdims(node: int, j: int, ctx: LevelContext) -> list[QReal]:
    """The quantum dimensions of shell j's weights, in summation order; those
    of a paired shell's interior weights r w_a + (j - r) w_b, 0 < r < j, by
    ``shell_qdims`` from the plan of (a, b)."""
    rs = ctx.root_system
    pair = type_data(rs.type_label).paired_shells.get(node)
    if pair is None or j == 0:
        return [qdim(fundamental_weight(rs.rank, node, j), ctx)]
    a, b = pair
    return [qdim(fundamental_weight(rs.rank, b + 1, j), ctx),
            *shell_qdims(support_plan(ctx, pair), j, ctx),
            qdim(fundamental_weight(rs.rank, a + 1, j), ctx)]


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
    nested = node in type_data(rs.type_label).nested_nodes
    while len(rows) <= box_count:
        k = len(rows)
        shell = [(1, q) for q in _shell_qdims(node, k, ctx)]
        rows.append(_fold(rows[k - 1] if nested and k else None, shell, ctx))
    return rows[box_count]
