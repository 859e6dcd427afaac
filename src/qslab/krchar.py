"""Dominant-weight decompositions of Kirillov-Reshetikhin modules.

Only the nodes with known closed-form decompositions are generated here:
Chari's formulas cover the extremal nodes of E6/E7/E8, and Kleber's tables
for the two remaining E7 nodes at a single box are read from
``rootsys.TYPE_DATA``.  Everything else is reached through Q-system
propagation in :mod:`qslab.qsolver`.

A KR quantum dimension is the sum of its terms' quantum dimensions, taken
exactly in integers and rounded once: each weight gives a row term at
``LevelContext.term_width`` bits (``qnum.plan_qdim``).  ``chari_qdim`` makes
every Chari row, the grid's and ``krdec --qdim``'s, a one-weight row from the
``qdim`` memo; ``qdim_kr`` sums the Kleber tables and other decompositions.
"""

from __future__ import annotations

from typing import NamedTuple

from .qnum import (LevelContext, QReal, progression_terms, qdim_line, qdim_unmemoized,
                   round_triple, support_plan)
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
    """Closed-form decomposition at the direct nodes of TYPE_DATA, ascending
    in the running index (for the E8 node-1 double sum, in the shell r+s
    then in r).  ``qdim_kr`` sums the terms exactly, so its value does not
    depend on their order."""
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


def _rounded(value: int, scale: int, ctx: LevelContext) -> QReal:
    """Sums of row terms, in units of 2**-``ctx.term_width``, rounded once;
    a value within 2**-(p+34) of the scale of 0 reads as 0, inside the
    bound of ``chari_qdim``."""
    p, w = ctx.precision_bits, ctx.term_width
    if abs(value) <= scale >> p + 34:
        value = 0
    return QReal(round_triple(value < 0, abs(value), -w, p), round_triple(0, scale, -w, p), p)


def qdim_kr(dec: KRDecomposition, ctx: LevelContext) -> QReal:
    """Quantum dimension of a decomposition: sum of mult * qdim(weight).

    The terms' row terms (``qnum.qdim_unmemoized``, outside the ``qdim``
    memo) are summed exactly and rounded once, as ``chari_qdim`` sums them,
    so the bits do not depend on the order of the terms.
    """
    if not dec.terms:
        return ctx.zero
    if len(dec.terms) == 1 and dec.terms[0][0] == 1:  # the term's own value
        return qdim_unmemoized(dec.terms[0][1], ctx)[0]
    value = scale = 0
    for mult, weight in dec.terms:
        x, s = qdim_unmemoized(weight, ctx)[1]
        value += mult * x
        scale += mult * s
    return _rounded(value, scale, ctx)


def _shell_terms(node: int, j: int, ctx: LevelContext) -> list[tuple[int, int]]:
    """The row terms of shell j: of j w_node, or of a paired shell's ends j
    w_a and j w_b, from the ``qdim`` memo entries that ``qdim_line`` fills,
    then the sum of the row terms of its interior weights r w_a + (j - r)
    w_b, 0 < r < j, from the plan of (a, b) (``qnum.progression_terms``:
    their pairings advance by one vector per weight)."""
    rs = ctx.root_system
    pair = type_data(rs.type_label).paired_shells.get(node)
    terms = []
    for i in [node] if pair is None or j == 0 else [a + 1 for a in pair]:
        qdim_line(i, j, ctx)
        terms.append(ctx._qdim_cache[fundamental_weight(rs.rank, i, j)][1])
    if pair and j > 1:
        plan = support_plan(ctx, pair)
        first = [va + (j - 1) * vb for va, vb in plan[0]]
        step = [va - vb for va, vb in plan[0]]
        terms.append(progression_terms(plan, first, step, j - 1, ctx))
    return terms


def chari_qdim(node: int, box_count: int, ctx: LevelContext) -> QReal:
    """qdim_kr(chari_decomposition(rs, node, box_count), ctx), bit for bit.

    The context keeps each summed row: a nested node's row k adds the row
    terms of shell k exactly onto the kept integer sums of shells 0..k-1, a
    paired node's is its own shell; a one-weight row is its ``qdim_line``.
    Each term is within 2**-(p+33) of its scale (``qnum.plan_qdim``), so the
    value lies within half a unit in its last place plus 2**-(p+32) times the
    row's scale of the exact Chari sum, 0 included (``_rounded``), and the
    scale within as much of the exact sum of the terms' largest partial
    products, 1 for a zero term.
    """
    row = ctx._chari_rows.get((node, box_count))
    if row is None:
        rs = ctx.root_system
        _check_direct(rs, node, box_count)
        td = type_data(rs.type_label)
        if node in td.nested_nodes:
            sums = ctx._chari_sums.setdefault(node, [(0, 0)])  # sums[k]: shells below k
            while len(sums) <= box_count + 1:
                sums.append(tuple(map(sum, zip(sums[-1], *_shell_terms(node, len(sums) - 1, ctx)))))
            row = _rounded(*sums[box_count + 1], ctx)
        elif node in td.paired_shells:
            row = _rounded(*map(sum, zip(*_shell_terms(node, box_count, ctx))), ctx)
        else:
            return qdim_line(node, box_count, ctx)
        ctx._chari_rows[node, box_count] = row
    return row
