from __future__ import annotations

import random
from fractions import Fraction

import pytest

import qslab
from qslab.krchar import (
    KRDecomposition,
    chari_decomposition,
    chari_qdim,
    kleber_q1,
    qdim_kr,
)
from qslab.qnum import LevelContext, qdim
from qslab.rootsys import TYPE_DATA, fundamental_weight


def test_single_term_nodes(e6, e7):
    dec = chari_decomposition(e6, 1, 3)
    assert dec.terms == ((1, (3, 0, 0, 0, 0, 0)),)
    dec = chari_decomposition(e7, 7, 2)
    assert dec.terms == ((1, (0, 0, 0, 0, 0, 0, 2)),)


def test_prefix_sum_nodes(e6, e8):
    dec = chari_decomposition(e6, 2, 3)
    assert [w for _, w in dec.terms] == [
        fundamental_weight(6, 2, r) for r in range(4)
    ]
    dec8 = chari_decomposition(e8, 8, 2)
    assert len(dec8.terms) == 3


def test_e7_node2_mixed_line(e7):
    dec = chari_decomposition(e7, 2, 2)
    assert [w for _, w in dec.terms] == [
        (0, 0, 0, 0, 0, 0, 2),
        (0, 1, 0, 0, 0, 0, 1),
        (0, 2, 0, 0, 0, 0, 0),
    ]


def test_e8_node1_shells(e8):
    dec = chari_decomposition(e8, 1, 2)
    weights = {w for _, w in dec.terms}
    assert len(dec.terms) == 6
    assert weights == {
        (0,) * 8,
        (1, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 1),
        (2, 0, 0, 0, 0, 0, 0, 0),
        (1, 0, 0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, 0, 0, 0, 2),
    }
    assert all(m == 1 for m, _ in dec.terms)


def test_box_zero_is_trivial(rs_map):
    for label, nodes in (("E6", (1, 2, 6)), ("E7", (1, 2, 7)), ("E8", (1, 8))):
        rs = rs_map[label]
        for i in nodes:
            dec = chari_decomposition(rs, i, 0)
            assert dec.terms == ((1, (0,) * rs.rank),)
            ctx = LevelContext(rs, 2)
            assert qdim_kr(dec, ctx).value == 1


def test_unsupported_pairs_rejected(e6, e8):
    with pytest.raises(ValueError):
        chari_decomposition(e6, 3, 1)
    with pytest.raises(ValueError):
        chari_decomposition(e8, 2, 1)
    with pytest.raises(ValueError):
        kleber_q1(e8, 5)


def test_kleber_tables(e7):
    five = kleber_q1(e7, 5)
    assert len(five.terms) == 4
    assert five.total_multiplicity == 6
    four = kleber_q1(e7, 4)
    assert len(four.terms) == 9
    consts = [m for m, w in four.terms if w == (0,) * 7]
    assert consts == [2]
    assert four.total_multiplicity == 2 + 4 + 1 + 3 + 1 + 4 + 1 + 1 + 2


def test_kleber_terms_below_box_weight(e7):
    # every term is <= w_node in the root order: the gap has nonnegative
    # exact coordinates over the simple roots
    for node in (4, 5):
        dec = kleber_q1(e7, node)
        top = fundamental_weight(7, node)
        for _, w in dec.terms:
            gap = tuple(t - c for t, c in zip(top, w))
            coords = e7.to_root_basis(gap)
            assert all(c >= 0 for c in coords), (node, w)
            assert all(c.denominator == 1 for c in coords), (node, w)


def test_chari_terms_below_box_weight(e7, e8):
    for rs, node, k in ((e7, 2, 3), (e8, 1, 3)):
        dec = chari_decomposition(rs, node, k)
        top = fundamental_weight(rs.rank, node, k)
        for _, w in dec.terms:
            gap = tuple(t - c for t, c in zip(top, w))
            coords = rs.to_root_basis(gap)
            assert all(c >= 0 for c in coords), (node, w)


def test_decomposition_validation():
    with pytest.raises(ValueError):
        KRDecomposition(node=1, box_count=1, terms=((0, (0, 0)),))
    with pytest.raises(ValueError):
        KRDecomposition(node=1, box_count=1, terms=((1, (-1, 0)),))
    with pytest.raises(ValueError):
        KRDecomposition(node=1, box_count=1, terms=((1, (0, 0)), (2, (0, 0))))


def test_boundary_value_one_at_level(e6, e7):
    # the box-sum at the restriction level returns exactly to 1
    for rs, node in ((e6, 2), (e7, 2)):
        for level in (2, 3, 4, 5):
            ctx = LevelContext(rs, level)
            v = qdim_kr(chari_decomposition(rs, node, level), ctx)
            assert abs(v.value - 1) < ctx.mp.mpf(10) ** -28, (rs.type_label, level)


def test_prefix_sum_telescoping_exact(e6, e7):
    # consecutive box counts share their partial sums bit-for-bit
    for rs, node in ((e6, 2), (e7, 1)):
        ctx = LevelContext(rs, 4)
        for k in range(1, 8):
            prev = qdim_kr(chari_decomposition(rs, node, k - 1), ctx)
            cur = qdim_kr(chari_decomposition(rs, node, k), ctx)
            term = qdim(fundamental_weight(rs.rank, node, k), ctx)
            assert cur.value == prev.value + term.value


@pytest.mark.parametrize("label, level", [("E6", 4), ("E7", 6), ("E8", 4)])
def test_chari_rows_match_decomposition_sums(rs_map, label, level):
    # the running-sum rows give the bits of the full left fold at every box
    # count, whatever order the cells are first asked for in
    rs = rs_map[label]
    ref_ctx = LevelContext(rs, level)
    cells = [(node, k) for node in TYPE_DATA[label].direct_nodes
             for k in range(ref_ctx.shifted_level + 4)]
    reference = {(node, k): qdim_kr(chari_decomposition(rs, node, k), ref_ctx)
                 for node, k in cells}
    shuffled = list(cells)
    random.Random(level).shuffle(shuffled)
    for order in (cells, shuffled):
        ctx = LevelContext(rs, level)
        for node, k in order:
            row, ref = chari_qdim(node, k, ctx), reference[(node, k)]
            assert row.value._mpf_ == ref.value._mpf_, (node, k)
            assert row.magnitude_scale._mpf_ == ref.magnitude_scale._mpf_, (node, k)


def test_chari_qdim_rejects_other_nodes(e6):
    ctx = LevelContext(e6, 2)
    with pytest.raises(ValueError):
        chari_qdim(3, 1, ctx)
    with pytest.raises(ValueError):
        chari_qdim(1, -1, ctx)


def test_positive_in_alcove_range(rs_map):
    # box-sums are positive while k*w_i stays inside the fundamental alcove
    for label in ("E6", "E7", "E8"):
        rs = rs_map[label]
        for node in TYPE_DATA[label].direct_nodes:
            for level in (2, 4, 6):
                ctx = LevelContext(rs, level)
                for k in range(0, level // rs.marks[node - 1] + 1):
                    v = qdim_kr(chari_decomposition(rs, node, k), ctx)
                    assert v.value > 1e-10, (label, node, level, k)


def test_e8_shell_antisymmetry(e8):
    # shell sums T_k satisfy T_{k+1} = -T_{level-k} on the lower half
    for level in (3, 4, 6):
        ctx = LevelContext(e8, level)

        def shell(k):
            total = ctx.mp.mpf(0)
            for r in range(k + 1):
                w = tuple(r if j == 0 else (k - r) if j == 7 else 0 for j in range(8))
                total += qdim(w, ctx).value
            return total

        for k in range(0, level // 2 + 1):
            a, b = shell(k + 1), shell(level - k)
            assert abs(a + b) < ctx.mp.mpf(10) ** -28, (level, k)
