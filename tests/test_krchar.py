from __future__ import annotations

import random
from fractions import Fraction

import pytest

import qslab
from qslab.krchar import (
    KRDecomposition,
    chari_decomposition,
    chari_qdim,
    chari_term_count,
    kleber_q1,
    qdim_kr,
)
from qslab.qnum import LevelContext, qdim, qdim_classical
from qslab.rootsys import TYPE_DATA, fundamental_weight

from oracles import MpfQReal, classical_grid, mpf_qreal, raw
from rootbasis import to_root_basis


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
    assert sum(m for m, _ in five.terms) == 6
    four = kleber_q1(e7, 4)
    assert len(four.terms) == 9
    consts = [m for m, w in four.terms if w == (0,) * 7]
    assert consts == [2]
    assert sum(m for m, _ in four.terms) == 2 + 4 + 1 + 3 + 1 + 4 + 1 + 1 + 2


def test_kleber_tables_satisfy_the_classical_q_system(e7):
    # at q = 1 the Q-system Q_k(i)^2 = Q_{k+1}(i) Q_{k-1}(i) + prod_{j~i} Q_k(j)
    # holds for the classical dimensions, in exact integers; the grid's route
    # walk at q = 1 reaches the same single-box values
    def dim(terms):
        return sum(mult * qdim_classical(e7, w) for mult, w in terms)

    def chari(node, k):
        return dim(chari_decomposition(e7, node, k).terms)

    tables = TYPE_DATA["E7"].kleber_q1
    q7 = [chari(7, k) for k in range(4)]
    # node 7 (neighbour 6) gives Q_k(6); node 6 (neighbours 5, 7) gives Q_1(5)
    q6 = [None] + [q7[k] ** 2 - q7[k + 1] * q7[k - 1] for k in (1, 2)]
    q5, rest = divmod(q6[1] ** 2 - q6[2], q7[1])
    assert rest == 0
    assert q5 == dim(tables[5]) == 36_080
    # node 2 (neighbour 4) gives Q_1(4)
    assert chari(2, 1) ** 2 - chari(2, 2) == dim(tables[4]) == 640_871
    walked = classical_grid(e7, 2)
    assert (walked[3][1], walked[4][1]) == (dim(tables[4]), dim(tables[5]))


def test_kleber_terms_below_box_weight(e7):
    # every term is <= w_node in the root order: the gap has nonnegative
    # exact coordinates over the simple roots
    for node in (4, 5):
        dec = kleber_q1(e7, node)
        top = fundamental_weight(7, node)
        for _, w in dec.terms:
            gap = tuple(t - c for t, c in zip(top, w))
            coords = to_root_basis(e7, gap)
            assert all(c >= 0 for c in coords), (node, w)
            assert all(c.denominator == 1 for c in coords), (node, w)


def test_chari_terms_below_box_weight(e7, e8):
    for rs, node, k in ((e7, 2, 3), (e8, 1, 3)):
        dec = chari_decomposition(rs, node, k)
        top = fundamental_weight(rs.rank, node, k)
        for _, w in dec.terms:
            gap = tuple(t - c for t, c in zip(top, w))
            coords = to_root_basis(rs, gap)
            assert all(c >= 0 for c in coords), (node, w)


def test_chari_term_count_is_the_decomposition_length(rs_map):
    # nested and paired (E8 node 1), nested only, paired only (E7 node 2)
    # and single-weight nodes
    for label, rs in rs_map.items():
        for node in TYPE_DATA[label].direct_nodes:
            for k in range(9):
                dec = chari_decomposition(rs, node, k)
                assert chari_term_count(rs, node, k) == len(dec.terms), (label, node, k)


def test_decomposition_validation():
    with pytest.raises(ValueError):
        KRDecomposition(node=1, box_count=1, terms=((0, (0, 0)),))
    with pytest.raises(ValueError):
        KRDecomposition(node=1, box_count=1, terms=((1, (-1, 0)),))
    with pytest.raises(ValueError):
        KRDecomposition(node=1, box_count=1, terms=((1, (0, 0)), (2, (0, 0))))
    # weights and multiplicities are integers: 1.0 is 1, 0.5 and 1.5 are not
    for terms in (((1, (0.5, 0)),), ((1.5, (0, 0)),), ((1, ("1", 0)),)):
        with pytest.raises(ValueError, match="integers"):
            KRDecomposition(node=1, box_count=1, terms=terms)
    assert KRDecomposition(node=1, box_count=1, terms=((1.0, (1.0, 0)),)).terms == ((1, (1, 0)),)


def test_boundary_value_one_at_level(e6, e7):
    # the box-sum at the restriction level returns exactly to 1
    for rs, node in ((e6, 2), (e7, 2)):
        for level in (2, 3, 4, 5):
            ctx = LevelContext(rs, level)
            v = qdim_kr(chari_decomposition(rs, node, level), ctx)
            assert abs(v.value - 1) < Fraction(1, 10**28), (rs.type_label, level)


def test_prefix_sum_telescoping_exact(e6, e7):
    # consecutive box counts share their partial sums bit-for-bit: each
    # row is the one before plus the new term, rounded as an mpf sum
    for rs, node in ((e6, 2), (e7, 1)):
        ctx = LevelContext(rs, 4)
        for k in range(1, 8):
            prev = qdim_kr(chari_decomposition(rs, node, k - 1), ctx)
            cur = qdim_kr(chari_decomposition(rs, node, k), ctx)
            term = qdim(fundamental_weight(rs.rank, node, k), ctx)
            assert raw(cur._v) == (mpf_qreal(ctx, prev) + mpf_qreal(ctx, term)).value._mpf_


@pytest.mark.parametrize("label, level", [
    ("E6", 4), ("E7", 6), ("E8", 4),
    # zero-heavy paired shells, and the deepest rows the benchmark reads
    ("E7", 1), ("E7", 2), ("E8", 1), ("E8", 2), ("E7", 28), ("E8", 24)])
def test_chari_rows_match_decomposition_sums(rs_map, label, level):
    # the running-sum rows give the bits of the full left fold in mpf
    # arithmetic at every box count the periodicity check reads (k <= l + 3),
    # whatever order the cells are first asked for in, at every precision
    rs = rs_map[label]
    for bits in (64, 97, 128, 256):
        ref_ctx = LevelContext(rs, level, precision_bits=bits)
        cells = [(node, k) for node in TYPE_DATA[label].direct_nodes
                 for k in range(ref_ctx.shifted_level + 4)]
        reference = {(node, k): _mpf_fold(chari_decomposition(rs, node, k).terms, ref_ctx)
                     for node, k in cells}
        shuffled = list(cells)
        random.Random(level).shuffle(shuffled)
        for order in (cells, shuffled):
            ctx = LevelContext(rs, level, precision_bits=bits)
            for node, k in order:
                row, ref = chari_qdim(node, k, ctx), reference[(node, k)]
                assert raw(row._v) == ref.value._mpf_, (bits, node, k)
                assert raw(row._s) == ref.magnitude_scale._mpf_, (bits, node, k)


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


def _mpf_fold(terms, ctx):
    """The left fold of mult * qdim(weight) in plain mpf QReal addition."""
    total = None
    for mult, weight in terms:
        q = mpf_qreal(ctx, qdim(weight, ctx))
        q = MpfQReal(q.value * mult, q.magnitude_scale * mult)
        total = q if total is None else total + q
    return total


@pytest.mark.parametrize("label, node", [("E8", 1), ("E7", 2)])
def test_zero_terms_fold_as_scale_increments(rs_map, label, node):
    # at level 2 most shells of these rows are exact zeros: each adds 1 to
    # the scale and leaves the value's bits, as mpf addition of 0 and 1 does
    rs = rs_map[label]
    for bits in (128, 256):
        ctx = LevelContext(rs, 2, precision_bits=bits)
        zeros = terms = 0
        for k in range(ctx.shifted_level + 1):
            dec = chari_decomposition(rs, node, k)
            ref = _mpf_fold(dec.terms, ctx)
            row = chari_qdim(node, k, ctx)
            assert raw(row._v) == ref.value._mpf_, (bits, k)
            assert raw(row._s) == ref.magnitude_scale._mpf_, (bits, k)
            zeros += sum(qdim(w, ctx).value == 0 for _, w in dec.terms)
            terms += len(dec.terms)
        assert zeros > terms // 2, (zeros, terms)


def test_kleber_multiplicities_fold_like_mpf(e7):
    # multiplicities above 1 scale value and scale by an integer, as mpf
    # times int does, before the term is added
    for level, bits in ((2, 128), (5, 256)):
        ctx = LevelContext(e7, level, precision_bits=bits)
        for node in TYPE_DATA["E7"].kleber_q1:
            dec = kleber_q1(e7, node)
            assert any(mult > 1 for mult, _ in dec.terms)
            got, ref = qdim_kr(dec, ctx), _mpf_fold(dec.terms, ctx)
            assert raw(got._v) == ref.value._mpf_, (level, node)
            assert raw(got._s) == ref.magnitude_scale._mpf_, (level, node)


@pytest.mark.parametrize("label", ["E7", "E8"])
def test_qdim_kr_is_chari_qdim_outside_the_memo(rs_map, label):
    # qdim_kr evaluates each term as it folds it and stores none of them in
    # the qdim memo, which chari_qdim's rows use: the same bits at box
    # counts 0-12, nested and paired shells included, and a memo that
    # neither starts nor grows
    rs = rs_map[label]
    for level in (2, 5):
        ctx = LevelContext(rs, level)
        decs = {(node, k): chari_decomposition(rs, node, k)
                for node in TYPE_DATA[label].direct_nodes for k in range(13)}
        got = {key: qdim_kr(dec, ctx) for key, dec in decs.items()}
        assert not ctx._qdim_cache
        for (node, k), value in got.items():
            row = chari_qdim(node, k, ctx)
            assert (value._v, value._s) == (row._v, row._s), (level, node, k)
        size = len(ctx._qdim_cache)
        assert size and all(qdim_kr(dec, ctx)._v == value._v
                            for dec, value in zip(decs.values(), got.values()))
        assert len(ctx._qdim_cache) == size
