from __future__ import annotations

import pytest

import qslab
from qslab.report import load_appendix_map, load_fixture_rows
from qslab.rootsys import (
    TYPE_DATA,
    RootSystem,
    build_root_system,
    cartan_matrix,
    delta,
    fundamental_weight,
    height_symmetry_check,
    lee_witness,
)

from oracles import a_series_cartan, closure_system, d_series_cartan, find_root, pairing
from rootbasis import to_root_basis


def reflection_orbit_positive_roots(cartan):
    """Independent oracle: close the simple roots under all simple reflections.

    Walks the full Weyl orbit (positive and negative roots) instead of the
    additive closure, then keeps the vectors with nonnegative coordinates.
    """
    rank = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        fresh = []
        for b in frontier:
            for j in range(rank):
                pair = sum(cartan[j][i] * b[i] for i in range(rank))
                image = tuple(
                    b[i] - (pair if i == j else 0) for i in range(rank)
                )
                if image not in seen:
                    seen.add(image)
                    fresh.append(image)
        frontier = fresh
    return {b for b in seen if all(c >= 0 for c in b)}


def norm_test_closure_positive_roots(cartan):
    """Reference closure: (b | alpha_j) and the norm of b + alpha_j each
    recomputed from the Cartan matrix, in canonical order."""
    rank = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        fresh = []
        for b in frontier:
            for j in range(rank):
                if sum(cartan[j][i] * b[i] for i in range(rank)) < 0:
                    nb = tuple(b[i] + (1 if i == j else 0) for i in range(rank))
                    if nb not in roots:
                        norm = sum(nb[p] * cartan[p][q] * nb[q]
                                   for p in range(rank) for q in range(rank))
                        assert norm == 2
                        roots.add(nb)
                        fresh.append(nb)
        frontier = fresh
    return tuple(sorted(roots, key=lambda b: (sum(b), b)))


@pytest.mark.parametrize(
    "cartan,count",
    [(cartan_matrix(label), n) for label, n in (("E6", 36), ("E7", 63), ("E8", 120))]
    + [(a_series_cartan(n), n * (n + 1) // 2) for n in range(1, 9)]
    + [(d_series_cartan(n), n * (n - 1)) for n in range(4, 9)],
)
def test_closure_matches_norm_test_reference(cartan, count):
    rs = closure_system(cartan, "test")
    assert rs.positive_roots == norm_test_closure_positive_roots(cartan)
    assert len(rs.positive_roots) == count


def test_labelled_builds_are_shared():
    assert build_root_system("e7") is build_root_system("E7")
    # the closure builds afresh each time, equal to the labelled build
    first = closure_system(cartan_matrix("E7"), "E7")
    second = closure_system(cartan_matrix("E7"), "E7")
    assert first is not second and first == second == build_root_system("E7")


@pytest.mark.parametrize("label,count", [("E6", 36), ("E7", 63), ("E8", 120)])
def test_closure_matches_reflection_orbit(rs_map, label, count):
    rs = rs_map[label]
    oracle = reflection_orbit_positive_roots(rs.cartan)
    assert set(rs.positive_roots) == oracle
    assert len(rs.positive_roots) == count


@pytest.mark.parametrize(
    "label,h,total",
    [("E6", 12, 11), ("E7", 18, 17), ("E8", 30, 29)],
)
def test_coxeter_number_and_marks(rs_map, label, h, total):
    rs = rs_map[label]
    assert rs.coxeter_number == h
    assert sum(rs.marks) == total
    top = rs.positive_roots[rs.highest_root_index]
    assert top == rs.marks
    assert sum(top) == h - 1
    # strictly maximal height, and dominating every root coordinatewise
    others = [b for i, b in enumerate(rs.positive_roots) if i != rs.highest_root_index]
    assert all(sum(b) < h - 1 for b in others)
    assert all(all(bi <= ti for bi, ti in zip(b, top)) for b in others)


def test_roots_are_distinct_and_nonnegative(rs_map):
    for rs in rs_map.values():
        assert len(set(rs.positive_roots)) == len(rs.positive_roots)
        assert all(all(c >= 0 for c in b) for b in rs.positive_roots)
        assert all(1 <= ht <= rs.coxeter_number - 1 for ht in rs.heights)


def test_canonical_order_is_height_then_lex(rs_map):
    for rs in rs_map.values():
        keys = [(sum(b), b) for b in rs.positive_roots]
        assert keys == sorted(keys)


@pytest.mark.parametrize("label", ["E7", "E8"])
def test_appendix_fixtures_bit_exact(rs_map, label):
    rs = rs_map[label]
    rows = load_fixture_rows(label)
    amap = load_appendix_map(label)
    assert len(rows) == len(rs.positive_roots)
    assert sorted(amap) == list(range(1, len(rows) + 1))
    assert sorted(amap.values()) == list(range(1, len(rows) + 1))
    for no, height, coeffs in rows:
        root = rs.positive_roots[amap[no] - 1]
        assert root == coeffs, f"appendix row {no}"
        assert sum(root) == height, f"appendix row {no}"


def test_theta_is_adjoint_fundamental_weight(rs_map):
    assert rs_map["E6"].theta_weight == fundamental_weight(6, 2)
    assert rs_map["E7"].theta_weight == fundamental_weight(7, 1)
    assert rs_map["E8"].theta_weight == fundamental_weight(8, 8)


def test_pairing_appendix_root_97(e8):
    amap = load_appendix_map("E8")
    idx = amap[97] - 1
    assert e8.positive_roots[idx] == (2, 2, 3, 4, 3, 2, 1, 0)
    assert pairing(e8, fundamental_weight(8, 1), idx) == 2
    assert pairing(e8, fundamental_weight(8, 8), idx) == 0
    assert pairing(e8, (1,) * 8, idx) == 17
    # beta_97 equals w1 - w8 as a weight
    assert e8.root_as_weight(idx) == (1, 0, 0, 0, 0, 0, 0, -1)


def test_pairing_basis_duality(rs_map):
    for rs in rs_map.values():
        for i in range(1, rs.rank + 1):
            for j in range(1, rs.rank + 1):
                idx = find_root(rs, fundamental_weight(rs.rank, j))
                assert pairing(rs, fundamental_weight(rs.rank, i), idx) == (i == j)


def test_pairing_rho_is_height(rs_map):
    for rs in rs_map.values():
        for idx in range(len(rs.positive_roots)):
            assert pairing(rs, (1,) * rs.rank, idx) == rs.heights[idx]
        assert list(rs.rho_pairings((0,) * rs.rank)) == list(rs.heights)
        # rho_pairings(w) is (w + rho | beta), for any integral w
        weight = tuple(range(-3, rs.rank - 3))
        shifted = tuple(c + 1 for c in weight)
        assert list(rs.rho_pairings(weight)) == [
            pairing(rs, shifted, idx) for idx in range(len(rs.positive_roots))]


def test_e7_unit_pairing_multiset(e7):
    values = sorted(
        pairing(e7, fundamental_weight(7, 2), i) + e7.heights[i]
        for i in range(63)
        if pairing(e7, fundamental_weight(7, 7), i) == 1
    )
    expected = sorted(
        [19, 18, 17, 16, 15, 14, 14, 13, 12, 12, 11, 11, 10, 10, 10, 9, 9, 8, 8,
         7, 6, 6, 5, 4, 3, 2, 1]
    )
    assert values == expected


def test_delta_parities(rs_map):
    e7 = rs_map["E7"]
    assert delta(e7, 7) == 27
    assert all(delta(e7, i) % 2 == 1 for i in (2, 5, 7))
    assert all(delta(e7, i) % 2 == 0 for i in (1, 3, 4, 6))
    for label in ("E6", "E8"):
        rs = rs_map[label]
        assert all(delta(rs, i) % 2 == 0 for i in range(1, rs.rank + 1))


@pytest.mark.parametrize("label", sorted(TYPE_DATA))
def test_derived_routes_read_only_rows_filled_before(rs_map, label):
    # qsolver's route walk fills the direct rows, then the targets in route
    # order, so a route may read only those; each route solves the equation
    # at its source, whose other neighbours are its divisors
    rs, td = rs_map[label], TYPE_DATA[label]
    filled = set(td.direct_nodes)
    for target, routes in td.derived_routes:
        assert target not in filled
        for source, divisors in routes:
            assert source in filled and set(divisors) <= filled
            assert sorted((target, *divisors)) == sorted(rs.neighbors[source])
        filled.add(target)
    assert filled == set(range(1, rs.rank + 1))


def test_lee_witness_simple_root(e7):
    idx = lee_witness(e7, 7, 1)
    assert e7.positive_roots[idx] == (0, 0, 0, 0, 0, 0, 1)


def test_lee_witness_properties(rs_map):
    for rs in rs_map.values():
        for i in range(1, rs.rank + 1):
            for r in range(1, rs.coxeter_number):
                try:
                    idx = lee_witness(rs, i, r)
                except LookupError:
                    continue
                assert rs.heights[idx] == r
                assert rs.positive_roots[idx][i - 1] == 1


def test_lee_witness_full_coverage_at_mark_one_nodes(rs_map):
    for rs in rs_map.values():
        for i in range(1, rs.rank + 1):
            if rs.marks[i - 1] == 1:
                for r in range(1, rs.coxeter_number):
                    lee_witness(rs, i, r)


def test_lee_witness_absence_at_top_height(e7):
    # the only height-17 root is the highest root, whose node-2 coefficient is 2
    with pytest.raises(LookupError):
        lee_witness(e7, 2, 17)


def test_lee_witness_range_validation(e6):
    with pytest.raises(ValueError):
        lee_witness(e6, 1, 0)
    with pytest.raises(ValueError):
        lee_witness(e6, 1, 12)


def test_height_symmetry_at_mark_one_nodes(rs_map):
    assert height_symmetry_check(rs_map["E6"], 1)
    assert height_symmetry_check(rs_map["E6"], 6)
    assert height_symmetry_check(rs_map["E7"], 7)


def test_height_symmetry_fails_at_higher_marks(e8):
    # E8 has no mark-1 node; at node 8 the unit-pairing counts pair heights
    # r with h-1-r rather than h-r, so the h-r count check is genuinely false.
    assert not height_symmetry_check(e8, 8)
    h = e8.coxeter_number
    counts = {}
    for b, ht in zip(e8.positive_roots, e8.heights):
        if b[7] == 1:
            counts[ht] = counts.get(ht, 0) + 1
    assert all(counts.get(r, 0) == counts.get(h - 1 - r, 0) for r in range(0, h))


@pytest.mark.parametrize("label", sorted(TYPE_DATA))
def test_root_table_images(rs_map, label):
    # s_a beta = beta - (beta | a) a in simple-root coordinates, a = theta for
    # s_0 and alpha_g for s_g: one negative image for a simple reflection,
    # and 2h - 3 for s_theta (theta itself and the 2h - 4 roots pairing 1)
    rs = rs_map[label]
    table = rs.table
    cartan = rs.cartan
    for g in range(rs.rank + 1):
        a = rs.marks if g == 0 else tuple(int(j == g - 1) for j in range(rs.rank))
        images = []
        for b in rs.positive_roots:
            pair = sum(b[i] * cartan[i][j] * a[j] for i in range(rs.rank) for j in range(rs.rank))
            images.append(tuple(x - pair * y for x, y in zip(b, a)))
        assert table.image_heights[g] == tuple(map(sum, images))
        assert table.negatives[g] == sum(min(image) < 0 for image in images)
    h = rs.coxeter_number
    assert table.negatives == (2 * h - 3,) + (1,) * rs.rank
    assert table.negatives[0] == {"E6": 21, "E7": 33, "E8": 57}[label]


@pytest.mark.parametrize("label", sorted(TYPE_DATA))
def test_root_table_heights_by_node(rs_map, label):
    rs = rs_map[label]
    for i in range(1, rs.rank + 1):
        for r in range(1, rs.coxeter_number):
            try:
                lee_witness(rs, i, r)
                found = True
            except LookupError:
                found = False
            assert (r in rs.table.unit_heights[i - 1]) == found
            assert (r in rs.table.support_heights[i - 1]) == any(
                b[i - 1] and ht == r for b, ht in zip(rs.positive_roots, rs.heights))


def test_root_table_build_rejects_a_non_reflection(e7):
    # marks that are not theta's coefficients make s_0's linear part no
    # reflection, and the build says so
    fields = {f: getattr(e7, f) for f in RootSystem._fields}
    broken = RootSystem(**{**fields, "marks": e7.positive_roots[-2]})
    with pytest.raises(AssertionError, match="s_0 does not permute the roots"):
        broken.table


def test_custom_type_a(a1):
    assert a1.positive_roots == ((1,),)
    assert a1.coxeter_number == 2
    a3 = closure_system(a_series_cartan(3), "A3")
    assert len(a3.positive_roots) == 6
    assert a3.coxeter_number == 4
    oracle = reflection_orbit_positive_roots(a3.cartan)
    assert set(a3.positive_roots) == oracle


def test_invalid_cartan_matrices():
    with pytest.raises(ValueError, match="unknown type label 'F4'"):
        build_root_system("F4")
    # a root system is built from an E-type label only, never from a matrix
    with pytest.raises(TypeError, match="E6, E7 or E8"):
        build_root_system([[2]])


def test_to_root_basis_roundtrip(e6):
    w = (1, 0, 2, 0, 0, 1)
    coords = to_root_basis(e6, w)
    back = tuple(
        sum(e6.cartan[j][i] * coords[i] for i in range(6)) for j in range(6)
    )
    assert all(b == wi for b, wi in zip(back, w))
