"""Acceptance suite: one test per certification target, at pinned tolerances.

Each test prints a single line `criterion N (...): PASS` when it succeeds;
run with ``pytest tests/test_acceptance.py -v -s`` to see them.  The grids
for the full (type, level) matrix are built once and shared.
"""

from __future__ import annotations

import random
import time

import pytest

import qslab
from qslab import report as rep
from qslab.affweyl import apply_word, enumerate_alcove
from qslab.krchar import chari_decomposition, kleber_q1, qdim_kr
from qslab.qnum import LevelContext, qdim, qdim_line
from qslab.qsolver import (
    build_qgrid,
    dilog_args,
    dilog_args_margin,
    dilog_sum,
    is_proven,
    solve_restricted,
    theorem_report,
)
from qslab.rootsys import build_root_system, delta, fundamental_weight, lee_witness
from qslab.seqanalysis import branden_criterion, is_log_concave, log_concavity_order, make_sequence

from oracles import mpf_entries, raw

ACCEPTANCE_LEVELS = {"E6": (1, 2, 3, 4, 5, 6), "E7": (1, 2, 3, 4, 5, 6),
                     "E8": (1, 2, 3, 4)}
# Seed of the random sequences in the log-concavity lemmas of criterion 8.
SEQUENCE_SEED = 20260809


@pytest.fixture(scope="module")
def solved_matrix(rs_map):
    """(label, level) -> (ctx, built grid, solver grid) for the full matrix."""
    out = {}
    for label, levels in ACCEPTANCE_LEVELS.items():
        for level in levels:
            ctx = LevelContext(rs_map[label], level, precision_bits=128)
            grid = build_qgrid(ctx, k_max=ctx.shifted_level)
            solved = solve_restricted(ctx, tolerance=1e-30)
            out[(label, level)] = (ctx, grid, solved)
    return out


def done(n, what):
    print(f"criterion {n} ({what}): PASS")


def test_criterion_01_root_fixtures(rs_map):
    for label, h in (("E6", 12), ("E7", 18), ("E8", 30)):
        rs = rs_map[label]
        assert rs.coxeter_number == h
        assert sum(rs.marks) == h - 1
        check = rep.fixture_check(rs)
        assert check.status == "pass", check.note
    assert len(rs_map["E6"].positive_roots) == 36
    rows7 = rep.load_fixture_rows("E7")
    rows8 = rep.load_fixture_rows("E8")
    assert len(rows7) == 63 and len(rows8) == 120
    done(1, "root tables bit-exact vs published fixtures")


def test_criterion_02_delta_parities(rs_map):
    e7 = rs_map["E7"]
    assert delta(e7, 7) == 27
    assert {i for i in range(1, 8) if delta(e7, i) % 2} == {2, 5, 7}
    for label in ("E6", "E8"):
        rs = rs_map[label]
        assert all(delta(rs, i) % 2 == 0 for i in range(1, rs.rank + 1))
    done(2, "parity counts of odd-pairing roots")


# Exhaustively computed unit-pairing witness coverage: the first height with
# no unit-pairing root per node (None = full coverage up to h-1).  Nodes of
# mark 1 are fully covered, which is where the vanishing arguments need it.
UNIT_WITNESS_CUTS = {
    "E6": {1: None, 2: 11, 3: 9, 4: 7, 5: 9, 6: None},
    "E7": {1: 17, 2: 14, 3: 11, 4: 8, 5: 10, 6: 13, 7: None},
    "E8": {1: 23, 2: 17, 3: 13, 4: 9, 5: 11, 6: 14, 7: 19, 8: 29},
}


def test_criterion_03_witnesses_and_height_symmetry(rs_map):
    for label, rs in rs_map.items():
        h = rs.coxeter_number
        for i in range(1, rs.rank + 1):
            covered = []
            for r in range(1, h):
                try:
                    idx = lee_witness(rs, i, r)
                except LookupError:
                    covered.append(False)
                    continue
                covered.append(True)
                assert rs.heights[idx] == r and rs.positive_roots[idx][i - 1] == 1
            cut = UNIT_WITNESS_CUTS[label][i]
            if cut is None:
                assert all(covered), (label, i)
                assert rs.marks[i - 1] == 1
            else:
                assert covered == [r < cut for r in range(1, h)], (label, i)
            # a root supported on node i exists at every height
            for r in range(1, h):
                assert any(
                    b[i - 1] != 0 and ht == r
                    for b, ht in zip(rs.positive_roots, rs.heights)
                ), (label, i, r)
    assert qslab.height_symmetry_check(rs_map["E6"], 1)
    assert qslab.height_symmetry_check(rs_map["E6"], 6)
    done(3, "witness coverage table and E6 height symmetry")


def test_criterion_04_alcove_positivity(rs_map):
    for label, rs in rs_map.items():
        for level in range(1, 6):
            ctx = LevelContext(rs, level)
            weights = enumerate_alcove(rs, level)
            assert weights
            for lam in weights:
                v = qdim(lam, ctx).value
                assert v > 1e-10, (label, level, lam)
    done(4, "quantum dimensions positive on the fundamental alcove")


def test_criterion_05_sign_identity(rs_map):
    for label, rs in rs_map.items():
        ctx = LevelContext(rs, 5, precision_bits=128)
        assert rep.sign_identity_trials(ctx) == 0, label
        check = rep.fixed_word_image_check(ctx)
        assert check.status == "pass", check.note
    done(5, "affine sign certificate for every weight and generator per type + closed forms")


def test_criterion_06_certified_grid_properties(solved_matrix):
    for (label, level), (ctx, grid, _) in solved_matrix.items():
        checks = theorem_report(ctx, grid)
        failing = [c for c in checks if c.status != "pass"]
        assert not failing, (label, level,
                            [(c.name, c.node, c.status) for c in failing])
        # conjectural items are present as separate, labeled entries
        if label == "E7":
            labels = {(c.name, c.node): c.proven for c in checks}
            assert labels[("positivity", 4)] is False
            assert labels[("positivity_window", 4)] is True
        if label == "E8":
            labels = {(c.name, c.node): c.proven for c in checks}
            assert labels[("symmetry", 2)] is False
    done(6, "zero window, symmetry, positivity, unimodality, periodicity")


def test_criterion_07_two_path_agreement(solved_matrix):
    for (label, level), (ctx, grid, solved) in solved_matrix.items():
        assert ctx.mp.make_mpf(raw(solved.residual_max)) <= 1e-30, (label, level)
        assert ctx.mp.make_mpf(raw(grid.residual_max)) <= 1e-20, (label, level)
        assert not grid.unresolved, (label, level)
        for i in range(1, ctx.root_system.rank + 1):
            for k in range(level + 1):
                a = grid.cell(i, k)
                b = solved.cell(i, k)
                d = abs(a - b) / max(abs(a), abs(b), 1)
                assert d <= 1e-22, (label, level, i, k, float(d))
    done(7, "unique positive solution matches the KR-built grid cellwise")


def test_criterion_08_log_concavity_suite(rs_map):
    for label, rs in rs_map.items():
        for level in (4, 8):
            ctx = LevelContext(rs, level)
            for i in range(1, rs.rank + 1):
                top = level // rs.marks[i - 1]
                seq = make_sequence(
                    [qdim_line(i, k, ctx).value for k in range(top + 1)])
                assert all(e > 0 for e in mpf_entries(seq)), (label, level, i)
                if len(seq) >= 3:
                    assert is_log_concave(seq, strict=True), (label, level, i)
    for level in (4, 8):
        e6 = rs_map["E6"]
        ctx = LevelContext(e6, level)
        grid = build_qgrid(ctx, k_max=max(2, level + 1))
        row = make_sequence([grid.cell(2, k) for k in range(level + 1)])
        assert is_log_concave(row, strict=True)

    rng = random.Random(SEQUENCE_SEED)
    from test_seqanalysis import random_ratio_sequence
    from oracles import palindromize

    for _ in range(500):
        n = rng.randint(3, 12)
        a = random_ratio_sequence(rng, n, strict=False)
        b = random_ratio_sequence(rng, n, strict=True)
        prod = make_sequence([x * y for x, y in zip(mpf_entries(a), mpf_entries(b))])
        assert is_log_concave(prod, strict=True)
    for _ in range(500):
        n = rng.randint(2, 12)
        seq = random_ratio_sequence(rng, n, strict=True, above_one=True)
        for parity in ("even", "odd"):
            assert is_log_concave(palindromize(seq, parity), strict=True)
    for _ in range(500):
        n = rng.randint(3, 12)
        seq = random_ratio_sequence(rng, n, strict=True)
        prefix, total = [], None
        for e in mpf_entries(seq):
            total = e if total is None else total + e
            prefix.append(total)
        assert is_log_concave(make_sequence(prefix), strict=True)
    done(8, "strict log-concavity of weight lines, grid row, and 1500 trials")


def test_criterion_09_rootedness_fixture(rs_map):
    e7 = rs_map["E7"]
    for level in range(1, 13):
        ctx = LevelContext(e7, level)
        seq = make_sequence([qdim_line(7, k, ctx).value for k in range(level + 1)])
        verdict = branden_criterion(seq)
        assert verdict.status != "inconclusive", level
        if level <= 11:
            assert verdict.status == "real_negative", level
        else:
            assert verdict.status == "not_real_negative", level
        assert log_concavity_order(seq, 6) >= 3, level
    done(9, "real-negative rootedness up to level 11, failure at 12")


def test_criterion_10_dilog_arguments(solved_matrix, a1):
    for (label, level), (ctx, grid, _) in solved_matrix.items():
        triples = dilog_args(grid)
        args = {key: ctx.mp.make_mpf(raw(x)) for key, x in triples.items()}
        margin = dilog_args_margin(grid, triples)
        if margin is not None:
            margin = ctx.mp.make_mpf(raw(margin))
            assert margin >= 1e-10, (label, level, float(margin))
        for i in range(1, ctx.root_system.rank + 1):
            assert abs(args[(i, 0)] - 1) < 1e-25
            assert abs(args[(i, level)] - 1) < 1e-20
    ctx = LevelContext(a1, 2)
    total = ctx.mp.make_mpf(raw(dilog_sum(solve_restricted(ctx))))
    assert abs(total - ctx.mp.mpf(1) / 2) <= ctx.mp.mpf(10) ** -20
    done(10, "dilogarithm arguments inside (0,1); rank-1 sum equals 1/2")


def test_criterion_11_kleber_cross_check(rs_map):
    e7 = rs_map["E7"]
    for level in (3, 4, 5, 6):
        ctx = LevelContext(e7, level)
        grid = build_qgrid(ctx, k_max=2)
        for node in (4, 5):
            direct = qdim_kr(kleber_q1(e7, node), ctx).value
            routed = grid.cell(node, 1)
            d = abs(direct - routed) / max(abs(direct), abs(routed), 1)
            assert d <= 1e-22, (level, node, float(d))
    done(11, "single-box tables agree with the division-route cells")


def test_full_verify_run_under_60_seconds():
    started = time.monotonic()
    result = rep.run(rep.RunConfig(type_label="E8", level=4, precision_bits=128))
    elapsed = time.monotonic() - started
    assert result.overall == "pass"
    assert elapsed < 60, f"verify took {elapsed:.1f}s"
    print(f"full E8 level-4 verify run: {elapsed:.1f}s (budget 60s): PASS")


@pytest.mark.parametrize("label,level", [("E7", 12), ("E8", 8)])
def test_full_verify_at_target_levels_under_60_seconds(label, level):
    # E7 up to the Branden threshold L12 and E8 up to L8 must certify in full
    # within the same budget.
    started = time.monotonic()
    result = rep.run(rep.RunConfig(type_label=label, level=level, precision_bits=128))
    elapsed = time.monotonic() - started
    assert result.overall == "pass"
    assert elapsed < 60, f"verify took {elapsed:.1f}s"
    print(f"full {label} level-{level} verify run: {elapsed:.1f}s (budget 60s): PASS")
