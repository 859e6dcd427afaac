from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
from mpmath.ctx_mp import MPContext
from mpmath.ctx_mp_python import _mpf
from mpmath.libmp import finf, fone, from_float, from_man_exp, fzero, mpf_sub, round_nearest

import qslab
from qslab import krchar, qnum, qsolver, report
from qslab.cli import main
from qslab.krchar import chari_decomposition, kleber_q1, qdim_kr
from qslab.qnum import LevelContext, QReal, qdim, qdim_line
from qslab.qsolver import (
    REL_GAP_TOL,
    QGrid,
    SolverDivergence,
    build_qgrid,
    dilog_args,
    dilog_args_margin,
    dilog_sum,
    residual,
    solve_restricted,
    theorem_report,
)
from qslab.report import RunConfig, run
from qslab.rootsys import TYPE_DATA, delta

import oracles
from oracles import a_series_cartan, closure_system, rel_gap


def test_boundary_and_direct_rows(e6):
    ctx = LevelContext(e6, 2)
    grid = build_qgrid(ctx)
    for i in range(1, 7):
        assert grid.cell(i, 0) == 1
        assert grid.provenance[i - 1][0] == "boundary"
    for i in TYPE_DATA["E6"].direct_nodes:
        v = qdim_kr(chari_decomposition(e6, i, 2), ctx)
        assert grid.cell(i, 2) == v.value
        assert grid.provenance[i - 1][2] == "direct"
    for i in (3, 4, 5):
        assert grid.provenance[i - 1][1] == "subtraction"


def test_e6_node4_subtraction_relation(e6):
    ctx = LevelContext(e6, 2)
    grid = build_qgrid(ctx)
    q2 = [oracles.mpf_cell(grid, 2, k) for k in range(4)]
    expected = q2[1] * q2[1] - q2[0] * q2[2]
    assert oracles.mpf_cell(grid, 4, 1) == expected


def test_level_one_grid_is_all_ones(rs_map):
    for rs in rs_map.values():
        ctx = LevelContext(rs, 1)
        grid = build_qgrid(ctx)
        for i in range(1, rs.rank + 1):
            for k in (0, 1):
                assert abs(grid.cell(i, k) - 1) < Fraction(1, 10**30)


def test_zero_hypothesis_cells_appear_and_validate(e8):
    ctx = LevelContext(e8, 2)
    grid = build_qgrid(ctx)
    tags = {t for row in grid.provenance for t in row}
    assert "zero_hypothesis" in tags and "division" in tags
    assert not grid.unresolved
    assert ctx.mp.make_mpf(oracles.raw(grid.residual_max)) <= 1e-20


def test_kleber_against_division_route(e7):
    for level in (3, 4, 5, 6):
        ctx = LevelContext(e7, level)
        grid = build_qgrid(ctx)
        for node in (4, 5):
            direct = qdim_kr(kleber_q1(e7, node), ctx)
            assert rel_gap(direct.value, grid.cell(node, 1)) < 1e-22, (level, node)


def test_grid_kmax_guards(e6):
    ctx = LevelContext(e6, 2)
    with pytest.raises(ValueError):
        build_qgrid(ctx, k_max=1)
    with pytest.raises(ValueError):
        build_qgrid(ctx, k_max=4 * ctx.shifted_level + 1)


@pytest.mark.parametrize("label,level", [("E6", 2), ("E6", 4), ("E7", 2), ("E7", 3),
                                         ("E8", 2), ("E8", 3)])
def test_grid_past_l_is_antiperiodic(rs_map, label, level):
    # out to k = 2l every cell resolves, and Q_{k+l}(i) = (-1)^delta_i Q_k(i)
    # at every node, derived rows included
    rs = rs_map[label]
    ctx = LevelContext(rs, level)
    l = ctx.shifted_level
    grid = build_qgrid(ctx, k_max=2 * l)
    assert not grid.unresolved
    scales = oracles.mpf_table(ctx.mp, grid.scales)
    for i in range(1, rs.rank + 1):
        sign = -1 if delta(rs, i) % 2 else 1
        for k in range(l + 1):
            a, b = oracles.mpf_cell(grid, i, k), oracles.mpf_cell(grid, i, k + l)
            scale = max(scales[i - 1][k], scales[i - 1][k + l])
            assert abs(b - sign * a) <= REL_GAP_TOL * scale, (i, k)


def test_custom_type_rejected_by_grid(a1):
    ctx = LevelContext(a1, 2)
    with pytest.raises(ValueError):
        build_qgrid(ctx)


def test_residual_sanity_all_ones_chain():
    # on the 2-node chain the constant grid misses the neighbour product by 1
    a2 = closure_system(a_series_cartan(2), "A2")
    ctx = LevelContext(a2, 2)
    one = oracles.triple(fone, ctx.precision_bits)
    grid = QGrid(a2, 2, 2, [[one] * 3, [one] * 3], ctx.precision_bits, [["solver"] * 3] * 2)
    assert oracles.raw(residual(grid)) == fone


def test_solver_a1_square_root_of_two(a1):
    ctx = LevelContext(a1, 2)
    grid = solve_restricted(ctx)
    assert abs(oracles.mpf_cell(grid, 1, 1) - ctx.mp.sqrt(2)) < ctx.mp.mpf(10) ** -29
    assert grid.cell(1, 0) == 1 and grid.cell(1, 2) == 1


def test_solver_level_one_trivial(e7):
    ctx = LevelContext(e7, 1)
    grid = solve_restricted(ctx)
    assert all(grid.cell(i, k) == 1 for i in range(1, 8) for k in (0, 1))


@pytest.mark.parametrize("label,level", [
    *[("E6", level) for level in range(1, 9)],
    *[("E7", level) for level in range(1, 7)],
    *[("E8", level) for level in range(1, 6)],
    ("E6", 13), ("E7", 11), ("E7", 12), ("E8", 9), ("E8", 10),
    *[("A1", level) for level in range(2, 6)],
])
def test_solver_residual_is_the_last_stopping_test(rs_map, a1, label, level):
    # the residual the Newton loop stopped on, over the half k <= level // 2,
    # is bit for bit the residual of every cell it returns, at odd and even
    # levels alike
    ctx = LevelContext(a1 if label == "A1" else rs_map[label], level)
    grid = solve_restricted(ctx)
    assert grid.residual_max == residual(grid)


def test_grid_rows_are_raw_and_cells_are_fractions(e7):
    # rows and scales hold p-bit triples; cell() hands out each one's exact
    # value
    ctx = LevelContext(e7, 3)
    built = build_qgrid(ctx)
    solved = solve_restricted(ctx)
    for grid in (built, solved):
        assert len(grid.rows) == 7 and all(len(row) == grid.k_max + 1 for row in grid.rows)
        for i, row in enumerate(grid.rows, 1):
            for k, c in enumerate(row):
                assert type(c) is tuple and len(c) == 3 and c[1].bit_length() in (0, 128)
                sign, man, exp = c
                cell = grid.cell(i, k)
                assert type(cell) is Fraction and cell == (-1) ** sign * man * Fraction(2) ** exp
    assert len(built.scales) == 7 and all(len(row) == built.k_max + 1 for row in built.scales)
    assert all(type(s) is tuple and s[1].bit_length() == 128 for row in built.scales for s in row)
    assert solved.scales is None


def test_grid_cell_bounds_and_unresolved_cells(rs_map):
    grid = build_qgrid(LevelContext(rs_map["E6"], 2))
    assert grid.cell(6, grid.k_max) is not None
    for node, k in ((0, 1), (7, 1), (1, -1), (1, grid.k_max + 1)):
        with pytest.raises(IndexError):
            grid.cell(node, k)
    # the known unresolved cell reads None, raw and through cell()
    grid = build_qgrid(LevelContext(rs_map["E8"], 16))
    assert grid.unresolved == [(2, 46)]
    assert grid.rows[1][46] is None and grid.cell(2, 46) is None
    assert grid.scales[1][46] is None


@pytest.mark.parametrize("label,level,bits,k_max", [
    ("E6", 2, 128, None), ("E6", 4, 128, None), ("E7", 2, 128, None), ("E7", 6, 128, None),
    ("E7", 12, 128, None), ("E8", 2, 128, None), ("E8", 8, 128, None), ("E8", 16, 128, None),
    ("E8", 4, 64, None), ("E8", 8, 64, None), ("E7", 6, 256, None),
    ("E6", 2, 128, 2), ("E7", 2, 128, 2), ("E8", 2, 128, 2),
    ("E6", 2, 128, "4l"), ("E7", 2, 128, "4l"), ("E8", 2, 128, "4l"),
])
def test_route_walk_equals_the_recursive_fill(rs_map, label, level, bits, k_max):
    # every grid has zero hypotheses; E8 L16, and at 64 bits E8 L4 and L8,
    # leave unresolved cells
    ctx = LevelContext(rs_map[label], level, bits)
    k_max = 4 * ctx.shifted_level if k_max == "4l" else k_max
    assert build_qgrid(ctx, k_max) == oracles.build_qgrid(ctx, k_max)


# Q_1(i) = dim W^(i)_1, i = 1..rank
CLASSICAL_Q1 = {
    "E6": [27, 79, 378, 3_732, 378, 27],
    "E7": [134, 968, 10_451, 640_871, 36_080, 1_673, 56],
    "E8": [4_124, 185_877, 11_315_621, 26_994_988_264, 328_909_133, 3_658_621, 34_752, 249],
}


@pytest.mark.parametrize("label,k_max", [("E6", 40), ("E7", 40), ("E8", 30)])
def test_routes_solve_the_q_system_exactly_at_q_1(rs_map, label, k_max):
    # at q = 1 the KR dimensions solve the unrestricted Q-system (the
    # Kirillov-Reshetikhin conjecture, proven for simply-laced types), so
    # every route division is exact and every node's equation holds in Z
    rs = rs_map[label]
    rows = oracles.classical_grid(rs, k_max)
    assert [row[1] for row in rows] == CLASSICAL_Q1[label]
    neighbors = qsolver._neighbor_rows(rs)
    for i in range(rs.rank):
        for k in range(1, k_max):
            assert oracles.defect(rows, neighbors, i, k)[0] == 0, (i + 1, k)


def test_route_order_and_divisors_at_q_1(e7, e8):
    # E7 node 5 has two routes; either one first gives the same rows
    td = TYPE_DATA["E7"]
    *head, (target, routes) = td.derived_routes
    swapped = td._replace(derived_routes=(*head, (target, routes[::-1])))
    assert routes[1] == (4, (2, 3))
    assert oracles.classical_grid(e7, 40, swapped) == oracles.classical_grid(e7, 40)
    # a wrong divisor leaves a remainder
    td = TYPE_DATA["E8"]
    *head, (target, routes) = td.derived_routes
    assert (target, routes) == (2, ((4, (3, 5)),))
    wrong = td._replace(derived_routes=(*head, (2, ((4, (3, 6)),))))
    with pytest.raises(ArithmeticError, match="remainder 34544610679325$"):
        oracles.classical_grid(e8, 30, wrong)


def test_check_layer_makes_mpf_numbers_only_at_its_edges(monkeypatch, e7):
    # from the grid to the report writer values stay raw: on a context whose
    # sine table and Chari rows are warm, the grid, the solver, the residual,
    # the dilogarithm functions and every group that reads the grid make no
    # mpf number, the logconcave group included, which hands seqanalysis the
    # triples of the alcove lines and the adjoint row; nor do the read-outs
    # QGrid.cell and QReal.value, which hand out Fractions
    ctx = LevelContext(e7, 12)
    grid = build_qgrid(ctx)
    verification = report.VerificationReport(report.RunConfig("E7", 12), ctx.shifted_level, [])
    groups = {name: report.CHECK_GROUPS[name][1] for name in
              ("grid", "solve", "theorem", "logconcave", "dilog")}
    for group in groups.values():
        group(verification, ctx, grid)
    made = []
    real = MPContext.make_mpf

    def counting(self, v):
        made.append(v)
        return real(self, v)

    monkeypatch.setattr(MPContext, "make_mpf", counting)
    args = dilog_args(grid)
    calls = {
        "build_qgrid": lambda: build_qgrid(ctx),
        "solve_restricted": lambda: solve_restricted(ctx),
        "residual": lambda: residual(grid),
        "dilog_args": lambda: dilog_args(grid),
        "dilog_args_margin": lambda: dilog_args_margin(grid, args),
        "dilog_sum": lambda: dilog_sum(grid, args),
        **{name: functools.partial(group, verification, ctx, grid)
           for name, group in groups.items()},
    }
    counts = {}
    for name, call in calls.items():
        made.clear()
        call()
        counts[name] = len(made)
    assert counts == dict.fromkeys(calls, 0)
    made.clear()
    grid.cell(1, 1), qdim_line(7, 1, ctx).value
    assert made == []


@pytest.mark.parametrize("label,level", [("E7", 28), ("E8", 16)])
def test_grid_scales_bound_their_values(rs_map, label, level):
    # QReal sums and differences add scales without a clamp; every cell's
    # scale must still be at least 1 and at least |value|
    ctx = LevelContext(rs_map[label], level)
    grid = build_qgrid(ctx)
    for row, scales in zip(oracles.mpf_table(ctx.mp, grid.rows),
                           oracles.mpf_table(ctx.mp, grid.scales)):
        for value, scale in zip(row, scales):
            assert value is None or scale >= 1 and scale >= abs(value)


def test_solver_positive_and_converged(e6):
    ctx = LevelContext(e6, 5)
    grid = solve_restricted(ctx)
    assert ctx.mp.make_mpf(oracles.raw(grid.residual_max)) <= 1e-30
    for i in range(1, 7):
        for k in range(6):
            assert grid.cell(i, k) > 0


def test_two_path_agreement_e6(e6):
    ctx = LevelContext(e6, 4)
    built = build_qgrid(ctx)
    solved = solve_restricted(ctx)
    for i in range(1, 7):
        for k in range(5):
            d = rel_gap(built.cell(i, k), solved.cell(i, k))
            assert d < 1e-25, (i, k)


def test_solver_settings_validation(e6):
    ctx = LevelContext(e6, 3, precision_bits=64)
    with pytest.raises(ValueError):
        solve_restricted(ctx, tolerance=1e-30)
    # a tolerance <= 0 is below every working precision, and an infinite one
    # would pass the float start off as converged, with no correction at the
    # working precision
    for tolerance in (0, -1, math.inf, math.nan):
        with pytest.raises(ValueError):
            solve_restricted(LevelContext(e6, 3), tolerance=tolerance)


def test_solve_group_reports_a_tolerance_below_the_precision():
    # at 64 bits SOLVER_TOLERANCE lies below what Newton can reach: the solve
    # group records a failed solver_residual instead of aborting the run
    rep = run(RunConfig(type_label="E6", level=2, precision_bits=64, checks=("solve",)))
    assert [(c.name, c.status, c.note) for c in rep.checks] == [
        ("solver_residual", "fail", "solver tolerance is below the working precision")]
    assert rep.exit_code == 1


@pytest.mark.parametrize("label,level", [("E7", 10), ("E8", 8)])
def test_solver_deep_levels(rs_map, label, level):
    rs = rs_map[label]
    ctx = LevelContext(rs, level)
    solved = solve_restricted(ctx)
    built = build_qgrid(ctx)
    assert ctx.mp.make_mpf(oracles.raw(solved.residual_max)) <= 1e-30
    for i in range(1, rs.rank + 1):
        for k in range(level + 1):
            a = solved.cell(i, k)
            assert a > 0, (i, k)
            d = rel_gap(a, built.cell(i, k))
            assert d <= REL_GAP_TOL, (i, k, float(d))
            mirror = solved.cell(i, level - k)
            assert rel_gap(a, mirror) <= REL_GAP_TOL, (i, k)


@pytest.mark.parametrize("label,level", [
    ("E6", 30), ("E7", 28), ("E7", 40), ("E8", 24), ("E8", 30),
    # the warm start's cells reach 4e160 at E8 L130 and 3e225 at L250, so Q^2
    # leaves the float range; the corrections hold only ratios in floats
    ("E8", 130), ("E8", 250),
])
def test_solver_converges_at_deep_levels(rs_map, label, level):
    rs = rs_map[label]
    ctx = LevelContext(rs, level)
    solved = solve_restricted(ctx)
    assert ctx.mp.make_mpf(oracles.raw(solved.residual_max)) <= 1e-30
    for i in range(1, rs.rank + 1):
        for k in range(level + 1):
            a = solved.cell(i, k)
            assert a > 0, (i, k)
            assert rel_gap(a, solved.cell(i, level - k)) <= REL_GAP_TOL, (i, k)


@pytest.mark.parametrize("label,level", [("E8", 24), ("E7", 40)])
def test_solve_at_256_bits(capsys, label, level):
    assert main(["solve", "--type", label, "--level", str(level),
                 "--precision-bits", "256", "--tol", "1e-70"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("converged, residual ")
    assert mpmath.mpf(first.split()[-1]) <= mpmath.mpf("1e-70")


@pytest.mark.parametrize("label,level,bits,tol,passes", [
    *[pytest.param(label, level, 128, qsolver.SOLVER_TOLERANCE, 3, id=f"{label}-{level}")
      for label, level in (
        ("E6", 4), ("E6", 8), ("E7", 3), ("E7", 5), ("E8", 3),  # the solve-deep workload
        ("E6", 2), ("E7", 2), ("E8", 2),  # and verify-matrix's other configurations
        ("E7", 28), ("E7", 40), ("E8", 24), ("E8", 130),
    )],
    pytest.param("E8", 24, 256, 1e-70, 5, id="E8-24-256bits"),
    pytest.param("E7", 40, 256, 1e-70, 5, id="E7-40-256bits"),
    pytest.param("E6", 4, 64, 1e-15, 2, id="E6-4-64bits"),
])
def test_solver_defect_passes_per_solve(rs_map, monkeypatch, label, level, bits, tol, passes):
    # the float start hands over at a log defect of at most 2^-40, about
    # 9e-13, and each correction squares it: two corrections at 128 bits
    # reach 1e-30, at most two passes of the defect before the final
    # stopping test; at 256 bits down to 1e-70, four corrections; at 64 bits
    # down to 1e-15, one.  Each pass reads the symmetric half k <= level // 2
    # only
    rs = rs_map[label]
    calls = []
    original = qsolver._defect

    def counting(*args):
        calls.append(args[2:])
        return original(*args)

    monkeypatch.setattr(qsolver, "_defect", counting)
    solve_restricted(LevelContext(rs, level, precision_bits=bits), tolerance=tol)
    assert len(calls) <= passes * rs.rank * (level // 2)
    assert {k for _, k in calls} == set(range(1, level // 2 + 1))


# block solves per solve at 128 bits: (float start, corrections)
BLOCK_SOLVES = {
    ("E6", 4): (5, 2), ("E6", 8): (5, 2), ("E7", 3): (6, 2), ("E7", 5): (6, 2),
    ("E8", 3): (7, 2),  # the solve-deep workload, 39 in all
    ("E6", 2): (6, 2), ("E7", 2): (7, 2), ("E8", 2): (8, 2),  # verify-matrix's others
    ("E7", 28): (6, 2), ("E7", 40): (6, 2), ("E8", 24): (6, 2), ("E8", 130): (8, 2),
}


@pytest.mark.parametrize("label,level", BLOCK_SOLVES)
def test_block_solves_per_solve(rs_map, monkeypatch, label, level):
    # the float start stops at the first iterate within HANDOVER_LOG_DEFECT
    # rather than polishing to the float floor, and the corrections take two
    # steps from there
    counts = {"start": 0, "corrections": 0}
    stage = ["corrections"]
    block_thomas, warm_start = qsolver._block_thomas, qsolver._warm_start

    def counting(*args):
        counts[stage[0]] += 1
        return block_thomas(*args)

    def start(*args):
        stage[0] = "start"
        try:
            return warm_start(*args)
        finally:
            stage[0] = "corrections"

    monkeypatch.setattr(qsolver, "_block_thomas", counting)
    monkeypatch.setattr(qsolver, "_warm_start", start)
    solve_restricted(LevelContext(rs_map[label], level))
    assert (counts["start"], counts["corrections"]) == BLOCK_SOLVES[label, level]


def test_handover_moves_only_last_bits(rs_map, monkeypatch):
    # without the handover bound the float start polishes to the float
    # floor; the corrections then reach the same solution to 1e-33.  Both
    # solve to 1e-35: at 1e-30 the polished start stops one correction
    # earlier at E6 L2-5 and E7 L2, with cells up to 3e-30 off, which that
    # tolerance allows
    configs = [(label, level) for label in ("E6", "E7", "E8") for level in range(1, 13)]
    configs += [("E7", 28), ("E8", 24)]
    for label, level in configs:
        ctx = LevelContext(rs_map[label], level)
        grid = solve_restricted(ctx, tolerance=1e-35)
        with monkeypatch.context() as patched:
            patched.setattr(qsolver, "HANDOVER_LOG_DEFECT", 0.0)
            floor = solve_restricted(ctx, tolerance=1e-35)
        mp = ctx.mp
        for row, floor_row in zip(grid.rows, floor.rows):
            for a, b in zip(row, floor_row):
                a, b = mp.make_mpf(oracles.raw(a)), mp.make_mpf(oracles.raw(b))
                assert abs(a - b) <= mpmath.mpf("1e-33") * max(abs(a), abs(b)), (label, level)


@pytest.mark.parametrize("label", ["E6", "E7", "E8", "A1"])
def test_solved_grids_are_exactly_mirrored(rs_map, a1, label):
    # the solver computes the half k <= level // 2 and mirrors each cell by
    # assignment, so Q_{level-k}(i) is Q_k(i) bit for bit
    rs = a1 if label == "A1" else rs_map[label]
    for level in range(1, 10):
        grid = solve_restricted(LevelContext(rs, level))
        for row in grid.rows:
            assert row == row[::-1], level


@pytest.mark.parametrize("level", [2, 3, 6, 7])
def test_log_newton_step_solves_the_full_symmetric_system(e6, level):
    # a right-hand side and weights symmetric under k <-> level - k: the half
    # system with the reflection folded into its last row gives the full
    # system's solution on k <= level // 2
    rng = random.Random(level)
    neighbors = qsolver._neighbor_rows(e6)
    half = level // 2
    w_half = [[rng.uniform(0.05, 0.95) for _ in range(6)] for _ in range(half)]
    r_half = [[rng.uniform(-1, 1) for _ in range(6)] for _ in range(half)]
    mirror = [min(k, level - k) - 1 for k in range(1, level)]
    weights = [w_half[m] for m in mirror]
    rhs = [r_half[m] for m in mirror]
    blocks = [[[2.0 if i == j else (w - 1 if j in neighbors[i] else 0.0) for j in range(6)]
               for i, w in enumerate(col)] for col in weights]
    full = qsolver._block_thomas(blocks, [[-w for w in col] for col in weights], rhs)
    got = qsolver._log_newton_step(neighbors, w_half, r_half, level)
    assert len(got) == half
    scale = max(abs(x) for col in full for x in col)
    for k in range(half):
        assert max(abs(a - b) for a, b in zip(got[k], full[k])) <= 1e-12 * scale, k
    # the full solution is itself mirrored
    for k in range(level - 1):
        assert max(abs(a - b) for a, b in zip(full[k], full[level - 2 - k])) <= 1e-12 * scale


def test_solver_never_reads_the_grid(e7, monkeypatch):
    # the two solution paths stay independent: no KR value seeds the solver
    def forbidden(*args, **kwargs):
        raise AssertionError("the solver read a KR quantum dimension")

    for module in (qnum, krchar, qsolver):
        for name in ("qdim", "qdim_kr", "chari_decomposition", "chari_qdim", "build_qgrid"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    ctx = LevelContext(e7, 6)
    grid = solve_restricted(ctx)
    assert ctx.mp.make_mpf(oracles.raw(grid.residual_max)) <= 1e-30


def test_solver_divergence_is_reported(e6, monkeypatch, capsys):
    monkeypatch.setattr(qsolver, "MAX_NEWTON_STEPS", 1)
    with pytest.raises(SolverDivergence, match="within 1 Newton steps"):
        solve_restricted(LevelContext(e6, 4))
    assert main(["solve", "--type", "E6", "--level", "4"]) == 1
    assert capsys.readouterr().err.startswith("error: no convergence within 1 Newton steps")
    assert main(["verify", "--type", "E6", "--level", "4", "--checks", "solve"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    solver = [c for c in checks if c["name"] == "solver_residual"]
    assert len(solver) == 1
    assert solver[0]["status"] == "fail" and solver[0]["proven"]
    assert solver[0]["note"].startswith("no convergence within 1 Newton steps")


def test_solver_float_overflow_is_named(capsys, e8):
    # E8 L250 solves; from about L560, past the CLI's MAX_LEVEL, the float
    # start's cells pass e^709.8, the float range, and the error names the
    # cell
    assert main(["solve", "--type", "E8", "--level", "250"]) == 0
    assert capsys.readouterr().out.startswith("converged, residual ")
    with pytest.raises(SolverDivergence,
                       match=r"^float overflow: cell \(node \d, k=\d+\) is e\^\d"):
        solve_restricted(LevelContext(e8, 600))


@pytest.mark.parametrize("step,message", [
    # a log step of 800 leaves every Q = e^y above the float range (e^709.8)
    (800.0, r"float overflow: cell \(node \d, k=\d\) is e\^800"),
    (math.inf, r"float overflow: log defect nan at cell \(node \d, k=\d\)"),
])
def test_warm_start_overflow_is_named(e6, monkeypatch, step, message):
    monkeypatch.setattr(qsolver, "_block_thomas",
                        lambda blocks, off, rhs: [[step] * len(b) for b in blocks])
    with pytest.raises(SolverDivergence, match=message):
        solve_restricted(LevelContext(e6, 4))


def _dense_solve(mp, a, b):
    """Gaussian elimination of the dense system a x = b in ``mp``, entry by
    entry with partial pivoting; zero entries are skipped, so a banded
    system costs little."""
    rows = [[mp.mpf(x) for x in row] + [mp.mpf(y)] for row, y in zip(a, b)]
    n = len(rows)
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(rows[r][c]))
        rows[c], rows[p] = rows[p], rows[c]
        piv = rows[c]
        for r in range(c + 1, n):
            f = rows[r][c] / piv[c]
            if f:
                rows[r] = [x - f * y if y else x for x, y in zip(rows[r], piv)]
    x = [mp.zero] * n
    for r in reversed(range(n)):
        x[r] = (rows[r][n] - mp.fsum(rows[r][j] * x[j] for j in range(r + 1, n))) / rows[r][r]
    return x


SEEDED_SYSTEMS = [(1, 1), (1, 12), (2, 7), (3, 2), (6, 12), (8, 1), (8, 12)]


def _seeded_system(rank, count):
    """A seeded diagonally dominant system of ``count`` block rows of rank
    ``rank``, as the blocks, off-diagonals and right-hand sides."""
    rng = random.Random(100 * rank + count)
    off = [[rng.uniform(-1, 1) for _ in range(rank)] for _ in range(count)]
    blocks = []
    for o in off:
        block = [[rng.uniform(-1, 1) for _ in range(rank)] for _ in range(rank)]
        for i, row in enumerate(block):
            row[i] = rng.choice((-1, 1)) * (sum(map(abs, row)) + 2 * abs(o[i]) + 0.5)
        blocks.append(block)
    rhs = [[rng.uniform(-10, 10) for _ in range(rank)] for _ in range(count)]
    return blocks, off, rhs


@pytest.mark.parametrize("rank,count", SEEDED_SYSTEMS)
def test_block_thomas_matches_dense_elimination(rank, count):
    # seeded diagonally dominant systems, against a dense 200-bit elimination
    blocks, off, rhs = _seeded_system(rank, count)
    xs = qsolver._block_thomas(blocks, off, rhs)

    n = rank * count
    dense = [[0.0] * n for _ in range(n)]
    for k, (block, o) in enumerate(zip(blocks, off)):
        for i in range(rank):
            r = k * rank + i
            dense[r][k * rank:(k + 1) * rank] = block[i]
            for kk in (k - 1, k + 1):
                if 0 <= kk < count:
                    dense[r][kk * rank + i] = o[i]
    mp = MPContext()
    mp.prec = 200
    ref = _dense_solve(mp, dense, [x for col in rhs for x in col])
    got = [x for col in xs for x in col]
    scale = max(abs(x) for x in ref)
    assert max(abs(g - r) for g, r in zip(got, ref)) <= 1e-12 * scale


@pytest.mark.parametrize("blocks,off", [
    # the last block solves for the right-hand side alone, the others for G too
    ([[[1.0, 2.0], [2.0, 4.0]]], [[0.5, 0.5]]),  # singular only block
    ([[[1.0]], [[1.0]]], [[1.0], [1.0]]),  # the second pivot 1 - 1 * 1 vanishes
    ([[[1.0, 2.0], [2.0, 4.0]], [[1.0, 0.0], [0.0, 1.0]]],
     [[0.5, 0.5], [0.5, 0.5]]),  # singular first of two blocks
])
def test_block_thomas_names_a_singular_pivot_block(blocks, off):
    with pytest.raises(SolverDivergence, match="singular Jacobian block"):
        qsolver._block_thomas(blocks, off, [[1.0] * len(b) for b in blocks])


def _solution_bits(solve, blocks, off, rhs):
    """The solution as the hex form of each float, so that equal means the
    same bits down to the sign of a zero; or the message of a singular
    block."""
    try:
        return [[x.hex() for x in col] for col in solve(blocks, off, rhs)]
    except SolverDivergence as exc:
        return str(exc)


def _random_system(rng):
    """Up to six block rows of rank 1 to 8.  A third of the entries are 0
    and a third small integers, so pivot columns hold ties and exact zeros,
    and blocks are diagonally dominant only by chance."""
    rank, count = rng.randint(1, 8), rng.randint(1, 6)

    def entry():
        u = rng.random()
        if u < 1 / 3:
            return 0.0
        return float(rng.choice((-2, -1, 1, 2))) if u < 2 / 3 else rng.uniform(-3, 3)

    blocks = [[[entry() for _ in range(rank)] for _ in range(rank)] for _ in range(count)]
    off = [[entry() for _ in range(rank)] for _ in range(count)]
    return blocks, off, [[entry() for _ in range(rank)] for _ in range(count)]


def test_block_thomas_is_bit_identical_to_the_oracle():
    # the elimination skips only float operations whose results nothing
    # reads, so it returns the oracle's floats and raises where it raises
    systems = [_seeded_system(rank, count) for rank, count in SEEDED_SYSTEMS]
    rng = random.Random(31)
    systems += [_random_system(rng) for _ in range(300)]
    singular = 0
    for blocks, off, rhs in systems:
        want = _solution_bits(oracles.block_thomas, blocks, off, rhs)
        assert _solution_bits(qsolver._block_thomas, blocks, off, rhs) == want, (blocks, off)
        singular += isinstance(want, str)
    assert 0 < singular < len(systems) // 2


@pytest.mark.parametrize("label,levels", [
    ("E6", range(1, 9)), ("E7", [*range(1, 9), 28]), ("E8", [*range(1, 9), 24])])
def test_solver_matches_the_oracle_elimination(rs_map, monkeypatch, label, levels):
    rs = rs_map[label]
    for level in levels:
        grid = solve_restricted(LevelContext(rs, level))
        with monkeypatch.context() as patched:
            patched.setattr(qsolver, "_block_thomas", oracles.block_thomas)
            want = solve_restricted(LevelContext(rs, level))
        assert (grid.rows, grid.residual_max) == (want.rows, want.residual_max), level


def test_solver_rejects_nonpositive_cells(a1, monkeypatch):
    # from Q_1 = -1, Newton on Q_1^2 = 2 moves to -3/2
    monkeypatch.setattr(qsolver, "_warm_start", lambda rs, level: [[1.0, -1.0, 1.0]])
    with pytest.raises(SolverDivergence, match="non-positive"):
        solve_restricted(LevelContext(a1, 2))


def test_type_data_rows_partition_nodes(rs_map):
    # every row is either a closed-form row or the target of exactly one route
    for label, rs in rs_map.items():
        td = TYPE_DATA[label]
        rows = list(td.direct_nodes) + [target for target, _ in td.derived_routes]
        assert sorted(rows) == list(range(1, rs.rank + 1)), label


def test_adjoint_row_is_direct():
    # grid_row_log_concave reads the adjoint row without looking for
    # unresolved cells: a direct row comes from chari_qdim, never None
    for label, td in TYPE_DATA.items():
        assert td.adjoint_node in td.direct_nodes, label


@pytest.mark.parametrize("label,levels", [("E6", (1, 4, 6)), ("E7", (1, 4)), ("E8", (2, 4))])
def test_theorem_report_passes(rs_map, label, levels):
    rs = rs_map[label]
    for level in levels:
        ctx = LevelContext(rs, level)
        failing = [c for c in theorem_report(ctx, build_qgrid(ctx)) if c.status != "pass"]
        assert not failing, [(c.name, c.node, c.status) for c in failing]


def test_theorem_report_labels(e7, e8):
    ctx = LevelContext(e7, 4)
    by = {(c.name, c.node): c for c in theorem_report(ctx, build_qgrid(ctx))}
    assert not by[("positivity", 4)].proven
    assert not by[("positivity", 5)].proven
    assert by[("positivity", 1)].proven
    assert by[("positivity_window", 4)].proven
    assert not by[("unimodality", 4)].proven
    assert by[("unimodality", 2)].proven
    ctx8 = LevelContext(e8, 2)
    by8 = {(c.name, c.node): c for c in theorem_report(ctx8, build_qgrid(ctx8))}
    assert not by8[("symmetry", 2)].proven
    assert by8[("symmetry", 3)].proven
    assert not by8[("positivity", 5)].proven
    assert by8[("positivity", 8)].proven


def test_dilog_a1_closed_form(a1):
    ctx = LevelContext(a1, 2)
    grid = solve_restricted(ctx)
    args = dilog_args(grid)
    half = ctx.mp.make_mpf(oracles.raw(args[(1, 1)]))
    assert abs(half - 0.5) < ctx.mp.mpf(10) ** -28
    assert oracles.raw(args[(1, 0)]) == fone and oracles.raw(args[(1, 2)]) == fone
    margin = ctx.mp.make_mpf(oracles.raw(dilog_args_margin(grid, args)))
    assert abs(margin - 0.5) < ctx.mp.mpf(10) ** -28
    total = ctx.mp.make_mpf(oracles.raw(dilog_sum(grid)))
    assert abs(total - 0.5) < ctx.mp.mpf(10) ** -25


def test_dilog_empty_interior(a1):
    ctx = LevelContext(a1, 1)
    grid = solve_restricted(ctx)
    assert dilog_args_margin(grid, dilog_args(grid)) is None
    assert oracles.raw(dilog_sum(grid)) == fzero


def test_dilog_rejects_nonpositive(a1):
    ctx = LevelContext(a1, 2)
    rows = [[oracles.triple(x, ctx.precision_bits) for x in (fone, from_float(-1.0), fone)]]
    grid = QGrid(a1, 2, 2, rows, ctx.precision_bits, [["solver"] * 3])
    with pytest.raises(ValueError):
        dilog_args(grid)


def test_dilog_rejects_a_grid_short_of_its_level(e6):
    # the arguments read every column k = 0..level: a grid out to k = 3 at
    # E6 L6 is refused, by the sum too, and the dilog check fails on it
    ctx = LevelContext(e6, 6)
    short = build_qgrid(ctx, k_max=3)
    for fn in (dilog_args, dilog_sum):
        with pytest.raises(ValueError, match="need the grid out to k = level"):
            fn(short)
    checks, in_range, total = qsolver.dilog_checks(ctx, short)
    assert [(c.name, c.status, c.note) for c in checks] == [
        ("dilog_args", "fail", "dilog arguments need the grid out to k = level")]
    assert (in_range, total) == (False, None)
    # out to k = level is enough, and gives the full grid's arguments
    assert dilog_args(build_qgrid(ctx, k_max=6)) == dilog_args(build_qgrid(ctx))


def test_dilog_sum_regression_e6_level2(e6):
    # self-fixture frozen from the first computation at 128 bits; the digits
    # agree with 36/7, the level-2 coset central charge 2*78/(2+12) - 6
    ctx = LevelContext(e6, 2)
    total = ctx.mp.make_mpf(oracles.raw(dilog_sum(build_qgrid(ctx))))
    frozen = ctx.mp.mpf("5.142857142857142857142857142857142857176")
    assert abs(total - frozen) < ctx.mp.mpf(10) ** -30
    assert abs(total - ctx.mp.mpf(36) / 7) < ctx.mp.mpf(10) ** -25


def _rogers_edge_arguments(mp):
    """The edge arguments at the context's precision, within (0, 1)."""
    prec = mp.prec
    ulp = mp.ldexp(1, -prec)  # spacing of [1/2, 1)
    # tiny arguments widen the working precision by -log2 y bits; on either
    # side of 1/2 the reflection switches on or off
    edges = [mp.ldexp(1, -300), mp.ldexp(1, -200), mp.mpf("1e-60"), mp.mpf("1e-30"),
             mp.mpf("1e-10"), mp.mpf(0.5),
             0.5 + ulp, 0.5 - ulp / 2,  # below 1/2 the spacing halves
             0.5 + mp.mpf("1e-20"), 0.5 - mp.mpf("1e-20"),
             0.75 + ulp, 0.75 - ulp, 1 - mp.mpf("1e-30"), 1 - ulp]
    # at 64 bits 1 - 1e-30 rounds to 1, which has no place in (0, 1)
    return [x for x in edges if 0 < x < 1]


def _rogers_reference(x, prec):
    """mpmath's Li2(x) + log x log(1 - x) / 2 at prec + 64 bits in its own
    context, rounded to prec."""
    hi = MPContext()
    hi.prec = prec + 64
    lo = MPContext()
    lo.prec = prec
    x = hi.mpf(x)
    return lo.mpf(hi.polylog(2, x) + hi.log(x) * hi.log1p(-x) / 2)


@pytest.mark.parametrize("global_prec", [None, 20])
def test_rogers_rounds_correctly(global_prec):
    # at wp = prec + 40 + max(0, -log2 y) bits, y = min(x, 1 - x), the fixed
    # point L(x) rounds to the bits of mpmath's; _rogers reads no global
    # mpmath state, so a low mpmath.mp precision changes nothing
    rng = random.Random(20260809)
    with mpmath.workprec(global_prec or mpmath.mp.prec):
        for prec in (64, 128, 256, 512):
            mp = MPContext()
            mp.prec = prec
            seeded = [mp.ldexp(rng.getrandbits(prec) | 1, -prec) for _ in range(24)]
            for x in seeded + _rogers_edge_arguments(mp):
                _, _, exp, bc = min(x, 1 - x)._mpf_  # 1 - x is exact for x >= 1/2
                wp = prec + 40 + max(0, -(exp + bc))
                got = from_man_exp(qsolver._rogers(x._mpf_, wp), -wp, prec, round_nearest)
                assert got == _rogers_reference(x, prec)._mpf_, (prec, mp.nstr(x, 20))
            assert len(_rogers_edge_arguments(mp)) == (13 if prec == 64 else 14)


@pytest.mark.parametrize("prec", [64, 128, 256, 512])
def test_li2_coefficients_end_at_the_first_zero(prec):
    # each entry is B_2m / (2m+1)! rounded to nearest at wp bits, the table
    # stops where the next entry rounds to 0, and at y = 1/2, where u is
    # largest (log 2 < 0.6932), the terms it leaves out sum to less than one
    # unit at wp bits: the series has converged
    def coefficient(m):
        return Fraction(*mpmath.bernfrac(2 * m)) / math.factorial(2 * m + 1)

    for wp in (prec + 40, prec + 340):  # an argument near 2^-300 adds 300 bits
        table = qsolver._li2_coefficients(wp)
        n = len(table)
        assert list(table) == [round(coefficient(m) * 2 ** wp) for m in range(1, n + 1)]
        assert table[-1] != 0 and round(coefficient(n + 1) * 2 ** wp) == 0
        u = Fraction(6932, 10000)
        tail = sum(abs(coefficient(m)) * u ** (2 * m + 1) for m in range(n + 1, n + 40))
        assert tail * 2 ** wp < 1
    if prec == 128:
        assert len(qsolver._li2_coefficients(prec + 40)) == 30


def _reference_dilog_sum(args, level, bits):
    """(6/pi^2) sum of mpmath's Li2(x) + log x log(1 - x) / 2 over the raw
    interior ``args`` at ``bits`` bits."""
    hi = MPContext()
    hi.prec = bits
    total = hi.mpf(0)
    for (_, k), x in args.items():
        if 0 < k < level:
            x = hi.make_mpf(oracles.raw(x))
            total += hi.polylog(2, x) + hi.log(x) * hi.log1p(-x) / 2
    return 6 / hi.pi ** 2 * total


def _assert_rounded_once(total, args, level, prec):
    """``total`` lies within 2^(1 - prec) |ref| of the (prec + 256)-bit sum
    of the same arguments: the one rounding and the terms' guard bits."""
    ref = _reference_dilog_sum(args, level, prec + 256)
    hi = ref.context
    assert abs(hi.make_mpf(oracles.raw(total)) - ref) <= hi.ldexp(abs(ref), 1 - prec), hi.nstr(
        ref, 40)


_KIRILLOV_CONFIGS = [("E6", level) for level in range(1, 13)] + [
    ("E7", level) for level in range(1, 13)] + [("E8", level) for level in range(1, 9)]


@pytest.mark.parametrize("label,level", _KIRILLOV_CONFIGS)
def test_dilog_sum_matches_kirillov_identity(rs_map, label, level):
    # L dim g / (L + h) - rank, the level-L coset central charge, to a
    # relative defect of 1e-33; the grid, not the sum, limits it (3.9e-36)
    dim, h = {"E6": (78, 12), "E7": (133, 18), "E8": (248, 30)}[label]
    rs = rs_map[label]
    ctx = LevelContext(rs, level)
    total = ctx.mp.make_mpf(oracles.raw(dilog_sum(build_qgrid(ctx))))
    expected = ctx.mp.mpf(level * dim) / (level + h) - rs.rank
    assert abs(total - expected) <= 1e-33 * abs(expected)


@pytest.mark.parametrize("label,level,bits", [
    *[pytest.param(label, level, 128, id=f"{label}-{level}")
      for label, level in _KIRILLOV_CONFIGS],
    pytest.param("E6", 4, 64, id="E6-4-64bits"),
    pytest.param("E7", 6, 64, id="E7-6-64bits"),
    pytest.param("E7", 12, 256, id="E7-12-256bits"),
    pytest.param("E8", 8, 256, id="E8-8-256bits"),
])
def test_dilog_sum_matches_polylog_formula(rs_map, label, level, bits):
    # one rounding of a sum with guard bits stays within 2^(1-p) |sum| of the
    # exact sum of its arguments, here E6 L4 and L6 too, which sum to the
    # dyadic 13.5 and 20; a rounding per term broke that at E6 L9-11, E7 L12
    # and E8 L5
    ctx = LevelContext(rs_map[label], level, precision_bits=bits)
    grid = build_qgrid(ctx)
    args = dilog_args(grid)
    total = dilog_sum(grid, args)
    _assert_rounded_once(total, args, level, bits)
    assert dilog_sum(grid) == total


def _term_by_term_dilog_sum(grid, args):
    """``dilog_sum`` with one ``_rogers`` call per interior cell, in key
    order, the sum before its terms were grouped by argument."""
    prec = grid.precision_bits
    xs = [args[key] for key in sorted(args) if 0 < key[1] < grid.level]
    wp = prec + 40
    while True:
        total = sum(qsolver._rogers(x, wp) for x in xs)
        short = prec + 32 - total.bit_length()
        if not xs or short <= 0:
            total *= qsolver._pi_constants(wp)[1]
            return qnum.round_triple(int(total < 0), abs(total), -2 * wp, prec)
        wp += short


@pytest.mark.parametrize("label,level,bits", [
    ("E6", 30, 128), ("E7", 28, 128), ("E8", 16, 128), ("E7", 12, 64), ("E8", 8, 256)])
def test_dilog_sum_is_the_term_by_term_integer_sum(rs_map, monkeypatch, label, level, bits):
    # one Rogers term per distinct argument, times its count, gives the
    # bits of the sum of every cell's term, and repeated arguments occur
    grid = build_qgrid(LevelContext(rs_map[label], level, bits))
    args = dilog_args(grid)
    want = _term_by_term_dilog_sum(grid, args)
    interior = [x for (_, k), x in args.items() if 0 < k < level]
    calls = []
    real_rogers = qsolver._rogers

    def counted(x, wp):
        calls.append(x)
        return real_rogers(x, wp)

    monkeypatch.setattr(qsolver, "_rogers", counted)
    assert dilog_sum(grid, args) == want
    assert sorted(calls) == sorted(set(interior)) and len(calls) < len(interior)


def test_dilog_sum_keeps_the_relative_precision_of_a_small_sum(a1):
    # a sum below 2^-8 widens the fixed point by the bits it lacks, so tiny
    # arguments keep their relative precision; an argument is read as
    # (sign, mantissa, exponent) of any width, so 1 - small stays exact
    ctx = LevelContext(a1, 3)
    grid = QGrid(a1, 3, 3, [[oracles.triple(fone, ctx.precision_bits)] * 4], ctx.precision_bits,
                 [["boundary"] * 4])
    for small in (from_man_exp(3, -300), from_man_exp(1, -60), from_float(1e-5)):
        for args in ({(1, 1): small, (1, 2): small},
                     {(1, 1): small, (1, 2): mpf_sub(fone, small)}):
            total = dilog_sum(grid, {key: x[:3] for key, x in args.items()})
            _assert_rounded_once(total, args, 3, ctx.mp.prec)


def _bits(value):
    """An oracle's mpf number as its raw tuple; None stays None."""
    return None if value is None else value._mpf_


def _check_bits(checks, oracle=False):
    """Each check's fields and raw violation: qslab's checks carry p-bit
    triples, an ``oracle``'s carry mpf numbers."""
    return [(c.name, c.node, c.status, c.note,
             _bits(c.max_violation) if oracle else oracles.raw(c.max_violation))
            for c in checks]


@pytest.mark.parametrize("label,level,bits,solved", [
    # the KR grids of every verify-matrix and level-sweep configuration
    *[pytest.param(label, level, 128, False, id=f"{label}-{level}") for label, level in (
        ("E6", 2), ("E6", 4), ("E7", 2), ("E8", 2),
        ("E6", 6), ("E6", 30), ("E7", 1), ("E7", 4), ("E7", 11), ("E7", 12), ("E7", 28),
        ("E8", 4), ("E8", 16),
    )],
    pytest.param("E7", 6, 64, False, id="E7-6-64bits"),
    pytest.param("E7", 6, 256, False, id="E7-6-256bits"),
    pytest.param("E6", 8, 256, True, id="E6-8-256bits-solved"),
    pytest.param("E8", 24, 256, True, id="E8-24-256bits-solved"),
    pytest.param("A1", 3, 128, True, id="A1-3-solved"),  # a node with no neighbours
])
def test_grid_consumers_match_the_mpf_formulas(rs_map, a1, label, level, bits, solved):
    # the consumers of a grid compute on raw tuples the bits that the mpf
    # operators give: every defect and dilogarithm argument, the residual,
    # the margin and every theorem check's verdict and violation; the
    # fixed-point dilogarithm sum is held to its rounding bound instead
    rs = a1 if label == "A1" else rs_map[label]
    ctx = LevelContext(rs, level, precision_bits=bits)
    grid = solve_restricted(ctx) if solved else build_qgrid(ctx)
    neighbors = qsolver._neighbor_rows(rs)
    cells = (grid.rows, bits)
    values = oracles.mpf_table(ctx.mp, grid.rows)
    for i in range(rs.rank):
        for k in range(1, grid.k_max):
            want = oracles.defect(values, neighbors, i, k)
            want = None if want is None else tuple(v._mpf_ for v in want)
            got = qsolver._defect(cells, neighbors, i, k)
            assert (None if got is None else tuple(map(oracles.raw, got))) == want, (i + 1, k)
    assert oracles.raw(residual(grid)) == oracles.residual(grid)._mpf_
    if not solved:
        assert _check_bits(theorem_report(ctx, grid)) == _check_bits(
            oracles.theorem_report(ctx, grid), oracle=True)
    args, want = dilog_args(grid), oracles.dilog_args(grid)
    assert {key: oracles.raw(x) for key, x in args.items()} == {
        key: x._mpf_ for key, x in want.items()}
    assert oracles.raw(dilog_args_margin(grid, args)) == _bits(
        oracles.dilog_args_margin(want, level))
    if label == "A1":
        _assert_rounded_once(dilog_sum(grid, args), args, level, bits)
        return
    # the check groups decide on raw values what the mpf formulas decide
    for name, oracle in (("grid", oracles.grid_checks), ("solve", oracles.solve_checks)):
        assert _check_bits(report.CHECK_GROUPS[name][1](None, ctx, grid)) == _check_bits(
            oracle(ctx, grid), oracle=True), name
    # the fixed-point sum and the oracle's mpf chain round to one 12-digit
    # value, which render_note writes alike whether it is exact (13.5 at E6
    # L4) or not: the sum notes are equal strings
    got, expected = (SimpleNamespace(dilog_in_range=None, dilog_sum=None) for _ in range(2))
    assert _check_bits(report.CHECK_GROUPS["dilog"][1](got, ctx, grid)) == (
        _check_bits(oracles.dilog_checks(expected, ctx, grid), oracle=True))
    assert got.dilog_in_range is expected.dilog_in_range is True
    _assert_rounded_once(got.dilog_sum, args, level, bits)


def test_decision_kernel_edges():
    # a deviation equal to its bound passes and the next float fails; a least
    # value equal to its margin fails; a None reads as an infinite deviation
    def t(x):  # the 128-bit triple of a float
        return oracles.triple(from_float(x), 128)

    bound = qsolver.REL_GAP_TOL
    assert qsolver._at_most([t(0.0), t(bound)], bound, 128) == (True, t(bound))
    above = t(math.nextafter(bound, 1))
    assert qsolver._at_most([above], bound, 128) == (False, above)
    assert qsolver._at_most([], bound, 128) == (True, t(0.0))
    margin = qsolver.POSITIVITY_MARGIN
    assert qsolver._above(t(margin), margin, 128) == (False, t(0.0))
    ok, violation = qsolver._above(t(margin / 2), margin, 128)
    assert not ok and violation == t(margin / 2)
    assert qsolver._above(t(2 * margin), margin, 128) == (True, t(0.0))
    assert qsolver._at_most([t(0.0), None, above], bound, 128) == (False, finf)
    assert qsolver._above(None, margin, 128) == (False, finf)
    assert qsolver._rel_gap(None, t(1.0), 128) is None


def test_positivity_window_entries_only_at_window_nodes(e7, e8):
    # E8 has no positivity-window nodes: an entry there would be a proven
    # pass over no cells
    for rs in (e7, e8):
        ctx = LevelContext(rs, 4)
        nodes = [c.node for c in theorem_report(ctx, build_qgrid(ctx))
                 if c.name == "positivity_window"]
        assert nodes == list(TYPE_DATA[rs.type_label].positivity_window_nodes), rs.type_label


# Each check bound set so that every check reading it must fail: a tolerance
# below every deviation, a margin above every value (1e300, above every cell
# and ratio of E7 L6, and finite, as every margin is).  At E7 L6 every check
# passes with the bounds as they are, and the Kleber tables and the
# positivity-window nodes 4 and 5 give each kind of check an entry.
@pytest.mark.parametrize("bound,value,failing", [
    (None, None, set()),
    ("ZERO_WINDOW_TOL", -1.0, {"zero_window"}),
    ("FULL_GRID_RESIDUAL_TOL", -1.0, {"grid_residual"}),
    ("REL_GAP_TOL", -1.0, {"symmetry", "boundary_one", "periodicity", "shifted_boundary_sign",
                           "kleber_cross_check", "two_path_agreement"}),
    ("POSITIVITY_MARGIN", 1e300, {"positivity", "positivity_window", "unimodality"}),
    ("DILOG_MARGIN", 1e300, {"dilog_args"}),
])
def test_each_bound_governs_one_kind_of_check(monkeypatch, bound, value, failing):
    if bound is not None:
        monkeypatch.setattr(qsolver, bound, value)
    checks = run(RunConfig("E7", 6)).checks
    assert {c.name for c in checks if c.status != "pass"} == failing


def test_theorem_labels_come_from_the_table_by_name(e7, monkeypatch):
    # every property gets its own node set; periodicity and
    # shifted_boundary_sign split the closed-form rows 1, 2 and 7, and
    # positivity_window the window nodes 4 and 5
    proven = {"zero_window": {1, 2}, "symmetry": {2, 3}, "positivity": {3, 6},
              "unimodality": {4, 5}, "periodicity": {1, 5}, "boundary_one": {6, 7},
              "positivity_window": {4}, "shifted_boundary_sign": {2}}
    monkeypatch.setitem(TYPE_DATA, "E7", TYPE_DATA["E7"]._replace(proven_nodes=proven))
    ctx = LevelContext(e7, 6)
    checks = theorem_report(ctx, build_qgrid(ctx))
    by_name = {}
    for c in checks:
        by_name.setdefault(c.name, set()).add(c.proven)
        assert c.proven == (c.node in proven[c.name]), (c.name, c.node)
    assert set(by_name) == set(proven)
    assert all(by_name[name] == {True, False} for name in proven), by_name


def test_grid_consumers_call_no_mpf_operator(e7, monkeypatch):
    # the residual and the grid, solve, theorem and dilog groups run on p-bit
    # triples throughout: not one arithmetic or comparison operator of an mpf
    # runs inside them
    ctx = LevelContext(e7, 12)
    grid = build_qgrid(ctx)
    calls = []

    def counted(name, original):
        def operator(*args):
            calls.append(name)
            return original(*args)
        return operator

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__pow__", "__rpow__", "__neg__", "__pos__",
                 "__abs__", "__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__",
                 "__bool__"):
        monkeypatch.setattr(_mpf, name, counted(name, getattr(_mpf, name)))
    assert ctx.mp.mpf(1) + 1 > 1 and calls == ["__add__", "__gt__"]  # the counters count
    calls.clear()
    residual(grid)
    args = dilog_args(grid)
    dilog_args_margin(grid, args)
    dilog_sum(grid, args)
    assert calls == []
    verification = report.VerificationReport(report.RunConfig("E7", 12), ctx.shifted_level, [])
    for name in ("grid", "solve", "theorem", "dilog"):
        checks = report.CHECK_GROUPS[name][1](verification, ctx, grid)
        assert checks and calls == [], name


@pytest.mark.parametrize("label,level", [("E7", 12), ("E8", 8)])
def test_grid_consumers_run_without_libmp_arithmetic(rs_map, monkeypatch, label, level):
    # from the grid to the report the numbers are p-bit triples: with
    # libmp's mpf_add, mpf_sub, mpf_mul, mpf_div and mpf_cmp raising in
    # qsolver and report, the grid, the solver, the theorem checks, the
    # dilogarithm arguments and the grid, solve and dilog groups still run,
    # to the results they give without the patch
    def run_all():
        ctx = LevelContext(rs_map[label], level)
        grid, solved = build_qgrid(ctx), solve_restricted(ctx)
        verification = report.VerificationReport(
            report.RunConfig(label, level), ctx.shifted_level, [])
        groups = [report.CHECK_GROUPS[name][1](verification, ctx, grid)
                  for name in ("grid", "solve", "dilog")]
        return (grid, solved, theorem_report(ctx, grid), dilog_args(grid), groups,
                verification.dilog_sum)

    expected = run_all()

    def no_libmp(*args, **kwargs):
        raise AssertionError("a grid consumer called libmp arithmetic")

    for module in (qsolver, report):
        for name in ("mpf_add", "mpf_sub", "mpf_mul", "mpf_div", "mpf_cmp"):
            monkeypatch.setattr(module, name, no_libmp, raising=False)
    assert run_all() == expected


def test_solver_output_symmetric_and_unimodal(e7):
    # the converged positive solution is symmetric and strictly increasing to
    # the middle on its own, with no reference to the KR route
    for level in (4, 5, 6):
        ctx = LevelContext(e7, level)
        grid = solve_restricted(ctx)
        for i in range(1, 8):
            for k in range(level + 1):
                a = grid.cell(i, k)
                b = grid.cell(i, level - k)
                assert abs(a - b) <= 1e-25 * max(1, abs(a)), (level, i, k)
            for k in range(level // 2):
                assert grid.cell(i, k + 1) > grid.cell(i, k)


def test_full_grid_residual_at_level_eight(e6, e7):
    for rs in (e6, e7):
        ctx = LevelContext(rs, 8)
        grid = build_qgrid(ctx)
        assert not grid.unresolved
        assert ctx.mp.make_mpf(oracles.raw(grid.residual_max)) <= 1e-20


def test_route_walk_forms_no_numerator_over_an_exact_zero_divisor(rs_map, monkeypatch):
    # over the level-sweep grids, a division route whose divisor is exactly
    # 0 is skipped before its numerator mid*mid - lo*hi is formed, and each
    # nonzero divisor's numerator goes straight to its guard.  The grids are
    # those of the walk that formed every numerator first: the SHA-256 of
    # their rows, scales, provenance and unresolved cells was taken from it.
    events = []  # ("bool", truth of a divisor), ("sub",), ("guard", mantissa)
    real_bool, real_sub, real_guard = QReal.__bool__, QReal.__sub__, QReal.is_clear_of_zero

    def counted_bool(self):
        events.append(("bool", real_bool(self)))
        return events[-1][1]

    def counted_sub(self, other):
        events.append(("sub",))
        return real_sub(self, other)

    def counted_guard(self, bits):
        events.append(("guard", self._v[1]))
        return real_guard(self, bits)

    monkeypatch.setattr(QReal, "__bool__", counted_bool)
    monkeypatch.setattr(QReal, "__sub__", counted_sub)
    monkeypatch.setattr(QReal, "is_clear_of_zero", counted_guard)
    digest = hashlib.sha256()
    for label, level in (("E6", 6), ("E6", 30), ("E7", 1), ("E7", 4), ("E7", 11), ("E7", 12),
                         ("E7", 28), ("E8", 4), ("E8", 16)):
        grid = build_qgrid(LevelContext(rs_map[label], level))
        digest.update(repr((grid.rows, grid.scales, grid.provenance, grid.unresolved)).encode())
    monkeypatch.undo()
    truths = [e[1] for e in events if e[0] == "bool"]
    assert (len(truths), truths.count(False)) == (563, 402)
    follows = [(a[1], b[0], c[0]) for a, b, c in zip(events, events[1:], events[2:])
               if a[0] == "bool"]
    assert all((b, c) == ("sub", "guard") for truth, b, c in follows if truth)
    assert not any((b, c) == ("sub", "guard") for truth, b, c in follows if not truth)
    guards = [e[1] for e in events if e[0] == "guard"]
    assert len(guards) == truths.count(True) and all(guards)
    assert digest.hexdigest() == "7674acab856b982f7f105bd7757ae6984b4382c81f39fd4b7d1b96d75fc56aa0"
