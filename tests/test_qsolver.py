from __future__ import annotations

import json

import pytest

import qslab
from qslab import krchar, qnum, qsolver
from qslab.cli import main
from qslab.krchar import chari_decomposition, kleber_q1, qdim_kr
from qslab.qnum import LevelContext, QReal, qdim
from qslab.qsolver import (
    SYMMETRY_TOL,
    TWO_PATH_REL_TOL,
    SolverDivergence,
    build_qgrid,
    dilog_args,
    dilog_args_margin,
    dilog_sum,
    grid_from_values,
    residual,
    solve_restricted,
    theorem_report,
)
from qslab.report import RunConfig, run
from qslab.rootsys import TYPE_DATA, a_series_cartan, build_root_system


def rel_diff(mp, a, b):
    return abs(a - b) / max(abs(a), abs(b), mp.mpf(1))


def test_boundary_and_direct_rows(e6):
    ctx = LevelContext(e6, 2)
    grid = build_qgrid(ctx)
    for i in range(1, 7):
        assert grid.cell(i, 0).value == 1
        assert grid.provenance[i - 1][0] == "boundary"
    for i in TYPE_DATA["E6"].direct_nodes:
        v = qdim_kr(chari_decomposition(e6, i, 2), ctx)
        assert grid.cell(i, 2).value == v.value
        assert grid.provenance[i - 1][2] == "direct"
    for i in (3, 4, 5):
        assert grid.provenance[i - 1][1] == "subtraction"


def test_e6_node4_subtraction_relation(e6):
    ctx = LevelContext(e6, 2)
    grid = build_qgrid(ctx)
    q2 = [grid.cell(2, k).value for k in range(4)]
    expected = q2[1] * q2[1] - q2[0] * q2[2]
    assert grid.cell(4, 1).value == expected


def test_level_one_grid_is_all_ones(rs_map):
    for rs in rs_map.values():
        ctx = LevelContext(rs, 1)
        grid = build_qgrid(ctx)
        for i in range(1, rs.rank + 1):
            for k in (0, 1):
                assert abs(grid.cell(i, k).value - 1) < ctx.mp.mpf(10) ** -30


def test_zero_hypothesis_cells_appear_and_validate(e8):
    ctx = LevelContext(e8, 2)
    grid = build_qgrid(ctx)
    tags = {t for row in grid.provenance for t in row}
    assert "zero_hypothesis" in tags and "division" in tags
    assert not grid.unresolved
    assert grid.residual_max <= 1e-20


def test_kleber_against_division_route(e7):
    for level in (3, 4, 5, 6):
        ctx = LevelContext(e7, level)
        grid = build_qgrid(ctx)
        for node in (4, 5):
            direct = qdim_kr(kleber_q1(e7, node), ctx)
            cell = grid.cell(node, 1)
            assert rel_diff(ctx.mp, direct.value, cell.value) < 1e-22, (level, node)


def test_grid_kmax_guards(e6):
    ctx = LevelContext(e6, 2)
    with pytest.raises(ValueError):
        build_qgrid(ctx, k_max=1)
    with pytest.raises(ValueError):
        build_qgrid(ctx, k_max=4 * ctx.shifted_level + 1)


def test_custom_type_rejected_by_grid(a1):
    ctx = LevelContext(a1, 2)
    with pytest.raises(ValueError):
        build_qgrid(ctx)


def test_residual_sanity_all_ones_chain():
    # on the 2-node chain the constant grid misses the neighbour product by 1
    a2 = build_root_system(a_series_cartan(2))
    ctx = LevelContext(a2, 2)
    one = ctx.one()
    rows = [[one, one, one], [one, one, one]]
    grid = grid_from_values(a2, 2, ctx.shifted_level, rows)
    assert grid.residual_max == 1


def test_solver_a1_square_root_of_two(a1):
    ctx = LevelContext(a1, 2)
    grid = solve_restricted(ctx)
    assert abs(grid.cell(1, 1).value - ctx.mp.sqrt(2)) < ctx.mp.mpf(10) ** -29
    assert grid.cell(1, 0).value == 1 and grid.cell(1, 2).value == 1


def test_solver_level_one_trivial(e7):
    ctx = LevelContext(e7, 1)
    grid = solve_restricted(ctx)
    assert all(grid.cell(i, k).value == 1 for i in range(1, 8) for k in (0, 1))


def test_solver_positive_and_converged(e6):
    ctx = LevelContext(e6, 5)
    grid = solve_restricted(ctx)
    assert grid.residual_max <= 1e-30
    for i in range(1, 7):
        for k in range(6):
            assert grid.cell(i, k).value > 0


def test_two_path_agreement_e6(e6):
    ctx = LevelContext(e6, 4)
    built = build_qgrid(ctx)
    solved = solve_restricted(ctx)
    for i in range(1, 7):
        for k in range(5):
            d = rel_diff(ctx.mp, built.cell(i, k).value, solved.cell(i, k).value)
            assert d < 1e-25, (i, k)


def test_solver_settings_validation(e6):
    ctx = LevelContext(e6, 3, precision_bits=64)
    with pytest.raises(ValueError):
        solve_restricted(ctx, tolerance=1e-30)
    # a tolerance <= 0 is below every working precision
    for tolerance in (0, -1):
        with pytest.raises(ValueError):
            solve_restricted(LevelContext(e6, 3), tolerance=tolerance)
    with pytest.raises(ValueError):
        run(RunConfig(type_label="E6", level=2, solver_tolerance=0, checks=("solve",)))


@pytest.mark.parametrize("label,level", [("E7", 10), ("E8", 8)])
def test_solver_deep_levels(rs_map, label, level):
    rs = rs_map[label]
    ctx = LevelContext(rs, level)
    solved = solve_restricted(ctx)
    built = build_qgrid(ctx)
    assert solved.residual_max <= 1e-30
    for i in range(1, rs.rank + 1):
        for k in range(level + 1):
            a = solved.cell(i, k).value
            assert a > 0, (i, k)
            d = rel_diff(ctx.mp, a, built.cell(i, k).value)
            assert d <= TWO_PATH_REL_TOL, (i, k, float(d))
            mirror = solved.cell(i, level - k).value
            assert rel_diff(ctx.mp, a, mirror) <= SYMMETRY_TOL, (i, k)


def test_solver_never_reads_the_grid(e7, monkeypatch):
    # the two solution paths stay independent: no KR value seeds the solver
    def forbidden(*args, **kwargs):
        raise AssertionError("the solver read a KR quantum dimension")

    for module in (qnum, krchar, qsolver):
        for name in ("qdim", "qdim_kr", "chari_decomposition", "build_qgrid"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    grid = solve_restricted(LevelContext(e7, 6))
    assert grid.residual_max <= 1e-30


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


@pytest.mark.parametrize("label,levels", [("E6", (1, 4, 6)), ("E7", (1, 4)), ("E8", (2, 4))])
def test_theorem_report_passes(rs_map, label, levels):
    rs = rs_map[label]
    for level in levels:
        ctx = LevelContext(rs, level)
        failing = [c for c in theorem_report(ctx) if c.status != "pass"]
        assert not failing, [(c.name, c.node, c.status) for c in failing]


def test_theorem_report_labels(e7, e8):
    ctx = LevelContext(e7, 4)
    by = {(c.name, c.node): c for c in theorem_report(ctx)}
    assert not by[("positivity", 4)].proven
    assert not by[("positivity", 5)].proven
    assert by[("positivity", 1)].proven
    assert by[("positivity_window", 4)].proven
    assert not by[("unimodality", 4)].proven
    assert by[("unimodality", 2)].proven
    ctx8 = LevelContext(e8, 2)
    by8 = {(c.name, c.node): c for c in theorem_report(ctx8)}
    assert not by8[("symmetry", 2)].proven
    assert by8[("symmetry", 3)].proven
    assert not by8[("positivity", 5)].proven
    assert by8[("positivity", 8)].proven


def test_dilog_a1_closed_form(a1):
    ctx = LevelContext(a1, 2)
    grid = solve_restricted(ctx)
    args = dilog_args(grid)
    half = args[(1, 1)].value
    assert abs(half - 0.5) < ctx.mp.mpf(10) ** -28
    assert args[(1, 0)].value == 1 and args[(1, 2)].value == 1
    margin = dilog_args_margin(args, 2)
    assert abs(margin - 0.5) < ctx.mp.mpf(10) ** -28
    total = dilog_sum(grid, ctx)
    assert abs(total - 0.5) < ctx.mp.mpf(10) ** -25


def test_dilog_empty_interior(a1):
    ctx = LevelContext(a1, 1)
    grid = solve_restricted(ctx)
    assert dilog_args_margin(dilog_args(grid), 1) is None
    assert dilog_sum(grid, ctx) == 0


def test_dilog_rejects_nonpositive(a1):
    ctx = LevelContext(a1, 2)
    one = ctx.one()
    rows = [[one, QReal(ctx.mp.mpf(-1), ctx.mp.mpf(1)), one]]
    grid = grid_from_values(a1, 2, ctx.shifted_level, rows)
    with pytest.raises(ValueError):
        dilog_args(grid)


def test_dilog_sum_regression_e6_level2(e6):
    # self-fixture frozen from the first computation at 128 bits; the digits
    # agree with 36/7, the level-2 coset central charge 2*78/(2+12) - 6
    ctx = LevelContext(e6, 2)
    total = dilog_sum(build_qgrid(ctx), ctx)
    frozen = ctx.mp.mpf("5.142857142857142857142857142857142857176")
    assert abs(total - frozen) < ctx.mp.mpf(10) ** -30
    assert abs(total - ctx.mp.mpf(36) / 7) < ctx.mp.mpf(10) ** -25


def test_solver_output_symmetric_and_unimodal(e7):
    # the converged positive solution is symmetric and strictly increasing to
    # the middle on its own, with no reference to the KR route
    for level in (4, 5, 6):
        ctx = LevelContext(e7, level)
        grid = solve_restricted(ctx)
        for i in range(1, 8):
            for k in range(level + 1):
                a = grid.cell(i, k).value
                b = grid.cell(i, level - k).value
                assert abs(a - b) <= 1e-25 * max(1, abs(a)), (level, i, k)
            for k in range(level // 2):
                assert grid.cell(i, k + 1).value > grid.cell(i, k).value


def test_full_grid_residual_at_level_eight(e6, e7):
    for rs in (e6, e7):
        ctx = LevelContext(rs, 8)
        grid = build_qgrid(ctx)
        assert not grid.unresolved
        assert grid.residual_max <= 1e-20
