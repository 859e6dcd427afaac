from __future__ import annotations

import json
import os

import pytest

import qslab
from qslab.cli import main
from qslab.report import (
    RunConfig,
    fixture_check,
    render_decimal,
    report_to_dict,
    run,
    write_report,
)


def test_render_decimal_deterministic():
    import mpmath
    from mpmath.ctx_mp import MPContext

    c = MPContext()
    c.prec = 128
    assert render_decimal(c.mpf(1)) == "1"
    assert render_decimal(c.mpf(1) / 3).startswith("0.3333333333333333333333333333")
    assert render_decimal(c.mpf("-2.5")) == "-2.5"
    assert render_decimal(0) == "0"
    assert render_decimal(None) == "unresolved"
    third = render_decimal(c.mpf(1) / 3)
    assert len(third.replace("0.", "")) == 30
    assert render_decimal(c.mpf(10) ** -40).startswith("1.0000")


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(type_label="E6", level=0)
    with pytest.raises(ValueError):
        RunConfig(type_label="E6", level=2, checks=())
    with pytest.raises(ValueError):
        RunConfig(type_label="E6", level=2, checks=("bogus",))
    with pytest.raises(ValueError):
        RunConfig(type_label="E6", level=2, fmt="yaml")


def test_fixture_check_detects_corruption(e7, tmp_path):
    from qslab.report import load_appendix_map, load_fixture_rows

    rows = load_fixture_rows("E7")
    amap = load_appendix_map("E7")
    with open(tmp_path / "e7_positive_roots.txt", "w") as f:
        for no, height, coeffs in rows:
            if no == 42:
                coeffs = tuple([9] + list(coeffs[1:]))
            f.write(f"{no} {height} " + " ".join(map(str, coeffs)) + "\n")
    with open(tmp_path / "e7_appendix_order.txt", "w") as f:
        for no, idx in sorted(amap.items()):
            f.write(f"{no} {idx}\n")
    result = fixture_check(e7, fixture_dir=str(tmp_path))
    assert result.status == "fail"
    assert "row 42" in result.note


def test_fixture_check_missing_file(e7, tmp_path):
    with pytest.raises(FileNotFoundError):
        fixture_check(e7, fixture_dir=str(tmp_path))


def test_run_e6_level4_full(tmp_path):
    cfg = RunConfig(type_label="E6", level=4)
    rep = run(cfg)
    assert rep.overall == "pass"
    assert rep.exit_code == 0
    assert rep.dilog_in_range is True
    data = report_to_dict(rep)
    assert data["type"] == "E6" and data["level"] == 4 and data["l"] == 16
    assert data["precision_bits"] == 128
    assert data["overall"] == "pass"
    names = {c["name"] for c in data["checks"]}
    assert {"fixture_match", "sign_identity", "grid_residual", "solver_residual",
            "two_path_agreement", "zero_window", "symmetry", "positivity",
            "unimodality", "periodicity", "dilog_args"} <= names
    assert all(c["status"] in ("pass", "fail", "conjecture-violated")
               for c in data["checks"])
    # cells cover every node out to k = l with decimal-string values
    assert len(data["cells"]) == 6 * 17
    assert all(isinstance(c["value"], str) for c in data["cells"])
    path = tmp_path / "r.json"
    cfg2 = RunConfig(type_label="E6", level=2, checks=("grid", "theorem"))
    content = write_report(run(cfg2), str(path))
    assert json.loads(path.read_text()) == json.loads(content)


def test_run_check_subsets():
    rep = run(RunConfig(type_label="E7", level=2, checks=("roots",)))
    assert rep.overall == "pass"
    assert rep.grid is None
    rep = run(RunConfig(type_label="E8", level=1, checks=("grid", "solve")))
    assert rep.overall == "pass"


def test_cli_roots_fixture_format(capsys):
    assert main(["roots", "--type", "E7"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 63
    assert lines[0].split()[:2] == ["1", "1"]


def test_cli_roots_json(capsys):
    assert main(["roots", "--type", "E6", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 36 and data["coxeter_number"] == 12


def test_cli_qdim(capsys):
    assert main(["qdim", "--type", "E6", "--level", "4",
                 "--weight", "1,0,0,0,0,0"]) == 0
    value = capsys.readouterr().out.strip()
    assert value.startswith("5.027")
    assert main(["qdim", "--type", "E6", "--level", "4",
                 "--weight", "1,0,0,0,0,0", "--classical"]) == 0
    assert capsys.readouterr().out.strip() == "27"


def test_cli_qdim_digits(capsys):
    assert main(["qdim", "--type", "E6", "--level", "4",
                 "--weight", "0,0,0,0,0,0", "--digits", "8"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_reduce(capsys):
    assert main(["reduce", "--type", "E7", "--level", "5",
                 "--weight", "9,0,0,0,0,0,0"]) == 0
    out = capsys.readouterr().out
    assert "dominant" in out or "on_wall" in out


def test_cli_krdec(capsys):
    assert main(["krdec", "--type", "E7", "--node", "2", "--k", "3",
                 "--qdim", "--level", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 5  # four terms plus the qdim line
    assert "qdim" in out


def test_cli_solve(capsys):
    assert main(["solve", "--type", "E6", "--level", "4", "--tol", "1e-30"]) == 0
    out = capsys.readouterr().out
    assert "converged" in out


def test_cli_grid_csv(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["grid", "--type", "E6", "--level", "2", "--format", "csv",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "node,k,value,provenance"
    assert len(lines) == 1 + 6 * 15


def test_cli_verify_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["verify", "--type", "E8", "--level", "1", "--report", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    assert data["overall"] == "pass"
    assert data["l"] == 31
    assert {"cells", "checks", "residual_max", "dilog"} <= set(data)


def test_cli_verify_subset_text(capsys):
    code = main(["verify", "--type", "E6", "--level", "2",
                 "--checks", "roots,weyl", "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out


def test_cli_logconcave_seq(capsys):
    assert main(["logconcave", "--seq", "1,2,1", "--max-order", "3",
                 "--branden"]) == 0
    out = capsys.readouterr().out
    assert "order >= 3" in out
    assert "real_negative" in out


def test_cli_logconcave_line(capsys):
    assert main(["logconcave", "--type", "E7", "--level", "4", "--node", "7",
                 "--max-order", "4", "--branden"]) == 0
    out = capsys.readouterr().out
    assert "real_negative" in out


def test_cli_usage_errors(capsys, tmp_path, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["qdim", "--type", "E6"])  # missing required flags
    assert exc.value.code == 2
    assert main(["roots", "--type", "F4"]) == 1  # unknown type: clean error
    err = capsys.readouterr().err
    assert "error" in err
    # a precision that is not an integer is a usage error, from either source
    qdim_argv = ["qdim", "--type", "E6", "--level", "3", "--weight", "1,0,0,0,0,0"]
    cfgfile = tmp_path / "qslab.conf"
    cfgfile.write_text("precision_bits = 1.5\n")
    with pytest.raises(SystemExit) as exc:
        main(qdim_argv + ["--config", str(cfgfile)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: precision_bits")
    monkeypatch.setenv("QSLAB_PRECISION_BITS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(qdim_argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: QSLAB_PRECISION_BITS")
    monkeypatch.delenv("QSLAB_PRECISION_BITS")
    # usage errors found after parsing exit 2 as well, never 1
    for argv, message in (
        (["qdim", "--type", "E6", "--level", "2", "--weight", "1,0"],
         "error: weight needs 6 coordinates, got 2\n"),
        (["qdim", "--type", "E6", "--level", "2", "--weight", "1,0,0,0,0,x"],
         "error: weight coordinates must be integers, got '1,0,0,0,0,x'\n"),
        (["logconcave", "--type", "E7"],
         "error: need --seq or all of --type/--level/--node\n"),
        (["krdec", "--type", "E6", "--node", "1", "--k", "1", "--qdim"],
         "error: --qdim needs --level\n"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().err == message
    # bad values the parser can see exit 2 too; argparse prints the usage
    # line first, then one error line that names the flag
    for argv, message in (
        (["verify", "--type", "E6", "--level", "2", "--checks", "roots,bogus"],
         "qslab verify: error: argument --checks: unknown check 'bogus' "
         "(choose from roots,weyl,grid,solve,theorem,logconcave,dilog)\n"),
        (["grid", "--type", "E6", "--level", "2", "--format", "fixture"],
         "qslab grid: error: argument --format: invalid choice: 'fixture' "
         "(choose from 'json', 'csv', 'text')\n"),
        (["verify", "--type", "E6", "--level", "2", "--format", "fixture"],
         "qslab verify: error: argument --format: invalid choice: 'fixture' "
         "(choose from 'json', 'csv', 'text')\n"),
        (["verify", "--type", "E6", "--level", "0"],
         "qslab verify: error: argument --level: must be at least 1, got 0\n"),
        (["solve", "--type", "E6", "--level", "2", "--precision-bits", "32"],
         "qslab solve: error: argument --precision-bits: must be at least 64, got 32\n"),
        (["roots", "--type", "E6", "--precision-bits", "128"],
         "qslab: error: unrecognized arguments: --precision-bits 128\n"),
        (["solve", "--type", "E6", "--level", "2", "--format", "json"],
         "qslab: error: unrecognized arguments: --format json\n"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and err.endswith(message), (argv, err)


def test_cli_computation_error_exits_1(capsys, monkeypatch):
    from qslab import affweyl

    monkeypatch.setattr(affweyl, "_REDUCE_GUARD", 5)
    assert main(["reduce", "--type", "E6", "--level", "1",
                 "--weight", "30000000,0,0,0,0,0"]) == 1
    assert capsys.readouterr().err == "error: alcove reduction failed to terminate\n"


def test_cli_precision_sources(tmp_path, capsys, monkeypatch):
    cfgfile = tmp_path / "qslab.conf"
    cfgfile.write_text("precision_bits = 192\n")
    assert main(["qdim", "--type", "E6", "--level", "3", "--weight",
                 "1,0,0,0,0,0", "--config", str(cfgfile)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("QSLAB_PRECISION_BITS", "160")
    assert main(["qdim", "--type", "E6", "--level", "3", "--weight",
                 "1,0,0,0,0,0"]) == 0
    capsys.readouterr()
    # flag wins over both
    assert main(["qdim", "--type", "E6", "--level", "3", "--weight",
                 "1,0,0,0,0,0", "--precision-bits", "128"]) == 0


def test_reports_are_deterministic():
    configs = (
        RunConfig(type_label="E6", level=3, checks=("grid", "theorem", "dilog")),
        RunConfig(type_label="E7", level=12,
                  checks=("roots", "grid", "theorem", "logconcave", "dilog")),
    )
    for cfg in configs:
        a = report_to_dict(run(cfg))
        b = report_to_dict(run(cfg))
        a.pop("duration_seconds")
        b.pop("duration_seconds")
        assert a == b
    branden = [c for c in a["checks"] if c["name"] == "branden"]
    assert [c["note"] for c in branden] == ["not_real_negative (non-real root (exact count))"]


def test_check_status_mechanics():
    from qslab.qsolver import _mk_check
    from qslab.report import VerificationReport

    assert _mk_check("x", None, True, False, None).status == "pass"
    assert _mk_check("x", None, False, True, None).status == "fail"
    assert _mk_check("x", None, False, False, None).status == "conjecture-violated"
    cfg = RunConfig(type_label="E6", level=2)
    rep_obj = VerificationReport(config=cfg, shifted_level=14, checks=[
        _mk_check("a", None, True, True, None),
        _mk_check("b", 3, False, False, None),
    ])
    rep_obj.finalize()
    assert rep_obj.overall == "conjecture-violated"
    assert rep_obj.exit_code == 0
    rep_obj.checks.append(_mk_check("c", None, False, True, None))
    rep_obj.finalize()
    assert rep_obj.overall == "fail"
    assert rep_obj.exit_code == 1


def test_run_fails_on_corrupted_fixture(e7, tmp_path):
    from qslab.report import load_appendix_map, load_fixture_rows

    rows = load_fixture_rows("E7")
    amap = load_appendix_map("E7")
    for label in ("e7", "e8"):
        src_rows = load_fixture_rows(label.upper())
        src_map = load_appendix_map(label.upper())
        with open(tmp_path / f"{label}_positive_roots.txt", "w") as f:
            for no, height, coeffs in src_rows:
                if label == "e7" and no == 10:
                    height = height + 1
                f.write(f"{no} {height} " + " ".join(map(str, coeffs)) + "\n")
        with open(tmp_path / f"{label}_appendix_order.txt", "w") as f:
            for no, idx in sorted(src_map.items()):
                f.write(f"{no} {idx}\n")
    out = run(RunConfig(type_label="E7", level=1, checks=("roots",)),
              fixture_dir=str(tmp_path))
    assert out.overall == "fail"
    assert out.exit_code == 1
