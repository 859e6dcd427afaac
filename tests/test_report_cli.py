from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import shlex
from pathlib import Path

import pytest

import qslab
from qslab import affweyl, qnum, report
from qslab.cli import main
from qslab.qnum import LevelContext, sine_signature
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


def test_cli_reduce(capsys, monkeypatch):
    # reduce is integer arithmetic: it takes no precision setting and reads none
    monkeypatch.setenv("QSLAB_PRECISION_BITS", "abc")
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


def test_cli_write_error_names_the_requested_path(tmp_path, capsys):
    # a missing directory fails in the temp file, a directory target in the
    # rename: either way the error names the path asked for, and no temp
    # file is left behind
    (tmp_path / "taken").mkdir()
    for target in (tmp_path / "missing" / "x.json", tmp_path / "taken"):
        assert main(["grid", "--type", "E6", "--level", "1", "--out", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ")
        assert err.endswith(f": {str(target)!r}\n")
    assert [p.name for p in tmp_path.rglob("*")] == ["taken"]


def test_cli_verify_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["verify", "--type", "E8", "--level", "1", "--report", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    assert data["overall"] == "pass"
    assert data["l"] == 31
    assert {"cells", "checks", "residual_max", "dilog"} <= set(data)


def test_cli_verify_report_and_out_are_one_option(tmp_path, capsys):
    # two spellings of one option: the last one given names the report
    for first, last in (("--report", "--out"), ("--out", "--report")):
        ignored, written = tmp_path / f"{first}-first", tmp_path / f"{last}-last"
        assert main(["verify", "--type", "E6", "--level", "1", "--checks", "roots",
                     first, str(ignored), last, str(written)]) == 0
        assert not ignored.exists()
        assert json.loads(written.read_text())["overall"] == "pass"
        assert capsys.readouterr().out == f"pass (report written to {written})\n"


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert len(lines) >= 9
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "qslab", line
        assert main(argv[1:]) == 0, line


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
    # a positive --tol finer than the working precision is a computation error
    assert main(["solve", "--type", "E6", "--level", "2", "--tol", "1e-300"]) == 1
    err = capsys.readouterr().err
    assert "error" in err
    # a precision that is not an integer, or is below 64 bits, is a usage
    # error from either source, as it is from --precision-bits
    qdim_argv = ["qdim", "--type", "E6", "--level", "3", "--weight", "1,0,0,0,0,0"]
    cfgfile = tmp_path / "qslab.conf"
    for text, problem in (("1.5", "must be an integer, got '1.5'"),
                          ("32", "must be at least 64, got 32")):
        cfgfile.write_text(f"precision_bits = {text}\n")
        with pytest.raises(SystemExit) as exc:
            main(qdim_argv + ["--config", str(cfgfile)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: precision_bits in {cfgfile} {problem}\n"
    for text, problem in (("abc", "must be an integer, got 'abc'"),
                          ("32", "must be at least 64, got 32")):
        monkeypatch.setenv("QSLAB_PRECISION_BITS", text)
        with pytest.raises(SystemExit) as exc:
            main(qdim_argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: QSLAB_PRECISION_BITS {problem}\n"
    monkeypatch.delenv("QSLAB_PRECISION_BITS")
    # usage errors found after parsing exit 2 as well, never 1, and before any
    # check group runs
    monkeypatch.setattr(report, "run", None)
    for argv, message in (
        (["qdim", "--type", "E6", "--level", "2", "--weight", "1,0"],
         "error: weight needs 6 coordinates, got 2\n"),
        (["qdim", "--type", "E6", "--level", "2", "--weight", "1,0,0,0,0,x"],
         "error: weight coordinates must be integers, got '1,0,0,0,0,x'\n"),
        (["logconcave", "--type", "E7"],
         "error: need --seq or all of --type/--level/--node\n"),
        (["krdec", "--type", "E6", "--node", "1", "--k", "1", "--qdim"],
         "error: --qdim needs --level\n"),
        (["verify", "--type", "E6", "--level", "3", "--checks", "weyl", "--format", "csv"],
         "error: csv output needs a grid-producing check\n"),
        (["qdim", "--type", "E6", "--level", "2", "--weight", "1,0,0,0,0,0", "--digits", "0"],
         "error: --digits must be at least 1, got 0\n"),
        (["krdec", "--type", "E6", "--node", "1", "--k", "1", "--qdim", "--level", "2",
          "--digits", "0"],
         "error: --digits must be at least 1, got 0\n"),
        (["krdec", "--type", "E6", "--node", "1", "--k", "-1"],
         "error: --k must be nonnegative, got -1\n"),
        (["krdec", "--type", "E6", "--node", "7", "--k", "1"],
         "error: --node must be in 1..6, got 7\n"),
        (["logconcave", "--type", "E7", "--level", "3", "--node", "0"],
         "error: --node must be in 1..7, got 0\n"),
        (["logconcave", "--type", "E7", "--level", "3", "--node", "8"],
         "error: --node must be in 1..7, got 8\n"),
        (["logconcave", "--seq", "1,x"],
         "error: --seq '1,x': could not convert string to float: 'x'\n"),
        (["grid", "--type", "E6", "--level", "2", "--kmax", "-5"],
         "error: --kmax must be in 14..56, got -5\n"),
        (["verify", "--type", "E6", "--level", "2", "--kmax", "100"],
         "error: --kmax must be in 14..56, got 100\n"),
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
        (["logconcave", "--seq", "1,2", "--max-order", "-1"],
         "qslab logconcave: error: argument --max-order: must be at least 0, got -1\n"),
        (["solve", "--type", "E6", "--level", "2", "--tol", "0"],
         "qslab solve: error: argument --tol: must be positive, got 0\n"),
        (["solve", "--type", "E6", "--level", "2", "--tol", "-1"],
         "qslab solve: error: argument --tol: must be positive, got -1\n"),
        (["solve", "--type", "E6", "--level", "2", "--precision-bits", "32"],
         "qslab solve: error: argument --precision-bits: must be at least 64, got 32\n"),
        (["roots", "--type", "F4"],
         "qslab roots: error: argument --type: unknown type 'F4' (choose from E6, E7, E8)\n"),
        (["grid", "--type", "F4", "--level", "2", "--kmax", "3"],
         "qslab grid: error: argument --type: unknown type 'F4' (choose from E6, E7, E8)\n"),
        (["verify", "--type", "E9", "--level", "2"],
         "qslab verify: error: argument --type: unknown type 'E9' (choose from E6, E7, E8)\n"),
        (["logconcave", "--type", "e9", "--level", "2", "--node", "1"],
         "qslab logconcave: error: argument --type: unknown type 'e9' "
         "(choose from E6, E7, E8)\n"),
        (["roots", "--type", "E6", "--precision-bits", "128"],
         "qslab: error: unrecognized arguments: --precision-bits 128\n"),
        (["reduce", "--type", "E6", "--level", "1", "--weight", "1,0,0,0,0,0",
          "--precision-bits", "64"],
         "qslab: error: unrecognized arguments: --precision-bits 64\n"),
        (["solve", "--type", "E6", "--level", "2", "--format", "json"],
         "qslab: error: unrecognized arguments: --format json\n"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and err.endswith(message), (argv, err)


def test_qdim_rejects_a_non_dominant_weight_as_a_usage_error(capsys):
    for extra in ([], ["--classical"]):
        with pytest.raises(SystemExit) as exc:
            main(["qdim", "--type", "E6", "--level", "2", "--weight", "1,0,0,0,0,-1"] + extra)
        assert exc.value.code == 2, extra
        assert capsys.readouterr().err == (
            "error: qdim requires a dominant weight; reduce general weights first\n")


def test_cli_type_label_in_either_case(tmp_path):
    # --kmax is range-checked against the label's Coxeter number, so it must
    # see the upper-cased label
    path = tmp_path / "r.json"
    assert main(["verify", "--type", "e7", "--level", "2", "--kmax", "30",
                 "--checks", "roots", "--report", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["type"] == "E7" and data["config"]["k_max"] == 30


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
    # Each pin is the SHA-256 of the JSON report (indent 2) without
    # duration_seconds, so every byte of those reports is fixed: a change
    # that alters a value, a rounding or a note on purpose updates the pin
    # and says why.
    cases = (
        (RunConfig(type_label="E6", level=3, checks=("grid", "theorem", "dilog")), None),
        (RunConfig(type_label="E6", level=4),
         "ed7355c7e4e6b54fcd515ad74f9d845d6a1324da7958805f7cd67d769437b9d2"),
        # E8's derived rows, filled by subtraction and division
        (RunConfig(type_label="E8", level=2),
         "f66f578f594b060a944de58bfafbbc7b10df322e7ce91fae4a21475446114ab0"),
        (RunConfig(type_label="E7", level=12,
                   checks=("roots", "grid", "theorem", "logconcave", "dilog")),
         "ff3771bad4d18d1d8e2b9e2db2f079d98dc9fdfc4165233e8e60f70c8a199900"),
    )
    for cfg, golden in cases:
        a = report_to_dict(run(cfg))
        b = report_to_dict(run(cfg))
        a.pop("duration_seconds")
        b.pop("duration_seconds")
        assert a == b
        if golden is not None:
            digest = hashlib.sha256(json.dumps(a, indent=2).encode()).hexdigest()
            assert digest == golden, (cfg.type_label, cfg.level)
    branden = [c for c in a["checks"] if c["name"] == "branden"]
    assert [c["note"] for c in branden] == ["not_real_negative (non-real root (exact count))"]


@pytest.mark.parametrize("label", ["E6", "E7", "E8"])
def test_sign_identity_trial_stream(rs_map, monkeypatch, label):
    # each generator is read off its images of 0 and of the unit vectors and
    # tested on the probes, every call a one-letter word through the
    # affweyl module attribute
    rs = rs_map[label]
    seen = []
    original = affweyl.apply_word

    def recording(word, lam, ctx):
        seen.append((tuple(word), lam))
        return original(word, lam, ctx)

    monkeypatch.setattr(affweyl, "apply_word", recording)
    assert report.sign_identity_trials(LevelContext(rs, 2), trials=3) == 0
    probes = report.sign_probes(rs.rank, 3)
    assert all(min(lam) < 0 for lam in probes) and len(set(probes)) == 3
    units = [tuple(int(j == k) for j in range(rs.rank)) for k in range(rs.rank)]
    expected = [((g,), lam) for g in range(rs.rank + 1)
                for lam in [(0,) * rs.rank, *units, *probes]]
    assert seen == expected


def _faulty_apply_word(fault):
    """apply_word with one fault: s0 adds c to every coordinate instead of
    c*theta, s0 reflects at l + 1 instead of l, s2 leaves every weight
    unchanged, s3 raises its neighbours by 2c instead of c, every word
    reports parity +1, every word reports parity +1 on weights with a
    negative coordinate, or s5 reflects a weight with a negative coordinate
    as if that coordinate were 0 (a map that is not affine)."""
    original = affweyl.apply_word

    def apply_word(word, lam, ctx):
        image, parity = original(word, lam, ctx)
        rs = ctx.root_system
        if fault == "parity" or fault == "parity-negative" and min(lam) < 0:
            return image, 1
        if fault == "s0" and tuple(word) == (0,):
            c = ctx.shifted_level - sum(m * (x + 1) for m, x in zip(rs.marks, lam))
            return tuple(x + c for x in lam), parity
        if fault == "s0-level" and tuple(word) == (0,):
            return tuple(x + t for x, t in zip(image, rs.theta_weight)), parity
        if fault == "s2" and tuple(word) == (2,):
            return tuple(lam), parity
        if fault == "s3" and tuple(word) == (3,):
            c = lam[2] + 1
            return tuple(x - 2 * c if j == 3 else x + 2 * c if j in rs.neighbors[3] else x
                         for j, x in enumerate(lam, start=1)), parity
        if fault == "s5" and tuple(word) == (5,):
            return original(word, tuple(max(x, 0) for x in lam), ctx)
        return image, parity

    return apply_word


def _oracle_failing_generators(ctx, weights):
    """The generators g with some weight whose image under s_g does not have
    the weight's exact sine signature times the parity: the sampled check
    the certificate replaced."""
    rs = ctx.root_system
    l = ctx.shifted_level
    failing = set()
    for lam in weights:
        sign, folded = sine_signature(rs.rho_pairings(lam), l)
        for g in range(rs.rank + 1):
            image, parity = affweyl.apply_word((g,), lam, ctx)
            if sine_signature(rs.rho_pairings(image), l) != (parity * sign, folded):
                failing.add(g)
    return failing


def _oracle_weights(ctx, count, seed):
    """Weights of any sign: half are alcove weights moved by random affine
    words, so off every wall, and half have coordinates drawn from [-l, l]."""
    rng = random.Random(seed)
    rs = ctx.root_system
    l = ctx.shifted_level
    alcove = affweyl.enumerate_alcove(rs, ctx.level)
    weights = []
    for _ in range(count // 2):
        word = [rng.randint(0, rs.rank) for _ in range(rng.randint(1, 12))]
        weights.append(affweyl.apply_word(word, rng.choice(alcove), ctx)[0])
        weights.append(tuple(rng.randint(-l, l) for _ in range(rs.rank)))
    return weights


def _certificate_failing_generators(ctx, trials=4):
    probes = report.sign_probes(ctx.root_system.rank, trials)
    return {g for g in range(ctx.root_system.rank + 1)
            if not report.generator_sign_certificate(ctx, g, probes)}


@pytest.mark.parametrize("label", ["E6", "E7", "E8"])
@pytest.mark.parametrize("level", [2, 5])
def test_sign_certificate_agrees_with_the_sampled_oracle(rs_map, label, level):
    ctx = LevelContext(rs_map[label], level)
    weights = _oracle_weights(ctx, 120, seed=level)
    assert any(min(lam) < 0 for lam in weights)
    off_wall = sum(sine_signature(ctx.root_system.rho_pairings(lam), ctx.shifted_level)[0] != 0
                   for lam in weights)
    assert off_wall >= 60
    assert _oracle_failing_generators(ctx, weights) == set()
    assert _certificate_failing_generators(ctx) == set()
    assert report.sign_identity_trials(ctx) == 0


@pytest.mark.parametrize("fault", ["s0", "s3", "parity", "s5", "s0-level", "s2",
                                   "parity-negative"])
def test_sign_identity_fails_on_a_faulty_generator(rs_map, monkeypatch, tmp_path, fault):
    # exactly the faulty generators fail at E7 L2; parity +1 fails all eight
    failing = {"s0": {0}, "s3": {3}, "parity": set(range(8)), "s5": {5},
               "s0-level": {0}, "s2": {2}, "parity-negative": set(range(8))}[fault]
    ctx = LevelContext(rs_map["E7"], 2)
    weights = _oracle_weights(ctx, 120, seed=2)
    monkeypatch.setattr(affweyl, "apply_word", _faulty_apply_word(fault))
    assert _certificate_failing_generators(ctx) == failing
    if fault == "s5":
        # the images of 0 and of the unit vectors are right: only the
        # non-dominant probes expose the fault
        assert _certificate_failing_generators(ctx, trials=0) == set()
    assert _oracle_failing_generators(ctx, weights) == failing
    assert report.sign_identity_trials(ctx) == len(failing)
    path = tmp_path / "weyl.json"
    assert main(["verify", "--type", "E7", "--level", "2", "--checks", "weyl",
                 "--out", str(path)]) == 1
    (check,) = [c for c in json.loads(path.read_text())["checks"]
                if c["name"] == "sign_identity"]
    assert check["status"] == "fail" and check["proven"]
    assert check["max_violation"] == str(len(failing))


@pytest.mark.parametrize("label,level", [("E7", 28), ("E8", 24)])
def test_weyl_group_certifies_above_level_12_without_sines(monkeypatch, label, level):
    # both Weyl checks are integer certificates: no qdim, and no sine table
    def no_sines(*args, **kwargs):
        raise AssertionError("the weyl group evaluated a sine")

    monkeypatch.setattr(qnum, "qdim", no_sines)
    monkeypatch.setattr(qnum.LevelContext, "_build_sin_tables", no_sines)
    out = run(RunConfig(type_label=label, level=level, checks=("weyl",)))
    assert [(c.name, c.status, c.max_violation) for c in out.checks] == [
        ("fixed_word_images", "pass", None),
        ("sign_identity", "pass", 0),
        ("alcove_positivity", "pass", 0),
    ]


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


def test_run_fails_on_corrupted_fixture(e7, tmp_path, monkeypatch):
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
    # the roots group looks fixture_check up at call time
    monkeypatch.setattr(report, "fixture_check",
                        functools.partial(fixture_check, fixture_dir=str(tmp_path)))
    out = run(RunConfig(type_label="E7", level=1, checks=("roots",)))
    assert out.overall == "fail"
    assert out.exit_code == 1


@pytest.mark.parametrize("label,status", [("E6", "fail"), ("E7", "conjecture-violated")])
def test_dilog_argument_out_of_range_is_a_failed_check(rs_map, label, status):
    from qslab.qnum import QReal
    from qslab.qsolver import build_qgrid
    from qslab.report import VerificationReport

    # every cell stays positive, but the ratio at (1, 1) grows to about 8000
    ctx = LevelContext(rs_map[label], 2)
    grid = build_qgrid(ctx)
    c = grid.values[0][1]
    grid.values[0][1] = QReal(c.value / 100, c.magnitude_scale)
    rep_obj = VerificationReport(config=RunConfig(type_label=label, level=2),
                                 shifted_level=ctx.shifted_level, checks=[])
    checks = report._dilog_checks(rep_obj, ctx, grid)
    assert [(c.name, c.status) for c in checks] == [("dilog_args", status)]
    assert checks[0].max_violation > 1000
    assert rep_obj.dilog_in_range is False
    assert rep_obj.dilog_sum is None
    rep_obj.checks = checks
    rep_obj.grid = grid
    rep_obj.finalize()
    assert report_to_dict(rep_obj)["dilog"] == {"args_in_range": False, "sum": None}
