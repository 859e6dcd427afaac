from __future__ import annotations

import copy
import functools
import hashlib
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qslab
from qslab import affweyl, cli, krchar, qnum, report, seqanalysis
from qslab.cli import main
from qslab.qnum import LevelContext, float_triple, render_decimal, render_note
from qslab.qsolver import CheckResult
from qslab.report import (
    RunConfig,
    fixture_check,
    report_to_dict,
    run,
    write_report,
)

from oracles import mpf_cell, raw, sine_signature, triple

E7_WORD = qslab.rootsys.type_data("E7").fixed_words[2][0][1]  # the element "w"


def test_render_decimal_deterministic():
    import mpmath
    from mpmath.ctx_mp import MPContext

    c = MPContext()
    c.prec = 128
    # raw _mpf_ tuples and ints
    assert render_decimal(c.mpf(1)._mpf_) == "1"
    assert render_decimal((c.mpf(1) / 3)._mpf_).startswith("0.3333333333333333333333333333")
    assert render_decimal(c.mpf("-2.5")._mpf_) == "-2.5"
    assert render_decimal(0) == "0"
    with pytest.raises(TypeError):
        render_decimal(None)
    third = render_decimal((c.mpf(1) / 3)._mpf_)
    assert len(third.replace("0.", "")) == 30
    assert render_decimal((c.mpf(10) ** -40)._mpf_).startswith("1.0000")
    assert [render_decimal(x._mpf_) for x in (c.nan, c.inf, -c.inf)] == ["nan", "inf", "-inf"]


def test_render_decimal_matches_fraction_reference():
    from decimal import ROUND_HALF_EVEN, Context, Decimal
    from fractions import Fraction

    from mpmath.ctx_mp import MPContext

    def reference(x, digits):
        sign, man, exp, _ = x._mpf_
        frac = Fraction(-man if sign else man) * Fraction(2) ** exp
        dc = Context(prec=digits, rounding=ROUND_HALF_EVEN)
        return str(dc.divide(Decimal(frac.numerator), Decimal(frac.denominator)))

    c = MPContext()
    c.prec = 128
    # exact ties round to the even neighbour
    for value, digits, text in ((2.5, 1, "2"), (3.5, 1, "4"), (-2.5, 1, "-2"),
                                (0.125, 2, "0.12"), (0.375, 2, "0.38"),
                                (12.5, 2, "12"), (13.5, 2, "14"), (25, 1, "2E+1")):
        assert render_decimal(c.mpf(value)._mpf_, digits) == text, (value, digits)
    rng = random.Random(404)
    for prec in (64, 128, 256):
        c.prec = prec
        for _ in range(300):
            if rng.random() < 0.5:
                # short dyadics: exact decimals, with ties at short digit counts
                x = c.ldexp(c.mpf(rng.randrange(1, 1 << 20)), rng.randint(-12, 12))
            else:
                x = c.ldexp(c.mpf(rng.getrandbits(prec) | 1), rng.randint(-400, 300))
            if rng.random() < 0.5:
                x = -x
            digits = rng.randint(1, 45)
            assert render_decimal(x._mpf_, digits) == reference(x, digits), (x, digits)


def test_render_note_prints_equal_rounded_values_equally():
    # two triples that round to the same 8 (12) digits, one exact and one
    # not, print the same in a note; so do values written in exponent form,
    # and an integer keeps its zeros
    p = 128
    one, near_one = (0, 1 << p - 1, 1 - p), (0, (1 << p - 1) + 1, 1 - p)
    assert render_decimal(one, 8) == "1" and render_decimal(near_one, 8) == "1.0000000"
    assert render_note(one, 8) == render_note(near_one, 8) == "1"
    half = (0, 27 << p - 5, -p + 4)  # 13.5 exactly
    assert render_note(half, 12) == render_note((0, half[1] + 1, half[2]), 12) == "13.5"
    tiny = float_triple(1.5e-9, p)  # not a dyadic number
    assert render_decimal(tiny, 8) == "1.5000000E-9" and render_note(tiny, 8) == "1.5E-9"
    assert render_note(100, 8) == "100" and render_note(25, 1) == "2E+1"
    assert render_note(0, 8) == "0" and render_note((0, 0, -456, -2), 8) == "inf"
    assert render_note((0, 5 << p - 3, -p + 1), 8) == "1.25"
    assert render_note((0, 1 << p - 1, -p - 2), 8) == "0.125"


def test_run_config_validation(capsys):
    with pytest.raises(ValueError):
        RunConfig(type_label="E6", level=0)
    with pytest.raises(ValueError):
        RunConfig(type_label="E6", level=2, checks=())
    with pytest.raises(ValueError):
        RunConfig(type_label="E6", level=2, checks=("bogus",))
    with pytest.raises(ValueError, match="repeated check 'roots'"):
        RunConfig(type_label="E6", level=2, checks=("roots", "grid", "roots"))
    with pytest.raises(ValueError):
        RunConfig(type_label="E6", level=2, fmt="yaml")
    # k_max lies in l..4l, l = level + h = 14 here, as the CLI's --kmax does
    for k_max in (3, 13, 57):
        with pytest.raises(ValueError, match=f"k_max must be in 14..56, got {k_max}"):
            RunConfig(type_label="E6", level=2, k_max=k_max, checks=("grid",))
    for k_max in (14, 56):
        assert RunConfig(type_label="E6", level=2, k_max=k_max).k_max == k_max
    # a k_max needs a group that reads the grid, as --kmax does; the CLI
    # refuses first, with its own message and exit code 2
    for checks in (("roots",), ("roots", "weyl")):
        with pytest.raises(ValueError, match="k_max has no effect without a grid-producing"):
            RunConfig("E6", 2, k_max=20, checks=checks)
    with pytest.raises(ValueError, match="k_max has no effect"):
        RunConfig("E6", 2, k_max=20)._replace(checks=("weyl",))
    assert RunConfig("E6", 2, k_max=20, checks=("roots", "dilog")).k_max == 20
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--type", "E6", "--level", "2", "--checks", "roots", "--kmax", "20"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: --kmax has no effect without a grid-producing check\n"


def _plant_rows(monkeypatch, type_label, kind, edit):
    """Make the fixture reader hand out one file's rows with each row whose
    appendix number ``edit`` maps passed through that function, and every
    other file as it is."""
    reader = report._int_rows
    planted = tuple(edit[r[0]](r) if r[0] in edit else r for r in reader(type_label, kind))

    def planted_reader(t, k):
        return planted if (t, k) == (type_label, kind) else reader(t, k)

    monkeypatch.setattr(report, "_int_rows", planted_reader)


def test_fixture_check_detects_corruption(e7, monkeypatch):
    _plant_rows(monkeypatch, "E7", "positive_roots", {42: lambda r: (*r[:2], 9, *r[3:])})
    result = fixture_check(e7)
    assert result.status == "fail"
    assert "row 42" in result.note


def test_fixture_check_missing_file(e7, tmp_path, monkeypatch):
    # the reader, uncached, over a package directory without fixtures
    monkeypatch.setattr(report.resources, "files", lambda package: tmp_path)
    monkeypatch.setattr(report, "_int_rows", report._int_rows.__wrapped__)
    with pytest.raises(FileNotFoundError):
        fixture_check(e7)


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


@pytest.mark.parametrize("checks,timed", [
    (report.ALL_CHECKS, ("grid_build", *report.ALL_CHECKS)),
    # the groups run, and are timed, in canonical order
    (("dilog", "roots", "grid"), ("grid_build", "roots", "grid", "dilog")),
    (("weyl",), ("weyl",)),
])
def test_report_times_the_grid_build_and_each_group(checks, timed):
    timings = report_to_dict(run(RunConfig("E6", 2, checks=checks)))["diagnostics"]["timings"]
    assert tuple(timings) == timed
    assert all(type(t) is float and t >= 0 for t in timings.values()), timings


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
    # the Weyl dimension needs no level
    assert main(["qdim", "--type", "E6", "--weight", "1,0,0,0,0,0", "--classical"]) == 0
    assert capsys.readouterr().out.strip() == "27"


def test_cli_qdim_digits(capsys):
    assert main(["qdim", "--type", "E6", "--level", "4",
                 "--weight", "0,0,0,0,0,0", "--digits", "8"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_reduce(capsys):
    for weight, out in (
        ("9,0,0,0,0,0,0", "on_wall (quantum dimension 0) after 3 reflections"),
        ("0,0,0,0,0,0,9", "on_wall (quantum dimension 0) after 3 reflections"),
        ("-3,1,0,2,0,0,4", "on_wall (quantum dimension 0) after 5 reflections"),
        ("0,0,0,0,0,0,0", "dominant 0,0,0,0,0,0,0  sign +1  reflections 0"),
        ("2,0,0,0,0,0,1", "dominant 2,0,0,0,0,0,1  sign +1  reflections 0"),
        ("1,0,0,0,0,0,5", "dominant 0,0,0,0,0,0,5  sign -1  reflections 1"),
        ("5,0,7,0,0,0,6", "dominant 0,2,0,0,0,0,0  sign +1  reflections 24"),
    ):
        assert main(["reduce", "--type", "E7", "--level", "5", f"--weight={weight}"]) == 0
        assert capsys.readouterr().out == out + "\n", weight


def test_cli_krdec(capsys):
    assert main(["krdec", "--type", "E7", "--node", "2", "--k", "3",
                 "--qdim", "--level", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 5  # four terms plus the qdim line
    assert "qdim" in out


def test_cli_krdec_qdim_prints_the_grids_chari_row(rs_map, capsys, monkeypatch):
    # at a direct node krdec --qdim prints the row the grid reads, by
    # chari_qdim's path and never qdim_kr's, at every direct node of each
    # type, k <= l + 3, whether the node nests, pairs, both or neither
    def no_sum(dec, ctx):
        raise AssertionError("qdim_kr")

    monkeypatch.setattr(krchar, "qdim_kr", no_sum)
    for label, level in (("E6", 2), ("E7", 1), ("E8", 1)):
        ctx = LevelContext(rs_map[label], level)
        for node in qslab.rootsys.type_data(label).direct_nodes:
            for k in range(ctx.shifted_level + 4):
                assert main(["krdec", "--type", label, "--node", str(node), "--k", str(k),
                             "--qdim", "--level", str(level), "--digits", "40"]) == 0
                want = render_decimal(krchar.chari_qdim(node, k, ctx)._v, 40)
                assert capsys.readouterr().out.splitlines()[-1] == f"qdim {want}", (node, k)


def test_cli_krdec_qdim_walks_each_nonzero_term_once(e7, capsys, monkeypatch):
    # E7 node 2 pairs but does not nest: its row at k is shell k alone, so
    # krdec --qdim --k 300 runs the sine walk at most once per nonzero term
    # of that shell, where building rows 0..k would take about k / 2 times
    # as many walks
    walks, real_walk = [], qnum._ratio_walk

    def counted_walk(*args):
        walks.append(args)
        return real_walk(*args)

    with monkeypatch.context() as m:
        m.setattr(qnum, "_ratio_walk", counted_walk)
        assert main(["krdec", "--type", "E7", "--node", "2", "--k", "300", "--qdim",
                     "--level", "28"]) == 0
    assert capsys.readouterr().out.count("\n") == 302
    ctx = LevelContext(e7, 28)
    nonzero = sum(qnum.qdim(w, ctx).value != 0
                  for _, w in krchar.chari_decomposition(e7, 2, 300).terms)
    assert 100 < nonzero and 0 < len(walks) <= nonzero, (len(walks), nonzero)


def test_cli_weight_errors_quote_at_most_40_characters(capsys):
    # a --weight usage error quotes the argument as --seq's do, whole up to
    # 40 characters, else its first 37 and "..."; a coordinate of more
    # digits than int() converts is refused naming that limit
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for argv, reason in (
            (["qdim", "--type", "E6", "--level", "2", "--weight", "1,0,0,0,0," + "x" * 300],
             "weight coordinates must be integers"),
            (["reduce", "--type", "E6", "--level", "2", "--weight", "0," * 150 + "y"],
             "weight coordinates must be integers"),
            (["qdim", "--type", "E6", "--level", "2", "--weight", "1" * 5000 + ",0,0,0,0,0"],
             "weight coordinate has 5000 digits, more than int()'s limit of 4300"),
            (["reduce", "--type", "E6", "--level", "2", "--weight", "0,0,0,0,0," + "9" * 4301],
             "weight coordinate has 4301 digits, more than int()'s limit of 4300"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, reason
            assert capsys.readouterr().err == f"error: {reason}, got {argv[-1][:37] + '...'!r}\n"
    finally:
        sys.set_int_max_str_digits(old)


def test_cli_classical_dimension_past_its_digit_bound_is_refused(capsys):
    # qdim --classical prints at most cli.MAX_CLASSICAL_DIGITS digits: the
    # largest multiple c w1 of E6 whose dimension fits prints it whole, and
    # c + 1 exits 2 naming the bound; so does a coordinate of 4000 nines,
    # whose dimension str() would refuse
    rs = qslab.rootsys.build_root_system("E6")
    bound = 10**cli.MAX_CLASSICAL_DIGITS
    lo, hi = 0, 10**300  # dim(lo w1) < bound <= dim(hi w1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if qnum.qdim_classical(rs, (mid, 0, 0, 0, 0, 0)) < bound:
            lo = mid
        else:
            hi = mid
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert main(["qdim", "--type", "E6", "--classical", "--weight", f"{lo},0,0,0,0,0"]) == 0
        out = capsys.readouterr().out
        assert out == f"{qnum.qdim_classical(rs, (lo, 0, 0, 0, 0, 0))}\n"
        assert len(out) == cli.MAX_CLASSICAL_DIGITS + 1
        for c in (hi, "9" * 4000):
            with pytest.raises(SystemExit) as exc:
                main(["qdim", "--type", "E6", "--classical", "--weight", f"{c},0,0,0,0,0"])
            assert exc.value.code == 2
            assert capsys.readouterr().err == (
                "error: the classical dimension has more than 4300 digits\n")
    finally:
        sys.set_int_max_str_digits(old)


def test_cli_krdec_refuses_a_huge_decomposition():
    # E8 node 1 at k = 100000 has (k+1)(k+2)/2, about 5e9, terms: refused
    # with exit 2 before one is built, no traceback; E6 node 1 has one term
    # at every k, so the same --k still answers
    src = str(Path(qslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    argv = ["krdec", "--node", "1", "--k", "100000", "--qdim", "--level", "2"]
    huge, one = (subprocess.run([sys.executable, "-m", "qslab.cli", *argv, "--type", label],
                                env=env, capture_output=True, text=True, timeout=60)
                 for label in ("E8", "E6"))
    assert (huge.returncode, huge.stdout) == (2, "")
    assert huge.stderr == "error: --k 100000 gives 5000150001 terms, more than 1000000\n"
    assert (one.returncode, one.stderr) == (0, "")
    assert one.stdout.splitlines()[0] == "1 x (100000,0,0,0,0,0)"
    assert one.stdout.splitlines()[1].startswith("qdim ")


def test_cli_krdec_refuses_terms_times_bits_past_their_bound(capsys, monkeypatch):
    # with --qdim the term count times --precision-bits is at most
    # MAX_KRDEC_TERM_BITS, the term bound at the default precision: past it
    # krdec exits 2 naming the bound before any term is built; without
    # --qdim, or at fewer bits, the same --k is within its bounds
    assert cli.MAX_KRDEC_TERM_BITS == cli.MAX_KRDEC_TERMS * 128 == 128_000_000

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    with monkeypatch.context() as m:
        m.setattr(krchar, "chari_decomposition", no_work)
        with pytest.raises(SystemExit) as exc:
            main(["krdec", "--type", "E8", "--node", "1", "--k", "300", "--qdim",
                  "--level", "15", "--precision-bits", "4096"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "error: --k 300 gives 45451 terms, and 45451 times --precision-bits 4096 is "
        "186167296, more than 128000000\n")
    for extra in ([], ["--qdim", "--level", "15", "--precision-bits", "2048"]):
        with monkeypatch.context() as m:
            m.setattr(krchar, "chari_qdim", lambda node, k, ctx: ctx.one)
            assert main(["krdec", "--type", "E8", "--node", "1", "--k", "300", *extra]) == 0
        assert capsys.readouterr().out.count("\n") == 45451 + bool(extra)
    with pytest.raises(SystemExit):
        main(["krdec", "--help"])
    assert "for at most 128000000 terms times --precision-bits" in " ".join(
        capsys.readouterr().out.split())


def test_cli_seq_refuses_entries_and_work_past_their_bounds(capsys, monkeypatch):
    # --seq takes at most MAX_SEQ_ENTRIES entries, MAX_BRANDEN_ENTRIES with
    # --branden, and entries times (--max-order + 1) at most MAX_SEQ_WORK,
    # the longest alcove line's 501 entries to order 1000; past any bound it
    # exits 2 before any entry is parsed, and at each bound it parses them
    assert (cli.MAX_SEQ_ENTRIES, cli.MAX_BRANDEN_ENTRIES, cli.MAX_SEQ_WORK) == (
        10_000, 80, 501 * 1001)

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    def ones(n):
        return ",".join(["1"] * n)

    with monkeypatch.context() as m:
        m.setattr(seqanalysis, "make_sequence", no_work)
        for n, extra, reason in (
            (10_001, ["--max-order", "0"], "10001 entries, more than 10000"),
            (71_644, [], "71644 entries, more than 10000"),
            (81, ["--branden"], "81 entries, more than 80 with --branden"),
            (502, ["--max-order", "1000"],
             "502 entries times --max-order 1000 + 1 is 502502, more than 501501"),
            (10_000, ["--max-order", "50"],
             "10000 entries times --max-order 50 + 1 is 510000, more than 501501"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(["logconcave", "--seq", ones(n), *extra])
            assert exc.value.code == 2, reason
            assert capsys.readouterr().err == f"error: --seq '{ones(19)}...': {reason}\n"
    parsed = []
    real_make_sequence = seqanalysis.make_sequence

    def one_entry(tokens):
        parsed.append(len(tokens))
        return real_make_sequence(tokens[:1])

    with monkeypatch.context() as m:
        m.setattr(seqanalysis, "make_sequence", one_entry)
        for n, extra in ((501, ["--max-order", "1000"]), (10_000, ["--max-order", "49"]),
                         (80, ["--branden", "--max-order", "1000"])):
            assert main(["logconcave", "--seq", ones(n), *extra]) == 0
    assert parsed == [501, 10_000, 80]
    capsys.readouterr()
    assert main(["logconcave", "--seq", ones(80), "--branden"]) == 0
    assert capsys.readouterr().out == (
        "input sequence: 80 entries\nlog-concavity order >= 6 (probed up to 6)\n"
        "coefficient polynomial: not_real_negative (non-real root (Newton inequality at k=1))\n")
    with pytest.raises(SystemExit):
        main(["logconcave", "--help"])
    assert ("at most 10000 entries (80 with --branden), with entries times (--max-order + 1) "
            "at most 501501" in " ".join(capsys.readouterr().out.split()))


def test_cli_seq_errors_quote_at_most_40_characters(capsys):
    # every --seq usage error quotes the argument as the entry refusals do:
    # whole up to 40 characters, else its first 37 and "..."
    head = ",".join(["2"] * 30)
    for argv, reason in (
        (["--seq", head + ",,1"], "empty entry"),
        (["--seq", head + ",x"], "could not convert string to float: 'x'"),
        (["--seq", head.replace("2", "0"), "--branden"], "zero polynomial"),
        (["--seq", head, "--node", "1"], "cannot be combined with --type, --level or --node"),
        (["--seq", head + ",1/" + "1" * 2000],
         "1/" + "1" * 35 + "...: a side of a/b exceeds 1000 characters"),
        (["--seq", head + ",1/" + "0" * 999], "1/" + "0" * 35 + "...: division by zero"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["logconcave", *argv])
        assert exc.value.code == 2, reason
        assert capsys.readouterr().err == f"error: --seq {argv[1][:37] + '...'!r}: {reason}\n"
    with pytest.raises(SystemExit):
        main(["logconcave", "--seq", "1," * 19 + "1,"])  # 40 characters, quoted whole
    assert capsys.readouterr().err == f"error: --seq {'1,' * 19 + '1,'!r}: empty entry\n"


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


@pytest.mark.parametrize("label,level,code,golden", [
    pytest.param("E7", 12, 0, "8eb80dc3b3c8192379e4f33aeaea17e8ae6989ba2cf3c62da435d9b193d00e5d",
                 id="E7-12"),
    # mostly exact zeros past the alcove: shells whose interiors are all,
    # some or none of them zero
    pytest.param("E7", 28, 0, "2f5593ebbc75d39a0e00abe8ef09c3c372205c7d28323151179dbbec7f3039e2",
                 id="E7-28"),
    pytest.param("E8", 2, 0, "e563bcfbb7a4fe8f55af94e46d2e27cbd5a5692111330b3ac6fda3f18820cae0",
                 id="E8-2"),
    # the unresolved cell (2, 46) is written as an empty value
    pytest.param("E8", 16, 1, "a36c66f323dcdbe7a75de5960377d6055ae2e00763113ee0afdc8c9c45618926",
                 id="E8-16"),
])
def test_cli_grid_csv_is_pinned(tmp_path, label, level, code, golden):
    # the SHA-256 of `qslab grid --format csv`, as for the report pins below
    # (both moved with them to the correctly rounded quantum dimensions, and
    # to the direct rows summed before rounding, with the same provenances)
    out = tmp_path / "grid.csv"
    assert main(["grid", "--type", label, "--level", str(level), "--format", "csv",
                 "--out", str(out)]) == code
    text = out.read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == golden
    assert (",,unresolved\n" in text) == (code == 1)


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
    # every line of README's usage block runs, and writes the file it names
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    written = 0
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "qslab", line
        assert main(argv[1:]) == 0, line
        for flag, path in zip(argv, argv[1:]):
            if flag in ("--out", "--report"):
                assert (tmp_path / path).is_file(), line
                written += 1
    assert written >= 2


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
    assert "order >= 3 (probed up to 3)" in out
    assert "real_negative" in out
    # the least and the largest double are in range, as is zero
    assert main(["logconcave", "--seq", "5e-324, 3 ,1.7976931348623157e308,0",
                 "--branden"]) == 0
    assert capsys.readouterr().out.startswith("input sequence: 4 entries\n")


def test_cli_logconcave_line(capsys):
    # the line k*w_i is read for k in 0..level // a_i, as verify reads it:
    # E7 node 7 has mark 1, E8 node 4 mark 6 and E6 node 2 mark 2
    for argv, count in ((["--type", "E7", "--level", "4", "--node", "7"], "5 entries"),
                        (["--type", "E8", "--level", "4", "--node", "4"], "1 entry"),
                        (["--type", "E6", "--level", "3", "--node", "2"], "2 entries")):
        assert main(["logconcave", *argv, "--max-order", "4", "--branden"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith(f"line, level {argv[3]}: {count}"), argv
        assert lines[2] == "coefficient polynomial: real_negative", argv


@pytest.mark.parametrize("seq,max_order,expected", [
    # below the cap the probe knows the order: the next iterate fails
    ("1,3,1,0.1,5", 6, "log-concavity order 0 (iterate 1 fails)"),
    ("-1,2,-1", 6, "log-concavity order -1 (the sequence itself fails)"),
    ("-1", 0, "log-concavity order -1 (the sequence itself fails)"),
    # at the cap it knows only a lower bound
    ("1,2,1", 3, "log-concavity order >= 3 (probed up to 3)"),
    ("1,2,1", 0, "log-concavity order >= 0 (probed up to 0)"),
])
def test_cli_logconcave_states_what_the_probe_found(capsys, seq, max_order, expected):
    assert main(["logconcave", f"--seq={seq}", "--max-order", str(max_order)]) == 0
    count = seq.count(",") + 1
    assert capsys.readouterr().out == (
        f"input sequence: {count} {'entry' if count == 1 else 'entries'}\n{expected}\n")


def test_cli_negative_first_seq_entry(capsys):
    # as with --weight, a leading minus sign reads as a flag unless the value
    # is joined to the option by "="
    with pytest.raises(SystemExit) as exc:
        main(["logconcave", "--seq", "-1,2,-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --seq: expected one argument\n")
    assert main(["logconcave", "--seq=-1,2,-1"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "log-concavity order -1 (the sequence itself fails)")


def test_cli_usage_errors(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["qdim", "--type", "E6"])  # missing required flags
    assert exc.value.code == 2
    capsys.readouterr()
    # usage errors found after parsing exit 2 as well, never 1, and before any
    # check group runs or any KR decomposition is built
    monkeypatch.setattr(report, "run", None)
    monkeypatch.setattr(seqanalysis, "log_concavity_order", None)
    monkeypatch.setattr(krchar, "chari_decomposition", None)
    monkeypatch.setattr(krchar, "kleber_q1", None)
    for argv, message in (
        (["qdim", "--type", "E6", "--level", "2", "--weight", "1,0"],
         "error: weight needs 6 coordinates, got 2\n"),
        (["qdim", "--type", "E6", "--level", "2", "--weight", "1,0,0,0,0,x"],
         "error: weight coordinates must be integers, got '1,0,0,0,0,x'\n"),
        (["logconcave", "--type", "E7"],
         "error: need --seq or all of --type/--level/--node\n"),
        (["krdec", "--type", "E6", "--node", "1", "--k", "1", "--qdim"],
         "error: --qdim needs --level\n"),
        # a positive --tol at or below 2^(8 - precision_bits), 2^-120 here
        (["solve", "--type", "E6", "--level", "2", "--tol", "1e-300"],
         "error: solver tolerance is below the working precision\n"),
        (["solve", "--type", "E6", "--level", "2", "--tol", "1e-100"],
         "error: solver tolerance is below the working precision\n"),
        (["verify", "--type", "E6", "--level", "3", "--checks", "weyl", "--format", "csv"],
         "error: csv output needs a grid-producing check\n"),
        (["qdim", "--type", "E6", "--level", "2", "--weight", "1,0,0,0,0,0", "--digits", "0"],
         "error: --digits must be at least 1, got 0\n"),
        (["krdec", "--type", "E6", "--node", "1", "--k", "1", "--qdim", "--level", "2",
          "--digits", "0"],
         "error: --digits must be at least 1, got 0\n"),
        # past decimal.MAX_PREC, and past a C ssize_t
        (["qdim", "--type", "E6", "--level", "2", "--weight", "1,0,0,0,0,0",
          "--digits", "1000000000000000000"],
         "error: --digits must be at most 999999999999999999, got 1000000000000000000\n"),
        (["qdim", "--type", "E6", "--level", "2", "--weight", "1,0,0,0,0,0",
          "--digits", "9223372036854775808"],
         "error: --digits must be at most 999999999999999999, got 9223372036854775808\n"),
        (["krdec", "--type", "E6", "--node", "1", "--k", "1", "--qdim", "--level", "2",
          "--digits", "9223372036854775808"],
         "error: --digits must be at most 999999999999999999, got 9223372036854775808\n"),
        (["krdec", "--type", "E6", "--node", "1", "--k", "-1"],
         "error: --k must be nonnegative, got -1\n"),
        (["krdec", "--type", "E6", "--node", "7", "--k", "1"],
         "error: --node must be in 1..6, got 7\n"),
        # a node with no closed form and, at k = 1, no Kleber table
        (["krdec", "--type", "E6", "--node", "3", "--k", "1"],
         "error: no closed-form decomposition for (E6, node 3)\n"),
        (["krdec", "--type", "E7", "--node", "4", "--k", "2"],
         "error: no closed-form decomposition for (E7, node 4)\n"),
        # a mode that does not use the working precision rejects the flag
        (["qdim", "--type", "E6", "--level", "2", "--weight", "1,0,0,0,0,0", "--classical",
          "--precision-bits", "256"],
         "error: --precision-bits has no effect with --classical\n"),
        (["krdec", "--type", "E6", "--node", "1", "--k", "2", "--precision-bits", "256"],
         "error: --precision-bits has no effect without --qdim\n"),
        (["logconcave", "--seq", "1,2,1", "--precision-bits", "256"],
         "error: --precision-bits has no effect with --seq\n"),
        # and so does a mode that does not use the level or the digits
        (["qdim", "--type", "E6", "--level", "99", "--weight", "1,0,0,0,0,0", "--classical"],
         "error: --level has no effect with --classical\n"),
        (["qdim", "--type", "E6", "--weight", "1,0,0,0,0,0", "--classical", "--digits", "5"],
         "error: --digits has no effect with --classical\n"),
        (["krdec", "--type", "E6", "--node", "1", "--k", "1", "--digits", "0"],
         "error: --digits has no effect without --qdim\n"),
        (["krdec", "--type", "E6", "--node", "1", "--k", "1", "--digits", "5"],
         "error: --digits has no effect without --qdim\n"),
        (["qdim", "--type", "E6", "--weight", "1,0,0,0,0,0"],
         "error: qdim needs --level unless --classical\n"),
        (["logconcave", "--type", "E7", "--level", "3", "--node", "0"],
         "error: --node must be in 1..7, got 0\n"),
        (["logconcave", "--type", "E7", "--level", "3", "--node", "8"],
         "error: --node must be in 1..7, got 8\n"),
        (["logconcave", "--seq", "1,x"],
         "error: --seq '1,x': could not convert string to float: 'x'\n"),
        (["logconcave", "--seq", "1,,2"], "error: --seq '1,,2': empty entry\n"),
        (["logconcave", "--seq", "1,2,"], "error: --seq '1,2,': empty entry\n"),
        (["logconcave", "--seq", ""], "error: --seq '': empty entry\n"),
        (["logconcave", "--seq", "1,2,1", "--type", "E7"],
         "error: --seq '1,2,1': cannot be combined with --type, --level or --node\n"),
        (["logconcave", "--seq", "1,2,1", "--level", "3"],
         "error: --seq '1,2,1': cannot be combined with --type, --level or --node\n"),
        (["logconcave", "--seq", "1,2,1", "--node", "7"],
         "error: --seq '1,2,1': cannot be combined with --type, --level or --node\n"),
        # a nonzero entry must have a double's magnitude, [2^-1074, 2^1024);
        # 5e-324 and 1.7976931348623157e308 are the least and the largest
        (["logconcave", "--seq", "1e-1000000000,3,1", "--branden"],
         "error: --seq '1e-1000000000,3,1': 1e-1000000000 is outside the double "
         "range [2^-1074, 2^1024)\n"),
        # exponents near 2^38 in magnitude, decided without a shift that long
        (["logconcave", "--seq", "1e-100000000000"],
         "error: --seq '1e-100000000000': 1e-100000000000 is outside the double "
         "range [2^-1074, 2^1024)\n"),
        (["logconcave", "--seq", "1e100000000000,1"],
         "error: --seq '1e100000000000,1': 1e100000000000 is outside the double "
         "range [2^-1074, 2^1024)\n"),
        (["logconcave", "--seq", "1,4e-324"],
         "error: --seq '1,4e-324': 4e-324 is outside the double range [2^-1074, 2^1024)\n"),
        (["logconcave", "--seq", "0,-1.8e308"],
         "error: --seq '0,-1.8e308': -1.8e308 is outside the double range "
         "[2^-1074, 2^1024)\n"),
        (["logconcave", "--seq", "1,2/-0"], "error: --seq '1,2/-0': 2/-0: division by zero\n"),
        # the rootedness verdict needs a nonzero polynomial
        (["logconcave", "--seq", "0,0,0", "--branden"],
         "error: --seq '0,0,0': zero polynomial\n"),
        (["grid", "--type", "E6", "--level", "2", "--kmax", "-5"],
         "error: --kmax must be in 14..56, got -5\n"),
        (["verify", "--type", "E6", "--level", "2", "--kmax", "100"],
         "error: --kmax must be in 14..56, got 100\n"),
        (["krdec", "--type", "E7", "--node", "2", "--k", "1", "--level", "5"],
         "error: --level has no effect without --qdim\n"),
        (["verify", "--type", "E6", "--level", "2", "--checks", "roots", "--kmax", "40"],
         "error: --kmax has no effect without a grid-producing check\n"),
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
        (["verify", "--type", "E6", "--level", "2", "--checks", "roots,roots"],
         "qslab verify: error: argument --checks: repeated check 'roots'\n"),
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
        (["solve", "--type", "E8", "--level", "6", "--tol", "inf"],
         "qslab solve: error: argument --tol: must be finite, got inf\n"),
        (["solve", "--type", "E6", "--level", "2", "--precision-bits", "32"],
         "qslab solve: error: argument --precision-bits: must be at least 64, got 32\n"),
        (["qdim", "--type", "E6", "--level", "3", "--weight", "1,0,0,0,0,0",
          "--precision-bits", "1.5"],
         "qslab qdim: error: argument --precision-bits: invalid integer value: '1.5'\n"),
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
                 "--checks", "grid", "--report", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["type"] == "E7" and data["config"]["k_max"] == 30
    assert len(data["cells"]) == 7 * 31


def test_cli_computation_error_exits_1(capsys, monkeypatch):
    from qslab import qsolver

    monkeypatch.setattr(qsolver, "MAX_NEWTON_STEPS", 0)
    assert main(["solve", "--type", "E6", "--level", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: no convergence within 0 Newton steps; last float log defect 0.693\n")


def test_cli_overflow_exits_1_without_a_traceback(capsys, monkeypatch):
    # an OverflowError or MemoryError that a computation raises is an error
    # message and exit 1, as any failed computation
    for exc in (OverflowError("cannot fit 'int' into an index-sized integer"), MemoryError()):
        def fail(*args, exc=exc):
            raise exc

        monkeypatch.setattr(report, "run", fail)
        assert main(["verify", "--type", "E6", "--level", "2"]) == 1
        assert capsys.readouterr().err == f"error: {exc}\n"


def test_cli_refuses_level_and_precision_past_their_bounds(capsys):
    # a --level above MAX_LEVEL or a --precision-bits above
    # MAX_PRECISION_BITS is a usage error naming the bound, raised by the
    # parser before any computation; the bounds themselves parse
    for argv, flag, bound in (
        (["verify", "--type", "E6", "--level", "2", "--precision-bits",
          "99999999999999999999"], "--precision-bits", cli.MAX_PRECISION_BITS),
        (["verify", "--type", "E6", "--level", "2", "--precision-bits", "100000000"],
         "--precision-bits", cli.MAX_PRECISION_BITS),
        (["solve", "--type", "E6", "--level", "99999999999999999999"], "--level", cli.MAX_LEVEL),
        (["solve", "--type", "E7", "--level", "9223372036854775807"], "--level", cli.MAX_LEVEL),
        (["logconcave", "--type", "E7", "--level", "99999999999999999999", "--node", "7"],
         "--level", cli.MAX_LEVEL),
        (["qdim", "--type", "E8", "--level", "501", "--weight", "1,0,0,0,0,0,0,0"],
         "--level", cli.MAX_LEVEL),
        (["krdec", "--type", "E6", "--node", "1", "--k", "1", "--qdim", "--level", "2",
          "--precision-bits", "4097"], "--precision-bits", cli.MAX_PRECISION_BITS),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        value = argv[argv.index(flag) + 1]
        assert capsys.readouterr().err.endswith(
            f"error: argument {flag}: must be at most {bound}, got {value}\n"), argv
    assert (cli.MAX_LEVEL, cli.MAX_PRECISION_BITS) == (500, 4096)
    args = cli.build_parser().parse_args(["verify", "--type", "E8", "--level", "500",
                                          "--precision-bits", "4096"])
    assert (args.level, args.precision_bits) == (500, 4096)
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "restriction level, 1..500" in help_text
    assert "working precision in bits, 64..4096 (default 128)" in help_text


def test_cli_refuses_level_times_precision_and_max_order_past_their_bounds(capsys,
                                                                          monkeypatch):
    # --level times --precision-bits above MAX_LEVEL_BITS is a usage error
    # naming the bound, raised before any level context is made, on grid,
    # solve, verify and krdec --qdim; qdim and logconcave, which the bound
    # does not cover, go on to the work.  A product at the bound runs.
    # --max-order above MAX_ORDER is refused by the parser
    assert (cli.MAX_LEVEL_BITS, cli.MAX_ORDER) == (64000, 1000)

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    with monkeypatch.context() as m:
        m.setattr(cli, "LevelContext", no_work)
        m.setattr(report, "run", no_work)
        for argv in (
            ["verify", "--type", "E8", "--level", "500", "--precision-bits", "4096"],
            ["grid", "--type", "E7", "--level", "16", "--precision-bits", "4096"],
            ["solve", "--type", "E6", "--level", "251", "--precision-bits", "256"],
            ["krdec", "--type", "E6", "--node", "1", "--k", "1", "--qdim", "--level", "64",
             "--precision-bits", "1001"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            level, bits = (int(argv[argv.index(f) + 1]) for f in ("--level", "--precision-bits"))
            assert capsys.readouterr().err == (
                f"error: --level {level} times --precision-bits {bits} is {level * bits}, "
                f"more than 64000\n"), argv
        for argv in (
            ["qdim", "--type", "E8", "--level", "500", "--precision-bits", "4096",
             "--weight", "1,0,0,0,0,0,0,0"],
            ["logconcave", "--type", "E7", "--level", "500", "--node", "7",
             "--precision-bits", "4096"],
        ):
            with pytest.raises(AssertionError, match="work started"):
                main(argv)
            assert capsys.readouterr().err == "", argv
    for level, bits in ((500, 128), (250, 256), (15, 4096)):
        assert main(["qdim", "--type", "E8", "--level", str(level), "--precision-bits", str(bits),
                     "--weight", "1,0,0,0,0,0,0,0"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["logconcave", "--seq", "1", "--max-order", "1000000000"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --max-order: must be at most 1000, got 1000000000\n")
    assert main(["logconcave", "--seq", "1", "--max-order", "1000"]) == 0
    assert "log-concavity order >= 1000" in capsys.readouterr().out
    for sub, text in (("verify", "with --level times bits at most 64000"),
                      ("logconcave", "L-iterates probed, 0..1000 (default 6)")):
        with pytest.raises(SystemExit):
            main([sub, "--help"])
        assert text in " ".join(capsys.readouterr().out.split()), sub
    for sub in ("grid", "solve", "verify", "qdim", "krdec", "logconcave"):
        with pytest.raises(SystemExit):
            main([sub, "--help"])
        assert ("times bits" in capsys.readouterr().out) == (sub not in ("qdim", "logconcave"))


def test_cli_logconcave_takes_the_precision_its_line_asks(capsys):
    # the level-times-bits bound does not cover logconcave: the
    # longest E7 line that no Newton inequality decides runs at 4096 bits,
    # and prints the verdict of the library's criterion on the same line
    from qslab.qnum import alcove_line
    from qslab.rootsys import build_root_system

    argv = ["logconcave", "--type", "E7", "--level", "27", "--node", "7", "--branden",
            "--precision-bits", "4096"]
    assert main(argv) == 0
    ctx = LevelContext(build_root_system("E7"), 27, 4096)
    seq = seqanalysis.make_sequence(alcove_line(7, ctx), 4096)
    verdict = seqanalysis.verdict_text(seqanalysis.branden_criterion(seq))
    assert capsys.readouterr().out.splitlines()[-1] == f"coefficient polynomial: {verdict}"


def test_cli_refuses_kmax_past_its_bound(capsys, monkeypatch):
    # --kmax above MAX_KMAX is refused with exit 2 before any computation,
    # by grid and verify alike, where 4l would let it through (E8 L500:
    # l = 530); MAX_KMAX itself runs as far as the work
    assert cli.MAX_KMAX == 1000

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(report, "run", no_work)
    for sub in ("grid", "verify"):
        for kmax in (2120, 1001):
            with pytest.raises(SystemExit) as exc:
                main([sub, "--type", "E8", "--level", "500", "--kmax", str(kmax)])
            assert exc.value.code == 2
            assert capsys.readouterr().err == f"error: --kmax must be in 530..1000, got {kmax}\n"
        with pytest.raises(AssertionError, match="work started"):
            main([sub, "--type", "E8", "--level", "500", "--kmax", "1000"])
    with pytest.raises(SystemExit):
        main(["grid", "--help"])
    assert "l..4l and at most 1000" in " ".join(capsys.readouterr().out.split())


def test_cli_reduce_answers_far_from_the_alcove(capsys, monkeypatch):
    # 114 285 712 walls lie between this weight and the alcove: the walk
    # stops at its limit and starts again from a translate of the weight by
    # a root-lattice element, a few reflections from the alcove; the count
    # printed is the number of walls
    calls = []
    reflect = affweyl._reflect
    monkeypatch.setattr(affweyl, "_reflect", lambda *args: calls.append(1) or reflect(*args))
    assert main(["reduce", "--type", "E6", "--level", "2",
                 "--weight", "100000000,0,0,0,0,0"]) == 0
    assert capsys.readouterr().out == (
        "dominant 0,0,0,0,0,2  sign +1  reflections 114285712\n")
    assert len(calls) <= affweyl._WALK_LIMIT + 40


def test_cli_precision_comes_from_the_flag_alone(tmp_path, capsys, monkeypatch):
    qdim_argv = ["qdim", "--type", "E6", "--level", "3", "--weight", "1,0,0,0,0,0",
                 "--digits", "60"]

    def value(*extra):
        assert main(qdim_argv + list(extra)) == 0
        return capsys.readouterr().out

    default = value()
    assert value("--precision-bits", "128") == default
    assert value("--precision-bits", "256") != default
    # the environment is not read
    for text in ("abc", "256"):
        monkeypatch.setenv("QSLAB_PRECISION_BITS", text)
        assert value() == default
    # nor is a config file
    cfgfile = tmp_path / "qslab.conf"
    cfgfile.write_text("precision_bits = 256\n")
    with pytest.raises(SystemExit) as exc:
        main(qdim_argv + ["--config", str(cfgfile)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"qslab: error: unrecognized arguments: --config {cfgfile}\n")


def test_reports_are_deterministic():
    # Each pin is the SHA-256 of the JSON report (indent 2) without
    # duration_seconds and diagnostics, so every byte of those reports is fixed: a change
    # that alters a value, a rounding or a note on purpose updates the pin
    # and says why.  The correctly rounded sine table moved cells and
    # deviations in their last digits, and the E7 order_probe note reads as
    # `qslab logconcave` prints the order; no status moved.  Every pin moved
    # when the notes' numbers (positivity minimum, dilogarithm margin and
    # sum) came to be written by render_decimal, as the cells are: "min value
    # 1.0" reads "min value 1", "normalized sum 20.0" "20.0000000000"; no
    # status, cell, violation, residual or dilog.sum moved.  Every E8 pin
    # moved when positivity_window entries came to be written only at the
    # positivity-window nodes: each E8 report lost the five proven passes
    # over no cells at nodes 2, 4, 5, 6 and 7, and nothing else.  Every pin
    # moved when each quantum dimension and its scale came to be correctly
    # rounded from one fixed-point product: cells, violations, residuals and
    # sums moved in their last digits, and no status moved.  The pins moved,
    # all but E6 L2, E6 L4 and E7 L1, when the direct rows came to be summed
    # exactly before one rounding, with the zero window's rows exactly 0, and
    # the notes' numbers lost the trailing zeros of their fraction ("min value
    # 1.0000000" reads "min value 1", as an exact 1 did): cells, violations,
    # residuals and sums moved in their last digits, and only E8 L24's
    # grid_residual moved, from fail to pass (residual 2.2e-19 -> 2.1e-35).
    cases = (
        (RunConfig(type_label="E6", level=3, checks=("grid", "theorem", "dilog")), None),
        # the dilogarithm sum renders as 13.5, Kirillov's 27/2: the fixed-point
        # sum, rounded once, lands on it where the per-term mpf chain gave 13.5000...
        (RunConfig(type_label="E6", level=4),
         "a90ae7da353ad70163c647c5ee7081e49f6b0da73a114ae73659f6056adb0084"),
        # E8's derived rows, filled by subtraction and division
        (RunConfig(type_label="E8", level=2),
         "b943811db33dcf9f691b136600e0bac4355803681017326c19e57bc5c992524b"),
        # a deep level, where the scale sums and the cancellation are largest
        (RunConfig(type_label="E6", level=30, k_max=42,
                   checks=("roots", "grid", "theorem", "logconcave", "dilog")),
         "db56015ec8a19799236b59efffdd500f4e9c862c70dce3f7466523098a64c652"),
        # zero-window residues and the known unresolved cell (2, 46)
        (RunConfig(type_label="E8", level=16, checks=("grid", "theorem")),
         "82d63bdb0168c7b4c7563410115ccbc79491205e7da817c6e15c974fb71314d7"),
        (RunConfig(type_label="E7", level=28, checks=("grid", "theorem")),
         "4178d22185c6ba05d1a5c45df43f6e54b55e2092214f83ba3af9ea45d389d19c"),
        # large dilogarithm sums (the last one also holds the Branden check read
        # below), as `verify --checks roots,grid,theorem,logconcave,dilog`
        (RunConfig(type_label="E6", level=30,
                   checks=("roots", "grid", "theorem", "logconcave", "dilog")),
         "e072b6e833fdce580518b67f25f7b82e5dea7dddf7524dd51d46b83e0970c825"),
        (RunConfig(type_label="E7", level=11,
                   checks=("roots", "grid", "theorem", "logconcave", "dilog")),
         "cc867b59a4125173b569a49d6de42d54cabb0e79a1de7c7a3ad0286f61a63006"),
        (RunConfig(type_label="E8", level=4,
                   checks=("roots", "grid", "theorem", "logconcave", "dilog")),
         "052e0edbfb7e8ca7cecba6140ed32f72eefca33414ef560ef5475a55e043fa6f"),
        # full verify at the north-star configurations, solve and weyl included
        (RunConfig(type_label="E7", level=12),
         "00c256aa287b6f33066f622c70e0c2378cc9fb595495137cc1432eff2defa3cc"),
        (RunConfig(type_label="E8", level=8),
         "eb84e3a2e3fe293084ed38492c70a7b68b39dccd86467b5ad06b1e1655147f89"),
        # the rest of the benchmark's reports: its other five-group sweeps
        # (E7 L28 holds the failing log-concavity check, E8 L16 the
        # unresolved cell) and its other full verify runs
        (RunConfig(type_label="E6", level=6,
                   checks=("roots", "grid", "theorem", "logconcave", "dilog")),
         "8c16dc25f9966827dd924a15284d8c8f2b54e95741e0fe795a443f89f76272ce"),
        (RunConfig(type_label="E7", level=1,
                   checks=("roots", "grid", "theorem", "logconcave", "dilog")),
         "2520a96cf6bfc016afc415621a3e1ba6032c675b674d474141e1b675df00c46f"),
        (RunConfig(type_label="E7", level=4,
                   checks=("roots", "grid", "theorem", "logconcave", "dilog")),
         "27fccddb611500a59b9c3d84d4e857bd3f4511f03444cc15115efa4f6f0278a6"),
        (RunConfig(type_label="E7", level=28,
                   checks=("roots", "grid", "theorem", "logconcave", "dilog")),
         "25d8d5a3ec901c65cbe76aa8deb8f8ece4e393faab3e1337315cfeb934b6a1c3"),
        (RunConfig(type_label="E8", level=16,
                   checks=("roots", "grid", "theorem", "logconcave", "dilog")),
         "d48992ff970bbec708744ac45ee8d807fd4bcabf617dc225f275bfa19c487f1a"),
        (RunConfig(type_label="E6", level=2),
         "4cd3352d52faead2a2905f9783abac806b1fa5f3af0ae59d75badf6300c11ac3"),
        (RunConfig(type_label="E7", level=2),
         "62c740bf0e35827a3a0d7179eca4ddbd0a30abb27ac201add013562d98cd5e00"),
        # the logconcave group off 128 bits, where entries at p and
        # tolerances at 128 bits meet in one sum or comparison
        (RunConfig(type_label="E7", level=12, precision_bits=64, checks=("logconcave",)),
         "9e4702beb317b68d7d304f6801effb670f05e273eca422fcafc53ffe4efe10ac"),
        (RunConfig(type_label="E7", level=12, precision_bits=256, checks=("logconcave",)),
         "f6b73a70d8ab17df4c6f48b4ec5d29fb9b136847138e2d0af00661b77ee0f72d"),
        # failing proven checks at 128 bits: an inf violation and a
        # conjecture-violated dilog_args
        (RunConfig(type_label="E8", level=24, precision_bits=128),
         "35ffc94f1a06a69dd59eb5a990c6238c604facbe79006945e317d465e2ca63df"),
        (RunConfig(type_label="E7", level=12,
                   checks=("roots", "grid", "theorem", "logconcave", "dilog")),
         "9afa0c32461315b9f1d6680c38db2ec0cc920a757d5ea5b582cd3f2aedacccb5"),
    )
    for cfg, golden in cases:
        a = report_to_dict(run(cfg))
        b = report_to_dict(run(cfg))
        for key in ("duration_seconds", "diagnostics"):
            a.pop(key)
            b.pop(key)
        assert a == b
        if golden is not None:
            digest = hashlib.sha256(json.dumps(a, indent=2).encode()).hexdigest()
            assert digest == golden, (cfg.type_label, cfg.level)
    branden = [c for c in a["checks"] if c["name"] == "branden"]
    assert [c["note"] for c in branden] == ["not_real_negative (non-real root (exact count))"]


_SWEEP = ("roots", "grid", "theorem", "logconcave", "dilog")


@pytest.mark.parametrize("cfg", [
    # the benchmark's reports: verify-matrix, every check group, and level-sweep
    *(RunConfig(t, level) for t, level in (("E6", 2), ("E6", 4), ("E7", 2), ("E8", 2))),
    *(RunConfig(t, level, checks=_SWEEP) for t, level in (
        ("E6", 6), ("E6", 30), ("E7", 1), ("E7", 4), ("E7", 11), ("E7", 12), ("E7", 28),
        ("E8", 4), ("E8", 16))),
], ids=lambda cfg: f"{cfg.type_label}L{cfg.level}-{len(cfg.checks)}")
def test_note_numbers_are_written_as_the_report_numbers(cfg):
    # a note's number is render_decimal of the value it names, as the cells
    # and the dilog block write theirs: the least cell of a node on
    # [0, level] (an unresolved cell reads -inf) and the dilogarithm sum
    def exact(t):
        sign, man, exp = t
        return Fraction(-man if sign else man) * Fraction(2) ** exp

    rep = run(cfg)
    notes = {(c.name, c.node): c.note for c in rep.checks}
    for i, row in enumerate(rep.grid.rows, 1):
        line = row[:cfg.level + 1]
        least = "-inf" if None in line else render_note(min(line, key=exact), 8)
        assert notes["positivity", i] == f"min value {least}", i
    assert notes["dilog_sum", None] == f"normalized sum {render_note(rep.dilog_sum, 12)}"


@pytest.mark.parametrize("cfg", [
    # the verify-matrix configurations, every check group
    RunConfig(type_label="E6", level=2),
    RunConfig(type_label="E6", level=4),
    RunConfig(type_label="E7", level=2),
    RunConfig(type_label="E8", level=2),
    # the unresolved cell (2, 46) is written as null
    RunConfig(type_label="E8", level=16,
              checks=("roots", "grid", "theorem", "logconcave", "dilog")),
    # no grid, so an empty cells list
    RunConfig(type_label="E7", level=3, checks=("roots", "weyl")),
], ids=lambda cfg: f"{cfg.type_label}L{cfg.level}-{'-'.join(cfg.checks)}")
def test_json_writer_is_json_dumps(cfg):
    rep = run(cfg)
    data = report_to_dict(rep)
    assert write_report(rep) == json.dumps(data, indent=2) + "\n"
    if cfg.type_label == "E8" and cfg.level == 16:
        unresolved = [(c["node"], c["k"]) for c in data["cells"] if c["value"] is None]
        assert unresolved == [(2, 46)]
        assert '"value": null,' in write_report(rep)
    if "grid" not in cfg.checks:
        assert data["cells"] == [] and '"cells": [],' in write_report(rep)
    # notes with a quote, a backslash and a non-ASCII character, and a check
    # with a null node, on top of the run's own checks
    odd = copy.copy(rep)
    odd.checks = [*rep.checks, CheckResult(
        "odd_note", None, "fail", False, (0, 3, -1, 2), 'say "\\" or \u00e9\n')]
    odd_data = report_to_dict(odd)
    assert odd_data["checks"][-1]["node"] is None
    assert write_report(odd) == json.dumps(odd_data, indent=2) + "\n"
    assert '"note": "say \\"\\\\\\" or \\u00e9\\n"' in write_report(odd)



@pytest.mark.parametrize("cfg,digests", [
    # the unresolved cell (2, 46) is written as null
    (RunConfig("E8", 16, checks=("roots", "grid", "theorem", "logconcave", "dilog")),
     {"csv": "a36c66f323dcdbe7a75de5960377d6055ae2e00763113ee0afdc8c9c45618926",
      "text": "b76c75e37b50946a27a199878bc0d77a1ca3480161f48291679d7423fafbc6bb"}),
    (RunConfig("E6", 2),
     {"csv": "30fba2be8ec56e187c4191563fd761756075dd5f57c622bbb7eed5de1818cab0",
      "text": "5ad1cf347c30fecc202c3f408c189ef1e5b9a8951815b4d1bd51bede90aca458"}),
    # no grid
    (RunConfig("E7", 3, checks=("roots", "weyl")),
     {"text": "3d5f5d85ac107d9103735c57e6d04922211df78abce583c1996ed55190566621"}),
], ids=["E8L16", "E6L2", "E7L3-no-grid"])
def test_json_writer_renders_each_distinct_cell_once(cfg, digests, monkeypatch):
    # the json text is json.dumps(report_to_dict(rep), indent=2) with each
    # distinct cell value rendered once: the writer's render_decimal calls
    # are report_to_dict's for the grid-less fields plus one per distinct
    # value.  The csv and text writers are pinned by the SHA-256 of their
    # output before the json writer changed.
    rep = run(cfg)
    expected = json.dumps(report_to_dict(rep), indent=2) + "\n"
    rendered = []
    real_render = report.render_decimal

    def counted_render(x, *args):
        rendered.append(x)
        return real_render(x, *args)

    monkeypatch.setattr(report, "render_decimal", counted_render)
    bare = copy.copy(rep)
    bare.grid = None
    report_to_dict(bare)
    fields = len(rendered)
    assert write_report(rep) == expected
    distinct = set() if rep.grid is None else {*itertools.chain(*rep.grid.rows)} - {None}
    assert len(rendered) == 2 * fields + len(distinct) + (rep.grid is not None)
    monkeypatch.undo()
    for fmt, digest in digests.items():
        other = copy.copy(rep)
        other.config = cfg._replace(fmt=fmt)
        assert hashlib.sha256(write_report(other).encode()).hexdigest() == digest, fmt


def test_grid_command_json_is_json_dumps(monkeypatch, tmp_path, capsys):
    reports = []
    real_run = report.run

    def recording_run(cfg):
        reports.append(real_run(cfg))
        return reports[-1]

    monkeypatch.setattr(report, "run", recording_run)
    path = tmp_path / "grid.json"
    assert main(["grid", "--type", "E7", "--level", "4", "--format", "json",
                 "--out", str(path)]) == 0
    assert main(["grid", "--type", "E7", "--level", "4"]) == 0
    expected = [json.dumps(report_to_dict(r), indent=2) + "\n" for r in reports]
    assert [path.read_text(), capsys.readouterr().out] == expected


def test_cli_calls_in_one_process_match_fresh_interpreters(capsys):
    # main shares one parser, one root system per type and one mpmath context
    # per precision across calls; each call's output must be what a fresh
    # interpreter prints, so no default or state leaks from one call into the
    # next, not even from a call at another precision
    calls = (
        ["verify", "--type", "E6", "--level", "2", "--checks", "roots"],
        ["verify", "--type", "E6", "--level", "2"],
        # 1e-20 stops one correction before the default tolerance does
        ["solve", "--type", "E6", "--level", "4", "--tol", "1e-20"],
        ["solve", "--type", "E6", "--level", "4"],
        ["solve", "--type", "E6", "--level", "4", "--precision-bits", "256", "--tol", "1e-60"],
        ["solve", "--type", "E6", "--level", "4"],
    )
    src = str(Path(qslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    drop_duration = functools.partial(
        re.sub, r'"duration_seconds": [0-9.e-]+,\n  "diagnostics": \{.*?\n  \}', "", flags=re.S)
    outputs = []
    for argv in calls:
        code = main(argv)
        out = capsys.readouterr().out
        fresh = subprocess.run([sys.executable, "-m", "qslab.cli", *argv], env=env,
                               capture_output=True, text=True, check=False)
        assert (code, drop_duration(out)) == (fresh.returncode, drop_duration(fresh.stdout)), argv
        outputs.append(out)
    assert outputs[2] != outputs[3]  # the two tolerances stop at different residuals
    assert outputs[4] != outputs[3] and outputs[5] == outputs[3]


def test_solve_output_is_pinned(capsys):
    # the SHA-256 of the concatenated stdout of qslab solve, as for the
    # report pins above
    out = []
    for label, level in (("E6", 4), ("E6", 8), ("E7", 3), ("E7", 5), ("E8", 3)):
        assert main(["solve", "--type", label, "--level", str(level)]) == 0
        out.append(capsys.readouterr().out)
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == "7325d19c0b216eebe9c3c8670101c4572a74ae203a8adeebee0d7397f0f85a3d"


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
    negative coordinate, s5 reflects a weight with a negative coordinate
    as if that coordinate were 0 (a map that is not affine), or s4 also adds
    lam_1 to coordinate 1 (right at 0, with a wrong linear part)."""
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
        if fault == "s4-linear" and tuple(word) == (4,):
            return (image[0] + lam[0],) + image[1:], parity
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
                                   "parity-negative", "s4-linear"])
def test_sign_identity_fails_on_a_faulty_generator(rs_map, monkeypatch, tmp_path, fault):
    # exactly the faulty generators fail at E7 L2 and L5; parity +1 fails all
    # eight.  A clean certificate first builds the root system's table, which
    # must not carry a clean answer over to the faulty map.
    failing = {"s0": {0}, "s3": {3}, "parity": set(range(8)), "s5": {5},
               "s0-level": {0}, "s2": {2}, "parity-negative": set(range(8)),
               "s4-linear": {4}}[fault]
    assert report.sign_identity_trials(LevelContext(rs_map["E7"], 2)) == 0
    contexts = [LevelContext(rs_map["E7"], level) for level in (2, 5)]
    weights = [_oracle_weights(ctx, 120, seed=ctx.level) for ctx in contexts]
    monkeypatch.setattr(affweyl, "apply_word", _faulty_apply_word(fault))
    for ctx, sample in zip(contexts, weights):
        assert _certificate_failing_generators(ctx) == failing
        if fault == "s5":
            # the images of 0 and of the unit vectors are right: only the
            # non-dominant probes expose the fault
            assert _certificate_failing_generators(ctx, trials=0) == set()
        assert _oracle_failing_generators(ctx, sample) == failing
        assert report.sign_identity_trials(ctx) == len(failing)
        path = tmp_path / f"weyl{ctx.level}.json"
        assert main(["verify", "--type", "E7", "--level", str(ctx.level), "--checks", "weyl",
                     "--out", str(path)]) == 1
        (check,) = [c for c in json.loads(path.read_text())["checks"]
                    if c["name"] == "sign_identity"]
        assert check["status"] == "fail" and check["proven"]
        assert check["max_violation"] == str(len(failing))


def _clamping_word(word, letter):
    """apply_word that, inside ``word`` alone, applies ``letter`` to the
    weight with its negative coordinates raised to 0: a word map that is not
    affine."""
    original = affweyl.apply_word

    def apply_word(w, lam, ctx):
        if tuple(w) != word:
            return original(w, lam, ctx)
        for g in reversed(word):
            if g == letter:
                lam = tuple(max(x, 0) for x in lam)
            lam = original((g,), lam, ctx)[0]
        return lam, -1 if len(word) % 2 else 1

    return apply_word


def _old_fixed_word_notes(ctx):
    """The failure notes of the E7 word at its 81 sample points, each point
    sent through apply_word on its own."""
    level, bad = ctx.level, []
    for p in range(-2, 7):
        for q in range(-2, 7):
            lam = tuple(p if j == 1 else q if j == 6 else 0 for j in range(7))
            image, parity = affweyl.apply_word(E7_WORD, lam, ctx)
            expect = tuple((level - p + 7) if j == 1 else (2 * p + q - level - 7) if j == 6
                           else 0 for j in range(7))
            if image != expect or parity != -1:
                bad.append(f"w . ({p}w2+{q}w7)")
    return "; ".join(bad[:4])


@pytest.mark.parametrize("level", [2, 5])
def test_fixed_word_check_reads_the_word_map(rs_map, monkeypatch, level):
    ctx = LevelContext(rs_map["E7"], level)
    assert report.fixed_word_image_check(ctx).status == "pass"
    probes = report.sign_probes(7, 4)
    original = affweyl.apply_word
    # the s5 clamp of the sign tests, planted inside the E7 word
    monkeypatch.setattr(affweyl, "apply_word", _clamping_word(E7_WORD, 5))
    assert report.word_map(ctx, E7_WORD, probes) is None
    check = report.fixed_word_image_check(ctx)
    assert (check.status, check.note) == ("fail", "w . lam not affine with one parity")
    # an off-by-one in the coefficient of p at coordinate 7 of the image: the
    # map stays affine, and the note names the sample points that a check of
    # each point on its own names, those with p != 0
    def off_by_one(j, coefficient):
        def apply_word(word, lam, ctx):
            image, parity = original(word, lam, ctx)
            if tuple(word) != E7_WORD:
                return image, parity
            return image[:j] + (image[j] + coefficient(lam),) + image[j + 1:], parity
        return apply_word

    monkeypatch.setattr(affweyl, "apply_word", off_by_one(6, lambda lam: lam[1]))
    check = report.fixed_word_image_check(ctx)
    assert check.status == "fail"
    assert check.note == _old_fixed_word_notes(ctx) == (
        "w . (-2w2+-2w7); w . (-2w2+-1w7); w . (-2w2+0w7); w . (-2w2+1w7)")
    # an off-by-one in a constant, at a coordinate outside the family, fails
    # every sample point
    monkeypatch.setattr(affweyl, "apply_word", off_by_one(0, lambda lam: 1))
    check = report.fixed_word_image_check(ctx)
    assert check.status == "fail" and check.note == _old_fixed_word_notes(ctx)


@pytest.mark.parametrize("label,level", [("E6", 2), ("E6", 4), ("E7", 2), ("E8", 2)])
def test_second_verify_in_a_process_writes_the_same_report(tmp_path, label, level):
    # the root systems' tables and the parsed fixtures outlive a verify; the
    # next one in the process must write the same report
    texts = []
    for n in range(2):
        path = tmp_path / f"{n}.json"
        assert main(["verify", "--type", label, "--level", str(level),
                     "--report", str(path)]) == 0
        data = json.loads(path.read_text())
        data.pop("duration_seconds")
        data.pop("diagnostics")
        texts.append(json.dumps(data, indent=2))
    assert texts[0] == texts[1]


@pytest.mark.parametrize("label,level", [("E7", 28), ("E8", 24)])
def test_weyl_group_certifies_above_level_12_without_sines(monkeypatch, label, level):
    # both Weyl checks are integer certificates: no qdim, and no sine table
    def no_sines(*args, **kwargs):
        raise AssertionError("the weyl group evaluated a sine")

    monkeypatch.setattr(qnum, "qdim", no_sines)
    monkeypatch.setattr(qnum.LevelContext, "_ratio_rows", no_sines)
    monkeypatch.setattr(qnum, "_abs_sines", no_sines)
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


def test_run_fails_on_corrupted_fixture(monkeypatch):
    _plant_rows(monkeypatch, "E7", "positive_roots", {10: lambda r: (r[0], r[1] + 1, *r[2:])})
    out = run(RunConfig(type_label="E7", level=1, checks=("roots",)))
    assert out.overall == "fail"
    assert out.exit_code == 1


@pytest.mark.parametrize("label,status", [("E6", "fail"), ("E7", "conjecture-violated")])
def test_dilog_argument_out_of_range_is_a_failed_check(rs_map, label, status):
    from qslab.qsolver import build_qgrid
    from qslab.report import VerificationReport

    # every cell stays positive, but the ratio at (1, 1) grows to about 8000
    ctx = LevelContext(rs_map[label], 2)
    grid = build_qgrid(ctx)
    grid.rows[0][1] = triple(mpf_cell(grid, 1, 1) / 100, ctx.precision_bits)
    rep_obj = VerificationReport(config=RunConfig(type_label=label, level=2),
                                 shifted_level=ctx.shifted_level, checks=[])
    checks = report._dilog_checks(rep_obj, ctx, grid)
    assert [(c.name, c.status) for c in checks] == [("dilog_args", status)]
    assert ctx.mp.make_mpf(raw(checks[0].max_violation)) > 1000
    assert rep_obj.dilog_in_range is False
    assert rep_obj.dilog_sum is None
    rep_obj.checks = checks
    rep_obj.grid = grid
    rep_obj.finalize()
    assert report_to_dict(rep_obj)["dilog"] == {"args_in_range": False, "sum": None}
