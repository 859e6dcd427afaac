"""The package's value types and its import graph.

The value types are named tuples and plain classes, so importing qslab pulls
in neither ``dataclasses`` nor the ``inspect`` module it loads.  Each type
keeps its name, module, field order and defaults, equality by fields, and,
where it is read-only, rejects attribute assignment.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

from qslab.affweyl import AffineReduction
from qslab.krchar import KRDecomposition
from qslab.qnum import DEFAULT_PRECISION_BITS, LevelContext
from qslab.qsolver import CheckResult, QGrid, build_qgrid
from qslab.report import ALL_CHECKS, RunConfig, VerificationReport, run, write_report
from qslab.rootsys import TYPE_DATA, RootSystem, TypeData, build_root_system, cartan_matrix

from oracles import closure_system, mpf_entries
from qslab.seqanalysis import RealSequence, RootednessVerdict, make_sequence

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["qslab", "qslab.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); bare = set(sys.modules); "
            f"import {module}; print(' '.join(sorted(set(sys.modules) - bare)))")
    added = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, timeout=60).stdout.split()
    assert module in added
    assert "dataclasses" not in added and "inspect" not in added


# Each command line runs through qslab.cli.main in one fresh interpreter;
# the script prints, after each, whether mpmath has been imported, then
# after reading the given read-out.
_COMMANDS = (
    ["verify", "--type", "E6", "--level", "2"],
    ["grid", "--type", "E7", "--level", "3"],
    ["solve", "--type", "E8", "--level", "2"],
    ["qdim", "--type", "E6", "--level", "3", "--weight", "1,0,0,0,0,1"],
    ["krdec", "--type", "E7", "--node", "7", "--k", "2", "--qdim", "--level", "4"],
    ["reduce", "--type", "E8", "--level", "3", "--weight=-1,2,0,0,0,0,0,5"],
    ["logconcave", "--type", "E7", "--level", "12", "--node", "7", "--branden"],
)
_GUARD = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import qslab
from qslab.cli import main
from qslab.qnum import LevelContext, qdim
from qslab.qsolver import build_qgrid
seen = ["mpmath" in sys.modules]
for n, argv in enumerate(json.loads(sys.argv[2])):
    assert main(argv + ["--out", os.path.join(sys.argv[3], str(n))]) == 0, argv
    seen.append("mpmath" in sys.modules)
ctx = LevelContext(qslab.build_root_system("E6"), 2)
value = build_qgrid(ctx).cell(1, 1) if sys.argv[4] == "cell" else qdim((1,) * 6, ctx).value
seen.append("mpmath" in sys.modules and type(value).__module__.startswith("mpmath"))
print(json.dumps(seen))
"""


@pytest.mark.parametrize("read_out", ["cell", "value"])
def test_commands_run_without_mpmath(tmp_path, read_out):
    # import qslab and every command but logconcave --seq leave mpmath
    # unimported; QGrid.cell and QReal.value import it when read
    out = subprocess.run(
        [sys.executable, "-c", _GUARD, str(SRC), json.dumps(_COMMANDS), str(tmp_path), read_out],
        capture_output=True, text=True, check=True, timeout=120).stdout
    seen = json.loads(out.splitlines()[-1])  # verify --out prints its verdict first
    assert seen == [False] * (len(_COMMANDS) + 1) + [True]


def _read_only_values():
    rs = build_root_system("E6")
    return [
        (TYPE_DATA["E6"], "coxeter_number"),
        (rs, "rank"),
        (KRDecomposition(1, 0, ((1, (0,) * 6),)), "terms"),
        (AffineReduction("dominant", (0,) * 6, 1, 0), "sign"),
        (make_sequence([1, 2, 1]), "entries"),
        (RootednessVerdict("real_negative"), "witness"),
        (RunConfig("E6", 2), "level"),
    ]


@pytest.mark.parametrize("value,field", _read_only_values(),
                         ids=lambda v: type(v).__name__ if not isinstance(v, str) else v)
def test_read_only_types_reject_assignment(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        value.unknown_field = 1
    assert getattr(value, field) == before


def test_types_keep_name_module_and_field_order():
    for cls, name, module in (
            (TypeData, "TypeData", "rootsys"), (RootSystem, "RootSystem", "rootsys"),
            (KRDecomposition, "KRDecomposition", "krchar"),
            (AffineReduction, "AffineReduction", "affweyl"),
            (CheckResult, "CheckResult", "qsolver"), (QGrid, "QGrid", "qsolver"),
            (RealSequence, "RealSequence", "seqanalysis"),
            (RootednessVerdict, "RootednessVerdict", "seqanalysis"),
            (RunConfig, "RunConfig", "report"),
            (VerificationReport, "VerificationReport", "report")):
        assert (cls.__name__, cls.__module__) == (name, "qslab." + module)
    assert repr(RunConfig("E6", 2)).startswith("RunConfig(type_label='E6', level=2,")
    assert RunConfig._fields == ("type_label", "level", "precision_bits", "k_max", "fmt",
                                 "checks")
    assert KRDecomposition._fields == ("node", "box_count", "terms")
    assert CheckResult._fields == ("name", "node", "status", "proven", "max_violation", "note")
    assert RootSystem._fields == ("type_label", "rank", "cartan", "positive_roots", "marks",
                                  "coxeter_number", "highest_root_index")


def test_positional_and_keyword_construction_with_defaults():
    assert RunConfig("E6", 2) == RunConfig(type_label="E6", level=2,
                                           precision_bits=DEFAULT_PRECISION_BITS, k_max=None,
                                           fmt="json", checks=ALL_CHECKS)
    assert CheckResult("x", None, "pass", True) == CheckResult(
        name="x", node=None, status="pass", proven=True, max_violation=None, note="")
    assert RootednessVerdict("real_negative").witness is None
    assert KRDecomposition(2, 1, ()) == KRDecomposition(node=2, box_count=1, terms=())
    seq = make_sequence([1, 2, 1])
    assert RealSequence(seq.entries, seq.tolerance) == RealSequence(
        tolerance=seq.tolerance, entries=seq.entries, precision_bits=DEFAULT_PRECISION_BITS) == seq
    assert len(seq) == 3
    # the entries are 128-bit triples, which read back as the values given
    assert all(type(e) is tuple and e[1].bit_length() == 128 for e in seq.entries)
    assert mpf_entries(seq) == [1, 2, 1]


def test_root_systems_compare_by_their_fields():
    first = closure_system(cartan_matrix("E7"), "E7")
    second = closure_system(cartan_matrix("E7"), "E7")
    assert first.heights and first.neighbors  # cached on one side only
    assert first is not second and first == second
    assert "heights" in vars(first) and "heights" not in vars(second)
    # the label is a field too
    assert first != closure_system(cartan_matrix("E7"), "E7'")
    assert first != build_root_system("E6")
    # the cached properties are stored past the assignment guard
    assert second.theta_weight == build_root_system("E7").theta_weight


def test_replace_builds_through_the_checks():
    cfg = RunConfig("E6", 2)
    assert cfg._replace(level=3) == RunConfig("E6", 3)
    with pytest.raises(ValueError, match="level must be at least 1"):
        cfg._replace(level=0)
    with pytest.raises(ValueError, match="unknown check"):
        RunConfig._make(("E6", 2, DEFAULT_PRECISION_BITS, None, "json", ("bogus",)))
    dec = KRDecomposition(1, 1, ((1, (1, 0, 0, 0, 0, 0)),))
    with pytest.raises(ValueError, match="duplicate weight"):
        dec._replace(terms=dec.terms * 2)
    assert copy.copy(cfg) == cfg and copy.copy(dec) == dec
    check = CheckResult("x", 1, "pass", True)
    assert check._replace(status="fail") == CheckResult("x", 1, "fail", True)


def test_grids_and_reports_stay_mutable():
    ctx = LevelContext(build_root_system("E6"), 2)
    grid, again = build_qgrid(ctx), build_qgrid(ctx)
    assert grid == again and grid != build_qgrid(LevelContext(ctx.root_system, 3))
    fresh = QGrid(ctx.root_system, 2, 2, [], ctx.precision_bits, [])
    assert fresh.unresolved == [] and fresh.unresolved is not QGrid(
        ctx.root_system, 2, 2, [], ctx.precision_bits, []).unresolved
    grid.residual_max = None
    assert grid != again
    rep = VerificationReport(RunConfig("E6", 2), 14, [])
    assert (rep.grid, rep.overall, rep.duration_seconds) == (None, "pass", 0.0)
    rep.checks.append(CheckResult("x", None, "fail", True))
    rep.finalize()
    assert rep.overall == "fail" and rep.exit_code == 1
    assert rep != VerificationReport(RunConfig("E6", 2), 14, [])


@pytest.mark.parametrize("field,value", [("level", 2.5), ("precision_bits", 100.5),
                                         ("k_max", 20.5)])
def test_run_config_refuses_a_non_integer(field, value):
    # a float level would run at its integer part while the report names the float
    with pytest.raises(TypeError):
        RunConfig("E6", 2, checks=("grid",))._replace(**{field: value})


def test_run_config_looks_up_its_type_label_without_k_max():
    for checks in (ALL_CHECKS, ("roots",)):
        with pytest.raises(ValueError, match="unknown type label 'E9'"):
            RunConfig("E9", 2, checks=checks)
    assert RunConfig("e7", 2).type_label == "E7"


def test_run_config_checks_its_label_as_build_root_system_does():
    # one rule: anything but a string is a TypeError naming the E types, and
    # a string outside them a ValueError
    for label in (None, 7):
        with pytest.raises(TypeError, match="E6, E7 or E8"):
            RunConfig(label, 2)
    with pytest.raises(ValueError, match="unknown type label 'F4'"):
        RunConfig("F4", 2)


@pytest.mark.parametrize("args,key,stored", [(("e6", 2), "type", "E6"),
                                             (("E6", True), "level", 1)])
def test_run_config_stores_the_values_it_checked(args, key, stored):
    # a lower-case label builds E6 and a bool level runs level 1; the report
    # names that run, not the raw argument
    cfg = RunConfig(*args, checks=("grid",))
    written = json.loads(write_report(run(cfg), None))[key]
    assert written == stored and type(written) is type(stored)


@pytest.mark.parametrize("level,bits", [(2.9, 128), (2, 128.7), (2.0, 128)])
def test_level_context_refuses_a_non_integer(level, bits):
    with pytest.raises(TypeError):
        LevelContext(build_root_system("E6"), level, bits)
