"""The slow tier: the command lines at the CLI's bounds, each within the
budget of ``test_cli_robustness``.

Run it with ``python -m pytest -q tests/slow_bounds.py``; the tier-1 run
does not collect it, as its name does not start with ``test_``.  One child
process runs ``test_cli_robustness.CHILD`` over the fixed argv lists of
BOUNDS, under the same address-space limit (ADDRESS_SPACE) and per-case
alarm (CASE_BUDGET_S), and each case must exit with 0, 1 or 2, print no
traceback and answer within the budget.  The seconds of every case are
printed.  At E6 L100, L200 and L500 the folded grid path is compared bit
for bit with the unfolded one, as tier-1 does at E6 L1-40.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qslab
from qslab import cli
from qslab.rootsys import build_root_system

import oracles
from test_cli_robustness import ADDRESS_SPACE, CASE_BUDGET_S, CHILD


def _double_root_seq(entries: int) -> str:
    """The coefficients of (x + 1)^2 q(x), q the binomial line C(entries - 3,
    k) times exp(-k^2 / 10) in floats, scaled to integers by one power of
    two: a real-rooted polynomial with a double root, each coefficient of
    at most 106 significant bits, so --seq reads it exactly, and the double
    root sends the Branden check to its Sturm chain."""
    q = [Fraction(math.comb(entries - 3, k) * math.exp(-k * k / 10)) for k in range(entries - 2)]
    coeffs = [a + 2 * b + c for a, b, c in zip([*q, 0, 0], [0, *q, 0], [0, 0, *q])]
    scale = max(c.denominator for c in coeffs)
    return ",".join(str(int(c * scale)) for c in coeffs)


def _krdec_qdim(k: int, bits: int) -> list[str]:
    """krdec --qdim of E8 node 1 at --k ``k``, whose (k + 1)(k + 2) / 2
    terms times ``bits`` stay within MAX_KRDEC_TERM_BITS, at the largest
    level that MAX_LEVEL_BITS allows with them."""
    assert (k + 1) * (k + 2) // 2 * bits <= cli.MAX_KRDEC_TERM_BITS
    level = min(cli.MAX_LEVEL, cli.MAX_LEVEL_BITS // bits)
    return ["krdec", "--type", "E8", "--node", "1", "--k", str(k), "--level", str(level),
            "--qdim", "--precision-bits", str(bits)]


LEVEL = str(cli.MAX_LEVEL)
BOUNDS = [
    *([command, "--type", label, "--level", LEVEL]
      for command in ("grid", "solve", "verify") for label in ("E6", "E7", "E8")),
    ["grid", "--type", "E8", "--level", LEVEL, "--kmax", str(cli.MAX_KMAX)],
    # verify along MAX_LEVEL_BITS, from the most bits to the default
    *(["verify", "--type", "E8", "--level", str(cli.MAX_LEVEL_BITS // bits),
       "--precision-bits", str(bits)] for bits in (cli.MAX_PRECISION_BITS, 1024, 256)),
    _krdec_qdim(1000, 128),
    _krdec_qdim(400, 1024),
    _krdec_qdim(200, cli.MAX_PRECISION_BITS),
    ["logconcave", "--type", "E6", "--level", LEVEL, "--node", "1",
     "--max-order", str(cli.MAX_ORDER)],
    ["logconcave", "--seq", _double_root_seq(cli.MAX_BRANDEN_ENTRIES), "--branden"],
]


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    src = str(Path(qslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    child = subprocess.run([sys.executable, "-c", CHILD, str(CASE_BUDGET_S), str(ADDRESS_SPACE)],
                           input=json.dumps(BOUNDS), env=env, cwd=tmp_path_factory.mktemp("cwd"),
                           capture_output=True, text=True,
                           timeout=CASE_BUDGET_S * (len(BOUNDS) + 1), check=False)
    assert child.returncode == 0, child.stderr[-2000:]
    out = [json.loads(line) for line in child.stdout.splitlines()]
    assert [r["argv"] for r in out] == BOUNDS
    return out


def _name(argv: list[str]) -> str:
    """The argv as one line, a --seq value shortened to its entry count."""
    words = [f"<{w.count(',') + 1} entries>" if prev == "--seq" else w
             for prev, w in zip(["", *argv], argv)]
    return " ".join(words)


@pytest.mark.parametrize("case", range(len(BOUNDS)), ids=[_name(a) for a in BOUNDS])
def test_bound_answers_in_budget(results, case, capsys):
    r = results[case]
    with capsys.disabled():
        print(f"\n{r['seconds']:7.2f} s  exit {r['code']}  {_name(r['argv'])}", end="")
    assert not r["crash"], r["crash"]
    assert not r["traceback"]
    assert r["code"] in (0, 1, 2)
    assert math.isfinite(r["seconds"]) and r["seconds"] <= CASE_BUDGET_S


@pytest.mark.parametrize("level", [100, 200, 500])
def test_folded_grid_path_equals_the_unfolded_one(level):
    # test_qsolver's comparison of the same name, at deeper levels
    for what, folded, unfolded in oracles.fold_pairs(build_root_system("E6"), level):
        assert folded == unfolded, (level, what)
