"""Every command line answers within a budget, with exit 0, 1 or 2 and no
traceback.

A ``hypothesis`` strategy builds argv lists from each subcommand's grammar:
valid values, the bounds and one past them, huge integers, malformed
numbers, and empty and non-ASCII strings.  One child process runs every
case through ``qslab.cli.main`` in turn, under an address-space limit and a
per-case alarm that it sets on itself, and reports each case's exit code,
whether stderr held a traceback, and its time.

The valid levels of grid, solve and verify stay at 1..4 and their precision
at most 128 bits, so the run stays short; the bounds themselves (level 500,
4096 bits, their product) are timed in the comments of ``qslab.cli``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

import qslab

# Seconds each case may take, and the child's address space in bytes.
CASE_BUDGET_S = 30
ADDRESS_SPACE = 2 << 30
CASES = 600

CHILD = r"""
import contextlib, io, json, resource, signal, sys, time, traceback

budget, limit = int(sys.argv[1]), int(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))

class Timeout(BaseException):
    pass

def ring(signum, frame):
    raise Timeout

signal.signal(signal.SIGALRM, ring)
from qslab.cli import main

for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    code, crash, start = None, None, time.perf_counter()
    signal.alarm(budget)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    except Timeout:
        crash = "no answer within the alarm"
    except BaseException:
        crash = traceback.format_exc()
    finally:
        signal.alarm(0)
    print(json.dumps({"argv": argv, "code": code, "crash": crash,
                      "traceback": "Traceback" in err.getvalue(),
                      "seconds": time.perf_counter() - start}), flush=True)
"""

HUGE = [str(10**30), str(-10**30), "9" * 5000]
MALFORMED = ["", " ", "x", "1.5", "1e3", "0x10", "1_0", "--", "é6", "٢", "²",
             "\U0001d7d9"]
TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
               max_size=6)


def mostly(valid, invalid):
    """``valid`` nine times in ten, else ``invalid``."""
    return st.integers(0, 9).flatmap(lambda i: invalid if i == 9 else valid)


def number(valid, bounds=()):
    """An integer flag's value as text: mostly from ``valid``, else a bound
    or one past it, a huge integer, a malformed number or a short string."""
    return mostly(valid.map(str), st.one_of(st.sampled_from([str(b) for b in bounds] + HUGE),
                                            st.sampled_from(MALFORMED), TEXT))


def text(valid):
    return mostly(st.sampled_from(valid), st.one_of(st.sampled_from(["", "é", "E9", "A1"]),
                                                    TEXT))


TYPES = text(["E6", "E7", "E8", "e8"])
SMALL_LEVEL = number(st.integers(1, 4), (0, -1, 501))
LEVEL = number(st.integers(1, 30), (0, 1, 500, 501))
BITS = number(st.sampled_from([64, 100, 128]), (63, 4097, -64))
CHEAP_BITS = number(st.sampled_from([64, 128, 256, 4096]), (63, 4097))
NODE = number(st.integers(1, 8), (0, 9, -1))
DIGITS = number(st.integers(1, 60), (0, 10**18, 10**19))
# --type and a --weight of its rank, mostly dominant
TYPED_WEIGHT = st.sampled_from([("E6", 6), ("E7", 7), ("E8", 8)]).flatmap(
    lambda t: st.tuples(
        mostly(st.just(t[0]), TYPES),
        mostly(st.lists(st.integers(0, 40), min_size=t[1], max_size=t[1]).map(
            lambda w: ",".join(map(str, w))), st.one_of(
                st.lists(st.one_of(st.integers(-40, 40).map(str),
                                   st.sampled_from(HUGE + MALFORMED)),
                         min_size=5, max_size=9).map(",".join), TEXT))
    ).map(lambda tw: ["--type", tw[0], "--weight", tw[1]]))
SEQ = mostly(st.lists(st.sampled_from(["1", "2", "3", "0.5", "1e-300", "1e300", "-1", "0"]),
                      min_size=1, max_size=12).map(",".join),
             st.one_of(st.lists(st.sampled_from(["nan", "inf", "x", "", "9" * 400, "1"]),
                                max_size=12).map(",".join), TEXT))


def command(name, required=(), optional=(), head=st.just([])):
    """argv of ``name``: ``head``, then each required (flag, values) pair
    nearly always given and each optional one half the time; a (flag, None)
    pair is a switch."""
    def given_as(flag, values, often):
        value = st.just([flag]) if values is None else values.map(lambda v: [flag, v])
        return st.integers(0, often).flatmap(lambda i: st.just([]) if i == often else value)

    parts = ([head] + [given_as(f, v, 19) for f, v in required]
             + [given_as(f, v, 1) for f, v in optional])
    return st.tuples(*parts).map(lambda ps: [name, *(a for p in ps for a in p)])


OUT = ("--out", st.sampled_from(["", "/nonexistent-dir/x", "été.txt"]))
FORMAT = ("--format", text(["json", "csv", "text"]))
KMAX = ("--kmax", number(st.integers(2, 40), (2, 4 * 38, 4 * 38 + 1)))
ARGV = st.one_of(
    command("roots", [("--type", TYPES)], [("--format", text(["fixture", "json", "csv"]))]),
    command("qdim", [("--level", LEVEL)],
            [("--classical", None), ("--digits", DIGITS), ("--precision-bits", CHEAP_BITS)],
            TYPED_WEIGHT),
    command("reduce", [("--level", LEVEL)], head=TYPED_WEIGHT),
    command("krdec", [("--type", TYPES), ("--node", NODE),
                      ("--k", number(st.integers(0, 40), (-1, 1500)))],
            [("--level", LEVEL), ("--qdim", None), ("--digits", DIGITS),
             ("--precision-bits", CHEAP_BITS)]),
    command("grid", [("--type", TYPES), ("--level", SMALL_LEVEL)],
            [("--precision-bits", BITS), KMAX, FORMAT, OUT]),
    command("verify", [("--type", TYPES), ("--level", SMALL_LEVEL)],
            [("--precision-bits", BITS), KMAX, FORMAT,
             ("--checks", text(["roots", "grid,theorem", "weyl,roots", "logconcave,dilog",
                                "solve", "roots,roots", "nope"]))]),
    command("solve", [("--type", TYPES), ("--level", SMALL_LEVEL)],
            [("--precision-bits", BITS),
             ("--tol", text(["1e-30", "1e-20", "1e-400", "0", "-1", "nan", "inf", "1e300"]))]),
    command("logconcave", [("--type", TYPES), ("--level", LEVEL), ("--node", NODE)],
            [("--max-order", number(st.integers(0, 12), (-1, 1000, 1001))),
             ("--branden", None), ("--precision-bits", CHEAP_BITS)]),
    command("logconcave", [("--seq", SEQ)],
            [("--max-order", number(st.integers(0, 12), (-1, 1000, 1001))),
             ("--branden", None), ("--precision-bits", CHEAP_BITS), ("--type", TYPES)]),
    st.lists(TEXT, max_size=3),
)


def _cases() -> list[list[str]]:
    cases = []

    @settings(max_examples=CASES, derandomize=True, database=None, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(ARGV)
    def collect(argv):
        cases.append(argv)

    collect()
    return cases


def test_every_command_line_answers_in_budget(tmp_path):
    cases = _cases()
    assert len(cases) >= CASES // 2
    src = str(Path(qslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    child = subprocess.run([sys.executable, "-c", CHILD, str(CASE_BUDGET_S), str(ADDRESS_SPACE)],
                           input=json.dumps(cases), env=env, cwd=tmp_path, capture_output=True,
                           text=True, timeout=CASE_BUDGET_S * 10, check=False)
    assert child.returncode == 0, child.stderr[-2000:]
    results = [json.loads(line) for line in child.stdout.splitlines()]
    assert len(results) == len(cases)
    bad = [r for r in results if r["crash"] or r["traceback"] or r["code"] not in (0, 1, 2)]
    assert not bad, bad[:3]
