"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Produces genuine outputs with qslab, confirms that the checks accept them,
then feeds the checks corrupted copies that each must be rejected:
every certified cell of a report changed in its 20th significant digit,
the dilogarithm sum shifted by 1e-15, the Branden verdict flipped on both
sides of the level-12 threshold, and a `qslab solve` value changed in its
10th digit.  It also confirms that a run is not correct when an operation
crashes or exits non-zero unexpectedly, or when a known failure does not
fail as stated.  Exits 0 when every genuine output passes and every
corrupted one is rejected.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import sys
from decimal import Context, Decimal

from checks import solve_output_problems, verify_report_problems
from run import OUT, Result, failure_problems, import_cli, run_operation
from workloads import LEVEL_SWEEP_CHECKS, WORKLOADS


def change_digit(text: str, position: int) -> str:
    """Change the given significant digit of a decimal string by one unit."""
    ctx = Context(prec=60)
    value = Decimal(text)
    unit = Decimal(1).scaleb(value.adjusted() - (position - 1))
    digit = int(ctx.divide_int(abs(value), unit)) % 10
    changed = ctx.add(value, unit) if digit < 9 else ctx.subtract(value, unit)
    return str(changed)


def main() -> int:
    cli_main = import_cli()
    OUT.mkdir(exist_ok=True)
    tmp = OUT / "selftest"
    tmp.mkdir(exist_ok=True)

    def output(*argv: str) -> str:
        path = tmp / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([*argv, "--out", str(path)])
        if code != 0:
            sys.exit(f"qslab {' '.join(argv)} exited with {code}")
        return path.read_text()

    try:
        reports = {level: json.loads(output("verify", "--type", "E7", "--level", str(level),
                                            "--checks", LEVEL_SWEEP_CHECKS))
                   for level in (6, 12)}
        solved = output("solve", "--type", "E6", "--level", "4")
        matrix = WORKLOADS["verify-matrix"]
        first = matrix.operations[0]

        def crash(argv):
            raise RuntimeError("simulated crash")

        def exit_1(argv):
            cli_main(argv)
            return 1

        with contextlib.redirect_stderr(io.StringIO()):
            unexpected = {name: run_operation(invoke, first, tmp / "out")
                          for name, invoke in (("crash", crash), ("non-zero exit", exit_1))}
    finally:
        shutil.rmtree(tmp)

    failures = []

    def expect(label: str, problems: list[str], rejected: bool) -> None:
        if bool(problems) != rejected:
            failures.append(f"{label}: {'accepted' if rejected else problems[:3]}")

    for name, result in unexpected.items():
        results = ([Result(first, *result, 0.0, 0.0)]
                   + [Result(op, 0.0, None, [], 0.0, 0.0) for op in matrix.operations[1:]])
        expect(f"{first.label} with an unexpected {name}",
               failure_problems(matrix, results), True)

    sweep = WORKLOADS["level-sweep"]
    known = sweep.known_failures

    def sweep_pass(failed: dict[str, str]):
        return [Result(op, 0.0, failed.get(op.label), [], 0.0, 0.0) for op in sweep.operations]

    expect("level-sweep pass with its known failures", failure_problems(sweep, sweep_pass(known)),
           False)
    expect("known failure that does not fail",
           failure_problems(sweep, sweep_pass({"verify E8 L16": known["verify E8 L16"]})), True)
    expect("known failure in another check",
           failure_problems(sweep, sweep_pass({**known, "verify E7 L28": "grid_unresolved"})),
           True)

    for level, rep in reports.items():
        expect(f"genuine E7 L{level} report", verify_report_problems(rep, "E7", level), False)
    expect("genuine E6 L4 solve output", solve_output_problems(solved, "E6", 4), False)

    rep = reports[12]
    corrupted_cells = 0
    for idx, cell in enumerate(rep["cells"]):
        if cell["k"] > rep["level"]:
            continue
        bad = copy.deepcopy(rep)
        bad["cells"][idx]["value"] = change_digit(cell["value"], 20)
        expect(f"cell ({cell['node']}, {cell['k']}) changed in its 20th digit",
               verify_report_problems(bad, "E7", 12), True)
        corrupted_cells += 1

    bad = copy.deepcopy(rep)
    bad["dilog"]["sum"] = str(Decimal(rep["dilog"]["sum"]) + Decimal("1e-15"))
    expect("dilog sum shifted by 1e-15", verify_report_problems(bad, "E7", 12), True)

    for level, flipped in ((6, "not_real_negative"), (12, "real_negative")):
        bad = copy.deepcopy(reports[level])
        for check in bad["checks"]:
            if check["name"] == "branden":
                check["note"] = flipped
        expect(f"Branden verdict flipped at level {level}",
               verify_report_problems(bad, "E7", level), True)

    lines = solved.splitlines()
    values = lines[2].split()
    values[3] = change_digit(values[3], 10)
    lines[2] = " ".join(values)
    expect("solve value changed in its 10th digit",
           solve_output_problems("\n".join(lines) + "\n", "E6", 4), True)

    for f in failures:
        print(f"FAIL {f}")
    print(f"{'FAIL' if failures else 'ok'}: genuine outputs accepted, {corrupted_cells} cell "
          f"corruptions, dilog shift, 2 Branden flips, 1 solve corruption and "
          f"4 mismatched failure sets "
          f"{'not all ' if failures else ''}rejected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
