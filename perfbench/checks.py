"""Correctness checks on qslab's outputs that do not trust the program.

Nothing here reads a check status the program computed, and nothing
compares with a saved copy of earlier output.  Every check recomputes a
mathematical fact in exact rational arithmetic from the printed numbers,
with the Dynkin diagrams and Lie-algebra constants written out below.

Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

# Bourbaki numbering: 1-3-4-5-...-rank is the chain, 2 hangs off 4.
DYNKIN_EDGES = {
    "E6": ((1, 3), (3, 4), (4, 5), (5, 6), (2, 4)),
    "E7": ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)),
    "E8": ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)),
}
RANK = {"E6": 6, "E7": 7, "E8": 8}
DIMENSION = {"E6": 78, "E7": 133, "E8": 248}
COXETER = {"E6": 12, "E7": 18, "E8": 30}

# Reports print cells with 30 significant digits, so one unit in the last
# digit is 1e-29 of the value.  At 128 bits the program loses digits to
# cancellation as the level grows; the worst loss over all workloads is
# below 1e6 units (7.8e-24 relative, the boundary cells of E7 L28).  The
# allowance of 1e7 units keeps a margin over that and stays 100 times below
# a change in the 20th digit.
REPORT_TOL = Fraction(1, 10 ** 29) * 10 ** 7

# `qslab solve` prints rows with 12 significant digits: each printed value
# is within half a unit of the 12th digit, so each side of the recurrence is
# within about two units of the size of its terms.
SOLVE_UNIT = Fraction(1, 10 ** 11)
SOLVE_RESIDUAL_MAX = Fraction(1, 10 ** 30)

# Branden's criterion at E7 node 7: the paper proves real negative roots up
# to level 11 and exhibits non-real roots at level 12.
BRANDEN_LAST_REAL_LEVEL = 11
BRANDEN_FIRST_FAILING_LEVEL = 12


def neighbours(type_label: str) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {i: [] for i in range(1, RANK[type_label] + 1)}
    for a, b in DYNKIN_EDGES[type_label]:
        out[a].append(b)
        out[b].append(a)
    return out


def exact(text: str) -> Fraction:
    return Fraction(Decimal(text))


def restricted_system_problems(rows: dict[int, list[Fraction]], type_label: str,
                               level: int, tol: Fraction) -> list[str]:
    """Check rows[i][k], k in [0, level], against the restricted Q-system.

    Q_0 = Q_level = 1, Q_k > 0, Q_{level-k} = Q_k, and
    Q_k(i)^2 = Q_{k-1}(i) Q_{k+1}(i) + prod_{j~i} Q_k(j) for 0 < k < level.
    ``tol`` is relative to the size of the terms compared.  The positive
    solution of this system is unique, so passing certifies the rows.
    """
    nb = neighbours(type_label)
    problems = []
    for i, row in rows.items():
        for k in (0, level):
            if abs(row[k] - 1) > tol:
                problems.append(f"Q_{k}({i}) = {float(row[k])!r} is not 1")
        for k, q in enumerate(row):
            if not q > 0:
                problems.append(f"Q_{k}({i}) = {float(q)!r} is not positive")
            mirror = row[level - k]
            if abs(q - mirror) > tol * max(abs(q), abs(mirror)):
                problems.append(f"Q_{k}({i}) != Q_{level - k}({i})")
        for k in range(1, level):
            prod = Fraction(1)
            for j in nb[i]:
                prod *= rows[j][k]
            lhs = row[k] * row[k]
            rhs = row[k - 1] * row[k + 1]
            size = abs(lhs) + abs(rhs) + abs(prod)
            if abs(lhs - rhs - prod) > tol * size:
                rel = abs(lhs - rhs - prod) / size
                problems.append(f"recurrence at node {i}, k={k}: relative defect {float(rel):.3g}")
    return problems


def grid_problems(report: dict) -> list[str]:
    """Check (a): the report's cells on [0, l-1] against the Q-system."""
    t, level, l = report["type"], report["level"], report["l"]
    cells = {(c["node"], c["k"]): c["value"] for c in report["cells"]}
    missing = [key for key, v in cells.items() if v is None and key[1] < l]
    if missing:
        return [f"unresolved cells {sorted(missing)}"]
    try:
        rows = {i: [exact(cells[(i, k)]) for k in range(l)] for i in range(1, RANK[t] + 1)}
    except KeyError as exc:
        return [f"cell {exc} missing from the report"]
    problems = restricted_system_problems(
        {i: row[:level + 1] for i, row in rows.items()}, t, level, REPORT_TOL)
    for i, row in rows.items():
        # The window zeros come out of cancellations among numbers as large
        # as the row itself, so their tolerance scales with the row.
        scale = max(abs(q) for q in row[:level + 1])
        for k in range(level + 1, l):
            if abs(row[k]) > REPORT_TOL * scale:
                problems.append(f"Q_{k}({i}) = {float(row[k])!r} is not 0")
    return problems


def dilog_expected(type_label: str, level: int) -> Fraction:
    """Kirillov's identity, proven for simply-laced types by Nakanishi."""
    return (Fraction(level * DIMENSION[type_label], level + COXETER[type_label])
            - RANK[type_label])


def dilog_problems(report: dict) -> list[str]:
    """Check (b): the normalized dilogarithm sum equals L dim g/(L+h) - rank."""
    text = report["dilog"]["sum"]
    if text is None:
        return ["dilog sum missing"]
    expected = dilog_expected(report["type"], report["level"])
    defect = abs(exact(text) - expected)
    if defect > REPORT_TOL * max(abs(expected), 1):
        return [f"dilog sum {text} differs from {float(expected)!r} by {float(defect):.3g}"]
    return []


def branden_problems(report: dict) -> list[str]:
    """Check (c): the E7 node-7 Branden verdict matches the paper."""
    level = report["level"]
    if level <= BRANDEN_LAST_REAL_LEVEL:
        expected = "real_negative"
    elif level == BRANDEN_FIRST_FAILING_LEVEL:
        expected = "not_real_negative"
    else:
        return []
    entries = [c for c in report["checks"] if c["name"] == "branden" and c["node"] == 7]
    if len(entries) != 1:
        return [f"{len(entries)} branden entries for node 7"]
    status = entries[0]["note"].split(" ", 1)[0]
    if status != expected:
        return [f"branden verdict {status!r} at level {level}, expected {expected!r}"]
    return []


def verify_report_problems(report: dict, type_label: str, level: int) -> list[str]:
    """Checks (a)-(c) on a `qslab verify` JSON report, as its groups allow."""
    if (report["type"], report["level"]) != (type_label, level):
        return [f"report is for {report['type']} L{report['level']}"]
    if report["l"] != level + COXETER[type_label]:
        return [f"shifted level {report['l']} != {level} + h"]
    groups = set(report["config"]["checks"])
    problems = []
    if groups & {"grid", "solve", "theorem", "logconcave", "dilog"}:
        problems += grid_problems(report)
    if "dilog" in groups:
        problems += dilog_problems(report)
    if "logconcave" in groups and type_label == "E7":
        problems += branden_problems(report)
    return problems


def solve_output_problems(text: str, type_label: str, level: int) -> list[str]:
    """Check (d): the rows printed by `qslab solve` solve the restricted system."""
    lines = text.splitlines()
    head = "converged, residual "
    if not lines or not lines[0].startswith(head):
        return [f"unexpected first line {lines[:1]}"]
    if exact(lines[0][len(head):]) > SOLVE_RESIDUAL_MAX:
        return [f"printed residual {lines[0][len(head):]} exceeds 1e-30"]
    rows = {}
    for i, line in enumerate(lines[1:], start=1):
        prefix = f"node {i}: "
        if not line.startswith(prefix):
            return [f"unexpected row line {line[:40]!r}"]
        rows[i] = [exact(v) for v in line[len(prefix):].split()]
        if len(rows[i]) != level + 1:
            return [f"row {i} has {len(rows[i])} values, expected {level + 1}"]
    if sorted(rows) != list(range(1, RANK[type_label] + 1)):
        return [f"rows for nodes {sorted(rows)}"]
    return restricted_system_problems(rows, type_label, level, 2 * SOLVE_UNIT)
