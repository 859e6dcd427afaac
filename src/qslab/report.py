"""Verification pipeline: runs check groups, builds and serializes reports.

A report is deterministic for a fixed configuration and precision: checks
run in a fixed order, the Weyl-group checks are exact integer certificates
with no sampling, and all numeric evidence is rendered as round-half-even
30-significant-digit decimal strings.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context as DecimalContext, Decimal
from fractions import Fraction
from importlib import resources
from typing import Callable

import mpmath

from . import affweyl, krchar, qsolver, rootsys, seqanalysis
from .qnum import MIN_PRECISION_BITS, LevelContext, qdim_line
from .qsolver import CheckResult, QGrid, _mk_check
from .rootsys import RootSystem, Weight, build_root_system

REPORT_FORMATS = ("json", "csv", "text")


def render_decimal(x, digits: int = 30) -> str:
    """Render a binary float exactly, round-half-even at ``digits`` digits.

    The value is taken apart into an exact integer fraction before a single
    correctly rounded decimal division, so the output never depends on any
    global precision state.
    """
    if x is None:
        return "unresolved"
    if isinstance(x, int):
        num, den = x, 1
    else:
        if isinstance(x, float):
            if math.isnan(x):
                return "nan"
            if math.isinf(x):
                return "inf" if x > 0 else "-inf"
            frac = Fraction(x)
        else:
            if mpmath.isnan(x):
                return "nan"
            if not mpmath.isfinite(x):
                return "inf" if x > 0 else "-inf"
            sign, man, exp, _ = x._mpf_
            man = int(man)
            frac = Fraction(-man if sign else man)
            frac *= Fraction(2) ** exp
        num, den = frac.numerator, frac.denominator
    dc = DecimalContext(prec=digits, rounding=ROUND_HALF_EVEN)
    return str(dc.divide(Decimal(num), Decimal(den)))


# ---------------------------------------------------------------------------
# fixtures

def _fixture_path(name: str, fixture_dir: str | None):
    if fixture_dir is not None:
        return os.path.join(fixture_dir, name)
    return resources.files("qslab").joinpath("fixtures", name)


def load_fixture_rows(type_label: str, fixture_dir: str | None = None):
    """Rows (appendix_no, height, coeffs) of a published positive-root table."""
    path = _fixture_path(f"{type_label.lower()}_positive_roots.txt", fixture_dir)
    rows = []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            rows.append((int(parts[0]), int(parts[1]), tuple(int(x) for x in parts[2:])))
    return rows


def load_appendix_map(type_label: str, fixture_dir: str | None = None) -> dict[int, int]:
    """appendix row number -> canonical 1-based root index."""
    path = _fixture_path(f"{type_label.lower()}_appendix_order.txt", fixture_dir)
    out: dict[int, int] = {}
    with open(path) as f:
        for line in f:
            parts = line.split()
            if parts:
                out[int(parts[0])] = int(parts[1])
    return out


def fixture_check(rs: RootSystem, fixture_dir: str | None = None) -> CheckResult:
    """Bit-exact comparison of the generated root table with the published one."""
    label = rs.type_label
    td = rootsys.type_data(label)
    if not td.has_fixture:
        ok = len(rs.positive_roots) == td.positive_roots
        return _mk_check("fixture_match", None, ok, True, None,
                         note=f"{label}: {len(rs.positive_roots)} roots (no table)")
    rows = load_fixture_rows(label, fixture_dir)
    amap = load_appendix_map(label, fixture_dir)
    mismatches = []
    if sorted(amap) != list(range(1, len(rs.positive_roots) + 1)):
        mismatches.append("index map is not a bijection on appendix rows")
    if sorted(amap.values()) != list(range(1, len(rs.positive_roots) + 1)):
        mismatches.append("index map is not onto the canonical indices")
    if len(rows) != len(rs.positive_roots):
        mismatches.append(f"row count {len(rows)} != {len(rs.positive_roots)}")
    for no, height, coeffs in rows:
        idx = amap.get(no)
        if idx is None:
            mismatches.append(f"row {no}: missing from index map")
            continue
        root = rs.positive_roots[idx - 1]
        if root != coeffs or sum(root) != height:
            mismatches.append(f"row {no}: fixture {height} {coeffs} != generated {root}")
    ok = not mismatches
    note = "; ".join(mismatches[:4]) if mismatches else f"{len(rows)}/{len(rows)} rows match"
    return _mk_check("fixture_match", None, ok, True, None, note=note)


# ---------------------------------------------------------------------------
# check groups

def _rel_gap(mp, a, b):
    """|a - b| / max(|a|, |b|, 1)."""
    return abs(a - b) / max(abs(a), abs(b), mp.mpf(1))


def _roots_checks(report, ctx, grid) -> list[CheckResult]:
    rs = ctx.root_system
    td = rootsys.type_data(rs.type_label)
    out = [fixture_check(rs)]

    h = rs.coxeter_number
    ok = (
        h == td.coxeter_number
        and len(rs.positive_roots) == td.positive_roots
        and sum(rs.marks) == h - 1
        and rs.theta_weight == rootsys.fundamental_weight(rs.rank, td.adjoint_node)
        and all(1 <= ht <= h - 1 for ht in rs.heights)
    )
    out.append(_mk_check("coxeter_marks", None, ok, True, None,
                         note=f"h={h}, sum(marks)={sum(rs.marks)}"))

    deltas = {i: rootsys.delta(rs, i) for i in range(1, rs.rank + 1)}
    odd = {i: d for i, d in deltas.items() if d % 2}
    out.append(_mk_check("delta_parity", None, odd == td.odd_delta, True, None,
                         note=f"odd nodes {sorted(odd)}"))

    # Unit-pairing witnesses exist at every height exactly at the mark-1
    # nodes (the ones the vanishing arguments use); a root supported on the
    # node exists at every height for every node.
    missing = []
    for i in range(1, rs.rank + 1):
        if rs.marks[i - 1] != 1:
            continue
        for r in range(1, h):
            try:
                rootsys.lee_witness(rs, i, r)
            except LookupError:
                missing.append((i, r))
    unsupported = [
        (i, r)
        for i in range(1, rs.rank + 1)
        for r in range(1, h)
        if not any(b[i - 1] != 0 and ht == r
                   for b, ht in zip(rs.positive_roots, rs.heights))
    ]
    ok = not missing and not unsupported
    out.append(_mk_check(
        "lee_witness", None, ok, True, None,
        note=f"missing pairs {missing + unsupported}" if not ok
        else "unit pairing at mark-1 nodes; nonzero pairing everywhere"))

    # The height-symmetry count property holds at the mark-1 nodes, which is
    # where the symmetry argument needs it (E8 has none).
    sym_nodes = tuple(i for i in range(1, rs.rank + 1) if rs.marks[i - 1] == 1)
    bad = [i for i in sym_nodes if not rootsys.height_symmetry_check(rs, i)]
    out.append(_mk_check("height_symmetry", None, not bad, True, None,
                         note=f"failing nodes {bad}" if bad else f"nodes {sym_nodes}"))
    return out


def sign_probes(rank: int, count: int) -> list[Weight]:
    """``count`` fixed non-dominant weights: (-1)^(j+t) (j+t+1) at coordinate j of probe t."""
    return [tuple((-1) ** (j + t) * (j + t + 1) for j in range(rank)) for t in range(count)]


def generator_sign_certificate(ctx: LevelContext, g: int, probes: list[Weight]) -> bool:
    """Whether qdim(s_g . lam) = -qdim(lam) for every integral weight lam.

    The one-letter map lam -> s_g . lam is read as A lam + b from its images
    of 0 and of the unit vectors, and must reproduce ``affweyl.apply_word``
    on the probes, with one parity throughout.  Each image pairing
    (s_g . lam + rho | beta) is then an affine form in mu = lam + rho.  If
    every form is eps (mu | beta') + m l, with beta -> beta' a bijection of
    the positive roots, then sin(pi (eps x + m l)/l) = eps (-1)^m sin(pi x/l)
    turns the numerator of qdim(s_g . lam) into that of qdim(lam) times the
    product of the eps (-1)^m, which must be the word's parity, -1.  Weights
    on a wall are covered too: both sides are then zero.
    """
    rs = ctx.root_system
    n = rs.rank
    units = [tuple(int(j == k) for j in range(n)) for k in range(n)]
    images = [affweyl.apply_word((g,), lam, ctx) for lam in [(0,) * n, *units, *probes]]
    offset, parity = images[0]
    if any(p != parity for _, p in images):
        return False
    columns = [[x - b for x, b in zip(image, offset)] for image, _ in images[1:n + 1]]
    for lam, (image, _) in zip(probes, images[n + 1:]):
        if image != tuple(b + sum(c[j] * x for c, x in zip(columns, lam))
                          for j, b in enumerate(offset)):
            return False
    # (s_g . lam + rho | beta) = base + sum_k lam_k (column_k | beta), lam_k = mu_k - 1
    base = rs.rho_pairings(offset)
    linear = [[p - ht for p, ht in zip(rs.rho_pairings(c), rs.heights)] for c in columns]
    roots = set(rs.positive_roots)
    targets = set()
    flips = 0  # the number of factors -1 among the eps and (-1)^m
    for constant, coeffs in zip(base, zip(*linear)):
        m, rest = divmod(constant - sum(coeffs), ctx.shifted_level)
        if rest:
            return False
        if coeffs not in roots:
            coeffs = tuple(-c for c in coeffs)
            m += 1  # eps = -1
        if coeffs not in roots:
            return False
        targets.add(coeffs)
        flips += m
    return len(targets) == len(roots) and parity == (-1) ** (flips % 2) == -1


def sign_identity_trials(ctx: LevelContext, trials: int = 4) -> int:
    """The number of generators s_0..s_rank failing ``generator_sign_certificate``.

    Each certificate proves qdim(s . lam) = -qdim(lam) for every integral
    weight, so nothing is sampled; ``trials`` is the number of
    ``sign_probes`` that test each one-letter map for affinity.  The name
    and the parameter stay because the benchmark's tracer patches this
    function and reads ``trials``.
    """
    probes = sign_probes(ctx.root_system.rank, trials)
    return sum(not generator_sign_certificate(ctx, g, probes)
               for g in range(ctx.root_system.rank + 1))


def fixed_word_image_check(ctx: LevelContext) -> CheckResult:
    """Exact integer closed forms for the distinguished affine elements."""
    rs = ctx.root_system
    level = ctx.level
    label = rs.type_label
    bad: list[str] = []
    if label == "E6":
        for k in range(-3, level + 5):
            lam = rootsys.fundamental_weight(6, 2, k)
            expect = rootsys.fundamental_weight(6, 2, level + 1 - k)
            if affweyl.s0_dot(lam, ctx) != expect:
                bad.append(f"s0 . {k}w2")
    elif label == "E7":
        word = (0, 1, 3, 4, 5, 6, 7, 6, 5, 4, 3, 1, 0)
        for p in range(-2, 7):
            for q in range(-2, 7):
                lam = tuple(p if j == 1 else q if j == 6 else 0 for j in range(7))
                image, parity = affweyl.apply_word(word, lam, ctx)
                expect = tuple(
                    (level - p + 7) if j == 1 else (2 * p + q - level - 7) if j == 6 else 0
                    for j in range(7)
                )
                if image != expect or parity != -1:
                    bad.append(f"w . ({p}w2+{q}w7)")
    else:
        beta97 = rs.find_root((2, 2, 3, 4, 3, 2, 1, 0))
        for s in range(-2, 7):
            for r in range(-2, 7):
                lam = tuple(s if j == 0 else r if j == 7 else 0 for j in range(8))
                expect0 = tuple(
                    s if j == 0 else (level + 1 - 2 * s - r) if j == 7 else 0
                    for j in range(8)
                )
                if affweyl.s0_dot(lam, ctx) != expect0:
                    bad.append(f"s0 . ({s}w1+{r}w8)")
                image = affweyl.translate_by_root(
                    rs, beta97, ctx.shifted_level,
                    affweyl.reflection_dot(rs, beta97, lam))
                expect = tuple(
                    (level + 13 - s) if j == 0 else (2 * s + r - level - 13) if j == 7 else 0
                    for j in range(8)
                )
                if image != expect:
                    bad.append(f"sigma . ({s}w1+{r}w8)")
    return _mk_check("fixed_word_images", None, not bad, True, None,
                     note="; ".join(bad[:4]) if bad else "integer closed forms reproduced")


def _weyl_checks(report, ctx, grid) -> list[CheckResult]:
    rs = ctx.root_system
    out = [fixed_word_image_check(ctx)]
    failing = sign_identity_trials(ctx)
    out.append(_mk_check("sign_identity", None, failing == 0, True, failing,
                         note=f"{rs.rank + 1} generators, affine certificate "
                              "for every integral weight"))
    # For lam in the alcove (dominant, sum(marks * lam) <= level) and beta
    # positive, 0 < (lam+rho | beta) <= (lam+rho | theta) <= level + ht(theta)
    # = l - 1 once theta, whose coefficients are the marks, dominates every
    # positive root coefficientwise and ht(theta) = h - 1: every sine factor
    # of qdim lies in (0, pi).  The count is of the conditions that fail.
    failing = sum(any(c > a for c, a in zip(b, rs.marks)) for b in rs.positive_roots)
    failing += sum(rs.marks) != rs.coxeter_number - 1
    out.append(_mk_check("alcove_positivity", None, failing == 0, True, failing,
                         note=f"theta dominates all {len(rs.positive_roots)} positive roots "
                              f"and ht theta = h - 1: (lam+rho | beta) in [1, "
                              f"{ctx.shifted_level - 1}]"))
    return out


def _grid_checks(report, ctx, grid) -> list[CheckResult]:
    out = []
    res = grid.residual_max
    out.append(_mk_check("grid_residual", None, res <= qsolver.FULL_GRID_RESIDUAL_TOL,
                         True, res, note=f"k_max={grid.k_max}"))
    out.append(_mk_check("grid_unresolved", None, not grid.unresolved, True, None,
                         note=f"unresolved cells {grid.unresolved}" if grid.unresolved else ""))
    kleber_nodes = rootsys.type_data(ctx.root_system.type_label).kleber_nodes
    if kleber_nodes:
        worst = ctx.mp.mpf(0)
        for node in kleber_nodes:
            direct = krchar.qdim_kr(krchar.kleber_q1(ctx.root_system, node), ctx)
            cell = grid.cell(node, 1)
            if cell is None:
                worst = ctx.mp.inf
                continue
            worst = max(worst, _rel_gap(ctx.mp, direct.value, cell.value))
        out.append(_mk_check("kleber_cross_check", None,
                             worst <= qsolver.TWO_PATH_REL_TOL, True, worst))
    return out


def _solve_checks(report, ctx, grid) -> list[CheckResult]:
    tolerance = qsolver.SOLVER_TOLERANCE
    try:
        solved = qsolver.solve_restricted(ctx, tolerance)
    except (qsolver.SolverDivergence, ValueError) as exc:
        # a ValueError says the tolerance lies below what the precision can reach
        return [_mk_check("solver_residual", None, False, True, None, note=str(exc))]
    out = [_mk_check("solver_residual", None,
                     solved.residual_max <= ctx.mp.mpf(tolerance), True,
                     solved.residual_max)]
    worst = ctx.mp.mpf(0)
    for i in range(1, ctx.root_system.rank + 1):
        for k in range(0, ctx.level + 1):
            a = grid.cell(i, k)
            b = solved.cell(i, k)
            if a is None:
                worst = ctx.mp.inf
                continue
            worst = max(worst, _rel_gap(ctx.mp, a.value, b.value))
    out.append(_mk_check("two_path_agreement", None,
                         worst <= qsolver.TWO_PATH_REL_TOL, True, worst))
    return out


def _theorem_checks(report, ctx, grid) -> list[CheckResult]:
    return qsolver.theorem_report(ctx, grid)


def _logconcave_checks(report, ctx, grid) -> list[CheckResult]:
    rs = ctx.root_system
    label = rs.type_label
    level = ctx.level
    out = []

    bad_nodes = []
    for i in range(1, rs.rank + 1):
        top = level // rs.marks[i - 1]
        seq = seqanalysis.make_sequence(
            [qdim_line(i, k, ctx).value for k in range(top + 1)])
        if len(seq) >= 3 and not seqanalysis.is_log_concave(seq, strict=True):
            bad_nodes.append(i)
        if any(not e > 0 for e in seq.entries):
            bad_nodes.append(i)
    out.append(_mk_check("fundamental_lines_log_concave", None, not bad_nodes, True,
                         None, note=f"failing nodes {bad_nodes}" if bad_nodes else ""))

    row_node = rootsys.type_data(label).adjoint_node
    row = [grid.cell(row_node, k) for k in range(level + 1)]
    if any(c is None for c in row):
        out.append(_mk_check("grid_row_log_concave", row_node, False, True, None,
                             note="unresolved cells"))
    else:
        seq = seqanalysis.make_sequence([c.value for c in row])
        ok = len(seq) < 3 or seqanalysis.is_log_concave(seq, strict=True)
        out.append(_mk_check("grid_row_log_concave", row_node, ok, True, None))

    if label == "E7":
        entries = [qdim_line(7, k, ctx).value for k in range(level + 1)]
        seq = seqanalysis.make_sequence(entries)
        order = seqanalysis.log_concavity_order(seq, 6)
        gate = level <= 12
        out.append(_mk_check("order_probe", 7, order >= 3 if gate else True,
                             gate, None, note=f"order >= {order} (max probed 6)"))
        verdict = seqanalysis.branden_criterion(seq)
        if level <= 11:
            ok = verdict.status == "real_negative"
        elif level == 12:
            ok = verdict.status == "not_real_negative"
        else:
            ok = True
        out.append(_mk_check("branden", 7, ok, level <= 12, None,
                             note=f"{verdict.status}"
                                  + (f" ({verdict.witness})" if verdict.witness else "")))
    return out


def _dilog_checks(report, ctx, grid) -> list[CheckResult]:
    """The dilog checks; also sets the report's dilog range flag and sum."""
    proven = rootsys.type_data(ctx.root_system.type_label).dilog_proven
    try:
        args = qsolver.dilog_args(grid)
    except ValueError as exc:
        report.dilog_in_range = False
        return [_mk_check("dilog_args", None, False, proven, None, note=str(exc))]
    margin = qsolver.dilog_args_margin(args, ctx.level)
    ok = margin is None or margin > qsolver.DILOG_MARGIN
    checks = [_mk_check("dilog_args", None, ok, proven,
                        None if margin is None else max(ctx.mp.mpf(0),
                                                        qsolver.DILOG_MARGIN - margin),
                        note="no interior cells" if margin is None
                        else f"min distance to {{0,1}}: {ctx.mp.nstr(margin, 8)}")]
    report.dilog_in_range = bool(ok)
    if margin is not None and margin <= 0:
        return checks  # an argument outside (0, 1) has no Rogers dilogarithm
    total = qsolver.dilog_sum(grid, ctx, args)
    checks.append(_mk_check("dilog_sum", None, True, True, None,
                            note=f"normalized sum {ctx.mp.nstr(total, 12)}"))
    report.dilog_sum = total
    return checks


# The check groups in canonical report order: name -> (whether the group reads
# the grid, the group).  Each group takes (report, ctx, grid), grid being None
# unless it reads one, and returns its checks.  Groups look up layer
# functions (qsolver.*, fixture_check, sign_identity_trials and, inside the
# sign certificate, affweyl.apply_word) at call time, so a wrapper patched onto
# a module attribute, as perfbench/tracing.py does, sees them.
CHECK_GROUPS: dict[str, tuple[bool, Callable[..., list[CheckResult]]]] = {
    "roots": (False, _roots_checks),
    "weyl": (False, _weyl_checks),
    "grid": (True, _grid_checks),
    "solve": (True, _solve_checks),
    "theorem": (True, _theorem_checks),
    "logconcave": (True, _logconcave_checks),
    "dilog": (True, _dilog_checks),
}
ALL_CHECKS = tuple(CHECK_GROUPS)


def reads_grid(checks) -> bool:
    """Whether any of the named check groups reads (and so builds) the grid."""
    return any(CHECK_GROUPS[name][0] for name in checks)


@dataclass(frozen=True)
class RunConfig:
    type_label: str
    level: int
    precision_bits: int = 128
    k_max: int | None = None
    fmt: str = "json"
    checks: tuple[str, ...] = ALL_CHECKS

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be at least 1")
        if self.precision_bits < MIN_PRECISION_BITS:
            raise ValueError(f"precision_bits must be at least {MIN_PRECISION_BITS}")
        if not self.checks:
            raise ValueError("at least one check must be selected")
        for c in self.checks:
            if c not in CHECK_GROUPS:
                raise ValueError(f"unknown check {c!r}")
        if self.fmt not in REPORT_FORMATS:
            raise ValueError(f"unknown output format {self.fmt!r}")


@dataclass
class VerificationReport:
    config: RunConfig
    shifted_level: int
    checks: list[CheckResult]
    grid: QGrid | None = None
    dilog_in_range: bool | None = None
    dilog_sum: object = None
    overall: str = "pass"
    duration_seconds: float = 0.0

    def finalize(self) -> None:
        statuses = {c.status for c in self.checks}
        if "fail" in statuses:
            self.overall = "fail"
        elif "conjecture-violated" in statuses:
            self.overall = "conjecture-violated"
        else:
            self.overall = "pass"

    @property
    def exit_code(self) -> int:
        return 1 if self.overall == "fail" else 0


def run(config: RunConfig) -> VerificationReport:
    """Execute the selected check groups in their canonical order."""
    started = time.monotonic()
    rs = build_root_system(config.type_label)
    ctx = LevelContext(rs, config.level, config.precision_bits)

    report = VerificationReport(config=config, shifted_level=ctx.shifted_level, checks=[])
    groups = [group for name, group in CHECK_GROUPS.items() if name in config.checks]
    grid = None
    if reads_grid(config.checks):
        k_max = config.k_max if config.k_max is not None else ctx.shifted_level
        grid = qsolver.build_qgrid(ctx, k_max=max(k_max, ctx.shifted_level))
        report.grid = grid

    for _, checks in groups:
        report.checks.extend(checks(report, ctx, grid))

    report.finalize()
    report.duration_seconds = time.monotonic() - started
    return report


# ---------------------------------------------------------------------------
# serialization

def report_to_dict(report: VerificationReport) -> dict:
    cfg = report.config
    out = {
        "type": cfg.type_label,
        "level": cfg.level,
        "l": report.shifted_level,
        "precision_bits": cfg.precision_bits,
        "config": {
            "checks": list(cfg.checks),
            "k_max": cfg.k_max,
            # not settable; the keys stay, always null, for the report schema
            "zero_tolerance": None,
            "solver_tolerance": None,
            "format": cfg.fmt,
        },
        "cells": [],
        "residual_max": None,
        "checks": [
            {
                "name": c.name,
                "node": c.node,
                "status": c.status,
                "proven": c.proven,
                "max_violation": None if c.max_violation is None
                else render_decimal(c.max_violation),
                "note": c.note,
            }
            for c in report.checks
        ],
        "dilog": {
            "args_in_range": report.dilog_in_range,
            "sum": None if report.dilog_sum is None else render_decimal(report.dilog_sum),
        },
        "overall": report.overall,
        "duration_seconds": round(report.duration_seconds, 3),
    }
    if report.grid is not None:
        out["residual_max"] = render_decimal(report.grid.residual_max)
        g = report.grid
        for i in range(1, g.root_system.rank + 1):
            for k in range(g.k_max + 1):
                cell = g.cell(i, k)
                out["cells"].append({
                    "node": i,
                    "k": k,
                    "value": None if cell is None else render_decimal(cell.value),
                    "provenance": g.provenance[i - 1][k],
                })
    return out


def grid_to_csv(grid: QGrid) -> str:
    lines = ["node,k,value,provenance"]
    for i in range(1, grid.root_system.rank + 1):
        for k in range(grid.k_max + 1):
            cell = grid.cell(i, k)
            value = "" if cell is None else render_decimal(cell.value)
            lines.append(f"{i},{k},{value},{grid.provenance[i - 1][k]}")
    return "\n".join(lines) + "\n"


def report_to_text(report: VerificationReport) -> str:
    lines = [
        f"type {report.config.type_label}  level {report.config.level}  "
        f"l {report.shifted_level}  precision {report.config.precision_bits} bits"
    ]
    for c in report.checks:
        where = f" node {c.node}" if c.node is not None else ""
        label = "proven" if c.proven else "conjectural"
        extra = f"  [{c.note}]" if c.note else ""
        lines.append(f"{c.status.upper():20s} {c.name}{where} ({label}){extra}")
    lines.append(f"overall: {report.overall}")
    return "\n".join(lines) + "\n"


def write_text_atomic(path: str, content: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partial output.

    An OSError names the requested path, never the temp file, which is removed.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as f:
            f.write(content)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def write_report(report: VerificationReport, path: str | None = None) -> str:
    """Serialize per the config's format; write atomically when a path is given."""
    fmt = report.config.fmt
    if fmt == "json":
        content = json.dumps(report_to_dict(report), indent=2) + "\n"
    elif fmt == "csv":
        if report.grid is None:
            raise ValueError("csv output needs a grid-producing check")
        content = grid_to_csv(report.grid)
    else:
        content = report_to_text(report)
    if path:
        write_text_atomic(path, content)
    return content
