"""Verification pipeline: runs check groups, builds and serializes reports.

A report is deterministic for a fixed configuration and precision: checks
run in a fixed order, the Weyl-group checks are exact integer certificates
with no sampling, and all numeric evidence is rendered by
``qnum.render_decimal`` as round-half-even decimal strings: cells,
violations, the residual and the dilogarithm sum at 30 significant digits,
the numbers in the notes at 8 (12 for the dilogarithm sum) by ``render_note``.
"""

from __future__ import annotations

import functools
import json
import os
import stat
import time
from importlib import resources
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import index, mul
from typing import Callable, NamedTuple

from . import affweyl, qsolver, rootsys, seqanalysis
from .qnum import (DEFAULT_PRECISION_BITS, MIN_PRECISION_BITS, LevelContext, alcove_line,
                   render_decimal)
from .qsolver import CheckResult, QGrid, _mk_check
from .rootsys import RootSystem, Weight, build_root_system

REPORT_FORMATS = ("json", "csv", "text")


# ---------------------------------------------------------------------------
# fixtures

@functools.cache
def _int_rows(type_label: str, kind: str) -> tuple[tuple[int, ...], ...]:
    """The nonblank lines of one of a type's fixture files in the package,
    read once per process, each split into integers."""
    with (resources.files("qslab") / "fixtures" / f"{type_label.lower()}_{kind}.txt").open() as f:
        return tuple(tuple(map(int, parts)) for parts in map(str.split, f) if parts)


def load_fixture_rows(type_label: str):
    """Rows (appendix_no, height, coeffs) of a published positive-root table."""
    return [(r[0], r[1], r[2:]) for r in _int_rows(type_label, "positive_roots")]


def load_appendix_map(type_label: str) -> dict[int, int]:
    """appendix row number -> canonical 1-based root index."""
    return {r[0]: r[1] for r in _int_rows(type_label, "appendix_order")}


def fixture_check(rs: RootSystem) -> CheckResult:
    """Bit-exact comparison of the generated root table with the published one."""
    label = rs.type_label
    td = rootsys.type_data(label)
    if not td.has_fixture:
        ok = len(rs.positive_roots) == td.positive_roots
        return _mk_check("fixture_match", None, ok, True, None,
                         note=f"{label}: {len(rs.positive_roots)} roots (no table)")
    rows = load_fixture_rows(label)
    amap = load_appendix_map(label)
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
    table = rs.table
    missing = [(i, r) for i in range(1, rs.rank + 1) if rs.marks[i - 1] == 1
               for r in range(1, h) if r not in table.unit_heights[i - 1]]
    unsupported = [(i, r) for i in range(1, rs.rank + 1) for r in range(1, h)
                   if r not in table.support_heights[i - 1]]
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


class WordMap(NamedTuple):
    """The affine map lam -> offset + sum_k lam_k columns[k] of a word, and its parity."""

    offset: Weight
    columns: tuple[Weight, ...]
    parity: int

    def image(self, lam: Weight) -> Weight:
        return tuple(b + sum(map(mul, row, lam))
                     for b, row in zip(self.offset, zip(*self.columns)))


def word_map(ctx: LevelContext, word: tuple[int, ...], probes: list[Weight]) -> WordMap | None:
    """The map lam -> word . lam, read off its images of 0 and of the unit
    vectors through ``affweyl.apply_word``; None unless it reproduces
    ``apply_word`` on the probes, with one parity throughout."""
    n = ctx.root_system.rank
    units = [tuple(int(j == k) for j in range(n)) for k in range(n)]
    images = [affweyl.apply_word(word, lam, ctx) for lam in [(0,) * n, *units, *probes]]
    offset, parity = images[0]
    if any(p != parity for _, p in images):
        return None
    wmap = WordMap(offset, tuple(tuple(x - b for x, b in zip(image, offset))
                                 for image, _ in images[1:n + 1]), parity)
    if any(wmap.image(lam) != image for lam, (image, _) in zip(probes, images[n + 1:])):
        return None
    return wmap


def generator_sign_certificate(ctx: LevelContext, g: int, probes: list[Weight]) -> bool:
    """Whether qdim(s_g . lam) = -qdim(lam) for every integral weight lam.

    The one-letter map lam -> s_g . lam = A lam + b is read by ``word_map``
    at the context's level, and A must be the linear part in the root
    system's table, whose images beta -> beta' = A^T beta are +- a
    permutation of the positive roots.  Each image pairing
    (s_g . lam + rho | beta) is then an affine form (mu | beta') + c in
    mu = lam + rho.  If every c is m l, then sin(pi ((mu | beta') + m l)/l)
    = (-1)^m sin(pi (mu | beta')/l) turns the numerator of qdim(s_g . lam)
    into that of qdim(lam) times (-1) to the sum of the m and of the negative
    images, which must be the word's parity, -1.  Weights on a wall are
    covered too: both sides are then zero.
    """
    rs = ctx.root_system
    wmap = word_map(ctx, (g,), probes)
    if wmap is None or wmap.columns != rs.table.columns[g]:
        return False
    # (s_g . lam + rho | beta) = (b + rho | beta) - ht(beta') + (mu | beta'), mu = lam + rho
    flips = rs.table.negatives[g]
    for constant, height in zip(rs.rho_pairings(wmap.offset), rs.table.image_heights[g]):
        m, rest = divmod(constant - height, ctx.shifted_level)
        if rest:
            return False
        flips += m
    return wmap.parity == (-1) ** (flips % 2) == -1


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
    """Exact integer closed forms for the distinguished affine elements: each
    element's ``word_map`` has parity -1 and agrees with its closed form at 0
    and at the unit steps, so on the whole family, both being affine.  A
    failure names the first sample points the map gets wrong."""
    rs, level = ctx.root_system, ctx.level
    coords, at, words = rootsys.type_data(rs.type_label).fixed_words
    points = ([(k,) for k in range(-3, level + 5)] if len(coords) == 1
              else [(x, y) for x in range(-2, 7) for y in range(-2, 7)])
    steps = [tuple(int(i == j) for j in range(len(coords))) for i in range(-1, len(coords))]

    def weight(t: tuple[int, ...]) -> Weight:  # t at the family's coordinates, else 0
        return tuple(t[coords.index(j)] if j in coords else 0 for j in range(rs.rank))

    def misses(wmap: WordMap, form, t: tuple[int, ...]) -> bool:
        return wmap.parity != -1 or wmap.image(weight(t)) != weight(form(level, *t))

    bad: list[tuple[int, str]] = []  # (sample point index or -1, note)
    for name, word, form in words:
        wmap = word_map(ctx, word, sign_probes(rs.rank, 4))
        if wmap is None:
            bad.append((-1, f"{name} . lam not affine with one parity"))
        elif any(misses(wmap, form, t) for t in steps):
            bad += [(n, f"{name} . {at.format(*t)}") for n, t in enumerate(points)
                    if misses(wmap, form, t)]
    bad.sort(key=lambda b: b[0])
    return _mk_check("fixed_word_images", None, not bad, True, None,
                     note="; ".join(note for _, note in bad[:4]) if bad
                     else "integer closed forms reproduced")


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


def _logconcave_checks(report, ctx, grid) -> list[CheckResult]:
    rs = ctx.root_system
    td = rootsys.type_data(rs.type_label)
    level = ctx.level
    out = []

    p = ctx.precision_bits

    def line(i):  # node i's alcove line and whether it fails; a mate's is its, correctly rounded
        seq = seqanalysis.make_sequence(alcove_line(i, ctx), p)
        return seq, (not seqanalysis.is_log_concave(seq)  # or an entry <= 0
                     or any(sign or not man for sign, man, _ in seq.entries))

    lines = qsolver._per_row(grid, range(1, rs.rank + 1), line)
    bad_nodes = [i for i, (_, bad) in lines.items() if bad]
    out.append(_mk_check("fundamental_lines_log_concave", None, not bad_nodes, True,
                         None, note=f"failing nodes {bad_nodes}" if bad_nodes else ""))

    row_node = td.adjoint_node
    # a direct row, whose cells are never unresolved
    seq = seqanalysis.make_sequence(grid.rows[row_node - 1][:level + 1], p)
    out.append(_mk_check("grid_row_log_concave", row_node,
                         seqanalysis.is_log_concave(seq), True, None))

    if td.branden_node is not None:
        node, threshold = td.branden_node, td.branden_level
        branden_line = lines[node][0]
        order = seqanalysis.log_concavity_order(branden_line, 6)
        gate = level <= threshold
        out.append(_mk_check("order_probe", node, order >= 3 if gate else True,
                             gate, None, note=f"order {seqanalysis.order_text(order, 6)}"))
        verdict = seqanalysis.branden_criterion(branden_line)
        if level < threshold:
            ok = verdict.status == "real_negative"
        elif level == threshold:
            ok = verdict.status == "not_real_negative"
        else:
            ok = True
        out.append(_mk_check("branden", node, ok, gate, None,
                             note=seqanalysis.verdict_text(verdict)))
    return out


def _dilog_checks(report, ctx, grid) -> list[CheckResult]:
    """The dilog checks; also fills the report's dilog block."""
    checks, report.dilog_in_range, report.dilog_sum = qsolver.dilog_checks(ctx, grid)
    return checks


# The check groups in canonical report order: name -> (whether the group reads
# the grid, the group).  Each group takes (report, ctx, grid), grid being None
# unless it reads one, and returns its checks; qsolver decides the grid, solve,
# theorem and dilog verdicts, and the dilog group alone fills the report's dilog
# block.  Groups look up layer functions (qsolver.*, fixture_check,
# sign_identity_trials and, inside the sign certificate, affweyl.apply_word)
# at call time, so a wrapper patched onto a module attribute, as
# perfbench/tracing.py does, sees them.
CHECK_GROUPS: dict[str, tuple[bool, Callable[..., list[CheckResult]]]] = {
    "roots": (False, _roots_checks),
    "weyl": (False, _weyl_checks),
    "grid": (True, lambda report, ctx, grid: qsolver.grid_checks(ctx, grid)),
    "solve": (True, lambda report, ctx, grid: qsolver.solve_checks(ctx, grid)),
    "theorem": (True, lambda report, ctx, grid: qsolver.theorem_report(ctx, grid)),
    "logconcave": (True, _logconcave_checks),
    "dilog": (True, _dilog_checks),
}
ALL_CHECKS = tuple(CHECK_GROUPS)


def reads_grid(checks) -> bool:
    """Whether any of the named check groups reads (and so builds) the grid."""
    return any(CHECK_GROUPS[name][0] for name in checks)


class _RunFields(NamedTuple):
    type_label: str
    level: int
    precision_bits: int = DEFAULT_PRECISION_BITS
    k_max: int | None = None
    fmt: str = "json"
    checks: tuple[str, ...] = ALL_CHECKS


class RunConfig(_RunFields):
    """One run's settings, checked by the constructor, ``_make`` and ``_replace``."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs):
        raw = _RunFields(*args, **kwargs)
        # stored as checked: a float level, precision or k_max raises TypeError, as in LevelContext
        k_max = None if raw.k_max is None else index(raw.k_max)
        rs = build_root_system(raw.type_label)  # the one label rule: TypeError or ValueError
        self = super().__new__(cls, rs.type_label, index(raw.level),
                               index(raw.precision_bits), k_max, raw.fmt, raw.checks)
        l = self.level + rs.coxeter_number
        if self.level < 1:
            raise ValueError("level must be at least 1")
        if self.precision_bits < MIN_PRECISION_BITS:
            raise ValueError(f"precision_bits must be at least {MIN_PRECISION_BITS}")
        if not self.checks:
            raise ValueError("at least one check must be selected")
        for n, c in enumerate(self.checks):
            if c not in CHECK_GROUPS:
                raise ValueError(f"unknown check {c!r}")
            if c in self.checks[:n]:
                raise ValueError(f"repeated check {c!r}")
        if self.fmt not in REPORT_FORMATS:
            raise ValueError(f"unknown output format {self.fmt!r}")
        if self.k_max is not None and not reads_grid(self.checks):
            raise ValueError("k_max has no effect without a grid-producing check")
        if self.k_max is not None and not l <= self.k_max <= 4 * l:
            raise ValueError(f"k_max must be in {l}..{4 * l}, got {self.k_max}")
        return self


class VerificationReport:
    """One run's verdicts.  ``timings`` maps the grid build (``grid_build``)
    and each check group that ran to its seconds; like ``duration_seconds``,
    it is not part of the deterministic payload."""

    __slots__ = ("config", "shifted_level", "checks", "grid", "dilog_in_range", "dilog_sum",
                 "overall", "duration_seconds", "timings")

    def __init__(self, config: RunConfig, shifted_level: int, checks: list[CheckResult]):
        self.config, self.shifted_level, self.checks = config, shifted_level, checks
        self.grid = self.dilog_in_range = self.dilog_sum = None
        self.overall, self.duration_seconds = "pass", 0.0
        self.timings: dict[str, float] = {}

    def __eq__(self, other):
        return type(other) is VerificationReport and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)

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
    timings = report.timings
    grid = None
    if reads_grid(config.checks):
        begun = time.monotonic()
        report.grid = grid = qsolver.build_qgrid(ctx, k_max=config.k_max)
        timings["grid_build"] = time.monotonic() - begun

    for name, (_, checks) in CHECK_GROUPS.items():
        if name in config.checks:
            begun = time.monotonic()
            report.checks.extend(checks(report, ctx, grid))
            timings[name] = time.monotonic() - begun

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
        "diagnostics": {"timings": {k: round(v, 6) for k, v in report.timings.items()}},
    }
    g = report.grid
    if g is not None:
        out["residual_max"] = render_decimal(g.residual_max)
        out["cells"] = [
            {"node": i, "k": k, "value": None if cell is None else render_decimal(cell),
             "provenance": tag}
            for i, (row, tags) in enumerate(zip(g.rows, g.provenance), 1)
            for k, (cell, tag) in enumerate(zip(row, tags))]
    return out


def grid_to_csv(grid: QGrid) -> str:
    """The grid as CSV rows, each distinct cell value rendered once."""
    shown = {c: "" if c is None else render_decimal(c) for c in {*chain(*grid.rows)}}
    lines = ["node,k,value,provenance"]
    lines += [f"{i},{k},{shown[c]},{tag}"
              for i, (row, tags) in enumerate(zip(grid.rows, grid.provenance), 1)
              for k, (c, tag) in enumerate(zip(row, tags))]
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


# O_EXCL | O_NOFOLLOW: a temp name taken by a planted file or link is skipped,
# never written through
_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW | os.O_CLOEXEC
_TEMP_NAMES = 100  # names tried before a write gives up


def write_text_atomic(path: str, content: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partial output.

    As ``open(path, "w")`` would: a symlink is written through (a dangling
    one creates its target), and the file gets an existing target's mode,
    else 0o666 less the umask.  The temp file sits in the target's
    directory, so the rename is atomic, under a short name that does not
    grow with the target's (``.qslab-<pid>-<n>.tmp``, the next n when one is
    taken).  The content is written as UTF-8 bytes.  An OSError names the
    requested path, never the temp file, which is removed.
    """
    target, mode, tmp = path, None, None
    try:
        try:
            st = os.lstat(path)
            if stat.S_ISLNK(st.st_mode):
                target = os.path.realpath(path)
                st = os.stat(path)
            mode = st.st_mode & 0o777
        except FileNotFoundError:
            pass
        stem = os.path.join(os.path.dirname(target), f".qslab-{os.getpid()}-")
        for n in range(_TEMP_NAMES):
            name = f"{stem}{n}.tmp"
            try:
                fd = os.open(name, _TEMP_FLAGS, 0o666)
                break
            except FileExistsError:
                if n + 1 == _TEMP_NAMES:
                    raise
        tmp = name
        try:
            if mode is not None:
                os.fchmod(fd, mode)
            data = memoryview(content.encode())
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


_CELL = ('    {\n      "node": %d,\n      "k": %d,\n      "value": %s,\n'
         '      "provenance": %s\n    }')
_CHECK = ('    {\n      "name": %s,\n      "node": %s,\n      "status": %s,\n'
          '      "proven": %s,\n      "max_violation": %s,\n      "note": %s\n    }')


def _report_json(report: VerificationReport) -> str:
    """``json.dumps(report_to_dict(report), indent=2)``, byte for byte, with
    the grid cells and the checks written by one format each (``indent``
    takes the pure-Python encoder): the rest of the dict from a copy without
    the grid, the cells straight from the grid's rows, each distinct value
    rendered and each tag encoded once."""
    import copy  # here, for the json reports alone: at the top every process would pay

    enc = encode_basestring_ascii
    g, bare, cells = report.grid, copy.copy(report), []
    bare.grid = None
    out = report_to_dict(bare)
    if g is not None:
        out["residual_max"] = render_decimal(g.residual_max)
        shown = {c: "null" if c is None else enc(render_decimal(c)) for c in {*chain(*g.rows)}}
        shown.update((t, enc(t)) for t in {*chain(*g.provenance)})
        cells = [_CELL % (i, k, shown[c], shown[t])
                 for i, (row, tags) in enumerate(zip(g.rows, g.provenance), 1)
                 for k, (c, t) in enumerate(zip(row, tags))]
    checks = [_CHECK % (enc(c["name"]), "null" if c["node"] is None else c["node"],
                        enc(c["status"]), "true" if c["proven"] else "false",
                        "null" if c["max_violation"] is None else enc(c["max_violation"]),
                        enc(c["note"])) for c in out["checks"]]
    text = json.dumps({**out, "checks": []}, indent=2)
    # only the top-level keys are indented by two spaces
    for key, items in (("cells", cells), ("checks", checks)):
        if items:
            text = text.replace('\n  "%s": []' % key,
                                '\n  "%s": [\n%s\n  ]' % (key, ",\n".join(items)), 1)
    return text


def write_report(report: VerificationReport, path: str | None = None) -> str:
    """Serialize per the config's format; write atomically when a path is given."""
    fmt = report.config.fmt
    if fmt == "json":
        content = _report_json(report) + "\n"
    elif fmt == "csv":
        if report.grid is None:
            raise ValueError("csv output needs a grid-producing check")
        content = grid_to_csv(report.grid)
    else:
        content = report_to_text(report)
    if path:
        write_text_atomic(path, content)
    return content
