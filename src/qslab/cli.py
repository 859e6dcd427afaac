"""Command-line interface.

Subcommands: roots, qdim, reduce, krdec, grid, solve, verify, logconcave.
The working precision comes from --precision-bits alone, on the
subcommands that compute with reals; its default is
qnum.DEFAULT_PRECISION_BITS.  A mode that does not use --precision-bits,
--digits or --level rejects it: qdim --classical and krdec without --qdim
all three, and logconcave --seq the first.  So does verify with --kmax when
no selected check group reads the grid.

Exit codes: 0 on success (including conjecture-only violations), 1 when a
proven check fails or a computation cannot be completed, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from decimal import MAX_PREC
from functools import cache
from typing import NoReturn

from . import affweyl, krchar, qsolver, report, seqanalysis
from .qnum import (DEFAULT_PRECISION_BITS, MIN_PRECISION_BITS, LevelContext, alcove_line,
                   qdim, qdim_classical, render_decimal)
from .rootsys import TYPE_DATA, build_root_system, is_dominant, type_data


# Significant digits of a printed quantum dimension.
DEFAULT_DIGITS = 30
# The most terms krdec builds: 10^6 took about 4 s and 0.4 GB to print, and
# about 13 s in the same memory with --qdim.
MAX_KRDEC_TERMS = 10**6


def _usage_error(message: str) -> NoReturn:
    sys.stderr.write(f"error: {message}\n")
    raise SystemExit(2)


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return integer


def _type_label(text: str) -> str:
    """An argparse type: an E type label, in either case, upper-cased."""
    label = text.upper()
    if label not in TYPE_DATA:
        raise argparse.ArgumentTypeError(
            f"unknown type {text!r} (choose from {', '.join(TYPE_DATA)})")
    return label


def _positive_float(text: str) -> float:
    """An argparse type: a finite float greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _check_list(text: str) -> tuple[str, ...]:
    checks = tuple(text.split(","))
    for n, c in enumerate(checks):
        if c not in report.ALL_CHECKS:
            raise argparse.ArgumentTypeError(
                f"unknown check {c!r} (choose from {','.join(report.ALL_CHECKS)})")
        if c in checks[:n]:
            raise argparse.ArgumentTypeError(f"repeated check {c!r}")
    return checks


def _precision_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--precision-bits", type=_int_at_least(MIN_PRECISION_BITS), default=None)


def _optional(args, flag: str, default=None, unused_in: str = ""):
    """The value of ``flag``, whose parser default is None, or ``default``
    when it is not given; a usage error when given to a mode that does not
    use it, named by ``unused_in``."""
    value = getattr(args, flag[2:].replace("-", "_"))
    if value is None:
        return default
    if unused_in:
        _usage_error(f"{flag} has no effect {unused_in}")
    return value


def _precision(args, unused_in: str = "") -> int:
    return _optional(args, "--precision-bits", DEFAULT_PRECISION_BITS, unused_in)


def _digits(args, unused_in: str = "") -> int:
    digits = _optional(args, "--digits", DEFAULT_DIGITS, unused_in)
    if digits < 1:
        _usage_error(f"--digits must be at least 1, got {digits}")
    if digits > MAX_PREC:
        _usage_error(f"--digits must be at most {MAX_PREC}, got {digits}")
    return digits


def _common_flags(p: argparse.ArgumentParser, level: bool = True,
                  precision: bool = True, out: tuple[str, ...] = ("--out",)) -> None:
    p.add_argument("--type", type=_type_label, required=True, metavar="TYPE",
                   help="root system type: E6, E7 or E8")
    if level:
        p.add_argument("--level", type=_int_at_least(1), required=True,
                       help="restriction level")
    if precision:
        _precision_flag(p)
    p.add_argument(*out, dest="out", default=None, help="output file (written atomically)")


def _parse_weight(text: str, rank: int) -> tuple[int, ...]:
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        weight = tuple(int(p) for p in parts)
    except ValueError:
        _usage_error(f"weight coordinates must be integers, got {text!r}")
    if len(weight) != rank:
        _usage_error(f"weight needs {rank} coordinates, got {len(weight)}")
    return weight


def _check_node(node: int, rank: int) -> None:
    if not 1 <= node <= rank:
        _usage_error(f"--node must be in 1..{rank}, got {node}")


def _check_kmax(args) -> None:
    if args.kmax is None:
        return
    l = args.level + type_data(args.type).coxeter_number
    if not l <= args.kmax <= 4 * l:
        _usage_error(f"--kmax must be in {l}..{4 * l}, got {args.kmax}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        report.write_text_atomic(out_path, text)
    else:
        sys.stdout.write(text)


def _cmd_roots(args) -> int:
    rs = build_root_system(args.type)
    if args.fmt == "json":
        import json

        rows = [{"index": i + 1, "height": sum(b), "coefficients": list(b)}
                for i, b in enumerate(rs.positive_roots)]
        text = json.dumps({"type": rs.type_label, "count": len(rows),
                           "coxeter_number": rs.coxeter_number,
                           "marks": list(rs.marks), "roots": rows}, indent=2) + "\n"
    elif args.fmt == "csv":
        lines = ["index,height," + ",".join(f"b{j+1}" for j in range(rs.rank))]
        for i, b in enumerate(rs.positive_roots):
            lines.append(f"{i+1},{sum(b)}," + ",".join(str(c) for c in b))
        text = "\n".join(lines) + "\n"
    else:
        text = "".join(
            f"{i+1} {sum(b)} " + " ".join(str(c) for c in b) + "\n"
            for i, b in enumerate(rs.positive_roots)
        )
    _emit(text, args.out)
    return 0


def _cmd_qdim(args) -> int:
    rs = build_root_system(args.type)
    weight = _parse_weight(args.weight, rs.rank)
    if not is_dominant(weight):
        _usage_error("qdim requires a dominant weight; reduce general weights first")
    if args.classical:
        for flag in ("--precision-bits", "--digits", "--level"):
            _optional(args, flag, unused_in="with --classical")
        _emit(str(qdim_classical(rs, weight)) + "\n", args.out)
        return 0
    digits = _digits(args)
    if args.level is None:
        _usage_error("qdim needs --level unless --classical")
    ctx = LevelContext(rs, args.level, _precision(args))
    value = qdim(weight, ctx)
    _emit(render_decimal(value._v, digits) + "\n", args.out)
    return 0


def _cmd_reduce(args) -> int:
    rs = build_root_system(args.type)
    ctx = LevelContext(rs, args.level)
    weight = _parse_weight(args.weight, rs.rank)
    red = affweyl.reduce_to_dominant(weight, ctx)
    if red.result_kind == "on_wall":
        text = f"on_wall (quantum dimension 0) after {red.word_length} reflections\n"
    else:
        coords = ",".join(str(c) for c in red.dominant_weight)
        text = (f"dominant {coords}  sign {red.sign:+d}  "
                f"reflections {red.word_length}\n")
    _emit(text, args.out)
    return 0


def _cmd_krdec(args) -> int:
    unused_in = "" if args.qdim else "without --qdim"
    digits = _digits(args, unused_in)
    if args.k < 0:
        _usage_error(f"--k must be nonnegative, got {args.k}")
    bits = _precision(args, unused_in)
    level = _optional(args, "--level", unused_in=unused_in)
    rs = build_root_system(args.type)
    _check_node(args.node, rs.rank)
    td = type_data(rs.type_label)
    kleber = args.k == 1 and args.node in td.kleber_q1
    if not kleber and args.node not in td.direct_nodes:
        _usage_error(f"no closed-form decomposition for ({rs.type_label}, node {args.node})")
    if args.qdim and level is None:
        _usage_error("--qdim needs --level")
    count = 0 if kleber else krchar.chari_term_count(rs, args.node, args.k)
    if count > MAX_KRDEC_TERMS:
        _usage_error(f"--k {args.k} gives {count} terms, more than {MAX_KRDEC_TERMS}")
    dec = (krchar.kleber_q1(rs, args.node) if kleber
           else krchar.chari_decomposition(rs, args.node, args.k))
    lines = [f"{mult} x ({','.join(str(c) for c in w)})" for mult, w in dec.terms]
    text = "\n".join(lines) + "\n"
    if args.qdim:
        ctx = LevelContext(rs, level, bits)
        value = krchar.qdim_kr(dec, ctx)
        text += f"qdim {render_decimal(value._v, digits)}\n"
    _emit(text, args.out)
    return 0


def _run_report(args, checks: tuple[str, ...]) -> tuple[report.VerificationReport, str]:
    """Run ``checks`` as the flags say and write the report to --out when
    given; the report and its content."""
    _check_kmax(args)
    cfg = report.RunConfig(
        type_label=args.type, level=args.level,
        precision_bits=_precision(args),
        k_max=args.kmax, fmt=args.fmt, checks=checks,
    )
    rep = report.run(cfg)
    return rep, report.write_report(rep, args.out)


def _cmd_grid(args) -> int:
    rep, content = _run_report(args, ("grid",))
    if not args.out:
        sys.stdout.write(content)
    return rep.exit_code


def _cmd_solve(args) -> int:
    rs = build_root_system(args.type)
    ctx = LevelContext(rs, args.level, _precision(args))
    try:
        grid = qsolver.solve_restricted(ctx, args.tol)
    except ValueError as exc:
        _usage_error(str(exc))  # --tol not finite or below the working precision
    lines = [f"converged, residual {render_decimal(grid.residual_max)}"]
    for i, row in enumerate(grid.rows, 1):
        # a mirrored cell is the same triple as its image: render it once
        shown = {c: render_decimal(c, 12) for c in set(row)}
        lines.append(f"node {i}: {' '.join(shown[c] for c in row)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    if not report.reads_grid(args.checks):
        if args.fmt == "csv":
            _usage_error("csv output needs a grid-producing check")
        _optional(args, "--kmax", unused_in="without a grid-producing check")
    rep, content = _run_report(args, args.checks)
    if args.out:
        sys.stdout.write(f"{rep.overall} (report written to {args.out})\n")
    else:
        sys.stdout.write(content)
    return rep.exit_code


def _parse_seq(text: str) -> seqanalysis.RealSequence:
    """The numbers of --seq, separated by commas or spaces."""
    fields = [f.split() for f in text.split(",")]
    if not all(fields):
        _usage_error(f"--seq {text!r}: empty entry")
    tokens = [t for f in fields for t in f]
    try:
        return seqanalysis.make_sequence(tokens)
    except ValueError as exc:
        _usage_error(f"--seq {text!r}: {exc}")


def _cmd_logconcave(args) -> int:
    if args.seq is not None:
        if args.type or args.level is not None or args.node is not None:
            _usage_error(f"--seq {args.seq!r}: cannot be combined with "
                         "--type, --level or --node")
        _precision(args, unused_in="with --seq")
        seq = _parse_seq(args.seq)
        if args.branden and not any(man for _, man, _ in seq.entries):
            _usage_error(f"--seq {args.seq!r}: zero polynomial")
        label = "input sequence"
    else:
        if not args.type or args.level is None or args.node is None:
            _usage_error("need --seq or all of --type/--level/--node")
        rs = build_root_system(args.type)
        _check_node(args.node, rs.rank)
        ctx = LevelContext(rs, args.level, _precision(args))
        seq = seqanalysis.make_sequence(alcove_line(args.node, ctx), ctx.precision_bits)
        label = f"{args.type} node {args.node} line, level {args.level}"
    order = seqanalysis.log_concavity_order(seq, args.max_order)
    lines = [f"{label}: {len(seq)} {'entry' if len(seq) == 1 else 'entries'}",
             f"log-concavity order {seqanalysis.order_text(order, args.max_order)}"]
    if args.branden:
        verdict = seqanalysis.branden_criterion(seq)
        lines.append(f"coefficient polynomial: {seqanalysis.verdict_text(verdict)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The qslab argument parser, built once per process.

    Parsing leaves the parser as it was and returns a fresh Namespace, so
    every ``main`` call in a process shares this one.
    """
    parser = argparse.ArgumentParser(
        prog="qslab",
        description="Quantum dimensions at roots of unity and restricted Q-systems "
                    "for the exceptional simply-laced types.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="positive-root table")
    _common_flags(p, level=False, precision=False)
    p.add_argument("--format", dest="fmt", default="fixture",
                   choices=("fixture", "json", "csv"))
    p.set_defaults(fn=_cmd_roots)

    p = sub.add_parser("qdim", help="quantum dimension of a dominant weight")
    _common_flags(p, level=False)
    p.add_argument("--level", type=_int_at_least(1), default=None)
    p.add_argument("--weight", required=True, help="comma-separated coordinates")
    p.add_argument("--classical", action="store_true", help="exact Weyl dimension")
    p.add_argument("--digits", type=int, default=None)
    p.set_defaults(fn=_cmd_qdim)

    p = sub.add_parser("reduce", help="reduce a weight into the fundamental alcove")
    _common_flags(p, precision=False)
    p.add_argument("--weight", required=True)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("krdec", help="KR module decomposition")
    _common_flags(p, level=False)
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--level", type=_int_at_least(1), default=None)
    p.add_argument("--qdim", action="store_true")
    p.add_argument("--digits", type=int, default=None)
    p.set_defaults(fn=_cmd_krdec)

    p = sub.add_parser("grid", help="build the Q-grid from KR quantum dimensions")
    _common_flags(p)
    p.add_argument("--format", dest="fmt", default="json", choices=report.REPORT_FORMATS)
    p.add_argument("--kmax", type=int, default=None)
    p.set_defaults(fn=_cmd_grid)

    p = sub.add_parser("solve", help="solve the restricted system")
    _common_flags(p)
    p.add_argument("--tol", type=_positive_float, default=qsolver.SOLVER_TOLERANCE)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("verify", help="run the verification suite")
    _common_flags(p, out=("--report", "--out"))
    p.add_argument("--format", dest="fmt", default="json", choices=report.REPORT_FORMATS)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--checks", type=_check_list, default=report.ALL_CHECKS,
                   help="comma-separated subset of " + ",".join(report.ALL_CHECKS))
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("logconcave", help="log-concavity and rootedness probes")
    p.add_argument("--type", type=_type_label, default=None, metavar="TYPE")
    p.add_argument("--level", type=_int_at_least(1), default=None)
    p.add_argument("--node", type=int, default=None)
    p.add_argument("--max-order", type=_int_at_least(0), default=6)
    p.add_argument("--branden", action="store_true")
    p.add_argument("--seq", default=None, help="raw comma-separated sequence")
    _precision_flag(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_logconcave)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, LookupError, OSError, RuntimeError, OverflowError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
