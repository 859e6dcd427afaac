"""Command-line interface.

Subcommands: roots, qdim, reduce, krdec, grid, solve, verify, logconcave.
Precision resolution order: --precision-bits flag, then the
QSLAB_PRECISION_BITS environment variable, then a key=value config file
passed with --config, then the default of 128 bits.

Exit codes: 0 on success (including conjecture-only violations), 1 when a
proven check fails or a computation cannot be completed, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NoReturn

from . import affweyl, krchar, qsolver, report, seqanalysis
from .qnum import MIN_PRECISION_BITS, LevelContext, qdim, qdim_classical, qdim_line
from .rootsys import TYPE_DATA, build_root_system, is_dominant, type_data

_ENV_PRECISION = "QSLAB_PRECISION_BITS"


def _read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _usage_error(message: str) -> NoReturn:
    sys.stderr.write(f"error: {message}\n")
    raise SystemExit(2)


def _precision_setting(text: str, source: str) -> int:
    try:
        bits = int(text)
    except ValueError:
        _usage_error(f"{source} must be an integer, got {text!r}")
    if bits < MIN_PRECISION_BITS:
        _usage_error(f"{source} must be at least {MIN_PRECISION_BITS}, got {bits}")
    return bits


def _resolve_precision(args) -> int:
    if args.precision_bits is not None:
        return args.precision_bits
    env = os.environ.get(_ENV_PRECISION)
    if env:
        return _precision_setting(env, _ENV_PRECISION)
    if getattr(args, "config", None):
        cfg = _read_config_file(args.config)
        if "precision_bits" in cfg:
            return _precision_setting(cfg["precision_bits"],
                                      f"precision_bits in {args.config}")
    return 128


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
    """An argparse type: a float greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _check_list(text: str) -> tuple[str, ...]:
    checks = tuple(text.split(","))
    for c in checks:
        if c not in report.ALL_CHECKS:
            raise argparse.ArgumentTypeError(
                f"unknown check {c!r} (choose from {','.join(report.ALL_CHECKS)})")
    return checks


def _common_flags(p: argparse.ArgumentParser, level: bool = True,
                  precision: bool = True, out: tuple[str, ...] = ("--out",)) -> None:
    p.add_argument("--type", type=_type_label, required=True, metavar="TYPE",
                   help="root system type: E6, E7 or E8")
    if level:
        p.add_argument("--level", type=_int_at_least(1), required=True,
                       help="restriction level")
    if precision:
        p.add_argument("--precision-bits", type=_int_at_least(MIN_PRECISION_BITS), default=None)
        p.add_argument("--config", default=None, help="key=value config file")
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


def _check_digits(digits: int) -> None:
    if digits < 1:
        _usage_error(f"--digits must be at least 1, got {digits}")


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
    _check_digits(args.digits)
    rs = build_root_system(args.type)
    weight = _parse_weight(args.weight, rs.rank)
    if not is_dominant(weight):
        _usage_error("qdim requires a dominant weight; reduce general weights first")
    if args.classical:
        _emit(str(qdim_classical(rs, weight)) + "\n", args.out)
        return 0
    ctx = LevelContext(rs, args.level, _resolve_precision(args))
    value = qdim(weight, ctx)
    _emit(report.render_decimal(value.value, args.digits) + "\n", args.out)
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
    _check_digits(args.digits)
    if args.k < 0:
        _usage_error(f"--k must be nonnegative, got {args.k}")
    rs = build_root_system(args.type)
    _check_node(args.node, rs.rank)
    if args.k == 1 and args.node in type_data(rs.type_label).kleber_nodes:
        dec = krchar.kleber_q1(rs, args.node)
    else:
        dec = krchar.chari_decomposition(rs, args.node, args.k)
    lines = [f"{mult} x ({','.join(str(c) for c in w)})" for mult, w in dec.terms]
    text = "\n".join(lines) + "\n"
    if args.qdim:
        if args.level is None:
            _usage_error("--qdim needs --level")
        ctx = LevelContext(rs, args.level, _resolve_precision(args))
        value = krchar.qdim_kr(dec, ctx)
        text += f"qdim {report.render_decimal(value.value, args.digits)}\n"
    _emit(text, args.out)
    return 0


def _cmd_grid(args) -> int:
    _check_kmax(args)
    cfg = report.RunConfig(
        type_label=args.type, level=args.level,
        precision_bits=_resolve_precision(args),
        k_max=args.kmax, fmt=args.fmt, checks=("grid",),
    )
    rep = report.run(cfg)
    content = report.write_report(rep, args.out)
    if not args.out:
        _emit(content, None)
    return rep.exit_code


def _cmd_solve(args) -> int:
    rs = build_root_system(args.type)
    ctx = LevelContext(rs, args.level, _resolve_precision(args))
    grid = qsolver.solve_restricted(ctx, args.tol)
    lines = [f"converged, residual {report.render_decimal(grid.residual_max)}"]
    for i in range(1, rs.rank + 1):
        row = " ".join(report.render_decimal(grid.value(i, k), 12)
                       for k in range(args.level + 1))
        lines.append(f"node {i}: {row}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.fmt == "csv" and not report.reads_grid(args.checks):
        _usage_error("csv output needs a grid-producing check")
    _check_kmax(args)
    cfg = report.RunConfig(
        type_label=args.type, level=args.level,
        precision_bits=_resolve_precision(args),
        k_max=args.kmax, fmt=args.fmt, checks=args.checks,
    )
    rep = report.run(cfg)
    content = report.write_report(rep, args.out)
    if args.out:
        sys.stdout.write(f"{rep.overall} (report written to {args.out})\n")
    else:
        sys.stdout.write(content)
    return rep.exit_code


def _cmd_logconcave(args) -> int:
    if args.seq:
        try:
            seq = seqanalysis.make_sequence(args.seq.replace(",", " ").split())
        except ValueError as exc:
            _usage_error(f"--seq {args.seq!r}: {exc}")
        label = "input sequence"
    else:
        if not args.type or args.level is None or args.node is None:
            _usage_error("need --seq or all of --type/--level/--node")
        rs = build_root_system(args.type)
        _check_node(args.node, rs.rank)
        ctx = LevelContext(rs, args.level, _resolve_precision(args))
        seq = seqanalysis.make_sequence(
            [qdim_line(args.node, k, ctx).value for k in range(args.level + 1)])
        label = f"{args.type} node {args.node} line, level {args.level}"
    order = seqanalysis.log_concavity_order(seq, args.max_order)
    lines = [f"{label}: {len(seq)} entries",
             f"log-concavity order >= {order} (probed up to {args.max_order})"]
    if args.branden:
        verdict = seqanalysis.branden_criterion(seq)
        suffix = f" ({verdict.witness})" if verdict.witness else ""
        lines.append(f"coefficient polynomial: {verdict.status}{suffix}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    _common_flags(p)
    p.add_argument("--weight", required=True, help="comma-separated coordinates")
    p.add_argument("--classical", action="store_true", help="exact Weyl dimension")
    p.add_argument("--digits", type=int, default=30)
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
    p.add_argument("--digits", type=int, default=30)
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
    p.add_argument("--precision-bits", type=_int_at_least(MIN_PRECISION_BITS), default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_logconcave)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, LookupError, OSError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
