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
# The most terms times --precision-bits that krdec --qdim sums, the term
# bound at the default precision: on a shared 2-core host E8 node 1 took
# 10.6 s at 501 501 terms and 128 bits, 2.3 s at 80 601 and 1024 bits, and
# 4.4 s at 20 301 and 4096 bits.
MAX_KRDEC_TERM_BITS = MAX_KRDEC_TERMS * DEFAULT_PRECISION_BITS
# The largest --level: the solver's float start overflows from about E8
# L560; a full E8 verify took 5.5 s at L500 on a shared 2-core host.
MAX_LEVEL = 500
# The largest --precision-bits: a full E7 L12 verify took 3.1 s there at
# 4096 bits, and E6 L2 1.8 s, but 57 s at 16384 bits.
MAX_PRECISION_BITS = 4096
# The largest --level times --precision-bits of grid, solve, verify and
# krdec --qdim: on it a full E8 verify took 3.1, 0.9 and 5.6 s there at L15,
# 60 and 500; at L500 and 4096 bits verify ran past 100 s and krdec --qdim at
# its term bound took 38.6 s, where qdim and logconcave took at most 13.5 s.
MAX_LEVEL_BITS = MAX_LEVEL * DEFAULT_PRECISION_BITS
# The largest --kmax: the grid's cost grows as about its square (E8 node 1's
# nested paired shells); an E8 grid took 10.0 s there at L500 and --kmax 1000
# (74.9 s at 2120, 4l), and at most 13.5 s along MAX_LEVEL_BITS.
MAX_KMAX = 1000
# The most digits of a printed qdim --classical: Python's default limit on
# int-to-str conversion.  E8 with every coordinate at the 4300 digits int()
# reads took 0.7 s to compute on a shared 2-core host.
MAX_CLASSICAL_DIGITS = 4300
# The largest --max-order: 1.9 s on the longest alcove line (E6 L500 node 1).
MAX_ORDER = 1000
# The most --seq entries (10 000 parse in 0.05 s; at --max-order 0 the work
# bound alone let 501 501 through, in 1.6 s and 248 MB), and the most entries
# times (--max-order + 1): what the longest alcove line asks, 501 entries to
# order 1000, at about 2.4 us per entry and iterate.
MAX_SEQ_ENTRIES = 10**4
MAX_SEQ_WORK = (MAX_LEVEL + 1) * (MAX_ORDER + 1)
# The most --seq entries with --branden.  The Descartes bisection decides
# square-free inputs fast (roots spread over 2^-30 .. 2^30: 0.16 s at 80
# entries, 0.44 s at 100), but a repeated real root still goes to the Sturm
# chain, which grows as about the fifth power of the entry count: a
# real-rooted input with a double root took 4.3 s at 80 entries and 21 s at
# 100, and the chain 15 s on 80 spread roots, on a shared 2-core host.
MAX_BRANDEN_ENTRIES = 80


def _usage_error(message: str) -> NoReturn:
    sys.stderr.write(f"error: {message}\n")
    raise SystemExit(2)


def _int_in(minimum: int, maximum: float = math.inf):
    """An argparse type: an integer from ``minimum`` to ``maximum``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
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


def _precision_flag(p: argparse.ArgumentParser, level_bits: bool = False) -> None:
    p.add_argument("--precision-bits", type=_int_in(MIN_PRECISION_BITS, MAX_PRECISION_BITS),
                   default=None, help=f"working precision in bits, {MIN_PRECISION_BITS}.."
                   f"{MAX_PRECISION_BITS} (default {DEFAULT_PRECISION_BITS})"
                   + f", with --level times bits at most {MAX_LEVEL_BITS}" * level_bits)


def _level_flag(p: argparse.ArgumentParser, required: bool) -> None:
    p.add_argument("--level", type=_int_in(1, MAX_LEVEL), required=required,
                   help=f"restriction level, 1..{MAX_LEVEL}")


def _kmax_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kmax", type=int, default=None,
                   help=f"largest k of the grid rows, l..4l and at most {MAX_KMAX}, where l = "
                   f"level + Coxeter number (default l)")


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


def _level_bits(level: int, bits: int) -> int:
    """``bits``, refused when ``level`` times it exceeds MAX_LEVEL_BITS: the
    bound of grid, solve, verify and krdec --qdim."""
    if level * bits > MAX_LEVEL_BITS:
        _usage_error(f"--level {level} times --precision-bits {bits} is "
                     f"{level * bits}, more than {MAX_LEVEL_BITS}")
    return bits


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
        _level_flag(p, required=True)
    if precision:
        _precision_flag(p, level_bits=level)
    p.add_argument(*out, dest="out", default=None, help="output file (written atomically)")


def _parse_weight(text: str, rank: int) -> tuple[int, ...]:
    parts = text.replace(",", " ").split()
    try:
        weight = tuple(map(int, parts))
    except ValueError:
        # int() refuses more digits than its limit (Python 3.10.7 on), whatever follows them
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        digits = max(sum(map(str.isdigit, p)) for p in parts)
        reason = (f"weight coordinate has {digits} digits, more than int()'s limit of {limit}"
                  if 0 < limit < digits else "weight coordinates must be integers")
        _usage_error(f"{reason}, got {seqanalysis.clip(text)!r}")
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
    top = min(4 * l, MAX_KMAX)
    if not l <= args.kmax <= top:
        _usage_error(f"--kmax must be in {l}..{top}, got {args.kmax}")


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
        dim = qdim_classical(rs, weight)
        if dim >= 10**MAX_CLASSICAL_DIGITS:
            _usage_error(f"the classical dimension has more than {MAX_CLASSICAL_DIGITS} digits")
        _emit(str(dim) + "\n", args.out)
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
    if level is not None:
        _level_bits(level, bits)
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
    if args.qdim and count * bits > MAX_KRDEC_TERM_BITS:
        _usage_error(f"--k {args.k} gives {count} terms, and {count} times --precision-bits "
                     f"{bits} is {count * bits}, more than {MAX_KRDEC_TERM_BITS}")
    dec = (krchar.kleber_q1(rs, args.node) if kleber
           else krchar.chari_decomposition(rs, args.node, args.k))
    lines = [f"{mult} x ({','.join(str(c) for c in w)})" for mult, w in dec.terms]
    text = "\n".join(lines) + "\n"
    if args.qdim:
        ctx = LevelContext(rs, level, bits)
        value = krchar.qdim_kr(dec, ctx) if kleber else krchar.chari_qdim(args.node, args.k, ctx)
        text += f"qdim {render_decimal(value._v, digits)}\n"
    _emit(text, args.out)
    return 0


def _run_report(args, checks: tuple[str, ...]) -> tuple[report.VerificationReport, str]:
    """Run ``checks`` as the flags say and write the report to --out when
    given; the report and its content."""
    _check_kmax(args)
    cfg = report.RunConfig(
        type_label=args.type, level=args.level,
        precision_bits=_level_bits(args.level, _precision(args)),
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
    ctx = LevelContext(rs, args.level, _level_bits(args.level, _precision(args)))
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


def _seq_error(text: str, reason: str) -> NoReturn:
    """A usage error of --seq, quoting at most 40 characters of it."""
    _usage_error(f"--seq {seqanalysis.clip(text)!r}: {reason}")


def _parse_seq(text: str, max_order: int, branden: bool) -> seqanalysis.RealSequence:
    """The numbers of --seq, separated by commas or spaces, at most
    MAX_SEQ_ENTRIES of them (MAX_BRANDEN_ENTRIES with --branden) and
    MAX_SEQ_WORK times (max_order + 1)."""
    fields = [f.split() for f in text.split(",")]
    if not all(fields):
        _seq_error(text, "empty entry")
    tokens = [t for f in fields for t in f]
    most = MAX_BRANDEN_ENTRIES if branden else MAX_SEQ_ENTRIES
    if len(tokens) > most:
        _seq_error(text, f"{len(tokens)} entries, more than {most}"
                         + " with --branden" * branden)
    work = len(tokens) * (max_order + 1)
    if work > MAX_SEQ_WORK:
        _seq_error(text, f"{len(tokens)} entries times --max-order {max_order} + 1 is "
                         f"{work}, more than {MAX_SEQ_WORK}")
    try:
        return seqanalysis.make_sequence(tokens)
    except ValueError as exc:
        _seq_error(text, str(exc))


def _cmd_logconcave(args) -> int:
    if args.seq is not None:
        if args.type or args.level is not None or args.node is not None:
            _seq_error(args.seq, "cannot be combined with --type, --level or --node")
        _precision(args, unused_in="with --seq")
        seq = _parse_seq(args.seq, args.max_order, args.branden)
        if args.branden and not any(man for _, man, _ in seq.entries):
            _seq_error(args.seq, "zero polynomial")
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
    _level_flag(p, required=False)
    p.add_argument("--weight", required=True, help="comma-separated coordinates")
    p.add_argument("--classical", action="store_true",
                   help=f"exact Weyl dimension, of at most {MAX_CLASSICAL_DIGITS} digits")
    p.add_argument("--digits", type=int, default=None)
    p.set_defaults(fn=_cmd_qdim)

    p = sub.add_parser("reduce", help="reduce a weight into the fundamental alcove")
    _common_flags(p, precision=False)
    p.add_argument("--weight", required=True)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("krdec", help="KR module decomposition")
    _common_flags(p, level=False, precision=False)
    _precision_flag(p, level_bits=True)
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _level_flag(p, required=False)
    p.add_argument("--qdim", action="store_true",
                   help=f"also the quantum dimension at --level, for at most "
                   f"{MAX_KRDEC_TERM_BITS} terms times --precision-bits")
    p.add_argument("--digits", type=int, default=None)
    p.set_defaults(fn=_cmd_krdec)

    p = sub.add_parser("grid", help="build the Q-grid from KR quantum dimensions")
    _common_flags(p)
    p.add_argument("--format", dest="fmt", default="json", choices=report.REPORT_FORMATS)
    _kmax_flag(p)
    p.set_defaults(fn=_cmd_grid)

    p = sub.add_parser("solve", help="solve the restricted system")
    _common_flags(p)
    p.add_argument("--tol", type=_positive_float, default=qsolver.SOLVER_TOLERANCE)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("verify", help="run the verification suite")
    _common_flags(p, out=("--report", "--out"))
    p.add_argument("--format", dest="fmt", default="json", choices=report.REPORT_FORMATS)
    _kmax_flag(p)
    p.add_argument("--checks", type=_check_list, default=report.ALL_CHECKS,
                   help="comma-separated subset of " + ",".join(report.ALL_CHECKS))
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("logconcave", help="log-concavity and rootedness probes")
    p.add_argument("--type", type=_type_label, default=None, metavar="TYPE")
    _level_flag(p, required=False)
    p.add_argument("--node", type=int, default=None)
    p.add_argument("--max-order", type=_int_in(0, MAX_ORDER), default=6,
                   help=f"L-iterates probed, 0..{MAX_ORDER} (default 6)")
    p.add_argument("--branden", action="store_true")
    p.add_argument("--seq", default=None,
                   help=f"raw comma-separated sequence of at most {MAX_SEQ_ENTRIES} entries "
                   f"({MAX_BRANDEN_ENTRIES} with --branden), with entries times "
                   f"(--max-order + 1) at most {MAX_SEQ_WORK}")
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
