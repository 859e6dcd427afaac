"""The benchmark's workloads: fixed lists of ``qslab`` command lines.

No workload depends on a seed.  Each operation is one ``qslab`` invocation
whose output goes to a file; ``{out}`` in an argument list is replaced by
that file's path when the operation runs.
"""

from __future__ import annotations

from dataclasses import dataclass

LEVEL_SWEEP_CHECKS = "roots,grid,theorem,logconcave,dilog"


@dataclass(frozen=True)
class Operation:
    command: str  # "verify" or "solve"
    type_label: str
    level: int
    argv: tuple[str, ...]

    @property
    def label(self) -> str:
        return f"{self.command} {self.type_label} L{self.level}"


@dataclass(frozen=True)
class Workload:
    name: str
    operations: tuple[Operation, ...]
    # Operations that fail on every run because of a known program fault,
    # keyed by label, with the name of the report check that fails.  They
    # are counted as failed, never dropped, and their reports are checked
    # like any other.
    known_failures: dict[str, str]

    @property
    def types(self) -> tuple[str, ...]:
        return tuple(sorted({op.type_label for op in self.operations}))


def _verify(type_label: str, level: int, checks: str | None = None) -> Operation:
    argv = ["verify", "--type", type_label, "--level", str(level), "--report", "{out}"]
    if checks is not None:
        argv += ["--checks", checks]
    return Operation("verify", type_label, level, tuple(argv))


def _solve(type_label: str, level: int) -> Operation:
    argv = ("solve", "--type", type_label, "--level", str(level), "--out", "{out}")
    return Operation("solve", type_label, level, argv)


def _levels(spec: dict[str, tuple[int, ...]]) -> list[tuple[str, int]]:
    return [(t, level) for t, levels in spec.items() for level in levels]


WORKLOADS = {
    w.name: w
    for w in (
        # Configurations of every type from the acceptance matrix, all seven
        # check groups: every layer works, and sign trials and the restricted
        # solver take most of the time.
        Workload(
            name="verify-matrix",
            operations=tuple(_verify(t, level) for t, level in
                             _levels({"E6": (2, 4), "E7": (2,), "E8": (2,)})),
            known_failures={},
        ),
        # Levels spread up to E6 L30, E7 L28 and E8 L16, with the Branden
        # threshold E7 L11-12, without the solver or sign trials: grid
        # propagation, KR sums, theorem checks, log-concavity, dilogarithms
        # and serialization of large reports.
        Workload(
            name="level-sweep",
            operations=tuple(_verify(t, level, LEVEL_SWEEP_CHECKS) for t, level in _levels({
                "E6": (6, 30),
                "E7": (1, 4, 11, 12, 28),
                "E8": (4, 16),
            })),
            known_failures={
                # At 128 bits cell (2, 46) stays unresolved: the precision
                # does not follow the level.
                "verify E8 L16": "grid_unresolved",
                # seqanalysis._default_tolerance, 2^-64 max|a|^2 for the
                # whole node-5 sequence, exceeds the true margin at k = 1.
                "verify E7 L28": "fundamental_lines_log_concave",
            },
        ),
        # The restricted solver alone, no grid, at levels whose solves take
        # about a second or less, below the deepest that converge (E6 L10, E7
        # L9, E8 L7), which take up to 5 s each: six passes over those would
        # not fit in a run.  E7 L10 and E8 L8 hit the sweep cap after about
        # 200 s.
        Workload(
            name="solve-deep",
            operations=tuple(_solve(t, level) for t, level in
                             _levels({"E6": (4, 8), "E7": (3, 5), "E8": (3,)})),
            known_failures={},
        ),
    )
}
