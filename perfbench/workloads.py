"""The benchmark's workloads: fixed sequences of `fractalforms` subcommands.

Each operation is the argument list of one `fractalforms.cli.main` call.  The
pass adds `--seed`, `--out` and `--cache` to every call, so the workload
seed is the only input that varies between runs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    why: str
    ops: tuple[tuple[str, ...], ...]


WORKLOADS = {
    "carpet": Workload(
        why=(
            "carpet resistances and Harnack balls: one-off solves next to 40 solves "
            "on 2 reused ball systems, plus the cache write and read paths"
        ),
        ops=(
            ("resistance", "--kind", "sc", "--levels", "1..4"),
            ("harnack", "--kind", "sc", "--levels", "3,4", "--trials", "20"),
            # same levels again: every graph now comes from the cache
            ("resistance", "--kind", "sc", "--levels", "1..4"),
        ),
    ),
    "gasket_exact": Workload(
        why=(
            "exact Fraction energies, harmonic extension and semi-norm Monte Carlo "
            "with no linear solve: the control for solver and walk changes"
        ),
        ops=(
            ("energy", "--kind", "sg", "--levels", "1..8"),
            ("walkdim", "--kind", "sg", "--levels", "1..8"),
            ("mosco", "--depth", "7"),
            ("trace", "--depth", "7"),
            ("besov", "--kind", "sg", "--depth", "6"),
            ("energy", "--kind", "sc", "--levels", "1..4"),
        ),
    ),
    "tree_walk": Workload(
        why=(
            "the only user of the walk engine: pure-Python cell graphs to level 10, "
            "closure solves and vectorised Monte Carlo paths"
        ),
        ops=(
            ("walk", "--lambda", "0.5", "--c", "0.25", "--samples", "20000", "--depth-cut", "10"),
            (
                "walk", "--lambda", "0.8", "--c", "0.5", "--samples", "50000",
                "--depth-cut", "10", "--m", "3",
            ),
        ),
    ),
}

SUBCOMMANDS = tuple(sorted({op[0] for w in WORKLOADS.values() for op in w.ops}))


def flag(argv, name: str) -> str:
    """Value following `name` in an argument list."""
    return argv[list(argv).index(name) + 1]
