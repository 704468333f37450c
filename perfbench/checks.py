"""Correctness checks on the data files a pass writes.

Every check is one operation of the benchmark: it either holds or counts as
a failure.  The checks compare against closed forms, brackets and values
recorded when the benchmark was defined; they never read the library.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import NamedTuple

from workloads import flag


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


# R_n^V on the carpet, levels 1..4, as computed when the benchmark was defined
SC_RNV_REFERENCE = (
    1.1818181818181819,
    1.4576058789812123,
    1.819148047713802,
    2.2755622062684009,
)
WALKDIM_SG = math.log(5) / math.log(2)
BESOV_BAND = (1 / 50, 50.0)
MC_SIGMAS = 4.0


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _worst_rel(pairs) -> float:
    return max((_rel(g, w) for g, w in pairs), default=0.0)


def _within(name: str, pairs, tol: float) -> Check:
    pairs = list(pairs)
    worst = _worst_rel(pairs)
    return Check(name, bool(pairs) and worst <= tol, f"worst relative error {worst:.3g} (tol {tol:g})")


def check_resistance(rows) -> list[Check]:
    got = [float(r["RnV"]) for r in rows]
    ns = [int(r["n"]) for r in rows]
    ref = _within(
        "resistance.reference",
        [(g, SC_RNV_REFERENCE[n - 1]) for n, g in zip(ns, got)],
        1e-9,
    )
    if len(got) != len(SC_RNV_REFERENCE):
        ref = Check(ref.name, False, f"{len(got)} levels, expected {len(SC_RNV_REFERENCE)}")
    ratios = [got[i + 1] / got[i] for i in range(len(got) - 1) if ns[i] >= 2]
    growth = Check(
        "resistance.growth",
        bool(ratios) and all(7 / 6 <= q <= 3 / 2 for q in ratios),
        "ratios " + ", ".join(f"{q:.6f}" for q in ratios),
    )
    return [ref, growth]


def check_harnack(rows, expected_rows: int) -> Check:
    ratios = [float(r["ratio"]) for r in rows]
    ok = len(ratios) == expected_rows and all(math.isfinite(q) and q >= 1 for q in ratios)
    return Check("harnack.ratios", ok, f"{len(ratios)} ratios, min {min(ratios, default=math.nan):.6f}")


def check_carpet(files: list[Path], ops) -> list[Check]:
    cold, harnack, warm = files
    levels, trials = flag(ops[1], "--levels"), int(flag(ops[1], "--trials"))
    out = check_resistance(read_csv(cold))
    out.append(Check("resistance.warm_equals_cold", cold.read_bytes() == warm.read_bytes(), ""))
    out.append(check_harnack(read_csv(harnack), len(levels.split(",")) * trials))
    return out


def check_sg_energy(rows) -> list[Check]:
    ns = [int(r["n"]) for r in rows]
    q = [0.6**n for n in ns]
    return [
        _within("energy.Bn", [(float(r["Bn"]), 2 * qn) for r, qn in zip(rows, q)], 1e-12),
        _within("energy.En", [(float(r["En"]), 2.0) for r in rows], 1e-12),
        _within(
            "energy.An",
            [(float(r["An"]), 4 / 3 * (qn - qn * qn)) for r, qn in zip(rows, q)],
            1e-12,
        ),
    ]


def check_sc_strip(rows) -> list[Check]:
    ns = [int(r["n"]) for r in rows]
    return [
        _within(
            "energy.strip_pointwise",
            [(float(r["strip_pointwise"]), (6 / 7) ** n) for r, n in zip(rows, ns)],
            1e-12,
        ),
        _within(
            "energy.cantor_strip",
            [(float(r["cantor_strip"]), (2 / 3) ** n) for r, n in zip(rows, ns)],
            1e-12,
        ),
    ]


def check_walkdim(rows) -> Check:
    betas = [float(r["beta_hat"]) for r in rows if r["beta_hat"]]
    worst = max((abs(b - WALKDIM_SG) for b in betas), default=math.inf)
    return Check("walkdim.beta_hat", worst <= 1e-9, f"worst error {worst:.3g}")


def check_trace(rows) -> Check:
    flags = [r["dominated"] for r in rows]
    return Check("trace.dominated", flags == ["1"], f"dominated {flags}")


def check_besov(rows) -> Check:
    lo, hi = BESOV_BAND
    ratios = [float(r["ratio"]) if r["ratio"] else math.nan for r in rows]
    ok = bool(ratios) and all(lo <= q <= hi for q in ratios)
    return Check("besov.ratio_band", ok, "ratios " + ", ".join(f"{q:.4f}" for q in ratios))


def check_mosco(rows) -> Check:
    values = [float(r["value"]) for r in rows]
    ok = len(values) == 20 and all(math.isfinite(v) and v > 0 for v in values)
    return Check("mosco.values", ok, f"{len(values)} values")


def check_gasket_exact(files: list[Path], ops) -> list[Check]:
    energy_sg, walkdim, mosco, trace, besov, energy_sc = files
    return [
        *check_sg_energy(read_csv(energy_sg)),
        check_walkdim(read_csv(walkdim)),
        check_mosco(read_csv(mosco)),
        check_trace(read_csv(trace)),
        check_besov(read_csv(besov)),
        *check_sc_strip(read_csv(energy_sc)),
    ]


def check_walk(tree: dict, lam: float, c: float) -> list[Check]:
    target = 1 / (1 - lam)
    g = tree["G_oo"]
    bracket = Check(
        "walk.green_bracket",
        g["exact_lo"] <= target <= g["exact_hi"],
        f"[{g['exact_lo']:.9g}, {g['exact_hi']:.9g}] vs {target:.9g}",
    )
    mc = Check(
        "walk.green_mc",
        abs(g["mc"] - target) <= MC_SIGMAS * g["stderr"],
        f"{g['mc']:.6g} +- {g['stderr']:.3g} vs {target:.6g}",
    )
    misses = [f["x"] for f in tree["F"] if not f["lower"] <= lam ** len(f["x"]) <= f["upper"]]
    hitting = Check("walk.F_brackets", bool(tree["F"]) and not misses, f"misses {misses}")
    life = tree["lifetime"]
    closed = 1 / (3 * (1 - lam) * (1 - c))
    lifetime = Check(
        "walk.lifetime",
        abs(life["mean"] - closed) <= MC_SIGMAS * life["stderr"],
        f"{life['mean']:.6g} +- {life['stderr']:.3g} vs {closed:.6g}",
    )
    total = math.fsum(tree["hit_dist"]["freqs"])
    hits = Check("walk.hit_freqs_sum", abs(total - 1) <= 1e-12, f"sum {total!r}")
    return [bracket, mc, hitting, lifetime, hits]


def check_tree_walk(files: list[Path], ops) -> list[Check]:
    out = []
    for path, argv in zip(files, ops, strict=True):
        tree = json.loads(path.read_text(encoding="utf-8"))
        out += check_walk(tree, float(flag(argv, "--lambda")), float(flag(argv, "--c")))
    return out


CHECKS = {
    "carpet": check_carpet,
    "gasket_exact": check_gasket_exact,
    "tree_walk": check_tree_walk,
}


def run_checks(workload: str, files: list[Path], ops) -> list[Check]:
    """All checks of a pass; an output that cannot be read fails as one check."""
    try:
        return CHECKS[workload](files, ops)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [Check(f"{workload}.readable", False, f"{type(e).__name__}: {e}")]


def data_files(out_dir: Path) -> dict[str, bytes]:
    """Data files under a pass's output directory, without the meta sidecars."""
    return {
        p.relative_to(out_dir).as_posix(): p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.suffix in (".csv", ".json") and not p.name.endswith(".meta.json")
    }


def compare_outputs(reference: dict[str, bytes], got: dict[str, bytes]) -> list[Check]:
    """One check per data file: same name set and byte-identical contents."""
    return [
        Check(f"determinism.{name}", reference.get(name) == got.get(name), "")
        for name in sorted(reference.keys() | got.keys())
    ]
