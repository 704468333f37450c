"""Command-line front end tying the library into reproducible experiment runs.

Each subcommand computes one family of quantities and writes a CSV or JSON
report plus a meta sidecar through the reporting module.  One table,
_SUBCOMMANDS, says what each reads: the fractals it runs on and the config
keys its handler reads.  A run checks only those keys once its flags are
folded in, and its meta's config block holds them and out_dir, so the
experiment id moves only with what the run read.  Exit codes: 0 ok,
2 invalid configuration or parameters, 3 resource cap exceeded, 4 linear
solver failure (a factorization failed or a residual exceeded the fixed
tolerance networks.SOLVER_TOL) or a result that is not finite.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import replace
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np

from .besov import (
    KERNEL_DEPTH_CAP,
    MC_SAMPLES_CAP,
    BesovParams,
    _level_energies,
    _weighted_terms,
    besov_double_integral_mc,
    interval_trace_check,
    JumpKernelParams,
    jump_kernel_Ci,
    mc_depth,
    sg_monotone_limit,
    walkdim_estimate,
)
from .config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_dict,
    load_config,
)
from .energies import VertexFunction, exact_float, restrict_to_level, sg_pointwise_energy_Bn
from .geometry import cached_vertex_graph
from .harmonic import (
    harnack_ball,
    harnack_ratio,
    sc_good_function,
    sg_harmonic,
    strip_energy_checks,
)
from .kinds import FractalKind, SG_BETA_STAR
from .networks import SolverError, rho_estimate, sc_RnV, sg_word_resistance, solver_log
from .reporting import ExperimentReport, NonFiniteResultError
from .treewalk import (
    DEPTH_CAP,
    SAMPLES_CAP,
    WalkParams,
    boundary_hit_distribution,
    ctrw_lifetime,
    ctrw_lifetime_closed_form,
    ctrw_truncation_bias,
    green_oo,
    hitting_prob_F,
)
from .words import enumerate_words

# most trials a harnack run may ask for: a level-7 trial solves in about
# 50 ms (2-core VM), so 1,000 trials spend at most 50 s per level 7 listed
TRIALS_CAP = 1_000
# most right-hand-side floats (free vertices times trials) of one harnack
# solve: 20 trials take one solve per level to level 4 and two at level 5
# (16,041 free vertices), and a level-7 ball solves one trial at a time
_HARNACK_RHS_FLOATS = 2 ** 18
# most points of a mosco curve: 10^5 points take 2.4 s and peak at 84 MB at
# depth 6 (2-core VM), against 0.6 s and 63 MB for the default 20
POINTS_CAP = 100_000


class ResourceCapError(RuntimeError):
    """Requested work beyond the configured caps; maps to exit code 3."""


def _parse_levels(text: str) -> list[int]:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = (int(x) for x in text.split("..", 1))
            levels = list(range(lo, hi + 1))
        else:
            levels = [int(x) for x in text.split(",")]
    except ValueError as e:
        raise ConfigError(f"bad level list {text!r}") from e
    if not levels:
        raise ConfigError(f"empty level range {text!r}")
    if len(set(levels)) != len(levels):  # the fits across levels would be singular
        raise ConfigError(f"level list {text!r} repeats a level")
    return sorted(levels)


def _check_levels(levels, cap: int) -> None:
    if not levels or min(levels) < 1:
        raise ConfigError("levels must be >= 1")
    if max(levels) > cap:
        raise ResourceCapError(f"level {max(levels)} beyond the cap {cap}")


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as e:
        raise ConfigError(f"bad number list {text!r}") from e


def _parse_boundary(text: str) -> list[Fraction]:
    """Three gasket corner values, each rounded to a denominator <= 10^6."""
    triple = _parse_floats(text)
    if len(triple) != 3 or not all(map(math.isfinite, triple)):
        raise ConfigError(f"a boundary takes three finite values, got {text!r}")
    return [Fraction(t).limit_denominator(10**6) for t in triple]


def _function_for(name: str, kind: FractalKind, level: int):
    """Test-function selector: harmonic:a,b,c | goodfn | x."""
    if name.startswith("harmonic:"):
        if kind is not FractalKind.SG:
            raise ConfigError("harmonic boundary functions live on the gasket")
        return sg_harmonic(*_parse_boundary(name.split(":", 1)[1]), level)
    if name == "goodfn":
        if kind is not FractalKind.SC:
            raise ConfigError("goodfn lives on the carpet")
        return sc_good_function(level).fn
    if name == "x":
        return lambda px, py: px
    raise ConfigError(f"unknown function name {name!r}")


def _walk_params(cfg: RunConfig) -> WalkParams:
    if cfg.depth_cut > DEPTH_CAP:
        raise ResourceCapError(f"depth_cut {cfg.depth_cut} beyond the working cap {DEPTH_CAP}")
    if cfg.samples > SAMPLES_CAP:
        raise ResourceCapError(f"samples {cfg.samples} beyond the cap {SAMPLES_CAP}")
    try:
        return WalkParams(
            lam=cfg.lam, C1=cfg.C1, C2=cfg.C2, c=cfg.c,
            seed=cfg.seed, samples=cfg.samples, depth_cut=cfg.depth_cut,
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e


# ---------------------------------------------------------------------------
# handlers


def _run_resistance(cfg: RunConfig, opts) -> ExperimentReport:
    kind = cfg.fractal_kind()
    levels = _parse_levels(opts.levels)
    _check_levels(levels, cfg.level_cap())
    t0 = time.perf_counter()
    solve = sg_word_resistance if kind is FractalKind.SG else sc_RnV
    values = [solve(n).resistance for n in levels]
    if opts.timing:
        print(
            f"resistance: {len(levels)} levels in {time.perf_counter() - t0:.3f}s",
            file=sys.stderr,
        )
    rows = []
    for i, (n, v) in enumerate(zip(levels, values)):
        ratio = "" if i == 0 else v / values[i - 1]
        if i >= 2:
            est = rho_estimate(levels[: i + 1], values[: i + 1], fit_from=2)
            rho_hat = est.rho_hat
        else:
            rho_hat = ""
        rows.append((n, v, ratio, rho_hat))
    columns = ("n", "RnV", "ratio", "rho_hat")
    if kind is FractalKind.SG:
        columns += ("closed_form",)
        rows = [row + (float(Fraction(5, 3) ** row[0] - 1),) for row in rows]
    return _report("resistance", cfg, opts, columns=columns, rows=rows)


def _run_walkdim(cfg: RunConfig, opts) -> ExperimentReport:
    kind = cfg.fractal_kind()
    levels = _parse_levels(opts.levels)
    _check_levels(levels, cfg.level_cap())
    if kind is FractalKind.SG:
        top = max(levels)
        fn = _function_for(opts.function, kind, top)
        if not isinstance(fn, VertexFunction):
            raise ConfigError("walkdim on the gasket needs a harmonic function")
        # each level's corners are read from the top graph's corner table
        energies = [exact_float(sg_pointwise_energy_Bn(fn, n)) for n in levels]
    else:
        if opts.function != "goodfn":
            raise ConfigError("walkdim on the carpet uses the goodfn family")
        # one plate solve per level; its energy is 1/R_n^V and no potential is kept
        energies = [sc_RnV(n).energy for n in levels]
    if min(energies) <= 0:
        # a constant boundary has no energy: the ratios and the fit divide by it
        raise ConfigError("walkdim needs a positive energy at every level")
    rows = []
    for i, (n, e) in enumerate(zip(levels, energies)):
        ratio = "" if i == 0 else e / energies[i - 1]
        beta_hat = (
            walkdim_estimate(energies[: i + 1], kind.base, ns=levels[: i + 1]) if i >= 2 else ""
        )
        rows.append((n, e, ratio, beta_hat))
    return _report("walkdim", cfg, opts, columns=("n", "energy", "ratio", "beta_hat"), rows=rows)


def _run_energy(cfg: RunConfig, opts) -> ExperimentReport:
    kind = cfg.fractal_kind()
    levels = _parse_levels(opts.levels)
    _check_levels(levels, cfg.level_cap())
    if kind is FractalKind.SC and opts.boundary is not None:
        raise ConfigError("energy on the carpet takes no --boundary")
    if kind is FractalKind.SG:
        top = max(levels)
        uf = sg_harmonic(*_parse_boundary(opts.boundary), top)
        from .energies import kigami_energy_En, sg_graph_energy_An

        rows = []
        for n in levels:
            u_n = uf if n == top else restrict_to_level(uf, cached_vertex_graph(kind, n))
            rows.append(
                (
                    n,
                    exact_float(sg_pointwise_energy_Bn(u_n, n)),
                    exact_float(kigami_energy_En(u_n, n)),
                    exact_float(sg_graph_energy_An(u_n, n)),
                )
            )
        return _report("energy", cfg, opts, columns=("n", "Bn", "En", "An"), rows=rows)
    rows = []
    for n in levels:
        d, cantor = strip_energy_checks(n)
        rows.append((n, float(d), float(cantor)))
    return _report(
        "energy", cfg, opts, columns=("n", "strip_pointwise", "cantor_strip"), rows=rows
    )


def _run_goodfn(cfg: RunConfig, opts) -> ExperimentReport:
    n = opts.level
    _check_levels([n], cfg.level_cap())
    g = sc_good_function(n)
    tree = g.values_json_dict()
    tree["resistance"] = 1.0 / g.energy
    return _report("goodfn", cfg, opts, tree=tree)


def _run_harnack(cfg: RunConfig, opts) -> ExperimentReport:
    levels = _parse_levels(opts.levels)
    _check_levels(levels, cfg.level_cap())
    if opts.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {opts.trials}")
    if opts.trials > TRIALS_CAP:
        raise ResourceCapError(f"--trials {opts.trials} beyond the cap {TRIALS_CAP}")
    center = (Fraction(1, 2), Fraction(1, 3))
    r, delta = Fraction(1, 4), Fraction(1, 2)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for n in levels:
        ball = harnack_ball(n, center, r, delta)
        # a block of trials, drawn row by row as one trial at a time would
        # draw them, is solved as the columns of one right-hand side
        block = max(1, _HARNACK_RHS_FLOATS // max(1, len(ball.interior_ids)))
        for first in range(0, opts.trials, block):
            k = min(block, opts.trials - first)
            bvals = rng.uniform(0.0, 1.0, (k, len(ball.boundary_ids)))
            ratios = harnack_ratio(n, center, r, delta, bvals.T, ball=ball)
            rows.extend((n, first + t, ratio) for t, ratio in enumerate(ratios.tolist()))
    return _report("harnack", cfg, opts, columns=("level", "trial", "ratio"), rows=rows)


def _run_besov(cfg: RunConfig, opts) -> ExperimentReport:
    kind = cfg.fractal_kind()
    # The one flag merged in a handler, not in run: a config's beta_grid must
    # sit inside (alpha, beta*), but the flag's grid may leave it, and a beta
    # whose sums overflow is then refused when written (exit 4), not as a bad
    # config (2).  The flag wins over the config file, then the default grid.
    if opts.beta_grid is not None:
        betas = _parse_floats(opts.beta_grid)
    else:
        betas = cfg.beta_grid or (1.9, 2.0, 2.1)
    N = opts.depth if opts.depth is not None else (6 if kind is FractalKind.SG else 4)
    level = max(N, 4)  # the level the test function is built at
    _check_levels([level], cfg.level_cap())
    if cfg.mc_samples > MC_SAMPLES_CAP:
        raise ResourceCapError(f"mc_samples {cfg.mc_samples} beyond the cap {MC_SAMPLES_CAP}")
    try:
        params = [BesovParams(beta=b, N=N, kind=kind) for b in betas]
    except ValueError as e:
        raise ConfigError(str(e)) from e
    fn = _function_for(opts.function, kind, level)
    # besov_partial_sum for each beta, from one list of level energies
    energies = _level_energies(fn, kind, N)
    discrete = [float(sum(_weighted_terms(kind, p.beta, energies))) for p in params]
    # one Monte Carlo pass serves the whole grid
    try:
        estimates = besov_double_integral_mc(
            fn, betas, samples=cfg.mc_samples, seed=cfg.seed, kind=kind
        )
    except ValueError as e:  # mc_samples below two samples per stratum
        raise ConfigError(f"mc_samples: {e}") from e
    rows = [
        (beta, d, mc, se, d / mc if mc > 0 else "")
        for beta, d, (mc, se) in zip(betas, discrete, estimates)
    ]
    report = _report(
        "besov",
        cfg,
        opts,
        columns=("beta", "discrete_sum", "mc_estimate", "mc_stderr", "ratio"),
        rows=rows,
    )
    # the sampling goes to meta only, so the data file stays byte-stable
    depth = mc_depth(fn, kind)
    report.provenance["mc"] = {
        "depth": depth, "samples_used": depth * (cfg.mc_samples // depth)
    }
    return report


def _run_mosco(cfg: RunConfig, opts) -> ExperimentReport:
    if opts.points < 1:
        raise ConfigError(f"--points must be >= 1, got {opts.points}")
    if opts.points > POINTS_CAP:
        raise ResourceCapError(f"--points {opts.points} beyond the cap {POINTS_CAP}")
    alpha = FractalKind.SG.alpha
    if cfg.beta_grid:
        betas = cfg.beta_grid
    else:
        betas = tuple(np.linspace(alpha + 0.05, SG_BETA_STAR - 0.005, opts.points))
    _check_levels([opts.depth], cfg.level_cap())
    h = sg_harmonic(*_parse_boundary(opts.boundary), opts.depth)
    rows = sg_monotone_limit(h, betas, probe_levels=opts.depth)
    return _report(
        "mosco", cfg, opts, columns=("beta", "value", "tail_bound"), rows=list(rows)
    )


def _run_walk(cfg: RunConfig, opts) -> ExperimentReport:
    params = _walk_params(cfg)
    # the F table holds words of length up to 3, strictly inside the ball
    if params.depth_cut < 4:
        raise ConfigError(f"walk needs depth_cut >= 4, got {params.depth_cut}")
    if not 1 <= opts.m < params.depth_cut:
        raise ConfigError(f"--m {opts.m} outside [1, depth_cut)")
    exact = green_oo(params, "exact")
    mc = green_oo(params, "mc")
    f_rows = []
    for n in range(1, 4):
        for w in enumerate_words(FractalKind.SG, n):
            lo, hi = hitting_prob_F(w, params)
            f_rows.append(
                {
                    "x": "".join(map(str, w)),
                    "lower": lo,
                    "upper": hi,
                    "target": params.lam ** n,
                }
            )
    hit = boundary_hit_distribution(params, m=opts.m)
    tree = {
        "lambda": params.lam,
        "c": params.c,
        "G_oo": {
            "exact_lo": exact["lower"],
            "exact_hi": exact["upper"],
            "mc": mc["mean"],
            "stderr": mc["stderr"],
        },
        "F": f_rows,
        "hit_dist": {"m": hit["m"], "freqs": [float(f) for f in hit["freqs"]]},
    }
    runs = {"green_oo": mc, "hit_dist": hit}
    if params.c is not None:
        life = ctrw_lifetime(params)
        runs["lifetime"] = life
        tree["lifetime"] = {
            "mean": life["mean"],
            "stderr": life["stderr"],
            "closed_form": ctrw_lifetime_closed_form(params),
        }
    report = _report("walk", cfg, opts, tree=tree)
    # path counts go to meta only, so the data file stays byte-stable
    report.provenance["mc"] = {
        name: {"paths": params.samples, "overflowed": r["overflowed"]} for name, r in runs.items()
    }
    if params.c is not None:  # a closed form: the lifetime the depth cut leaves out
        bias = ctrw_truncation_bias(params, params.depth_cut)
        report.provenance["mc"]["lifetime"]["truncation_bias"] = bias
    cut = {name: r["overflowed"] for name, r in runs.items() if r["overflowed"]}
    if cut:
        print(f"walk: paths cut at step_cap {params.step_cap}: {cut}", file=sys.stderr)
    return report


def _run_trace(cfg: RunConfig, opts) -> ExperimentReport:
    _check_levels([opts.depth], cfg.level_cap())
    fn = _function_for(opts.function, FractalKind.SG, opts.depth)
    try:
        sg_sum, interval_sum = interval_trace_check(fn, opts.beta1, N=opts.depth)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    beta2 = opts.beta1 - FractalKind.SG.alpha + 1.0
    rows = [
        (
            opts.beta1,
            beta2,
            sg_sum,
            interval_sum,
            int(interval_sum <= sg_sum + 1e-12),
        )
    ]
    return _report(
        "trace",
        cfg,
        opts,
        columns=("beta1", "beta2", "gasket_sum", "interval_sum", "dominated"),
        rows=rows,
    )


def _run_kernel(cfg: RunConfig, opts) -> ExperimentReport:
    if (opts.x is None) != (opts.y is None):
        raise ConfigError("kernel takes both --x and --y, or neither")
    try:
        params = JumpKernelParams(
            i=opts.i, delta_i=opts.delta, beta_i=opts.beta_i, gamma=opts.gamma
        )
        depth = params.required_depth()
        if depth > KERNEL_DEPTH_CAP:
            raise ResourceCapError(
                f"kernel words of {depth} digits beyond the cap {KERNEL_DEPTH_CAP}"
            )
        if opts.x is None:
            x = "0" * depth
            y = "0" + "1" * (depth - 1)
        else:
            x, y = opts.x, opts.y
            for flag, word in (("--x", x), ("--y", y)):
                if not set(word) <= set("012"):
                    raise ConfigError(f"{flag} takes the digits 0, 1 and 2 only, got {word!r}")
        C, a = jump_kernel_Ci(x, y, params)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    # past a float C_i reads inf, as a_i does: the writer refuses the row (exit 4)
    rows = [(opts.i, opts.delta, opts.gamma, opts.beta_i, x, y, exact_float(C), a)]
    return _report(
        "kernel",
        cfg,
        opts,
        columns=("i", "delta_i", "gamma", "beta_i", "x", "y", "C_i", "a_i"),
        rows=rows,
    )


class _Subcommand(NamedTuple):
    handler: Callable[[RunConfig, argparse.Namespace], ExperimentReport]
    kinds: tuple[str, ...]  # the fractals it runs on
    keys: tuple[str, ...] = ()  # the RunConfig keys it reads besides kind and its level cap


# What each subcommand reads.  A one-fractal subcommand runs on it whatever
# the config's kind, and one with none takes no --kind or --level-cap.  A run
# checks, records and hashes only what it reads (_read_keys).
_SUBCOMMANDS = {
    "resistance": _Subcommand(_run_resistance, ("sg", "sc")),
    "walkdim": _Subcommand(_run_walkdim, ("sg", "sc")),
    "energy": _Subcommand(_run_energy, ("sg", "sc")),
    "goodfn": _Subcommand(_run_goodfn, ("sc",)),
    "harnack": _Subcommand(_run_harnack, ("sc",), ("seed",)),
    "besov": _Subcommand(_run_besov, ("sg", "sc"), ("beta_grid", "mc_samples", "seed")),
    "mosco": _Subcommand(_run_mosco, ("sg",), ("beta_grid",)),
    "walk": _Subcommand(_run_walk, (), ("lam", "C1", "C2", "c", "samples", "depth_cut", "seed")),
    "trace": _Subcommand(_run_trace, ("sg",)),
    "kernel": _Subcommand(_run_kernel, ()),
}


def _read_keys(subcommand: str, kind: str) -> tuple[str, ...]:
    """The RunConfig keys a run on `kind` reads, then out_dir, where it
    writes: kind and that kind's level cap where it runs on a fractal, then
    the subcommand's own keys."""
    sub = _SUBCOMMANDS[subcommand]
    fractal = ("kind", f"level_cap_{kind}") if sub.kinds else ()
    return (*fractal, *sub.keys, "out_dir")


def _report(subcommand, cfg, opts, columns=None, rows=None, tree=None) -> ExperimentReport:
    snapshot = config_dict(cfg, _read_keys(subcommand, cfg.kind))
    snapshot["subcommand"] = subcommand
    snapshot["options"] = {
        k: v for k, v in sorted(vars(opts).items())
        if v is not None and k not in _CONFIG_FLAGS and k not in _UNRECORDED_FLAGS
    }
    return ExperimentReport(
        experiment=subcommand,
        config_snapshot=snapshot,
        columns=columns,
        rows=rows,
        tree=tree,
    )


def run(subcommand: str, cfg: RunConfig, opts: Optional[argparse.Namespace] = None) -> ExperimentReport:
    """Dispatch a subcommand with the config flags of `opts` folded into
    `cfg`.  The handler runs on the keys the run reads, from the flags or
    `cfg`, with every other key at its default; only those keys are checked
    here, and the meta records them."""
    if subcommand not in _SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    if opts is None:
        opts = _build_parser().parse_args([subcommand])
    sub = _SUBCOMMANDS[subcommand]
    if len(sub.kinds) == 1:  # so --level-cap sets that fractal's cap
        cfg = replace(cfg, kind=sub.kinds[0])
    kind = getattr(opts, "kind", None) or cfg.kind
    keys = _read_keys(subcommand, kind)
    flags = {key.format(kind=kind): getattr(opts, f, None) for f, key in _CONFIG_FLAGS.items()}
    cfg = apply_overrides(  # flags win over the config file
        RunConfig(**{k: getattr(cfg, k) for k in keys}),
        **{k: v for k, v in flags.items() if k in keys},
    )
    _fill_kind_defaults(subcommand, cfg.kind, opts)
    with solver_log() as log:
        report = sub.handler(cfg, opts)
    report.provenance["solver"] = log.as_dict()
    return report


# ---------------------------------------------------------------------------
# argument parsing

# flag -> the RunConfig key it sets; --level-cap sets the cap of the run's kind
_CONFIG_FLAGS = {
    "kind": "kind", "seed": "seed", "out": "out_dir", "cache": "cache_dir",
    "level_cap": "level_cap_{kind}", "lam": "lam", "c": "c", "samples": "samples",
    "depth_cut": "depth_cut",
}
# flags that change no computed value and no written byte
_UNRECORDED_FLAGS = ("config", "command", "timing")


@functools.cache  # argparse does not change a parser by parsing with it
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--seed", type=int)
    common.add_argument("--out", help="output directory")
    common.add_argument("--cache", help="cache directory (accepted; no subcommand reads it)")

    p = argparse.ArgumentParser(prog="fractalforms", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, parents=[common])
        kinds = _SUBCOMMANDS[name].kinds
        if kinds:
            sp.add_argument("--level-cap", dest="level_cap", type=int)
            sp.add_argument("--kind", choices=kinds)
        return sp

    sp = add("resistance")
    sp.add_argument("--levels", default="1..5")
    sp.add_argument("--timing", action="store_true")

    sp = add("walkdim")
    sp.add_argument("--levels", default="1..5")
    sp.add_argument("--function", default=None)

    sp = add("energy")
    sp.add_argument("--levels", default="1..5")
    sp.add_argument("--boundary", default=None)  # the gasket's; 0,1,0 when unset

    sp = add("goodfn")
    sp.add_argument("--level", type=int, default=3)

    sp = add("harnack")
    sp.add_argument("--levels", default="3,4,5")
    sp.add_argument("--trials", type=int, default=50)

    sp = add("besov")
    sp.add_argument("--beta-grid", dest="beta_grid", default=None)
    sp.add_argument("--function", default=None)
    sp.add_argument("--depth", type=int, default=None)

    sp = add("mosco")
    sp.add_argument("--points", type=int, default=20)
    sp.add_argument("--boundary", default="0,1,0")
    sp.add_argument("--depth", type=int, default=6)

    sp = add("walk")
    sp.add_argument("--lambda", dest="lam", type=float, default=None)
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--depth-cut", dest="depth_cut", type=int, default=None)
    sp.add_argument("--m", type=int, default=2)

    sp = add("trace")
    sp.add_argument("--beta1", type=float, default=2.2)
    sp.add_argument("--function", default="harmonic:0,1,0")
    sp.add_argument("--depth", type=int, default=6)

    sp = add("kernel")
    sp.add_argument("--i", type=int, default=1)
    sp.add_argument("--delta", type=float, default=0.5)
    sp.add_argument("--gamma", type=int, default=6)
    sp.add_argument("--beta-i", dest="beta_i", type=float, default=2.2)
    sp.add_argument("--x", default=None)
    sp.add_argument("--y", default=None)

    return p


def _fill_kind_defaults(subcommand: str, kind: str, opts: argparse.Namespace) -> None:
    """Set the flags whose default depends on the fractal a run is on."""
    if subcommand in ("walkdim", "besov") and opts.function is None:
        opts.function = "harmonic:0,1,0" if kind == "sg" else "goodfn"
    if subcommand == "energy" and kind == "sg" and opts.boundary is None:
        opts.boundary = "0,1,0"


def main(argv: Optional[list[str]] = None) -> int:
    opts = _build_parser().parse_args(argv)
    try:
        cfg = load_config(opts.config) if opts.config else RunConfig()
        report = run(opts.command, cfg, opts)
        for path in report.write(report.config_snapshot["out_dir"]):
            print(path)
        return 0
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ResourceCapError as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return 3
    except MemoryError:
        print("resource cap: out of memory", file=sys.stderr)
        return 3
    except SolverError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 4
    except NonFiniteResultError as e:
        print(f"non-finite result: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
