"""Spans around the toolkit's public functions, recorded from outside.

`install` replaces each listed function by a wrapper that opens a span,
calls the original and closes the span.  `cli`, `harmonic`, `networks`,
`treewalk` and `energies` import these functions by name, so every
`fractalforms.*` module attribute bound to the same object is rebound.
Methods are replaced on their class.  Spans stay in memory; the pass writes
them out when it ends.

A span records its name, start, end, parent span and pass id, plus `post`:
the time its wrapper finished counting.  Counting after `end` is tracing
cost, so it is charged to no layer: a parent's self time subtracts each
child's [start, post] interval.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional

import numpy as np

from workloads import SUBCOMMANDS

now = time.perf_counter


class Tracer:
    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.count: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()  # wrapped functions that do not exist
        self.broken: set[str] = set()  # spans whose counting hook failed
        self.systems: set[bytes] = set()  # distinct Dirichlet systems solved

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(
            {"name": name, "start": now(), "end": None, "post": None, "parent": parent, "pass": self.pass_id}
        )
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, i: int) -> None:
        self.spans[i]["end"] = now()
        self.stack.pop()

    def finish(self, i: int) -> None:
        self.spans[i]["post"] = now()


def rebind(orig, wrapper) -> None:
    """Point every fractalforms.* module attribute bound to `orig` at `wrapper`."""
    for modname, mod in list(sys.modules.items()):
        if modname == "fractalforms" or modname.startswith("fractalforms."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)


def wrap(tracer: Tracer, name: str, module: str, attr: str, after: Optional[Callable] = None) -> bool:
    """Trace `module.attr`, or `module.Class.method`, under span `name`.

    `after(tracer, span, bound_args, result, missed)` runs once the span has
    ended.  For an `lru_cache` object the wrapper also counts `<name>.hits`
    and `<name>.misses` from its `cache_info()`, and `missed` tells whether
    this call built its result.  Returns False, and marks the span missing,
    when the function no longer exists.
    """
    try:
        owner_name, _, member = attr.rpartition(".")
        owner = importlib.import_module(module)
        if owner_name:
            owner = getattr(owner, owner_name)
        orig = getattr(owner, member)
    except (ImportError, AttributeError):
        tracer.missing.add(name)
        return False
    sig = inspect.signature(orig)
    cache_info = getattr(orig, "cache_info", None)

    def wrapper(*args, **kwargs):
        before = cache_info() if cache_info else None
        i = tracer.open(name)
        try:
            result = orig(*args, **kwargs)
        finally:
            tracer.close(i)
        try:
            missed = True
            if before is not None:
                info = cache_info()
                tracer.count[f"{name}.hits"] += info.hits - before.hits
                tracer.count[f"{name}.misses"] += info.misses - before.misses
                missed = info.misses > before.misses
            if after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after(tracer, tracer.spans[i], bound.arguments, result, missed)
        except (AttributeError, KeyError, TypeError, ValueError, IndexError, OSError):
            tracer.broken.add(name)
        finally:
            tracer.finish(i)
        return result

    wrapper.__wrapped__ = orig
    if owner_name:
        setattr(owner, member, wrapper)
    else:
        rebind(orig, wrapper)
    return True


# ---------------------------------------------------------------------------
# counting hooks: read arguments, return values and lru_cache statistics


def _vertex_graph(tr, span, args, result, missed):
    tr.count["geometry.vertex_graph.vertices"] += result.n_vertices
    tr.count["geometry.vertex_graph.edges"] += len(result.edges)


def _cell_graph(tr, span, args, result, missed):
    tr.count["geometry.cell_graph.cells"] += result.n_cells
    tr.count["geometry.cell_graph.edges"] += len(result.edges)


def _solve_dirichlet(tr, span, args, result, missed):
    _, info = result
    pre = "networks.solve_dirichlet"
    method = info["method"]
    tr.count[f"{pre}.nodes"] += args["n"]
    tr.count[f"{pre}.edges"] += len(args["ii"])
    tr.count[f"{pre}.cg_calls"] += method == "cg"
    tr.count[f"{pre}.dense_calls"] += method == "dense"
    tr.count[f"{pre}.cg_iterations"] += info["iterations"] if method == "cg" else 0
    tr.count[f"{pre}.max_residual"] = max(tr.count[f"{pre}.max_residual"], info["residual"])
    # a system is the matrix plus the fixed set; the fixed values are the RHS
    h = hashlib.blake2b(str(args["n"]).encode(), digest_size=16)
    for key in ("ii", "jj", "cond", "fixed_ids"):
        h.update(np.ascontiguousarray(args[key]).tobytes())
    tr.systems.add(h.digest())


def _exact_energy(tr, span, args, result, missed):
    tr.count["energies.exact_calls"] += bool(args["u"].is_exact)


def _besov_mc(tr, span, args, result, missed):
    tr.count["besov.mc_samples"] += args["samples"]


def _green_oo(tr, span, args, result, missed):
    span["name"] = f"treewalk.green_oo.{args['mode']}"
    if args["mode"] == "mc":
        tr.count["treewalk.mc.paths"] += result["paths"]


def _walk_samples(tr, span, args, result, missed):
    samples = args["params"].samples if args["samples"] is None else args["samples"]
    tr.count["treewalk.mc.paths"] += samples
    if isinstance(result, dict):
        tr.count["treewalk.mc.overflowed"] += result["overflowed"]


def _table_bytes(tr, span, args, result, missed):
    if missed:
        tr.count["treewalk.build_tables.bytes"] += result.nbr.nbytes + result.cum.nbytes + result.pi.nbytes


def _cache_get(tr, span, args, result, missed):
    tr.count["cache.get.hits"] += result is not None


def _cache_put(tr, span, args, result, missed):
    tr.count["cache.bytes_written"] += sum(p.stat().st_size for p in args["self"]._paths(args["key"]))


def _report_write(tr, span, args, result, missed):
    tr.count["reporting.bytes_written"] += sum(p.stat().st_size for p in result)


ENERGY_FUNCTIONS = (
    "sg_pointwise_energy_Bn",
    "sc_pointwise_energy_Dn",
    "sg_graph_energy_An",
    "cell_averages",
    "restrict_to_level",
)

# (span name, module, attribute, counting hook)
TRACED = (
    ("geometry.vertex_graph", "geometry", "vertex_graph", _vertex_graph),
    ("geometry.cell_graph", "geometry", "cell_graph", _cell_graph),
    ("geometry.cached_vertex_graph", "geometry", "cached_vertex_graph", None),
    ("networks.solve_dirichlet", "networks", "solve_dirichlet", _solve_dirichlet),
    ("networks.resistance_from_arrays", "networks", "resistance_from_arrays", None),
    *((f"energies.{fn}", "energies", fn, _exact_energy) for fn in ENERGY_FUNCTIONS),
    *(
        (f"harmonic.{fn}", "harmonic", fn, None)
        for fn in ("sg_harmonic", "harnack_ball", "strip_energy_checks", "harnack_solve")
    ),
    ("besov.besov_double_integral_mc", "besov", "besov_double_integral_mc", _besov_mc),
    *(
        (f"besov.{fn}", "besov", fn, None)
        for fn in ("besov_partial_sum", "sg_monotone_limit", "interval_trace_check")
    ),
    ("treewalk.green_oo", "treewalk", "green_oo", _green_oo),
    ("treewalk.ctrw_lifetime", "treewalk", "ctrw_lifetime", _walk_samples),
    ("treewalk.boundary_hit_distribution", "treewalk", "boundary_hit_distribution", _walk_samples),
    ("treewalk.hitting_prob_F", "treewalk", "hitting_prob_F", None),
    ("treewalk.build_tables", "treewalk", "build_tables", _table_bytes),
    ("cache.get", "cache", "Cache.get", _cache_get),
    ("cache.put", "cache", "Cache.put", _cache_put),
    ("reporting.write", "reporting", "ExperimentReport.write", _report_write),
    ("reporting.git_hash", "reporting", "git_hash", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every function the per-layer metrics read."""
    for name, module, attr, after in TRACED:
        wrap(tracer, name, f"fractalforms.{module}", attr, after)


# ---------------------------------------------------------------------------
# from spans to per-layer metrics


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    A child covers [start, post]: its own time plus its wrapper's counting.
    """
    children: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted((c["start"], c["post"] or c["end"]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s["end"] - s["start"] - covered)
    return out


def aggregate(spans: list[dict]) -> dict[str, dict[str, float]]:
    """calls, self_s and total_s per span name."""
    agg: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for s, own in zip(spans, self_times(spans)):
        a = agg[s["name"]]
        a["calls"] += 1
        a["self_s"] += own
        a["total_s"] += s["end"] - s["start"]
    return agg


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    needs: tuple[str, ...]  # wrapped spans the value is read from
    value: Optional[Callable]  # (aggregates, counts) -> float; None: set by the runner


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _self(span):
    return LayerMetric(f"{span}.self_s", "s", "lower", (span,), lambda S, C: S[span]["self_s"])


def _calls(span):
    return LayerMetric(f"{span}.calls", "count", "lower", (span,), lambda S, C: S[span]["calls"])


def _count(name, unit, better, span):
    return LayerMetric(name, unit, better, (span,), lambda S, C: C[name])


def _hit_ratio(name, span):
    return LayerMetric(
        name, "ratio", "higher", (span,), lambda S, C: _div(C[f"{span}.hits"], C[f"{span}.hits"] + C[f"{span}.misses"])
    )


_MC_SPANS = ("treewalk.green_oo.mc", "treewalk.ctrw_lifetime", "treewalk.boundary_hit_distribution")
_WALK = ("treewalk.green_oo", "treewalk.ctrw_lifetime", "treewalk.boundary_hit_distribution")
_SD = "networks.solve_dirichlet"

LAYER_METRICS: tuple[LayerMetric, ...] = (
    _calls("geometry.vertex_graph"),
    _self("geometry.vertex_graph"),
    _count("geometry.vertex_graph.vertices", "count", "lower", "geometry.vertex_graph"),
    _count("geometry.vertex_graph.edges", "count", "lower", "geometry.vertex_graph"),
    _calls("geometry.cell_graph"),
    _self("geometry.cell_graph"),
    _count("geometry.cell_graph.cells", "count", "lower", "geometry.cell_graph"),
    _count("geometry.cell_graph.edges", "count", "lower", "geometry.cell_graph"),
    _hit_ratio("geometry.cached_vertex_graph.hit_ratio", "geometry.cached_vertex_graph"),
    _calls(_SD),
    _self(_SD),
    _count(f"{_SD}.nodes", "count", "lower", _SD),
    _count(f"{_SD}.edges", "count", "lower", _SD),
    _count(f"{_SD}.cg_calls", "count", "lower", _SD),
    _count(f"{_SD}.dense_calls", "count", "lower", _SD),
    _count(f"{_SD}.cg_iterations", "count", "lower", _SD),
    _count(f"{_SD}.max_residual", "l2norm", "lower", _SD),
    LayerMetric(
        f"{_SD}.solves_per_system", "ratio", "higher", (_SD,), lambda S, C: _div(S[_SD]["calls"], C[f"{_SD}.systems"])
    ),
    _self("networks.resistance_from_arrays"),
    *(_self(f"energies.{fn}") for fn in ENERGY_FUNCTIONS),
    _count("energies.exact_calls", "count", "lower", "energies.sg_pointwise_energy_Bn"),
    _self("harmonic.sg_harmonic"),
    _self("harmonic.harnack_ball"),
    _self("harmonic.strip_energy_checks"),
    _calls("harmonic.harnack_solve"),
    _self("harmonic.harnack_solve"),
    _self("besov.besov_double_integral_mc"),
    _self("besov.besov_partial_sum"),
    _self("besov.sg_monotone_limit"),
    _self("besov.interval_trace_check"),
    _count("besov.mc_samples", "count", "higher", "besov.besov_double_integral_mc"),
    LayerMetric(
        "besov.mc_samples_per_s",
        "1/s",
        "higher",
        ("besov.besov_double_integral_mc",),
        lambda S, C: _div(C["besov.mc_samples"], S["besov.besov_double_integral_mc"]["self_s"]),
    ),
    LayerMetric(
        "treewalk.green_oo.exact.self_s", "s", "lower", ("treewalk.green_oo",),
        lambda S, C: S["treewalk.green_oo.exact"]["self_s"],
    ),
    LayerMetric(
        "treewalk.green_oo.mc.self_s", "s", "lower", ("treewalk.green_oo",),
        lambda S, C: S["treewalk.green_oo.mc"]["self_s"],
    ),
    _self("treewalk.ctrw_lifetime"),
    _self("treewalk.boundary_hit_distribution"),
    _self("treewalk.hitting_prob_F"),
    _self("treewalk.build_tables"),
    _hit_ratio("treewalk.build_tables.hit_ratio", "treewalk.build_tables"),
    _count("treewalk.build_tables.bytes", "B", "lower", "treewalk.build_tables"),
    LayerMetric("treewalk.mc.paths", "count", "higher", _WALK, lambda S, C: C["treewalk.mc.paths"]),
    LayerMetric(
        "treewalk.mc.paths_per_s",
        "1/s",
        "higher",
        _WALK,
        lambda S, C: _div(C["treewalk.mc.paths"], sum(S[s]["self_s"] for s in _MC_SPANS)),
    ),
    _count("treewalk.mc.overflowed", "count", "lower", "treewalk.boundary_hit_distribution"),
    _calls("cache.get"),
    _self("cache.get"),
    LayerMetric(
        "cache.hit_ratio", "ratio", "higher", ("cache.get",), lambda S, C: _div(C["cache.get.hits"], S["cache.get"]["calls"])
    ),
    _self("cache.put"),
    _count("cache.bytes_written", "B", "lower", "cache.put"),
    _self("reporting.write"),
    _count("reporting.bytes_written", "B", "lower", "reporting.write"),
    _self("reporting.git_hash"),
    *(
        LayerMetric(f"cli.{sub}.total_s", "s", "lower", (), lambda S, C, sub=sub: S[f"cli.{sub}"]["total_s"])
        for sub in SUBCOMMANDS
    ),
    LayerMetric("process.cpu_s", "s", "lower", (), None),
    LayerMetric("tracing.overhead_s", "s", "lower", (), None),
)


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer values of one traced pass, and the metrics that could not be
    read because a wrapped function is missing or its counting failed."""
    S = aggregate(tracer.spans)
    C = defaultdict(float, tracer.count)
    C[f"{_SD}.systems"] = len(tracer.systems)
    unavailable = tracer.missing | tracer.broken
    values, missing = {}, []
    for m in LAYER_METRICS:
        if m.value is None:
            continue
        if unavailable.intersection(m.needs):
            missing.append(m.name)
        else:
            values[m.name] = float(m.value(S, C))
    return values, missing
