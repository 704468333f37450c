"""Besov-type semi-norms, walk-dimension estimation, and jump kernels.

The discrete semi-norm is a weighted sum of per-level graph energies; the
integral form is the singular double integral against the product of the
self-similar measures, estimated by Monte Carlo.  One Monte Carlo pass serves
a whole beta grid: the draws, distances and value differences depend on
(u, samples, seed, kind, depth) only, and each beta weights them in turn.
Each sample is a pair of depth-digit words with a common prefix; every drawn
digit block is folded once (one gather and one dot product), and the prefix
cancels from the pair's coordinate difference, so it is folded only for the
values: as a rank for graph-bound data, as coordinates for a callable.
Graph-bound data is read at each sampled cell's base corner through the
cell's rank among the level-`depth` words, so any depth up to the data's
level is sampled correctly.  The estimator uses depth * (samples // depth)
samples, one equal share per stratum.  The walk dimension comes out of the
geometric decay rate of the energy sequence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .energies import (
    VertexFunction,
    cellgraph_edge_energy,
    corner_ids_at_level,
    corner_means,
    exact_float,
    sc_cell_energy_bn,
    sc_pointwise_energy_Dn,
    sg_pointwise_energy_Bn,
)
from .geometry import VertexGraph, cached_vertex_graph, float_sq_dist, vertex_scale
from .kinds import SG_BETA_STAR, FractalKind
from .networks import fit_log_geometric

__all__ = [
    "BesovForm",
    "BesovParams",
    "besov_partial_terms",
    "besov_partial_sum",
    "besov_double_integral_mc",
    "mc_depth",
    "MC_SAMPLES_CAP",
    "sg_monotone_limit",
    "walkdim_estimate",
    "interval_trace_check",
    "KERNEL_DEPTH_CAP",
    "JumpKernelParams",
    "jump_kernel_Ci",
]

MC_DEPTH_DEFAULT = {FractalKind.SG: 12, FractalKind.SC: 8}

# most Monte Carlo samples a run may ask for: 10^7 peak at 380-490 MB, about
# 40 B a sample over a run at the default 200,000, and take 5-6 s (2-core VM)
MC_SAMPLES_CAP = 10_000_000


class BesovForm(Enum):
    POINTWISE = "pointwise"
    CELLGRAPH = "cellgraph"


@dataclass(frozen=True)
class BesovParams:
    beta: float
    N: int
    kind: FractalKind
    form: BesovForm = BesovForm.POINTWISE

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")
        if self.N < 1:
            raise ValueError("truncation level must be >= 1")


def besov_weight(kind: FractalKind, beta: float, n: int) -> float:
    """base^((beta-alpha)n): 2^(beta n)/3^n on the gasket, 3^(beta n)/8^n on
    the carpet; inf where the power overflows, as numpy would give, so the
    sums it weights come out non-finite and are refused when written."""
    try:
        return float(kind.base) ** (beta * n) / float(kind.n_maps) ** n
    except OverflowError:
        return math.inf


def _check_kind(u: VertexFunction, kind: Optional[FractalKind]) -> None:
    if kind is not None and u.graph.kind is not kind:
        raise ValueError(
            f"vertex data lives on the {u.graph.kind.value} graph, "
            f"not on the requested {kind.value}"
        )


def _as_vertex_function(u, kind: FractalKind, N: int) -> VertexFunction:
    if isinstance(u, VertexFunction):
        _check_kind(u, kind)
        if u.graph.level < N:
            raise ValueError("vertex data does not cover the requested levels")
        return u
    if callable(u):
        vg = cached_vertex_graph(kind, N)
        x, y = vg.float_coords()
        return VertexFunction(vg, np.array([u(px, py) for px, py in zip(x, y)]))
    raise TypeError(f"cannot evaluate {type(u).__name__} on the vertex sets")


def _level_energy(u: VertexFunction, n: int, form: BesovForm):
    kind = u.graph.kind
    if form is BesovForm.POINTWISE:  # level n's corners, read from u's own graph
        if kind is FractalKind.SG:
            return sg_pointwise_energy_Bn(u, n)
        return sc_pointwise_energy_Dn(u, n)
    # the cell averages of u restricted to level n: its level-n corner means,
    # read from u's own graph
    if kind is FractalKind.SG:
        return cellgraph_edge_energy(corner_means(u, n))
    return sc_cell_energy_bn(u, n, 1.0)


def _level_energies(
    u, kind: FractalKind, N: int, form: BesovForm = BesovForm.POINTWISE
) -> list[float]:
    """The level energies of u as floats, n = 1..N.  They do not depend on
    beta, so one list serves every beta of a grid."""
    uf = _as_vertex_function(u, kind, N)
    return [exact_float(_level_energy(uf, n, form)) for n in range(1, N + 1)]


def _weighted_terms(kind: FractalKind, beta: float, energies: Sequence[float]) -> list[float]:
    """besov_weight(kind, beta, n) * E_n for the level energies E_1, E_2, ..."""
    return [besov_weight(kind, beta, n) * e for n, e in enumerate(energies, 1)]


def besov_partial_terms(u, params: BesovParams) -> list[float]:
    """Per-level weighted energies, n = 1..N."""
    energies = _level_energies(u, params.kind, params.N, params.form)
    return _weighted_terms(params.kind, params.beta, energies)


def besov_partial_sum(u, params: BesovParams) -> float:
    """Truncated semi-norm sum; see besov_partial_terms for the tail."""
    return float(sum(besov_partial_terms(u, params)))


# ---------------------------------------------------------------------------
# Monte Carlo double integral
#
# A random point of the fractal is a uniformly random digit string truncated
# at a fixed depth; the estimator stratifies a pair of such strings by the
# length of their common prefix, whose probability is known exactly.  Pairs
# falling in the same depth-d cell (and pairs whose representative corners
# coincide) contribute zero; that truncation error is the acknowledged bias
# of the depth cutoff.

def _fold(digits: np.ndarray, base: int, table: Optional[np.ndarray] = None) -> np.ndarray:
    """Each row of `digits` (m x L) folded as g <- base * g + table[digit]
    (table: the identity when None), in one gather and one dot product with
    the powers base**(L-1), ..., 1; a zero-width block folds to 0."""
    vals = digits if table is None else table[digits]
    return vals @ base ** np.arange(digits.shape[1] - 1, -1, -1)


def _deepest_lattice_depth(kind: FractalKind) -> int:
    """The deepest sampling depth whose integers fit in int64: the corner
    numerators corner_mul * g, with g folded from depth digits of offsets
    up to max(ox, oy), and the prefix's place value base**depth."""
    lat, d = kind.lattice, 2
    top = lat.corner_mul * max(lat.ox + lat.oy)
    while max(top * (lat.base ** d - 1) // (lat.base - 1), lat.base ** d) < 2 ** 63:
        d += 1
    return d - 1


def mc_depth(u, kind: FractalKind, depth: Optional[int] = None) -> int:
    """The depth besov_double_integral_mc samples at: `depth`, or the kind's
    default when None, capped at graph-bound data's own level."""
    if depth is None:
        depth = MC_DEPTH_DEFAULT[kind]
    if isinstance(u, VertexFunction):
        depth = min(depth, u.graph.level)
    return depth


def besov_double_integral_mc(
    u,
    beta,
    samples: int = 200_000,
    seed: int = 0,
    kind: Optional[FractalKind] = None,
    depth: Optional[int] = None,
):
    """Stratified Monte Carlo estimate of the singular double integral.

    Returns (estimate, stderr), or a list of such pairs when `beta` is a
    sequence.  The draws, distances and value differences do not depend on
    beta, so one pass serves the whole grid; each beta's result is bitwise
    the one a scalar call with the same seed returns.  Each of the depth
    strata (mc_depth) draws samples // depth pairs, so depth * (samples //
    depth) samples are used and the remainder is not drawn.

    Stratum k's words share a prefix of length k, then differ in digits d1,
    d2 and free tails of length t.  Each drawn block is folded once, and the
    prefix cancels from the coordinate difference corner_mul * (base**t *
    (o[d1] - o[d2]) + g(tail1) - g(tail2)), so it is folded only where the
    values need it.  Graph-bound data caps the depth at its own level and
    reads each sample's base-corner value by its cell's rank among the
    level-`depth` words, so any depth up to the graph's level reads the
    right vertices; coordinate callables are evaluated at the base corner's
    absolute coordinates, at any depth whose numerators fit in int64 (up to
    62 on the gasket, 39 on the carpet; a deeper one is refused).  A beta
    whose Monte Carlo variance leaves the float range reads (inf, inf).
    """
    graph_fn = None
    if isinstance(u, VertexFunction):
        _check_kind(u, kind)
        kind = u.graph.kind
        graph_fn = u
    elif callable(u):
        if kind is None:
            raise ValueError("callable input needs an explicit kind")
    else:
        raise TypeError(f"cannot sample {type(u).__name__}")
    depth = mc_depth(u, kind, depth)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    deepest = _deepest_lattice_depth(kind)
    if depth > deepest:
        raise ValueError(f"depth {depth} is past {deepest}, the deepest the lattice holds in int64")
    if samples < 2 * depth:
        raise ValueError(
            f"need at least two samples per stratum, got {samples} for {depth} strata"
        )
    scalar = np.ndim(beta) == 0
    betas = [beta] if scalar else list(beta)
    crit = kind.beta_star
    scale = vertex_scale(kind, depth)  # of the base corners' numerators
    for b in betas:
        if b >= crit:
            warnings.warn(
                f"beta={b} at or above the critical exponent {crit:.6f}: "
                "the integral may be infinite; the estimate reflects only the "
                "sampled depth",
                RuntimeWarning,
                stacklevel=2,
            )

    lat = kind.lattice
    K, base, mul = kind.n_maps, kind.base, lat.corner_mul
    ox, oy = np.array(lat.ox), np.array(lat.oy)
    if graph_fn is not None:
        base_values = graph_fn.as_float_array()[
            corner_ids_at_level(graph_fn.graph, depth)[:, 0]
        ]
    else:  # at the base corner's numerators (x, y) / corner_mul
        den, y_factor = float(kind.unit(scale)), lat.y_factor
        value = lambda x, y: np.asarray(u(mul * x / den, mul * y * y_factor / den))

    expos = [(kind.alpha + b) / 2.0 for b in betas]
    rng = np.random.default_rng(seed)
    per = samples // depth
    est = [0.0] * len(betas)
    var = [0.0] * len(betas)
    for k in range(depth):
        # common prefix of length k, distinct next digits, free tails
        p_k = (1.0 - 1.0 / K) / K ** k
        common = rng.integers(0, K, size=(per, k))
        d1 = rng.integers(0, K, size=per)
        shift = rng.integers(1, K, size=per)
        d2 = (d1 + shift) % K
        tail_len = depth - k - 1
        t1 = rng.integers(0, K, size=(per, tail_len))
        t2 = rng.integers(0, K, size=(per, tail_len))
        # each word's offset below the common prefix, which cancels from the
        # coordinate difference: its digit, then its tail
        top = base ** tail_len
        x1 = top * ox[d1] + _fold(t1, base, ox)
        y1 = top * oy[d1] + _fold(t1, base, oy)
        x2 = top * ox[d2] + _fold(t2, base, ox)
        y2 = top * oy[d2] + _fold(t2, base, oy)
        sq = float_sq_dist(kind, mul * (x1 - x2), mul * (y1 - y2), scale)
        if graph_fn is not None:
            head = _fold(common, K) * K ** (tail_len + 1)
            low = K ** tail_len
            du = (
                base_values[head + low * d1 + _fold(t1, K)]
                - base_values[head + low * d2 + _fold(t2, K)]
            )
        else:
            hx = _fold(common, base, ox) * (top * base)
            hy = _fold(common, base, oy) * (top * base)
            du = value(hx + x1, hy + y1) - value(hx + x2, hy + y2)
        for i, expo in enumerate(expos):
            # past a large enough beta the integrand, or its squares in the
            # variance, leave the float range: the variance is then inf or nan
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                f = np.where(sq > 0.0, du * du / sq ** expo, 0.0)
                est[i] += p_k * float(f.mean())
                var[i] += p_k ** 2 * float(f.var(ddof=1)) / per
    pairs = [
        (e, math.sqrt(v)) if math.isfinite(v) else (math.inf, math.inf)
        for e, v in zip(est, var)
    ]
    return pairs[0] if scalar else pairs


# ---------------------------------------------------------------------------
# monotone limit of the rescaled sums

def _geometric_tail(terms: Sequence[float]) -> tuple[float, float]:
    """(tail value, residual bound) extending a geometrically decaying tail.

    Uses the last observed term ratio; exact for exactly geometric data."""
    if len(terms) < 2 or terms[-1] == 0.0:
        return 0.0, 0.0
    if not (math.isfinite(terms[-2]) and math.isfinite(terms[-1])):
        return 0.0, math.inf  # an overflowed term has no ratio to extend
    q = terms[-1] / terms[-2]
    if q >= 1.0:
        return 0.0, math.inf
    tail = terms[-1] * q / (1.0 - q)
    # residual: drift of the observed ratios
    qprev = terms[-2] / terms[-3] if len(terms) >= 3 and terms[-3] != 0 else q
    drift = abs(q - qprev)
    bound = tail * drift / max(1.0 - q, 1e-10)  # stays finite as q nears 1
    return tail, bound


def sg_monotone_limit(
    u,
    beta_grid: Sequence[float],
    probe_levels: int = 6,
) -> list[tuple[float, float, float]]:
    """Rows (beta, (1 - 2^beta/5) * E_beta, tail_bound) on the gasket.

    E_beta is summed over probed levels and the geometric tail is added in
    closed form; for the harmonic family the level energies are exactly
    geometric, so the tail bound is zero drift.
    """
    alpha = FractalKind.SG.alpha
    for b in beta_grid:
        if not alpha < b < SG_BETA_STAR:
            raise ValueError(f"beta={b} outside ({alpha}, {SG_BETA_STAR})")
    energies = _level_energies(u, FractalKind.SG, probe_levels)
    rows = []
    for b in beta_grid:
        lam_factor = 1.0 - 2.0 ** b / 5.0
        terms = _weighted_terms(FractalKind.SG, b, energies)
        tail, bound = _geometric_tail(terms)
        rows.append((float(b), lam_factor * (sum(terms) + tail), lam_factor * bound))
    return rows


# ---------------------------------------------------------------------------
# walk dimension from energy decay

def walkdim_estimate(
    values: Sequence[float], base: int, ns: Optional[Sequence[int]] = None
) -> float:
    """alpha + log(1/sigma)/log(base) from the fitted geometric ratio sigma
    of the level energies."""
    kinds = {k.base: k for k in FractalKind}
    if base not in kinds:
        raise ValueError("base must be 2 or 3")
    alpha = kinds[base].alpha
    values = list(values)
    if len(values) < 3:
        raise ValueError("need at least 3 terms")
    if ns is None:
        ns = range(1, len(values) + 1)
    ratio, _ = fit_log_geometric(ns, values)
    return alpha - math.log(ratio) / math.log(base)


# ---------------------------------------------------------------------------
# trace comparison on the bottom edge

def _bottom_edge_ids(vg: VertexGraph, n: int) -> np.ndarray:
    """Ids of the gasket's level-n vertices on the bottom edge, left to right:
    corner 0 of each level-n cell whose word uses the digits {0, 1} only, in
    rank order (k = 0 .. 2^n - 1 in binary, read in base 3), then corner 1 of
    the last of them, 1^n."""
    k = np.arange(2 ** n)
    ranks = _fold((k[:, None] >> np.arange(n - 1, -1, -1)) & 1, 3)
    ids = corner_ids_at_level(vg, n)
    return np.append(ids[ranks, 0], ids[ranks[-1], 1])


def interval_trace_check(
    u, beta1: float, N: int = 6
) -> tuple[float, float]:
    """(gasket semi-norm, dyadic interval semi-norm of the bottom-edge trace).

    The interval weight uses beta2 = beta1 - alpha + 1, so both sums carry the
    same per-level factor and the interval sum ranges over a subset of the
    gasket's per-cell pairs; the first value dominates the second term by
    term.
    """
    alpha = FractalKind.SG.alpha
    if not alpha < beta1 < SG_BETA_STAR:
        raise ValueError(f"beta1={beta1} outside ({alpha}, {SG_BETA_STAR})")
    uf = _as_vertex_function(u, FractalKind.SG, N)
    sg_sum = besov_partial_sum(
        uf, BesovParams(beta=beta1, N=N, kind=FractalKind.SG)
    )
    vals = uf.as_float_array()
    beta2 = beta1 - alpha + 1.0
    interval = 0.0
    for n in range(1, N + 1):
        d = np.diff(vals[_bottom_edge_ids(uf.graph, n)])
        with np.errstate(over="ignore"):  # past the float range the sum reads inf
            interval += 2.0 ** ((beta2 - 1.0) * n) * float(np.dot(d, d))
    return sg_sum, interval


# ---------------------------------------------------------------------------
# jump kernel pointwise evaluation

# longest digit words the kernel evaluates: matching two words reads each
# run once, at most about depth^2/13 digits (0.4 s at the cap, worst case)
KERNEL_DEPTH_CAP = 10_000


@dataclass(frozen=True)
class JumpKernelParams:
    """Approximation-step parameters for the bounded-kernel construction.

    Phi(i), the truncation level of the outer sum, is the least integer with
    (1 - 2^beta_i/5) * Phi(i) >= i.
    """

    i: int
    delta_i: float
    gamma: int
    beta_i: float

    def __post_init__(self) -> None:
        alpha = FractalKind.SG.alpha
        if self.i < 1:
            raise ValueError("i must be >= 1")
        if not 0 < self.delta_i < 1:
            raise ValueError("delta_i must be in (0,1)")
        if not alpha < self.beta_i < SG_BETA_STAR:
            raise ValueError("beta_i must lie in (alpha, beta*)")
        if self.gamma < 1 or self.gamma != int(self.gamma):
            raise ValueError("gamma must be a positive integer")
        if not (self.gamma > alpha and self.gamma > 2 * alpha / (self.beta_i - alpha)):
            raise ValueError(
                "gamma too small: needs gamma > alpha and "
                "gamma > 2*alpha/(beta_i - alpha)"
            )

    def phi_value(self) -> int:
        slack = 1.0 - 2.0 ** self.beta_i / 5.0
        return math.ceil(self.i / slack)

    def run_length(self, n: int) -> int:
        return self.gamma * n * self.i

    def required_depth(self) -> int:
        N = self.phi_value()
        return N + self.run_length(N)


def _has_constant_run(digits: Sequence[int], start: int, length: int) -> Optional[int]:
    """The repeated digit if digits[start:start+length] is constant."""
    seg = digits[start : start + length]
    if len(seg) < length:
        return None
    d0 = seg[0]
    return d0 if all(d == d0 for d in seg) else None


def jump_kernel_Ci(x, y, params: JumpKernelParams) -> tuple[int, float]:
    """Pointwise kernel value C_i(x, y) and the blended weight a_i.

    x and y are digit prefixes of at least required_depth() digits.  A level
    n <= Phi(i) contributes when x and y share their first n digits and each
    then repeats a single digit gamma*n*i times; the contribution is
    3^(2*gamma*n*i) exactly.
    """
    xd = tuple(int(d) for d in x)
    yd = tuple(int(d) for d in y)
    need = params.required_depth()
    if len(xd) < need or len(yd) < need:
        raise ValueError(f"prefixes must have at least {need} digits")
    if xd == yd:
        raise ValueError("x and y must differ as sampled prefixes")
    for d in xd + yd:
        if not 0 <= d <= 2:
            raise ValueError("digits must be in {0,1,2}")
    C = 0
    for n in range(1, params.phi_value() + 1):
        if xd[:n] != yd[:n]:
            break
        g = params.run_length(n)
        px = _has_constant_run(xd, n, g)
        py = _has_constant_run(yd, n, g)
        if px is not None and py is not None:
            C += 3 ** (2 * g)
    try:
        a = params.delta_i * float(C) + (1.0 - params.delta_i)
    except OverflowError:
        a = math.inf
    return C, a
