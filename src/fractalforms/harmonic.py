"""Harmonic functions on both fractals.

Gasket side: the exact two-parameter-per-boundary-vertex harmonic family,
built by the five-point midpoint extension rule: one fold of the three
integer extension matrices 5 A_i over all level-n cells gives every value as
an integer numerator over the boundary's common denominator times 5^n.
Carpet side: the discrete energy minimizer with left/right plate boundary
conditions ("good function"), the one-dimensional increasing profile f used
for lower bounds (one fold of integer offsets and scales over the triadic
digits, every value an integer numerator over 2 * 7^n), the
digit-restricted sublattice energy used for upper bounds, and Harnack/Holder
ball experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .energies import (
    RationalArray,
    VertexFunction,
    corner_ids_at_level,
    kigami_energy_En,
    sc_pointwise_energy_Dn,
    sc_scaled_energy_an,
)
from .geometry import (
    SC_PAIRS,
    VertexGraph,
    _cells,
    _corners,
    float_sq_dist,
    vertex_graph,
)
from .kinds import (
    SC_LEVEL_CAP,
    SC_RHO_NUMERIC,
    SG_LEVEL_CAP,
    FractalKind,
)
from .networks import DirichletSystem, graph_edge_arrays, sc_RnV

__all__ = [
    "SgHarmonic",
    "sg_harmonic",
    "x_profile_energy_level1",
    "strip_energy_checks",
    "ScGoodFunction",
    "sc_good_function",
    "HarnackBall",
    "harnack_ball",
    "harnack_ratio",
    "holder_constant",
]


# ---------------------------------------------------------------------------
# gasket harmonic family
#
# Cell d's corner values are 5 A_d times its parent's corner values, over 5:
# the three edge midpoints of a cell with corner values (x, y, z) take
# (2x+2y+z)/5, (2x+y+2z)/5 and (x+2y+2z)/5.

_EXTENSION = tuple(
    np.array(m, dtype=object)
    for m in (
        ((5, 0, 0), (2, 2, 1), (2, 1, 2)),
        ((2, 2, 1), (0, 5, 0), (1, 2, 2)),
        ((2, 1, 2), (1, 2, 2), (0, 0, 5)),
    )
)


@dataclass(frozen=True)
class SgHarmonic:
    """Harmonic function on the gasket with prescribed corner values.

    Values are exact: at level n, integer numerators over the boundary data's
    common denominator times 5^n.
    """

    boundary: tuple

    @classmethod
    def make(cls, x0, x1, x2) -> "SgHarmonic":
        return cls((Fraction(x0), Fraction(x1), Fraction(x2)))

    def vertex_function(self, vg: VertexGraph) -> VertexFunction:
        if vg.kind is not FractalKind.SG:
            raise ValueError("gasket harmonic values need a gasket graph")
        n = vg.level
        start = RationalArray.of(self.boundary)
        corners = start.num[None, :]
        for _ in range(n):
            # the children of cell i are 3i, 3i+1, 3i+2, as in geometry._cells
            corners = np.stack([corners @ m.T for m in _EXTENSION], axis=1).reshape(-1, 3)
        num = np.empty(vg.n_vertices, dtype=object)
        num[corner_ids_at_level(vg, n)] = corners
        return VertexFunction(vg, RationalArray(num, start.den * 5 ** n))


def sg_harmonic(x0, x1, x2, n: int) -> VertexFunction:
    """Exact harmonic values on the level-n gasket vertex set."""
    if not 0 <= n <= SG_LEVEL_CAP:
        raise ValueError(f"level {n} outside [0, {SG_LEVEL_CAP}]")
    return SgHarmonic.make(x0, x1, x2).vertex_function(vertex_graph(FractalKind.SG, n))


# ---------------------------------------------------------------------------
# the increasing profile f on [0,1]
#
# f fixes 0 and 1 and scales by 2/7, 3/7, 2/7 on the three thirds, so on the
# triadic interval [j, j+1] / 3^n it is F_j / 7^n + (P_j / 7^n) f(3^n x - j).
# The integers F_j, P_j fold one digit at a time, as geometry._cells folds
# cell offsets: interval 3j + d has F <- 7 F + o[d] P and P <- s[d] P.

_F_OFFSET = np.array((0, 2, 5), dtype=np.int64)  # f(d/3), in sevenths
_F_SCALE = np.array((2, 3, 2), dtype=np.int64)  # f's scale on the third d, in sevenths


def _x_profile_numerators(n: int) -> np.ndarray:
    """2 * 7^n * f(xn / (2 * 3^n)) for xn = 0 .. 2 * 3^n, as int64.

    The left end of interval j reads 2 F_j and its midpoint 2 F_j + P_j,
    since f(1/2) = 1/2; x = 1 reads 2 * 7^n."""
    F, P = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    for _ in range(n):
        F = (7 * F[:, None] + P[:, None] * _F_OFFSET).ravel()
        P = (P[:, None] * _F_SCALE).ravel()
    return np.append(np.stack([2 * F, 2 * F + P], axis=1).ravel(), 2 * 7 ** n)


# ---------------------------------------------------------------------------
# level-1 profile energy
#
# For U(x,y) = g(x) with g through (0, a, b, 1) at x = 0, 1/3, 2/3, 1, the
# level-1 per-cell pair energy collapses to a quadratic in (a, b): columns
# hold 3, 2, 3 cells and each cell contributes its horizontal increment
# squared.  Its gradient system 10a - 4b = 0, -4a + 10b = 6 puts the minimum
# 6/7 at (2/7, 5/7) = (f(1/3), f(2/3)), the offsets _F_OFFSET in sevenths.

def x_profile_energy_level1(a, b):
    a, b = Fraction(a), Fraction(b)
    return 3 * a ** 2 + 2 * (a - b) ** 2 + 3 * (1 - b) ** 2


# ---------------------------------------------------------------------------
# exact carpet energies of the explicit test functions

CANTOR_DIGITS = (0, 1, 2, 4, 5, 6)  # bottom-row and top-row cells only


def _ring_x_energy(n: int, digits: Sequence[int]) -> Fraction:
    """Ring-pair energy of u(x, y) = x summed over the words in digits^n.

    The corner abscissae are integer numerators over 2 * 3^n, and adjacent
    ring points differ by at most one numerator step, so the int64 sum of
    squared differences is exact."""
    cx, _ = _corners(FractalKind.SC, *_cells(FractalKind.SC, n, digits))
    ends = np.array(SC_PAIRS)
    d = (cx[:, ends[:, 0]] - cx[:, ends[:, 1]]).ravel()
    return Fraction(int(np.dot(d, d)), FractalKind.SC.unit(n) ** 2)


def strip_energy_checks(n: int) -> tuple[Fraction, Fraction]:
    """Two exact level-n carpet energies.

    First: the full per-cell pair energy of U(x,y) = f(x), computed on the
    vertex graph from f's table of numerators, read at each vertex's
    abscissa.  Second: the same energy of u(x,y) = x summed only over the
    cells whose digits avoid the two mid-row maps (a Cantor set of rows).
    Expected closed forms: (6/7)^n and (2/3)^n.
    """
    if not 1 <= n <= SC_LEVEL_CAP:
        raise ValueError(f"level {n} outside [1, {SC_LEVEL_CAP}]")
    vg = vertex_graph(FractalKind.SC, n)
    # f's numerators over 2 * 7^n, as the Python ints a RationalArray holds
    num = _x_profile_numerators(n).astype(object)[vg.xn]
    u = VertexFunction(vg, RationalArray(num, 2 * 7 ** n))
    sc_value = sc_pointwise_energy_Dn(u, n)
    cantor_value = _ring_x_energy(n, CANTOR_DIGITS)
    return sc_value, cantor_value


# ---------------------------------------------------------------------------
# carpet good function

@dataclass(eq=False)
class ScGoodFunction:
    """Discrete minimizer of the level-n pair energy with plate boundary
    conditions: 0 on the left side, 1 on the right."""

    fn: VertexFunction
    energy: float

    @property
    def level(self) -> int:
        return self.fn.graph.level

    def values_json_dict(self) -> dict:
        x, y = self.fn.graph.float_coords()
        return {
            "level": self.level,
            "energy": self.energy,
            "x": x.tolist(),
            "y": y.tolist(),
            "value": self.fn.as_float_array().tolist(),
        }


def sc_good_function(n: int) -> ScGoodFunction:
    """The potential of the R_n^V plate solve on the level-n carpet graph.

    Conductances are the per-cell pair counts, so the minimized quadratic is
    exactly the level-n pair energy and its minimum is 1/R_n^V.  `sc_RnV`
    solves the plate on the quadrant Q = {x, y <= 1/2}, where its solution
    is twice the potential, and the whole graph reads it back through the
    reflections: half the quadrant solution at each vertex's mirror image
    in Q, found in a dense table of quadrant ids by numerators, and one
    minus that for x > 1/2.  So the values are exactly 1/2 on x = 1/2 and
    even in y.
    """
    if not 1 <= n <= SC_LEVEL_CAP:
        raise ValueError(f"level {n} outside [1, {SC_LEVEL_CAP}]")
    plate = sc_RnV(n)  # solved before the whole graph is built: a lower peak
    vg = vertex_graph(FractalKind.SC, n)
    m = 3 ** n  # the numerator of 1/2
    # a mirror image that is no quadrant vertex reads the out-of-range id
    # len(plate.xn) and raises
    qid = np.full((m + 1, m + 1), len(plate.xn), dtype=np.int32)
    qid[plate.xn, plate.yn] = np.arange(len(plate.xn))
    mirror = qid[np.minimum(vg.xn, 2 * m - vg.xn), np.minimum(vg.yn, 2 * m - vg.yn)]
    v = 0.5 * plate.potential[mirror]
    right = vg.xn > m
    v[right] = 1.0 - v[right]
    return ScGoodFunction(VertexFunction(vg, v), plate.energy)


# ---------------------------------------------------------------------------
# Harnack ball experiments

@dataclass(eq=False)
class HarnackBall:
    """Ball decomposition of a carpet graph for a Dirichlet problem.

    `boundary_ids` are the ball vertices on the sphere or with a neighbor
    outside the closed ball; `interior_ids` are the remaining ball vertices;
    `inner_ids` are the ball vertices within delta*r of the center.
    All id arrays are sorted, so boundary data indexed by position is
    deterministic.
    """

    graph: VertexGraph
    interior_ids: np.ndarray
    boundary_ids: np.ndarray
    inner_ids: np.ndarray
    _system: Optional[DirichletSystem] = field(default=None, init=False, repr=False)

    def system(self) -> DirichletSystem:
        """The ball's Dirichlet problem for the pair-count conductances,
        factored on first use and reused by every later solve.

        The free set is `interior_ids`, given rather than labelled: an
        interior vertex has every neighbor in the ball, so a component of
        ball vertices holding no boundary vertex would be a component of the
        whole carpet graph, which is connected.  With no boundary vertex at
        all (a ball holding the whole graph) nothing is free."""
        if self._system is None:
            vg = self.graph
            in_ball = np.zeros(vg.n_vertices, dtype=bool)
            in_ball[self.interior_ids] = True
            in_ball[self.boundary_ids] = True
            ii, jj, cc = graph_edge_arrays(vg)
            keep = in_ball[ii] & in_ball[jj]
            free = self.interior_ids if len(self.boundary_ids) else ()
            self._system = DirichletSystem(
                vg.n_vertices, ii[keep], jj[keep], cc[keep], self.boundary_ids, free
            )
        return self._system


def harnack_ball(n: int, center, r, delta) -> HarnackBall:
    n = int(n)
    if not 1 <= n <= SC_LEVEL_CAP:
        raise ValueError(f"level {n} outside [1, {SC_LEVEL_CAP}]")
    vg = vertex_graph(FractalKind.SC, n)
    r = Fraction(r)
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0,1)")
    if r <= 0:
        raise ValueError("r must be positive")
    # exact squared distances to the center: num / full^2, with num an int64
    # on the vertex grid, which the center must lie on, at most 2 full^2
    full = vg.kind.unit(vg.scale)
    cxn, cyn = Fraction(center[0]) * full, Fraction(center[1]) * full
    if cxn.denominator != 1 or cyn.denominator != 1:
        raise ValueError("center must lie on the vertex coordinate grid")
    if not (0 <= cxn <= full and 0 <= cyn <= full):
        raise ValueError("center must lie in the unit square")
    num = vg.kind.sq_norm(vg.xn - int(cxn), vg.yn - int(cyn))
    # for an integer num, num / full^2 <= t <=> num <= floor(t full^2), and
    # num / full^2 == t only if t full^2 is an integer; the thresholds are
    # Python ints, which numpy compares exactly with int64, however large
    sphere = r * r * full * full  # the squared radii in num's units
    inner = sphere * delta * delta
    in_ball = num <= sphere.numerator // sphere.denominator
    on_sphere = num == sphere.numerator if sphere.denominator == 1 else np.zeros(len(num), dtype=bool)
    in_inner = num <= inner.numerator // inner.denominator
    ii, jj = vg.edges[:, 0], vg.edges[:, 1]
    has_outside_neighbor = np.zeros(vg.n_vertices, dtype=bool)
    out_i = in_ball[ii] & ~in_ball[jj]
    out_j = in_ball[jj] & ~in_ball[ii]
    has_outside_neighbor[ii[out_i]] = True
    has_outside_neighbor[jj[out_j]] = True
    boundary_mask = in_ball & (on_sphere | has_outside_neighbor)
    interior_mask = in_ball & ~boundary_mask
    return HarnackBall(
        graph=vg,
        interior_ids=np.nonzero(interior_mask)[0],
        boundary_ids=np.nonzero(boundary_mask)[0],
        inner_ids=np.nonzero(in_inner)[0],
    )


def harnack_solve(ball: HarnackBall, boundary_values) -> np.ndarray:
    """Potentials on the whole graph (zero off the ball), harmonic on the
    interior for the pair-count conductances, boundary data in id order."""
    bvals = np.asarray(boundary_values, dtype=float)
    if bvals.shape != (len(ball.boundary_ids),):
        raise ValueError(
            f"expected {len(ball.boundary_ids)} boundary values, got {bvals.shape}"
        )
    if np.any(bvals < 0):
        raise ValueError("boundary values must be nonnegative")
    if not np.any(bvals > 0):
        raise ValueError("boundary values must not be identically zero")
    u, _ = ball.system().solve(bvals)
    return u


def harnack_ratio(
    n, center, r, delta, boundary_values, ball: Optional[HarnackBall] = None
) -> float:
    """Max/min of the ball-harmonic extension over the shrunken ball.

    Returns inf when the minimum vanishes; raises on an empty shrunken ball.
    """
    if ball is None:
        ball = harnack_ball(n, center, r, delta)
    if len(ball.inner_ids) == 0:
        raise ValueError("no vertices inside the shrunken ball")
    u = harnack_solve(ball, boundary_values)
    inner = u[ball.inner_ids]
    lo = float(inner.min())
    hi = float(inner.max())
    if lo <= 0.0:
        return float("inf")
    return hi / lo


# ---------------------------------------------------------------------------
# Holder quotient experiments

def holder_constant(
    u: VertexFunction,
    n: int,
    beta: float,
    rho: float = SC_RHO_NUMERIC,
    n_pairs: int = 20000,
    seed: int = 0,
) -> float:
    """Max sampled quotient |u(p)-u(q)|^2 / (E(u) * |p-q|^(beta-alpha)).

    Checks the Holder estimate |u(p)-u(q)|^2 <= C E(u) |p-q|^(beta-alpha)
    of the paper's domain: a finite C for a function of finite energy.
    E(u) is the level-n scaled energy for the graph's fractal.  Pairs are all
    graph edges plus uniformly sampled vertex pairs."""
    vg = u.graph
    kind = vg.kind
    if kind is FractalKind.SG:
        energy = float(kigami_energy_En(u, n))
    else:
        energy = sc_scaled_energy_an(u, n, rho)
    if not energy > 0.0:
        raise ValueError("scaled energy must be positive")
    vals = u.as_float_array()
    ii = vg.edges[:, 0].copy()
    jj = vg.edges[:, 1].copy()
    if n_pairs > 0:
        rng = np.random.default_rng(seed)
        ri = rng.integers(0, vg.n_vertices, size=n_pairs)
        rj = rng.integers(0, vg.n_vertices, size=n_pairs)
        ok = ri != rj
        ii = np.concatenate([ii, ri[ok]])
        jj = np.concatenate([jj, rj[ok]])
    sq = float_sq_dist(kind, vg.xn[ii] - vg.xn[jj], vg.yn[ii] - vg.yn[jj], vg.scale)
    du = vals[ii] - vals[jj]
    expo = (beta - kind.alpha) / 2.0
    quot = du * du / (energy * sq ** expo)
    return float(quot.max())
