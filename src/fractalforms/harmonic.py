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
ball experiments.  Neither the strip energies nor the Harnack balls build the
whole vertex graph: the strip energies are int64 sums of a table of
numerators read at each cell's corner abscissae, and a ball is built from
only the cells that meet it, its trials solved as the columns of one
right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .energies import (
    FLOAT_EXACT,
    RationalArray,
    VertexFunction,
    corner_ids_at_level,
    kigami_energy_En,
    sc_scaled_energy_an,
)
from .geometry import (
    SC_PAIRS,
    VertexGraph,
    _cells,
    _corners,
    cached_vertex_graph,
    float_sq_dist,
    sc_region,
    vertex_graph,
    vertex_scale,
)
from .kinds import (
    SC_LEVEL_CAP,
    SC_RHO_NUMERIC,
    SG_LEVEL_CAP,
    FractalKind,
)
from .networks import DirichletSystem, sc_RnV

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
# (2x+2y+z)/5, (2x+y+2z)/5 and (x+2y+2z)/5.  The rows of 5 A_d are
# nonnegative and sum to 5, so a level multiplies the largest |numerator|
# by at most 5.

_EXTENSION = tuple(
    np.array(m, dtype=np.int64)
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
    common denominator times 5^n.  They are int64 where 5^n times the largest
    boundary numerator stays below 2^53, which bounds every step of the fold
    and keeps each numerator exact as a float too, and Python ints past it.
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
        small = 5 ** n * max(abs(v) for v in start.num) < FLOAT_EXACT
        dtype = np.int64 if small else object
        corners = start.num.astype(dtype)[None, :]
        extension = [m.astype(dtype) for m in _EXTENSION]
        for _ in range(n):
            # the children of cell i are 3i, 3i+1, 3i+2, as in geometry._cells
            corners = np.stack([corners @ m.T for m in extension], axis=1).reshape(-1, 3)
        num = np.empty(vg.n_vertices, dtype=dtype)
        num[corner_ids_at_level(vg, n)] = corners
        return VertexFunction(vg, RationalArray(num, start.den * 5 ** n))


def sg_harmonic(x0, x1, x2, n: int) -> VertexFunction:
    """Exact harmonic values on the level-n gasket vertex set."""
    if not 0 <= n <= SG_LEVEL_CAP:
        raise ValueError(f"level {n} outside [0, {SG_LEVEL_CAP}]")
    return SgHarmonic.make(x0, x1, x2).vertex_function(cached_vertex_graph(FractalKind.SG, n))


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


def _ring_energy(n: int, table: np.ndarray, den: int, digits: Sequence[int]) -> Fraction:
    """Ring-pair energy of U(x, y) = table[xn] / den summed over the level-n
    cells whose words lie in digits^n.

    Each cell's 8 corner abscissae xn index the int64 table, and the squared
    differences over the 8 ring pairs are summed in int64, which is exact
    while the sum fits; the cells go one first-digit block at a time."""
    gx, gy = _cells(FractalKind.SC, n, digits)
    ends = np.array(SC_PAIRS)
    total = 0
    for bx, by in zip(np.split(gx, len(digits)), np.split(gy, len(digits))):
        t = table[_corners(FractalKind.SC, bx, by)[0]]
        d = (t[:, ends[:, 0]] - t[:, ends[:, 1]]).ravel()
        total += int(np.dot(d, d))
    return Fraction(total, den * den)


def strip_energy_checks(n: int) -> tuple[Fraction, Fraction]:
    """Two exact level-n carpet energies, per-cell ring-pair sums as
    `energies.sc_pointwise_energy_Dn` takes them.

    First: the energy of U(x,y) = f(x) over every cell, read from f's table
    of numerators over 2 * 7^n at each corner's abscissa; the sum is at most
    4 * 6^n * 7^n in those units.  Second: the same energy of u(x,y) = x
    (the identity table over 2 * 3^n) summed only over the cells whose
    digits avoid the two mid-row maps (a Cantor set of rows).  Expected
    closed forms: (6/7)^n and (2/3)^n.
    """
    if not 1 <= n <= SC_LEVEL_CAP:
        raise ValueError(f"level {n} outside [1, {SC_LEVEL_CAP}]")
    full = FractalKind.SC.unit(n)
    sc_value = _ring_energy(n, _x_profile_numerators(n), 2 * 7 ** n, range(FractalKind.SC.n_maps))
    cantor_value = _ring_energy(n, np.arange(full + 1, dtype=np.int64), full, CANTOR_DIGITS)
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
    """Ball decomposition of the level-n carpet graph for a Dirichlet problem.

    The ball lives on its region: the level-n cells whose closed square
    meets the closed ball, with `xn`, `yn` and `edges` as in VertexGraph.
    Every cell holding a ball vertex is in the region, so the ball vertices
    keep the whole graph's relative order, neighbors and edge
    multiplicities.  `boundary_ids` are the ball vertices on the sphere or
    with a neighbor outside the closed ball; `interior_ids` are the
    remaining ball vertices; `inner_ids` are the ball vertices within
    delta*r of the center.  All are sorted region ids, so boundary data
    indexed by position is deterministic.
    """

    xn: np.ndarray
    yn: np.ndarray
    edges: np.ndarray
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
            in_ball = np.zeros(len(self.xn), dtype=bool)
            in_ball[self.interior_ids] = True
            in_ball[self.boundary_ids] = True
            ii, jj, mult = self.edges.T
            keep = in_ball[ii] & in_ball[jj]
            free = self.interior_ids if len(self.boundary_ids) else ()
            self._system = DirichletSystem(
                len(self.xn), ii[keep], jj[keep], mult[keep].astype(float),
                self.boundary_ids, free,
            )
        return self._system


def harnack_ball(n: int, center, r, delta) -> HarnackBall:
    n = int(n)
    if not 1 <= n <= SC_LEVEL_CAP:
        raise ValueError(f"level {n} outside [1, {SC_LEVEL_CAP}]")
    r = Fraction(r)
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0,1)")
    if r <= 0:
        raise ValueError("r must be positive")
    # exact squared distances to the center: num / full^2, with num an int64
    # on the vertex grid, which the center must lie on, at most 2 full^2
    kind = FractalKind.SC
    full = kind.unit(vertex_scale(kind, n))
    cxn, cyn = Fraction(center[0]) * full, Fraction(center[1]) * full
    if cxn.denominator != 1 or cyn.denominator != 1:
        raise ValueError("center must lie on the vertex coordinate grid")
    if not (0 <= cxn <= full and 0 <= cyn <= full):
        raise ValueError("center must lie in the unit square")
    cxn, cyn = int(cxn), int(cyn)
    # for an integer num, num / full^2 <= t <=> num <= floor(t full^2), and
    # num / full^2 == t only if t full^2 is an integer; the thresholds are
    # Python ints, which numpy compares exactly with int64, however large
    sphere = r * r * full * full  # the squared radii in num's units
    inner = sphere * delta * delta
    in_sphere = sphere.numerator // sphere.denominator

    def meets(gx, gy):
        # the point of the closed cell square nearest the center is on the grid
        dx = np.clip(cxn, 2 * gx, 2 * gx + 2) - cxn
        dy = np.clip(cyn, 2 * gy, 2 * gy + 2) - cyn
        return kind.sq_norm(dx, dy) <= in_sphere

    xn, yn, edges = sc_region(n, meets)
    num = kind.sq_norm(xn - cxn, yn - cyn)
    in_ball = num <= in_sphere
    on_sphere = num == sphere.numerator if sphere.denominator == 1 else np.zeros(len(num), dtype=bool)
    in_inner = num <= inner.numerator // inner.denominator
    ii, jj = edges[:, 0], edges[:, 1]
    has_outside_neighbor = np.zeros(len(xn), dtype=bool)
    has_outside_neighbor[ii[in_ball[ii] & ~in_ball[jj]]] = True
    has_outside_neighbor[jj[in_ball[jj] & ~in_ball[ii]]] = True
    boundary_mask = in_ball & (on_sphere | has_outside_neighbor)
    interior_mask = in_ball & ~boundary_mask
    return HarnackBall(
        xn, yn, edges,
        interior_ids=np.nonzero(interior_mask)[0],
        boundary_ids=np.nonzero(boundary_mask)[0],
        inner_ids=np.nonzero(in_inner)[0],
    )


def harnack_solve(ball: HarnackBall, boundary_values) -> np.ndarray:
    """Potentials on the ball's region (zero off the ball), harmonic on the
    interior for the pair-count conductances, boundary data in id order:
    one vector, or a matrix with one column per trial, solved together."""
    bvals = np.asarray(boundary_values, dtype=float)
    if bvals.ndim not in (1, 2) or len(bvals) != len(ball.boundary_ids) or 0 in bvals.shape[1:]:
        raise ValueError(
            f"expected {len(ball.boundary_ids)} boundary values per trial, got {bvals.shape}"
        )
    if np.any(bvals < 0):
        raise ValueError("boundary values must be nonnegative")
    if not np.all(np.any(bvals > 0, axis=0)):
        raise ValueError("boundary values must not be identically zero")
    u, _ = ball.system().solve(bvals)
    return u


def harnack_ratio(
    n, center, r, delta, boundary_values, ball: Optional[HarnackBall] = None
) -> float | np.ndarray:
    """Max/min of the ball-harmonic extension over the shrunken ball: a
    float for one boundary vector, an array of one per column for a matrix.

    A ratio is inf when its minimum vanishes; raises on an empty shrunken ball.
    """
    if ball is None:
        ball = harnack_ball(n, center, r, delta)
    if len(ball.inner_ids) == 0:
        raise ValueError("no vertices inside the shrunken ball")
    inner = harnack_solve(ball, boundary_values)[ball.inner_ids]
    lo, hi = inner.min(axis=0), inner.max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(lo <= 0.0, np.inf, hi / lo)
    return float(ratio) if ratio.ndim == 0 else ratio


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
