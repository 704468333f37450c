"""Resistor-network reduction and effective resistance.

The solver contract is shared by every consumer in the package: one sparse
direct path.  `DirichletSystem` assembles the free-free Laplacian block once,
factors it with SuperLU (`splu`, minimum-degree ordering on A^T + A), and
solves any number of right-hand sides on that factor.  Every solve checks
|L x - b| <= SOLVER_TOL * max(1, |b|) with the fixed SOLVER_TOL = 1e-12, the
package's only residual tolerance (no call takes another); a failed
factorization or a missed residual (NaN included) raises SolverError.
`solve_dirichlet` is the single-shot form, and `certify_dirichlet` makes
the same residual check on potentials found without a solve, such as the
tree walk's radial closures.  Triangle-star substitutions, node shorting,
and node cutting are exact on rational inputs.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import (
    VertexGraph,
    cell_graph,
    sc_quadrant,
    sg_corner_ids,
    vertex_graph,
)
from .kinds import SC_LEVEL_CAP, FractalKind, sc_beta_star

SOLVER_TOL = 1e-12
# fixed, not a tuning knob: single-column supernodes keep the factor's
# transient memory small on tree-like graphs and cost nothing on the carpet
_SPLU_OPTIONS = {"Relax": 1, "PanelSize": 1}


class SolverError(RuntimeError):
    """Factorization failed or a solve missed the requested residual."""


# ---------------------------------------------------------------------------
# exact 3-terminal transforms

def delta_to_wye(r12, r23, r31):
    """Triangle resistances -> star resistances (exact on Fractions)."""
    s = r12 + r23 + r31
    if s == 0:
        raise ZeroDivisionError("degenerate triangle")
    return (r12 * r31 / s, r12 * r23 / s, r23 * r31 / s)


def wye_to_delta(r1, r2, r3):
    """Star resistances -> triangle resistances (inverse of delta_to_wye)."""
    p = r1 * r2 + r2 * r3 + r3 * r1
    if r1 == 0 or r2 == 0 or r3 == 0:
        raise ZeroDivisionError("star arm with zero resistance")
    return (p / r3, p / r1, p / r2)


# ---------------------------------------------------------------------------
# small editable networks

@dataclass(eq=False)
class WeightedNetwork:
    """Multigraph of conductances keyed by unordered node pairs."""

    conductances: dict[tuple[Hashable, Hashable], object] = field(
        default_factory=dict
    )

    @staticmethod
    def _key(a, b):
        if a == b:
            raise ValueError("self-loop")
        return (a, b) if repr(a) <= repr(b) else (b, a)

    def add_edge(self, a, b, conductance) -> None:
        if conductance < 0:
            raise ValueError("negative conductance")
        k = self._key(a, b)
        self.conductances[k] = self.conductances.get(k, 0) + conductance

    def nodes(self) -> list:
        seen = []
        got = set()
        for a, b in self.conductances:
            for x in (a, b):
                if x not in got:
                    got.add(x)
                    seen.append(x)
        return seen

    def neighbors(self, v) -> list:
        out = []
        for (a, b), c in self.conductances.items():
            if a == v:
                out.append((b, c))
            elif b == v:
                out.append((a, c))
        return out

    def copy(self) -> "WeightedNetwork":
        return WeightedNetwork(dict(self.conductances))

    def remove_edge(self, a, b) -> None:
        del self.conductances[self._key(a, b)]

    def substitute_delta_with_wye(self, a, b, c, center) -> None:
        """Replace the triangle on (a,b,c) by a star through `center`."""
        cab = self.conductances.get(self._key(a, b))
        cbc = self.conductances.get(self._key(b, c))
        cca = self.conductances.get(self._key(c, a))
        if None in (cab, cbc, cca):
            raise KeyError("triangle edge missing")
        one = Fraction(1) if isinstance(cab, Fraction) else 1.0
        r1, r2, r3 = delta_to_wye(one / cab, one / cbc, one / cca)
        self.remove_edge(a, b)
        self.remove_edge(b, c)
        self.remove_edge(c, a)
        self.add_edge(a, center, one / r1)
        self.add_edge(b, center, one / r2)
        self.add_edge(c, center, one / r3)

    def short_nodes(self, group: Iterable, label) -> None:
        """Merge a node group into one node; parallel edges accumulate."""
        group = set(group)
        old = dict(self.conductances)
        self.conductances.clear()
        for (a, b), c in old.items():
            a2 = label if a in group else a
            b2 = label if b in group else b
            if a2 == b2:
                continue  # interior edge vanishes
            self.add_edge(a2, b2, c)

    def cut_node(self, v, parts: Sequence[Iterable]) -> list:
        """Split v into one copy per part; parts must partition its edges."""
        nbrs = [n for n, _ in self.neighbors(v)]
        flat = [x for part in parts for x in part]
        if sorted(map(repr, flat)) != sorted(map(repr, nbrs)):
            raise ValueError("parts do not partition the incident edges")
        labels = [(v, i) for i in range(len(parts))]
        old = dict(self.conductances)
        for (a, b), c in old.items():
            if v in (a, b):
                other = b if a == v else a
                for part, lab in zip(parts, labels):
                    if other in set(part):
                        self.remove_edge(a, b)
                        self.add_edge(lab, other, c)
                        break
        return labels


# ---------------------------------------------------------------------------
# Dirichlet solver on edge arrays

def _component_labels(n: int, ii, jj) -> np.ndarray:
    """Connected-component label of every node; an isolated node is alone."""
    if len(ii) == 0:
        return np.arange(n)
    g = sp.coo_matrix((np.ones(len(ii)), (ii, jj)), shape=(n, n))
    _, labels = sp.csgraph.connected_components(g, directed=False)
    return labels


@dataclass
class SolverLog:
    """What the solver did inside one `solver_log` block."""

    methods: set[str] = field(default_factory=set)
    factorizations: int = 0
    solves: int = 0
    max_residual: float = 0.0

    def as_dict(self) -> dict:
        return {
            "method": ",".join(sorted(self.methods)) or "none",
            "factorizations": self.factorizations,
            "solves": self.solves,
            "max_residual": self.max_residual,
        }


_open_logs: list[SolverLog] = []


@contextmanager
def solver_log() -> Iterator[SolverLog]:
    """Count the factorizations and solves made inside the block."""
    log = SolverLog()
    _open_logs.append(log)
    try:
        yield log
    finally:
        _open_logs.remove(log)


def _record(method: str, factorizations: int = 0, solves: int = 0, residual: float = 0.0) -> None:
    for log in _open_logs:
        log.methods.add(method)
        log.factorizations += factorizations
        log.solves += solves
        log.max_residual = max(log.max_residual, residual)


class DirichletSystem:
    """Minimize sum c_e (u_i - u_j)^2 with the values on `fixed_ids` given.

    The free-free block of the Laplacian is assembled and factored once;
    `solve` then takes any number of fixed-value vectors.  Nodes in no
    component of a fixed node are not free: their potential is 0.
    """

    def __init__(self, n: int, ii, jj, cond, fixed_ids) -> None:
        self.n = n
        self.fixed_ids = np.asarray(fixed_ids, dtype=np.int64)
        isfixed = np.zeros(n, dtype=bool)
        isfixed[self.fixed_ids] = True
        labels = _component_labels(n, ii, jj)
        free_mask = np.isin(labels, labels[self.fixed_ids]) & ~isfixed
        self.free = np.nonzero(free_mask)[0]
        self._lu = None
        if len(self.free) == 0:
            return
        self._L, self._load = self._assemble(ii, jj, cond, free_mask)
        try:
            self._lu = spla.splu(self._L, permc_spec="MMD_AT_PLUS_A", options=_SPLU_OPTIONS)
        except RuntimeError as e:
            raise SolverError(f"factorization failed at {len(self.free)} unknowns: {e}") from e
        _record("splu", factorizations=1)

    def _assemble(self, ii, jj, cond, free_mask) -> tuple[sp.csc_array, sp.csr_array]:
        """The free-free Laplacian block (CSC) and the load on the free nodes
        per unit value on each fixed node; the edge intermediates die here."""
        ii = np.asarray(ii, dtype=np.int64)
        jj = np.asarray(jj, dtype=np.int64)
        cond = np.asarray(cond, dtype=float)
        nf, nfix = len(self.free), len(self.fixed_ids)
        # position of each node among the free nodes, or among the fixed ones
        pos = np.full(self.n, -1, dtype=np.int32)
        pos[self.free] = np.arange(nf, dtype=np.int32)
        pos[self.fixed_ids] = np.arange(nfix, dtype=np.int32)
        fi, fj = free_mask[ii], free_mask[jj]
        diag = np.bincount(pos[ii[fi]], cond[fi], nf) + np.bincount(pos[jj[fj]], cond[fj], nf)
        both = fi & fj
        bi, bj, bc = pos[ii[both]], pos[jj[both]], -cond[both]
        L = sp.csc_array(
            (
                np.concatenate([bc, bc, diag]),
                (np.concatenate([bi, bj, pos[self.free]]), np.concatenate([bj, bi, pos[self.free]])),
            ),
            shape=(nf, nf),
        )
        oi, oj = fi & ~fj, fj & ~fi
        load = sp.csr_array(
            (
                np.concatenate([cond[oi], cond[oj]]),
                (
                    np.concatenate([pos[ii[oi]], pos[jj[oj]]]),
                    np.concatenate([pos[jj[oi]], pos[ii[oj]]]),
                ),
            ),
            shape=(nf, nfix),
        )
        return L, load

    def solve(self, values) -> tuple[np.ndarray, dict]:
        """Potentials for fixed values in `fixed_ids` order.

        `values` is one vector, or a matrix with one column per right-hand
        side; the potentials have the matching shape with n rows.  Raises
        SolverError when a residual exceeds SOLVER_TOL * max(1, |load|).
        """
        values = np.asarray(values, dtype=float)
        u = np.zeros((self.n,) + values.shape[1:])
        u[self.fixed_ids] = values
        n_rhs = 1 if values.ndim == 1 else values.shape[1]
        if self._lu is None:
            _record("trivial", solves=n_rhs)
            return u, {"method": "trivial", "residual": 0.0}
        b = self._load @ values
        x = self._lu.solve(b)
        bnorm = np.linalg.norm(b, axis=0)
        res = np.linalg.norm(self._L @ x - b, axis=0)
        bad = ~(res <= SOLVER_TOL * np.maximum(1.0, bnorm))  # NaN counts as a failure
        worst = float(np.max(res))
        if np.any(bad):
            raise SolverError(
                f"splu residual {worst:.3e} above tolerance {SOLVER_TOL:.1e} "
                f"at {len(self.free)} unknowns"
            )
        _record("splu", solves=n_rhs, residual=worst)
        u[self.free] = x
        return u, {"method": "splu", "residual": worst}


def solve_dirichlet(
    n: int,
    ii: np.ndarray,
    jj: np.ndarray,
    cond: np.ndarray,
    fixed_ids: np.ndarray,
    fixed_vals: np.ndarray,
) -> tuple[np.ndarray, dict]:
    """Minimize sum c_e (u_i - u_j)^2 subject to the fixed values.

    Returns potentials for all n nodes (unreached components sit at 0) and an
    info dict with method/residual.
    """
    return DirichletSystem(n, ii, jj, cond, fixed_ids).solve(fixed_vals)


def certify_dirichlet(
    n: int,
    blocks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]],
    fixed_ids: np.ndarray,
    u: np.ndarray,
    method: str,
) -> float:
    """Residual |L u - b| on the free nodes of potentials found without a solve.

    This is the check `DirichletSystem.solve` makes, for a solution computed
    by other means; the solver log records it as one solve under `method`.
    The edges come as (ii, jj, cond) blocks, read once and in order, so a
    caller can hand over a large network one piece at a time.  Each node's
    out-current and in-current are summed edge by edge in block order and
    subtracted at the end, which gives the bits one bincount over the
    concatenated edges would give, however the edges are split.
    Raises SolverError when the residual exceeds SOLVER_TOL * max(1, |b|).
    """
    free = np.ones(n, dtype=bool)
    free[fixed_ids] = False
    boundary = np.zeros(n)
    boundary[fixed_ids] = u[fixed_ids]
    # out- and in-currents of u, then of its boundary values alone
    out_u, in_u, out_b, in_b = np.zeros((4, n))
    for ii, jj, cond in blocks:
        for v, out, into in ((u, out_u, in_u), (boundary, out_b, in_b)):
            f = v[ii]
            f -= v[jj]
            f *= cond
            np.add.at(out, ii, f)
            np.add.at(into, jj, f)
        del ii, jj, cond, f  # before the next block is made
    # with an axis, norm sums the squares in numpy, as DirichletSystem.solve
    # does; without one it calls the BLAS dot, whose worker threads wake for
    # each call and spin on past it, slowing the caller on a busy machine
    bnorm = float(np.linalg.norm((out_b - in_b)[free], axis=0))
    res = float(np.linalg.norm((out_u - in_u)[free], axis=0))
    if not res <= SOLVER_TOL * max(1.0, bnorm):  # NaN counts as a failure
        raise SolverError(
            f"{method} residual {res:.3e} above tolerance {SOLVER_TOL:.1e} "
            f"at {int(free.sum())} unknowns"
        )
    _record(method, solves=1, residual=res)
    return res


@dataclass
class ResistanceResult:
    resistance: float
    energy: float
    potential: np.ndarray = field(repr=False, compare=False)

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.resistance)


def resistance_from_arrays(n: int, ii, jj, cond, A_ids, B_ids) -> ResistanceResult:
    """Effective resistance between node sets A (potential 0) and B (1),
    with the potential that carries it."""
    ii = np.asarray(ii, dtype=np.int64)
    jj = np.asarray(jj, dtype=np.int64)
    cond = np.asarray(cond, dtype=float)
    A_ids = np.asarray(A_ids, dtype=np.int64)
    B_ids = np.asarray(B_ids, dtype=np.int64)
    if len(A_ids) == 0 or len(B_ids) == 0:
        raise ValueError("terminal set empty")
    if set(map(int, A_ids)) & set(map(int, B_ids)):
        raise ValueError("terminal sets overlap")

    fixed = np.concatenate([A_ids, B_ids])
    vals = np.concatenate([np.zeros(len(A_ids)), np.ones(len(B_ids))])
    # with B unreachable from A no current flows: the energy is 0, R = inf
    u, _ = solve_dirichlet(n, ii, jj, cond, fixed, vals)
    d = u[ii] - u[jj]
    energy = float(np.sum(cond * d * d))
    resistance = 1.0 / energy if energy > 0 else math.inf
    return ResistanceResult(resistance, energy, u)


def effective_resistance(net: WeightedNetwork, A: Iterable, B: Iterable) -> ResistanceResult:
    nodes = net.nodes()
    at = {v: i for i, v in enumerate(nodes)}
    m = len(net.conductances)
    ii = np.empty(m, dtype=np.int64)
    jj = np.empty(m, dtype=np.int64)
    cc = np.empty(m, dtype=float)
    for e, ((a, b), c) in enumerate(net.conductances.items()):
        ii[e], jj[e], cc[e] = at[a], at[b], float(c)
    A_ids = np.array([at[v] for v in A], dtype=np.int64)
    B_ids = np.array([at[v] for v in B], dtype=np.int64)
    return resistance_from_arrays(len(nodes), ii, jj, cc, A_ids, B_ids)


# ---------------------------------------------------------------------------
# fractal-specific resistances

def graph_edge_arrays(vg: VertexGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    e = vg.edges
    return e[:, 0], e[:, 1], e[:, 2].astype(float)


def sg_word_resistance(n: int) -> ResistanceResult:
    """Resistance between the repeated-digit cells 0^n and 1^n on the
    unit-conductance level-n cell graph (both edge types, weight 1).

    Level 1 is the plain triangle (value 2/3); the value grows by a factor
    approaching 5/3 per level.  Cell ids are word ranks: 0^n has rank 0 and
    1^n has rank 1 + 3 + ... + 3^(n-1) = (3^n - 1)/2.
    """
    n = int(n)
    cg = cell_graph(FractalKind.SG, n)
    ii, jj = cg.edges[:, 0], cg.edges[:, 1]
    a, b = 0, (3 ** n - 1) // 2
    return resistance_from_arrays(
        cg.n_cells, ii, jj, np.ones(len(ii)), np.array([a]), np.array([b])
    )


def sg_vertex_corner_resistance(n: int) -> ResistanceResult:
    """Resistance between the two bottom corners of the level-n vertex graph
    with unit conductances (scale-invariant up to the (5/3)^n weight)."""
    vg = vertex_graph(FractalKind.SG, int(n))
    p0, p1, _ = sg_corner_ids(vg)
    ii, jj, cc = graph_edge_arrays(vg)
    return resistance_from_arrays(
        vg.n_vertices, ii, jj, cc, np.array([p0]), np.array([p1])
    )


@dataclass
class QuadrantPlate(ResistanceResult):
    """The carpet plate solved on the closed quadrant x, y <= 1/2: `potential`
    is 0 on x = 0 and 1 on x = 1/2, at the quadrant vertices whose level-n
    numerators are (xn, yn)."""

    xn: np.ndarray = field(repr=False, compare=False)
    yn: np.ndarray = field(repr=False, compare=False)


def sc_RnV(n: int) -> QuadrantPlate:
    """Left-to-right resistance R_n^V of the level-n carpet graph with the
    per-cell pair counting as conductances (1 on free sides, 2 on shared),
    and its energy 1/R_n^V.

    The plate potential v (0 on the left side, 1 on the right) is odd about
    x = 1/2 and even about y = 1/2, so only the closed quadrant
    Q = {x, y <= 1/2} is solved, on the graph `sc_quadrant` builds from the
    cells that meet it: 0 on x = 0 and 1 on x = 1/2, which is 2 v there.
    Every edge lies in one of the four mirror images of Q: edges are steps
    of one numerator along cell sides, which sit at even numerators, and
    1/2 is the odd numerator m = 3^n, so no edge runs along x = 1/2 or
    y = 1/2 and no weight is shared.  The Neumann condition on y = 1/2 holds
    by itself, and the full energy is 4 E_Q(v) = E_Q(2 v), the quadrant
    solve's own.  The result keeps the quadrant solution 2 v on Q with the
    numerators of Q's vertices; `harmonic.sc_good_function` reflects it
    onto the whole graph.
    """
    n = int(n)
    if not 1 <= n <= SC_LEVEL_CAP:
        raise ValueError(f"level {n} outside [1, {SC_LEVEL_CAP}]")
    xn, yn, edges = sc_quadrant(n)
    res = resistance_from_arrays(
        len(xn), edges[:, 0], edges[:, 1], edges[:, 2].astype(float),
        np.flatnonzero(xn == 0), np.flatnonzero(xn == 3 ** n),
    )
    return QuadrantPlate(res.resistance, res.energy, res.potential, xn, yn)


# ---------------------------------------------------------------------------
# geometric-sequence fitting

def fit_log_geometric(ns: Sequence[int], values: Sequence[float]) -> tuple[float, float]:
    """Least-squares fit log v_n = intercept + n*log(ratio); returns
    (ratio, intercept).  Requires positive values and >= 2 points."""
    ns = np.asarray(ns, dtype=float)
    vals = np.asarray(values, dtype=float)
    if len(ns) < 2:
        raise ValueError("need at least two points")
    if (vals <= 0).any():
        raise ValueError("values must be positive")
    A = np.stack([np.ones_like(ns), ns], axis=1)
    sol, *_ = np.linalg.lstsq(A, np.log(vals), rcond=None)
    return float(math.exp(sol[1])), float(sol[0])


@dataclass
class RhoEstimate:
    rho_hat: float
    beta_star_hat: float
    levels: tuple[int, ...]
    ratios: tuple[float, ...]


def rho_estimate(
    levels: Sequence[int], R_values: Sequence[float], fit_from: int = 2
) -> RhoEstimate:
    """Fit the growth factor of the left-right resistances and the implied
    critical exponent log(8*rho)/log(3).  Levels below `fit_from` are shown
    in the ratio list but excluded from the fit."""
    levels = [int(x) for x in levels]
    pairs = sorted(zip(levels, R_values))
    ratios = tuple(
        pairs[i + 1][1] / pairs[i][1]
        for i in range(len(pairs) - 1)
        if pairs[i + 1][0] == pairs[i][0] + 1
    )
    fit_pts = [(n, v) for n, v in pairs if n >= fit_from]
    rho, _ = fit_log_geometric([p[0] for p in fit_pts], [p[1] for p in fit_pts])
    return RhoEstimate(rho, sc_beta_star(rho), tuple(p[0] for p in fit_pts), ratios)
