"""Discrete energies, cell averages, and the scaling identities between them.

All level-n sums run over within-cell vertex pairs counted per cell (a pair on
a shared carpet side therefore enters once for each of the two cells).  Exact
rational input stays exact; float input takes a vectorized path.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .geometry import (
    SC_PAIRS,
    SG_PAIRS,
    VertexGraph,
    _cells,
    cell_graph,
    vertex_scale,
)
from .kinds import FractalKind


@dataclass(eq=False)
class VertexFunction:
    """Values attached to the vertices of a VertexGraph.

    `values` may be a float ndarray or a list of Fractions; the energy
    routines preserve exactness for the latter.
    """

    graph: VertexGraph
    values: Sequence

    def __post_init__(self) -> None:
        if len(self.values) != self.graph.n_vertices:
            raise ValueError("value count does not match vertex count")

    @property
    def is_exact(self) -> bool:
        return not (
            isinstance(self.values, np.ndarray)
            and np.issubdtype(self.values.dtype, np.floating)
        )

    def as_float_array(self) -> np.ndarray:
        if isinstance(self.values, np.ndarray) and np.issubdtype(
            self.values.dtype, np.floating
        ):
            return self.values
        return np.array([float(v) for v in self.values], dtype=float)

    @classmethod
    def from_point_fn(cls, graph: VertexGraph, fn: Callable) -> "VertexFunction":
        return cls(graph, [fn(graph.point(i)) for i in range(graph.n_vertices)])

    @classmethod
    def from_x_fraction(cls, graph: VertexGraph, fn: Callable) -> "VertexFunction":
        """Exact values from the x coordinate alone (fn maps Fraction->value)."""
        den = (
            2 ** graph.scale
            if graph.kind is FractalKind.SG
            else 2 * 3 ** graph.scale
        )
        cache: dict[int, object] = {}
        vals = []
        for xn in graph.xn:
            xn = int(xn)
            got = cache.get(xn)
            if got is None:
                got = fn(Fraction(xn, den))
                cache[xn] = got
            vals.append(got)
        return cls(graph, vals)


@dataclass(eq=False)
class CellFunction:
    """Values attached to the level-n cells, in lexicographic word order."""

    kind: FractalKind
    level: int
    values: Sequence

    def __post_init__(self) -> None:
        if len(self.values) != self.kind.n_maps ** self.level:
            raise ValueError("value count does not match cell count")


# ---------------------------------------------------------------------------
# corner id tables

def corner_ids_at_level(vg: VertexGraph, n: int) -> np.ndarray:
    """(n_cells, boundary_size) vertex ids of every level-n cell's corners.

    Requires n <= vg.level; level-n vertices are a subset of the graph's.
    """
    if not 0 <= n <= vg.level:
        raise ValueError(f"level {n} outside graph range 0..{vg.level}")
    kind = vg.kind
    lift = kind.base ** (vg.scale - vertex_scale(kind, n))
    _, _, cx, cy = _cells(kind, n)
    return vg.ids_of(cx * lift, cy * lift)


def _pair_energy(u: VertexFunction, n: int, pairs) -> object:
    ids = corner_ids_at_level(u.graph, n)
    if not u.is_exact:
        v = u.values
        total = 0.0
        for a, b in pairs:
            d = v[ids[:, a]] - v[ids[:, b]]
            total += float(np.dot(d, d))
        return total
    vals = u.values
    total = Fraction(0)
    for row in ids:
        for a, b in pairs:
            d = vals[int(row[a])] - vals[int(row[b])]
            total += d * d
    return total


# ---------------------------------------------------------------------------
# gasket energies

def sg_pointwise_energy_Bn(u: VertexFunction, n: int):
    """Level-n sum of squared differences over all within-cell vertex pairs."""
    if u.graph.kind is not FractalKind.SG:
        raise ValueError("gasket energy on a non-gasket graph")
    return _pair_energy(u, n, SG_PAIRS)


def kigami_energy_En(u: VertexFunction, n: int):
    """(5/3)^n times the level-n pair energy; constant in n for harmonic u."""
    b = sg_pointwise_energy_Bn(u, n)
    if isinstance(b, Fraction):
        return Fraction(5, 3) ** n * b
    return (5.0 / 3.0) ** n * b


def sc_pointwise_energy_Dn(u: VertexFunction, n: int):
    """Per-cell sum over the 8 adjacent boundary-point pairs of every cell.

    Pairs on a side shared by two cells are counted twice, matching the
    conductance-1-or-2 network used for the resistance runs.
    """
    if u.graph.kind is not FractalKind.SC:
        raise ValueError("carpet energy on a non-carpet graph")
    return _pair_energy(u, n, SC_PAIRS)


def sc_scaled_energy_an(u: VertexFunction, n: int, rho: float):
    return rho ** n * float(sc_pointwise_energy_Dn(u, n))


# ---------------------------------------------------------------------------
# cell averages and mean-value coarsening

def cell_averages(u: VertexFunction, n: int) -> CellFunction:
    """Level-n cell averages by recursive corner means.

    Corner means at the graph's own level are averaged upward in blocks of
    k = n_maps, so coarse averages are exactly the mean-value coarsening of
    fine ones.  For harmonic gasket data the result is the exact self-similar
    cell average at every level; otherwise the quadrature error decays like
    the oscillation of u at the deepest available scale.
    """
    vg = u.graph
    if not 0 <= n <= vg.level:
        raise ValueError("level out of range")
    ids = corner_ids_at_level(vg, vg.level)
    nb = vg.kind.boundary_size
    k = vg.kind.n_maps
    if not u.is_exact:
        vals = u.values[ids].mean(axis=1)
        for _ in range(vg.level - n):
            vals = vals.reshape(-1, k).mean(axis=1)
        return CellFunction(vg.kind, n, vals)
    vals = [
        sum(u.values[int(i)] for i in row) / Fraction(nb) for row in ids
    ]
    for _ in range(vg.level - n):
        vals = [
            sum(vals[i * k : (i + 1) * k]) / Fraction(k)
            for i in range(len(vals) // k)
        ]
    return CellFunction(vg.kind, n, vals)


def sg_cell_average_Pn(u: VertexFunction, n: int) -> CellFunction:
    if u.graph.kind is not FractalKind.SG:
        raise ValueError("expected gasket data")
    return cell_averages(u, n)


def mean_value_Mnm(cf: CellFunction, m: int) -> CellFunction:
    """Average cell values over depth-m subtrees: l(W_{n+m}) -> l(W_n)."""
    if m < 0 or m > cf.level:
        raise ValueError("bad coarsening depth")
    k = cf.kind.n_maps
    vals = list(cf.values)
    exact = not (
        isinstance(cf.values, np.ndarray)
        and np.issubdtype(cf.values.dtype, np.floating)
    )
    for _ in range(m):
        if exact:
            vals = [
                sum(vals[i * k : (i + 1) * k]) / Fraction(k)
                for i in range(len(vals) // k)
            ]
        else:
            vals = list(np.asarray(vals, dtype=float).reshape(-1, k).mean(axis=1))
    return CellFunction(cf.kind, cf.level - m, vals)


# ---------------------------------------------------------------------------
# cell-graph energies

def cellgraph_edge_energy(cf: CellFunction):
    """Unit-weight sum of squared differences over adjacent-cell pairs."""
    edges = cell_graph(cf.kind, cf.level).edges
    vals = cf.values
    if isinstance(vals, np.ndarray) and np.issubdtype(vals.dtype, np.floating):
        d = vals[edges[:, 0]] - vals[edges[:, 1]]
        return float(np.dot(d, d))
    total = Fraction(0)
    for i, j in edges.tolist():
        d = vals[i] - vals[j]
        total += d * d
    return total


def sg_graph_energy_An(u: VertexFunction, n: int):
    """Adjacent-cell energy of the level-n cell averages."""
    return cellgraph_edge_energy(sg_cell_average_Pn(u, n))


def sg_cellgraph_energy_Gn(cf: CellFunction):
    """(5/3)^n times the adjacent-cell energy of an arbitrary cell function."""
    if cf.kind is not FractalKind.SG:
        raise ValueError("expected gasket cell data")
    e = cellgraph_edge_energy(cf)
    if isinstance(e, Fraction):
        return Fraction(5, 3) ** cf.level * e
    return (5.0 / 3.0) ** cf.level * e


def sc_cell_energy_bn(u: VertexFunction, n: int, rho: float):
    """rho^n times the adjacent-cell energy of level-n cell averages."""
    if u.graph.kind is not FractalKind.SC:
        raise ValueError("expected carpet data")
    e = cellgraph_edge_energy(
        CellFunction(u.graph.kind, n, np.asarray(cell_averages(u, n).values, dtype=float))
    )
    return rho ** n * e


def restrict_to_level(u: VertexFunction, coarse: VertexGraph) -> VertexFunction:
    """Values of u on the coarser vertex set (a subset as point sets)."""
    fine = u.graph
    if coarse.kind is not fine.kind or coarse.scale > fine.scale:
        raise ValueError("restriction needs a coarser graph of the same kind")
    lift = fine.kind.base ** (fine.scale - coarse.scale)
    try:
        idx = fine.ids_of(coarse.xn * lift, coarse.yn * lift)
    except KeyError:
        raise ValueError("coarse vertex missing from the fine graph") from None
    if isinstance(u.values, np.ndarray):
        return VertexFunction(coarse, u.values[idx])
    return VertexFunction(coarse, [u.values[int(j)] for j in idx])
