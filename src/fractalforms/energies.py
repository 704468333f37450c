"""Discrete energies, cell averages, and the scaling identities between them.

All level-n sums run over within-cell vertex pairs counted per cell (a pair on
a shared carpet side therefore enters once for each of the two cells).
A level-n cell's corner ids are rows of the graph's one corner table
(`VertexGraph.corners`), picked by index, so the level-n corners of a finer
graph are read from its own table and no coarser graph is needed.

Float and exact data run the same vectorised body.  Exact data is held as
integer numerators over one shared denominator (`RationalArray`); the exact
test functions come as such arrays from the integer folds in `harmonic`, with
no `Fraction` per vertex.  A sum of squared differences is then an integer
over den^2, a level-n cell average an integer over den * boundary_size *
n_maps^m, and the one `Fraction` is built at the end, from Python ints.
Numerators are int64 while a bound shows that no step can wrap and Python
ints in an object array past it: each exact step bounds its int64 results by
the largest |numerator| before it runs (2 max for a difference, row length
times max for a row sum, length times max^2 for a dot product) and promotes
its input to Python ints where the bound reaches 2^63.  Both dtypes run the
same numpy expressions, and nothing but these bounds picks the dtype.
A float ndarray is its own numerators; its averages divide level by level,
as `np.mean` does.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .geometry import SC_PAIRS, SG_PAIRS, VertexGraph, cell_graph
from .kinds import FractalKind


@dataclass(frozen=True, eq=False)
class RationalArray(Sequence):
    """Exact rationals num[i] / den over one shared denominator.

    `num` is an int64 array or an object array of Python ints; items read
    back as Fractions of Python ints either way.
    """

    num: np.ndarray
    den: int

    def __post_init__(self) -> None:
        if self.num.dtype not in (np.int64, object):  # the two the bounds know
            raise TypeError(f"numerators must be int64 or Python ints, not {self.num.dtype}")

    @classmethod
    def of(cls, values: Iterable) -> "RationalArray":
        """Ints, Fractions or floats (taken exactly) over their least common
        denominator, as Python ints."""
        fr = [Fraction(v) for v in values]
        den = math.lcm(*(int(f.denominator) for f in fr))
        return cls(
            np.array([int(f.numerator) * (den // int(f.denominator)) for f in fr], dtype=object),
            den,
        )

    def __len__(self) -> int:
        return len(self.num)

    def __getitem__(self, i) -> Fraction:
        return Fraction(int(self.num[i]), self.den)  # an np.int64 would wrap in it


def _is_float(values) -> bool:
    """Float ndarrays are float data; every other sequence holds rationals."""
    return isinstance(values, np.ndarray) and np.issubdtype(values.dtype, np.floating)


def _numerators(values) -> tuple[np.ndarray, Optional[int]]:
    """(numerators, shared denominator); float data is its own numerators
    over None."""
    if _is_float(values):
        return values, None
    exact = values if isinstance(values, RationalArray) else RationalArray.of(values)
    return exact.num, exact.den


def _from_numerators(num: np.ndarray, den: Optional[int]):
    return num if den is None else RationalArray(num, den)


# int64 results below 2^63 in magnitude cannot wrap; integers below 2^53 in
# magnitude are exact as float64
INT64_LIMIT = 2 ** 63
FLOAT_EXACT = 2 ** 53


def _max_abs(num: np.ndarray) -> int:
    """max |num| of int64 numerators as a Python int; 0 for Python ints,
    which no step can wrap."""
    if num.dtype != np.int64 or num.size == 0:
        return 0
    return max(int(num.max()), -int(num.min()))


def _int64_while(num: np.ndarray, bound: int) -> np.ndarray:
    """num as it is while `bound`, a bound on every int64 result the next
    step computes from it, is below 2^63; past that, as Python ints."""
    return num if bound < INT64_LIMIT else num.astype(object)


def float_values(values) -> np.ndarray:
    """Float copy of a value sequence; exact values are rounded once each.

    An int64 numerator and a denominator below 2^53 are both exact as
    floats, so float division rounds their quotient once, as Python's int /
    int does; any other exact value divides as Python ints."""
    num, den = _numerators(values)
    if den is None:
        return num
    if num.dtype == np.int64 and den < FLOAT_EXACT and _max_abs(num) < FLOAT_EXACT:
        return num / den
    return (num.astype(object) / den).astype(float)


def exact_float(x) -> float:
    """float(x) of a nonnegative exact value, or inf where x is too large for
    a float, so that a report holding it is refused rather than crashing."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _mean(rows: np.ndarray, den: Optional[int]) -> tuple[np.ndarray, Optional[int]]:
    """Row means of a 2-d numerator array: floats divide now, exact sums
    carry the row length in the denominator."""
    if den is None:
        return rows.sum(axis=1) / rows.shape[1], None
    total = _int64_while(rows, rows.shape[1] * _max_abs(rows)).sum(axis=1)
    return total, den * rows.shape[1]


def _square_sum(
    num: np.ndarray, den: Optional[int], ends: Iterable[tuple[np.ndarray, np.ndarray]]
):
    """Sum of (num[i] - num[j])^2 over the index arrays (i, j) of `ends`,
    one dot product per pair added in order: a float for float data,
    otherwise the exact Fraction over den^2."""
    if den is None:
        return float(sum(np.dot(d, d) for d in (num[i] - num[j] for i, j in ends)))
    num = _int64_while(num, 2 * _max_abs(num))
    total = 0
    for i, j in ends:
        d = num[i] - num[j]
        d = _int64_while(d, len(d) * _max_abs(d) ** 2)
        total += int(np.dot(d, d))
    return Fraction(total, den * den)


@dataclass(eq=False)
class VertexFunction:
    """Values attached to the vertices of a VertexGraph.

    `values` may be a float ndarray or a sequence of rationals (a
    `RationalArray`, or a list of Fractions); the energy routines preserve
    exactness for the latter.
    """

    graph: VertexGraph
    values: Sequence

    def __post_init__(self) -> None:
        if len(self.values) != self.graph.n_vertices:
            raise ValueError("value count does not match vertex count")

    @property
    def is_exact(self) -> bool:
        return not _is_float(self.values)

    def as_float_array(self) -> np.ndarray:
        return float_values(self.values)


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

    Requires n <= vg.level.  Corner i of the level-n cell w is the fixed point
    of map i, so it is corner i of the graph's cell w i^k (k = vg.level - n),
    whose rank is w m^k + i (m^k - 1)/(m - 1) for m maps.
    """
    if not 0 <= n <= vg.level:
        raise ValueError(f"level {n} outside graph range 0..{vg.level}")
    m, corner = vg.kind.n_maps, np.arange(vg.kind.boundary_size)
    mk = m ** (vg.level - n)
    rows = np.arange(m ** n)[:, None] * mk + corner * ((mk - 1) // (m - 1))
    return vg.corners[rows, corner]


def _pair_energy(u: VertexFunction, n: int, pairs) -> object:
    ids = corner_ids_at_level(u.graph, n)
    return _square_sum(*_numerators(u.values), ((ids[:, a], ids[:, b]) for a, b in pairs))


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

def corner_means(u: VertexFunction, n: int) -> CellFunction:
    """Mean of each level-n cell's corner values, the corners read from u's
    own graph: the level-n cell averages of u restricted to level n."""
    num, den = _numerators(u.values)
    return CellFunction(
        u.graph.kind, n, _from_numerators(*_mean(num[corner_ids_at_level(u.graph, n)], den))
    )


def cell_averages(u: VertexFunction, n: int) -> CellFunction:
    """Level-n cell averages by recursive corner means.

    Corner means at the graph's own level are averaged upward in blocks of
    k = n_maps, so coarse averages are exactly the mean-value coarsening of
    fine ones.  For harmonic gasket data the result is the exact self-similar
    cell average at every level; otherwise the quadrature error decays like
    the oscillation of u at the deepest available scale.
    """
    top = u.graph.level
    if not 0 <= n <= top:
        raise ValueError("level out of range")
    return mean_value_Mnm(corner_means(u, top), top - n)


def sg_cell_average_Pn(u: VertexFunction, n: int) -> CellFunction:
    if u.graph.kind is not FractalKind.SG:
        raise ValueError("expected gasket data")
    return cell_averages(u, n)


def mean_value_Mnm(cf: CellFunction, m: int) -> CellFunction:
    """Average cell values over depth-m subtrees: l(W_{n+m}) -> l(W_n)."""
    if m < 0 or m > cf.level:
        raise ValueError("bad coarsening depth")
    num, den = _numerators(cf.values)
    for _ in range(m):
        num, den = _mean(num.reshape(-1, cf.kind.n_maps), den)
    return CellFunction(cf.kind, cf.level - m, _from_numerators(num, den))


# ---------------------------------------------------------------------------
# cell-graph energies

def cellgraph_edge_energy(cf: CellFunction):
    """Unit-weight sum of squared differences over adjacent-cell pairs."""
    edges = cell_graph(cf.kind, cf.level).edges
    return _square_sum(*_numerators(cf.values), [(edges[:, 0], edges[:, 1])])


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
    """rho^n times the adjacent-cell energy of the level-n cell averages of u
    restricted to level n, as floats: its level-n corner means, read from
    u's own graph."""
    if u.graph.kind is not FractalKind.SC:
        raise ValueError("expected carpet data")
    means = float_values(corner_means(u, n).values)
    e = cellgraph_edge_energy(CellFunction(u.graph.kind, n, means))
    return rho ** n * e


def restrict_to_level(u: VertexFunction, coarse: VertexGraph) -> VertexFunction:
    """Values of u on the coarser vertex set (a subset as point sets): each
    coarse cell corner reads the same corner in the fine graph."""
    fine = u.graph
    if coarse.kind is not fine.kind or coarse.level > fine.level:
        raise ValueError("restriction needs a coarser graph of the same kind")
    idx = np.empty(coarse.n_vertices, dtype=fine.corners.dtype)
    idx[coarse.corners] = corner_ids_at_level(fine, coarse.level)
    num, den = _numerators(u.values)
    return VertexFunction(coarse, _from_numerators(num[idx], den))
