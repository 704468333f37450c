"""Exact geometry of the approximation graphs.

Vertices are stored with integer numerators at a fixed per-level scale:

* gasket, level n: point = (xn * 2**-(n+1), yn * sqrt(3) * 2**-(n+1)), so the
  bottom-left corner is (0, 0) and the bottom-right corner has xn = 2**(n+1);
* carpet, level n: point = (xn / (2*3**n), yn / (2*3**n)), so corners and edge
  midpoints of every cell are integer pairs.

Both read the family's record in `kinds`: the unit side kind.unit(scale),
the float y factor, the y weight of the metric, the vertex-scale shift and
the digit offsets.  Float coordinates and distances and the builder are one
code path for both families; only the cell graph branches on the family.

These integer numerators at the graph's fixed scale are the one form a
vertex is kept in: vertex identity, deduplication and the carpet's cell
adjacency are decided on them, never on floats.

One builder, `_cells`, folds the digit tables into the integer offsets of
all level-n cells in word order, and `_corners` gives their corner
numerators; the vertex graph and the carpet's cell graph read them.  Vertex
ids follow first appearance in that scan, and the vertex graph keeps the
scan's (cells, boundary_size) id table as `corners`: corner i of a cell is
the fixed point of map i, so every coarser level's corner ids are rows of
that one table, and no run looks a vertex up by its coordinates.  The same
dedup and edge pairing, run on a subset of the carpet cells
(`sc_region`), give a region's graph alone: the quadrant x, y <= 1/2
(`sc_quadrant`), which the plate resistance is solved on, and the
cells that meet a Harnack ball.  The gasket's cell graph reads no corners: its
level n is three copies of level n - 1 glued at three points, so it is built
from the cached level below.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .kinds import FractalKind


# ---------------------------------------------------------------------------
# the builder: cell offsets and corner numerators of every level-n cell

SG_PAIRS = ((0, 1), (0, 2), (1, 2))
SC_PAIRS = tuple((i, (i + 1) % 8) for i in range(8))


def vertex_scale(kind: FractalKind, level: int) -> int:
    return level + kind.lattice.scale_shift


def float_sq_dist(kind: FractalKind, dx, dy, scale: int) -> np.ndarray:
    """Float squared lengths of integer numerator differences at a scale."""
    return kind.sq_norm(dx.astype(float), dy.astype(float)) / float(kind.unit(scale) ** 2)


def _cells(
    kind: FractalKind, n: int, digits: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(gx, gy), the int64 offsets of every level-n cell, in word order.

    They are folded one digit at a time as g <- base * g + table[digit], so a
    cell's index is its word's rank among the words over `digits` (default:
    all maps).
    """
    lat = kind.lattice
    digits = range(kind.n_maps) if digits is None else digits
    tx = np.array([lat.ox[d] for d in digits], dtype=np.int64)
    ty = np.array([lat.oy[d] for d in digits], dtype=np.int64)
    gx = gy = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        gx = (kind.base * gx[:, None] + tx).ravel()
        gy = (kind.base * gy[:, None] + ty).ravel()
    return gx, gy


def _corners(kind: FractalKind, gx: np.ndarray, gy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cx, cy), the (cells, boundary_size) corner numerators of the cells at
    offsets (gx, gy), at the vertex scale of their level: corner_mul * g +
    (ox, oy), which is g + o on the gasket and 2 g + o on the carpet."""
    lat = kind.lattice
    cx = lat.corner_mul * gx[:, None] + np.array(lat.ox, dtype=np.int64)
    cy = lat.corner_mul * gy[:, None] + np.array(lat.oy, dtype=np.int64)
    return cx, cy


def _unique_pairs(a: np.ndarray, b: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct unordered id pairs as (m, 2) int64 rows (min, max) sorted by
    (min, max), and how often each occurs.  Ids are packed as lo * size + hi
    in int64, whatever the input dtype: in int32 it wraps at carpet level 5."""
    lo, hi = np.minimum(a, b, dtype=np.int64), np.maximum(a, b, dtype=np.int64)
    packed, mult = np.unique(lo * size + hi, return_counts=True)
    return np.stack([packed // size, packed % size], axis=1), mult


# ---------------------------------------------------------------------------
# cell graph

@dataclass(eq=False, frozen=True)
class CellGraph:
    """Level-n cells with intersection adjacency.

    A cell's id is the lexicographic rank of its word.  `edges` holds the
    (m, 2) int64 id pairs i < j sorted by (i, j).  On the gasket
    `second_type[e]` tells that the two cells' own addressed vertices
    coincide (type II; type I otherwise); on the carpet it is None.  The
    arrays are shared through the cache of cell_graph and read-only.
    """

    kind: FractalKind
    level: int
    edges: np.ndarray
    second_type: np.ndarray | None = None

    @property
    def n_cells(self) -> int:
        return self.kind.n_maps ** self.level


@lru_cache(maxsize=32)
def cell_graph(kind: FractalKind, n: int) -> CellGraph:
    """The level-n cell graph, shared through this cache.

    The gasket's level n >= 2 is three copies of level n - 1 glued at three
    points (its self-similarity), so it is built from the cached level
    below, with no corner arrays and no sort: copy i is the level below
    shifted by i * 3^(n-1), and each pair i < j adds one contact edge
    between the cells i j^(n-1) and j i^(n-1).  Both cells' addressed
    vertices are the contact point f_i(p_j) = f_j(p_i), so a contact edge
    is type II; the three edges of level 1 join distinct corners and are
    type I.  A contact edge goes after copy i's rows that start at or
    before its first cell, which keeps the rows sorted by (i, j).  The
    carpet reads `_cells`.
    """
    if n < 1:
        raise ValueError("cell graph needs level >= 1")
    if kind is FractalKind.SG:
        edges, second = _sg_cell_edges(n)
        edges.flags.writeable = False
        second.flags.writeable = False
        return CellGraph(kind, n, edges, second)
    # same-size axis-aligned squares: 1-dimensional contact means the grid
    # coordinates differ by one step in exactly one axis.  The grid of cell
    # ids has one row and column of padding (-1) past the last cell.
    gx, gy = _cells(kind, n)
    cells = np.arange(len(gx), dtype=np.int64)
    grid = np.full((3 ** n + 1, 3 ** n + 1), -1, dtype=np.int64)
    grid[gx, gy] = cells
    a, b = [], []
    for dx, dy in ((1, 0), (0, 1)):
        nb = grid[gx + dx, gy + dy]
        hit = nb >= 0
        a.append(cells[hit])
        b.append(nb[hit])
    edges, _ = _unique_pairs(np.concatenate(a), np.concatenate(b), len(cells))
    edges.flags.writeable = False
    return CellGraph(kind, n, edges, None)


def _sg_cell_edges(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges and type-II flags of the gasket's level-n cell graph, written
    straight into the output arrays from the cached level below."""
    if n == 1:
        return np.array(SG_PAIRS, dtype=np.int64), np.zeros(3, dtype=bool)
    below = cell_graph(FractalKind.SG, n - 1)
    m = 3 ** (n - 1)
    firsts = below.edges[:, 0]
    edges = np.empty((3 * len(firsts) + 3, 2), dtype=np.int64)
    second = np.empty(len(edges), dtype=bool)
    at = 0

    def copy(i, start, stop):
        nonlocal at
        end = at + stop - start
        np.add(below.edges[start:stop], i * m, out=edges[at:end])
        second[at:end] = below.second_type[start:stop]
        at = end

    for i in range(3):
        start = 0
        for j in range(i + 1, 3):
            # the cells i j^(n-1) and j i^(n-1); j^(n-1) has rank j (m-1)/2
            a, b = i * m + j * (m - 1) // 2, j * m + i * (m - 1) // 2
            stop = int(np.searchsorted(firsts, a - i * m, side="right"))
            copy(i, start, stop)
            edges[at] = a, b
            second[at] = True
            at += 1
            start = stop
        copy(i, start, len(firsts))
    return edges, second


# ---------------------------------------------------------------------------
# vertex graph

@dataclass(eq=False, frozen=True)
class VertexGraph:
    """Deduplicated level-n vertices with within-cell pair edges.

    Vertex ids follow first appearance while scanning the cells in word order
    and each cell's corners in boundary order, so `corners[w, i]` is the id
    of corner i of the cell of rank w, and the flat position w *
    boundary_size + i of a vertex's first appearance is its lexicographically
    smallest level-(n+1) word, radix-packed.  Edge multiplicity counts how
    many cells contribute the pair: 1 on the gasket, 1 or 2 on the carpet.
    The four arrays are read-only.
    """

    kind: FractalKind
    level: int
    xn: np.ndarray            # int64 numerators at vertex_scale(kind, level)
    yn: np.ndarray
    edges: np.ndarray         # (m, 3) int64 rows (i, j, mult), i < j
    corners: np.ndarray       # (cells, boundary_size) int32 ids, cells in word order

    def __post_init__(self) -> None:
        for a in (self.xn, self.yn, self.edges, self.corners):
            a.flags.writeable = False

    @property
    def n_vertices(self) -> int:
        return len(self.xn)

    @property
    def scale(self) -> int:
        return vertex_scale(self.kind, self.level)

    def float_coords(self) -> tuple[np.ndarray, np.ndarray]:
        s = 1.0 / self.kind.unit(self.scale)
        return self.xn * s, self.yn * (self.kind.lattice.y_factor * s)


@lru_cache(maxsize=24)
def cached_vertex_graph(kind: FractalKind, n: int) -> VertexGraph:
    """The level-n vertex graph, shared through this cache."""
    return vertex_graph(kind, n)


def vertex_graph(kind: FractalKind, n: int) -> VertexGraph:
    """Build the level-n vertex graph from the corners of its cells."""
    if n < 0:
        raise ValueError("level must be >= 0")
    return VertexGraph(kind, n, *_corner_graph(kind, n, *_cells(kind, n)))


def sc_region(
    n: int, meets: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(xn, yn, edges) of the level-n carpet cells at offsets (gx, gy) where
    meets(gx, gy) holds, arrays as in VertexGraph; cell (gx, gy) spans the
    numerators 2 gx .. 2 gx + 2 on each axis.

    The cells are scanned in word order, so a vertex whose every cell is
    kept has its first appearance, and so its place among such vertices,
    its neighbors and its edge multiplicities, as in the whole graph.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    gx, gy = _cells(FractalKind.SC, n)
    keep = meets(gx, gy)
    return _corner_graph(FractalKind.SC, n, gx[keep], gy[keep])[:3]


def sc_quadrant(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(xn, yn, edges) of the closed quadrant x, y <= 1/2 of the level-n
    carpet graph, arrays as in VertexGraph, built from the cells that meet it.

    A vertex with x <= 1/2 lies only in cells with 2 gx <= 3^n, the
    numerator of x = 1/2, and so for y: every cell holding a quadrant vertex
    is built (`sc_region`), and the quadrant vertices appear first in the
    order they do in the full scan.  The vertices past x or y = 1/2 of the
    cells across the midlines are dropped with their edges.  Ids are
    renumbered monotonically, so the arrays equal the full graph's
    restricted to the quadrant, edge order and multiplicities included.
    """
    m = FractalKind.SC.unit(vertex_scale(FractalKind.SC, n)) // 2
    xn, yn, edges = sc_region(n, lambda gx, gy: (2 * gx <= m) & (2 * gy <= m))
    inside = (xn <= m) & (yn <= m)
    local = np.cumsum(inside) - 1  # quadrant id of each vertex in it
    edges = edges[inside[edges[:, 0]] & inside[edges[:, 1]]]
    edges[:, :2] = local[edges[:, :2]]
    return xn[inside], yn[inside], edges


def _corner_graph(
    kind: FractalKind, n: int, gx: np.ndarray, gy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(xn, yn, edges, corners) of the level-n cells at offsets (gx, gy),
    as in VertexGraph.

    Corner numerators are deduplicated on the packed key x * (full + 1) + y
    (full = kind.unit(scale), the unit side at the graph's scale); the flat
    index cell * boundary_size + corner of a vertex's first appearance
    gives its numerators.
    """
    # corner-sized temporaries are dropped as soon as they are used: at the
    # level caps each is about 130 MB and together they set the peak memory
    cx, cy = _corners(kind, gx, gy)
    full = kind.unit(vertex_scale(kind, n))
    key = cx.ravel()
    key *= full + 1
    key += cy.ravel()
    del cx, cy
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)  # ids in order of first appearance
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order))
    xn, yn = np.divmod(key[first[order]], full + 1)
    del key, first, order
    corners = rank[inverse].reshape(-1, kind.boundary_size)
    del inverse, rank
    pairs = SG_PAIRS if kind is FractalKind.SG else SC_PAIRS
    ends = np.array(pairs)
    edges, mult = _unique_pairs(
        corners[:, ends[:, 0]].ravel(), corners[:, ends[:, 1]].ravel(), len(xn)
    )
    return xn, yn, np.column_stack([edges, mult]), corners


# ---------------------------------------------------------------------------
# boundary selectors

def require_kind(vg: VertexGraph, kind: FractalKind) -> None:
    """Raise ValueError unless the graph belongs to `kind`."""
    if vg.kind is not kind:
        raise ValueError(f"expected a {kind.value} vertex graph, got {vg.kind.value}")


def sg_corner_ids(vg: VertexGraph) -> tuple[int, int, int]:
    """Ids of the three outer corners (0,0), (1,0), (1/2, sqrt(3)/2): corner i
    of the cell i^n, whose rank is i (3^n - 1)/2."""
    require_kind(vg, FractalKind.SG)
    top = (3 ** vg.level - 1) // 2
    return tuple(int(vg.corners[i * top, i]) for i in range(3))
