"""Exact geometry of the approximation graphs.

Vertices are stored with integer numerators at a fixed per-level scale:

* gasket, level n: point = (xn * 2**-(n+1), yn * sqrt(3) * 2**-(n+1)), so the
  bottom-left corner is (0, 0) and the bottom-right corner has xn = 2**(n+1);
* carpet, level n: point = (xn / (2*3**n), yn / (2*3**n)), so corners and edge
  midpoints of every cell are integer pairs.

Both read the family's record in `kinds`: the unit side kind.unit(scale),
the float y factor, the y weight of the metric, the vertex-scale shift and
the digit offsets.  Coordinates, distances, the contraction maps and the
builder are one code path for both families; only the cell graph branches
on the family.

Equality, hashing, and deduplication therefore never touch floats.  The
canonical (minimal-scale) form divides out the base while possible; vertex
identity and the carpet's cell adjacency are decided on the fixed-scale
numerators.

One builder, `_cells`, folds the digit tables into the integer offsets and
corner numerators of all level-n cells in word order; the vertex graph and
the carpet's cell graph read it.  Vertex ids follow first appearance in that
scan, and the vertex graph keeps the scan's (cells, boundary_size) id table
as `corners`: corner i of a cell is the fixed point of map i, so every
coarser level's corner ids are rows of that one table, and no run looks a
vertex up by its coordinates.  The gasket's cell graph reads no corners: its
level n is three copies of level n - 1 glued at three points, so it is built
from the cached level below.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .kinds import FractalKind
from .words import check_word, unpack_word


@dataclass(frozen=True)
class ExactPoint:
    """A vertex with exact integer coordinates; always in canonical form."""

    kind: FractalKind
    xn: int
    yn: int
    scale: int

    @staticmethod
    def make(kind: FractalKind, xn: int, yn: int, scale: int) -> "ExactPoint":
        b = kind.base
        while scale > 0 and xn % b == 0 and yn % b == 0:
            xn //= b
            yn //= b
            scale -= 1
        return ExactPoint(kind, xn, yn, scale)

    def lifted(self, scale: int) -> tuple[int, int]:
        """Numerators at a coarser-denominator representation (scale >= own)."""
        if scale < self.scale:
            raise ValueError("cannot lift to a smaller scale")
        f = self.kind.base ** (scale - self.scale)
        return self.xn * f, self.yn * f

    @property
    def x(self) -> Fraction:
        return Fraction(self.xn, self.kind.unit(self.scale))

    @property
    def y_coeff(self) -> Fraction:
        """y / y_factor: for the gasket y = y_coeff * sqrt(3), for the carpet
        y itself."""
        return Fraction(self.yn, self.kind.unit(self.scale))

    def as_floats(self) -> tuple[float, float]:
        s = 1.0 / self.kind.unit(self.scale)
        return self.xn * s, self.yn * self.kind.lattice.y_factor * s

    def sq_dist(self, other: "ExactPoint") -> Fraction:
        """Exact squared Euclidean distance."""
        if self.kind is not other.kind:
            raise ValueError("points belong to different fractals")
        m = max(self.scale, other.scale)
        ax, ay = self.lifted(m)
        bx, by = other.lifted(m)
        return Fraction(self.kind.sq_norm(ax - bx, ay - by), self.kind.unit(m) ** 2)


def base_point(kind: FractalKind, i: int) -> ExactPoint:
    """The i-th generator fixed-boundary point (image of itself at level 0)."""
    if not 0 <= i < kind.n_maps:
        raise ValueError("digit out of range")
    lat = kind.lattice
    return ExactPoint.make(kind, lat.ox[i], lat.oy[i], lat.scale_shift)


def apply_map(kind: FractalKind, digit: int, p: ExactPoint) -> ExactPoint:
    """One contraction step f_digit applied to an exact point."""
    if p.kind is not kind:
        raise ValueError("point kind mismatch")
    # f_i(x) = (x + (base-1) p_i)/base, p_i = o_i / unit(shift): at scale m+1
    # the numerators are x's at scale m plus o_i * unit(m - shift)
    lat = kind.lattice
    m = max(p.scale, lat.scale_shift)
    px, py = p.lifted(m)
    f = kind.unit(m - lat.scale_shift)
    return ExactPoint.make(kind, px + lat.ox[digit] * f, py + lat.oy[digit] * f, m + 1)


def point_of(kind: FractalKind, w) -> ExactPoint:
    """The vertex addressed by a word: the image of the last digit's base point
    under the maps of the preceding digits.  Level-(n+1) words address the
    vertices of the level-n graph."""
    digits = check_word(kind, w)
    if not digits:
        raise ValueError("need at least one digit")
    p = base_point(kind, digits[-1])
    for d in reversed(digits[:-1]):
        p = apply_map(kind, d, p)
    return p


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(gx, gy, cx, cy) for every level-n cell, in word order.

    (gx, gy) are the int64 cell offsets, folded one digit at a time as
    g <- base * g + table[digit], so a cell's index is its word's rank among
    the words over `digits` (default: all maps).  (cx, cy) are the
    (cells, boundary_size) corner numerators at vertex_scale(kind, n),
    corner_mul * g + (ox, oy): g + o on the gasket, 2 g + o on the carpet.
    """
    lat = kind.lattice
    ox, oy, corner_mul = lat.ox, lat.oy, lat.corner_mul
    digits = range(kind.n_maps) if digits is None else digits
    tx = np.array([ox[d] for d in digits], dtype=np.int64)
    ty = np.array([oy[d] for d in digits], dtype=np.int64)
    gx = gy = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        gx = (kind.base * gx[:, None] + tx).ravel()
        gy = (kind.base * gy[:, None] + ty).ravel()
    cx = corner_mul * gx[:, None] + np.array(ox, dtype=np.int64)
    cy = corner_mul * gy[:, None] + np.array(oy, dtype=np.int64)
    return gx, gy, cx, cy


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
    gx, gy, _, _ = _cells(kind, n)
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

    def point(self, i: int) -> ExactPoint:
        return ExactPoint.make(self.kind, int(self.xn[i]), int(self.yn[i]), self.scale)

    def address(self, i: int) -> tuple[int, ...]:
        """Smallest level-(n+1) word addressing vertex i: the flat position of
        its first appearance in `corners`.  A reference for tests; no run
        reads it."""
        if not 0 <= i < self.n_vertices:
            raise IndexError(f"no vertex {i} in a graph of {self.n_vertices}")
        first = int(np.argmax(self.corners.ravel() == i))
        return unpack_word(self.kind, first, self.level + 1)

    def ids_of(self, xn, yn) -> np.ndarray:
        """Ids of the vertices with numerators (xn, yn) at the graph's scale,
        in the shape of the input; raises KeyError if any is not a vertex.
        A reference for tests: it sorts the packed keys on each call."""
        full = self.kind.unit(self.scale)
        key = self.xn * (full + 1) + self.yn
        order = np.argsort(key)
        key = key[order]
        x = np.asarray(xn, dtype=np.int64)
        y = np.asarray(yn, dtype=np.int64)
        q = x * (full + 1) + y
        pos = np.minimum(np.searchsorted(key, q), len(key) - 1)
        hit = (key[pos] == q) & (x >= 0) & (x <= full) & (y >= 0) & (y <= full)
        if not hit.all():
            i = np.flatnonzero(~hit)[0]
            raise KeyError(
                f"not a level-{self.level} vertex: ({x.flat[i]}, {y.flat[i]})"
            )
        return order[pos]

    def id_of(self, p: ExactPoint) -> int:
        return int(self.ids_of(*p.lifted(self.scale)))

    def float_coords(self) -> tuple[np.ndarray, np.ndarray]:
        s = 1.0 / self.kind.unit(self.scale)
        return self.xn * s, self.yn * (self.kind.lattice.y_factor * s)


@lru_cache(maxsize=24)
def cached_vertex_graph(kind: FractalKind, n: int) -> VertexGraph:
    """The level-n vertex graph, shared through this cache."""
    return vertex_graph(kind, n)


def vertex_graph(kind: FractalKind, n: int) -> VertexGraph:
    """Build the level-n vertex graph from the corners of its cells.

    Corner numerators are deduplicated on the packed key x * (full + 1) + y
    (full = kind.unit(scale), the unit side at the graph's scale); the flat
    index cell * boundary_size + corner of a vertex's first appearance
    gives its numerators.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    # corner-sized temporaries are dropped as soon as they are used: at the
    # level caps each is about 130 MB and together they set the peak memory
    _, _, cx, cy = _cells(kind, n)
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
    return VertexGraph(
        kind=kind,
        level=n,
        xn=xn,
        yn=yn,
        edges=np.column_stack([edges, mult]),
        corners=corners,
    )


def canonical_address(kind: FractalKind, p: ExactPoint, n: int) -> tuple[int, ...]:
    """Lexicographically smallest level-(n+1) word addressing vertex p of the
    level-n graph.  Raises KeyError if p is not a level-n vertex."""
    vg = cached_vertex_graph(kind, n)
    return vg.address(vg.id_of(p))


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
