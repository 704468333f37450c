"""Exact-point and exact-value references the tests compare the package
against.

No run reads any of these.  A vertex here is an `ExactPoint`: integer
numerators over the unit side at its own scale, in canonical (minimal-scale)
form, built from an address word by composing the contraction maps one digit
at a time.  The package keeps only the fixed-scale numerators of a
`VertexGraph` and reads vertex ids from its corner table; `point`, `address`,
`ids_of` and `id_of` read a graph's arrays the slow, independent way.
The profile f is evaluated here by its self-similarity, one `Fraction` per
abscissa, against the package's integer fold.  The walk's step is taken here
by comparing each uniform with every threshold of its row, against the
package's guide table.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from fractalforms.energies import RationalArray, VertexFunction
from fractalforms.geometry import VertexGraph, cached_vertex_graph
from fractalforms.kinds import FractalKind
from fractalforms.words import as_digits


def check_word(kind: FractalKind, w) -> tuple[int, ...]:
    digits = as_digits(w)
    k = kind.n_maps
    for d in digits:
        if not 0 <= d < k:
            raise ValueError(f"digit {d} out of range for {kind}")
    return digits


def unpack_word(kind: FractalKind, packed: int, level: int) -> tuple[int, ...]:
    k = kind.n_maps
    out = []
    for _ in range(level):
        packed, d = divmod(packed, k)
        out.append(d)
    return tuple(reversed(out))


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
# a vertex graph read through exact points and coordinates

def point(vg: VertexGraph, i: int) -> ExactPoint:
    return ExactPoint.make(vg.kind, int(vg.xn[i]), int(vg.yn[i]), vg.scale)


def address(vg: VertexGraph, i: int) -> tuple[int, ...]:
    """Smallest level-(n+1) word addressing vertex i: the flat position of
    its first appearance in `corners`."""
    if not 0 <= i < vg.n_vertices:
        raise IndexError(f"no vertex {i} in a graph of {vg.n_vertices}")
    first = int(np.argmax(vg.corners.ravel() == i))
    return unpack_word(vg.kind, first, vg.level + 1)


def ids_of(vg: VertexGraph, xn, yn) -> np.ndarray:
    """Ids of the vertices with numerators (xn, yn) at the graph's scale,
    in the shape of the input; raises KeyError if any is not a vertex.  It
    sorts the packed keys on each call."""
    full = vg.kind.unit(vg.scale)
    key = vg.xn * (full + 1) + vg.yn
    order = np.argsort(key)
    key = key[order]
    x = np.asarray(xn, dtype=np.int64)
    y = np.asarray(yn, dtype=np.int64)
    q = x * (full + 1) + y
    pos = np.minimum(np.searchsorted(key, q), len(key) - 1)
    hit = (key[pos] == q) & (x >= 0) & (x <= full) & (y >= 0) & (y <= full)
    if not hit.all():
        i = np.flatnonzero(~hit)[0]
        raise KeyError(f"not a level-{vg.level} vertex: ({x.flat[i]}, {y.flat[i]})")
    return order[pos]


def id_of(vg: VertexGraph, p: ExactPoint) -> int:
    return int(ids_of(vg, *p.lifted(vg.scale)))


def canonical_address(kind: FractalKind, p: ExactPoint, n: int) -> tuple[int, ...]:
    """Lexicographically smallest level-(n+1) word addressing vertex p of the
    level-n graph.  Raises KeyError if p is not a level-n vertex."""
    vg = cached_vertex_graph(kind, n)
    return address(vg, id_of(vg, p))


# ---------------------------------------------------------------------------
# the profile f and functions of the abscissa alone

_F_OFFSET = (Fraction(0), Fraction(2, 7), Fraction(5, 7))
_F_SCALE = (Fraction(2, 7), Fraction(3, 7), Fraction(2, 7))


def _f(x: Fraction) -> Fraction:
    if x in (0, Fraction(1, 2), 1):  # f fixes 0, 1/2 and 1
        return x
    d = int(3 * x)  # x in (0, 1), so d in {0, 1, 2}
    return _F_OFFSET[d] + _F_SCALE[d] * _f(3 * x - d)


def x_profile_value(t) -> Fraction:
    """f at any vertex abscissa of a carpet graph: i/3^n (triadic) or
    (2j+1)/(2*3^n) (half-triadic).  f fixes 0 and 1 and scales by 2/7,
    3/7, 2/7 on the three thirds, so each step of the recursion takes one
    triadic digit off the abscissa until it reaches 0, 1/2 or 1."""
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError(f"{t} outside [0,1]")
    den = t.denominator
    while den % 3 == 0:
        den //= 3
    if den not in (1, 2):
        raise ValueError(f"{t} is not a carpet vertex abscissa")
    return _f(t)


def from_x_fraction(graph: VertexGraph, fn) -> VertexFunction:
    """Exact values from the x coordinate alone (fn maps Fraction->value),
    evaluated once per distinct abscissa."""
    den = graph.kind.unit(graph.scale)
    xs, inverse = np.unique(graph.xn, return_inverse=True)
    at_x = RationalArray.of(fn(Fraction(int(x), den)) for x in xs)
    return VertexFunction(graph, RationalArray(at_x.num[inverse], at_x.den))


def sg_harmonic_corner_numerators(boundary, n: int) -> tuple[np.ndarray, int]:
    """Corner numerators (x, y, z) of every level-n gasket cell, cells in
    word order, and their shared denominator: the midpoint rule applied to
    Python ints in object arrays, one level at a time.  Cell d of a cell
    with corner values (x, y, z) keeps its corner d and takes the two
    midpoints beside it, (2x+2y+z)/5, (2x+y+2z)/5 or (x+2y+2z)/5."""
    start = RationalArray.of(boundary)
    x, y, z = (np.array([int(v)], dtype=object) for v in start.num)
    for _ in range(n):
        m01, m02, m12 = 2 * x + 2 * y + z, 2 * x + y + 2 * z, x + 2 * y + 2 * z
        x, y, z = (
            np.stack(children, axis=1).ravel()
            for children in ((5 * x, m01, m02), (m01, 5 * y, m12), (m02, m12, 5 * z))
        )
    return np.stack([x, y, z], axis=1), start.den * 5 ** n


def walk_step(tables, states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Next vertex of each path of a `WalkTables` walk: the column is the
    count of the row's thresholds (its cumulative probabilities but the
    last, 1.0) below the path's uniform."""
    c = tables.cls[states]
    flat = states * tables.nbr.shape[1]
    for col in tables.cum[:, :-1].T:
        flat += col[c] < u
    return tables.nbr.ravel()[flat]
