"""Fractal families handled by this package.

Two self-similar sets are supported: the triangular gasket generated by 3
midpoint contractions of ratio 1/2, and the square carpet generated by the 8
boundary contractions of ratio 1/3.  All geometry downstream is exact integer
arithmetic; this module owns the per-family constants.

The two families differ only in their data, held in one `Lattice` record
each and read through `FractalKind`:

* a point at scale s has integer numerators (xn, yn) and sits at
  (xn / unit(s), yn * y_factor / unit(s)), with unit(s) = corner_mul * base**s;
  its squared norm is (xn**2 + y_weight * yn**2) / unit(s)**2;
* the level-n vertices live at scale n + scale_shift;
* digit d's fixed point is (ox[d], oy[d]) at scale scale_shift, and a level-n
  cell's corners are corner_mul * g + (ox, oy), where the cell offset g folds
  the cell's digits as g <- base * g + (ox, oy)[digit].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


@dataclass(frozen=True)
class Lattice:
    """The per-family constants; see the module docstring for their use."""

    n_maps: int
    base: int               # contraction denominator: level-n cells have side base**-n
    ox: tuple[int, ...]     # digit offsets, numerators at scale scale_shift
    oy: tuple[int, ...]
    corner_mul: int         # vertex-grid steps per cell-offset step
    scale_shift: int        # vertex scale minus level
    y_weight: int           # squared norm dx**2 + y_weight * dy**2
    y_factor: float         # float y = yn * y_factor / unit
    beta_star: float        # critical Besov exponent


# Carpet resistance growth factor: the numerical value.
SC_RHO_NUMERIC = 1.25148

# Default level guards: beyond these the graphs stop fitting desk budgets.
SG_LEVEL_CAP = 12
SC_LEVEL_CAP = 7


def sc_beta_star(rho: float) -> float:
    """Critical exponent log(8*rho)/log(3) for a given resistance factor."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    return math.log(8.0 * rho) / math.log(3.0)


# Critical Besov exponent of the gasket (closed form).
SG_BETA_STAR = math.log(5.0) / math.log(2.0)

_LATTICES = {
    # gasket corners p0=(0,0), p1=(1,0), p2=(1/2, sqrt(3)/2) in units of 1/2
    # on the lattice (1, sqrt(3))
    "sg": Lattice(
        n_maps=3,
        base=2,
        ox=(0, 2, 1),
        oy=(0, 0, 1),
        corner_mul=1,
        scale_shift=1,
        y_weight=3,
        y_factor=math.sqrt(3.0),
        beta_star=SG_BETA_STAR,
    ),
    # carpet boundary points in units of 1/2, counterclockwise from the
    # origin: corners and edge midpoints of the unit square
    "sc": Lattice(
        n_maps=8,
        base=3,
        ox=(0, 1, 2, 2, 2, 1, 0, 0),
        oy=(0, 0, 0, 1, 2, 2, 2, 1),
        corner_mul=2,
        scale_shift=0,
        y_weight=1,
        y_factor=1.0,
        beta_star=sc_beta_star(SC_RHO_NUMERIC),
    ),
}


class FractalKind(str, Enum):
    SG = "sg"
    SC = "sc"

    @property
    def lattice(self) -> Lattice:
        return _LATTICES[self.value]

    @property
    def n_maps(self) -> int:
        return self.lattice.n_maps

    @property
    def base(self) -> int:
        return self.lattice.base

    @property
    def boundary_size(self) -> int:
        # points of V_0 = images that glue cells together, one per digit
        return self.lattice.n_maps

    @property
    def alpha(self) -> float:
        """Hausdorff dimension log(n_maps)/log(base)."""
        return math.log(self.n_maps) / math.log(self.base)

    @property
    def beta_star(self) -> float:
        return self.lattice.beta_star

    def unit(self, scale: int) -> int:
        """Numerator of the unit side at a scale."""
        return self.lattice.corner_mul * self.lattice.base ** scale

    def sq_norm(self, dx, dy):
        """dx**2 + y_weight * dy**2 on numerators: ints, int or float arrays."""
        return dx * dx + self.lattice.y_weight * dy * dy

    def __str__(self) -> str:  # keeps CLI/report output tidy
        return self.value
