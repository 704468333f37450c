"""Pins the per-family lattice conventions bit for bit.

Coordinates, exact and float distances, the Besov weights, the critical
exponents, the Monte Carlo double integral on every input type and the
Hölder quotient all read the per-family constants in `kinds`; the digest
below is a sha256 of their outputs, recorded before those constants were
gathered into one table and recorded again, on that same code, without the
Monte Carlo call on the harmonic-family input that `besov` no longer takes.
It was recorded a third time when the carpet plate came to be solved on one
quadrant, which moves the good function's values in their last bits.
"""
import hashlib
import warnings

import numpy as np

from fractalforms.besov import besov_double_integral_mc, besov_weight
from fractalforms.config import RunConfig
from fractalforms.geometry import vertex_graph
from fractalforms.harmonic import holder_constant, sc_good_function, sg_harmonic
from fractalforms.kinds import FractalKind
from oracles import point

SG = FractalKind.SG
SC = FractalKind.SC

LATTICE_DIGEST = "3818b8f31134e2bb8614c7c618f0afa4e0b4d2cef74bdf08cd98ef090ca201d8"


def _lattice_outputs() -> list[str]:
    out = []
    for kind in (SG, SC):
        for n in range(4):
            vg = vertex_graph(kind, n)
            x, y = vg.float_coords()
            out.append(x.tobytes().hex() + y.tobytes().hex())
            last = point(vg, vg.n_vertices - 1)
            for i in range(vg.n_vertices):
                p = point(vg, i)
                fx, fy = p.as_floats()
                out.append(
                    f"{p.xn} {p.yn} {p.scale} {p.x} {p.y_coeff} "
                    f"{fx.hex()} {fy.hex()} {p.sq_dist(last)}"
                )
        out.append(RunConfig(kind=kind.value).beta_star().hex())
        for beta in (1.5, 1.9, 2.0, 2.25, 2.5):
            out.extend(besov_weight(kind, beta, n).hex() for n in range(1, 9))

    def mc(u, betas, **kw):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            pairs = besov_double_integral_mc(u, betas, samples=2400, seed=5, **kw)
        out.extend(f"{e.hex()} {s.hex()}" for e, s in pairs)

    good = sc_good_function(3)
    mc(sg_harmonic(0, 1, 0, 4), [1.9, 2.1])
    mc(good.fn, [1.9, 2.05])
    mc(good.fn, [1.9, 2.05], depth=2)
    for kind in (SG, SC):
        mc(lambda px, py: px * px + 0.5 * py, [1.9, 2.0], kind=kind)
        mc(lambda px, py: np.sin(3.0 * px) * py, [1.95], kind=kind, depth=5)
    out.append(holder_constant(sg_harmonic(0, 1, 0, 3), 3, 2.0, n_pairs=500, seed=3).hex())
    out.append(holder_constant(good.fn, 3, 2.0, n_pairs=500, seed=3).hex())
    return out


def test_lattice_outputs_are_pinned():
    digest = hashlib.sha256("\n".join(_lattice_outputs()).encode()).hexdigest()
    assert digest == LATTICE_DIGEST
