from fractions import Fraction

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from fractalforms.kinds import FractalKind
from fractalforms.geometry import (
    SC_PAIRS,
    SG_PAIRS,
    _cells,
    _corners,
    cached_vertex_graph,
    cell_graph,
    sg_corner_ids,
    vertex_graph,
    vertex_scale,
)
from fractalforms.besov import _bottom_edge_ids
from fractalforms.energies import (
    CellFunction,
    VertexFunction,
    cell_averages,
    cellgraph_edge_energy,
    corner_ids_at_level,
    kigami_energy_En,
    mean_value_Mnm,
    restrict_to_level,
    sc_cell_energy_bn,
    sc_pointwise_energy_Dn,
    sc_scaled_energy_an,
    sg_cell_average_Pn,
    sg_cellgraph_energy_Gn,
    sg_graph_energy_An,
    sg_pointwise_energy_Bn,
)
from fractalforms.harmonic import (
    CANTOR_DIGITS,
    sg_harmonic,
    strip_energy_checks,
    x_profile_value,
)

SG = FractalKind.SG
SC = FractalKind.SC


def _harmonic(x0, x1, x2, n):
    return sg_harmonic(Fraction(x0), Fraction(x1), Fraction(x2), n)


def test_sg_energies_closed_forms_exact():
    # boundary data (0,1,0): quadratic boundary energy S = 2
    S = Fraction(2)
    for n in range(1, 5):
        u = _harmonic(0, 1, 0, n)
        assert sg_pointwise_energy_Bn(u, n) == Fraction(3, 5) ** n * S
        assert kigami_energy_En(u, n) == S
        an = Fraction(2, 3) * (Fraction(3, 5) ** n - Fraction(3, 5) ** (2 * n)) * S
        assert sg_graph_energy_An(u, n) == an


def test_kigami_energy_constant_in_level():
    u = _harmonic(1, 0, 2, 4)
    vals = [kigami_energy_En(restrict_to_level(u, cached_vertex_graph(SG, n)), n) for n in range(1, 4)]
    vals.append(kigami_energy_En(u, 4))
    assert len(set(vals)) == 1


def test_energy_of_constant_is_zero():
    vg = cached_vertex_graph(SG, 3)
    u = VertexFunction(vg, np.ones(vg.n_vertices))
    assert sg_pointwise_energy_Bn(u, 3) == 0.0
    assert kigami_energy_En(u, 3) == 0.0
    wg = cached_vertex_graph(SC, 2)
    v = VertexFunction(wg, np.full(wg.n_vertices, 3.5))
    assert sc_pointwise_energy_Dn(v, 2) == 0.0


@given(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
@settings(max_examples=40)
def test_energy_quadratic_scaling(c):
    vg = cached_vertex_graph(SG, 2)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(vg.n_vertices)
    e1 = sg_pointwise_energy_Bn(VertexFunction(vg, vals), 2)
    e2 = sg_pointwise_energy_Bn(VertexFunction(vg, c * vals), 2)
    assert e2 == pytest.approx(c * c * e1, rel=1e-12, abs=1e-12)


def test_corner_ids_shape():
    vg = cached_vertex_graph(SG, 2)
    ids = corner_ids_at_level(vg, 2)
    assert ids.shape == (9, 3)
    wg = cached_vertex_graph(SC, 1)
    assert corner_ids_at_level(wg, 1).shape == (8, 8)


def _searched_corner_ids(vg, n):
    """Reference: the level-n corner numerators lifted to the graph's scale
    and looked up by coordinates."""
    lift = vg.kind.base ** (vg.scale - vertex_scale(vg.kind, n))
    cx, cy = _corners(vg.kind, *_cells(vg.kind, n))
    return vg.ids_of(cx * lift, cy * lift)


@pytest.mark.parametrize("kind,top", [(SG, 10), (SC, 4)])
def test_corner_ids_gather_matches_coordinate_search(kind, top):
    vg = cached_vertex_graph(kind, top)
    assert vg.corners.dtype == np.int32
    assert vg.corners.shape == (kind.n_maps ** top, kind.boundary_size)
    for n in range(top + 1):
        assert np.array_equal(corner_ids_at_level(vg, n), _searched_corner_ids(vg, n))


@pytest.mark.parametrize("top", range(1, 13))
def test_bottom_edge_and_outer_corners_match_coordinate_search(top):
    # the rows the trace reads and the three outer corners, against the
    # level-n points of the bottom edge and the corners looked up by coordinates
    vg = vertex_graph(SG, top)
    full = 2 ** vg.scale
    rows = np.concatenate([_bottom_edge_ids(vg, n) for n in range(top + 1)])
    xs = np.concatenate([np.arange(2 ** n + 1) * (full >> n) for n in range(top + 1)])
    assert np.array_equal(rows, vg.ids_of(xs, np.zeros_like(xs)))
    h = full // 2
    assert list(sg_corner_ids(vg)) == vg.ids_of([0, full, h], [0, 0, h]).tolist()


@pytest.mark.parametrize("kind,top", [(SG, 6), (SC, 3)])
def test_restrict_to_level_matches_coordinate_lookup(kind, top):
    fine = cached_vertex_graph(kind, top)
    u = VertexFunction(fine, np.arange(fine.n_vertices, dtype=float))
    for n in range(top + 1):
        coarse = cached_vertex_graph(kind, n)
        lift = kind.base ** (fine.scale - coarse.scale)
        want = fine.ids_of(coarse.xn * lift, coarse.yn * lift)
        assert np.array_equal(restrict_to_level(u, coarse).values, want)


def test_cell_average_level1_exact():
    # first cell of the harmonic (0,1,0): corners 0, 2/5, 1/5 -> mean 1/5
    u = _harmonic(0, 1, 0, 1)
    cf = sg_cell_average_Pn(u, 1)
    assert cf.values[0] == Fraction(1, 5)


def test_mean_value_coarsening_matches_direct_averages():
    vg = cached_vertex_graph(SG, 3)
    rng = np.random.default_rng(11)
    u = VertexFunction(vg, rng.standard_normal(vg.n_vertices))
    fine = cell_averages(u, 3)
    for m in (1, 2, 3):
        direct = cell_averages(u, 3 - m)
        coarse = mean_value_Mnm(fine, m)
        assert coarse.level == 3 - m
        assert np.allclose(np.asarray(coarse.values, dtype=float), np.asarray(direct.values, dtype=float), atol=1e-12)


def test_mean_value_rejects_bad_depth():
    cf = CellFunction(SG, 1, np.zeros(3))
    with pytest.raises(ValueError):
        mean_value_Mnm(cf, 2)


def test_mean_value_preserves_constants():
    cf = CellFunction(SG, 2, np.full(9, 2.5))
    out = mean_value_Mnm(cf, 2)
    assert np.allclose(np.asarray(out.values, dtype=float), 2.5)


def test_cellgraph_energy_vs_edges():
    # level-1 gasket cell graph is a triangle; scaled form carries (5/3)^n
    cf = CellFunction(SG, 1, np.array([0.0, 1.0, 3.0]))
    assert cellgraph_edge_energy(cf) == pytest.approx(1.0 + 9.0 + 4.0)
    assert sg_cellgraph_energy_Gn(cf) == pytest.approx(14.0 * 5.0 / 3.0)


def test_mean_value_contraction_on_cellgraph_energy():
    # coarsening can grow the cell-graph energy only by a bounded factor
    rng = np.random.default_rng(5)
    for n, m in ((1, 1), (1, 2), (2, 1)):
        vg = cached_vertex_graph(SG, n + m)
        for _ in range(20):
            u = VertexFunction(vg, rng.standard_normal(vg.n_vertices))
            fine = cell_averages(u, n + m)
            coarse = mean_value_Mnm(fine, m)
            gf = sg_cellgraph_energy_Gn(fine)
            gc = sg_cellgraph_energy_Gn(coarse)
            assert gc <= 36.0 * gf + 1e-12


def test_restrict_to_level_keeps_point_values():
    fine = cached_vertex_graph(SC, 2)
    u = VertexFunction.from_x_fraction(fine, lambda x: x)
    coarse = restrict_to_level(u, cached_vertex_graph(SC, 1))
    v = VertexFunction.from_x_fraction(coarse.graph, lambda x: x)
    assert list(coarse.values) == list(v.values)


def test_restrict_rejects_finer_target():
    u = VertexFunction(cached_vertex_graph(SG, 1), np.zeros(6))
    with pytest.raises(ValueError):
        restrict_to_level(u, cached_vertex_graph(SG, 3))


def test_sc_strip_energy_of_x_coordinate():
    vg = cached_vertex_graph(SC, 1)
    u = VertexFunction.from_x_fraction(vg, lambda x: x)
    assert sc_pointwise_energy_Dn(u, 1) == Fraction(8, 9)


def test_sc_cell_energy_of_x_coordinate():
    vg = cached_vertex_graph(SC, 1)
    u = VertexFunction.from_x_fraction(vg, lambda x: x)
    rho = 1.2
    got = sc_cell_energy_bn(u, 1, rho)
    assert got == pytest.approx(rho * 4.0 / 9.0, rel=1e-12)


def test_sc_scaled_energy_uses_rho_power():
    vg = cached_vertex_graph(SC, 2)
    u = VertexFunction.from_x_fraction(vg, x_profile_value)
    rho = 1.3
    d2 = float(sc_pointwise_energy_Dn(u, 2))
    assert sc_scaled_energy_an(u, 2, rho) == pytest.approx(rho ** 2 * d2, rel=1e-12)


def test_vertex_function_validation():
    vg = cached_vertex_graph(SG, 1)
    with pytest.raises(ValueError):
        VertexFunction(vg, np.zeros(5))


def test_exactness_flag():
    vg = cached_vertex_graph(SG, 1)
    u = VertexFunction(vg, [Fraction(i, 3) for i in range(6)])
    assert u.is_exact
    assert u.as_float_array().dtype == np.float64
    v = VertexFunction(vg, np.zeros(6))
    assert not v.is_exact


# ---------------------------------------------------------------------------
# plain Fraction loops, the reference for the common-denominator sums

def _ref_pair_energy(vals, ids, pairs):
    total = Fraction(0)
    for row in ids:
        for a, b in pairs:
            d = vals[int(row[a])] - vals[int(row[b])]
            total += d * d
    return total


def _ref_coarsen(vals, k, m):
    for _ in range(m):
        vals = [sum(vals[i * k : (i + 1) * k]) / Fraction(k) for i in range(len(vals) // k)]
    return vals


def _ref_cell_averages(vals, vg, n):
    nb = vg.kind.boundary_size
    ids = corner_ids_at_level(vg, vg.level)
    fine = [sum(vals[int(i)] for i in row) / Fraction(nb) for row in ids]
    return _ref_coarsen(fine, vg.kind.n_maps, vg.level - n)


def _ref_edge_energy(vals, kind, n):
    total = Fraction(0)
    for i, j in cell_graph(kind, n).edges.tolist():
        d = vals[i] - vals[j]
        total += d * d
    return total


def _ref_strip_energies(n):
    vg = cached_vertex_graph(SC, n)
    den = 2 * 3 ** n
    vals = [x_profile_value(Fraction(int(x), den)) for x in vg.xn]
    strip = _ref_pair_energy(vals, corner_ids_at_level(vg, n), SC_PAIRS)
    cx, _ = _corners(SC, *_cells(SC, n, CANTOR_DIGITS))
    cantor = Fraction(0)
    for row in cx.tolist():
        for a, b in SC_PAIRS:
            d = Fraction(row[a] - row[b], den)
            cantor += d * d
    return strip, cantor


@pytest.mark.parametrize("kind, n", [(SG, 1), (SG, 3), (SG, 5), (SC, 1), (SC, 2), (SC, 3)])
def test_exact_energies_match_fraction_reference(kind, n):
    vg = cached_vertex_graph(kind, n)
    rng = np.random.default_rng(100 + n)
    nums = rng.integers(-60, 61, vg.n_vertices)
    dens = rng.integers(1, 40, vg.n_vertices)
    vals = [Fraction(int(p), int(q)) for p, q in zip(nums, dens)]
    u = VertexFunction(vg, vals)
    energy, pairs = (
        (sg_pointwise_energy_Bn, SG_PAIRS) if kind is SG else (sc_pointwise_energy_Dn, SC_PAIRS)
    )
    for m in range(n + 1):
        got = energy(u, m)
        assert isinstance(got, Fraction)
        assert got == _ref_pair_energy(vals, corner_ids_at_level(vg, m), pairs)
        ref = _ref_cell_averages(vals, vg, m)
        cf = cell_averages(u, m)
        assert list(cf.values) == ref
        for j in range(m + 1):
            assert list(mean_value_Mnm(cf, j).values) == _ref_coarsen(ref, kind.n_maps, j)
        if m >= 1:
            assert cellgraph_edge_energy(cf) == _ref_edge_energy(ref, kind, m)
    if kind is SC:
        assert strip_energy_checks(n) == _ref_strip_energies(n)
