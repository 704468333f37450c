import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
import hypothesis.strategies as st
from hypothesis import given, settings

from fractalforms.kinds import SC_LEVEL_CAP, FractalKind
from fractalforms.geometry import sc_quadrant, vertex_graph
from fractalforms.harmonic import sc_good_function
from fractalforms.networks import (
    DirichletSystem,
    ResistanceResult,
    SolverError,
    WeightedNetwork,
    certify_dirichlet,
    delta_to_wye,
    effective_resistance,
    fit_log_geometric,
    graph_edge_arrays,
    resistance_from_arrays,
    rho_estimate,
    sc_RnV,
    sg_vertex_corner_resistance,
    sg_word_resistance,
    solve_dirichlet,
    solver_log,
    wye_to_delta,
)

positive = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)


def test_delta_to_wye_unit_triangle_exact():
    r1, r2, r3 = delta_to_wye(Fraction(1), Fraction(1), Fraction(1))
    assert (r1, r2, r3) == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


def test_delta_to_wye_236():
    r1, r2, r3 = delta_to_wye(Fraction(2), Fraction(3), Fraction(6))
    assert (r1, r2, r3) == (Fraction(12, 11), Fraction(6, 11), Fraction(18, 11))


def test_wye_to_delta_inverts_exactly_on_rationals():
    star = delta_to_wye(Fraction(5, 3), Fraction(7, 2), Fraction(11))
    assert wye_to_delta(*star) == (Fraction(5, 3), Fraction(7, 2), Fraction(11))


@given(positive, positive, positive)
@settings(max_examples=200)
def test_delta_wye_roundtrip_floats(a, b, c):
    back = wye_to_delta(*delta_to_wye(a, b, c))
    for x, y in zip(back, (a, b, c)):
        assert math.isclose(x, y, rel_tol=1e-12)


@given(positive, positive, positive)
@settings(max_examples=200)
def test_wye_delta_roundtrip_floats(a, b, c):
    back = delta_to_wye(*wye_to_delta(a, b, c))
    for x, y in zip(back, (a, b, c)):
        assert math.isclose(x, y, rel_tol=1e-12)


def _random_net_with_triangle(rng):
    # 7 nodes, a guaranteed triangle on 0-1-2, a spanning chain, extra chords
    net = WeightedNetwork()
    for a, b in ((0, 1), (1, 2), (0, 2)):
        net.add_edge(a, b, rng.uniform(0.2, 5.0))
    for v in range(1, 7):
        net.add_edge(v - 1, v, rng.uniform(0.2, 5.0))
    for _ in range(5):
        a, b = rng.integers(0, 7, size=2)
        if a != b:
            net.add_edge(int(a), int(b), rng.uniform(0.2, 5.0))
    return net


def test_resistance_invariant_under_delta_wye_substitution():
    rng = np.random.default_rng(42)
    for trial in range(50):
        net = _random_net_with_triangle(rng)
        before = effective_resistance(net, [3], [6]).resistance
        reduced = net.copy()
        reduced.substitute_delta_with_wye(0, 1, 2, center=("y", trial))
        after = effective_resistance(reduced, [3], [6]).resistance
        assert abs(before - after) < 1e-10


def test_substitute_requires_triangle():
    net = WeightedNetwork()
    net.add_edge(0, 1, 1.0)
    net.add_edge(1, 2, 1.0)
    with pytest.raises(KeyError):
        net.substitute_delta_with_wye(0, 1, 2, center=9)


def test_short_nodes_merges_parallel_conductances():
    net = WeightedNetwork()
    net.add_edge(0, 1, 2.0)
    net.add_edge(0, 2, 3.0)
    net.add_edge(1, 2, 7.0)  # collapses away when 1 and 2 merge
    net.short_nodes([1, 2], label="m")
    r = effective_resistance(net, [0], ["m"]).resistance
    assert abs(r - 1.0 / 5.0) < 1e-12


def test_cut_node_splits_series_chain():
    net = WeightedNetwork()
    net.add_edge(0, 1, 1.0)
    net.add_edge(1, 2, 1.0)
    labels = net.cut_node(1, [[0], [2]])
    assert len(labels) == 2
    nodes = set(net.nodes())
    assert 1 not in nodes
    assert set(labels) <= nodes


def test_triangle_corner_resistance():
    net = WeightedNetwork()
    net.add_edge(0, 1, 1.0)
    net.add_edge(1, 2, 1.0)
    net.add_edge(0, 2, 1.0)
    res = effective_resistance(net, [0], [1])
    assert isinstance(res, ResistanceResult)
    assert abs(res.resistance - 2.0 / 3.0) < 1e-12


def test_series_resistance_and_potentials():
    # path 0-1-2 with unit conductances: R = 2, midpoint potential 1/2
    ii = np.array([0, 1])
    jj = np.array([1, 2])
    cc = np.array([1.0, 1.0])
    res = resistance_from_arrays(3, ii, jj, cc, np.array([0]), np.array([2]))
    assert abs(res.resistance - 2.0) < 1e-12
    u, info = solve_dirichlet(3, ii, jj, cc, np.array([0, 2]), np.array([0.0, 1.0]))
    assert abs(u[1] - 0.5) < 1e-12
    assert info["method"] == "splu"


def test_disconnected_terminals_infinite_resistance():
    ii = np.array([0, 2])
    jj = np.array([1, 3])
    cc = np.array([1.0, 1.0])
    res = resistance_from_arrays(4, ii, jj, cc, np.array([0]), np.array([2]))
    assert res.is_infinite
    assert res.energy == 0.0
    assert res.potential.tolist() == [0.0, 0.0, 1.0, 1.0]


@pytest.mark.parametrize(
    "resistance",
    [lambda: sg_word_resistance(3), lambda: sc_RnV(2)],
    ids=["sg_word_resistance", "sc_RnV"],
)
def test_resistance_labels_components_once(monkeypatch, resistance):
    calls = []
    real = csgraph.connected_components

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(csgraph, "connected_components", counting)
    assert math.isfinite(resistance().resistance)
    assert len(calls) == 1


def test_solve_dirichlet_zero_off_reached_component():
    ii = np.array([0, 2])
    jj = np.array([1, 3])
    cc = np.array([1.0, 1.0])
    u, _ = solve_dirichlet(4, ii, jj, cc, np.array([0]), np.array([5.0]))
    assert u[1] == 5.0
    assert u[2] == 0.0 and u[3] == 0.0


def test_nan_conductance_raises_solver_error():
    vg = vertex_graph(FractalKind.SG, 4)
    ii, jj, cc = graph_edge_arrays(vg)
    cc[5] = np.nan
    with pytest.raises(SolverError):
        solve_dirichlet(vg.n_vertices, ii, jj, cc, np.array([0, 1]), np.array([0.0, 1.0]))


def test_failed_factorization_raises_solver_error():
    # node 1 hangs on a zero conductance: the free block is singular
    ii, jj, cc = np.array([0, 1]), np.array([1, 2]), np.array([0.0, 0.0])
    with pytest.raises(SolverError, match="factorization"):
        solve_dirichlet(3, ii, jj, cc, np.array([0, 2]), np.array([0.0, 1.0]))


def _sc_sides(vg):
    """Ids on the left and right sides of the unit square, by a coordinate
    mask as sc_RnV selects them."""
    return np.flatnonzero(vg.xn == 0), np.flatnonzero(vg.xn == vg.kind.unit(vg.scale))


def test_multi_rhs_solve_equals_column_solves_bitwise():
    vg = vertex_graph(FractalKind.SC, 3)
    ii, jj, cc = graph_edge_arrays(vg)
    fixed = np.concatenate(_sc_sides(vg))
    values = np.random.default_rng(1).uniform(0.0, 1.0, (len(fixed), 5))
    system = DirichletSystem(vg.n_vertices, ii, jj, cc, fixed)
    u, info = system.solve(values)
    assert u.shape == (vg.n_vertices, 5)
    assert info["method"] == "splu"
    for k in range(5):
        col, _ = system.solve(values[:, k])
        assert np.array_equal(u[:, k], col)
        single, _ = solve_dirichlet(vg.n_vertices, ii, jj, cc, fixed, values[:, k])
        assert np.array_equal(single, col)


def test_solver_log_counts_factorizations_and_solves():
    ii, jj, cc = np.array([0, 1]), np.array([1, 2]), np.array([1.0, 1.0])
    with solver_log() as log:
        system = DirichletSystem(3, ii, jj, cc, np.array([0, 2]))
        system.solve(np.array([0.0, 1.0]))
        system.solve(np.array([[0.0, 1.0], [1.0, 3.0]]))
    assert log.as_dict() == {
        "method": "splu",
        "factorizations": 1,
        "solves": 3,
        "max_residual": log.max_residual,
    }
    assert log.max_residual <= 1e-12
    solve_dirichlet(3, ii, jj, cc, np.array([0, 2]), np.array([0.0, 1.0]))
    assert log.factorizations == 1  # the block is closed


def _sc_plate(level):
    vg = vertex_graph(FractalKind.SC, level)
    ii, jj, cc = graph_edge_arrays(vg)
    fixed = np.concatenate(_sc_sides(vg))
    vals = np.concatenate([np.zeros(len(fixed) // 2), np.ones(len(fixed) // 2)])
    u, _ = solve_dirichlet(vg.n_vertices, ii, jj, cc, fixed, vals)
    return vg.n_vertices, (ii, jj, cc), fixed, u


def test_certify_dirichlet_checks_potentials_found_without_a_solve():
    n, edges, fixed, u = _sc_plate(2)
    with solver_log() as log:
        res = certify_dirichlet(n, [edges], fixed, u, "closed-form")
    assert res <= 1e-12
    assert log.as_dict() == {
        "method": "closed-form", "factorizations": 0, "solves": 1, "max_residual": res,
    }
    wrong = u.copy()
    wrong[np.setdiff1d(np.arange(n), fixed)[0]] += 1e-6
    with pytest.raises(SolverError, match="closed-form residual"):
        certify_dirichlet(n, [edges], fixed, wrong, "closed-form")
    wrong[0] = np.nan
    with pytest.raises(SolverError):
        certify_dirichlet(n, [edges], fixed, wrong, "closed-form")


def test_certify_dirichlet_blocks_give_the_one_block_residual_bitwise():
    n, edges, fixed, u = _sc_plate(4)
    # shuffled, so that blocks add several currents to a node that already
    # holds some; summing each block apart rounds differently here
    order = np.random.default_rng(0).permutation(len(edges[0]))
    edges = tuple(a[order] for a in edges)
    one = certify_dirichlet(n, [edges], fixed, u, "closed-form")
    cuts = [0, 1, 9, 9, 200, 1500, 1503, len(edges[0])]  # uneven, one empty

    def blocks():
        return (tuple(a[lo:hi] for a in edges) for lo, hi in zip(cuts[:-1], cuts[1:]))

    assert certify_dirichlet(n, blocks(), fixed, u, "closed-form") == one
    # the one-block residual is the bincount over all edges
    ii, jj, cc = edges
    f = cc * (u[ii] - u[jj])
    free = np.setdiff1d(np.arange(n), fixed)
    assert one == float(np.linalg.norm((np.bincount(ii, f, n) - np.bincount(jj, f, n))[free]))
    wrong = u.copy()
    wrong[free[0]] += 1e-6
    with pytest.raises(SolverError, match="closed-form residual"):
        certify_dirichlet(n, blocks(), fixed, wrong, "closed-form")


def test_sg_word_resistance_closed_form():
    # between opposite fixed points across n cell-subdivision levels
    assert abs(sg_word_resistance(1).resistance - 2.0 / 3.0) < 1e-12
    for n in range(1, 5):
        expect = (5.0 / 3.0) ** n - 1.0
        assert abs(sg_word_resistance(n).resistance - expect) < 1e-9 * max(1.0, expect)


def test_sg_vertex_corner_resistance_closed_form():
    for n in range(1, 4):
        expect = (10.0 / 9.0) * (5.0 / 3.0) ** (n - 1)
        got = sg_vertex_corner_resistance(n).resistance
        assert abs(got - expect) < 1e-9


def test_sc_RnV_level1_value():
    # plate-to-plate resistance of the 40-vertex level-1 carpet graph
    got = sc_RnV(1).resistance
    assert abs(got - 1.1818181818) < 1e-8


def test_sc_RnV_returns_the_quadrant_potential_with_its_numerators():
    m = 3 ** 2
    plate = sc_RnV(2)
    xn, yn, _ = sc_quadrant(2)
    assert np.array_equal(plate.xn, xn) and np.array_equal(plate.yn, yn)
    assert len(plate.potential) == len(xn)
    assert xn.max() == yn.max() == m
    # 0 on x = 0 and 1 on x = 1/2: twice the plate potential on the quadrant
    assert np.all(plate.potential[xn == 0] == 0.0)
    assert np.all(plate.potential[xn == m] == 1.0)
    assert plate.energy == 1.0 / plate.resistance


@pytest.mark.parametrize("n", [0, SC_LEVEL_CAP + 1])
def test_sc_RnV_rejects_a_level_outside_the_cap(n):
    with pytest.raises(ValueError, match="outside"):
        sc_RnV(n)


def _masked_quadrant(vg):
    """The closed quadrant x, y <= 1/2 masked out of the whole graph, as
    sc_RnV solved it before the quadrant was built directly."""
    m = vg.kind.unit(vg.scale) // 2
    inside = (vg.xn <= m) & (vg.yn <= m)
    local = np.cumsum(inside) - 1
    e = vg.edges
    keep = inside[e[:, 0]] & inside[e[:, 1]]
    return vg.xn[inside], vg.yn[inside], local[e[keep, 0]], local[e[keep, 1]], e[keep, 2]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_sc_quadrant_is_the_whole_graph_masked(n):
    xn, yn, edges = sc_quadrant(n)
    want = _masked_quadrant(vertex_graph(FractalKind.SC, n))
    got = (xn, yn, edges[:, 0], edges[:, 1], edges[:, 2])
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


# float.hex of R_n^V, recorded while the quadrant was masked out of the whole graph
SC_RNV_HEX = (
    "0x1.2e8ba2e8ba2e8p+0", "0x1.7525a8acae7fep+0", "0x1.d1b3afbb8355cp+0",
    "0x1.23459f53f7db9p+1", "0x1.6c7eb767aaf4dp+1", "0x1.c827af9cc1c8fp+1",
)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_sc_RnV_bits_recorded(n):
    assert sc_RnV(n).resistance.hex() == SC_RNV_HEX[n - 1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sc_RnV_quadrant_solve_matches_the_full_graph_oracle(n):
    vg = vertex_graph(FractalKind.SC, n)
    m = 3 ** n
    xn, yn = vg.xn, vg.yn
    ii, jj, cc = graph_edge_arrays(vg)
    # no edge runs along x = 1/2 or y = 1/2, so no weight is shared between quadrants
    assert not np.any((xn[ii] == xn[jj]) & (xn[ii] == m))
    assert not np.any((yn[ii] == yn[jj]) & (yn[ii] == m))
    oracle = resistance_from_arrays(
        vg.n_vertices, ii, jj, cc, *_sc_sides(vg)
    )
    got = sc_RnV(n)
    assert abs(got.resistance - oracle.resistance) <= 1e-15 * oracle.resistance
    assert abs(got.energy - oracle.energy) <= 1e-15 * oracle.energy
    # the quadrant solution reflected onto the whole graph is the good function
    good = sc_good_function(n)
    assert good.fn.graph.n_vertices == vg.n_vertices and good.energy == got.energy
    # both solves pass the residual check |L x - b| <= 1e-12 |b|; the plate's
    # condition number grows with the level, and the two potentials part by
    # the full solve's own rounding: 6.4e-13 at n = 5
    v = good.fn.values
    assert np.max(np.abs(v - oracle.potential)) <= 1e-11
    # the reflections hold by construction: exactly, up to the rounding of 1 - (1 - v)
    assert np.all(v[xn == m] == 0.5)
    assert np.array_equal(v[vg.ids_of(xn, 2 * m - yn)], v)
    mirror = vg.ids_of(2 * m - xn, yn)
    assert np.max(np.abs(v[mirror] - (1.0 - v))) <= 2.3e-16


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sc_RnV_reflects_as_the_coordinate_search_did(n):
    vg = vertex_graph(FractalKind.SC, n)
    v = sc_good_function(n).fn.values
    # the reflection the quadrant-id table replaced: each mirror image found
    # by ids_of, reading the half quadrant solution v on x, y <= 1/2
    m = 3 ** n
    inside = (vg.xn <= m) & (vg.yn <= m)
    mirror = vg.ids_of(np.minimum(vg.xn, 2 * m - vg.xn), np.minimum(vg.yn, 2 * m - vg.yn))
    want = v[inside][(np.cumsum(inside) - 1)[mirror]]
    right = vg.xn > m
    want[right] = 1.0 - want[right]
    assert np.array_equal(v, want)


def test_sc_RnV_factors_once_on_a_quadrant(monkeypatch):
    sizes = []
    real = spla.splu

    def recording(A, *args, **kwargs):
        sizes.append(A.shape[0])
        return real(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    vg = vertex_graph(FractalKind.SC, 4)
    m = 3 ** 4
    with solver_log() as log:
        sc_RnV(4)
    assert (log.factorizations, log.solves) == (1, 1)
    # the free vertices of the quadrant x, y <= 1/2: 3,728 of V = 15,240
    quadrant_free = (vg.xn > 0) & (vg.xn < m) & (vg.yn <= m)
    assert sizes == [int(quadrant_free.sum())]
    assert 0.24 * vg.n_vertices < sizes[0] <= vg.n_vertices / 4


def test_fit_log_geometric_recovers_exact_ratio():
    ns = [1, 2, 3, 4, 5]
    values = [2.0 * 0.6 ** n for n in ns]
    ratio, log_amp = fit_log_geometric(ns, values)
    assert abs(ratio - 0.6) < 1e-12
    assert abs(math.exp(log_amp) - 2.0) < 1e-10


@given(
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=0.1, max_value=5.0),
)
@settings(max_examples=60)
def test_fit_log_geometric_scale_invariance(ratio, amp):
    ns = range(1, 6)
    values = [amp * ratio ** n for n in ns]
    got, _ = fit_log_geometric(ns, values)
    assert math.isclose(got, ratio, rel_tol=1e-9)


def test_rho_estimate_on_synthetic_geometric_series():
    levels = [1, 2, 3, 4, 5]
    values = [1.3 * 1.25 ** n for n in levels]
    est = rho_estimate(levels, values, fit_from=2)
    assert abs(est.rho_hat - 1.25) < 1e-10
    assert abs(est.beta_star_hat - math.log(8 * 1.25) / math.log(3)) < 1e-10
    assert len(est.ratios) == 4
    assert est.levels == (2, 3, 4, 5)
