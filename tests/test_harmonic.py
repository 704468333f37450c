import hashlib
from fractions import Fraction

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from fractalforms.kinds import SC_LEVEL_CAP, FractalKind
from fractalforms.geometry import cached_vertex_graph, sg_corner_ids, vertex_graph
from fractalforms.energies import VertexFunction, kigami_energy_En, sc_pointwise_energy_Dn
from fractalforms import harmonic
from fractalforms.networks import DirichletSystem, sc_RnV, solver_log
from fractalforms.harmonic import (
    SgHarmonic,
    harnack_ball,
    harnack_ratio,
    harnack_solve,
    holder_constant,
    sc_good_function,
    sg_harmonic,
    strip_energy_checks,
    x_profile_energy_level1,
)
from oracles import address, ids_of, x_profile_value

SG = FractalKind.SG
SC = FractalKind.SC

HARNACK_CENTER = (Fraction(1, 2), Fraction(1, 3))
HARNACK_R = Fraction(1, 4)
HARNACK_DELTA = Fraction(1, 2)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=64)


def test_midpoint_rule():
    u = sg_harmonic(Fraction(0), Fraction(1), Fraction(2), 1)
    # corners of cell d, read through the corner table; cell 0: (x0, m01, m02)
    corners = [tuple(u.values[i] for i in row) for row in u.graph.corners]
    assert corners[0] == (Fraction(0), Fraction(4, 5), Fraction(1))
    assert corners[1] == (Fraction(4, 5), Fraction(1), Fraction(6, 5))
    assert corners[2] == (Fraction(1), Fraction(6, 5), Fraction(2))


@given(rationals, rationals, rationals)
@settings(max_examples=30)
def test_harmonic_satisfies_mean_value_at_interior_vertices(a, b, c):
    # each interior vertex value is the conductance-weighted neighbor mean
    u = sg_harmonic(a, b, c, 2)
    vg = u.graph
    corner = set(sg_corner_ids(vg))
    nbrs = {}
    for i, j, _ in vg.edges:
        nbrs.setdefault(int(i), []).append(int(j))
        nbrs.setdefault(int(j), []).append(int(i))
    for v, around in nbrs.items():
        if v in corner:
            continue
        assert sum(u.values[w] for w in around) == len(around) * u.values[v]


def test_sg_harmonic_returns_exact_vertex_function():
    u = sg_harmonic(0, 1, 0, 3)
    assert isinstance(u, VertexFunction)
    assert u.is_exact
    assert kigami_energy_En(u, 3) == 2


def test_value_at_matches_vertex_function():
    h = SgHarmonic.make(Fraction(1), Fraction(3), Fraction(-2))
    u = h.vertex_function(cached_vertex_graph(SG, 2))
    vg = u.graph
    for i in range(vg.n_vertices):
        assert u.values[i] == _ref_value(h.boundary, address(vg, i))


def _ref_value(boundary, word):
    # the five-point midpoint rule in Fraction arithmetic, one cell at a time
    t = boundary
    for d in word[:-1]:
        x, y, z = t
        m01, m02, m12 = (2 * x + 2 * y + z) / 5, (2 * x + y + 2 * z) / 5, (x + 2 * y + 2 * z) / 5
        t = ((x, m01, m02), (m01, y, m12), (m02, m12, z))[d]
    return t[word[-1]]


def test_vertex_function_with_large_denominators_matches_value_at():
    h = SgHarmonic.make(
        Fraction(999983, 1000003), Fraction(-765432, 999979), Fraction(123457, 999961)
    )
    vg = cached_vertex_graph(SG, 10)
    u = h.vertex_function(vg)
    assert max(abs(v) for v in u.values.num) > 2 ** 63  # past any int64
    a, b, c = h.boundary  # the boundary's energy, which every level keeps
    assert kigami_energy_En(u, 10) == (a - b) ** 2 + (b - c) ** 2 + (a - c) ** 2
    rng = np.random.default_rng(5)
    for i in [0, 1, 2, vg.n_vertices - 1, *rng.integers(0, vg.n_vertices, 200).tolist()]:
        assert u.values[i] == _ref_value(h.boundary, address(vg, i))


def test_triadic_f_table():
    cases = {
        Fraction(0): Fraction(0),
        Fraction(1): Fraction(1),
        Fraction(1, 3): Fraction(2, 7),
        Fraction(2, 3): Fraction(5, 7),
        Fraction(1, 9): Fraction(4, 49),
        Fraction(2, 9): Fraction(10, 49),
        Fraction(4, 9): Fraction(20, 49),
        Fraction(5, 9): Fraction(29, 49),
        Fraction(7, 9): Fraction(39, 49),
        Fraction(8, 9): Fraction(45, 49),
    }
    for x, fx in cases.items():
        assert x_profile_value(x) == fx


def test_triadic_f_rejects_non_triadic():
    with pytest.raises(ValueError):
        x_profile_value(Fraction(1, 5))


def test_half_triadic_extension():
    assert x_profile_value(Fraction(1, 6)) == Fraction(1, 7)
    assert x_profile_value(Fraction(5, 6)) == Fraction(6, 7)
    # midpoint value is the mean of the flanking triadic values
    mid = x_profile_value(Fraction(7, 18))
    assert mid == (x_profile_value(Fraction(1, 3)) + x_profile_value(Fraction(4, 9))) / 2


def test_triadic_f_strictly_monotone():
    pts = [Fraction(k, 81) for k in range(82)]
    vals = [x_profile_value(p) for p in pts]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_x_profile_minimizer():
    # the profile's values at 1/3 and 2/3 are the minimizer of the level-1
    # energy; test_x_profile_minimum_is_global shows nothing lies below 6/7
    a, b = x_profile_value(Fraction(1, 3)), x_profile_value(Fraction(2, 3))
    assert (a, b) == (Fraction(2, 7), Fraction(5, 7))
    assert x_profile_energy_level1(a, b) == Fraction(6, 7)
    # any other choice does worse
    assert x_profile_energy_level1(Fraction(1, 3), Fraction(2, 3)) > Fraction(6, 7)


@given(rationals, rationals)
@settings(max_examples=50)
def test_x_profile_minimum_is_global(a, b):
    assert x_profile_energy_level1(a, b) >= Fraction(6, 7)


@pytest.mark.parametrize("n", range(1, 7))
def test_x_profile_fold_matches_the_recursive_f(n):
    # every abscissa xn / (2 * 3^n), triadic and half-triadic, reads the
    # recursion's value as its numerator over 2 * 7^n
    num = harmonic._x_profile_numerators(n)
    assert num.shape == (2 * 3 ** n + 1,)
    den, unit = 2 * 7 ** n, 2 * 3 ** n
    assert [Fraction(int(v), den) for v in num] == [
        x_profile_value(Fraction(xn, unit)) for xn in range(unit + 1)
    ]


def test_x_profile_value_interpolates_f():
    assert x_profile_value(Fraction(1, 3)) == Fraction(2, 7)
    assert x_profile_value(Fraction(1, 6)) == Fraction(1, 7)


def test_strip_energy_closed_forms():
    for n in range(1, SC_LEVEL_CAP + 1):
        full, cantor = strip_energy_checks(n)
        assert full == Fraction(6, 7) ** n
        assert cantor == Fraction(2, 3) ** n


def test_strip_energy_rejects_level_zero():
    with pytest.raises(ValueError):
        strip_energy_checks(0)


def test_good_function_matches_plate_resistance():
    for n in (1, 2):
        good = sc_good_function(n)
        r = 1.0 / good.energy
        assert good.energy == pytest.approx(
            float(sc_pointwise_energy_Dn(good.fn, n)), rel=1e-9)
        assert r > 1.0  # the carpet plate resistance exceeds the square's


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_good_function_energy_is_the_resistance_bit_for_bit(n):
    # goodfn and resistance solve the same plate problem and sum it alike
    assert 1.0 / sc_good_function(n).energy == sc_RnV(n).resistance


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_good_function_is_the_resistance_potential_bitwise(n):
    # the good function is the potential of the R_n^V plate solve, not a second
    # solve: on the quadrant x, y <= 1/2 it is half the quadrant solution
    good, plate = sc_good_function(n).fn, sc_RnV(n)
    m = 3 ** n
    vg = good.graph
    inside = (vg.xn <= m) & (vg.yn <= m)
    assert np.array_equal(vg.xn[inside], plate.xn) and np.array_equal(vg.yn[inside], plate.yn)
    values, potential = good.values[inside], 0.5 * plate.potential
    assert values.dtype == potential.dtype == np.float64
    assert values.tobytes() == potential.tobytes()


# sha256 of the good function's values, recorded while sc_RnV reflected the
# quadrant solution onto a whole graph it had masked the quadrant out of
GOOD_FUNCTION_SHA256 = {
    3: "5a9f16e050e0aa0a5e5b1d3418150483c354c855768ccfac7f1aaae2b952ca50",
    4: "ab976694fd1bfe706341aaa35e0db1d57955a3c434c97a5905375c0b174e52eb",
    5: "e926270869c740c0504272ab253182d77f947cf1e1e2f6ae191e149d5cd37cff",
}


@pytest.mark.parametrize("n", sorted(GOOD_FUNCTION_SHA256))
def test_good_function_values_recorded(n):
    values = sc_good_function(n).fn.values
    assert values.dtype == np.float64
    assert hashlib.sha256(values.tobytes()).hexdigest() == GOOD_FUNCTION_SHA256[n]


def test_good_function_symmetry_and_range():
    good = sc_good_function(2)
    vg = good.fn.graph
    vals = good.fn.as_float_array()
    assert vals.min() >= -1e-12 and vals.max() <= 1.0 + 1e-12
    # mirror symmetry u(1-x, y) = 1 - u(x, y)
    full = 2 * 3 ** vg.scale
    mirror = ids_of(vg, full - vg.xn, vg.yn)
    for i in range(vg.n_vertices):
        j = mirror[i]
        assert abs(vals[i] + vals[j] - 1.0) < 1e-8
    # midline sits at 1/2 by antisymmetry
    mid = np.nonzero(vg.xn == full // 2)[0]
    assert np.allclose(vals[mid], 0.5, atol=1e-8)


def test_good_function_json_dict_schema():
    good = sc_good_function(1)
    d = good.values_json_dict()
    assert set(d) == {"level", "energy", "x", "y", "value"}
    assert d["level"] == 1
    assert len(d["x"]) == len(d["y"]) == len(d["value"]) == 40


def test_harnack_ball_counts_frozen():
    ball = harnack_ball(3, HARNACK_CENTER, HARNACK_R, HARNACK_DELTA)
    assert (len(ball.interior_ids), len(ball.boundary_ids), len(ball.inner_ids)) == (229, 40, 60)
    ball4 = harnack_ball(4, HARNACK_CENTER, HARNACK_R, HARNACK_DELTA)
    assert (len(ball4.interior_ids), len(ball4.boundary_ids), len(ball4.inner_ids)) == (1969, 102, 462)


def test_harnack_ball_partition_disjoint():
    ball = harnack_ball(3, HARNACK_CENTER, HARNACK_R, HARNACK_DELTA)
    assert not set(ball.interior_ids) & set(ball.boundary_ids)
    assert set(ball.inner_ids) <= set(ball.interior_ids) | set(ball.boundary_ids)


def test_harnack_constant_boundary_gives_ratio_one():
    ball = harnack_ball(3, HARNACK_CENTER, HARNACK_R, HARNACK_DELTA)
    ones = np.ones(len(ball.boundary_ids))
    ratio = harnack_ratio(3, HARNACK_CENTER, HARNACK_R, HARNACK_DELTA, ones, ball=ball)
    assert ratio == pytest.approx(1.0, abs=1e-10)


def test_harnack_solve_respects_maximum_principle():
    ball = harnack_ball(3, HARNACK_CENTER, HARNACK_R, HARNACK_DELTA)
    rng = np.random.default_rng(0)
    bvals = rng.uniform(0.5, 2.0, size=len(ball.boundary_ids))
    u = harnack_solve(ball, bvals)
    inside = u[ball.interior_ids]
    assert inside.max() <= bvals.max() + 1e-10
    assert inside.min() >= bvals.min() - 1e-10
    ratio = harnack_ratio(3, HARNACK_CENTER, HARNACK_R, HARNACK_DELTA, bvals, ball=ball)
    assert 1.0 <= ratio < np.inf


@pytest.mark.parametrize(
    "n, r, delta, expected",
    [
        (3, HARNACK_R, HARNACK_DELTA,
         ((229, "2a15fe91b21e2640"), (40, "79a2e819b548aeb1"), (60, "b0b2c507f0291a76"))),
        (4, HARNACK_R, HARNACK_DELTA,
         ((1969, "3dcdc27c3520e49d"), (102, "0164315404c9b25c"), (462, "c44337a8a526027d"))),
        (4, Fraction(271828, 1000003), Fraction(314159, 999983),
         ((2488, "6b642af8c262446c"), (110, "a85fd367e2dd25e6"), (219, "1cc31310d9ce031a"))),
    ],
)
def test_harnack_ball_ids_match_recorded(n, r, delta, expected):
    # (length, sha256 prefix) of the interior, boundary and inner id arrays,
    # recorded as whole-graph ids from a per-vertex Fraction comparison of
    # every distance; the ball's region ids map to them by numerators
    ball = harnack_ball(n, HARNACK_CENTER, r, delta)
    got = tuple(
        (len(ids), hashlib.sha256(ids.astype(np.int64).tobytes()).hexdigest()[:16])
        for ids in _whole_graph_ids(ball, n)
    )
    assert got == expected


def _whole_graph_ids(ball, n):
    """The ball's interior, boundary and inner ids as ids of the whole
    level-n graph, found by their numerators."""
    vg = cached_vertex_graph(SC, n)
    return tuple(
        ids_of(vg, ball.xn[ids], ball.yn[ids])
        for ids in (ball.interior_ids, ball.boundary_ids, ball.inner_ids)
    )


def _object_array_ball(n, center, r, delta):
    """Interior, boundary and inner ids from exact distances held as Python
    ints in object arrays: the comparison harnack_ball made before it
    compared int64 numerators against integer thresholds."""
    vg = vertex_graph(SC, n)
    r, delta = Fraction(r), Fraction(delta)
    full = vg.kind.unit(vg.scale)
    cxn, cyn = Fraction(center[0]) * full, Fraction(center[1]) * full
    num = vg.kind.sq_norm(vg.xn.astype(object) - int(cxn), vg.yn.astype(object) - int(cyn))
    den2 = full * full
    r2 = r * r
    inner2 = r2 * delta * delta
    ball_num = num * r2.denominator
    sphere_num = r2.numerator * den2
    in_ball = (ball_num <= sphere_num).astype(bool)
    on_sphere = (ball_num == sphere_num).astype(bool)
    in_inner = (num * inner2.denominator <= inner2.numerator * den2).astype(bool)
    ii, jj = vg.edges[:, 0], vg.edges[:, 1]
    outside_nb = np.zeros(vg.n_vertices, dtype=bool)
    outside_nb[ii[in_ball[ii] & ~in_ball[jj]]] = True
    outside_nb[jj[in_ball[jj] & ~in_ball[ii]]] = True
    boundary = in_ball & (on_sphere | outside_nb)
    return (
        np.nonzero(in_ball & ~boundary)[0], np.nonzero(boundary)[0], np.nonzero(in_inner)[0]
    )


@pytest.mark.parametrize(
    "n, center, r, delta",
    [
        (3, HARNACK_CENTER, HARNACK_R, HARNACK_DELTA),
        (4, HARNACK_CENTER, HARNACK_R, HARNACK_DELTA),
        (4, HARNACK_CENTER, Fraction(271828, 1000003), Fraction(314159, 999983)),
        # radii whose sphere passes through vertices: r^2 full^2 an integer
        (2, (Fraction(1, 2), Fraction(1, 2)), Fraction(5, 18), Fraction(3, 5)),
        (3, (Fraction(0), Fraction(0)), Fraction(1, 3), Fraction(1, 2)),
        (3, (Fraction(1, 3), Fraction(2, 3)), Fraction(1, 6), Fraction(1, 3)),
        # a sphere through no vertex, radii near 0 and past the square, huge terms
        (2, (Fraction(1, 2), Fraction(1, 3)), Fraction(1, 7), Fraction(2, 3)),
        (2, (Fraction(1), Fraction(1)), Fraction(3, 2), Fraction(1, 2)),
        (2, HARNACK_CENTER, Fraction(1, 10 ** 30), Fraction(1, 2)),
        (3, HARNACK_CENTER, Fraction(10 ** 40 + 1, 4 * 10 ** 40), Fraction(10 ** 30 - 1, 10 ** 30)),
        (5, HARNACK_CENTER, HARNACK_R, HARNACK_DELTA),
        # the corner (0, 0) is on the sphere and has no neighbor outside it,
        # so only the sphere test puts it on the boundary
        (1, (Fraction(1, 2), Fraction(2, 3)), Fraction(5, 6), Fraction(1, 2)),
    ],
)
def test_harnack_ball_equals_the_object_array_oracle(n, center, r, delta):
    ball = harnack_ball(n, center, r, delta)
    want = _object_array_ball(n, center, r, delta)
    for got, ids in zip(_whole_graph_ids(ball, n), want):
        assert np.array_equal(got, ids)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize(
    "center, r",
    [(HARNACK_CENTER, HARNACK_R), ((Fraction(0), Fraction(0)), Fraction(1, 3)),
     ((Fraction(1, 3), Fraction(2, 3)), Fraction(1, 6))],
)
def test_harnack_ball_region_is_the_whole_graph_restricted(n, center, r):
    # the ball built from the cells that meet it has the whole graph's ball
    # vertices in id order, and their edges with the same multiplicities
    ball = harnack_ball(n, center, r, HARNACK_DELTA)
    vg = cached_vertex_graph(SC, n)
    interior, boundary, _ = _object_array_ball(n, center, r, HARNACK_DELTA)
    got = _restricted(ball.xn, ball.yn, ball.edges, np.union1d(ball.interior_ids, ball.boundary_ids))
    want = _restricted(vg.xn, vg.yn, vg.edges, np.union1d(interior, boundary))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _restricted(xn, yn, edges, ids):
    """Numerators and (i, j, mult) edges of the vertices `ids` (sorted),
    renumbered in id order."""
    inside = np.zeros(len(xn), dtype=bool)
    inside[ids] = True
    e = edges[inside[edges[:, 0]] & inside[edges[:, 1]]].copy()
    e[:, :2] = (np.cumsum(inside) - 1)[e[:, :2]]
    return xn[ids], yn[ids], e


@pytest.mark.parametrize(
    "n, r, delta, center",
    [
        (3, HARNACK_R, HARNACK_DELTA, HARNACK_CENTER),
        (4, HARNACK_R, HARNACK_DELTA, HARNACK_CENTER),
        (5, HARNACK_R, HARNACK_DELTA, HARNACK_CENTER),
        (4, Fraction(271828, 1000003), Fraction(314159, 999983), HARNACK_CENTER),
        # a ball holding the whole graph, with no vertex on its sphere: no boundary
        (2, Fraction(3, 2), Fraction(1, 2), (Fraction(1), Fraction(1))),
    ],
)
def test_harnack_ball_free_set_is_the_labelled_one(monkeypatch, n, r, delta, center):
    made = []

    def recording(V, ii, jj, cond, fixed_ids, free_ids=None):
        made.append((V, ii, jj, cond, fixed_ids, free_ids))
        return DirichletSystem(V, ii, jj, cond, fixed_ids, free_ids)

    monkeypatch.setattr(harmonic, "DirichletSystem", recording)
    ball = harnack_ball(n, center, r, delta)
    system = ball.system()
    [(V, ii, jj, cond, fixed_ids, free_ids)] = made
    assert free_ids is not None
    labelled = DirichletSystem(V, ii, jj, cond, fixed_ids).free
    assert np.array_equal(free_ids, labelled) and np.array_equal(system.free, labelled)


def test_harnack_ball_rejects_a_center_off_the_square():
    with pytest.raises(ValueError, match="unit square"):
        harnack_ball(2, (Fraction(4, 3), Fraction(1, 2)), HARNACK_R, HARNACK_DELTA)


def test_harnack_ball_factors_once():
    ball = harnack_ball(3, HARNACK_CENTER, HARNACK_R, HARNACK_DELTA)
    rng = np.random.default_rng(2)
    with solver_log() as log:
        for _ in range(4):
            harnack_ratio(3, HARNACK_CENTER, HARNACK_R, HARNACK_DELTA,
                          rng.uniform(0.5, 2.0, len(ball.boundary_ids)), ball=ball)
    assert (log.factorizations, log.solves) == (1, 4)


def test_harnack_rejects_empty_shrunken_ball():
    # a center far outside the carpet's holes still needs inner vertices
    with pytest.raises(ValueError):
        harnack_ratio(2, (Fraction(1, 2), Fraction(1, 2)), Fraction(1, 30), Fraction(1, 2), [1.0])


def test_harnack_rejects_negative_boundary():
    ball = harnack_ball(3, HARNACK_CENTER, HARNACK_R, HARNACK_DELTA)
    bad = np.ones(len(ball.boundary_ids))
    bad[0] = -1.0
    with pytest.raises(ValueError):
        harnack_solve(ball, bad)


@pytest.mark.parametrize("n", [3, 4])
def test_harnack_ratio_of_a_trial_matrix_is_the_per_trial_ratios_bitwise(n):
    ball = harnack_ball(n, HARNACK_CENTER, HARNACK_R, HARNACK_DELTA)
    bvals = np.random.default_rng(n).uniform(0.0, 1.0, (len(ball.boundary_ids), 6))
    with solver_log() as log:
        got = harnack_ratio(n, HARNACK_CENTER, HARNACK_R, HARNACK_DELTA, bvals, ball=ball)
    assert (log.factorizations, log.solves) == (1, 6)
    want = [harnack_ratio(n, HARNACK_CENTER, HARNACK_R, HARNACK_DELTA, bvals[:, k], ball=ball)
            for k in range(6)]
    assert all(isinstance(w, float) for w in want)
    assert got.dtype == np.float64 and got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("bad", ["zero", "negative"])
def test_harnack_refuses_a_trial_matrix_with_one_bad_column(bad):
    ball = harnack_ball(3, HARNACK_CENTER, HARNACK_R, HARNACK_DELTA)
    bvals = np.ones((len(ball.boundary_ids), 4))
    if bad == "zero":
        bvals[:, 2] = 0.0
    else:
        bvals[7, 2] = -1.0
    match = "identically zero" if bad == "zero" else "nonnegative"
    with pytest.raises(ValueError, match=match):
        harnack_solve(ball, bvals)
    with pytest.raises(ValueError, match=match):
        harnack_ratio(3, HARNACK_CENTER, HARNACK_R, HARNACK_DELTA, bvals, ball=ball)


def test_holder_constant_finite_for_good_function():
    good = sc_good_function(2)
    c = holder_constant(good.fn, 2, beta=2.0, n_pairs=2000)
    assert 0.0 < c < np.inf


def test_holder_constant_rejects_constants():
    vg = cached_vertex_graph(SC, 1)
    u = VertexFunction(vg, np.zeros(vg.n_vertices))
    with pytest.raises(ValueError):
        holder_constant(u, 1, beta=2.0)
