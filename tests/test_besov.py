import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from fractalforms.kinds import FractalKind
from fractalforms import besov, geometry
from fractalforms.geometry import cached_vertex_graph, vertex_scale
from fractalforms.energies import (
    CellFunction,
    VertexFunction,
    cell_averages,
    cellgraph_edge_energy,
    corner_ids_at_level,
    float_values,
    restrict_to_level,
    sc_pointwise_energy_Dn,
    sg_graph_energy_An,
    sg_pointwise_energy_Bn,
)
from fractalforms.harmonic import sc_good_function, sg_harmonic
from fractalforms.besov import (
    SG_BETA_STAR,
    BesovForm,
    BesovParams,
    FOLD_BLOCK,
    JumpKernelParams,
    _blocks,
    _fold_blocks,
    _level_energy,
    besov_double_integral_mc,
    besov_partial_sum,
    besov_partial_terms,
    besov_weight,
    interval_trace_check,
    jump_kernel_Ci,
    mc_depth,
    sg_monotone_limit,
    walkdim_estimate,
)

SG = FractalKind.SG
SC = FractalKind.SC


def test_beta_star_constant():
    assert SG_BETA_STAR == pytest.approx(math.log(5) / math.log(2), abs=1e-15)


def test_besov_weight_values():
    # weight = base^(beta*n) / n_cells
    assert besov_weight(SG, 2.0, 1) == pytest.approx(4.0 / 3.0)
    assert besov_weight(SG, SG_BETA_STAR, 2) == pytest.approx(25.0 / 9.0)
    assert besov_weight(SC, 2.0, 1) == pytest.approx(9.0 / 8.0)


def test_harmonic_terms_geometric_below_critical():
    u = sg_harmonic(0, 1, 0, 5)
    beta = 2.0
    terms = besov_partial_terms(u, BesovParams(beta=beta, N=5, kind=SG))
    # per-level term is S * (2^beta/5)^n with S = 2
    for n, t in enumerate(terms, 1):
        assert t == pytest.approx(2.0 * (2.0 ** beta / 5.0) ** n, rel=1e-12)
    assert terms[-1] / terms[-2] < 1.0 - 1e-9


def test_harmonic_terms_flat_at_critical_exponent():
    u = sg_harmonic(0, 1, 0, 5)
    terms = besov_partial_terms(u, BesovParams(beta=SG_BETA_STAR, N=5, kind=SG))
    assert all(t == pytest.approx(2.0, rel=1e-10) for t in terms)
    assert terms[-1] / terms[-2] == pytest.approx(1.0, rel=1e-10)  # the series diverges


def test_partial_sum_is_sum_of_terms():
    u = sg_harmonic(1, 0, 2, 4)
    params = BesovParams(beta=2.1, N=4, kind=SG)
    assert besov_partial_sum(u, params) == pytest.approx(
        sum(besov_partial_terms(u, params)), rel=1e-14
    )


def test_mc_zero_for_constants():
    vg = cached_vertex_graph(SG, 4)
    u = VertexFunction(vg, np.full(vg.n_vertices, 2.0))
    est, err = besov_double_integral_mc(u, 2.0, samples=2000, seed=1, kind=SG)
    assert est == 0.0
    assert err == 0.0


def test_mc_deterministic_under_seed():
    u = sg_harmonic(0, 1, 0, 4)
    a = besov_double_integral_mc(u, 2.0, samples=5000, seed=7, kind=SG)
    b = besov_double_integral_mc(u, 2.0, samples=5000, seed=7, kind=SG)
    c = besov_double_integral_mc(u, 2.0, samples=5000, seed=8, kind=SG)
    assert a == b
    assert a != c


def test_mc_warns_at_or_above_critical():
    u = sg_harmonic(0, 1, 0, 4)
    with pytest.warns(RuntimeWarning):
        besov_double_integral_mc(u, SG_BETA_STAR, samples=1000, seed=0, kind=SG)


def test_mc_reads_graph_values_by_cell_rank_below_the_graph_level():
    # a depth below the graph's level samples the level-`depth` base corners,
    # where the level-6 and level-4 harmonic functions agree exactly
    deep = sg_harmonic(0, 1, Fraction(1, 3), 6)
    shallow = sg_harmonic(0, 1, Fraction(1, 3), 4)
    a = besov_double_integral_mc(deep, 0.9, samples=20_000, seed=3, depth=4)
    b = besov_double_integral_mc(shallow, 0.9, samples=20_000, seed=3)
    assert a == b
    good = sc_good_function(3).fn
    coarse = restrict_to_level(good, cached_vertex_graph(SC, 2))
    a = besov_double_integral_mc(good, 2.0, samples=4_000, seed=5, depth=2)
    b = besov_double_integral_mc(coarse, 2.0, samples=4_000, seed=5)
    assert a == b
    # at the graph's own level the estimates are the ones recorded before the
    # rank gather replaced the coordinate lookup; the carpet's were recorded
    # again when the plate came to be solved on one quadrant (6.778122850560673
    # and 0.29242187479430576 on the full-graph solve)
    assert besov_double_integral_mc(deep, 0.9, samples=20_000, seed=3) == (
        0.5255507175888771,
        0.008795157306673379,
    )
    assert besov_double_integral_mc(good, 2.0, samples=4_000, seed=5) == (
        6.778122850560693,
        0.29242187479430726,
    )


@pytest.mark.parametrize(
    "make, kind",
    [
        (lambda: sg_harmonic(0, 1, Fraction(1, 3), 5), SG),
        (lambda: sc_good_function(3).fn, SC),
        (lambda: (lambda x, y: x * x + y), SC),
    ],
    ids=["VertexFunction", "ScGoodFunction", "callable"],
)
def test_mc_beta_sequence_equals_scalar_calls_bitwise(make, kind):
    u = make()
    betas = (0.9, 1.5, 2.0)
    grid = besov_double_integral_mc(u, betas, samples=6_000, seed=11, kind=kind, depth=5)
    scalar = [
        besov_double_integral_mc(u, b, samples=6_000, seed=11, kind=kind, depth=5)
        for b in betas
    ]
    assert grid == scalar
    assert isinstance(scalar[0], tuple) and len(scalar[0]) == 2


def _anchor_coords(kind, digits):
    """The oracle fold: each row's base-corner numerators and cell rank,
    folded column by column over the whole word, as the estimator did before
    it folded each digit block once."""
    lat = kind.lattice
    ox, oy = np.array(lat.ox), np.array(lat.oy)
    gx = np.zeros(digits.shape[0], dtype=np.int64)
    gy = np.zeros(digits.shape[0], dtype=np.int64)
    rank = np.zeros(digits.shape[0], dtype=np.int64)
    for c in range(digits.shape[1]):
        d = digits[:, c]
        gx = kind.base * gx + ox[d]
        gy = kind.base * gy + oy[d]
        rank = kind.n_maps * rank + d
    return gx * lat.corner_mul, gy * lat.corner_mul, rank


def _oracle_mc(u, betas, samples, seed, kind, depth):
    """The estimator's pairs computed from both concatenated words, folded
    by _anchor_coords: the draws, the arithmetic and its order are the ones
    the estimator had before the prefix was left to cancel."""
    scale = vertex_scale(kind, depth)
    if isinstance(u, VertexFunction):
        base_values = u.as_float_array()[corner_ids_at_level(u.graph, depth)[:, 0]]
        evaluate = lambda gx, gy, rank: base_values[rank]
    else:
        den = float(kind.unit(scale))
        evaluate = lambda gx, gy, rank: np.asarray(u(gx / den, gy * kind.lattice.y_factor / den))
    K = kind.n_maps
    expos = [(kind.alpha + b) / 2.0 for b in betas]
    rng = np.random.default_rng(seed)
    per = samples // depth
    est, var = [0.0] * len(betas), [0.0] * len(betas)
    for k in range(depth):
        p_k = (1.0 - 1.0 / K) / K ** k
        common = rng.integers(0, K, size=(per, k))
        d1 = rng.integers(0, K, size=per)
        d2 = (d1 + rng.integers(1, K, size=per)) % K
        t1 = rng.integers(0, K, size=(per, depth - k - 1))
        t2 = rng.integers(0, K, size=(per, depth - k - 1))
        gx1, gy1, rank1 = _anchor_coords(kind, np.concatenate([common, d1[:, None], t1], axis=1))
        gx2, gy2, rank2 = _anchor_coords(kind, np.concatenate([common, d2[:, None], t2], axis=1))
        dx, dy = (gx1 - gx2).astype(float), (gy1 - gy2).astype(float)
        sq = kind.sq_norm(dx, dy) / float(kind.unit(scale) ** 2)
        du = evaluate(gx1, gy1, rank1) - evaluate(gx2, gy2, rank2)
        for i, expo in enumerate(expos):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                f = np.where(sq > 0.0, du * du / sq ** expo, 0.0)
                est[i] += p_k * float(f.mean())
                var[i] += p_k ** 2 * float(f.var(ddof=1)) / per
    return [
        (e, math.sqrt(v)) if math.isfinite(v) else (math.inf, math.inf)
        for e, v in zip(est, var)
    ]


_GRAPH_SG = lambda: sg_harmonic(0, 1, Fraction(1, 3), 6)
_GRAPH_SC = lambda: sc_good_function(3).fn
_CALLABLE = lambda: (lambda x, y: x * x + y)
# level 9 is past the gasket's 7-digit fold block: tails and prefixes span two
_GRAPH_SG_DEEP = lambda: sg_harmonic(0, 1, Fraction(1, 3), 9)


@pytest.mark.parametrize(
    "make, kind, depth",
    # depth 1, depth 2, below the graph's level, at it (None: the default);
    # then words of two blocks, and the deepest depths the int64 lattice holds
    [(_GRAPH_SG, SG, d) for d in (1, 2, 4, None)]
    + [(_GRAPH_SC, SC, d) for d in (1, 2, None)]
    + [(_CALLABLE, kind, d) for kind in (SG, SC) for d in (1, 2, 5, None)]
    + [(_GRAPH_SG_DEEP, SG, None), (_CALLABLE, SG, 62), (_CALLABLE, SC, 39)],
    ids=[f"sg-graph-{d}" for d in (1, 2, 4, "default")]
    + [f"sc-graph-{d}" for d in (1, 2, "default")]
    + [f"{k}-callable-{d}" for k in ("sg", "sc") for d in (1, 2, 5, "default")]
    + ["sg-graph-9", "sg-callable-62", "sc-callable-39"],
)
def test_mc_block_folds_equal_the_column_fold(make, kind, depth, monkeypatch):
    # the fold tables are read from geometry._cells, never past the block
    # length, so they hold at most 4,096 words whatever the depth
    lengths = []

    def cells(k, n, *args):
        lengths.append(n)
        return geometry._cells(k, n, *args)

    monkeypatch.setattr(besov, "_cells", cells)
    u = make()
    betas = (0.9, 2.0, 3.0, 1500.0)  # 1500: the variance overflows, (inf, inf)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = besov_double_integral_mc(u, betas, samples=3_000, seed=4, kind=kind, depth=depth)
    used = mc_depth(u, kind, depth)
    assert got == _oracle_mc(u, betas, 3_000, 4, kind, used)
    assert got[-1] == (math.inf, math.inf)
    assert all(math.isfinite(e) and e > 0 for e, _ in got[:-1])
    assert lengths and max(lengths) == min(FOLD_BLOCK[kind], used)
    assert kind.n_maps ** FOLD_BLOCK[kind] <= 4096


@given(
    st.sampled_from([SG, SC]),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=2 ** 32),
)
@settings(max_examples=80, deadline=None)
def test_fold_of_blocks_equals_the_column_fold(kind, rows, prefix, block, seed):
    # a word split into prefix and tail, each ranked block by block and read
    # through the _cells tables, folds to prefix * base**len(tail) + tail,
    # with the tail's first digit ranked alone or as the lead of its digits;
    # block = 0 is the zero-width tail of the last stratum
    digits = np.random.default_rng(seed).integers(0, kind.n_maps, size=(rows, prefix + block))
    head, rest = digits[:, :prefix], digits[:, prefix:]
    tails = [_blocks(rest, kind)]
    if block:
        tails.append(_blocks(rest[:, 1:], kind, rest[:, 0]))
    head = _blocks(head, kind)
    lat = kind.lattice
    gx, gy, rank = _anchor_coords(kind, digits)
    tables = [geometry._cells(kind, n) for n in range(FOLD_BLOCK[kind] + 1)]
    up = kind.base ** block
    K = kind.n_maps
    for tail in tails:
        assert all(n <= FOLD_BLOCK[kind] for n, _ in head + tail)
        for c, g in ((0, gx), (1, gy)):
            table = {n: t[c] for n, t in enumerate(tables)}
            folded = _fold_blocks(head, kind.base, table) * up + _fold_blocks(tail, kind.base, table)
            assert np.array_equal(lat.corner_mul * folded, g)
        assert np.array_equal(_fold_blocks(head, K) * K ** block + _fold_blocks(tail, K), rank)
        assert _fold_blocks(tail, K).shape == (rows,)


@pytest.mark.parametrize(
    "make, kind",
    [(lambda: sg_harmonic(0, 1, 0, 4), None), (lambda: (lambda x, y: x + y), SG)],
    ids=["graph", "callable"],
)
def test_mc_depth_zero_is_refused(make, kind):
    with pytest.raises(ValueError, match="depth must be >= 1"):
        besov_double_integral_mc(make(), 1.5, samples=400, kind=kind, depth=0)


@pytest.mark.parametrize("kind, deepest", [(SG, 62), (SC, 39)])
def test_mc_refuses_a_depth_past_the_int64_lattice(kind, deepest):
    # the base-corner numerators corner_mul * g and base**depth fit in int64
    # down to `deepest`; one level more would overflow the fold
    u = lambda x, y: x + y
    for est, err in besov_double_integral_mc(u, [1.5, 2.0], samples=4 * deepest,
                                             kind=kind, depth=deepest):
        assert math.isfinite(est) and math.isfinite(err)
    with pytest.raises(ValueError, match=f"depth {deepest + 1} is past {deepest}"):
        besov_double_integral_mc(u, 2.0, samples=4 * deepest, kind=kind, depth=deepest + 1)


def test_mc_depth_defaults_and_caps():
    assert mc_depth(sg_harmonic(0, 1, 0, 4), SG) == 4
    assert mc_depth(sg_harmonic(0, 1, 0, 4), SG, 2) == 2
    assert mc_depth(lambda x, y: x, SG) == 12
    assert mc_depth(lambda x, y: x, SC) == 8
    assert mc_depth(lambda x, y: x, SC, 20) == 20


def test_mc_comparable_to_discrete_sum():
    u = sg_harmonic(0, 1, 0, 5)
    disc = besov_partial_sum(u, BesovParams(beta=2.0, N=5, kind=SG))
    mc, err = besov_double_integral_mc(u, 2.0, samples=30000, seed=0, kind=SG)
    assert mc > 0
    assert 1.0 / 50.0 < disc / mc < 50.0


def test_mc_on_carpet_good_function():
    good = sc_good_function(3)
    disc = besov_partial_sum(good.fn, BesovParams(beta=2.0, N=3, kind=SC))
    mc, err = besov_double_integral_mc(good.fn, 2.0, samples=30000, seed=0, kind=SC)
    assert mc > 0
    assert 1.0 / 50.0 < disc / mc < 50.0


@pytest.mark.parametrize(
    "u, kind",
    [(lambda: sc_good_function(3).fn, SG), (lambda: sg_harmonic(0, 1, 0, 4), SC)],
    ids=["carpet-data-as-sg", "gasket-data-as-sc"],
)
def test_vertex_data_of_the_other_kind_is_refused(u, kind):
    fn = u()
    match = rf"on the {fn.graph.kind.value} graph, not on the requested {kind.value}"
    with pytest.raises(ValueError, match=match):
        besov_double_integral_mc(fn, 1.5, samples=400, kind=kind)
    with pytest.raises(ValueError, match=match):
        besov_partial_sum(fn, BesovParams(beta=1.5, N=2, kind=kind))


def test_cellgraph_terms_on_carpet_are_cell_average_energies():
    # reference: the adjacent-cell energy of the float cell averages, unscaled
    good = sc_good_function(3).fn
    params = BesovParams(beta=2.0, N=3, kind=SC, form=BesovForm.CELLGRAPH)
    terms = besov_partial_terms(good, params)
    for n, term in enumerate(terms, start=1):
        u_n = good if n == 3 else restrict_to_level(good, cached_vertex_graph(SC, n))
        e = cellgraph_edge_energy(CellFunction(SC, n, float_values(cell_averages(u_n, n).values)))
        assert term == besov_weight(SC, 2.0, n) * float(e)


def _as_floats(u):
    return VertexFunction(u.graph, u.as_float_array())


def _restricted_cellgraph_energy(u, n):
    # the level energy of the cell-graph form as it was computed before it
    # read the corner means from u's own graph: u restricted to level n's graph
    kind = u.graph.kind
    if n != u.graph.level:
        u = restrict_to_level(u, cached_vertex_graph(kind, n))
    if kind is SG:
        return sg_graph_energy_An(u, n)
    return cellgraph_edge_energy(CellFunction(SC, n, float_values(cell_averages(u, n).values)))


@pytest.mark.parametrize(
    "u",
    [
        lambda: sg_harmonic(0, 1, 0, 6),
        lambda: sg_harmonic(0.123457, -0.654321, 0.999999, 6),
        lambda: _as_floats(sg_harmonic(0, 1, 0, 6)),
        lambda: sc_good_function(3).fn,
    ],
    ids=["sg-exact", "sg-exact-wide", "sg-float", "sc"],
)
def test_cellgraph_energies_read_corner_means_from_the_top_graph(monkeypatch, u):
    fn = u()
    kind, top = fn.graph.kind, fn.graph.level
    built = []
    corner_graph = geometry._corner_graph

    def counted(kind, n, *cells):
        built.append((kind, n))
        return corner_graph(kind, n, *cells)

    monkeypatch.setattr(geometry, "_corner_graph", counted)
    cached_vertex_graph.cache_clear()
    got = [_level_energy(fn, n, BesovForm.CELLGRAPH) for n in range(1, top + 1)]
    assert built == []  # no coarser vertex graph is built
    want = [_restricted_cellgraph_energy(fn, n) for n in range(1, top + 1)]
    assert [type(e) for e in got] == [type(e) for e in want]
    if kind is SG and fn.is_exact:
        assert all(isinstance(e, Fraction) for e in got) and got == want
    else:
        assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize(
    "u", [lambda: sg_harmonic(0, 1, 0, 5), lambda: sc_good_function(3).fn], ids=["sg", "sc"]
)
def test_pointwise_terms_read_from_the_top_graph_equal_restricted_ones(u):
    # reference: each level's energy on the graph of that level, as the
    # terms were computed before they read the top graph's corner table
    fn = u()
    kind, top = fn.graph.kind, fn.graph.level
    energy = sg_pointwise_energy_Bn if kind is SG else sc_pointwise_energy_Dn
    terms = besov_partial_terms(fn, BesovParams(beta=2.0, N=top, kind=kind))
    for n, term in enumerate(terms, start=1):
        u_n = fn if n == top else restrict_to_level(fn, cached_vertex_graph(kind, n))
        assert energy(fn, n) == energy(u_n, n)
        assert term == besov_weight(kind, 2.0, n) * float(energy(u_n, n))


def test_monotone_limit_rows_increase_toward_boundary_energy():
    grid = [1.7, 1.9, 2.1, 2.3]
    rows = sg_monotone_limit(sg_harmonic(0, 1, 0, 6), grid)
    values = [v for _, v, _ in rows]
    assert values == sorted(values)
    for beta, value, drift in rows:
        lam = 2.0 ** beta / 5.0
        assert value == pytest.approx(lam * 2.0, abs=1e-8)
        assert abs(drift) < 1e-9


def test_monotone_limit_rejects_beta_outside_window():
    u = sg_harmonic(0, 1, 0, 3)
    with pytest.raises(ValueError):
        sg_monotone_limit(u, [1.0])
    with pytest.raises(ValueError):
        sg_monotone_limit(u, [SG_BETA_STAR])


def test_walkdim_estimate_exact_on_geometric_data():
    sigma = 0.6
    values = [4.0 * sigma ** n for n in range(1, 7)]
    got = walkdim_estimate(values, base=2)
    expect = SG.alpha - math.log(sigma) / math.log(2)
    assert got == pytest.approx(expect, abs=1e-12)
    # amplitude scaling leaves the estimate unchanged
    assert walkdim_estimate([10.0 * v for v in values], base=2) == pytest.approx(got, abs=1e-12)


def test_walkdim_estimate_recovers_critical_exponent():
    u = sg_harmonic(0, 1, 0, 6)
    from fractalforms.energies import sg_pointwise_energy_Bn, restrict_to_level
    vals = []
    for n in range(1, 7):
        un = restrict_to_level(u, cached_vertex_graph(SG, n)) if n < 6 else u
        vals.append(float(sg_pointwise_energy_Bn(un, n)))
    assert walkdim_estimate(vals, base=2) == pytest.approx(SG_BETA_STAR, abs=1e-10)


def test_walkdim_estimate_validation():
    with pytest.raises(ValueError):
        walkdim_estimate([1.0, 0.5], base=2)
    with pytest.raises(ValueError):
        walkdim_estimate([1.0, 0.5, 0.25], base=5)


def test_interval_trace_dominated_termwise():
    for beta1 in (2.0, 2.2):
        sg_sum, interval_sum = interval_trace_check(sg_harmonic(0, 1, 0, 6), beta1)
        assert interval_sum <= sg_sum + 1e-12
        assert interval_sum > 0


def test_interval_trace_frozen_values():
    sg_sum, interval_sum = interval_trace_check(sg_harmonic(0, 1, 0, 6), 2.2)
    assert sg_sum == pytest.approx(9.0205088270849512, rel=1e-10)
    assert interval_sum == pytest.approx(2.8360542641536099, rel=1e-10)


def test_interval_trace_rejects_out_of_window():
    with pytest.raises(ValueError):
        interval_trace_check(sg_harmonic(0, 1, 0, 3), 1.5)


def _kernel_params(**kw):
    base = dict(i=1, delta_i=0.5, gamma=8, beta_i=2.2)
    base.update(kw)
    return JumpKernelParams(**base)


def test_jump_kernel_single_term():
    params = _kernel_params()
    depth = params.required_depth()
    x = (0,) * depth
    y = (0,) + (1,) * (depth - 1)  # shared prefix of length 1, then runs
    C, a = jump_kernel_Ci(x, y, params)
    assert C == 3 ** (2 * params.gamma * params.i)
    assert a == pytest.approx(params.delta_i * C + (1 - params.delta_i))


def test_jump_kernel_stacked_levels():
    params = _kernel_params()
    depth = params.required_depth()
    x = (0,) * depth
    y = (0,) * (depth - 1) + (1,)
    C, _ = jump_kernel_Ci(x, y, params)
    # all-zero words share every prefix; the changed last digit only breaks
    # the run of the top probed level, which ends exactly at the last index
    expect = sum(3 ** (2 * params.run_length(n)) for n in range(1, params.phi_value()))
    assert C == expect


def test_jump_kernel_disjoint_pair():
    params = _kernel_params()
    depth = params.required_depth()
    x = (0,) * depth
    y = (2,) * depth
    C, a = jump_kernel_Ci(x, y, params)
    assert C == 0
    assert a == pytest.approx(1 - params.delta_i)


def test_jump_kernel_needs_full_depth():
    params = _kernel_params()
    with pytest.raises(ValueError):
        jump_kernel_Ci((0, 1), (0, 2), params)


def test_jump_kernel_validation():
    with pytest.raises(ValueError):
        _kernel_params(delta_i=1.5)
    with pytest.raises(ValueError):
        _kernel_params(gamma=2)  # below 2*alpha/(beta_i - alpha)
    with pytest.raises(ValueError):
        _kernel_params(i=0)


def test_jump_kernel_phi_default_meets_constraint():
    params = _kernel_params()
    slack = 1.0 - 2.0 ** params.beta_i / 5.0
    assert slack * params.phi_value() >= params.i - 1e-12
