import hashlib
import itertools
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from fractalforms import treewalk
from fractalforms.geometry import cell_graph
from fractalforms.kinds import FractalKind
from fractalforms.networks import solve_dirichlet
from fractalforms.treewalk import (
    TAIL,
    _closure,
    _closure_solves,
    _edge_arrays,
    _edge_blocks,
    _graph_distance,
    _level_offset,
    _levels,
    _solver_allowance,
    _sphere,
    _word_id,
    WalkParams,
    boundary_hit_distribution,
    build_tables,
    ctrw_lifetime,
    ctrw_lifetime_closed_form,
    ctrw_truncation_bias,
    detailed_balance_residual,
    green_oo,
    gromov_product,
    hitting_prob_F,
    horizontal_conductance,
    martin_kernel_check,
    rho_a,
    vertical_conductance,
)
from oracles import unpack_word

word_st = st.text(alphabet="012", min_size=0, max_size=6)


def _params(**kw):
    base = dict(lam=0.5, seed=0, samples=4000, depth_cut=8)
    base.update(kw)
    return WalkParams(**base)


def test_params_validation():
    with pytest.raises(ValueError):
        WalkParams(lam=0.0)
    with pytest.raises(ValueError):
        WalkParams(lam=1.0)
    with pytest.raises(ValueError):
        WalkParams(lam=0.5, c=0.7)  # needs c < lam
    with pytest.raises(ValueError):
        WalkParams(lam=0.5, depth_cut=1)
    p = WalkParams(lam=0.5, c=0.25)
    assert p.require_c() == 0.25
    with pytest.raises(ValueError):
        WalkParams(lam=0.5).require_c()


def test_tree_ids_and_levels():
    assert _word_id("") == 0
    assert _word_id("0") == 1
    assert _word_id("2") == 3
    assert _word_id("00") == 4
    assert _levels(4)[_word_id("0212")] == 4
    assert len(_sphere(2)) == 9
    assert _sphere(4)[-1] == _level_offset(5) - 1 == len(_levels(4)) - 1


@given(word_st)
@settings(max_examples=60)
def test_tree_id_roundtrip(w):
    # the id alone gives back the level and, through unpack_word, the word
    i = _word_id(w)
    n = int(_levels(6)[i])
    assert unpack_word(FractalKind.SG, i - _level_offset(n), n) == tuple(int(d) for d in w)


def test_conductance_values():
    p = _params()
    assert vertical_conductance(p, 0) == 1.0
    assert vertical_conductance(p, 2) == pytest.approx((3 * 0.5) ** -2)
    # horizontal edges at level n scale like the verticals
    h1 = horizontal_conductance(p, 1, "I")
    assert h1 == pytest.approx(p.C1 / 1.5)
    h2 = horizontal_conductance(p, 2, "II")
    assert h2 == pytest.approx(p.C2 / 1.5 ** 2)


def test_horizontal_edges_match_cell_contacts():
    # level 1: the three cells touch pairwise (type I contacts); at level 2
    # the cells 01 and 10 touch at a type II contact
    p = _params(C1=2.0, C2=5.0)
    ii, jj, w = _edge_arrays(p, 2)
    weight = dict(zip(zip(ii.tolist(), jj.tolist()), w.tolist()))
    assert weight[_word_id("0"), _word_id("1")] == pytest.approx(2.0 / 1.5)
    assert weight[_word_id("01"), _word_id("10")] == pytest.approx(5.0 / 1.5 ** 2)


def test_detailed_balance_small_graph():
    for lam in (0.3, 0.5, 0.9):
        res = detailed_balance_residual(_params(lam=lam, depth_cut=4))
        assert res < 1e-13


def _detailed_balance_loop(params):
    # the per-edge loop the vectorised residual replaced, on per-vertex rows
    tables = build_tables(params)
    cum = tables.cum[tables.cls]
    prob = np.diff(np.concatenate([np.zeros((cum.shape[0], 1)), cum], axis=1), axis=1)
    worst = 0.0
    V, W = tables.nbr.shape
    for i in range(V):
        for k in range(W):
            j = int(tables.nbr[i, k])
            if j < 0 or j < i:
                continue
            flow_ij = tables.pi[i] * prob[i, k]
            back = np.nonzero(tables.nbr[j] == i)[0]
            flow_ji = tables.pi[j] * prob[j, back[0]]
            worst = max(worst, abs(flow_ij - flow_ji))
    return worst


@pytest.mark.parametrize("depth", [4, 6])
def test_detailed_balance_residual_equals_loop_reference(depth):
    p = _params(lam=0.5, C1=2.0, C2=0.3, depth_cut=depth)
    assert detailed_balance_residual(p) == _detailed_balance_loop(p)


def test_hitting_prob_brackets_contain_lambda_powers():
    for lam in (0.25, 0.5):
        p = _params(lam=lam)
        for w in ("", "0", "12", "021"):
            lo, hi = hitting_prob_F(w, p)
            assert lo <= lam ** len(w) <= hi
            assert hi - lo < 5e-3


def test_hitting_prob_bracket_width_shrinks_with_depth():
    p8 = _params(depth_cut=8)
    p11 = _params(depth_cut=11)
    w = "01"
    lo8, hi8 = hitting_prob_F(w, p8)
    lo11, hi11 = hitting_prob_F(w, p11)
    assert hi11 - lo11 < hi8 - lo8


def test_hitting_prob_rejects_words_at_cut():
    p = _params(depth_cut=4)
    with pytest.raises(ValueError):
        hitting_prob_F("0120", p)


def test_green_exact_bracket():
    for lam in (0.25, 0.5):
        g = green_oo(_params(lam=lam), mode="exact")
        expect = 1.0 / (1.0 - lam)
        assert g["lower"] <= expect <= g["upper"]
        assert g["upper"] - g["lower"] < 0.05 * expect


@pytest.mark.parametrize("lam", [0.25, 0.5, 0.9])
@pytest.mark.parametrize("C1, C2", [(1.0, 1.0), (2.0, 0.3)])
def test_radial_closures_match_superlu_oracle(lam, C1, C2):
    # the oracle factors each full closure and reads R off the energy
    depth = 10
    p = WalkParams(lam=lam, C1=C1, C2=C2, depth_cut=depth)
    radial = _closure_solves(lam, C1, C2, depth)
    level = np.repeat(np.arange(depth + 2), [3 ** n for n in range(depth + 1)] + [1])
    words = ("0", "12", "021", "2101", "000000000")
    old_ends, old_f = [], []
    for mode, (v, pad, R, _) in zip(("ground", "tail"), radial):
        n, ii, jj, cc, ground = _closure(p, depth, mode)
        fixed = np.concatenate([[0], ground])
        old_v, info = solve_dirichlet(
            n, ii, jj, cc, fixed, np.concatenate([[1.0], np.zeros(len(ground))])
        )
        d = old_v[ii] - old_v[jj]
        old_R = 1.0 / float(np.sum(cc * d * d))
        assert np.max(np.abs(v[level[:n]] - old_v)) <= 1e-14
        assert abs(R - old_R) <= 1e-14 * old_R
        old_pad = _solver_allowance(info["residual"])
        sign = -1.0 if mode == "ground" else 1.0
        dpad = abs(pad - old_pad)
        old_ends.append((3.0 * old_R + sign * old_pad, dpad))
        old_f.append([(old_v[_word_id(w)] + sign * old_pad, dpad) for w in words])
    # bracket ends move by rounding and by the change of solver allowance
    for new, (old, dpad) in zip(green_oo(p, mode="exact").values(), old_ends):
        assert abs(new - old) <= 1e-14 + dpad
    for w, lo_old, hi_old in zip(words, *old_f):
        for new, (old, dpad) in zip(hitting_prob_F(w, p), (lo_old, hi_old)):
            assert abs(new - old) <= 1e-14 + dpad


def test_closure_solve_cache_ignores_simulation_params():
    _closure_solves.cache_clear()
    a = _params(lam=0.4, depth_cut=5, seed=1)
    b = _params(lam=0.4, depth_cut=5, seed=2)
    assert green_oo(a, mode="exact") == green_oo(b, mode="exact")
    info = _closure_solves.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    c = _params(lam=0.4, depth_cut=5, samples=10, step_cap=7)
    hitting_prob_F("01", c)
    assert _closure_solves.cache_info().misses == 1


def test_green_mc_agrees_with_closed_form():
    p = _params(lam=0.5, samples=20000)
    g = green_oo(p, mode="mc")
    z = (g["mean"] - 2.0) / g["stderr"]
    assert abs(z) < 4.0
    assert g["paths"] == 20000


def test_green_mc_deterministic_given_seed():
    p = _params(lam=0.5, samples=3000)
    a = green_oo(p, mode="mc")
    b = green_oo(p, mode="mc")
    assert a == b
    c = green_oo(_params(lam=0.5, samples=3000, seed=5), mode="mc")
    assert a != c


def test_seeds_past_2_63_draw_their_own_paths():
    # the Philox key is two uint64 words: a seed past 2^63 must not pass
    # through a float, where 2^63 + 1 and 2^63 + 2 round to one key
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b = (green_oo(_params(seed=2 ** 63 + k, samples=300, depth_cut=5), mode="mc")
                for k in (1, 2))
    assert a != b
    for bad in (-1, 2 ** 64):
        with pytest.raises(ValueError, match="seed"):
            _params(seed=bad)


@pytest.mark.parametrize("key", ["C1", "C2"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_walk_params_refuse_non_finite_weights(key, value):
    with pytest.raises(ValueError, match="finite"):
        _params(**{key: value})


def test_walk_params_refuse_weights_whose_closure_sums_overflow():
    # (3 lam)^-6 is a float at these lam, but the 3^6 tail resistors of the
    # tree-tail closure, in parallel, are not
    for lam in (3e-52, 2e-52):
        with pytest.raises(ValueError, match=f"closure link .* overflows a float at lam = {lam}"):
            _params(lam=lam, depth_cut=6)
    with pytest.raises(ValueError, match="overflows a float at C1 = 1e\\+308"):
        _params(lam=0.3, C1=1e308, depth_cut=6)
    with pytest.raises(ValueError, match="overflows a float at C2 = 1e\\+308"):
        _params(lam=0.3, C2=1e308, depth_cut=6)
    # just inside: every link and vertex total is a float
    _params(lam=1e-51, depth_cut=6)
    _params(lam=0.3, C1=1e307, depth_cut=6)


def test_walk_params_refuse_a_lam_whose_conductance_overflows():
    # (3 lam)^-depth_cut, the vertical conductance at the depth cut, must be
    # a finite float: past it the closures overflowed with a traceback
    with pytest.raises(ValueError, match="overflows"):
        _params(lam=1e-320, depth_cut=6)
    with pytest.raises(ValueError, match="overflows"):
        _params(lam=1e-30, depth_cut=12)
    # the closures build their parameters at the walk's own depth cut
    p = _params(lam=1e-30, depth_cut=6)
    bracket = green_oo(p, mode="exact")
    assert bracket["lower"] <= 1.0 / (1.0 - p.lam) <= bracket["upper"]


def test_boundary_hit_distribution_first_digit():
    p = _params(lam=0.5, samples=6000, depth_cut=8)
    out = boundary_hit_distribution(p, m=1)
    freqs = np.asarray(out["freqs"])
    assert freqs.shape == (3,)
    assert abs(freqs.sum() - 1.0) < 1e-12
    sigma = math.sqrt((1 / 3) * (2 / 3) / out["samples_used"])
    assert np.abs(freqs - 1 / 3).max() < 4 * sigma
    assert out["overflowed"] == 0


def test_ctrw_lifetime_closed_form_values():
    assert ctrw_lifetime_closed_form(_params(c=0.25)) == pytest.approx(8.0 / 9.0)
    p = _params(lam=0.9, c=0.1)
    assert ctrw_lifetime_closed_form(p) == pytest.approx(100.0 / 27.0)


def test_ctrw_lifetime_mc_matches_closed_form():
    p = _params(lam=0.5, c=0.25, samples=6000, depth_cut=8)
    out = ctrw_lifetime(p)
    expect = ctrw_lifetime_closed_form(p) - ctrw_truncation_bias(p, p.depth_cut)
    assert abs(out["mean"] - expect) < 4.0 * out["stderr"] + 1e-9
    assert (out["paths"], out["overflowed"]) == (6000, 0)


def test_ctrw_truncation_bias_is_negligible_at_depth():
    p = _params(lam=0.5, c=0.25)
    assert ctrw_truncation_bias(p, 12) < 1e-7
    assert ctrw_truncation_bias(p, 4) > ctrw_truncation_bias(p, 8)


def test_gromov_product_values():
    assert gromov_product("", "012") == 0
    assert gromov_product("0", "1") == Fraction(1, 2)
    assert gromov_product("00", "01") == Fraction(3, 2)
    assert gromov_product("012", "012") == 3
    # symmetric
    assert gromov_product("02", "21") == gromov_product("21", "02")


def test_rho_a_quasi_metric():
    assert rho_a("01", "01", 0.5) == 0.0
    assert rho_a("", "0", 0.5) == pytest.approx(1.0)  # product 0 at the root
    assert rho_a("00", "01", 0.5) == pytest.approx(math.exp(-0.75))
    with pytest.raises(ValueError):
        rho_a("0", "1", 0.0)


def test_rho_a_quasi_ultrametric_inequality():
    # empirical slack in the Gromov products stays below one level
    rng = random.Random(7)

    def rand_word():
        n = rng.randint(0, 5)
        return "".join(rng.choice("012") for _ in range(n))

    for _ in range(300):
        x, y, z = rand_word(), rand_word(), rand_word()
        for a in (0.1, 0.25, 0.5):
            m = max(rho_a(x, z, a), rho_a(z, y, a))
            if m == 0:
                continue
            assert rho_a(x, y, a) <= math.exp(a) * m * (1 + 1e-12)


def test_martin_kernel_comparable_to_target():
    p = _params(lam=0.5, depth_cut=10)
    out = martin_kernel_check(p, xs=["0", "1", "01"], xis_as_deep_words=["00", "22"])
    assert out["ratio_min"] > 1.0 / 10.0
    assert out["ratio_max"] < 10.0
    assert out["spread"] == pytest.approx(out["ratio_max"] / out["ratio_min"])
    with pytest.raises(ValueError):  # an x below the ball has no vertex id
        martin_kernel_check(_params(depth_cut=4), xs=["00000"], xis_as_deep_words=["00"])


def test_build_tables_row_normalization():
    p = _params(depth_cut=5)
    tables = build_tables(p)
    assert tables.cls.shape[0] == (3 ** 6 - 1) // 2
    assert tables.cum.shape[0] == tables.cls.max() + 1
    assert np.allclose(tables.cum[:, -1], 1.0)
    assert (tables.pi > 0).all()


def _per_vertex_tables(params, depth, tail):
    # the construction the class tables replaced: one float row per vertex
    V = _level_offset(depth + 1)
    ii, jj, cc = _edge_arrays(params, depth)
    ends = np.concatenate([ii, jj])
    oths = np.concatenate([jj, ii])
    ws = np.concatenate([cc, cc])
    if tail:
        sphere = _sphere(depth)
        ends = np.concatenate([ends, sphere])
        oths = np.concatenate([oths, np.full(len(sphere), TAIL, dtype=np.int64)])
        ws = np.concatenate([ws, np.full(len(sphere), 3.0 * vertical_conductance(params, depth))])
    order = np.argsort(ends, kind="stable")
    ends_s, oths_s, ws_s = ends[order], oths[order], ws[order]
    deg = np.bincount(ends, minlength=V)
    W = int(deg.max())
    starts = np.concatenate([[0], np.cumsum(deg)[:-1]])
    col = np.arange(len(ends_s)) - starts[ends_s]
    nbr = np.full((V, W), -1, dtype=np.int32)
    wts = np.zeros((V, W), dtype=np.float64)
    nbr[ends_s, col] = oths_s
    wts[ends_s, col] = ws_s
    pi = wts.sum(axis=1)
    cum = np.cumsum(wts, axis=1) / pi[:, None]
    cum[:, -1] = 1.0
    return nbr, cum, pi


@pytest.mark.parametrize("tail", [False, True])
def test_class_tables_match_per_vertex_rows_bitwise(tail):
    # without tail entries the oracle holds the rows below the sphere, the
    # only rows a walk that stops at the sphere reads
    p = _params(lam=0.5, C1=2.0, C2=0.3, depth_cut=6)
    tables = build_tables(p)
    nbr, cum, pi = _per_vertex_tables(p, 6, tail)
    rows = slice(None) if tail else slice(_level_offset(6))
    assert np.array_equal(tables.nbr[rows], nbr[rows])
    assert tables.cum[tables.cls[rows]].tobytes() == cum[rows].tobytes()
    assert tables.pi[rows].tobytes() == pi[rows].tobytes()
    # every class row ends at exactly 1.0 in its last real column
    last = (tables.nbr != -1).sum(axis=1) - 1
    assert (tables.cum[tables.cls, last] == 1.0).all()
    assert len(tables.cum) <= 7 * (6 + 1)  # a few classes per level, not per vertex


def test_build_tables_cache_ignores_simulation_params():
    # tables depend on (lam, C1, C2, depth) only
    a = _params(lam=0.37, C1=1.3, seed=1, samples=100, depth_cut=4)
    b = _params(lam=0.37, C1=1.3, seed=2, samples=900, depth_cut=4)
    before = build_tables.cache_info()
    first = build_tables(a)
    mid = build_tables.cache_info()
    second = build_tables(b)
    after = build_tables.cache_info()
    assert (mid.misses - before.misses, mid.hits - before.hits) == (1, 0)
    assert (after.misses - mid.misses, after.hits - mid.hits) == (0, 1)
    assert second is first


def test_build_tables_peak_memory_is_a_few_tables():
    # the level-by-level build holds one level's scratch next to the tables;
    # one global sort of all directed edges peaked at 11x the tables
    depth = 8
    for n in range(1, depth + 1):
        cell_graph(FractalKind.SG, n)
    treewalk._tables.cache_clear()
    tracemalloc.start()
    try:
        tables = build_tables(_params(lam=0.5, C1=2.0, C2=0.3, depth_cut=depth))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(a.nbytes for a in (tables.nbr, tables.cls, tables.cum, tables.pi))
    assert peak <= 4 * size


def test_closure_certificate_peak_memory_is_a_few_ball_vectors():
    # the certificate sums one level's edge block at a time; the global edge
    # arrays of both closures peaked at 25.6 vectors of the ball
    depth = 8
    for n in range(1, depth + 1):
        cell_graph(FractalKind.SG, n)
    _closure_solves.cache_clear()
    tracemalloc.start()
    try:
        _closure_solves(0.5, 2.0, 0.3, depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 8 * _level_offset(depth + 1)


# sha256 of each closure's edge arrays (dtype name, then bytes; ground, then
# tail) at depth 7, recorded when every level's horizontal edges were one block
EDGE_ARRAYS_DIGEST = "75bc9091384487fdf9b298505211f87d12f4870aa127867cd3a8fd4b1362cc7a"


def _closure_residuals(depth):
    return [r for *_, r in _closure_solves.__wrapped__(0.5, 2.0, 0.3, depth)]


@pytest.mark.parametrize("block", [treewalk.EDGE_BLOCK, 100, 7])
def test_horizontal_edge_slices_leave_the_closures_unchanged(monkeypatch, block):
    # each level's horizontal edges come as contiguous slices of at most
    # EDGE_BLOCK edges; the edge arrays and the certificates keep their bits
    depth = 7
    params = _params(lam=0.5, C1=2.0, C2=0.3, depth_cut=depth)
    whole = _closure_residuals(depth)
    monkeypatch.setattr(treewalk, "EDGE_BLOCK", block)
    per_level = [len(cell_graph(FractalKind.SG, n).edges) for n in range(1, depth + 1)]
    slices = [min(block, e - a) for e in per_level for a in range(0, e, block)]
    h = hashlib.sha256()
    for mode in ("ground", "tail"):
        sizes = [len(ii) for ii, _, _ in _edge_blocks(params, depth, mode)]
        assert sizes[depth : depth + len(slices)] == slices
        assert len(sizes) == depth + len(slices) + (mode == "tail")
        for a in _edge_arrays(params, depth, mode):
            h.update(str(a.dtype).encode())
            h.update(a.tobytes())
    assert h.hexdigest() == EDGE_ARRAYS_DIGEST
    assert _closure_residuals(depth) == whole


def test_depth_cut_10_has_one_horizontal_block_per_level():
    blocks = _edge_blocks(_params(depth_cut=10), 10, "tail")
    assert sum(1 for _ in blocks) == 10 + 10 + 1


# sha256 of the seeded outputs below, recorded from the three per-estimator
# loops the engine replaced, run on their default 4 streams Philox(key=[seed, k])
MC_DIGEST = "7435a5ea82adda360e8e255ecfe737e5ad3c213db7cfaad026b2ec7af4f5846c"


def test_mc_engine_reproduces_recorded_streams():
    p = WalkParams(lam=0.5, c=0.25, seed=3, samples=2000, depth_cut=6)
    g = green_oo(p, mode="mc")
    hit = boundary_hit_distribution(p, m=2)
    life = ctrw_lifetime(p)
    h = hashlib.sha256()
    h.update(np.array([g["mean"], g["stderr"]], dtype=np.float64).tobytes())
    h.update(np.asarray(hit["counts"], dtype=np.int64).tobytes())
    h.update(np.array([life["mean"], life["stderr"]], dtype=np.float64).tobytes())
    assert h.hexdigest() == MC_DIGEST


# sha256 of the depth-10 outputs at both benchmark lambdas, recorded from
# the per-chunk loop on per-vertex tables that the lockstep engine replaced
MC_DIGEST_DEPTH_10 = "4f1dab8405ff6a151c92c7fb0a133c549d23144088eb357899e9a3f8897ae348"


def test_mc_engine_reproduces_recorded_streams_at_depth_10():
    h = hashlib.sha256()
    for lam, c, m in ((0.5, 0.25, 2), (0.8, 0.5, 3)):
        p = WalkParams(lam=lam, c=c, seed=7, samples=2000, depth_cut=10)
        g = green_oo(p, mode="mc")
        hit = boundary_hit_distribution(p, m=m)
        life = ctrw_lifetime(p)
        h.update(np.array([g["mean"], g["stderr"]], dtype=np.float64).tobytes())
        h.update(np.asarray(hit["counts"], dtype=np.int64).tobytes())
        h.update(np.array([life["mean"], life["stderr"]], dtype=np.float64).tobytes())
    assert h.hexdigest() == MC_DIGEST_DEPTH_10


def test_green_and_lifetime_return_the_same_keys():
    p = _params(c=0.25, samples=200, depth_cut=5)
    keys = {"mean", "stderr", "paths", "overflowed", "path_steps"}
    assert set(green_oo(p, mode="mc")) == keys
    assert set(ctrw_lifetime(p)) == keys


@pytest.mark.parametrize("step_cap, cut", [(20, True), (WalkParams.step_cap, False)])
def test_every_estimator_counts_paths_cut_at_step_cap(step_cap, cut):
    p = _params(lam=0.9, c=0.1, samples=500, depth_cut=6, step_cap=step_cap)
    overflowed = (
        green_oo(p, mode="mc")["overflowed"],
        boundary_hit_distribution(p, m=1)["overflowed"],
        ctrw_lifetime(p)["overflowed"],
    )
    if cut:
        assert all(n > 0 for n in overflowed)
    else:
        assert overflowed == (0, 0, 0)


# sha256 of the int64 distance matrix over all words of length <= 3 in id
# order, recorded before the shortest paths went through scipy's csgraph;
# the numpy breadth-first search of _graph_distance computes it again
DISTANCE_DIGEST = "0a4e9bffc0ab9ea4f2ab834ba3c8d700a681718bffef5f0c7878ff928f1e63aa"


def test_graph_distance_matches_recorded_matrix():
    words = [w for n in range(4) for w in itertools.product(range(3), repeat=n)]
    D = np.array([[_graph_distance(x, y) for y in words] for x in words], dtype=np.int64)
    assert hashlib.sha256(D.tobytes()).hexdigest() == DISTANCE_DIGEST
