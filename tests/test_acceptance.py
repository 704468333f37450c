"""Acceptance gate: twelve numbered checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Every check recomputes its numbers from scratch at the stated
tolerances; nothing here reads frozen fixtures.
"""

import itertools
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fractalforms.kinds import FractalKind
from fractalforms.geometry import cached_vertex_graph
from fractalforms.energies import (
    CellFunction,
    cell_averages,
    mean_value_Mnm,
    restrict_to_level,
    sg_cellgraph_energy_Gn,
    sg_graph_energy_An,
    sg_pointwise_energy_Bn,
)
from fractalforms.networks import (
    WeightedNetwork,
    delta_to_wye,
    effective_resistance,
    rho_estimate,
    sc_RnV,
    sg_word_resistance,
    wye_to_delta,
)
from fractalforms.harmonic import (
    harnack_ball,
    harnack_ratio,
    sc_good_function,
    sg_harmonic,
    strip_energy_checks,
)
from fractalforms.besov import (
    SG_BETA_STAR,
    BesovParams,
    besov_double_integral_mc,
    besov_partial_sum,
    sg_monotone_limit,
    walkdim_estimate,
)
from fractalforms.treewalk import (
    WalkParams,
    boundary_hit_distribution,
    ctrw_lifetime,
    ctrw_lifetime_closed_form,
    green_oo,
    hitting_prob_F,
)

SG = FractalKind.SG
SC = FractalKind.SC
SC_RHO_TARGET = 1.25148


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {status} - {detail}", flush=True)
    return ok


@pytest.fixture(scope="module")
def sc_resistance_series():
    """Left-right resistances of the carpet vertex graphs, n = 1..6."""
    t0 = time.time()
    values = [sc_RnV(n).resistance for n in range(1, 7)]
    return values, time.time() - t0


def test_criterion_01_sg_resistance_closed_form():
    t0 = time.time()
    worst = 0.0
    for n in range(1, 7):
        expect = (5.0 / 3.0) ** n - 1.0
        got = sg_word_resistance(n).resistance
        worst = max(worst, abs(got - expect) / expect)
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    assert _report(1, ok, f"max rel err {worst:.2e} over n=1..6, {elapsed:.1f}s")


def test_criterion_02_delta_wye_exactness_and_invariance():
    exact = delta_to_wye(Fraction(1), Fraction(1), Fraction(1)) == (
        Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    rng = np.random.default_rng(2024)
    round_err = 0.0
    for _ in range(50):
        a, b, c = rng.uniform(0.1, 10.0, size=3)
        back = wye_to_delta(*delta_to_wye(a, b, c))
        round_err = max(round_err, *(abs(x - y) / y for x, y in zip(back, (a, b, c))))
    inv_err = 0.0
    for trial in range(50):
        net = WeightedNetwork()
        for u, v in ((0, 1), (1, 2), (0, 2)):
            net.add_edge(u, v, rng.uniform(0.2, 5.0))
        for v in range(1, 7):
            net.add_edge(v - 1, v, rng.uniform(0.2, 5.0))
        for _ in range(5):
            u, v = rng.integers(0, 7, size=2)
            if u != v:
                net.add_edge(int(u), int(v), rng.uniform(0.2, 5.0))
        before = effective_resistance(net, [3], [6]).resistance
        net.substitute_delta_with_wye(0, 1, 2, center=("c", trial))
        after = effective_resistance(net, [3], [6]).resistance
        inv_err = max(inv_err, abs(before - after))
    ok = exact and round_err < 1e-12 and inv_err < 1e-10
    assert _report(2, ok, f"unit star exact={exact}, roundtrip {round_err:.2e}, "
                          f"invariance {inv_err:.2e} over 50 networks")


def test_criterion_03_sg_harmonic_energies_exact():
    rng = np.random.default_rng(33)
    triples = [(Fraction(0), Fraction(1), Fraction(0))]
    while len(triples) < 21:
        t = tuple(Fraction(int(p), int(q)) for p, q in
                  zip(rng.integers(-9, 10, size=3), rng.integers(1, 10, size=3)))
        if len(set(t)) > 1:  # non-constant boundary
            triples.append(t)
    checked = 0
    bad = 0
    for x0, x1, x2 in triples:
        u6 = sg_harmonic(x0, x1, x2, 6)
        S = (x0 - x1) ** 2 + (x0 - x2) ** 2 + (x1 - x2) ** 2
        for n in range(1, 7):
            un = u6 if n == 6 else restrict_to_level(u6, cached_vertex_graph(SG, n))
            q = Fraction(3, 5) ** n
            if sg_pointwise_energy_Bn(un, n) != q * S:
                bad += 1
            if sg_graph_energy_An(un, n) != Fraction(2, 3) * (q - q * q) * S:
                bad += 1
            checked += 2
    ok = bad == 0
    assert _report(3, ok, f"{checked - bad}/{checked} exact identities over "
                          f"21 boundary triples, n<=6")


def test_criterion_04_mean_value_energy_bound():
    rng = np.random.default_rng(44)
    pairs = [(n, m) for n in range(1, 5) for m in range(1, 5) if n + m <= 5]
    violations = 0
    worst = 0.0
    for n, m in pairs:
        n_cells = 3 ** (n + m)
        for _ in range(200):
            u = CellFunction(SG, n + m, rng.standard_normal(n_cells))
            coarse = mean_value_Mnm(u, m)
            gf = sg_cellgraph_energy_Gn(u)
            gc = sg_cellgraph_energy_Gn(coarse)
            if gc > 36.0 * gf + 1e-12:
                violations += 1
            if gf > 0:
                worst = max(worst, gc / gf)
    ok = violations == 0
    assert _report(4, ok, f"0 of {200 * len(pairs)} draws exceed 36x "
                          f"(max observed ratio {worst:.2f})")


def test_criterion_05_sc_strip_energies_exact():
    ok = True
    for n in range(1, 6):
        full, cantor = strip_energy_checks(n)
        ok = ok and full == Fraction(6, 7) ** n and cantor == Fraction(2, 3) ** n
    assert _report(5, ok, "pointwise (6/7)^n and Cantor-strip (2/3)^n exact, n<=5")


def test_criterion_06_sc_resistance_scaling(sc_resistance_series):
    values, elapsed = sc_resistance_series
    ratios = [values[i + 1] / values[i] for i in range(5)]
    in_band = all(7.0 / 6.0 <= r <= 3.0 / 2.0 for r in ratios)
    est = rho_estimate(range(1, 7), values, fit_from=2)
    rel = abs(est.rho_hat - SC_RHO_TARGET) / SC_RHO_TARGET
    ok = in_band and rel < 0.05 and elapsed < 600.0
    assert _report(6, ok, f"ratios in [7/6,3/2]={in_band}, rho_hat={est.rho_hat:.6f} "
                          f"({100 * rel:.3f}% off target), {elapsed:.0f}s")


def test_criterion_07_walk_dimension_estimates(sc_resistance_series):
    u = sg_harmonic(0, 1, 0, 6)
    sg_vals = []
    for n in range(1, 7):
        un = u if n == 6 else restrict_to_level(u, cached_vertex_graph(SG, n))
        sg_vals.append(float(sg_pointwise_energy_Bn(un, n)))
    sg_hat = walkdim_estimate(sg_vals, base=2)
    sg_err = abs(sg_hat - math.log(5) / math.log(2))
    values, _ = sc_resistance_series
    # good-function energies are the reciprocals of the plate resistances
    sc_vals = [1.0 / v for v in values[1:]]
    sc_hat = walkdim_estimate(sc_vals, base=3, ns=range(2, 7))
    est = rho_estimate(range(1, 7), values, fit_from=2)
    formula = math.log(8 * est.rho_hat) / math.log(3)
    sc_err = abs(sc_hat - formula)
    ok = sg_err < 1e-10 and sc_err < 1e-6
    assert _report(7, ok, f"gasket err {sg_err:.2e} vs log5/log2; "
                          f"carpet {sc_hat:.6f} vs log(8 rho_hat)/log3 err {sc_err:.2e}")


def test_criterion_08_monotone_limit_curve():
    alpha = SG.alpha
    grid = np.linspace(alpha + 0.01, SG_BETA_STAR - 0.001, 20)
    rows = sg_monotone_limit(sg_harmonic(0, 1, 0, 6), [float(b) for b in grid])
    values = [v for _, v, _ in rows]
    nondecreasing = all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    worst = max(abs(v - (2.0 ** b / 5.0) * 2.0) for b, v, _ in rows)
    approaches = 1.99 < values[-1] < 2.0
    ok = nondecreasing and worst < 1e-8 and approaches
    assert _report(8, ok, f"nondecreasing={nondecreasing}, max |value - lam*S| "
                          f"= {worst:.2e}, end value {values[-1]:.4f} -> S=2")


def test_criterion_09_walk_brackets_green_and_hits():
    words = [""] + [
        "".join(p)
        for length in range(1, 5)
        for p in itertools.product("012", repeat=length)
    ]
    bracket_ok = True
    max_width = 0.0
    for lam in (0.25, 1.0 / 3.0, 0.5):
        p = WalkParams(lam=lam, seed=0, samples=100_000, depth_cut=12)
        for w in words:
            lo, hi = hitting_prob_F(w, p)
            width = hi - lo
            max_width = max(max_width, width)
            if not (lo <= lam ** len(w) <= hi and width < 1e-3):
                bracket_ok = False
    green_ok = True
    worst_z = 0.0
    for lam in (0.25, 1.0 / 3.0, 0.5):
        p = WalkParams(lam=lam, seed=0, samples=100_000, depth_cut=12)
        g = green_oo(p, mode="mc")
        z = (g["mean"] - 1.0 / (1.0 - lam)) / g["stderr"]
        worst_z = max(worst_z, abs(z))
        if abs(z) > 3.0:
            green_ok = False
    p = WalkParams(lam=0.5, seed=0, samples=100_000, depth_cut=12)
    hit = boundary_hit_distribution(p, m=2)
    freqs = np.asarray(hit["freqs"])
    sigma = math.sqrt((1.0 / 9.0) * (8.0 / 9.0) / hit["samples_used"])
    hit_dev = float(np.abs(freqs - 1.0 / 9.0).max())
    hit_ok = hit_dev < 3.0 * sigma
    ok = bracket_ok and green_ok and hit_ok
    assert _report(9, ok, f"121 brackets contain lam^|x| (max width {max_width:.1e}), "
                          f"Green worst |z|={worst_z:.2f}, hit max dev {hit_dev:.4f} "
                          f"< 3sigma={3 * sigma:.4f}")


def test_criterion_10_ctrw_lifetime():
    details = []
    ok = True
    for lam, c in ((0.5, 0.25), (0.9, 0.1)):
        p = WalkParams(lam=lam, c=c, seed=0, samples=100_000, depth_cut=12)
        life = ctrw_lifetime(p)
        z = (life["mean"] - ctrw_lifetime_closed_form(p)) / life["stderr"]
        details.append(f"(lam={lam},c={c}): z={z:+.2f}")
        if abs(z) > 3.0:
            ok = False
    assert _report(10, ok, "MC mean vs 1/(3(1-lam)(1-c)): " + ", ".join(details))


def test_criterion_11_seminorm_equivalence():
    C = 50.0
    fns_sg = {
        "harmonic-010": sg_harmonic(0, 1, 0, 6),
        "harmonic-102": sg_harmonic(1, 0, 2, 6),
        "coordinate-x": lambda px, py: px,
    }
    fns_sc = {
        "good-function": sc_good_function(4).fn,
        "coordinate-x": lambda px, py: px,
        "coordinate-y": lambda px, py: py,
    }
    lo, hi = math.inf, 0.0
    count = 0
    for kind, fns, N in ((SG, fns_sg, 6), (SC, fns_sc, 4)):
        for fn in fns.values():
            for beta in (1.9, 2.0, 2.1):
                disc = besov_partial_sum(fn, BesovParams(beta=beta, N=N, kind=kind))
                with warnings.catch_warnings():
                    # beta=2.1 sits just above the carpet's critical exponent
                    # (~2.097); both sums stay finite at the probed depth and
                    # the comparison is still the stated ratio band
                    warnings.simplefilter("ignore", RuntimeWarning)
                    mc, _ = besov_double_integral_mc(
                        fn, beta, samples=100_000, seed=0, kind=kind)
                ratio = disc / mc
                lo, hi = min(lo, ratio), max(hi, ratio)
                count += 1
    ok = lo > 1.0 / C and hi < C
    assert _report(11, ok, f"{count} ratios in [{lo:.3f}, {hi:.3f}] "
                           f"inside [1/{C:.0f}, {C:.0f}]")


def test_criterion_12_harnack_stability():
    center = (Fraction(1, 2), Fraction(1, 3))
    r, delta = Fraction(1, 4), Fraction(1, 2)
    rng = np.random.default_rng(12)
    max_ratio = {}
    for level in (3, 4, 5):
        ball = harnack_ball(level, center, r, delta)
        worst = 0.0
        for _ in range(50):
            bvals = rng.uniform(0.0, 1.0, size=len(ball.boundary_ids))
            ratio = harnack_ratio(level, center, r, delta, bvals, ball=ball)
            worst = max(worst, ratio)
        max_ratio[level] = worst
    ok = all(np.isfinite(v) for v in max_ratio.values()) and \
        max_ratio[5] < 2.0 * max_ratio[3]
    assert _report(12, ok, f"max ratios level 3/4/5 = {max_ratio[3]:.2f}/"
                           f"{max_ratio[4]:.2f}/{max_ratio[5]:.2f}; "
                           f"level-5 within 2x of level-3")
