"""The walk's guide-table step picks the column the threshold comparisons of
the oracle step pick, for every transition class, at the thresholds, next to
them, on every bin edge and at the ends of [0, 1)."""

import numpy as np
import pytest
from oracles import walk_step

from fractalforms import treewalk
from fractalforms.treewalk import GUIDE_BINS, WalkParams

TINY = 5e-324  # the smallest positive double
BELOW_ONE = float(np.nextafter(1.0, 0.0))


def _accepts(**kw) -> bool:
    try:
        WalkParams(**kw)
    except ValueError:
        return False
    return True


def _last_accepted(accepts, good: float, bad: float) -> float:
    """The accepted positive double nearest `bad`, by bisection over the bit
    patterns between an accepted `good` and a refused `bad` (positive doubles
    order as their bits do)."""
    g, b = (int(np.float64(x).view(np.int64)) for x in (good, bad))
    while abs(b - g) > 1:
        mid = (g + b) // 2
        if accepts(float(np.int64(mid).view(np.float64))):
            g = mid
        else:
            b = mid
    return float(np.int64(g).view(np.float64))


def _smallest_lam(depth: int) -> float:
    return _last_accepted(lambda lam: _accepts(lam=lam, depth_cut=depth), 0.5, TINY)


def _largest_C1(lam: float, depth: int) -> float:
    return _last_accepted(
        lambda C: _accepts(lam=lam, C1=C, depth_cut=depth), 1.0, np.finfo(np.float64).max
    )


def _grid(depth: int) -> list[tuple[float, float, float]]:
    """(lam, C1, C2) at the smallest and largest accepted lam and 0.5, each
    with unit, tiny, lopsided and the largest accepted weights."""
    out = []
    for lam in (_smallest_lam(depth), 0.5, BELOW_ONE):
        big = _largest_C1(lam, depth)  # C2 enters the rules as C1 does
        out += [(lam, 1.0, 1.0), (lam, TINY, 1.0), (lam, 2.0, 0.3), (lam, big, TINY), (lam, TINY, big)]
    return out


# depth 13 builds 2.4M rows a table: its extremes only
CASES = [(d, *p) for d in (2, 6, 10) for p in _grid(d)] + [
    (13, _smallest_lam(13), _largest_C1(_smallest_lam(13), 13), TINY),
    (13, BELOW_ONE, TINY, _largest_C1(BELOW_ONE, 13)),
]


def _class_uniforms(thresholds: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The uniforms fed to one class: its thresholds and their neighbours on
    both sides, every bin edge, 0, the largest double below 1 and random
    values, all in [0, 1)."""
    u = np.concatenate(
        [
            thresholds,
            np.nextafter(thresholds, -np.inf),
            np.nextafter(thresholds, np.inf),
            np.arange(GUIDE_BINS) / GUIDE_BINS,
            [0.0, BELOW_ONE],
            rng.random(64),
        ]
    )
    return u[(u >= 0.0) & (u < 1.0)]


@pytest.mark.parametrize(
    "depth, lam, C1, C2", CASES, ids=[f"d{d}-lam{lam:.3g}-C{a:.3g},{b:.3g}" for d, lam, a, b in CASES]
)
def test_guide_step_equals_the_threshold_step_on_every_class(depth, lam, C1, C2):
    # built outside the table cache, which would keep the depth-13 tables
    tables = treewalk._tables.__wrapped__(lam, C1, C2, depth)
    K = len(tables.cum)
    classes, first = np.unique(tables.cls, return_index=True)
    assert np.array_equal(classes, np.arange(K))
    rng = np.random.default_rng(depth)
    per_class = [_class_uniforms(tables.cum[c, :-1], rng) for c in range(K)]
    u = np.concatenate(per_class)
    cls = np.repeat(classes, [len(x) for x in per_class])
    states = first[cls].astype(np.int32)
    got = tables.step(states, u)
    assert got.dtype == np.int32
    assert np.array_equal(got, walk_step(tables, states, u))
    # the draws whose bin holds a threshold of their class took the exact path
    entry = tables.guide[(u * GUIDE_BINS).astype(np.intp) * K + cls]
    assert (entry < 0).any()
    # a class's thresholds mark at most as many bins as there are of them
    marked = (tables.guide.reshape(GUIDE_BINS, K) < 0).sum(axis=0)
    assert (marked <= tables.cum.shape[1] - 1).all()
