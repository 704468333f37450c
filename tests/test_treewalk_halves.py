"""The walk's two halves of Monte Carlo streams, forked or in-process, give
the bits of the single lockstep loop over all four chunks, and no call
leaves a child process behind."""

import functools
import math
import os
import time

import numpy as np
import pytest
from oracles import walk_step

from fractalforms import treewalk
from fractalforms.treewalk import (
    CHUNKS,
    TAIL,
    WalkParams,
    _level_offset,
    _run_paths,
    _shared,
    boundary_hit_distribution,
    build_tables,
    ctrw_lifetime,
    green_oo,
)

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
MODES = [pytest.param(True, id="forked", marks=needs_fork), pytest.param(False, id="in_process")]


def _single_loop(tables, params, samples, *, stop_level=None, before=None, after=None):
    """The engine before the split and the guide table: one lockstep loop
    over all chunks, stepping by the threshold comparisons of the oracle
    step; returns the paths cut at step_cap and the transitions drawn."""
    base, extra = divmod(samples, CHUNKS)
    firsts = np.cumsum([0] + [base + (k < extra) for k in range(CHUNKS)])
    rngs = [np.random.Generator(np.random.Philox(key=[params.seed, k])) for k in range(CHUNKS)]
    stop = None if stop_level is None else _level_offset(stop_level)

    def per_chunk(f, bounds):
        return np.concatenate(
            [f(rng, slice(a, b)) for rng, a, b in zip(rngs, bounds[:-1], bounds[1:])]
        )

    def uniforms(bounds):
        return per_chunk(lambda rng, sl: rng.random(sl.stop - sl.start), bounds)

    idx = np.arange(samples)
    cur = np.zeros(samples, dtype=np.int32)
    bounds = firsts
    steps = 0
    for _ in range(params.step_cap):
        if len(idx) == 0:
            break
        steps += len(idx)
        if before is not None:
            before(idx, cur, lambda f: per_chunk(f, bounds))
        nxt = walk_step(tables, cur, uniforms(bounds))
        if stop is None:
            done = np.zeros(len(idx), dtype=bool)
            t_pos = np.flatnonzero(nxt == TAIL)
            if len(t_pos):
                back = uniforms(np.searchsorted(t_pos, bounds)) < params.lam
                nxt[t_pos] = cur[t_pos]
                done[t_pos[~back]] = True
        else:
            done = nxt >= stop
        if after is not None:
            after(idx, nxt, done)
        if done.any():
            live = ~done
            idx, cur = idx[live], nxt[live]
            bounds = np.searchsorted(idx, firsts)
        else:
            cur = nxt
    return len(idx), steps


def _oracle_estimates(params, m):
    """Each estimator's outputs from the single loop with its old hooks."""
    tables = build_tables(params)
    n, cut = params.samples, params.depth_cut

    visits = np.ones(n, dtype=np.int64)

    def count_root(idx, nxt, done):
        visits[idx[nxt == 0]] += 1

    green_counts = _single_loop(tables, params, n, after=count_root)

    counts = np.zeros(3 ** m, dtype=np.int64)

    def count_prefix(idx, nxt, done):
        np.add.at(counts, (nxt[done] - _level_offset(cut)) // 3 ** (cut - m), 1)

    hit_counts = _single_loop(tables, params, n, stop_level=cut, after=count_prefix)

    c, lam3 = params.require_c(), 3.0 * params.lam
    inv_rate = np.empty(tables.pi.shape)
    for k in range(cut + 1):
        sl = slice(_level_offset(k), _level_offset(k + 1))
        inv_rate[sl] = (c / lam3) ** k / tables.pi[sl]
    t = np.zeros(n)

    def hold(idx, cur, draw):
        scale = inv_rate[cur]
        t[idx] += draw(lambda rng, sl: rng.standard_exponential(sl.stop - sl.start) * scale[sl])

    life_counts = _single_loop(tables, params, n, before=hold)

    return {
        "green": (visits.astype(float), *green_counts),
        "hit": (counts, *hit_counts),
        "life": (t, *life_counts),
    }


@functools.lru_cache(maxsize=None)
def _case(samples, lam, depth):
    params = WalkParams(lam=lam, c=lam / 2, seed=11, samples=samples, depth_cut=depth)
    m = 2
    return params, m, _oracle_estimates(params, m)


def _summary(x, cut, steps):
    return {
        "mean": float(x.mean()),
        "stderr": float(x.std(ddof=1) / math.sqrt(len(x))),
        "paths": len(x),
        "overflowed": cut,
        "path_steps": steps,
    }


def _fork(monkeypatch, forked):
    monkeypatch.setattr(treewalk, "_can_fork", lambda: forked)


@pytest.mark.parametrize("forked", MODES)
@pytest.mark.parametrize("depth", [6, 10])
@pytest.mark.parametrize("lam", [0.5, 0.8])
@pytest.mark.parametrize("samples", [2, 3, 5, 2001])
def test_halves_give_the_single_loop_bits(monkeypatch, forked, samples, lam, depth):
    params, m, want = _case(samples, lam, depth)
    _fork(monkeypatch, forked)
    assert green_oo(params, mode="mc") == _summary(*want["green"])
    hit = boundary_hit_distribution(params, m=m)
    counts, hit_cut, hit_steps = want["hit"]
    assert np.array_equal(hit["counts"], counts) and hit["counts"].dtype == np.int64
    assert hit["overflowed"] == hit_cut and hit["samples_used"] == int(counts.sum())
    assert hit["path_steps"] == hit_steps
    assert ctrw_lifetime(params) == _summary(*want["life"])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "forked, samples, in_child",
    [
        pytest.param(True, 9, True, id="forked", marks=needs_fork),
        pytest.param(False, 9, False, id="in_process"),
        pytest.param(True, 2, False, id="no_second_half", marks=needs_fork),
    ],
)
def test_second_half_runs_in_a_child_only_when_forked(monkeypatch, forked, samples, in_child):
    params = WalkParams(lam=0.5, seed=2, samples=samples, depth_cut=5)
    pids = _shared(samples, np.int64)

    def record_pid(idx, nxt, done):
        pids[idx] = os.getpid()

    _fork(monkeypatch, forked)
    _run_paths(build_tables(params), params, samples, after=record_pid)
    half = min(samples, 5)  # chunks of 3, 2, 2, 2 paths at 9 samples
    assert (pids[:half] == os.getpid()).all()
    assert (pids[half:] != os.getpid()).all() if in_child else (pids[half:] == os.getpid()).all()


class HookError(Exception):
    pass


@pytest.mark.parametrize("forked", MODES)
def test_a_hook_failing_in_the_second_half_fails_the_call(monkeypatch, capfd, forked):
    params = WalkParams(lam=0.5, seed=2, samples=40, depth_cut=5)
    second = 20  # chunks of 10 paths each

    def fail_late(idx, nxt, done):
        if idx[0] >= second:
            raise HookError("second half")

    _fork(monkeypatch, forked)
    with pytest.raises(RuntimeError if forked else HookError):
        _run_paths(build_tables(params), params, params.samples, after=fail_late)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert capfd.readouterr() == ("", "")  # the child prints nothing


@needs_fork
def test_a_hook_failing_in_the_first_half_kills_the_child(monkeypatch, capfd):
    params = WalkParams(lam=0.5, seed=2, samples=40, depth_cut=5)

    def fail_early(idx, nxt, done):
        if idx[0] >= 20:
            time.sleep(60)  # the child would outlive the call unless killed
        raise HookError("first half")

    _fork(monkeypatch, True)
    start = time.monotonic()
    with pytest.raises(HookError):
        _run_paths(build_tables(params), params, params.samples, after=fail_early)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert capfd.readouterr() == ("", "")
