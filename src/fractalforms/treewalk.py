"""Random walk on the rooted ternary tree augmented by same-level edges.

Vertices are all words up to the working depth `WalkParams.depth_cut`; the
conductance of an edge at level n decays like (3*lam)^(-n), which tunes the
walk's per-level return ratio to lam.  Finite truncations bracket the
infinite-graph quantities: a closure that grounds the working sphere
overstates escape, and a closure that replaces everything below the sphere
by exact per-vertex tree-tail resistors carries no horizontal edges down
there and so reproduces the infinite tree-tail exactly.  A potential that
depends only on the level carries no current on same-level edges, so both
closures are solved as a series chain of levels and certified by one
residual of the full closure Laplacian, summed over the closure's edges one
level's block at a time; no matrix is factored and no array of all the
closure's edges is built.  The same-level edges are the gasket's cell
graphs, each built from the one below.

Monte Carlo runs cross-check the linear algebra.  A vertex's transition row
depends only on its level and on the kind of edge in each column, so the
tables hold one cumulative row per transition class.  The fixed
random-stream chunks run as two halves, each stepping its chunks in
lockstep, the second half in a forked child.

The boundary at infinity is checked by the Gromov product of the graph
metric (a breadth-first search over the ball's edges), the visual metric
rho_a built on it, and the Martin kernel against lam^|x| (3/lam)^(x|xi).
"""

from __future__ import annotations

import math
import mmap
import os
import signal
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .geometry import cell_graph
from .kinds import FractalKind
from .networks import _record, certify_dirichlet, solve_dirichlet
from .words import as_digits, pack_word

__all__ = [
    "DEPTH_CAP",
    "SAMPLES_CAP",
    "WalkParams",
    "vertical_conductance",
    "horizontal_conductance",
    "WalkTables",
    "build_tables",
    "hitting_prob_F",
    "green_oo",
    "boundary_hit_distribution",
    "gromov_product",
    "rho_a",
    "martin_kernel_check",
    "ctrw_lifetime",
    "ctrw_lifetime_closed_form",
    "ctrw_truncation_bias",
    "detailed_balance_residual",
]


@dataclass(frozen=True)
class WalkParams:
    """Walk and simulation parameters.

    `lam` is the per-level return ratio; C1/C2 weight the two kinds of
    same-level adjacency; `c` (needed only by the continuous-time lifetime)
    must stay below lam.  `depth_cut` is the working depth of every
    estimator: none takes a depth of its own.
    """

    lam: float
    C1: float = 1.0
    C2: float = 1.0
    c: Optional[float] = None
    seed: int = 0
    samples: int = 100_000
    depth_cut: int = 12
    step_cap: int = 200_000

    def __post_init__(self) -> None:
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lam must be in (0,1)")
        if not (0 < self.C1 < math.inf and 0 < self.C2 < math.inf):
            raise ValueError("C1 and C2 must be finite and positive")
        if not 0 <= self.seed < 2 ** 64:  # one uint64 word of the Philox key
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")
        if self.c is not None and not 0.0 < self.c < self.lam:
            raise ValueError("c must be in (0, lam)")
        if self.depth_cut < 2:
            raise ValueError("depth_cut must be >= 2")
        D = self.depth_cut
        try:  # the vertical conductance at the depth cut must be a float
            scale = (3.0 * self.lam) ** -D
        except OverflowError:
            raise ValueError(f"(3 lam)^-depth_cut overflows a float at lam = {self.lam}") from None
        # so must the closures' largest links (the 3^D edges from level D - 1
        # and the 3^D tail resistors) and the walk's vertex conductance at the
        # depth cut (parent, up to 3 same-level neighbours and the tail step
        # 3 (3 lam)^-D): the closures and the walk sum them
        vertical = vertical_conductance(self, D - 1)
        links = (3 ** D * vertical, 3 ** D * _tail_conductance(self, D))
        if not all(map(math.isfinite, links)):
            raise ValueError(f"a closure link at depth_cut {D} overflows a float at lam = {self.lam}")
        for name, weight in (("C1", self.C1), ("C2", self.C2)):
            if not math.isfinite(vertical + 3.0 * (weight + 1.0) * scale):
                raise ValueError(
                    f"the vertex conductance at depth_cut {D} overflows a float at {name} = {weight}"
                )
        if self.samples < 2:  # the standard errors divide by samples - 1
            raise ValueError(f"samples must be >= 2, got {self.samples}")
        if self.step_cap < 1:
            raise ValueError("step_cap must be positive")

    def require_c(self) -> float:
        if self.c is None:
            raise ValueError("this operation needs the c parameter")
        return self.c


# ---------------------------------------------------------------------------
# graph structure

def _level_offset(n: int) -> int:
    # number of words shorter than n
    return (3 ** n - 1) // 2


def _word_id(w) -> int:
    """Vertex id of a word: the words shorter than it come first, then the
    words of its own level in radix order.  The ball of depth D holds the
    ids below _level_offset(D + 1)."""
    digits = as_digits(w)
    return _level_offset(len(digits)) + pack_word(FractalKind.SG, digits)


def _sphere(n: int) -> np.ndarray:
    return np.arange(_level_offset(n), _level_offset(n + 1), dtype=np.int64)


# ---------------------------------------------------------------------------
# conductances

def vertical_conductance(params: WalkParams, n: int) -> float:
    """Edge weight between a level-n word and its children."""
    if n < 0:
        raise ValueError("level must be >= 0")
    return (3.0 * params.lam) ** (-n)

def horizontal_conductance(params: WalkParams, n: int, edge_type: str) -> float:
    if n < 1:
        raise ValueError("same-level edges start at level 1")
    scale = (3.0 * params.lam) ** (-n)
    if edge_type == "I":
        return params.C1 * scale
    if edge_type == "II":
        return params.C2 * scale
    raise ValueError(f"unknown edge type {edge_type!r}")


# ---------------------------------------------------------------------------
# padded transition tables for vectorized simulation

TAIL = -2  # pseudo-neighbor: a step into the untruncated subtree below

# deepest working depth a run may ask for
DEPTH_CAP = 13

# most paths a run may ask for per estimator: 10^7 peak at about 400 MB,
# 33 B a path over a run at 10^5, and take 20 s at depth cut 6 (2-core VM)
SAMPLES_CAP = 10_000_000

# the kind of an edge seen from one end; a row's class key packs the level
# and one kind per column, below (DEPTH_CAP + 1) * 6^7 for the 7 columns
N_KINDS = 6
PAD, CHILD, PARENT, SAME_I, SAME_II, TAIL_STEP = range(N_KINDS)


@dataclass(eq=False)
class WalkTables:
    """Padded neighbor tables and per-class transition rows.

    A vertex's transition row depends only on its level and on the kind of
    edge in each column, so `cum` holds one row per transition class and
    `cls` maps every vertex to its class.
    """

    nbr: np.ndarray      # (V, W) int32, -1 padded, TAIL for tail steps
    cls: np.ndarray      # (V,) intp transition class of each vertex
    cum: np.ndarray      # (K, W) float64 cumulative transition probabilities per class
    pi: np.ndarray       # (V,) total incident conductance

    def __post_init__(self) -> None:
        # the last column is 1.0, never below a uniform in [0, 1), so it is
        # left out of the comparisons
        self._cum_cols = np.ascontiguousarray(self.cum[:, :-1].T)
        self._nbr_flat = self.nbr.ravel()

    def step(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next vertex of each path, given one transition uniform per path."""
        c = self.cls[states]
        flat = states * self.nbr.shape[1]
        for col in self._cum_cols:
            flat += col[c] < u
        return self._nbr_flat[flat]


def _edge_blocks(params: WalkParams, depth: int, mode: str = "ground") -> Iterator[tuple]:
    """The edges of a closure of the depth-truncated graph, as (ii, jj,
    conductance) blocks: the vertical edges level by level, then the
    horizontal edges level by level, then in tail mode the tail resistors
    from the sphere to the ground node past the ball.  Every closure edge
    array is read from here, in this order."""
    # no block is kept in a local, so only the block in use is alive
    # vertical: level n parents to level n+1 children
    for n in range(depth):
        yield (
            _level_offset(n) + np.arange(3 ** (n + 1), dtype=np.int64) // 3,
            _level_offset(n + 1) + np.arange(3 ** (n + 1), dtype=np.int64),
            np.full(3 ** (n + 1), vertical_conductance(params, n)),
        )
    # horizontal per level
    for n in range(1, depth + 1):
        cg = cell_graph(FractalKind.SG, n)
        base = _level_offset(n)
        yield (
            base + cg.edges[:, 0],
            base + cg.edges[:, 1],
            np.where(
                cg.second_type,
                horizontal_conductance(params, n, "II"),
                horizontal_conductance(params, n, "I"),
            ),
        )
    if mode == "tail":
        sphere = _sphere(depth)
        yield (
            sphere,
            np.full(len(sphere), _level_offset(depth + 1), dtype=np.int64),
            np.full(len(sphere), _tail_conductance(params, depth)),
        )


def _edge_arrays(
    params: WalkParams, depth: int, mode: str = "ground"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All edges of a closure (by default of the depth-truncated graph
    alone) with their conductances."""
    return tuple(np.concatenate(a) for a in zip(*_edge_blocks(params, depth, mode)))


def _levels(depth: int) -> np.ndarray:
    return np.repeat(np.arange(depth + 1, dtype=np.int16), 3 ** np.arange(depth + 1))


def build_tables(params: WalkParams) -> WalkTables:
    """Padded neighbor tables for the ball of radius params.depth_cut.

    The working-sphere rows carry one pseudo-entry of weight
    3*(3 lam)^(-depth) standing for the three subtree edges below; a sampled
    TAIL step must be resolved by the caller (return with probability lam,
    escape otherwise), which reproduces the bare-subtree excursion law
    exactly.  A walk that stops on its first step into the sphere never
    reads a sphere row, so every estimator shares one table.  The tables
    depend on (lam, C1, C2, depth) only, and are cached on that key: walks
    that differ in seed or samples share them.
    """
    return _tables(params.lam, params.C1, params.C2, params.depth_cut)


def _append_runs(rows, kinds, col, ends, others, edge_kinds) -> None:
    """Write each row's entries after its `col` filled columns, in the order
    given; `ends` (the local row of each entry) must be grouped ascending."""
    count = np.bincount(ends, minlength=len(col))
    at = np.arange(len(ends))
    at -= (np.cumsum(count) - count - col)[ends]
    rows[ends, at] = others
    kinds[ends, at] = edge_kinds
    col += count


@lru_cache(maxsize=8)
def _tables(lam: float, C1: float, C2: float, depth: int) -> WalkTables:
    """Fill the tables one level at a time from the level's cell graph.

    A row lists the children, the same-level neighbours of larger id, the
    parent, the same-level neighbours of smaller id (each run ascending) and,
    on the sphere, the tail entry.  A class key leads with the level, so the
    classes of one level, offset by those of the levels above, are numbered
    as one sort of all keys would number them.  A class row's weights follow
    from its level and kinds alone, so every vertex gets the bits a row of
    its own would get.
    """
    params = WalkParams(lam=lam, C1=C1, C2=C2, depth_cut=depth)
    graphs = [None] + [cell_graph(FractalKind.SG, n) for n in range(1, depth + 1)]
    # children, parent, same-level neighbours and tail entry of the fullest row
    W = max(
        3 * (n < depth) + (n > 0) + (n == depth)
        + (int(np.bincount(g.edges.ravel()).max()) if g is not None else 0)
        for n, g in enumerate(graphs)
    )
    V = _level_offset(depth + 1)
    nbr = np.full((V, W), -1, dtype=np.int32)
    cls = np.empty(V, dtype=np.intp)
    class_wts = []
    for n, g in enumerate(graphs):
        o, m = _level_offset(n), 3 ** n
        here = np.arange(m)
        rows = nbr[o : o + m]
        kinds = np.full((m, W), PAD, dtype=np.int8)
        col = np.zeros(m, dtype=np.intp)  # filled columns of each row
        w = np.zeros(N_KINDS)  # conductance of each kind at this level
        if n < depth:
            rows[:, :3] = _level_offset(n + 1) + 3 * here[:, None] + np.arange(3)
            kinds[:, :3] = CHILD
            col += 3
            w[CHILD] = vertical_conductance(params, n)
        if g is not None:
            # edges are sorted by (a, b) with a < b
            a, b = g.edges[:, 0], g.edges[:, 1]
            same = np.where(g.second_type, SAME_II, SAME_I).astype(np.int8)
            _append_runs(rows, kinds, col, a, o + b, same)
            rows[here, col] = _level_offset(n - 1) + here // 3
            kinds[here, col] = PARENT
            col += 1
            by_b = np.argsort(b, kind="stable")
            _append_runs(rows, kinds, col, b[by_b], o + a[by_b], same[by_b])
            w[PARENT] = vertical_conductance(params, n - 1)
            w[SAME_I] = horizontal_conductance(params, n, "I")
            w[SAME_II] = horizontal_conductance(params, n, "II")
        if n == depth:
            rows[here, col] = TAIL
            kinds[here, col] = TAIL_STEP
            w[TAIL_STEP] = 3.0 * vertical_conductance(params, depth)
        key = np.full(m, n, dtype=np.int64)
        for k in range(W):
            key = key * N_KINDS + kinds[:, k]
        _, rep, inv = np.unique(key, return_index=True, return_inverse=True)
        cls[o : o + m] = inv + sum(map(len, class_wts))
        class_wts.append(w[kinds[rep]])
    wts = np.concatenate(class_wts)
    pi = wts.sum(axis=1)
    cum = np.cumsum(wts, axis=1) / pi[:, None]
    cum[:, -1] = 1.0
    return WalkTables(nbr=nbr, cls=cls, cum=cum, pi=pi[cls])


# hit and miss counts of the table cache, read where build_tables is called
build_tables.cache_info = _tables.cache_info


# ---------------------------------------------------------------------------
# exact truncation closures
#
# Both closures act on the ball of radius depth_cut.  "ground" grounds the
# working sphere itself; "tail" adds one ground node wired to each sphere
# vertex through the exact resistance of its own infinite subtree,
# (3 lam)^D / (3 (1 - lam)).

def _tail_conductance(params: WalkParams, depth: int) -> float:
    return 3.0 * (1.0 - params.lam) / (3.0 * params.lam) ** depth


def _closure_ground(depth: int, mode: str) -> tuple[int, np.ndarray]:
    """Node count and grounded nodes of a closure."""
    V = _level_offset(depth + 1)
    if mode == "ground":
        return V, _sphere(depth)
    if mode == "tail":
        return V + 1, np.array([V], dtype=np.int64)  # one node past the ball
    raise ValueError(f"unknown closure {mode!r}")


def _closure(params: WalkParams, depth: int, mode: str):
    n, ground = _closure_ground(depth, mode)
    return (n, *_edge_arrays(params, depth, mode), ground)


def _solver_allowance(residual: float) -> float:
    # widen bracket ends so rounding in the potentials cannot flip a
    # containment that holds in exact arithmetic; negligible next to the
    # truncation gap
    return 1e-9 + 1e3 * residual


@lru_cache(maxsize=8)
def _closure_solves(
    lam: float, C1: float, C2: float, depth_cut: int
) -> tuple[tuple[np.ndarray, float, float, float], ...]:
    """(level potentials, solver allowance, resistance, certificate residual)
    per closure, ground first.

    Entry n of the potentials estimates the chance of reaching the root
    before escaping from a word of level n: the root is fixed at 1, the
    ground at 0, and the last entry is the ground itself.  A potential that
    depends only on the level sends no current through a same-level edge,
    whatever C1 and C2 are, so each closure is a series chain: level n to
    n + 1 is 3^(n+1) parallel edges of conductance (3 lam)^(-n), and the
    tail closure adds 3^D parallel resistors of (3 lam)^D / (3 (1 - lam)).
    The chain's potentials, expanded to every vertex, solve the full closure
    (its Dirichlet solution is unique); one residual of the full closure
    Laplacian certifies them and sets the allowance.  The residual is summed
    over the closure's edge blocks one level at a time, so no array of all
    the closure's edges is built.  The key holds only what
    the conductances depend on; callers go through _certified_closures, which
    logs a cached certificate again.
    """
    params = WalkParams(lam=lam, C1=C1, C2=C2, depth_cut=depth_cut)
    links = [3 ** (n + 1) * vertical_conductance(params, n) for n in range(depth_cut)]
    out = []
    for mode in ("ground", "tail"):
        n, ground = _closure_ground(depth_cut, mode)
        if mode == "tail":
            links.append(3 ** depth_cut * _tail_conductance(params, depth_cut))
        # resistance from each level down to the ground
        below = np.cumsum(1.0 / np.array(links)[::-1])[::-1]
        v = np.append(below / below[0], 0.0)
        node_level = np.append(_levels(depth_cut), depth_cut + 1)[:n]
        residual = certify_dirichlet(
            n,
            _edge_blocks(params, depth_cut, mode),
            np.concatenate([[0], ground]),
            v[node_level],
            "radial",
        )
        out.append((v, _solver_allowance(residual), float(below[0]), residual))
    return tuple(out)


def _certified_closures(params: WalkParams):
    """_closure_solves for the walk's conductances and depth cut.  A cache
    hit makes no new solve, so it records each certificate's residual under
    method `radial` with no solve, and the run log shows what the brackets
    were widened by.
    """
    hits = _closure_solves.cache_info().hits
    closures = _closure_solves(params.lam, params.C1, params.C2, params.depth_cut)
    if _closure_solves.cache_info().hits > hits:
        for *_, residual in closures:
            _record("radial", residual=residual)
    return closures


def hitting_prob_F(x, params: WalkParams) -> tuple[float, float]:
    """Bracket for the probability of ever reaching the root from word x.

    The grounded-sphere closure is the lower end, the tree-tail closure the
    upper end, both on the ball of radius params.depth_cut; the target
    closed form lam^|x| lies in between.  Ends are widened by the solver
    allowance of their own closures.
    """
    xd = as_digits(x)
    if len(xd) > params.depth_cut - 1:
        raise ValueError("x must sit strictly inside the working ball")
    if len(xd) == 0:
        return 1.0, 1.0
    (lo_v, lo_pad, _, _), (hi_v, hi_pad, _, _) = _certified_closures(params)
    lo, hi = float(lo_v[len(xd)]) - lo_pad, float(hi_v[len(xd)]) + hi_pad
    return min(lo, hi), max(lo, hi)


# ---------------------------------------------------------------------------
# Monte Carlo engine
#
# Every estimator runs its paths through _run_paths.  The paths of one run
# are split into CHUNKS fixed chunks, and chunk k draws from the counter-based
# stream Philox(key=[seed, k]), so a seeded result depends on the seed and
# the sample count only.  A chunk's draws never depend on the other chunks,
# so chunks 0-1 and chunks 2-3 run as two halves, the second in a child
# forked once the tables exist, and the bits do not depend on whether it was
# forked.  Forking, not threads: the GIL is held between the many small
# numpy calls of a step, so two threads ran no faster than one.

CHUNKS = 4


def _shared(shape, dtype) -> np.ndarray:
    """A zeroed array over an anonymous shared mapping: writes made in a
    forked child reach the parent."""
    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(count * dtype.itemsize, 1))
    return np.frombuffer(buf, dtype, count=count).reshape(shape)


def _can_fork() -> bool:
    """Whether a forked child can run the second half on a core of its own."""
    affinity = getattr(os, "sched_getaffinity", None)
    return hasattr(os, "fork") and affinity is not None and len(affinity(0)) >= 2


def _run_paths(
    tables: WalkTables,
    params: WalkParams,
    samples: int,
    *,
    stop_level: Optional[int] = None,
    before=None,
    after=None,
) -> int:
    """Walk `samples` paths from the root; return how many hit step_cap.

    With stop_level None a path ends when it escapes through the tail;
    otherwise it ends on its first step to a word of level stop_level, so a
    stop at the working sphere never reads a sphere row or a tail entry.
    The second half runs in a forked child when there is a second core to
    run it on and paths to run, and in this process after the first half
    otherwise.  Within a half the chunks step in lockstep over one compacted
    index of the half's live paths, ascending, so each chunk's paths form
    one slice of it.  Per step each chunk draws from its own stream, in this
    order: `before(idx, cur, draw)` first, then the transition uniforms,
    then the tail-return uniforms.  `draw(f)` concatenates f(rng, sl) over
    the half's chunks, where sl slices the chunk's live paths; `after(idx,
    nxt, done)` sees each step's outcome.  `idx` indexes the per-path arrays
    of length `samples`; a hook may write only to those entries of arrays
    made by `_shared`, and must not print or call into BLAS.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    base, extra = divmod(samples, CHUNKS)
    firsts = np.cumsum([0] + [base + (k < extra) for k in range(CHUNKS)])
    stop = None if stop_level is None else _level_offset(stop_level)  # first id at stop_level

    def run_half(chunks: range) -> int:
        """Step the paths of `chunks`; return how many hit step_cap."""
        # a list key past 2^63 would pass through float64 and lose its low bits
        rngs = [
            np.random.Generator(np.random.Philox(key=np.array([params.seed, k], dtype=np.uint64)))
            for k in chunks
        ]
        starts = firsts[chunks.start : chunks.stop + 1]

        def per_chunk(f, bounds):
            return np.concatenate(
                [f(rng, slice(a, b)) for rng, a, b in zip(rngs, bounds[:-1], bounds[1:])]
            )

        def uniforms(bounds):
            return per_chunk(lambda rng, sl: rng.random(sl.stop - sl.start), bounds)

        idx = np.arange(starts[0], starts[-1])
        cur = np.zeros(len(idx), dtype=np.int32)
        bounds = starts - starts[0]
        for _ in range(params.step_cap):
            if len(idx) == 0:
                break
            if before is not None:
                before(idx, cur, lambda f: per_chunk(f, bounds))
            nxt = tables.step(cur, uniforms(bounds))
            if stop is None:
                # a tail step comes back to the vertex it left with
                # probability lam and escapes for good otherwise
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
                bounds = np.searchsorted(idx, starts)
            else:
                cur = nxt
        return len(idx)

    first, second = range(0, CHUNKS // 2), range(CHUNKS // 2, CHUNKS)
    if firsts[second.start] == samples or not _can_fork():
        return run_half(first) + run_half(second)
    overflowed = _shared(1, np.int64)
    pid = os.fork()
    if pid == 0:
        # The child runs element-wise numpy code only: no BLAS (whose worker
        # threads are not copied by fork), no import, no output.  os._exit
        # skips the flush of stdout buffers inherited from the parent, which
        # would print the parent's pending output twice.
        try:
            overflowed[0] = run_half(second)
            status = 0
        except BaseException:
            status = 1
        finally:
            os._exit(status)
    try:
        cut = run_half(first)
        _, status = os.waitpid(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if status != 0:
        raise RuntimeError(f"the second half of the walk's paths failed (wait status {status})")
    return cut + int(overflowed[0])


def _mean_summary(x: np.ndarray, overflowed: int) -> dict:
    return {
        "mean": float(x.mean()),
        "stderr": float(x.std(ddof=1) / math.sqrt(len(x))),
        "paths": len(x),
        "overflowed": overflowed,
    }


def green_oo(params: WalkParams, mode: str = "exact") -> dict:
    """Expected visits to the root, target 1/(1 - lam).

    exact mode: closure bracket {lower, upper}; mc mode: path average with
    standard error, path count and the number of paths cut at step_cap.
    MC paths live on the ball of radius params.depth_cut with tail
    excursions resolved exactly, so the estimator is unbiased for the
    infinite graph.
    """
    if mode == "exact":
        (_, lo_pad, lo_r, _), (_, hi_pad, hi_r, _) = _certified_closures(params)
        lo, hi = 3.0 * lo_r - lo_pad, 3.0 * hi_r + hi_pad
        return {"lower": min(lo, hi), "upper": max(lo, hi)}
    if mode != "mc":
        raise ValueError(f"unknown mode {mode!r}")
    visits = _shared(params.samples, np.int64)
    visits += 1  # the start counts as a visit

    def count_root(idx, nxt, done):
        visits[idx[nxt == 0]] += 1

    tables = build_tables(params)
    overflowed = _run_paths(tables, params, params.samples, after=count_root)
    return _mean_summary(visits.astype(float), overflowed)


def boundary_hit_distribution(params: WalkParams, m: int, samples: Optional[int] = None) -> dict:
    """Empirical distribution of the level-m prefix of the first word reached
    at the working depth params.depth_cut (the finite-budget proxy for the
    limit word).  `samples` defaults to params.samples."""
    depth_cut = params.depth_cut
    if m < 1 or m >= depth_cut:
        raise ValueError("need 1 <= m < depth_cut")
    samples = params.samples if samples is None else samples
    prefix = _shared(samples, np.int64)
    prefix -= 1  # -1 until the path stops

    def record_prefix(idx, nxt, done):
        # level-m prefix rank: strip depth_cut - m trailing digits
        prefix[idx[done]] = (nxt[done] - _level_offset(depth_cut)) // 3 ** (depth_cut - m)

    tables = build_tables(params)
    overflowed = _run_paths(tables, params, samples, stop_level=depth_cut, after=record_prefix)
    counts = np.bincount(prefix[prefix >= 0], minlength=3 ** m)
    used = int(counts.sum())
    freqs = counts / used if used else counts.astype(float)
    return {
        "m": m,
        "counts": counts,
        "freqs": freqs,
        "samples_used": used,
        "overflowed": overflowed,
    }


# ---------------------------------------------------------------------------
# the boundary at infinity

def _graph_distance(x_digits, y_digits) -> int:
    """Shortest-path distance in the full edge set, by a breadth-first search.

    Shortest paths never dip below the deeper endpoint's level: adjacent
    cells have adjacent (or equal) parents, so any excursion below can be
    replaced by a shorter same-level hop chain.  The search therefore runs
    on the ball of that depth, whose edges do not depend on lam.
    """
    L = max(len(x_digits), len(y_digits), 1)
    ii, jj, _ = _edge_arrays(WalkParams(lam=0.5), L)
    tails, heads = np.concatenate([ii, jj]), np.concatenate([jj, ii])
    dist = np.full(_level_offset(L + 1), -1)
    dist[_word_id(x_digits)] = 0
    target, d = _word_id(y_digits), 0
    while dist[target] < 0:  # the ball is connected, so the target is reached
        reached = heads[dist[tails] == d]
        d += 1
        dist[reached[dist[reached] < 0]] = d
    return int(dist[target])


def gromov_product(x, y) -> Fraction:
    """(|x| + |y| - d(x,y)) / 2 with the graph metric: the exponent of the
    visual metric rho_a and of the Martin kernel's target."""
    xd, yd = as_digits(x), as_digits(y)
    d = _graph_distance(xd, yd)
    return Fraction(len(xd) + len(yd) - d, 2)


def rho_a(x, y, a: float) -> float:
    """The visual metric exp(-a * gromov_product) on the tree's boundary at
    infinity (Kaimanovich 2003), a quasi-ultrametric; zero on the diagonal."""
    if a <= 0:
        raise ValueError("a must be positive")
    xd, yd = as_digits(x), as_digits(y)
    if xd == yd:
        return 0.0
    return math.exp(-a * float(gromov_product(xd, yd)))


def martin_kernel_check(params: WalkParams, xs: Sequence, xis_as_deep_words: Sequence) -> dict:
    """Spread of K(x, xi) / (lam^|x| (3/lam)^(x|xi)) over the given pairs.

    Checks K(x, xi) ~ lam^|x| (3/lam)^(x|xi) on the boundary at infinity
    (Kong, Lau & Wong 2017), with (x|xi) the Gromov product.  K is estimated
    from the tree-tail closure of the ball of radius params.depth_cut: one
    potential solve per xi with the root as reference.
    The comparison target is an asymptotic equivalence, so the statistic to
    watch is the ratio spread staying inside a fixed bracket.
    """
    depth_cut = params.depth_cut
    lam = params.lam
    xis = [as_digits(w) for w in xis_as_deep_words]
    xs = [as_digits(w) for w in xs]
    if max((len(w) for w in xis), default=0) > depth_cut - 2:
        raise ValueError("depth_cut too small for the deep words")
    if max((len(x) for x in xs), default=0) > depth_cut:
        raise ValueError("x deeper than the working depth")
    n, ii, jj, cc, ground = _closure(params, depth_cut, "tail")
    rows = []
    for xi in xis:
        fixed = np.concatenate([[_word_id(xi)], ground])
        vals = np.concatenate([[1.0], np.zeros(len(ground))])
        v, _ = solve_dirichlet(n, ii, jj, cc, fixed, vals)
        if v[0] <= 0:
            raise RuntimeError("root potential vanished; depth too small")
        for x in xs:
            K = float(v[_word_id(x)] / v[0])
            gp = float(gromov_product(x, xi))
            target = lam ** len(x) * (3.0 / lam) ** gp
            rows.append(
                {
                    "x": "".join(map(str, x)),
                    "xi": "".join(map(str, xi)),
                    "K": K,
                    "target": target,
                    "ratio": K / target,
                }
            )
    ratios = np.array([r["ratio"] for r in rows])
    return {
        "rows": rows,
        "ratio_min": float(ratios.min()),
        "ratio_max": float(ratios.max()),
        "spread": float(ratios.max() / ratios.min()),
    }


# ---------------------------------------------------------------------------
# continuous-time lifetime

def ctrw_lifetime_closed_form(params: WalkParams) -> float:
    c = params.require_c()
    return 1.0 / (3.0 * (1.0 - params.lam) * (1.0 - c))


def ctrw_truncation_bias(params: WalkParams, depth: int) -> float:
    """Upper bound on the expected lifetime spent below `depth`: the
    truncation error of ctrw_lifetime, which a `walk` run with c set
    records next to its lifetime's path counts."""
    c = params.require_c()
    return c ** (depth + 1) / (3.0 * (1.0 - params.lam) * (1.0 - c))


def ctrw_lifetime(params: WalkParams, samples: Optional[int] = None) -> dict:
    """Mean and standard error of the simulated total holding time, with the
    path count and the number of paths cut at step_cap; `samples` defaults
    to params.samples.

    Tail excursions are resolved exactly, so the only systematic error is
    the holding time the walk would have spent below the working depth
    params.depth_cut, bounded by ctrw_truncation_bias and far below the
    standard error at the default depth.
    """
    c = params.require_c()
    depth_cut = params.depth_cut
    samples = params.samples if samples is None else samples
    tables = build_tables(params)
    inv_rate = np.empty(tables.pi.shape)
    lam3 = 3.0 * params.lam
    for n in range(depth_cut + 1):
        sl = slice(_level_offset(n), _level_offset(n + 1))
        inv_rate[sl] = (c / lam3) ** n / tables.pi[sl]
    t = _shared(samples, np.float64)

    def hold(idx, cur, draw):
        scale = inv_rate[cur]
        t[idx] += draw(lambda rng, sl: rng.standard_exponential(sl.stop - sl.start) * scale[sl])

    overflowed = _run_paths(tables, params, samples, before=hold)
    return _mean_summary(t, overflowed)


# ---------------------------------------------------------------------------
# structural checks

def detailed_balance_residual(params: WalkParams) -> float:
    """Max |pi(x)P(x,y) - pi(y)P(y,x)| over the edges of the ball of radius
    params.depth_cut: checks that the walk is reversible, so that its
    conductances define the Dirichlet form of the augmented tree."""
    tables = build_tables(params)
    V = tables.nbr.shape[0]
    prob = np.diff(tables.cum, axis=1, prepend=0.0)
    i, k = np.nonzero(tables.nbr >= 0)
    j = tables.nbr[i, k].astype(np.int64)
    flow = tables.pi[i] * prob[tables.cls[i], k]
    # the entry of each edge seen from its other end
    key = i * V + j
    order = np.argsort(key)
    back = order[np.searchsorted(key, j * V + i, sorter=order)]
    up = j > i
    return float(np.max(np.abs(flow[up] - flow[back[up]]), initial=0.0))

