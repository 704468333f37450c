"""Disk cache of carpet vertex graphs, which no subcommand reads or writes.

`resistance --kind sc` used it until the plate came to be solved on a
quadrant built directly.  The module stays because the benchmark harness
in `perfbench/` passes `--cache` to every operation and wraps `Cache.get`
and `Cache.put`; it goes when the harness stops.

Entries are keyed by (kind, level, object kind, version).  Each is one
uncompressed `.npz` holding the four arrays of a `VertexGraph`, read with
pickling off, so nothing in an entry runs.  The zip format's per-member
CRC-32 catches corruption.  A load that fails (a missing member, a bad
CRC, a truncated file, an object array, a dtype or shape other than what
`vertex_graph(kind, level)` builds, a vertex id outside [0, V) or an edge
multiplicity other than 1 or 2) warns and the entry is rebuilt.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .geometry import VertexGraph
from .kinds import FractalKind

CacheKey = tuple[str, int, str, int]
# the arrays of a VertexGraph, with the dtypes vertex_graph builds them in
_DTYPES = dict.fromkeys(("xn", "yn", "edges"), np.int64) | {"corners": np.int32}


def _key_stem(key: CacheKey) -> str:
    kind, level, obj, version = key
    for part in (kind, obj):
        if "/" in part or part != part.strip():
            raise ValueError(f"bad cache key part {part!r}")
    return f"{kind}-{level}-{obj}-v{version}"


def _load(path: Path, kind: FractalKind, level: int) -> VertexGraph:
    with np.load(path, allow_pickle=False) as z:
        a = {name: z[name] for name in _DTYPES}
    v = len(a["xn"])
    shapes = {"xn": (v,), "yn": (v,), "edges": (len(a["edges"]), 3),
              "corners": (kind.n_maps ** level, kind.boundary_size)}
    for name, arr in a.items():
        if arr.dtype != _DTYPES[name] or arr.shape != shapes[name]:
            raise ValueError(f"{name} is {arr.dtype} {arr.shape}")
    # vertex ids in [0, V), edge multiplicities 1 or 2; one column at a time,
    # as a reduction over two strided columns at once is several times slower
    e = a["edges"]
    for name, x, lo, hi in (("edge ends", e[:, 0], 0, v - 1), ("edge ends", e[:, 1], 0, v - 1),
                            ("corners", a["corners"], 0, v - 1), ("multiplicities", e[:, 2], 1, 2)):
        if x.min() < lo or x.max() > hi:
            raise ValueError(f"{name} hold a value outside [{lo}, {hi}]")
    return VertexGraph(kind=kind, level=level, **a)


class Cache:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def _paths(self, key: CacheKey) -> tuple[Path]:
        # one path, as a tuple: perfbench sums the sizes of what this names
        return (self.root / f"{_key_stem(key)}.npz",)

    def get(self, key: CacheKey) -> Optional[VertexGraph]:
        (path,) = self._paths(key)
        try:
            vg = _load(path, FractalKind(key[0]), key[1]) if path.exists() else None
        except Exception as e:
            warnings.warn(f"cache entry {path.name} failed to load ({e}); rebuilding",
                          RuntimeWarning)
            vg = None
        self.misses += vg is None
        self.hits += vg is not None
        return vg

    def put(self, key: CacheKey, vg: VertexGraph) -> None:
        (path,) = self._paths(key)
        self.root.mkdir(parents=True, exist_ok=True)
        np.savez(path, **{name: getattr(vg, name) for name in _DTYPES})

    def get_or_build(self, key: CacheKey, builder: Callable[[], VertexGraph]) -> VertexGraph:
        vg = self.get(key)
        if vg is None:
            vg = builder()
            self.put(key, vg)
        return vg
