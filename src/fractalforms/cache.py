"""Content-checked binary cache for expensive build products.

Entries are keyed by (kind, level, object kind, version) and stored as a
pickle next to a sha256 sidecar; a checksum mismatch is treated as a stale
or corrupted entry and triggers a rebuild with a warning rather than an
error.
"""

from __future__ import annotations

import hashlib
import pickle
import warnings
from pathlib import Path
from typing import Any, Callable, Optional

CacheKey = tuple[str, int, str, int]


def _key_stem(key: CacheKey) -> str:
    kind, level, obj, version = key
    for part in (kind, obj):
        if "/" in part or part != part.strip():
            raise ValueError(f"bad cache key part {part!r}")
    return f"{kind}-{level}-{obj}-v{version}"


class Cache:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def _paths(self, key: CacheKey) -> tuple[Path, Path]:
        stem = _key_stem(key)
        return self.root / f"{stem}.pkl", self.root / f"{stem}.sha256"

    def get(self, key: CacheKey) -> Optional[Any]:
        blob_path, sum_path = self._paths(key)
        if not blob_path.exists() or not sum_path.exists():
            self.misses += 1
            return None
        blob = blob_path.read_bytes()
        want = sum_path.read_text().strip()
        got = hashlib.sha256(blob).hexdigest()
        if want != got:
            warnings.warn(
                f"cache entry {blob_path.name} failed its checksum; rebuilding",
                RuntimeWarning,
            )
            self.misses += 1
            return None
        try:
            obj = pickle.loads(blob)
        except Exception:
            warnings.warn(
                f"cache entry {blob_path.name} failed to load; rebuilding",
                RuntimeWarning,
            )
            self.misses += 1
            return None
        self.hits += 1
        return obj

    def put(self, key: CacheKey, obj: Any) -> None:
        blob_path, sum_path = self._paths(key)
        blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self.root.mkdir(parents=True, exist_ok=True)
        blob_path.write_bytes(blob)
        sum_path.write_text(hashlib.sha256(blob).hexdigest() + "\n")

    def get_or_build(self, key: CacheKey, builder: Callable[[], Any]) -> Any:
        obj = self.get(key)
        if obj is None:
            obj = builder()
            self.put(key, obj)
        return obj
