"""Machine-readable experiment reports.

Tabular results go to RFC-4180-style CSV with a mandatory header and every
float printed to 17 significant digits, so a re-run with the same config
reproduces identical bytes.  Structured results go to UTF-8 JSON with
sorted keys.  A sidecar meta file records the config snapshot and
provenance (git hash, timestamp, seed); the timestamp lives only there so
the data files stay byte-stable.  Every file is written under a temporary
name in the output directory and renamed into place once complete, so a
write that fails leaves no file behind.  The git hash is read from the
checkout's own files, with `git rev-parse HEAD` only as the fallback.
"""

from __future__ import annotations

import csv
import datetime as _dt
import hashlib
import json
import math
import os
import re
import subprocess
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence, TextIO


def fmt_float(x: Any) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


@lru_cache(maxsize=1)
def git_hash() -> str:
    """Commit of the checkout this module was loaded from, resolved once per
    process from the checkout's files; "unknown" outside a git checkout."""
    return _head_commit(Path(__file__).resolve().parent)


# a full SHA-1 or SHA-256 object id
_FULL_ID = re.compile(r"[0-9a-f]{40}|[0-9a-f]{64}")
# environment variables that move git's search for its directory
_GIT_SEARCH_ENV = ("GIT_COMMON_DIR", "GIT_CEILING_DIRECTORIES", "GIT_DISCOVERY_ACROSS_FILESYSTEM")


def _head_commit(start: Path) -> str:
    """What `git -C start rev-parse HEAD` prints, or "unknown" where it fails.

    HEAD is read from the git directory's files; git itself runs only when
    they do not give a full object id, so no answer differs from git's."""
    try:
        found = _read_head(start)
    except (OSError, UnicodeDecodeError):
        found = None
    if found is not None:
        return found
    try:
        out = subprocess.run(
            ["git", "-C", str(start), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip()


def _read_head(start: Path) -> Optional[str]:
    """HEAD's object id read from the files of the git directory: $GIT_DIR
    (relative to `start`, as `git -C start` takes it), else the nearest
    `.git` at or above `start` on its filesystem, a directory or a file
    whose `gitdir:` line names one.  HEAD is an object id, or names a branch
    read from its loose file, then from `packed-refs`, in the `commondir` of
    a linked worktree.  "unknown" when git would find no directory; None
    for anything else these files do not settle: another owner (git's
    safe.directory check), a reftable, a symbolic ref chain, a missing ref."""
    if any(name in os.environ for name in _GIT_SEARCH_ENV):
        return None
    if "GIT_DIR" in os.environ:
        git_dir = start / os.environ["GIT_DIR"]
    else:
        device = start.stat().st_dev
        for top in (start, *start.parents):
            if top.stat().st_dev != device:
                return "unknown"
            if (top / ".git").exists():
                break
        else:
            return "unknown"
        git_dir = top / ".git"
        if git_dir.is_file():
            line = git_dir.read_text(encoding="utf-8").strip()
            if not line.startswith("gitdir: "):
                return None
            git_dir = top / line[len("gitdir: "):]
        if any(p.stat().st_uid != os.geteuid() for p in (top, git_dir)):
            return None
    head = (git_dir / "HEAD").read_text(encoding="utf-8").strip()
    if _FULL_ID.fullmatch(head):
        return head
    if not head.startswith("ref: refs/heads/"):
        return None
    ref = head[len("ref: "):]
    common = git_dir
    if (git_dir / "commondir").is_file():
        common = git_dir / (git_dir / "commondir").read_text(encoding="utf-8").strip()
    if (common / ref).is_file():
        oid = (common / ref).read_text(encoding="utf-8").strip()
        return oid if _FULL_ID.fullmatch(oid) else None
    if (common / "packed-refs").is_file():
        for line in (common / "packed-refs").read_text(encoding="utf-8").splitlines():
            oid, _, name = line.partition(" ")
            if name == ref and _FULL_ID.fullmatch(oid):
                return oid
    return None


def experiment_id(subcommand: str, config_snapshot: dict) -> str:
    # output locations do not affect what was computed
    keyed = {k: v for k, v in config_snapshot.items() if k not in ("out_dir", "cache_dir")}
    blob = json.dumps(keyed, sort_keys=True).encode()
    return f"{subcommand}-{hashlib.sha256(blob).hexdigest()[:12]}"


class NonFiniteResultError(ValueError):
    """A data tree or a CSV row holds NaN or an infinity, which JSON (RFC
    8259) cannot carry and no reader of the CSV expects; maps to exit code 4."""


@dataclass
class ExperimentReport:
    experiment: str
    config_snapshot: dict
    columns: Optional[Sequence[str]] = None
    rows: Optional[list[Sequence[Any]]] = None
    tree: Optional[dict] = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        has_rows = self.rows is not None
        has_tree = self.tree is not None
        if has_rows == has_tree:
            raise ValueError("exactly one of rows/tree must be set")
        if has_rows and not self.columns:
            raise ValueError("tabular reports need a header row")
        if not self.provenance:
            self.provenance = {
                "git_hash": git_hash(),
                "timestamp": _dt.datetime.now(_dt.timezone.utc).isoformat(),
                "seed": self.config_snapshot.get("seed"),
            }

    @property
    def experiment_id(self) -> str:
        return experiment_id(self.experiment, self.config_snapshot)

    def write(self, out_dir: str | Path) -> list[Path]:
        # every file goes through a temporary name, so a failed or
        # interrupted write leaves no file.  Rows and the meta are checked
        # before the directory is created; a tree fails in its temporary file
        if self.rows is not None:
            for row in self.rows:
                for name, x in zip(self.columns, row):
                    if isinstance(x, float) and not math.isfinite(x):
                        raise NonFiniteResultError(f"{self.experiment}: {name} = {x}")
        meta = {"experiment": self.experiment, "config": self.config_snapshot,
                "provenance": self.provenance}
        meta_text = _encode_json(self.experiment, json.dumps, meta)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        eid = self.experiment_id
        if self.rows is not None:
            data_path = out / f"{eid}.csv"
            with _replacing(data_path) as fh:
                w = csv.writer(fh)
                w.writerow(self.columns)
                w.writerows([fmt_float(x) for x in row] for row in self.rows)
        else:
            data_path = out / f"{eid}.json"
            with _replacing(data_path) as fh:  # streamed: never one string
                _encode_json(self.experiment, json.dump, self.tree, fh)
                fh.write("\n")
        meta_path = out / f"{eid}.meta.json"
        with _replacing(meta_path) as fh:
            fh.write(meta_text + "\n")
        return [data_path, meta_path]


def _encode_json(experiment: str, dump: Callable, *args) -> Any:
    """`dump(*args)` (json.dump or json.dumps) with the options of every JSON
    file a report writes; NaN or an infinity raises NonFiniteResultError."""
    try:
        return dump(*args, sort_keys=True, indent=1, ensure_ascii=False, allow_nan=False)
    except ValueError as e:
        raise NonFiniteResultError(f"{experiment}: {e}") from e


@contextmanager
def _replacing(path: Path) -> Iterator[TextIO]:
    """A file to write `path` through: a temporary name in the same
    directory, opened as the file would be, renamed over `path` once the
    block completes, so the replace is atomic and the file mode the same;
    removed if the block raises."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
