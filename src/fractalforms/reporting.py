"""Machine-readable experiment reports.

Tabular results go to RFC-4180-style CSV with a mandatory header and every
float printed to 17 significant digits, so a re-run with the same config
reproduces identical bytes.  Structured results go to UTF-8 JSON with
sorted keys.  A sidecar meta file records the config snapshot and
provenance (git hash, timestamp, seed); the timestamp lives only there so
the data files stay byte-stable.
"""

from __future__ import annotations

import csv
import datetime as _dt
import hashlib
import json
import math
import subprocess
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Optional, Sequence


def fmt_float(x: Any) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


@lru_cache(maxsize=1)
def git_hash() -> str:
    """Commit of the checkout this module was loaded from, resolved once per
    process; "unknown" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", str(Path(__file__).resolve().parent), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip()


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
        # the data is checked before anything is created, so a non-finite
        # float leaves no file behind
        text = None
        if self.rows is not None:
            for row in self.rows:
                for name, x in zip(self.columns, row):
                    if isinstance(x, float) and not math.isfinite(x):
                        raise NonFiniteResultError(f"{self.experiment}: {name} = {x}")
        else:
            try:
                text = json.dumps(
                    self.tree, sort_keys=True, indent=1, ensure_ascii=False, allow_nan=False
                )
            except ValueError as e:
                raise NonFiniteResultError(f"{self.experiment}: {e}") from e
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        eid = self.experiment_id
        paths = []
        if self.rows is not None:
            data_path = out / f"{eid}.csv"
            with open(data_path, "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh)
                w.writerow(self.columns)
                for row in self.rows:
                    w.writerow([fmt_float(x) for x in row])
        else:
            data_path = out / f"{eid}.json"
            with open(data_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        paths.append(data_path)
        meta_path = out / f"{eid}.meta.json"
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "experiment": self.experiment,
                    "config": self.config_snapshot,
                    "provenance": self.provenance,
                },
                fh,
                sort_keys=True,
                indent=1,
                ensure_ascii=False,
            )
            fh.write("\n")
        paths.append(meta_path)
        return paths
