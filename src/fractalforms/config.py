"""Run configuration: plain-text key=value files plus flag overrides.

Flags win over the file; the file wins over defaults.  Loading a file
checks each key in it by its own rule.  A run keeps only the keys its
subcommand reads, with every other key at its default, and checks them again
once the flags are folded in; config_dict takes those keys for the run's
meta and experiment id.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Optional

from .kinds import SC_LEVEL_CAP, SG_LEVEL_CAP, FractalKind
from .treewalk import check_walk_keys


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2 in the CLI."""


@dataclass(frozen=True)
class RunConfig:
    kind: str = "sg"
    level_cap_sg: int = SG_LEVEL_CAP
    level_cap_sc: int = SC_LEVEL_CAP
    beta_grid: tuple[float, ...] = ()
    lam: float = 0.5
    C1: float = 1.0
    C2: float = 1.0
    c: Optional[float] = None
    samples: int = 100_000
    mc_samples: int = 200_000
    depth_cut: int = 12
    seed: int = 0
    out_dir: str = "runs"
    cache_dir: str = ".fractalforms-cache"

    def fractal_kind(self) -> FractalKind:
        return FractalKind(self.kind)

    def level_cap(self) -> int:
        return getattr(self, f"level_cap_{self.kind}")

    def beta_star(self) -> float:
        return self.fractal_kind().beta_star

    def validate(self) -> "RunConfig":
        if self.kind not in ("sg", "sc"):
            raise ConfigError(f"kind must be sg or sc, got {self.kind!r}")
        try:  # each walk key by its own rule; the rules at the run's depth cut
            # and the seed range are checked where the walk runs
            check_walk_keys(self.lam, self.C1, self.C2, self.c, self.samples, self.depth_cut)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        alpha = self.fractal_kind().alpha
        bstar = self.beta_star()
        for b in self.beta_grid:
            if not alpha < b < bstar:
                raise ConfigError(
                    f"beta grid entry {b} outside ({alpha:.6f}, {bstar:.6f})"
                )
        # a config may lower the package's level caps, never raise them
        if not 1 <= self.level_cap_sg <= SG_LEVEL_CAP:
            raise ConfigError(f"level_cap_sg must be in [1, {SG_LEVEL_CAP}]")
        if not 1 <= self.level_cap_sc <= SC_LEVEL_CAP:
            raise ConfigError(f"level_cap_sc must be in [1, {SC_LEVEL_CAP}]")
        if self.mc_samples < 2:
            raise ConfigError(f"mc_samples must be >= 2, got {self.mc_samples}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        return self


def _parse_value(name: str, raw: str):
    ftypes = {f.name: f.type for f in fields(RunConfig)}
    if name not in ftypes:
        raise ConfigError(f"unknown config key {name!r}")
    raw = raw.strip()
    try:
        if name == "beta_grid":
            if not raw:
                return ()
            return tuple(float(x) for x in raw.split(","))
        if name == "c":
            if raw in ("", "none"):
                return None
            return float(raw)
        if name in ("kind", "out_dir", "cache_dir"):
            return raw
        if name in ("lam", "C1", "C2"):
            return float(raw)
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name!r}: {raw!r}") from exc


def parse_config_text(text: str) -> RunConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        values[key] = _parse_value(key, raw)
    return RunConfig(**values).validate()


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return parse_config_text(p.read_text())


def config_dict(cfg: RunConfig, keys: Iterable[str]) -> dict:
    """The values of `keys` in `cfg`, as JSON takes them."""
    out = {}
    for k in keys:
        v = getattr(cfg, k)
        out[k] = list(v) if isinstance(v, tuple) else v
    return out


def apply_overrides(cfg: RunConfig, **overrides) -> RunConfig:
    clean = {k: v for k, v in overrides.items() if v is not None}
    if not clean:
        return cfg.validate()
    return replace(cfg, **clean).validate()
