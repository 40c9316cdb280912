"""Run configuration: every tunable with its documented range, merged from
defaults, then a JSON config file, then CBSEL_* environment variables, then
explicit flag overrides. Unknown keys are rejected rather than ignored.
"""

from __future__ import annotations

import dataclasses
import json
import os
import typing
from dataclasses import dataclass

from .errors import ConfigError

CONFIG_SCHEMA_VERSION = 1
ENV_PREFIX = "CBSEL_"

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


@dataclass(frozen=True)
class RunConfig:
    var_floor: float = 1e-6          # > 0; minimum per-dimension variance
    kmeans_max_iter: int = 100       # >= 1
    kmeans_tol: float = 1e-4         # > 0; max centroid displacement to converge
    temperature: float = 0.07        # > 0; cosine-softmax temperature
    alpha: float = 0.5               # [0, 1]; weight of the previous prototype in replay blending
    replay_per_class: int = 20       # >= 0; pseudo-features sampled per old class
    round_size: int = 20             # >= 1; labels per uncertainty round
    use_unlabeled_distributions: bool = False

    def __post_init__(self):
        if not self.var_floor > 0.0:
            raise ConfigError("var_floor must be > 0")
        if self.kmeans_max_iter < 1:
            raise ConfigError("kmeans_max_iter must be >= 1")
        if not self.kmeans_tol > 0.0:
            raise ConfigError("kmeans_tol must be > 0")
        if not self.temperature > 0.0:
            raise ConfigError("temperature must be > 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must be in [0, 1]")
        if self.replay_per_class < 0:
            raise ConfigError("replay_per_class must be >= 0")
        if self.round_size < 1:
            raise ConfigError("round_size must be >= 1")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def replace(self, **overrides) -> "RunConfig":
        clean = {k: v for k, v in overrides.items() if v is not None}
        _check_keys(clean)
        return dataclasses.replace(self, **clean)


# Field name -> type: the schema the config file, environment and CLI share.
TYPES = typing.get_type_hints(RunConfig)


def _check_keys(d: dict) -> None:
    unknown = sorted(set(d) - set(TYPES))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")


def _coerce(key: str, raw: str):
    ty = TYPES[key]
    if ty is bool:
        low = raw.strip().lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ConfigError(f"cannot parse boolean {key}={raw!r}")
    try:
        return ty(raw)
    except ValueError:
        raise ConfigError(f"cannot parse {ty.__name__} {key}={raw!r}") from None


def load_config(path=None, overrides: dict | None = None, env=None) -> RunConfig:
    """Defaults, then the JSON file at `path`, then CBSEL_* env vars, then
    `overrides` (None values skipped). Raises ConfigError on unknown keys,
    unparsable values, or out-of-range results."""
    merged: dict = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {path} must contain a JSON object")
        _check_keys(file_cfg)
        merged.update(file_cfg)

    env = os.environ if env is None else env
    for key in TYPES:
        raw = env.get(ENV_PREFIX + key.upper())
        if raw is not None:
            merged[key] = _coerce(key, raw)

    if overrides:
        clean = {k: v for k, v in overrides.items() if v is not None}
        _check_keys(clean)
        merged.update(clean)

    _check_keys(merged)
    return RunConfig(**merged)
