"""Run configuration: every tunable with its documented range, merged from
defaults, then a JSON config file, then CBSEL_* environment variables, then
explicit flag overrides. Unknown keys are rejected rather than ignored.
`read_json`, `from_json` and `to_json` read and write the config, world, plan
and report files, and every output file is written through `atomic_write`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
import types
import typing
from dataclasses import dataclass

from .errors import ConfigError
from .gaussian import VAR_FLOOR
from .kmeans import DEFAULT_MAX_ITER
from .learner import DEFAULT_ALPHA, DEFAULT_REPLAY_PER_CLASS, DEFAULT_TEMPERATURE

CONFIG_SCHEMA_VERSION = 2
ENV_PREFIX = "CBSEL_"

# Smallest accepted temperature. Prototypes and feature rows are unit
# vectors, so a cosine logit is at most about 1 / T in magnitude and a
# difference of two logits about 2 / T. From T = 1e-300 up the learner's
# float64 logits stay far below float64's overflow at 1.8e308; a subnormal
# T can overflow them. The uncertainty scorers compute their logits in
# float32 with the scale 1 / T capped at a quarter of float32's max
# (baselines.LOGIT_SCALE_CAP), so every accepted T gives them finite
# logits and keys. Far above the floor, from about T = 1e-4 down, the softmax
# saturates: a row's top probability rounds to 1 once its two largest
# cosines differ by a few dozen T, so every margin reads 1 and every
# entropy 0, and entropy/margin rank all open rows equal and pick them in
# id order. At the other end, from about T = 10, the softmax is near
# uniform and entropy ranks rows by differences near float32 rounding.
TEMPERATURE_FLOOR = 1e-300

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


@dataclass(frozen=True)
class RunConfig:
    var_floor: float = VAR_FLOOR                      # finite, > 0; minimum per-dimension variance
    kmeans_max_iter: int = DEFAULT_MAX_ITER           # >= 1
    temperature: float = DEFAULT_TEMPERATURE          # finite, >= 1e-300 or logits overflow; saturates from ~1e-4 down; cosine-softmax temperature
    alpha: float = DEFAULT_ALPHA                      # [0, 1]; weight of the previous prototype in replay blending
    replay_per_class: int = DEFAULT_REPLAY_PER_CLASS  # >= 0; pseudo-features sampled per old class
    round_size: int = 20                              # >= 1; labels per uncertainty round
    use_unlabeled_distributions: bool = False

    def __post_init__(self):
        if not 0.0 < self.var_floor < math.inf:
            raise ConfigError("var_floor must be finite and > 0")
        if self.kmeans_max_iter < 1:
            raise ConfigError("kmeans_max_iter must be >= 1")
        if not 0.0 < self.temperature < math.inf:
            raise ConfigError("temperature must be finite and > 0")
        if self.temperature < TEMPERATURE_FLOOR:
            raise ConfigError(f"temperature must be >= {TEMPERATURE_FLOOR:g}, "
                              "or the cosine logits overflow")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must be in [0, 1]")
        if self.replay_per_class < 0:
            raise ConfigError("replay_per_class must be >= 0")
        if self.round_size < 1:
            raise ConfigError("round_size must be >= 1")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# Field name -> type: the schema the config file, environment and CLI share.
TYPES = typing.get_type_hints(RunConfig)


def from_json(cls, obj, error: type[Exception]):
    """Build dataclass `cls` from the parsed JSON value `obj`, or raise `error`
    naming the class and key path when `obj` is not an object, has an unknown
    key, lacks a field without a default, or holds a value unlike the field's
    type hint: int (not bool), float (ints widen), bool, str, `X | None`,
    `list[X]`, `tuple[X, ...]`, `dict[int, X]` (string keys) or a dataclass."""
    return cls(**_fields(cls, obj, cls.__name__, error))


def read_json(path, error: type[Exception]):
    """The parsed JSON value of the UTF-8 file at `path`; raises `error`
    naming the file when it does not decode or does not parse."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise error(f"{path} is not a UTF-8 JSON file: {exc}") from None


@contextlib.contextmanager
def atomic_write(path):
    """A UTF-8 text file, `.tmp-*.part` beside `path`, moved onto `path` when
    the block ends and removed if it raises, so `path` is never torn.
    newline="" writes a CSV's \\r\\n as given; the umask sets the mode."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}.part")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def to_json(obj) -> dict:
    """Shallow dict of a dataclass's fields, dict keys made strings as in JSON;
    nested dataclasses are left to the caller."""
    out = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return {k: {str(c): x for c, x in v.items()} if type(v) is dict else v for k, v in out.items()}


@functools.cache
def _shape(hint) -> tuple:
    """(origin, args, fields) of a type hint, resolved once. `fields` maps a
    dataclass's field names to (hint, required) and is None for other hints."""
    if not dataclasses.is_dataclass(hint):
        return typing.get_origin(hint), typing.get_args(hint), None
    hints = typing.get_type_hints(hint)
    return None, (), {f.name: (hints[f.name], f.default is dataclasses.MISSING
                                 and f.default_factory is dataclasses.MISSING)
                      for f in dataclasses.fields(hint)}


def _fields(cls, obj, where: str, error) -> dict:
    if type(obj) is not dict:
        raise error(f"{where}: expected dict, got {type(obj).__name__}")
    fields = _shape(cls)[2]
    unknown = sorted(obj.keys() - fields.keys())
    missing = [name for name, (_, required) in fields.items() if required and name not in obj]
    if unknown or missing:
        raise error(f"{where}: unknown keys {unknown}" if unknown else
                    f"{where}: missing key {missing[0]!r}")
    return {name: _read(fields[name][0], v, f"{where}.{name}", error) for name, v in obj.items()}


# JSON value types that a hint (or its origin) accepts besides itself.
_ACCEPTED = {list: (list, tuple), tuple: (list, tuple), float: (float, int)}


def _read(hint, v, where: str, error):
    origin, args, fields = _shape(hint)
    if fields is not None:
        return hint(**_fields(hint, v, where, error))
    if origin is types.UnionType:  # X | None
        return None if v is None else _read(args[0], v, where, error)
    accepted = _ACCEPTED.get(origin or hint, (origin or hint,))
    if type(v) not in accepted:
        raise error(f"{where}: expected {accepted[0].__name__}, got {type(v).__name__}")
    if origin is dict:  # dict[int, X]
        try:
            keys = list(map(int, v))
        except ValueError:
            raise error(f"{where}: expected integer keys, got {sorted(v)}") from None
        if set(map(type, v.values())) <= {args[1]}:
            return dict(zip(keys, v.values()))
        return {k: _read(args[1], x, f"{where}[{k}]", error) for k, x in zip(keys, v.values())}
    if origin is not None:  # list[X] or tuple[X, ...]
        if set(map(type, v)) <= {args[0]}:  # one pass when no item needs a conversion
            return origin(v)
        return origin(_read(args[0], x, f"{where}[{i}]", error) for i, x in enumerate(v))
    return hint(v)


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
    wrong-typed or unparsable values, or out-of-range results; ranges are
    checked once, on the merged config."""
    merged: dict = {}
    if path is not None:
        merged.update(_fields(RunConfig, read_json(path, ConfigError), "RunConfig", ConfigError))

    env = os.environ if env is None else env
    for key in TYPES:
        raw = env.get(ENV_PREFIX + key.upper())
        if raw is not None:
            merged[key] = _coerce(key, raw)

    if overrides:
        merged.update((k, v) for k, v in overrides.items() if v is not None)
    return from_json(RunConfig, merged, ConfigError)
