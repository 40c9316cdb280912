"""Seeded synthetic worlds: per-class Gaussian blobs projected onto the unit
sphere, split into sessions with disjoint class spaces, long-tailed pool
sizes, and balanced test sets.

Class centers are drawn uniformly on the sphere and then pushed apart until
every pair is at least `separation * sigma` apart (in one dimension, where
the sphere is the two points -1 and +1, they are placed directly). Within a
session the pool size of the class at position i among C classes follows
the exponential long-tail profile n_i = round(head * ratio^(-i / (C - 1))).

Each class draws its pool rows and then its test rows from its own stream,
`derive_rng(seed, "class", c)`, into one (N, D) noise buffer laid out in id
order; the world is then shifted, scaled and normalized in one pass.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .config import from_json, read_json
from .errors import ConfigError, InfeasibleSeparation
from .features import FeatureStore
from .protocol import SessionPlan, SessionSpec
from .seeding import derive_rng

_MAX_REPULSION_ROUNDS = 10_000
# Elements of one block of the close-center search's difference tensor: 512 KB,
# small enough to stay in cache, which measured faster than larger blocks.
_CLOSE_PAIR_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class WorldConfig:
    num_sessions: int = 5
    classes_per_session: int = 20
    dim: int = 16
    pool_per_class: int = 30      # head-class pool size
    test_per_class: int = 10
    separation: float = 8.0       # min inter-center distance, in units of sigma
    imbalance_ratio: float = 1.0  # head / tail pool-size ratio
    seed: int = 0
    sigma: float = 0.02           # within-class std dev before normalization
    budget: int = 100             # copied into the emitted plan

    def __post_init__(self):
        for name in ("num_sessions", "classes_per_session", "dim",
                     "pool_per_class", "test_per_class", "budget"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 0.0 < self.separation < math.inf:
            raise ConfigError("separation must be finite and > 0")
        if not self.imbalance_ratio >= 1.0:  # NaN fails; infinity gives one-row tails
            raise ConfigError("imbalance_ratio must be a number >= 1")
        if not 0.0 < self.sigma < math.inf:
            raise ConfigError("sigma must be finite and > 0")

    @property
    def num_classes(self) -> int:
        return self.num_sessions * self.classes_per_session

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "WorldConfig":
        return from_json(cls, d, ConfigError)

    @classmethod
    def load(cls, path) -> "WorldConfig":
        return cls.from_dict(read_json(path, ConfigError))


def pool_sizes(config: WorldConfig) -> list[int]:
    """Within-session pool sizes, head to tail."""
    c = config.classes_per_session
    head = config.pool_per_class
    r = config.imbalance_ratio
    if c == 1:
        return [head]
    return [max(1, round(head * r ** (-i / (c - 1)))) for i in range(c)]


def _sphere_points(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    pts = rng.standard_normal((n, dim))
    norms = np.linalg.norm(pts, axis=1)
    while np.any(norms == 0.0):
        redo = norms == 0.0
        pts[redo] = rng.standard_normal((int(redo.sum()), dim))
        norms = np.linalg.norm(pts, axis=1)
    return pts / norms[:, None]


def _close_pairs(centers: np.ndarray, min_dist: float) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j), i < j, closer than min_dist, in row-major order.

    Each block of rows is compared with itself and the rows after it, so
    memory stays O(block * C * D) instead of the C x C x D difference tensor.
    Every pair's distance is the same `np.linalg.norm(a - b)` reduction over
    one contiguous row of D values, so it has the bits of the full tensor.
    """
    c, dim = centers.shape
    block = max(1, _CLOSE_PAIR_ELEMENTS // (c * dim))
    found_i: list[np.ndarray] = []
    found_j: list[np.ndarray] = []
    for a in range(0, c, block):
        b = min(a + block, c)
        dist = np.linalg.norm(centers[a:b, None, :] - centers[None, a:, :], axis=2)
        close = dist < min_dist
        close &= ~np.tri(b - a, c - a, dtype=bool)  # keep only j > i
        rows, cols = np.nonzero(close)
        found_i.append(rows + a)
        found_j.append(cols + a)
    return np.concatenate(found_i), np.concatenate(found_j)


def place_centers(config: WorldConfig) -> np.ndarray:
    """Unit-sphere class centers with pairwise distance >= separation * sigma.

    In one dimension the sphere is the two points -1 and +1, 2 apart, so two
    or more classes fit only as a pair at most 2 apart; anything else raises
    InfeasibleSeparation at once. Two classes drawn on the same pole are
    placed directly, the later one on the other pole.
    """
    rng = derive_rng(config.seed, "centers")
    centers = _sphere_points(rng, config.num_classes, config.dim)
    min_dist = config.separation * config.sigma
    if config.dim == 1 and config.num_classes > 1:
        if config.num_classes > 2:
            raise InfeasibleSeparation(0, f"{config.num_classes} classes in one dimension, "
                                          "which has room for two")
        if min_dist > 2.0:
            raise InfeasibleSeparation(0, f"a minimum distance of {min_dist} in one "
                                          "dimension, where centers are at most 2 apart")
        if centers[0, 0] == centers[1, 0] and min_dist < 2.0:
            # The pushes below stay under 1 here, so they would never flip a
            # pole. (At exactly 2 they do, at random, and that loop stays.)
            centers[1] = -centers[1]
            return centers
    step = 0.5 * min_dist
    for _ in range(_MAX_REPULSION_ROUNDS):
        bad_i, bad_j = _close_pairs(centers, min_dist)
        if bad_i.size == 0:
            return centers
        for i, j in zip(bad_i, bad_j):
            # recompute at push time: earlier pairs may have moved i or j
            gap = centers[i] - centers[j]
            d = float(np.linalg.norm(gap))
            direction = gap / d if d > 0.0 else _sphere_points(rng, 1, config.dim)[0]
            centers[i] = centers[i] + step * direction
            centers[j] = centers[j] - step * direction
        norms = np.linalg.norm(centers, axis=1)
        stuck = norms == 0.0
        if np.any(stuck):
            centers[stuck] = _sphere_points(rng, int(stuck.sum()), config.dim)
            norms[stuck] = 1.0
        centers = centers / norms[:, None]
    raise InfeasibleSeparation(attempted=_MAX_REPULSION_ROUNDS)


def generate(config: WorldConfig) -> tuple[FeatureStore, SessionPlan]:
    """Build the feature store and matching session plan for one world.

    Ids are dense in [0, N), assigned session by session: each session lays
    out its pool rows (class by class, head to tail) and then its balanced
    test rows. Each class draws its pool rows and then its test rows from its
    own stream `derive_rng(seed, "class", c)`, straight into their rows of one
    (N, D) buffer; the whole world is then transformed in one pass:
    center + sigma * noise, scaled to unit norm. A class with a zero-norm row
    is rebuilt from a fresh copy of its stream, redrawing that row before its
    test rows. Regeneration with the same config is byte-identical.
    """
    centers = place_centers(config)
    sizes = pool_sizes(config)
    per_class = config.classes_per_session
    num_test = config.test_per_class
    pool_total = sum(sizes)
    session_rows = pool_total + per_class * num_test
    pool_starts = np.cumsum([0, *sizes[:-1]])

    x = np.empty((config.num_sessions * session_rows, config.dim))  # noise, then features
    row_class = np.empty(x.shape[0], dtype=np.int64)
    sessions: list[SessionSpec] = []
    for t in range(config.num_sessions):
        base = t * session_rows
        class_ids = tuple(range(t * per_class, (t + 1) * per_class))
        for i, c in enumerate(class_ids):
            rng = derive_rng(config.seed, "class", c)
            pool = slice(base + pool_starts[i], base + pool_starts[i] + sizes[i])
            test_start = base + pool_total + i * num_test
            test = slice(test_start, test_start + num_test)
            rng.standard_normal(out=x[pool])
            rng.standard_normal(out=x[test])
            row_class[pool] = c
            row_class[test] = c
        sessions.append(SessionSpec(
            class_ids,
            tuple(range(base, base + pool_total)),
            tuple(range(base + pool_total, base + session_rows)),
        ))

    x *= config.sigma
    x += centers[row_class]
    norms = np.linalg.norm(x, axis=1)
    zero = norms == 0.0
    if np.any(zero):
        for c in np.unique(row_class[zero]).tolist():
            rows = row_class == c
            rng = derive_rng(config.seed, "class", c)
            i = c % per_class
            pool = _blob(rng, centers[c], config.sigma, sizes[i])
            x[rows] = np.vstack((pool, _blob(rng, centers[c], config.sigma, num_test)))
            norms[rows] = 1.0
    x /= norms[:, None]

    store = FeatureStore(x, labels=row_class, normalized=True)
    plan = SessionPlan(
        sessions=tuple(sessions), budget=config.budget, seed=config.seed
    ).validate()
    return store, plan


def _blob(rng: np.random.Generator, center: np.ndarray, sigma: float, n: int) -> np.ndarray:
    """n unit rows around center, redrawing zero-norm rows from rng at once.

    `generate` calls this only to rebuild a class that drew a zero-norm row.
    """
    x = center[None, :] + sigma * rng.standard_normal((n, center.shape[0]))
    norms = np.linalg.norm(x, axis=1)
    while np.any(norms == 0.0):
        redo = norms == 0.0
        x[redo] = center[None, :] + sigma * rng.standard_normal((int(redo.sum()), center.shape[0]))
        norms = np.linalg.norm(x, axis=1)
    return x / norms[:, None]
