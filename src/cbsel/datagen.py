"""Seeded synthetic worlds: per-class Gaussian blobs projected onto the unit
sphere, split into sessions with disjoint class spaces, long-tailed pool
sizes, and balanced test sets.

Class centers are drawn uniformly on the sphere and then pushed apart until
every pair is at least `separation * sigma` apart. Within a session the pool
size of the class at position i among C classes follows the exponential
long-tail profile n_i = round(head * ratio^(-i / (C - 1))).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .config import from_json
from .errors import ConfigError, InfeasibleSeparation
from .features import FeatureStore
from .protocol import SessionPlan, SessionSpec
from .seeding import derive_rng

_MAX_REPULSION_ROUNDS = 10_000


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
        if not self.separation > 0.0:
            raise ConfigError("separation must be > 0")
        if self.imbalance_ratio < 1.0:
            raise ConfigError("imbalance_ratio must be >= 1")
        if not self.sigma > 0.0:
            raise ConfigError("sigma must be > 0")

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
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


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


def place_centers(config: WorldConfig) -> np.ndarray:
    """Unit-sphere class centers with pairwise distance >= separation * sigma."""
    rng = derive_rng(config.seed, "centers")
    centers = _sphere_points(rng, config.num_classes, config.dim)
    min_dist = config.separation * config.sigma
    step = 0.5 * min_dist
    for _ in range(_MAX_REPULSION_ROUNDS):
        diff = centers[:, None, :] - centers[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        np.fill_diagonal(dist, np.inf)
        bad_i, bad_j = np.where(dist < min_dist)
        if bad_i.size == 0:
            return centers
        for i, j in zip(bad_i, bad_j):
            if i >= j:
                continue
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
    test rows. Features are center + sigma * noise, scaled to unit norm.
    Regeneration with the same config is byte-identical.
    """
    centers = place_centers(config)
    sizes = pool_sizes(config)

    vec_blocks: list[np.ndarray] = []
    labels: list[int] = []
    sessions: list[SessionSpec] = []
    next_id = 0
    for t in range(config.num_sessions):
        class_ids = [t * config.classes_per_session + i
                     for i in range(config.classes_per_session)]
        pool_ids: list[int] = []
        test_blocks: list[tuple[int, np.ndarray]] = []
        for i, c in enumerate(class_ids):
            rng = derive_rng(config.seed, "class", c)
            pool = _blob(rng, centers[c], config.sigma, sizes[i])
            test_blocks.append((c, _blob(rng, centers[c], config.sigma, config.test_per_class)))
            vec_blocks.append(pool)
            labels.extend([c] * sizes[i])
            pool_ids.extend(range(next_id, next_id + sizes[i]))
            next_id += sizes[i]
        test_ids: list[int] = []
        for c, block in test_blocks:
            vec_blocks.append(block)
            labels.extend([c] * config.test_per_class)
            test_ids.extend(range(next_id, next_id + config.test_per_class))
            next_id += config.test_per_class
        sessions.append(SessionSpec(tuple(class_ids), tuple(pool_ids), tuple(test_ids)))

    store = FeatureStore(np.vstack(vec_blocks), labels=labels, normalized=True)
    plan = SessionPlan(
        sessions=tuple(sessions), budget=config.budget, seed=config.seed
    ).validate()
    return store, plan


def _blob(rng: np.random.Generator, center: np.ndarray, sigma: float, n: int) -> np.ndarray:
    x = center[None, :] + sigma * rng.standard_normal((n, center.shape[0]))
    norms = np.linalg.norm(x, axis=1)
    while np.any(norms == 0.0):
        redo = norms == 0.0
        x[redo] = center[None, :] + sigma * rng.standard_normal((int(redo.sum()), center.shape[0]))
        norms = np.linalg.norm(x, axis=1)
    return x / norms[:, None]
