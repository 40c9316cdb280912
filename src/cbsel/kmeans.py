"""Seeded k-means on normalized features: k-means++ init, Lloyd iterations,
empty-cluster repair. Squared Euclidean distance on the unit sphere orders
points the same way cosine distance does."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, KTooLarge, NotNormalized
from .features import FeatureStore

DEFAULT_MAX_ITER = 100
DEFAULT_TOL = 1e-4


@dataclass
class Clustering:
    k: int
    ids: np.ndarray          # pool ids, aligned with assignments
    assignments: np.ndarray  # (N,) in [0, k)
    centroids: np.ndarray    # (k, D)
    iterations_run: int
    inertia: float

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.k)


def kmeans(
    store: FeatureStore,
    k: int,
    seed: int,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> Clustering:
    """Cluster the store into k groups, deterministically for a given seed.

    Lloyd iterations run from a k-means++ initialization until the largest
    centroid displacement drops below `tol` or `max_iter` is reached. Empty
    clusters are repaired before returning, so every cluster index has at
    least one member and cluster sizes sum to N.
    """
    n = len(store)
    if k < 1 or k > n:
        raise KTooLarge(f"k={k} must be in [1, {n}]")
    if not store.normalized:
        raise NotNormalized("kmeans expects L2-normalized features")
    x = store.vectors
    rng = np.random.default_rng(seed)

    centroids = _plus_plus_init(x, k, rng)
    assign = _assign(x, centroids)
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        new_centroids = _update(x, assign, centroids, k)
        assign = _assign(x, new_centroids)
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < tol:
            break

    assign, centroids = _repair_empty(x, assign, centroids, k)
    return Clustering(
        k=k,
        ids=store.ids.copy(),
        assignments=assign,
        centroids=centroids,
        iterations_run=iterations,
        inertia=_inertia(x, centroids, assign),
    )


def cluster_members(clustering: Clustering, j: int) -> list[int]:
    """Ids assigned to cluster j, in ascending id order."""
    if not 0 <= j < clustering.k:
        raise IndexOutOfRange(f"cluster index {j} out of [0, {clustering.k})")
    return clustering.ids[clustering.assignments == j].tolist()


def _plus_plus_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = _dist2_to(x, x[chosen[0]])
    while len(chosen) < k:
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # All remaining points coincide with a center; take the lowest
            # unchosen index so the run stays deterministic.
            taken = set(chosen)
            idx = next(i for i in range(n) if i not in taken)
        chosen.append(idx)
        d2 = np.minimum(d2, _dist2_to(x, x[idx]))
    return x[chosen].copy()


def _dist2_to(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    diff = x - c[None, :]
    return np.einsum("ij,ij->i", diff, diff)


def _assign(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # argmin ||x - c||^2 = argmin ||c||^2 - 2 x.c: the ||x||^2 term is the
    # same for every centroid of a row.
    return np.argmin(np.sum(centroids * centroids, axis=1) - 2.0 * x @ centroids.T, axis=1)


def _update(x: np.ndarray, assign: np.ndarray, old: np.ndarray, k: int) -> np.ndarray:
    """Member means in one pass; an empty cluster keeps its old centroid."""
    counts = np.bincount(assign, minlength=k)
    sums = np.zeros_like(old)
    np.add.at(sums, assign, x)
    out = old.copy()
    filled = counts > 0
    out[filled] = sums[filled] / counts[filled, None]
    return out


def _inertia(x: np.ndarray, centroids: np.ndarray, assign: np.ndarray) -> float:
    diff = x - centroids[assign]
    return float(np.einsum("ij,ij->", diff, diff))


def _repair_empty(
    x: np.ndarray, assign: np.ndarray, centroids: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Donate the farthest-from-centroid points to empty clusters.

    After each donation round the centroids are recomputed and one extra
    Lloyd step runs, which can itself empty a cluster, so the loop repeats
    (bounded). The final round skips the Lloyd step, guaranteeing that no
    cluster is empty on return.
    """
    for attempt in range(k + 1):
        counts = np.bincount(assign, minlength=k)
        empties = np.where(counts == 0)[0]
        if empties.size == 0:
            break
        d2 = np.einsum("ij,ij->i", x - centroids[assign], x - centroids[assign])
        order = np.argsort(-d2, kind="stable")
        cursor = 0
        for j in empties:
            while True:
                i = int(order[cursor])
                cursor += 1
                if counts[assign[i]] >= 2:
                    break
            counts[assign[i]] -= 1
            counts[j] += 1
            assign[i] = j
        centroids = _update(x, assign, centroids, k)
        if attempt < k:
            assign = _assign(x, centroids)
            centroids = _update(x, assign, centroids, k)
    return assign, centroids
