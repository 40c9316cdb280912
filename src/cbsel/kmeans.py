"""Seeded k-means on normalized features: k-means++ init, Lloyd iterations,
empty-cluster repair. Squared Euclidean distance on the unit sphere orders
points the same way cosine distance does."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KTooLarge, NotNormalized
from .features import FeatureStore

DEFAULT_MAX_ITER = 100
DEFAULT_TOL = 1e-4
# Fewest rows per block of argmin_rows's scores (see there).
ASSIGN_BLOCK_ROWS = 1024


@dataclass
class Clustering:
    k: int
    assignments: np.ndarray  # (N,) in [0, k), aligned with the store's ids
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
    bins = np.empty(x.shape, dtype=np.int64)
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        new_centroids = _update(x, assign, centroids, k, bins)
        assign = _assign(x, new_centroids)
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < tol:
            break

    assign, centroids = _repair_empty(x, assign, centroids, k, bins)
    del bins  # _inertia's N x D differences take its place
    return Clustering(
        k=k,
        assignments=assign,
        centroids=centroids,
        iterations_run=iterations,
        inertia=_inertia(x, centroids, assign),
    )


def _plus_plus_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    diff = np.empty_like(x)
    chosen = [int(rng.integers(n))]
    d2 = _dist2_to(x, x[chosen[0]], diff)
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
        d2 = np.minimum(d2, _dist2_to(x, x[idx], diff))
    return x[chosen].copy()


def _dist2_to(x: np.ndarray, c: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Squared distances of the rows of `x` to `c`; `diff`, shaped like `x`,
    holds the differences."""
    np.subtract(x, c, out=diff)
    return np.einsum("ij,ij->i", diff, diff)


def _assign(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # argmin ||x - c||^2 = argmin ||c||^2 - 2 x.c: the ||x||^2 term is the
    # same for every centroid of a row; ties go to the lowest centroid index.
    # Scaling by -2 is exact and a + (-b) rounds as a - b, so the scores hold
    # exactly the bits of ||c||^2 - (2x) @ c.T.
    return argmin_rows(x, (-2.0 * centroids).T, np.sum(centroids * centroids, axis=1))


def argmin_rows(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Per row of `x`, the column index of the smallest entry of
    x @ w (+ `bias`, one value per column), ties to the lowest index.

    Rows are scored in blocks that start at multiples of ASSIGN_BLOCK_ROWS,
    the last one taking the remainder, so one block's scores stay in cache
    and no (N, k) score matrix is made. Every block of an input that has
    ASSIGN_BLOCK_ROWS rows has at least that many: there each score is the
    same length-D dot product as in one unblocked product, with
    single-threaded BLAS on every kernel tried. Small blocks would not keep
    the bits: a one-row block goes through gemv.
    """
    n, k = x.shape[0], w.shape[1]
    last = max(0, n // ASSIGN_BLOCK_ROWS - 1) * ASSIGN_BLOCK_ROWS
    scores = np.empty((n - last, k))
    out = np.empty(n, dtype=np.intp)
    for a in range(0, last + 1, ASSIGN_BLOCK_ROWS):
        b = n if a == last else a + ASSIGN_BLOCK_ROWS
        s = np.matmul(x[a:b], w, out=scores[: b - a])
        if bias is not None:
            s += bias
        np.argmin(s, axis=1, out=out[a:b])
    return out


def _update(x: np.ndarray, assign: np.ndarray, old: np.ndarray, k: int,
            bins: np.ndarray | None = None) -> np.ndarray:
    """Member means in one pass; an empty cluster keeps its old centroid.
    `bins`, an int64 array shaped like `x`, is overwritten if given."""
    # One bincount over (cluster, dimension) bins: each bin adds its rows in
    # ascending order from 0.0, as np.add.at does, so the sums are bit-equal;
    # np.add.reduceat over sorted rows measurably is not. A caller that
    # updates many times passes one bins buffer, so no step faults in a
    # fresh N x D array.
    d = x.shape[1]
    counts = np.bincount(assign, minlength=k)
    if bins is None:
        bins = np.empty(x.shape, dtype=np.int64)
    np.multiply(assign[:, None], d, out=bins)
    bins += np.arange(d)
    sums = np.bincount(bins.ravel(), weights=x.ravel(), minlength=k * d).reshape(k, d)
    out = old.copy()
    filled = counts > 0
    out[filled] = sums[filled] / counts[filled, None]
    return out


def _inertia(x: np.ndarray, centroids: np.ndarray, assign: np.ndarray) -> float:
    diff = x - centroids[assign]
    return float(np.einsum("ij,ij->", diff, diff))


def _repair_empty(
    x: np.ndarray, assign: np.ndarray, centroids: np.ndarray, k: int, bins: np.ndarray
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
        diff = x - centroids[assign]
        d2 = np.einsum("ij,ij->i", diff, diff)
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
        centroids = _update(x, assign, centroids, k, bins)
        if attempt < k:
            assign = _assign(x, centroids)
            centroids = _update(x, assign, centroids, k, bins)
    return assign, centroids
