"""Seeded k-means on normalized features: k-means++ init, Lloyd iterations,
empty-cluster repair. Squared Euclidean distance on the unit sphere orders
points the same way cosine distance does.

Lloyd's assignments score a float32 copy of the rows, made once per call,
against the centroids cast to float32; seeding, the member sums and the
centroids stay float64. Lloyd has one stop rule: it stops as soon as a step
leaves every assignment as it was, since the next step would compute the
same centroids bit for bit, or at the `max_iter` cap.

Results have the bits of the plain algorithm (tests/reference_impls.py
keeps it). On pools of 2 * ASSIGN_BLOCK_ROWS rows or more, three steps do
less work for the same bits:

- `next_centers`, the k-center loop of k-means++ seeding and of
  `baselines.coreset_select`, keeps each row's squared distance d2 to its
  nearest center, which a new center lowers only on rows nearer to it. The
  norm-expanded distance |x|^2 + |c|^2 - 2 x.c, one product x @ c per
  center against row norms computed once, picks those rows out: the exact
  distance and np.minimum run only where it is at most d2 plus a bound on
  its rounding error (see there). Elsewhere the exact distance is above d2,
  so every d2, every draw, every coreset pick and every center is unchanged.
- argmin_rows adds the bias to whole 64-row tiles in one contiguous add.
- After the first Lloyd step only the clusters whose membership changed
  are summed again, from their rows in ascending order, as the full sum
  adds them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KTooLarge, NotNormalized
from .features import FeatureStore
from .gaussian import group_sums

DEFAULT_MAX_ITER = 100
# Fewest rows per block of argmin_rows's float64 and float32 scores (see there).
ASSIGN_BLOCK_ROWS = 1024
ASSIGN_BLOCK_ROWS_F32 = 1536
# Rows per tile of argmin_rows's bias add on large inputs (see there).
BIAS_TILE_ROWS = 64


@dataclass
class Clustering:
    k: int
    assignments: np.ndarray  # (N,) in [0, k), aligned with the store's ids
    centroids: np.ndarray    # (k, D)
    iterations_run: int

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.k)


def kmeans(
    store: FeatureStore,
    k: int,
    seed: int,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Clustering:
    """Cluster the store into k groups, deterministically for a given seed.

    Lloyd iterations run from a k-means++ initialization until a step moves
    no row to another cluster, or for `max_iter` steps: there is no other
    stop rule. Empty clusters are repaired before returning, so every
    cluster index has at least one member and cluster sizes sum to N.
    """
    n = len(store)
    if k < 1 or k > n:
        raise KTooLarge(f"k={k} must be in [1, {n}]")
    if not store.normalized:
        raise NotNormalized("kmeans expects L2-normalized features")
    # A writeable copy: np.bincount copies read-only weights on every sum.
    x = store.vectors.copy()
    x32 = x.astype(np.float32)
    rng = np.random.default_rng(seed)

    centroids = _plus_plus_init(x, k, rng)
    assign = _assign(x32, centroids)
    bins = np.empty(x.shape, dtype=np.int64)
    # On large pools, after the first step only the clusters whose
    # membership changed are summed again.
    resum = n >= 2 * ASSIGN_BLOCK_ROWS
    changed = sums = None  # None: sum every cluster
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        sums = _resum(x, assign, changed, sums, k, bins)
        new_centroids = _means(sums, np.bincount(assign, minlength=k), centroids)
        new_assign = _assign(x32, new_centroids)
        if resum:
            moved = new_assign != assign
            settled = not moved.any()
            changed = np.zeros(k, dtype=bool)
            changed[assign[moved]] = True
            changed[new_assign[moved]] = True
        else:
            settled = np.array_equal(new_assign, assign)
        assign = new_assign
        centroids = new_centroids
        if settled:
            break

    assign, centroids = _repair_empty(x, x32, assign, centroids, k, bins)
    return Clustering(k=k, assignments=assign, centroids=centroids, iterations_run=iterations)


def _plus_plus_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ centers: the first uniformly, each next one drawn with
    probability proportional to `d2`, the squared distance to its nearest
    center so far (`next_centers`)."""
    cdf = np.empty(len(x))

    def draw(d2: np.ndarray) -> int | None:
        total = float(d2.sum())
        return _draw(d2, total, rng, cdf) if total > 0.0 else None

    return x[next_centers(x, int(rng.integers(len(x))), k, draw)]


def next_centers(x: np.ndarray, first: int, k: int, choose) -> list[int]:
    """Row `first` of `x`, then k - 1 more rows, each `choose(d2)`: the
    k-center loop of k-means++ seeding and of coreset. d2 is every row's
    squared distance to its nearest chosen row (0.0 on a chosen row). When
    `choose` finds no row with d2 > 0 it returns None and the lowest
    unchosen row is taken, so duplicates and k above the number of distinct
    rows stay deterministic.

    On pools of 2 * ASSIGN_BLOCK_ROWS rows or more, a new center c measures
    exactly (`_dist2_to`) only the rows whose expanded distance
    e = |x|^2 + |c|^2 - 2 x.c is at most `margin` above their d2.

    Error bound: let t be |x - c|^2 in exact arithmetic, u = eps / 2, and
    R^2 the largest |x|^2 floored at 1. The exact path rounds D differences,
    D squares and a D-term sum, so it is within
    (D + 2) u t <= (D + 2) u (|x| + |c|)^2 of t to first order. e rounds
    three D-term sums and two additions, so it is within
    (D + 2) u (|x| + |c|)^2 of t as well. As (|x| + |c|)^2 <= 4 R^2, the two
    differ by at most 4 (D + 2) eps R^2. `margin` is four times that; the
    slack covers the second-order terms, R^2 itself being rounded, the
    rounding of e - margin and the absolute error of underflowing products
    (hence the floor at 1). So a row left out has an exact distance above
    its d2, and np.minimum would have kept d2's bits.
    """
    n, d = x.shape
    diff = np.empty_like(x)
    chosen = [first]
    d2 = _dist2_to(x, x[first], diff)
    filtered = n >= 2 * ASSIGN_BLOCK_ROWS
    if filtered:
        sq = np.einsum("ij,ij->i", x, x)
        margin = 16.0 * (d + 2) * np.finfo(np.float64).eps * max(float(sq.max()), 1.0)
        est = np.empty(n)
        admit = np.empty(n, dtype=bool)
    while len(chosen) < k:
        idx = choose(d2)
        if idx is None:
            taken = set(chosen)
            idx = next(i for i in range(n) if i not in taken)
        chosen.append(idx)
        c = x[idx]
        if not filtered:
            np.minimum(d2, _dist2_to(x, c, diff), out=d2)
            continue
        np.matmul(x, c, out=est)
        est *= -2.0
        est += sq
        est += sq[idx] - margin
        np.less_equal(est, d2, out=admit)
        rows = np.flatnonzero(admit)
        d2[rows] = np.minimum(d2[rows], _dist2_to(x, c, diff, rows))
    return chosen


def _draw(d2: np.ndarray, total: float, rng: np.random.Generator, cdf: np.ndarray) -> int:
    """`rng.choice(len(d2), p=d2 / total)` in the steps that call takes, with
    its checks left out (they consume no draws and cannot fail on d2 >= 0,
    total = d2.sum() > 0); `cdf` is a scratch buffer shaped like `d2`."""
    np.divide(d2, total, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), "right"))


def _dist2_to(x: np.ndarray, c: np.ndarray, diff: np.ndarray,
              rows: np.ndarray | None = None) -> np.ndarray:
    """Squared distances of the rows of `x`, or of x[rows], to `c`; `diff`,
    shaped like `x`, holds the differences. A row's distance has the same
    bits either way."""
    if rows is None:
        np.subtract(x, c, out=diff)
    else:
        # mode="clip" writes straight into `out`; the default buffers a copy.
        diff = np.take(x, rows, axis=0, out=diff[: rows.size], mode="clip")
        diff -= c
    return np.einsum("ij,ij->i", diff, diff)


def _assign(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # argmin ||x - c||^2 = argmin ||c||^2 - 2 x.c: the ||x||^2 term is the
    # same for every centroid of a row; ties go to the lowest centroid index.
    # The centroids are cast to the rows' dtype. Scaling by -2 is exact and
    # a + (-b) rounds as a - b, so the scores hold exactly the bits of
    # ||c||^2 - (2x) @ c.T in that dtype.
    c = centroids.astype(x.dtype, copy=False)
    return argmin_rows(x, (-2.0 * c).T, np.sum(c * c, axis=1))


def argmin_rows(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Per row of `x`, the column index of the smallest entry of
    x @ w (+ `bias`, one value per column), ties to the lowest index.

    The scores have the dtype of x @ w. Rows are scored in blocks that start
    at multiples of `rows` (ASSIGN_BLOCK_ROWS for float64 scores,
    ASSIGN_BLOCK_ROWS_F32 for float32 ones), the last one taking the
    remainder, so one block's scores stay in cache and no (N, k) score
    matrix is made. Every block of an input that has `rows` rows has at
    least that many: there each score is the same length-D dot product as
    in one unblocked product, with single-threaded BLAS on every kernel
    tried. Small blocks would not keep the bits: a one-row block goes
    through gemv. Nor would float32 blocks that start off a multiple of 768
    rows: OpenBLAS's Haswell and Zen sgemm give a row's dot products bits
    that depend on its place within 768-row stretches.

    On inputs of 2 * ASSIGN_BLOCK_ROWS rows or more, `bias` is added to each
    block's whole BIAS_TILE_ROWS-row tiles as one contiguous add of the bias
    repeated BIAS_TILE_ROWS times, and row by row to the rest: the same
    additions, in fewer and longer inner loops.
    """
    n, k = x.shape[0], w.shape[1]
    dtype = np.result_type(x, w)
    rows = ASSIGN_BLOCK_ROWS_F32 if dtype == np.float32 else ASSIGN_BLOCK_ROWS
    last = max(0, n // rows - 1) * rows
    scores = np.empty((n - last, k), dtype=dtype)
    out = np.empty(n, dtype=np.intp)
    tiled = bias is not None and n >= 2 * ASSIGN_BLOCK_ROWS
    tile = np.tile(bias, BIAS_TILE_ROWS) if tiled else None
    for a in range(0, last + 1, rows):
        b = n if a == last else a + rows
        s = np.matmul(x[a:b], w, out=scores[: b - a])
        if tiled:
            body = (b - a) // BIAS_TILE_ROWS * BIAS_TILE_ROWS
            tiles = s[:body].reshape(-1, tile.size)  # a view: s is contiguous
            tiles += tile
            s[body:] += bias
        elif bias is not None:
            s += bias
        np.argmin(s, axis=1, out=out[a:b])
    return out


def _update(x: np.ndarray, assign: np.ndarray, old: np.ndarray, k: int,
            bins: np.ndarray | None = None) -> np.ndarray:
    """Member means in one pass; an empty cluster keeps its old centroid.
    `bins` is `group_sums`'s."""
    return _means(group_sums(x, assign, k, bins), np.bincount(assign, minlength=k), old)


def _resum(x: np.ndarray, assign: np.ndarray, changed: np.ndarray | None,
           sums: np.ndarray | None, k: int, bins: np.ndarray) -> np.ndarray:
    """`sums` with the clusters marked in `changed` summed again under
    `assign`, from their rows in ascending order: the bits `group_sums` gives.
    With `changed` None every cluster is summed."""
    members = None if changed is None else changed[assign]
    if members is None or 2 * np.count_nonzero(members) > len(x):
        # Gathering most rows would cost more time and memory than summing all.
        return group_sums(x, assign, k, bins)
    rows = np.flatnonzero(members)
    sums[changed] = group_sums(x[rows], assign[rows], k, bins)[changed]
    return sums


def _means(sums: np.ndarray, counts: np.ndarray, old: np.ndarray) -> np.ndarray:
    out = old.copy()
    filled = counts > 0
    out[filled] = sums[filled] / counts[filled, None]
    return out


def _repair_empty(
    x: np.ndarray, x32: np.ndarray, assign: np.ndarray, centroids: np.ndarray, k: int,
    bins: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Donate the farthest-from-centroid points to empty clusters.

    After each donation round the centroids are recomputed and one extra
    Lloyd step runs, which can itself empty a cluster, so the loop repeats
    (bounded). The final round skips the Lloyd step, guaranteeing that no
    cluster is empty on return. `x32` is `x` in float32, which the Lloyd
    step's assignment scores.
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
            assign = _assign(x32, centroids)
            centroids = _update(x, assign, centroids, k, bins)
    return assign, centroids
