"""Class-balanced selection: proportional per-cluster budgets and greedy
distribution-matching picks.

Per cluster, the first pick is the member closest to the cluster mean; each
later pick is the member whose addition minimizes the KL divergence from the
cluster's Gaussian to the selected set's Gaussian. Candidate moments come
from running sums, so one greedy step costs O(members * D). Every cluster
picks in the same pass: step s scores the rows of all clusters that still
have picks left, and each takes its own first minimum. The reference
moments are estimated in float64; the picks are scored in float32, on one
cast copy of the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceedsPool, KTooLarge
from .features import FeatureStore
from .gaussian import VAR_FLOOR, estimate_grouped
from .kmeans import DEFAULT_MAX_ITER, kmeans
from .seeding import derive_rng, derive_seed

# Rows per block of the greedy's scores (see greedy_select_clusters): small
# enough that a block's buffers stay in cache, and the buffers do not grow
# with the pool.
GREEDY_BLOCK_ROWS = 2048


@dataclass
class Selection:
    """Selected ids (exactly B after discard), per-cluster pick lists in pick
    order, and the randomly discarded overshoot."""

    ids: list[int]
    per_cluster_ids: list[list[int]] = field(default_factory=list)
    discarded: list[int] = field(default_factory=list)


def _check_budget(pool, budget: int) -> None:
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if budget > len(pool):
        raise BudgetExceedsPool(f"budget {budget} exceeds pool size {len(pool)}")


def allocate_budget(cluster_sizes, budget: int) -> tuple[int, ...]:
    """Per-cluster pick counts K_j = min(M_j, ceil(M_j * B / N)):
    proportional budgets with rounding up, clamped to cluster size.

    Ceiling can overshoot: sum(K_j) >= budget, and the overshoot is later
    discarded at random.
    """
    sizes = [int(m) for m in cluster_sizes]
    if any(m < 1 for m in sizes):
        raise ValueError("every cluster must have at least one member")
    n = sum(sizes)
    _check_budget(range(n), budget)
    return tuple(min(m, -((-m * budget) // n)) for m in sizes)


def greedy_select_cluster(
    members: FeatureStore,
    k: int,
    var_floor: float = VAR_FLOOR,
) -> list[int]:
    """Pick k member ids whose empirical Gaussian tracks the cluster's.

    The one-cluster call of `greedy_select_clusters`. Returns ids in pick
    order; all argmin ties break toward the lowest id.
    """
    n = len(members)
    return greedy_select_clusters(members, np.zeros(n, dtype=np.intp), [k], var_floor)[0]


def greedy_select_clusters(
    store: FeatureStore,
    assignments: np.ndarray,
    per_cluster,
    var_floor: float = VAR_FLOOR,
) -> list[list[int]]:
    """The greedy picks of every cluster at once: cluster j (the rows with
    `assignments == j`) picks `per_cluster[j]` of its ids, each cluster
    exactly as if it were picked alone.

    Returns one id list per cluster, in cluster-index order, each in pick
    order; all argmin ties break toward the lowest id. The rows, the
    reference moments, the running sums, the scores and `var_floor` are
    cast to float32, so a floor below float32's normal range (about 1.2e-38)
    takes the value float32 rounds it to.
    """
    want = np.asarray(per_cluster, dtype=np.intp)
    m = want.shape[0]
    sizes = np.bincount(assignments, minlength=m)
    bad = (want < 1) | (want > sizes)
    if bad.any():
        j = int(bad.argmax())
        raise KTooLarge(f"k={want[j]} must be in [1, {sizes[j]}] (cluster {j})")

    # Each cluster's rows are in ascending id order in the pool and in the
    # layout below, so its reference moments have the same bits in both.
    ref = estimate_grouped(store.vectors, assignments, var_floor)
    # Clusters ranked by K_j, descending and stable, and the rows grouped by
    # rank (stable, so each cluster's rows stay in ascending id order). The
    # clusters still picking at step s are then the ranks below some A, and
    # their rows are the prefix that ends where rank A starts.
    by_rank = np.argsort(-want, kind="stable")
    rank = np.empty(m, dtype=np.intp)
    rank[by_rank] = np.arange(m)
    f32 = np.float32
    ref_mean, ref_var = ref.mean[by_rank].astype(f32), ref.var[by_rank].astype(f32)
    ks = want[by_rank]
    key = rank[assignments]
    rows = np.argsort(key, kind="stable")
    seg = key[rows]
    x = store.vectors[rows].astype(f32)
    starts = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(sizes[by_rank], out=starts[1:])
    floor = f32(var_floor)

    n, d = x.shape
    block = min(GREEDY_BLOCK_ROWS, n)
    buffers = [np.empty((block, d), dtype=f32) for _ in range(6)]
    kl = np.empty(n, dtype=f32)
    picks = np.zeros((int(ks[0]), m), dtype=np.intp)

    # First picks: each cluster's member closest to its mean.
    for a in range(0, n, block):
        b = min(a + block, n)
        diff, part = (buf[: b - a] for buf in buffers[:2])
        np.subtract(x[a:b], _gather(ref_mean, seg[a:b], part), out=diff)
        np.einsum("ij,ij->i", diff, diff, out=kl[a:b])
    picks[0] = _first_minima(kl, starts, seg)
    done = np.zeros(n, dtype=bool)
    done[picks[0]] = True
    sums = np.zeros((m, d), dtype=f32)
    sumsq = np.zeros((m, d), dtype=f32)
    v = x[picks[0]]
    sums += v
    sumsq += v * v

    # Each later step scores the rows of the clusters still picking with the
    # float operations of kl_divergence(ref, candidate), in its order and in
    # float32, each cluster's running sums and reference moments gathered to
    # its rows, a block of rows at a time. Picked rows are then set to +inf
    # and each cluster takes its first minimum, so ties go to the lowest open
    # id.
    for step in range(1, int(ks[0])):
        active = int(np.count_nonzero(ks > step))
        end = int(starts[active])
        n1 = step + 1
        for a in range(0, end, block):
            b = min(a + block, end)
            mean, var, kl_terms, tmp, part, rv = (buf[: b - a] for buf in buffers)
            sg = seg[a:b]
            np.add(x[a:b], _gather(sums, sg, part), out=mean)
            mean /= n1
            np.multiply(x[a:b], x[a:b], out=var)
            var += _gather(sumsq, sg, part)
            var /= n1
            np.multiply(mean, mean, out=tmp)
            var -= tmp
            np.maximum(var, floor, out=var)
            np.divide(_gather(ref_var, sg, rv), var, out=kl_terms)
            np.subtract(mean, _gather(ref_mean, sg, part), out=tmp)
            np.square(tmp, out=tmp)
            tmp /= var
            kl_terms += tmp
            np.divide(var, rv, out=tmp)
            np.log(tmp, out=tmp)
            kl_terms += tmp
            kl_terms -= 1.0
            np.sum(kl_terms, axis=1, out=kl[a:b])
        kl[:end] *= 0.5
        kl[picks[:step, :active]] = np.inf
        chosen = _first_minima(kl[:end], starts[: active + 1], seg[:end])
        for j in np.flatnonzero(done[chosen]).tolist():
            # Every open row of this cluster scored +inf too (an overflowing
            # KL); its first open row is then the first minimum among them.
            chosen[j] = starts[j] + int(np.argmin(done[starts[j]: starts[j + 1]]))
        picks[step, :active] = chosen
        done[chosen] = True
        v = x[chosen]
        sums[:active] += v
        sumsq[:active] += v * v

    ids = store.ids[rows][picks]
    return [ids[: want[j], rank[j]].tolist() for j in range(m)]


def _gather(table: np.ndarray, seg: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row seg[i] of `table` into row i of `out`. (mode="clip" lets np.take
    write into `out` directly; every index is in range.)"""
    return np.take(table, seg, axis=0, out=out, mode="clip")


def _first_minima(values: np.ndarray, starts: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Per segment [starts[r], starts[r + 1]) of `values`, the index of its
    first minimum, as np.argmin takes it (the first NaN, if there is one);
    `seg` gives each index's segment."""
    low = np.minimum.reduceat(values, starts[:-1])
    hit = values == low[seg]
    if np.isnan(low).any():
        hit |= np.isnan(values)
    at = np.flatnonzero(hit)
    return at[np.searchsorted(at, starts[:-1])]


def cbs_select(
    store: FeatureStore,
    num_classes: int,
    budget: int,
    seed: int,
    var_floor: float = VAR_FLOOR,
    kmeans_max_iter: int = DEFAULT_MAX_ITER,
) -> Selection:
    """Class-balanced selection over a whole pool.

    Clusters the pool into `num_classes` groups, allocates proportional
    budgets, runs every cluster's greedy picks, then randomly discards the
    rounding overshoot so exactly `budget` ids remain. Deterministic in
    (store, num_classes, budget, seed); the discard draws from its own
    derived stream so unrelated config changes never reshuffle it.
    """
    _check_budget(store, budget)
    clustering = kmeans(store, num_classes, derive_seed(seed, "kmeans"), max_iter=kmeans_max_iter)
    per_cluster = greedy_select_clusters(
        store, clustering.assignments, allocate_budget(clustering.sizes(), budget), var_floor)
    assembled = [i for cluster in per_cluster for i in cluster]

    excess = len(assembled) - budget
    if excess > 0:
        rng = derive_rng(seed, "discard")
        drop = set(rng.choice(len(assembled), size=excess, replace=False).tolist())
        ids = [v for pos, v in enumerate(assembled) if pos not in drop]
        discarded = [v for pos, v in enumerate(assembled) if pos in drop]
    else:
        ids = assembled
        discarded = []
    return Selection(ids=ids, per_cluster_ids=per_cluster, discarded=discarded)
