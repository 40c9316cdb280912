"""Class-balanced selection: proportional per-cluster budgets, greedy
distribution-matching picks, and the exhaustive oracle the greedy replaces.

Per cluster, the first pick is the member closest to the cluster mean; each
later pick is the member whose addition minimizes the KL divergence from the
cluster's Gaussian to the selected set's Gaussian. Candidate moments come
from a streaming accumulator, so one greedy step costs O(members * D).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceedsPool, CombinatorialGuard, KTooLarge
from .features import FeatureStore
from .gaussian import VAR_FLOOR, MomentAccumulator, estimate, kl_divergence
from .kmeans import DEFAULT_MAX_ITER, DEFAULT_TOL, cluster_members, kmeans
from .seeding import derive_rng, derive_seed


@dataclass(frozen=True)
class BudgetPlan:
    """Per-cluster pick counts K_j = min(M_j, ceil(M_j * B / N))."""

    total_budget: int
    per_cluster: tuple[int, ...]
    pool_size: int

    @property
    def total_allocated(self) -> int:
        return sum(self.per_cluster)


@dataclass
class Selection:
    """Selected ids (exactly B after discard), per-cluster pick lists in pick
    order, and the randomly discarded overshoot."""

    ids: list[int]
    per_cluster_ids: list[list[int]] = field(default_factory=list)
    discarded: list[int] = field(default_factory=list)


def allocate_budget(cluster_sizes, budget: int) -> BudgetPlan:
    """Proportional budgets with rounding up, clamped to cluster size.

    Ceiling can overshoot: sum(K_j) >= budget, and the overshoot is later
    discarded at random.
    """
    sizes = [int(m) for m in cluster_sizes]
    if any(m < 1 for m in sizes):
        raise ValueError("every cluster must have at least one member")
    n = sum(sizes)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if budget > n:
        raise BudgetExceedsPool(f"budget {budget} exceeds pool size {n}")
    per = tuple(min(m, -((-m * budget) // n)) for m in sizes)
    return BudgetPlan(total_budget=budget, per_cluster=per, pool_size=n)


def greedy_select_cluster(
    members: FeatureStore,
    k: int,
    var_floor: float = VAR_FLOOR,
) -> list[int]:
    """Pick k member ids whose empirical Gaussian tracks the cluster's.

    Returns ids in pick order; all argmin ties break toward the lowest id.
    """
    n = len(members)
    if not 1 <= k <= n:
        raise KTooLarge(f"k={k} must be in [1, {n}]")
    ids, x = members.ids, members.vectors

    ref = estimate(x, var_floor)
    d2 = np.einsum("ij,ij->i", x - ref.mean, x - ref.mean)
    first = int(np.argmin(d2))

    picked = [first]
    acc = MomentAccumulator(members.dim).push(x[first])
    done = np.zeros(n, dtype=bool)
    done[first] = True

    # Every step scores all members with the float operations of
    # kl_divergence_batch, in its order, into buffers made once; picked rows
    # are then masked to +inf. Rows are in ascending id order and argmin
    # takes the first minimum, so ties still go to the lowest open id.
    xx = x * x
    mean, var, kl_terms, tmp = (np.empty_like(x) for _ in range(4))
    kl = np.empty(n)
    while len(picked) < k:
        n1 = acc.n + 1
        np.add(x, acc.sum, out=mean)
        mean /= n1
        np.add(xx, acc.sumsq, out=var)
        var /= n1
        np.multiply(mean, mean, out=tmp)
        var -= tmp
        np.maximum(var, var_floor, out=var)
        np.divide(ref.var, var, out=kl_terms)
        np.subtract(mean, ref.mean, out=tmp)
        np.square(tmp, out=tmp)
        tmp /= var
        kl_terms += tmp
        np.divide(var, ref.var, out=tmp)
        np.log(tmp, out=tmp)
        kl_terms += tmp
        kl_terms -= 1.0
        np.sum(kl_terms, axis=1, out=kl)
        kl *= 0.5
        kl[done] = np.inf
        chosen = int(np.argmin(kl))
        if done[chosen]:
            # Every open row scored +inf too (an overflowing KL); the first
            # open row is then the first minimum among them.
            chosen = int(np.argmin(done))
        picked.append(chosen)
        acc.push(x[chosen])
        done[chosen] = True

    return [int(ids[i]) for i in picked]


def brute_force_select(
    members: FeatureStore,
    k: int,
    var_floor: float = VAR_FLOOR,
    guard: int = 10**6,
) -> tuple[list[int], float]:
    """Exhaustive KL-optimal subset of size k; the oracle the greedy stands in for.

    Enumerates every C(M, k) subset, so a guard rejects instances beyond
    desk scale. Ties resolve to the lexicographically smallest id tuple.
    """
    n = len(members)
    if not 1 <= k <= n:
        raise KTooLarge(f"k={k} must be in [1, {n}]")
    if math.comb(n, k) > guard:
        raise CombinatorialGuard(
            f"C({n},{k}) = {math.comb(n, k)} subsets exceeds the guard of {guard}"
        )
    ids, x = members.ids, members.vectors
    ref = estimate(x, var_floor)

    best_rows: tuple[int, ...] | None = None
    best_kl = math.inf
    for rows in itertools.combinations(range(n), k):
        kl = kl_divergence(ref, estimate(x[list(rows)], var_floor))
        if kl < best_kl:
            best_kl = kl
            best_rows = rows
    assert best_rows is not None
    return [int(ids[i]) for i in best_rows], float(best_kl)


def cbs_select(
    store: FeatureStore,
    num_classes: int,
    budget: int,
    seed: int,
    var_floor: float = VAR_FLOOR,
    kmeans_max_iter: int = DEFAULT_MAX_ITER,
    kmeans_tol: float = DEFAULT_TOL,
) -> Selection:
    """Class-balanced selection over a whole pool.

    Clusters the pool into `num_classes` groups, allocates proportional
    budgets, runs the greedy pick per cluster, then randomly discards the
    rounding overshoot so exactly `budget` ids remain. Deterministic in
    (store, num_classes, budget, seed); the discard draws from its own
    derived stream so unrelated config changes never reshuffle it.
    """
    n = len(store)
    if budget > n:
        raise BudgetExceedsPool(f"budget {budget} exceeds pool size {n}")
    clustering = kmeans(
        store, num_classes, derive_seed(seed, "kmeans"),
        max_iter=kmeans_max_iter, tol=kmeans_tol,
    )
    plan = allocate_budget(clustering.sizes(), budget)
    per_cluster: list[list[int]] = []
    for j in range(clustering.k):
        member_ids = cluster_members(clustering, j)
        per_cluster.append(
            greedy_select_cluster(store.subset(member_ids), plan.per_cluster[j], var_floor)
        )
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
