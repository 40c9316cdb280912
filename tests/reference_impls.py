"""Reference implementations the program no longer calls, kept for the tests
that pin the program's whole-array passes to them bit for bit."""

import numpy as np

from cbsel.errors import BudgetExceedsPool, DimensionMismatch, IndexOutOfRange, KTooLarge
from cbsel.gaussian import VAR_FLOOR, MomentAccumulator, estimate
from cbsel.kmeans import DEFAULT_MAX_ITER, DEFAULT_TOL, kmeans
from cbsel.seeding import derive_rng, derive_seed
from cbsel.selection import Selection, allocate_budget


def predict_proba_matrix(clf, vectors):
    """Row-wise softmax of cosine logits; (N, num_classes), columns ascending
    by class id. Callers are responsible for unit-norm rows."""
    g = clf.embedding_matrix()
    logits = vectors @ g.T / clf.temperature
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def cluster_members(clustering, j):
    """Ids assigned to cluster j, in ascending id order."""
    if not 0 <= j < clustering.k:
        raise IndexOutOfRange(f"cluster index {j} out of [0, {clustering.k})")
    return clustering.ids[clustering.assignments == j].tolist()


def kl_divergence_batch(p, means, variances):
    """Vectorized kl_divergence(p, q_i) over rows of candidate moments."""
    if means.shape[1] != p.dim:
        raise DimensionMismatch(f"dim {p.dim} vs {means.shape[1]}")
    return 0.5 * np.sum(
        p.var[None, :] / variances
        + (means - p.mean[None, :]) ** 2 / variances
        + np.log(variances / p.var[None, :])
        - 1.0,
        axis=1,
    )


def loop_greedy_select_cluster(members, k, var_floor=VAR_FLOOR):
    """The greedy of one cluster as its own loop, on a store of the cluster's
    members: every step scores all members into buffers made once and masks
    the picked rows to +inf."""
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
            chosen = int(np.argmin(done))
        picked.append(chosen)
        acc.push(x[chosen])
        done[chosen] = True

    return [int(ids[i]) for i in picked]


def loop_greedy_select_clusters(store, assignments, per_cluster, var_floor=VAR_FLOOR):
    """Every cluster's greedy picks, one cluster subset at a time."""
    ids = store.ids
    return [loop_greedy_select_cluster(store.subset(ids[assignments == j]), int(k), var_floor)
            for j, k in enumerate(per_cluster)]


def loop_cbs_select(store, num_classes, budget, seed, var_floor=VAR_FLOOR,
                    kmeans_max_iter=DEFAULT_MAX_ITER, kmeans_tol=DEFAULT_TOL):
    """`cbs_select` with the greedy run per cluster, on a subset store of
    the cluster's members."""
    n = len(store)
    if budget > n:
        raise BudgetExceedsPool(f"budget {budget} exceeds pool size {n}")
    clustering = kmeans(store, num_classes, derive_seed(seed, "kmeans"),
                        max_iter=kmeans_max_iter, tol=kmeans_tol)
    plan = allocate_budget(clustering.sizes(), budget)
    per_cluster = [
        loop_greedy_select_cluster(store.subset(cluster_members(clustering, j)),
                                   plan.per_cluster[j], var_floor)
        for j in range(clustering.k)
    ]
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
