"""Reference implementations the program does not call, kept for the tests
that pin the program's whole-array passes to them bit for bit; the
exhaustive search and streaming moments the tests judge the greedy by; the
one-group Gaussian estimate and the k-means inertia, which only tests
measure with; and the float64 uncertainty scorer the float32 one is judged
by."""

import itertools
import math

import numpy as np

from cbsel.baselines import SoftmaxStats, top_two
from cbsel.errors import (
    BudgetExceedsPool,
    CbselError,
    DimensionMismatch,
    EmptyAllowedSet,
    EmptyClass,
    EmptyInput,
    KTooLarge,
    NoClasses,
)
from cbsel.gaussian import VAR_FLOOR, ClassGaussians, estimate_grouped, kl_divergence
from cbsel.kmeans import DEFAULT_MAX_ITER, Clustering, kmeans
from cbsel.seeding import derive_rng, derive_seed
from cbsel.selection import Selection, allocate_budget


class IndexOutOfRange(CbselError):
    pass


class CombinatorialGuard(CbselError):
    """The exhaustive search would enumerate too many subsets."""


class EmptyAccumulator(CbselError):
    pass


def estimate(vectors, var_floor=VAR_FLOOR):
    """The one-group case of `estimate_grouped`: the Gaussian of all rows of
    `vectors` (one vector is one row), as one row of class 0. Raises
    EmptyInput on zero rows."""
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.shape[0] == 0:
        raise EmptyInput("cannot estimate a Gaussian from zero vectors")
    return estimate_grouped(arr, np.zeros(arr.shape[0], dtype=np.int64), var_floor)


def inertia(x, centroids, assign):
    """Sum over the rows of `x` of the squared distance to their centroid."""
    diff = x - centroids[assign]
    return float(np.einsum("ij,ij->", diff, diff))


def plus_plus_init(x, k, rng):
    """k-means++ centers measuring every row against every new center, with
    the draw through `Generator.choice`."""
    n = x.shape[0]
    chosen = [int(rng.integers(n))]
    diff = x - x[chosen[0]]
    d2 = np.einsum("ij,ij->i", diff, diff)
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
        diff = x - x[idx]
        d2 = np.minimum(d2, np.einsum("ij,ij->i", diff, diff))
    return x[chosen].copy()


def plain_coreset(x, budget):
    """Row indices of k-center greedy, every row measured against every new
    center: the row closest to the mean, then each time the unchosen row
    farthest from its nearest chosen row, the lowest such row on ties (so,
    once every unchosen row lies on a chosen one, the lowest unchosen row)."""
    diff = x - x.mean(axis=0)
    chosen = [int(np.argmin(np.einsum("ij,ij->i", diff, diff)))]
    diff = x - x[chosen[0]]
    d2 = np.einsum("ij,ij->i", diff, diff)
    while len(chosen) < budget:
        open_rows = np.setdiff1d(np.arange(len(x)), chosen)
        idx = int(open_rows[np.argmax(d2[open_rows])])
        chosen.append(idx)
        diff = x - x[idx]
        d2 = np.minimum(d2, np.einsum("ij,ij->i", diff, diff))
    return chosen


def plain_assign(x, centroids):
    """Nearest centroid of each row, ||c||^2 - 2 x.c in one unblocked product,
    with the centroids cast to the rows' dtype."""
    c = centroids.astype(x.dtype)
    return np.argmin(np.sum(c * c, axis=1) - 2.0 * x @ c.T, axis=1)


def add_at_update(x, assign, old, k, bins=None):
    """Member means from np.add.at sums; an empty cluster keeps its old
    centroid. `bins` (the program's scratch buffer) is not used."""
    counts = np.bincount(assign, minlength=k)
    sums = np.zeros_like(old)
    np.add.at(sums, assign, x)
    out = old.copy()
    filled = counts > 0
    out[filled] = sums[filled] / counts[filled, None]
    return out


def lloyd_kmeans(store, k, seed, max_iter=DEFAULT_MAX_ITER):
    """`kmeans` as the plain algorithm: every row measured at every seeding
    step, every centroid summed again at every step, one unblocked float32
    product per assignment, and a stop once a step moves no row."""
    x = store.vectors
    x32 = x.astype(np.float32)
    rng = np.random.default_rng(seed)
    centroids = plus_plus_init(x, k, rng)
    assign = plain_assign(x32, centroids)
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        new_centroids = add_at_update(x, assign, centroids, k)
        new_assign = plain_assign(x32, new_centroids)
        settled = np.array_equal(new_assign, assign)
        assign = new_assign
        centroids = new_centroids
        if settled:
            break
    # Empty clusters take the rows farthest from their centroids, then one
    # more Lloyd step, until none is empty (the last round skips the step).
    for attempt in range(k + 1):
        counts = np.bincount(assign, minlength=k)
        empties = np.where(counts == 0)[0]
        if empties.size == 0:
            break
        diff = x - centroids[assign]
        order = np.argsort(-np.einsum("ij,ij->i", diff, diff), kind="stable")
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
        centroids = add_at_update(x, assign, centroids, k)
        if attempt < k:
            assign = plain_assign(x32, centroids)
            centroids = add_at_update(x, assign, centroids, k)
    return Clustering(k=k, assignments=assign, centroids=centroids, iterations_run=iterations)


def sample(g, k, rng):
    """Draw k independent vectors from the one-row stack `g`, component
    d ~ Normal(mean[d], var[d])."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return g.mean + np.sqrt(g.var) * rng.standard_normal((k, g.mean.shape[1]))


class MomentAccumulator:
    """Streaming sum / sum-of-squares over a multiset of vectors.

    Supports exact push/pop, so a candidate is scored in O(D) instead of
    re-estimating from scratch; the greedy keeps the same running sums, one
    row per cluster, in float32. The sums have the dtype given (float64 by
    default). Single-owner mutable; clone with `copy()` before sharing.
    """

    __slots__ = ("dim", "n", "sum", "sumsq")

    def __init__(self, dim, dtype=np.float64):
        self.dim = int(dim)
        self.n = 0
        self.sum = np.zeros(self.dim, dtype=dtype)
        self.sumsq = np.zeros(self.dim, dtype=dtype)

    def push(self, v):
        v = np.asarray(v, dtype=self.sum.dtype)
        if v.shape != (self.dim,):
            raise DimensionMismatch(f"expected a vector of length {self.dim}")
        self.sum += v
        self.sumsq += v * v
        self.n += 1
        return self

    def pop(self, v):
        """Exact inverse of a prior push of the same vector."""
        if self.n == 0:
            raise EmptyAccumulator("pop on an empty accumulator")
        v = np.asarray(v, dtype=self.sum.dtype)
        if v.shape != (self.dim,):
            raise DimensionMismatch(f"expected a vector of length {self.dim}")
        self.sum -= v
        self.sumsq -= v * v
        self.n -= 1
        return self

    def finalize(self, var_floor=VAR_FLOOR):
        if self.n == 0:
            raise EmptyAccumulator("finalize requires at least one vector")
        mean = self.sum / self.n
        var = np.maximum(self.sumsq / self.n - mean * mean, var_floor)
        return ClassGaussians([0], mean[None, :], var[None, :])

    def copy(self):
        out = MomentAccumulator(self.dim, self.sum.dtype)
        out.n = self.n
        out.sum = self.sum.copy()
        out.sumsq = self.sumsq.copy()
        return out


def brute_force_select(members, k, var_floor=VAR_FLOOR, guard=10**6):
    """Exhaustive KL-optimal subset of size k; the optimum the greedy stands in for.

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

    best_rows = None
    best_kl = math.inf
    for rows in itertools.combinations(range(n), k):
        kl = float(kl_divergence(ref, estimate(x[list(rows)], var_floor))[0])
        if kl < best_kl:
            best_kl = kl
            best_rows = rows
    assert best_rows is not None
    return [int(ids[i]) for i in best_rows], float(best_kl)


def dict_pseudo_label(clf, store, allowed):
    """`learner.pseudo_label` as an id -> class map over the store's rows."""
    allowed = sorted(int(c) for c in set(allowed))
    if not allowed:
        raise EmptyAllowedSet("pseudo_label requires at least one allowed class")
    g = clf.prototypes[np.searchsorted(clf.classes, allowed)]
    cols = np.argmax(store.vectors @ g.T, axis=1)
    return {int(i): allowed[int(k)] for i, k in zip(store.ids, cols)}


def dict_estimate_class_distributions(labeled, pseudo, store, classes, var_floor=VAR_FLOOR):
    """`learner.estimate_class_distributions` over (id, class) pair lists,
    merged through an id -> class dict in which the true label is set last,
    and estimated one class at a time."""
    label_of = {}
    for i, c in pseudo:
        label_of[int(i)] = int(c)
    for i, c in labeled:
        label_of[int(i)] = int(c)
    ids = sorted(label_of)
    per_class = []
    for c in sorted(int(c) for c in set(classes)):
        members = [i for i in ids if label_of[i] == c]
        if not members:
            raise EmptyClass(c)
        per_class.append((c, estimate(store.vectors_for(members), var_floor)))
    return ClassGaussians([c for c, _ in per_class],
                          np.concatenate([g.mean for _, g in per_class]),
                          np.concatenate([g.var for _, g in per_class]))


def predict_proba_matrix(clf, vectors):
    """Row-wise softmax of cosine logits; (N, num_classes), columns ascending
    by class id. Callers are responsible for unit-norm rows."""
    if not clf.num_classes:
        raise NoClasses("classifier has no classes yet")
    g = clf.prototypes
    logits = vectors @ g.T / clf.temperature
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def cluster_members(store, clustering, j):
    """Ids of the clustered store assigned to cluster j, in ascending id order."""
    if not 0 <= j < clustering.k:
        raise IndexOutOfRange(f"cluster index {j} out of [0, {clustering.k})")
    return store.ids[clustering.assignments == j].tolist()


def kl_divergence_batch(p, means, variances):
    """Vectorized kl_divergence(p, q_i) from the one-row stack `p` over rows
    of candidate moments, with p's moments cast to the candidates' dtype."""
    if means.shape[1] != p.mean.shape[1]:
        raise DimensionMismatch(f"dim {p.mean.shape[1]} vs {means.shape[1]}")
    p_mean, p_var = p.mean.astype(means.dtype), p.var.astype(variances.dtype)
    return 0.5 * np.sum(
        p_var / variances
        + (means - p_mean) ** 2 / variances
        + np.log(variances / p_var)
        - 1.0,
        axis=1,
    )


def loop_greedy_select_cluster(members, k, var_floor=VAR_FLOOR):
    """The greedy of one cluster as its own loop, on a store of the cluster's
    members: every step scores all members into buffers made once and masks
    the picked rows to +inf. The reference moments are estimated in float64;
    everything else, `var_floor` included, is float32."""
    n = len(members)
    if not 1 <= k <= n:
        raise KTooLarge(f"k={k} must be in [1, {n}]")
    ids, x = members.ids, members.vectors.astype(np.float32)

    ref = estimate(members.vectors, var_floor)
    ref_mean, ref_var = ref.mean.astype(np.float32), ref.var.astype(np.float32)
    floor = np.float32(var_floor)
    d2 = np.einsum("ij,ij->i", x - ref_mean, x - ref_mean)
    first = int(np.argmin(d2))

    picked = [first]
    acc = MomentAccumulator(members.dim, np.float32).push(x[first])
    done = np.zeros(n, dtype=bool)
    done[first] = True

    xx = x * x
    mean, var, kl_terms, tmp = (np.empty_like(x) for _ in range(4))
    kl = np.empty(n, dtype=np.float32)
    while len(picked) < k:
        n1 = acc.n + 1
        np.add(x, acc.sum, out=mean)
        mean /= n1
        np.add(xx, acc.sumsq, out=var)
        var /= n1
        np.multiply(mean, mean, out=tmp)
        var -= tmp
        np.maximum(var, floor, out=var)
        np.divide(ref_var, var, out=kl_terms)
        np.subtract(mean, ref_mean, out=tmp)
        np.square(tmp, out=tmp)
        tmp /= var
        kl_terms += tmp
        np.divide(var, ref_var, out=tmp)
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
                    kmeans_max_iter=DEFAULT_MAX_ITER):
    """`cbs_select` with the greedy run per cluster, on a subset store of
    the cluster's members."""
    n = len(store)
    if budget > n:
        raise BudgetExceedsPool(f"budget {budget} exceeds pool size {n}")
    clustering = kmeans(store, num_classes, derive_seed(seed, "kmeans"), max_iter=kmeans_max_iter)
    per = allocate_budget(clustering.sizes(), budget)
    per_cluster = [
        loop_greedy_select_cluster(store.subset(cluster_members(store, clustering, j)),
                                   per[j], var_floor)
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


def float64_stats_of(classifier, vectors):
    """`SoftmaxStats.of` in float64: float64 logits, exponentials and sums."""
    if not classifier.num_classes:
        raise NoClasses("classifier has no classes yet")
    logits = classifier.prototypes @ vectors.T / classifier.temperature
    return float64_softmax_stats(tuple(classifier.classes.tolist()), logits)


def float64_softmax_stats(classes, logits, old=None, second=True, s=True, work=None):
    """`baselines.softmax_stats` with every step in the float64 logits' dtype."""
    if old is not None and set(old.classes) & set(classes):
        raise ValueError("old statistics and the logits share classes")
    if second:
        top, runner_up = top_two(logits, *(() if old is None else (old.top, old.second)))
    else:
        top, runner_up = logits.max(axis=0), None
        if old is not None:
            np.maximum(top, old.top, out=top)
    e = np.subtract(logits, top, out=work)
    np.exp(e, out=e)
    z = e.sum(axis=0)
    total = np.einsum("ij,ij->j", e, logits) if s else None
    if old is not None:
        scale = np.exp(old.top - top)
        z += scale * old.z
        if s:
            total += scale * old.s
        classes = (*old.classes, *classes)
    return SoftmaxStats(tuple(sorted(classes)), top, runner_up, z, total)


class Float64Stats:
    """Stands in for `SoftmaxStats` where `protocol` builds the old classes'
    statistics, so they come from `float64_stats_of`. Like
    `Float64LogitTable` it takes the pool's float64 rows where the program
    passes `PoolColumns`, so a caller swapping these in also swaps
    `protocol.pool_columns` for one that hands the rows on as they are."""

    of = staticmethod(float64_stats_of)


class Float64LogitTable:
    """`baselines.LogitTable` with float64 logits of the float64 rows, each
    `update` one float64 product divided by the temperature."""

    def __init__(self, vectors, temperature, capacity, old=None):
        self.columns = vectors.T
        self.temperature = temperature
        self.old = old
        self.logits = np.empty((capacity, len(vectors)))
        self._work = np.empty_like(self.logits)
        self._slot = {}

    @property
    def num_classes(self):
        return len(self._slot) + (0 if self.old is None else len(self.old.classes))

    def update(self, classes, prototypes):
        slots = [self._slot.setdefault(int(c), len(self._slot)) for c in classes]
        self.logits[slots] = prototypes @ self.columns / self.temperature

    def stats(self, second=True, s=True):
        n = len(self._slot)
        if not n:
            return self.old
        return float64_softmax_stats(tuple(self._slot), self.logits[:n], self.old, second, s,
                                     self._work[:n])
