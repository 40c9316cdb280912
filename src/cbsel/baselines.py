"""Comparison selection strategies sharing one interface: random,
balanced-random (needs oracle labels, so it is a reference point rather than
a deployable strategy), entropy, margin, and k-center coreset.

Every strategy returns a Selection with exactly B unique pool ids. Entropy
and margin score samples with a trained classifier through `SoftmaxStats`;
`protocol` runs them in rounds, keeping the statistics of the old classes'
columns from round to round, so here a call scores once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceedsPool, DegenerateClassifier
from .features import FeatureStore
from .learner import PrototypeClassifier
from .selection import Selection


def _check_budget(pool, budget: int) -> None:
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if budget > len(pool):
        raise BudgetExceedsPool(f"budget {budget} exceeds pool size {len(pool)}")


def random_select(store: FeatureStore, budget: int, seed: int) -> Selection:
    """Uniform sample without replacement."""
    _check_budget(store, budget)
    rng = np.random.default_rng(seed)
    picked = rng.choice(store.ids, size=budget, replace=False)
    return Selection(ids=[int(i) for i in picked])


def balanced_random_select(store: FeatureStore, budget: int, seed: int, oracle) -> Selection:
    """Forced class-balanced random pick using true labels.

    Quotas are floor(B / num_classes) per class with the remainder spread
    over the lowest class ids. A class smaller than its quota contributes
    everything it has; the shortfall is refilled uniformly from the rest of
    the pool.
    """
    _check_budget(store, budget)
    label_of = {int(i): int(oracle[int(i)]) for i in store.ids}
    classes = sorted(set(label_of.values()))
    rng = np.random.default_rng(seed)

    base, rem = divmod(budget, len(classes))
    picked: list[int] = []
    for rank, c in enumerate(classes):
        quota = base + (1 if rank < rem else 0)
        members = [i for i, lab in label_of.items() if lab == c]
        take = min(quota, len(members))
        if take:
            picked.extend(int(v) for v in rng.choice(members, size=take, replace=False))
    shortfall = budget - len(picked)
    if shortfall > 0:
        leftover = np.setdiff1d(store.ids, picked, assume_unique=True)
        picked.extend(int(v) for v in rng.choice(leftover, size=shortfall, replace=False))
    return Selection(ids=picked)


@dataclass(frozen=True)
class SoftmaxStats:
    """Per-row statistics of a block of logit columns: enough to merge blocks
    over disjoint classes and to read off the margin and the entropy of the
    softmax over all of them.

    For the logits l of one row over `classes`: `top` is the max logit m,
    `second` the runner-up (-inf for a one-column block), z = sum exp(l - m)
    and s = sum exp(l - m) * l. Merging is exact in real arithmetic.
    """

    classes: tuple[int, ...]
    top: np.ndarray
    second: np.ndarray
    z: np.ndarray
    s: np.ndarray

    @classmethod
    def of(cls, classifier: PrototypeClassifier, vectors: np.ndarray) -> "SoftmaxStats":
        """The block of all the classifier's cosine logits, one row per vector."""
        logits = vectors @ classifier.embedding_matrix().T / classifier.temperature
        n = logits.shape[1]
        top = logits.max(axis=1)
        if n > 1:
            second = np.partition(logits, n - 2, axis=1)[:, n - 2]
        else:
            second = np.full(len(logits), -np.inf)
        e = np.exp(logits - top[:, None])
        return cls(classifier.classes_seen, top, second, e.sum(axis=1),
                   np.einsum("ij,ij->i", e, logits))

    def merge(self, other: "SoftmaxStats") -> "SoftmaxStats":
        top = np.maximum(self.top, other.top)
        # The runner-up of the union is the lower of the two maxima or the
        # runner-up of the block holding the higher one, whichever is larger.
        second = np.maximum(np.minimum(self.top, other.top),
                            np.where(self.top >= other.top, self.second, other.second))
        a, b = np.exp(self.top - top), np.exp(other.top - top)
        return SoftmaxStats(tuple(sorted(self.classes + other.classes)), top, second,
                            a * self.z + b * other.z, a * self.s + b * other.s)

    def take(self, rows) -> "SoftmaxStats":
        return SoftmaxStats(self.classes, self.top[rows], self.second[rows],
                            self.z[rows], self.s[rows])

    def margin(self) -> np.ndarray:
        """Top-1 minus top-2 probability."""
        return (1.0 - np.exp(self.second - self.top)) / self.z

    def entropy(self) -> np.ndarray:
        """Shannon entropy (natural log) of the softmax."""
        return self.top + np.log(self.z) - self.s / self.z


def entropy_select(store: FeatureStore, budget: int, classifier: PrototypeClassifier,
                   old: SoftmaxStats | None = None, rows: np.ndarray | None = None) -> Selection:
    """Top-B by Shannon entropy of the predictive distribution, descending.

    The distribution is the softmax over the classifier's classes together
    with the classes `old` summarises: `old` holds their statistics over
    every row of the store, so only the classifier's columns are computed,
    and the classifier may then have no class at all. `rows`, a boolean mask
    over the store's rows, names the candidates (all rows when None).
    """
    ids, stats = _softmax_stats(store, budget, classifier, old, rows)
    return _top(ids, -stats.entropy(), budget)


def margin_select(store: FeatureStore, budget: int, classifier: PrototypeClassifier,
                  old: SoftmaxStats | None = None, rows: np.ndarray | None = None) -> Selection:
    """Top-B by smallest top1 - top2 probability gap, ascending; `old` and
    `rows` are as in `entropy_select`."""
    ids, stats = _softmax_stats(store, budget, classifier, old, rows)
    return _top(ids, stats.margin(), budget)


def _softmax_stats(store, budget, classifier, old, rows):
    """Candidate ids and their `SoftmaxStats` over the classifier's classes
    and those of `old`."""
    ids, vectors = store.ids, store.vectors
    if rows is not None:
        ids, vectors = ids[rows], vectors[rows]
    _check_budget(ids, budget)
    have = () if old is None else old.classes
    num_classes = len(have) + classifier.num_classes
    if num_classes < 2:
        raise DegenerateClassifier(f"uncertainty scoring needs >= 2 classes, got {num_classes}")
    if set(have) & set(classifier.classes_seen):
        raise ValueError("old statistics and classifier share classes")
    stats = old
    if old is not None and rows is not None:
        stats = old.take(rows)
    if classifier.num_classes:
        fresh = SoftmaxStats.of(classifier, vectors)
        stats = fresh if stats is None else stats.merge(fresh)
    return ids, stats


def _top(ids: np.ndarray, key: np.ndarray, budget: int) -> Selection:
    """The `budget` ids with the smallest keys, ties to the lowest id."""
    if budget < len(key):
        # Only rows keyed at or below the budget-th smallest key can make the
        # cut, every row tied with it included, so the lexsort is the same
        # on them alone (a NaN cut keeps every row).
        cut = np.partition(key, budget - 1)[budget - 1]
        keep = np.flatnonzero(~(key > cut))
        ids, key = ids[keep], key[keep]
    return Selection(ids=ids[np.lexsort((ids, key))[:budget]].tolist())


def coreset_select(store: FeatureStore, budget: int, seed: int) -> Selection:
    """k-center greedy: start at the mean-closest point, then repeatedly take
    the point farthest from its nearest selected point. Fully deterministic;
    `seed` is accepted for interface parity only.
    """
    del seed
    _check_budget(store, budget)
    ids, x = store.ids, store.vectors
    diff = x - x.mean(axis=0)
    first = int(np.argmin(np.einsum("ij,ij->i", diff, diff)))

    picked = [first]
    min_d2 = _d2_to(x, x[first])
    min_d2[first] = -1.0
    while len(picked) < budget:
        nxt = int(np.argmax(min_d2))
        picked.append(nxt)
        np.minimum(min_d2, _d2_to(x, x[nxt]), out=min_d2)
        min_d2[nxt] = -1.0
    return Selection(ids=[int(ids[i]) for i in picked])


def _d2_to(x: np.ndarray, point: np.ndarray) -> np.ndarray:
    d = x - point
    return np.einsum("ij,ij->i", d, d)
