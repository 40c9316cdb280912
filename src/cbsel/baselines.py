"""Comparison selection strategies sharing one interface: random,
balanced-random (needs oracle labels, so it is a reference point rather than
a deployable strategy), entropy, margin, and k-center coreset.

Every strategy returns a Selection with exactly B unique pool ids. Entropy
and margin score samples with a trained classifier; the multi-session driver
runs them in rounds with retraining in between, so here they are single-shot.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceedsPool, DegenerateClassifier
from .features import FeatureStore
from .learner import PrototypeClassifier, predict_proba_matrix
from .selection import Selection


def _check_budget(store: FeatureStore, budget: int) -> None:
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if budget > len(store):
        raise BudgetExceedsPool(f"budget {budget} exceeds pool size {len(store)}")


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


def entropy_select(store: FeatureStore, budget: int, classifier: PrototypeClassifier) -> Selection:
    """Top-B by Shannon entropy of the predictive distribution, descending."""
    _check_budget(store, budget)
    probs, ids = _uncertainty_scores(store, classifier)
    ent = -np.sum(np.where(probs > 0.0, probs * np.log(probs), 0.0), axis=1)
    order = np.lexsort((ids, -ent))
    return Selection(ids=[int(ids[i]) for i in order[:budget]])


def margin_select(store: FeatureStore, budget: int, classifier: PrototypeClassifier) -> Selection:
    """Top-B by smallest top1 - top2 probability gap, ascending."""
    _check_budget(store, budget)
    probs, ids = _uncertainty_scores(store, classifier)
    part = np.partition(probs, probs.shape[1] - 2, axis=1)
    gap = part[:, -1] - part[:, -2]
    order = np.lexsort((ids, gap))
    return Selection(ids=[int(ids[i]) for i in order[:budget]])


def _uncertainty_scores(store, classifier):
    if len(classifier.classes_seen) < 2:
        raise DegenerateClassifier(
            f"uncertainty scoring needs >= 2 classes, classifier has {len(classifier.classes_seen)}"
        )
    return predict_proba_matrix(classifier, store.vectors), store.ids


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
