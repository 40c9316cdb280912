"""Lightweight incremental learner: one unit-norm prototype per class with
predictions from cosine logits, pseudo-labeling of the unselected pool
remainder, per-class Gaussian estimation from labeled plus pseudo-labeled
features, and replay of pseudo-features sampled from the stored class
Gaussians.

Class state is stacked one row per class, ascending by class id: the
classifier's (C, D) prototypes and the buffer's `ClassGaussians`. A session
merges its new classes' rows into that order. Logit columns follow it, so
every argmax tie resolves to the lowest class id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyAllowedSet,
    EmptyClass,
    EmptyInput,
    LabelOutsideSessionSpace,
    NoClasses,
    NotNormalized,
    ZeroVector,
)
from .features import FeatureStore, find_sorted
from .gaussian import VAR_FLOOR, ClassGaussians, estimate_grouped
from .kmeans import argmin_rows
from .seeding import derive_rng

DEFAULT_TEMPERATURE = 0.07
DEFAULT_ALPHA = 0.5
DEFAULT_REPLAY_PER_CLASS = 20


def unit_rows(v: np.ndarray, classes, what: str) -> np.ndarray:
    """Each row of the (C, D) `v` divided by its norm; ZeroVector names the
    first class in `classes` whose row is zero."""
    # (C, 1, D) @ (C, D, 1) runs one dot per row, as np.linalg.norm does for
    # one vector, so every norm has the bits of the one-vector norm.
    norms = np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, 0]
    zero = norms[:, 0] == 0.0
    if zero.any():
        raise ZeroVector(f"cannot normalize a zero vector ({what} of class {classes[zero.argmax()]})")
    return v / norms


def _merge_rows(a: tuple, b: tuple) -> tuple:
    """Two class-keyed stacks, each a tuple of aligned arrays with the class
    ids first, as one tuple whose rows are ascending by class; ValueError
    when a class is in both. An empty stack may have no dimension D."""
    if not len(a[0]):
        return b
    if not len(b[0]):
        return a
    classes = np.concatenate((a[0], b[0]))
    order = np.argsort(classes, kind="stable")
    classes = classes[order]
    if (np.diff(classes) == 0).any():
        raise ValueError(f"classes in both stacks: {np.intersect1d(a[0], b[0]).tolist()}")
    return (classes, *(np.concatenate((x, y))[order] for x, y in zip(a[1:], b[1:])))


@dataclass(frozen=True, eq=False)
class PrototypeClassifier:
    """Unit-norm class prototypes plus a softmax temperature.

    `classes` holds the ascending int64 ids of every completed session's
    discovered classes; it only grows. `prototypes` holds their (C, D) unit
    rows in that order. Both are read-only copies. Instances are immutable;
    training returns a new classifier.
    """

    classes: np.ndarray
    prototypes: np.ndarray
    temperature: float = DEFAULT_TEMPERATURE

    def __post_init__(self):
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")
        classes = np.array(self.classes, dtype=np.int64)
        prototypes = np.array(self.prototypes, dtype=np.float64)
        if classes.ndim != 1 or prototypes.ndim != 2 or len(prototypes) != len(classes):
            raise ValueError("classes must be (C,) and prototypes (C, D) arrays")
        if (np.diff(classes) <= 0).any():
            raise ValueError("classes must be ascending and unique")
        bad = np.abs(np.linalg.norm(prototypes, axis=1) - 1.0) > 1e-6
        if bad.any():
            raise NotNormalized(f"prototype of class {classes[bad.argmax()]} is not unit norm")
        for name, v in (("classes", classes), ("prototypes", prototypes)):
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    @property
    def num_classes(self) -> int:
        return len(self.classes)


def empty_classifier(temperature: float = DEFAULT_TEMPERATURE) -> PrototypeClassifier:
    return PrototypeClassifier((), np.zeros((0, 0)), temperature)


def predict(clf: PrototypeClassifier, vectors: np.ndarray) -> np.ndarray:
    """Argmax class ids of the cosine logits, as `pseudo_label` takes them;
    ties resolve to the lowest class id. The softmax is monotone in the
    logits, so the temperature does not enter."""
    if not clf.num_classes:
        raise NoClasses("classifier has no classes yet")
    # argmax x.p = argmin x.(-p): negation is exact, so the ties are the same.
    return clf.classes[argmin_rows(vectors, (-clf.prototypes).T)]


def pseudo_label(clf: PrototypeClassifier, vectors: np.ndarray, allowed) -> np.ndarray:
    """The argmax class of each row of `vectors`, restricted to `allowed`.

    `allowed` must be a non-empty subset of the classifier's classes. The
    assignment is temperature-invariant (argmax of a monotone transform of
    the cosine logits); ties resolve to the lowest class id. The rows are
    scored in blocks, as `predict` scores them.
    """
    allowed = np.array(sorted({int(c) for c in allowed}), dtype=np.int64)
    if not allowed.size:
        raise EmptyAllowedSet("pseudo_label requires at least one allowed class")
    rows, found = find_sorted(clf.classes, allowed)
    if not found.all():
        raise ValueError(f"allowed classes not in classifier: {allowed[~found].tolist()}")
    return allowed[argmin_rows(vectors, (-clf.prototypes[rows]).T)]


def estimate_class_distributions(
    labeled, pseudo, store: FeatureStore, classes, var_floor: float = VAR_FLOOR
) -> ClassGaussians:
    """The Gaussians of `classes`, each over its rows in the union of the
    labeled and pseudo-labeled rows (each an (ids, classes) pair of aligned
    arrays), taken in ascending id order.

    When an id carries both a true and a pseudo label, the true label wins.
    A class in `classes` with no member at all raises EmptyClass, naming the
    lowest; with the pseudo set empty this reduces bit-exactly to
    labeled-only estimation.
    """
    ids, first = np.unique(np.concatenate((labeled[0], pseudo[0])), return_index=True)
    labels = np.concatenate((labeled[1], pseudo[1]))[first]
    got = estimate_grouped(store.vectors_for(ids), labels, var_floor)
    want = np.unique(np.fromiter((int(c) for c in classes), dtype=np.int64))
    rows, found = find_sorted(got.classes, want)
    if not found.all():
        raise EmptyClass(int(want[found.argmin()]))
    return got.take(rows)


def rehearse(
    clf: PrototypeClassifier,
    buffer: "MemoryBuffer",
    replay_per_class: int = DEFAULT_REPLAY_PER_CLASS,
    seed: int = 0,
    alpha: float = DEFAULT_ALPHA,
) -> PrototypeClassifier:
    """Rehearse the old classes in `buffer`; returns a new classifier.

    For each buffered class, `replay_per_class` pseudo-features are sampled
    from its stored Gaussian, and their unit mean is blended with the
    previous prototype, weight `alpha` on the previous one. The standard
    normal draws of every class come from one stream,
    `derive_rng(seed, "replay")`, in ascending class order, so a class's
    draws depend on which classes are buffered before it. The classes are
    shifted, scaled, averaged, blended and normalized as one (C, k, D) stack.
    With replay_per_class = 0, alpha = 1 or an empty buffer the classifier
    comes back unchanged.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if replay_per_class < 0:
        raise ValueError("replay_per_class must be >= 0")
    g = buffer.distributions
    if replay_per_class == 0 or alpha == 1.0 or not len(g):
        return clf
    rows, found = find_sorted(clf.classes, g.classes)
    if not found.all():
        raise ValueError("the buffer holds classes the classifier lacks")
    replayed = np.empty((len(g), replay_per_class, g.mean.shape[1]))
    derive_rng(seed, "replay").standard_normal(out=replayed)
    replayed *= np.sqrt(g.var)[:, None, :]
    replayed += g.mean[:, None, :]
    replay_protos = unit_rows(replayed.mean(axis=1), g.classes, "replay mean")
    prototypes = clf.prototypes.copy()
    prototypes[rows] = unit_rows(alpha * prototypes[rows] + (1.0 - alpha) * replay_protos,
                                 g.classes, "blended prototype")
    return PrototypeClassifier(clf.classes, prototypes, clf.temperature)


def new_class_prototypes(
    clf: PrototypeClassifier, labeled, store: FeatureStore, class_space=None
) -> tuple[np.ndarray, np.ndarray]:
    """Prototype of each labeled class: the unit-normalized mean of its
    labeled features, taken in labeled order. `labeled` is an (ids, classes)
    pair of aligned arrays. Returns the ascending class ids and their (C, D)
    prototype rows.

    Labels must lie inside `class_space` (inferred from the labels when not
    given) and outside the classifier's classes; classes in `class_space`
    with no labeled sample stay undiscovered and get no prototype.
    """
    ids, labels = (np.asarray(a, dtype=np.int64) for a in labeled)
    if not ids.size:
        raise EmptyInput("training requires at least one labeled sample")
    discovered = np.unique(labels).tolist()
    space = set(discovered) if class_space is None else {int(c) for c in class_space}
    seen = set(clf.classes.tolist())
    bad = [c for c in discovered if c not in space or c in seen]
    if bad or (space & seen):
        raise LabelOutsideSessionSpace(
            f"labels/classes outside the current session space: {sorted(set(bad) | (space & seen))}"
        )
    g = estimate_grouped(store.vectors_for(ids), labels)
    return g.classes, unit_rows(g.mean, g.classes, "prototype")


def train_session(
    clf: PrototypeClassifier,
    buffer: "MemoryBuffer",
    labeled,
    store: FeatureStore,
    replay_per_class: int = DEFAULT_REPLAY_PER_CLASS,
    seed: int = 0,
    class_space=None,
    alpha: float = DEFAULT_ALPHA,
    rehearsed: PrototypeClassifier | None = None,
) -> PrototypeClassifier:
    """One incremental training step; returns a new classifier.

    The new classes get their `new_class_prototypes` and the old classes in
    `buffer` are rehearsed (`rehearse`, with `replay_per_class`, `seed` and
    `alpha`); the new rows are merged in class order. With
    replay_per_class = 0 or alpha = 1 old prototypes are unchanged. A caller
    that already holds `rehearse`'s result for these arguments passes it as
    `rehearsed`, and the old classes are not drawn again.
    """
    new = new_class_prototypes(clf, labeled, store, class_space)
    old = rehearse(clf, buffer, replay_per_class, seed, alpha) if rehearsed is None else rehearsed
    return PrototypeClassifier(*_merge_rows((old.classes, old.prototypes), new), clf.temperature)


# The buffer before the first session: no class, and no dimension yet.
_NO_CLASSES = estimate_grouped(np.zeros((0, 0)), np.zeros(0, dtype=np.int64))


@dataclass(frozen=True)
class MemoryBuffer:
    """The class Gaussians carried across sessions for replay, one stack."""

    distributions: ClassGaussians = _NO_CLASSES

    def update(self, new: ClassGaussians) -> "MemoryBuffer":
        """Union with the latest session's class Gaussians, rows ascending by
        class; class spaces are disjoint across sessions, so a repeated
        class id is a caller bug (ValueError)."""
        g = self.distributions
        return MemoryBuffer(ClassGaussians(*_merge_rows(
            (g.classes, g.mean, g.var), (new.classes, new.mean, new.var))))
