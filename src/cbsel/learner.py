"""Lightweight incremental learner: one unit-norm prototype per class with
predictions from cosine logits, pseudo-labeling of the unselected pool
remainder, per-class Gaussian estimation from labeled plus pseudo-labeled
features, and replay of pseudo-features sampled from the stored class
Gaussians.

Logit columns are always ordered by ascending class id, so every argmax tie
resolves to the lowest class id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .features import FeatureStore
from .gaussian import VAR_FLOOR, DiagonalGaussian, estimate_grouped, estimate_per_class
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


@dataclass(frozen=True)
class PrototypeClassifier:
    """Unit-norm class prototypes plus a softmax temperature.

    `classes_seen` is the ascending-sorted union of every completed session's
    discovered classes; it only grows. Instances are immutable; training
    returns a new classifier. The prototypes are stacked once, in
    classes_seen order, into the read-only `embedding_matrix()`.
    """

    embeddings: dict[int, np.ndarray]
    temperature: float = DEFAULT_TEMPERATURE
    classes_seen: tuple[int, ...] = ()
    _matrix: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")
        if tuple(sorted(set(self.classes_seen))) != self.classes_seen:
            raise ValueError("classes_seen must be ascending and unique")
        if set(self.embeddings) != set(self.classes_seen):
            raise ValueError("embeddings keys must match classes_seen")
        if self.classes_seen:
            matrix = np.stack([self.embeddings[c] for c in self.classes_seen])
            bad = np.abs(np.linalg.norm(matrix, axis=1) - 1.0) > 1e-6
            if bad.any():
                raise NotNormalized(
                    f"embedding for class {self.classes_seen[bad.argmax()]} is not unit norm")
            matrix.flags.writeable = False
            object.__setattr__(self, "_matrix", matrix)

    @property
    def num_classes(self) -> int:
        return len(self.classes_seen)

    def embedding_matrix(self) -> np.ndarray:
        """Rows ordered like classes_seen (ascending class id)."""
        if not self.classes_seen:
            raise NoClasses("classifier has no classes yet")
        return self._matrix


def empty_classifier(temperature: float = DEFAULT_TEMPERATURE) -> PrototypeClassifier:
    return PrototypeClassifier(embeddings={}, temperature=temperature, classes_seen=())


def predict(clf: PrototypeClassifier, vectors: np.ndarray) -> np.ndarray:
    """Argmax class ids of the cosine logits, as `pseudo_label` takes them;
    ties resolve to the lowest class id. The softmax is monotone in the
    logits, so the temperature does not enter."""
    cols = np.argmax(vectors @ clf.embedding_matrix().T, axis=1)
    return np.asarray(clf.classes_seen, dtype=np.int64)[cols]


def pseudo_label(clf: PrototypeClassifier, vectors: np.ndarray, allowed) -> np.ndarray:
    """The argmax class of each row of `vectors`, restricted to `allowed`.

    `allowed` must be a non-empty subset of classes_seen. The assignment is
    temperature-invariant (argmax of a monotone transform of the cosine
    logits); ties resolve to the lowest class id.
    """
    allowed = np.array(sorted({int(c) for c in allowed}), dtype=np.int64)
    if not allowed.size:
        raise EmptyAllowedSet("pseudo_label requires at least one allowed class")
    missing = [c for c in allowed.tolist() if c not in clf.embeddings]
    if missing:
        raise ValueError(f"allowed classes not in classifier: {missing}")
    g = clf.embedding_matrix()[np.searchsorted(clf.classes_seen, allowed)]
    return allowed[np.argmax(vectors @ g.T, axis=1)]


def estimate_class_distributions(
    labeled, pseudo, store: FeatureStore, classes, var_floor: float = VAR_FLOOR
) -> dict[int, DiagonalGaussian]:
    """Per-class Gaussian over the union of the labeled and pseudo-labeled
    rows, each an (ids, classes) pair of aligned arrays; each class is
    estimated from its ids in ascending order.

    When an id carries both a true and a pseudo label, the true label wins.
    A class in `classes` with no member at all raises EmptyClass; with the
    pseudo set empty this reduces bit-exactly to labeled-only estimation.
    """
    ids, first = np.unique(np.concatenate((labeled[0], pseudo[0])), return_index=True)
    labels = np.concatenate((labeled[1], pseudo[1]))[first]
    by_class = estimate_per_class(store.vectors_for(ids), labels, var_floor)
    out: dict[int, DiagonalGaussian] = {}
    for c in sorted(int(c) for c in set(classes)):
        if c not in by_class:
            raise EmptyClass(c)
        out[c] = by_class[c]
    return out


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
    classes = sorted(buffer.distributions)
    if replay_per_class == 0 or alpha == 1.0 or not classes:
        return clf
    dists = [buffer.distributions[c] for c in classes]
    means = np.stack([g.mean for g in dists])
    replayed = np.empty((len(classes), replay_per_class, means.shape[1]))
    derive_rng(seed, "replay").standard_normal(out=replayed)
    replayed *= np.sqrt(np.stack([g.var for g in dists]))[:, None, :]
    replayed += means[:, None, :]
    replay_protos = unit_rows(replayed.mean(axis=1), classes, "replay mean")
    previous = np.stack([clf.embeddings[c] for c in classes])
    blended = unit_rows(alpha * previous + (1.0 - alpha) * replay_protos, classes, "blended prototype")
    return PrototypeClassifier(
        embeddings=clf.embeddings | dict(zip(classes, blended)),
        temperature=clf.temperature, classes_seen=clf.classes_seen)


def new_class_prototypes(
    clf: PrototypeClassifier, labeled, store: FeatureStore, class_space=None
) -> dict[int, np.ndarray]:
    """Prototype of each labeled class: the unit-normalized mean of its
    labeled features, taken in labeled order. `labeled` is an (ids, classes)
    pair of aligned arrays.

    Labels must lie inside `class_space` (inferred from the labels when not
    given) and outside clf.classes_seen; classes in `class_space` with no
    labeled sample stay undiscovered and get no prototype.
    """
    ids, labels = (np.asarray(a, dtype=np.int64) for a in labeled)
    if not ids.size:
        raise EmptyInput("training requires at least one labeled sample")
    discovered = np.unique(labels).tolist()
    space = set(discovered) if class_space is None else {int(c) for c in class_space}
    seen = set(clf.classes_seen)
    bad = [c for c in discovered if c not in space or c in seen]
    if bad or (space & seen):
        raise LabelOutsideSessionSpace(
            f"labels/classes outside the current session space: {sorted(set(bad) | (space & seen))}"
        )
    classes, means, _, _ = estimate_grouped(store.vectors_for(ids), labels)
    classes = classes.tolist()
    return dict(zip(classes, unit_rows(means, classes, "prototype")))


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
    `alpha`). With replay_per_class = 0 or alpha = 1 old prototypes are
    unchanged. A caller that already holds `rehearse`'s result for these
    arguments passes it as `rehearsed`, and the old classes are not drawn
    again.
    """
    new = new_class_prototypes(clf, labeled, store, class_space)
    old = rehearse(clf, buffer, replay_per_class, seed, alpha) if rehearsed is None else rehearsed
    return PrototypeClassifier(
        embeddings=old.embeddings | new,
        temperature=clf.temperature,
        classes_seen=tuple(sorted(set(clf.classes_seen) | set(new))),
    )


@dataclass(frozen=True)
class MemoryBuffer:
    """Per-class diagonal Gaussians carried across sessions for replay."""

    distributions: dict[int, DiagonalGaussian] = field(default_factory=dict)

    def update(self, new_distributions: dict[int, DiagonalGaussian]) -> "MemoryBuffer":
        """Union with the latest session's class distributions; class spaces
        are disjoint across sessions, so a repeated class id is a caller bug."""
        overlap = set(self.distributions) & {int(c) for c in new_distributions}
        if overlap:
            raise ValueError(f"classes already in the buffer: {sorted(overlap)}")
        merged = dict(self.distributions)
        for c, g in new_distributions.items():
            merged[int(c)] = g
        return MemoryBuffer(distributions=merged)

    def classes(self) -> tuple[int, ...]:
        return tuple(sorted(self.distributions))
