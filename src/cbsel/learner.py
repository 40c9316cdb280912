"""Lightweight incremental learner: one unit-norm prototype per class with
cosine-softmax predictions, pseudo-labeling of the unselected pool remainder,
per-class Gaussian estimation from labeled plus pseudo-labeled features, and
replay of pseudo-features sampled from the stored class Gaussians.

Class probability vectors are always ordered by ascending class id, so every
argmax tie resolves to the lowest class id.
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
from .gaussian import VAR_FLOOR, DiagonalGaussian, estimate_per_class, group_by_label, sample
from .seeding import derive_rng

DEFAULT_TEMPERATURE = 0.07
DEFAULT_ALPHA = 0.5
DEFAULT_REPLAY_PER_CLASS = 20


def _unit(v: np.ndarray, what: str) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ZeroVector(f"cannot normalize a zero vector ({what})")
    return v / norm


@dataclass(frozen=True)
class PrototypeClassifier:
    """Unit-norm class prototypes plus a softmax temperature.

    `classes_seen` is the ascending-sorted union of every completed session's
    discovered classes; it only grows. Instances are immutable; training
    returns a new classifier.
    """

    embeddings: dict[int, np.ndarray]
    temperature: float = DEFAULT_TEMPERATURE
    classes_seen: tuple[int, ...] = ()

    def __post_init__(self):
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")
        if tuple(sorted(set(self.classes_seen))) != self.classes_seen:
            raise ValueError("classes_seen must be ascending and unique")
        if set(self.embeddings) != set(self.classes_seen):
            raise ValueError("embeddings keys must match classes_seen")
        for c, g in self.embeddings.items():
            if abs(float(np.linalg.norm(g)) - 1.0) > 1e-6:
                raise NotNormalized(f"embedding for class {c} is not unit norm")

    @property
    def num_classes(self) -> int:
        return len(self.classes_seen)

    def embedding_matrix(self) -> np.ndarray:
        """Rows ordered like classes_seen (ascending class id)."""
        if not self.classes_seen:
            raise NoClasses("classifier has no classes yet")
        return np.stack([self.embeddings[c] for c in self.classes_seen])


def empty_classifier(temperature: float = DEFAULT_TEMPERATURE) -> PrototypeClassifier:
    return PrototypeClassifier(embeddings={}, temperature=temperature, classes_seen=())


def predict_proba_matrix(clf: PrototypeClassifier, vectors: np.ndarray) -> np.ndarray:
    """Row-wise softmax of cosine logits; (N, num_classes), columns ascending
    by class id. Callers are responsible for unit-norm rows."""
    g = clf.embedding_matrix()
    logits = vectors @ g.T / clf.temperature
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def predict(clf: PrototypeClassifier, vectors: np.ndarray) -> np.ndarray:
    """Argmax class ids; ties resolve to the lowest class id."""
    probs = predict_proba_matrix(clf, vectors)
    cols = np.argmax(probs, axis=1)
    classes = np.asarray(clf.classes_seen, dtype=np.int64)
    return classes[cols]


def pseudo_label(clf: PrototypeClassifier, store: FeatureStore, allowed) -> dict[int, int]:
    """Assign each store row the argmax class restricted to `allowed`.

    `allowed` must be a non-empty subset of classes_seen. The assignment is
    temperature-invariant (argmax of a monotone transform of the cosine
    logits); ties resolve to the lowest class id.
    """
    allowed = sorted(int(c) for c in set(allowed))
    if not allowed:
        raise EmptyAllowedSet("pseudo_label requires at least one allowed class")
    missing = [c for c in allowed if c not in clf.embeddings]
    if missing:
        raise ValueError(f"allowed classes not in classifier: {missing}")
    g = np.stack([clf.embeddings[c] for c in allowed])
    logits = store.vectors @ g.T
    cols = np.argmax(logits, axis=1)
    return {int(i): allowed[int(k)] for i, k in zip(store.ids, cols)}


def estimate_class_distributions(
    labeled, pseudo, store: FeatureStore, classes, var_floor: float = VAR_FLOOR
) -> dict[int, DiagonalGaussian]:
    """Per-class Gaussian over the union of labeled and pseudo-labeled rows,
    each class estimated from its ids in ascending order.

    When an id carries both a true and a pseudo label, the true label wins.
    A class in `classes` with no member at all raises EmptyClass; with the
    pseudo set empty this reduces bit-exactly to labeled-only estimation.
    """
    label_of: dict[int, int] = {}
    for i, c in pseudo:
        label_of[int(i)] = int(c)
    for i, c in labeled:
        label_of[int(i)] = int(c)
    ids = sorted(label_of)
    by_class = estimate_per_class(
        store.vectors_for(ids), np.array([label_of[i] for i in ids], dtype=np.int64), var_floor)
    out: dict[int, DiagonalGaussian] = {}
    for c in sorted(int(c) for c in set(classes)):
        if c not in by_class:
            raise EmptyClass(c)
        out[c] = by_class[c]
    return out


def train_session(
    clf: PrototypeClassifier,
    buffer: "MemoryBuffer",
    labeled,
    store: FeatureStore,
    replay_per_class: int = DEFAULT_REPLAY_PER_CLASS,
    seed: int = 0,
    class_space=None,
    alpha: float = DEFAULT_ALPHA,
) -> PrototypeClassifier:
    """One incremental training step; returns a new classifier.

    New classes get prototype = unit-normalized mean of their labeled
    features. Old classes in `buffer` are rehearsed: `replay_per_class`
    pseudo-features are sampled from the stored Gaussian and their unit mean
    is blended with the previous prototype, weight `alpha` on the previous
    one. With replay_per_class = 0 or alpha = 1 old prototypes are unchanged.

    Labels must lie inside `class_space` (inferred from the labels when not
    given) and outside classes_seen; classes in `class_space` with no labeled
    sample stay undiscovered and get no prototype.
    """
    labeled = [(int(i), int(c)) for i, c in labeled]
    if not labeled:
        raise EmptyInput("train_session requires at least one labeled sample")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if replay_per_class < 0:
        raise ValueError("replay_per_class must be >= 0")

    discovered = sorted({c for _, c in labeled})
    space = set(discovered) if class_space is None else {int(c) for c in class_space}
    seen = set(clf.classes_seen)
    bad = [c for c in discovered if c not in space or c in seen]
    if bad or (space & seen):
        raise LabelOutsideSessionSpace(
            f"labels/classes outside the current session space: {sorted(set(bad) | (space & seen))}"
        )

    embeddings = dict(clf.embeddings)
    if replay_per_class > 0 and alpha < 1.0:
        for c in sorted(buffer.distributions):
            rng = derive_rng(seed, "replay", c)
            replayed = sample(buffer.distributions[c], replay_per_class, rng)
            replay_proto = _unit(replayed.mean(axis=0), f"replay mean of class {c}")
            embeddings[c] = _unit(
                alpha * embeddings[c] + (1.0 - alpha) * replay_proto,
                f"blended prototype of class {c}",
            )
    vectors = store.vectors_for([i for i, _ in labeled])
    for c, rows in group_by_label(np.array([c for _, c in labeled], dtype=np.int64)):
        embeddings[c] = _unit(vectors[rows].mean(axis=0), f"prototype of class {c}")

    return PrototypeClassifier(
        embeddings=embeddings,
        temperature=clf.temperature,
        classes_seen=tuple(sorted(seen | set(discovered))),
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
