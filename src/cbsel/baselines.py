"""Comparison selection strategies sharing one interface: random,
balanced-random (needs oracle labels, so it is a reference point rather than
a deployable strategy), entropy, margin, and k-center coreset. Coreset runs
k-means++ seeding's loop, so on pools of 2,048 rows or more it takes that
loop's exact distance filter, with the same picks.

Every strategy returns a Selection with exactly B unique pool ids. Entropy
and margin score a pool from a `LogitTable`: cosine logits of every pool row
against the classes whose prototypes change between rounds, next to the
`SoftmaxStats` of the classes that stay fixed. `protocol` runs them in
rounds and updates the table between them, so here a call scores once and
computes only the statistics its key reads. Scoring is mixed precision: the
cosine products, logits, running max and runner-up, shifts and exponentials
are float32; the softmax sums, the merge with the fixed classes' statistics
and the keys are float64. Equal pool rows get equal logits, so they tie
whatever the BLAS kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateClassifier, NoClasses
from .features import FeatureStore
from .kmeans import _dist2_to, next_centers
from .learner import PrototypeClassifier
from .selection import Selection, _check_budget


def random_select(store: FeatureStore, budget: int, seed: int) -> Selection:
    """Uniform sample without replacement."""
    _check_budget(store, budget)
    rng = np.random.default_rng(seed)
    picked = rng.choice(store.ids, size=budget, replace=False)
    return Selection(ids=[int(i) for i in picked])


def balanced_random_select(store: FeatureStore, budget: int, seed: int, oracle) -> Selection:
    """Forced class-balanced random pick using the true labels of the store's
    ids, as `oracle.labels_of` gives them.

    Quotas are floor(B / num_classes) per class with the remainder spread
    over the lowest class ids. A class smaller than its quota contributes
    everything it has; the shortfall is refilled uniformly from the rest of
    the pool.
    """
    _check_budget(store, budget)
    labels = oracle.labels_of(store.ids)
    classes = np.unique(labels).tolist()
    rng = np.random.default_rng(seed)

    base, rem = divmod(budget, len(classes))
    picked: list[int] = []
    for rank, c in enumerate(classes):
        quota = base + (1 if rank < rem else 0)
        members = store.ids[labels == c]
        take = min(quota, len(members))
        if take:
            picked.extend(rng.choice(members, size=take, replace=False).tolist())
    shortfall = budget - len(picked)
    if shortfall > 0:
        leftover = np.setdiff1d(store.ids, picked, assume_unique=True)
        picked.extend(int(v) for v in rng.choice(leftover, size=shortfall, replace=False))
    return Selection(ids=picked)


@dataclass(frozen=True)
class SoftmaxStats:
    """Per-row statistics of the softmax over some classes' logits.

    For the logits l of one row: `top` is the max logit m, `second` the
    runner-up (-inf with one class), z = sum exp(l - m) and
    s = sum exp(l - m) * l. `top` and `second` are float32 like the logits,
    `z` and `s` float64. `second` and `s` are None when their maker was not
    asked for them.
    """

    classes: tuple[int, ...]
    top: np.ndarray
    second: np.ndarray | None
    z: np.ndarray
    s: np.ndarray | None

    @classmethod
    def of(cls, classifier: PrototypeClassifier, columns: "PoolColumns") -> "SoftmaxStats":
        """All the classifier's cosine logits, one row per pool row."""
        if not classifier.num_classes:
            raise NoClasses("classifier has no classes yet")
        logits = cosine_logits(classifier.prototypes, columns, classifier.temperature)
        return softmax_stats(tuple(classifier.classes.tolist()), logits)

    def margin(self) -> np.ndarray:
        """Top-1 minus top-2 probability."""
        return (1.0 - np.exp(np.subtract(self.second, self.top, dtype=np.float64))) / self.z

    def entropy(self) -> np.ndarray:
        """Shannon entropy (natural log) of the softmax."""
        return self.top + np.log(self.z) - self.s / self.z


# Unit prototypes and rows give cosine logits of at most about 1 / T in
# magnitude: a float32 cosine can exceed 1 by a few ulps, so at a cap of
# half float32's max the shift of a row with cosines just above +-1 would
# overflow. At a quarter of it, two logits differ by at most about half the
# max. Below T = 1 / cap (about 1.2e-38) every temperature scores like the
# cap, where the softmax has long saturated (see config.TEMPERATURE_FLOOR).
LOGIT_SCALE_CAP = float(np.finfo(np.float32).max) / 4


@dataclass(frozen=True)
class PoolColumns:
    """A pool's (N, D) rows as the C-contiguous float32 (D, N) `values` that
    cosine logits are computed from, made by `pool_columns`. `copies` are
    the rows equal to an earlier row and `firsts` the first of each one's
    equals: a BLAS product can give equal columns different bits by their
    place in it, so `cosine_logits` copies the logits of `firsts` to
    `copies`, and equal rows tie."""

    values: np.ndarray
    copies: np.ndarray
    firsts: np.ndarray

    def __len__(self) -> int:
        return self.values.shape[1]


def pool_columns(vectors: np.ndarray) -> PoolColumns:
    """The `PoolColumns` of (N, D) rows."""
    values = np.ascontiguousarray(vectors.T, dtype=np.float32)
    none = np.zeros(0, dtype=np.intp)
    # Each column sums in the same order, so equal columns have equal sums;
    # only when two sums meet are the rows compared whole.
    sums = np.sort(values.sum(axis=0))
    if not (sums[1:] == sums[:-1]).any():
        return PoolColumns(values, none, none)
    rows = np.ascontiguousarray(values.T) + np.float32(0.0)  # so -0.0 has 0.0's bytes
    whole = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(whole, return_index=True, return_inverse=True)
    firsts = first[inverse]
    copies = np.flatnonzero(firsts != np.arange(len(firsts)))
    return PoolColumns(values, copies, firsts[copies])


def logit_scale(temperature: float) -> np.float32:
    """1 / T in float32, capped at `LOGIT_SCALE_CAP`."""
    return np.float32(min(1.0 / temperature, LOGIT_SCALE_CAP))


def cosine_logits(prototypes: np.ndarray, columns: PoolColumns, temperature: float) -> np.ndarray:
    """Float32 (C, N) logits of unit (C, D) `prototypes` against a pool's
    `columns`: one float32 product times `logit_scale(temperature)`, with
    equal rows given their first equal's logits."""
    product = prototypes.astype(np.float32) @ columns.values
    np.multiply(product, logit_scale(temperature), out=product)
    if len(columns.copies):
        product[:, columns.copies] = product[:, columns.firsts]
    return product


def top_two(logits: np.ndarray, top: np.ndarray | None = None,
            second: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Max and runner-up of each column of `logits` (one row per class), from
    one running pass over its rows that carries on from an earlier block's
    `top` and `second` when given. Exact, ties included: the runner-up is
    the second largest value counted with repeats, -inf for one value."""
    rows = iter(logits)
    if top is None:
        top = next(rows).copy()
        second = np.full_like(top, -np.inf)
    else:
        top, second = top.copy(), second.copy()
    low = np.empty_like(top)
    for row in rows:
        np.minimum(top, row, out=low)
        np.maximum(second, low, out=second)
        np.maximum(top, row, out=top)
    return top, second


def softmax_stats(classes, logits: np.ndarray, old: SoftmaxStats | None = None,
                  second: bool = True, s: bool = True,
                  work: np.ndarray | None = None) -> SoftmaxStats:
    """`SoftmaxStats` of the class-major `logits` (a row per class of
    `classes`, a column per sample) together with the classes `old`
    summarises over the same samples; `second` and `s` only when asked for.
    `work`, shaped like `logits`, takes the exponentials and their products
    with the logits, in the logits' dtype; z and s are summed, and `old`
    merged in, in float64."""
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
    z = e.sum(axis=0, dtype=np.float64)
    total = np.multiply(e, logits, out=e).sum(axis=0, dtype=np.float64) if s else None
    if old is not None:
        scale = np.exp(np.subtract(old.top, top, dtype=np.float64))
        z += scale * old.z
        if s:
            total += scale * old.s
        classes = (*old.classes, *classes)
    return SoftmaxStats(tuple(sorted(classes)), top, runner_up, z, total)


class LogitTable:
    """Cosine logits of a pool's rows against classes whose prototypes change
    between scoring rounds, next to the `SoftmaxStats` of the classes that
    stay fixed (`old`).

    The table scores the pool's `PoolColumns`, the float32 copy of its rows
    that `old` is computed from too, and holds one float32 row of logits per
    class, in the order the classes were first set, and one column per pool
    row; `update` recomputes the rows of the classes it is given with one
    float32 matmul. `stats` reads the softmax over the fixed and the set
    classes together.
    """

    def __init__(self, columns: PoolColumns, temperature: float, capacity: int,
                 old: SoftmaxStats | None = None):
        self.columns = columns
        self.temperature = temperature
        self.old = old
        self.logits = np.empty((capacity, len(columns)), dtype=np.float32)
        self._work = np.empty_like(self.logits)
        self._slot: dict[int, int] = {}

    @property
    def num_classes(self) -> int:
        return len(self._slot) + (0 if self.old is None else len(self.old.classes))

    def update(self, classes, prototypes: np.ndarray) -> None:
        """Set the logits of `classes` from their unit (C, D) `prototypes`."""
        slots = [self._slot.setdefault(int(c), len(self._slot)) for c in classes]
        self.logits[slots] = cosine_logits(prototypes, self.columns, self.temperature)

    def stats(self, second: bool = True, s: bool = True) -> SoftmaxStats:
        """`SoftmaxStats` over every class of the table, one row per pool row."""
        n = len(self._slot)
        if not n:
            return self.old
        return softmax_stats(tuple(self._slot), self.logits[:n], self.old, second, s,
                             self._work[:n])


def entropy_select(store: FeatureStore, budget: int, table: LogitTable,
                   rows: np.ndarray | None = None) -> Selection:
    """Top-B by Shannon entropy of the softmax over the table's classes,
    descending. The table holds logits of every store row; `rows`, a boolean
    mask over them, names the candidates (all rows when None)."""
    return _pick(store, budget, table, rows, lambda: -table.stats(second=False).entropy())


def margin_select(store: FeatureStore, budget: int, table: LogitTable,
                  rows: np.ndarray | None = None) -> Selection:
    """Top-B by smallest top1 - top2 probability gap, ascending; `table` and
    `rows` are as in `entropy_select`."""
    return _pick(store, budget, table, rows, lambda: table.stats(s=False).margin())


def _pick(store, budget, table, rows, keys) -> Selection:
    """The `budget` candidates with the smallest `keys()`, which keys every
    store row."""
    if len(store) != table.logits.shape[1]:
        raise ValueError(f"the table has {table.logits.shape[1]} rows, the store {len(store)}")
    ids = store.ids if rows is None else store.ids[rows]
    _check_budget(ids, budget)
    if table.num_classes < 2:
        raise DegenerateClassifier(f"uncertainty scoring needs >= 2 classes, got {table.num_classes}")
    key = keys()
    return _top(ids, key if rows is None else key[rows], budget)


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
    the point farthest from its nearest selected point, the lowest row on
    ties (`kmeans.next_centers`). Fully deterministic; `seed` is accepted
    for interface parity only.
    """
    del seed
    _check_budget(store, budget)
    x = store.vectors
    first = int(np.argmin(_dist2_to(x, x.mean(axis=0), np.empty_like(x))))

    def farthest(d2: np.ndarray) -> int | None:
        i = int(np.argmax(d2))
        return i if d2[i] > 0.0 else None

    return Selection(ids=store.ids[next_centers(x, first, budget, farthest)].tolist())
