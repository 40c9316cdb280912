"""Feature ingestion, validation, normalization, and indexing.

The CSV ingestion format is ``id,label,f0,...,f{D-1}``: the header declares
the dimensionality, the ``label`` column may be empty per row, and floats
are written with 17 significant digits so a save/load round-trip is
lossless for float64.

Hidden labels ride along for the oracle and the metrics code only; selection
strategies must not read them. Access goes through :func:`hidden_labels`,
which checks the consumer name.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import (
    DimensionMismatch,
    HiddenLabelAccess,
    NonFiniteValue,
    ParseError,
    UnknownId,
    ZeroVector,
)

NO_LABEL = -1
_LABEL_CONSUMERS = ("oracle", "metrics")


class FeatureStore:
    """Immutable matrix of D-dimensional feature vectors with stable ids.

    Rows are kept in ascending id order: the constructor reorders vectors,
    ids and labels together when the given ids are not ascending, so every
    tie that breaks "toward the lowest id" is decided by row order alone.
    Freshly loaded or generated stores have ids dense in [0, N). Subsets
    keep the parent's ids so downstream selections always report pool-wide
    ids. `normalized` is set by `l2_normalize`, `generate` and subsets of a
    normalized store, and is not re-checked. All mutation-style operations
    return new stores; the arrays are read-only.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        ids: np.ndarray | list[int] | None = None,
        labels: np.ndarray | list[int] | None = None,
        normalized: bool = False,
    ):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] < 1:
            raise DimensionMismatch(f"expected an (N, D) matrix, got shape {vectors.shape}")
        if not np.all(np.isfinite(vectors)):
            raise NonFiniteValue("feature matrix contains non-finite values")
        n = vectors.shape[0]
        if ids is None:
            ids = np.arange(n, dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
        if ids.shape != (n,):
            raise DimensionMismatch("ids length does not match the number of rows")
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (n,):
                raise DimensionMismatch("labels length does not match the number of rows")
        if np.any(ids[1:] < ids[:-1]):
            order = np.argsort(ids, kind="stable")
            vectors, ids = vectors[order], ids[order]
            labels = None if labels is None else labels[order]
        if np.any(ids[1:] == ids[:-1]):
            raise ParseError("duplicate ids in feature store")
        self.dim = int(vectors.shape[1])
        self.vectors = vectors
        self.ids = ids
        self.normalized = bool(normalized)
        self._labels = labels
        self.vectors.setflags(write=False)
        self.ids.setflags(write=False)
        if self._labels is not None:
            self._labels.setflags(write=False)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def has_labels(self) -> bool:
        return self._labels is not None

    def _rows(self, ids) -> np.ndarray:
        """Row of each id, in the given order; UnknownId names the first absent id."""
        ids = np.asarray(ids, dtype=np.int64)
        rows = self.ids.searchsorted(ids)
        if len(self) == 0:
            absent = np.ones(ids.shape, dtype=bool)
        else:
            absent = self.ids.take(rows, mode="clip") != ids
        if absent.any():
            raise UnknownId(int(ids[absent.argmax()]))
        return rows

    def vector(self, row_id: int) -> np.ndarray:
        return self.vectors[self._rows([row_id])[0]]

    def vectors_for(self, ids) -> np.ndarray:
        """Vectors of `ids`, in the given order."""
        return self.vectors[self._rows(ids)]

    def subset(self, ids) -> "FeatureStore":
        """New store holding exactly `ids`, as rows in ascending id order.

        Vectors are carried over bit-exactly; ids and hidden labels are
        preserved from the parent. A repeated id raises ParseError.
        """
        rows = np.sort(self._rows(ids))
        return FeatureStore(
            self.vectors[rows],
            ids=self.ids[rows],
            labels=None if self._labels is None else self._labels[rows],
            normalized=self.normalized,
        )

    def l2_normalize(self) -> "FeatureStore":
        """Scale every row to unit Euclidean norm. Idempotent; rejects zero rows."""
        norms = np.linalg.norm(self.vectors, axis=1)
        zero = np.where(norms == 0.0)[0]
        if zero.size:
            raise ZeroVector(int(self.ids[zero[0]]))
        return FeatureStore(
            self.vectors / norms[:, None],
            ids=self.ids.copy(),
            labels=None if self._labels is None else self._labels.copy(),
            normalized=True,
        )


def hidden_labels(store: FeatureStore, consumer: str) -> dict[int, int]:
    """Access-scoped view of the hidden labels, as an id -> class map.

    Only the oracle and the metrics code may call this; anything else gets
    HiddenLabelAccess. Rows without a label are omitted from the map.
    """
    if consumer not in _LABEL_CONSUMERS:
        raise HiddenLabelAccess(
            f"hidden labels are restricted to {_LABEL_CONSUMERS}, not {consumer!r}"
        )
    if store._labels is None:
        return {}
    return {
        int(i): int(y)
        for i, y in zip(store.ids, store._labels)
        if int(y) != NO_LABEL
    }


def load_features(path) -> FeatureStore:
    """Load a feature store from a CSV file.

    The header must read ``id,label,f0,...,f{D-1}``. Every row must supply an
    integer id, an optional integer label, and D finite floats. Ids must be
    dense in [0, N). The returned store is un-normalized.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file") from None
        dim = _parse_header(header)
        ids: list[int] = []
        labels: list[int] = []
        rows: list[list[float]] = []
        any_label = False
        for rownum, row in enumerate(reader, start=2):
            if len(row) != dim + 2:
                raise DimensionMismatch(
                    f"row {rownum}: expected {dim + 2} columns, got {len(row)}"
                )
            try:
                ids.append(int(row[0]))
            except ValueError:
                raise ParseError(f"bad id {row[0]!r}", row=rownum, column=1) from None
            if row[1].strip() == "":
                labels.append(NO_LABEL)
            else:
                try:
                    labels.append(int(row[1]))
                except ValueError:
                    raise ParseError(f"bad label {row[1]!r}", row=rownum, column=2) from None
                any_label = True
            values = []
            for col, cell in enumerate(row[2:], start=3):
                try:
                    v = float(cell)
                except ValueError:
                    raise ParseError(f"bad float {cell!r}", row=rownum, column=col) from None
                if not math.isfinite(v):
                    raise NonFiniteValue(
                        f"non-finite value {cell!r} at row {rownum}, column {col}",
                        row=rownum,
                        column=col,
                    )
                values.append(v)
            rows.append(values)
    n = len(rows)
    if n == 0:
        raise ParseError("no data rows")
    if sorted(ids) != list(range(n)):
        raise ParseError("ids must be unique and dense in [0, N)")
    return FeatureStore(
        np.asarray(rows, dtype=np.float64),
        ids=np.asarray(ids, dtype=np.int64),
        labels=np.asarray(labels, dtype=np.int64) if any_label else None,
        normalized=False,
    )


def save_features(store: FeatureStore, path) -> None:
    """Write a store in the CSV ingestion format (17 significant digits)."""
    label_map = store._labels
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"] + [f"f{d}" for d in range(store.dim)])
        for r in range(len(store)):
            label = ""
            if label_map is not None and int(label_map[r]) != NO_LABEL:
                label = str(int(label_map[r]))
            writer.writerow(
                [int(store.ids[r]), label]
                + [format(v, ".17g") for v in store.vectors[r]]
            )


def _parse_header(header: list[str]) -> int:
    if len(header) < 3 or header[0] != "id" or header[1] != "label":
        raise ParseError(f"header must start with 'id,label,f0,...': got {header[:3]}")
    for d, name in enumerate(header[2:]):
        if name != f"f{d}":
            raise ParseError(f"feature column {d} must be named 'f{d}', got {name!r}")
    return len(header) - 2
