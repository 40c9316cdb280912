"""Feature ingestion, validation, normalization, and indexing.

The CSV ingestion format is ``id,label,f0,...,f{D-1}``: the header declares
the dimensionality, the ``label`` column may be empty per row, and floats
are written with 17 significant digits so a save/load round-trip is
lossless for float64.

Hidden labels ride along for the oracle and the metrics code only; selection
strategies must not read them. A store holds them as one int64 column, with
``NO_LABEL`` in each row without a label. Access goes through
:func:`hidden_labels`, which checks the consumer name.
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
# Rows `save_features` formats into one string per write.
_WRITE_BLOCK_ROWS = 1024
# Characters only the row-by-row validator reads: a quote changes csv's
# cells, and np.loadtxt strips these four controls around a float where
# float() rejects them.
_SLOW_PATH_CHARS = '"\x1c\x1d\x1e\x1f'


class FeatureStore:
    """Immutable matrix of D-dimensional feature vectors with stable ids.

    Rows are kept in ascending id order: the constructor reorders vectors,
    ids and labels together when the given ids are not ascending, so every
    tie that breaks "toward the lowest id" is decided by row order alone.
    Freshly loaded or generated stores have ids dense in [0, N). Subsets
    keep the parent's ids so downstream selections always report pool-wide
    ids. `normalized` is set by `l2_normalize`, `generate` and subsets of a
    normalized store, and is not re-checked. Hidden labels are one int64
    column aligned with the rows: `NO_LABEL` marks a row without a label, and
    a store built with labels=None holds it in every row. All mutation-style
    operations return new stores; the arrays are read-only.
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
        labels = np.asarray(np.full(n, NO_LABEL) if labels is None else labels, dtype=np.int64)
        if labels.shape != (n,):
            raise DimensionMismatch("labels length does not match the number of rows")
        if np.any(ids[1:] < ids[:-1]):
            order = np.argsort(ids, kind="stable")
            vectors, ids, labels = vectors[order], ids[order], labels[order]
        if np.any(ids[1:] == ids[:-1]):
            raise ParseError("duplicate ids in feature store")
        self.dim = int(vectors.shape[1])
        self.vectors = vectors
        self.ids = ids
        self.normalized = bool(normalized)
        self._labels = labels
        for v in (vectors, ids, labels):
            v.setflags(write=False)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def _rows(self, ids) -> np.ndarray:
        """Row of each id, in the given order; UnknownId names the first absent id."""
        ids = np.asarray(ids, dtype=np.int64)
        rows, found = find_sorted(self.ids, ids)
        if not found.all():
            raise UnknownId(int(ids[found.argmin()]))
        return rows

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
            labels=self._labels[rows],
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
            labels=self._labels.copy(),
            normalized=True,
        )


def find_sorted(keys: np.ndarray, wanted) -> tuple[np.ndarray, np.ndarray]:
    """Where each of `wanted` sits in the ascending int64 array `keys`: the
    positions and a mask of the keys found, both shaped like `wanted`. A
    position is meaningful only where the mask is True."""
    wanted = np.asarray(wanted, dtype=np.int64)
    at = keys.searchsorted(wanted)
    if not len(keys):
        return at, np.zeros(wanted.shape, dtype=bool)
    return at, keys.take(at, mode="clip") == wanted


def hidden_labels(store: FeatureStore, consumer: str) -> tuple[np.ndarray, np.ndarray]:
    """Access-scoped view of the hidden labels: the ids and classes of the
    labeled rows, as aligned int64 arrays in ascending id order.

    Only the oracle and the metrics code may call this; anything else gets
    HiddenLabelAccess. Rows without a label are left out.
    """
    if consumer not in _LABEL_CONSUMERS:
        raise HiddenLabelAccess(
            f"hidden labels are restricted to {_LABEL_CONSUMERS}, not {consumer!r}"
        )
    keep = store._labels != NO_LABEL
    return store.ids[keep], store._labels[keep]


def load_features(path) -> FeatureStore:
    """Load a feature store from a UTF-8 CSV file.

    The header must read ``id,label,f0,...,f{D-1}``. Every row must supply an
    integer id, an optional integer label other than -1 (``NO_LABEL``, which
    marks a row without a label in memory), and D finite floats. Ids must be
    dense in [0, N). The returned store is un-normalized.

    Most files are parsed at numpy speed by `_load_fast`. Any file it cannot
    show it reads exactly as the row-by-row validator would goes to the
    validator, which then returns the same store or raises the error for a
    bad file; the two paths accept the same files.
    """
    try:
        store = _load_fast(path)
    except Exception:  # any failure of the fast parse is the validator's to judge
        store = None
    return _load_validated(path) if store is None else store


def _load_fast(path) -> FeatureStore | None:
    """The store `_load_validated` returns for `path`, or None where this
    parse cannot show that its arrays are the validator's.

    The file's lines are the ones csv.reader reads, split at ``\\n``,
    ``\\r\\n`` or a lone ``\\r``. Without a quote, csv's cells are a line's
    text split at its commas, so this parse takes only files without a
    `_SLOW_PATH_CHARS` character or a cell longer than csv's field size
    limit, and with D + 1 commas on every line after the header. Ids and
    labels are parsed by the validator's ``int()``/``strip()`` rules and the
    D float columns by `np.loadtxt`, which must give one row per line. Any
    exception, `FeatureStore`'s check for a non-finite value among them,
    also means None.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    if any(c in line for line in lines for c in _SLOW_PATH_CHARS):
        return None
    limit = csv.field_size_limit()
    if max(map(len, lines)) > limit and any(
            len(cell) > limit for line in lines for cell in line.split(",")):
        return None
    dim = _parse_header(lines[0].rstrip("\r\n").split(","))
    body = lines[1:]
    if not body or any(line.count(",") != dim + 1 for line in body):
        return None
    heads = [line.split(",", 2)[:2] for line in body]
    ids = [int(id_cell) for id_cell, _ in heads]
    labels = [NO_LABEL if cell.strip() == "" else int(cell) for _, cell in heads]
    if labels.count(NO_LABEL) != sum(cell.strip() == "" for _, cell in heads):
        return None  # a -1 label cell: the validator names it
    vectors = np.loadtxt(body, dtype=np.float64, delimiter=",", comments=None,
                         quotechar=None, usecols=range(2, dim + 2), ndmin=2)
    if vectors.shape != (len(body), dim):
        return None
    return _dense_store(ids, labels, vectors)  # raises on a non-finite value


def _load_validated(path) -> FeatureStore:
    """Row-by-row reader that names the row and column of the first bad cell."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            records = _csv_records(fh)
            header = next(records, None)
            if header is None:
                raise ParseError("empty file")
            dim = _parse_header(header)
            ids: list[int] = []
            labels: list[int] = []
            rows: list[list[float]] = []
            for rownum, row in enumerate(records, start=2):
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
                    if not -(2**63) <= labels[-1] < 2**63:
                        raise ParseError(
                            f"label {row[1]!r} is outside the int64 range", row=rownum, column=2)
                    if labels[-1] == NO_LABEL:
                        raise ParseError(
                            f"label {row[1]!r} is reserved for a row without a label",
                            row=rownum, column=2)
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
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    return _dense_store(ids, labels, rows)


def _csv_records(fh):
    """csv.reader's records of `fh`; a csv.Error becomes a ParseError naming
    the 1-based row being read (the header is row 1)."""
    reader = csv.reader(fh)
    row = 1
    while True:
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(f"unreadable CSV row: {exc}", row=row) from None
        yield record
        row += 1


def _dense_store(ids: list[int], labels: list[int], vectors) -> FeatureStore:
    """The store of parsed rows, once their ids are checked dense in [0, N)."""
    n = len(ids)
    if n == 0:
        raise ParseError("no data rows")
    if sorted(ids) != list(range(n)):
        raise ParseError("ids must be unique and dense in [0, N)")
    return FeatureStore(
        np.asarray(vectors, dtype=np.float64),
        ids=np.asarray(ids, dtype=np.int64),
        labels=np.asarray(labels, dtype=np.int64),
        normalized=False,
    )


def save_features(store: FeatureStore, path) -> None:
    """Write a store in the CSV ingestion format (17 significant digits).

    The bytes are those `csv.writer` writes with its default dialect,
    ``\\r\\n`` line endings included; no cell this format holds needs
    quoting. Rows are formatted and written `_WRITE_BLOCK_ROWS` at a time,
    so the text held in memory does not grow with the number of rows. A
    failed write leaves `path` as it was (`config.atomic_write`).
    """
    from .config import atomic_write  # config imports kmeans, which imports this module

    row_format = "%d,%s," + ",".join(["%.17g"] * store.dim) + "\r\n"
    with atomic_write(path) as fh:
        fh.write(",".join(["id", "label"] + [f"f{d}" for d in range(store.dim)]) + "\r\n")
        for start in range(0, len(store), _WRITE_BLOCK_ROWS):
            block = slice(start, start + _WRITE_BLOCK_ROWS)
            ids = store.ids[block].tolist()
            labels = ["" if y == NO_LABEL else str(y) for y in store._labels[block].tolist()]
            fh.write("".join([
                row_format % (i, label, *v)
                for i, label, v in zip(ids, labels, store.vectors[block].tolist())
            ]))


def _parse_header(header: list[str]) -> int:
    if len(header) < 3 or header[0] != "id" or header[1] != "label":
        raise ParseError(f"header must start with 'id,label,f0,...': got {header[:3]}")
    for d, name in enumerate(header[2:]):
        if name != f"f{d}":
            raise ParseError(f"feature column {d} must be named 'f{d}', got {name!r}")
    return len(header) - 2
