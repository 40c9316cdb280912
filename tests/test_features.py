import csv
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cbsel.datagen import WorldConfig, generate
from cbsel.errors import (
    DimensionMismatch,
    HiddenLabelAccess,
    NonFiniteValue,
    ParseError,
    UnknownId,
    ZeroVector,
)
from cbsel.features import (
    _WRITE_BLOCK_ROWS,
    NO_LABEL,
    FeatureStore,
    _load_fast,
    _load_validated,
    find_sorted,
    hidden_labels,
    load_features,
    save_features,
)


def label_lists(store):
    """The hidden (ids, classes) arrays of `store`, as lists."""
    ids, classes = hidden_labels(store, "metrics")
    return ids.tolist(), classes.tolist()


def small_store(labels=(0, 0, 1, 1)):
    vecs = np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 4.0], [-1.0, 2.0]])
    return FeatureStore(vecs, labels=list(labels))


class TestConstruction:
    def test_default_ids_are_dense(self):
        store = small_store()
        np.testing.assert_array_equal(store.ids, [0, 1, 2, 3])

    def test_rejects_non_matrix(self):
        with pytest.raises(DimensionMismatch):
            FeatureStore(np.zeros(4))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteValue):
            FeatureStore(np.array([[1.0, np.nan]]))
        with pytest.raises(NonFiniteValue):
            FeatureStore(np.array([[np.inf, 0.0]]))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ParseError):
            FeatureStore(np.eye(2), ids=[5, 5])

    def test_rows_follow_ascending_ids(self):
        vecs = np.array([[3.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        store = FeatureStore(vecs, ids=[30, 10, 20], labels=[3, 1, 2])
        np.testing.assert_array_equal(store.ids, [10, 20, 30])
        np.testing.assert_array_equal(store.vectors[:, 0], [1.0, 2.0, 3.0])
        assert label_lists(store) == ([10, 20, 30], [1, 2, 3])
        np.testing.assert_array_equal(store.vectors_for([30, 10]), [[3.0, 0.0], [1.0, 0.0]])

    def test_vectors_are_read_only(self):
        store = small_store()
        with pytest.raises(ValueError):
            store.vectors[0, 0] = 9.0


class TestLookups:
    def test_vector_by_id(self):
        store = small_store()
        np.testing.assert_array_equal(store.vectors_for([2]), [[3.0, 4.0]])

    def test_unknown_id(self):
        with pytest.raises(UnknownId):
            small_store().vectors_for([99])

    def test_vectors_for_preserves_order(self):
        store = small_store()
        got = store.vectors_for([3, 0])
        np.testing.assert_array_equal(got, [[-1.0, 2.0], [1.0, 0.0]])

    def test_empty_store(self):
        store = FeatureStore(np.zeros((0, 2)))
        assert store.vectors_for([]).shape == (0, 2)
        with pytest.raises(UnknownId) as err:
            store.vectors_for([4, 3])
        assert err.value.row_id == 4

    @pytest.mark.parametrize("keys, wanted", [
        ([], []),
        ([], [3, 1, 3]),
        ([10, 20, 30], []),
        ([10, 20, 30], [35, 5, 15, 25]),
        ([10, 20, 30], [20, 20, 10, 30, 20]),
        ([10, 20, 30], [30, 15, 10, 40, 15, 10]),
        ([-7, 0, 2**62], [2**62, -7, -8, 1]),
    ])
    def test_find_sorted(self, keys, wanted):
        keys = np.array(keys, dtype=np.int64)
        at, found = find_sorted(keys, wanted)
        assert at.shape == found.shape == (len(wanted),)
        position = {k: i for i, k in enumerate(keys.tolist())}
        assert found.tolist() == [w in position for w in wanted]
        assert at[found].tolist() == [position[w] for w in wanted if w in position]
        # The missing keys come out in the order they were asked for.
        assert np.asarray(wanted, dtype=np.int64)[~found].tolist() == \
            [w for w in wanted if w not in position]


class TestSubset:
    def test_keeps_parent_ids_and_labels(self):
        store = small_store()
        sub = store.subset([2, 0])
        np.testing.assert_array_equal(sub.ids, [0, 2])
        np.testing.assert_array_equal(sub.vectors, [[1.0, 0.0], [3.0, 4.0]])
        assert label_lists(sub) == ([0, 2], [0, 1])

    def test_repeated_id_is_rejected(self):
        with pytest.raises(ParseError):
            small_store().subset([1, 1])

    def test_names_the_first_absent_id(self):
        with pytest.raises(UnknownId) as err:
            FeatureStore(np.eye(3), ids=[10, 20, 30]).subset([20, 25, 5, 99])
        assert err.value.row_id == 25

    def test_vectors_bit_exact(self):
        store = small_store().l2_normalize()
        sub = store.subset([1, 3])
        assert sub.normalized
        np.testing.assert_array_equal(sub.vectors_for([3]), store.vectors_for([3]))

    def test_subset_of_subset(self):
        sub = small_store().subset([3, 1, 0]).subset([0, 3])
        np.testing.assert_array_equal(sub.ids, [0, 3])


class TestNormalize:
    def test_three_four_five(self):
        store = FeatureStore(np.array([[3.0, 4.0]])).l2_normalize()
        np.testing.assert_allclose(store.vectors, [[0.6, 0.8]], rtol=0, atol=1e-15)
        assert store.normalized

    def test_unit_rows_after(self):
        rng = np.random.default_rng(0)
        store = FeatureStore(rng.standard_normal((50, 7))).l2_normalize()
        np.testing.assert_allclose(np.linalg.norm(store.vectors, axis=1), 1.0, atol=1e-12)

    def test_zero_row_rejected_with_id(self):
        vecs = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ZeroVector) as err:
            FeatureStore(vecs, ids=[7, 8]).l2_normalize()
        assert err.value.row_id == 8


class TestHiddenLabels:
    def test_only_oracle_and_metrics(self):
        store = small_store()
        for consumer in ("oracle", "metrics"):
            ids, classes = hidden_labels(store, consumer)
            assert ids.dtype == classes.dtype == np.int64
            assert (ids.tolist(), classes.tolist()) == ([0, 1, 2, 3], [0, 0, 1, 1])

    def test_selection_code_is_locked_out(self):
        with pytest.raises(HiddenLabelAccess):
            hidden_labels(small_store(), "selection")

    def test_unlabeled_rows_omitted(self):
        store = small_store(labels=(0, NO_LABEL, 1, NO_LABEL))
        assert label_lists(store) == ([0, 2], [0, 1])

    def test_store_without_labels(self, tmp_path):
        # labels=None is a column of NO_LABEL: the same labels, subsets,
        # normalized stores and CSV bytes.
        for labels in (None, [NO_LABEL] * 3):
            store = FeatureStore(np.eye(3) + 1.0, labels=labels)
            for s in (store, store.subset([2, 0]), store.l2_normalize()):
                ids, classes = hidden_labels(s, "oracle")
                assert ids.dtype == classes.dtype == np.int64
                assert ids.size == classes.size == 0
                assert s._labels.dtype == np.int64
                assert s._labels.tolist() == [NO_LABEL] * len(s)
            save_features(store, tmp_path / "f.csv")
            assert (tmp_path / "f.csv").read_bytes() == \
                b"id,label,f0,f1,f2\r\n0,,2,1,1\r\n1,,1,2,1\r\n2,,1,1,2\r\n"


class TestCsvRoundTrip:
    def test_lossless_float64(self, tmp_path):
        rng = np.random.default_rng(42)
        store = FeatureStore(rng.standard_normal((25, 6)) * 1e3, labels=rng.integers(0, 4, 25))
        path = tmp_path / "f.csv"
        save_features(store, path)
        back = load_features(path)
        np.testing.assert_array_equal(back.vectors, store.vectors)
        np.testing.assert_array_equal(back.ids, store.ids)
        assert label_lists(back) == label_lists(store)

    def test_empty_labels_round_trip(self, tmp_path):
        store = FeatureStore(np.eye(2), labels=[NO_LABEL, 3])
        path = tmp_path / "f.csv"
        save_features(store, path)
        assert label_lists(load_features(path)) == ([1], [3])


class TestCsvValidation:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        return path

    def test_header_shape(self, tmp_path):
        path = self.write(tmp_path, "id,label,f0,f2\n")
        with pytest.raises(ParseError):
            load_features(path)

    def test_wrong_column_count(self, tmp_path):
        path = self.write(tmp_path, "id,label,f0,f1\n0,1,0.5\n")
        with pytest.raises(DimensionMismatch):
            load_features(path)

    def test_bad_cell_reports_row_and_column(self, tmp_path):
        path = self.write(tmp_path, "id,label,f0\n0,1,0.5\n1,2,oops\n")
        with pytest.raises(ParseError) as err:
            load_features(path)
        assert err.value.row == 3
        assert err.value.column == 3

    def test_non_finite_cell(self, tmp_path):
        path = self.write(tmp_path, "id,label,f0\n0,1,nan\n")
        with pytest.raises(NonFiniteValue):
            load_features(path)

    def test_ids_must_be_dense(self, tmp_path):
        path = self.write(tmp_path, "id,label,f0\n0,1,0.5\n2,1,0.5\n")
        with pytest.raises(ParseError):
            load_features(path)

    def test_oversized_cell_is_a_parse_error_naming_the_row(self, tmp_path):
        # csv.reader refuses a cell longer than its field size limit (131,072).
        cell = "0" * csv.field_size_limit() + "1"
        path = self.write(tmp_path, f"id,label,f0\n0,1,0.5\n1,1,{cell}\n")
        with pytest.raises(ParseError) as err:
            load_features(path)
        assert err.value.row == 3
        assert err.value.column is None

    def test_label_past_int64_is_a_parse_error_naming_the_cell(self, tmp_path):
        path = self.write(tmp_path, "id,label,f0\n0,1,0.5\n1,99999999999999999999,0.5\n")
        with pytest.raises(ParseError) as err:
            load_features(path)
        assert (err.value.row, err.value.column) == (3, 2)

    # The same rows read by the numpy reader and, quoted, by the validator.
    @pytest.mark.parametrize("text", ["id,label,f0\n0,1,0.5\n1,{},0.5\n",
                                      'id,label,f0\n0,1,0.5\n1,"{}",0.5\n'],
                             ids=["numpy_reader", "validator"])
    def test_minus_one_label_is_a_parse_error_naming_the_cell(self, tmp_path, text):
        with pytest.raises(ParseError) as err:
            load_features(self.write(tmp_path, text.format(-1)))
        assert (err.value.row, err.value.column) == (3, 2)
        assert label_lists(load_features(self.write(tmp_path, text.format(-2)))) == ([0, 1], [1, -2])

    def test_cell_at_the_field_size_limit_is_read(self, tmp_path):
        cell = "0" * (csv.field_size_limit() - 1) + "1"
        path = self.write(tmp_path, f"id,label,f0\n0,1,{cell}\n")
        assert load_features(path).vectors.tolist() == [[1.0]]


def reference_save(store, path):
    """The `csv.writer` loop `save_features` replaced; its bytes are the format."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"] + [f"f{d}" for d in range(store.dim)])
        for r in range(len(store)):
            label = ""
            if int(store._labels[r]) != NO_LABEL:
                label = str(int(store._labels[r]))
            writer.writerow(
                [int(store.ids[r]), label] + [format(v, ".17g") for v in store.vectors[r]]
            )


def _generated_world():
    store, _ = generate(WorldConfig(num_sessions=3, classes_per_session=10, dim=5,
                                    pool_per_class=60, imbalance_ratio=2.0, seed=4))
    assert len(store) > _WRITE_BLOCK_ROWS
    return store


def _normal(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


WRITER_STORES = {
    "extremes": lambda: FeatureStore(
        np.array([[-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]]),
        labels=[2]),
    "point_one_plus_point_two": lambda: FeatureStore(np.array([[0.1 + 0.2, 0.1, 0.3]])),
    "mixed_labels": lambda: FeatureStore(_normal((6, 3), 1) * 1e-3,
                                         labels=[NO_LABEL, 3, NO_LABEL, 0, 7, NO_LABEL]),
    "no_labels": lambda: FeatureStore(_normal((5, 2), 2) * 1e5),
    "one_dimension": lambda: FeatureStore(_normal((4, 1), 3), labels=[0, 1, 0, 1]),
    "one_row": lambda: FeatureStore(_normal((1, 4), 4), labels=[5]),
    "sparse_ids": lambda: FeatureStore(np.eye(3), ids=[10, 3, 7], labels=[1, NO_LABEL, 2]),
    "generated_world": _generated_world,
}


class TestCsvWriter:
    @pytest.mark.parametrize("name", WRITER_STORES)
    def test_bytes_match_the_csv_writer(self, name, tmp_path):
        store = WRITER_STORES[name]()
        save_features(store, tmp_path / "new.csv")
        reference_save(store, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("eol", ["\r\n", "\n"])
    def test_written_files_take_the_fast_path(self, eol, tmp_path):
        store = _generated_world()
        path = tmp_path / "f.csv"
        save_features(store, path)
        path.write_bytes(path.read_bytes().replace(b"\r\n", eol.encode()))
        fast = _load_fast(path)
        assert fast is not None
        assert _arrays(fast) == _outcome(_load_validated, path)


def _outcome(load, path):
    """What a loader makes of a file: the store's exact arrays, or the error's
    type, message and location."""
    try:
        store = load(path)
    except Exception as exc:
        return ("error", type(exc), str(exc), getattr(exc, "row", None),
                getattr(exc, "column", None))
    return _arrays(store)


def _arrays(store):
    return ("store", store.vectors.shape, store.vectors.tobytes(), store.ids.tolist(),
            store._labels.tolist())


# Cells where csv plus float()/int() and np.loadtxt disagree, or nearly do.
CORNER_CELLS = [
    "", " ", "x", "1_0", "0_0", " 5", "5 ", "+5", "-0", "5.", ".5", "1E5", "\x0c5",
    "5\x0b", "\xa05", "\x1c5", "5\x85", "5\u2028", "0x1p3", "\u0661", "nan", "-inf",
    "infinity", "1e999", "-1e999", "1e-400", "99999999999999999999", "1,5", "\x00",
    '"5"', '"5\n"', '"5\r\n"', '"5"""', '"1,5"', '"5', '5"',
]


@st.composite
def csv_files(draw):
    """A features CSV close to valid, with a few corners of the format mixed in."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    values = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats())
    ids = draw(st.permutations(range(n)))
    rows = [["id", "label"] + [f"f{d}" for d in range(dim)]]
    for i in ids:
        rows.append([str(i), draw(st.sampled_from(["", "0", "3", "-1"]))]
                    + [draw(st.sampled_from(["{!r}", "{:.17g}", "{:.3e}"])).format(
                        draw(values)) for _ in range(dim)])
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows[1:] or rows))
        edit = draw(st.sampled_from(["cell", "cell", "cell", "extra", "drop", "blank"]))
        if edit == "blank":
            rows.insert(draw(st.integers(1, len(rows))), [])
        elif edit == "extra":
            row.append(draw(st.sampled_from(["", "0.5"])))
        elif row and edit == "drop":
            row.pop()
        elif row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(CORNER_CELLS))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    ends = [draw(st.sampled_from([eol] * 6 + ["\n", "\r"])) for _ in rows]
    if not draw(st.booleans()):
        ends[-1] = ""
    text = "".join(",".join(row) + end for row, end in zip(rows, ends))
    if draw(st.booleans()):
        text += draw(st.sampled_from(["\n", "\r\n", "\n\n", " \n"]))
    if draw(st.integers(0, 9)) == 0:
        text = "\ufeff" + text
    data = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\x00", b"\xc3"])) + data[at:]
    return data


def _agree(path):
    """The fast path returns nothing or the validator's store, and
    `load_features` gives exactly what the validator gives."""
    reference = _outcome(_load_validated, path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fast = _load_fast(path)
        except Exception:
            fast = None
        loaded = _outcome(load_features, path)
    assert caught == []
    if fast is not None:
        assert _arrays(fast) == reference
    assert loaded == reference
    return reference, fast is not None


class TestCsvReaderAgreesWithTheValidator:
    @given(data=csv_files(), limit=st.sampled_from([None, None, 12, 20]))
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_files(self, tmp_path, data, limit):
        path = tmp_path / "f.csv"
        path.write_bytes(data)
        # A low field size limit puts csv's oversized-cell error within reach.
        previous = csv.field_size_limit(limit) if limit else None
        try:
            _agree(path)
        finally:
            if previous is not None:
                csv.field_size_limit(previous)

    # (file, what the validator makes of it, whether the fast path reads it)
    CORNERS = {
        "lf": (b"id,label,f0,f1\n0,1,0.5,-2\n1,,0.25,1e-300\n", "store", True),
        "crlf": (b"id,label,f0,f1\r\n0,1,0.5,-2\r\n1,,0.25,1e-300\r\n", "store", True),
        "no_final_newline": (b"id,label,f0\r\n0,1,0.5\r\n1,0,7", "store", True),
        "spaces_and_plus": (b"id,label,f0,f1\n 0 , +1 ,  +5 , 0.5 \n", "store", True),
        "whitespace_controls": (b"id,label,f0\n0\x0c,\x0b,\x0c0.5\x0b\n", "store", True),
        "explicit_no_label": (b"id,label,f0\n0,-1,0.5\n", ParseError, False),
        "minus_two_label": (b"id,label,f0\n0,-2,0.5\n", "store", True),
        "blank_line": (b"id,label,f0\n0,1,0.5\n\n1,1,0.25\n", DimensionMismatch, False),
        "trailing_blank_lines": (b"id,label,f0\n0,1,0.5\n\n\n", DimensionMismatch, False),
        "extra_cell": (b"id,label,f0\n0,1,0.5,0.5\n", DimensionMismatch, False),
        "underscore": (b"id,label,f0\n0_0,1,1_0\n", "store", False),
        "quoted": (b'id,label,f0\n"0","1","0.5"\n', "store", False),
        "quoted_newline": (b'id,label,f0\n0,1,"0.5\n"\n', "store", False),
        "lone_carriage_returns": (b"id,label,f0\r0,1,0.5\r1,0,7", "store", True),
        "mixed_line_endings": (b"id,label,f0\r\n0,1,0.5\n1,0,7\r2,,3\r\n", "store", True),
        "carriage_return_in_a_row": (b"id,label,f0\n0,\r,0.5\n", DimensionMismatch, False),
        "blank_floats": (b"id,label,f0\n0,1,\n", ParseError, False),
        "information_separator": (b"id,label,f0\n0,1,\x1c5\n", ParseError, False),
        "bom": (b"\xef\xbb\xbfid,label,f0\n0,1,0.5\n", ParseError, False),
        "nul": (b"id,label,f0\n0,1,0.5\x00\n", ParseError, False),
        "nan": (b"id,label,f0\n0,1,nan\n", NonFiniteValue, False),
        "inf": (b"id,label,f0\n0,1,-inf\n", NonFiniteValue, False),
        "overflow": (b"id,label,f0\n0,1,1e999\n", NonFiniteValue, False),
        "not_utf8": (b"id,label,f0\n0,1,0.5\xff\n", ParseError, False),
        "header_only": (b"id,label,f0\n", ParseError, False),
        "label_past_int64": (b"id,label,f0\n0,1,0.5\n1,99999999999999999999,0.5\n", ParseError, False),
        "label_below_int64": (b"id,label,f0\n0,-9223372036854775809,0.5\n", ParseError, False),
        "label_at_int64_bounds": (
            b"id,label,f0\n0,9223372036854775807,0.5\n1,-9223372036854775808,0.5\n", "store", True),
        "empty": (b"", ParseError, False),
    }

    @pytest.mark.parametrize("name", CORNERS)
    def test_corner(self, name, tmp_path):
        data, expected, fast = self.CORNERS[name]
        path = tmp_path / "f.csv"
        path.write_bytes(data)
        reference, took_fast_path = _agree(path)
        if expected == "store":
            assert reference[0] == "store"
        else:
            assert reference[:2] == ("error", expected)
        assert took_fast_path == fast
