import numpy as np
import pytest

from cbsel.errors import (
    DimensionMismatch,
    HiddenLabelAccess,
    NonFiniteValue,
    ParseError,
    UnknownId,
    ZeroVector,
)
from cbsel.features import (
    NO_LABEL,
    FeatureStore,
    hidden_labels,
    load_features,
    save_features,
)


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
        assert hidden_labels(store, "metrics") == {10: 1, 20: 2, 30: 3}
        np.testing.assert_array_equal(store.vectors_for([30, 10]), [[3.0, 0.0], [1.0, 0.0]])

    def test_vectors_are_read_only(self):
        store = small_store()
        with pytest.raises(ValueError):
            store.vectors[0, 0] = 9.0


class TestLookups:
    def test_vector_by_id(self):
        store = small_store()
        np.testing.assert_array_equal(store.vector(2), [3.0, 4.0])

    def test_unknown_id(self):
        with pytest.raises(UnknownId):
            small_store().vector(99)

    def test_vectors_for_preserves_order(self):
        store = small_store()
        got = store.vectors_for([3, 0])
        np.testing.assert_array_equal(got, [[-1.0, 2.0], [1.0, 0.0]])


class TestSubset:
    def test_keeps_parent_ids_and_labels(self):
        store = small_store()
        sub = store.subset([2, 0])
        np.testing.assert_array_equal(sub.ids, [0, 2])
        np.testing.assert_array_equal(sub.vectors, [[1.0, 0.0], [3.0, 4.0]])
        assert hidden_labels(sub, "metrics") == {2: 1, 0: 0}

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
        np.testing.assert_array_equal(sub.vector(3), store.vector(3))

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
        assert hidden_labels(store, "oracle") == {0: 0, 1: 0, 2: 1, 3: 1}
        assert hidden_labels(store, "metrics") == {0: 0, 1: 0, 2: 1, 3: 1}

    def test_selection_code_is_locked_out(self):
        with pytest.raises(HiddenLabelAccess):
            hidden_labels(small_store(), "selection")

    def test_unlabeled_rows_omitted(self):
        store = small_store(labels=(0, NO_LABEL, 1, NO_LABEL))
        assert hidden_labels(store, "oracle") == {0: 0, 2: 1}

    def test_store_without_labels(self):
        store = FeatureStore(np.eye(3))
        assert not store.has_labels
        assert hidden_labels(store, "oracle") == {}


class TestCsvRoundTrip:
    def test_lossless_float64(self, tmp_path):
        rng = np.random.default_rng(42)
        store = FeatureStore(rng.standard_normal((25, 6)) * 1e3, labels=rng.integers(0, 4, 25))
        path = tmp_path / "f.csv"
        save_features(store, path)
        back = load_features(path)
        np.testing.assert_array_equal(back.vectors, store.vectors)
        np.testing.assert_array_equal(back.ids, store.ids)
        assert hidden_labels(back, "oracle") == hidden_labels(store, "oracle")

    def test_empty_labels_round_trip(self, tmp_path):
        store = FeatureStore(np.eye(2), labels=[NO_LABEL, 3])
        path = tmp_path / "f.csv"
        save_features(store, path)
        assert hidden_labels(load_features(path), "oracle") == {1: 3}


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

