import numpy as np
import pytest

from cbsel import kmeans as kmeans_module
from cbsel.datagen import WorldConfig, generate
from cbsel.errors import IndexOutOfRange, KTooLarge, NotNormalized
from cbsel.features import FeatureStore
from cbsel.kmeans import Clustering, _assign, _inertia, _update, cluster_members, kmeans


def unit_store(vectors, ids=None):
    v = np.asarray(vectors, dtype=np.float64)
    v = v / np.linalg.norm(v, axis=1)[:, None]
    return FeatureStore(v, ids=ids, normalized=True)


def blob_store(centers, per_blob=30, sigma=0.02, seed=0):
    rng = np.random.default_rng(seed)
    blocks = [c + sigma * rng.standard_normal((per_blob, len(c))) for c in np.asarray(centers)]
    return unit_store(np.vstack(blocks))


class TestBasics:
    def test_k_equals_one_centroid_is_mean(self):
        store = blob_store([[1.0, 0.0, 0.0]], per_blob=20)
        result = kmeans(store, 1, seed=3)
        np.testing.assert_allclose(result.centroids[0], store.vectors.mean(axis=0), atol=1e-12)
        assert result.sizes() == (20,)

    def test_k_equals_n(self):
        store = unit_store(np.eye(4))
        result = kmeans(store, 4, seed=0)
        assert sorted(result.sizes()) == [1, 1, 1, 1]
        assert result.inertia == 0.0

    def test_assignments_shape_and_range(self):
        store = blob_store([[1.0, 0.0], [0.0, 1.0]], per_blob=10)
        result = kmeans(store, 2, seed=1)
        assert result.assignments.shape == (20,)
        assert set(result.assignments.tolist()) <= {0, 1}
        assert sum(result.sizes()) == 20

    def test_inertia_is_consistent(self):
        store = blob_store([[1.0, 0.0], [0.0, 1.0]], per_blob=15, seed=2)
        result = kmeans(store, 2, seed=5)
        recomputed = sum(
            float(np.sum((store.vectors[i] - result.centroids[result.assignments[i]]) ** 2))
            for i in range(len(store))
        )
        np.testing.assert_allclose(result.inertia, recomputed, rtol=1e-10)

    def test_iterations_bounded(self):
        store = blob_store([[1.0, 0.0], [0.0, 1.0]], per_blob=25)
        result = kmeans(store, 2, seed=0, max_iter=7)
        assert 1 <= result.iterations_run <= 7


class TestValidation:
    def test_k_too_small(self):
        with pytest.raises(KTooLarge):
            kmeans(unit_store(np.eye(3)), 0, seed=0)

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            kmeans(unit_store(np.eye(3)), 4, seed=0)

    def test_requires_normalized_store(self):
        raw = FeatureStore(np.array([[3.0, 4.0], [1.0, 2.0]]))
        with pytest.raises(NotNormalized):
            kmeans(raw, 1, seed=0)


class TestDeterminism:
    def test_same_seed_same_result(self):
        store = blob_store([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], seed=4)
        a = kmeans(store, 3, seed=11)
        b = kmeans(store, 3, seed=11)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia


class TestSeparatedBlobs:
    def test_recovers_the_partition(self):
        centers = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        store = blob_store(centers, per_blob=30, sigma=0.02, seed=7)
        result = kmeans(store, 3, seed=13)
        got = {frozenset(cluster_members(result, j)) for j in range(3)}
        want = {frozenset(range(0, 30)), frozenset(range(30, 60)), frozenset(range(60, 90))}
        assert got == want


class TestLloydStep:
    @pytest.mark.parametrize("seed", range(5))
    def test_update_equals_member_means(self, seed):
        rng = np.random.default_rng(seed)
        k, d = 6, 9
        x = rng.standard_normal((200, d))
        assign = rng.integers(0, k - 1, size=200)  # cluster k-1 stays empty
        old = rng.standard_normal((k, d))
        out = _update(x, assign, old, k)
        for j in range(k - 1):
            np.testing.assert_array_equal(out[j], x[assign == j].mean(axis=0))
        np.testing.assert_array_equal(out[k - 1], old[k - 1])

    @pytest.mark.parametrize("seed", range(5))
    def test_assign_picks_the_nearest_centroid(self, seed):
        rng = np.random.default_rng(seed)
        x = blob_store(rng.standard_normal((4, 5)), per_blob=25, sigma=0.3, seed=seed).vectors
        centroids = x[rng.choice(len(x), size=7, replace=False)]
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(_assign(x, centroids), np.argmin(d2, axis=1))

    def test_inertia_never_rises(self, monkeypatch):
        # One session pool shaped like the large-pool benchmark's (15,696
        # rows, D = 16, k = 100), watched through the loop's own assignment
        # calls: call 0 follows the k-means++ init, call t follows Lloyd step t.
        world = WorldConfig(num_sessions=1, classes_per_session=100, dim=16,
                            pool_per_class=400, test_per_class=1, separation=3.0,
                            imbalance_ratio=10.0, sigma=0.2, seed=1)
        store, plan = generate(world)
        pool = store.subset(plan.sessions[0].pool_ids)
        inertias = []

        def recording_assign(x, centroids):
            assign = _assign(x, centroids)
            inertias.append(_inertia(x, centroids, assign))
            return assign

        monkeypatch.setattr(kmeans_module, "_assign", recording_assign)
        result = kmeans(pool, 100, seed=1)
        steps = inertias[: result.iterations_run + 1]
        assert len(steps) == result.iterations_run + 1 > 2
        rises = [t for t in range(1, len(steps)) if steps[t] > steps[t - 1] + 1e-9]
        assert rises == [], f"Lloyd inertia rose at steps {rises}"


class TestEmptyClusterRepair:
    def test_duplicate_heavy_input_keeps_k_clusters(self):
        # 2 distinct locations but k=3: at least one init centroid duplicates,
        # leaving an empty cluster for the repair step to fill.
        vectors = [[1.0, 0.0]] * 5 + [[0.0, 1.0]] * 5
        store = unit_store(vectors)
        result = kmeans(store, 3, seed=0)
        assert all(s >= 1 for s in result.sizes())
        assert sum(result.sizes()) == 10

    def test_many_duplicates_many_clusters(self):
        vectors = [[1.0, 0.0]] * 8 + [[0.0, 1.0]] * 2
        store = unit_store(vectors)
        for seed in range(5):
            result = kmeans(store, 4, seed=seed)
            assert all(s >= 1 for s in result.sizes())


class TestClusterMembers:
    def test_sorted_ids(self):
        store = unit_store(np.eye(3), ids=[30, 10, 20])
        result = kmeans(store, 1, seed=0)
        assert cluster_members(result, 0) == [10, 20, 30]

    def test_bad_cluster_index(self):
        store = unit_store(np.eye(3))
        result = kmeans(store, 2, seed=0)
        with pytest.raises(IndexOutOfRange):
            cluster_members(result, 2)

    def test_clustering_is_a_dataclass(self):
        store = unit_store(np.eye(2))
        result = kmeans(store, 2, seed=0)
        assert isinstance(result, Clustering)
        assert result.k == 2
