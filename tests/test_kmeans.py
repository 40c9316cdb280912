import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbsel import kmeans as kmeans_module
from cbsel.datagen import WorldConfig, generate
from cbsel.errors import KTooLarge, NotNormalized
from cbsel.features import FeatureStore
from cbsel.kmeans import (
    ASSIGN_BLOCK_ROWS,
    ASSIGN_BLOCK_ROWS_F32,
    Clustering,
    _assign,
    _dist2_to,
    _draw,
    _plus_plus_init,
    _update,
    argmin_rows,
    kmeans,
)
from reference_impls import (
    IndexOutOfRange,
    add_at_update,
    cluster_members,
    inertia,
    lloyd_kmeans,
    plain_assign,
    plus_plus_init,
)


def unit_store(vectors, ids=None):
    v = np.asarray(vectors, dtype=np.float64)
    v = v / np.linalg.norm(v, axis=1)[:, None]
    return FeatureStore(v, ids=ids, normalized=True)


def blob_store(centers, per_blob=30, sigma=0.02, seed=0):
    rng = np.random.default_rng(seed)
    blocks = [c + sigma * rng.standard_normal((per_blob, len(c))) for c in np.asarray(centers)]
    return unit_store(np.vstack(blocks))


def quality_pools():
    """The five session pools of a world shaped like the quality sweep's."""
    world = WorldConfig(num_sessions=5, classes_per_session=20, dim=16,
                        pool_per_class=30, test_per_class=10, separation=3.0,
                        imbalance_ratio=10.0, sigma=0.2, budget=100, seed=0)
    store, plan = generate(world)
    return [store.subset(spec.pool_ids) for spec in plan.sessions]


def assert_same_clustering(got, want):
    np.testing.assert_array_equal(got.assignments, want.assignments)
    np.testing.assert_array_equal(got.centroids, want.centroids)
    assert got.iterations_run == want.iterations_run


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
        assert inertia(store.vectors, result.centroids, result.assignments) == 0.0

    def test_assignments_shape_and_range(self):
        store = blob_store([[1.0, 0.0], [0.0, 1.0]], per_blob=10)
        result = kmeans(store, 2, seed=1)
        assert result.assignments.shape == (20,)
        assert set(result.assignments.tolist()) <= {0, 1}
        assert sum(result.sizes()) == 20

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


class TestSeparatedBlobs:
    def test_recovers_the_partition(self):
        centers = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        store = blob_store(centers, per_blob=30, sigma=0.02, seed=7)
        result = kmeans(store, 3, seed=13)
        got = {frozenset(cluster_members(store, result, j)) for j in range(3)}
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

    def test_update_with_one_dimension(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 1))
        assign = rng.integers(0, 4, size=50)
        old = rng.standard_normal((4, 1))
        np.testing.assert_array_equal(_update(x, assign, old, 4),
                                      add_at_update(x, assign, old, 4))

    def test_update_overwrites_a_used_bins_buffer(self):
        # kmeans hands every step the same buffer, still holding the bins of
        # the step before.
        rng = np.random.default_rng(5)
        x = rng.standard_normal((60, 3))
        old = rng.standard_normal((4, 3))
        bins = np.full(x.shape, 7, dtype=np.int64)
        for _ in range(3):
            assign = rng.integers(0, 4, size=60)
            np.testing.assert_array_equal(_update(x, assign, old, 4, bins),
                                          add_at_update(x, assign, old, 4))

    def test_update_keeps_trailing_empty_clusters(self):
        # k exceeds assign.max() + 1, so the sums need bincount's minlength.
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 5))
        assign = rng.integers(0, 3, size=40)
        old = rng.standard_normal((6, 5))
        out = _update(x, assign, old, 6)
        np.testing.assert_array_equal(out, add_at_update(x, assign, old, 6))
        np.testing.assert_array_equal(out[3:], old[3:])

    def test_assign_breaks_ties_toward_the_lower_centroid(self):
        x = unit_store([[1.0, 0.1], [0.1, 1.0], [0.9, 1.0]]).vectors
        twin = unit_store([[0.0, 1.0]]).vectors[0]
        centroids = np.stack([unit_store([[1.0, 0.0]]).vectors[0], twin, twin])
        np.testing.assert_array_equal(_assign(x, centroids), [0, 1, 1])

    @pytest.mark.parametrize("n", [1023, 1024, 2047, 2048, 2049, 15696])
    @pytest.mark.parametrize("d", [16, 64])
    @pytest.mark.parametrize("k", [2, 100])
    def test_blocked_assign_matches_the_reference_bit_for_bit(self, n, d, k):
        # One block below 2,048 rows, two or more above. Each centroid has a
        # twin one ulp away in every coordinate, so every row's choice within
        # its nearest pair rests on the last bits of the two scores.
        rng = np.random.default_rng([n, d, k])
        x = unit_store(rng.standard_normal((n, d))).vectors
        half = x[rng.choice(n, size=k // 2, replace=False)]
        centroids = np.vstack([half, np.nextafter(half, np.inf)])
        np.testing.assert_array_equal(_assign(x, centroids), plain_assign(x, centroids))

    def test_float32_blocks_start_at_multiples_of_768_rows(self):
        # OpenBLAS's Haswell and Zen sgemm keep a row's bits only then (see
        # argmin_rows); other kernels pass the bit tests at other sizes.
        assert ASSIGN_BLOCK_ROWS_F32 % 768 == 0

    @pytest.mark.parametrize("n", [1023, 1024, 1025, 1535, 1536, 1537, 2047, 2048, 2049,
                                   3071, 3072, 3073, 15696])
    @pytest.mark.parametrize("d", [16, 64])
    @pytest.mark.parametrize("k", [2, 100])
    def test_float32_assign_matches_the_unblocked_float32_product(self, n, d, k):
        # The rows k-means scores: float32, against float64 centroids that
        # _assign casts. Pools on both sides of the float64 and the float32
        # block boundaries; each centroid has a twin one float32 ulp away in
        # every coordinate.
        rng = np.random.default_rng([n, d, k, 32])
        x = unit_store(rng.standard_normal((n, d))).vectors.astype(np.float32)
        half = x[rng.choice(n, size=k // 2, replace=False)]
        centroids = np.vstack([half, np.nextafter(half, np.float32(np.inf))]).astype(np.float64)
        np.testing.assert_array_equal(_assign(x, centroids), plain_assign(x, centroids))

    @pytest.mark.parametrize("n", [1023, 1024, 1025, 1535, 1536, 1537, 2047, 2048, 2049,
                                   3071, 3072, 3073, 5000])
    def test_float32_argmin_rows_matches_the_unblocked_float32_argmin(self, n):
        # Columns come in pairs, exact twins or twins whose float32 biases are
        # one ulp apart, and the scores stay float32 throughout.
        rng = np.random.default_rng([n, 32])
        x = rng.standard_normal((n, 16)).astype(np.float32)
        w = np.repeat(rng.standard_normal((16, 50)), 2, axis=1).astype(np.float32)
        bias = np.repeat(rng.standard_normal(50), 2).astype(np.float32)
        bias[1::4] = np.nextafter(bias[1::4], np.float32(-np.inf))
        want = np.argmin(x @ w + bias, axis=1)
        np.testing.assert_array_equal(argmin_rows(x, w, bias), want)
        np.testing.assert_array_equal(argmin_rows(x, w), np.argmin(x @ w, axis=1))

    @pytest.mark.parametrize("n", [1023, 2049, 5000])
    def test_argmin_rows_matches_the_unblocked_argmin(self, n):
        # Every column has an exact twin, so every row ties and must take the
        # lower column of its pair in every block.
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 12))
        w = np.repeat(rng.standard_normal((12, 7)), 2, axis=1)
        bias = np.repeat(rng.standard_normal(7), 2)
        got = argmin_rows(x, w)
        np.testing.assert_array_equal(got, np.argmin(x @ w, axis=1))
        assert (got % 2 == 0).all()
        np.testing.assert_array_equal(argmin_rows(x, w, bias), np.argmin(x @ w + bias, axis=1))

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 1023, 2047, 2048, 2111, 3000])
    def test_argmin_rows_bias_matches_the_unblocked_argmin(self, n):
        # Pools of 2,048 rows or more add the bias tile by tile. Columns come
        # in pairs, exact twins or twins whose biases are one ulp apart, so
        # every choice within a pair rests on the last bits of the sum.
        rng = np.random.default_rng([n, 3])
        x = rng.standard_normal((n, 16))
        w = np.repeat(rng.standard_normal((16, 50)), 2, axis=1)
        bias = np.repeat(rng.standard_normal(50), 2)
        bias[1::4] = np.nextafter(bias[1::4], -np.inf)
        np.testing.assert_array_equal(argmin_rows(x, w, bias), np.argmin(x @ w + bias, axis=1))

    def test_loop_matches_the_reference_step_bit_for_bit(self, large_pool):
        # The benchmark-sized pool with k = 100, then five pools shaped like
        # the quality sweep's (about 300 rows, k = 20), against the plain
        # algorithm: every seeding step measures every row, every Lloyd step
        # sums every cluster, every assignment is one unblocked product.
        cases = [(large_pool, 100, 1)] + [(pool, 20, s) for s, pool in enumerate(quality_pools())]
        for pool, k, seed in cases:
            assert_same_clustering(kmeans(pool, k, seed=seed), lloyd_kmeans(pool, k, seed=seed))

    def test_stops_at_the_first_step_that_moves_no_row(self, large_pool, monkeypatch):
        # Every Lloyd step before the last moves some row; on these pools the
        # last moves none, well before the max_iter cap.
        seen = []

        def recording_assign(x, centroids):
            seen.append(_assign(x, centroids))
            return seen[-1]

        monkeypatch.setattr(kmeans_module, "_assign", recording_assign)
        cases = [(large_pool, 100, 1)] + [(pool, 20, s) for s, pool in enumerate(quality_pools())]
        for pool, k, seed in cases:
            seen.clear()
            result = kmeans(pool, k, seed=seed)
            steps = seen[: result.iterations_run + 1]
            assert result.iterations_run < 100
            assert all((a != b).any() for a, b in zip(steps[:-2], steps[1:-1]))
            np.testing.assert_array_equal(steps[-1], steps[-2])

    @pytest.mark.parametrize("max_iter", [1, 2, 5])
    def test_the_cap_is_the_only_other_stop(self, large_pool, max_iter):
        # This pool settles only after more steps than any of these caps, so
        # the cap ends the run, with the bits of the plain algorithm's.
        got = kmeans(large_pool, 100, seed=1, max_iter=max_iter)
        assert got.iterations_run == max_iter
        assert_same_clustering(got, lloyd_kmeans(large_pool, 100, seed=1, max_iter=max_iter))

    def test_inertia_never_rises(self, large_pool, monkeypatch):
        # The benchmark-sized pool with k = 100, watched through the loop's own
        # assignment calls: call 0 follows the k-means++ init, call t follows
        # Lloyd step t.
        inertias = []

        def recording_assign(x, centroids):
            assign = _assign(x, centroids)
            inertias.append(inertia(x, centroids, assign))
            return assign

        monkeypatch.setattr(kmeans_module, "_assign", recording_assign)
        result = kmeans(large_pool, 100, seed=1)
        steps = inertias[: result.iterations_run + 1]
        assert len(steps) == result.iterations_run + 1 > 2
        rises = [t for t in range(1, len(steps)) if steps[t] > steps[t - 1] + 1e-9]
        assert rises == [], f"Lloyd inertia rose at steps {rises}"


# Pools with 2 * ASSIGN_BLOCK_ROWS rows or more take the filtered seeding,
# the tiled bias add and the re-sum of changed clusters.
LARGE = 2 * ASSIGN_BLOCK_ROWS + 52


def seeding_pools():
    """(name, unit rows, k): degenerate and adversarial pools on both sides
    of the large-pool paths."""
    rng = np.random.default_rng(19)

    def unit(v):
        return unit_store(v).vectors

    angle = 2.0 * np.pi * np.arange(LARGE) / LARGE
    return [
        # One distinct row: every draw after the first takes the fallback.
        ("identical", np.tile(unit(rng.standard_normal((1, 8))), (LARGE, 1)), 6),
        ("duplicates", unit(rng.standard_normal((300, 16)))[rng.integers(0, 300, LARGE)], 100),
        ("one dimension", np.where(rng.random((LARGE, 1)) < 0.3, -1.0, 1.0), 5),
        # Evenly spaced on a circle: a row is equally far from the two rows
        # mirrored about it, so a new center often ties with the row's
        # nearest old one up to rounding, where the filter's margin must hold.
        ("circle", np.stack([np.cos(angle), np.sin(angle)], axis=1), 300),
        ("k = n", unit(rng.standard_normal((2 * ASSIGN_BLOCK_ROWS, 4))), 2 * ASSIGN_BLOCK_ROWS),
        ("small k = n", unit(rng.standard_normal((40, 3))), 40),
        ("n < 64", unit(rng.standard_normal((40, 3))), 7),
        ("D = 64", unit(rng.standard_normal((LARGE, 64))), 50),
    ]


SEEDING_POOLS = seeding_pools()
SEEDING_IDS = [name for name, _, _ in SEEDING_POOLS]


class TestSeeding:
    def test_large_pool_centers_match_the_reference(self, large_pool):
        for seed in range(3):
            np.testing.assert_array_equal(
                _plus_plus_init(large_pool.vectors, 100, np.random.default_rng(seed)),
                plus_plus_init(large_pool.vectors, 100, np.random.default_rng(seed)))

    def test_quality_pool_centers_match_the_reference(self):
        for seed, pool in enumerate(quality_pools()):
            np.testing.assert_array_equal(
                _plus_plus_init(pool.vectors, 20, np.random.default_rng(seed)),
                plus_plus_init(pool.vectors, 20, np.random.default_rng(seed)))

    @pytest.mark.parametrize("name,x,k", SEEDING_POOLS, ids=SEEDING_IDS)
    def test_centers_match_the_reference(self, name, x, k):
        for seed in range(2):
            np.testing.assert_array_equal(_plus_plus_init(x, k, np.random.default_rng(seed)),
                                          plus_plus_init(x, k, np.random.default_rng(seed)))

    @pytest.mark.parametrize("name,x,k", SEEDING_POOLS, ids=SEEDING_IDS)
    def test_kmeans_matches_the_reference(self, name, x, k):
        store = FeatureStore(x, normalized=True)
        assert_same_clustering(kmeans(store, k, seed=4), lloyd_kmeans(store, k, seed=4))

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e-3])
    @pytest.mark.parametrize("name,x,k", SEEDING_POOLS, ids=SEEDING_IDS)
    def test_every_draw_sees_the_exact_nearest_center_distances(self, name, x, k, scale,
                                                                monkeypatch):
        # The d2 behind each draw, bit for bit: the minimum over the centers
        # so far of the full-array exact distances. Rows far from unit norm
        # check that the margin scales with them.
        x = x * scale
        seen = []

        def recording_draw(d2, total, rng, cdf):
            seen.append(d2.copy())
            return _draw(d2, total, rng, cdf)

        monkeypatch.setattr(kmeans_module, "_draw", recording_draw)
        centers = _plus_plus_init(x, k, np.random.default_rng(5))
        # Draws stop at the first fallback: from there every d2 is 0.
        assert 1 <= len(seen) + 1 <= k
        nearest = np.full(len(x), np.inf)
        for c, d2 in zip(centers, seen):
            diff = x - c
            nearest = np.minimum(nearest, np.einsum("ij,ij->i", diff, diff))
            np.testing.assert_array_equal(d2, nearest)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 300), st.sampled_from([1, 2, 3, 7, 16, 17, 64]),
           st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    @example(1, 64, 0, 1.0)    # the only row, D = 64
    @example(300, 64, 1, 0.0)  # one row of many, D = 64
    def test_dist2_to_on_a_row_subset_has_the_bits_of_the_full_call(self, n, d, seed, frac):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d))
        c = rng.standard_normal(d)
        full = _dist2_to(x, c, np.empty_like(x))
        rows = np.flatnonzero(rng.random(n) < frac)
        if rows.size == 0:
            rows = rng.integers(n, size=1)
        diff = np.empty_like(x)
        np.testing.assert_array_equal(_dist2_to(x[rows], c, diff[: rows.size]), full[rows])

    @pytest.mark.parametrize("seed", range(30))
    def test_draw_takes_the_index_generator_choice_takes(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5000))
        d2 = rng.random(n) ** int(rng.integers(1, 12))
        d2[rng.random(n) < rng.random()] = 0.0
        d2[int(rng.integers(n))] = float(rng.random()) + 1e-300
        total = float(d2.sum())
        mine, numpys = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        cdf = np.empty(n)
        for _ in range(20):
            assert _draw(d2, total, mine, cdf) == int(numpys.choice(n, p=d2 / total))
        assert mine.random() == numpys.random()  # the same draws were used


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
        assert cluster_members(store, result, 0) == [10, 20, 30]

    def test_bad_cluster_index(self):
        store = unit_store(np.eye(3))
        result = kmeans(store, 2, seed=0)
        with pytest.raises(IndexOutOfRange):
            cluster_members(store, result, 2)

    def test_clustering_is_a_dataclass(self):
        store = unit_store(np.eye(2))
        result = kmeans(store, 2, seed=0)
        assert isinstance(result, Clustering)
        assert result.k == 2
