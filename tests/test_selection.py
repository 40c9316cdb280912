import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbsel import selection as selection_module
from cbsel.datagen import WorldConfig, generate
from cbsel.errors import BudgetExceedsPool, KTooLarge
from cbsel.features import FeatureStore
from cbsel.gaussian import VAR_FLOOR, kl_divergence
from cbsel.kmeans import kmeans
from cbsel.seeding import derive_seed
from cbsel.selection import (
    allocate_budget,
    cbs_select,
    greedy_select_cluster,
    greedy_select_clusters,
)
from reference_impls import (
    CombinatorialGuard,
    MomentAccumulator,
    brute_force_select,
    cluster_members,
    estimate,
    kl_divergence_batch,
    loop_cbs_select,
    loop_greedy_select_clusters,
)

# KL from the cluster of 1-D points {0, 1, 2} to the subset {0, 2}:
# 0.5 * (2/3 + ln(3/2) - 1), worked out from the closed form.
THREE_POINT_OPTIMUM = 0.0360658873874155


def store_1d(values, ids=None):
    return FeatureStore(np.asarray(values, dtype=np.float64)[:, None], ids=ids)


def assert_greedy_steps(members, picked, var_floor=VAR_FLOOR):
    """Replay a greedy pick order with the two-pass estimator: the first pick
    is a member nearest the mean, and every later pick's KL is at most each
    remaining candidate's KL + 1e-9."""
    ids, x = members.ids.tolist(), members.vectors
    ref = estimate(x, var_floor)
    d2 = np.einsum("ij,ij->i", x - ref.mean, x - ref.mean)
    assert d2[ids.index(picked[0])] == d2.min(), "first pick is off-centre"

    def kl_with(chosen, i):
        return float(kl_divergence(ref, estimate(members.vectors_for(chosen + [i]), var_floor))[0])

    for step in range(1, len(picked)):
        chosen = picked[:step]
        picked_kl = kl_with(chosen, picked[step])
        for i in set(ids) - set(chosen):
            assert picked_kl <= kl_with(chosen, i) + 1e-9, f"step {step} passed over id {i}"


# The smallest float32 subnormal: the floor the greedy's float32 scores see
# for a var_floor of 1e-45. A candidate with zero variance along an axis then
# has a variance ratio far beyond float32's range, so its KL overflows to
# +inf, where 1e-320, which float32 rounds to 0, would make it NaN.
SUBNORMAL_FLOOR = 1e-45


def record_scores(monkeypatch):
    """The scores each greedy step hands to `_first_minima`, one copy per
    step, step 0's being the squared distances to the cluster means."""
    seen = []
    first_minima = selection_module._first_minima

    def recording(values, starts, seg):
        seen.append(values.copy())
        return first_minima(values, starts, seg)

    monkeypatch.setattr(selection_module, "_first_minima", recording)
    return seen


def reference_greedy(members, k, var_floor=VAR_FLOOR):
    """The greedy step as a gather of the open rows and kl_divergence_batch
    on them, in float32 from float64 reference moments, as the program
    scores; greedy_select_cluster must pick exactly what it picks."""
    ids, x = members.ids, members.vectors.astype(np.float32)
    ref = estimate(members.vectors, var_floor)
    ref_mean = ref.mean.astype(np.float32)
    d2 = np.einsum("ij,ij->i", x - ref_mean, x - ref_mean)
    first = int(np.argmin(d2))
    picked = [first]
    acc = MomentAccumulator(members.dim, np.float32).push(x[first])
    remaining = np.ones(len(members), dtype=bool)
    remaining[first] = False
    while len(picked) < k:
        cand_rows = np.where(remaining)[0]
        xc = x[cand_rows]
        n1 = acc.n + 1
        mean = (acc.sum[None, :] + xc) / n1
        var = np.maximum((acc.sumsq[None, :] + xc * xc) / n1 - mean * mean,
                         np.float32(var_floor))
        kl = kl_divergence_batch(ref, mean, var)
        chosen = int(cand_rows[np.argmin(kl)])
        picked.append(chosen)
        acc.push(x[chosen])
        remaining[chosen] = False
    return [int(ids[i]) for i in picked]


class TestAllocateBudget:
    def test_proportional_ceiling(self):
        per = allocate_budget([37, 263], 100)
        assert per == (13, 88)
        assert sum(per) == 101

    def test_clamps_to_cluster_size(self):
        assert allocate_budget([2, 8], 9) == (2, 8)

    def test_singletons(self):
        assert allocate_budget([1, 1], 2) == (1, 1)

    def test_every_cluster_gets_at_least_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            sizes = rng.integers(1, 40, size=rng.integers(1, 8)).tolist()
            budget = int(rng.integers(1, sum(sizes) + 1))
            per = allocate_budget(sizes, budget)
            assert all(k >= 1 for k in per)
            assert all(k <= m for k, m in zip(per, sizes))
            assert sum(per) >= budget

    def test_budget_exceeds_pool(self):
        with pytest.raises(BudgetExceedsPool, match="^budget 7 exceeds pool size 6$"):
            allocate_budget([3, 3], 7)

    def test_rejects_empty_cluster(self):
        with pytest.raises(ValueError):
            allocate_budget([0, 5], 2)

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError, match="^budget must be >= 1$"):
            allocate_budget([5], 0)


class TestGreedySelect:
    def test_first_pick_is_mean_closest(self):
        s = math.sqrt(0.5)
        members = FeatureStore(np.array([[1.0, 0.0], [0.0, 1.0], [s, s]]))
        assert greedy_select_cluster(members, 1) == [2]

    def test_first_pick_tie_breaks_to_lowest_id(self):
        members = store_1d([1.0, 0.0], ids=[9, 5])
        assert greedy_select_cluster(members, 1) == [5]

    def test_three_point_trace(self):
        # Mean-closest first (value 1), then both remaining candidates give
        # symmetric distributions with equal divergence, so the lowest id wins.
        members = store_1d([0.0, 1.0, 2.0])
        assert greedy_select_cluster(members, 2) == [1, 0]

    def test_k_equals_m_selects_everything(self):
        rng = np.random.default_rng(3)
        members = FeatureStore(rng.standard_normal((6, 3)))
        picked = greedy_select_cluster(members, 6)
        assert sorted(picked) == [0, 1, 2, 3, 4, 5]

    def test_replayed_steps_are_best_two_pass_picks(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            m = int(rng.integers(4, 30))
            members = FeatureStore(rng.standard_normal((m, 3)))
            k = int(rng.integers(1, m + 1))
            picked = greedy_select_cluster(members, k)
            assert len(picked) == len(set(picked)) == k
            assert_greedy_steps(members, picked)

    def test_replay_rejects_a_non_greedy_order(self):
        # The member at the mean (2) goes first; {2, 0} matches the cluster
        # far better than {2, 1}.
        members = store_1d([0.0, 1.0, 2.0, 3.0, 4.0])
        assert_greedy_steps(members, [2, 0])
        with pytest.raises(AssertionError, match="first pick"):
            assert_greedy_steps(members, [1, 0])
        with pytest.raises(AssertionError, match="step 1"):
            assert_greedy_steps(members, [2, 1])

    def test_every_large_pool_cluster_picks_like_the_reference(self, large_pool):
        # The clusters and per-cluster budgets cbs_select gives the
        # benchmark-sized pool at budget 3,000.
        clustering = kmeans(large_pool, 100, derive_seed(1, "kmeans"))
        for j, k in enumerate(allocate_budget(clustering.sizes(), 3000)):
            members = large_pool.subset(cluster_members(large_pool, clustering, j))
            assert greedy_select_cluster(members, k) == reference_greedy(members, k)

    def test_random_clusters_pick_like_the_reference(self):
        rng = np.random.default_rng(17)
        shapes = [(1, 1), (1, 4), (7, 1)] + [
            (int(rng.integers(1, 60)), int(rng.choice([1, 2, 5, 16]))) for _ in range(197)]
        for case, (m, d) in enumerate(shapes):
            x = rng.standard_normal((m, d))
            if case % 3 == 0 and m > 2:
                # Duplicate rows: exact ties between candidates.
                x[rng.integers(0, m, m // 2)] = x[rng.integers(0, m, m // 2)]
            elif case % 3 == 1:
                # A row at the centre, then rows in mirrored pairs about it:
                # each pair ties in real arithmetic, so rounding orders it.
                half = x[1: 1 + (m - 1) // 2]
                x[1 + (m - 1) // 2: m - (m - 1) % 2] = 2 * x[0] - half
            members = FeatureStore(x, ids=rng.permutation(10 * m)[:m])
            k = m if case % 4 == 0 else int(rng.integers(1, m + 1))
            assert greedy_select_cluster(members, k) == reference_greedy(members, k), case

    def test_candidates_all_at_infinity_take_the_lowest_open_id(self, monkeypatch):
        # With a var_floor this small, both candidates' KL overflows to +inf:
        # each has zero variance with the first pick (id 0) along one axis.
        members = FeatureStore(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
        seen = record_scores(monkeypatch)
        with np.errstate(over="ignore"):
            assert greedy_select_cluster(members, 2, var_floor=SUBNORMAL_FLOOR) == [0, 1]
            assert reference_greedy(members, 2, var_floor=SUBNORMAL_FLOOR) == [0, 1]
        assert len(seen) == 2 and np.isposinf(seen[1]).all()

    def test_k_out_of_range(self):
        members = store_1d([0.0, 1.0])
        with pytest.raises(KTooLarge):
            greedy_select_cluster(members, 0)
        with pytest.raises(KTooLarge):
            greedy_select_cluster(members, 3)


class TestBruteForce:
    def test_three_point_optimum(self):
        members = store_1d([0.0, 1.0, 2.0])
        ids, kl = brute_force_select(members, 2)
        assert ids == [0, 2]
        assert abs(kl - THREE_POINT_OPTIMUM) < 1e-12

    def test_never_worse_than_greedy(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            m = int(rng.integers(4, 9))
            members = FeatureStore(rng.standard_normal((m, 2)))
            k = int(rng.integers(1, 5))
            k = min(k, m)
            greedy_ids = greedy_select_cluster(members, k)
            _, best_kl = brute_force_select(members, k)
            ref = estimate(members.vectors)
            greedy_kl = float(kl_divergence(ref, estimate(members.vectors_for(greedy_ids)))[0])
            assert best_kl <= greedy_kl + 1e-12

    def test_full_subset_is_zero(self):
        members = store_1d([0.0, 1.0, 2.0])
        ids, kl = brute_force_select(members, 3)
        assert ids == [0, 1, 2]
        assert kl == 0.0

    def test_guard(self):
        rng = np.random.default_rng(0)
        members = FeatureStore(rng.standard_normal((30, 2)))
        with pytest.raises(CombinatorialGuard):
            brute_force_select(members, 15)


class TestCbsSelect:
    def blob_store(self, seed=0, per_blob=40):
        rng = np.random.default_rng(seed)
        centers = np.array([[1.0, 0.0], [0.0, 1.0]])
        blocks = [c + 0.05 * rng.standard_normal((per_blob, 2)) for c in centers]
        v = np.vstack(blocks)
        v = v / np.linalg.norm(v, axis=1)[:, None]
        return FeatureStore(v, normalized=True)

    def test_exact_budget(self):
        store = self.blob_store()
        for budget in (1, 7, 33, 80):
            sel = cbs_select(store, num_classes=2, budget=budget, seed=5)
            assert len(sel.ids) == budget
            assert len(set(sel.ids)) == budget
            assert set(sel.ids) <= set(int(i) for i in store.ids)

    def test_discard_accounting(self):
        store = self.blob_store()
        sel = cbs_select(store, num_classes=2, budget=33, seed=5)
        allocated = sum(len(c) for c in sel.per_cluster_ids)
        assert allocated >= 33
        assert len(sel.discarded) == allocated - 33
        assembled = {i for cluster in sel.per_cluster_ids for i in cluster}
        assert set(sel.ids) | set(sel.discarded) == assembled
        assert set(sel.ids) & set(sel.discarded) == set()

    def test_deterministic(self):
        store = self.blob_store()
        a = cbs_select(store, num_classes=2, budget=21, seed=9)
        b = cbs_select(store, num_classes=2, budget=21, seed=9)
        assert a.ids == b.ids
        assert a.per_cluster_ids == b.per_cluster_ids
        assert a.discarded == b.discarded

    def test_per_cluster_counts_follow_the_plan(self):
        store = self.blob_store(per_blob=50)
        sel = cbs_select(store, num_classes=2, budget=30, seed=2)
        sizes = sorted(len(c) for c in sel.per_cluster_ids)
        # two equal blobs of 50: ceil(50 * 30 / 100) = 15 each
        assert sizes == [15, 15]

    def test_budget_exceeds_pool(self):
        store = self.blob_store(per_blob=10)
        with pytest.raises(BudgetExceedsPool):
            cbs_select(store, num_classes=2, budget=21, seed=0)

    def test_leaves_the_store_vectors_alone(self, large_pool):
        # k-means and the greedy score float32 copies; the store keeps its
        # float64 rows, bit for bit.
        before = large_pool.vectors.copy()
        cbs_select(large_pool, 100, 3000, seed=1)
        assert large_pool.vectors.dtype == np.float64
        np.testing.assert_array_equal(large_pool.vectors.view(np.uint64), before.view(np.uint64))

    @pytest.mark.parametrize("budget", [0, -3])
    def test_rejects_a_budget_below_one_before_clustering(self, budget, monkeypatch):
        def no_kmeans(*args, **kwargs):
            raise AssertionError("kmeans ran before the budget check")

        monkeypatch.setattr(selection_module, "kmeans", no_kmeans)
        with pytest.raises(ValueError, match=r"^budget must be >= 1$"):
            cbs_select(self.blob_store(), num_classes=2, budget=budget, seed=0)


def assert_same_selection(got, want):
    assert got.per_cluster_ids == want.per_cluster_ids
    assert got.ids == want.ids
    assert got.discarded == want.discarded


def clustered_store(sizes, dim, seed, grid=None):
    """A store whose rows are dealt to clusters of the given sizes in a
    shuffled order, with ids in ascending row order; `grid` draws every
    value from that many integers, so rows repeat and candidates tie."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    x = (rng.integers(0, grid, (n, dim)).astype(float) if grid
         else rng.standard_normal((n, dim)))
    assignments = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    ids = np.sort(rng.choice(10 * n, size=n, replace=False))
    return FeatureStore(x, ids=ids), assignments


class TestAllClustersAtOnce:
    """greedy_select_clusters and cbs_select against the per-cluster loop,
    pick for pick and in pick order."""

    def test_large_pool(self, large_pool):
        assert_same_selection(cbs_select(large_pool, 100, 3000, seed=1),
                              loop_cbs_select(large_pool, 100, 3000, seed=1))

    @pytest.mark.parametrize("seed", [1, 20, 33])
    def test_quality_worlds(self, seed):
        store, plan = generate(WorldConfig(
            num_sessions=5, classes_per_session=20, dim=16, pool_per_class=30,
            test_per_class=10, separation=3.0, imbalance_ratio=10.0, sigma=0.2,
            budget=100, seed=seed))
        for t, session in enumerate(plan.sessions):
            pool = store.subset(session.pool_ids)
            assert_same_selection(cbs_select(pool, 20, 100, seed=t),
                                  loop_cbs_select(pool, 20, 100, seed=t))

    @pytest.mark.parametrize("picks", ["singletons", "all", "one"])
    def test_corner_budgets(self, picks):
        sizes = [1, 7, 1, 12, 3, 1, 20]
        store, assignments = clustered_store(sizes, 3, seed=4)
        per_cluster = {"singletons": [1, 4, 1, 6, 2, 1, 9], "all": sizes,
                       "one": [1] * len(sizes)}[picks]
        got = greedy_select_clusters(store, assignments, per_cluster)
        assert got == loop_greedy_select_clusters(store, assignments, per_cluster)
        assert [len(c) for c in got] == per_cluster

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate_rows_tie_to_the_lowest_id(self, seed):
        sizes = [9, 25, 4, 16]
        store, assignments = clustered_store(sizes, 2, seed=seed, grid=3)
        per_cluster = [5, 25, 2, 9]
        assert greedy_select_clusters(store, assignments, per_cluster) == \
            loop_greedy_select_clusters(store, assignments, per_cluster)

    def test_one_cluster_falls_back_while_the_others_stay_finite(self, monkeypatch):
        # Cluster 1 is the three-row corner whose candidates' KL overflows at
        # this var_floor; clusters 0 and 2 differ in every coordinate, so
        # their scores stay finite while cluster 1 takes its first open row.
        rng = np.random.default_rng(9)
        corner = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        x = np.vstack([rng.uniform(2.0, 3.0, (6, 2)), corner, rng.uniform(-3.0, -2.0, (8, 2))])
        assignments = np.repeat([0, 1, 2], [6, 3, 8])
        store = FeatureStore(x)
        per_cluster = [4, 2, 5]
        seen = record_scores(monkeypatch)
        with np.errstate(over="ignore"):
            got = greedy_select_clusters(store, assignments, per_cluster, var_floor=SUBNORMAL_FLOOR)
            want = loop_greedy_select_clusters(store, assignments, per_cluster,
                                               var_floor=SUBNORMAL_FLOOR)
        assert got == want
        assert got[1] == [6, 7]
        # Step 1 scores the rows by rank: cluster 2 (5 picks), cluster 0 (4),
        # then the corner (2). Only the two picked rows before it are +inf.
        step1 = seen[1]
        assert np.isposinf(step1[14:]).all()
        assert np.count_nonzero(np.isfinite(step1[:14])) == 12

    def test_a_nan_score_is_picked_as_argmin_picks_it(self, monkeypatch):
        # In cluster 0 (rows 0-3, D = 1) the duplicate of the first pick has
        # variance 0, floored to 1e-320, which is 0 in float32; its ratio to
        # the cluster's variance is 0, and inf - inf makes its KL NaN.
        # np.argmin takes the first NaN, so the loop picks it over the finite
        # row 0.
        store = FeatureStore(np.array([[0.0], [500.0], [1000.0], [500.0], [3.0], [4.0], [6.0]]))
        assignments = np.array([0, 0, 0, 0, 1, 1, 1])
        seen = record_scores(monkeypatch)
        with np.errstate(all="ignore"):
            got = greedy_select_clusters(store, assignments, [2, 3], var_floor=1e-320)
            assert got == loop_greedy_select_clusters(store, assignments, [2, 3], var_floor=1e-320)
        assert got[0] == [1, 3]
        # Step 1 scores cluster 1 (3 picks) first, then cluster 0: row 0 is
        # finite and row 3 is NaN.
        assert np.isfinite(seen[1][3]) and np.isnan(seen[1][6])

    def test_k_out_of_range_names_the_cluster(self):
        store, assignments = clustered_store([3, 2], 2, seed=0)
        with pytest.raises(KTooLarge, match="cluster 1"):
            greedy_select_clusters(store, assignments, [1, 3])

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_pools(self, data):
        sizes = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=6), label="sizes")
        dim = data.draw(st.sampled_from([1, 2, 3, 5]), label="dim")
        grid = data.draw(st.sampled_from([None, 2, 4]), label="grid")
        store, assignments = clustered_store(sizes, dim, data.draw(st.integers(0, 2**32 - 1)), grid)
        per_cluster = [data.draw(st.integers(1, m)) for m in sizes]
        assert greedy_select_clusters(store, assignments, per_cluster) == \
            loop_greedy_select_clusters(store, assignments, per_cluster)
