import math

import numpy as np
import pytest

from cbsel.errors import BudgetExceedsPool, CombinatorialGuard, KTooLarge
from cbsel.features import FeatureStore
from cbsel.gaussian import VAR_FLOOR, estimate, kl_divergence
from cbsel.selection import (
    allocate_budget,
    brute_force_select,
    cbs_select,
    greedy_select_cluster,
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
        return kl_divergence(ref, estimate(members.vectors_for(chosen + [i]), var_floor))

    for step in range(1, len(picked)):
        chosen = picked[:step]
        picked_kl = kl_with(chosen, picked[step])
        for i in set(ids) - set(chosen):
            assert picked_kl <= kl_with(chosen, i) + 1e-9, f"step {step} passed over id {i}"


class TestAllocateBudget:
    def test_proportional_ceiling(self):
        plan = allocate_budget([37, 263], 100)
        assert plan.per_cluster == (13, 88)
        assert plan.total_allocated == 101
        assert plan.total_budget == 100

    def test_clamps_to_cluster_size(self):
        plan = allocate_budget([2, 8], 9)
        assert plan.per_cluster == (2, 8)

    def test_singletons(self):
        assert allocate_budget([1, 1], 2).per_cluster == (1, 1)

    def test_every_cluster_gets_at_least_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            sizes = rng.integers(1, 40, size=rng.integers(1, 8)).tolist()
            budget = int(rng.integers(1, sum(sizes) + 1))
            plan = allocate_budget(sizes, budget)
            assert all(k >= 1 for k in plan.per_cluster)
            assert all(k <= m for k, m in zip(plan.per_cluster, sizes))
            assert plan.total_allocated >= budget

    def test_budget_exceeds_pool(self):
        with pytest.raises(BudgetExceedsPool):
            allocate_budget([3, 3], 7)

    def test_rejects_empty_cluster(self):
        with pytest.raises(ValueError):
            allocate_budget([0, 5], 2)

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
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
            greedy_kl = kl_divergence(ref, estimate(members.vectors_for(greedy_ids)))
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
