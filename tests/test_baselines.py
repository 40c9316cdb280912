import math

import numpy as np
import pytest

from cbsel.baselines import (
    balanced_random_select,
    coreset_select,
    entropy_select,
    margin_select,
    random_select,
)
from cbsel.errors import BudgetExceedsPool, DegenerateClassifier
from cbsel.features import FeatureStore, hidden_labels
from cbsel.learner import PrototypeClassifier, predict_proba_matrix

# Shannon entropies (natural log) of the three hand-built distributions.
H_UNIFORM = 0.6931471805599453   # (0.5, 0.5)
H_PEAKED = 0.3250829733914482    # (0.9, 0.1)
H_LEANING = 0.6730116670092565   # (0.6, 0.4)


def predict_proba(clf, f):
    """Class probabilities of one feature vector."""
    return predict_proba_matrix(clf, f[None, :])[0]


def two_class_clf(temperature=0.07):
    return PrototypeClassifier(
        embeddings={0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])},
        temperature=temperature,
        classes_seen=(0, 1),
    )


def feature_with_top_prob(p_top, temperature):
    """Unit vector whose two-class cosine softmax gives (p_top, 1 - p_top)
    against orthogonal axis prototypes."""
    gap = temperature * math.log(p_top / (1.0 - p_top))
    t = math.acos(gap / math.sqrt(2.0)) - math.pi / 4.0
    return np.array([math.cos(t), math.sin(t)])


class TestRandomSelect:
    def pool(self, n=30):
        rng = np.random.default_rng(0)
        return FeatureStore(rng.standard_normal((n, 3)))

    def test_whole_pool(self):
        sel = random_select(self.pool(), 30, seed=1)
        assert sorted(sel.ids) == list(range(30))

    def test_deterministic(self):
        assert random_select(self.pool(), 10, seed=4).ids == random_select(self.pool(), 10, seed=4).ids

    def test_unique_and_valid(self):
        sel = random_select(self.pool(), 12, seed=2)
        assert len(sel.ids) == len(set(sel.ids)) == 12

    def test_budget_exceeds_pool(self):
        with pytest.raises(BudgetExceedsPool):
            random_select(self.pool(), 31, seed=0)

    def test_per_class_counts_are_unbiased(self):
        # 5 balanced classes of 100; B=100 draws should average 20 per class.
        labels = np.repeat(np.arange(5), 100)
        rng = np.random.default_rng(3)
        store = FeatureStore(rng.standard_normal((500, 2)), labels=labels)
        label_of = hidden_labels(store, "metrics")
        totals = np.zeros(5)
        n_seeds = 1000
        for seed in range(n_seeds):
            sel = random_select(store, 100, seed=seed)
            for i in sel.ids:
                totals[label_of[i]] += 1
        means = totals / n_seeds
        np.testing.assert_allclose(means, 20.0, atol=1.0)


class TestBalancedRandomSelect:
    def labeled_pool(self, members_per_class, dim=2, seed=0):
        labels = [c for c, m in enumerate(members_per_class) for _ in range(m)]
        rng = np.random.default_rng(seed)
        return FeatureStore(rng.standard_normal((len(labels), dim)), labels=labels)

    def oracle(self, store):
        return hidden_labels(store, "oracle")

    def counts(self, store, sel):
        label_of = hidden_labels(store, "metrics")
        out: dict[int, int] = {}
        for i in sel.ids:
            out[label_of[i]] = out.get(label_of[i], 0) + 1
        return out

    def test_exact_quota(self):
        store = self.labeled_pool([10] * 20)
        sel = balanced_random_select(store, 100, seed=1, oracle=self.oracle(store))
        assert self.counts(store, sel) == {c: 5 for c in range(20)}

    def test_remainder_goes_to_lowest_class_ids(self):
        store = self.labeled_pool([10] * 20)
        sel = balanced_random_select(store, 21, seed=1, oracle=self.oracle(store))
        counts = self.counts(store, sel)
        assert counts[0] == 2
        assert all(counts[c] == 1 for c in range(1, 20))

    def test_small_class_shortfall_is_refilled(self):
        store = self.labeled_pool([3, 10, 10, 10, 10])
        sel = balanced_random_select(store, 25, seed=7, oracle=self.oracle(store))
        counts = self.counts(store, sel)
        assert len(sel.ids) == 25
        assert counts[0] == 3
        assert sum(counts.values()) == 25
        assert all(counts[c] >= 5 for c in range(1, 5))

    def test_counts_differ_by_at_most_one_when_classes_are_large(self):
        store = self.labeled_pool([50] * 7)
        sel = balanced_random_select(store, 33, seed=2, oracle=self.oracle(store))
        counts = self.counts(store, sel)
        assert max(counts.values()) - min(counts.values()) <= 1


class TestUncertaintySelect:
    def test_hand_built_probabilities(self):
        tau = 0.07
        clf = two_class_clf(tau)
        f_uniform = feature_with_top_prob(0.5, tau)
        f_peaked = feature_with_top_prob(0.9, tau)
        f_leaning = feature_with_top_prob(0.6, tau)
        np.testing.assert_allclose(predict_proba(clf, f_uniform), [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(predict_proba(clf, f_peaked), [0.9, 0.1], atol=1e-9)
        np.testing.assert_allclose(predict_proba(clf, f_leaning), [0.6, 0.4], atol=1e-9)

        store = FeatureStore(np.stack([f_uniform, f_peaked, f_leaning]))
        sel = entropy_select(store, 2, clf)
        assert sel.ids == [0, 2]
        sel = margin_select(store, 2, clf)
        assert sel.ids == [0, 2]

    def test_frozen_entropy_values(self):
        for p, want in ((0.5, H_UNIFORM), (0.9, H_PEAKED), (0.6, H_LEANING)):
            h = -(p * math.log(p) + (1 - p) * math.log(1 - p))
            assert abs(h - want) < 1e-12

    def test_identical_samples_tie_break_by_id(self):
        clf = two_class_clf()
        f = feature_with_top_prob(0.7, clf.temperature)
        store = FeatureStore(np.tile(f, (4, 1)))
        assert entropy_select(store, 2, clf).ids == [0, 1]
        assert margin_select(store, 2, clf).ids == [0, 1]

    def test_degenerate_classifier(self):
        clf = PrototypeClassifier(
            embeddings={0: np.array([1.0, 0.0])}, temperature=0.07, classes_seen=(0,)
        )
        store = FeatureStore(np.eye(2))
        with pytest.raises(DegenerateClassifier):
            entropy_select(store, 1, clf)
        with pytest.raises(DegenerateClassifier):
            margin_select(store, 1, clf)

    def test_budget_check(self):
        clf = two_class_clf()
        store = FeatureStore(np.eye(2))
        with pytest.raises(BudgetExceedsPool):
            entropy_select(store, 3, clf)


class TestCoresetSelect:
    def line_store(self):
        return FeatureStore(np.array([[0.0], [1.0], [10.0]]))

    def test_first_pick_is_mean_closest(self):
        assert coreset_select(self.line_store(), 1, seed=0).ids == [1]

    def test_then_takes_the_extremes(self):
        assert coreset_select(self.line_store(), 2, seed=0).ids == [1, 2]
        assert coreset_select(self.line_store(), 3, seed=0).ids == [1, 2, 0]

    def test_whole_pool(self):
        sel = coreset_select(self.line_store(), 3, seed=5)
        assert sorted(sel.ids) == [0, 1, 2]

    def test_duplicates_chosen_last(self):
        store = FeatureStore(np.array([[0.0], [0.0], [5.0], [5.0], [9.0]]))
        sel = coreset_select(store, 3, seed=0)
        assert sel.ids == [2, 0, 4]
        values = {0.0, 5.0, 9.0}
        got = {float(store.vector(i)[0]) for i in sel.ids}
        assert got == values

    def test_covering_radius_non_increasing(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((40, 3))
        store = FeatureStore(x)
        radii = []
        for budget in range(1, 41):
            sel = coreset_select(store, budget, seed=0)
            chosen = store.vectors_for(sel.ids)
            d2 = ((x[:, None, :] - chosen[None, :, :]) ** 2).sum(axis=2)
            radii.append(float(np.sqrt(d2.min(axis=1)).max()))
        assert all(a >= b - 1e-12 for a, b in zip(radii, radii[1:]))

    def test_budget_exceeds_pool(self):
        with pytest.raises(BudgetExceedsPool):
            coreset_select(self.line_store(), 4, seed=0)

