import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbsel.baselines import (
    LogitTable,
    SoftmaxStats,
    _top,
    balanced_random_select,
    coreset_select,
    cosine_logits,
    entropy_select,
    logit_scale,
    margin_select,
    pool_columns,
    random_select,
    softmax_stats,
    top_two,
)
from cbsel.errors import BudgetExceedsPool, DegenerateClassifier, NoClasses
from cbsel.features import FeatureStore, hidden_labels
from cbsel.kmeans import ASSIGN_BLOCK_ROWS
from cbsel.learner import PrototypeClassifier, empty_classifier
from cbsel.protocol import Oracle
from reference_impls import plain_coreset, predict_proba_matrix

# Shannon entropies (natural log) of the three hand-built distributions.
H_UNIFORM = 0.6931471805599453   # (0.5, 0.5)
H_PEAKED = 0.3250829733914482    # (0.9, 0.1)
H_LEANING = 0.6730116670092565   # (0.6, 0.4)


def predict_proba(clf, f):
    """Class probabilities of one feature vector."""
    return predict_proba_matrix(clf, f[None, :])[0]


def table_of(clf, vectors, old=None):
    """A LogitTable over `vectors` holding every class of `clf`."""
    table = LogitTable(pool_columns(vectors), clf.temperature, clf.num_classes, old)
    if clf.num_classes:
        table.update(clf.classes, clf.prototypes)
    return table


def merged_stats(clf, vectors, old):
    """`SoftmaxStats` of `clf`'s logits of `vectors` merged with `old`."""
    logits = cosine_logits(clf.prototypes, pool_columns(vectors), clf.temperature)
    return softmax_stats(tuple(clf.classes.tolist()), logits, old)


def two_class_clf(temperature=0.07):
    return PrototypeClassifier([0, 1], np.eye(2), temperature)


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
        _, label_of = hidden_labels(store, "metrics")  # ids are 0..N-1
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
        return Oracle.from_store(store)

    def counts(self, store, sel):
        _, label_of = hidden_labels(store, "metrics")  # ids are 0..N-1
        classes, counts = np.unique(label_of[sel.ids], return_counts=True)
        return dict(zip(classes.tolist(), counts.tolist()))

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
        sel = entropy_select(store, 2, table_of(clf, store.vectors))
        assert sel.ids == [0, 2]
        sel = margin_select(store, 2, table_of(clf, store.vectors))
        assert sel.ids == [0, 2]

    def test_frozen_entropy_values(self):
        for p, want in ((0.5, H_UNIFORM), (0.9, H_PEAKED), (0.6, H_LEANING)):
            h = -(p * math.log(p) + (1 - p) * math.log(1 - p))
            assert abs(h - want) < 1e-12

    def test_identical_samples_tie_break_by_id(self):
        clf = two_class_clf()
        f = feature_with_top_prob(0.7, clf.temperature)
        store = FeatureStore(np.tile(f, (4, 1)))
        assert entropy_select(store, 2, table_of(clf, store.vectors)).ids == [0, 1]
        assert margin_select(store, 2, table_of(clf, store.vectors)).ids == [0, 1]

    def test_degenerate_classifier(self):
        clf = PrototypeClassifier([0], [[1.0, 0.0]], 0.07)
        store = FeatureStore(np.eye(2))
        with pytest.raises(DegenerateClassifier):
            entropy_select(store, 1, table_of(clf, store.vectors))
        with pytest.raises(DegenerateClassifier):
            margin_select(store, 1, table_of(clf, store.vectors))

    def test_budget_check(self):
        clf = two_class_clf()
        store = FeatureStore(np.eye(2))
        with pytest.raises(BudgetExceedsPool):
            entropy_select(store, 3, table_of(clf, store.vectors))


def full_softmax_stats(logits):
    """Reference top, runner-up, z and s of the float32 class-major `logits`
    over all their classes at once, at the program's precisions: float32
    shifts, exponentials and products, float64 sums."""
    ordered = np.sort(logits, axis=0)
    top = ordered[-1]
    e = np.exp(logits - top)
    return top, ordered[-2], e.sum(axis=0, dtype=np.float64), (e * logits).sum(axis=0, dtype=np.float64)


def full_softmax_scores(logits):
    """Reference margin and entropy from the full softmax of each row."""
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    top2 = np.sort(p, axis=1)[:, -2:]
    entropy = -np.sum(np.where(p > 0.0, p * np.log(p), 0.0), axis=1)
    return top2[:, 1] - top2[:, 0], entropy


def sub_classifier(clf, classes):
    return PrototypeClassifier(classes, clf.prototypes[list(classes)], clf.temperature)


def random_clf_and_vectors(num_classes, n, dim, temperature, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((num_classes, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    clf = PrototypeClassifier(np.arange(num_classes), g, temperature)
    v = rng.standard_normal((n, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v[n // 2] = v[0]  # identical rows
    return clf, v


class TestSoftmaxStats:
    @pytest.mark.parametrize("blocks", [
        [[0, 1, 2, 3, 4, 5, 6]],
        [[0, 2, 4], [1, 3, 5, 6]],
        [[3], [0, 1, 2, 6], [4, 5]],
    ])
    @pytest.mark.parametrize("temperature", [0.07, 1.0])
    def test_merged_blocks_match_the_full_softmax(self, blocks, temperature):
        # Against the softmax over all seven classes at once of the blocks'
        # float32 logits, in float32 ulps: of the largest logit 1/T for top
        # and second, of z for z and of z/T for s, and of 1 (margin) and 1/T
        # (entropy) for the keys, which measured at most 0.11 and 0.42 ulps.
        # Merging scales a block's sums in float64 where one block shifts its
        # exponentials in float32, so they agree to ulps, not bits.
        clf, v = random_clf_and_vectors(7, 40, 8, temperature, seed=len(blocks))
        logits = np.empty((7, len(v)), dtype=np.float32)
        for block in blocks:
            logits[block] = cosine_logits(clf.prototypes[block], pool_columns(v), temperature)
        want_margin, want_entropy = full_softmax_scores(logits.T.astype(np.float64))
        stats = SoftmaxStats.of(sub_classifier(clf, blocks[0]), pool_columns(v))
        for block in blocks[1:]:
            stats = merged_stats(sub_classifier(clf, block), v, stats)
        assert stats.classes == tuple(range(7))
        unit = np.spacing(logit_scale(temperature))
        top, second, z, s = full_softmax_stats(logits)
        for got, want, ulps in ((stats.top, top, 8 * unit), (stats.second, second, 8 * unit),
                                (stats.z, z, 32 * np.spacing(z.astype(np.float32))),
                                (stats.s, s, 16 * np.spacing((z / temperature).astype(np.float32))),
                                (stats.margin(), want_margin, np.spacing(np.float32(1.0))),
                                (stats.entropy(), want_entropy, unit)):
            assert np.all(np.abs(got - want) <= ulps)
        assert stats.margin()[0] == stats.margin()[20]
        assert stats.entropy()[0] == stats.entropy()[20]

    def test_an_empty_classifier_has_no_statistics(self):
        with pytest.raises(NoClasses):
            SoftmaxStats.of(empty_classifier(), pool_columns(np.eye(2)))

    def test_one_column_block(self):
        clf, v = random_clf_and_vectors(1, 5, 3, 0.07, seed=0)
        stats = SoftmaxStats.of(clf, pool_columns(v))
        assert np.all(stats.second == -np.inf)
        assert np.all(stats.margin() == 1.0)
        assert np.all(stats.entropy() == 0.0)

    def test_old_block_and_candidate_rows_score_like_one_block(self):
        clf, v = random_clf_and_vectors(6, 30, 5, 0.07, seed=3)
        store = FeatureStore(v)
        rows = np.arange(30) % 3 != 1
        old = SoftmaxStats.of(sub_classifier(clf, (0, 1, 2, 3)), pool_columns(v))
        table = table_of(sub_classifier(clf, (4, 5)), v, old)
        sub = store.subset(store.ids[rows])
        for select in (entropy_select, margin_select):
            assert select(store, 7, table, rows).ids == select(sub, 7, table_of(clf, sub.vectors)).ids

    def test_old_block_alone_is_scoreable(self):
        clf, v = random_clf_and_vectors(3, 10, 4, 0.07, seed=4)
        store = FeatureStore(v)
        columns = pool_columns(v)
        old_only = LogitTable(columns, 0.07, 0, SoftmaxStats.of(clf, columns))
        assert margin_select(store, 4, old_only).ids == margin_select(store, 4, table_of(clf, v)).ids

    def test_classes_in_both_blocks_rejected(self):
        clf, v = random_clf_and_vectors(3, 10, 4, 0.07, seed=5)
        table = table_of(clf, v, SoftmaxStats.of(sub_classifier(clf, (1,)), pool_columns(v)))
        with pytest.raises(ValueError, match="share classes"):
            entropy_select(FeatureStore(v), 2, table)

    @pytest.mark.parametrize("second, s", [(True, False), (False, True)])
    def test_a_statistic_not_asked_for_is_left_out(self, second, s):
        clf, v = random_clf_and_vectors(5, 20, 4, 0.07, seed=6)
        old = SoftmaxStats.of(sub_classifier(clf, (0, 1)), pool_columns(v))
        full = table_of(sub_classifier(clf, (2, 3, 4)), v, old).stats()
        part = table_of(sub_classifier(clf, (2, 3, 4)), v, old).stats(second=second, s=s)
        assert (part.second is None) != second and (part.s is None) != s
        for name in ("top", "z") + (("second",) if second else ("s",)):
            np.testing.assert_array_equal(getattr(part, name), getattr(full, name))


def unit_rows(rng, n, dim):
    rows = rng.standard_normal((n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestAnyTemperature:
    @given(num_classes=st.integers(2, 6), num_old=st.integers(0, 6), n=st.integers(5, 40),
           dim=st.integers(2, 6), log10_t=st.floats(-300.0, 300.0), on_prototypes=st.booleans(),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_picks_are_unique_open_ids_with_finite_keys(
            self, num_classes, num_old, n, dim, log10_t, on_prototypes, seed, data):
        # Any temperature RunConfig accepts: finite float32 logits, finite
        # keys and no RuntimeWarning (pytest makes one an error), with rows
        # that may sit on a prototype or its opposite (cosines of +-1).
        temperature = max(10.0 ** log10_t, 1e-300)
        rng = np.random.default_rng(seed)
        prototypes = unit_rows(rng, num_classes, dim)
        rows = unit_rows(rng, n, dim)
        if on_prototypes:
            k = min(n, 2 * num_classes)
            rows[:k] = np.concatenate([prototypes, -prototypes])[:k]
        clf = PrototypeClassifier(np.arange(num_classes), prototypes, temperature)
        old_classes = tuple(range(min(num_old, num_classes)))
        new_classes = tuple(range(len(old_classes), num_classes))
        old = SoftmaxStats.of(sub_classifier(clf, old_classes), pool_columns(rows)) if old_classes else None
        table = table_of(sub_classifier(clf, new_classes), rows, old)
        assert np.isfinite(table.logits[:len(new_classes)]).all()
        open_rows = np.asarray(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        open_rows[rng.integers(n)] = True
        budget = data.draw(st.integers(1, int(open_rows.sum())))
        store = FeatureStore(rows, ids=np.arange(n) * 3 + 1)
        stats = table.stats()
        for select, key in ((margin_select, stats.margin()), (entropy_select, stats.entropy())):
            assert np.isfinite(key).all()
            ids = select(store, budget, table, open_rows).ids
            assert len(ids) == len(set(ids)) == budget
            assert set(ids) <= set(store.ids[open_rows].tolist())

    def test_cosines_just_above_one_stay_finite_at_the_floor(self):
        # This row's float32 cosines with itself and its opposite are
        # +-1.0000001, so its logits pass +-LOGIT_SCALE_CAP at T = 1e-300.
        r = np.array([0.9868491083539974, 0.1616441689047899])
        clf = PrototypeClassifier([0, 1], np.stack([r, -r]), 1e-300)
        logits = cosine_logits(clf.prototypes, pool_columns(r[None]), 1.0)
        assert logits[0, 0] > 1.0 > -1.0 > logits[1, 0]
        stats = SoftmaxStats.of(clf, pool_columns(np.stack([r, -r, r])))
        assert np.isfinite(stats.margin()).all()
        assert np.isfinite(stats.entropy()).all()


class TestEqualRows:
    # Shapes in which a BLAS product gave equal columns different bits by
    # their place in it: the first two on OpenBLAS's SkylakeX kernels, the
    # others on its Haswell and Zen ones. A one-class block is a
    # matrix-vector product, the others matrix products.
    @pytest.mark.parametrize("num_old, n, dim", [(1, 40, 64), (2, 3944, 64), (5, 100, 8), (50, 100, 16)])
    def test_equal_rows_get_equal_keys(self, num_old, n, dim):
        rng = np.random.default_rng(n)
        rows = unit_rows(rng, n, dim)
        rows[1, 0] = 0.0
        rows[1] /= np.linalg.norm(rows[1])
        rows[[n // 2, n - 1]] = rows[0]
        rows[n - 2] = rows[1]
        rows[n - 2, 0] = -0.0
        columns = pool_columns(rows)
        assert columns.copies.tolist() == [n // 2, n - 2, n - 1]
        assert columns.firsts.tolist() == [0, 1, 0]
        clf = PrototypeClassifier(np.arange(num_old + 1), unit_rows(rng, num_old + 1, dim), 0.07)
        for old_classes, new_classes in (((), tuple(range(num_old + 1))),
                                         (tuple(range(num_old)), (num_old,)),
                                         ((0,), tuple(range(1, num_old + 1)))):
            old = SoftmaxStats.of(sub_classifier(clf, old_classes), columns) if old_classes else None
            table = LogitTable(columns, clf.temperature, len(new_classes), old)
            table.update(new_classes, clf.prototypes[list(new_classes)])
            stats = table.stats()
            for key in (stats.margin(), stats.entropy()):
                assert key[0] == key[n // 2] == key[n - 1]
                assert key[1] == key[n - 2]
            store = FeatureStore(rows)
            for select in (margin_select, entropy_select):
                picked = set(select(store, n // 2, table).ids)
                assert not {n // 2, n - 1} & picked or 0 in picked
                assert n - 2 not in picked or 1 in picked

    def test_rows_with_equal_sums_are_compared_whole(self):
        rows = np.array([[0.6, 0.8], [0.8, 0.6], [0.6, 0.8], [1.0, 0.0]])
        columns = pool_columns(rows)
        assert columns.copies.tolist() == [2] and columns.firsts.tolist() == [0]
        assert len(pool_columns(rows[[0, 1, 3]]).copies) == 0


class TestLogitTable:
    def test_updates_replace_the_rows_of_their_classes(self):
        clf, v = random_clf_and_vectors(5, 30, 6, 0.07, seed=7)
        rng = np.random.default_rng(8)
        g = rng.standard_normal((5, 6))
        stale = PrototypeClassifier(np.arange(5), g / np.linalg.norm(g, axis=1, keepdims=True), 0.07)
        table = LogitTable(pool_columns(v), 0.07, 5)
        # Classes arrive out of id order and (3, 1) are set twice: the first
        # time from stale prototypes that the second update replaces.
        table.update((3, 1), stale.prototypes[[3, 1]])
        table.update((4, 0), clf.prototypes[[4, 0]])
        table.update((1, 3, 2), clf.prototypes[[1, 3, 2]])
        assert table.num_classes == 5
        want = SoftmaxStats.of(clf, pool_columns(v))
        got = table.stats()
        assert got.classes == want.classes
        np.testing.assert_array_equal(got.top, want.top)
        np.testing.assert_array_equal(got.second, want.second)
        np.testing.assert_allclose(got.z, want.z, rtol=1e-14)
        np.testing.assert_allclose(got.s, want.s, rtol=1e-14)

    def test_store_and_table_rows_must_agree(self):
        clf, v = random_clf_and_vectors(3, 10, 4, 0.07, seed=9)
        with pytest.raises(ValueError, match="rows"):
            margin_select(FeatureStore(v[:9]), 2, table_of(clf, v))


class TestTopTwo:
    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=12)))
    @settings(max_examples=300, deadline=None)
    def test_equals_max_and_partition(self, rows):
        # Few distinct values, so most rows hold ties at the top.
        logits = np.array(rows, dtype=np.float64)
        n = logits.shape[1]
        top, second = top_two(logits.T)
        np.testing.assert_array_equal(top, logits.max(axis=1))
        if n == 1:
            assert np.all(second == -np.inf)
        else:
            np.testing.assert_array_equal(second, np.partition(logits, n - 2, axis=1)[:, n - 2])

    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=8),
        st.integers(1, n - 1))))
    @settings(max_examples=200, deadline=None)
    def test_a_pass_carried_on_from_a_block_equals_one_pass(self, case):
        rows, cut = case
        logits = np.array(rows, dtype=np.float64).T
        for got, want in zip(top_two(logits[cut:], *top_two(logits[:cut])), top_two(logits)):
            np.testing.assert_array_equal(got, want)


class TestTop:
    @staticmethod
    def full_lexsort(ids, key, budget):
        """Reference: sort every row by (key, id) and keep the first `budget`."""
        return ids[np.lexsort((ids, key))[:budget]].tolist()

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_a_full_lexsort_with_ties_at_the_cut(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 80))
        # Few distinct keys, so most cuts fall inside a run of ties.
        key = rng.integers(0, 4, n).astype(np.float64) / 3.0
        ids = np.sort(rng.choice(10 * n, size=n, replace=False))
        for budget in sorted({1, n, int(rng.integers(1, n + 1))}):
            assert _top(ids, key, budget).ids == self.full_lexsort(ids, key, budget)
            assert _top(ids[::-1], key[::-1], budget).ids == \
                self.full_lexsort(ids[::-1], key[::-1], budget)

    def test_all_keys_tied(self):
        ids = np.array([7, 3, 9, 1])
        assert _top(ids, np.zeros(4), 2).ids == [1, 3]


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
        got = {float(v[0]) for v in store.vectors_for(sel.ids)}
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


def coreset_pools():
    """(name, rows, budget) on both sides of the 2 * ASSIGN_BLOCK_ROWS rows
    from which coreset takes the filtered distance loop."""
    rng = np.random.default_rng(23)
    pools = []
    for size, n in (("small", 300), ("large", 2 * ASSIGN_BLOCK_ROWS + 52)):
        pools += [
            (f"{size} gaussian", rng.standard_normal((n, 16)), 60),
            (f"{size} unit D = 64", unit_rows(rng, n, 64), 40),
            # Fewer distinct rows than the budget: the last picks take the
            # lowest unchosen row once every d2 is 0.
            (f"{size} duplicates", unit_rows(rng, 25, 8)[rng.integers(0, 25, n)], 40),
            # Integer points: many rows lie exactly as far from two centers,
            # and ties go to the lowest row.
            (f"{size} lattice", np.stack(np.divmod(np.arange(n), 50), axis=1).astype(np.float64),
             60),
            (f"{size} line", np.arange(n, dtype=np.float64)[:, None] % 7, 12),
        ]
    angle = 2.0 * np.pi * np.arange(4200) / 4200
    pools.append(("large circle", np.stack([np.cos(angle), np.sin(angle)], axis=1), 80))
    return pools


CORESET_POOLS = coreset_pools()


@pytest.mark.parametrize("name,x,budget", CORESET_POOLS, ids=[p[0] for p in CORESET_POOLS])
def test_coreset_picks_the_reference_k_center_rows(name, x, budget):
    ids = np.random.default_rng(7).choice(10 * len(x), size=len(x), replace=False)
    ids.sort()
    store = FeatureStore(x, ids=ids)
    assert coreset_select(store, budget, seed=0).ids == ids[plain_coreset(x, budget)].tolist()
