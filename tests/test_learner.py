import math

import numpy as np
import pytest

from cbsel.errors import (
    EmptyAllowedSet,
    EmptyClass,
    EmptyInput,
    LabelOutsideSessionSpace,
    NoClasses,
    NotNormalized,
)
from cbsel.features import FeatureStore
from cbsel.gaussian import estimate
from cbsel.learner import (
    MemoryBuffer,
    PrototypeClassifier,
    empty_classifier,
    estimate_class_distributions,
    predict,
    predict_proba_matrix,
    pseudo_label,
    train_session,
)

INV_SQRT2 = math.sqrt(0.5)


def predict_proba(clf, f):
    """Class probabilities of one feature vector."""
    return predict_proba_matrix(clf, f[None, :])[0]


def orthogonal_clf(num_classes, temperature=1.0, dim=None):
    dim = dim or num_classes
    eye = np.eye(dim)
    return PrototypeClassifier(
        embeddings={c: eye[c] for c in range(num_classes)},
        temperature=temperature,
        classes_seen=tuple(range(num_classes)),
    )


def blob_world(centers, per_class, sigma, seed, dim):
    """Normalized per-class blobs; returns (store, labels list)."""
    rng = np.random.default_rng(seed)
    blocks, labels = [], []
    for c, center in enumerate(centers):
        x = center + sigma * rng.standard_normal((per_class, dim))
        blocks.append(x)
        labels.extend([c] * per_class)
    v = np.vstack(blocks)
    v = v / np.linalg.norm(v, axis=1)[:, None]
    return FeatureStore(v, labels=labels, normalized=True), labels


def spread_centers(num, dim, seed, min_dist=0.8):
    rng = np.random.default_rng(seed)
    centers = []
    while len(centers) < num:
        c = rng.standard_normal(dim)
        c /= np.linalg.norm(c)
        if all(np.linalg.norm(c - o) >= min_dist for o in centers):
            centers.append(c)
    return np.stack(centers)


class TestPredictProba:
    def test_single_class(self):
        clf = orthogonal_clf(1)
        np.testing.assert_array_equal(predict_proba(clf, np.array([1.0])), [1.0])

    def test_closed_form_orthogonal(self):
        clf = orthogonal_clf(3, temperature=1.0)
        p = predict_proba(clf, np.eye(3)[0])
        want = math.e / (math.e + 2.0)
        np.testing.assert_allclose(p[0], want, rtol=1e-12)
        np.testing.assert_allclose(p[1], 1.0 / (math.e + 2.0), rtol=1e-12)

    def test_sums_to_one_and_positive(self):
        rng = np.random.default_rng(0)
        clf = orthogonal_clf(5, temperature=0.07)
        for _ in range(20):
            f = rng.standard_normal(5)
            f /= np.linalg.norm(f)
            p = predict_proba(clf, f)
            assert abs(p.sum() - 1.0) <= 1e-9
            assert np.all(p > 0.0)

    def test_argmax_invariant_to_temperature(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(4)
        f /= np.linalg.norm(f)
        argmaxes = set()
        for tau in (0.01, 0.1, 1.0):
            clf = orthogonal_clf(4, temperature=tau)
            argmaxes.add(int(np.argmax(predict_proba(clf, f))))
        assert len(argmaxes) == 1

    def test_no_classes(self):
        with pytest.raises(NoClasses):
            predict_proba(empty_classifier(), np.array([1.0]))


class TestClassifierInvariants:
    def test_embeddings_must_be_unit(self):
        with pytest.raises(NotNormalized):
            PrototypeClassifier(
                embeddings={0: np.array([2.0, 0.0])}, temperature=1.0, classes_seen=(0,)
            )

    def test_classes_must_match_embeddings(self):
        with pytest.raises(ValueError):
            PrototypeClassifier(
                embeddings={0: np.array([1.0, 0.0])}, temperature=1.0, classes_seen=(0, 1)
            )

    def test_classes_must_be_sorted_unique(self):
        eye = np.eye(2)
        with pytest.raises(ValueError):
            PrototypeClassifier(
                embeddings={1: eye[1], 0: eye[0]}, temperature=1.0, classes_seen=(1, 0)
            )


class TestPseudoLabel:
    def test_single_allowed_class(self):
        clf = orthogonal_clf(3)
        store, _ = blob_world(np.eye(3), per_class=4, sigma=0.05, seed=0, dim=3)
        labels = pseudo_label(clf, store, allowed={2})
        assert set(labels.values()) == {2}
        assert set(labels) == set(int(i) for i in store.ids)

    def test_embedding_match(self):
        clf = orthogonal_clf(3)
        store = FeatureStore(np.eye(3)[[1]], normalized=True)
        assert pseudo_label(clf, store, allowed={0, 1, 2}) == {0: 1}

    def test_well_separated_blobs(self):
        # centers 20 sigma apart: pseudo-labels recover the truth
        dim = 8
        centers = spread_centers(3, dim, seed=5, min_dist=0.9)
        sigma = min(
            np.linalg.norm(a - b) for i, a in enumerate(centers) for b in centers[i + 1:]
        ) / 20.0
        store, labels = blob_world(centers, per_class=50, sigma=sigma, seed=6, dim=dim)
        protos = {c: centers[c] / np.linalg.norm(centers[c]) for c in range(3)}
        clf = PrototypeClassifier(embeddings=protos, temperature=0.07, classes_seen=(0, 1, 2))
        got = pseudo_label(clf, store, allowed={0, 1, 2})
        truth = dict(zip((int(i) for i in store.ids), labels))
        agree = sum(1 for i in got if got[i] == truth[i]) / len(got)
        assert agree >= 0.95

    def test_temperature_invariance(self):
        store, _ = blob_world(np.eye(4), per_class=10, sigma=0.3, seed=2, dim=4)
        maps = []
        for tau in (0.01, 0.1, 1.0):
            clf = orthogonal_clf(4, temperature=tau)
            maps.append(pseudo_label(clf, store, allowed={0, 1, 2, 3}))
        assert maps[0] == maps[1] == maps[2]

    def test_empty_allowed(self):
        clf = orthogonal_clf(2)
        store = FeatureStore(np.eye(2), normalized=True)
        with pytest.raises(EmptyAllowedSet):
            pseudo_label(clf, store, allowed=set())

    def test_allowed_must_be_known(self):
        clf = orthogonal_clf(2)
        store = FeatureStore(np.eye(2), normalized=True)
        with pytest.raises(ValueError):
            pseudo_label(clf, store, allowed={5})


class TestEstimateClassDistributions:
    def test_no_pseudo_reduces_to_labeled_only(self):
        store, labels = blob_world(np.eye(2), per_class=20, sigma=0.1, seed=3, dim=2)
        labeled = [(int(i), labels[int(i)]) for i in store.ids]
        with_empty = estimate_class_distributions(labeled, [], store, classes={0, 1})
        for c in (0, 1):
            ids = [i for i, lab in labeled if lab == c]
            direct = estimate(store.vectors_for(ids))
            np.testing.assert_array_equal(with_empty[c].mean, direct.mean)
            np.testing.assert_array_equal(with_empty[c].var, direct.var)

    def test_disjoint_halves_equal_full_estimate(self):
        store, labels = blob_world(np.eye(2)[[0]], per_class=60, sigma=0.1, seed=4, dim=2)
        pairs = [(int(i), 0) for i in store.ids]
        got = estimate_class_distributions(pairs[:30], pairs[30:], store, classes={0})
        direct = estimate(store.vectors)
        np.testing.assert_array_equal(got[0].mean, direct.mean)
        np.testing.assert_array_equal(got[0].var, direct.var)

    def test_true_label_wins_on_conflict(self):
        store = FeatureStore(np.eye(2), normalized=True)
        got = estimate_class_distributions(
            [(0, 0)], [(0, 1), (1, 1)], store, classes={0, 1}
        )
        np.testing.assert_array_equal(got[0].mean, store.vector(0))
        np.testing.assert_array_equal(got[1].mean, store.vector(1))

    def test_one_mislabeled_point_shifts_the_mean_by_1_over_n_plus_1(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((100, 3)) * 0.1 + np.array([1.0, 0.0, 0.0])
        outlier = np.array([-5.0, 2.0, 2.0])
        store = FeatureStore(np.vstack([x, outlier[None, :]]))
        labeled = [(i, 0) for i in range(100)]
        base = estimate_class_distributions(labeled, [], store, classes={0})[0]
        shifted = estimate_class_distributions(labeled, [(100, 0)], store, classes={0})[0]
        want = (outlier - base.mean) / 101.0
        np.testing.assert_allclose(shifted.mean - base.mean, want, atol=1e-12)

    def test_empty_class_raises(self):
        store = FeatureStore(np.eye(2), normalized=True)
        with pytest.raises(EmptyClass) as err:
            estimate_class_distributions([(0, 0)], [], store, classes={0, 1})
        assert err.value.class_id == 1


class TestTrainSession:
    def test_first_session_prototype_is_normalized_mean(self):
        store = FeatureStore(np.array([[1.0, 0.0], [0.0, 1.0]]), normalized=True)
        clf = train_session(empty_classifier(), MemoryBuffer(), [(0, 0), (1, 0)], store)
        np.testing.assert_allclose(clf.embeddings[0], [INV_SQRT2, INV_SQRT2], atol=1e-12)
        assert clf.classes_seen == (0,)

    def test_no_replay_keeps_old_embeddings(self):
        store, labels = blob_world(np.eye(4), per_class=5, sigma=0.05, seed=0, dim=4)
        pairs = [(int(i), labels[int(i)]) for i in store.ids]
        first = [p for p in pairs if p[1] in (0, 1)]
        second = [p for p in pairs if p[1] in (2, 3)]
        clf1 = train_session(empty_classifier(), MemoryBuffer(), first, store)
        buffer = MemoryBuffer().update(estimate_class_distributions(first, [], store, {0, 1}))
        for kwargs in ({"replay_per_class": 0}, {"alpha": 1.0}):
            clf2 = train_session(clf1, buffer, second, store, seed=3, **kwargs)
            for c in (0, 1):
                np.testing.assert_array_equal(clf2.embeddings[c], clf1.embeddings[c])
            assert clf2.classes_seen == (0, 1, 2, 3)

    def test_replay_moves_old_embeddings(self):
        store, labels = blob_world(np.eye(4), per_class=5, sigma=0.05, seed=0, dim=4)
        pairs = [(int(i), labels[int(i)]) for i in store.ids]
        first = [p for p in pairs if p[1] in (0, 1)]
        second = [p for p in pairs if p[1] in (2, 3)]
        clf1 = train_session(empty_classifier(), MemoryBuffer(), first, store)
        buffer = MemoryBuffer().update(estimate_class_distributions(first, [], store, {0, 1}))
        clf2 = train_session(clf1, buffer, second, store, replay_per_class=20, seed=3, alpha=0.5)
        assert not np.array_equal(clf2.embeddings[0], clf1.embeddings[0])
        np.testing.assert_allclose(np.linalg.norm(clf2.embeddings[0]), 1.0, atol=1e-9)

    def test_label_outside_session_space(self):
        store = FeatureStore(np.eye(2), normalized=True)
        with pytest.raises(LabelOutsideSessionSpace):
            train_session(
                empty_classifier(), MemoryBuffer(), [(0, 0)], store, class_space={1}
            )

    def test_label_in_an_earlier_session_rejected(self):
        store = FeatureStore(np.eye(2), normalized=True)
        clf = train_session(empty_classifier(), MemoryBuffer(), [(0, 0)], store)
        with pytest.raises(LabelOutsideSessionSpace):
            train_session(clf, MemoryBuffer(), [(1, 0)], store)

    def test_empty_labeled(self):
        store = FeatureStore(np.eye(2), normalized=True)
        with pytest.raises(EmptyInput):
            train_session(empty_classifier(), MemoryBuffer(), [], store)

    def test_undiscovered_session_class_gets_no_prototype(self):
        store = FeatureStore(np.eye(2), normalized=True)
        clf = train_session(
            empty_classifier(), MemoryBuffer(), [(0, 0)], store, class_space={0, 1}
        )
        assert clf.classes_seen == (0,)

    def test_replay_with_accurate_distributions_protects_old_classes(self):
        # Session-1 prototypes come from 3 noisy labels; the stored Gaussians
        # come from the full class population. Replay should pull prototypes
        # toward the population mean, so old-class accuracy with replay is at
        # least the no-replay accuracy in nearly every paired seed.
        dim = 8
        centers = spread_centers(4, dim, seed=42, min_dist=0.75)
        wins = 0
        for seed in range(10):
            store, labels = blob_world(centers, per_class=60, sigma=0.35, seed=seed, dim=dim)
            pairs = [(int(i), labels[int(i)]) for i in store.ids]
            old_pairs = [p for p in pairs if p[1] in (0, 1)]
            new_pairs = [p for p in pairs if p[1] in (2, 3)]
            rng = np.random.default_rng(seed + 1000)
            few = []
            for c in (0, 1):
                members = [p for p in old_pairs if p[1] == c]
                idx = rng.choice(len(members), size=3, replace=False)
                few.extend(members[j] for j in idx)
            clf1 = train_session(empty_classifier(), MemoryBuffer(), few, store)
            buffer = MemoryBuffer().update(
                estimate_class_distributions(few, old_pairs, store, {0, 1})
            )
            new_few = [p for p in new_pairs if p[0] % 6 == 0]
            with_replay = train_session(
                clf1, buffer, new_few, store, replay_per_class=40, seed=seed, alpha=0.5
            )
            without = train_session(
                clf1, buffer, new_few, store, replay_per_class=0, seed=seed
            )
            test_store, test_labels = blob_world(
                centers, per_class=40, sigma=0.35, seed=seed + 2000, dim=dim
            )
            truth = np.asarray(test_labels)
            old_rows = truth < 2
            acc_with = float(np.mean(
                predict(with_replay, test_store.vectors[old_rows]) == truth[old_rows]
            ))
            acc_without = float(np.mean(
                predict(without, test_store.vectors[old_rows]) == truth[old_rows]
            ))
            if acc_with >= acc_without:
                wins += 1
        assert wins >= 9


class TestMemoryBuffer:
    def g(self, mean):
        from cbsel.gaussian import DiagonalGaussian
        return DiagonalGaussian(np.array([float(mean)]), np.array([1.0]), count=2)

    def test_update_is_a_union(self):
        buf = MemoryBuffer().update({0: self.g(0)}).update({1: self.g(1), 2: self.g(2)})
        assert buf.classes() == (0, 1, 2)

    def test_collision_rejected(self):
        buf = MemoryBuffer().update({0: self.g(0)})
        with pytest.raises(ValueError):
            buf.update({0: self.g(5)})

    def test_update_does_not_mutate(self):
        buf = MemoryBuffer().update({0: self.g(0)})
        buf.update({1: self.g(1)})
        assert buf.classes() == (0,)

