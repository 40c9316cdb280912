import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbsel.errors import (
    EmptyAllowedSet,
    EmptyClass,
    EmptyInput,
    LabelOutsideSessionSpace,
    NoClasses,
    NotNormalized,
    ZeroVector,
)
from cbsel.features import FeatureStore
from cbsel.gaussian import DiagonalGaussian, estimate
from cbsel.learner import (
    MemoryBuffer,
    PrototypeClassifier,
    empty_classifier,
    estimate_class_distributions,
    new_class_prototypes,
    predict,
    pseudo_label,
    rehearse,
    train_session,
)
from cbsel.seeding import derive_rng
from reference_impls import (
    dict_estimate_class_distributions,
    dict_pseudo_label,
    predict_proba_matrix,
    sample,
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


class TestPredict:
    def test_ties_go_to_the_lowest_class(self):
        # Each row is equally near two prototypes: its logits for them are
        # the same product, so argmax takes the lower class id.
        clf = PrototypeClassifier({4: np.array([1.0, 0.0]), 9: np.array([0.0, 1.0]),
                                   2: np.array([-1.0, 0.0])}, 0.07, (2, 4, 9))
        rows = np.array([[INV_SQRT2, INV_SQRT2], [0.0, -1.0], [0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(predict(clf, rows), [4, 2, 9, 4])

    def test_is_the_argmax_of_the_logits_at_any_temperature(self):
        rng = np.random.default_rng(4)
        protos = random_unit(rng, 6, 5)
        rows = random_unit(rng, 200, 5)
        for tau in (0.01, 0.07, 1.0):
            clf = PrototypeClassifier(dict(zip(range(10, 16), protos)), tau, tuple(range(10, 16)))
            want = 10 + np.argmax(rows @ protos.T, axis=1)
            np.testing.assert_array_equal(predict(clf, rows), want)

    def test_no_classes(self):
        with pytest.raises(NoClasses):
            predict(empty_classifier(), np.ones((1, 1)))


class TestClassifierInvariants:
    def test_embeddings_must_be_unit(self):
        with pytest.raises(NotNormalized):
            PrototypeClassifier(
                embeddings={0: np.array([2.0, 0.0])}, temperature=1.0, classes_seen=(0,)
            )

    def test_not_normalized_names_the_first_bad_class(self):
        eye = np.eye(3)
        with pytest.raises(NotNormalized, match="class 4 is not unit norm"):
            PrototypeClassifier(
                embeddings={2: eye[0], 4: 2.0 * eye[1], 7: 0.5 * eye[2]},
                temperature=1.0, classes_seen=(2, 4, 7),
            )

    def test_embedding_matrix_is_the_read_only_stack(self):
        clf = orthogonal_clf(3)
        matrix = clf.embedding_matrix()
        np.testing.assert_array_equal(matrix, np.eye(3))
        assert matrix is clf.embedding_matrix()
        assert not matrix.flags.writeable

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
        labels = pseudo_label(clf, store.vectors, allowed={2})
        assert labels.dtype == np.int64
        assert labels.tolist() == [2] * len(store)

    def test_embedding_match(self):
        clf = orthogonal_clf(3)
        assert pseudo_label(clf, np.eye(3)[[1]], allowed={0, 1, 2}).tolist() == [1]

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
        got = pseudo_label(clf, store.vectors, allowed={0, 1, 2})
        assert np.mean(got == np.asarray(labels)) >= 0.95

    def test_temperature_invariance(self):
        store, _ = blob_world(np.eye(4), per_class=10, sigma=0.3, seed=2, dim=4)
        got = [pseudo_label(orthogonal_clf(4, temperature=tau), store.vectors, allowed={0, 1, 2, 3})
               for tau in (0.01, 0.1, 1.0)]
        np.testing.assert_array_equal(got[0], got[1])
        np.testing.assert_array_equal(got[0], got[2])

    def test_empty_allowed(self):
        with pytest.raises(EmptyAllowedSet):
            pseudo_label(orthogonal_clf(2), np.eye(2), allowed=set())

    def test_allowed_must_be_known(self):
        with pytest.raises(ValueError):
            pseudo_label(orthogonal_clf(2), np.eye(2), allowed={5})


def pair(ids, classes):
    """An (ids, classes) label pair of int64 arrays."""
    return np.asarray(ids, dtype=np.int64), np.asarray(classes, dtype=np.int64)


NO_LABELS = pair([], [])


def labeled_where(store, labels, keep):
    """The (ids, classes) pair of the store's rows whose label is in `keep`,
    in ascending id order; `labels` has one label per row."""
    labels = np.asarray(labels, dtype=np.int64)
    rows = np.isin(labels, list(keep))
    return store.ids[rows], labels[rows]


class TestEstimateClassDistributions:
    def test_no_pseudo_reduces_to_labeled_only(self):
        store, labels = blob_world(np.eye(2), per_class=20, sigma=0.1, seed=3, dim=2)
        labeled = pair(store.ids, labels)
        with_empty = estimate_class_distributions(labeled, NO_LABELS, store, classes={0, 1})
        for c in (0, 1):
            direct = estimate(store.vectors_for(labeled[0][labeled[1] == c]))
            np.testing.assert_array_equal(with_empty[c].mean, direct.mean)
            np.testing.assert_array_equal(with_empty[c].var, direct.var)

    def test_disjoint_halves_equal_full_estimate(self):
        store, labels = blob_world(np.eye(2)[[0]], per_class=60, sigma=0.1, seed=4, dim=2)
        ids, classes = pair(store.ids, labels)
        got = estimate_class_distributions(
            (ids[:30], classes[:30]), (ids[30:], classes[30:]), store, classes={0})
        direct = estimate(store.vectors)
        np.testing.assert_array_equal(got[0].mean, direct.mean)
        np.testing.assert_array_equal(got[0].var, direct.var)

    def test_true_label_wins_on_conflict(self):
        store = FeatureStore(np.eye(2), normalized=True)
        got = estimate_class_distributions(
            pair([0], [0]), pair([0, 1], [1, 1]), store, classes={0, 1}
        )
        np.testing.assert_array_equal(got[0].mean, store.vector(0))
        np.testing.assert_array_equal(got[1].mean, store.vector(1))

    def test_one_mislabeled_point_shifts_the_mean_by_1_over_n_plus_1(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((100, 3)) * 0.1 + np.array([1.0, 0.0, 0.0])
        outlier = np.array([-5.0, 2.0, 2.0])
        store = FeatureStore(np.vstack([x, outlier[None, :]]))
        labeled = pair(range(100), [0] * 100)
        base = estimate_class_distributions(labeled, NO_LABELS, store, classes={0})[0]
        shifted = estimate_class_distributions(labeled, pair([100], [0]), store, classes={0})[0]
        want = (outlier - base.mean) / 101.0
        np.testing.assert_allclose(shifted.mean - base.mean, want, atol=1e-12)

    def test_empty_class_raises(self):
        store = FeatureStore(np.eye(2), normalized=True)
        with pytest.raises(EmptyClass) as err:
            estimate_class_distributions(pair([0], [0]), NO_LABELS, store, classes={0, 1})
        assert err.value.class_id == 1

    def test_empty_class_with_pseudo_labels_names_the_lowest(self):
        store = FeatureStore(np.eye(3), normalized=True)
        with pytest.raises(EmptyClass) as err:
            estimate_class_distributions(
                pair([0], [0]), pair([1, 2], [2, 2]), store, classes={9, 0, 2, 5})
        assert err.value.class_id == 5

    @given(data=st.data(), n=st.integers(2, 40), dim=st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_dict_merge_of_pseudo_labels(self, data, n, dim):
        # Labeled and pseudo ids overlap and arrive unsorted; the pseudo
        # labels are the pseudo_label classes of their rows.
        rng = np.random.default_rng(n * 10 + dim)
        store = FeatureStore(rng.standard_normal((n, dim)))
        clf = PrototypeClassifier(dict(zip(range(4), random_unit(rng, 4, dim))), 0.07, (0, 1, 2, 3))
        ids = st.integers(0, n - 1)
        labeled_ids = data.draw(st.lists(ids, unique=True, min_size=1))
        labeled = pair(labeled_ids, data.draw(st.lists(
            st.integers(0, 5), min_size=len(labeled_ids), max_size=len(labeled_ids))))
        pseudo_ids = np.array(data.draw(st.lists(ids, unique=True)), dtype=np.int64)
        allowed = data.draw(st.sets(st.integers(0, 3), min_size=1))
        classes = data.draw(st.sets(st.integers(0, 6), min_size=1))

        pseudo_map = dict_pseudo_label(clf, store.subset(pseudo_ids), allowed)
        rows = store.ids.searchsorted(np.sort(pseudo_ids))
        got_pseudo = pseudo_label(clf, store.vectors[rows], allowed)
        assert dict(zip(store.ids[rows].tolist(), got_pseudo.tolist())) == pseudo_map
        pseudo = pair(pseudo_ids, [pseudo_map[i] for i in pseudo_ids.tolist()])

        def outcome(estimate_fn, *label_sets):
            try:
                return estimate_fn(*label_sets, store, classes)
            except EmptyClass as exc:
                return exc.class_id

        got = outcome(estimate_class_distributions, labeled, pseudo)
        want = outcome(dict_estimate_class_distributions,
                       list(zip(*(a.tolist() for a in labeled))), sorted(pseudo_map.items()))
        if isinstance(want, int):
            assert got == want
            return
        assert list(got) == list(want)
        for c, g in want.items():
            np.testing.assert_array_equal(got[c].mean, g.mean)
            np.testing.assert_array_equal(got[c].var, g.var)
            assert got[c].count == g.count


def reference_rehearse(clf, buffer, replay_per_class, seed, alpha):
    """The per-class loop the stacked `rehearse` replaced, drawing every class
    in ascending order from the session's one replay stream; returns
    embeddings."""
    def unit(v):
        return v / float(np.linalg.norm(v))

    embeddings = dict(clf.embeddings)
    rng = derive_rng(seed, "replay")
    for c in sorted(buffer.distributions):
        replayed = sample(buffer.distributions[c], replay_per_class, rng)
        embeddings[c] = unit(alpha * embeddings[c] + (1.0 - alpha) * unit(replayed.mean(axis=0)))
    return embeddings


def random_unit(rng, n, dim):
    v = rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1)[:, None]


class TestRehearse:
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("replay_per_class", [1, 20])
    @pytest.mark.parametrize("dim", [2, 16, 64])
    def test_matches_the_per_class_loop_bit_for_bit(self, dim, replay_per_class, alpha):
        rng = np.random.default_rng(dim + replay_per_class)
        classes = (3, 7, 11, 40, 41)
        protos = random_unit(rng, len(classes), dim)
        clf = PrototypeClassifier(dict(zip(classes, protos)), 0.07, classes)
        buffer = MemoryBuffer({
            c: DiagonalGaussian(protos[j] + 0.1 * rng.standard_normal(dim),
                                rng.uniform(1e-6, 0.05, dim), 10)
            for j, c in enumerate(classes[:4])
        })
        got = rehearse(clf, buffer, replay_per_class, seed=13, alpha=alpha)
        want = reference_rehearse(clf, buffer, replay_per_class, 13, alpha)
        assert got.classes_seen == classes
        for c in classes:
            assert got.embeddings[c].tobytes() == want[c].tobytes()
        assert got.embedding_matrix().tobytes() == np.stack([want[c] for c in classes]).tobytes()

    def test_empty_buffer_returns_the_classifier(self):
        clf = orthogonal_clf(2)
        assert rehearse(clf, MemoryBuffer(), replay_per_class=20, seed=1, alpha=0.5) is clf

    def test_opposite_blend_is_a_zero_vector_naming_the_class(self):
        # In one dimension every replay mean normalizes to [1.0], so an old
        # prototype of [-1.0] blends to exactly zero at alpha = 0.5.
        clf = PrototypeClassifier({0: np.array([1.0]), 5: np.array([-1.0])}, 0.07, (0, 5))
        g = DiagonalGaussian(np.array([5.0]), np.array([1e-6]), 3)
        with pytest.raises(ZeroVector, match="blended prototype of class 5"):
            rehearse(clf, MemoryBuffer({0: g, 5: g}), replay_per_class=4, seed=2, alpha=0.5)


class TestNewClassPrototypes:
    @pytest.mark.parametrize("dim", [2, 16, 64])
    def test_match_the_per_class_loop_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        store = FeatureStore(rng.standard_normal((90, dim)), normalized=True)
        ids, classes = rng.permutation(90)[:60], rng.choice([8, 2, 30], 60)
        got = new_class_prototypes(empty_classifier(), (ids, classes), store)
        assert list(got) == [2, 8, 30]
        for c, proto in got.items():
            mean = store.vectors_for(ids[classes == c]).mean(axis=0)
            assert proto.tobytes() == (mean / float(np.linalg.norm(mean))).tobytes()


class TestTrainSession:
    def test_first_session_prototype_is_normalized_mean(self):
        store = FeatureStore(np.array([[1.0, 0.0], [0.0, 1.0]]), normalized=True)
        clf = train_session(empty_classifier(), MemoryBuffer(), pair([0, 1], [0, 0]), store)
        np.testing.assert_allclose(clf.embeddings[0], [INV_SQRT2, INV_SQRT2], atol=1e-12)
        assert clf.classes_seen == (0,)

    def test_no_replay_keeps_old_embeddings(self):
        store, labels = blob_world(np.eye(4), per_class=5, sigma=0.05, seed=0, dim=4)
        first = labeled_where(store, labels, (0, 1))
        second = labeled_where(store, labels, (2, 3))
        clf1 = train_session(empty_classifier(), MemoryBuffer(), first, store)
        buffer = MemoryBuffer().update(estimate_class_distributions(first, NO_LABELS, store, {0, 1}))
        for kwargs in ({"replay_per_class": 0}, {"alpha": 1.0}):
            clf2 = train_session(clf1, buffer, second, store, seed=3, **kwargs)
            for c in (0, 1):
                np.testing.assert_array_equal(clf2.embeddings[c], clf1.embeddings[c])
            assert clf2.classes_seen == (0, 1, 2, 3)

    def test_replay_moves_old_embeddings(self):
        store, labels = blob_world(np.eye(4), per_class=5, sigma=0.05, seed=0, dim=4)
        first = labeled_where(store, labels, (0, 1))
        second = labeled_where(store, labels, (2, 3))
        clf1 = train_session(empty_classifier(), MemoryBuffer(), first, store)
        buffer = MemoryBuffer().update(estimate_class_distributions(first, NO_LABELS, store, {0, 1}))
        clf2 = train_session(clf1, buffer, second, store, replay_per_class=20, seed=3, alpha=0.5)
        assert not np.array_equal(clf2.embeddings[0], clf1.embeddings[0])
        np.testing.assert_allclose(np.linalg.norm(clf2.embeddings[0]), 1.0, atol=1e-9)

    def test_is_rehearse_plus_the_new_class_prototypes(self):
        store, labels = blob_world(np.eye(4), per_class=5, sigma=0.05, seed=0, dim=4)
        first = labeled_where(store, labels, (0, 1))
        second = labeled_where(store, labels, (2, 3))
        clf1 = train_session(empty_classifier(), MemoryBuffer(), first, store)
        buffer = MemoryBuffer().update(estimate_class_distributions(first, NO_LABELS, store, {0, 1}))
        clf2 = train_session(clf1, buffer, second, store, replay_per_class=20, seed=3, alpha=0.5)
        rehearsed = rehearse(clf1, buffer, replay_per_class=20, seed=3, alpha=0.5)
        assert rehearsed.classes_seen == (0, 1)
        for c in (0, 1):
            np.testing.assert_array_equal(clf2.embeddings[c], rehearsed.embeddings[c])
        for kwargs in ({"replay_per_class": 0}, {"alpha": 1.0}):
            assert rehearse(clf1, buffer, seed=3, **kwargs) is clf1

    def test_label_outside_session_space(self):
        store = FeatureStore(np.eye(2), normalized=True)
        with pytest.raises(LabelOutsideSessionSpace):
            train_session(
                empty_classifier(), MemoryBuffer(), pair([0], [0]), store, class_space={1}
            )

    def test_label_in_an_earlier_session_rejected(self):
        store = FeatureStore(np.eye(2), normalized=True)
        clf = train_session(empty_classifier(), MemoryBuffer(), pair([0], [0]), store)
        with pytest.raises(LabelOutsideSessionSpace):
            train_session(clf, MemoryBuffer(), pair([1], [0]), store)

    def test_empty_labeled(self):
        store = FeatureStore(np.eye(2), normalized=True)
        with pytest.raises(EmptyInput):
            train_session(empty_classifier(), MemoryBuffer(), NO_LABELS, store)

    def test_undiscovered_session_class_gets_no_prototype(self):
        store = FeatureStore(np.eye(2), normalized=True)
        clf = train_session(
            empty_classifier(), MemoryBuffer(), pair([0], [0]), store, class_space={0, 1}
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
            old_ids, old_classes = old = labeled_where(store, labels, (0, 1))
            new_ids, new_classes = labeled_where(store, labels, (2, 3))
            rng = np.random.default_rng(seed + 1000)
            rows = []
            for c in (0, 1):
                members = np.flatnonzero(old_classes == c)
                rows.extend(members[rng.choice(len(members), size=3, replace=False)])
            few = (old_ids[rows], old_classes[rows])
            clf1 = train_session(empty_classifier(), MemoryBuffer(), few, store)
            buffer = MemoryBuffer().update(
                estimate_class_distributions(few, old, store, {0, 1})
            )
            keep = new_ids % 6 == 0
            new_few = (new_ids[keep], new_classes[keep])
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

