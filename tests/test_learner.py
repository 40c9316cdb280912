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
from cbsel.gaussian import ClassGaussians
from cbsel.kmeans import ASSIGN_BLOCK_ROWS
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
    estimate,
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
    return PrototypeClassifier(np.arange(num_classes), eye[:num_classes], temperature)


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
        clf = PrototypeClassifier([2, 4, 9], [[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 0.07)
        rows = np.array([[INV_SQRT2, INV_SQRT2], [0.0, -1.0], [0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(predict(clf, rows), [4, 2, 9, 4])

    def test_is_the_argmax_of_the_logits_at_any_temperature(self):
        rng = np.random.default_rng(4)
        protos = random_unit(rng, 6, 5)
        rows = random_unit(rng, 200, 5)
        for tau in (0.01, 0.07, 1.0):
            clf = PrototypeClassifier(np.arange(10, 16), protos, tau)
            want = 10 + np.argmax(rows @ protos.T, axis=1)
            np.testing.assert_array_equal(predict(clf, rows), want)

    def test_no_classes(self):
        with pytest.raises(NoClasses):
            predict(empty_classifier(), np.ones((1, 1)))

    @pytest.mark.parametrize("n", [2 * ASSIGN_BLOCK_ROWS + 1, 3 * ASSIGN_BLOCK_ROWS + 17])
    def test_blocked_rows_match_the_unblocked_argmax(self, n):
        # Every pair of classes has a twin prototype, so every row ties and
        # must go to the lower class of its pair, in every block.
        rng = np.random.default_rng(n)
        protos = random_unit(rng, 5, 8)
        clf = PrototypeClassifier(np.arange(10), np.repeat(protos, 2, axis=0), 0.07)
        rows = random_unit(rng, n, 8)
        cols = np.argmax(rows @ clf.prototypes.T, axis=1)
        assert (cols % 2 == 0).all()
        np.testing.assert_array_equal(predict(clf, rows), clf.classes[cols])
        allowed = [1, 2, 3, 8, 9]
        want = np.array(allowed)[np.argmax(rows @ clf.prototypes[allowed].T, axis=1)]
        np.testing.assert_array_equal(pseudo_label(clf, rows, allowed), want)


class TestClassifierInvariants:
    def test_embeddings_must_be_unit(self):
        with pytest.raises(NotNormalized):
            PrototypeClassifier([0], [[2.0, 0.0]], 1.0)

    def test_not_normalized_names_the_first_bad_class(self):
        eye = np.eye(3)
        with pytest.raises(NotNormalized, match="class 4 is not unit norm"):
            PrototypeClassifier([2, 4, 7], [eye[0], 2.0 * eye[1], 0.5 * eye[2]], 1.0)

    def test_embedding_matrix_is_the_read_only_stack(self):
        # The prototypes and their class ids are read-only copies.
        classes, protos = np.arange(3), np.eye(3)
        clf = PrototypeClassifier(classes, protos, 1.0)
        classes[0], protos[0, 0] = 7, 0.0
        np.testing.assert_array_equal(clf.prototypes, np.eye(3))
        assert clf.classes.tolist() == [0, 1, 2]
        assert clf.classes.dtype == np.int64
        assert not clf.prototypes.flags.writeable
        assert not clf.classes.flags.writeable

    def test_classes_must_match_embeddings(self):
        with pytest.raises(ValueError):
            PrototypeClassifier([0, 1], [[1.0, 0.0]], 1.0)

    def test_classes_must_be_sorted_unique(self):
        for classes in ([1, 0], [0, 0]):
            with pytest.raises(ValueError):
                PrototypeClassifier(classes, np.eye(2), 1.0)


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
        protos = centers / np.linalg.norm(centers, axis=1)[:, None]
        clf = PrototypeClassifier(np.arange(3), protos, 0.07)
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
        cases = ((orthogonal_clf(2), r"\[5, 7\]"), (empty_classifier(), r"\[0, 5, 7\]"))
        for clf, missing in cases:
            with pytest.raises(ValueError, match=f"allowed classes not in classifier: {missing}$"):
                pseudo_label(clf, np.eye(2), allowed={7, 0, 5})


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
        assert with_empty.classes.tolist() == [0, 1]
        for c in (0, 1):
            direct = estimate(store.vectors_for(labeled[0][labeled[1] == c]))
            np.testing.assert_array_equal(with_empty.mean[c], direct.mean[0])
            np.testing.assert_array_equal(with_empty.var[c], direct.var[0])

    def test_disjoint_halves_equal_full_estimate(self):
        store, labels = blob_world(np.eye(2)[[0]], per_class=60, sigma=0.1, seed=4, dim=2)
        ids, classes = pair(store.ids, labels)
        got = estimate_class_distributions(
            (ids[:30], classes[:30]), (ids[30:], classes[30:]), store, classes={0})
        direct = estimate(store.vectors)
        np.testing.assert_array_equal(got.mean, direct.mean)
        np.testing.assert_array_equal(got.var, direct.var)

    def test_true_label_wins_on_conflict(self):
        store = FeatureStore(np.eye(2), normalized=True)
        got = estimate_class_distributions(
            pair([0], [0]), pair([0, 1], [1, 1]), store, classes={0, 1}
        )
        np.testing.assert_array_equal(got.mean, store.vectors_for([0, 1]))

    def test_one_mislabeled_point_shifts_the_mean_by_1_over_n_plus_1(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((100, 3)) * 0.1 + np.array([1.0, 0.0, 0.0])
        outlier = np.array([-5.0, 2.0, 2.0])
        store = FeatureStore(np.vstack([x, outlier[None, :]]))
        labeled = pair(range(100), [0] * 100)
        base = estimate_class_distributions(labeled, NO_LABELS, store, classes={0})
        shifted = estimate_class_distributions(labeled, pair([100], [0]), store, classes={0})
        want = (outlier - base.mean) / 101.0
        np.testing.assert_allclose(shifted.mean - base.mean, want, atol=1e-12)

    def test_empty_class_raises(self):
        store = FeatureStore(np.eye(2), normalized=True)
        for labeled, want in ((pair([0], [0]), 1), (NO_LABELS, 0)):
            with pytest.raises(EmptyClass) as err:
                estimate_class_distributions(labeled, NO_LABELS, store, classes={0, 1})
            assert err.value.class_id == want

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
        clf = PrototypeClassifier(np.arange(4), random_unit(rng, 4, dim), 0.07)
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
        assert got.classes.tolist() == want.classes.tolist()
        assert got.mean.tobytes() == want.mean.tobytes()
        assert got.var.tobytes() == want.var.tobytes()


def reference_rehearse(clf, buffer, replay_per_class, seed, alpha):
    """The per-class loop the stacked `rehearse` replaced, drawing every class
    in ascending order from the session's one replay stream; returns a
    class -> prototype dict."""
    def unit(v):
        return v / float(np.linalg.norm(v))

    prototypes = dict(zip(clf.classes.tolist(), clf.prototypes))
    rng = derive_rng(seed, "replay")
    g = buffer.distributions
    for row, c in enumerate(g.classes.tolist()):
        replayed = sample(g.take([row]), replay_per_class, rng)
        prototypes[c] = unit(alpha * prototypes[c] + (1.0 - alpha) * unit(replayed.mean(axis=0)))
    return prototypes


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
        clf = PrototypeClassifier(classes, protos, 0.07)
        buffer = MemoryBuffer(ClassGaussians(
            classes[:4], protos[:4] + 0.1 * rng.standard_normal((4, dim)),
            rng.uniform(1e-6, 0.05, (4, dim))))
        got = rehearse(clf, buffer, replay_per_class, seed=13, alpha=alpha)
        want = reference_rehearse(clf, buffer, replay_per_class, 13, alpha)
        assert got.classes.tolist() == list(classes)
        assert got.prototypes.tobytes() == np.stack([want[c] for c in classes]).tobytes()

    def test_empty_buffer_returns_the_classifier(self):
        clf = orthogonal_clf(2)
        assert rehearse(clf, MemoryBuffer(), replay_per_class=20, seed=1, alpha=0.5) is clf

    def test_opposite_blend_is_a_zero_vector_naming_the_class(self):
        # In one dimension every replay mean normalizes to [1.0], so an old
        # prototype of [-1.0] blends to exactly zero at alpha = 0.5.
        clf = PrototypeClassifier([0, 5], [[1.0], [-1.0]], 0.07)
        g = ClassGaussians([0, 5], [[5.0], [5.0]], [[1e-6], [1e-6]])
        with pytest.raises(ZeroVector, match="blended prototype of class 5"):
            rehearse(clf, MemoryBuffer(g), replay_per_class=4, seed=2, alpha=0.5)

    def test_a_buffered_class_the_classifier_lacks_is_rejected(self):
        # An empty classifier lacks every class, and is rejected the same way.
        g = ClassGaussians([1, 5], [[1.0, 0.0], [0.0, 1.0]], np.ones((2, 2)))
        for clf in (orthogonal_clf(2), empty_classifier()):
            with pytest.raises(ValueError, match="classes the classifier lacks"):
                rehearse(clf, MemoryBuffer(g), replay_per_class=4, seed=2)


class TestNewClassPrototypes:
    @pytest.mark.parametrize("dim", [2, 16, 64])
    def test_match_the_per_class_loop_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        store = FeatureStore(rng.standard_normal((90, dim)), normalized=True)
        ids, classes = rng.permutation(90)[:60], rng.choice([8, 2, 30], 60)
        got_classes, got = new_class_prototypes(empty_classifier(), (ids, classes), store)
        assert got_classes.tolist() == [2, 8, 30]
        for c, proto in zip(got_classes, got):
            mean = store.vectors_for(ids[classes == c]).mean(axis=0)
            assert proto.tobytes() == (mean / float(np.linalg.norm(mean))).tobytes()


class TestTrainSession:
    def test_first_session_prototype_is_normalized_mean(self):
        store = FeatureStore(np.array([[1.0, 0.0], [0.0, 1.0]]), normalized=True)
        clf = train_session(empty_classifier(), MemoryBuffer(), pair([0, 1], [0, 0]), store)
        np.testing.assert_allclose(clf.prototypes, [[INV_SQRT2, INV_SQRT2]], atol=1e-12)
        assert clf.classes.tolist() == [0]

    def test_no_replay_keeps_old_embeddings(self):
        store, labels = blob_world(np.eye(4), per_class=5, sigma=0.05, seed=0, dim=4)
        first = labeled_where(store, labels, (0, 1))
        second = labeled_where(store, labels, (2, 3))
        clf1 = train_session(empty_classifier(), MemoryBuffer(), first, store)
        buffer = MemoryBuffer().update(estimate_class_distributions(first, NO_LABELS, store, {0, 1}))
        for kwargs in ({"replay_per_class": 0}, {"alpha": 1.0}):
            clf2 = train_session(clf1, buffer, second, store, seed=3, **kwargs)
            np.testing.assert_array_equal(clf2.prototypes[:2], clf1.prototypes)
            assert clf2.classes.tolist() == [0, 1, 2, 3]

    def test_replay_moves_old_embeddings(self):
        store, labels = blob_world(np.eye(4), per_class=5, sigma=0.05, seed=0, dim=4)
        first = labeled_where(store, labels, (0, 1))
        second = labeled_where(store, labels, (2, 3))
        clf1 = train_session(empty_classifier(), MemoryBuffer(), first, store)
        buffer = MemoryBuffer().update(estimate_class_distributions(first, NO_LABELS, store, {0, 1}))
        clf2 = train_session(clf1, buffer, second, store, replay_per_class=20, seed=3, alpha=0.5)
        assert not np.array_equal(clf2.prototypes[0], clf1.prototypes[0])
        np.testing.assert_allclose(np.linalg.norm(clf2.prototypes[0]), 1.0, atol=1e-9)

    def test_is_rehearse_plus_the_new_class_prototypes(self):
        store, labels = blob_world(np.eye(4), per_class=5, sigma=0.05, seed=0, dim=4)
        first = labeled_where(store, labels, (0, 1))
        second = labeled_where(store, labels, (2, 3))
        clf1 = train_session(empty_classifier(), MemoryBuffer(), first, store)
        buffer = MemoryBuffer().update(estimate_class_distributions(first, NO_LABELS, store, {0, 1}))
        clf2 = train_session(clf1, buffer, second, store, replay_per_class=20, seed=3, alpha=0.5)
        rehearsed = rehearse(clf1, buffer, replay_per_class=20, seed=3, alpha=0.5)
        assert rehearsed.classes.tolist() == [0, 1]
        np.testing.assert_array_equal(clf2.prototypes[:2], rehearsed.prototypes)
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
        assert clf.classes.tolist() == [0]

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


def stack(*classes):
    """A stack of one-dimensional Gaussians whose means are their class ids."""
    n = len(classes)
    return ClassGaussians(classes, np.array(classes, dtype=float)[:, None], np.ones((n, 1)))


class TestMemoryBuffer:
    def test_starts_empty(self):
        assert len(MemoryBuffer().distributions) == 0

    def test_update_is_a_union(self):
        buf = MemoryBuffer().update(stack(0)).update(stack(1, 2))
        assert buf.distributions.classes.tolist() == [0, 1, 2]
        assert buf.distributions.mean[:, 0].tolist() == [0.0, 1.0, 2.0]

    def test_collision_rejected(self):
        buf = MemoryBuffer().update(stack(0, 3))
        with pytest.raises(ValueError, match=r"\[3\]"):
            buf.update(stack(1, 3))

    def test_update_does_not_mutate(self):
        buf = MemoryBuffer().update(stack(0))
        buf.update(stack(1))
        assert buf.distributions.classes.tolist() == [0]


class TestClassOrderMerge:
    """Sessions whose class ids fall below the classes already learned: the
    new rows go before the old ones in every stack."""

    def sessions(self):
        store, labels = blob_world(spread_centers(5, 6, seed=8), per_class=9, sigma=0.2, seed=1,
                                   dim=6)
        # Session 1 learns classes 2 and 4, session 2 classes 0, 1 and 3.
        return store, labeled_where(store, labels, (2, 4)), labeled_where(store, labels, (0, 1, 3))

    def test_buffer_rows_are_the_per_class_estimates(self):
        store, first, second = self.sessions()
        buf = MemoryBuffer().update(
            estimate_class_distributions(first, NO_LABELS, store, {2, 4})).update(
            estimate_class_distributions(second, NO_LABELS, store, {0, 1, 3}))
        g = buf.distributions
        assert g.classes.tolist() == [0, 1, 2, 3, 4]
        for row, c in enumerate(g.classes.tolist()):
            labeled = first if c in (2, 4) else second
            want = estimate(store.vectors_for(labeled[0][labeled[1] == c]))
            assert g.mean[row].tobytes() == want.mean[0].tobytes()
            assert g.var[row].tobytes() == want.var[0].tobytes()

    @pytest.mark.parametrize("replay_per_class, alpha", [(0, 0.5), (20, 0.5), (7, 0.0)])
    def test_train_session_rows_are_the_per_class_references(self, replay_per_class, alpha):
        store, first, second = self.sessions()
        clf1 = train_session(empty_classifier(), MemoryBuffer(), first, store)
        buf = MemoryBuffer().update(estimate_class_distributions(first, NO_LABELS, store, {2, 4}))
        clf2 = train_session(clf1, buf, second, store, replay_per_class, seed=5, alpha=alpha)
        assert clf2.classes.tolist() == [0, 1, 2, 3, 4]
        want = (reference_rehearse(clf1, buf, replay_per_class, 5, alpha)
                if replay_per_class else dict(zip(clf1.classes.tolist(), clf1.prototypes)))
        for c in (0, 1, 3):
            rows = second[1] == c
            _, proto = new_class_prototypes(clf1, (second[0][rows], second[1][rows]), store)
            want[c] = proto[0]
        assert clf2.prototypes.tobytes() == np.stack([want[c] for c in range(5)]).tobytes()
