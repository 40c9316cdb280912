import sys
import tracemalloc

import numpy as np
import pytest

from cbsel import datagen
from cbsel.datagen import WorldConfig, generate, place_centers, pool_sizes
from cbsel.errors import ConfigError, InfeasibleSeparation
from cbsel.features import FeatureStore, hidden_labels, save_features
from cbsel.protocol import SessionPlan, SessionSpec
from cbsel.seeding import derive_rng


def config(**overrides):
    defaults = dict(
        num_sessions=2, classes_per_session=5, dim=16, pool_per_class=30,
        test_per_class=8, separation=8.0, imbalance_ratio=1.0, seed=3, budget=20,
    )
    defaults.update(overrides)
    return WorldConfig(**defaults)


def labels_by_id(store):
    """The hidden class of each id of a generated store, whose ids are 0..N-1."""
    ids, classes = hidden_labels(store, "metrics")
    np.testing.assert_array_equal(ids, np.arange(len(store)))
    return classes


def assert_same_labels(a, b):
    for x, y in zip(hidden_labels(a, "metrics"), hidden_labels(b, "metrics")):
        np.testing.assert_array_equal(x, y)


class TestWorldConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            config(num_sessions=0)
        with pytest.raises(ConfigError):
            config(separation=0.0)
        with pytest.raises(ConfigError):
            config(imbalance_ratio=0.5)
        with pytest.raises(ConfigError):
            config(sigma=0.0)
        with pytest.raises(ConfigError):
            config(budget=0)

    def test_dict_round_trip(self):
        cfg = config(imbalance_ratio=4.0)
        assert WorldConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        d = config().to_dict()
        d["n_samples"] = 5
        with pytest.raises(ConfigError):
            WorldConfig.from_dict(d)

    def test_load(self, tmp_path):
        import json
        path = tmp_path / "world.json"
        path.write_text(json.dumps(config().to_dict()))
        assert WorldConfig.load(path) == config()


class TestPoolSizes:
    def test_uniform_limit(self):
        assert pool_sizes(config(imbalance_ratio=1.0)) == [30] * 5

    def test_head_tail_ratio_ten(self):
        cfg = config(classes_per_session=20, imbalance_ratio=10.0)
        sizes = pool_sizes(cfg)
        assert len(sizes) == 20
        assert sizes[0] == 30
        assert sizes[-1] == 3
        assert sizes[0] / sizes[-1] == 10.0

    def test_monotone_non_increasing(self):
        sizes = pool_sizes(config(classes_per_session=12, imbalance_ratio=7.0))
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_single_class(self):
        assert pool_sizes(config(classes_per_session=1)) == [30]

    def test_never_below_one(self):
        sizes = pool_sizes(config(pool_per_class=2, imbalance_ratio=50.0))
        assert min(sizes) == 1


class TestPlaceCenters:
    def test_pairwise_separation_honored(self):
        cfg = config()
        centers = place_centers(cfg)
        assert centers.shape == (10, 16)
        np.testing.assert_allclose(np.linalg.norm(centers, axis=1), 1.0, atol=1e-9)
        min_dist = cfg.separation * cfg.sigma
        for i in range(10):
            for j in range(i + 1, 10):
                assert np.linalg.norm(centers[i] - centers[j]) >= min_dist - 1e-12

    def test_infeasible_separation(self, monkeypatch):
        monkeypatch.setattr(datagen, "_MAX_REPULSION_ROUNDS", 25)
        cfg = config(num_sessions=2, classes_per_session=3, dim=2,
                     separation=150.0)  # min distance 3 > sphere diameter 2
        with pytest.raises(InfeasibleSeparation) as err:
            place_centers(cfg)
        assert err.value.attempted == 25

    def test_one_dimension_same_pole_pair_is_placed_at_once(self, monkeypatch):
        # Both centers of this world are drawn at the same pole. No repulsion
        # round may run: the later class takes the other pole directly.
        monkeypatch.setattr(datagen, "_MAX_REPULSION_ROUNDS", 0)
        cfg = config(num_sessions=2, classes_per_session=1, dim=1, seed=2)
        drawn = datagen._sphere_points(derive_rng(2, "centers"), 2, 1)
        assert drawn[0, 0] == drawn[1, 0]
        centers = place_centers(cfg)
        np.testing.assert_array_equal(centers, [drawn[0], -drawn[0]])
        store, plan = generate(cfg)
        np.testing.assert_array_equal(np.sort(np.unique(store.vectors)), [-1.0, 1.0])

    @pytest.mark.parametrize("overrides, reason", [
        (dict(num_sessions=3), "3 classes in one dimension"),
        (dict(separation=11.0, sigma=0.2), "minimum distance of 2.2"),
    ])
    def test_one_dimension_infeasible_raises_at_once(self, monkeypatch, overrides, reason):
        monkeypatch.setattr(datagen, "_MAX_REPULSION_ROUNDS", 3)
        cfg = config(**{"num_sessions": 2, "classes_per_session": 1, "dim": 1, **overrides})
        with pytest.raises(InfeasibleSeparation, match=reason) as err:
            place_centers(cfg)
        assert err.value.attempted == 0


class TestGenerate:
    def test_store_and_plan_shapes(self):
        store, plan = generate(config())
        assert store.normalized
        assert len(plan.sessions) == 2
        per_session = 5 * 30 + 5 * 8
        assert len(store) == 2 * per_session
        plan.validate()
        assert plan.budget == 20
        assert plan.seed == 3

    def test_session_classes_are_contiguous_blocks(self):
        _, plan = generate(config())
        assert plan.sessions[0].class_space == (0, 1, 2, 3, 4)
        assert plan.sessions[1].class_space == (5, 6, 7, 8, 9)

    def test_pools_carry_only_session_classes(self):
        store, plan = generate(config())
        labels = labels_by_id(store)
        for sess in plan.sessions:
            pool_classes = {labels[i] for i in sess.pool_ids}
            assert pool_classes == set(sess.class_space)

    def test_test_sets_are_balanced(self):
        store, plan = generate(config(imbalance_ratio=6.0))
        labels = labels_by_id(store)
        for sess in plan.sessions:
            counts: dict[int, int] = {}
            for i in sess.test_ids:
                counts[labels[i]] = counts.get(labels[i], 0) + 1
            assert counts == {c: 8 for c in sess.class_space}

    def test_long_tail_pool_counts(self):
        cfg = config(classes_per_session=20, imbalance_ratio=10.0, budget=10)
        store, plan = generate(cfg)
        labels = labels_by_id(store)
        counts: dict[int, int] = {}
        for i in plan.sessions[0].pool_ids:
            counts[labels[i]] = counts.get(labels[i], 0) + 1
        sizes = pool_sizes(cfg)
        assert [counts[c] for c in plan.sessions[0].class_space] == sizes

    def test_regeneration_is_byte_identical(self, tmp_path):
        store_a, plan_a = generate(config(seed=99))
        store_b, plan_b = generate(config(seed=99))
        np.testing.assert_array_equal(store_a.vectors, store_b.vectors)
        np.testing.assert_array_equal(store_a.ids, store_b.ids)
        assert_same_labels(store_a, store_b)
        assert plan_a == plan_b
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        save_features(store_a, pa)
        save_features(store_b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seeds_differ(self):
        store_a, _ = generate(config(seed=1))
        store_b, _ = generate(config(seed=2))
        assert not np.array_equal(store_a.vectors, store_b.vectors)

    def test_per_class_mean_near_center(self):
        cfg = config(pool_per_class=100, imbalance_ratio=1.0)
        store, plan = generate(cfg)
        centers = place_centers(cfg)
        labels = labels_by_id(store)
        bound = 3.0 * cfg.sigma * np.sqrt(cfg.dim) / np.sqrt(100)
        for sess in plan.sessions:
            for c in sess.class_space:
                ids = [i for i in sess.pool_ids if labels[i] == c]
                mean = store.vectors_for(ids).mean(axis=0)
                assert np.linalg.norm(mean - centers[c]) <= bound

    def test_nearest_center_oracle_is_nearly_perfect(self):
        cfg = config(separation=20.0, pool_per_class=50, classes_per_session=4)
        store, plan = generate(cfg)
        centers = place_centers(cfg)
        labels = labels_by_id(store)
        pool_ids = [i for sess in plan.sessions for i in sess.pool_ids]
        x = store.vectors_for(pool_ids)
        truth = np.asarray([labels[i] for i in pool_ids])
        predicted = np.argmax(x @ centers.T, axis=1)
        assert float(np.mean(predicted == truth)) >= 0.99


# The class-by-class world generation and the C x C x D close-center search
# that `generate` and `place_centers` replaced, kept as the bit-for-bit
# reference for them. `derive_rng` is looked up in this module at call time,
# so a test can patch it here and in `datagen` alike.

def reference_place_centers(config):
    rng = derive_rng(config.seed, "centers")
    centers = datagen._sphere_points(rng, config.num_classes, config.dim)
    min_dist = config.separation * config.sigma
    step = 0.5 * min_dist
    for _ in range(datagen._MAX_REPULSION_ROUNDS):
        diff = centers[:, None, :] - centers[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        np.fill_diagonal(dist, np.inf)
        bad_i, bad_j = np.where(dist < min_dist)
        if bad_i.size == 0:
            return centers
        for i, j in zip(bad_i, bad_j):
            if i >= j:
                continue
            gap = centers[i] - centers[j]
            d = float(np.linalg.norm(gap))
            direction = gap / d if d > 0.0 else datagen._sphere_points(rng, 1, config.dim)[0]
            centers[i] = centers[i] + step * direction
            centers[j] = centers[j] - step * direction
        norms = np.linalg.norm(centers, axis=1)
        stuck = norms == 0.0
        if np.any(stuck):
            centers[stuck] = datagen._sphere_points(rng, int(stuck.sum()), config.dim)
            norms[stuck] = 1.0
        centers = centers / norms[:, None]
    raise InfeasibleSeparation(attempted=datagen._MAX_REPULSION_ROUNDS)


def reference_blob(rng, center, sigma, n):
    x = center[None, :] + sigma * rng.standard_normal((n, center.shape[0]))
    norms = np.linalg.norm(x, axis=1)
    while np.any(norms == 0.0):
        redo = norms == 0.0
        x[redo] = center[None, :] + sigma * rng.standard_normal((int(redo.sum()), center.shape[0]))
        norms = np.linalg.norm(x, axis=1)
    return x / norms[:, None]


def reference_generate(config):
    centers = reference_place_centers(config)
    sizes = pool_sizes(config)
    vec_blocks, labels, sessions = [], [], []
    next_id = 0
    for t in range(config.num_sessions):
        class_ids = [t * config.classes_per_session + i
                     for i in range(config.classes_per_session)]
        pool_ids, test_blocks = [], []
        for i, c in enumerate(class_ids):
            rng = derive_rng(config.seed, "class", c)
            vec_blocks.append(reference_blob(rng, centers[c], config.sigma, sizes[i]))
            test_blocks.append((c, reference_blob(rng, centers[c], config.sigma,
                                                  config.test_per_class)))
            labels.extend([c] * sizes[i])
            pool_ids.extend(range(next_id, next_id + sizes[i]))
            next_id += sizes[i]
        test_ids = []
        for c, block in test_blocks:
            vec_blocks.append(block)
            labels.extend([c] * config.test_per_class)
            test_ids.extend(range(next_id, next_id + config.test_per_class))
            next_id += config.test_per_class
        sessions.append(SessionSpec(tuple(class_ids), tuple(pool_ids), tuple(test_ids)))
    store = FeatureStore(np.vstack(vec_blocks), labels=labels, normalized=True)
    return store, SessionPlan(tuple(sessions), budget=config.budget, seed=config.seed).validate()


def assert_same_world(cfg):
    store, plan = generate(cfg)
    want_store, want_plan = reference_generate(cfg)
    assert store.vectors.tobytes() == want_store.vectors.tobytes()
    np.testing.assert_array_equal(store.ids, want_store.ids)
    assert_same_labels(store, want_store)
    assert plan == want_plan
    assert store.normalized


# The world shapes of perfbench/workloads.py, with the seed left to the test.
BENCHMARK_WORLDS = {
    "cbs_large_pool": dict(num_sessions=2, classes_per_session=100, dim=16,
                           pool_per_class=400, test_per_class=10, separation=3.0,
                           imbalance_ratio=10.0, sigma=0.2, budget=3000),
    "uncertainty_rounds": dict(num_sessions=5, classes_per_session=50, dim=64,
                               pool_per_class=200, test_per_class=10, separation=3.0,
                               imbalance_ratio=10.0, sigma=0.1, budget=500),
    "quality_sweep": dict(num_sessions=5, classes_per_session=20, dim=16,
                          pool_per_class=30, test_per_class=10, separation=3.0,
                          imbalance_ratio=10.0, sigma=0.2, budget=100),
}


class TestMatchesReference:
    @pytest.mark.parametrize("seed", [0, 7, 21])
    @pytest.mark.parametrize("world", sorted(BENCHMARK_WORLDS))
    def test_benchmark_worlds(self, world, seed):
        assert_same_world(WorldConfig(seed=seed, **BENCHMARK_WORLDS[world]))

    # 28, 19 and 7 repulsion rounds; the small block splits the close-center
    # search into many blocks, one or two rows each.
    @pytest.mark.parametrize("block", [datagen._CLOSE_PAIR_ELEMENTS, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_crowded_world_needs_several_repulsion_rounds(self, monkeypatch, seed, block):
        monkeypatch.setattr(datagen, "_CLOSE_PAIR_ELEMENTS", block)
        cfg = config(num_sessions=3, classes_per_session=4, dim=2, separation=18.0,
                     imbalance_ratio=3.0, seed=seed)
        np.testing.assert_array_equal(place_centers(cfg), reference_place_centers(cfg))
        assert_same_world(cfg)

    @pytest.mark.parametrize("overrides", [
        dict(num_sessions=2, classes_per_session=1, dim=1, seed=0),
        dict(num_sessions=2, classes_per_session=1, dim=1, seed=4),
        dict(classes_per_session=1),
        dict(test_per_class=1, imbalance_ratio=4.0),
        dict(imbalance_ratio=1.0, pool_per_class=1, budget=2),
    ])
    def test_corners(self, overrides):
        assert_same_world(config(**overrides))


class ZeroRowStream:
    """A class stream whose `call`-th draw starts with the row -center.

    With sigma = 1 that row lands exactly on the origin, a zero-norm row.
    """

    def __init__(self, rng, center, call):
        self.rng, self.center, self.call = rng, center, call
        self.calls = 0

    def standard_normal(self, size=None, out=None):
        draws = self.rng.standard_normal(size, out=out)
        if self.calls == self.call:
            draws[0] = -self.center
        self.calls += 1
        return draws


class TestZeroNormRedraw:
    @pytest.mark.parametrize("call", [0, 1], ids=["pool_row", "test_row"])
    def test_redraw_keeps_the_reference_draw_order(self, monkeypatch, call):
        cfg = config(sigma=1.0, separation=0.5, classes_per_session=3)
        centers = place_centers(cfg)
        opened = []
        real = derive_rng

        def patched(root, *labels):
            rng = real(root, *labels)
            if labels == ("class", 4):
                opened.append(labels)
                return ZeroRowStream(rng, centers[4], call)
            return rng

        monkeypatch.setattr(datagen, "derive_rng", patched)
        store, plan = generate(cfg)
        assert len(opened) == 2  # the draw, then the rebuild from a fresh stream
        monkeypatch.setattr(sys.modules[__name__], "derive_rng", patched)
        want_store, want_plan = reference_generate(cfg)
        assert store.vectors.tobytes() == want_store.vectors.tobytes()
        assert_same_labels(store, want_store)
        assert plan == want_plan
        np.testing.assert_allclose(np.linalg.norm(store.vectors, axis=1), 1.0)


def test_close_center_search_memory_stays_far_below_the_full_tensor():
    # 1,000 classes at D = 64: the C x C x D difference tensor alone is 512 MB.
    cfg = WorldConfig(num_sessions=10, classes_per_session=100, dim=64, seed=5)
    tracemalloc.start()
    try:
        centers = place_centers(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert centers.shape == (1000, 64)
    assert peak < 64 * 2**20
