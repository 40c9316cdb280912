import dataclasses
import math

import numpy as np
import pytest

from cbsel import learner, protocol
from cbsel.baselines import (
    LogitTable,
    SoftmaxStats,
    _top,
    cosine_logits,
    logit_scale,
    pool_columns,
    random_select,
    softmax_stats,
)
from cbsel.config import RunConfig
from cbsel.datagen import WorldConfig, generate
from cbsel.errors import (
    ConfigError,
    EmptyTestSet,
    LabelOutsideSessionSpace,
    PlanError,
    SessionFailure,
    UnknownId,
    UnlabeledId,
)
from cbsel.features import FeatureStore
from cbsel.gaussian import kl_divergence
from cbsel.learner import (
    PrototypeClassifier,
    new_class_prototypes,
    train_session,
)
from cbsel.protocol import (
    STRATEGIES,
    Oracle,
    SessionPlan,
    SessionReport,
    SessionSpec,
    discovery_ratio,
    evaluate,
    imbalance_ratio,
    report_from_dict,
    report_json,
    report_to_dict,
    run,
    selected_vs_full_kl,
)
from cbsel.seeding import derive_seed
from cbsel.selection import Selection
from reference_impls import Float64LogitTable, Float64Stats, estimate, predict_proba_matrix


def tiny_world(seed=0, **overrides):
    defaults = dict(
        num_sessions=2, classes_per_session=3, dim=8, pool_per_class=20,
        test_per_class=5, separation=8.0, imbalance_ratio=1.0, seed=seed, budget=9,
    )
    defaults.update(overrides)
    return generate(WorldConfig(**defaults))


def spec(classes, pool, test):
    return SessionSpec(tuple(classes), tuple(pool), tuple(test))


class TestSessionPlanValidation:
    def base_plan(self):
        return SessionPlan(
            sessions=(
                spec([0, 1], range(0, 10), range(10, 14)),
                spec([2, 3], range(20, 30), range(30, 34)),
            ),
            budget=5,
            seed=1,
        )

    def test_valid_plan_passes(self):
        assert self.base_plan().validate() is not None

    def test_no_sessions(self):
        with pytest.raises(PlanError):
            SessionPlan(sessions=(), budget=1, seed=0).validate()

    def test_overlapping_class_spaces(self):
        plan = SessionPlan(
            sessions=(
                spec([0, 1], range(0, 10), range(10, 14)),
                spec([1, 2], range(20, 30), range(30, 34)),
            ),
            budget=5, seed=0,
        )
        with pytest.raises(PlanError):
            plan.validate()

    def test_pool_test_overlap_within_session(self):
        plan = SessionPlan(
            sessions=(spec([0], range(0, 10), range(9, 12)),), budget=5, seed=0
        )
        with pytest.raises(PlanError):
            plan.validate()

    def test_id_reuse_across_sessions(self):
        plan = SessionPlan(
            sessions=(
                spec([0], range(0, 10), range(10, 12)),
                spec([1], range(5, 15), range(20, 22)),
            ),
            budget=5, seed=0,
        )
        with pytest.raises(PlanError):
            plan.validate()

    def test_budget_larger_than_a_pool(self):
        plan = SessionPlan(
            sessions=(spec([0], range(0, 4), range(4, 6)),), budget=5, seed=0
        )
        with pytest.raises(PlanError):
            plan.validate()

    def test_json_round_trip(self, tmp_path):
        plan = self.base_plan()
        path = tmp_path / "plan.json"
        plan.save(path)
        assert SessionPlan.load(path) == plan
        again = tmp_path / "again.json"
        SessionPlan.load(path).save(again)
        assert again.read_bytes() == path.read_bytes()


class TestOracle:
    def test_from_store_and_lookup(self):
        store = FeatureStore(np.eye(3), labels=[4, 5, 6])
        oracle = Oracle.from_store(store)
        assert (oracle.ids.tolist(), oracle.classes.tolist()) == ([0, 1, 2], [4, 5, 6])
        assert oracle.store_ids is store.ids
        assert oracle.labels_of([1]).tolist() == [5]
        assert oracle.labels_of([2, 0]).tolist() == [6, 4]

    def test_unknown_id(self):
        oracle = Oracle.from_store(FeatureStore(np.eye(2), labels=[0, 1]))
        with pytest.raises(UnknownId):
            oracle.labels_of([9])

    def test_labels_of_keeps_the_given_order(self):
        oracle = Oracle.from_store(FeatureStore(np.eye(4), ids=[8, 2, 6, 4], labels=[1, 0, 3, 2]))
        np.testing.assert_array_equal(oracle.labels_of([6, 2, 8, 6]), [3, 0, 1, 3])
        assert oracle.labels_of([]).shape == (0,)

    def test_labels_of_names_the_first_id_without_a_label(self):
        # Row 1 of the store has no label; id 9 is not in the store at all.
        oracle = Oracle.from_store(FeatureStore(np.eye(3), labels=[4, -1, 6]))
        with pytest.raises(UnknownId) as unknown:
            oracle.labels_of([0, 9, 1])
        assert unknown.value.row_id == 9
        with pytest.raises(UnlabeledId) as unlabeled:
            oracle.labels_of([2, 1, 9])
        assert unlabeled.value.row_id == 1
        # A store without labels: each of its ids is unlabeled, others unknown.
        oracle = Oracle.from_store(FeatureStore(np.eye(2), ids=[3, 5]))
        assert len(oracle.ids) == 0
        with pytest.raises(UnlabeledId):
            oracle.labels_of([5])
        with pytest.raises(UnknownId):
            oracle.labels_of([4])
        with pytest.raises(UnknownId):
            oracle.labels_of([6])
        # An empty store: every id is unknown.
        with pytest.raises(UnknownId) as unknown:
            Oracle.from_store(FeatureStore(np.zeros((0, 2)))).labels_of([7, 3])
        assert unknown.value.row_id == 7


class TestMetrics:
    def test_imbalance_perfect_balance(self):
        assert imbalance_ratio({0: 5, 1: 5, 2: 5, 3: 5}) == 1.0

    def test_imbalance_simple_ratio(self):
        assert imbalance_ratio({0: 10, 1: 2}) == 5.0

    def test_imbalance_undiscovered_class(self):
        assert math.isinf(imbalance_ratio({0: 7, 1: 0}))

    def test_discovery_all(self):
        assert discovery_ratio({0: 3, 1: 1}) == 1.0

    def test_discovery_half(self):
        assert discovery_ratio({0: 3, 1: 0}) == 0.5

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            imbalance_ratio({})
        with pytest.raises(ValueError):
            discovery_ratio({})


class TestSelectedVsFullKl:
    def labeled_pool(self):
        rng = np.random.default_rng(7)
        labels = [0] * 10 + [1] * 10
        return FeatureStore(rng.standard_normal((20, 3)), labels=labels)

    def test_full_selection_gives_zero(self):
        store = self.labeled_pool()
        oracle = Oracle.from_store(store)
        kl = selected_vs_full_kl(list(range(20)), store, oracle)
        assert set(kl) == {0, 1}
        assert kl[0] == 0.0
        assert kl[1] == 0.0

    def test_singleton_selection_is_finite(self):
        store = self.labeled_pool()
        oracle = Oracle.from_store(store)
        kl = selected_vs_full_kl([0, 10], store, oracle)
        assert all(math.isfinite(v) and v > 0.0 for v in kl.values())

    def test_unselected_class_omitted(self):
        store = self.labeled_pool()
        oracle = Oracle.from_store(store)
        kl = selected_vs_full_kl([0, 1, 2], store, oracle)
        assert set(kl) == {0}

    def test_matches_a_per_class_loop_bit_for_bit(self):
        rng = np.random.default_rng(3)
        store = FeatureStore(rng.standard_normal((60, 4)), labels=rng.integers(0, 5, 60))
        oracle = Oracle.from_store(store)
        selected = rng.choice(60, 17, replace=False).tolist()
        expected = {}
        labels = oracle.labels_of(np.arange(60))
        for c in range(5):
            members = np.flatnonzero(labels == c).tolist()
            chosen = [i for i in members if i in selected]
            if chosen:
                expected[c] = float(kl_divergence(estimate(store.vectors_for(members), 0.01),
                                                  estimate(store.vectors_for(chosen), 0.01))[0])
        assert selected_vs_full_kl(selected, store, oracle, 0.01) == expected


class TestEvaluate:
    def test_constant_predictor_on_its_own_class(self):
        clf = PrototypeClassifier([0], [[1.0, 0.0]], 0.07)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 2))
        x /= np.linalg.norm(x, axis=1)[:, None]
        store = FeatureStore(x, labels=[0] * 10, normalized=True)
        assert evaluate(clf, store, Oracle.from_store(store)) == (1.0,)

    def test_chance_level_for_random_embeddings(self):
        accs = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((2, 6))
            g /= np.linalg.norm(g, axis=1)[:, None]
            clf = PrototypeClassifier([0, 1], g, 0.07)
            x = rng.standard_normal((100, 6))
            x /= np.linalg.norm(x, axis=1)[:, None]
            labels = np.repeat([0, 1], 50)
            store = FeatureStore(x, labels=labels, normalized=True)
            accs.extend(evaluate(clf, store, Oracle.from_store(store)))
        assert abs(float(np.mean(accs)) - 0.5) <= 0.1

    def test_perfect_prototypes(self):
        store, plan = tiny_world(seed=3)
        sess = plan.sessions[0]
        oracle = Oracle.from_store(store)
        protos = []
        pool_ids = np.array(sess.pool_ids)
        classes = sorted(sess.class_space)
        for c in classes:
            ids = pool_ids[oracle.labels_of(pool_ids) == c]
            m = store.vectors_for(ids).mean(axis=0)
            protos.append(m / np.linalg.norm(m))
        clf = PrototypeClassifier(classes, protos, 0.07)
        assert evaluate(clf, store.subset(sess.test_ids), oracle) == (1.0,)

    @pytest.mark.parametrize("sessions", [1, 2])
    def test_grouped_accuracies_equal_three_evaluate_calls(self, sessions):
        store, plan = tiny_world(seed=6)
        store = store.l2_normalize()
        oracle = Oracle.from_store(store)
        specs = plan.sessions[:sessions]
        new = specs[-1].class_space
        old = [c for s in specs[:-1] for c in s.class_space]
        classes = tuple(sorted((*new, *old)))
        g = np.random.default_rng(1).standard_normal((len(classes), store.dim))
        clf = PrototypeClassifier(classes, g / np.linalg.norm(g, axis=1)[:, None], 0.07)
        ids = np.array([i for s in specs for i in s.test_ids])
        labels = oracle.labels_of(ids)
        want = (
            *evaluate(clf, store.subset(ids), oracle),
            *evaluate(clf, store.subset(ids[np.isin(labels, new)]), oracle),
            *(evaluate(clf, store.subset(ids[np.isin(labels, old)]), oracle) if old else (None,)),
        )
        assert evaluate(clf, store.subset(ids), oracle, groups=(new, old)) == want
        assert 0.0 < want[0] < 1.0

    def test_empty_test_set(self):
        clf = PrototypeClassifier([0], [[1.0, 0.0]], 0.07)
        store = FeatureStore(np.ones((1, 2)), normalized=True).subset([])
        with pytest.raises(EmptyTestSet):
            evaluate(clf, store, Oracle.from_store(store))


class TestRun:
    def test_full_supervision_is_perfect(self):
        store, plan = tiny_world(seed=1, num_sessions=1)
        pool_size = len(plan.sessions[0].pool_ids)
        plan = SessionPlan(sessions=plan.sessions, budget=pool_size, seed=plan.seed)
        report = run(plan, "random", store)
        assert report.per_session[0].accuracy == 1.0
        assert report.avg == 1.0

    def test_avg_is_the_mean(self):
        store, plan = tiny_world(seed=2)
        report = run(plan, "cbs", store)
        accs = [s.accuracy for s in report.per_session]
        assert abs(report.avg - float(np.mean(accs))) < 1e-12

    def test_every_strategy_yields_a_valid_report(self):
        store, plan = tiny_world(seed=4)
        for strategy in ("random", "balanced_random", "entropy", "margin", "coreset", "cbs"):
            report = run(plan, strategy, store)
            assert report.strategy == strategy
            assert len(report.per_session) == 2
            for t, s in enumerate(report.per_session, start=1):
                assert s.session == t
                assert 0.0 <= s.accuracy <= 1.0
                assert len(s.selected_ids) == plan.budget
                pool = set(plan.sessions[t - 1].pool_ids)
                assert set(s.selected_ids) <= pool
                assert set(s.per_class_counts) == set(plan.sessions[t - 1].class_space)
                assert sum(s.per_class_counts.values()) == plan.budget

    def test_determinism(self):
        store, plan = tiny_world(seed=5)
        a = run(plan, "cbs", store)
        b = run(plan, "cbs", store)
        assert report_to_dict(a, include_timestamp=False) == report_to_dict(b, include_timestamp=False)

    def test_past_sessions_do_not_depend_on_future_ones(self):
        store, plan = tiny_world(seed=6)
        prefix = SessionPlan(sessions=plan.sessions[:1], budget=plan.budget, seed=plan.seed)
        full = run(plan, "cbs", store)
        short = run(prefix, "cbs", store)
        a = report_to_dict(full, include_timestamp=False)["per_session"][0]
        b = report_to_dict(short, include_timestamp=False)["per_session"][0]
        assert a == b

    def test_old_and_new_accuracy_split(self):
        store, plan = tiny_world(seed=7)
        report = run(plan, "cbs", store)
        first, second = report.per_session
        assert first.accuracy_old is None
        assert first.accuracy_new == first.accuracy
        assert second.accuracy_old is not None
        # the union accuracy is a weighted mean of the old and new parts
        n_old = len(plan.sessions[0].test_ids)
        n_new = len(plan.sessions[1].test_ids)
        blended = (second.accuracy_old * n_old + second.accuracy_new * n_new) / (n_old + n_new)
        assert abs(second.accuracy - blended) < 1e-12

    def test_multi_round_uncertainty_with_small_rounds(self):
        store, plan = tiny_world(seed=8)
        cfg = RunConfig(round_size=4)
        report = run(plan, "entropy", store, cfg)
        for s, sess in zip(report.per_session, plan.sessions):
            assert len(s.selected_ids) == plan.budget
            assert len(set(s.selected_ids)) == plan.budget
            assert set(s.selected_ids) <= set(sess.pool_ids)

    def test_unlabeled_distribution_toggle_runs(self):
        store, plan = tiny_world(seed=9)
        on = run(plan, "cbs", store, RunConfig(use_unlabeled_distributions=True))
        off = run(plan, "cbs", store, RunConfig(use_unlabeled_distributions=False))
        assert on.use_unlabeled_distributions
        assert not off.use_unlabeled_distributions
        # fix the selection seed, so both variants label the same ids
        assert on.per_session[0].selected_ids == off.per_session[0].selected_ids

    def test_session_failure_carries_the_index(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((12, 4))
        x /= np.linalg.norm(x, axis=1)[:, None]
        store = FeatureStore(x, labels=[0] * 6 + [1] * 6, normalized=True)
        plan = SessionPlan(
            sessions=(
                spec([0], range(0, 4), range(4, 6)),
                spec([7], range(6, 10), range(10, 12)),  # labels there are 1, not 7
            ),
            budget=2, seed=0,
        )
        with pytest.raises(SessionFailure) as err:
            run(plan, "random", store)
        assert err.value.session == 2

    def test_session_without_own_test_rows_fails(self):
        store, plan = tiny_world(seed=3)
        first, second = plan.sessions
        plan = dataclasses.replace(plan, sessions=(first, dataclasses.replace(second, test_ids=())))
        with pytest.raises(SessionFailure, match="no test sample of its own classes") as err:
            run(plan, "random", store)
        assert err.value.session == 2
        assert isinstance(err.value.__cause__, EmptyTestSet)

    @pytest.mark.parametrize("strategy", ["cbs", "margin"])
    def test_sessions_with_lower_class_ids_merge_in_class_order(self, monkeypatch, strategy):
        # Generated worlds number classes upward; reversed, every session's
        # classes fall below the ones already learned.
        store, plan = tiny_world(seed=5, num_sessions=3)
        plan = dataclasses.replace(plan, sessions=plan.sessions[::-1])
        seen = []
        train = protocol.train_session

        def spy(clf, buffer, *args, **kwargs):
            out = train(clf, buffer, *args, **kwargs)
            seen.append((buffer.distributions.classes.tolist(), out.classes.tolist()))
            return out

        monkeypatch.setattr(protocol, "train_session", spy)
        cfg = RunConfig(use_unlabeled_distributions=True)
        report = run(plan, strategy, store, cfg)
        learned = []
        for (buffered, classes), sess, sess_report in zip(seen, plan.sessions, report.per_session):
            assert buffered == learned
            assert classes == sorted(learned + [c for c, n in sess_report.per_class_counts.items()
                                                if n])
            learned = classes
        assert learned[0] < plan.sessions[0].class_space[0]

    def test_var_floor_reaches_the_replay_gaussians(self, monkeypatch):
        stored = []
        estimate_class_distributions = protocol.estimate_class_distributions

        def spy(*args, **kwargs):
            out = estimate_class_distributions(*args, **kwargs)
            stored.append(out)
            return out

        monkeypatch.setattr(protocol, "estimate_class_distributions", spy)
        store, plan = tiny_world(seed=4)
        for pseudo in (False, True):
            stored.clear()
            run(plan, "random", store, RunConfig(var_floor=0.25, use_unlabeled_distributions=pseudo))
            assert stored
            assert all(g.var.min() >= 0.25 for g in stored)

    def test_unknown_strategy_is_a_config_error(self):
        # Raised before the first session: a failure inside one would
        # surface as SessionFailure instead.
        store, plan = tiny_world(seed=3)
        with pytest.raises(ConfigError, match="zestful"):
            run(plan, "zestful", store)


def full_softmax_pick(strategy, store, budget, clf):
    """Single-shot entropy or margin pick from the full softmax matrix."""
    probs = predict_proba_matrix(clf, store.vectors)
    if strategy == "entropy":
        key = np.sum(np.where(probs > 0.0, probs * np.log(probs), 0.0), axis=1)
    else:
        top2 = np.sort(probs, axis=1)[:, -2:]
        key = top2[:, 1] - top2[:, 0]
    order = np.lexsort((store.ids, key))
    return Selection(ids=[int(store.ids[i]) for i in order[:budget]])


def retrain_every_round(strategy):
    """The round loop as it was before rehearsal moved out of the rounds:
    retrain with replay before every round, on a per-round stream, and
    rescore the remaining pool with a full softmax. It hands no rehearsed
    classifier on, so the training step rehearses for itself."""

    def select(t, sess, plan, score_fn, cfg, work, pool, oracle, clf, buffer):
        selected = []
        remaining = [int(i) for i in sess.pool_ids]
        round_idx = 0
        while len(selected) < plan.budget:
            k = min(cfg.round_size, plan.budget - len(selected))
            round_clf = clf
            if selected:
                round_clf = train_session(
                    clf, buffer, (selected, oracle.labels_of(selected)), work,
                    replay_per_class=cfg.replay_per_class,
                    seed=derive_seed(plan.seed, "session", t, "round", round_idx),
                    class_space=sess.class_space, alpha=cfg.alpha,
                )
            sub = pool.subset(remaining)
            if round_clf.num_classes >= 2:
                picked = full_softmax_pick(strategy, sub, k, round_clf)
            else:
                picked = random_select(
                    sub, k, derive_seed(plan.seed, "session", t, "fallback", round_idx))
            selected.extend(picked.ids)
            chosen = set(picked.ids)
            remaining = [i for i in remaining if i not in chosen]
            round_idx += 1
        return Selection(ids=selected), None

    return select


class TestUncertaintyRounds:
    @pytest.mark.parametrize("strategy", ["margin", "entropy"])
    @pytest.mark.parametrize("no_replay", [{"replay_per_class": 0}, {"alpha": 1.0}])
    @pytest.mark.parametrize("world", [
        {"seed": 8},
        {"seed": 12, "classes_per_session": 5, "separation": 2.0, "budget": 14},
    ])
    def test_without_replay_rounds_pick_like_retraining_every_round(
            self, monkeypatch, strategy, no_replay, world):
        store, plan = tiny_world(**world)
        cfg = RunConfig(round_size=4, **no_replay)
        got = run(plan, strategy, store, cfg)
        monkeypatch.setattr(protocol, "_select_uncertainty_rounds", retrain_every_round(strategy))
        want = run(plan, strategy, store, cfg)
        assert [s.selected_ids for s in got.per_session] == [s.selected_ids for s in want.per_session]

    @pytest.mark.parametrize("strategy", ["margin", "entropy"])
    def test_round_prototypes_equal_a_rebuild_from_every_label(self, monkeypatch, strategy):
        # Every round after the first sets the prototypes of the classes
        # labeled in the round before, from label sums carried across rounds;
        # they must be the bits new_class_prototypes gives from every label
        # so far, and no other class may be set.
        updates, sessions = [], []
        update = LogitTable.update

        def spy_update(table, classes, prototypes):
            updates.append((list(classes), prototypes.copy()))
            update(table, classes, prototypes)

        select = protocol._select_uncertainty_rounds

        def spy(t, sess, plan, score_fn, cfg, work, pool, oracle, clf, buffer):
            first = len(updates)
            selection, rehearsed = select(t, sess, plan, score_fn, cfg, work, pool, oracle, clf, buffer)
            sessions.append((updates[first:], selection, sess, plan, cfg, work, oracle, clf))
            return selection, rehearsed

        monkeypatch.setattr(LogitTable, "update", spy_update)
        monkeypatch.setattr(protocol, "_select_uncertainty_rounds", spy)
        store, plan = tiny_world(seed=12, classes_per_session=5, separation=2.0, budget=14)
        run(plan, strategy, store, RunConfig(round_size=3))
        assert len(sessions) == 2
        for session_updates, selection, sess, plan, cfg, work, oracle, clf in sessions:
            assert len(session_updates) == math.ceil(plan.budget / cfg.round_size) - 1
            for r, (classes, prototypes) in enumerate(session_updates):
                n = (r + 1) * cfg.round_size
                ids = selection.ids[:n]
                labels = oracle.labels_of(ids)
                assert classes == sorted(set(labels[n - cfg.round_size:].tolist()))
                want_classes, want = new_class_prototypes(clf, (ids, labels), work, sess.class_space)
                for c, prototype in zip(classes, prototypes):
                    np.testing.assert_array_equal(prototype, want[want_classes.searchsorted(c)])

    @pytest.mark.parametrize("strategy", ["margin", "entropy"])
    @pytest.mark.parametrize("round_size, world", [
        (3, {"seed": 12, "classes_per_session": 5, "separation": 2.0, "budget": 14}),
        # One label a round, so exactly one class is fresh in each round.
        (1, {"seed": 12, "classes_per_session": 5, "separation": 2.0, "budget": 14}),
        # About 1,100 pool rows a session, past BLAS's small-matrix path.
        (4, {"seed": 13, "classes_per_session": 8, "dim": 16, "pool_per_class": 140,
             "separation": 2.0, "budget": 24}),
    ])
    def test_rounds_pick_like_scoring_from_scratch(self, monkeypatch, strategy, round_size, world):
        # Each scored round against a from-scratch scoring of its open rows
        # in the program's float32 steps: SoftmaxStats.of the old classes
        # over a copy of the open rows, merged with the float32 cosine logits
        # of a classifier rebuilt from every label so far. The table computes
        # its columns over the whole pool and in other products, so the
        # statistics agree to a few float32 ulps rather than bit for bit;
        # the picks must be equal.
        rounds = []
        select = protocol._select_uncertainty_rounds

        def spy(t, sess, plan, score_fn, cfg, work, pool, oracle, clf, buffer):
            seen = []

            def scoring(store, budget, table, rows):
                picked = score_fn(store, budget, table, rows)
                seen.append((table.stats(), rows.copy(), picked.ids))
                return picked

            selection, rehearsed = select(t, sess, plan, scoring, cfg, work, pool, oracle, clf, buffer)
            for stats, rows, picked in seen:
                columns = pool_columns(pool.vectors[rows])
                want = SoftmaxStats.of(rehearsed, columns) if rehearsed.num_classes else None
                ids = selection.ids[:np.count_nonzero(~rows)]
                if ids:
                    new = new_class_prototypes(clf, (ids, oracle.labels_of(ids)), work,
                                               sess.class_space)
                    new_classes, protos = new
                    logits = cosine_logits(protos, columns, clf.temperature)
                    want = softmax_stats(tuple(new_classes.tolist()), logits, want)
                assert stats.classes == want.classes
                # In float32 ulps of the largest logit 1/T for top and second,
                # of z for z, and of z/T for s (which cancels); the worlds
                # below measured 0 for top and second and under 0.01 for z
                # and s.
                unit = logit_scale(clf.temperature)
                for name, scale, ulps in (("top", unit, 8), ("second", unit, 8),
                                          ("z", want.z, 32), ("s", want.z * unit, 16)):
                    error = np.abs(getattr(stats, name)[rows] - getattr(want, name))
                    assert np.all(error <= ulps * np.spacing(np.float32(scale))), name
                key = want.margin() if strategy == "margin" else -want.entropy()
                assert picked == _top(pool.ids[rows], key, len(picked)).ids
                rounds.append(t)
            return selection, rehearsed

        monkeypatch.setattr(protocol, "_select_uncertainty_rounds", spy)
        store, plan = tiny_world(num_sessions=3, **world)
        run(plan, strategy, store, RunConfig(round_size=round_size))
        assert len(rounds) >= 3 * math.ceil(plan.budget / round_size) - 3
        assert set(rounds) == {1, 2, 3}

    def test_a_label_outside_the_session_space_is_a_typed_error(self):
        store, plan = tiny_world(seed=8)
        first, second = plan.sessions
        plan = dataclasses.replace(plan, sessions=(first, dataclasses.replace(
            second, class_space=second.class_space[1:])))
        with pytest.raises(SessionFailure) as err:
            run(plan, "margin", store, RunConfig(round_size=4))
        assert err.value.session == 2
        assert isinstance(err.value.__cause__, LabelOutsideSessionSpace)

    def test_each_old_class_is_replayed_once_per_session(self, monkeypatch):
        # The rounds rehearse the old classes and the training step reuses
        # that classifier, so every session with old classes draws them all
        # from one replay stream, and a session without any draws none.
        calls = []
        derive_rng = learner.derive_rng

        def spy(root, *labels):
            calls.append((root, *labels))
            return derive_rng(root, *labels)

        monkeypatch.setattr(learner, "derive_rng", spy)
        store, plan = tiny_world(seed=8, num_sessions=3)
        for strategy in ("margin", "entropy"):
            calls.clear()
            run(plan, strategy, store, RunConfig(round_size=4))
            assert calls == [(derive_seed(plan.seed, "session", t, "train"), "replay")
                             for t in range(2, len(plan.sessions) + 1)]


# World configs of the float64-reference comparison: a tiny world, a
# quality_sweep world and a world sized like uncertainty_rounds' (the mid
# world: 5 sessions x 50 classes, D = 64, about 3.9k-row session pools).
REFERENCE_WORLDS = {
    "tiny": dict(seed=12, classes_per_session=5, separation=2.0, budget=14),
    "quality": dict(num_sessions=5, classes_per_session=20, dim=16, pool_per_class=30,
                    test_per_class=10, separation=3.0, imbalance_ratio=10.0, sigma=0.2,
                    budget=100, seed=20),
    "mid": dict(num_sessions=5, classes_per_session=50, dim=64, pool_per_class=200,
                test_per_class=10, separation=3.0, imbalance_ratio=10.0, sigma=0.1,
                budget=500, seed=1),
}


class TestFloat64Reference:
    @pytest.mark.parametrize("strategy, temperature, world", [
        *((strategy, temperature, world) for strategy in ("margin", "entropy")
          for temperature in (0.01, 0.07, 1.0) for world in sorted(REFERENCE_WORLDS)),
        # From about T = 10 entropy ranks a near-uniform softmax by
        # differences near float32 rounding; on the mid world the float32
        # picks share only part of each session's set with float64's.
        pytest.param("entropy", 100.0, "mid", marks=pytest.mark.xfail(
            strict=True, reason="entropy of a near-uniform softmax is below float32 resolution")),
    ])
    def test_picks_the_float64_scorers_sets(self, monkeypatch, strategy, temperature, world):
        # The float32 scorer picks each session's labels in another order at
        # most: near-tied keys may swap places within a round, but every
        # session selects the same set of ids as scoring in float64.
        store, plan = tiny_world(**REFERENCE_WORLDS[world])
        cfg = RunConfig(temperature=temperature)
        got = run(plan, strategy, store, cfg)
        monkeypatch.setattr(protocol, "LogitTable", Float64LogitTable)
        monkeypatch.setattr(protocol, "SoftmaxStats", Float64Stats)
        monkeypatch.setattr(protocol, "pool_columns", lambda vectors: vectors)
        want = run(plan, strategy, store, cfg)
        assert [set(s.selected_ids) for s in got.per_session] == \
            [set(s.selected_ids) for s in want.per_session]


class TestListingOrder:
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_reversed_plan_ids_give_the_same_report(self, strategy):
        # The store keeps rows in id order, so how a plan lists its pool and
        # test ids must not reach k-means, the tie-breaks or the metrics.
        store, plan = tiny_world(seed=11, separation=2.0, pool_per_class=30)
        reversed_plan = SessionPlan(
            sessions=tuple(
                spec(s.class_space, s.pool_ids[::-1], s.test_ids[::-1]) for s in plan.sessions
            ),
            budget=plan.budget, seed=plan.seed,
        )
        cfg = RunConfig(use_unlabeled_distributions=True)
        assert report_json(run(reversed_plan, strategy, store, cfg), include_timestamp=False) == \
            report_json(run(plan, strategy, store, cfg), include_timestamp=False)


class TestReportSerialization:
    def test_round_trip(self):
        store, plan = tiny_world(seed=10)
        report = run(plan, "cbs", store)
        back = report_from_dict(report_to_dict(report))
        assert report_to_dict(back) == report_to_dict(report)

    def test_infinity_sentinel(self):
        # budget 1 over 3 classes leaves classes unselected
        store, plan = tiny_world(seed=11, budget=1)
        report = run(plan, "random", store)
        d = report_to_dict(report)
        s = d["per_session"][0]
        assert s["imbalance_ratio"] is None
        assert s["undiscovered_class"] is True
        back = report_from_dict(d)
        assert math.isinf(back.per_session[0].imbalance_ratio)

    def test_session_keys_are_the_session_report_fields(self):
        store, plan = tiny_world(seed=13)
        d = report_to_dict(run(plan, "random", store))
        fields = {f.name for f in dataclasses.fields(SessionReport)}
        for s in d["per_session"]:
            assert set(s) == fields | {"undiscovered_class"}

    def test_timestamp_exclusion(self):
        store, plan = tiny_world(seed=12, num_sessions=1)
        report = run(plan, "random", store)
        with_ts = report_to_dict(report, include_timestamp=True)
        without = report_to_dict(report, include_timestamp=False)
        assert "created_at" in with_ts
        assert "created_at" not in without
