"""Release acceptance: one test per shipped guarantee, in a fixed order, each
asserting its stated tolerance and runtime budget. `pytest -v` prints one
verdict line per guarantee; runs with `-s` also echo the measured margins.

The greedy-equals-exhaustive match-rate target is expected to fail and is
marked as such rather than weakened: the mean-anchored greedy provably equals
the optimum for single picks, but for two or more picks the jointly optimal
subset usually straddles the cluster mean and excludes the anchor. Measured
match rates stay between 31% and 46% across cluster shapes. The guarantees
that do hold for that selector (never beating the exhaustive optimum, finite
gaps, runtime) are asserted separately and must pass.

The paper's claim, that class-balanced selection beats the coreset and
uncertainty baselines in session-average accuracy, is asserted on balanced
confusable worlds. On long-tailed ones CBS falls behind all three; that case
is a strict xfail that records the shortfall.
"""

import dataclasses
import json
import math
import statistics
import time

import numpy as np
import pytest

from cbsel.cli import main
from cbsel.config import RunConfig
from cbsel.datagen import WorldConfig, generate
from cbsel.features import FeatureStore, save_features
from cbsel.gaussian import ClassGaussians, kl_divergence
from cbsel.protocol import run
from cbsel.selection import cbs_select, greedy_select_cluster
from reference_impls import MomentAccumulator, brute_force_select, estimate

PAIRED_SEEDS = range(10)

KL_UNIT_MEAN_SHIFT = 0.5                  # kl(N(0,1), N(1,1))
KL_VARIANCE_QUADRUPLED = 0.3181471805599453  # kl(N(0,1), N(0,4)) = (ln(4) - 3/4) / 2


def _balanced_world(seed: int) -> WorldConfig:
    return WorldConfig(num_sessions=1, classes_per_session=5, dim=16,
                       pool_per_class=100, test_per_class=10, separation=8.0,
                       imbalance_ratio=1.0, seed=seed, budget=100)


def _longtail_world(seed: int) -> WorldConfig:
    return WorldConfig(num_sessions=5, classes_per_session=20, dim=16,
                       pool_per_class=30, test_per_class=10, separation=8.0,
                       imbalance_ratio=10.0, seed=seed, budget=100)


def _confusable_world(seed: int) -> WorldConfig:
    """Long-tail world with heavy within-class noise so that prototype quality,
    not just class discovery, moves the accuracy needle."""
    return WorldConfig(num_sessions=5, classes_per_session=20, dim=16,
                       pool_per_class=30, test_per_class=10, separation=3.0,
                       imbalance_ratio=10.0, seed=seed, sigma=0.2, budget=100)


def _greedy_instances(n_instances: int):
    rng = np.random.default_rng(20260814)
    for _ in range(n_instances):
        m = int(rng.integers(5, 11))
        k = int(rng.integers(1, 5))
        d = int(rng.choice([2, 4]))
        yield FeatureStore(rng.standard_normal((m, d))), k


def _greedy_vs_brute(members: FeatureStore, k: int) -> tuple[float, float]:
    picked = greedy_select_cluster(members, k)
    _, brute_kl = brute_force_select(members, k)
    greedy_kl = kl_divergence(
        estimate(members.vectors), estimate(members.vectors[np.asarray(picked)])
    )
    return float(greedy_kl[0]), brute_kl


def test_greedy_never_beats_the_exhaustive_optimum():
    t0 = time.monotonic()
    for members, k in _greedy_instances(200):
        greedy_kl, brute_kl = _greedy_vs_brute(members, k)
        assert math.isfinite(greedy_kl)
        assert greedy_kl >= brute_kl - 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"[acceptance] greedy domination: 200/200 instances, {elapsed:.1f}s")


@pytest.mark.xfail(
    strict=True,
    reason="structural: the greedy anchors on the sample closest to the cluster "
    "mean, which is optimal for k=1 but usually excluded from the jointly "
    "optimal subset for k>=2 (optimal pairs straddle the mean). Measured match "
    "rates are 31-46% across cluster shapes, never near 60%.",
)
def test_greedy_matches_the_exhaustive_optimum_in_most_instances():
    matches = 0
    for members, k in _greedy_instances(200):
        greedy_kl, brute_kl = _greedy_vs_brute(members, k)
        if greedy_kl <= brute_kl + 1e-9 * max(1.0, abs(brute_kl)):
            matches += 1
    print(f"[acceptance] greedy match rate: {matches}/200")
    assert matches >= 120


def test_kl_divergence_identities_and_closed_forms():
    t0 = time.monotonic()
    rng = np.random.default_rng(5)

    def random_gaussian(dim):
        return ClassGaussians([0], rng.uniform(-1.0, 1.0, (1, dim)), rng.uniform(0.5, 2.0, (1, dim)))

    def kl(p, q):
        return float(kl_divergence(p, q)[0])

    for _ in range(50):
        p = random_gaussian(5)
        assert abs(kl(p, p)) <= 1e-12
    for _ in range(200):
        p, q = random_gaussian(5), random_gaussian(5)
        assert kl(p, q) >= -1e-12
    for _ in range(50):
        p1, q1 = random_gaussian(3), random_gaussian(3)
        p2, q2 = random_gaussian(2), random_gaussian(2)
        joint_p = ClassGaussians([0], np.concatenate([p1.mean, p2.mean], axis=1),
                                 np.concatenate([p1.var, p2.var], axis=1))
        joint_q = ClassGaussians([0], np.concatenate([q1.mean, q2.mean], axis=1),
                                 np.concatenate([q1.var, q2.var], axis=1))
        split = kl(p1, q1) + kl(p2, q2)
        assert abs(kl(joint_p, joint_q) - split) <= 1e-12

    def one_d(mean, var):
        return ClassGaussians([0], [[mean]], [[var]])

    assert abs(kl(one_d(0.0, 1.0), one_d(1.0, 1.0)) - KL_UNIT_MEAN_SHIFT) <= 1e-12
    assert abs(kl(one_d(0.0, 1.0), one_d(0.0, 4.0)) - KL_VARIANCE_QUADRUPLED) <= 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"[acceptance] kl identities and closed forms: all within 1e-12, {elapsed:.2f}s")


def test_budget_exactness_across_random_configurations():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    for i in range(500):
        n = int(rng.integers(2, 301))
        k = int(rng.integers(1, min(25, n) + 1))
        budget = int(rng.integers(1, n + 1))
        store = FeatureStore(rng.standard_normal((n, 4))).l2_normalize()
        sel = cbs_select(store, num_classes=k, budget=budget, seed=i)
        assert len(sel.ids) == budget
        assert len(set(sel.ids)) == budget
        assert set(sel.ids) <= {int(v) for v in store.ids}
        pre_discard = sum(len(c) for c in sel.per_cluster_ids)
        assert pre_discard >= budget
        assert pre_discard == len(sel.ids) + len(sel.discarded)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"[acceptance] budget exactness: 500/500 configurations, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def balanced_world_sessions():
    t0 = time.monotonic()
    rows = []
    for seed in PAIRED_SEEDS:
        store, plan = generate(_balanced_world(seed))
        cbs = run(plan, "cbs", store).per_session[0]
        rnd = run(plan, "random", store).per_session[0]
        rows.append((cbs, rnd))
    return rows, time.monotonic() - t0


def test_balance_and_discovery_beat_random_selection(balanced_world_sessions):
    rows, elapsed = balanced_world_sessions
    wins = sum(cbs.imbalance_ratio < rnd.imbalance_ratio for cbs, rnd in rows)
    assert wins >= 8
    assert all(cbs.discovery_ratio == 1.0 for cbs, _ in rows)
    assert elapsed < 120.0
    print(f"[acceptance] balance vs random: {wins}/10 wins, discovery 10/10, {elapsed:.1f}s")


def test_selected_distribution_tracks_the_pool_per_class(balanced_world_sessions):
    rows, _ = balanced_world_sessions
    wins = 0
    for cbs, rnd in rows:
        if statistics.median(cbs.per_class_kl.values()) < statistics.median(rnd.per_class_kl.values()):
            wins += 1
    assert wins >= 8
    print(f"[acceptance] per-class distribution match vs random: {wins}/10 wins")


@pytest.fixture(scope="module")
def longtail_paired_runs():
    t0 = time.monotonic()
    pairs = []
    for seed in PAIRED_SEEDS:
        store, plan = generate(_longtail_world(seed))
        pairs.append((run(plan, "cbs", store), run(plan, "random", store)))
    return pairs, time.monotonic() - t0


def test_incremental_accuracy_beats_random_selection(longtail_paired_runs):
    pairs, elapsed = longtail_paired_runs
    wins = sum(cbs.avg > rnd.avg for cbs, rnd in pairs)
    margins = [cbs.avg - rnd.avg for cbs, rnd in pairs]
    assert wins >= 8
    assert elapsed < 300.0
    print(f"[acceptance] session-average accuracy vs random: {wins}/10 wins, "
          f"mean margin {statistics.fmean(margins):+.3f}, {elapsed:.1f}s")


def test_unlabeled_replay_lifts_old_class_accuracy():
    flag_on = RunConfig(use_unlabeled_distributions=True)
    wins = 0
    new_deltas = []
    for seed in PAIRED_SEEDS:
        store, plan = generate(_confusable_world(seed))
        off = run(plan, "cbs", store).per_session[-1]
        on = run(plan, "cbs", store, flag_on).per_session[-1]
        if on.accuracy_old > off.accuracy_old:
            wins += 1
        new_deltas.append(abs(on.accuracy_new - off.accuracy_new))
    assert wins >= 8
    assert max(new_deltas) <= 0.02 + 1e-12
    print(f"[acceptance] unlabeled-replay ablation: {wins}/10 old-class wins, "
          f"max new-class delta {max(new_deltas):.4f}")


BASELINES = ("coreset", "entropy", "margin")


@pytest.mark.parametrize("imbalance_ratio", [
    1.0,
    # Measured: CBS 0.888 against 0.914, 0.915 and 0.912, winning 1, 0 and 2 of 40.
    pytest.param(10.0, marks=pytest.mark.xfail(
        strict=True, reason="on long-tailed pools CBS trails the coreset and uncertainty "
        "baselines in session-average accuracy")),
])
def test_cbs_beats_the_coreset_and_uncertainty_baselines(imbalance_ratio):
    # 20 confusable worlds, each run with two plan seeds, so 40 paired runs.
    t0 = time.monotonic()
    avgs = {s: [] for s in ("cbs", *BASELINES)}
    for seed in range(20, 40):
        world = dataclasses.replace(_confusable_world(seed), imbalance_ratio=imbalance_ratio)
        store, plan = generate(world)
        for run_seed in (0, 1):
            for strategy, got in avgs.items():
                got.append(run(dataclasses.replace(plan, seed=run_seed), strategy, store).avg)
    elapsed = time.monotonic() - t0
    cbs = avgs["cbs"]
    wins = {s: sum(a > b for a, b in zip(cbs, avgs[s])) for s in BASELINES}
    print(f"[acceptance] cbs vs baselines at ratio {imbalance_ratio:g}: mean avg "
          f"{statistics.fmean(cbs):.4f} vs "
          + ", ".join(f"{s} {statistics.fmean(avgs[s]):.4f} ({wins[s]}/40 wins)" for s in BASELINES)
          + f", {elapsed:.1f}s")
    for s in BASELINES:
        assert statistics.fmean(cbs) > statistics.fmean(avgs[s]), s
        assert wins[s] >= 34, s
    assert elapsed < 120.0


def test_sweep_runs_are_byte_identical_modulo_timestamp(tmp_path):
    t0 = time.monotonic()
    store, plan = generate(_longtail_world(0))
    features = tmp_path / "features.csv"
    plan_path = tmp_path / "plan.json"
    save_features(store, features)
    plan.save(plan_path)

    dirs = []
    for name, workers in (("first", "4"), ("second", "1")):
        out_dir = tmp_path / name
        rc = main(["sweep", "--plan", str(plan_path), "--features", str(features),
                   "--strategies", "cbs,random,margin", "--budgets", "60,100",
                   "--seeds", "0,1", "--out-dir", str(out_dir), "--workers", workers])
        assert rc == 0
        dirs.append(out_dir)

    names_a = sorted(p.name for p in dirs[0].iterdir())
    names_b = sorted(p.name for p in dirs[1].iterdir())
    assert names_a == names_b
    assert "summary.csv" in names_a
    assert len(names_a) == 13  # 3 strategies x 2 budgets x 2 seeds, plus the summary

    def without_timestamp(path):
        return [line for line in path.read_bytes().splitlines(keepends=True)
                if b'"created_at"' not in line]

    for name in names_a:
        assert without_timestamp(dirs[0] / name) == without_timestamp(dirs[1] / name)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"[acceptance] sweep determinism: {len(names_a)} files identical, {elapsed:.1f}s")


def test_streaming_moments_match_the_two_pass_estimator():
    rng = np.random.default_rng(3)
    dim = 6
    acc = MomentAccumulator(dim)
    shadow: list[np.ndarray] = []
    checked = 0
    for _ in range(1000):
        if shadow and rng.random() < 0.4:
            acc.pop(shadow.pop(int(rng.integers(len(shadow)))))
        else:
            v = rng.standard_normal(dim) * 2.0
            shadow.append(v)
            acc.push(v)
        if shadow:
            streamed = acc.finalize()
            direct = estimate(np.asarray(shadow))
            assert acc.n == len(shadow)
            np.testing.assert_allclose(streamed.mean, direct.mean, rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(streamed.var, direct.var, rtol=0.0, atol=1e-9)
            checked += 1
    print(f"[acceptance] streaming moments: {checked} interleaved states within 1e-9")
