"""Multi-session active incremental-learning driver.

Per session: a strategy picks B pool ids, the oracle labels them, the learner
trains incrementally (with pseudo-feature replay of older classes), the
unselected remainder is optionally pseudo-labeled to sharpen the stored class
Gaussians, the memory buffer grows, and the classifier is evaluated on the
union of all test sets seen so far. Everything is deterministic in the plan
seed; per-session and per-purpose random streams are derived by hashing.
"""

from __future__ import annotations

import datetime
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .baselines import (
    balanced_random_select,
    coreset_select,
    entropy_select,
    margin_select,
    random_select,
)
from .config import RunConfig, from_json, read_json, to_json
from .errors import (
    CbselError,
    ConfigError,
    EmptyTestSet,
    ParseError,
    PlanError,
    SessionFailure,
    UnknownId,
    UnlabeledId,
)
from .features import FeatureStore, hidden_labels
from .gaussian import VAR_FLOOR, estimate_per_class, kl_divergence
from .learner import (
    MemoryBuffer,
    PrototypeClassifier,
    empty_classifier,
    estimate_class_distributions,
    predict,
    pseudo_label,
    train_session,
)
from .seeding import derive_seed
from .selection import Selection, cbs_select


@dataclass(frozen=True)
class SessionSpec:
    """One incremental stage: its class ids, unlabeled pool, and test set."""

    class_space: tuple[int, ...]
    pool_ids: tuple[int, ...]
    test_ids: tuple[int, ...]


@dataclass(frozen=True)
class SessionPlan:
    """Ordered sessions plus the per-session labeling budget and root seed."""

    sessions: tuple[SessionSpec, ...]
    budget: int
    seed: int

    def validate(self) -> "SessionPlan":
        if not self.sessions:
            raise PlanError("a plan needs at least one session")
        if self.budget < 1:
            raise PlanError("budget must be >= 1")
        seen_classes: set[int] = set()
        seen_ids: set[int] = set()
        for t, s in enumerate(self.sessions, start=1):
            if not s.class_space:
                raise PlanError(f"session {t} has an empty class space")
            if len(set(s.class_space)) != len(s.class_space):
                raise PlanError(f"session {t} repeats a class id")
            if seen_classes & set(s.class_space):
                raise PlanError(f"session {t} reuses classes from an earlier session")
            seen_classes |= set(s.class_space)
            if self.budget > len(s.pool_ids):
                raise PlanError(
                    f"session {t}: budget {self.budget} exceeds pool size {len(s.pool_ids)}"
                )
            ids = list(s.pool_ids) + list(s.test_ids)
            if len(set(ids)) != len(ids):
                raise PlanError(f"session {t} repeats an id between pool and test")
            if seen_ids & set(ids):
                raise PlanError(f"session {t} reuses ids from an earlier session")
            seen_ids |= set(ids)
        return self

    def to_dict(self) -> dict:
        return to_json(self) | {"sessions": [to_json(s) for s in self.sessions]}

    @classmethod
    def from_dict(cls, d: dict) -> "SessionPlan":
        return from_json(cls, d, PlanError).validate()

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SessionPlan":
        return cls.from_dict(read_json(path, PlanError))


@dataclass(frozen=True)
class Oracle:
    """Id -> class map backing the labeling step and the metrics, plus the
    ids of the store's rows that carry no label."""

    label_map: dict[int, int]
    unlabeled: frozenset[int] = frozenset()

    @classmethod
    def from_store(cls, store: FeatureStore) -> "Oracle":
        label_map = hidden_labels(store, "oracle")
        return cls(label_map, frozenset(store.ids.tolist()).difference(label_map))

    def label(self, row_id: int) -> int:
        try:
            return self.label_map[int(row_id)]
        except KeyError:
            error = UnlabeledId if int(row_id) in self.unlabeled else UnknownId
            raise error(int(row_id)) from None

    def __getitem__(self, row_id: int) -> int:
        return self.label(row_id)

    def labels_for(self, ids) -> list[tuple[int, int]]:
        return [(int(i), self.label(i)) for i in ids]


@dataclass
class SessionReport:
    session: int
    accuracy: float
    accuracy_new: float
    accuracy_old: float | None
    selected_ids: list[int]
    per_class_counts: dict[int, int]
    imbalance_ratio: float
    discovery_ratio: float
    per_class_kl: dict[int, float]


@dataclass
class RunReport:
    strategy: str
    budget: int
    seed: int
    use_unlabeled_distributions: bool
    per_session: list[SessionReport] = field(default_factory=list)
    avg: float = 0.0
    created_at: str = ""


def imbalance_ratio(per_class_counts) -> float:
    """Max over min of the per-class selected counts; infinity when some
    class in the session space was never selected."""
    counts = [int(v) for v in dict(per_class_counts).values()]
    if not counts:
        raise ValueError("per_class_counts must cover at least one class")
    lo, hi = min(counts), max(counts)
    return math.inf if lo == 0 else hi / lo


def discovery_ratio(per_class_counts) -> float:
    """Fraction of the session's classes with at least one selected sample."""
    counts = [int(v) for v in dict(per_class_counts).values()]
    if not counts:
        raise ValueError("per_class_counts must cover at least one class")
    return sum(1 for v in counts if v > 0) / len(counts)


def selected_vs_full_kl(selected_ids, pool_store: FeatureStore, oracle: Oracle,
                        var_floor: float = VAR_FLOOR) -> dict[int, float]:
    """Per class: KL from the full-pool class Gaussian to the selected-subset
    class Gaussian. Classes with no selected sample are omitted."""
    labels = np.fromiter(map(oracle.label, pool_store.ids.tolist()), np.int64, len(pool_store))
    chosen = np.isin(pool_store.ids, np.asarray(selected_ids, dtype=np.int64))
    full = estimate_per_class(pool_store.vectors, labels, var_floor)
    sel = estimate_per_class(pool_store.vectors[chosen], labels[chosen], var_floor)
    return {c: float(kl_divergence(full[c], g)) for c, g in sel.items()}


def evaluate(clf: PrototypeClassifier, test_store: FeatureStore, oracle: Oracle) -> float:
    """Top-1 accuracy of the argmax prediction over classes seen so far."""
    if len(test_store) == 0:
        raise EmptyTestSet("evaluation requires at least one test sample")
    predicted = predict(clf, test_store.vectors)
    truth = np.asarray([oracle.label(i) for i in test_store.ids], dtype=np.int64)
    return float(np.mean(predicted == truth))


def _cbs(pool, budget, seed, num_classes, cfg, oracle) -> Selection:
    if num_classes is None:
        raise ConfigError("cbs needs a cluster count (--num-clusters)")
    return cbs_select(
        pool, num_classes=num_classes, budget=budget, seed=seed,
        var_floor=cfg.var_floor, kmeans_max_iter=cfg.kmeans_max_iter,
        kmeans_tol=cfg.kmeans_tol,
    )


def _balanced_random(pool, budget, seed, num_classes, cfg, oracle) -> Selection:
    if not oracle.label_map:
        raise ConfigError("balanced_random needs labels in the features file")
    return balanced_random_select(pool, budget, seed, oracle)


# The one strategy table. Every entry looks its selector up in this module's
# namespace at call time, so a name rebound on the module (by a tracer, say)
# is the one that runs. SELECTORS are single-shot calls
# (pool, budget, seed, num_classes, cfg, oracle) -> Selection; SCORERS rank a
# pool with a trained classifier and run in rounds inside the protocol.
SELECTORS = {
    "random": lambda pool, budget, seed, *_: random_select(pool, budget, seed),
    "balanced_random": _balanced_random,
    "coreset": lambda pool, budget, seed, *_: coreset_select(pool, budget, seed),
    "cbs": _cbs,
}
SCORERS = {
    "entropy": lambda store, budget, clf: entropy_select(store, budget, clf),
    "margin": lambda store, budget, clf: margin_select(store, budget, clf),
}
STRATEGIES = SELECTORS | SCORERS


def run(plan: SessionPlan, strategy: str, store: FeatureStore, config: RunConfig | None = None) -> RunReport:
    """Execute the full protocol and return per-session metrics plus their mean."""
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}; expected one of {list(STRATEGIES)}")
    cfg = config if config is not None else RunConfig()
    plan.validate()
    work = store if store.normalized else store.l2_normalize()
    oracle = Oracle.from_store(work)

    clf = empty_classifier(cfg.temperature)
    buffer = MemoryBuffer()
    report = RunReport(
        strategy=strategy,
        budget=plan.budget,
        seed=plan.seed,
        use_unlabeled_distributions=cfg.use_unlabeled_distributions,
        created_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )
    past_test_ids: list[int] = []
    past_classes: set[int] = set()
    accuracies: list[float] = []

    for t, sess in enumerate(plan.sessions, start=1):
        try:
            clf, buffer, sess_report = _run_session(
                t, sess, plan, strategy, cfg, work, oracle, clf, buffer,
                past_test_ids, past_classes,
            )
        except CbselError as exc:
            raise SessionFailure(t, exc) from exc
        report.per_session.append(sess_report)
        accuracies.append(sess_report.accuracy)
        past_test_ids.extend(sess.test_ids)
        past_classes |= set(sess.class_space)

    report.avg = float(np.mean(accuracies))
    return report


def _run_session(t, sess, plan, strategy, cfg, work, oracle, clf, buffer,
                 past_test_ids, past_classes):
    pool = work.subset(sess.pool_ids)
    if strategy in SCORERS:
        selection = _select_uncertainty_rounds(
            t, sess, plan, SCORERS[strategy], cfg, work, pool, oracle, clf, buffer)
    else:
        selection = SELECTORS[strategy](
            pool, plan.budget, derive_seed(plan.seed, "session", t, "select"),
            len(sess.class_space), cfg, oracle)
    labeled = oracle.labels_for(selection.ids)

    clf = train_session(
        clf, buffer, labeled, work,
        replay_per_class=cfg.replay_per_class,
        seed=derive_seed(plan.seed, "session", t, "train"),
        class_space=sess.class_space,
        alpha=cfg.alpha,
    )

    discovered = sorted({c for _, c in labeled})
    pseudo: list[tuple[int, int]] = []
    if cfg.use_unlabeled_distributions:
        chosen = set(selection.ids)
        remainder = [i for i in sess.pool_ids if i not in chosen]
        if remainder:
            pseudo_map = pseudo_label(clf, work.subset(remainder), discovered)
            pseudo = sorted(pseudo_map.items())
    buffer = buffer.update(estimate_class_distributions(labeled, pseudo, work, discovered, cfg.var_floor))

    test_ids = list(past_test_ids) + list(sess.test_ids)
    test_store = work.subset(test_ids)
    accuracy = evaluate(clf, test_store, oracle)
    new_classes = set(sess.class_space)
    new_ids = [i for i in test_ids if oracle.label(i) in new_classes]
    accuracy_new = evaluate(clf, work.subset(new_ids), oracle)
    old_ids = [i for i in test_ids if oracle.label(i) in past_classes]
    accuracy_old = evaluate(clf, work.subset(old_ids), oracle) if old_ids else None

    counts = {int(c): 0 for c in sess.class_space}
    for _, c in labeled:
        counts[c] += 1
    sess_report = SessionReport(
        session=t,
        accuracy=accuracy,
        accuracy_new=accuracy_new,
        accuracy_old=accuracy_old,
        selected_ids=[int(i) for i in selection.ids],
        per_class_counts=counts,
        imbalance_ratio=imbalance_ratio(counts),
        discovery_ratio=discovery_ratio(counts),
        per_class_kl=selected_vs_full_kl(selection.ids, pool, oracle, cfg.var_floor),
    )
    return clf, buffer, sess_report


def _select_uncertainty_rounds(t, sess, plan, score_fn, cfg, work, pool, oracle, clf, buffer) -> Selection:
    """Uncertainty strategies run in rounds with retraining in between.

    Each round scores the not-yet-selected pool with a classifier rebuilt
    from this session's labels so far (on top of the previous sessions'
    state). Rounds with fewer than two scoreable classes fall back to a
    seeded random pick.
    """
    selected: list[int] = []
    labeled_so_far: list[tuple[int, int]] = []
    remaining = [int(i) for i in sess.pool_ids]
    round_idx = 0
    while len(selected) < plan.budget:
        k = min(cfg.round_size, plan.budget - len(selected))
        round_clf = clf
        if labeled_so_far:
            round_clf = train_session(
                clf, buffer, labeled_so_far, work,
                replay_per_class=cfg.replay_per_class,
                seed=derive_seed(plan.seed, "session", t, "round", round_idx),
                class_space=sess.class_space,
                alpha=cfg.alpha,
            )
        sub = pool.subset(remaining)
        if round_clf.num_classes >= 2:
            picked = score_fn(sub, k, round_clf)
        else:
            picked = random_select(
                sub, k, derive_seed(plan.seed, "session", t, "fallback", round_idx)
            )
        selected.extend(picked.ids)
        labeled_so_far.extend(oracle.labels_for(picked.ids))
        chosen = set(picked.ids)
        remaining = [i for i in remaining if i not in chosen]
        round_idx += 1
    return Selection(ids=selected)


def report_to_dict(report: RunReport, include_timestamp: bool = True) -> dict:
    """JSON-ready dict. The infinity imbalance sentinel serializes as null
    plus an `undiscovered_class` flag; `created_at` is the only field that
    varies between identical runs and can be excluded for determinism checks."""
    out = to_json(report)
    out["per_session"] = sessions = [to_json(s) for s in report.per_session]
    for s in sessions:
        s["undiscovered_class"] = math.isinf(s["imbalance_ratio"])
        if s["undiscovered_class"]:
            s["imbalance_ratio"] = None
    if not include_timestamp:
        del out["created_at"]
    return out


def report_from_dict(d: dict) -> RunReport:
    """Inverse of report_to_dict; ParseError names the key of a malformed part."""
    if type(d) is dict and type(d.get("per_session")) is list:
        d = d | {"per_session": [_undo_sentinel(s) for s in d["per_session"]]}
    return from_json(RunReport, d, ParseError)


def _undo_sentinel(s):
    """A session object with its `undiscovered_class` flag folded back into
    `imbalance_ratio` (infinite when the flag is true)."""
    if type(s) is not dict:
        return s
    s = dict(s)
    flag = s.pop("undiscovered_class", False)
    if type(flag) is not bool:
        raise ParseError("RunReport.per_session: undiscovered_class must be true or false")
    return s | {"imbalance_ratio": math.inf} if flag else s


def report_json(report: RunReport, include_timestamp: bool = True) -> str:
    return json.dumps(report_to_dict(report, include_timestamp), sort_keys=True, indent=2) + "\n"


def save_report(report: RunReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_json(report))


def load_report(path) -> RunReport:
    return report_from_dict(read_json(path, ParseError))
