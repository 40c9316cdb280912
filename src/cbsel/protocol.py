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
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .baselines import (
    LogitTable,
    SoftmaxStats,
    balanced_random_select,
    coreset_select,
    entropy_select,
    margin_select,
    pool_columns,
    random_select,
)
from .config import RunConfig, atomic_write, from_json, read_json, to_json
from .errors import (
    CbselError,
    ConfigError,
    EmptyTestSet,
    LabelOutsideSessionSpace,
    ParseError,
    PlanError,
    SessionFailure,
    UnknownId,
    UnlabeledId,
)
from .features import FeatureStore, find_sorted, hidden_labels
from .forking import Forked, can_fork
from .gaussian import VAR_FLOOR, estimate_grouped, kl_divergence
from .learner import (
    MemoryBuffer,
    PrototypeClassifier,
    empty_classifier,
    estimate_class_distributions,
    predict,
    pseudo_label,
    rehearse,
    train_session,
    unit_rows,
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
        with atomic_write(path) as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SessionPlan":
        return cls.from_dict(read_json(path, PlanError))


@dataclass(frozen=True, eq=False)
class Oracle:
    """The hidden labels backing the labeling step and the metrics: the ids
    and classes of the store's labeled rows (aligned, ascending by id), and
    the store's ids, which tell a row without a label from an unknown id."""

    ids: np.ndarray
    classes: np.ndarray
    store_ids: np.ndarray

    @classmethod
    def from_store(cls, store: FeatureStore) -> "Oracle":
        return cls(*hidden_labels(store, "oracle"), store.ids)

    def labels_of(self, ids) -> np.ndarray:
        """Labels of `ids`, in the given order; the first id without a label
        raises UnlabeledId (a row of the store) or UnknownId."""
        ids = np.asarray(ids, dtype=np.int64)
        rows, found = find_sorted(self.ids, ids)
        if not found.all():
            row_id = int(ids[found.argmin()])
            raise (UnlabeledId if find_sorted(self.store_ids, row_id)[1] else UnknownId)(row_id)
        return self.classes[rows]


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
    class Gaussian. Classes with no selected sample are omitted.

    Both sides are estimated in one grouped pass each, and the divergences
    are one `kl_divergence` of the two stacks.
    """
    labels = oracle.labels_of(pool_store.ids)
    chosen = np.isin(pool_store.ids, np.asarray(selected_ids, dtype=np.int64))
    full = estimate_grouped(pool_store.vectors, labels, var_floor)
    selected = estimate_grouped(pool_store.vectors[chosen], labels[chosen], var_floor)
    kl = kl_divergence(full.take(full.classes.searchsorted(selected.classes)), selected)
    return dict(zip(selected.classes.tolist(), kl.tolist()))


def evaluate(clf: PrototypeClassifier, test_store: FeatureStore, oracle: Oracle,
             groups=()) -> tuple[float | None, ...]:
    """Top-1 accuracies of the argmax prediction over classes seen so far,
    from one prediction of the rows: over all rows, then over the rows
    labeled in each of `groups` (class-id collections), None for a group
    with no test row."""
    if len(test_store) == 0:
        raise EmptyTestSet("evaluation requires at least one test sample")
    labels = oracle.labels_of(test_store.ids)
    hits = predict(clf, test_store.vectors) == labels
    in_groups = [hits[np.isin(labels, list(g))] for g in groups]
    return (float(np.mean(hits)), *(float(np.mean(h)) if h.size else None for h in in_groups))


def _cbs(pool, budget, seed, num_classes, cfg, oracle) -> Selection:
    if num_classes is None:
        raise ConfigError("cbs needs a cluster count (--num-clusters)")
    return cbs_select(
        pool, num_classes=num_classes, budget=budget, seed=seed,
        var_floor=cfg.var_floor, kmeans_max_iter=cfg.kmeans_max_iter,
    )


def _balanced_random(pool, budget, seed, num_classes, cfg, oracle) -> Selection:
    if not len(oracle.ids):
        raise ConfigError("balanced_random needs labels in the features file")
    return balanced_random_select(pool, budget, seed, oracle)


# The one strategy table. Its entries are bound when the table is built, so
# rebinding `_cbs` or `_balanced_random` on the module changes nothing; each
# entry looks up the selector it calls (`cbs_select`, `random_select`, ...)
# in this module's namespace at call time, so a selector rebound on the
# module (by a tracer, say) is the one that runs. SELECTORS are single-shot
# calls (pool, budget, seed, num_classes, cfg, oracle) -> Selection; SCORERS
# rank a pool from a `LogitTable` of its rows, (store, budget, table, rows)
# -> Selection as in `baselines.entropy_select`, and run in rounds inside the
# protocol.
SELECTORS = {
    "random": lambda pool, budget, seed, *_: random_select(pool, budget, seed),
    "balanced_random": _balanced_random,
    "coreset": lambda pool, budget, seed, *_: coreset_select(pool, budget, seed),
    "cbs": _cbs,
}
SCORERS = {
    "entropy": lambda store, budget, table, rows: entropy_select(store, budget, table, rows),
    "margin": lambda store, budget, table, rows: margin_select(store, budget, table, rows),
}
STRATEGIES = SELECTORS | SCORERS


def run(plan: SessionPlan, strategy: str, store: FeatureStore, config: RunConfig | None = None) -> RunReport:
    """Execute the full protocol and return per-session metrics plus their mean.

    A `SELECTORS` strategy does not look at the learner, so on large pools
    the next sessions' selections run in forked child processes (see
    `_helper_count` and `forking.Forked`) while this process selects and
    trains the current one. Results are used in session order, a session
    whose child sent none selects here, and no child outlives the call, so
    the report and any exception are the ones of a serial run.
    """
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

    def pick(t: int) -> Selection:
        sess = plan.sessions[t - 1]
        return _pick(t, sess, plan, strategy, cfg, work.subset(sess.pool_ids), oracle)

    later = range(2, len(plan.sessions) + 1)
    try:
        ahead = Forked(pick, later, _helper_count(plan, strategy))
    except OSError:  # no process or pipe to spare: every session selects here
        ahead = Forked(pick, later, 0)
    with ahead:
        for t, sess in enumerate(plan.sessions, start=1):
            try:
                clf, buffer, sess_report = _run_session(
                    t, sess, plan, strategy, cfg, work, oracle, clf, buffer,
                    past_test_ids, past_classes, next(ahead) if t > 1 else None,
                )
            except CbselError as exc:
                raise SessionFailure(t, exc) from exc
            report.per_session.append(sess_report)
            accuracies.append(sess_report.accuracy)
            past_test_ids.extend(sess.test_ids)
            past_classes |= set(sess.class_space)

    report.avg = float(np.mean(accuracies))
    return report


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# The variables OpenBLAS (numpy's BLAS) reads its thread count from, first
# one first: the first that holds a positive number is the one it uses.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_threads() -> int | None:
    """The thread count OpenBLAS takes from BLAS_THREAD_VARS, read as it
    reads them (a leading integer; 0, negative or none means unset); None
    when none is set, and the BLAS then uses every core."""
    for var in BLAS_THREAD_VARS:
        lead = re.match(r"\s*[+-]?\d+", os.environ.get(var, ""))
        if lead and int(lead.group()) > 0:
            return int(lead.group())
    return None


# Later pools smaller than this select in the calling process: there a forked
# child's start-up and copy-on-write page faults can cost more than the
# overlap saves. On 2 vCPUs a child made whole `cbs` runs slower on 238-row
# pools (18 -> 40 ms) and up to 1,965 rows, won or lost with the host's load
# from 2,396 to 4,316 rows, and won from 5,885 rows up.
SELECT_AHEAD_MIN_ROWS = 6_000


def _helper_count(plan: SessionPlan, strategy: str) -> int:
    """Child processes that select later sessions ahead: one less than
    usable CPUs // BLAS threads, at most T - 1, so that processes x BLAS
    threads stay within the cores. There is none with BLAS uncapped (it
    already fills the cores), for the `SCORERS` (their rounds need the
    learner), where `forking.can_fork` says no (in a sweep worker, whose
    cells fill the cores, or without a safe `fork`), or when a later pool
    has fewer than SELECT_AHEAD_MIN_ROWS rows."""
    later = plan.sessions[1:]
    blas = _blas_threads()
    if (strategy not in SELECTORS or not later or blas is None or not can_fork()
            or min(len(s.pool_ids) for s in later) < SELECT_AHEAD_MIN_ROWS):
        return 0
    return max(0, min(usable_cpus() // blas - 1, len(later)))


def _pick(t, sess, plan, strategy, cfg, pool, oracle) -> Selection:
    """Session t's `SELECTORS` pick from its pool; it needs no learner."""
    return SELECTORS[strategy](
        pool, plan.budget, derive_seed(plan.seed, "session", t, "select"),
        len(sess.class_space), cfg, oracle)


def _run_session(t, sess, plan, strategy, cfg, work, oracle, clf, buffer,
                 past_test_ids, past_classes, picked=None):
    """One session; `picked` is its Selection when a child made it."""
    pool = work.subset(sess.pool_ids)
    rehearsed = None
    if strategy in SCORERS:
        selection, rehearsed = _select_uncertainty_rounds(
            t, sess, plan, SCORERS[strategy], cfg, work, pool, oracle, clf, buffer)
    elif picked is not None:
        selection = picked
    else:
        selection = _pick(t, sess, plan, strategy, cfg, pool, oracle)
    ids = np.asarray(selection.ids, dtype=np.int64)
    labeled = (ids, oracle.labels_of(ids))

    clf = train_session(
        clf, buffer, labeled, work,
        replay_per_class=cfg.replay_per_class,
        seed=derive_seed(plan.seed, "session", t, "train"),
        class_space=sess.class_space,
        alpha=cfg.alpha,
        rehearsed=rehearsed,
    )

    discovered, found = np.unique(labeled[1], return_counts=True)
    pseudo = (ids[:0], ids[:0])
    if cfg.use_unlabeled_distributions:
        rest = ~np.isin(pool.ids, ids)
        pseudo = (pool.ids[rest], pseudo_label(clf, pool.vectors[rest], discovered))
    buffer = buffer.update(estimate_class_distributions(labeled, pseudo, work, discovered, cfg.var_floor))

    test_store = work.subset(list(past_test_ids) + list(sess.test_ids))
    accuracy, accuracy_new, accuracy_old = evaluate(
        clf, test_store, oracle, groups=(sess.class_space, past_classes))
    if accuracy_new is None:
        raise EmptyTestSet(f"session {t} has no test sample of its own classes")

    counts = {int(c): 0 for c in sess.class_space}
    counts.update(zip(discovered.tolist(), found.tolist()))
    sess_report = SessionReport(
        session=t,
        accuracy=accuracy,
        accuracy_new=accuracy_new,
        accuracy_old=accuracy_old,
        selected_ids=ids.tolist(),
        per_class_counts=counts,
        imbalance_ratio=imbalance_ratio(counts),
        discovery_ratio=discovery_ratio(counts),
        per_class_kl=selected_vs_full_kl(selection.ids, pool, oracle, cfg.var_floor),
    )
    return clf, buffer, sess_report


def _select_uncertainty_rounds(t, sess, plan, score_fn, cfg, work, pool, oracle, clf, buffer):
    """Uncertainty strategies run in rounds, labeling between rounds; returns
    the Selection and the rehearsed classifier.

    The old classes are rehearsed once per session, on the session's "train"
    stream, so every round scores against the old prototypes the session
    ends with, and their softmax statistics over the pool are computed once,
    from the same `PoolColumns` the table scores.
    The session's training step takes that rehearsed classifier as it is.
    The session's classes share one `LogitTable` over the pool: each round
    recomputes only the rows of the classes labeled in the round before,
    from per-class label sums carried across rounds (added in labeled order,
    so each prototype has the bits of a rebuild from every label), and
    scores the rows not yet selected (one mask over the pool's rows). Rounds
    with fewer than two scoreable classes fall back to a seeded random pick.
    """
    old = rehearse(clf, buffer, cfg.replay_per_class,
                   derive_seed(plan.seed, "session", t, "train"), cfg.alpha)
    space = np.array(sorted(sess.class_space), dtype=np.int64)
    columns = pool_columns(pool.vectors)
    table = LogitTable(columns, clf.temperature, len(space),
                       SoftmaxStats.of(old, columns) if old.num_classes else None)
    sums = np.zeros((len(space), pool.dim))
    counts = np.zeros(len(space), dtype=np.int64)
    fresh = np.zeros(0, dtype=np.intp)
    open_rows = np.ones(len(pool), dtype=bool)
    selected: list[int] = []
    round_idx = 0
    while len(selected) < plan.budget:
        k = min(cfg.round_size, plan.budget - len(selected))
        if fresh.size:
            classes = space[fresh]
            table.update(classes, unit_rows(sums[fresh] / counts[fresh, None], classes, "prototype"))
        if table.num_classes >= 2:
            picked = score_fn(pool, k, table, open_rows)
        else:
            picked = random_select(
                pool.subset(pool.ids[open_rows]), k,
                derive_seed(plan.seed, "session", t, "fallback", round_idx),
            )
        selected.extend(picked.ids)
        rows = pool.ids.searchsorted(picked.ids)
        labels = oracle.labels_of(picked.ids)
        at, found = find_sorted(space, labels)
        if not found.all():
            bad = np.unique(labels[~found]).tolist()
            raise LabelOutsideSessionSpace(f"labels/classes outside the current session space: {bad}")
        np.add.at(sums, at, pool.vectors[rows])
        counts += np.bincount(at, minlength=len(space))
        fresh = np.unique(at)
        open_rows[rows] = False
        round_idx += 1
    return Selection(ids=selected), old


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
    with atomic_write(path) as fh:
        fh.write(report_json(report))


def load_report(path) -> RunReport:
    return report_from_dict(read_json(path, ParseError))
