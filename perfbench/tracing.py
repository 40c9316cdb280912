"""Outside-in tracing of cbsel: spans and counts recorded by wrappers that the
benchmark installs on public functions, at the name each caller looks up.

Nothing under ``src/`` is edited. A wrapper replaces a module attribute (or a
``FeatureStore`` method) for the duration of one traced pass and the original
is restored in ``finally``. Spans live in memory until the run ends.

Self time is a span's duration minus the union of its children's intervals:
sweep cells run on worker threads, so children can overlap one another.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread.

    Each thread keeps its own stack of open spans. A span opened on a thread
    with no open span (a sweep worker) takes the innermost ``root`` span as
    its parent, so cells run by the thread pool hang under the sweep call.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._roots: list[int] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, root: bool = False):
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            parent = self._roots[-1] if self._roots else None
        s = Span(next(self._ids), name, parent, time.perf_counter())
        stack.append(s)
        if root:
            self._roots.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            if root:
                self._roots.pop()
            stack.pop()
            self.spans.append(s)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out


# --- counts, derived only from arguments and public return values ----------

# Per-layer metrics derived by arithmetic rather than counted by the program.
COMPUTED = ("kmeans.capped_frac", "kmeans.dist_evals", "selection.greedy_cand_evals",
            "selection.discard_frac", "learner.replay_draws")


def _kmeans_counts(out, args):
    # Clustering.iterations_run and the array shapes; dist_evals is computed
    # as N * k * (iterations + 1): one assignment after init plus one per step.
    n, k = out.assignments.shape[0], out.centroids.shape[0]
    it = int(out.iterations_run)
    return {"iters": it, "capped": int(it >= args["max_iter"]),
            "dist_evals": n * k * (it + 1)}


def _greedy_counts(out, args):
    # A pick of k from n members scores every surviving candidate at each
    # step after the first: sum_{j=1}^{k-1} (n - j) KL evaluations (computed).
    n, k = len(args["members"]), len(out)
    return {"cand_evals": (k - 1) * n - k * (k - 1) // 2}


def _cbs_counts(out, args):
    allocated = sum(len(c) for c in out.per_cluster_ids)
    return {"allocated": allocated, "discarded": len(out.discarded)}


def _train_counts(out, args):
    # Buffer size x replay_per_class pseudo-features are drawn (computed).
    draws = 0
    if args["replay_per_class"] > 0 and args["alpha"] < 1.0:
        draws = len(args["buffer"].distributions) * args["replay_per_class"]
    return {"replay_draws": draws}


def _row_counts(out, args):
    return {"rows": len(out)}


def _wrap(tracer: Tracer, fn, name: str, count=None):
    sig = inspect.signature(fn) if count is not None else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as s:
            out = fn(*args, **kwargs)
        if count is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            s.counts = count(out, bound.arguments)
        return out

    return traced


def _targets(cbsel):
    """(owner, attribute, span name, count function) for each wrapped name,
    taken from the namespace of the module that calls it."""
    protocol, selection, learner, cli = (
        cbsel.protocol, cbsel.selection, cbsel.learner, cbsel.cli)
    return [
        (selection, "kmeans", "kmeans.kmeans", _kmeans_counts),
        (selection, "greedy_select_cluster", "selection.greedy", _greedy_counts),
        (protocol, "cbs_select", "selection.cbs", _cbs_counts),
        (protocol, "run", "protocol.run", None),
        (cli, "run", "protocol.run", None),
        (protocol, "evaluate", "protocol.evaluate", None),
        (protocol, "selected_vs_full_kl", "protocol.kl_report", None),
        (protocol, "train_session", "learner.train", _train_counts),
        (protocol, "pseudo_label", "learner.pseudo_label", _row_counts),
        (protocol, "estimate_class_distributions", "learner.estimate", None),
        (learner, "derive_rng", "seeding.derive_rng", None),
        (protocol, "random_select", "baselines.random", None),
        (protocol, "balanced_random_select", "baselines.balanced_random", None),
        (protocol, "coreset_select", "baselines.coreset", None),
        (protocol, "entropy_select", "baselines.entropy", None),
        (protocol, "margin_select", "baselines.margin", None),
        (cbsel.features.FeatureStore, "subset", "features.subset", _row_counts),
        (cli, "load_features", "features.load", None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer, cbsel):
    """Swap every target for its traced wrapper; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, count in _targets(cbsel):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer busy time and counts from one traced pass."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + selfs[s.id]
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, v in s.counts.items():
            counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + v

    def t(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def c(key):
        return counts.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "kmeans.s": t("kmeans.kmeans"),
        "kmeans.calls": n("kmeans.kmeans"),
        "kmeans.iters": c("kmeans.kmeans.iters"),
        "kmeans.capped_frac": ratio(c("kmeans.kmeans.capped"), n("kmeans.kmeans")),
        "kmeans.dist_evals": c("kmeans.kmeans.dist_evals"),
        "selection.greedy_s": t("selection.greedy"),
        "selection.greedy_calls": n("selection.greedy"),
        "selection.greedy_cand_evals": c("selection.greedy.cand_evals"),
        "selection.cbs_self_s": own.get("selection.cbs", 0.0),
        "selection.discard_frac": ratio(c("selection.cbs.discarded"),
                                        c("selection.cbs.allocated")),
        "protocol.session_s": t("protocol.run"),
        "protocol.self_s": own.get("protocol.run", 0.0),
        "protocol.evaluate_s": t("protocol.evaluate"),
        "protocol.kl_report_s": t("protocol.kl_report"),
        "learner.train_s": t("learner.train"),
        "learner.train_calls": n("learner.train"),
        "learner.replay_draws": c("learner.train.replay_draws"),
        "learner.pseudo_label_s": t("learner.pseudo_label"),
        "learner.pseudo_rows": c("learner.pseudo_label.rows"),
        "learner.estimate_s": t("learner.estimate"),
        "seeding.derive_calls": n("seeding.derive_rng"),
        "seeding.derive_s": t("seeding.derive_rng"),
        "baselines.score_s": t("baselines.entropy") + t("baselines.margin"),
        "baselines.score_calls": n("baselines.entropy") + n("baselines.margin"),
        "baselines.coreset_s": t("baselines.coreset"),
        "features.subset_s": t("features.subset"),
        "features.subset_calls": n("features.subset"),
        "features.subset_rows": c("features.subset.rows"),
        "features.load_s": t("features.load"),
        "cli.sweep_s": t("cli.sweep"),
        "cli.self_s": own.get("cli.sweep", 0.0),
    }
