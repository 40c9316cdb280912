"""The benchmark's workloads, the correctness check run on every cell, and the
quality block computed from the reports.

A workload builds ``worlds`` independent worlds from the workload seed in
``setup``, which returns the seconds it spent on the program's work (world
generation, plus the CSV writes for the sweep). Worlds are kept on disk in
the run's scratch directory, and ``load`` brings the one a pass needs into
memory (untimed), dropping the one before, so that at most one world is
resident at a time, as in the program. One pass runs one unit of work through
the public API: one strategy on one world via ``cbsel.run`` for the
simulate-style workloads, one ``cbsel.cli.main(["sweep", ...])`` call for the
sweep. A run covers every unit at least once, so its quality block and report
digest do not depend on machine speed; many short passes over several worlds
keep the figures steady from one workload seed to the next.

Workloads:

- ``cbs_large_pool``: ``cbs`` with ``use_unlabeled_distributions`` on over two
  sessions of 100 classes (D=16, head pool 400, budget 3000; about 31k pool
  rows per world). Stresses k-means, the greedy picks and the protocol's
  remainder filter; learner replay is negligible. The budget keeps the
  rarest classes at several picks, so the imbalance ratio is not dominated
  by picks of one or two.
- ``uncertainty_rounds``: ``margin`` and ``entropy`` on the mid world (5
  sessions x 50 classes, D=64, head pool 200, budget 500, round size 20), with
  sigma 0.1 and separation 3 so that per-class KL does not swing from world to
  world. Stresses per-round retraining with replay, uncertainty scoring and
  ``FeatureStore.subset``; it never calls k-means, so it is the no-change side
  of any k-means or greedy change.
- ``quality_sweep``: all six strategies through ``cbsel sweep`` on the
  acceptance suite's confusable world, two run seeds per world. Cells are
  short, so per-call fixed costs show (CSV load, store construction, seeding,
  report writes, the thread pool). The world is not saturated, so it carries
  the quality block.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import os
import pickle
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

import cbsel
from cbsel import RunConfig, WorldConfig, generate, load_report, save_features
from cbsel.cli import main as cli_main
from cbsel.protocol import report_json

STRATEGIES = ("cbs", "random", "balanced_random", "coreset", "entropy", "margin")


def cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# The sweep runs one worker per CPU.
WORKERS = cpus()


@dataclass
class Cell:
    name: str
    plan: object              # SessionPlan the report was run against
    report: object | None     # RunReport, or None when the cell raised
    error: str = ""


def _simulate(name, plan, strategy, store, config) -> Cell:
    try:
        # Looked up on the module at call time so traced wrappers apply.
        report = cbsel.protocol.run(plan, strategy, store, config)
    except Exception as exc:  # a cell that raises is counted, not fatal
        return Cell(name, plan, None, f"{type(exc).__name__}: {exc}")
    return Cell(name, plan, report)


class _Simulate:
    """Worlds generated from the seed; each pass runs one strategy on one world."""

    name: str
    worlds: int
    strategies: tuple[str, ...]
    config: RunConfig

    def world(self, seed: int) -> WorldConfig:
        raise NotImplementedError

    def setup(self, seed: int, scratch: str) -> float:
        self.loaded = None
        self.paths, self.world_rows, spent = [], [], 0.0
        for w in range(self.worlds):
            t0 = time.perf_counter()
            store, plan = generate(self.world(seed * self.worlds + w))
            spent += time.perf_counter() - t0
            path = os.path.join(scratch, f"world{w}.pickle")
            with open(path, "wb") as fh:
                pickle.dump((store, plan), fh, protocol=pickle.HIGHEST_PROTOCOL)
            self.paths.append(path)
            self.world_rows.append(sum(len(s.pool_ids) for s in plan.sessions))
            del store, plan
        return spent

    @property
    def units(self) -> int:
        return self.worlds * len(self.strategies)

    def rows(self, u: int) -> int:
        return self.world_rows[u // len(self.strategies)]

    def load(self, u: int) -> None:
        w = u // len(self.strategies)
        if self.loaded is None or self.loaded[0] != w:
            self.loaded = None
            with open(self.paths[w], "rb") as fh:
                self.loaded = (w, *pickle.load(fh))

    def run_pass(self, u: int, out_dir: str, tracer) -> list[Cell]:
        _, store, plan = self.loaded
        strategy = self.strategies[u % len(self.strategies)]
        return [_simulate(f"w{plan.seed}/{strategy}", plan, strategy, store, self.config)]


class CbsLargePool(_Simulate):
    name = "cbs_large_pool"
    worlds = 6
    strategies = ("cbs",)
    config = RunConfig(use_unlabeled_distributions=True)

    def world(self, seed: int) -> WorldConfig:
        return WorldConfig(num_sessions=2, classes_per_session=100, dim=16,
                           pool_per_class=400, test_per_class=10, separation=3.0,
                           imbalance_ratio=10.0, sigma=0.2, budget=3000, seed=seed)


class UncertaintyRounds(_Simulate):
    name = "uncertainty_rounds"
    worlds = 5
    strategies = ("margin", "entropy")
    config = RunConfig(round_size=20)

    def world(self, seed: int) -> WorldConfig:
        return WorldConfig(num_sessions=5, classes_per_session=50, dim=64,
                           pool_per_class=200, test_per_class=10, separation=3.0,
                           imbalance_ratio=10.0, sigma=0.1, budget=500, seed=seed)


class QualitySweep:
    name = "quality_sweep"
    worlds = 20
    run_seeds = (0, 1)
    workers = WORKERS

    def world(self, seed: int) -> WorldConfig:
        # The acceptance suite's confusable world.
        return WorldConfig(num_sessions=5, classes_per_session=20, dim=16,
                           pool_per_class=30, test_per_class=10, separation=3.0,
                           imbalance_ratio=10.0, sigma=0.2, budget=100, seed=seed)

    def setup(self, seed: int, scratch: str) -> float:
        t0 = time.perf_counter()
        self.built = []
        for w in range(self.worlds):
            store, plan = generate(self.world(seed * self.worlds + w))
            features = os.path.join(scratch, f"world{plan.seed}.csv")
            plan_path = os.path.join(scratch, f"world{plan.seed}.plan.json")
            save_features(store, features)
            plan.save(plan_path)
            self.built.append((plan, features, plan_path))
        return time.perf_counter() - t0

    @property
    def units(self) -> int:
        return self.worlds

    def rows(self, w: int) -> int:
        plan = self.built[w][0]
        cells = len(STRATEGIES) * len(self.run_seeds)
        return cells * sum(len(s.pool_ids) for s in plan.sessions)

    def load(self, w: int) -> None:
        pass  # the sweep reads its world from disk inside the pass

    def run_pass(self, w: int, out_dir: str, tracer) -> list[Cell]:
        plan, features, plan_path = self.built[w]
        sweep_dir = os.path.join(out_dir, f"world{plan.seed}")
        argv = ["sweep", "--plan", plan_path, "--features", features,
                "--strategies", ",".join(STRATEGIES), "--budgets", str(plan.budget),
                "--seeds", ",".join(str(r) for r in self.run_seeds),
                "--out-dir", sweep_dir, "--workers", str(self.workers)]
        span = tracer.span("cli.sweep", root=True) if tracer else contextlib.nullcontext()
        try:
            # The sweep's progress line goes to stderr: stdout ends with the result.
            with span, contextlib.redirect_stdout(sys.stderr):
                rc = cli_main(argv)
        except Exception as exc:  # every cell of a sweep that raises is failed
            rc = f"{type(exc).__name__}: {exc}"
        failures = os.path.exists(os.path.join(sweep_dir, "failures.json"))
        cells = []
        for strategy in STRATEGIES:
            for r in self.run_seeds:
                name = f"w{plan.seed}/{strategy}_s{r}"
                cell_plan = dataclasses.replace(plan, seed=r)
                path = os.path.join(sweep_dir, f"report_{strategy}_b{plan.budget}_s{r}.json")
                if rc != 0 or failures:
                    cells.append(Cell(name, cell_plan, None,
                                      f"sweep exit {rc}, failures.json={failures}"))
                elif not os.path.exists(path):
                    cells.append(Cell(name, cell_plan, None, "report missing"))
                else:
                    cells.append(Cell(name, cell_plan, load_report(path)))
        shutil.rmtree(sweep_dir, ignore_errors=True)
        return cells


WORKLOADS = {cls.name: cls for cls in (CbsLargePool, UncertaintyRounds, QualitySweep)}


def check_cell(cell: Cell) -> str:
    """Empty string when the cell passes every check, else the first problem."""
    if cell.report is None:
        return cell.error or "no report"
    r, plan = cell.report, cell.plan
    if r.seed != plan.seed or r.budget != plan.budget:
        return f"report seed/budget {r.seed}/{r.budget} != plan {plan.seed}/{plan.budget}"
    if len(r.per_session) != len(plan.sessions):
        return f"{len(r.per_session)} session reports for {len(plan.sessions)} sessions"
    if not 0.0 <= r.avg <= 1.0:
        return f"avg {r.avg} outside [0, 1]"
    for s, spec in zip(r.per_session, plan.sessions):
        ids = s.selected_ids
        if len(ids) != plan.budget or len(set(ids)) != len(ids):
            return f"session {s.session}: {len(set(ids))} unique of {len(ids)} ids, budget {plan.budget}"
        if not set(ids) <= set(spec.pool_ids):
            return f"session {s.session}: selected ids outside the session pool"
        if sum(s.per_class_counts.values()) != plan.budget:
            return f"session {s.session}: per_class_counts sum to {sum(s.per_class_counts.values())}"
        for acc in (s.accuracy, s.accuracy_new, s.accuracy_old):
            if acc is not None and not 0.0 <= acc <= 1.0:
                return f"session {s.session}: accuracy {acc} outside [0, 1]"
    return ""


def digest(cells: list[Cell]) -> str:
    """SHA-256 over every report's JSON without ``created_at``, by cell name."""
    h = hashlib.sha256()
    for cell in sorted(cells, key=lambda c: c.name):
        h.update(cell.name.encode())
        h.update(b"\n")
        if cell.report is not None:
            h.update(report_json(cell.report, include_timestamp=False).encode())
    return h.hexdigest()


QUALITY = ("avg_acc", "old_acc", "imbalance_p50", "discovery", "pool_kl_p50")


def quality(cells: list[Cell]) -> dict[str, float]:
    """The quality block over the cells that produced a report; NaN when
    none did."""
    reports = [c.report for c in cells if c.report is not None]
    sessions = [s for r in reports for s in r.per_session]
    if not reports:
        return dict.fromkeys(QUALITY, math.nan)
    # An undiscovered class (infinite ratio) sorts above every finite one; the
    # two middle ratios are averaged unless the upper one is infinite.
    imbalances = sorted(s.imbalance_ratio for s in sessions)
    lo, hi = imbalances[(len(imbalances) - 1) // 2], imbalances[len(imbalances) // 2]
    return {
        "avg_acc": statistics.fmean(r.avg for r in reports),
        "old_acc": statistics.fmean(r.per_session[-1].accuracy_old for r in reports),
        "imbalance_p50": lo if math.isinf(hi) else (lo + hi) / 2,
        "discovery": statistics.fmean(s.discovery_ratio for s in sessions),
        "pool_kl_p50": statistics.median(v for s in sessions for v in s.per_class_kl.values()),
    }
