"""`protocol.run` selecting later sessions ahead in forked child processes:
the reports and failures are the serial ones, no child outlives the run, and
no child starts where the rules say none should."""

import dataclasses
import json
import os
import threading

import pytest

from cbsel import forking, protocol
from cbsel.cli import main
from cbsel.datagen import WorldConfig, generate
from cbsel.errors import ConfigError, SessionFailure
from cbsel.features import save_features
from cbsel.protocol import (
    BLAS_THREAD_VARS,
    SCORERS,
    SELECT_AHEAD_MIN_ROWS,
    SELECTORS,
    report_json,
    run,
)
from cbsel.seeding import derive_seed

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="children are forked")


@pytest.fixture(scope="module")
def large():
    """Three sessions of 4 classes with 6,080-row pools, above the size gate."""
    store, plan = generate(WorldConfig(
        num_sessions=3, classes_per_session=4, dim=8, pool_per_class=1520,
        test_per_class=5, separation=6.0, imbalance_ratio=1.0, budget=24, seed=11))
    assert min(len(s.pool_ids) for s in plan.sessions) >= SELECT_AHEAD_MIN_ROWS
    return store, plan


@pytest.fixture(scope="module")
def small():
    """The quality world's shape: 238-row pools, below the size gate."""
    return generate(WorldConfig(
        num_sessions=3, classes_per_session=20, dim=16, pool_per_class=30,
        test_per_class=10, separation=3.0, imbalance_ratio=10.0, sigma=0.2,
        budget=100, seed=0))


def blas(monkeypatch, threads, cpus=2):
    """BLAS capped at `threads` (None: uncapped) on `cpus` usable CPUs."""
    for var in BLAS_THREAD_VARS + ("MKL_NUM_THREADS",):
        monkeypatch.delenv(var, raising=False)
    if threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(threads))
    monkeypatch.setattr(protocol, "usable_cpus", lambda: cpus)


def spy_selector(monkeypatch, strategy, plan, log, fail=(), die=()):
    """Append "session pid" to the file `log` for each selection, from
    whichever process runs it. The sessions in `fail` raise a ConfigError;
    those in `die` end their child without a result."""
    real = SELECTORS[strategy]
    sessions = {derive_seed(plan.seed, "session", t, "select"): t
                for t in range(1, len(plan.sessions) + 1)}
    parent = os.getpid()

    def spy(pool, budget, seed, *rest):
        t = sessions[seed]
        with open(log, "a") as fh:
            fh.write(f"{t} {os.getpid()}\n")
        if t in die and os.getpid() != parent:
            os._exit(3)
        if t in fail:
            raise ConfigError(f"no pick in session {t}")
        return real(pool, budget, seed, *rest)

    monkeypatch.setitem(SELECTORS, strategy, spy)


def selected_in(log) -> list[tuple[int, bool]]:
    """(session, whether this process selected it), in log order."""
    rows = [line.split() for line in log.read_text().splitlines()]
    return [(int(t), int(pid) == os.getpid()) for t, pid in rows]


def spy_forks(monkeypatch):
    """The pids of the children forked from here on, in order."""
    pids = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def reaped(pid) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def serial_json(plan, strategy, store):
    return report_json(run(plan, strategy, store), include_timestamp=False)


class TestHelperCount:
    @pytest.mark.parametrize("env,cpus,expected", [
        ({}, 8, 0),                                                  # uncapped: BLAS fills the cores
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 1),
        ({"OMP_NUM_THREADS": "1"}, 8, 2),                            # at most T - 1
        ({"GOTO_NUM_THREADS": "2"}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, 1),  # OPENBLAS_ comes first
        ({"GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 8, 1),   # GOTO_ before OMP_
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 1),  # 0 is not a cap
        ({"MKL_NUM_THREADS": "1"}, 8, 0),                            # OpenBLAS does not read it
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 0),
        ({"OPENBLAS_NUM_THREADS": "2x"}, 4, 1),                      # a leading integer counts
        ({"OPENBLAS_NUM_THREADS": "-1"}, 8, 0),
        ({"OPENBLAS_NUM_THREADS": "many"}, 8, 0),
    ])
    def test_cpus_over_blas_threads_minus_one(self, large, monkeypatch, env, cpus, expected):
        _, plan = large
        blas(monkeypatch, None, cpus)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert protocol._helper_count(plan, "cbs") == expected


class TestSameReports:
    @pytest.mark.parametrize("strategy", list(SELECTORS))
    def test_ahead_reports_equal_serial_ones(self, large, monkeypatch, tmp_path, strategy):
        store, plan = large
        blas(monkeypatch, None)
        serial = serial_json(plan, strategy, store)
        for cpus in (3, 2):  # two children at once, then one at a time
            log = tmp_path / f"log{cpus}"
            spy_selector(monkeypatch, strategy, plan, log)
            blas(monkeypatch, 1, cpus)
            assert protocol._helper_count(plan, strategy) == cpus - 1
            assert serial_json(plan, strategy, store) == serial
            assert sorted(selected_in(log)) == [(1, True), (2, False), (3, False)]

    def test_one_helper_is_one_child_selecting_each_later_session(self, large, monkeypatch,
                                                                 tmp_path):
        store, plan = large
        blas(monkeypatch, 1, cpus=2)
        log = tmp_path / "log"
        spy_selector(monkeypatch, "cbs", plan, log)
        pids = spy_forks(monkeypatch)
        events = []
        next_, waitpid = forking.Forked.__next__, os.waitpid

        def spy_next(self):
            picked = next_(self)
            events.append(("next", picked is not None))
            return picked

        def spy_waitpid(pid, options):
            events.append(("reap", pid))
            return waitpid(pid, options)

        monkeypatch.setattr(forking.Forked, "__next__", spy_next)
        monkeypatch.setattr(os, "waitpid", spy_waitpid)
        run(plan, "cbs", store)
        assert len(pids) == 1
        assert events == [("next", True), ("next", True), ("reap", pids[0])]
        rows = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert [row for row in rows if row[1] != os.getpid()] == [(2, pids[0]), (3, pids[0])]

    def test_a_child_that_dies_is_replaced_by_a_serial_pick(self, large, monkeypatch, tmp_path):
        store, plan = large
        blas(monkeypatch, None)
        serial = serial_json(plan, "cbs", store)
        log = tmp_path / "log"
        spy_selector(monkeypatch, "cbs", plan, log, die={2})
        blas(monkeypatch, 1, cpus=3)
        assert serial_json(plan, "cbs", store) == serial
        assert sorted(selected_in(log)) == [(1, True), (2, False), (2, True), (3, False)]

    def test_without_a_process_to_spare_the_run_is_serial(self, large, monkeypatch):
        store, plan = large
        blas(monkeypatch, None)
        serial = serial_json(plan, "cbs", store)
        blas(monkeypatch, 1, cpus=3)
        fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        assert serial_json(plan, "cbs", store) == serial
        if fds is not None:
            assert set(os.listdir("/proc/self/fd")) == fds  # the pipe was closed


class TestFailures:
    def test_a_failing_selection_in_session_2_is_the_serial_failure(self, large, monkeypatch,
                                                                    tmp_path):
        store, plan = large
        trained = []
        train = protocol.train_session

        def spy_train(*args, **kwargs):
            trained.append(kwargs["class_space"])
            return train(*args, **kwargs)

        monkeypatch.setattr(protocol, "train_session", spy_train)
        errors = []
        for threads in (None, 1):
            log = tmp_path / f"log{threads}"
            spy_selector(monkeypatch, "cbs", plan, log, fail={2})
            blas(monkeypatch, threads)
            trained.clear()
            with pytest.raises(SessionFailure) as err:
                run(plan, "cbs", store)
            assert err.value.session == 2
            assert isinstance(err.value.__cause__, ConfigError)
            assert trained == [plan.sessions[0].class_space]
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        assert "no pick in session 2" in errors[1]
        # Session 3's child may have started before the run stopped.
        assert sorted(e for e in selected_in(log) if e[0] < 3) == [(1, True), (2, False), (2, True)]

    def test_the_first_failing_session_is_raised(self, large, monkeypatch, tmp_path):
        store, plan = large
        blas(monkeypatch, 1)
        log = tmp_path / "log"
        spy_selector(monkeypatch, "random", plan, log, fail={1, 2})
        with pytest.raises(SessionFailure, match="no pick in session 1") as err:
            run(plan, "random", store)
        assert err.value.session == 1
        assert (1, True) in selected_in(log)

    def test_no_child_outlives_the_run(self, large, monkeypatch, tmp_path):
        store, plan = large
        blas(monkeypatch, 1, cpus=3)
        pids = spy_forks(monkeypatch)
        threads = threading.active_count()
        run(plan, "cbs", store)
        assert len(pids) == 2 and all(map(reaped, pids))
        spy_selector(monkeypatch, "cbs", plan, tmp_path / "log", fail={1})
        with pytest.raises(SessionFailure):
            run(plan, "cbs", store)
        assert len(pids) == 4 and all(map(reaped, pids))
        assert threading.active_count() == threads


class TestNoHelper:
    @pytest.fixture(autouse=True)
    def no_fork(self, monkeypatch):
        """Every fork raises; returns the real `os.fork`."""
        real = os.fork

        def fork():
            raise AssertionError("a child was forked")

        monkeypatch.setattr(os, "fork", fork)
        return real

    def test_the_fork_patch_is_seen(self, large, monkeypatch):
        store, plan = large
        blas(monkeypatch, 1)
        with pytest.raises(AssertionError, match="child was forked"):
            run(plan, "cbs", store)

    def test_not_with_blas_uncapped(self, large, monkeypatch):
        store, plan = large
        blas(monkeypatch, None, cpus=64)
        run(plan, "cbs", store)

    def test_not_on_small_pools(self, small, monkeypatch):
        store, plan = small
        blas(monkeypatch, 1, cpus=8)
        run(plan, "cbs", store)

    @pytest.mark.parametrize("strategy", list(SCORERS))
    def test_not_for_the_uncertainty_strategies(self, large, monkeypatch, strategy):
        store, plan = large
        blas(monkeypatch, 1, cpus=8)
        run(plan, strategy, store)

    def test_not_for_one_session(self, large, monkeypatch):
        store, plan = large
        blas(monkeypatch, 1, cpus=8)
        run(dataclasses.replace(plan, sessions=plan.sessions[:1]), "cbs", store)

    def test_not_while_another_thread_runs(self, large, monkeypatch):
        store, plan = large
        blas(monkeypatch, 1, cpus=8)
        done = threading.Event()
        other = threading.Thread(target=done.wait)
        other.start()
        try:
            run(plan, "cbs", store)
        finally:
            done.set()
            other.join()

    def test_not_in_forked_sweep_workers(self, large, monkeypatch, tmp_path, no_fork):
        store, plan = large
        blas(monkeypatch, 1, cpus=8)
        features, plan_path = tmp_path / "features.csv", tmp_path / "plan.json"
        save_features(store, features)
        plan.save(plan_path)

        def sweep(workers):
            out_dir = tmp_path / f"w{workers}"
            rc = main(["sweep", "--plan", str(plan_path), "--features", str(features),
                       "--strategies", "random", "--budgets", "24", "--seeds", "0,1",
                       "--out-dir", str(out_dir), "--workers", str(workers)])
            return rc, out_dir

        forks = []

        def fork_unless_in_a_child():
            if forking.IN_CHILD:
                raise AssertionError("a child was forked")
            forks.append(None)
            return no_fork()

        # The sweep's own workers start; a fork inside one raises.
        with monkeypatch.context() as m:
            m.setattr(os, "fork", fork_unless_in_a_child)
            rc, out_dir = sweep(2)
        assert rc == 0
        assert len(forks) == 2
        assert not (out_dir / "failures.json").exists()
        # The same cells in this process would fork.
        rc, out_dir = sweep(1)
        assert rc == 1
        failures = json.loads((out_dir / "failures.json").read_text())["failures"]
        assert {f["error"] for f in failures} == {"AssertionError"}
