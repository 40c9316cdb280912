import dataclasses
import functools
import json
import os
import pickle
import signal
import stat
import subprocess
import sys

import numpy as np
import pytest

import cbsel
from cbsel import cli, config
from cbsel.cli import _config_from_args, build_parser, main
from cbsel.config import ENV_PREFIX, RunConfig, load_config
from cbsel.errors import ConfigError
from cbsel.datagen import WorldConfig
from cbsel.features import load_features
from cbsel.protocol import SessionPlan, load_report, report_to_dict


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A small on-disk world shared by the command tests."""
    root = tmp_path_factory.mktemp("world")
    cfg = WorldConfig(num_sessions=2, classes_per_session=3, dim=8,
                      pool_per_class=20, test_per_class=5, separation=8.0,
                      imbalance_ratio=1.0, seed=11, budget=9)
    cfg_path = root / "world.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    features = root / "features.csv"
    plan = root / "plan.json"
    rc = main(["generate", "--config", str(cfg_path),
               "--out-features", str(features), "--out-plan", str(plan)])
    assert rc == 0
    return {"config": cfg_path, "features": features, "plan": plan}


def assert_no_child_left():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestEntryPoints:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert "cbsel" in out
        assert "config schema v2" in out

    def test_version_is_the_package_version(self, capsys):
        # A source checkout has no installed metadata; the version comes
        # from the package itself.
        with pytest.raises(SystemExit):
            main(["--version"])
        assert capsys.readouterr().out.startswith(f"cbsel {cbsel.__version__} ")

    def test_module_execution(self):
        proc = subprocess.run([sys.executable, "-m", "cbsel", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "cbsel" in proc.stdout

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestGenerate:
    def test_outputs_parse_and_validate(self, world):
        store = load_features(world["features"])
        plan = SessionPlan.load(world["plan"])
        plan.validate()
        assert len(plan.sessions) == 2
        assert plan.budget == 9
        pool = sum(len(s.pool_ids) for s in plan.sessions)
        test = sum(len(s.test_ids) for s in plan.sessions)
        assert len(store) == pool + test == 2 * (3 * 20 + 3 * 5)

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["generate", "--config", str(tmp_path / "absent.json"),
                   "--out-features", str(tmp_path / "f.csv"),
                   "--out-plan", str(tmp_path / "p.json")])
        assert rc == 2
        manifest = json.loads(capsys.readouterr().err)
        assert manifest["error"] == "FileNotFoundError"


class TestSelect:
    @pytest.mark.parametrize("strategy", ["random", "balanced_random", "coreset", "cbs"])
    def test_each_standalone_strategy(self, world, tmp_path, strategy):
        out = tmp_path / f"{strategy}.json"
        argv = ["select", "--features", str(world["features"]),
                "--strategy", strategy, "--budget", "7", "--seed", "5",
                "--out", str(out)]
        if strategy == "cbs":
            argv += ["--num-clusters", "3"]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["strategy"] == strategy
        ids = payload["selected_ids"]
        assert len(ids) == 7
        assert len(set(ids)) == 7
        store = load_features(world["features"])
        assert set(ids) <= {int(i) for i in store.ids}

    def test_deterministic_output_bytes(self, world, tmp_path):
        argv = lambda p: ["select", "--features", str(world["features"]),
                          "--strategy", "cbs", "--budget", "7", "--seed", "5",
                          "--num-clusters", "3", "--out", str(p)]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv(a)) == 0
        assert main(argv(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cbs_requires_num_clusters(self, world, tmp_path, capsys):
        rc = main(["select", "--features", str(world["features"]),
                   "--strategy", "cbs", "--budget", "7", "--seed", "5",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        manifest = json.loads(capsys.readouterr().err)
        assert manifest["error"] == "ConfigError"
        assert "num-clusters" in manifest["message"]

    def test_balanced_random_without_any_label_is_a_config_error(self, tmp_path, capsys):
        features = tmp_path / "f.csv"
        features.write_text("id,label,f0,f1\n0,,1,0\n1,,0,1\n2,,1,1\n")
        rc = main(["select", "--features", str(features), "--strategy", "balanced_random",
                   "--budget", "2", "--seed", "0", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        manifest = json.loads(capsys.readouterr().err)
        assert manifest["error"] == "ConfigError"
        assert "needs labels" in manifest["message"]

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_nonpositive_budget_is_a_config_error(self, world, tmp_path, capsys, budget):
        rc = main(["select", "--features", str(world["features"]),
                   "--strategy", "random", "--budget", budget, "--seed", "5",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        manifest = json.loads(capsys.readouterr().err)
        assert manifest["error"] == "ConfigError"
        assert "--budget" in manifest["message"]

    def test_uncertainty_strategies_rejected(self, world, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["select", "--features", str(world["features"]),
                  "--strategy", "entropy", "--budget", "7", "--seed", "5",
                  "--out", str(tmp_path / "x.json")])
        assert err.value.code == 2


class TestSimulate:
    def test_runs_and_reports(self, world, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["simulate", "--plan", str(world["plan"]),
                   "--features", str(world["features"]),
                   "--strategy", "cbs", "--out", str(out)])
        assert rc == 0
        report = load_report(out)
        assert report.strategy == "cbs"
        assert len(report.per_session) == 2
        assert 0.0 <= report.avg <= 1.0

    def test_deterministic_modulo_timestamp(self, world, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["simulate", "--plan", str(world["plan"]),
                         "--features", str(world["features"]),
                         "--strategy", "margin", "--out", str(out)]) == 0
            outs.append(report_to_dict(load_report(out), include_timestamp=False))
        assert outs[0] == outs[1]

    def test_budget_and_seed_overrides(self, world, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["simulate", "--plan", str(world["plan"]),
                   "--features", str(world["features"]),
                   "--strategy", "random", "--budget", "12", "--seed", "77",
                   "--out", str(out)])
        assert rc == 0
        report = load_report(out)
        assert report.budget == 12
        assert report.seed == 77
        assert all(len(s.selected_ids) == 12 for s in report.per_session)

    def test_env_layer_reaches_validation(self, world, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CBSEL_ALPHA", "2.0")
        rc = main(["simulate", "--plan", str(world["plan"]),
                   "--features", str(world["features"]),
                   "--strategy", "random", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    @pytest.mark.parametrize("source", ["flag", "env", "file"])
    @pytest.mark.parametrize("name", ["var_floor", "temperature"])
    def test_an_infinite_tunable_exits_2_with_a_config_error(self, world, tmp_path, monkeypatch,
                                                             capsys, name, source):
        extra = []
        if source == "flag":
            extra = ["--" + name.replace("_", "-"), "inf"]
        elif source == "env":
            monkeypatch.setenv("CBSEL_" + name.upper(), "inf")
        else:
            path = tmp_path / "run.json"
            path.write_text('{"%s": Infinity}' % name)
            extra = ["--config", str(path)]
        rc = main(["simulate", "--plan", str(world["plan"]),
                   "--features", str(world["features"]), "--strategy", "random",
                   "--out", str(tmp_path / "x.json"), *extra])
        assert rc == 2
        manifest = json.loads(capsys.readouterr().err)
        assert manifest["error"] == "ConfigError"
        assert manifest["message"] == f"{name} must be finite and > 0"

    @pytest.mark.parametrize("source", ["flag", "env", "file"])
    def test_a_subnormal_temperature_exits_2_with_a_config_error(self, world, tmp_path,
                                                                  monkeypatch, capsys, source):
        extra = []
        if source == "flag":
            extra = ["--temperature", "1e-320"]
        elif source == "env":
            monkeypatch.setenv("CBSEL_TEMPERATURE", "1e-320")
        else:
            path = tmp_path / "run.json"
            path.write_text('{"temperature": 1e-320}')
            extra = ["--config", str(path)]
        rc = main(["simulate", "--plan", str(world["plan"]),
                   "--features", str(world["features"]), "--strategy", "margin",
                   "--out", str(tmp_path / "x.json"), *extra])
        assert rc == 2
        manifest = json.loads(capsys.readouterr().err)
        assert manifest["error"] == "ConfigError"
        assert manifest["message"].startswith("temperature must be >= 1e-300")
        assert not (tmp_path / "x.json").exists()

    def test_a_config_file_with_the_removed_kmeans_tol_exits_2(self, world, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text('{"kmeans_tol": 1e-4}')
        rc = main(["simulate", "--plan", str(world["plan"]),
                   "--features", str(world["features"]), "--strategy", "cbs",
                   "--out", str(tmp_path / "x.json"), "--config", str(path)])
        assert rc == 2
        manifest = json.loads(capsys.readouterr().err)
        assert manifest["error"] == "ConfigError"
        assert "unknown keys ['kmeans_tol']" in manifest["message"]
        assert not (tmp_path / "x.json").exists()

    def test_a_leftover_kmeans_tol_env_var_is_ignored(self, world, tmp_path, monkeypatch):
        argv = lambda p: ["simulate", "--plan", str(world["plan"]),
                          "--features", str(world["features"]), "--strategy", "cbs",
                          "--out", str(p)]
        assert main(argv(tmp_path / "a.json")) == 0
        monkeypatch.setenv("CBSEL_KMEANS_TOL", "0")
        assert main(argv(tmp_path / "b.json")) == 0
        a, b = (report_to_dict(load_report(tmp_path / n), include_timestamp=False)
                for n in ("a.json", "b.json"))
        assert a == b

    def test_the_removed_kmeans_tol_flag_is_an_argparse_error(self, world, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--plan", str(world["plan"]),
                  "--features", str(world["features"]), "--strategy", "cbs",
                  "--out", str(tmp_path / "x.json"), "--kmeans-tol", "1e-4"])
        assert err.value.code == 2
        assert "--kmeans-tol" in capsys.readouterr().err

    def test_flag_overrides_env(self, world, tmp_path, monkeypatch):
        monkeypatch.setenv("CBSEL_ALPHA", "2.0")
        rc = main(["simulate", "--plan", str(world["plan"]),
                   "--features", str(world["features"]),
                   "--strategy", "random", "--alpha", "0.5",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 0

    def test_oversized_budget_fails_cleanly(self, world, tmp_path, capsys):
        rc = main(["simulate", "--plan", str(world["plan"]),
                   "--features", str(world["features"]),
                   "--strategy", "random", "--budget", "999",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "PlanError"

    def test_label_past_int64_exits_2(self, world, tmp_path, capsys):
        features = tmp_path / "features.csv"
        lines = world["features"].read_text().splitlines(keepends=True)
        row_id, _, values = lines[1].split(",", 2)
        features.write_text(lines[0] + f"{row_id},99999999999999999999,{values}" + "".join(lines[2:]))
        rc = main(["simulate", "--plan", str(world["plan"]), "--features", str(features),
                   "--strategy", "random", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        manifest = json.loads(capsys.readouterr().err)
        assert manifest["error"] == "ParseError"
        assert manifest["message"].endswith("(row 2, column 2)")


class TestSweep:
    def test_grid_outputs(self, world, tmp_path):
        out_dir = tmp_path / "sweep"
        rc = main(["sweep", "--plan", str(world["plan"]),
                   "--features", str(world["features"]),
                   "--strategies", "random,cbs", "--budgets", "6",
                   "--seeds", "1,2", "--out-dir", str(out_dir), "--workers", "2"])
        assert rc == 0
        for strategy in ("random", "cbs"):
            for seed in (1, 2):
                path = out_dir / f"report_{strategy}_b6_s{seed}.json"
                report = load_report(path)
                assert report.budget == 6
                assert report.seed == seed
        lines = (out_dir / "summary.csv").read_text().splitlines()
        assert lines[0] == "strategy,budget,mean_avg,num_seeds"
        assert len(lines) == 3
        assert lines[1].startswith("cbs,6,")
        assert lines[2].startswith("random,6,")
        assert lines[1].endswith(",2")
        assert not (out_dir / "failures.json").exists()

    def test_cell_matches_simulate(self, world, tmp_path):
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--plan", str(world["plan"]),
                     "--features", str(world["features"]),
                     "--strategies", "coreset", "--budgets", "6",
                     "--seeds", "3", "--out-dir", str(out_dir)]) == 0
        single = tmp_path / "single.json"
        assert main(["simulate", "--plan", str(world["plan"]),
                     "--features", str(world["features"]),
                     "--strategy", "coreset", "--budget", "6", "--seed", "3",
                     "--out", str(single)]) == 0
        a = report_to_dict(load_report(out_dir / "report_coreset_b6_s3.json"),
                           include_timestamp=False)
        b = report_to_dict(load_report(single), include_timestamp=False)
        assert a == b

    def test_partial_failure_manifest(self, world, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        rc = main(["sweep", "--plan", str(world["plan"]),
                   "--features", str(world["features"]),
                   "--strategies", "random", "--budgets", "6,999",
                   "--seeds", "1,2", "--out-dir", str(out_dir)])
        assert rc == 1
        assert (out_dir / "report_random_b6_s1.json").exists()
        assert (out_dir / "report_random_b6_s2.json").exists()
        assert not (out_dir / "report_random_b999_s1.json").exists()
        manifest = json.loads((out_dir / "failures.json").read_text())
        assert [(f["budget"], f["seed"]) for f in manifest["failures"]] == [
            (999, 1), (999, 2)]
        assert all(f["error"] == "SessionFailure" or f["error"] == "PlanError"
                   for f in manifest["failures"])
        lines = (out_dir / "summary.csv").read_text().splitlines()
        assert len(lines) == 2  # header plus the surviving (random, 6) bucket

    def test_unknown_strategy_rejected(self, world, tmp_path, capsys):
        rc = main(["sweep", "--plan", str(world["plan"]),
                   "--features", str(world["features"]),
                   "--strategies", "random,zestful", "--budgets", "6",
                   "--seeds", "1", "--out-dir", str(tmp_path / "sweep")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    @pytest.mark.parametrize("strategies, budgets, seeds, flag", [
        ("random", "6,x", "1", "--budgets"),
        ("random", "6", "", "--seeds"),
        (",", "6", "1", "--strategies"),
    ])
    def test_malformed_list_is_a_config_error(self, world, tmp_path, capsys,
                                              strategies, budgets, seeds, flag):
        rc = main(["sweep", "--plan", str(world["plan"]),
                   "--features", str(world["features"]),
                   "--strategies", strategies, "--budgets", budgets, "--seeds", seeds,
                   "--out-dir", str(tmp_path / "sweep")])
        assert rc == 2
        manifest = json.loads(capsys.readouterr().err)
        assert manifest["error"] == "ConfigError"
        assert flag in manifest["message"]
        assert not (tmp_path / "sweep").exists()

    def _sweep(self, world, out_dir, *extra):
        return main(["sweep", "--plan", str(world["plan"]),
                     "--features", str(world["features"]),
                     "--out-dir", str(out_dir), *extra])

    def test_outputs_do_not_depend_on_workers(self, world, tmp_path):
        grid = ["--strategies", "random,cbs,margin", "--budgets", "6,999",
                "--seeds", "1,2"]
        outputs = []
        for workers in (1, 2, 3):
            out_dir = tmp_path / f"w{workers}"
            assert self._sweep(world, out_dir, *grid, "--workers", str(workers)) == 1
            assert_no_child_left()
            files = {}
            for path in sorted(out_dir.iterdir()):
                files[path.name] = [line for line in path.read_bytes().splitlines(True)
                                    if b'"created_at"' not in line]
            outputs.append(files)
        assert sorted(outputs[0]) == sorted(
            [f"report_{s}_b6_s{r}.json" for s in ("random", "cbs", "margin") for r in (1, 2)]
            + ["failures.json", "summary.csv"])
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_is_a_config_error(self, world, tmp_path, capsys, workers):
        out_dir = tmp_path / "sweep"
        rc = self._sweep(world, out_dir, "--strategies", "random", "--budgets", "6",
                         "--seeds", "1", "--workers", workers)
        assert rc == 2
        manifest = json.loads(capsys.readouterr().err)
        assert manifest["error"] == "ConfigError"
        assert "--workers" in manifest["message"]
        assert not out_dir.exists()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="worker processes are forked")
    def test_dead_worker_fails_its_cells_not_the_sweep(self, world, tmp_path,
                                                       monkeypatch, capsys):
        real_run = cli.run

        def run_or_die(plan, strategy, store, cfg):
            if strategy == "cbs":
                os._exit(3)
            return real_run(plan, strategy, store, cfg)

        monkeypatch.setattr(cli, "run", run_or_die)
        out_dir = tmp_path / "sweep"
        # Worker 1 runs (random, s1) then (cbs, s1); worker 2 the s2 cells.
        rc = self._sweep(world, out_dir, "--strategies", "random,cbs", "--budgets", "6",
                         "--seeds", "1,2", "--workers", "2")
        assert rc == 1
        assert_no_child_left()
        assert "Traceback" not in capsys.readouterr().err
        failures = json.loads((out_dir / "failures.json").read_text())["failures"]
        assert {(f["strategy"], f["seed"]) for f in failures} == {("cbs", 1), ("cbs", 2)}
        assert all(f["error"] == "WorkerDied" for f in failures)
        for r in (1, 2):
            assert (out_dir / f"report_random_b6_s{r}.json").exists()
        lines = (out_dir / "summary.csv").read_text().splitlines()
        assert len(lines) == 2

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_failed_report_write_exits_2_whatever_the_workers(self, world, tmp_path,
                                                                 monkeypatch, capsys, workers):
        # The cbs reports cannot be written, as on a full disk. A forked
        # worker sends the OSError back, and the sweep raises it as the
        # in-process loop does.
        save = cli.save_report

        def save_or_fail(report, path):
            if os.path.basename(path).startswith("report_cbs_"):
                raise OSError(28, "No space left on device")
            save(report, path)

        monkeypatch.setattr(cli, "save_report", save_or_fail)
        out_dir = tmp_path / "sweep"
        rc = self._sweep(world, out_dir, "--strategies", "random,cbs", "--budgets", "6",
                         "--seeds", "1,2", "--workers", workers)
        assert rc == 2
        assert_no_child_left()
        manifest = json.loads(capsys.readouterr().err)
        assert manifest == {"error": "OSError", "message": "[Errno 28] No space left on device"}
        assert not (out_dir / "failures.json").exists()
        assert not (out_dir / "summary.csv").exists()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="worker processes are forked")
    def test_a_worker_killed_mid_result_fails_only_its_unsent_cells(self, world, tmp_path,
                                                                    monkeypatch):
        dump = pickle.dump

        def dump_half_then_die(report, fh, *args):
            if (report.strategy, report.seed) == ("random", 2):
                data = pickle.dumps(report, *args)
                fh.write(data[:len(data) // 2])
                fh.flush()
                os.kill(os.getpid(), signal.SIGKILL)
            dump(report, fh, *args)

        monkeypatch.setattr(pickle, "dump", dump_half_then_die)
        out_dir = tmp_path / "sweep"
        rc = self._sweep(world, out_dir, "--strategies", "random,cbs", "--budgets", "6",
                         "--seeds", "1,2", "--workers", "2")
        assert rc == 1
        assert_no_child_left()
        failures = json.loads((out_dir / "failures.json").read_text())["failures"]
        assert {(f["strategy"], f["seed"]) for f in failures} == {("random", 2), ("cbs", 2)}
        assert all(f["error"] == "WorkerDied" for f in failures)
        for s in ("random", "cbs"):
            assert (out_dir / f"report_{s}_b6_s1.json").exists()
        lines = (out_dir / "summary.csv").read_text().splitlines()
        assert [line.split(",")[3] for line in lines[1:]] == ["1", "1"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="worker processes are forked")
    def test_a_failed_fork_exits_2_after_reaping_the_workers_made(self, world, tmp_path,
                                                                  monkeypatch, capsys):
        fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        fork = os.fork
        pids = []

        def fork_once():
            if pids:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork_once)
        rc = self._sweep(world, tmp_path / "sweep", "--strategies", "random,cbs",
                         "--budgets", "6", "--seeds", "1", "--workers", "2")
        assert rc == 2
        manifest = json.loads(capsys.readouterr().err)
        assert manifest["error"] == "BlockingIOError"
        assert "Resource temporarily unavailable" in manifest["message"]
        assert len(pids) == 1
        assert_no_child_left()
        if fds is not None:
            assert set(os.listdir("/proc/self/fd")) == fds  # both pipes were closed


class TestReport:
    @pytest.fixture()
    def saved_report(self, world, tmp_path):
        out = tmp_path / "report.json"
        assert main(["simulate", "--plan", str(world["plan"]),
                     "--features", str(world["features"]),
                     "--strategy", "balanced_random", "--out", str(out)]) == 0
        return out

    def test_json_reemit_is_identity(self, saved_report, tmp_path):
        out = tmp_path / "again.json"
        assert main(["report", "--in", str(saved_report),
                     "--format", "json", "--out", str(out)]) == 0
        assert out.read_bytes() == saved_report.read_bytes()

    def test_csv_to_stdout(self, saved_report, capsys):
        assert main(["report", "--in", str(saved_report)]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split(",")
        assert header[0] == "row"
        assert "accuracy" in header
        assert "imbalance_ratio" in header
        session_rows = [l for l in lines[1:] if l.startswith("session,")]
        summary_rows = [l for l in lines[1:] if l.startswith("summary,")]
        assert len(session_rows) == 2
        assert len(summary_rows) == 1

    def test_csv_file_output(self, saved_report, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["report", "--in", str(saved_report),
                     "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text().startswith("row,session,")

    def test_corrupt_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        rc = main(["report", "--in", str(bad)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def _listed(d):
    return [d]


def _with(key, value):
    return lambda d: {**d, key: value}


def _without(key):
    return lambda d: {k: v for k, v in d.items() if k != key}


def _first_pool_id(value):
    def edit(d):
        d = json.loads(json.dumps(d))
        d["sessions"][0]["pool_ids"][0] = value
        return d
    return edit


# (file, case, edit of a valid file's JSON, expected error, text the message
# names). Config and world files have no required key: every field has a default.
MALFORMED = [
    ("config", "array", _listed, "ConfigError", "expected dict, got list"),
    ("config", "unknown-key", _with("momentum", 0.9), "ConfigError", "momentum"),
    ("config", "string-for-int", _with("round_size", "5"), "ConfigError", "round_size"),
    ("config", "true-for-int", _with("round_size", True), "ConfigError", "round_size"),
    ("world", "array", _listed, "ConfigError", "expected dict, got list"),
    ("world", "unknown-key", _with("classes", 3), "ConfigError", "classes"),
    ("world", "string-for-int", _with("num_sessions", "5"), "ConfigError", "num_sessions"),
    ("world", "true-for-int", _with("dim", True), "ConfigError", "dim"),
    ("plan", "array", _listed, "PlanError", "expected dict, got list"),
    ("plan", "unknown-key", _with("rounds", 2), "PlanError", "rounds"),
    ("plan", "missing-key", _without("sessions"), "PlanError", "sessions"),
    ("plan", "true-for-int", _with("budget", True), "PlanError", "budget"),
    ("plan", "string-for-int", _with("seed", "3"), "PlanError", "seed"),
    ("plan", "float-id", _first_pool_id(1.5), "PlanError", "sessions[0].pool_ids[0]"),
    ("report", "array", _listed, "ParseError", "expected dict, got list"),
    ("report", "unknown-key", _with("notes", ""), "ParseError", "notes"),
    ("report", "missing-key", _without("budget"), "ParseError", "budget"),
    ("report", "true-for-int", _with("seed", True), "ParseError", "seed"),
    ("report", "string-for-float", _with("avg", "0.5"), "ParseError", "avg"),
]


class TestMalformedJsonFiles:
    """Every JSON file the CLI reads fails with exit 2 and a one-line
    manifest naming the offending key, never with a traceback."""

    @pytest.fixture(scope="class")
    def valid(self, world, tmp_path_factory):
        report = tmp_path_factory.mktemp("valid") / "report.json"
        assert main(["simulate", "--plan", str(world["plan"]),
                     "--features", str(world["features"]),
                     "--strategy", "random", "--out", str(report)]) == 0
        return {
            "config": RunConfig().to_dict(),
            "world": json.loads(world["config"].read_text()),
            "plan": json.loads(world["plan"].read_text()),
            "report": json.loads(report.read_text()),
        }

    @pytest.mark.parametrize("kind,case,edit,error,names", MALFORMED,
                             ids=[f"{kind}-{case}" for kind, case, *_ in MALFORMED])
    def test_exits_2_with_a_manifest(self, world, valid, tmp_path, capsys,
                                     kind, case, edit, error, names):
        bad = tmp_path / f"{kind}.json"
        bad.write_text(json.dumps(edit(valid[kind])))
        out = str(tmp_path / "out.json")
        argv = {
            "config": ["simulate", "--config", str(bad), "--plan", str(world["plan"]),
                       "--features", str(world["features"]), "--strategy", "random",
                       "--out", out],
            "world": ["generate", "--config", str(bad), "--out-features",
                      str(tmp_path / "f.csv"), "--out-plan", out],
            "plan": ["simulate", "--plan", str(bad), "--features", str(world["features"]),
                     "--strategy", "random", "--out", out],
            "report": ["report", "--in", str(bad)],
        }[kind]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        manifest = json.loads(err)
        assert manifest["error"] == error
        assert names in manifest["message"]


# 300 seeded random bytes; not UTF-8, since byte 1 (0x82) cannot start a character.
UNDECODABLE = np.random.default_rng(0).bytes(300)
UNREADABLE = [
    ("config", UNDECODABLE, "ConfigError"),
    ("world", UNDECODABLE, "ConfigError"),
    ("plan", UNDECODABLE, "PlanError"),
    ("report", UNDECODABLE, "ParseError"),
    ("features", UNDECODABLE, "ParseError"),
    ("config", b"{broken", "ConfigError"),
    ("world", b"{broken", "ConfigError"),
    ("plan", b"{broken", "PlanError"),
    ("report", b"{broken", "ParseError"),
]


class TestUnreadableFiles:
    """A file that is not UTF-8, or not JSON where JSON is expected, exits 2
    with a manifest that names the file."""

    @pytest.mark.parametrize("kind,content,error", UNREADABLE, ids=[
        f"{kind}-{'bytes' if content is UNDECODABLE else 'broken'}"
        for kind, content, _ in UNREADABLE])
    def test_exits_2_naming_the_file(self, world, tmp_path, capsys, kind, content, error):
        bad = tmp_path / f"bad-{kind}"
        bad.write_bytes(content)
        out = str(tmp_path / "out.json")
        argv = {
            "config": ["select", "--config", str(bad), "--features", str(world["features"]),
                       "--strategy", "random", "--budget", "3", "--seed", "0", "--out", out],
            "world": ["generate", "--config", str(bad), "--out-features",
                      str(tmp_path / "f.csv"), "--out-plan", out],
            "plan": ["simulate", "--plan", str(bad), "--features", str(world["features"]),
                     "--strategy", "random", "--out", out],
            "report": ["report", "--in", str(bad)],
            "features": ["select", "--features", str(bad), "--strategy", "random",
                         "--budget", "3", "--seed", "0", "--out", out],
        }[kind]
        assert main(argv) == 2
        manifest = json.loads(capsys.readouterr().err)
        assert manifest["error"] == error
        assert str(bad) in manifest["message"]


class TornFile:
    """A file whose first write stores half its text and then fails, as on a
    full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


class TestAtomicWrites:
    """Every output file is written whole or not at all."""

    @pytest.mark.parametrize("name", ["features.csv", "plan.json", "report.json"])
    def test_a_failed_write_leaves_the_target_and_no_temporary_file(self, world, tmp_path,
                                                                    monkeypatch, name):
        store = load_features(world["features"])
        plan = SessionPlan.load(world["plan"])
        report = cbsel.run(plan, "random", store)
        write = {"features.csv": functools.partial(cbsel.save_features, store),
                 "plan.json": plan.save,
                 "report.json": functools.partial(cbsel.save_report, report)}[name]
        target = tmp_path / name
        target.write_bytes(b"old contents\r\n")
        monkeypatch.setattr(config, "open", lambda *a, **kw: TornFile(open(*a, **kw)),
                            raising=False)
        with pytest.raises(OSError, match="No space left"):
            write(target)
        assert target.read_bytes() == b"old contents\r\n"
        assert os.listdir(tmp_path) == [name]

    def test_a_written_file_keeps_its_bytes_and_gets_the_umask_mode(self, tmp_path):
        target = tmp_path / "out.csv"
        umask = os.umask(0o027)
        try:
            with config.atomic_write(target) as fh:
                fh.write("a,b\r\n1,2\n")
        finally:
            os.umask(umask)
        assert target.read_bytes() == b"a,b\r\n1,2\n"
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert os.listdir(tmp_path) == ["out.csv"]


class TestOversizedCell:
    def test_simulate_exits_2_with_a_parse_error(self, world, tmp_path, capsys):
        # A cell longer than csv's field size limit (131,072 characters).
        features = tmp_path / "f.csv"
        features.write_text("id,label,f0\n0,1,0.5\n1,1," + "0" * 131_072 + "1\n")
        assert main(["simulate", "--plan", str(world["plan"]), "--features", str(features),
                     "--strategy", "random", "--out", str(tmp_path / "out.json")]) == 2
        manifest = json.loads(capsys.readouterr().err)
        assert manifest["error"] == "ParseError"
        assert "(row 3)" in manifest["message"]


class TestUnlabeledRow:
    def test_is_named_by_simulate_and_select(self, tmp_path, capsys):
        features = tmp_path / "f.csv"
        features.write_text("id,label,f0,f1\n0,0,1,0\n1,,0.9,0.1\n2,1,0,1\n"
                            "3,0,1,0.1\n4,1,0.1,1\n")
        plan = SessionPlan.from_dict({"budget": 3, "seed": 0, "sessions": [
            {"class_space": [0, 1], "pool_ids": [0, 1, 2], "test_ids": [3, 4]}]})
        plan.save(tmp_path / "p.json")
        out = str(tmp_path / "out.json")
        for argv in (["simulate", "--plan", str(tmp_path / "p.json"), "--features",
                      str(features), "--strategy", "random", "--out", out],
                     ["select", "--features", str(features), "--strategy",
                      "balanced_random", "--budget", "2", "--seed", "0", "--out", out]):
            assert main(argv) == 2
            assert "id 1 has no label" in json.loads(capsys.readouterr().err)["message"]


# Minimal argv per subcommand that takes tunables; only parsed, never run.
SUBCOMMAND_ARGV = {
    "select": ["select", "--features", "f.csv", "--strategy", "random",
               "--budget", "1", "--seed", "0", "--out", "o.json"],
    "simulate": ["simulate", "--plan", "p.json", "--features", "f.csv",
                 "--strategy", "random", "--out", "o.json"],
    "sweep": ["sweep", "--plan", "p.json", "--features", "f.csv",
              "--strategies", "random", "--budgets", "1", "--seeds", "0",
              "--out-dir", "d"],
}


def _changed(field):
    """A valid value of the field that differs from its default."""
    if isinstance(field.default, bool):
        return not field.default
    if isinstance(field.default, int):
        return field.default + 1
    return field.default / 2


class TestTunableSchema:
    """Every RunConfig field reaches the config through every layer."""

    FIELDS = dataclasses.fields(RunConfig)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_config_file(self, field, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({field.name: _changed(field)}))
        assert getattr(load_config(path, env={}), field.name) == _changed(field)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_environment(self, field):
        env = {ENV_PREFIX + field.name.upper(): str(_changed(field))}
        assert getattr(load_config(env=env), field.name) == _changed(field)

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_flag(self, field, command, monkeypatch):
        for f in self.FIELDS:
            monkeypatch.delenv(ENV_PREFIX + f.name.upper(), raising=False)
        value = _changed(field)
        flag = "--" + field.name.replace("_", "-")
        if isinstance(value, bool):
            extra = [flag] if value else ["--no-" + flag[2:]]
        else:
            extra = [flag, str(value)]
        args = build_parser().parse_args(SUBCOMMAND_ARGV[command] + extra)
        assert getattr(_config_from_args(args), field.name) == value

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
    def test_removed_guard_flag_rejected(self, command):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(SUBCOMMAND_ARGV[command] + ["--brute-force-guard", "5"])
        assert err.value.code == 2

    def test_removed_guard_key_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"brute_force_guard": 5}))
        with pytest.raises(ConfigError):
            load_config(path, env={})
