"""Command-line entry point: generate synthetic worlds, run a single
selection pass, simulate the full multi-session protocol, sweep a grid of
strategies, budgets, and seeds, and flatten reports to CSV.

One root seed determines all randomness; per-component streams are derived
by hashing, so adding a strategy or budget to a sweep never perturbs another
cell's results.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import os
import statistics
import sys

from . import __version__
from .config import CONFIG_SCHEMA_VERSION, TYPES, RunConfig, load_config
from .datagen import WorldConfig, generate
from .errors import CbselError, ConfigError
from .features import atomic_write, load_features, save_features
from .forking import Forked, can_fork
from .protocol import (
    SCORERS,
    SELECTORS,
    STRATEGIES,
    Oracle,
    RunReport,
    SessionPlan,
    load_report,
    report_json,
    run,
    save_report,
    usable_cpus,
)
from .seeding import derive_seed


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("tunables (override config file and environment)")
    g.add_argument("--config", type=str, default=None, help="JSON config file")
    for name, ty in TYPES.items():
        flag = "--" + name.replace("_", "-")
        if ty is bool:
            g.add_argument(flag, action=argparse.BooleanOptionalAction, default=None)
        else:
            g.add_argument(flag, type=ty, default=None)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return load_config(args.config, {name: getattr(args, name) for name in TYPES})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbsel",
        description="Class-balanced sample selection and the active "
        "class-incremental protocol around it.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"cbsel {__version__} (config schema v{CONFIG_SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a synthetic world: features CSV + plan JSON")
    p.add_argument("--config", type=str, required=True, help="world config JSON")
    p.add_argument("--out-features", type=str, required=True)
    p.add_argument("--out-plan", type=str, required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("select", help="single selection pass over one pool")
    p.add_argument("--features", type=str, required=True)
    p.add_argument("--strategy", choices=SELECTORS, required=True,
                   help=f"{' and '.join(SCORERS)} need a trained classifier, so they "
                        "run only inside `simulate`")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--num-clusters", type=int, default=None,
                   help="cluster count for cbs (required with --strategy cbs)")
    p.add_argument("--out", type=str, required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("simulate", help="run the full multi-session protocol")
    p.add_argument("--plan", type=str, required=True)
    p.add_argument("--features", type=str, required=True)
    p.add_argument("--strategy", choices=STRATEGIES, required=True)
    p.add_argument("--budget", type=int, default=None, help="override the plan's budget")
    p.add_argument("--seed", type=int, default=None, help="override the plan's seed")
    p.add_argument("--out", type=str, required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="cross-product of strategies x budgets x seeds")
    p.add_argument("--plan", type=str, required=True)
    p.add_argument("--features", type=str, required=True)
    p.add_argument("--strategies", type=str, required=True, help="comma-separated")
    p.add_argument("--budgets", type=str, required=True, help="comma-separated")
    p.add_argument("--seeds", type=str, required=True, help="comma-separated")
    p.add_argument("--out-dir", type=str, required=True)
    p.add_argument("--workers", type=int, default=usable_cpus(),
                   help="worker processes that run cells at once (default: the number "
                        "of usable CPUs); 1 runs every cell in this process")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="re-emit a run report as JSON or flatten to CSV")
    p.add_argument("--in", dest="infile", type=str, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out", type=str, default=None, help="default: stdout")
    p.set_defaults(func=_cmd_report)

    return parser


def _cmd_generate(args) -> int:
    config = WorldConfig.load(args.config)
    store, plan = generate(config)
    save_features(store, args.out_features)
    plan.save(args.out_plan)
    print(f"wrote {len(store)} features to {args.out_features} and "
          f"{len(plan.sessions)} sessions to {args.out_plan}")
    return 0


def _cmd_select(args) -> int:
    cfg = _config_from_args(args)
    if args.budget < 1:
        raise ConfigError(f"--budget must be >= 1, got {args.budget}")
    store = load_features(args.features).l2_normalize()
    selection = SELECTORS[args.strategy](
        store, args.budget, derive_seed(args.seed, "select"), args.num_clusters, cfg,
        Oracle.from_store(store))
    payload = {
        "strategy": args.strategy,
        "budget": args.budget,
        "seed": args.seed,
        "selected_ids": [int(i) for i in selection.ids],
    }
    with atomic_write(args.out) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"selected {len(selection.ids)} of {len(store)} samples -> {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    plan = SessionPlan.load(args.plan)
    if args.budget is not None:
        plan = dataclasses.replace(plan, budget=args.budget)
    if args.seed is not None:
        plan = dataclasses.replace(plan, seed=args.seed)
    store = load_features(args.features)
    report = run(plan, args.strategy, store, cfg)
    save_report(report, args.out)
    print(f"strategy={report.strategy} budget={report.budget} seed={report.seed} "
          f"avg={report.avg:.4f} -> {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    plan = SessionPlan.load(args.plan)
    store = load_features(args.features)
    work = store if store.normalized else store.l2_normalize()
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    budgets = _int_list(args.budgets, "--budgets")
    seeds = _int_list(args.seeds, "--seeds")
    if not strategies:
        raise ConfigError("--strategies names no strategy")
    for s in strategies:
        if s not in STRATEGIES:
            raise ConfigError(f"unknown strategy {s!r}")
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    os.makedirs(args.out_dir, exist_ok=True)

    cells = [(s, b, r) for s in strategies for b in budgets for r in seeds]
    run_cell = functools.partial(_run_cell, plan, work, cfg, args.out_dir)
    workers = min(args.workers, len(cells))
    if workers > 1 and can_fork():
        # Forked workers inherit the sweep's inputs; only results are
        # pickled. Worker i runs cells i, i + workers, ..., and results are
        # read in cell order, so the outputs match the in-process loop.
        died = "its worker process ended before sending its result"
        with Forked(run_cell, cells, workers) as sent:
            outcomes = [_failure(cell, "WorkerDied", died) if o is None else _raise_os_error(o)
                        for cell, o in zip(cells, sent)]
    else:
        outcomes = [_raise_os_error(o) for o in map(run_cell, cells)]

    results = {cell: o for cell, o in zip(cells, outcomes) if isinstance(o, RunReport)}
    failures = [o for o in outcomes if not isinstance(o, RunReport)]
    with atomic_write(os.path.join(args.out_dir, "summary.csv")) as fh:
        fh.write(_summary_csv(results))
    failures_json = os.path.join(args.out_dir, "failures.json")
    if failures:
        failures.sort(key=lambda f: (f["strategy"], f["budget"], f["seed"]))
        with atomic_write(failures_json) as fh:
            fh.write(json.dumps({"failures": failures}, sort_keys=True, indent=2) + "\n")
        print(f"{len(failures)} of {len(cells)} cells failed; see {failures_json}", file=sys.stderr)
        return 1
    with contextlib.suppress(FileNotFoundError):  # a failed earlier sweep's list
        os.remove(failures_json)
    print(f"all {len(cells)} cells done -> {args.out_dir}")
    return 0


def _run_cell(plan, work, cfg, out_dir, cell: tuple[str, int, int]) -> RunReport | dict | OSError:
    """Run one (strategy, budget, seed) cell and write its report. A cell
    that raises comes back as its failure record. A report write that fails
    comes back as its OSError, for the sweep to raise (`_raise_os_error`):
    a forked worker cannot raise into the sweep."""
    strategy, budget, seed = cell
    try:
        report = run(dataclasses.replace(plan, budget=budget, seed=seed),
                     strategy, work, cfg)
    except Exception as exc:
        return _failure(cell, type(exc).__name__, str(exc))
    try:
        save_report(report, os.path.join(out_dir, f"report_{strategy}_b{budget}_s{seed}.json"))
    except OSError as exc:
        return exc
    return report


def _raise_os_error(outcome):
    """`outcome`, unless it is an OSError: then the sweep stops with it."""
    if isinstance(outcome, OSError):
        raise outcome
    return outcome


def _failure(cell: tuple[str, int, int], error: str, message: str) -> dict:
    strategy, budget, seed = cell
    return {"strategy": strategy, "budget": budget, "seed": seed,
            "error": error, "message": message}


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated integers, got {text!r}") from None


def _summary_csv(results: dict) -> str:
    """Mean Avg per (strategy, budget) across seeds, as plot-ready CSV."""
    buckets: dict[tuple[str, int], list[float]] = {}
    for (strategy, budget, _seed), report in results.items():
        buckets.setdefault((strategy, budget), []).append(report.avg)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["strategy", "budget", "mean_avg", "num_seeds"])
    for (strategy, budget), avgs in sorted(buckets.items()):
        writer.writerow([strategy, budget, f"{statistics.fmean(avgs):.10g}", len(avgs)])
    return out.getvalue()


def _cmd_report(args) -> int:
    report = load_report(args.infile)
    if args.format == "json":
        text = report_json(report)
    else:
        text = _report_csv(report)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with atomic_write(args.out) as fh:
            fh.write(text)
    return 0


def _report_csv(report: RunReport) -> str:
    """One row per session plus a summary row; the infinite imbalance ratio
    becomes an empty cell with the flag column set."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([
        "row", "session", "strategy", "budget", "seed", "accuracy",
        "accuracy_new", "accuracy_old", "selected_count", "discovery_ratio",
        "imbalance_ratio", "undiscovered_class", "median_per_class_kl",
    ])
    for s in report.per_session:
        inf = math.isinf(s.imbalance_ratio)
        writer.writerow([
            "session", s.session, report.strategy, report.budget, report.seed,
            f"{s.accuracy:.10g}", f"{s.accuracy_new:.10g}",
            "" if s.accuracy_old is None else f"{s.accuracy_old:.10g}",
            len(s.selected_ids), f"{s.discovery_ratio:.10g}",
            "" if inf else f"{s.imbalance_ratio:.10g}", str(inf).lower(),
            "" if not s.per_class_kl else f"{statistics.median(s.per_class_kl.values()):.10g}",
        ])
    writer.writerow([
        "summary", "", report.strategy, report.budget, report.seed,
        f"{report.avg:.10g}", "", "", "", "", "", "", "",
    ])
    return out.getvalue()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CbselError, OSError) as exc:
        manifest = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(manifest, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
