"""cbsel benchmark: one workload, whole passes of the public API, timed.

    python3 perfbench/run.py --workload cbs_large_pool --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; cbsel is imported from ``src/`` there.
The workload's worlds are generated from ``--seed`` (timed as ``setup_s``).
Passes then run back to back, each on one unit of work (see
``workloads.py``): every unit once, then again while the next pass fits in
``--seconds``. The set-up is repeated at even intervals through the run, so
that its repeats meet the same machine as the passes; ``setup_s`` is their
median. ``wall_s`` is the median over units of each unit's median pass time,
so it does not depend on which units happened to run twice. Every cell of
every pass is checked for correctness, and a unit that runs twice must give
the same report digest; the run exits 1 when a check fails.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` follows each
untraced pass with a traced one and prints the per-layer metrics (medians
over traced passes) and the tracing overhead; traced and untraced digests
must agree. The spans of the last traced pass are written to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, the report digest and each metric with its unit.
``--out FILE`` also writes the full record (environment, samples, digest).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 7


def _cap_blas(threads: int) -> None:
    # Must run before numpy is imported: the BLAS reads these at load time.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def _import_cbsel():
    src = ROOT / "src"
    if not (src / "cbsel" / "__init__.py").is_file():
        raise SystemExit(f"error: no cbsel sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import cbsel
    if Path(cbsel.__file__).resolve().parent != (src / "cbsel").resolve():
        raise SystemExit(f"error: imported cbsel from {cbsel.__file__}, not {src}")
    return cbsel


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(seed: int, blas_threads: int) -> dict:
    import numpy as np
    import workloads
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": workloads.cpus(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas, "blas_threads": blas_threads,
        "sweep_workers": workloads.WORKERS, "git_sha": _git_sha(), "seed": seed,
        "machine": platform.machine(),
    }


def timing(samples: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond
    it (absent below eleven samples), with the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered), "samples": samples}
    if n >= 11:
        out["tail_pct"] = 100.0 * (n - 10) / n
        out["tail"] = ordered[n - 11]
    return out


def _run_pass(wl, unit, tracer, pass_dir):
    os.makedirs(pass_dir, exist_ok=True)
    wl.load(unit)
    t0 = time.perf_counter()
    cells = wl.run_pass(unit, str(pass_dir), tracer)
    return time.perf_counter() - t0, cells


def _finite_or_none(v):
    return v if math.isfinite(v) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=str, default=None, help="write the full record here")
    args = parser.parse_args(argv)

    # The sweep runs one worker per CPU, so BLAS gets one thread: workers x
    # BLAS threads never exceeds nproc.
    blas_threads = 1
    _cap_blas(blas_threads)
    # The sweep reads CBSEL_* tunables from the environment; the workloads
    # define their own configuration.
    for var in [v for v in os.environ if v.startswith("CBSEL_")]:
        del os.environ[var]
    cbsel = _import_cbsel()
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    env = _environment(args.seed, blas_threads)
    scratch = OUT_DIR / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload]()
    unit_walls: dict[int, list[float]] = {}
    walls, traced_walls, layer_samples, problems = [], [], [], []
    unit_digests: dict[int, str] = {}
    first_cells = []
    attempted = failed = 0
    spans = []
    try:
        os.makedirs(scratch)
        setup_times = [wl.setup(args.seed, str(scratch))]
        start = time.perf_counter()
        passes = 0
        while True:
            # Every unit runs once; then units repeat while time is left.
            u = passes % wl.units
            before = time.perf_counter()
            wall, cells = _run_pass(wl, u, None, scratch / "pass")
            walls.append(wall)
            unit_walls.setdefault(u, []).append(wall)
            batches = [cells]
            if args.trace:
                tracer = tracing.Tracer()
                with tracing.installed(tracer, cbsel):
                    wall, traced = _run_pass(wl, u, tracer, scratch / "pass")
                traced_walls.append(wall)
                layer_samples.append(tracing.layer_metrics(tracer.spans))
                spans = tracer.spans
                batches.append(traced)
            if u not in unit_digests:
                unit_digests[u] = workloads.digest(cells)
                first_cells.extend(cells)
            for batch in batches:
                if workloads.digest(batch) != unit_digests[u]:
                    problems.append(f"unit {u}: reports differ between passes")
                for cell in batch:
                    attempted += 1
                    problem = workloads.check_cell(cell)
                    if problem:
                        failed += 1
                        problems.append(f"{cell.name}: {problem}")
            passes += 1
            if time.perf_counter() - start >= len(setup_times) * args.seconds / SETUP_REPEATS:
                setup_times.append(wl.setup(args.seed, str(scratch)))
            step = time.perf_counter() - before
            if passes >= wl.units and time.perf_counter() - start + step > args.seconds:
                break
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(wl.setup(args.seed, str(scratch)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_t = timing(walls)
    wall_s = statistics.median(statistics.median(unit_walls[u]) for u in range(wl.units))
    setup_t = timing(setup_times)
    rows = statistics.median_low(wl.rows(u) for u in range(wl.units))
    quality = workloads.quality(first_cells)
    digest = hashlib.sha256("".join(unit_digests[u] for u in range(wl.units)).encode()).hexdigest()
    metrics_all = {
        "wall_s": wall_s,
        "rows_per_s": rows / wall_s,
        "setup_s": setup_t["median"],
        "peak_rss_mb": rss_mb,
        "ok_frac": (attempted - failed) / attempted,
        **{k: _finite_or_none(v) for k, v in quality.items()},
    }
    correct = not problems and None not in metrics_all.values()

    record = {
        "workload": args.workload, "environment": env, "trace": args.trace,
        "seconds": args.seconds, "units": wl.units, "rows_per_pass": rows,
        "digest": digest, "unit_digests": [unit_digests[u] for u in range(wl.units)],
        "timings": {"wall_s": wall_t, "setup_s": setup_t},
        "end_to_end": metrics_all,
        "problems": problems,
    }
    if args.trace:
        traced_t = timing(traced_walls)
        layers = {k: statistics.median(s[k] for s in layer_samples)
                  for k in layer_samples[0]}
        layers["trace.wall_s"] = traced_t["median"]
        layers["trace.overhead_s"] = traced_t["median"] - wall_t["median"]
        layers["trace.spans"] = len(spans)
        record["timings"]["trace.wall_s"] = traced_t
        record["per_layer"] = values = layers
        record["computed"] = list(tracing.COMPUTED)
        _write_spans(spans, args.workload, args.seed)
    else:
        values = metrics_all
    # Names and units come from BENCHMARK.json; a metric it does not list, or
    # one it lists that the run did not produce, is a bug in the benchmark.
    units = _declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(values):
        raise SystemExit(f"error: metrics {sorted(set(units) ^ set(values))} "
                         "do not match BENCHMARK.json")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")

    for problem in problems:
        print(f"# FAIL {problem}", file=sys.stderr)
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# digest {digest}")
    print(f"# passes {wall_t['n']} over {wl.units} units, rows per pass {rows}")
    if "tail" in wall_t:
        print(f"# wall_s p{wall_t['tail_pct']:.0f} {wall_t['tail']} over {wall_t['n']} passes")
    for k, m in metrics.items():
        label = " (computed)" if k in tracing.COMPUTED else ""
        print(f"{k:32s} {m['value']} {m['unit']}{label}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _declared_units(section: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _write_spans(spans, workload: str, seed: int) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-s{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([{"id": s.id, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end, "counts": s.counts}
                   for s in spans], fh)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
