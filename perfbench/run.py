#!/usr/bin/env python3
"""wiedlab benchmark: one closed-loop client runs jobs of one workload.

    python3 perfbench/run.py --workload run-1d --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The client starts the next job only
after the previous one has finished, until ``--seconds`` have passed.
Every job's outputs are checked (``workloads.check_job``) and hashed; all
jobs of a run must write identical artifacts.  The last stdout line is
the result: ``correct``, ``attempted``, ``failed`` and the metrics, the
end-to-end ones with ``--trace 0`` and the per-layer ones with
``--trace 1``.  A traced run alternates untraced and traced jobs, so the
difference of their medians is the tracing overhead and the hash check
proves tracing does not change results.  The generated config, a record
of the run and, when traced, the spans are left in ``.bench_runs/``.

BLAS threads are pinned through the environment before numpy loads,
because artifact hashes differ between thread counts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 2
SETUP_PROBES = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids that only prove each code path runs")
    ap.add_argument("--setup-probe", metavar="CONFIG",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        ap.error("--workload is required")
    return args


def pin_blas_threads() -> int:
    n = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for key in BLAS_ENV:
        os.environ[key] = str(n)
    return n


def setup_probe(cfg_path: str) -> int:
    """Child process of ``time_setup``: the job's imports and config load."""
    from wiedlab import cli, runner  # noqa: F401  the imports a job needs
    from wiedlab.config import load_config
    load_config(cfg_path)
    print("ready", flush=True)
    return 0


def time_setup(cfg_path: Path) -> float:
    """Median wall time from process start through imports and
    ``load_config`` (which builds the grid and evaluates the initial
    data), over several fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "run.py"),
                               "--setup-probe", str(cfg_path)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {rc})")
    return statistics.median(times)


def run(args, blas_threads: int) -> dict:
    import workloads as wl
    from tracing import Tracer, installed, layer_table
    from wiedlab import config

    rundir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    cfg_path = rundir / "config.json"
    cfg_path.write_text(json.dumps(
        wl.make_config(args.workload, args.seed, smoke=args.smoke), indent=1))
    setup_s = time_setup(cfg_path)
    tracer = Tracer()
    tracer.job = -1
    with installed(tracer) if args.trace else contextlib.nullcontext():
        cfg = config.load_config(cfg_path)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "blas_threads": blas_threads,
              "setup_s": setup_s}
    if args.trace:
        from micro import environment, kernel_timings
        record["environment"] = environment(blas_threads)
        micro = kernel_timings(args.seed)

    times = {False: [], True: []}
    reference_hashes = None
    attempted = failed = 0
    out = rundir / "job"
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and attempted % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        tracer.job = attempted
        problems = []
        t0 = time.perf_counter()
        try:
            with installed(tracer) if traced else contextlib.nullcontext():
                wl.run_job(args.workload, cfg_path, cfg, out)
        except Exception:  # a failing job is counted; the loop goes on
            problems.append(traceback.format_exc())
        times[traced].append(time.perf_counter() - t0)
        attempted += 1
        if not problems:
            try:
                problems = wl.check_job(args.workload, out)
                hashes = wl.tree_hashes(out)
            except (OSError, ValueError, KeyError, IndexError):
                problems.append(traceback.format_exc())
            else:
                if reference_hashes is None:
                    reference_hashes = hashes
                elif hashes != reference_hashes:
                    problems.append("artifact hashes differ from the first "
                                    "job of this run")
        if problems:
            failed += 1
            print(f"job {attempted - 1} failed:", *problems, sep="\n  ",
                  file=sys.stderr)
        done = time.perf_counter() - start >= args.seconds
        if done and (not args.trace or (times[True] and times[False])):
            break
    shutil.rmtree(out, ignore_errors=True)

    record.update(attempted=attempted, failed=failed,
                  job_s_untraced=times[False], job_s_traced=times[True],
                  artifact_hashes=reference_hashes)
    if args.trace:
        metrics = layer_table(tracer, len(times[True]))
        metrics.update(micro)
        env = record["environment"]
        metrics["env.nproc"] = (float(env["nproc"]), "count")
        metrics["env.blas_threads"] = (float(env["blas_threads"]), "count")
        metrics["env.l2_cache_kib"] = (env["l2_cache_kib"], "KiB")
        metrics["env.l3_cache_kib"] = (env["l3_cache_kib"], "KiB")
        metrics["trace.overhead_s"] = (
            statistics.median(times[True]) - statistics.median(times[False]),
            "s")
        tracer.write(rundir / "trace.json", record)
    else:
        metrics = {
            "job_s": (statistics.median(times[False]), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
        }
    (rundir / "record.json").write_text(json.dumps(record, indent=1))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = pin_blas_threads()
    if not (SRC / "wiedlab" / "__init__.py").is_file():
        print(f"perfbench: no wiedlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe is not None:
        return setup_probe(args.setup_probe)
    result = run(args, blas_threads)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
