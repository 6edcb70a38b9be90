"""Acceptance suite: every gate criterion as a measurable check.

The benchmark artifacts are produced once per process (through the same
runner the CLI uses) and shared across criteria; determinism re-runs the
pipeline through the CLI in a fresh process under another BLAS thread
count.  The maximum-principle and diagnostic criteria read the run's
summary.json and reports, after checking that the run used the options
and thresholds they enforce, so a config edit cannot loosen a criterion.
Calibrated thresholds come from the shipped calibration file next to
the config.  `run_acceptance` powers both the CLI `verify` subcommand
and tests/test_acceptance.py.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import diagnostics as dg
from .assembly import functional_gradient, functional_value
from .combustion import ZERO_MODEL
from .config import load_config
from .grid import Cylinder, GridSpec, build_grid, restrict, weighted_norm
from .parabolic import analytic_heat_oracle, march_parabolic
from .runner import load_field, run_experiment


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    skipped: bool = False


def calibration_path(config_path) -> Path:
    p = Path(config_path)
    return p.with_name(p.stem + ".calibration.json")


def load_calibration(config_path) -> dict:
    p = calibration_path(config_path)
    if not p.exists():
        return {}
    return json.loads(p.read_text())


class AcceptanceContext:
    """Lazily runs the benchmark once, into workdir, and caches what the
    criteria read."""

    def __init__(self, config_path, workdir):
        self.config_path = str(config_path)
        self.cfg = load_config(config_path)
        self.workdir = Path(workdir)
        self.calibration = load_calibration(config_path)
        self._run = None

    def benchmark(self):
        if self._run is None:
            out = self.workdir / "run-a"
            manifest = run_experiment(self.cfg, out=str(out))
            grid = build_grid(self.cfg.grid)
            last = self.cfg.schedule.values()[-1]
            _, U, _ = load_field(out / "fields" / f"eps-{last:g}.f64")
            stats = json.loads((out / "reports" / "levels.json").read_text())
            summary = {e["name"]: e for e in json.loads(
                (out / "summary.json").read_text())}
            self._run = {"manifest": manifest, "grid": grid, "last": U,
                         "stats": stats, "summary": summary, "out": out}
        return self._run

    def report(self, name: str) -> list[dict]:
        """Rows of one of the run's reports/*.csv, values as strings."""
        with open(self.benchmark()["out"] / "reports" / name) as f:
            return list(csv.DictReader(f))

    def pinned(self, name: str, **want) -> str | None:
        """None when the config runs diagnostic name with these options
        (defaults filled in at load), else what differs."""
        given = [d.options for d in self.cfg.diagnostics if d.name == name]
        if not given:
            return f"the config does not run {name!r}"
        bad = [f"{k}={given[0].get(k)!r} (gate: {v!r})"
               for k, v in want.items() if given[0].get(k) != v]
        return f"{name!r} runs with {', '.join(bad)}" if bad else None


# ---------------------------------------------------------------------------

def criterion_gradient_consistency(ctx) -> CriterionResult:
    t0 = time.time()
    grid = build_grid(GridSpec(d=1, a=0.5, L=1.0, Y=1.0, T=1.0,
                               nx=6, ny=6, nt=6))
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(3):
        U = 0.5 + 0.4 * rng.standard_normal(grid.spacetime_shape)
        eta = rng.standard_normal(grid.spacetime_shape)
        eta.reshape(grid.spec.nt + 1, -1)[0] = 0.0
        G = functional_gradient(grid, ctx.cfg.model, 0.2, U)
        h = 1e-5
        fd = (functional_value(grid, ctx.cfg.model, 0.2, U + h * eta)
              - functional_value(grid, ctx.cfg.model, 0.2, U - h * eta)
              ) / (2 * h)
        an = float(np.sum(G * eta.reshape(G.shape)))
        worst = max(worst, abs(fd - an) / max(abs(fd), 1e-300))
    dt = time.time() - t0
    ok = worst <= 1e-6 and dt < 5.0
    return CriterionResult(
        "1 gradient consistency", ok,
        f"max relative FD error {worst:.2e} (tol 1e-6), {dt:.1f}s (< 5s)")


def criterion_linear_oracle(ctx) -> CriterionResult:
    t0 = time.time()
    w, T, L = 0.08, 0.08, 2.5
    errs = []
    for h in (1 / 32, 1 / 64, 1 / 128):
        nx, ny = int(round(2 * L / h)), int(round(L / h))
        nt = int(np.ceil(T / (4.0 * h * h)))
        grid = build_grid(GridSpec(d=1, a=0.0, L=L, Y=L, T=T,
                                   nx=nx, ny=ny, nt=nt, grading=1.0))
        ym, xm = grid.coords()
        X = np.stack(np.broadcast_arrays(xm, ym), axis=-1)
        U0 = analytic_heat_oracle(X, 0.0, w).ravel()
        # march without holding the trajectory: only its last layer counts
        for u in march_parabolic(grid, ZERO_MODEL, U0):
            pass
        errs.append(float(np.max(np.abs(
            u - analytic_heat_oracle(X, T, w).ravel()))))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    dt = time.time() - t0
    ok = min(orders) >= 1.8 and errs[-1] <= 5e-3 and dt < 30.0
    return CriterionResult(
        "2 linear oracle", ok,
        f"orders {orders[0]:.2f}/{orders[1]:.2f} (>= 1.8), "
        f"final Linf {errs[-1]:.2e} (<= 5e-3), {dt:.1f}s (< 30s)")


def criterion_eps_limit(ctx) -> CriterionResult:
    run = ctx.benchmark()
    dists = [s["dist_to_ref"] for s in run["stats"]]
    eps = [s["eps"] for s in run["stats"]]
    strict = all(b < a for a, b in zip(dists, dists[1:]))
    third = dists[-1] <= dists[0] / 3.0
    ratio = f"{dists[-1] / dists[0]:.3f}" if dists[0] else "n/a"
    wall = run["manifest"]["wallclock_s"]
    ok = (strict and third and len(dists) == 5
          and abs(eps[0] - 0.2) < 1e-12 and wall < 600.0)
    return CriterionResult(
        "3 eps-limit consistency", ok,
        f"distances {['%.4f' % d for d in dists]}, strict decrease "
        f"{strict}, last/first {ratio} (<= 1/3), {wall:.0f}s (< 600s)")


def criterion_max_principle(ctx) -> CriterionResult:
    summary = ctx.benchmark()["summary"]
    names = [f"max-principle-eps-{eps:g}" for eps in ctx.cfg.schedule.values()]
    entries = [summary.get(n, {}) for n in names + ["max-principle-parabolic"]]
    if any(e.get("threshold") != 1e-8 for e in entries):
        return CriterionResult("4 maximum principle", False,
                               "no max-principle entry at 1e-8 for some "
                               "level or the reference")
    worst = max(e["value"] for e in entries)
    ok = worst <= 1e-8
    return CriterionResult(
        "4 maximum principle", ok,
        f"worst excursion outside [0,1]: {worst:.2e} (tol 1e-8)")


# the cylinder criteria 7 and 8 are stated on
GATE_CYLINDER = {"center": [0.0, 0.0, 2.0], "radius": 1.0}


def criterion_energy_identity(ctx) -> CriterionResult:
    run = ctx.benchmark()
    entries = [run["summary"].get(f"energy-identity-eps-{st['eps']:g}", {})
               for st in run["stats"]]
    if [e.get("threshold") for e in entries] != [
            10.0 * st["el_tol_abs"] for st in run["stats"]]:
        return CriterionResult("5 energy identity", False,
                               "no energy-identity entry at 10x EL "
                               "tolerance for some level")
    ok = all(e["value"] <= e["threshold"] for e in entries)
    return CriterionResult(
        "5 energy identity", ok,
        "|E'+2I|_1 vs 10x EL tolerance per level: " + ", ".join(
            f"{e['value']:.1e}/{e['threshold']:.1e}" for e in entries))


def criterion_uniform_bounds(ctx) -> CriterionResult:
    entry = ctx.benchmark()["summary"].get("uniform-bounds", {})
    bad = ctx.pinned("uniform-bounds", factor=4.0)
    if bad or entry.get("threshold") != 4.0:
        return CriterionResult("6 uniform energy bounds", False,
                               bad or "no uniform-bounds entry at 4")
    rows = ctx.report("uniform_bounds.csv")
    dt = dg.spread([float(r["dt_energy"]) for r in rows])
    win = dg.spread([float(v) for r in rows for k, v in r.items()
                     if k.startswith("windowed_")])
    return CriterionResult(
        "6 uniform energy bounds", entry["pass"],
        f"dt-energy spread {dt:.2f}, windowed spread {win:.2f} (both <= 4)")


def criterion_linf_l2(ctx) -> CriterionResult:
    cal = ctx.calibration.get("linf_l2_max")
    bad = "no calibration file" if cal is None else ctx.pinned(
        "linf-l2", **GATE_CYLINDER)
    if bad:
        return CriterionResult("7 L2->Linf uniformity", False, bad)
    ratios = [float(r["ratio"]) for r in ctx.report("linf_l2.csv")]
    ok = len(ratios) == len(ctx.cfg.schedule.values()) and all(
        r <= 4.0 * cal for r in ratios)
    return CriterionResult(
        "7 L2->Linf uniformity", ok,
        f"ratios {['%.3f' % r for r in ratios]} <= 4 x frozen {cal:.3f}")


def criterion_no_spikes(ctx) -> CriterionResult:
    run = ctx.benchmark()
    grid = run["grid"]
    delta = ctx.calibration.get("no_spikes_delta", 0.5)
    entry = run["summary"].get("no-spikes-decay")
    bad = ctx.pinned("no-spikes", delta=delta, **GATE_CYLINDER)
    if bad or entry is None:
        return CriterionResult("8 no-spikes decay", False,
                               bad or "no no-spikes-decay entry")
    # the smallness hypothesis is checked here, independently of the run
    cyl = Cylinder(tuple(GATE_CYLINDER["center"]), GATE_CYLINDER["radius"])
    fld = run["last"].reshape(grid.spacetime_shape)
    upos = np.clip(fld, 0.0, None)
    denom = weighted_norm(grid, upos, "L2a", region=cyl)
    lam = np.sqrt(delta) / denom
    ub, w = restrict(grid, upos, cyl)
    smallness = float(np.sum(w * (lam * ub) ** 2))
    ok = bool(entry["pass"] and smallness <= delta * (1 + 1e-12))
    return CriterionResult(
        "8 no-spikes decay", ok,
        f"scaled smallness {smallness:.3f} <= delta {delta}, "
        f"E_12 = {entry['value']:.1e} (<= 1e-12)")


def criterion_holder(ctx) -> CriterionResult:
    bad = ctx.pinned("holder", levels=3)
    rows = [] if bad else ctx.report("holder_fits.csv")
    details, ok = [bad] if bad else [], bool(rows)
    for row in rows:
        x0, t0, alpha, resid, top = (float(row[k]) for k in (
            "x0", "t0", "alpha", "residual", "max_ratio"))
        ok = ok and 0.05 < alpha < 1.0 and resid <= 0.15 and top <= 0.95
        details.append(f"x0={x0:g},t0={t0:g}: alpha={alpha:.3f} "
                       f"resid={resid:.3f} maxratio={top:.3f}")
    return CriterionResult(
        "9 oscillation decay / Hoelder fit", ok, "; ".join(details))


def _slice_family(n, seed):
    """Random smooth slice functions crossing both De Giorgi levels."""
    rng = np.random.default_rng(seed)
    fams = []
    for _ in range(n):
        k1 = rng.integers(1, 4)
        k2 = rng.integers(1, 3)
        a1 = 0.45 + 0.4 * rng.random()
        ph = 2 * np.pi * rng.random()
        sl = 0.5 + 0.5 * rng.random()

        def f(x, y, k1=k1, k2=k2, a1=a1, ph=ph, sl=sl):
            return (0.25 + a1 * np.cos(k1 * np.pi * x / 1.2 + ph)
                    * np.cos(k2 * np.pi * y / 2.4)
                    + 0.2 * sl * x)
        fams.append(f)
    return fams


def criterion_isoperimetric(ctx) -> CriterionResult:
    cal = ctx.calibration.get("isoperimetric_max")
    if cal is None:
        return CriterionResult("10 isoperimetric stability", False,
                               "no calibration file")
    coarse = build_grid(GridSpec(d=1, a=0.5, L=1.2, Y=1.2, T=1.0,
                                 nx=40, ny=12, nt=2))
    fine = build_grid(GridSpec(d=1, a=0.5, L=1.2, Y=1.2, T=1.0,
                               nx=80, ny=24, nt=2))
    ok, worst_drift, worst_ratio = True, 0.0, 0.0
    for f in _slice_family(10, seed=ctx.cfg.seed):
        rc = dg.isoperimetric_check(coarse, coarse.eval_spatial(f), p=1.5)
        rf = dg.isoperimetric_check(fine, fine.eval_spatial(f), p=1.5)
        worst_ratio = max(worst_ratio, rc["ratio"])
        ok = ok and rc["ratio"] <= cal * (1 + 1e-9)
        if rc["ratio"] > 0:
            drift = abs(rf["ratio"] / rc["ratio"] - 1.0)
            worst_drift = max(worst_drift, drift)
            ok = ok and drift <= 0.2
    return CriterionResult(
        "10 isoperimetric stability", ok,
        f"max ratio {worst_ratio:.3f} <= frozen {cal:.3f}, refinement "
        f"drift {worst_drift:.2%} (<= 20%)")


# the BLAS thread pools; criterion 11 pins all three in its fresh process
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS")


def criterion_determinism(ctx) -> CriterionResult:
    """The benchmark once more through `wiedlab run` in a fresh process,
    its BLAS pools pinned to one thread, or to two where this process
    is pinned to one; all artifact hashes must equal this process's."""
    run = ctx.benchmark()
    out_b = ctx.workdir / "run-b"
    own = next((os.environ[k] for k in BLAS_THREAD_ENV if k in os.environ),
               "unpinned")
    threads = "2" if own == "1" else "1"
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_ENV, threads)}
    src = str(Path(__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run(
        [sys.executable, "-m", "wiedlab.cli", "run", ctx.config_path,
         "--out", str(out_b)], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        return CriterionResult(
            "11 determinism", False,
            f"fresh `wiedlab run` exited {proc.returncode}: "
            f"{proc.stderr.strip()[-200:]}")
    artifacts = json.loads((out_b / "manifest.json").read_text())["artifacts"]
    same = run["manifest"]["artifacts"] == artifacts
    return CriterionResult(
        "11 determinism", same,
        f"{len(artifacts)} artifact hashes "
        f"{'identical' if same else 'DIFFER'} across this process (BLAS "
        f"threads {own}) and a fresh one (BLAS threads {threads})")


ALL_CRITERIA = [
    criterion_gradient_consistency,
    criterion_linear_oracle,
    criterion_eps_limit,
    criterion_max_principle,
    criterion_energy_identity,
    criterion_uniform_bounds,
    criterion_linf_l2,
    criterion_no_spikes,
    criterion_holder,
    criterion_isoperimetric,
    criterion_determinism,
]

SLOW = {criterion_eps_limit, criterion_max_principle,
        criterion_energy_identity, criterion_uniform_bounds,
        criterion_linf_l2, criterion_no_spikes, criterion_holder,
        criterion_determinism}


def run_acceptance(config_path, workdir=None, skip_slow=False):
    """Every criterion's result; without a workdir the benchmark runs in
    a temporary directory that is removed afterwards."""
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="wiedlab-acc-") as tmp:
            return run_acceptance(config_path, tmp, skip_slow)
    ctx = AcceptanceContext(config_path, workdir)
    results = []
    for crit in ALL_CRITERIA:
        if skip_slow and crit in SLOW:
            results.append(CriterionResult(crit.__name__, False,
                                           "skipped (--skip-slow)",
                                           skipped=True))
            continue
        results.append(crit(ctx))
    return results
