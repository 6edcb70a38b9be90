"""Experiment orchestration and artifact persistence.

One experiment = WIED sweep + parabolic reference + requested
diagnostics, written as a deterministic artifact tree:

    fields/eps-*.f64 (+ .json sidecars), fields/parabolic.f64
    reports/*.csv, summary.json
    manifest.json  (config hash, versions, wall clock, artifact hashes)

Field dumps are raw little-endian float64 in row-major (x, y, t) node
order; everything numeric is reproduced bit-exactly by a re-run with the
same config.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from . import __version__, registry
from .assembly import build_operators
# beta_eval is unused here; it stays importable because
# perfbench/tracing.py patches it by name
from .combustion import beta_eval, sup_bound  # noqa: F401
from .config import ExperimentConfig
from .grid import build_grid
from .parabolic import ParabolicError, solve_parabolic
from .wied import SweepError, sweep_epsilon


class RunnerSolverError(RuntimeError):
    """A solver failed; partial artifacts were kept."""


class DiagnosticError(RuntimeError):
    """A diagnostic could not be evaluated on the solved fields."""

    def __init__(self, msg, completed: int):
        super().__init__(msg)
        self.completed = completed   # diagnostics finished before it


# how RunnerSolverError introduces the message of each failure phase
_FAILURE_PREFIX = {"parabolic": "parabolic reference failed: ",
                   "sweep": "sweep failed: ",
                   "diagnostics": "diagnostics failed: "}


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: Path, header: list, rows: list):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[h]) for h in header))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, obj):
    path.write_text(json.dumps(obj, sort_keys=True, indent=1,
                               default=_json_default) + "\n")


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def dump_field(path: Path, grid, arr: np.ndarray, meta: dict):
    """Raw float64 dump in row-major (x, y, t) order plus JSON sidecar."""
    arr = np.asarray(arr, dtype="<f8").reshape(grid.spacetime_shape)
    axes = tuple(range(2, 2 + grid.d)) + (1, 0)   # (x..., y, t)
    path.write_bytes(np.ascontiguousarray(np.transpose(arr, axes)).tobytes())
    side = {"gridspec": grid.spec.to_dict(),
            "order": "row-major (x, y, t)", "dtype": "<f8"}
    side.update(meta)
    write_json(path.with_suffix(".json"), side)


def load_field(path: Path):
    """Read back a field dump; returns (GridSpec dict, array in internal
    (t, y, x) layout)."""
    from .grid import GridSpec
    side = json.loads(Path(path).with_suffix(".json").read_text())
    spec = GridSpec.from_dict(side["gridspec"])
    grid = build_grid(spec)
    raw = Path(path).read_bytes()
    shape = tuple(spec.nx + 1 for _ in range(spec.d)) + (spec.ny + 1,
                                                         spec.nt + 1)
    expected = 8 * int(np.prod(shape))
    if len(raw) != expected:
        raise OSError(f"field dump {path} holds {len(raw)} bytes; its "
                      f"sidecar shape {shape} needs {expected}")
    arr = np.frombuffer(raw, dtype="<f8").reshape(shape)
    axes = (grid.d + 1, grid.d) + tuple(range(grid.d))
    return grid, np.ascontiguousarray(np.transpose(arr, axes)), side


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def write_diagnostics(requests, ctx, levels, outdir: Path,
                      summary: list) -> list:
    """Compute each (name, options) request, write its reports into outdir
    and append its summary entries to summary; return the (name, reason)
    of each one that measured nothing.  A diagnostic the fields do not
    support stops the loop with DiagnosticError."""
    skipped = []
    for done, (name, opt) in enumerate(requests):
        try:
            reports, entries = registry.compute(name, ctx, levels, opt)
        except registry.NotApplicable as exc:
            skipped.append((name, str(exc)))
            continue
        except (ValueError, ArithmeticError) as exc:
            raise DiagnosticError(f"diagnostic {name!r}: {exc}",
                                  completed=done) from exc
        for fname, header, rows in reports:
            write_csv(outdir / fname, header, rows)
        summary.extend(entries)
    return skipped


def run_experiment(cfg: ExperimentConfig, out: str | None = None) -> dict:
    """Run the full pipeline; returns the manifest dict.

    Raises RunnerSolverError on solver failure (partial artifacts are
    kept on disk); ConfigError surfaces before anything is written.
    """
    t_start = time.time()
    outdir = Path(out or cfg.output)
    grid = build_grid(cfg.grid)
    U0 = cfg.initial.evaluate(grid)
    ops = build_operators(grid)

    (outdir / "fields").mkdir(parents=True, exist_ok=True)
    (outdir / "reports").mkdir(parents=True, exist_ok=True)

    # failure: where the run stopped (phase), why, and how many steps,
    # levels or diagnostics of that phase were completed
    failure, levels, reference = None, [], None
    try:
        reference = solve_parabolic(grid, cfg.model, cfg.parabolic, U0,
                                    ops=ops)
    except ParabolicError as exc:
        steps = 0 if exc.trajectory is None else len(exc.trajectory) - 1
        failure = {"phase": "parabolic", "message": str(exc),
                   "completed": steps}
    else:
        dump_field(outdir / "fields" / "parabolic.f64", grid, reference,
                   {"role": "parabolic-reference",
                    "s_exponent": (1.0 - cfg.grid.a) / 2.0})
        try:
            sweep = sweep_epsilon(grid, cfg.model, cfg.schedule, U0,
                                  cfg=cfg.wied, parabolic_cfg=cfg.parabolic,
                                  reference=reference, ops=ops)
            levels = sweep.levels
        except SweepError as exc:
            levels = exc.completed
            failure = {"phase": "sweep", "message": str(exc),
                       "completed": len(levels)}

    for lv in levels:
        dump_field(outdir / "fields" / f"eps-{lv.eps:g}.f64", grid, lv.U,
                   {"eps": lv.eps, "role": "wied-level",
                    "s_exponent": (1.0 - cfg.grid.a) / 2.0})
    write_csv(outdir / "reports" / "convergence.csv",
              ["eps", "iters", "el_residual", "dist_to_ref"],
              [{"eps": lv.eps, "iters": lv.iterations,
                "el_residual": lv.el_residual,
                "dist_to_ref": lv.dist_to_ref} for lv in levels])
    write_json(outdir / "reports" / "levels.json",
               [{"eps": lv.eps, "iterations": lv.iterations,
                 "el_residual": lv.el_residual,
                 "el_tol_abs": lv.stats.get("el_tol_abs"),
                 "dist_to_ref": lv.dist_to_ref,
                 "inner_iterations": lv.stats.get("inner_iterations", []),
                 "damping": lv.stats.get("damping", [])} for lv in levels])

    summary = []
    if failure is None:
        ctx = registry.Context(grid, cfg.model, cfg.forcing_exponents, ops)
        try:
            write_diagnostics(
                [(req.name, req.options) for req in cfg.diagnostics], ctx,
                [registry.Level(lv.eps, lv.U, lv.stats["el_tol_abs"])
                 for lv in levels], outdir / "reports", summary)
        except DiagnosticError as exc:
            failure = {"phase": "diagnostics", "message": str(exc),
                       "completed": exc.completed}

    dists = [lv.dist_to_ref for lv in levels]
    if len(dists) >= 2:
        if dists[0] == 0.0 and dists[-1] == 0.0:
            ratio, monotone = 0.0, True  # already at the limit problem
        else:
            ratio = dists[-1] / dists[0]
            monotone = (all(b < a for a, b in zip(dists, dists[1:]))
                        and dists[-1] <= dists[0] / 3.0)
        summary.append({
            "name": "eps-limit-monotone", "value": ratio,
            "threshold": 1.0 / 3.0, "pass": bool(monotone),
            "calibration-id": None})
    for lv in levels:
        summary.append({
            "name": f"max-principle-eps-{lv.eps:g}",
            "value": float(max(lv.U.max() - 1.0, -lv.U.min(), 0.0)),
            "threshold": 1e-8,
            "pass": bool(-1e-8 <= lv.U.min() and lv.U.max() <= 1.0 + 1e-8),
            "calibration-id": None})
    if reference is not None:
        summary.append({
            "name": "max-principle-parabolic",
            "value": float(max(reference.max() - 1.0, -reference.min(),
                               0.0)),
            "threshold": 1e-8,
            "pass": bool(-1e-8 <= reference.min()
                         and reference.max() <= 1.0 + 1e-8),
            "calibration-id": None})
    write_json(outdir / "summary.json", summary)

    artifacts = {}
    for p in sorted(outdir.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            artifacts[str(p.relative_to(outdir))] = _sha256(p)
    manifest = {
        "config_hash": hashlib.sha256(
            json.dumps(_config_fingerprint(cfg), sort_keys=True).encode()
        ).hexdigest(),
        "package_version": __version__,
        "s_exponent": (1.0 - cfg.grid.a) / 2.0,
        "beta_sup": sup_bound(cfg.model),
        "tail_weight": float(np.exp(-cfg.grid.T / cfg.schedule.eps0)),
        "wallclock_s": time.time() - t_start,
        "artifacts": artifacts,
    }
    if failure is not None:
        manifest["failure"] = failure
    write_json(outdir / "manifest.json", manifest)
    if failure is not None:
        raise RunnerSolverError(_FAILURE_PREFIX[failure["phase"]]
                                + failure["message"])
    return manifest


def _config_fingerprint(cfg: ExperimentConfig) -> dict:
    return {
        "grid": cfg.grid.to_dict(),
        "model": {"kind": cfg.model.kind, "params": cfg.model.params},
        "initial": {"kind": cfg.initial.kind, **cfg.initial.params},
        "schedule": {"eps0": cfg.schedule.eps0, "ratio": cfg.schedule.ratio,
                     "count": cfg.schedule.count},
        "seed": cfg.seed,
    }
