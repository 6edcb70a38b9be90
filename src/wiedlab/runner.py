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
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, diagnostics as dg
from .assembly import ForcingSpec, build_operators
from .combustion import beta_eval, sup_bound
from .config import ExperimentConfig
from .grid import Cylinder, build_grid
from .parabolic import solve_parabolic
from .wied import SweepError, sweep_epsilon, dist_C_L2a


class RunnerSolverError(RuntimeError):
    """A solver failed; partial artifacts were kept."""


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
    flat = np.frombuffer(Path(path).read_bytes(), dtype="<f8")
    shape = tuple(spec.nx + 1 for _ in range(spec.d)) + (spec.ny + 1,
                                                         spec.nt + 1)
    arr = flat.reshape(shape)
    axes = (grid.d + 1, grid.d) + tuple(range(grid.d))
    return grid, np.ascontiguousarray(np.transpose(arr, axes)), side


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _trace_forcing(grid, model, U):
    """f = -beta(u) on the trace, the source the solved field carries."""
    ops = build_operators(grid)
    lay = U.reshape(grid.spec.nt + 1, -1)
    tr = lay[:, ops.trace_index].reshape(
        (grid.spec.nt + 1,) + (grid.spec.nx + 1,) * grid.d)
    return -np.asarray(beta_eval(model, tr))


def run_experiment(cfg: ExperimentConfig, out: str | None = None,
                   threads: int = 1) -> dict:
    """Run the full pipeline; returns the manifest dict.

    Raises RunnerSolverError on solver failure (partial artifacts are
    kept on disk); ConfigError surfaces before anything is written.
    """
    t_start = time.time()
    outdir = Path(out or cfg.output)
    grid = build_grid(cfg.grid)
    U0 = cfg.initial.evaluate(grid)

    (outdir / "fields").mkdir(parents=True, exist_ok=True)
    (outdir / "reports").mkdir(parents=True, exist_ok=True)

    reference = solve_parabolic(grid, cfg.model, cfg.parabolic, U0)
    dump_field(outdir / "fields" / "parabolic.f64", grid, reference,
               {"role": "parabolic-reference",
                "s_exponent": (1.0 - cfg.grid.a) / 2.0})

    failure = None
    try:
        sweep = sweep_epsilon(grid, cfg.model, cfg.schedule, U0,
                              cfg=cfg.wied, parabolic_cfg=cfg.parabolic,
                              reference=reference)
        levels = sweep.levels
    except SweepError as exc:
        levels = exc.completed
        failure = exc

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
        summary.extend(
            _run_diagnostics(cfg, grid, levels, reference, outdir, threads))

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
    summary.append({
        "name": "max-principle-parabolic",
        "value": float(max(reference.max() - 1.0, -reference.min(), 0.0)),
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
    write_json(outdir / "manifest.json", manifest)
    if failure is not None:
        raise RunnerSolverError(
            f"sweep failed after {len(levels)} levels: {failure}")
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


def _run_diagnostics(cfg, grid, levels, reference, outdir, threads):
    summary = []
    rep_dir = outdir / "reports"
    p_exp, q_exp = cfg.forcing_exponents
    finest = levels[-1]

    def energy_for(lv):
        return dg.energy_decomposition(grid, cfg.model, lv.eps, lv.U)

    energy_reports = None
    for req in cfg.diagnostics:
        name, opt = req.name, req.options
        if name == "energy":
            if threads > 1:
                with ThreadPoolExecutor(max_workers=threads) as ex:
                    energy_reports = list(ex.map(energy_for, levels))
            else:
                energy_reports = [energy_for(lv) for lv in levels]
            for lv, rep in zip(levels, energy_reports):
                write_csv(rep_dir / f"energy-eps-{lv.eps:g}.csv",
                          ["n", "tau", "I", "R", "E"], rep.rows())
                tol = 10.0 * lv.stats["el_tol_abs"]
                summary.append({
                    "name": f"energy-identity-eps-{lv.eps:g}",
                    "value": rep.identity_l1, "threshold": tol,
                    "pass": bool(rep.identity_l1 <= tol),
                    "calibration-id": None})
        elif name == "uniform-bounds":
            if energy_reports is None:
                energy_reports = [energy_for(lv) for lv in levels]
            if len(energy_reports) < 2:
                continue  # uniformity is a cross-level statement
            ub = dg.uniform_bounds_report(energy_reports,
                                          factor=float(opt.get("factor", 4.0)))
            hdr = list(ub["rows"][0].keys())
            write_csv(rep_dir / "uniform_bounds.csv", hdr, ub["rows"])
            summary.append({
                "name": "uniform-bounds",
                "value": max(ub["dt_energy_spread"], ub["windowed_spread"]),
                "threshold": float(opt.get("factor", 4.0)),
                "pass": ub["uniform"], "calibration-id": None})
        elif name == "linf-l2":
            rows = []
            for lv in levels:
                forcing = ForcingSpec(
                    F=None, f=_trace_forcing(grid, cfg.model, lv.U),
                    p=p_exp, q=q_exp)
                r = dg.linf_l2_ratio(grid, lv.U.reshape(grid.spacetime_shape),
                                     forcing,
                                     center=tuple(opt["center"]),
                                     radius=float(opt["radius"]))
                rows.append({"eps": lv.eps, **{k: r[k] for k in
                                               ("ratio", "sup_inner",
                                                "l2a_outer", "f_lqinf")}})
            write_csv(rep_dir / "linf_l2.csv",
                      ["eps", "ratio", "sup_inner", "l2a_outer", "f_lqinf"],
                      rows)
        elif name == "no-spikes":
            delta = float(opt.get("delta", 0.5))
            cyl = Cylinder(tuple(opt["center"]), float(opt["radius"]))
            fld = finest.U.reshape(grid.spacetime_shape)
            upos = np.clip(fld, 0.0, None)
            denom = dg.weighted_norm(grid, upos, "L2a", region=cyl)
            lam = np.sqrt(delta) / denom if denom > 0 else 0.0
            rep = dg.no_spikes_iteration(grid, lam * upos, cyl)
            write_csv(rep_dir / "no_spikes.csv",
                      ["j", "level", "radius", "energy"],
                      [{"j": j, "level": rep.levels[j],
                        "radius": rep.radii[j], "energy": rep.energies[j]}
                       for j in range(rep.levels.shape[0])])
            summary.append({
                "name": "no-spikes-decay", "value": float(rep.energies[-1]),
                "threshold": 1e-12, "pass": bool(rep.converged),
                "calibration-id": f"delta={delta}"})
        elif name == "level-sets":
            cyl = Cylinder(tuple(opt["center"]), float(opt["radius"]))
            rows = []
            for lv in levels:
                ls = dg.level_set_measures(
                    grid, lv.U.reshape(grid.spacetime_shape), cyl)
                rows.append({"eps": lv.eps, **ls.measures})
            write_csv(rep_dir / "level_sets.csv",
                      ["eps", "A", "C", "D", "total"], rows)
        elif name == "holder":
            rows, srows = [], []
            for c in opt.get("centers", []):
                rep = dg.oscillation_table(
                    grid, finest.U.reshape(grid.spacetime_shape),
                    tuple(c), int(opt.get("levels", 3)))
                rep = dg.fit_holder(rep)
                for row in rep.table:
                    rows.append({"x0": c[0], "t0": c[-1], **row})
                srows.append({"x0": c[0], "t0": c[-1],
                              "alpha": rep.alpha, "C": rep.constant,
                              "residual": rep.fit_residual,
                              "max_ratio": max(rep.ratios(), default=0.0)})
            write_csv(rep_dir / "holder.csv",
                      ["x0", "t0", "n", "radius", "osc"], rows)
            write_csv(rep_dir / "holder_fits.csv",
                      ["x0", "t0", "alpha", "C", "residual", "max_ratio"],
                      srows)
        elif name == "embedding":
            tq = float(opt.get("layer_time", grid.spec.T / 2.0))
            n = int(round(tq / grid.dt))
            rows = []
            for lv in levels:
                sl = lv.U.reshape(grid.spacetime_shape)[n]
                r = dg.embedding_ratio_check(grid, sl,
                                             radius=float(opt.get("radius", 1.0)))
                if r.get("applicable"):
                    rows.append({"eps": lv.eps,
                                 "trace_ratio": r["trace_ratio"],
                                 "sobolev_ratio": r["sobolev_ratio"]})
            if rows:
                write_csv(rep_dir / "embedding.csv",
                          ["eps", "trace_ratio", "sobolev_ratio"], rows)
        elif name == "cauchy":
            inc = dg.sweep_cauchy_increments(grid, [lv.U for lv in levels])
            write_csv(rep_dir / "cauchy.csv", ["pair", "increment"],
                      [{"pair": f"{levels[i].eps:g}->{levels[i+1].eps:g}",
                        "increment": v} for i, v in enumerate(inc)])
        elif name == "isoperimetric":
            p = float(opt.get("p", 1.5))
            tq = float(opt.get("layer_time", grid.spec.T / 2.0))
            n = int(round(tq / grid.dt))
            rows = []
            for lv in levels:
                sl = lv.U.reshape(grid.spacetime_shape)[n]
                r = dg.isoperimetric_check(grid, sl, p,
                                           radius=float(opt.get("radius", 1.0)))
                rows.append({"eps": lv.eps, "lhs": r["lhs"],
                             "rhs_factor": r["rhs_factor"],
                             "ratio": r["ratio"],
                             "gradient_energy": r["gradient_energy"]})
            write_csv(rep_dir / "isoperimetric.csv",
                      ["eps", "lhs", "rhs_factor", "ratio",
                       "gradient_energy"], rows)
        else:
            raise ValueError(f"unknown diagnostic {name!r}")
    return summary
