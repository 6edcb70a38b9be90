"""Command line harness.

Subcommands:
    run <config>                 full pipeline (sweep + reference + diagnostics)
    wied <config> --eps V        single-level solve, dump the field
    parabolic <config>           reference trajectory only
    diagnose <config> --field F --which a,b,...   diagnostics on a stored field
    verify <config>              acceptance suite, one pass/fail line each

Exit codes: 0 ok, 2 config/usage error, 3 solver failure (partial
artifacts kept), 4 I/O error.  --threads (or WIEDLAB_THREADS) caps the
diagnostic worker pool.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np


def _threads(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("WIEDLAB_THREADS")
    return max(1, int(env)) if env else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wiedlab",
        description="weighted inertia-energy-dissipation laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="experiment config JSON")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--strict-support", action="store_true",
                       help="require the initial trace to vanish near the "
                            "lateral boundary")

    p_run = sub.add_parser("run", help="full pipeline")
    common(p_run)

    p_wied = sub.add_parser("wied", help="single-level solve")
    common(p_wied)
    p_wied.add_argument("--eps", type=float, required=True)

    p_par = sub.add_parser("parabolic", help="reference solver only")
    common(p_par)

    p_diag = sub.add_parser("diagnose", help="diagnostics on a stored field")
    common(p_diag)
    p_diag.add_argument("--field", required=True, help="field dump (.f64)")
    p_diag.add_argument("--which", required=True,
                        help="comma-separated diagnostic names")

    p_ver = sub.add_parser("verify", help="run the acceptance suite")
    common(p_ver)
    p_ver.add_argument("--skip-slow", action="store_true",
                       help="skip the multi-minute criteria")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from .config import ConfigError, load_config
    try:
        try:
            cfg = load_config(args.config)
            if args.strict_support:
                cfg = replace(cfg, strict_support=True)
                cfg.validate()
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        return _dispatch(args, cfg)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


def _dispatch(args, cfg) -> int:
    from .runner import RunnerSolverError, dump_field, load_field, run_experiment
    from .grid import build_grid

    threads = _threads(args)
    out = Path(args.out or cfg.output)

    if args.command == "run":
        try:
            manifest = run_experiment(cfg, out=str(out), threads=threads)
        except RunnerSolverError as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return 3
        print(f"run complete: {len(manifest['artifacts'])} artifacts in {out}")
        return 0

    if args.command == "wied":
        from .wied import WiedConvergenceError, solve_wied
        grid = build_grid(cfg.grid)
        U0 = cfg.initial.evaluate(grid)
        wcfg = replace(cfg.wied, eps=args.eps)
        try:
            res = solve_wied(grid, cfg.model, wcfg, U0)
        except WiedConvergenceError as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return 3
        out.mkdir(parents=True, exist_ok=True)
        dump_field(out / f"eps-{args.eps:g}.f64", grid, res.U,
                   {"eps": args.eps, "role": "wied-level",
                    "s_exponent": (1.0 - cfg.grid.a) / 2.0})
        print(f"wied level eps={args.eps:g} written to {out} "
              f"({res.stats['iterations']} outer iterations)")
        return 0

    if args.command == "parabolic":
        from .parabolic import ParabolicError, solve_parabolic
        grid = build_grid(cfg.grid)
        U0 = cfg.initial.evaluate(grid)
        try:
            traj = solve_parabolic(grid, cfg.model, cfg.parabolic, U0)
        except ParabolicError as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return 3
        out.mkdir(parents=True, exist_ok=True)
        dump_field(out / "parabolic.f64", grid, traj,
                   {"role": "parabolic-reference",
                    "s_exponent": (1.0 - cfg.grid.a) / 2.0})
        print(f"parabolic reference written to {out}")
        return 0

    if args.command == "diagnose":
        return _diagnose(args, cfg, out)

    if args.command == "verify":
        from .acceptance import run_acceptance
        results = run_acceptance(args.config, skip_slow=args.skip_slow)
        width = max(len(r.name) for r in results)
        ok = True
        for r in results:
            status = "PASS" if r.passed else ("SKIP" if r.skipped else "FAIL")
            ok = ok and (r.passed or r.skipped)
            print(f"{r.name:<{width}}  {status}  {r.detail}")
        return 0 if ok else 1

    raise AssertionError(f"unhandled command {args.command}")


def _diagnose(args, cfg, out) -> int:
    from . import diagnostics as dg
    from .runner import load_field, write_csv, write_json
    from .grid import Cylinder

    grid, arr, side = load_field(Path(args.field))
    eps = side.get("eps", cfg.schedule.eps0)
    sp = grid.spec
    tc = sp.T / 2.0
    rad = 0.999 * min(1.0, sp.L, sp.Y, np.sqrt(tc), np.sqrt(sp.T - tc))
    default_cyl = (0.0,) * grid.d + (0.0, tc)
    out.mkdir(parents=True, exist_ok=True)
    which = [w.strip() for w in args.which.split(",") if w.strip()]
    by_name = {d.name: d for d in cfg.diagnostics}
    summary = []
    for name in which:
        opt = by_name[name].options if name in by_name else {}
        try:
            if name == "energy":
                rep = dg.energy_decomposition(grid, cfg.model, eps, arr)
                write_csv(out / f"energy-eps-{eps:g}.csv",
                          ["n", "tau", "I", "R", "E"], rep.rows())
                summary.append({"name": "energy-identity",
                                "value": rep.identity_l1,
                                "threshold": None, "pass": None,
                                "calibration-id": None})
            elif name == "no-spikes":
                cyl = Cylinder(tuple(opt.get("center", default_cyl)),
                               float(opt.get("radius", rad)))
                rep = dg.no_spikes_iteration(grid, np.clip(arr, 0, None), cyl)
                write_csv(out / "no_spikes.csv",
                          ["j", "level", "radius", "energy"],
                          [{"j": j, "level": rep.levels[j],
                            "radius": rep.radii[j], "energy": rep.energies[j]}
                           for j in range(rep.levels.shape[0])])
            elif name == "holder":
                centers = opt.get("centers", [default_cyl])
                rows = []
                for c in centers:
                    rep = dg.fit_holder(dg.oscillation_table(
                        grid, arr, tuple(c), int(opt.get("levels", 3))))
                    rows.append({"x0": c[0], "t0": c[-1],
                                 "alpha": rep.alpha, "C": rep.constant,
                                 "residual": rep.fit_residual})
                write_csv(out / "holder_fits.csv",
                          ["x0", "t0", "alpha", "C", "residual"], rows)
            elif name == "level-sets":
                cyl = Cylinder(tuple(opt.get("center", default_cyl)),
                               float(opt.get("radius", rad)))
                ls = dg.level_set_measures(grid, arr, cyl)
                write_csv(out / "level_sets.csv", ["A", "C", "D", "total"],
                          [ls.measures])
            else:
                print(f"unknown diagnostic {name!r}", file=sys.stderr)
                return 2
        except (ValueError, ArithmeticError) as exc:
            # the field does not support this diagnostic (GridError included)
            print(f"solver failure: diagnostic {name!r}: {exc}",
                  file=sys.stderr)
            return 3
    write_json(out / "diagnose_summary.json", summary)
    print(f"diagnostics {', '.join(which)} written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
