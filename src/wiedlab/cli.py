"""Command line harness.

Subcommands:
    run <config>                 full pipeline (sweep + reference + diagnostics)
    wied <config> --eps V        one level from the reference, dump the field
    parabolic <config>           reference trajectory only, with an unhashed
                                 manifest of its trace corrections
    diagnose <config> --field F --which a,b,...   diagnostics on a stored field
    verify <config>              acceptance suite, one pass/fail line each

`run` and `diagnose` compute the diagnostics through one registry
(wiedlab.registry).  `--which` takes exactly the names a config may
list and rejects any other with exit 2 before anything is computed or
written.  `diagnose` writes the reports `run` writes, with the same
columns (`eps` reads None for a field without eps, such as the parabolic
reference), plus diagnose_summary.json.  It uses the config's options
for a listed diagnostic and a grid-centred cylinder for one the config
does not list.  A diagnostic that measures nothing on the field (energy
on a field without eps, uniform-bounds on one level) prints one line to
stderr and writes nothing.

Exit codes: 0 ok, 1 an acceptance criterion failed (`verify`), 2
config/usage error, 3 solver failure (partial artifacts kept), 4 I/O
error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wiedlab",
        description="weighted inertia-energy-dissipation laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="experiment config JSON")
        p.add_argument("--out", default=None, help="output directory override")

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
            if args.command == "wied":
                cfg = _one_level(cfg, args.eps)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        return _dispatch(args, cfg)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


def _one_level(cfg, eps):
    """cfg with the one-level schedule of `wied --eps`, its eps checked
    as a schedule's eps0 is: by its schema row and the horizon bound."""
    from .config import SECTIONS, ConfigError
    from .wied import EpsilonSchedule, check_horizon
    SECTIONS["schedule"]["eps0"].check(eps, "--eps")
    try:
        check_horizon(eps, cfg.grid.T)
    except ValueError as exc:
        raise ConfigError(f"--eps: {exc}") from exc
    return replace(cfg, wied=replace(cfg.wied, eps=eps),
                   schedule=EpsilonSchedule(eps, count=1))


def _dispatch(args, cfg) -> int:
    from .runner import RunnerSolverError, dump_field, run_experiment
    from .grid import build_grid

    out = Path(args.out or cfg.output)

    if args.command == "run":
        try:
            manifest = run_experiment(cfg, out=str(out))
        except RunnerSolverError as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return 3
        print(f"run complete: {len(manifest['artifacts'])} artifacts in {out}")
        return 0

    if args.command == "wied":
        from .parabolic import ParabolicError
        from .wied import SweepError, sweep_epsilon
        grid = build_grid(cfg.grid)
        # the one-level sweep starts from the parabolic reference, as a
        # run's first level does, so both give the same field
        try:
            level, = sweep_epsilon(grid, cfg.model, cfg.schedule,
                                   cfg.initial.evaluate(grid), cfg=cfg.wied)
        except (ParabolicError, SweepError) as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return 3
        out.mkdir(parents=True, exist_ok=True)
        dump_field(out / f"eps-{level.eps:g}.f64", grid, level.U,
                   {"eps": level.eps, "role": "wied-level"})
        print(f"wied level eps={level.eps:g} written to {out} "
              f"({level.iterations} outer iterations)")
        return 0

    if args.command == "parabolic":
        from .parabolic import ParabolicError, solve_parabolic
        from .runner import provenance, write_json
        grid = build_grid(cfg.grid)
        U0 = cfg.initial.evaluate(grid)
        stats = {}
        try:
            traj = solve_parabolic(grid, cfg.model, U0, stats=stats)
        except ParabolicError as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return 3
        out.mkdir(parents=True, exist_ok=True)
        dump_field(out / "parabolic.f64", grid, traj,
                   {"role": "parabolic-reference"})
        # unhashed, like a run's manifest; the dump is not hashed here
        write_json(out / "manifest.json",
                   {**provenance(), "parabolic": stats})
        print(f"parabolic reference written to {out} "
              f"({stats['corrections']} trace corrections, at most "
              f"{stats['max_corrections']} in a step)")
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
    from . import registry
    from .assembly import build_operators
    from .config import defaults
    from .runner import DiagnosticError, load_field, write_diagnostics, \
        write_json
    from .wied import Level

    which = [w.strip() for w in args.which.split(",") if w.strip()]
    unknown = [w for w in which if w not in registry.DIAGNOSTICS]
    if unknown:
        print(f"unknown diagnostic(s) {', '.join(map(repr, unknown))}; "
              f"known: {', '.join(registry.DIAGNOSTICS)}", file=sys.stderr)
        return 2
    grid, arr, side = load_field(Path(args.field))
    # an unlisted diagnostic probes the widest cylinder at x = y = 0, T/2
    sp = grid.spec
    tc = sp.T / 2.0
    center = (0.0,) * grid.d + (0.0, tc)
    probe = {"center": center, "centers": [center],
             "radius": 0.999 * min(1.0, sp.L, sp.Y, math.sqrt(tc),
                                   math.sqrt(sp.T - tc))}
    listed = {d.name: d.options for d in cfg.diagnostics}
    out.mkdir(parents=True, exist_ok=True)
    summary = []
    stream = registry.Stream(
        registry.Context(grid, cfg.model, cfg.forcing_exponents,
                         build_operators(grid)),
        [(name, listed[name] if name in listed else
          {**defaults(f"diagnostics ({name})", sp.T), **probe})
         for name in which])
    level = Level(side.get("eps"), arr)
    try:
        stream.add(level)
        skipped = write_diagnostics(stream, [level], out, summary)
    except DiagnosticError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    for name, reason in skipped:
        print(f"diagnostic {name!r} not applicable: {reason}",
              file=sys.stderr)
    write_json(out / "diagnose_summary.json", summary)
    print(f"diagnostics {', '.join(which)} written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
