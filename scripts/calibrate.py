#!/usr/bin/env python3
"""Regenerate the frozen calibration constants for a benchmark config.

Runs the benchmark, reads the calibrated diagnostics (L2 -> Linf ratios,
embedding ratios) from the run's reports, measures the isoperimetric
constant on its fixed slice family, and writes <config>.calibration.json
next to the config.  The acceptance suite then enforces stability
against these values (4x for the sup-ratio, exact family reproduction
for the isoperimetric constant).  The run goes into a temporary
directory that is removed afterwards.

Usage: python scripts/calibrate.py [configs/combustion-1d.json]
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wiedlab import diagnostics as dg
from wiedlab.acceptance import (AcceptanceContext, _slice_family,
                                calibration_path)
from wiedlab.grid import GridSpec, build_grid


def main(config_path="configs/combustion-1d.json"):
    with tempfile.TemporaryDirectory(prefix="wiedlab-acc-") as tmp:
        ctx = AcceptanceContext(config_path, tmp)
        manifest = ctx.benchmark()["manifest"]
        ratios = [float(r["ratio"]) for r in ctx.report("linf_l2.csv")]
        # no embedding.csv when the embedding ratios do not apply
        # (d - 1 + a <= 0)
        emb = (ctx.report("embedding.csv")
               if "reports/embedding.csv" in manifest["artifacts"] else [])

    coarse = build_grid(GridSpec(d=1, a=0.5, L=1.2, Y=1.2, T=1.0,
                                 nx=40, ny=12, nt=2))
    iso = [dg.isoperimetric_check(coarse, coarse.eval_spatial(f), p=1.5)
           ["ratio"] for f in _slice_family(10, seed=ctx.cfg.seed)]

    calibration = {
        "calibration_id": f"{Path(config_path).stem}"
                          f"@{manifest['config_hash'][:12]}",
        "linf_l2_max": max(ratios),
        "linf_l2_per_level": ratios,
        "no_spikes_delta": 0.5,
        "isoperimetric_max": max(iso),
        "isoperimetric_per_slice": iso,
        "embedding_trace_max": max(
            (float(r["trace_ratio"]) for r in emb), default=None),
        "embedding_sobolev_max": max(
            (float(r["sobolev_ratio"]) for r in emb), default=None),
    }
    out = calibration_path(config_path)
    out.write_text(json.dumps(calibration, indent=1, sort_keys=True) + "\n")
    print(f"calibration written to {out}")
    for k, v in calibration.items():
        print(f"  {k}: {v}")


if __name__ == "__main__":
    main(*sys.argv[1:])
