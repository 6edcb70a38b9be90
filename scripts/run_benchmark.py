#!/usr/bin/env python3
"""Run the shipped combustion benchmark and print the headline numbers:
the wall clock, the process's peak resident set size and the BLAS
kernel it ran on (from manifest.json), the parabolic
reference's trace corrections (from manifest.json), the
convergence table, then per eps level the outer iterations, the accepted
Newton and Picard steps and the GMRES iterations of its Newton trace
solves (from levels.json) and its Thomas sweeps (from manifest.json),
and the fields the run read back from its dumps (from manifest.json).

Usage: python scripts/run_benchmark.py [configs/combustion-1d.json] [outdir]
"""

import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wiedlab.config import load_config
from wiedlab.runner import run_experiment


def main(config="configs/combustion-1d.json", out="runs/combustion-1d"):
    cfg = load_config(config)
    manifest = run_experiment(cfg, out=out)
    print(f"artifacts: {len(manifest['artifacts'])} under {out}")
    print(f"config hash: {manifest['config_hash'][:12]}")
    print(f"s exponent: {manifest['s_exponent']}, "
          f"tail weight: {manifest['tail_weight']:.2e}")
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"wall clock: {manifest['wallclock_s']:.1f}s, "
          f"peak RSS: {peak:.1f} MB, "
          f"BLAS kernel: {manifest['blas_kernel']}")
    par = manifest["parabolic"]
    print(f"parabolic trace corrections: {par['corrections']} in total, "
          f"at most {par['max_corrections']} (step {par['max_step']})")
    conv = Path(out) / "reports" / "convergence.csv"
    print(conv.read_text().strip())
    levels = json.loads((Path(out) / "reports" / "levels.json").read_text())
    print("eps,outer_iterations,newton_steps,picard_steps,gmres_iterations,"
          "sweeps")
    for lv, sweeps in zip(levels, manifest["sweeps"]):
        print(f"{lv['eps']:g},{lv['iterations']},"
              f"{lv['steps'].count('newton')},{lv['steps'].count('picard')},"
              f"{sum(lv['inner_iterations'])},{sweeps}")
    print(f"Thomas sweeps: {sum(manifest['sweeps'])} in all")
    print(f"field reads: {manifest['field_reads']}")


if __name__ == "__main__":
    main(*sys.argv[1:])
