"""Benchmark workloads: generated configs, one job each, output checks.

Every workload starts from the shipped ``configs/combustion-1d.json``.
The seed draws only the initial plateau's radius and height, from a
narrow range around the shipped values (3.6 and 1.0); the program sees
nothing but the generated config file.  Sizes are chosen so that one
job takes a few seconds, which lets a run of the benchmark hold several
jobs; ``NOTES.md`` gives the reasons for each size.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SHIPPED_CONFIG = ROOT / "configs" / "combustion-1d.json"

# radius stays well inside L = 4 (strict support); height stays <= 1 so the
# maximum principle [0, 1] is a valid check on every seed
RADIUS_RANGE = (3.55, 3.65)
HEIGHT_RANGE = (0.98, 1.0)

REFERENCE_DIAGNOSTICS = "energy,no-spikes,holder,level-sets"

WORKLOADS = ("run-1d", "run-2d", "reference-1d")

# grid overrides per workload; "smoke" sizes only prove the code paths run
SIZES = {
    "run-1d": {"full": {"nx": 32, "ny": 8, "nt": 240},
               "smoke": {"nx": 8, "ny": 3, "nt": 24}},
    "run-2d": {"full": {"d": 2, "nx": 24, "ny": 9, "nt": 48,
                        "L": 8.0, "Y": 5.0},
               "smoke": {"d": 2, "nx": 24, "ny": 9, "nt": 4,
                         "L": 8.0, "Y": 5.0}},
    "reference-1d": {"full": {},
                     "smoke": {"nx": 8, "ny": 3, "nt": 24}},
}


def make_config(workload: str, seed: int, smoke: bool = False) -> dict:
    """The generated experiment config for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {WORKLOADS}")
    cfg = json.loads(SHIPPED_CONFIG.read_text())
    rng = random.Random(seed)
    cfg["initial"]["radius"] = round(rng.uniform(*RADIUS_RANGE), 6)
    cfg["initial"]["height"] = round(rng.uniform(*HEIGHT_RANGE), 6)
    cfg["seed"] = seed
    cfg["grid"].update(SIZES[workload]["smoke" if smoke else "full"])
    if workload == "run-1d":
        # 4 levels (0.2 -> 0.025); the holder fit needs the shipped x
        # resolution, so it runs on reference-1d instead
        cfg["schedule"]["count"] = 4
        cfg["diagnostics"] = [d for d in cfg["diagnostics"]
                              if d["name"] != "holder"]
    elif workload == "run-2d":
        cfg["schedule"]["count"] = 2
        cfg["wied"].update(outer_tol=1e-5, inner_tol=1e-7)
        cfg["diagnostics"] = [d for d in cfg["diagnostics"]
                              if d["name"] in ("energy", "uniform-bounds",
                                               "cauchy")]
    elif smoke:
        cfg["diagnostics"] = [d for d in cfg["diagnostics"]
                              if d["name"] in ("energy", "no-spikes",
                                               "level-sets")]
    return cfg


def diagnose_list(cfg) -> str:
    """Diagnostics the reference-1d job asks ``wiedlab diagnose`` for."""
    names = {d.name for d in cfg.diagnostics}
    return ",".join(n for n in REFERENCE_DIAGNOSTICS.split(",") if n in names)


def run_job(workload: str, cfg_path: Path, cfg, out: Path) -> None:
    """One job of the closed loop: the timed call into the program.

    ``cfg`` is the loaded ExperimentConfig; the CLI flow of reference-1d
    reads the config file itself, as a user's does.
    Program output to stdout is sent to stderr so that the benchmark's
    last stdout line stays its result.
    """
    from wiedlab import cli, runner
    with contextlib.redirect_stdout(sys.stderr):
        if workload == "reference-1d":
            rc = cli.main(["parabolic", str(cfg_path), "--out", str(out)])
            if rc != 0:
                raise RuntimeError(f"wiedlab parabolic exited {rc}")
            rc = cli.main(["diagnose", str(cfg_path),
                           "--field", str(out / "parabolic.f64"),
                           "--which", diagnose_list(cfg),
                           "--out", str(out / "diagnose")])
            if rc != 0:
                raise RuntimeError(f"wiedlab diagnose exited {rc}")
        else:
            runner.run_experiment(cfg, out=str(out))


def tree_hashes(out: Path) -> dict:
    """sha256 of every file of a job's output tree except manifest.json,
    which holds the wall clock."""
    hashes = {}
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            hashes[str(p.relative_to(out))] = hashlib.sha256(
                p.read_bytes()).hexdigest()
    return hashes


_SUMMARY_CHECKED = ("max-principle-", "energy-identity-", "uniform-bounds",
                    "no-spikes-decay")


def check_job(workload: str, out: Path) -> list[str]:
    """Problems found in one job's outputs; empty when the job is correct."""
    if workload == "reference-1d":
        return _check_reference(out)
    problems = []
    levels = json.loads((out / "reports" / "levels.json").read_text())
    for lv in levels:
        if not lv["el_residual"] <= lv["el_tol_abs"]:
            problems.append(f"eps={lv['eps']:g}: el_residual "
                            f"{lv['el_residual']:g} > {lv['el_tol_abs']:g}")
    dists = [lv["dist_to_ref"] for lv in levels]
    if not all(b < a for a, b in zip(dists, dists[1:])):
        problems.append(f"distances to the reference not decreasing: {dists}")
    summary = json.loads((out / "summary.json").read_text())
    for entry in summary:
        name = entry["name"]
        checked = name.startswith(_SUMMARY_CHECKED)
        # the 1/3 ratio is meant for multi-level schedules; run-2d has two
        if name == "eps-limit-monotone" and workload == "run-1d":
            checked = True
        if checked and entry["pass"] is not True:
            problems.append(f"summary entry {name} failed "
                            f"(value {entry['value']!r})")
    return problems


def _check_reference(out: Path) -> list[str]:
    from wiedlab.runner import load_field
    problems = []
    _, traj, _ = load_field(out / "parabolic.f64")
    if not (np.all(np.isfinite(traj)) and traj.min() >= -1e-8
            and traj.max() <= 1.0 + 1e-8):
        problems.append("parabolic reference leaves [0, 1]")
    diag = out / "diagnose"
    summary = json.loads((diag / "diagnose_summary.json").read_text())
    for entry in summary:
        if not np.isfinite(entry["value"]):
            problems.append(f"diagnose entry {entry['name']} not finite")
    spikes = diag / "no_spikes.csv"
    if spikes.exists():
        energies = [float(line.split(",")[3])
                    for line in spikes.read_text().splitlines()[1:]]
        if not energies[-1] <= 1e-12:
            problems.append(f"no-spikes energies do not decay: {energies[-1]}")
    return problems
