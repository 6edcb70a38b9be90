"""Byte-identical artifacts across processes and BLAS thread counts.

`wiedlab run` is started in fresh processes with the BLAS pools pinned
to one and to two threads; the artifact hashes of the two manifests
must agree.  A burning plateau exercises the trace-reduced parabolic
step, the space-time sweep, the energy reports and the cylinder sums
(level sets, no-spikes, L^2 -> L^oo) in d = 1 and d = 2.  A fresh
process under OPENBLAS_CORETYPE records that kernel in its manifest.
Across OpenBLAS kernels the contract is weaker: the same hashes run to
run under each kernel, and fields within roundoff of each other.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wiedlab
from wiedlab.runner import load_field

SRC = Path(wiedlab.__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

GRIDS = {
    "d1": {"d": 1, "a": 0.5, "L": 1.0, "Y": 1.0, "T": 1.0,
           "nx": 8, "ny": 4, "nt": 24},
    "d2": {"d": 2, "a": -0.5, "L": 1.0, "Y": 1.0, "T": 1.0,
           "nx": 6, "ny": 3, "nt": 12},
}


def run_manifest(cfg_path: Path, out: Path, **env_vars) -> dict:
    """The manifest of `wiedlab run` in a fresh process, with env_vars
    added to its environment."""
    env = dict(os.environ)
    env.update(env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    proc = subprocess.run(
        [sys.executable, "-m", "wiedlab.cli", "run", str(cfg_path),
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads((out / "manifest.json").read_text())


def run_hashes(cfg_path: Path, out: Path, threads: int) -> dict:
    return run_manifest(cfg_path, out, **{key: str(threads)
                                          for key in BLAS_ENV})["artifacts"]


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_artifact_hashes_match_across_blas_threads(tmp_path, grid):
    cyl = {"center": [0.0] * (GRIDS[grid]["d"] + 1) + [0.5], "radius": 0.5}
    cfg = {
        "grid": GRIDS[grid],
        "model": {"kind": "polynomial-bump"},
        "initial": {"kind": "plateau", "radius": 0.6, "height": 1.0,
                    "axis": "trace"},
        "schedule": {"eps0": 0.05, "ratio": 0.5, "count": 2},
        "wied": {"outer_tol": 1e-9},
        "diagnostics": [{"name": "energy"}, {"name": "cauchy"},
                        {"name": "level-sets", **cyl},
                        {"name": "no-spikes", **cyl},
                        {"name": "linf-l2", **cyl}],
        "seed": 7,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    one = run_hashes(cfg_path, tmp_path / "t1", 1)
    two = run_hashes(cfg_path, tmp_path / "t2", 2)
    assert "fields/parabolic.f64" in one
    assert {"reports/level_sets.csv", "reports/no_spikes.csv",
            "reports/linf_l2.csv"} <= set(one)
    assert one == two


def test_manifest_records_the_blas_kernel(tmp_path):
    # OPENBLAS_CORETYPE picks the kernel OpenBLAS runs on; the unhashed
    # manifest names the one in use, or null where it cannot be read
    cfg = {"grid": GRIDS["d1"], "model": {"kind": "zero"},
           "initial": {"kind": "plateau", "radius": 0.6, "height": 1.0},
           "schedule": {"eps0": 0.05, "ratio": 0.5, "count": 1},
           "diagnostics": [], "seed": 7}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    manifest = run_manifest(cfg_path, tmp_path / "out",
                            OPENBLAS_CORETYPE="Haswell")
    if manifest["blas_kernel"] is None:
        pytest.skip("no OpenBLAS kernel can be read in this process")
    assert manifest["blas_kernel"] == "Haswell"


# the largest difference of a field value between two OpenBLAS kernels,
# for fields in [0, 1]: the eigenbases and transform products round
# differently.  Between SkylakeX and Haswell this config's fields differ
# by at most 1.1e-16, and other small configs' by at most 1.1e-15
KERNEL_ROUNDOFF = 1.1e-15


def test_artifacts_per_blas_kernel(tmp_path):
    # two fresh processes under the host's default kernel and two under
    # OPENBLAS_CORETYPE=Haswell: equal hashes within each kernel, and
    # every field within KERNEL_ROUNDOFF across the two
    cfg = {"grid": GRIDS["d1"], "model": {"kind": "polynomial-bump"},
           "initial": {"kind": "plateau", "radius": 0.6, "height": 1.0,
                       "axis": "trace"},
           "schedule": {"eps0": 0.05, "ratio": 0.5, "count": 2},
           "wied": {"outer_tol": 1e-9},
           "diagnostics": [{"name": "energy"}], "seed": 7}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    runs = {}
    for kernel in ("default", "Haswell"):
        env = {} if kernel == "default" else {"OPENBLAS_CORETYPE": kernel}
        runs[kernel] = [run_manifest(cfg_path, tmp_path / f"{kernel}{i}",
                                     **env) for i in range(2)]
    default, haswell = (runs[k][0]["blas_kernel"] for k in runs)
    if default is None or haswell != "Haswell":
        pytest.skip("no OpenBLAS kernel can be read or set in this process")
    if default == haswell:
        pytest.skip("the host's default kernel is Haswell")
    for manifests in runs.values():
        assert manifests[0]["artifacts"] == manifests[1]["artifacts"]
    fields = [name for name in runs["default"][0]["artifacts"]
              if name.endswith(".f64")]
    assert "fields/parabolic.f64" in fields and len(fields) == 3
    for name in fields:
        _, a, _ = load_field(tmp_path / "default0" / name)
        _, b, _ = load_field(tmp_path / "Haswell0" / name)
        assert np.max(np.abs(a - b)) <= KERNEL_ROUNDOFF, name
