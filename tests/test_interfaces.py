"""Cross-cutting interface checks: d = 2 support, dump formats, the
Newton matrix's trace shift, the names the benchmark's traced mode
patches or reads, and a start and run that import no scipy."""

import functools
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wiedlab.assembly import assemble_linear_system
from wiedlab.combustion import CombustionModel, validate_model
from wiedlab.grid import GridSpec, build_grid
from wiedlab.parabolic import ParabolicConfig, solve_parabolic
from wiedlab.runner import dump_field, load_field
from wiedlab.wied import WiedConfig, solve_wied

BUMP = validate_model(CombustionModel())


def test_d2_solver_smoke():
    g = build_grid(GridSpec(d=2, a=0.3, L=1.0, Y=1.0, T=0.5,
                            nx=6, ny=4, nt=10))
    assert g.spatial_shape == (5, 7, 7)
    U0 = g.eval_spatial(
        lambda x1, x2, y: np.clip(1 - (x1**2 + x2**2 + y**2) / 0.36,
                                  0, None)**2).ravel()
    res = solve_wied(g, BUMP, WiedConfig(eps=0.05, outer="newton",
                                         outer_tol=1e-8), U0)
    assert res.U.min() >= -1e-8 and res.U.max() <= 1.0 + 1e-8
    traj = solve_parabolic(g, BUMP, ParabolicConfig(), U0)
    assert traj.min() >= -1e-8 and traj.max() <= 1.0 + 1e-8
    masses = traj @ g.node_mass
    assert np.all(np.diff(masses) <= 1e-12)


def test_d2_mass_and_measure():
    g = build_grid(GridSpec(d=2, a=0.0, L=1.0, Y=1.0, T=1.0,
                            nx=4, ny=4, nt=4, grading=1.0))
    from wiedlab.grid import weighted_measure
    # Lebesgue volume of [-1,1]^2 x [0,1] x [0,1]
    assert abs(weighted_measure(
        g, np.ones(g.spacetime_shape, dtype=bool)) - 4.0) < 1e-13


def test_field_dump_byte_order_contract(tmp_path):
    # row-major (x, y, t): the time index is fastest in the flat file
    g = build_grid(GridSpec(d=1, a=0.5, L=1.0, Y=1.0, T=1.0,
                            nx=3, ny=2, nt=4))
    rng = np.random.default_rng(0)
    arr = rng.standard_normal(g.spacetime_shape)
    dump_field(tmp_path / "f.f64", g, arr, {"eps": 0.1})
    raw = np.frombuffer((tmp_path / "f.f64").read_bytes(), dtype="<f8")
    nt1, ny1, nx1 = g.spec.nt + 1, g.spec.ny + 1, g.spec.nx + 1
    assert raw[0] == arr[0, 0, 0]
    assert raw[1] == arr[1, 0, 0]                 # t fastest
    assert raw[nt1] == arr[0, 1, 0]               # then y
    assert raw[nt1 * ny1] == arr[0, 0, 1]         # then x
    g2, back, side = load_field(tmp_path / "f.f64")
    assert np.array_equal(back, arr)
    assert side["eps"] == 0.1
    assert json.loads((tmp_path / "f.json").read_text())["dtype"] == "<f8"


def test_newton_matrix_diag_shift_only_on_trace():
    g = build_grid(GridSpec(d=1, a=0.5, L=1.0, Y=1.0, T=1.0,
                            nx=4, ny=4, nt=4))
    system = assemble_linear_system(g, 0.1)
    U = np.full((g.spec.nt + 1, g.n_spatial), 0.25)
    AN = system.newton_matrix(BUMP, U)
    diff = (AN - system.A).tocoo()
    assert np.all(diff.row == diff.col)
    S = g.n_spatial
    assert set(diff.row % S) <= set(system.ops.trace_index.tolist())


def test_benchmark_tracing_hooks_install_and_restore():
    # perfbench/tracing.py wraps wiedlab names by attribute; installing
    # fails on any name that no longer exists, and leaving the block puts
    # every original back
    from wiedlab import assembly, wied
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = (wied.assemble_linear_system, assembly.LinearSystem.residual)
    with tracing.installed(tracing.Tracer()):
        assert wied.assemble_linear_system is not before[0]
    assert (wied.assemble_linear_system,
            assembly.LinearSystem.residual) == before
    # perfbench/micro.py reads these names directly, without a wrapper
    assert callable(assembly.assemble_linear_system)
    assert callable(assembly.spectral_preconditioner)
    assert isinstance(assembly.LinearSystem.A, functools.cached_property)
    assert isinstance(assembly.LinearSystem.n_unknowns, property)


ROOT = Path(__file__).resolve().parent.parent

# imports what a job imports, then runs `wiedlab run`, `parabolic` and
# `diagnose` on the config argv[1]; prints the exit codes and the scipy
# modules loaded after the imports and after the runs
_SCIPY_PROBE = """
import json, sys
from wiedlab import cli, runner  # noqa: F401

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

after_import = scipy_modules()
cfg, out = sys.argv[1], sys.argv[2]
codes = [cli.main(["run", cfg, "--out", out + "/run"]),
         cli.main(["parabolic", cfg, "--out", out + "/ref"]),
         cli.main(["diagnose", cfg, "--field", out + "/ref/parabolic.f64",
                   "--which", "no-spikes,level-sets", "--out",
                   out + "/diag"])]
print(json.dumps({"codes": codes, "after_import": after_import,
                  "after_run": scipy_modules()}))
"""


@pytest.mark.parametrize("m", [1, 1.5])
def test_runs_import_scipy_only_for_non_integer_bumps(tmp_path, m):
    # the shipped config on a tiny one-level grid, in a fresh process: the
    # start and every run path stay scipy-free with integer bump
    # exponents; m = 1.5 still runs and loads scipy.special on first use
    cfg = json.loads((ROOT / "configs" / "combustion-1d.json").read_text())
    cfg["grid"].update(nx=8, ny=3, nt=24)
    cfg["schedule"]["count"] = 1
    cfg["model"]["params"]["m"] = m
    cfg["diagnostics"] = [d for d in cfg["diagnostics"]
                          if d["name"] in ("energy", "uniform-bounds",
                                           "no-spikes", "level-sets")]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(path), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["codes"] == [0, 0, 0], proc.stderr
    assert seen["after_import"] == []
    if m == 1:
        assert seen["after_run"] == []
    else:
        assert "scipy.special" in seen["after_run"]
