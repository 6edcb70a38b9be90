"""Cross-cutting interface checks: d = 2 support, dump formats,
sampled seminorm path, space-time Sobolev ratio."""

import json

import numpy as np
import pytest

from wiedlab import diagnostics as dg
from wiedlab.assembly import assemble_linear_system
from wiedlab.combustion import CombustionModel, validate_model
from wiedlab.grid import Cylinder, GridError, GridSpec, build_grid
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


def test_holder_seminorm_sampled_path_matches_exact_scale():
    g = build_grid(GridSpec(d=1, a=0.0, L=1.5, Y=1.1, T=3.0,
                            nx=24, ny=4, nt=48, grading=1.0))
    cyl = Cylinder((0.0, 0.0, 1.5), 1.0)
    ym, xm = g.coords()
    lin = np.array(np.broadcast_to(
        np.broadcast_to(xm, g.spatial_shape)[None], g.spacetime_shape))
    exact = dg.holder_seminorm(g, lin, cyl, 1.0)
    sampled = dg.holder_seminorm(g, lin, cyl, 1.0, exact_limit=10,
                                 n_pairs=200_000, seed=1)
    assert sampled <= exact + 1e-12
    assert sampled >= 0.8 * exact
    s2 = dg.holder_seminorm(g, lin, cyl, 1.0, exact_limit=10,
                            n_pairs=200_000, seed=1)
    assert s2 == sampled  # fixed seed -> reproducible


def test_parabolic_sobolev_ratio_runs():
    g = build_grid(GridSpec(d=1, a=0.5, L=1.6, Y=1.1, T=3.0,
                            nx=12, ny=8, nt=48))
    cyl = Cylinder((0.0, 0.0, 1.5), 1.0)
    ym, xm = g.coords()
    U = np.array(np.broadcast_to(
        (np.cos(xm) * (1 + ym))[None], g.spacetime_shape))
    r = dg.parabolic_sobolev_ratio(g, U, cyl)
    assert r["applicable"] and r["ratio"] > 0
    assert r["gamma"] == pytest.approx(1 + 2 / (1 + 1 + 0.5))


def test_rescale_range_guard():
    g = build_grid(GridSpec(d=1, a=0.5, L=1.0, Y=1.0, T=1.0,
                            nx=4, ny=4, nt=4))
    with pytest.raises(GridError):
        dg.rescale_field(g, np.zeros(g.spacetime_shape), 1.5)


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
