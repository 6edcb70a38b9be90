from dataclasses import replace

import numpy as np
import pytest

from wiedlab.assembly import ForcingSpec, functional_gradient, functional_value
from wiedlab.combustion import CombustionModel, validate_model
from wiedlab.grid import GridSpec, build_grid
from wiedlab.wied import (EpsilonSchedule, WiedConfig, WiedConvergenceError,
                          dist_C_L2a, solve_linear_wied, solve_wied,
                          sweep_epsilon)

BUMP = validate_model(CombustionModel())


def grid_small(nx=16, ny=8, nt=80, L=1.0, Y=1.0, T=1.0, a=0.5):
    return build_grid(GridSpec(d=1, a=a, L=L, Y=Y, T=T, nx=nx, ny=ny, nt=nt))


def bump_data(g, r2=0.36):
    return g.eval_spatial(
        lambda x, y: np.clip(1 - (x**2 + y**2) / r2, 0, None)**2).ravel()


def test_constant_data_is_exact_minimizer():
    g = grid_small(6, 5, 8)
    res = solve_wied(g, None, WiedConfig(eps=0.05, outer_tol=1e-10),
                     np.full(g.n_spatial, 0.7))
    assert res.stats["iterations"] == 1
    assert np.max(np.abs(res.U - 0.7)) == 0.0


def test_maximum_principle_combustion():
    g = grid_small()
    res = solve_wied(g, BUMP, WiedConfig(eps=0.1, outer="newton",
                                         outer_tol=1e-9), bump_data(g))
    assert res.U.min() >= -1e-8
    assert res.U.max() <= 1.0 + 1e-8


@pytest.mark.parametrize("d", [1, 2])
def test_tracked_residual_matches_full_residual_at_every_step(d):
    # Picard steps are one exact apply and Newton steps a trace solve, so
    # the residual and the functional after each accepted step are tracked
    # from trace data, not recomputed.  Stopping the solve after k steps
    # makes it report the full LinearSystem.residual and functional_value
    # at the same iterate.  The residuals must agree to 1e-10 relative,
    # down to a floor of 1e-13 of the level's residual scale, where the
    # full residual's own roundoff sits (observed: 1e-16 of the scale);
    # the functionals to 1e-12 relative (observed: 5e-15)
    spec = {1: dict(nx=16, ny=8, nt=80), 2: dict(nx=6, ny=4, nt=24)}[d]
    g = build_grid(GridSpec(d=d, a=0.5, L=1.0, Y=1.0, T=1.0, **spec))
    U0 = g.eval_spatial(lambda *xy: np.clip(
        1 - sum(v**2 for v in xy) / 0.36, 0, None)**2).ravel()
    # a loose inner_tol leaves Newton steps inexact, whose GMRES residual
    # the tracked residual must carry too
    for eps, inner_tol in ((0.1, 1e-11), (0.03, 1e-6)):
        cfg = WiedConfig(eps=eps, outer="newton", outer_tol=1e-10,
                         inner_tol=inner_tol)
        res = solve_wied(g, BUMP, cfg, U0)
        tracked = res.stats["residuals"]
        f_tracked = res.stats["functional"]
        scale = res.stats["el_tol_abs"] / cfg.outer_tol
        inner = res.stats["inner_iterations"]
        assert 0 in inner and max(inner) > 0     # Picard and Newton steps
        steps = res.stats["iterations"] - 1
        assert steps >= 4
        for k in range(1, steps):
            with pytest.raises(WiedConvergenceError) as exc:
                solve_wied(g, BUMP, replace(cfg, outer_maxit=k), U0)
            full = exc.value.stats["residuals"][-1]
            assert abs(tracked[k] - full) <= 1e-10 * full + 1e-13 * scale, \
                (eps, k)
            f_full = exc.value.stats["functional"][-1]
            assert f_full == functional_value(g, BUMP, eps, exc.value.U, U0)
            assert abs(f_tracked[k] - f_full) <= 1e-12 * abs(f_full), (eps, k)
        # the reported residual is the full one, below the tolerance
        assert tracked[-1] <= res.stats["el_tol_abs"]


def test_initial_layer_exact_and_functional_below_extension():
    g = grid_small()
    U0 = bump_data(g)
    cfg = WiedConfig(eps=0.08, outer="newton", outer_tol=1e-9)
    res = solve_wied(g, BUMP, cfg, U0)
    assert np.array_equal(res.U[0], U0)
    f_sol = functional_value(g, BUMP, cfg.eps, res.U, U0)
    ext = np.repeat(U0[None, :], g.spec.nt + 1, axis=0)
    f_ext = functional_value(g, BUMP, cfg.eps, ext, U0)
    assert f_sol <= f_ext
    fs = res.stats["functional"]
    assert all(b <= a * (1 + 1e-12) + 1e-300 for a, b in zip(fs, fs[1:]))


def test_linear_zero_data():
    g = grid_small(8, 6, 20)
    U = solve_linear_wied(g, 0.1, None, np.zeros(g.n_spatial))
    assert np.max(np.abs(U)) < 1e-12


def test_linear_agrees_with_zero_reaction_solve():
    g = grid_small(8, 6, 20)
    U0 = bump_data(g)
    Ulin = solve_linear_wied(g, 0.1, None, U0)
    res = solve_wied(g, None, WiedConfig(eps=0.1, outer_tol=1e-10), U0)
    assert np.max(np.abs(Ulin - res.U)) < 1e-12


def test_linear_manufactured_weighted_influx():
    # f = 1 on the trace: exact solution U = V(y) + alpha t with
    # alpha = (1+a)/Y^{1+a}, V' = alpha y/(1+a) - y^{-a}
    a, Y, T = 0.5, 1.0, 1.0
    errs = []
    for nx, ny, nt in ((8, 8, 64), (16, 16, 128)):
        g = grid_small(nx, ny, nt, L=1.0, Y=Y, T=T, a=a)
        alpha = (1 + a) / Y ** (1 + a)
        ym = g.coords()[0]
        V = alpha * ym**2 / (2 * (1 + a)) - ym**(1 - a) / (1 - a)
        V0 = np.broadcast_to(V, g.spatial_shape).ravel()
        f = np.ones((g.spec.nt + 1, g.spec.nx + 1))
        eps = 0.02
        U = solve_linear_wied(g, eps, ForcingSpec(f=f), V0)
        exact = V0[None, :] + alpha * g.t[:, None]
        half = g.spec.nt // 2  # stay clear of the terminal layer
        errs.append(np.max(np.abs(U[:half] - exact[:half])))
    assert errs[0] < 0.12
    assert errs[1] <= 0.65 * errs[0]  # O(h) improvement under refinement


def test_optimality_along_random_variations():
    g = grid_small(10, 6, 40)
    U0 = bump_data(g)
    cfg = WiedConfig(eps=0.1, outer="newton", outer_tol=1e-10)
    res = solve_wied(g, BUMP, cfg, U0)
    G = functional_gradient(g, BUMP, cfg.eps, res.U, U0)
    rng = np.random.default_rng(11)
    tol = res.stats["el_tol_abs"]
    for _ in range(20):
        eta = rng.standard_normal(G.shape)
        eta[0] = 0.0
        pairing = abs(float(np.sum(G * eta)))
        assert pairing <= 10.0 * tol * np.sqrt(np.sum(eta * eta))


def test_schedule_validation():
    sched = EpsilonSchedule(0.2, 0.5, 3)
    assert sched.values() == [0.2, 0.1, 0.05]
    with pytest.raises(ValueError):
        EpsilonSchedule(1.2, 0.5, 2)
    with pytest.raises(ValueError):
        EpsilonSchedule(0.2, 1.1, 2)


def test_sweep_single_level_report():
    g = grid_small(8, 6, 40, T=2.0)
    sw = sweep_epsilon(g, None, EpsilonSchedule(0.1, 0.5, 1), bump_data(g),
                       cfg=WiedConfig(eps=0.1, outer_tol=1e-9))
    assert [lv.eps for lv in sw.levels] == [0.1]
    lv = sw.levels[0]
    assert lv.iterations >= 1 and lv.el_residual <= lv.stats["el_tol_abs"]
    assert np.isfinite(lv.dist_to_ref)


def test_sweep_eps0_horizon_guard():
    g = grid_small(8, 6, 20, T=1.0)
    with pytest.raises(ValueError, match="T/20"):
        sweep_epsilon(g, None, EpsilonSchedule(0.2, 0.5, 2), bump_data(g))


def test_sweep_combustion_bounds_and_monotone_distance():
    g = grid_small(16, 8, 160, T=2.0)
    sw = sweep_epsilon(g, BUMP, EpsilonSchedule(0.1, 0.5, 3), bump_data(g),
                       cfg=WiedConfig(eps=0.1, outer="newton",
                                      outer_tol=1e-9))
    for lv in sw.levels:
        assert lv.U.min() >= -1e-8 and lv.U.max() <= 1.0 + 1e-8
    d = sw.distances()
    assert sw.monotone and d[-1] < d[0]


def test_dt_energy_bounded_across_schedule():
    # numerical shadow of the uniform inertia bound: the time-derivative
    # energy stays within one constant across levels
    g = grid_small(12, 6, 120, T=2.0)
    sw = sweep_epsilon(g, BUMP, EpsilonSchedule(0.1, 0.5, 3), bump_data(g),
                       cfg=WiedConfig(eps=0.1, outer="newton",
                                      outer_tol=1e-9))
    vals = []
    for lv in sw.levels:
        dU = np.diff(lv.U, axis=0) / g.dt
        vals.append(2.0 * g.dt * float(np.sum((dU * dU) @ g.node_mass)))
    assert max(vals) <= 4.0 * min(vals)


def test_dist_metric_is_layerwise_sup():
    g = grid_small(6, 5, 10)
    U = np.zeros((g.spec.nt + 1, g.n_spatial))
    V = np.zeros_like(U)
    V[3] = 1.0
    expect = np.sqrt(2.0 * g.node_mass.sum())
    assert abs(dist_C_L2a(g, U, V) - expect) < 1e-13
