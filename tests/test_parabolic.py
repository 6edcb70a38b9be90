import numpy as np
import pytest

from wiedlab.combustion import CombustionModel, phi_eval, validate_model
from wiedlab.grid import GridSpec, build_grid
from wiedlab.parabolic import (ParabolicConfig, analytic_heat_oracle,
                               solve_parabolic, step_implicit)

BUMP = validate_model(CombustionModel())


def grid_small(nx=12, ny=8, nt=20, a=0.5, L=1.0, Y=1.0, T=0.5, grading=None):
    return build_grid(GridSpec(d=1, a=a, L=L, Y=Y, T=T,
                               nx=nx, ny=ny, nt=nt, grading=grading))


def test_constant_state_is_fixed_point():
    g = grid_small()
    cfg = ParabolicConfig()
    u = step_implicit(g, None, cfg, np.full(g.n_spatial, 0.3))
    assert np.max(np.abs(u - 0.3)) < 1e-12
    traj = solve_parabolic(g, BUMP, cfg, np.zeros(g.n_spatial))
    assert np.max(np.abs(traj)) < 1e-12


def test_mass_conservation_without_reaction():
    g = grid_small()
    rng = np.random.default_rng(0)
    U0 = rng.random(g.n_spatial)
    traj = solve_parabolic(g, None, ParabolicConfig(), U0)
    masses = traj @ g.node_mass
    assert np.max(np.abs(masses - masses[0])) < 1e-10


def test_combustion_sink_removes_mass():
    g = grid_small()
    U0 = g.eval_spatial(
        lambda x, y: np.clip(1 - (x**2 + y**2) / 0.36, 0, None)**2).ravel()
    traj = solve_parabolic(g, BUMP, ParabolicConfig(), U0)
    masses = traj @ g.node_mass
    assert np.all(np.diff(masses) <= 1e-12)
    assert traj.min() >= -1e-8 and traj.max() <= 1.0 + 1e-8


def test_l2a_norm_nonincreasing_any_dt():
    for nt in (4, 40):
        g = grid_small(nt=nt, T=2.0)
        rng = np.random.default_rng(1)
        U0 = rng.random(g.n_spatial)
        traj = solve_parabolic(g, None, ParabolicConfig(), U0)
        norms = np.sqrt((traj * traj) @ g.node_mass)
        assert np.all(np.diff(norms) <= 1e-12)


def test_comparison_principle():
    g = grid_small()
    rng = np.random.default_rng(2)
    U0 = rng.random(g.n_spatial)
    V0 = U0 + 0.3 * rng.random(g.n_spatial)
    cfg = ParabolicConfig()
    trU = solve_parabolic(g, None, cfg, U0)
    trV = solve_parabolic(g, None, cfg, V0)
    assert np.all(trV - trU >= -1e-10)


def test_heat_oracle_trivials():
    X = np.array([0.3, -0.2])
    w = 0.1
    assert abs(analytic_heat_oracle(X, 0.0, w)
               - np.exp(-np.sum(X**2) / (4 * w))) < 1e-15
    # at the origin with w = 1, d = 1 (so d+1 = 2 heat dimensions)
    assert abs(analytic_heat_oracle(np.zeros(2), 3.0, 1.0)
               - (1.0 + 3.0) ** (-1.0)) < 1e-15


def test_heat_oracle_mass_conserved():
    w = 0.2
    xs = np.linspace(-12, 12, 4001)
    for t in (0.0, 0.5, 2.0):
        vals = analytic_heat_oracle(xs[:, None], t, w)
        mass = np.trapezoid(vals, xs)
        assert abs(mass - np.sqrt(4 * np.pi * w)) < 1e-5


def test_matches_heat_oracle_under_refinement():
    w, T = 0.05, 0.05
    errs = []
    for n in (16, 32):
        g = grid_small(nx=4 * n, ny=2 * n, nt=max(4, int(T * n * n * 2)),
                       a=0.0, L=2.0, Y=2.0, T=T, grading=1.0)
        ym, xm = g.coords()
        X = np.stack(np.broadcast_arrays(xm, ym), axis=-1)
        U0 = analytic_heat_oracle(X, 0.0, w).ravel()
        traj = solve_parabolic(g, None, ParabolicConfig(), U0)
        errs.append(np.max(np.abs(
            traj[-1] - analytic_heat_oracle(X, T, w).ravel())))
    assert errs[1] <= 0.4 * errs[0]  # roughly second order in space


def test_phi_dissipation_grows_at_most_linearly():
    g = grid_small(nx=24, ny=8, nt=80, T=2.0)
    U0 = g.eval_spatial(
        lambda x, y: np.clip(1 - (x**2 + y**2) / 0.49, 0, None)**2).ravel()
    traj = solve_parabolic(g, BUMP, ParabolicConfig(), U0)
    from wiedlab.assembly import build_operators
    ops = build_operators(g)
    P = phi_eval(BUMP, traj[:, ops.trace_index]) @ ops.trace_mass
    cum = np.cumsum(g.dt * 0.5 * (P[:-1] + P[1:]))
    t = g.t[1:]
    density = cum / t
    assert np.all(np.diff(cum) >= -1e-14)
    # at-most-linear growth: the running density never exceeds its early peak
    assert density[-1] <= 1.05 * density.max()


def test_dt_override_must_match_grid():
    g = grid_small()
    with pytest.raises(ValueError):
        solve_parabolic(g, None, ParabolicConfig(dt=g.dt * 0.3),
                        np.zeros(g.n_spatial))


def test_nonfinite_state_rejected():
    g = grid_small()
    bad = np.full(g.n_spatial, np.nan)
    from wiedlab.parabolic import ParabolicError
    with pytest.raises(ParabolicError):
        step_implicit(g, None, ParabolicConfig(), bad)


def test_refined_y_shipped_physics_converges():
    # the shipped plateau (radius 3.6, height 1.0, nt = 960) with y refined
    # to ny = 22: fixed-sigma Picard has to converge on every step, the
    # first one included, and keep the trajectory in [0, 1]
    import json
    from pathlib import Path
    from wiedlab.config import config_from_dict
    data = json.loads((Path(__file__).resolve().parent.parent / "configs"
                       / "combustion-1d.json").read_text())
    data["grid"]["ny"] = 22
    cfg = config_from_dict(data)
    g = build_grid(cfg.grid)
    traj = solve_parabolic(g, cfg.model, cfg.parabolic,
                           cfg.initial.evaluate(g))
    assert traj.shape == (961, g.n_spatial)
    assert np.all(np.isfinite(traj))
    assert traj.min() >= -1e-8 and traj.max() <= 1.0 + 1e-8


def test_trace_picard_matches_full_space_iteration():
    # shipped physics (config, grid and tolerances of combustion-1d): the
    # trace-reduced step against the fixed-sigma MM iteration run on the
    # whole grid, u <- u - B^{-1} residual(u), B = M/dt + K + sigma D_tr,
    # with the same stopping rule, on the first step (the slowest) and a
    # mid-trajectory one
    import json
    from pathlib import Path
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu
    from wiedlab.assembly import build_operators
    from wiedlab.combustion import beta_eval
    from wiedlab.config import config_from_dict
    data = json.loads((Path(__file__).resolve().parent.parent / "configs"
                       / "combustion-1d.json").read_text())
    cfg = config_from_dict(data)
    g = build_grid(cfg.grid)
    ops = build_operators(g)
    model, pcfg = cfg.model, cfg.parabolic
    dt = g.dt
    A = sp.diags(ops.mass / dt) + ops.Ka.tocsr()
    shift = np.zeros(g.n_spatial)
    shift[ops.trace_index] = model.lipschitz * ops.trace_mass
    lu = splu(sp.csc_matrix(A + sp.diags(shift)))

    def full_space_step(un):
        rhs0 = ops.mass * un / dt
        bound = pcfg.picard_tol * np.linalg.norm(rhs0)
        u = un.copy()
        for _ in range(pcfg.picard_maxit + 1):
            resid = A @ u - rhs0
            resid[ops.trace_index] += ops.trace_mass * beta_eval(
                model, u[ops.trace_index])
            if np.linalg.norm(resid) <= bound:
                return u
            u = u - lu.solve(resid)
        raise AssertionError("full-space iteration did not converge")

    u0 = cfg.initial.evaluate(g)
    mid = solve_parabolic(g, model, pcfg, u0, ops=ops)[g.spec.nt // 2]
    for un in (u0, mid):
        ref = full_space_step(un)
        u = step_implicit(g, model, pcfg, un, ops=ops)
        assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_step_constants_built_once_per_time_step():
    # the modal inverse 1/(1/dt + lam) and its trace gain depend only on
    # (dt, sigma): a trajectory builds them once on the cached basis,
    # with the bits of the per-step formula
    from wiedlab.assembly import axis_eigenbasis, build_operators
    g = grid_small()
    ops = build_operators(g)
    U0 = g.eval_spatial(lambda x, y: np.clip(
        1 - (x**2 + y**2) / 0.36, 0, None)**2).ravel()
    solve_parabolic(g, BUMP, ParabolicConfig(), U0, ops=ops)
    basis = axis_eigenbasis(g, ops, BUMP.lipschitz)
    assert list(basis.resolvents) == [1.0 / g.dt]
    inv, h = basis.resolvents[1.0 / g.dt]
    expect = 1.0 / (1.0 / g.dt + basis.lam)
    assert np.array_equal(inv, expect)
    assert np.array_equal(h, basis.trace_gain(expect))


def test_trajectory_hands_each_check_to_the_next_step(monkeypatch):
    # solve_parabolic carries each step's exit-check stiffness product and
    # beta to the next step's entry check: one product per step plus the
    # first entry, and the bits of steps that form both themselves
    from wiedlab.assembly import KroneckerStencil, build_operators
    g = grid_small()
    ops = build_operators(g)
    cfg = ParabolicConfig()
    U0 = g.eval_spatial(lambda x, y: np.clip(
        1 - (x**2 + y**2) / 0.36, 0, None)**2).ravel()
    ref = [U0]
    for _ in range(g.spec.nt):
        ref.append(step_implicit(g, BUMP, cfg, ref[-1], ops=ops))
    products = []
    matmul = KroneckerStencil.__matmul__

    def counted(self, x):
        products.append(1)
        return matmul(self, x)

    monkeypatch.setattr(KroneckerStencil, "__matmul__", counted)
    traj = solve_parabolic(g, BUMP, cfg, U0, ops=ops)
    assert np.array_equal(traj, np.array(ref))
    assert len(products) == g.spec.nt + 1


def test_failing_linear_step_stops_after_one_recovery(monkeypatch):
    # without a reaction s stays 0, so once the recovered u misses the
    # tolerance every later correction would recover the same u: the
    # step fails after one recovery (three beta_eval calls: at u_n, for
    # s_1 and at the recovered u) instead of spending linear_maxit, and
    # its message counts the one correction it made
    from wiedlab import parabolic
    from wiedlab.combustion import beta_eval
    g = grid_small()
    U0 = g.eval_spatial(lambda x, y: np.clip(
        1 - (x**2 + y**2) / 0.36, 0, None)**2).ravel()
    calls = []

    def counted(model, v):
        calls.append(1)
        return beta_eval(model, v)

    monkeypatch.setattr(parabolic, "beta_eval", counted)
    cfg = ParabolicConfig(linear_tol=1e-18, linear_maxit=1000)
    with pytest.raises(parabolic.ParabolicError,
                       match="linear solve did not converge") as exc:
        step_implicit(g, None, cfg, U0)
    assert str(exc.value).endswith("(1 correction)")
    assert len(calls) == 3
