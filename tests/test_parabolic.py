import json
from pathlib import Path

import numpy as np
import pytest

from wiedlab.combustion import (ZERO_MODEL, CombustionModel, phi_eval,
                                validate_model)
from wiedlab.config import config_from_dict
from wiedlab.grid import GridSpec, build_grid
from wiedlab.parabolic import (STEP_MAXIT, STEP_TOL,
                               analytic_heat_oracle, solve_parabolic,
                               step_implicit)

BUMP = validate_model(CombustionModel())


def grid_small(nx=12, ny=8, nt=20, a=0.5, L=1.0, Y=1.0, T=0.5, grading=None):
    return build_grid(GridSpec(d=1, a=a, L=L, Y=Y, T=T,
                               nx=nx, ny=ny, nt=nt, grading=grading))


def _shipped(**grid):
    # the shipped config (physics and grid of combustion-1d),
    # with grid overrides and no diagnostics
    data = json.loads((Path(__file__).resolve().parent.parent / "configs"
                       / "combustion-1d.json").read_text())
    data["grid"].update(grid)
    data["diagnostics"] = []
    return config_from_dict(data)


def _drift_bound(ops, traj):
    # two trajectories whose steps each leave a residual of at most
    # STEP_TOL |M u_n/dt| differ at a step by at most twice that through
    # (M/dt + K)^{-1}, whose norm is at most dt / min(mass); summed over
    # the steps
    return float(np.sum(2.0 * STEP_TOL * np.linalg.norm(
        traj[:-1] * ops.mass, axis=1)) / ops.mass.min())


def test_constant_state_is_fixed_point():
    g = grid_small()
    u = step_implicit(g, ZERO_MODEL, np.full(g.n_spatial, 0.3))
    assert np.max(np.abs(u - 0.3)) < 1e-12
    traj = solve_parabolic(g, BUMP, np.zeros(g.n_spatial))
    assert np.max(np.abs(traj)) < 1e-12


def test_mass_conservation_without_reaction():
    g = grid_small()
    rng = np.random.default_rng(0)
    U0 = rng.random(g.n_spatial)
    traj = solve_parabolic(g, ZERO_MODEL, U0)
    masses = traj @ g.node_mass
    assert np.max(np.abs(masses - masses[0])) < 1e-10


def test_combustion_sink_removes_mass():
    g = grid_small()
    U0 = g.eval_spatial(
        lambda x, y: np.clip(1 - (x**2 + y**2) / 0.36, 0, None)**2).ravel()
    traj = solve_parabolic(g, BUMP, U0)
    masses = traj @ g.node_mass
    assert np.all(np.diff(masses) <= 1e-12)
    assert traj.min() >= -1e-8 and traj.max() <= 1.0 + 1e-8


def test_l2a_norm_nonincreasing_any_dt():
    for nt in (4, 40):
        g = grid_small(nt=nt, T=2.0)
        rng = np.random.default_rng(1)
        U0 = rng.random(g.n_spatial)
        traj = solve_parabolic(g, ZERO_MODEL, U0)
        norms = np.sqrt((traj * traj) @ g.node_mass)
        assert np.all(np.diff(norms) <= 1e-12)


def test_comparison_principle():
    g = grid_small()
    rng = np.random.default_rng(2)
    U0 = rng.random(g.n_spatial)
    V0 = U0 + 0.3 * rng.random(g.n_spatial)
    trU = solve_parabolic(g, ZERO_MODEL, U0)
    trV = solve_parabolic(g, ZERO_MODEL, V0)
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
        traj = solve_parabolic(g, ZERO_MODEL, U0)
        errs.append(np.max(np.abs(
            traj[-1] - analytic_heat_oracle(X, T, w).ravel())))
    assert errs[1] <= 0.4 * errs[0]  # roughly second order in space


def test_phi_dissipation_grows_at_most_linearly():
    g = grid_small(nx=24, ny=8, nt=80, T=2.0)
    U0 = g.eval_spatial(
        lambda x, y: np.clip(1 - (x**2 + y**2) / 0.49, 0, None)**2).ravel()
    traj = solve_parabolic(g, BUMP, U0)
    from wiedlab.assembly import build_operators
    ops = build_operators(g)
    P = phi_eval(BUMP, traj[:, ops.trace_index]) @ ops.trace_mass
    cum = np.cumsum(g.dt * 0.5 * (P[:-1] + P[1:]))
    t = g.t[1:]
    density = cum / t
    assert np.all(np.diff(cum) >= -1e-14)
    # at-most-linear growth: the running density never exceeds its early peak
    assert density[-1] <= 1.05 * density.max()


def test_nonfinite_state_rejected():
    g = grid_small()
    bad = np.full(g.n_spatial, np.nan)
    from wiedlab.parabolic import ParabolicError
    with pytest.raises(ParabolicError):
        step_implicit(g, ZERO_MODEL, bad)


def test_refined_y_shipped_physics_converges():
    # the shipped plateau (radius 3.6, height 1.0, nt = 960) with y refined
    # to ny = 22: fixed-sigma Picard has to converge on every step, the
    # first one included, and keep the trajectory in [0, 1]
    cfg = _shipped(ny=22)
    g = build_grid(cfg.grid)
    traj = solve_parabolic(g, cfg.model, cfg.initial.evaluate(g))
    assert traj.shape == (961, g.n_spatial)
    assert np.all(np.isfinite(traj))
    assert traj.min() >= -1e-8 and traj.max() <= 1.0 + 1e-8


def test_trace_picard_matches_full_space_iteration():
    # shipped physics (config and grid of combustion-1d): the
    # trace-reduced step against the fixed-sigma MM iteration run on the
    # whole grid, u <- u - B^{-1} residual(u), B = M/dt + K + sigma D_tr,
    # with the same stopping rule, on the first step (the slowest) and a
    # mid-trajectory one
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu
    from wiedlab.assembly import build_operators
    from wiedlab.combustion import beta_eval
    cfg = _shipped()
    g = build_grid(cfg.grid)
    ops = build_operators(g)
    model = cfg.model
    dt = g.dt
    A = sp.diags(ops.mass / dt) + ops.Ka.tocsr()
    shift = np.zeros(g.n_spatial)
    shift[ops.trace_index] = model.lipschitz * ops.trace_mass
    lu = splu(sp.csc_matrix(A + sp.diags(shift)))

    def full_space_step(un):
        rhs0 = ops.mass * un / dt
        bound = STEP_TOL * np.linalg.norm(rhs0)
        u = un.copy()
        for _ in range(STEP_MAXIT + 1):
            resid = A @ u - rhs0
            resid[ops.trace_index] += ops.trace_mass * beta_eval(
                model, u[ops.trace_index])
            if np.linalg.norm(resid) <= bound:
                return u
            u = u - lu.solve(resid)
        raise AssertionError("full-space iteration did not converge")

    u0 = cfg.initial.evaluate(g)
    mid = solve_parabolic(g, model, u0, ops=ops)[g.spec.nt // 2]
    for un in (u0, mid):
        ref = full_space_step(un)
        u = step_implicit(g, model, un, ops=ops)
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
    solve_parabolic(g, BUMP, U0, ops=ops)
    basis = axis_eigenbasis(g, ops, BUMP.lipschitz)
    assert list(basis.resolvents) == [1.0 / g.dt]
    inv, h = basis.resolvents[1.0 / g.dt]
    expect = 1.0 / (1.0 / g.dt + basis.lam)
    assert np.array_equal(inv, expect)
    assert np.array_equal(h, basis.trace_gain(expect))


def test_trajectory_hands_each_check_to_the_next_step(monkeypatch):
    # solve_parabolic hands each step's exit check to the next step's
    # entry check: the product q = A u + E D_tr beta(E' u) gives both
    # residuals, so a trajectory makes one product per step plus the first
    # entry.  Its modal coefficients go to the next step's map (one
    # to_modes, at the first step).  Against carry-less steps it lands
    # within the drift the tolerance allows, not on the same bits: the
    # carried modes and the extrapolated start stop the map elsewhere
    from wiedlab.assembly import (AxisEigenbasis, KroneckerStencil,
                                  build_operators)
    g = grid_small()
    ops = build_operators(g)
    U0 = g.eval_spatial(lambda x, y: np.clip(
        1 - (x**2 + y**2) / 0.36, 0, None)**2).ravel()
    ref = [U0]
    for _ in range(g.spec.nt):
        ref.append(step_implicit(g, BUMP, ref[-1], ops=ops))
    ref = np.array(ref)
    calls = {"products": 0, "to_modes": 0}

    def counted(name, fn):
        def wrapped(self, *args, **kwargs):
            calls[name] += 1
            return fn(self, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(KroneckerStencil, "__matmul__",
                        counted("products", KroneckerStencil.__matmul__))
    monkeypatch.setattr(AxisEigenbasis, "to_modes",
                        counted("to_modes", AxisEigenbasis.to_modes))
    traj = solve_parabolic(g, BUMP, U0, ops=ops)
    assert calls == {"products": g.spec.nt + 1, "to_modes": 1}
    assert np.max(np.abs(traj - ref)) <= _drift_bound(ops, ref)


@pytest.mark.parametrize("case", ["shipped", "d2"])
def test_every_layer_passes_the_exit_check(case):
    # each layer of the trajectory solves its step from the layer before
    # to the step's own nodal test: |(M/dt + K) u_{n+1} - M u_n/dt
    # + E D_tr beta(E' u_{n+1})| <= STEP_TOL |M u_n/dt|
    from wiedlab.assembly import build_operators
    from wiedlab.combustion import beta_eval
    if case == "shipped":
        cfg = _shipped()
    else:
        cfg = _shipped(d=2, nx=12, ny=6, nt=40, L=8.0, Y=5.0)
    g = build_grid(cfg.grid)
    ops = build_operators(g)
    traj = solve_parabolic(g, cfg.model, cfg.initial.evaluate(g), ops=ops)
    A = ops.Ka.shifted(ops.mass / g.dt)
    tr = ops.trace_index
    for n in range(g.spec.nt):
        rhs = ops.mass * traj[n] / g.dt
        resid = A @ traj[n + 1] - rhs
        resid[tr] += ops.trace_mass * beta_eval(cfg.model, traj[n + 1][tr])
        assert np.linalg.norm(resid) <= (STEP_TOL
                                         * np.linalg.norm(rhs)), n


def test_extrapolated_start_lowers_the_corrections():
    # on the shipped config: stepping with the carry reproduces
    # solve_parabolic bit for bit, with the trace corrections it reports;
    # cutting the carried history of entry sources before each step, so
    # that every map starts from the linear extrapolation 2 s(u_n) -
    # s(u_{n-1}) (two entries) or from s(u_n) itself (one entry) instead
    # of the cubic 4 s(u_n) - 6 s(u_{n-1}) + 4 s(u_{n-2}) - s(u_{n-3}),
    # costs more of them
    from wiedlab.assembly import build_operators
    cfg = _shipped()
    g = build_grid(cfg.grid)
    ops = build_operators(g)
    U0 = cfg.initial.evaluate(g)
    stats = {}
    traj = solve_parabolic(g, cfg.model, U0, ops=ops, stats=stats)
    totals = {}
    for entries in (4, 2, 1):
        carry, u, counts = {}, U0, []
        for n in range(g.spec.nt):
            carry["s"] = carry.get("s", ())[:entries - 1]
            u = step_implicit(g, cfg.model, u, ops=ops, carry=carry)
            counts.append(carry["corrections"])
            if entries == 4:
                assert np.array_equal(u, traj[n + 1])
        totals[entries] = sum(counts)
        if entries == 4:
            most = max(counts)
            assert stats == {"corrections": sum(counts),
                             "max_corrections": most,
                             "max_step": counts.index(most) + 1}
    assert totals[4] < totals[2] < totals[1]
    assert totals[4] <= 2000


def test_failing_linear_step_stops_after_one_recovery(monkeypatch):
    # without a reaction s stays 0, so the map stops at its first
    # correction: a step that passes makes that one, and once the
    # recovered u misses the tolerance every later correction would
    # recover the same u, so the step fails after one recovery (three
    # beta_eval calls: at u_n, for s_1 and at the recovered u), and its
    # message counts the one correction it made
    from wiedlab import parabolic
    from wiedlab.combustion import beta_eval
    g = grid_small()
    U0 = g.eval_spatial(lambda x, y: np.clip(
        1 - (x**2 + y**2) / 0.36, 0, None)**2).ravel()
    carry = {}
    step_implicit(g, ZERO_MODEL, U0, carry=carry)
    assert carry["corrections"] == 1
    calls = []

    def counted(model, v):
        calls.append(1)
        return beta_eval(model, v)

    monkeypatch.setattr(parabolic, "beta_eval", counted)
    monkeypatch.setattr(parabolic, "STEP_TOL", 1e-18)
    with pytest.raises(parabolic.ParabolicError,
                       match="Picard did not converge") as exc:
        step_implicit(g, ZERO_MODEL, U0)
    assert str(exc.value).endswith("(1 correction)")
    assert len(calls) == 3


def test_reaction_free_march_flushes_subnormal_modes():
    # without a reaction each mode decays by 1/(1 + dt lam) a step, so on
    # this grid the high modes reach the subnormal range from about step
    # 275; step_implicit sets them to 0 where it forms them, so no mode
    # it carries is subnormal
    g = grid_small(nx=40, ny=20, nt=300, a=0.0, L=2.5, Y=2.5, T=6.0,
                   grading=1.0)
    ym, xm = g.coords()
    u = analytic_heat_oracle(
        np.stack(np.broadcast_arrays(xm, ym), axis=-1), 0.0, 0.08).ravel()
    carry = {}
    tiny = np.finfo(float).tiny
    for _ in range(g.spec.nt):
        u = step_implicit(g, ZERO_MODEL, u, carry=carry)
        c = carry["modes"]
        assert not np.any((c != 0.0) & (np.abs(c) < tiny))
    assert np.count_nonzero(c == 0.0) > 0      # the march got there


def test_march_yields_the_layers_solve_parabolic_stores(monkeypatch):
    # solve_parabolic stores the layers of march_parabolic, bit for bit
    # and with the same stats; a failed step names itself and counts the
    # steps done before it
    from wiedlab import parabolic
    g = grid_small()
    U0 = g.eval_spatial(lambda x, y: 0.9 * np.exp(-4.0 * (x**2 + y**2)))
    s_march, s_solve = {}, {}
    layers = list(parabolic.march_parabolic(g, BUMP, U0, stats=s_march))
    traj = solve_parabolic(g, BUMP, U0, stats=s_solve)
    assert len(layers) == g.spec.nt
    assert np.array_equal(traj[0], U0.ravel())
    assert np.array_equal(np.array(layers), traj[1:])
    assert s_march == s_solve and s_march["corrections"] > 0

    real, calls = parabolic.step_implicit, []

    def fails_at_third(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise parabolic.ParabolicError("boom")
        return real(*args, **kwargs)

    monkeypatch.setattr(parabolic, "step_implicit", fails_at_third)
    with pytest.raises(parabolic.ParabolicError, match="step 3 failed: boom"
                       ) as exc:
        for _ in parabolic.march_parabolic(g, BUMP, U0):
            pass
    assert exc.value.completed == 2
    calls.clear()
    with pytest.raises(parabolic.ParabolicError, match="step 3 failed: boom"
                       ) as exc:
        solve_parabolic(g, BUMP, U0)
    assert exc.value.completed == 2
