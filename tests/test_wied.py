from dataclasses import replace

import numpy as np
import pytest

from wiedlab import wied
from wiedlab.assembly import (assemble_linear_system, functional_gradient,
                              functional_value, space_time_inverse)
from wiedlab.combustion import ZERO_MODEL, CombustionModel, validate_model
from wiedlab.grid import GridSpec, build_grid
from wiedlab.parabolic import solve_parabolic
from wiedlab.wied import (EpsilonSchedule, Level, WiedConfig,
                          WiedConvergenceError, dist_C_L2a, solve_wied,
                          sweep_epsilon)

BUMP = validate_model(CombustionModel())


def grid_small(nx=16, ny=8, nt=80, L=1.0, Y=1.0, T=1.0, a=0.5):
    return build_grid(GridSpec(d=1, a=a, L=L, Y=Y, T=T, nx=nx, ny=ny, nt=nt))


def bump_data(g, r2=0.36):
    return g.eval_spatial(
        lambda x, y: np.clip(1 - (x**2 + y**2) / r2, 0, None)**2).ravel()


def test_constant_data_is_exact_minimizer():
    g = grid_small(6, 5, 8)
    res = solve_wied(g, ZERO_MODEL, WiedConfig(eps=0.05, outer_tol=1e-10),
                     np.full(g.n_spatial, 0.7))
    assert res.stats["iterations"] == 1
    assert np.max(np.abs(res.U - 0.7)) == 0.0


def test_maximum_principle_combustion():
    g = grid_small()
    res = solve_wied(g, BUMP, WiedConfig(eps=0.1, outer_tol=1e-9),
                     bump_data(g))
    assert res.U.min() >= -1e-8
    assert res.U.max() <= 1.0 + 1e-8


@pytest.mark.parametrize("d", [1, 2])
def test_tracked_residual_matches_full_residual_at_every_step(d, monkeypatch):
    # Picard steps are one exact apply and Newton steps a trace solve, so
    # the residual and the functional after each accepted step are tracked
    # from trace data, not recomputed.  From a cold start the level takes
    # Picard steps, then Newton steps; from a start it tries Newton at
    # once.  Its iterate is P (b + E s) + mu e, and a step moves only the
    # trace source s and mu.  The warm start (the level of 2 eps) takes
    # its first step at lam = 1, which sets mu = 0, and U0 held in time at
    # twice its height is damped first, so its line searches take the
    # off-trace pairing while mu > 0.  Stopping the solve after k steps
    # (OUTER_MAXIT = k) makes it report the full LinearSystem.residual and
    # functional_value at the same iterate.  The residuals must agree to
    # 1e-10 relative, down to a floor of 1e-13 of the level's residual
    # scale, where the full residual's own roundoff sits (observed: at
    # most 6e-15 of the scale apart); the functionals to 1e-12 relative
    # (observed: 2.3e-14)
    spec = {1: dict(nx=16, ny=8, nt=80), 2: dict(nx=6, ny=4, nt=24)}[d]
    g = build_grid(GridSpec(d=d, a=0.5, L=1.0, Y=1.0, T=1.0, **spec))
    U0 = g.eval_spatial(lambda *xy: np.clip(
        1 - sum(v**2 for v in xy) / 0.36, 0, None)**2).ravel()
    doubled = Level(None, np.repeat(2.0 * U0[None, :], g.spec.nt + 1,
                                    axis=0))
    # a loose inner_tol leaves Newton steps inexact, whose GMRES residual
    # the tracked residual must carry too
    for eps, inner_tol in ((0.1, 1e-11), (0.03, 1e-6)):
        cfg = WiedConfig(eps=eps, outer_tol=1e-10, inner_tol=inner_tol)
        warm = solve_wied(g, BUMP, replace(cfg, eps=2.0 * eps), U0)
        for start in (None, warm, doubled):
            res = solve_wied(g, BUMP, cfg, U0, start=start)
            tracked = res.stats["residuals"]
            f_tracked = res.stats["functional"]
            scale = res.stats["el_tol_abs"] / cfg.outer_tol
            inner = res.stats["inner_iterations"]
            lam = res.stats["damping"]
            if start is None:
                assert 0 in inner and max(inner) > 0
            else:
                assert res.stats["steps"][0] == "newton"
                assert (lam[0] == 1.0) == (start is warm)
            steps = res.stats["iterations"] - 1
            assert steps >= 4
            for k in range(1, steps):
                monkeypatch.setattr(wied, "OUTER_MAXIT", k)
                with pytest.raises(WiedConvergenceError) as exc:
                    solve_wied(g, BUMP, cfg, U0, start=start)
                full = exc.value.level.stats["residuals"][-1]
                assert abs(tracked[k] - full) <= \
                    1e-10 * full + 1e-13 * scale, (eps, k)
                f_full = exc.value.level.stats["functional"][-1]
                assert f_full == functional_value(g, BUMP, eps,
                                                  exc.value.level.U, U0)
                assert abs(f_tracked[k] - f_full) <= 1e-12 * abs(f_full), \
                    (eps, k)
            monkeypatch.undo()
            # the reported residual is the full one, below the tolerance
            assert tracked[-1] <= res.stats["el_tol_abs"]


def test_one_exit_check_counts_iterations(monkeypatch):
    # a level checks its residual before each step and after its last
    # allowed one: one that converges at check k reports k iterations and
    # k residuals, even where k - 1 = OUTER_MAXIT steps were all it had,
    # and one that is still above tolerance after OUTER_MAXIT steps fails
    # with OUTER_MAXIT iterations and one more residual
    g = grid_small(8, 6, 20)
    U0 = bump_data(g)
    cfg = WiedConfig(eps=0.1, outer_tol=1e-10)
    free = solve_wied(g, BUMP, cfg, U0)
    steps = len(free.stats["steps"])
    assert steps >= 2
    assert len(free.stats["residuals"]) == free.iterations == steps + 1
    monkeypatch.setattr(wied, "OUTER_MAXIT", steps)
    last = solve_wied(g, BUMP, cfg, U0)
    assert np.array_equal(last.U, free.U)
    assert last.stats["residuals"] == free.stats["residuals"]
    assert last.iterations == steps + 1
    monkeypatch.setattr(wied, "OUTER_MAXIT", steps - 1)
    with pytest.raises(WiedConvergenceError) as exc:
        solve_wied(g, BUMP, cfg, U0)
    failed = exc.value.level
    assert failed.iterations == steps - 1
    assert len(failed.stats["residuals"]) == steps
    assert len(failed.stats["steps"]) == steps - 1
    assert failed.el_residual > failed.el_tol


def test_zero_model_level_takes_only_picard_steps():
    # without a reaction sigma = 0, so a Newton step would be the Picard
    # step at a higher cost: a level started from a field (where a
    # reaction level tries Newton first) runs no GMRES iteration
    g = grid_small(8, 6, 20)
    rng = np.random.default_rng(3)
    U0 = bump_data(g)
    start = U0 + 0.1 * rng.standard_normal((g.spec.nt + 1, g.n_spatial))
    start[0] = U0
    res = solve_wied(g, ZERO_MODEL, WiedConfig(eps=0.1, outer_tol=1e-10), U0,
                     start=Level(None, start))
    st = res.stats
    assert st["inner_iterations"] and set(st["inner_iterations"]) == {0}
    assert st["newton_tols"] == [] and set(st["steps"]) == {"picard"}
    assert st["residuals"][-1] <= st["el_tol_abs"]


def test_initial_layer_exact_and_functional_below_extension():
    g = grid_small()
    U0 = bump_data(g)
    cfg = WiedConfig(eps=0.08, outer_tol=1e-9)
    res = solve_wied(g, BUMP, cfg, U0)
    assert np.array_equal(res.U[0], U0)
    f_sol = functional_value(g, BUMP, cfg.eps, res.U, U0)
    ext = np.repeat(U0[None, :], g.spec.nt + 1, axis=0)
    f_ext = functional_value(g, BUMP, cfg.eps, ext, U0)
    assert f_sol <= f_ext
    fs = res.stats["functional"]
    assert all(b <= a * (1 + 1e-12) + 1e-300 for a, b in zip(fs, fs[1:]))


def solve_linear(g, eps, U0, tol=1e-11):
    # the linear problem: the zero model
    return solve_wied(g, ZERO_MODEL, WiedConfig(eps=eps, outer_tol=tol), U0)


def test_linear_zero_data():
    g = grid_small(8, 6, 20)
    U = solve_linear(g, 0.1, np.zeros(g.n_spatial)).U
    assert np.max(np.abs(U)) < 1e-12


@pytest.mark.parametrize("d", [1, 2])
def test_linear_problem_is_one_exact_picard_step(d):
    # with the zero model sigma = 0, so the first Picard step is the
    # exact solve P b: one accepted step, then the exit check, and the
    # field is the dense solve of the assembled system
    spec = {1: dict(nx=6, ny=4, nt=8), 2: dict(nx=4, ny=3, nt=6)}[d]
    g = build_grid(GridSpec(d=d, a=0.5, L=1.0, Y=1.0, T=1.0, **spec))
    U0 = np.random.default_rng(5).standard_normal(g.n_spatial)
    res = solve_linear(g, 0.1, U0)
    assert len(res.stats["damping"]) == 1
    assert res.stats["iterations"] == 2
    system = assemble_linear_system(g, 0.1)
    x = np.linalg.solve(system.A.toarray(), system.rhs(U0))
    assert np.array_equal(res.U[0], U0)
    assert np.max(np.abs(res.U[1:].ravel() - x)) <= 1e-10 * np.max(np.abs(x))


def test_linear_manufactured_weighted_influx():
    # f = 1 on the trace: exact solution U = V(y) + alpha t with
    # alpha = (1+a)/Y^{1+a}, V' = alpha y/(1+a) - y^{-a}.  The trace
    # forcing enters the right-hand side as c_hat D_tr f on the y = 0
    # columns, and the discrete solution is one exact apply of the
    # reaction-free inverse P to it, the one Picard step of the zero model
    a, Y, T = 0.5, 1.0, 1.0
    errs = []
    for nx, ny, nt in ((8, 8, 64), (16, 16, 128)):
        g = grid_small(nx, ny, nt, L=1.0, Y=Y, T=T, a=a)
        alpha = (1 + a) / Y ** (1 + a)
        ym = g.coords()[0]
        V = alpha * ym**2 / (2 * (1 + a)) - ym**(1 - a) / (1 - a)
        V0 = np.broadcast_to(V, g.spatial_shape).ravel()
        eps = 0.02
        system = assemble_linear_system(g, eps)
        b = system.rhs(V0).reshape(g.spec.nt, -1)
        b[:, system.ops.trace_index] += (system.c_hat[:, None]
                                         * system.ops.trace_mass)
        U = np.vstack([V0, space_time_inverse(system)(b).reshape(b.shape)])
        exact = V0[None, :] + alpha * g.t[:, None]
        half = g.spec.nt // 2  # stay clear of the terminal layer
        errs.append(np.max(np.abs(U[:half] - exact[:half])))
    assert errs[0] < 0.12
    assert errs[1] <= 0.65 * errs[0]  # O(h) improvement under refinement


def test_optimality_along_random_variations():
    g = grid_small(10, 6, 40)
    U0 = bump_data(g)
    cfg = WiedConfig(eps=0.1, outer_tol=1e-10)
    res = solve_wied(g, BUMP, cfg, U0)
    G = functional_gradient(g, BUMP, cfg.eps, res.U, U0)
    rng = np.random.default_rng(11)
    tol = res.stats["el_tol_abs"]
    for _ in range(20):
        eta = rng.standard_normal(G.shape)
        eta[0] = 0.0
        pairing = abs(float(np.sum(G * eta)))
        assert pairing <= 10.0 * tol * np.sqrt(np.sum(eta * eta))


def _shipped_config(**grid):
    # the shipped config on another grid, without diagnostics
    import json
    from pathlib import Path
    from wiedlab.config import config_from_dict
    data = json.loads((Path(__file__).resolve().parent.parent / "configs"
                       / "combustion-1d.json").read_text())
    data["grid"].update(grid)
    data["diagnostics"] = []
    return config_from_dict(data)


def test_newton_tolerance_follows_outer_residual():
    # the shipped physics (config, plateau and tolerances of combustion-1d)
    # on a coarse grid: each Newton trace solve is held only to the
    # forcing-term tolerance, within [inner_tol, 0.1], looser than
    # inner_tol on the first Newton step, and the level still meets the
    # full-residual exit test
    cfg = _shipped_config(nx=16, ny=6, nt=80)
    g = build_grid(cfg.grid)
    wcfg = replace(cfg.wied, eps=cfg.schedule.eps0)
    res = solve_wied(g, cfg.model, wcfg, cfg.initial.evaluate(g))
    tols = res.stats["newton_tols"]
    assert len(tols) >= 2
    assert all(wcfg.inner_tol <= t <= 0.1 for t in tols)
    assert tols[0] > wcfg.inner_tol
    assert res.stats["residuals"][-1] <= res.stats["el_tol_abs"]


@pytest.mark.parametrize("d", [1, 2])
def test_step_cost_in_the_eigenbasis(d, monkeypatch):
    # the shipped physics on a small grid, cold and from U0 held in time,
    # with every per-axis transform, Thomas sweep, full_state (its
    # functional_value) and Newton try (its beta_prime_eval) recorded in
    # order.  V' b[0] is one transform, once per level.  The iterate is
    # P (b + E s) + mu e throughout: an anchor (after the entry check,
    # and after a failed check while mu > 0) costs one transform (V' M U)
    # and one sweep, which is also the Picard point, and reads pe in the
    # modes with no transform of the residual; any other Picard point
    # costs one sweep, a Newton try exactly its GMRES iterations and no
    # transform, a damped step nothing, and a full check one sweep, one
    # transform back and one full_state
    from wiedlab import wied
    from wiedlab.assembly import assemble_linear_system, space_time_inverse
    # without diagnostics, whose cylinders are d = 1 points
    cfg = _shipped_config(d=d, **{1: dict(nx=16, ny=6, nt=80),
                                  2: dict(nx=6, ny=4, nt=24)}[d])
    g = build_grid(cfg.grid)
    wcfg = replace(cfg.wied, eps=cfg.schedule.eps0)
    system = assemble_linear_system(g, wcfg.eps)
    inv = space_time_inverse(system, cfg.model.lipschitz)
    events = []

    def record(name, fn):
        def wrapped(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(inv.basis, "to_modes",
                        record("to", inv.basis.to_modes))
    monkeypatch.setattr(inv.basis, "from_modes",
                        record("from", inv.basis.from_modes))
    monkeypatch.setattr(inv, "solve_modes", record("sweep", inv.solve_modes))
    monkeypatch.setattr(wied, "functional_value",
                        record("full", wied.functional_value))
    monkeypatch.setattr(wied, "beta_prime_eval",
                        record("newton", wied.beta_prime_eval))
    U0 = cfg.initial.evaluate(g)
    held = np.repeat(U0[None, :], g.spec.nt + 1, axis=0)
    for start in (None, Level(None, held)):
        events.clear()
        st = solve_wied(g, cfg.model, wcfg, U0, system=system,
                        start=start).stats
        _replay_step_costs(events, st, warm=start is not None)


def _replay_step_costs(events, st, warm):
    # replays the cost model of test_step_cost_in_the_eigenbasis on the
    # recorded events of one level with stats st
    pos = 0

    def take(expected):
        nonlocal pos
        assert events[pos:pos + len(expected)] == expected, pos
        pos += len(expected)

    inner = iter(st["inner_iterations"])
    take(["full", "to"])                    # the entry check, V' b[0]
    checked = mu = True                     # mu: the iterate has mu > 0
    tries = {False: 0, True: 0}
    for kind, lam in zip(st["steps"], st["damping"]):
        # an anchor, whose sweep is the Picard point, or the Picard point
        take(["to", "sweep"] if checked and mu else ["sweep"])
        checked = False
        if events[pos:pos + 1] == ["newton"]:
            tries[mu] += 1
            take(["newton"] + ["sweep"] * next(inner))
        if kind == "picard":
            assert next(inner) == 0
        mu = mu and lam < 1.0               # a damped step costs nothing
        check = ["sweep", "from", "full"]
        if events[pos:pos + len(check)] == check:
            take(check)
            checked = True
    assert pos == len(events) and next(inner, None) is None
    assert st["sweeps"] == events.count("sweep")
    assert tries[False] >= 2 and set(st["steps"]) == {"picard", "newton"}
    assert (tries[True] >= 1) == warm
    assert events.count("full") >= 2    # entry and exit
    assert st["residuals"][-1] <= st["el_tol_abs"]


def test_failed_check_while_mu_is_positive_anchors_again(monkeypatch):
    # a full check that fails while mu > 0 (every step since the last
    # anchor damped) anchors again: s becomes the Picard source of the
    # checked field and e its deviation, with one transform (V' M U).
    # U0 held in time at twice its height on a d = 2 grid takes a damped
    # Newton step first, and the loose tolerance is met by that step, so
    # the first check after entry follows it with mu > 0;
    # LinearSystem.residual, wrapped, makes that check report twice the
    # tolerance, once.  The level anchors again, goes on and converges,
    # and the field it returns passes the unwrapped residual
    from wiedlab.assembly import AxisEigenbasis, LinearSystem
    g = build_grid(GridSpec(d=2, a=0.5, L=1.0, Y=1.0, T=1.0,
                            nx=6, ny=4, nt=24))
    U0 = g.eval_spatial(lambda *xy: np.clip(
        1 - sum(v**2 for v in xy) / 0.36, 0, None)**2).ravel()
    doubled = Level(None, np.repeat(2.0 * U0[None, :], g.spec.nt + 1,
                                    axis=0))
    system = assemble_linear_system(g, 0.1)
    cfg = WiedConfig(eps=0.1, outer_tol=3.2)
    calls = {"residual": 0, "to_modes": 0}
    residual, to_modes = LinearSystem.residual, AxisEigenbasis.to_modes

    def counted(self, *args, **kwargs):
        calls["to_modes"] += 1
        return to_modes(self, *args, **kwargs)

    monkeypatch.setattr(AxisEigenbasis, "to_modes", counted)
    plain = solve_wied(g, BUMP, cfg, U0, start=doubled, system=system)
    assert plain.stats["steps"] == ["newton"]
    assert plain.stats["damping"][0] < 1.0
    assert calls["to_modes"] == 2           # V' b[0] and the entry anchor
    tol = plain.stats["el_tol_abs"]

    def fails_once(self, *args, **kwargs):
        Sm, r = residual(self, *args, **kwargs)
        calls["residual"] += 1
        if calls["residual"] == 2:          # the first check after entry
            r *= 2.0 * tol / np.linalg.norm(r)
        return Sm, r

    monkeypatch.setattr(LinearSystem, "residual", fails_once)
    calls["to_modes"] = 0
    level = solve_wied(g, BUMP, cfg, U0, start=doubled, system=system)
    assert calls["to_modes"] == 3           # a second anchor
    assert calls["residual"] >= 3
    assert level.stats["residuals"][1] == pytest.approx(2.0 * tol)
    assert level.el_residual <= level.stats["el_tol_abs"] == tol
    assert np.linalg.norm(residual(system, BUMP, level.U, U0)[1]) <= tol


@pytest.mark.parametrize("start", ["cold", "warm"])
@pytest.mark.parametrize("d", [1, 2])
def test_anchor_pairing_read_in_the_modes(d, start, monkeypatch):
    # an anchor reads pe = <W r_off, e> in the modes, as <W Tm eh, eh> -
    # <W rtr_a, e_tr> with eh = V' M e, since A_sigma e is the residual of
    # the checked field.  Each anchor's pe must match <W V' r_off, V' M e>,
    # formed here from the field of the check before it: r_off its
    # residual off the trace, and e = U - P (b + E s) with s its Picard
    # source.  The shipped physics on small grids, cold (U0 held in time)
    # and warm (from the parabolic reference, as a sweep starts)
    from wiedlab.assembly import LinearSystem, exp_time_weights
    from wiedlab.combustion import beta_eval
    cfg = _shipped_config(d=d, **{1: dict(nx=16, ny=6, nt=80),
                                  2: dict(nx=6, ny=4, nt=24)}[d])
    g = build_grid(cfg.grid)
    wcfg = replace(cfg.wied, eps=cfg.schedule.eps0)
    model = cfg.model
    system = assemble_linear_system(g, wcfg.eps)
    ops = system.ops
    inv = space_time_inverse(system, model.lipschitz)
    fields, anchors = [], []
    check, anchor_pe = LinearSystem.check, wied._anchor_pe

    def recorded_check(self, model, U, *args, **kwargs):
        fields.append(np.array(U, dtype=float))
        return check(self, model, U, *args, **kwargs)

    def recorded_pe(*args):
        pe = anchor_pe(*args)
        anchors.append((fields[-1], pe))
        return pe

    monkeypatch.setattr(LinearSystem, "check", recorded_check)
    monkeypatch.setattr(wied, "_anchor_pe", recorded_pe)
    U0 = cfg.initial.evaluate(g)
    solve_wied(g, model, wcfg, U0, system=system, start=Level(
        None, solve_parabolic(g, model, U0, ops=ops))
        if start == "warm" else None)
    assert anchors
    tr, basis = ops.trace_index, inv.basis
    wgt = exp_time_weights(g.t, wcfg.eps)
    ctm = system.c_hat[:, None] * ops.trace_mass
    bh = basis.to_modes(system.initial_row(U0))
    for U, pe in anchors:
        r_off = system.residual(model, U, U0)[1]
        r_off[:, tr] = 0.0
        u_tr = U[1:, tr]
        s = ctm * (model.lipschitz * u_tr - beta_eval(model, u_tr))
        eh = basis.to_modes(ops.mass * U[1:]) - inv.trace_solve(s, bh)
        ref = float(np.sum(wgt * np.einsum("ns,ns->n",
                                           basis.to_modes(r_off), eh)))
        assert pe == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("start", ["cold", "held"])
@pytest.mark.parametrize("grid, eps", [
    (dict(nx=16, ny=6, nt=80), 0.05),
    # Picard contracts slowly here after the first damped try, so waiting
    # for NEWTON_REARM alone would keep Newton off past OUTER_MAXIT
    (dict(d=2, nx=4, ny=5, nt=12), 0.02)])
def test_failed_newton_try_rearms_picard(grid, eps, start):
    # the shipped physics from U0 held in time on coarse grids.  Passed as
    # a start ("held") Newton is tried from the first iteration, and tries
    # are rejected or damped; without a start ("cold") the level first
    # takes Picard steps down to NEWTON_REARM of its start residual.
    # Replaying the rule on the residual history: after the k-th failed
    # try in a row, every step is Picard, with no Newton try, until the
    # residual is at most NEWTON_REARM of its value at that try or 2^k
    # Picard steps have run; no try spends more than the GMRES budget,
    # and the level converges
    from wiedlab.wied import INNER_MAXIT, NEWTON_REARM
    cfg = _shipped_config(**grid)
    g = build_grid(cfg.grid)
    wcfg = replace(cfg.wied, eps=eps)
    U0 = cfg.initial.evaluate(g)
    held = np.repeat(U0[None, :], g.spec.nt + 1, axis=0)
    st = solve_wied(g, cfg.model, wcfg, U0,
                    start=Level(None, held) if start == "held" else None
                    ).stats
    inner = st["inner_iterations"]
    assert max(inner) <= INNER_MAXIT
    failed_at = st["residuals"][0] if start == "cold" else None
    failures = waited = tries = failed = waits = 0
    trials = []
    for res, kind, lam in zip(st["residuals"], st["steps"], st["damping"]):
        if (failed_at is not None and res > NEWTON_REARM * failed_at
                and not (failures and waited >= 2**failures)):
            assert kind == "picard"
            waits += 1
            waited += 1
            trials.append("picard")
            continue
        tries += 1
        if kind == "newton" and lam == 1.0:
            failed_at, failures = None, 0
        else:
            failed_at, failures, waited = res, failures + 1, 0
            failed += 1
        trials += ["newton"] if kind == "newton" else ["newton", "picard"]
    assert tries == len(st["newton_tols"])
    assert len(trials) == len(inner)
    assert all(n == 0 for t, n in zip(trials, inner) if t == "picard")
    if start == "held":
        assert trials[0] == "newton" and inner[0] > 0
        assert failed >= 1
    else:
        assert trials[0] == "picard"
    assert waits >= 2
    assert st["residuals"][-1] <= st["el_tol_abs"]


def test_sweep_runs_one_stencil_pass_per_full_check(monkeypatch):
    # no level keeps a stiffness product: each full check, the entry
    # check included, is one LinearSystem.check, whose residual pass
    # forms the products a block of layers at a time for its residual
    # and its functional, and every product is formed in such a pass.  A
    # swept level is therefore the level solved alone from the same
    # field, bit for bit and pass for pass
    from wiedlab.assembly import KroneckerStencil, LinearSystem
    g = grid_small(8, 6, 40, T=2.0)
    U0 = bump_data(g)
    cfg = WiedConfig(eps=0.1, outer_tol=1e-9)
    ref = solve_parabolic(g, BUMP, U0)
    calls = {"pass": 0, "check": 0, "blocks": 0}

    def counted(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(LinearSystem, "residual",
                        counted("pass", LinearSystem.residual))
    monkeypatch.setattr(LinearSystem, "check",
                        counted("check", LinearSystem.check))
    monkeypatch.setattr(KroneckerStencil, "blocks",
                        counted("blocks", KroneckerStencil.blocks))
    levels = sweep_epsilon(g, BUMP, EpsilonSchedule(0.1, 0.5, 3), U0,
                           cfg=cfg, reference=ref)
    swept = dict(calls)
    assert swept["blocks"] == swept["pass"] == swept["check"] >= len(levels)
    calls.update({k: 0 for k in calls})
    start = ref
    for lv in levels:
        alone = solve_wied(g, BUMP, replace(cfg, eps=lv.eps), U0,
                           start=Level(None, start))
        assert np.array_equal(alone.U, lv.U)
        assert alone.stats["residuals"] == lv.stats["residuals"]
        start = lv.U
    assert calls == swept
    assert not hasattr(alone, "KU")


def test_sweep_without_dumps_keeps_every_field():
    # no level can be read back, so no start is given up: every level
    # keeps its own field, the reference passed in is left as it was,
    # and each distance is that of the fields held
    g = grid_small(8, 6, 40, T=2.0)
    U0 = bump_data(g)
    ref = solve_parabolic(g, BUMP, U0)
    kept = ref.copy()
    levels = sweep_epsilon(g, BUMP, EpsilonSchedule(0.1, 0.5, 3), U0,
                           cfg=WiedConfig(eps=0.1, outer_tol=1e-9),
                           reference=ref)
    assert [lv.eps for lv in levels] == [0.1, 0.05, 0.025]
    for i, lv in enumerate(levels):
        assert lv.load is None and lv.U.shape == (g.spec.nt + 1, g.n_spatial)
        assert not np.shares_memory(lv.U, ref)
        assert not any(np.shares_memory(lv.U, other.U)
                       for other in levels[:i])
        assert lv.dist_to_ref == dist_C_L2a(g, lv.U, ref)
    assert np.array_equal(ref.view(np.int64), kept.view(np.int64))
    levels[0].release()
    with pytest.raises(ValueError, match="no dump to read back"):
        levels[0].read()


def test_start_on_disk_gives_its_array_to_the_level():
    # a start with a load is solved in place and released, and the level
    # is bit for bit the one solved from a copy of the same start; a
    # released start is read back first
    g = grid_small(8, 6, 40, T=2.0)
    U0 = bump_data(g)
    ref = solve_parabolic(g, BUMP, U0)
    cfg = WiedConfig(eps=0.05, outer_tol=1e-9)
    copied = solve_wied(g, BUMP, cfg, U0, start=Level(None, ref))
    arr = ref.copy()
    start = Level(None, arr, load=ref.copy)
    level = solve_wied(g, BUMP, cfg, U0, start=start)
    assert start.U is None and np.shares_memory(level.U, arr)
    assert np.array_equal(level.U.view(np.int64), copied.U.view(np.int64))
    start = Level(None, None, load=ref.copy)
    level = solve_wied(g, BUMP, cfg, U0, start=start)
    assert start.U is None
    assert np.array_equal(level.U.view(np.int64), copied.U.view(np.int64))


def test_schedule_validation():
    sched = EpsilonSchedule(0.2, 0.5, 3)
    assert sched.values() == [0.2, 0.1, 0.05]
    with pytest.raises(ValueError):
        EpsilonSchedule(1.2, 0.5, 2)
    # a ratio out of (0, 1) is rejected where a schedule enters the program
    from wiedlab.config import ConfigError, config_from_dict
    with pytest.raises(ConfigError, match="schedule 'ratio' must be"):
        config_from_dict({"grid": {"d": 1, "a": 0.5, "L": 1.0, "Y": 1.0,
                                   "T": 8.0, "nx": 4, "ny": 4, "nt": 4},
                          "schedule": {"eps0": 0.2, "ratio": 1.1,
                                       "count": 2}})


def test_sweep_single_level_report():
    g = grid_small(8, 6, 40, T=2.0)
    levels = sweep_epsilon(g, ZERO_MODEL, EpsilonSchedule(0.1, 0.5, 1),
                           bump_data(g),
                           cfg=WiedConfig(eps=0.1, outer_tol=1e-9))
    assert [lv.eps for lv in levels] == [0.1]
    lv = levels[0]
    assert lv.iterations >= 1 and lv.el_residual <= lv.stats["el_tol_abs"]
    assert np.isfinite(lv.dist_to_ref)


def test_sweep_eps0_horizon_guard():
    g = grid_small(8, 6, 20, T=1.0)
    with pytest.raises(ValueError, match="T/20"):
        sweep_epsilon(g, ZERO_MODEL, EpsilonSchedule(0.2, 0.5, 2),
                      bump_data(g))


def test_sweep_combustion_bounds_and_monotone_distance():
    g = grid_small(16, 8, 160, T=2.0)
    levels = sweep_epsilon(g, BUMP, EpsilonSchedule(0.1, 0.5, 3),
                           bump_data(g),
                           cfg=WiedConfig(eps=0.1, outer_tol=1e-9))
    for lv in levels:
        assert lv.U.min() >= -1e-8 and lv.U.max() <= 1.0 + 1e-8
    d = [lv.dist_to_ref for lv in levels]
    assert all(b < a for a, b in zip(d, d[1:])) and d[-1] < d[0]


def test_dt_energy_bounded_across_schedule():
    # numerical shadow of the uniform inertia bound: the time-derivative
    # energy stays within one constant across levels
    g = grid_small(12, 6, 120, T=2.0)
    levels = sweep_epsilon(g, BUMP, EpsilonSchedule(0.1, 0.5, 3),
                           bump_data(g),
                           cfg=WiedConfig(eps=0.1, outer_tol=1e-9))
    vals = []
    for lv in levels:
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
