import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wiedlab import diagnostics as dg
from wiedlab.combustion import ZERO_MODEL, CombustionModel, validate_model
from wiedlab.grid import Cylinder, GridError, GridSpec, build_grid, \
    weighted_measure
from wiedlab.wied import WiedConfig, solve_wied

from test_grid import axis_conditions, box_cases, outer_and

BUMP = validate_model(CombustionModel())


@pytest.fixture(scope="module")
def solved():
    g = build_grid(GridSpec(d=1, a=0.5, L=1.4, Y=1.25, T=2.0,
                            nx=16, ny=8, nt=100))
    U0 = g.eval_spatial(
        lambda x, y: np.clip(1 - (x**2 + y**2) / 0.36, 0, None)**2).ravel()
    res = solve_wied(g, BUMP, WiedConfig(eps=0.1, outer_tol=1e-9), U0)
    return g, res


def test_energy_zero_for_constants():
    g = build_grid(GridSpec(d=1, a=0.5, L=1.0, Y=1.0, T=1.0,
                            nx=6, ny=5, nt=10))
    U = np.full(g.spacetime_shape, 0.4)
    rep = dg.energy_decomposition(g, ZERO_MODEL, 0.1, U)
    assert np.all(rep.inertia == 0.0)
    assert np.max(np.abs(rep.dissipation)) < 1e-15
    assert np.max(np.abs(rep.energy)) < 1e-15


def test_energy_identity_at_converged_solution(solved):
    g, res = solved
    rep = dg.energy_decomposition(g, BUMP, 0.1, res.U)
    assert rep.identity_l1 <= 10.0 * res.stats["el_tol_abs"]
    assert rep.e_monotone_defect <= 1e-10 * rep.energy[0]


def test_energy_reuses_the_level_exit_check(solved, monkeypatch,
                                            tmp_path):
    # the Level solve_wied returns goes to the registry as it is, and its
    # passing exit check (residual and layer sums) serves its energy
    # report: the registry's energy forms no stiffness product and no
    # residual, and the report has the bits of one computed from the
    # stored field alone
    from wiedlab import registry
    from wiedlab.assembly import KroneckerStencil, build_operators
    from wiedlab.runner import dump_field, load_field
    g, res = solved
    ops = build_operators(g)
    dump_field(tmp_path / "f.f64", g, res.U, {"eps": 0.1})
    ref = dg.energy_decomposition(g, BUMP, 0.1,
                                  load_field(tmp_path / "f.f64")[1], ops=ops)
    products = []
    blocks = KroneckerStencil.blocks

    def counted(self, X, out=None):
        products.append(1)
        return blocks(self, X, out)

    monkeypatch.setattr(KroneckerStencil, "blocks", counted)
    monkeypatch.setattr(dg, "assemble_linear_system", None)
    assert res.check is not None
    ctx = registry.Context(g, BUMP, (4.0, 4.0), ops)
    rep = ctx.energy(res)
    assert products == []
    assert rep.rows() == ref.rows()
    for name in ("inertia", "dissipation", "energy", "identity_l1",
                 "e_monotone_defect", "dt_energy_total", "windowed"):
        assert np.array_equal(getattr(rep, name), getattr(ref, name)), name


def test_energy_tail_monotone_and_E0_bounded(solved):
    g, res = solved
    rep = dg.energy_decomposition(g, BUMP, 0.1, res.U)
    assert np.all(np.diff(rep.energy) <= 1e-12)
    # level estimate: E(0) = J(V) <= J at the static competitor = C eps
    from wiedlab.assembly import functional_value
    U0 = res.U[0]
    ext = np.repeat(U0[None, :], g.spec.nt + 1, axis=0)
    static = 2.0 * 0.1 * functional_value(g, BUMP, 0.1, ext, U0)
    assert rep.energy[0] <= static * (1 + 1e-10)


def test_energy_discrete_derivative_relation():
    # E' = E - I - R holds identically for the tail-sum construction
    g = build_grid(GridSpec(d=1, a=0.3, L=1.0, Y=1.0, T=1.0,
                            nx=5, ny=4, nt=40))
    rng = np.random.default_rng(0)
    U = rng.random(g.spacetime_shape)
    eps = 0.14
    rep = dg.energy_decomposition(g, BUMP, eps, U)
    dtau = g.dt / eps
    q = np.exp(-dtau)
    tot = rep.inertia + rep.dissipation
    lhs = np.diff(rep.energy) / dtau
    rhs = ((1 - q) / (q * dtau)) * (rep.energy[:-1] - tot[:-1])
    scale = np.max(np.abs(rep.energy)) / dtau
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_energy_tail_sum_matches_closed_form():
    # manufactured I + R = exp(-tau): E(tau) = exp(-tau)/2 exactly
    g = build_grid(GridSpec(d=1, a=0.0, L=1.0, Y=1.0, T=1.0,
                            nx=2, ny=2, nt=400, grading=1.0))
    eps = 1.0 / 40.0  # tau range (0, 40): tail negligible
    dtau = g.dt / eps
    tau = g.t[:-1] / eps
    tot = np.exp(-tau)
    q = np.exp(-dtau)
    energy = np.empty(tot.shape)
    acc = 0.0
    for n in range(tot.shape[0] - 1, -1, -1):
        acc = (1 - q) * tot[n] + q * acc
        energy[n] = acc
    exact = np.exp(-tau) / 2.0
    err = np.max(np.abs(energy - exact)[tau < 20])
    assert err <= 0.6 * dtau  # first order in the cell size


def test_uniform_bounds_zero_data_trivially_uniform():
    g = build_grid(GridSpec(d=1, a=0.5, L=1.0, Y=1.0, T=1.0,
                            nx=5, ny=4, nt=20))
    U = np.full(g.spacetime_shape, 0.9)
    reps = [dg.energy_decomposition(g, ZERO_MODEL, e, U)
            for e in (0.05, 0.025)]
    ub = dg.uniform_bounds_report(reps)
    assert ub["uniform"]


def test_uniform_bounds_flags_pathological_family():
    # injected non-minimizer with time-derivative mass ~ 1/eps
    g = build_grid(GridSpec(d=1, a=0.5, L=1.0, Y=1.0, T=1.0,
                            nx=5, ny=4, nt=200))
    reps = []
    for eps in (0.1, 0.0125):
        U = np.broadcast_to(np.sin(g.t / eps)[:, None, None],
                            g.spacetime_shape) * 0.5
        reps.append(dg.energy_decomposition(g, ZERO_MODEL, eps, np.array(U)))
    ub = dg.uniform_bounds_report(reps)
    assert not ub["uniform"]
    assert ub["dt_energy_spread"] > 4.0


def test_no_spikes_constant_half():
    g = build_grid(GridSpec(d=1, a=0.5, L=1.6, Y=1.1, T=3.0,
                            nx=8, ny=6, nt=30))
    cyl = Cylinder((0.0, 0.0, 1.5), 1.0)
    U = np.full(g.spacetime_shape, 0.5)
    rep = dg.no_spikes_iteration(g, U, cyl)
    assert np.all(rep.energies[1:] == 0.0)
    assert rep.energies[0] > 0.0


def test_no_spikes_constant_one_closed_form():
    g = build_grid(GridSpec(d=1, a=0.5, L=1.6, Y=1.1, T=3.0,
                            nx=8, ny=6, nt=30))
    cyl = Cylinder((0.0, 0.0, 1.5), 1.0)
    U = np.ones(g.spacetime_shape)
    rep = dg.no_spikes_iteration(g, U, cyl)
    for j in (0, 3, 7, 12):
        sub = Cylinder(cyl.center, rep.radii[j])
        vol = weighted_measure(g, np.ones(g.spacetime_shape, bool),
                               region=sub)
        assert rep.energies[j] == pytest.approx(4.0**(-j) * vol, rel=1e-12)
    assert not rep.converged
    assert rep.sup_flag


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_no_spikes_energies_nonincreasing(seed):
    g = build_grid(GridSpec(d=1, a=0.4, L=1.6, Y=1.1, T=3.0,
                            nx=6, ny=4, nt=12))
    rng = np.random.default_rng(seed)
    U = 2.0 * rng.random(g.spacetime_shape) - 0.5
    rep = dg.no_spikes_iteration(g, U, Cylinder((0.0, 0.0, 1.5), 1.0))
    assert np.all(np.diff(rep.energies) <= 1e-15)


def test_level_set_constants():
    g = build_grid(GridSpec(d=1, a=0.5, L=1.6, Y=1.1, T=3.0,
                            nx=8, ny=6, nt=30))
    cyl = Cylinder((0.0, 0.0, 1.5), 1.0)
    quarter = dg.level_set_measures(g, np.full(g.spacetime_shape, 0.25), cyl)
    assert quarter.measures["D"] == pytest.approx(quarter.measures["total"])
    assert quarter.measures["A"] == 0.0 and quarter.measures["C"] == 0.0
    neg = dg.level_set_measures(g, np.full(g.spacetime_shape, -1.0), cyl)
    assert neg.measures["C"] == pytest.approx(neg.measures["total"])


def test_level_set_partition_exact_random():
    g = build_grid(GridSpec(d=1, a=0.5, L=1.6, Y=1.1, T=3.0,
                            nx=8, ny=6, nt=30))
    cyl = Cylinder((0.2, 0.0, 1.5), 0.9)
    rng = np.random.default_rng(1)
    U = 1.5 * rng.random(g.spacetime_shape) - 0.25
    rep = dg.level_set_measures(g, U, cyl)
    s = rep.measures["A"] + rep.measures["C"] + rep.measures["D"]
    assert s == pytest.approx(rep.measures["total"], abs=1e-14)


def test_level_set_slab_geometry_hand_oracle():
    # U = y with a = 0: classes are y-slabs; dual-cell hand count
    g = build_grid(GridSpec(d=1, a=0.0, L=1.0, Y=1.0, T=2.0,
                            nx=8, ny=8, nt=16, grading=1.0))
    cyl = Cylinder((0.0, 0.0, 1.0), 1.0)
    U = np.broadcast_to(g.coords()[0], g.spatial_shape)
    U = np.broadcast_to(U[None], g.spacetime_shape)
    rep = dg.level_set_measures(g, np.array(U), cyl)
    xt = 2.0 * 2.0  # x-extent * t-extent inside the cylinder
    expect_A = g.yvol[g.y >= 0.5].sum() * xt
    expect_D = g.yvol[(g.y > 0.0) & (g.y < 0.5)].sum() * xt
    assert rep.measures["A"] == pytest.approx(expect_A, rel=1e-12)
    assert rep.measures["C"] == pytest.approx(
        g.yvol[0] * xt, rel=1e-12)  # only the y = 0 node
    assert rep.measures["D"] == pytest.approx(expect_D, rel=1e-12)


def masked_grad_energy(g, U, mask):
    """Edge sums of |y|^a |grad U|^2 over the edges whose two endpoints
    are flagged in a full-size spatial mask."""
    d = g.d
    dy = np.diff(U, axis=0)
    coef = np.multiply.outer(g.face_trans_y,
                             g.xmass.reshape(g.spatial_shape[1:]))
    total = np.sum(coef * dy * dy * (mask[1:] & mask[:-1]))
    for k in range(d):
        ax = 1 + k
        dx = np.diff(U, axis=ax)
        coef = g.yvol.reshape((-1,) + (1,) * d) / g.hx
        if d == 2:
            coef = coef * g.xvol.reshape((1, -1, 1) if k else (1, 1, -1))
        both = np.delete(mask, -1, axis=ax) & np.delete(mask, 0, axis=ax)
        total += np.sum(coef * dx * dx * both)
    return total


@pytest.mark.parametrize("d", [1, 2])
def test_cylinder_diagnostics_match_masked_reference(d):
    g = build_grid(GridSpec(d=d, a=0.3, L=1.0, Y=1.0, T=1.0,
                            nx=10, ny=7, nt=16))
    rng = np.random.default_rng(20 + d)
    nm = g.node_mass.reshape(g.spatial_shape)
    wst = g.tvol.reshape((-1,) + (1,) * (d + 1)) * nm
    U = 1.5 * rng.random(g.spacetime_shape) - 0.25
    S = U[5]
    for cyl in box_cases(g, d):
        conds = axis_conditions(g, cyl)
        ms = outer_and(conds[1:])
        # the isoperimetric and embedding slices need not fit in time
        assert dg.isoperimetric_check(
            g, S, 1.5, center=cyl.center[:-1], radius=cyl.radius
        )["gradient_energy"] == pytest.approx(
            masked_grad_energy(g, S, ms), rel=1e-13, abs=0.0)
        if not cyl.fits(g):
            continue
        m = outer_and(conds)
        rep = dg.level_set_measures(g, U, cyl)
        ref = {"A": U >= 0.5, "C": U <= 0.0, "D": (U > 0.0) & (U < 0.5),
               "total": np.ones(U.shape, dtype=bool)}
        for key, flags in ref.items():
            assert rep.measures[key] == pytest.approx(
                np.sum(wst * flags * m), rel=1e-13, abs=0.0)
        rep = dg.no_spikes_iteration(g, 1.5 * U, cyl, jmax=4)
        for j in range(5):
            mj = outer_and(axis_conditions(
                g, Cylinder(cyl.center, rep.radii[j] * cyl.radius)))
            V = np.clip(1.5 * U - rep.levels[j], 0.0, None)
            assert rep.energies[j] == pytest.approx(
                np.sum(wst * V * V * mj), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("d", [1, 2])
def test_embedding_matches_masked_reference(d):
    g = build_grid(GridSpec(d=d, a=0.3, L=1.0, Y=1.0, T=1.0,
                            nx=10, ny=7, nt=2))
    U = np.random.default_rng(d).standard_normal(g.spatial_shape)
    nm = g.node_mass.reshape(g.spatial_shape)
    a, sig = g.a, dg.sobolev_exponent(d, g.a)
    for radius in (0.05, 0.3, 2 * g.hx, 0.75, 1.0):
        ms = outer_and(axis_conditions(
            g, Cylinder((0.0,) * d + (0.0, 0.0), radius))[1:])
        tr = np.sum(g.xmass.reshape(U.shape[1:]) * ms[0] * U[0] * U[0])
        l2 = np.sum(nm * ms * U * U)
        ge = masked_grad_energy(g, U, ms)
        lhs = np.sum(nm * ms * np.abs(U) ** (2 * sig)) ** (1 / sig)
        rep = dg.embedding_ratio_check(g, U, radius=radius)
        trace_rhs = 2.0 ** ((1 + a) / 2) * l2 + 2.0 ** (-(1 - a) / 2) * ge
        assert rep["trace_ratio"] == pytest.approx(
            tr / trace_rhs, rel=1e-13, abs=0.0)
        assert rep["sobolev_ratio"] == pytest.approx(
            lhs / (l2 / radius**2 + ge), rel=1e-13, abs=0.0)


def test_isoperimetric_trivial_cases():
    g = build_grid(GridSpec(d=1, a=0.5, L=1.2, Y=1.2, T=1.0,
                            nx=12, ny=8, nt=2))
    r = dg.isoperimetric_check(g, np.full(g.spatial_shape, 0.25), 1.5)
    assert r["lhs"] == 0.0
    low = g.eval_spatial(lambda x, y: 0.2 + 0.2 * x)  # never reaches 1/2
    r2 = dg.isoperimetric_check(g, low, 1.5)
    assert r2["lhs"] == 0.0
    with pytest.raises(ValueError):
        dg.isoperimetric_check(g, low, 2.5)


def test_isoperimetric_ramp_both_sides_positive():
    g = build_grid(GridSpec(d=1, a=0.5, L=1.2, Y=1.2, T=1.0,
                            nx=24, ny=12, nt=2))
    ramp = g.eval_spatial(lambda x, y: 0.25 + 0.6 * x)
    r = dg.isoperimetric_check(g, ramp, 1.5)
    assert r["lhs"] > 0 and r["rhs_factor"] > 0
    assert np.isfinite(r["ratio"]) and r["gradient_energy"] > 0


def test_oscillation_constant_field():
    g = build_grid(GridSpec(d=1, a=0.5, L=1.6, Y=1.1, T=3.0,
                            nx=8, ny=6, nt=48))
    rep = dg.oscillation_table(g, np.full(g.spacetime_shape, 2.0),
                               (0.0, 0.0, 1.5), 3)
    assert all(row["osc"] == 0.0 for row in rep.table)
    fit = dg.fit_holder(rep)
    assert fit.exact_constant


def test_oscillation_linear_field_exact_table():
    g = build_grid(GridSpec(d=1, a=0.0, L=1.5, Y=1.1, T=3.0,
                            nx=96, ny=4, nt=48, grading=1.0))
    ym, xm = g.coords()
    U = np.broadcast_to(xm, g.spatial_shape)
    U = np.array(np.broadcast_to(U[None], g.spacetime_shape))
    rep = dg.oscillation_table(g, U, (0.0, 0.0, 1.5), 3)
    oscs = [row["osc"] for row in rep.table]
    assert oscs == pytest.approx([2.0, 0.5, 0.125], rel=1e-12)
    fit = dg.fit_holder(rep)
    assert fit.alpha == pytest.approx(1.0, abs=1e-12)
    assert fit.fit_residual == pytest.approx(0.0, abs=1e-12)
    assert fit.in_range


def test_oscillation_nonincreasing_random():
    g = build_grid(GridSpec(d=1, a=0.5, L=1.6, Y=1.1, T=3.0,
                            nx=16, ny=6, nt=48))
    rng = np.random.default_rng(4)
    U = rng.random(g.spacetime_shape)
    rep = dg.oscillation_table(g, U, (0.0, 0.0, 1.5), 3)
    oscs = [row["osc"] for row in rep.table]
    assert all(b <= a for a, b in zip(oscs, oscs[1:]))


def test_oscillation_center_depth_guard():
    g = build_grid(GridSpec(d=1, a=0.5, L=1.2, Y=1.1, T=3.0,
                            nx=8, ny=6, nt=48))
    with pytest.raises(GridError, match="too close"):
        dg.oscillation_table(g, np.zeros(g.spacetime_shape),
                             (0.5, 0.0, 1.5), 3)


def test_fit_holder_synthetic():
    table = [{"n": n, "radius": 4.0**(-n + 1), "osc": 4.0**(-n)}
             for n in (1, 2, 3, 4)]
    fit = dg.fit_holder(table)
    assert fit.alpha == pytest.approx(1.0, abs=1e-12)
    assert fit.constant == pytest.approx(1.0, rel=1e-12)
    table2 = [{"n": n, "radius": 4.0**(-n + 1), "osc": 3.0 * 4.0**(-0.5 * n)}
              for n in (1, 2, 3)]
    fit2 = dg.fit_holder(table2)
    assert fit2.alpha == pytest.approx(0.5, abs=1e-12)
    assert fit2.constant == pytest.approx(3.0, rel=1e-10)


def test_fit_holder_noisy_recovery():
    rng = np.random.default_rng(12)
    table = [{"n": n, "radius": 4.0**(-n + 1),
              "osc": 4.0**(-0.6 * n) * (1 + 0.05 * (2 * rng.random() - 1))}
             for n in (1, 2, 3, 4, 5)]
    fit = dg.fit_holder(table)
    assert abs(fit.alpha - 0.6) <= 0.05


def test_embedding_exponent_formulas():
    assert dg.parabolic_sobolev_exponent(2, 0.0) == pytest.approx(5.0 / 3.0)
    assert dg.trace_exponent(2, 0.0) == pytest.approx(2.0)
    sig = dg.sobolev_exponent(2, 0.0)
    assert dg.parabolic_sobolev_exponent(2, 0.0) == pytest.approx(
        (2 * sig - 1) / sig)


def test_embedding_applicability_and_constant_slice():
    g_bad = build_grid(GridSpec(d=1, a=-0.5, L=1.2, Y=1.2, T=1.0,
                                nx=8, ny=6, nt=2))
    r = dg.embedding_ratio_check(g_bad, np.ones(g_bad.spatial_shape))
    assert r["applicable"] is False
    g = build_grid(GridSpec(d=1, a=0.5, L=1.2, Y=1.2, T=1.0,
                            nx=8, ny=6, nt=2))
    r2 = dg.embedding_ratio_check(g, np.full(g.spatial_shape, 0.7))
    assert r2["applicable"] and np.isfinite(r2["trace_ratio"])
    assert r2["trace_ratio"] > 0 and np.isfinite(r2["sobolev_ratio"])


def test_cauchy_increments(solved):
    g, res = solved
    fields = [res.U, res.U * 0.5, res.U * 0.25]
    inc = dg.sweep_cauchy_increments(g, fields)
    assert len(inc) == 2 and all(v >= 0 for v in inc)
