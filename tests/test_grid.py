import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from wiedlab.config import ConfigError, config_from_dict, walk
from wiedlab.grid import (Cylinder, GridError, GridSpec, build_grid,
                          default_grading, weighted_measure, weighted_norm)
from wiedlab.runner import dump_field, load_field


def test_unweighted_uniform_cell_masses():
    g = build_grid(GridSpec(d=1, a=0.0, L=1.0, Y=1.0, T=1.0,
                            nx=4, ny=4, nt=4, grading=1.0))
    assert np.allclose(g.cell_mass_y, 0.25, rtol=0, atol=1e-15)


def test_weighted_mass_closed_form():
    # int_0^1 y^{1/2} dy = 2/3, telescoping makes the sum exact
    g = build_grid(GridSpec(d=1, a=0.5, L=1.0, Y=1.0, T=1.0,
                            nx=2, ny=2, nt=2, grading=1.0))
    assert abs(g.cell_mass_y.sum() - 2.0 / 3.0) < 1e-15


def test_weighted_mass_against_quadrature_oracle():
    a = -0.5
    g = build_grid(GridSpec(d=1, a=a, L=1.0, Y=1.0, T=1.0,
                            nx=2, ny=4, nt=2, grading=2.0))
    assert abs(g.cell_mass_y.sum() - 2.0) < 1e-12
    for j in range(4):
        ref, _ = quad(lambda y: y**a, g.y[j], g.y[j + 1])
        assert abs(g.cell_mass_y[j] - ref) < 1e-9


@pytest.mark.parametrize("bad", [
    dict(a=1.5), dict(a=-1.0), dict(a=1.0), dict(nx=1), dict(ny=0),
    dict(L=0.0), dict(T=-1.0), dict(grading=0.5), dict(d=3),
])
def test_spec_rejections(tmp_path, bad):
    # a spec is checked where it enters the program: a config's grid
    # section and a field dump's sidecar
    base = dict(d=1, a=0.5, L=1.0, Y=1.0, T=1.0, nx=4, ny=4, nt=4)
    g = build_grid(GridSpec(**base))
    base.update(bad)
    key, = bad
    with pytest.raises(ConfigError, match=f"grid '{key}' must be"):
        config_from_dict({"grid": base})
    path = tmp_path / "f.f64"
    dump_field(path, g, np.zeros(g.spacetime_shape), {})
    side = json.loads(path.with_suffix(".json").read_text())
    side["gridspec"] = base
    path.with_suffix(".json").write_text(json.dumps(side))
    with pytest.raises(OSError, match=f"gridspec '{key}' must be"):
        load_field(path)


def test_node_placement_exact():
    g = build_grid(GridSpec(d=1, a=0.3, L=2.0, Y=1.5, T=1.0,
                            nx=4, ny=5, nt=4))
    assert g.y[0] == 0.0
    assert g.y[-1] == 1.5
    assert np.all(np.diff(g.y) > 0)
    g2 = build_grid(GridSpec(d=1, a=0.3, L=2.0, Y=1.5, T=1.0,
                             nx=4, ny=5, nt=4))
    assert np.array_equal(g.y, g2.y) and np.array_equal(g.x, g2.x)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(-0.9, 0.9), ny=st.integers(2, 40),
       Y=st.floats(0.1, 5.0), gshift=st.floats(0.0, 2.0))
def test_quadrature_exactness_property(a, ny, Y, gshift):
    g = build_grid(GridSpec(d=1, a=a, L=1.0, Y=Y, T=1.0,
                            nx=2, ny=ny, nt=2,
                            grading=default_grading(a) + gshift))
    total = Y ** (1 + a) / (1 + a)
    assert abs(g.cell_mass_y.sum() - total) <= 1e-12 * total
    assert np.all(g.cell_mass_y > 0)
    assert np.all(np.isfinite(g.face_trans_y)) and np.all(g.face_trans_y > 0)


def test_weighted_measure_full_and_empty():
    g = build_grid(GridSpec(d=1, a=0.0, L=1.0, Y=1.0, T=1.0,
                            nx=8, ny=8, nt=8, grading=1.0))
    full = np.ones(g.spacetime_shape, dtype=bool)
    assert abs(weighted_measure(g, full) - 2.0) < 1e-13
    assert weighted_measure(g, np.zeros_like(full)) == 0.0


def test_weighted_measure_half_cylinder_fraction():
    a, Y = 0.5, 1.0
    g = build_grid(GridSpec(d=1, a=a, L=1.0, Y=Y, T=1.0,
                            nx=4, ny=64, nt=4))
    ym = g.coords()[0]
    flags = np.broadcast_to(ym <= Y / 2, g.spatial_shape)
    frac = weighted_measure(g, flags) / weighted_measure(
        g, np.ones(g.spatial_shape, dtype=bool))
    exact = 0.5 ** (1 + a)
    # nodal dual cells resolve the cut to one cell of weighted mass
    cell_frac = np.max(g.cell_mass_y) / g.cell_mass_y.sum()
    assert abs(frac - exact) <= cell_frac
    # cross-check by summing primal cell masses below the cut
    below = g.y[1:] <= Y / 2
    lo = g.cell_mass_y[below].sum() / g.cell_mass_y.sum()
    assert lo - cell_frac <= frac <= lo + 2 * cell_frac


def test_weighted_measure_additive():
    g = build_grid(GridSpec(d=1, a=0.4, L=1.0, Y=1.0, T=1.0,
                            nx=6, ny=6, nt=6))
    rng = np.random.default_rng(3)
    flags = rng.random(g.spacetime_shape) < 0.4
    part = rng.random(g.spacetime_shape) < 0.5
    m1 = weighted_measure(g, flags & part)
    m2 = weighted_measure(g, flags & ~part)
    assert abs((m1 + m2) - weighted_measure(g, flags)) < 1e-14


def test_norm_constant_l2a():
    g = build_grid(GridSpec(d=1, a=0.0, L=1.0, Y=1.0, T=1.0,
                            nx=8, ny=8, nt=8, grading=1.0))
    U = np.ones(g.spacetime_shape)
    assert abs(weighted_norm(g, U, "L2a") - np.sqrt(2.0)) < 1e-13


def test_norm_linear_in_y_converges():
    # ||y||^2_{L2a} = (x,t volume) * int_0^1 y^{2+a} dy = vol / (3 + a)
    a = 0.5
    exact = 2.0 / (3.0 + a)
    errs = []
    for n in (8, 16, 32):
        g = build_grid(GridSpec(d=1, a=a, L=1.0, Y=1.0, T=1.0,
                                nx=4, ny=n, nt=4))
        U = np.broadcast_to(g.coords()[0], g.spatial_shape)
        U = np.broadcast_to(U, g.spacetime_shape)
        errs.append(abs(weighted_norm(g, U, "L2a") ** 2 - exact))
    order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(order) >= 1.0


def test_norm_refinement_consistency_smooth():
    a = 0.3
    vals = []
    for n in (6, 12, 24):
        g = build_grid(GridSpec(d=1, a=a, L=1.0, Y=1.0, T=1.0,
                                nx=n, ny=n, nt=n))
        ym, xm = g.coords()
        U = np.cos(xm) * np.exp(-ym)
        U = np.broadcast_to(U, g.spacetime_shape)
        vals.append(weighted_norm(g, U, "L2a"))
    e1, e2 = abs(vals[0] - vals[2]), abs(vals[1] - vals[2])
    assert e2 <= 0.6 * e1  # order >= 1 under doubling


def test_unknown_norm_tag():
    g = build_grid(GridSpec(d=1, a=0.0, L=1.0, Y=1.0, T=1.0,
                            nx=4, ny=4, nt=4, grading=1.0))
    with pytest.raises(GridError):
        weighted_norm(g, np.ones(g.spatial_shape), "L3b")


def test_region_outside_grid_rejected():
    g = build_grid(GridSpec(d=1, a=0.0, L=1.0, Y=1.0, T=1.0,
                            nx=4, ny=4, nt=4, grading=1.0))
    with pytest.raises(GridError):
        weighted_measure(g, np.ones(g.spacetime_shape, dtype=bool),
                         region=Cylinder((0.0, 0.0, 0.5), 2.0))


def test_spec_json_roundtrip():
    spec = GridSpec(d=1, a=-0.25, L=1.0, Y=2.0, T=3.0, nx=4, ny=6, nt=8,
                    grading=1.5)
    again = GridSpec(**walk(json.loads(json.dumps(spec.to_dict())),
                            "gridspec", "grid"))
    assert again == spec
    with pytest.raises(ConfigError, match="'extra_field': unknown key"):
        walk({**spec.to_dict(), "extra_field": 1}, "gridspec", "grid")


def axis_conditions(g, cyl):
    """Node membership per axis (t, y, x[, x]) from the 1-D coordinate
    conditions of the cylinder."""
    *cx, cy, ct = (float(v) for v in cyl.center)
    r = cyl.radius
    conds = [np.abs(g.t - ct) <= r**2 + 1e-14, np.abs(g.y - cy) <= r + 1e-14]
    return conds + [np.abs(g.x - c) <= r + 1e-14 for c in cx]


def outer_and(conds):
    mask = conds[0]
    for c in conds[1:]:
        mask = np.logical_and.outer(mask, c)
    return mask


def reference_mask(g, cyl):
    """Space-time node membership, shape g.spacetime_shape."""
    return outer_and(axis_conditions(g, cyl))


def box_cases(g, seed):
    """Random cylinders, windows whose edge lies within 1e-14 of a node or
    of the grid boundary, and windows that hold no node."""
    d, hx, dt = g.d, g.hx, g.dt
    rng = np.random.default_rng(seed)
    cyls = [Cylinder(tuple(rng.uniform(-1.2, 1.2, d))
                     + (rng.uniform(0.0, 1.2), rng.uniform(-0.2, 1.2)),
                     rng.uniform(0.01, 1.0)) for _ in range(40)]
    for tiny in (-2e-14, -5e-15, 0.0, 5e-15, 2e-14):
        cyls.append(Cylinder((0.0,) * d + (0.0, 0.5), 2 * hx + tiny))
        cyls.append(Cylinder((1.0 - 0.3 + tiny,) * d + (0.7, 1.0 - 0.09),
                             0.3))
        cyls.append(Cylinder((0.0,) * d + (g.y[3], 0.5 + tiny),
                             np.sqrt(4 * dt)))
    cyls.append(Cylinder((hx / 2,) * d + (0.5, 0.5), hx / 4))
    cyls.append(Cylinder((0.0,) * d + (0.5, 0.5 + dt / 2), np.sqrt(dt) / 2))
    cyls.append(Cylinder((0.0,) * d + (-0.5, 0.5), 0.1))
    return cyls


@pytest.mark.parametrize("d", [1, 2])
def test_cylinder_box_matches_coordinate_conditions(d):
    g = build_grid(GridSpec(d=d, a=0.3, L=1.0, Y=1.0, T=1.0,
                            nx=10, ny=7, nt=16))
    empty = 0
    for cyl in box_cases(g, d):
        box = cyl.box(g)
        assert len(box) == d + 2
        got = np.zeros(g.spacetime_shape, dtype=bool)
        got[box] = True
        ref = reference_mask(g, cyl)
        assert np.array_equal(got, ref), cyl
        empty += not ref.any()
    assert empty >= 3


@pytest.mark.parametrize("d", [1, 2])
def test_restricted_sums_match_masked_reference(d):
    g = build_grid(GridSpec(d=d, a=0.3, L=1.0, Y=1.0, T=1.0,
                            nx=10, ny=7, nt=16))
    rng = np.random.default_rng(10 + d)
    nm = g.node_mass.reshape(g.spatial_shape)
    wst = g.tvol.reshape((-1,) + (1,) * (d + 1)) * nm
    U = rng.standard_normal(g.spacetime_shape)
    flags = U > 0.3
    f = rng.standard_normal((g.spec.nt + 1,) + (g.spec.nx + 1,) * d)
    xm = g.xmass.reshape(f.shape[1:])
    for cyl in box_cases(g, d):
        if not cyl.fits(g):
            continue
        conds = axis_conditions(g, cyl)
        m, ms, mx = outer_and(conds), outer_and(conds[1:]), outer_and(conds[2:])
        rows = np.sum((xm * mx).ravel()
                      * np.abs(f.reshape(g.spec.nt + 1, -1)) ** 4,
                      axis=1) ** 0.25
        cases = [
            (weighted_measure(g, flags, cyl), np.sum(wst * flags * m)),
            (weighted_measure(g, flags[5], cyl), np.sum(nm * flags[5] * ms)),
            (weighted_norm(g, U, "L2a", region=cyl),
             np.sum(wst * U * U * m) ** 0.5),
            (weighted_norm(g, U[5], "Lpa", p=3.0, region=cyl),
             np.sum(nm * np.abs(U[5]) ** 3 * ms) ** (1 / 3)),
            (weighted_norm(g, f, "LinfT_Lq_trace", q=4.0, region=cyl),
             np.max(rows[conds[0]]) if conds[0].any() else 0.0),
        ]
        for got, ref in cases:
            assert got == pytest.approx(ref, rel=1e-13, abs=0.0), cyl


def test_trace_norm_independent_of_memory_order():
    # shipped grid; at this seed a row sum over an F-ordered field used to
    # round differently, with and without a region
    g = build_grid(GridSpec(d=1, a=0.5, L=4.0, Y=2.5, T=4.0,
                            nx=80, ny=17, nt=960))
    f = np.random.default_rng(7).random((g.spec.nt + 1, g.spec.nx + 1))
    for region in (None, Cylinder((0.0, 0.0, 2.0), 1.0)):
        c = weighted_norm(g, np.ascontiguousarray(f), "LinfT_Lq_trace",
                          q=4.0, region=region)
        fo = weighted_norm(g, np.asfortranarray(f), "LinfT_Lq_trace",
                           q=4.0, region=region)
        assert c == fo


def test_trace_norm_linf_lq():
    g = build_grid(GridSpec(d=1, a=0.0, L=1.0, Y=1.0, T=1.0,
                            nx=8, ny=4, nt=4, grading=1.0))
    f = np.ones((g.spec.nt + 1, g.spec.nx + 1))
    # ||1||_{L^2(B)} = sqrt(2L) at every layer
    assert abs(weighted_norm(g, f, "LinfT_Lq_trace", q=2.0)
               - np.sqrt(2.0)) < 1e-13
