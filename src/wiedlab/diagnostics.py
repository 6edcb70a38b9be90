"""Measured counterparts of the regularity and energy estimates.

Every quantity the analysis controls qualitatively is computed here on
discrete fields: the rescaled inertia/dissipation/energy decomposition
and its derivative identity, uniform bound tables across an eps
schedule, De Giorgi truncation energies and level-set measures,
isoperimetric ingredients, dyadic oscillation tables with Hoelder fits,
parabolic Hoelder seminorms, field rescaling, and the weighted
trace/Sobolev embedding ratios.

Convention: weighted set measures are one-sided (y >= 0, matching the
computational domain), while the energy quantities that mirror the
even-reflected functional carry the evenness factor 2 uniformly.
Constants in the underlying inequalities are unspecified, so checks are
calibrated once on a reference run and then enforced as stability
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import (ForcingSpec, assemble_linear_system, build_operators,
                       stencil_residual, _check_initial, _layers)
from .combustion import phi_eval
from .grid import (Cylinder, GridError, GridSpec, WeightedGrid, build_grid,
                   _grad_energy_spatial, weighted_measure, weighted_norm)


# ---------------------------------------------------------------------------
# energy decomposition (rescaled inertia I, dissipation R, tail energy E)

@dataclass
class EnergyReport:
    eps: float
    tau: np.ndarray          # rescaled cell times t_n / eps
    inertia: np.ndarray      # I per rescaled time cell
    dissipation: np.ndarray  # R per rescaled time cell
    energy: np.ndarray       # E per cell, truncated tail
    tail_bound: float
    identity_l1: float       # discrete |E' + 2I| along inner variations
    e_monotone_defect: float
    dt_energy_total: float   # int int |y|^a |d_t U|^2 over (0, T)
    windowed: list           # (R, windowed dissipation / R)

    def rows(self):
        out = []
        for n in range(self.tau.shape[0]):
            out.append({"n": n, "tau": float(self.tau[n]),
                        "I": float(self.inertia[n]),
                        "R": float(self.dissipation[n]),
                        "E": float(self.energy[n])})
        return out


def energy_decomposition(grid: WeightedGrid, model, eps: float,
                         U: np.ndarray, U0: np.ndarray | None = None,
                         ops=None) -> EnergyReport:
    """Per-cell I, R and tail energy E of the rescaled field V(X,t)=U(X,eps t).

    E is accumulated backwards with exact exponential cell weights, so it
    satisfies the discrete form of E' = E - I - R identically; the
    derivative identity E' = -2I is evaluated as the optimality defect of
    the discrete functional along inner (time-reparametrization)
    variations, which is the quantity that vanishes at exact discrete
    minimizers.  Its EL residual is the stencil form (stencil_residual)
    on the stiffness products the Dirichlet energy already needs, so no
    space-time system is assembled.
    """
    ops = ops or build_operators(grid)
    Ulay = _layers(grid, U)
    _check_initial(grid, Ulay, U0)
    nt = grid.spec.nt
    dt = grid.dt
    dtau = dt / eps
    tau = grid.t[:-1] / eps

    dU = np.diff(Ulay, axis=0) / dt
    icell = (dU * dU) @ ops.mass
    KU = (ops.Ka @ Ulay.T).T
    Sm = np.einsum("ns,ns->n", Ulay, KU)
    Pm = phi_eval(model, Ulay[:, ops.trace_index]) @ ops.trace_mass

    inertia = 2.0 * eps**2 * icell
    dissipation = 2.0 * eps * (0.5 * (Sm[:-1] + Sm[1:])
                               + 0.5 * (Pm[:-1] + Pm[1:]))

    q = float(np.exp(-dtau))
    total = inertia + dissipation
    energy = np.empty(nt)
    acc = 0.0
    for n in range(nt - 1, -1, -1):
        acc = (1.0 - q) * total[n] + q * acc
        energy[n] = acc
    tail_bound = float(np.exp(-grid.spec.T / eps) * total[-1])

    r = stencil_residual(grid, model, eps, Ulay, KU, ops)
    dtauV = eps * (Ulay[2:] - Ulay[:-2]) / (2.0 * dt)
    pair = np.abs(np.einsum("ms,ms->m", r[:-1], dtauV))
    identity_l1 = float(4.0 * eps * np.expm1(dtau) * np.sum(pair))

    defect = float(max(0.0, np.max(np.diff(energy), initial=0.0)))

    dt_energy_total = float(2.0 * dt * np.sum(icell))
    grad_cell = 0.5 * (Sm[:-1] + Sm[1:])
    phi_cell = 0.5 * (Pm[:-1] + Pm[1:])
    windowed = []
    for R in (grid.spec.T / 4.0, grid.spec.T / 2.0, grid.spec.T):
        ncells = max(1, int(round(R / dt)))
        val = 2.0 * dt * float(np.sum(grad_cell[:ncells] + phi_cell[:ncells]))
        windowed.append((float(R), val / R))

    return EnergyReport(eps=eps, tau=tau, inertia=inertia,
                        dissipation=dissipation, energy=energy,
                        tail_bound=tail_bound, identity_l1=identity_l1,
                        e_monotone_defect=defect,
                        dt_energy_total=dt_energy_total, windowed=windowed)


def uniform_bounds_report(reports: list, factor: float = 4.0) -> dict:
    """Cross-level uniformity of the global energy bounds.

    reports: EnergyReport per schedule level (>= 2).  Flags 'uniform'
    when the total time-derivative energy and every windowed dissipation
    density vary by at most the given factor across levels and windows.
    """
    if len(reports) < 2:
        raise ValueError("need at least two schedule levels")
    rows = []
    for rep in reports:
        row = {"eps": rep.eps, "dt_energy": rep.dt_energy_total}
        for (R, v) in rep.windowed:
            row[f"windowed_R={R:g}"] = v
        rows.append(row)
    dt_vals = np.array([r.dt_energy_total for r in reports])
    win_vals = np.array([[v for (_, v) in r.windowed] for r in reports])

    def spread(vals):
        vals = vals[np.abs(vals) > 0]
        if vals.size == 0:
            return 1.0
        return float(np.max(vals) / np.min(vals))

    dt_spread = spread(dt_vals)
    win_spread = spread(win_vals.ravel())
    return {"rows": rows, "dt_energy_spread": dt_spread,
            "windowed_spread": win_spread,
            "uniform": bool(dt_spread <= factor and win_spread <= factor)}


# ---------------------------------------------------------------------------
# level sets, truncation energies, L2 -> Linf

@dataclass
class LevelSetReport:
    cylinder: Cylinder
    measures: dict = field(default_factory=dict)
    levels: np.ndarray | None = None      # C_j
    radii: np.ndarray | None = None       # r_j (in units of cylinder radius)
    energies: np.ndarray | None = None    # E_j
    decay_rate: float | None = None
    converged: bool | None = None
    sup_flag: bool | None = None


def level_set_measures(grid: WeightedGrid, fld: np.ndarray,
                       cylinder: Cylinder) -> LevelSetReport:
    """Weighted measures of {U >= 1/2}, {U <= 0} and {0 < U < 1/2}."""
    cylinder.require_fits(grid)
    fld = np.asarray(fld, dtype=float)
    A = fld >= 0.5
    C = fld <= 0.0
    D = ~(A | C)
    mA = weighted_measure(grid, A, region=cylinder)
    mC = weighted_measure(grid, C, region=cylinder)
    mD = weighted_measure(grid, D, region=cylinder)
    ones = np.ones_like(fld, dtype=bool)
    total = weighted_measure(grid, ones, region=cylinder)
    return LevelSetReport(cylinder=cylinder,
                          measures={"A": mA, "C": mC, "D": mD,
                                    "total": total})


def no_spikes_iteration(grid: WeightedGrid, fld: np.ndarray,
                        cylinder: Cylinder, jmax: int = 12) -> LevelSetReport:
    """De Giorgi truncation energies E_j on shrinking cylinders.

    E_j integrates |y|^a (U - C_j)_+^2 over the cylinder of radius
    (1/2 + 2^{-j-1}) x cylinder.radius; levels C_j = 1 - 2^{-j}.
    Reports the fitted geometric decay and whether E_j collapses below
    1e-12 by j = jmax.
    """
    cylinder.require_fits(grid)
    fld = np.asarray(fld, dtype=float)
    if fld.shape != grid.spacetime_shape:
        raise GridError("no_spikes_iteration expects a space-time field")
    w = np.multiply.outer(grid.tvol,
                          grid.node_mass.reshape(grid.spatial_shape))
    js = np.arange(jmax + 1)
    Cj = 1.0 - 2.0 ** (-js.astype(float))
    rj = 0.5 + 2.0 ** (-js.astype(float) - 1.0)
    Ej = np.empty(jmax + 1)
    for j in js:
        sub = Cylinder(cylinder.center, rj[j] * cylinder.radius)
        mask = sub.mask(grid)
        V = np.clip(fld - Cj[j], 0.0, None)
        Ej[j] = float(np.sum(w * V * V * mask))
    pos = Ej > 0
    rate = None
    if np.count_nonzero(pos) >= 2:
        idx = np.flatnonzero(pos)
        fitted = np.polyfit(idx.astype(float), np.log(Ej[idx]), 1)
        rate = float(np.exp(fitted[0]))
    return LevelSetReport(cylinder=cylinder, levels=Cj, radii=rj, energies=Ej,
                          decay_rate=rate,
                          converged=bool(Ej[-1] <= 1e-12),
                          sup_flag=bool(Ej[-1] > 1e-12))


def linf_l2_ratio(grid: WeightedGrid, fld: np.ndarray,
                  forcing: ForcingSpec | None = None,
                  center: tuple | None = None,
                  radius: float | None = None) -> dict:
    """sup-norm over the half cylinder against the L^{2,a} + forcing norms.

    Mirrors the uniform L^{2,a} -> L^infty estimate: the returned ratio
    is ||U||_{Linf(Q_{R/2})} / (||U||_{L2a(Q_R)} + ||F||_{Lpa(Q_R)} +
    ||f||_{Lq_inf(Q_R)}).  Identically zero data gives ratio 0.
    """
    fld = np.asarray(fld, dtype=float)
    sp = grid.spec
    if center is None:
        center = (0.0,) * sp.d + (0.0, sp.T / 2.0)
    tc = center[-1]
    if radius is None:
        radius = min(1.0, sp.L - max(abs(c) for c in center[:sp.d]) if sp.d else sp.L,
                     sp.Y, np.sqrt(max(tc, 1e-300)), np.sqrt(max(sp.T - tc, 1e-300)))
    outer = Cylinder(center, radius)
    inner = Cylinder(center, radius / 2.0)
    outer.require_fits(grid)
    sup_in = float(np.max(np.abs(fld[inner.mask(grid)])))
    l2 = weighted_norm(grid, fld, "L2a", region=outer)
    p, q = 3.0, 4.0
    nF = nf = 0.0
    if forcing is not None:
        p, q = forcing.p, forcing.q
        forcing.validate_exponents(grid)
        if forcing.F is not None:
            nF = weighted_norm(grid, forcing.F, "Lpa", p=p, region=outer)
        if forcing.f is not None:
            nf = weighted_norm(grid, forcing.f, "LinfT_Lq_trace", q=q,
                               region=outer)
    denom = l2 + nF + nf
    ratio = 0.0 if denom == 0.0 else sup_in / denom
    return {"ratio": ratio, "sup_inner": sup_in, "l2a_outer": l2,
            "F_lpa": nF, "f_lqinf": nf, "radius": radius, "center": center}


def isoperimetric_check(grid: WeightedGrid, slice_field: np.ndarray,
                        p: float, center: tuple | None = None,
                        radius: float = 1.0) -> dict:
    """Both sides of the weighted isoperimetric inequality on a slice.

    lhs = |A|_a |C|_a with A = {U >= 1/2}, C = {U <= 0}; the right-hand
    factor is |D|_a^{(2-p)/(2p)} with D the intermediate set.  The
    comparison constant depends on the slice's gradient energy and is
    calibrated externally.
    """
    if not 1.0 < p < 2.0:
        raise ValueError(f"p must lie in (1, 2), got {p}")
    U = np.asarray(slice_field, dtype=float)
    if U.shape != grid.spatial_shape:
        raise GridError("isoperimetric_check expects a spatial slice")
    if center is None:
        center = (0.0,) * grid.spec.d + (0.0,)
    cyl = Cylinder(tuple(center) + (0.0,), radius)
    mask = cyl.spatial_mask(grid)
    w = grid.node_mass.reshape(grid.spatial_shape) * mask
    mA = float(np.sum(w * (U >= 0.5)))
    mC = float(np.sum(w * (U <= 0.0)))
    mD = float(np.sum(w * ((U > 0.0) & (U < 0.5))))
    grad_energy = _grad_energy_spatial(grid, U, mask)
    lhs = mA * mC
    expn = (2.0 - p) / (2.0 * p)
    rhs_factor = mD**expn
    ratio = np.inf if (rhs_factor == 0.0 and lhs > 0.0) else (
        0.0 if lhs == 0.0 else lhs / rhs_factor)
    return {"lhs": lhs, "rhs_factor": rhs_factor, "ratio": ratio,
            "measures": {"A": mA, "C": mC, "D": mD},
            "gradient_energy": grad_energy, "p": p}


# ---------------------------------------------------------------------------
# oscillation decay, Hoelder fits and seminorms

@dataclass
class HolderReport:
    center: tuple
    table: list                      # rows {n, radius, osc}
    alpha: float | None = None
    constant: float | None = None
    fit_residual: float | None = None
    in_range: bool | None = None
    exact_constant: bool = False
    seminorm: float | None = None

    def ratios(self):
        osc = [row["osc"] for row in self.table]
        return [osc[i + 1] / osc[i] for i in range(len(osc) - 1)
                if osc[i] > 0]


def oscillation_table(grid: WeightedGrid, fld: np.ndarray, center: tuple,
                      levels: int) -> HolderReport:
    """osc over the nested parabolic cylinders of radius 4^{-n+1}."""
    fld = np.asarray(fld, dtype=float)
    if fld.shape != grid.spacetime_shape:
        raise GridError("oscillation_table expects a space-time field")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    top = Cylinder(center, 1.0)
    if not top.fits(grid):
        raise GridError(
            "center too close to boundary for requested depth "
            f"(cylinder radius 1 at {center} leaves the grid)")
    rows = []
    for n in range(1, levels + 1):
        r = 4.0 ** (-n + 1)
        mask = Cylinder(center, r).mask(grid)
        vals = fld[mask]
        osc = float(np.max(vals) - np.min(vals)) if vals.size else 0.0
        rows.append({"n": n, "radius": r, "osc": osc})
    return HolderReport(center=tuple(center), table=rows)


def fit_holder(report_or_table) -> HolderReport:
    """Least-squares fit osc_n ~ C 4^{-alpha n} in log scale."""
    if isinstance(report_or_table, HolderReport):
        report = report_or_table
        table = report.table
    else:
        table = [dict(row) for row in report_or_table]
        report = HolderReport(center=(), table=table)
    osc = np.array([row["osc"] for row in table], dtype=float)
    ns = np.array([row["n"] for row in table], dtype=float)
    if np.all(osc == 0.0):
        report.exact_constant = True
        return report
    pos = osc > 0.0
    if np.count_nonzero(pos) < 3:
        raise ValueError("need >= 3 table rows with positive oscillations")
    x = ns[pos] * np.log(4.0)
    yv = np.log(osc[pos])
    coef = np.polyfit(x, yv, 1)
    alpha = float(-coef[0])
    Cfit = float(np.exp(coef[1]))
    resid = float(np.sqrt(np.mean((np.polyval(coef, x) - yv) ** 2)))
    report.alpha = min(max(alpha, np.nextafter(0.0, 1.0)), 1.5)
    report.constant = Cfit
    report.fit_residual = resid
    report.in_range = bool(0.0 < alpha <= 1.0)
    return report


def holder_seminorm(grid: WeightedGrid, fld: np.ndarray, cylinder: Cylinder,
                    alpha: float, exact_limit: int = 10**4,
                    n_pairs: int = 10**6, seed: int = 0) -> float:
    """Discrete parabolic Hoelder seminorm sup |dU| / ||(dX, dt)||^alpha.

    The parabolic distance is max(|dX|, sqrt|dt|).  All node pairs are
    used when the cylinder holds at most exact_limit nodes, otherwise a
    fixed-seed random sample of n_pairs pairs.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    cylinder.require_fits(grid)
    fld = np.asarray(fld, dtype=float)
    if fld.shape != grid.spacetime_shape:
        raise GridError("holder_seminorm expects a space-time field")
    mask = cylinder.mask(grid)
    idx = np.argwhere(mask)
    if idx.shape[0] < 2:
        raise GridError("degenerate cylinder: fewer than two nodes")
    # node coordinates: (t, y, x...) index order
    coords = [grid.t[idx[:, 0]], grid.y[idx[:, 1]]]
    for k in range(grid.d):
        coords.append(grid.x[idx[:, 2 + k]])
    tC = coords[0]
    Xc = np.stack(coords[1:], axis=1)
    vals = fld[mask]
    npts = vals.shape[0]

    def ratio(i, j):
        dX = np.sqrt(np.sum((Xc[i] - Xc[j]) ** 2, axis=-1))
        dtm = np.sqrt(np.abs(tC[i] - tC[j]))
        dist = np.maximum(dX, dtm)
        du = np.abs(vals[i] - vals[j])
        keep = dist > 0
        if not np.any(keep):
            return 0.0
        return float(np.max(du[keep] / dist[keep] ** alpha))

    if npts <= exact_limit:
        best = 0.0
        for i in range(npts - 1):
            j = np.arange(i + 1, npts)
            best = max(best, ratio(np.full(j.shape, i), j))
        return best
    rng = np.random.default_rng(seed)
    ii = rng.integers(0, npts, size=n_pairs)
    jj = rng.integers(0, npts, size=n_pairs)
    return ratio(ii, jj)


def rescale_field(grid: WeightedGrid, fld: np.ndarray, R: float,
                  eps: float | None = None):
    """V(X, t) = U(R X, R^2 t) sampled onto the reference-cylinder grid.

    The target grid keeps the cell counts and grading of the source but
    spans x in [-1, 1]^d, y in [0, 1], t in [0, T / R^2]; multilinear
    interpolation in (t, y, x).  Returns (grid, field, metadata).
    """
    from scipy.interpolate import RegularGridInterpolator

    sp = grid.spec
    if R <= 0 or R > min(sp.L, sp.Y):
        raise GridError(f"scale R={R} leaves the grid (L={sp.L}, Y={sp.Y})")
    fld = np.asarray(fld, dtype=float)
    if fld.shape != grid.spacetime_shape:
        raise GridError("rescale_field expects a space-time field")
    new_spec = GridSpec(d=sp.d, a=sp.a, L=1.0, Y=1.0, T=sp.T / R**2,
                        nx=sp.nx, ny=sp.ny, nt=sp.nt, grading=sp.grading)
    new_grid = build_grid(new_spec)
    axes = (grid.t, grid.y) + (grid.x,) * sp.d
    interp = RegularGridInterpolator(axes, fld, method="linear",
                                     bounds_error=False, fill_value=None)
    mesh = np.meshgrid(R**2 * new_grid.t, R * new_grid.y,
                       *[R * new_grid.x] * sp.d, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    # clamp tiny float drift back onto the source domain
    pts[:, 0] = np.clip(pts[:, 0], grid.t[0], grid.t[-1])
    pts[:, 1] = np.clip(pts[:, 1], grid.y[0], grid.y[-1])
    for k in range(sp.d):
        pts[:, 2 + k] = np.clip(pts[:, 2 + k], grid.x[0], grid.x[-1])
    out = interp(pts).reshape(new_grid.spacetime_shape)
    meta = {"scale": R, "eps_scale_factor": 1.0 / R**2}
    if eps is not None:
        meta["eps_effective"] = eps / R**2
    return new_grid, out, meta


# ---------------------------------------------------------------------------
# embedding ratios (trace and Sobolev exponents)

def trace_exponent(d: int, a: float) -> float:
    """sigma~ = d / (d - 1 + a); requires d - 1 + a > 0."""
    return d / (d - 1.0 + a)


def sobolev_exponent(d: int, a: float) -> float:
    """Elliptic weighted Sobolev exponent sigma = 1 + 2/(d - 1 + a)."""
    return 1.0 + 2.0 / (d - 1.0 + a)


def parabolic_sobolev_exponent(d: int, a: float) -> float:
    """gamma = (2 sigma - 1)/sigma = 1 + 2/(d + 1 + a)."""
    return 1.0 + 2.0 / (d + 1.0 + a)


def embedding_ratio_check(grid: WeightedGrid, slice_field: np.ndarray,
                          radius: float = 1.0) -> dict:
    """Trace inequality (at A = 2) and weighted Sobolev ratio on a slice.

    Not applicable (returns applicable=False) when d - 1 + a <= 0, where
    the embedding exponents degenerate.
    """
    d, a = grid.spec.d, grid.spec.a
    if d - 1.0 + a <= 0.0:
        return {"applicable": False, "reason": "need d - 1 + a > 0"}
    U = np.asarray(slice_field, dtype=float)
    if U.shape != grid.spatial_shape:
        raise GridError("embedding_ratio_check expects a spatial slice")
    if np.all(U == 0.0):
        raise ValueError("slice is identically zero")
    cyl = Cylinder((0.0,) * d + (0.0, 0.0), radius)
    mask = cyl.spatial_mask(grid)
    w = grid.node_mass.reshape(grid.spatial_shape) * mask
    # trace side: plain L^2 of u on the x-box
    xmask = mask[0]
    u = U[0]
    tr_l2 = float(np.sum(grid.xmass.reshape(xmask.shape) * xmask * u * u))
    l2 = float(np.sum(w * U * U))
    ge = _grad_energy_spatial(grid, U, mask)
    A = 2.0
    trace_rhs = A ** ((1.0 + a) / 2.0) * l2 + A ** (-(1.0 - a) / 2.0) * ge
    trace_ratio = tr_l2 / trace_rhs if trace_rhs > 0 else 0.0
    sig = sobolev_exponent(d, a)
    lhs = float(np.sum(w * np.abs(U) ** (2.0 * sig))) ** (1.0 / sig)
    rhs = l2 / radius**2 + ge
    sob_ratio = lhs / rhs if rhs > 0 else 0.0
    return {"applicable": True, "trace_ratio": trace_ratio,
            "sobolev_ratio": sob_ratio,
            "exponents": {"sigma_tilde": trace_exponent(d, a),
                          "sigma": sig,
                          "gamma": parabolic_sobolev_exponent(d, a)}}


def parabolic_sobolev_ratio(grid: WeightedGrid, fld: np.ndarray,
                            cylinder: Cylinder) -> dict:
    """Space-time Sobolev ratio with exponent gamma on a cylinder."""
    d, a = grid.spec.d, grid.spec.a
    if d - 1.0 + a <= 0.0:
        return {"applicable": False, "reason": "need d - 1 + a > 0"}
    fld = np.asarray(fld, dtype=float)
    if fld.shape != grid.spacetime_shape:
        raise GridError("parabolic_sobolev_ratio expects a space-time field")
    cylinder.require_fits(grid)
    gam = parabolic_sobolev_exponent(d, a)
    smask = cylinder.spatial_mask(grid)
    tmask = cylinder.time_mask(grid)
    wsp = grid.node_mass.reshape(grid.spatial_shape) * smask
    layers = fld.reshape(grid.spec.nt + 1, -1)
    wflat = wsp.ravel()
    l2_t = layers * layers @ wflat
    lhs = float(np.sum(grid.tvol * tmask
                       * ((np.abs(layers) ** (2.0 * gam)) @ wflat)))
    ge_t = np.array([_grad_energy_spatial(grid, lay, smask) for lay in layers])
    bracket = float(np.sum(grid.tvol * tmask * (l2_t / cylinder.radius**2
                                                + ge_t)))
    sup_l2 = float(np.max(l2_t[tmask])) if np.any(tmask) else 0.0
    rhs = bracket * sup_l2 ** (gam - 1.0)
    return {"applicable": True, "lhs": lhs, "rhs_bracket": rhs,
            "ratio": lhs / rhs if rhs > 0 else 0.0, "gamma": gam}


# ---------------------------------------------------------------------------
# structural checks on solutions of the linear problem

def truncation_subsolution_check(grid: WeightedGrid, eps: float,
                                 forcing: ForcingSpec | None,
                                 U: np.ndarray, level: float,
                                 n_tests: int = 10, seed: int = 0,
                                 tol: float = 1e-8) -> dict:
    """One-sided weak-subsolution check for the truncation (U - level)_+.

    For the discrete operator (an M-matrix) and nonnegative forcings the
    pairing of the truncated field's residual with nonnegative interior
    test fields is nonpositive up to solver tolerance; the check reports
    the largest normalized pairing over random nonnegative tests.
    """
    Ulay = _layers(grid, U)
    if forcing is not None:
        for arr in (forcing.F, forcing.f):
            if arr is not None and np.any(np.asarray(arr) < 0):
                raise ValueError("subsolution check needs F, f >= 0")
    system = assemble_linear_system(grid, eps, forcing=forcing)
    V = np.clip(Ulay - level, 0.0, None)
    resid = (system.A @ V[1:].ravel() - system.rhs(V[0])).reshape(
        grid.spec.nt, -1)
    rng = np.random.default_rng(seed)
    nt = grid.spec.nt
    shape = grid.spatial_shape
    pairs = []
    for _ in range(n_tests):
        eta = rng.random((nt,) + shape)
        # vanish on the terminal layer and the lateral/top boundaries
        eta[-1] = 0.0
        eta[:, -1, ...] = 0.0
        for k in range(grid.d):
            sl = [slice(None)] * (grid.d + 2)
            sl[2 + k] = 0
            eta[tuple(sl)] = 0.0
            sl[2 + k] = -1
            eta[tuple(sl)] = 0.0
        ef = eta.reshape(nt, -1)
        pairing = float(np.sum(resid * ef))
        pairs.append(pairing / max(float(np.sqrt(np.sum(ef * ef))), 1e-300))
    worst = max(pairs)
    return {"max_pairing": worst, "pairings": pairs,
            "passes": bool(worst <= tol), "level": level}


def sweep_cauchy_increments(grid: WeightedGrid, fields: list) -> list:
    """Distances between consecutive schedule levels in C([0,T]:L^{2,a}).

    The measured Cauchy property of the approximating family is what
    stands in for the compactness hypothesis of the oscillation-decay
    argument.
    """
    from .wied import dist_C_L2a
    return [dist_C_L2a(grid, fields[i], fields[i + 1])
            for i in range(len(fields) - 1)]
