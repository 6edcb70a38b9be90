"""Measured counterparts of the regularity and energy estimates.

Every quantity the analysis controls qualitatively is computed here on
discrete fields: the rescaled inertia/dissipation/energy decomposition
and its derivative identity, uniform bound tables across an eps
schedule, De Giorgi truncation energies and level-set measures,
isoperimetric ingredients, dyadic oscillation tables with Hoelder fits,
the weighted trace/Sobolev embedding ratios, and the Cauchy increments
of the sweep.

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

from .assembly import (FieldCheck, assemble_linear_system, build_operators,
                       _check_initial, _layers)
from .grid import (Cylinder, GridError, WeightedGrid, _grad_energy_spatial,
                   restrict, weighted_norm)
# phi_eval and build_grid are unused here; they stay importable because
# perfbench/tracing.py patches them by name
from .combustion import phi_eval  # noqa: F401
from .grid import build_grid  # noqa: F401


# ---------------------------------------------------------------------------
# energy decomposition (rescaled inertia I, dissipation R, tail energy E)

@dataclass
class EnergyReport:
    eps: float
    tau: np.ndarray          # rescaled cell times t_n / eps
    inertia: np.ndarray      # I per rescaled time cell
    dissipation: np.ndarray  # R per rescaled time cell
    energy: np.ndarray       # E per cell, truncated tail
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
                         ops=None, check: FieldCheck | None = None
                         ) -> EnergyReport:
    """Per-cell I, R and tail energy E of the rescaled field V(X,t)=U(X,eps t).

    E is accumulated backwards with exact exponential cell weights, so it
    satisfies the discrete form of E' = E - I - R identically; the
    derivative identity E' = -2I is evaluated as the optimality defect of
    the discrete functional along inner (time-reparametrization)
    variations, which is the quantity that vanishes at exact discrete
    minimizers.  The report reads the full check of U at eps
    (LinearSystem.check): its residual and its three per-cell terms
    (FieldCheck.cells), so no space-time matrix is assembled.  check,
    when given, must be that check, as a solved level's exit check leaves
    it (wied.Level.check); otherwise the report forms it on the system
    of eps.  The pairing of the residual with the centred differences
    runs a block of layers at a time.
    """
    ops = ops or build_operators(grid)
    Ulay = _layers(grid, U)
    if check is None:
        check = assemble_linear_system(grid, eps, ops).check(model, Ulay, U0)
    else:
        _check_initial(grid, Ulay, U0)
    nt = grid.spec.nt
    dt = grid.dt
    dtau = dt / eps
    tau = grid.t[:-1] / eps

    icell, grad_cell, phi_cell = check.cells()
    r = check.residual
    inertia = 2.0 * eps**2 * icell
    dissipation = 2.0 * eps * (grad_cell + phi_cell)

    q = float(np.exp(-dtau))
    total = inertia + dissipation
    energy = np.empty(nt)
    acc = 0.0
    for n in range(nt - 1, -1, -1):
        acc = (1.0 - q) * total[n] + q * acc
        energy[n] = acc

    # |<r_m, eps (U_{m+1} - U_{m-1}) / (2 dt)>| for m = 1 .. nt - 1, the
    # centred differences formed a block of rows at a time
    pair = np.empty(nt - 1)
    kb = max(1, min(nt - 1, ops.Ka.CHUNK // Ulay.shape[1]))
    buf = np.empty((kb, Ulay.shape[1]))
    for m0 in range(0, nt - 1, kb):
        m1 = min(m0 + kb, nt - 1)
        dtauV = np.subtract(Ulay[m0 + 2:m1 + 2], Ulay[m0:m1],
                            out=buf[:m1 - m0])
        np.multiply(eps, dtauV, out=dtauV)
        dtauV /= 2.0 * dt
        pair[m0:m1] = np.einsum("ms,ms->m", r[m0:m1], dtauV)
    identity_l1 = float(4.0 * eps * np.expm1(dtau) * np.sum(np.abs(pair)))

    defect = float(max(0.0, np.max(np.diff(energy), initial=0.0)))

    dt_energy_total = float(2.0 * dt * np.sum(icell))
    windowed = []
    for R in (grid.spec.T / 4.0, grid.spec.T / 2.0, grid.spec.T):
        ncells = max(1, int(round(R / dt)))
        val = 2.0 * dt * float(np.sum(grad_cell[:ncells] + phi_cell[:ncells]))
        windowed.append((float(R), val / R))

    return EnergyReport(eps=eps, tau=tau, inertia=inertia,
                        dissipation=dissipation, energy=energy,
                        identity_l1=identity_l1, e_monotone_defect=defect,
                        dt_energy_total=dt_energy_total, windowed=windowed)


def spread(values) -> float:
    """max / min over the nonzero values; 1 when all of them vanish."""
    vals = np.asarray(values, dtype=float)
    vals = vals[np.abs(vals) > 0]
    return float(np.max(vals) / np.min(vals)) if vals.size else 1.0


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
    dt_spread = spread([r.dt_energy_total for r in reports])
    win_spread = spread([v for r in reports for (_, v) in r.windowed])
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
    converged: bool | None = None
    sup_flag: bool | None = None


def level_set_measures(grid: WeightedGrid, fld: np.ndarray,
                       cylinder: Cylinder) -> LevelSetReport:
    """Weighted measures of {U >= 1/2}, {U <= 0} and {0 < U < 1/2}."""
    cylinder.require_fits(grid)
    U, w = restrict(grid, np.asarray(fld, dtype=float), cylinder)
    A = U >= 0.5
    C = U <= 0.0
    D = ~(A | C)
    return LevelSetReport(cylinder=cylinder, measures={
        "A": float(np.sum(w * A)), "C": float(np.sum(w * C)),
        "D": float(np.sum(w * D)), "total": float(np.sum(w))})


def no_spikes_iteration(grid: WeightedGrid, fld: np.ndarray,
                        cylinder: Cylinder, jmax: int = 12,
                        delta: float | None = None) -> LevelSetReport:
    """De Giorgi truncation energies E_j on shrinking cylinders.

    E_j integrates |y|^a (U - C_j)_+^2 over the cylinder of radius
    (1/2 + 2^{-j-1}) x cylinder.radius; levels C_j = 1 - 2^{-j}.
    Reports whether E_j collapses below 1e-12 by j = jmax.  With delta,
    U is first the positive part of fld scaled to L^{2,a} norm
    sqrt(delta) on the cylinder (zero if that part vanishes there).
    Only the cylinder's index box is read or copied: every shrunken
    cylinder's box lies inside it.
    """
    cylinder.require_fits(grid)
    fld = np.asarray(fld, dtype=float)
    if fld.shape != grid.spacetime_shape:
        raise GridError("no_spikes_iteration expects a space-time field")
    U, w = restrict(grid, fld, cylinder)
    if delta is not None:
        U = np.clip(U, 0.0, None)
        # weighted_norm's L2a over the cylinder
        denom = float(np.sum(w * np.abs(U) ** 2.0) ** 0.5)
        U *= np.sqrt(delta) / denom if denom > 0 else 0.0
    outer = cylinder.box(grid)
    js = np.arange(jmax + 1)
    Cj = 1.0 - 2.0 ** (-js.astype(float))
    rj = 0.5 + 2.0 ** (-js.astype(float) - 1.0)
    Ej = np.empty(jmax + 1)
    for j in js:
        box = Cylinder(cylinder.center, rj[j] * cylinder.radius).box(grid)
        sub = tuple(slice(b.start - o.start, b.stop - o.start)
                    for b, o in zip(box, outer))
        V = np.clip(U[sub] - Cj[j], 0.0, None)
        Ej[j] = float(np.sum(w[sub] * V * V))
    return LevelSetReport(cylinder=cylinder, levels=Cj, radii=rj, energies=Ej,
                          converged=bool(Ej[-1] <= 1e-12),
                          sup_flag=bool(Ej[-1] > 1e-12))


@dataclass
class ForcingSpec:
    """Bulk forcing F on space-time nodes and trace forcing f on (x, t),
    the data norms of linf_l2_ratio.

    p, q are the integrability exponents of those norms; the conditions
    p > (d+3+a)/2 and q > d/(1-a) are only enforced when a diagnostic
    that needs the embeddings asks for them.
    """

    F: np.ndarray | None = None
    f: np.ndarray | None = None
    p: float = 3.0
    q: float = 4.0

    def validate_exponents(self, grid: WeightedGrid):
        d, a = grid.spec.d, grid.spec.a
        if not self.p > (d + 3 + a) / 2.0:
            raise ValueError(f"need p > (d+3+a)/2 = {(d+3+a)/2}, got {self.p}")
        if not self.q > d / (1.0 - a):
            raise ValueError(f"need q > d/(1-a) = {d/(1-a)}, got {self.q}")


def linf_l2_ratio(grid: WeightedGrid, fld: np.ndarray, forcing: ForcingSpec,
                  center: tuple, radius: float) -> dict:
    """sup-norm over the half cylinder against the L^{2,a} + forcing norms.

    Mirrors the uniform L^{2,a} -> L^infty estimate: the returned ratio
    is ||U||_{Linf(Q_{R/2})} / (||U||_{L2a(Q_R)} + ||F||_{Lpa(Q_R)} +
    ||f||_{Lq_inf(Q_R)}).  Identically zero data gives ratio 0.
    """
    fld = np.asarray(fld, dtype=float)
    outer = Cylinder(center, radius)
    inner = Cylinder(center, radius / 2.0)
    outer.require_fits(grid)
    sup_in = float(np.max(np.abs(fld[inner.box(grid)])))
    l2 = weighted_norm(grid, fld, "L2a", region=outer)
    forcing.validate_exponents(grid)
    nF = nf = 0.0
    if forcing.F is not None:
        nF = weighted_norm(grid, forcing.F, "Lpa", p=forcing.p, region=outer)
    if forcing.f is not None:
        nf = weighted_norm(grid, forcing.f, "LinfT_Lq_trace", q=forcing.q,
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
    Ub, w = restrict(grid, U, cyl)
    mA = float(np.sum(w * (Ub >= 0.5)))
    mC = float(np.sum(w * (Ub <= 0.0)))
    mD = float(np.sum(w * ((Ub > 0.0) & (Ub < 0.5))))
    grad_energy = _grad_energy_spatial(grid, U, cyl.box(grid)[1:])
    lhs = mA * mC
    expn = (2.0 - p) / (2.0 * p)
    rhs_factor = mD**expn
    ratio = np.inf if (rhs_factor == 0.0 and lhs > 0.0) else (
        0.0 if lhs == 0.0 else lhs / rhs_factor)
    return {"lhs": lhs, "rhs_factor": rhs_factor, "ratio": ratio,
            "measures": {"A": mA, "C": mC, "D": mD},
            "gradient_energy": grad_energy, "p": p}


# ---------------------------------------------------------------------------
# oscillation decay and Hoelder fits

@dataclass
class HolderReport:
    center: tuple
    table: list                      # rows {n, radius, osc}
    alpha: float | None = None
    constant: float | None = None
    fit_residual: float | None = None
    in_range: bool | None = None
    exact_constant: bool = False

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
        vals = fld[Cylinder(center, r).box(grid)]
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
    box = cyl.box(grid)[1:]
    Ub, w = restrict(grid, U, cyl)
    # trace side: plain L^2 of u on the x window; centred on y = 0, the
    # box always holds the trace layer as its first row
    xm = grid.xmass.reshape(grid.spatial_shape[1:])[box[1:]]
    tr_l2 = float(np.sum(xm * Ub[0] * Ub[0]))
    l2 = float(np.sum(w * Ub * Ub))
    ge = _grad_energy_spatial(grid, U, box)
    A = 2.0
    trace_rhs = A ** ((1.0 + a) / 2.0) * l2 + A ** (-(1.0 - a) / 2.0) * ge
    trace_ratio = tr_l2 / trace_rhs if trace_rhs > 0 else 0.0
    sig = sobolev_exponent(d, a)
    lhs = float(np.sum(w * np.abs(Ub) ** (2.0 * sig))) ** (1.0 / sig)
    rhs = l2 / radius**2 + ge
    sob_ratio = lhs / rhs if rhs > 0 else 0.0
    return {"applicable": True, "trace_ratio": trace_ratio,
            "sobolev_ratio": sob_ratio,
            "exponents": {"sigma_tilde": trace_exponent(d, a),
                          "sigma": sig,
                          "gamma": parabolic_sobolev_exponent(d, a)}}


# ---------------------------------------------------------------------------
# Cauchy increments along the eps schedule

def sweep_cauchy_increments(grid: WeightedGrid, fields: list) -> list:
    """Distances between consecutive schedule levels in C([0,T]:L^{2,a}).

    The measured Cauchy property of the approximating family is what
    stands in for the compactness hypothesis of the oscillation-decay
    argument.
    """
    from .wied import dist_C_L2a
    return [dist_C_L2a(grid, fields[i], fields[i + 1])
            for i in range(len(fields) - 1)]
