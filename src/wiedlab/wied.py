"""Space-time solves of the regularized problem and the eps sweep.

For fixed eps the weight-normalized Euler-Lagrange system is solved with
damped Picard on the trace source (Newton optional); accepted steps never
increase the functional.  Each Picard step is one apply of the exact
inverse of its matrix, and each Newton step adds a GMRES solve on the
y = 0 trace only; no Krylov method runs on the full space.  The sweep
re-solves along a geometric eps schedule, warm-starting each level, and
measures the distance to the implicit-Euler reference in the discrete
C([0,T]: L^{2,a}) metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import (DiscreteOperators, ForcingSpec, LinearSystem,
                       assemble_linear_system, build_operators,
                       default_st_preconditioner, exp_time_weights,
                       functional_value, space_time_inverse)
from .combustion import beta_eval, beta_prime_eval, phi_eval
from .grid import WeightedGrid
# bicgstab_solve is unused here; it stays importable because
# perfbench/tracing.py patches it by name
from .linalg import bicgstab_solve  # noqa: F401
from .parabolic import (ParabolicConfig, check_counts, check_numbers,
                        solve_parabolic)


class WiedConvergenceError(RuntimeError):
    def __init__(self, msg, U=None, stats=None):
        super().__init__(msg)
        self.U = U
        self.stats = stats


class SweepError(RuntimeError):
    def __init__(self, msg, completed=None):
        super().__init__(msg)
        self.completed = completed or []


@dataclass
class WiedConfig:
    eps: float = 0.1
    outer: str = "picard"          # or "newton"
    outer_tol: float = 1e-9        # relative EL residual
    outer_maxit: int = 40
    inner_tol: float = 1e-11
    inner_maxit: int = 40000
    damping: float = 1.0

    def __post_init__(self):
        check_numbers(self, ("eps", "outer_tol", "inner_tol", "damping"))
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if self.outer not in ("picard", "newton"):
            raise ValueError(f"unknown outer scheme {self.outer!r}")
        if self.outer_tol <= 0 or self.inner_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")
        check_counts(self, ("outer_maxit", "inner_maxit"))


@dataclass
class EpsilonSchedule:
    eps0: float
    ratio: float = 0.5
    count: int = 1

    def __post_init__(self):
        check_numbers(self, ("eps0", "ratio"))
        check_counts(self, ("count",))
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"ratio must lie in (0, 1), got {self.ratio}")
        for e in self.values():
            if not 0.0 < e < 1.0:
                raise ValueError(f"schedule leaves (0, 1): eps = {e}")

    def values(self) -> list[float]:
        return [self.eps0 * self.ratio**k for k in range(self.count)]


def check_horizon(eps0: float, T: float):
    """Raise ValueError unless eps0 <= T/20, the bound that keeps the
    truncated-tail weight exp(-T/eps0) negligible."""
    if eps0 > T / 20.0 + 1e-12:
        raise ValueError(
            f"eps0 = {eps0} too large for horizon T = {T}: "
            "need eps0 <= T/20 so the truncated-tail weight stays negligible")


@dataclass
class WiedResult:
    U: np.ndarray        # (nt+1, n_spatial)
    stats: dict


def _norm(v) -> float:
    return float(np.sqrt(np.sum(v * v)))


def solve_wied(grid: WeightedGrid, model, cfg: WiedConfig, U0: np.ndarray,
               U_init: np.ndarray | None = None,
               system: LinearSystem | None = None) -> WiedResult:
    """Solve the discrete minimization for one eps.

    Returns the field with U[0] = U0 exactly, plus per-iteration stats
    (residuals, functional values, inner iteration counts, and the
    absolute residual threshold el_tol_abs actually enforced).

    With X the unknown layers, the EL residual is r(X) = L(X) + E bs(X):
    L(X) = A X - b is affine, bs the c_hat-scaled trace source and E the
    injection of trace blocks into the y = 0 columns.  Damped Picard runs
    in majorize-minimize form: bs is majorized by its quadratic surrogate
    of curvature sigma >= sup|beta'|, stab = c_hat D_tr sigma, so a full
    step can never increase the functional.  Its matrix
    A_sigma = A + E stab E' is inverted exactly (space_time_inverse), so

        Picard:  x = P (b - E bs(U) + E stab U_tr),  P = A_sigma^{-1},

    one apply, no Krylov iterations.  outer "newton" switches to guarded
    Newton once Picard has pulled the residual below 5% of its start, and
    falls back to a Picard step on rejection.  The Newton matrix is
    A_sigma + E D E' with D = c_hat D_tr (beta'(U) - sigma), solved by
    Woodbury on the trace (SpaceTimeInverse.shifted_solve, GMRES to
    inner_tol, its solution y):

        Newton:  x = (A_sigma + E D E')^{-1} (b + E (c_hat D_tr beta'(U) U_tr - bs(U))).

    Both steps leave a residual supported on the trace, known without a
    matvec:

        Picard:  L(x) = E (stab (U_tr - x_tr) - bs(U)),
        Newton:  L(x) = E (D (x_tr - y) - bs(U) - c_hat D_tr beta'(U) (x_tr - U_tr)),

    and L is affine, so a damped candidate (1 - lam) U + lam x has
    residual (1 - lam) L(U) + lam L(x) + E bs(cand).  The residual is
    therefore tracked as its trace block plus its off-trace part, which
    is the last full residual's scaled by the product of the 1 - lam.

    The functional needs no stiffness product either.  Its gradient is
    2 W r with W = diag(w_{m-1}), the exponential weight the rows of r
    are divided by, so E = Q + Pot with Q quadratic, grad Q = 2 W L and
    Hessian 2 W A, where Pot is the trace-potential sum.  Along
    d = x - U, A d = L(x) - L(U), hence

        E(U + lam d) = E(U) + lam a1 + lam^2 a2 + Pot(U + lam d) - Pot(U),
        a1 = 2 <W L(U), d>,   a2 = <W (L(x) - L(U)), d>,

    and a line-search candidate costs only trace work (beta and Phi on
    its trace).  LinearSystem.residual and functional_value run at entry
    and whenever the tracked residual passes the tolerance; only that
    full residual ends the solve.
    """
    system = system or assemble_linear_system(grid, cfg.eps)
    ops = system.ops
    nt, S = grid.spec.nt, grid.n_spatial
    U0f = np.asarray(U0, dtype=float).reshape(-1)
    if not np.all(np.isfinite(U0f)):
        raise ValueError("initial data must be finite")

    U = np.empty((nt + 1, S))
    if U_init is None:
        U[:] = U0f[None, :]
    else:
        U[:] = np.asarray(U_init, dtype=float).reshape(nt + 1, S)
        U[0] = U0f

    b = system.rhs(U0f).reshape(nt, S)
    tr = ops.trace_index
    tm = ops.trace_mass
    ctm = system.c_hat[:, None] * tm                  # (nt, n_trace)
    wgt = exp_time_weights(grid.t, cfg.eps)[:, None]  # w_{m-1} of row m
    sigma = max(getattr(model, "lipschitz", 0.0) or 0.0, 0.0)
    stab = ctm * sigma
    # full applies go through default_st_preconditioner, the trace solves
    # of the Newton step through the same cached inverse
    P = default_st_preconditioner(system, sigma)
    inv = space_time_inverse(system, sigma)

    def potential(pm):
        # the trace-potential part of E from the layer sums Phi(u_m) . D_tr
        return float(np.sum(wgt[:, 0] * (0.5 * (pm[:-1] + pm[1:]))))

    def full_state(U):
        # residual and functional of U in full: |r|, r off the trace and
        # its norm, the trace block of r, E(U) and the layer sums of Phi
        r = system.residual(model, U, U0f)
        res = _norm(r)
        rtr = r[:, tr].copy()
        r[:, tr] = 0.0
        fval = functional_value(grid, model, cfg.eps, U, U0f, ops=ops)
        return res, r, _norm(r), rtr, fval, phi_eval(model, U[:, tr]) @ tm

    stats = {"residuals": [], "functional": [], "inner_iterations": [],
             "damping": [], "iterations": 0}
    bs = ctm * beta_eval(model, U[1:, tr])
    rhs0 = b.copy()
    rhs0[:, tr] -= bs
    tol_abs = cfg.outer_tol * max(_norm(rhs0), 1e-300)
    stats["el_tol_abs"] = tol_abs
    # the off-trace part of the current residual is mu r_off, its norm off
    res, r_off, off, rtr, fval, pm = full_state(U)
    mu, full = 1.0, True

    def trial(kind):
        """Trial point x and the trace block of L(x)."""
        U_tr = U[1:, tr]
        rhs = b.copy()
        if kind == "newton":
            dbeta = ctm * beta_prime_eval(model, U_tr)
            shift = dbeta - stab
            rhs[:, tr] += dbeta * U_tr - bs
            # an unconverged GMRES still gives a usable inexact step: its
            # error enters lin exactly, and the line search judges it
            x, sol = inv.shifted_solve(P(rhs), shift, tol=cfg.inner_tol,
                                       maxit=cfg.inner_maxit, y0=U_tr)
            stats["inner_iterations"].append(sol.iterations)
            x_tr = x[:, tr]
            lin = (shift * (x_tr - sol.x.reshape(x_tr.shape)) - bs
                   - dbeta * (x_tr - U_tr))
        else:
            rhs[:, tr] += stab * U_tr - bs
            x = P(rhs).reshape(nt, S)
            stats["inner_iterations"].append(0)
            lin = stab * (U_tr - x[:, tr]) - bs
        return x, lin

    def line_search(kind):
        x, lin_x = trial(kind)
        d = x - U[1:]
        lin_U = rtr - bs
        d_tr = d[:, tr]
        s_U = float(np.sum(wgt * lin_U * d_tr))
        s_off = mu * float(np.sum(wgt * r_off * d)) if mu else 0.0
        a1 = 2.0 * (s_U + s_off)
        a2 = float(np.sum(wgt * lin_x * d_tr)) - s_U - s_off
        pot = potential(pm)
        U_tr, x_tr = U[1:, tr], x[:, tr]
        pm_c = pm.copy()
        lam = cfg.damping
        for _ in range(12):
            c_tr = (1.0 - lam) * U_tr + lam * x_tr
            pm_c[1:] = phi_eval(model, c_tr) @ tm
            fcand = fval + lam * a1 + lam * lam * a2 + (potential(pm_c) - pot)
            bs_c = ctm * beta_eval(model, c_tr)
            rtr_c = (1.0 - lam) * lin_U + lam * lin_x + bs_c
            off_c = (1.0 - lam) * off
            rcand = float(np.sqrt(off_c * off_c + np.sum(rtr_c * rtr_c)))
            # never increase the functional; never let the residual blow
            # up (Newton far from the solution can overshoot badly)
            if kind == "newton":
                res_ok = rcand <= (1.0 - 0.25 * lam) * res + tol_abs
            else:
                res_ok = rcand <= 2.0 * res + tol_abs
            if fcand <= fval * (1.0 + 1e-12) + 1e-300 and res_ok:
                cand = np.empty_like(U)
                cand[0] = U[0]
                cand[1:] = x if lam == 1.0 else (1.0 - lam) * U[1:] + lam * x
                return cand, lam, fcand, pm_c, rcand, off_c, rtr_c, bs_c
            lam *= 0.5
        return None

    for k in range(1, cfg.outer_maxit + 1):
        stats["iterations"] = k
        if res <= tol_abs and not full:
            res, r_off, off, rtr, fval, pm = full_state(U)
            mu, full = 1.0, True
        stats["residuals"].append(res)
        stats["functional"].append(fval)
        if res <= tol_abs:
            return WiedResult(U=U, stats=stats)

        kinds = ["picard"]
        if cfg.outer == "newton" and res <= 0.05 * stats["residuals"][0]:
            kinds = ["newton", "picard"]
        step = None
        for kind in kinds:
            step = line_search(kind)
            if step is not None:
                break
        if step is None:
            raise WiedConvergenceError(
                "damped step could not decrease the functional", U=U,
                stats=stats)
        U, lam, fval, pm, res, off, rtr, bs = step
        mu *= 1.0 - lam
        if mu == 0.0:
            r_off = None
        full = False
        stats["damping"].append(lam)

    if not full:
        res, r_off, off, rtr, fval, pm = full_state(U)
    stats["residuals"].append(res)
    stats["functional"].append(fval)
    if res <= tol_abs:
        return WiedResult(U=U, stats=stats)
    raise WiedConvergenceError(
        f"no convergence after {cfg.outer_maxit} outer iterations "
        f"(residual {res:g}, tol {tol_abs:g})", U=U, stats=stats)


def solve_linear_wied(grid: WeightedGrid, eps: float,
                      forcing: ForcingSpec | None, U0: np.ndarray,
                      inner_tol: float = 1e-11) -> np.ndarray:
    """Single linear solve of the regularized problem with forcings F, f:
    one apply of the exact inverse of A, then a check that the relative
    residual |system.residual| / |b| is at most inner_tol
    (WiedConvergenceError otherwise)."""
    system = assemble_linear_system(grid, eps, forcing=forcing)
    nt, S = grid.spec.nt, grid.n_spatial
    U0f = np.asarray(U0, dtype=float).reshape(-1)
    b = system.rhs(U0f)
    U = np.empty((nt + 1, S))
    U[0] = U0f
    U[1:] = default_st_preconditioner(system)(b).reshape(nt, S)
    rel = _norm(system.residual(None, U)) / (_norm(b) or 1.0)
    if rel > inner_tol:
        raise WiedConvergenceError(
            f"linear solve failed: relative residual {rel:g} above "
            f"inner_tol {inner_tol:g}")
    return U


def dist_C_L2a(grid: WeightedGrid, U: np.ndarray, V: np.ndarray) -> float:
    """max over time layers of the spatial L^{2,a} distance (both-sides weight)."""
    Ul = np.asarray(U, dtype=float).reshape(grid.spec.nt + 1, -1)
    Vl = np.asarray(V, dtype=float).reshape(grid.spec.nt + 1, -1)
    d2 = 2.0 * ((Ul - Vl) ** 2 @ grid.node_mass)
    return float(np.sqrt(np.max(d2)))


@dataclass
class SweepLevel:
    eps: float
    U: np.ndarray
    iterations: int
    el_residual: float
    dist_to_ref: float
    stats: dict = field(default_factory=dict)


@dataclass
class SweepResult:
    levels: list
    reference: np.ndarray     # parabolic trajectory on the same layers
    monotone: bool            # distances decreased at every level

    def distances(self) -> list[float]:
        return [lv.dist_to_ref for lv in self.levels]


def sweep_epsilon(grid: WeightedGrid, model, schedule: EpsilonSchedule,
                  U0: np.ndarray, cfg: WiedConfig | None = None,
                  parabolic_cfg: ParabolicConfig | None = None,
                  reference: np.ndarray | None = None,
                  ops: DiscreteOperators | None = None) -> SweepResult:
    """Solve each eps level (warm-started) and compare to the reference.

    Raises SweepError carrying the completed levels if some level fails.
    """
    check_horizon(schedule.eps0, grid.spec.T)
    cfg = cfg or WiedConfig(eps=schedule.eps0)
    ops = ops or build_operators(grid)
    if reference is None:
        reference = solve_parabolic(grid, model,
                                    parabolic_cfg or ParabolicConfig(), U0,
                                    ops=ops)
    levels: list[SweepLevel] = []
    warm = None
    for eps in schedule.values():
        lcfg = replace(cfg, eps=eps)
        system = assemble_linear_system(grid, eps, ops=ops)
        try:
            result = solve_wied(grid, model, lcfg, U0, U_init=warm,
                                system=system)
        except WiedConvergenceError as exc:
            raise SweepError(f"level eps = {eps} failed: {exc}",
                             completed=levels) from exc
        warm = result.U
        levels.append(SweepLevel(
            eps=eps, U=result.U,
            iterations=result.stats["iterations"],
            el_residual=result.stats["residuals"][-1],
            dist_to_ref=dist_C_L2a(grid, result.U, reference),
            stats=result.stats))
    dists = [lv.dist_to_ref for lv in levels]
    monotone = all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
    return SweepResult(levels=levels, reference=reference, monotone=monotone)
