"""Space-time solves of the regularized problem and the eps sweep.

For fixed eps the weight-normalized Euler-Lagrange system is solved with
damped Picard on the trace source (Newton optional); accepted steps never
increase the functional.  The sweep re-solves along a geometric eps
schedule, warm-starting each level, and measures the distance to the
implicit-Euler reference in the discrete C([0,T]: L^{2,a}) metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import (DiscreteOperators, ForcingSpec, LinearSystem,
                       assemble_linear_system, build_operators,
                       default_st_preconditioner, functional_value)
from .grid import WeightedGrid
from .linalg import bicgstab_solve
from .parabolic import ParabolicConfig, check_counts, solve_parabolic


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
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"ratio must lie in (0, 1), got {self.ratio}")
        if self.count < 1:
            raise ValueError("count must be >= 1")
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

    b = system.rhs(U0f)
    tr = ops.trace_index

    def minus_source(U):
        # b - beta_source(U), the source taken off the trace columns only
        rhs = b.copy()
        rhs.reshape(nt, S)[:, tr] -= system.beta_source(model, U)
        return rhs

    stats = {"residuals": [], "functional": [], "inner_iterations": [],
             "damping": [], "iterations": 0}
    fval = functional_value(grid, model, cfg.eps, U, U0f, ops=ops)
    ref = max(_norm(minus_source(U)), 1e-300)
    tol_abs = cfg.outer_tol * ref
    stats["el_tol_abs"] = tol_abs

    # Damped Picard runs in majorize-minimize form: the trace potential is
    # replaced by its quadratic surrogate with curvature sigma >= sup|beta'|,
    # so a full step can never increase the functional.  The stabilized
    # matrix is assembled once per level, and the preconditioner inverts it
    # exactly.  outer "newton" switches to guarded Newton once Picard has
    # pulled the residual down, and falls back to a Picard step on rejection.
    sigma = max(getattr(model, "lipschitz", 0.0) or 0.0, 0.0)
    if sigma > 0.0:
        stab = system.c_hat[:, None] * ops.trace_mass * sigma   # (nt, n_trace)
        A_pic = system.plus_diagonal(stab)
    else:
        stab = None
        A_pic = system.A
    prec = default_st_preconditioner(system, sigma)

    def try_step(kind, r, res):
        if kind == "newton":
            A = system.newton_matrix(model, U)
            rhs = A @ U[1:].ravel() - r
        else:
            A = A_pic
            rhs = minus_source(U)
            if stab is not None:
                rhs.reshape(nt, S)[:, tr] += stab * U[1:, tr]
        sol = bicgstab_solve(A, rhs, precond=prec, tol=cfg.inner_tol,
                             maxit=cfg.inner_maxit, x0=U[1:].ravel())
        stats["inner_iterations"].append(sol.iterations)
        if not sol.converged:
            raise WiedConvergenceError(
                f"inner bicgstab failed ({kind}): "
                f"{sol.breakdown or 'maxit'} (residual {sol.final_residual:g})",
                U=U, stats=stats)
        lam = cfg.damping
        for _ in range(12):
            cand = U.copy()
            cand[1:] = (1.0 - lam) * U[1:] + lam * sol.x.reshape(nt, S)
            fcand = functional_value(grid, model, cfg.eps, cand, U0f, ops=ops)
            rcand = _norm(system.residual(model, cand, U0f))
            # never increase the functional; never let the residual blow
            # up (Newton far from the solution can overshoot badly)
            if kind == "newton":
                res_ok = rcand <= (1.0 - 0.25 * lam) * res + tol_abs
            else:
                res_ok = rcand <= 2.0 * res + tol_abs
            if fcand <= fval * (1.0 + 1e-12) + 1e-300 and res_ok:
                return cand, fcand, lam
            lam *= 0.5
        return None

    for k in range(1, cfg.outer_maxit + 1):
        stats["iterations"] = k
        r = system.residual(model, U, U0f).ravel()
        res = _norm(r)
        stats["residuals"].append(res)
        stats["functional"].append(fval)
        if res <= tol_abs:
            return WiedResult(U=U, stats=stats)

        kinds = ["picard"]
        if cfg.outer == "newton" and res <= 0.05 * stats["residuals"][0]:
            kinds = ["newton", "picard"]
        step = None
        for kind in kinds:
            step = try_step(kind, r, res)
            if step is not None:
                break
        if step is None:
            if res <= tol_abs:
                return WiedResult(U=U, stats=stats)
            raise WiedConvergenceError(
                "damped step could not decrease the functional", U=U,
                stats=stats)
        U, fval, lam = step[0], step[1], step[2]
        stats["damping"].append(lam)

    r = system.residual(model, U, U0f).ravel()
    res = _norm(r)
    stats["residuals"].append(res)
    stats["functional"].append(fval)
    if res <= tol_abs:
        return WiedResult(U=U, stats=stats)
    raise WiedConvergenceError(
        f"no convergence after {cfg.outer_maxit} outer iterations "
        f"(residual {res:g}, tol {tol_abs:g})", U=U, stats=stats)


def solve_linear_wied(grid: WeightedGrid, eps: float,
                      forcing: ForcingSpec | None, U0: np.ndarray,
                      inner_tol: float = 1e-11, inner_maxit: int = 40000,
                      U_init: np.ndarray | None = None) -> np.ndarray:
    """Single linear solve of the regularized problem with forcings F, f."""
    system = assemble_linear_system(grid, eps, forcing=forcing)
    nt, S = grid.spec.nt, grid.n_spatial
    U0f = np.asarray(U0, dtype=float).reshape(-1)
    x0 = (np.repeat(U0f[None, :], nt, axis=0).ravel()
          if U_init is None else np.asarray(U_init).reshape(nt + 1, S)[1:].ravel())
    sol = bicgstab_solve(system.A, system.rhs(U0f),
                         precond=default_st_preconditioner(system),
                         tol=inner_tol, maxit=inner_maxit, x0=x0)
    if not sol.converged:
        raise WiedConvergenceError(
            f"linear solve failed: {sol.breakdown or 'maxit'} "
            f"(residual {sol.final_residual:g})")
    U = np.empty((nt + 1, S))
    U[0] = U0f
    U[1:] = sol.x.reshape(nt, S)
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

    def report_rows(self) -> list[dict]:
        return [
            {"eps": lv.eps, "iters": lv.iterations,
             "el_residual": lv.el_residual, "dist_to_ref": lv.dist_to_ref}
            for lv in self.levels
        ]


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
