"""Implicit-Euler reference solver for the limit parabolic problem.

Shares the spatial operators with the space-time assembly, so the
eps -> 0 comparison in the sweep is a pure time-structure comparison.
The combustion trace term is handled by fixed-sigma Picard inside each
step, in majorize-minimize form: every iteration is one exact direct
solve with M/dt + K + sigma D_tr in the per-axis eigenbasis of the
assembly (sigma the model's Lipschitz constant, D_tr the y = 0 trace
mass).  The scheme matrix M/dt + K is an M-matrix, which gives the
discrete maximum principle together with the sign of beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import DiscreteOperators, axis_eigenbasis, build_operators
# beta_prime_eval and pcg_solve are unused here; they stay importable
# because perfbench/tracing.py patches them by name
from .combustion import beta_eval, beta_prime_eval  # noqa: F401
from .grid import WeightedGrid
from .linalg import finalize_csr, pcg_solve  # noqa: F401


class ParabolicError(RuntimeError):
    def __init__(self, msg, trajectory=None):
        super().__init__(msg)
        self.trajectory = trajectory  # completed prefix, if any


@dataclass
class ParabolicConfig:
    dt: float | None = None      # None: step on the grid's time layers
    picard_tol: float = 1e-11
    picard_maxit: int = 200
    linear_tol: float = 1e-12
    linear_maxit: int = 5000

    def __post_init__(self):
        if self.dt is not None and not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.picard_tol <= 0 or self.linear_tol <= 0:
            raise ValueError("tolerances must be positive")


def _step_matrix(grid, ops, dt):
    return finalize_csr(sp.diags(ops.mass / dt) + ops.Ka)


def step_implicit(grid: WeightedGrid, model, cfg: ParabolicConfig,
                  Un: np.ndarray, ops: DiscreteOperators | None = None,
                  dt: float | None = None, A=None) -> np.ndarray:
    """One implicit Euler step, (M/dt + K) u + D_tr beta(u) = M Un/dt.

    The trace term is majorized by its quadratic surrogate of curvature
    sigma = lipschitz >= sup|beta'| (sigma = 0 without a reaction), which
    gives the fixed-matrix Picard iteration

        (M/dt + K + sigma D_tr) (u_{k+1} - u_k) = -residual(u_k),   u_0 = Un,

    each correction one exact direct solve in the cached per-axis
    eigenbasis.  It stops once the residual is at most the tolerance
    relative to |M Un/dt| (picard_tol, or linear_tol without a reaction,
    where one correction reaches roundoff), and raises ParabolicError
    after picard_maxit (linear_maxit) corrections.
    """
    ops = ops or build_operators(grid)
    dt = dt if dt is not None else (cfg.dt if cfg.dt is not None else grid.dt)
    A = A if A is not None else _step_matrix(grid, ops, dt)
    un = np.asarray(Un, dtype=float).reshape(-1)
    if not np.all(np.isfinite(un)):
        raise ParabolicError("non-finite state entering step_implicit")
    rhs0 = ops.mass * un / dt
    scale = float(np.sqrt(np.sum(rhs0 * rhs0))) or 1.0

    linear = model is None or getattr(model, "kind", "zero") == "zero"
    if linear:
        sigma, tol, maxit = 0.0, cfg.linear_tol, cfg.linear_maxit
    else:
        sigma = max(getattr(model, "lipschitz", 0.0), 0.0)
        tol, maxit = cfg.picard_tol, cfg.picard_maxit
    basis = axis_eigenbasis(grid, ops, sigma)
    inv = 1.0 / (1.0 / dt + basis.lam)

    u = un.copy()
    for k in range(maxit + 1):
        resid = A @ u - rhs0
        if not linear:
            resid += ops.inject_trace(
                ops.trace_mass * beta_eval(model, u[ops.trace_index]))
        if np.sqrt(np.sum(resid * resid)) <= tol * scale:
            return u
        if k < maxit:
            u = u - basis.from_modes(inv * basis.to_modes(resid))
    raise ParabolicError(
        f"{'linear solve' if linear else 'Picard'} did not converge in "
        f"step_implicit ({maxit} corrections)")


def solve_parabolic(grid: WeightedGrid, model, cfg: ParabolicConfig,
                    U0: np.ndarray) -> np.ndarray:
    """March the trajectory on the grid's time layers.

    Returns shape (nt+1, n_spatial).  On a step failure the completed
    prefix is attached to the raised ParabolicError.
    """
    ops = build_operators(grid)
    dt = cfg.dt if cfg.dt is not None else grid.dt
    if abs(dt - grid.dt) > 1e-12 * grid.dt:
        raise ValueError(
            "cfg.dt must match the grid time step so trajectories live on "
            f"the WIED layers (got {dt}, grid {grid.dt})")
    A = _step_matrix(grid, ops, dt)
    traj = np.zeros((grid.spec.nt + 1, grid.n_spatial))
    traj[0] = np.asarray(U0, dtype=float).reshape(-1)
    for n in range(grid.spec.nt):
        try:
            traj[n + 1] = step_implicit(grid, model, cfg, traj[n],
                                        ops=ops, dt=dt, A=A)
        except ParabolicError as exc:
            raise ParabolicError(
                f"step {n + 1} failed: {exc}", trajectory=traj[: n + 1]
            ) from exc
    return traj


def analytic_heat_oracle(X, t, width: float):
    """Exact self-similar heat evolution of the Gaussian exp(-|X|^2/(4w)).

    Valid test oracle only for a = 0, beta = 0 where even reflection in y
    gives the free heat equation in d+1 variables.  X has shape (..., d+1).
    """
    X = np.asarray(X, dtype=float)
    w = float(width)
    r2 = np.sum(X * X, axis=-1)
    dim = X.shape[-1]
    return (1.0 + t / w) ** (-dim / 2.0) * np.exp(-r2 / (4.0 * (w + t)))
