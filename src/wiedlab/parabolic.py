"""Implicit-Euler reference solver for the limit parabolic problem.

Shares the spatial operators with the space-time assembly, so the
eps -> 0 comparison in the sweep is a pure time-structure comparison.
The combustion trace term is handled by fixed-sigma Picard inside each
step, in majorize-minimize form with the matrix M/dt + K + sigma D_tr
(sigma the model's Lipschitz constant, D_tr the y = 0 trace mass).
Because the reaction acts only on the y = 0 trace, the Picard map runs
on the trace through the capacitance matrix of that matrix, which is
diagonal in the x factor of the assembly's per-axis eigenbasis: a step
costs one full transform pair and one full residual, whatever the
number of Picard iterations, because a trajectory hands each step's exit
check to the next step's entry check.  The step matrix M/dt + K is the
assembly's stiffness stencil with a shifted diagonal; it is an M-matrix,
which gives the discrete maximum principle together with the sign of
beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import DiscreteOperators, axis_eigenbasis, build_operators
# beta_prime_eval, finalize_csr and pcg_solve are unused here; they stay
# importable because perfbench/tracing.py patches them by name
from .combustion import beta_eval, beta_prime_eval  # noqa: F401
from .grid import WeightedGrid
from .linalg import finalize_csr, pcg_solve  # noqa: F401


class ParabolicError(RuntimeError):
    def __init__(self, msg, trajectory=None):
        super().__init__(msg)
        self.trajectory = trajectory  # completed prefix, if any


@dataclass
class ParabolicConfig:
    """Settings of the implicit-Euler reference (step_implicit).

    picard_tol and picard_maxit bound the trace Picard map of a reaction
    step; linear_tol and linear_maxit are their counterparts without a
    reaction, where the map is exact after one correction, so
    linear_maxit only caps a loop that ends at its first failed recovery.
    It stays accepted so that configs which set it keep loading.
    """

    dt: float | None = None      # None: step on the grid's time layers
    picard_tol: float = 1e-11
    picard_maxit: int = 200
    linear_tol: float = 1e-12
    linear_maxit: int = 5000

    def __post_init__(self):
        check_numbers(self, ("picard_tol", "linear_tol")
                      + (("dt",) if self.dt is not None else ()))
        if self.dt is not None and not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.picard_tol <= 0 or self.linear_tol <= 0:
            raise ValueError("tolerances must be positive")
        check_counts(self, ("picard_maxit", "linear_maxit"))


def check_numbers(cfg, names):
    """Raise ValueError unless each named field of cfg is a finite real
    number; a bool (a JSON true or false) is not one."""
    for name in names:
        v = getattr(cfg, name)
        if isinstance(v, bool) or not isinstance(v, (int, float, np.number)) \
                or not np.isfinite(v):
            raise ValueError(f"{name} must be a finite number, got {v!r}")


def check_counts(cfg, names):
    """Raise ValueError unless each named field of cfg is an int >= 1."""
    for name in names:
        n = getattr(cfg, name)
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) \
                or n < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {n!r}")


def check_time_step(cfg: ParabolicConfig, grid: WeightedGrid) -> float:
    """The step of cfg (the grid's when cfg.dt is None); ValueError unless
    it is the grid time step, so trajectories live on the WIED layers."""
    dt = cfg.dt if cfg.dt is not None else grid.dt
    if abs(dt - grid.dt) > 1e-12 * grid.dt:
        raise ValueError(
            "cfg.dt must match the grid time step so trajectories live on "
            f"the WIED layers (got {dt}, grid {grid.dt})")
    return dt


def _step_matrix(grid, ops, dt):
    return ops.Ka.shifted(ops.mass / dt)


def step_implicit(grid: WeightedGrid, model, cfg: ParabolicConfig,
                  Un: np.ndarray, ops: DiscreteOperators | None = None,
                  dt: float | None = None, A=None,
                  carry: dict | None = None) -> np.ndarray:
    """One implicit Euler step, (M/dt + K) u + E D_tr beta(E' u) = M Un/dt.

    E injects trace values into the y = 0 layer.  The trace term is
    majorized by its quadratic surrogate of curvature sigma = lipschitz
    >= sup|beta'| (sigma = 0 without a reaction), which gives the
    fixed-matrix Picard map, u_0 = Un,

        u_{k+1} = B^{-1} (M Un/dt + E s_k),   B = M/dt + K + sigma E D_tr E',
        s_k = D_tr (sigma E' u_k - beta(E' u_k)).

    The reaction enters only through the trace, so the map runs there:
    E' u_{k+1} = g + G s_k with g = E' B^{-1} M Un/dt and the capacitance
    matrix G = E' B^{-1} E, which is diagonal in the x factor of the cached
    per-axis eigenbasis (AxisEigenbasis.trace_gain; the basis caches it
    per time step with resolvent).  The residual of
    u_{k+1} is exactly E (s_k - s_{k+1}), so the trace iterations stop
    once |s_k - s_{k+1}| is at most the tolerance relative to |M Un/dt|
    (picard_tol, or linear_tol without a reaction, where s = 0), and one
    transform pair recovers u from the last s.  The full residual is
    checked at Un, which is returned unchanged if it passes, and at every
    recovered u; should roundoff leave the recovered u above the
    tolerance, the trace iterations go on, unless s did not change, when
    they would recover the same u again.  ParabolicError is raised then,
    and when u_{picard_maxit} (u_{linear_maxit}) still misses the
    tolerance; its message gives the number of corrections made.

    carry, when given, is a dict that hands the last check's products on:
    the entry check reads "Au" = A @ Un and "beta_tr" = beta(E' Un) from
    it when they are there (a trajectory's previous step left them for
    the Un it returned), and the step leaves those of the returned field.
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
    bound = tol * scale

    def passes(u, Au=None, beta_tr=None):
        # the residual check of u; its products are kept in carry
        if Au is None:
            Au, beta_tr = A @ u, beta_eval(model, u[ops.trace_index])
        carry.update(Au=Au, beta_tr=beta_tr)
        resid = Au - rhs0
        resid[ops.trace_index] += ops.trace_mass * beta_tr
        return np.sqrt(np.sum(resid * resid)) <= bound

    carry = {} if carry is None else carry
    if passes(un, carry.get("Au"), carry.get("beta_tr")):
        return un.copy()
    u_tr = un[ops.trace_index]
    beta_tr = carry["beta_tr"]
    basis = axis_eigenbasis(grid, ops, sigma)
    inv, h = basis.resolvent(1.0 / dt)
    vy0 = basis.Vy[0]
    w = inv * basis.to_modes(rhs0)            # V' B^{-1} M Un/dt
    g = vy0 @ w.reshape(vy0.shape[0], -1)     # trace modes of E' B^{-1} M Un/dt
    s = ops.trace_mass * (sigma * u_tr - beta_tr)
    for k in range(1, maxit + 1):
        # u_k = B^{-1} (M Un/dt + E s_{k-1}): its trace, and s_k from it
        z = basis.to_trace_modes(s)
        u_tr = basis.from_trace_modes(g + h * z)
        s_next = ops.trace_mass * (sigma * u_tr - beta_eval(model, u_tr))
        ds = s_next - s
        if np.sqrt(ds @ ds) <= bound or k == maxit:
            u = basis.from_modes(w + inv * np.outer(vy0, z).ravel())
            if passes(u):
                return u
            if np.array_equal(s_next, s):
                # a fixed point: every later correction recovers this u
                break
        s = s_next
    raise ParabolicError(
        f"{'linear solve' if linear else 'Picard'} did not converge in "
        f"step_implicit ({k} correction{'s' if k > 1 else ''})")


def solve_parabolic(grid: WeightedGrid, model, cfg: ParabolicConfig,
                    U0: np.ndarray,
                    ops: DiscreteOperators | None = None) -> np.ndarray:
    """March the trajectory on the grid's time layers.

    Returns shape (nt+1, n_spatial).  On a step failure the completed
    prefix is attached to the raised ParabolicError.
    """
    ops = ops or build_operators(grid)
    dt = check_time_step(cfg, grid)
    A = _step_matrix(grid, ops, dt)
    traj = np.zeros((grid.spec.nt + 1, grid.n_spatial))
    traj[0] = np.asarray(U0, dtype=float).reshape(-1)
    carry = {}
    for n in range(grid.spec.nt):
        try:
            traj[n + 1] = step_implicit(grid, model, cfg, traj[n],
                                        ops=ops, dt=dt, A=A, carry=carry)
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
