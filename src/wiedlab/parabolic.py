"""Implicit-Euler reference solver for the limit parabolic problem.

Shares the spatial operators with the space-time assembly, so the
eps -> 0 comparison in the sweep is a pure time-structure comparison.
The combustion trace term is handled by fixed-sigma Picard inside each
step, in majorize-minimize form with the matrix M/dt + K + sigma D_tr
(sigma the model's Lipschitz constant, D_tr the y = 0 trace mass).
Because the reaction acts only on the y = 0 trace, the Picard map runs
on the trace through the capacitance matrix of that matrix, which is
diagonal in the x factor of the assembly's per-axis eigenbasis, with
direct products on that factor.  A trajectory marches in the eigenbasis:
each step hands the next its field's modal coefficients (so only the
first step transforms M u_n/dt), its exit check's stiffness product and
beta (the next entry check), and its start's trace source, from which
the next map starts at the linear extrapolation of the last two sources.
So a step costs one back transform, one stiffness product and one beta
at the result, plus trace work per Picard correction; every step keeps
its full nodal residual checks at u_n and at the result.  Subnormal
modal coefficients are flushed to 0 where a step forms them.
march_parabolic yields the layers one at a time; solve_parabolic stores
them.  The step
matrix M/dt + K is the assembly's stiffness stencil with a shifted
diagonal; it is an M-matrix, which gives the discrete maximum principle
together with the sign of beta.
"""

from __future__ import annotations

import math

import numpy as np

from .assembly import DiscreteOperators, axis_eigenbasis, build_operators
# beta_prime_eval, finalize_csr and pcg_solve are unused here; they stay
# importable because perfbench/tracing.py patches them by name
from .combustion import beta_eval, beta_prime_eval  # noqa: F401
from .grid import WeightedGrid
from .linalg import finalize_csr, pcg_solve  # noqa: F401


_TINY = np.finfo(float).tiny    # the smallest normal float64


class ParabolicError(RuntimeError):
    def __init__(self, msg, trajectory=None):
        super().__init__(msg)
        self.trajectory = trajectory  # completed prefix, if any


# the trace map of a step stops once |s_k - s_{k+1}| is at most STEP_TOL
# |M u_n/dt|, and fails after STEP_MAXIT corrections; the reference only
# stands in for the eps -> 0 limit, so no experiment sets how its map stops
STEP_TOL = 1e-11
STEP_MAXIT = 200


def _step_matrix(grid, ops):
    return ops.Ka.shifted(ops.mass / grid.dt)


def step_implicit(grid: WeightedGrid, model, Un: np.ndarray,
                  ops: DiscreteOperators | None = None,
                  A=None, carry: dict | None = None) -> np.ndarray:
    """One implicit Euler step, (M/dt + K) u + E D_tr beta(E' u) = M Un/dt,
    with dt the grid's time step.

    E injects trace values into the y = 0 layer.  The trace term is
    majorized by its quadratic surrogate of curvature sigma = lipschitz
    >= sup|beta'| (sigma = 0 without a reaction), which gives the
    fixed-matrix Picard map

        u_{k+1} = B^{-1} (M Un/dt + E s_k),   B = M/dt + K + sigma E D_tr E',
        s_k = D_tr (sigma E' u_k - beta(E' u_k))   (k >= 1).

    The reaction enters only through the trace, so the map runs there:
    E' u_{k+1} = g + G s_k with g = E' B^{-1} M Un/dt and the capacitance
    matrix G = E' B^{-1} E, which is diagonal in the x factor of the cached
    per-axis eigenbasis (AxisEigenbasis.trace_gain; the basis caches it
    per time step with resolvent).  The trace products are taken directly
    with Vx: Vx' s and Vx z in d = 1, Vx' S Vx and Vx Z Vx' in d = 2.
    The residual of u_{k+1} is exactly E (s_k - s_{k+1}), whatever s_0
    is, so the trace iterations stop once |s_k - s_{k+1}| is at most
    STEP_TOL |M Un/dt|, and the modal coefficients c = V' M u of u
    recover it with one from_modes; entries of c below the smallest
    normal float64 are set to 0 first.  Without a reaction s stays 0, so
    the first correction stops the map.  The full residual is checked at
    Un, which is returned unchanged if it passes, and at every recovered
    u; should roundoff leave the recovered u above the tolerance, the
    trace iterations go on, unless s did not change, when they would
    recover the same u again (always so without a reaction).
    ParabolicError is raised then, and when u_{STEP_MAXIT} still misses
    the tolerance; its message gives the number of corrections made.

    carry, when given, is a dict that hands one step's state to the next
    step of the same trajectory (same grid, operators and model):

      "Au", "beta_tr"  A @ Un and beta(E' Un), read by the entry check
                       when there, and left for the returned field;
      "modes"          c = V' M Un, which gives the modes of M Un/dt as
                       c/dt with no to_modes; left as the c of the
                       returned field;
      "s"              the source at the previous step's start; with it
                       the map starts from s_0 = 2 s(Un) - s(U_{n-1}), a
                       linear extrapolation that costs no beta, otherwise
                       from s_0 = s(Un); left as s(Un);
      "corrections"    left as the number of trace corrections made.

    So a step of a trajectory costs one from_modes, one stiffness product
    and one beta at the result, and per trace correction two products
    with Vx (four in d = 2) and one beta on the trace.  Without a carry
    it also makes the entry products and one to_modes.
    """
    ops = ops or build_operators(grid)
    dt = grid.dt
    A = A if A is not None else _step_matrix(grid, ops)
    un = np.asarray(Un, dtype=float).reshape(-1)
    if not np.isfinite(un).all():
        raise ParabolicError("non-finite state entering step_implicit")
    rhs0 = ops.mass * un / dt
    # np.add.reduce is np.sum's reduction without its Python wrapper
    scale = math.sqrt(np.add.reduce(rhs0 * rhs0)) or 1.0

    sigma = max(getattr(model, "lipschitz", 0.0), 0.0)
    bound = STEP_TOL * scale
    tm = ops.trace_mass

    def passes(u, Au=None, beta_tr=None):
        # the residual check of u; its products are kept in carry
        if Au is None:
            Au, beta_tr = A @ u, beta_eval(model, u[ops.trace_index])
        carry.update(Au=Au, beta_tr=beta_tr)
        resid = Au - rhs0
        resid[ops.trace_index] += tm * beta_tr
        return math.sqrt(np.add.reduce(resid * resid)) <= bound

    carry = {} if carry is None else carry
    done = passes(un, carry.get("Au"), carry.get("beta_tr"))
    s = tm * (sigma * un[ops.trace_index] - carry["beta_tr"])
    s_prev, carry["s"] = carry.get("s"), s
    if done:
        carry["corrections"] = 0
        return un.copy()
    basis = axis_eigenbasis(grid, ops, sigma)
    inv, h = basis.resolvent(1.0 / dt)
    vy0, Vx = basis.Vy[0], basis.Vx
    VxT, n, flat = Vx.T, Vx.shape[0], basis.d == 1
    c = carry.get("modes")
    w = inv * (basis.to_modes(rhs0) if c is None else c / dt)
    g = vy0 @ w.reshape(vy0.shape[0], -1)     # trace modes of E' B^{-1} M Un/dt
    if s_prev is not None:
        s = 2.0 * s - s_prev
    for k in range(1, STEP_MAXIT + 1):
        # u_k = B^{-1} (M Un/dt + E s_{k-1}): its trace, and s_k from it
        z = VxT @ s if flat else (VxT @ s.reshape(n, n) @ Vx).ravel()
        v = g + h * z
        u_tr = Vx @ v if flat else (Vx @ v.reshape(n, n) @ VxT).ravel()
        s_next = tm * (sigma * u_tr - beta_eval(model, u_tr))
        ds = s_next - s
        if math.sqrt(ds @ ds) <= bound or k == STEP_MAXIT:
            c = w + inv * (vy0[:, None] * z).ravel()
            # flush subnormal modes: without a reaction high modes decay
            # by 1/(1 + dt lam) a step into the subnormal range, where
            # arithmetic is slow; this moves no value above _TINY
            c[np.abs(c) < _TINY] = 0.0
            u = basis.from_modes(c)
            if passes(u):
                carry.update(modes=c, corrections=k)
                return u
            if np.array_equal(s_next, s):
                # a fixed point: every later correction recovers this u
                break
        s = s_next
    raise ParabolicError(
        "Picard did not converge in step_implicit "
        f"({k} correction{'s' if k > 1 else ''})")


def march_parabolic(grid: WeightedGrid, model, U0: np.ndarray,
                    ops: DiscreteOperators | None = None,
                    stats: dict | None = None):
    """Yield the layers u_1, ..., u_nt of the trajectory from U0 on the
    grid's time layers, one step_implicit call per step, each handing
    its carry to the next; only the current layer is held.

    stats, when given, receives the trace corrections of the march once
    its last layer is yielded: "corrections" (the total),
    "max_corrections" (at most STEP_MAXIT, so it shows the budget's
    margin) and "max_step", the first step that made the most (0 if no
    step made any).  A failed step raises ParabolicError, whose
    message names the step.
    """
    ops = ops or build_operators(grid)
    A = _step_matrix(grid, ops)
    u = np.asarray(U0, dtype=float).reshape(-1)
    carry = {}
    total = most = at = 0
    for n in range(1, grid.spec.nt + 1):
        try:
            u = step_implicit(grid, model, u, ops=ops, A=A, carry=carry)
        except ParabolicError as exc:
            raise ParabolicError(f"step {n} failed: {exc}") from exc
        k = carry["corrections"]
        total += k
        if k > most:
            most, at = k, n
        yield u
    if stats is not None:
        stats.update(corrections=total, max_corrections=most, max_step=at)


def solve_parabolic(grid: WeightedGrid, model, U0: np.ndarray,
                    ops: DiscreteOperators | None = None,
                    stats: dict | None = None) -> np.ndarray:
    """The trajectory of march_parabolic (same stats), with U0 as its
    first layer: shape (nt+1, n_spatial).  On a step failure the
    completed prefix is attached to the raised ParabolicError.
    """
    traj = np.zeros((grid.spec.nt + 1, grid.n_spatial))
    traj[0] = np.asarray(U0, dtype=float).reshape(-1)
    n = 0
    try:
        for n, u in enumerate(march_parabolic(grid, model, traj[0],
                                              ops=ops, stats=stats), 1):
            traj[n] = u
    except ParabolicError as exc:
        exc.trajectory = traj[: n + 1]
        raise
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
