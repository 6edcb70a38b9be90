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
first step transforms M u_n/dt), the next entry check (its exit check's
product A u + E D_tr beta(E' u) gives both residuals), and the trace
sources at the starts of the last steps, from which the next map starts
at their cubic extrapolation.  So a step costs one back transform, one
stiffness product and one beta at the result, plus trace work per
Picard correction; every step keeps its full nodal residual checks at
u_n and at the result.  Subnormal
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
from .combustion import beta_eval
from .grid import WeightedGrid
# beta_prime_eval, finalize_csr and pcg_solve are unused here; they stay
# importable because perfbench/tracing.py patches them by name
from .combustion import beta_prime_eval  # noqa: F401
from .linalg import finalize_csr, pcg_solve  # noqa: F401


_TINY = np.finfo(float).tiny    # the smallest normal float64


class ParabolicError(RuntimeError):
    def __init__(self, msg, completed: int = 0):
        super().__init__(msg)
        self.completed = completed  # the steps done before the failure


# the trace map of a step stops once |s_k - s_{k+1}| is at most STEP_TOL
# |M u_n/dt|, and fails after STEP_MAXIT corrections; the reference only
# stands in for the eps -> 0 limit, so no experiment sets how its map stops
STEP_TOL = 1e-11
STEP_MAXIT = 200


def _step_matrix(grid, ops):
    return ops.Ka.shifted(ops.mass / grid.dt)


def _norm(r):
    # np.add.reduce is np.sum's reduction without its Python wrapper
    return math.sqrt(np.add.reduce(r * r))


def _lhs(A, model, tm, u):
    # the step's left-hand side q = A u + E D_tr beta(E' u), and beta(E' u):
    # the residual of u is q - M u_n/dt.  The y = 0 block comes first, so
    # E' u = u[:n_trace]
    beta_tr = beta_eval(model, u[:tm.size])
    q = A @ u
    q[:tm.size] += tm * beta_tr
    return q, beta_tr


def _enter(carry, mass, dt, u, q, beta_tr):
    # the entry check of a step from u, kept in carry: its right-hand side
    # M u/dt, its bound and its verdict, from q = _lhs(u) (overwritten)
    rhs = mass * u / dt
    bound = STEP_TOL * (_norm(rhs) or 1.0)
    q -= rhs
    carry.update(rhs=rhs, bound=bound, done=_norm(q) <= bound,
                 beta_tr=beta_tr)


def _extrapolate(hist):
    # the polynomial through the entry sources s(u_n), s(u_{n-1}), ...
    # (newest first) at the step's end: cubic from four, down to s(u_n)
    if len(hist) == 4:
        return 4.0 * (hist[0] + hist[2]) - 6.0 * hist[1] - hist[3]
    if len(hist) == 3:
        return 3.0 * (hist[0] - hist[1]) + hist[2]
    if len(hist) == 2:
        return 2.0 * hist[0] - hist[1]
    return hist[0]


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

      "rhs", "bound",  M Un/dt, STEP_TOL |M Un/dt| and the verdict of the
      "done"           entry check at Un, read in place of the entry
                       products; left for the returned field, formed
                       from the exit check's q = A u + E D_tr beta(E' u),
                       which gives both residuals, q - M Un/dt and
                       q - M u/dt.  A finite carried bound leaves no
                       entry of Un non-finite, so Un is not scanned;
      "beta_tr"        beta(E' Un); left as beta(E' u);
      "modes"          c = V' M Un, which gives the modes of M Un/dt as
                       c/dt with no to_modes; left as the c of the
                       returned field;
      "s"              the entry sources of the last steps, newest first:
                       with s(Un) in front the map starts from their
                       polynomial extrapolation, 4 s(Un) - 6 s(U_{n-1})
                       + 4 s(U_{n-2}) - s(U_{n-3}) (cubic), from the
                       quadratic or linear one while there are fewer,
                       and from s(Un) alone without a history; left with
                       s(Un) in front, at most four, which costs no beta;
      "resolvent"      (basis, inv, h): the eigenbasis and its resolvent
                       at 1/dt, looked up once per trajectory;
      "corrections"    left as the number of trace corrections made.

    So a step of a trajectory costs one from_modes, one stiffness product
    and one beta at the result, and per trace correction two products
    with Vx (four in d = 2) and one beta on the trace.  Without a carry
    it also scans Un and makes the entry products and one to_modes.
    """
    ops = ops or build_operators(grid)
    dt = grid.dt
    A = A if A is not None else _step_matrix(grid, ops)
    un = np.asarray(Un, dtype=float).reshape(-1)
    carry = {} if carry is None else carry
    sigma = max(model.lipschitz, 0.0)
    tm = ops.trace_mass
    bound = carry.get("bound")
    # a finite carried bound STEP_TOL |M Un/dt| leaves no entry of Un
    # non-finite
    if (bound is None or not math.isfinite(bound)) and not np.isfinite(
            un).all():
        raise ParabolicError("non-finite state entering step_implicit")
    if bound is None:
        assert np.array_equal(ops.trace_index, np.arange(tm.size))
        _enter(carry, ops.mass, dt, un, *_lhs(A, model, tm, un))
    rhs, bound = carry["rhs"], carry["bound"]
    hist = carry["s"] = ((tm * (sigma * un[:tm.size] - carry["beta_tr"]),)
                         + carry.get("s", ())[:3])
    if carry["done"]:
        carry["corrections"] = 0
        return un.copy()
    if "resolvent" not in carry:
        basis = axis_eigenbasis(grid, ops, sigma)
        carry["resolvent"] = (basis,) + basis.resolvent(1.0 / dt)
    basis, inv, h = carry["resolvent"]
    vy0, Vx = basis.Vy[0], basis.Vx
    VxT, n, flat = Vx.T, Vx.shape[0], basis.d == 1
    c = carry.get("modes")
    w = inv * (basis.to_modes(rhs) if c is None else c / dt)
    g = vy0 @ w.reshape(vy0.shape[0], -1)     # trace modes of E' B^{-1} M Un/dt
    s = _extrapolate(hist)
    for k in range(1, STEP_MAXIT + 1):
        # u_k = B^{-1} (M Un/dt + E s_{k-1}): its trace, and s_k from it
        z = VxT @ s if flat else (VxT @ s.reshape(n, n) @ Vx).ravel()
        v = g + h * z
        u_tr = Vx @ v if flat else (Vx @ v.reshape(n, n) @ VxT).ravel()
        s_next = tm * (sigma * u_tr - beta_eval(model, u_tr))
        ds = s_next - s
        if math.sqrt(ds @ ds) <= bound or k == STEP_MAXIT:
            c = np.multiply.outer(vy0, z).ravel()
            c *= inv
            c += w
            # flush subnormal modes: without a reaction high modes decay
            # by 1/(1 + dt lam) a step into the subnormal range, where
            # arithmetic is slow; this moves no value above _TINY
            c[np.abs(c) < _TINY] = 0.0
            u = basis.from_modes(c)
            q, beta_tr = _lhs(A, model, tm, u)
            if _norm(q - rhs) <= bound:
                _enter(carry, ops.mass, dt, u, q, beta_tr)
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
    message names the step and whose completed counts the steps before
    it.
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
            raise ParabolicError(f"step {n} failed: {exc}",
                                 completed=n - 1) from exc
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
    """The trajectory of march_parabolic (same stats and errors), with U0
    as its first layer: shape (nt+1, n_spatial).
    """
    traj = np.zeros((grid.spec.nt + 1, grid.n_spatial))
    traj[0] = np.asarray(U0, dtype=float).reshape(-1)
    for n, u in enumerate(march_parabolic(grid, model, traj[0], ops=ops,
                                          stats=stats), 1):
        traj[n] = u
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
