"""Discrete functional, Euler-Lagrange residual and sparse operators.

The minimized quantity is, per time cell n with exact exponential weight
w_n = exp(-t_n/eps) - exp(-t_{n+1}/eps),

    E(U) = sum_n w_n [ eps |D_t U|_M^2 + (S_n + S_{n+1})/2 + (P_n + P_{n+1})/2 ]

with S_m = U_m' K U_m the weighted Dirichlet energy and P_m the trace
potential sum.  The solved linear system is the gradient with row m
divided by 2 w_{m-1}: with rho = exp(-dt/eps) the interior rows read

    (eps/dt^2) M (-rho U^{m+1} + (1+rho) U^m - U^{m-1})
        + (1+rho)/2 (K U^m + trace source) = rhs_m,

the terminal row carries the natural condition D_t U(T) = 0, and the
initial layer is eliminated into the right-hand side.  Dividing out the
exponential weight is what keeps the system well-scaled for T >> eps.

The residual is formed layer by layer from the stiffness products
Ka U_m (stencil_residual), so no space-time matrix is assembled on the
solver path.  The Picard and Newton matrices differ from A only on the
y = 0 trace diagonal, so the solvers apply the exact inverse of the
Picard matrix (SpaceTimeInverse) and treat the Newton difference on the
trace instead of assembling either.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .combustion import beta_eval, beta_prime_eval, phi_eval
from .grid import WeightedGrid
from .linalg import finalize_csr, gmres_solve


@dataclass
class DiscreteOperators:
    """Weighted mass/stiffness and the y=0 trace maps, all half-space."""

    mass: np.ndarray          # spatial nodal |y|^a masses, flattened
    Ka: sp.csr_matrix         # weighted stiffness, SPSD, Ka @ const = 0
    trace_index: np.ndarray   # flat spatial indices of the y = 0 layer
    trace_mass: np.ndarray    # x-volumes attached to trace nodes
    # sigma -> AxisEigenbasis of K + sigma D_tr, filled by axis_eigenbasis
    bases: dict = field(default_factory=dict, repr=False)

    @property
    def Ma(self) -> sp.csr_matrix:
        return sp.diags(self.mass).tocsr()


def _axis_stiffness(grid: WeightedGrid):
    """1-D stiffness matrices (Kx1, Ky1): uniform x, weighted graded y."""
    spec = grid.spec
    Dy = sp.diags([-np.ones(spec.ny), np.ones(spec.ny)], [0, 1],
                  shape=(spec.ny, spec.ny + 1))
    Ky1 = Dy.T @ sp.diags(grid.face_trans_y) @ Dy
    Dx = sp.diags([-np.ones(spec.nx), np.ones(spec.nx)], [0, 1],
                  shape=(spec.nx, spec.nx + 1))
    Kx1 = Dx.T @ sp.diags(np.full(spec.nx, 1.0 / grid.hx)) @ Dx
    return Kx1, Ky1


def build_operators(grid: WeightedGrid) -> DiscreteOperators:
    spec = grid.spec
    xv = grid.xvol
    xmass = grid.xmass
    Kx1, Ky1 = _axis_stiffness(grid)

    if spec.d == 1:
        K = sp.kron(Ky1, sp.diags(xv)) + sp.kron(sp.diags(grid.yvol), Kx1)
    else:
        Kxx = sp.kron(Kx1, sp.diags(xv)) + sp.kron(sp.diags(xv), Kx1)
        K = sp.kron(Ky1, sp.diags(xmass)) + sp.kron(sp.diags(grid.yvol), Kxx)

    trace_index = np.arange(xmass.shape[0])  # y-major layout: y=0 block first
    return DiscreteOperators(mass=grid.node_mass, Ka=finalize_csr(K),
                             trace_index=trace_index, trace_mass=xmass)


def _mass_eigh(K: np.ndarray, vol: np.ndarray):
    """Eigenpairs of K v = lam diag(vol) v, normalized so V' diag(vol) V = I."""
    s = 1.0 / np.sqrt(vol)
    lam, Q = np.linalg.eigh(s[:, None] * K * s[None, :])
    return np.maximum(lam, 0.0), s[:, None] * Q


@dataclass
class AxisEigenbasis:
    """Fast diagonalization of K + sigma D_tr against M, factored per axis.

    K, M and the y = 0 trace mass D_tr are Kronecker sums and products of
    1-D operators, K + sigma D_tr = (Ky1 + sigma e0 e0') (x) Mx + My (x) Kx
    with Kx the Kronecker sum of Kx1 over the d x axes.  So with the 1-D
    generalized eigenvectors

        Vy' (Ky1 + sigma e0 e0') Vy = diag(lam_y),   Vy' diag(yvol) Vy = I,
        Vx' Kx1 Vx = diag(lam_x),                     Vx' diag(xvol) Vx = I,

    V = Vy (x) Vx [(x) Vx] satisfies V' M V = I and V' (K + sigma D_tr) V =
    diag(lam), lam the Kronecker sum of the axis eigenvalues.  Hence
    (alpha M + K + sigma D_tr)^{-1} = V diag(1 / (alpha + lam)) V'.
    """

    Vy: np.ndarray
    Vx: np.ndarray
    lam: np.ndarray   # (n_spatial,), flattened y-major like the nodes
    d: int

    def _apply(self, Ay: np.ndarray | None, Ax: np.ndarray,
               r: np.ndarray) -> np.ndarray:
        # (Ay (x) Ax [(x) Ax]) applied to each row of r, shape (..., S);
        # Ay None: the x factor alone, on y = 0 trace vectors
        ny1, nx1 = (1 if Ay is None else Ay.shape[0]), Ax.shape[0]
        R = np.asarray(r, dtype=float).reshape((-1, ny1) + (nx1,) * self.d)
        R = R @ Ax.T
        if self.d == 2:
            R = Ax @ R
        if Ay is not None:
            R = Ay @ R.reshape(R.shape[0], ny1, -1)
        return R.reshape(np.shape(r))

    def to_modes(self, r: np.ndarray) -> np.ndarray:
        """V' r for nodal vectors stacked along the last axis."""
        return self._apply(self.Vy.T, self.Vx.T, r)

    def from_modes(self, w: np.ndarray) -> np.ndarray:
        """V w for modal vectors stacked along the last axis."""
        return self._apply(self.Vy, self.Vx, w)

    def to_trace_modes(self, s: np.ndarray) -> np.ndarray:
        """Vx' s [(x) Vx'] for y = 0 trace vectors stacked along the last
        axis: with E the injection of trace values into the y = 0 layer,
        V' E s = Vy[0, :] (x) to_trace_modes(s)."""
        return self._apply(None, self.Vx.T, s)

    def from_trace_modes(self, z: np.ndarray) -> np.ndarray:
        """Vx z [(x) Vx] for trace-modal vectors stacked along the last
        axis: E' V w = from_trace_modes(Vy[0, :] . w), the dot over y."""
        return self._apply(None, self.Vx, z)

    def trace_gain(self, inv: np.ndarray) -> np.ndarray:
        """h with E' V diag(inv) V' E = Vx diag(h) Vx' [(x) Vx].

        Only the y = 0 row of Vy meets the trace, so the trace block of
        V diag(inv) V' is diagonal in the x modes, h_j = sum_k Vy[0,k]^2
        inv_kj.  With inv = 1/(alpha + lam) it is the capacitance matrix
        E' (alpha M + K + sigma D_tr)^{-1} E.
        """
        vy0 = self.Vy[0]
        return (vy0 * vy0) @ np.reshape(inv, (vy0.shape[0], -1))


def axis_eigenbasis(grid: WeightedGrid, ops: DiscreteOperators,
                    sigma: float = 0.0) -> AxisEigenbasis:
    """The AxisEigenbasis of K + sigma D_tr, cached on ops per sigma."""
    sigma = float(sigma)
    basis = ops.bases.get(sigma)
    if basis is None:
        Kx1, Ky1 = _axis_stiffness(grid)
        Ky = Ky1.toarray()
        Ky[0, 0] += sigma
        lam_y, Vy = _mass_eigh(Ky, grid.yvol)
        lam_x, Vx = _mass_eigh(Kx1.toarray(), grid.xvol)
        lam = lam_y
        for _ in range(grid.spec.d):
            lam = np.add.outer(lam, lam_x)
        basis = AxisEigenbasis(Vy=Vy, Vx=Vx, lam=lam.ravel(), d=grid.spec.d)
        ops.bases[sigma] = basis
    return basis


def exp_time_weights(t: np.ndarray, eps: float) -> np.ndarray:
    """w_n = exp(-t_n/eps) - exp(-t_{n+1}/eps), exact per-cell weights."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return np.exp(-t[:-1] / eps) * (-np.expm1(-np.diff(t) / eps))


@dataclass
class ForcingSpec:
    """Bulk forcing F on space-time nodes and trace forcing f on (x, t).

    p, q are the integrability exponents used by the diagnostics; the
    conditions p > (d+3+a)/2 and q > d/(1-a) are only enforced when a
    diagnostic that needs the embeddings asks for them.
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


def _layers(grid: WeightedGrid, U: np.ndarray) -> np.ndarray:
    U = np.asarray(U, dtype=float)
    if U.shape == grid.spacetime_shape:
        return U.reshape(grid.spec.nt + 1, -1)
    if U.ndim == 2 and U.shape == (grid.spec.nt + 1, grid.n_spatial):
        return U
    raise ValueError(f"space-time field shape {U.shape} not on this grid")


def _check_initial(grid, Ulay, U0):
    if U0 is None:
        return Ulay[0]
    U0f = np.asarray(U0, dtype=float).reshape(-1)
    if U0f.shape[0] != grid.n_spatial:
        raise ValueError("initial field shape mismatch")
    if not np.array_equal(Ulay[0], U0f):
        raise ValueError("U does not satisfy U(., t0) = U0 on the initial layer")
    return U0f


def functional_value(grid: WeightedGrid, model, eps: float,
                     U: np.ndarray, U0: np.ndarray | None = None,
                     ops: DiscreteOperators | None = None) -> float:
    """Discrete weighted inertia-energy-dissipation value of U."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    ops = ops or build_operators(grid)
    Ulay = _layers(grid, U)
    _check_initial(grid, Ulay, U0)
    w = exp_time_weights(grid.t, eps)

    dU = np.diff(Ulay, axis=0) / grid.dt
    icell = (dU * dU) @ ops.mass
    KU = (ops.Ka @ Ulay.T).T
    Sm = np.einsum("ns,ns->n", Ulay, KU)
    u = Ulay[:, ops.trace_index]
    Pm = phi_eval(model, u) @ ops.trace_mass
    return float(np.sum(w * (eps * icell
                             + 0.5 * (Sm[:-1] + Sm[1:])
                             + 0.5 * (Pm[:-1] + Pm[1:]))))


def functional_gradient(grid: WeightedGrid, model, eps: float,
                        U: np.ndarray, U0: np.ndarray | None = None,
                        ops: DiscreteOperators | None = None) -> np.ndarray:
    """Exact gradient of functional_value w.r.t. nodal values.

    Layer 0 is returned as zeros by convention (the initial layer is
    constrained, variations vanish there).  Shape (nt+1, n_spatial).
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    ops = ops or build_operators(grid)
    Ulay = _layers(grid, U)
    _check_initial(grid, Ulay, U0)
    nt, S = grid.spec.nt, grid.n_spatial
    w = exp_time_weights(grid.t, eps)

    dU = np.diff(Ulay, axis=0)                       # (nt, S), unscaled by dt
    dU_next = np.vstack([dU[1:], np.zeros((1, S))])  # dU[m] with dU[nt] = 0
    wm1 = w                                          # w_{m-1}, m = 1..nt
    wm = np.append(w[1:], 0.0)                       # w_m with w_nt = 0

    KU = (ops.Ka @ Ulay.T).T
    src = np.zeros((nt + 1, S))
    src[:, ops.trace_index] = ops.trace_mass * beta_eval(
        model, Ulay[:, ops.trace_index])

    G = np.zeros((nt + 1, S))
    G[1:] = (2.0 * eps / grid.dt**2) * ops.mass * (
        wm1[:, None] * dU - wm[:, None] * dU_next
    ) + (wm1 + wm)[:, None] * (KU[1:] + src[1:])
    return G


def _row_coefficients(grid: WeightedGrid, eps: float):
    """(c, rho, main, c_hat) of the weight-normalized rows: c = eps/dt^2,
    rho = exp(-dt/eps), main = 1 + rho and c_hat = (1 + rho)/2 on the
    interior rows, main = 1 and c_hat = 1/2 on the terminal row."""
    nt = grid.spec.nt
    c = eps / grid.dt**2
    rho = float(np.exp(-grid.dt / eps))
    main = np.full(nt, 1.0 + rho)
    main[-1] = 1.0
    c_hat = np.full(nt, 0.5 * (1.0 + rho))
    c_hat[-1] = 0.5
    return c, rho, main, c_hat


def stencil_residual(grid: WeightedGrid, model, eps: float,
                     Ulay: np.ndarray, KU: np.ndarray,
                     ops: DiscreteOperators) -> np.ndarray:
    """Unforced normalized EL residual on layers 1..nt, shape (nt, S).

    Formed layer by layer from the stiffness products KU = (Ka U_m)_m of
    all nt + 1 layers instead of an assembled space-time matrix:

        c M ((1+rho) U_m - U_{m-1} - rho U_{m+1}) + c_hat (K U_m + D_tr beta(u_m))

    with the terminal row c M (U_nt - U_{nt-1}) + (K U_nt + D_tr beta(u_nt))/2.
    Equal to A x + E bs - rhs(U_0) of the assembled system without
    forcing, up to summation order.
    """
    c, rho, main, c_hat = _row_coefficients(grid, eps)
    tstep = main[:, None] * Ulay[1:] - Ulay[:-1]
    tstep[:-1] -= rho * Ulay[2:]
    r = (c * ops.mass) * tstep + c_hat[:, None] * KU[1:]
    r[:, ops.trace_index] += c_hat[:, None] * ops.trace_mass * beta_eval(
        model, Ulay[1:, ops.trace_index])
    return r


@dataclass
class LinearSystem:
    """Weight-normalized discrete system on layers 1..nt.

    residual is the stencil form (stencil_residual) of A x + E bs - rhs:
    the stiffness products of all layers, the time stencil and the trace
    source, minus b_forcing; the initial-layer term is the stencil's use
    of U_0 in the first row.  rhs assembles that initial-layer term plus
    the forcing.  c_hat is the per-row coefficient shared by the
    stiffness, the trace source and the forcing (interior (1+rho)/2,
    terminal 1/2).

    The solvers never read a space-time matrix: they use the exact
    inverse of A + diag(c_hat) (x) sigma D_tr (space_time_inverse, cached
    per sigma in inverses) and handle any other trace diagonal on the
    trace.  A, built on first read by the sparse formula, and
    newton_matrix are the assembled references the tests check those
    solves against.
    """

    grid: WeightedGrid
    ops: DiscreteOperators
    eps: float
    rho: float
    c_hat: np.ndarray
    b_forcing: np.ndarray
    # sigma -> SpaceTimeInverse, filled by space_time_inverse
    inverses: dict = field(default_factory=dict, repr=False)

    @property
    def n_unknowns(self) -> int:
        return self.grid.spec.nt * self.grid.n_spatial

    @functools.cached_property
    def A(self) -> sp.csr_matrix:
        """The space-time matrix on the flattened unknown (nt * n_spatial):

            diags(c main (x) m) - c Msub - c rho Msup + diags(c_hat) (x) Ka,

        Msub and Msup the mass on the time sub- and superdiagonal blocks."""
        nt = self.grid.spec.nt
        c, rho, main, c_hat = _row_coefficients(self.grid, self.eps)
        M = sp.diags(self.ops.mass)
        shift = sp.diags([np.ones(nt - 1)], [-1], shape=(nt, nt))
        return finalize_csr(sp.diags(c * np.outer(main, self.ops.mass).ravel())
                            - c * sp.kron(shift, M)
                            - (c * rho) * sp.kron(shift.T, M)
                            + sp.kron(sp.diags(c_hat), self.ops.Ka))

    def _initial_term(self, U0f: np.ndarray) -> np.ndarray:
        return (self.eps / self.grid.dt**2) * self.ops.mass * U0f

    def rhs(self, U0: np.ndarray) -> np.ndarray:
        b = self.b_forcing.copy().reshape(self.grid.spec.nt, -1)
        b[0] += self._initial_term(np.asarray(U0, dtype=float).reshape(-1))
        return b.ravel()

    def beta_source(self, model, Ulay: np.ndarray) -> np.ndarray:
        """c_hat-scaled nodal trace source beta(u) on the unknown layers,
        shape (nt, n_trace); the source is zero off the trace."""
        u = Ulay[1:, self.ops.trace_index]
        return self.c_hat[:, None] * self.ops.trace_mass * beta_eval(model, u)

    def newton_matrix(self, model, Ulay: np.ndarray) -> sp.csr_matrix:
        """A + c_hat D_tr beta'(u) on the trace diagonal."""
        d = np.zeros((self.grid.spec.nt, self.grid.n_spatial))
        u = Ulay[1:, self.ops.trace_index]
        d[:, self.ops.trace_index] = (self.c_hat[:, None] * self.ops.trace_mass
                                      * beta_prime_eval(model, u))
        return finalize_csr(self.A + sp.diags(d.ravel()))

    def residual(self, model, U: np.ndarray,
                 U0: np.ndarray | None = None) -> np.ndarray:
        """Normalized EL residual on layers 1..nt, shape (nt, n_spatial):
        stencil_residual minus b_forcing."""
        Ulay = _layers(self.grid, U)
        _check_initial(self.grid, Ulay, U0)
        r = stencil_residual(self.grid, model, self.eps, Ulay,
                             (self.ops.Ka @ Ulay.T).T, self.ops)
        r -= self.b_forcing.reshape(r.shape)
        return r


def assemble_linear_system(grid: WeightedGrid, eps: float,
                           forcing: ForcingSpec | None = None,
                           ops: DiscreteOperators | None = None) -> LinearSystem:
    """The weight-normalized space-time system for one eps: its row
    coefficients and the forcing part of the right-hand side."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    ops = ops or build_operators(grid)
    nt, S = grid.spec.nt, grid.n_spatial
    c, rho, main, c_hat = _row_coefficients(grid, eps)

    b = np.zeros((nt, S))
    if forcing is not None:
        if forcing.F is not None:
            Flay = _layers(grid, forcing.F)
            b += c_hat[:, None] * (ops.mass * Flay[1:])
        if forcing.f is not None:
            flay = np.asarray(forcing.f, dtype=float).reshape(nt + 1, -1)
            if flay.shape[1] != ops.trace_index.shape[0]:
                raise ValueError("trace forcing shape mismatch")
            b[:, ops.trace_index] += (
                c_hat[:, None] * ops.trace_mass * flay[1:]
            )

    return LinearSystem(grid=grid, ops=ops, eps=eps, rho=rho, c_hat=c_hat,
                        b_forcing=b.ravel())


def _time_thomas(b: np.ndarray, low, up):
    """Batched Thomas solve of the time-tridiagonal systems with diagonal
    b (nt, S), subdiagonal -low and superdiagonal -up (scalars or (S,)).

    The factorization is done once; the returned solve overwrites and
    returns its (nt, S) argument.
    """
    nt, S = b.shape
    cp = np.empty((nt, S))
    emul = np.empty((nt, S))
    emul[0] = 1.0 / b[0]
    cp[0] = -up * emul[0]
    for m in range(1, nt):
        emul[m] = 1.0 / (b[m] + low * cp[m - 1])
        cp[m] = -up * emul[m] if m < nt - 1 else 0.0

    def solve(z: np.ndarray) -> np.ndarray:
        z[0] *= emul[0]
        for m in range(1, nt):
            z[m] += low * z[m - 1]
            z[m] *= emul[m]
        for m in range(nt - 2, -1, -1):
            z[m] -= cp[m] * z[m + 1]
        return z

    return solve


def time_line_preconditioner(system: LinearSystem, A: sp.csr_matrix | None = None):
    """Exact per-spatial-node time-tridiagonal preconditioner.

    Dropping only the spatial off-diagonal couplings, the system
    decouples into one tridiagonal problem along the time line of every
    spatial node (sub -c m_k, diag from A, super -c rho m_k), solved by
    a batched Thomas factorization.  Not used by the solvers, which take
    the exact space_time_inverse at every size; it stays importable
    because perfbench/tracing.py patches it by name.
    """
    Ause = system.A if A is None else A
    nt, S = system.grid.spec.nt, system.grid.n_spatial
    c = system.eps / system.grid.dt**2
    b = Ause.diagonal().reshape(nt, S).copy()
    b[b == 0.0] = 1.0
    solve = _time_thomas(b, c * system.ops.mass,
                         c * system.rho * system.ops.mass)

    def apply(r: np.ndarray) -> np.ndarray:
        return solve(np.array(r, dtype=float).reshape(nt, S)).ravel()

    return apply


@dataclass
class SpaceTimeInverse:
    """The exact inverse P of A_sigma = A + diag(c_hat) (x) sigma D_tr.

    In the per-axis eigenbasis V of axis_eigenbasis (V' M V = I,
    V' (K + sigma D_tr) V = diag(lam)) A_sigma decouples into one
    tridiagonal time problem per spatial mode,

        (c T + lam_k diag(c_hat)) z_k = (V' r)_k,   c = eps/dt^2,

    which solve_modes answers with a batched Thomas sweep.  Calling the
    object applies P to a flattened (nt * n_spatial) vector: two per-axis
    transforms and one sweep.  E injects (nt, n_trace) trace blocks into
    the y = 0 columns.  Only the y = 0 row of Vy meets the trace, so
    lift (P E s) and capacitance (C s = E' P E s) transform s on the
    trace alone, and capacitance also returns to the trace without a full
    transform: beyond two elementwise passes, one Thomas sweep is its only
    full-size work.
    """

    basis: AxisEigenbasis
    # in-place batched Thomas solve on (nt, S) modal arrays
    solve_modes: Callable[[np.ndarray], np.ndarray]
    nt: int
    trace_index: np.ndarray

    def __call__(self, r: np.ndarray) -> np.ndarray:
        w = self.basis.to_modes(np.asarray(r, dtype=float).reshape(self.nt,
                                                                    -1))
        return self.basis.from_modes(self.solve_modes(w)).ravel()

    def _trace_modes_solve(self, s: np.ndarray) -> np.ndarray:
        # the modes of P E s, shape (nt, n_y, n_trace_modes)
        vy0 = self.basis.Vy[0]
        z = self.basis.to_trace_modes(s)
        w = vy0[None, :, None] * z[:, None, :]
        return self.solve_modes(w.reshape(self.nt, -1)).reshape(w.shape)

    def lift(self, s: np.ndarray) -> np.ndarray:
        """P E s for a trace block s (nt, n_trace); shape (nt, n_spatial)."""
        w = self._trace_modes_solve(s)
        return self.basis.from_modes(w.reshape(self.nt, -1))

    def capacitance(self, s: np.ndarray) -> np.ndarray:
        """C s = E' P E s for a trace block s (nt, n_trace)."""
        w = self._trace_modes_solve(s)
        return self.basis.from_trace_modes(self.basis.Vy[0] @ w)

    def shifted_solve(self, x0: np.ndarray, shift: np.ndarray, tol: float,
                      maxit: int, y0: np.ndarray | None = None):
        """(A_sigma + E diag(shift) E')^{-1} rhs from x0 = P rhs, shape
        (nt, n_spatial), shift a trace block (nt, n_trace).

        Woodbury on the trace: y solves (I + C diag(shift)) y = E' x0 by
        GMRES to relative residual tol, from y0 when given, and
        x = x0 - P E (shift y).  Then E' x - y is the GMRES residual g,
        and the linear residual of x is exactly E (shift g), up to the
        roundoff of P.  Returns x and the GMRES SolveResult (its x is y,
        flattened).
        """
        x0 = np.asarray(x0, dtype=float).reshape(self.nt, -1)
        shape = shift.shape

        def apply(v):
            return v + self.capacitance(shift * v.reshape(shape)).ravel()

        sol = gmres_solve(apply, x0[:, self.trace_index].ravel(), tol=tol,
                          maxit=maxit,
                          x0=None if y0 is None else np.ravel(y0))
        return x0 - self.lift(shift * sol.x.reshape(shape)), sol


def space_time_inverse(system: LinearSystem,
                       sigma: float = 0.0) -> SpaceTimeInverse:
    """The SpaceTimeInverse of A + diag(c_hat) (x) sigma D_tr, built once
    per sigma and cached on the system."""
    sigma = float(sigma)
    inv = system.inverses.get(sigma)
    if inv is None:
        grid = system.grid
        nt = grid.spec.nt
        basis = axis_eigenbasis(grid, system.ops, sigma)
        c, rho, main, c_hat = _row_coefficients(grid, system.eps)
        solve = _time_thomas(
            (c * main)[:, None] + np.multiply.outer(c_hat, basis.lam),
            c, c * rho)
        inv = SpaceTimeInverse(basis=basis, solve_modes=solve, nt=nt,
                               trace_index=system.ops.trace_index)
        system.inverses[sigma] = inv
    return inv


def spectral_preconditioner(system: LinearSystem, sigma: float = 0.0):
    """Exact inverse of A + diag(c_hat) (x) sigma D_tr by fast
    diagonalization in space and batched Thomas in time: the cached
    space_time_inverse, whose call is one apply.

    With sigma the model's Lipschitz constant this is the damped-Picard
    (majorize-minimize) matrix itself, so a Picard step is one apply;
    a Newton matrix differs from it only by the trace diagonal
    c_hat D_tr (beta'(u) - sigma), which SpaceTimeInverse.shifted_solve
    handles on the trace.  Each apply costs two per-axis transforms and
    the Thomas sweeps, with no bound on the grid size.
    """
    return space_time_inverse(system, sigma)


def default_st_preconditioner(system: LinearSystem, sigma: float = 0.0):
    """The exact inverse of A + diag(c_hat) (x) sigma D_tr
    (spectral_preconditioner) for the space-time solves, at every grid
    size and dimension."""
    return spectral_preconditioner(system, sigma)


def weighted_trace_flux(grid: WeightedGrid, spatial_field: np.ndarray) -> np.ndarray:
    """Discrete partial_y^a U at y = 0 recovered from the first face."""
    U = np.asarray(spatial_field, dtype=float).reshape(grid.spatial_shape)
    return grid.face_trans_y[0] * (U[1] - U[0])
