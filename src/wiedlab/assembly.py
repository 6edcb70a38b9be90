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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .combustion import beta_eval, beta_prime_eval, phi_eval
from .grid import WeightedGrid
from .linalg import finalize_csr


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

    def inject_trace(self, tvals: np.ndarray) -> np.ndarray:
        out = np.zeros(self.mass.shape[0])
        out[self.trace_index] = tvals
        return out


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

    def _apply(self, Ay: np.ndarray, Ax: np.ndarray,
               r: np.ndarray) -> np.ndarray:
        # (Ay (x) Ax [(x) Ax]) applied to each row of r, shape (..., S)
        ny1, nx1 = Ay.shape[0], Ax.shape[0]
        R = np.asarray(r, dtype=float).reshape((-1, ny1) + (nx1,) * self.d)
        R = R @ Ax.T
        if self.d == 2:
            R = Ax @ R
        R = Ay @ R.reshape(R.shape[0], ny1, -1)
        return R.reshape(np.shape(r))

    def to_modes(self, r: np.ndarray) -> np.ndarray:
        """V' r for nodal vectors stacked along the last axis."""
        return self._apply(self.Vy.T, self.Vx.T, r)

    def from_modes(self, w: np.ndarray) -> np.ndarray:
        """V w for modal vectors stacked along the last axis."""
        return self._apply(self.Vy, self.Vx, w)


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


@dataclass
class LinearSystem:
    """Weight-normalized discrete system on layers 1..nt.

    A acts on the flattened unknown (nt * n_spatial); rhs assembles the
    initial-layer elimination plus any forcing contribution.  c_hat is
    the per-row coefficient shared by the stiffness, the trace source
    and the forcing (interior (1+rho)/2, terminal 1/2).
    """

    grid: WeightedGrid
    ops: DiscreteOperators
    eps: float
    rho: float
    c_hat: np.ndarray
    A: sp.csr_matrix
    b_forcing: np.ndarray

    @property
    def n_unknowns(self) -> int:
        return self.grid.spec.nt * self.grid.n_spatial

    def rhs(self, U0: np.ndarray) -> np.ndarray:
        b = self.b_forcing.copy().reshape(self.grid.spec.nt, -1)
        U0f = np.asarray(U0, dtype=float).reshape(-1)
        b[0] += (self.eps / self.grid.dt**2) * self.ops.mass * U0f
        return b.ravel()

    def beta_source(self, model, Ulay: np.ndarray) -> np.ndarray:
        """c_hat-scaled nodal trace source beta(u) on the unknown layers."""
        nt, S = self.grid.spec.nt, self.grid.n_spatial
        out = np.zeros((nt, S))
        u = Ulay[1:, self.ops.trace_index]
        out[:, self.ops.trace_index] = (
            self.c_hat[:, None] * self.ops.trace_mass * beta_eval(model, u)
        )
        return out.ravel()

    def newton_matrix(self, model, Ulay: np.ndarray) -> sp.csr_matrix:
        nt, S = self.grid.spec.nt, self.grid.n_spatial
        dd = np.zeros((nt, S))
        u = Ulay[1:, self.ops.trace_index]
        dd[:, self.ops.trace_index] = (
            self.c_hat[:, None] * self.ops.trace_mass * beta_prime_eval(model, u)
        )
        return finalize_csr(self.A + sp.diags(dd.ravel()))

    def residual(self, model, U: np.ndarray,
                 U0: np.ndarray | None = None) -> np.ndarray:
        """Normalized EL residual on layers 1..nt, shape (nt, n_spatial)."""
        Ulay = _layers(self.grid, U)
        U0f = _check_initial(self.grid, Ulay, U0)
        r = (self.A @ Ulay[1:].ravel() + self.beta_source(model, Ulay)
             - self.rhs(U0f))
        return r.reshape(self.grid.spec.nt, -1)


def assemble_linear_system(grid: WeightedGrid, eps: float,
                           forcing: ForcingSpec | None = None,
                           ops: DiscreteOperators | None = None) -> LinearSystem:
    """Assemble the weight-normalized space-time system for one eps."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    ops = ops or build_operators(grid)
    nt, S = grid.spec.nt, grid.n_spatial
    dt = grid.dt
    rho = float(np.exp(-dt / eps))

    main = np.full(nt, 1.0 + rho)
    main[-1] = 1.0
    c_hat = np.full(nt, 0.5 * (1.0 + rho))
    c_hat[-1] = 0.5

    # eps enters only through scalar coefficients; the kron patterns are
    # grid data and get cached on the operators across schedule levels
    cache = getattr(ops, "_st_kron", None)
    if cache is None or cache["nt"] != nt:
        shift = sp.diags([np.ones(nt - 1)], [-1], shape=(nt, nt))
        cache = {
            "nt": nt,
            "Msub": sp.kron(shift, sp.diags(ops.mass), format="csr"),
            "Msup": sp.kron(shift.T, sp.diags(ops.mass), format="csr"),
            "Kkron": sp.kron(sp.eye(nt), ops.Ka, format="csr"),
        }
        ops._st_kron = cache
    c = eps / dt**2
    A = (sp.diags(c * np.outer(main, ops.mass).ravel())
         - c * cache["Msub"] - (c * rho) * cache["Msup"]
         + sp.diags(np.repeat(c_hat, S)) @ cache["Kkron"])

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
                        A=finalize_csr(A), b_forcing=b.ravel())


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
    the exact spectral_preconditioner at every size.
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


def spectral_preconditioner(system: LinearSystem, sigma: float = 0.0):
    """Exact inverse of A + diag(c_hat) (x) sigma D_tr, by fast
    diagonalization in space and batched Thomas in time.

    D_tr is the y = 0 trace mass.  In the per-axis eigenbasis V of
    axis_eigenbasis (V' M V = I, V' (K + sigma D_tr) V = diag(lam)) the
    matrix decouples into one tridiagonal time problem per spatial mode,

        (c T + lam_k diag(c_hat)) z_k = (V' r)_k,   c = eps/dt^2.

    With sigma the model's Lipschitz constant this is the damped-Picard
    (majorize-minimize) matrix itself, so a Picard solve converges in one
    or two Krylov iterations (the second only absorbs roundoff); Newton
    solves see only the trace diagonal c_hat D_tr (beta'(u) - sigma) as
    the remaining difference.
    Each apply costs two per-axis transforms and the Thomas sweeps, with
    no bound on the grid size.
    """
    grid = system.grid
    nt, S = grid.spec.nt, grid.n_spatial
    basis = axis_eigenbasis(grid, system.ops, sigma)
    c = system.eps / grid.dt**2
    main = np.full(nt, c * (1.0 + system.rho))
    main[-1] = c
    solve = _time_thomas(main[:, None] + np.multiply.outer(system.c_hat,
                                                           basis.lam),
                         c, c * system.rho)

    def apply(r: np.ndarray) -> np.ndarray:
        w = basis.to_modes(np.asarray(r, dtype=float).reshape(nt, S))
        return basis.from_modes(solve(w)).ravel()

    return apply


def default_st_preconditioner(system: LinearSystem, sigma: float = 0.0):
    """Preconditioner for the space-time solves: the exact inverse of
    A + diag(c_hat) (x) sigma D_tr (spectral_preconditioner), at every
    grid size and dimension."""
    return spectral_preconditioner(system, sigma)


def weighted_trace_flux(grid: WeightedGrid, spatial_field: np.ndarray) -> np.ndarray:
    """Discrete partial_y^a U at y = 0 recovered from the first face."""
    U = np.asarray(spatial_field, dtype=float).reshape(grid.spatial_shape)
    return grid.face_trans_y[0] * (U[1] - U[0])


def dump_operator(path, A: sp.spmatrix, comment: str = ""):
    """Matrix-Market text dump of an assembled operator (debug aid)."""
    from scipy.io import mmwrite
    mmwrite(str(path), sp.coo_matrix(A), comment=comment)
