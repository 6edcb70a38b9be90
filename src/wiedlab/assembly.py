"""Discrete functional, Euler-Lagrange residual and the spatial operators.

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
solver path, and Ka itself is a numpy stencil (KroneckerStencil) rather
than a stored sparse matrix: scipy is imported only for the CSR
references the tests check against.  The Picard and Newton matrices
differ from A only on the y = 0 trace diagonal, so the solvers apply the
exact inverse of the Picard matrix (SpaceTimeInverse) and treat the
Newton difference on the trace instead of assembling either.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .combustion import beta_eval, beta_prime_eval, phi_eval
from .grid import WeightedGrid
from .linalg import finalize_csr, gmres_solve


class KroneckerStencil:
    """A Kronecker sum of symmetric 1-D tridiagonals as a nearest-neighbour
    stencil on the y-major node grid (ny+1, nx+1[, nx+1]).

    Each row couples a node to itself (diag, node-grid shaped) and to its
    two neighbours along each axis k; links[k] is the coupling of a node
    with its upper neighbour along k (the node grid with axis k one
    shorter), and by symmetry also that of the neighbour with the node.

    K @ X, for X of shape (S,) or (S, k), adds each row's neighbour
    products in increasing column order, starting from +0.0, as a sorted
    CSR matvec does, so every product equals the CSR one bit for bit, and
    returns a C-ordered array, so (K @ U.T).T is F-ordered as with CSR.
    A product with coefficient 0 (no such neighbour; a CSR matrix stores
    no zero) is +0.0, which adds nothing to a sum started at +0.0
    whatever X holds.  A vector is one gather of each row's neighbours,
    with an appended 0 for those it lacks, one product and one sum over
    the neighbours in order.  The columns of a block are taken about
    CHUNK entries at a time, laid end to end, so a neighbour's products
    are one contiguous pass over that flat index shifted by the
    neighbour's stride, and those that leave their grid line or vector
    are set to +0.0.
    """

    CHUNK = 1 << 15

    def __init__(self, diag: np.ndarray, links: tuple):
        self.diag, self.links = diag, tuple(links)
        nodes, S = diag.shape, diag.size
        self.shape = (S, S)
        # (flat offset, coefficient per row, 0 without that neighbour) of
        # each neighbour in column order: lower neighbours from the
        # outermost axis in, the node, upper neighbours from the innermost
        # axis out
        lower, upper = [], []
        for k, link in enumerate(self.links):
            stride = int(np.prod(nodes[k + 1:], dtype=int))
            for side, rows, terms in ((-1, slice(1, None), lower),
                                      (1, slice(None, -1), upper)):
                c = np.zeros(nodes)
                c[(slice(None),) * k + (rows,)] = link
                terms.append((side * stride, c.ravel()))
        self._terms = lower + [(0, diag.ravel())] + upper[::-1]
        self._plans = {}   # vectors per chunk -> _plan
        # per term and row: the coefficient, and the neighbour (S, an
        # appended 0, where the coefficient is 0) a vector product reads
        self._coef = np.array([c for _, c in self._terms])
        self._gather = np.where(
            self._coef != 0.0,
            np.arange(S) + np.array([off for off, _ in self._terms])[:, None],
            S)

    def shifted(self, d: np.ndarray) -> KroneckerStencil:
        """K + diag(d), d a flat nodal vector."""
        return KroneckerStencil(self.diag + np.reshape(d, self.diag.shape),
                                self.links)

    def _plan(self, n: int) -> list:
        # per neighbour on n vectors laid end to end: its coefficients on
        # the shifted rows, those rows, the rows they read, and the rows
        # with coefficient 0 (None if there are none)
        plan = self._plans.get(n)
        if plan is None:
            plan = self._plans[n] = []
            N = n * self.shape[0]
            for off, c in self._terms:
                dst = slice(max(-off, 0), N - max(off, 0))
                c = np.tile(c, n)[dst]
                zero = dst.start + np.flatnonzero(c == 0.0)
                plan.append((c, dst, slice(max(off, 0), N + min(off, 0)),
                             zero if zero.size else None))
        return plan

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        S = self.shape[0]
        x = np.asarray(x, dtype=float)
        if x.shape == (S,):
            xp = np.empty(S + 1)
            xp[:S] = x
            xp[S] = 0.0
            G = xp[self._gather]
            G *= self._coef
            return np.add.reduce(G, axis=0, initial=0.0)
        xt = np.ascontiguousarray(x.reshape(S, -1).T)   # (k, S)
        k = xt.shape[0]
        kb = max(1, min(k, self.CHUNK // S))
        Y = np.zeros((k, S))
        T = np.empty(kb * S)
        for k0 in range(0, k, kb):
            n = min(kb, k - k0)
            X, Yc = xt[k0:k0 + n].reshape(-1), Y[k0:k0 + n].reshape(-1)
            for c, dst, src, zero in self._plan(n):
                t, y = T[dst], Yc[dst]
                np.multiply(c, X[src], out=t)
                if zero is not None:
                    T[zero] = 0.0
                np.add(y, t, out=y)
        return np.ascontiguousarray(Y.T).reshape(x.shape)

    def tocsr(self):
        """The same matrix as a sorted scipy CSR matrix, as a reference."""
        import scipy.sparse as sp
        rows, cols, vals = [], [], []
        for off, c in self._terms:
            r = np.flatnonzero(c)
            rows.append(r)
            cols.append(r + off)
            vals.append(c[r])
        return finalize_csr(sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows),
                                    np.concatenate(cols))),
            shape=self.shape))


@dataclass
class DiscreteOperators:
    """Weighted mass/stiffness and the y=0 trace maps, all half-space.

    Ka is a KroneckerStencil, applied as Ka @ X like a matrix; its tocsr()
    is the sparse matrix the tests check it against."""

    mass: np.ndarray          # spatial nodal |y|^a masses, flattened
    Ka: KroneckerStencil      # weighted stiffness, SPSD, Ka @ const = 0
    trace_index: np.ndarray   # flat spatial indices of the y = 0 layer
    trace_mass: np.ndarray    # x-volumes attached to trace nodes
    # sigma -> AxisEigenbasis of K + sigma D_tr, filled by axis_eigenbasis
    bases: dict = field(default_factory=dict, repr=False)


def _tridiagonal(edge: np.ndarray) -> np.ndarray:
    """D' diag(edge) D for the 1-D difference D: the dense symmetric
    tridiagonal with -edge off the diagonal and the sums of the adjacent
    edges on it."""
    n = edge.shape[0]
    K = np.zeros((n + 1, n + 1))
    i = np.arange(n)
    K[i, i + 1] = K[i + 1, i] = -edge
    K[i, i] += edge
    K[i + 1, i + 1] += edge
    return K


def _axis_stiffness(grid: WeightedGrid):
    """Dense 1-D stiffness matrices (Kx1, Ky1): uniform x, weighted graded
    y."""
    return (_tridiagonal(np.full(grid.spec.nx, 1.0 / grid.hx)),
            _tridiagonal(grid.face_trans_y))


def build_operators(grid: WeightedGrid) -> DiscreteOperators:
    Kx1, Ky1 = _axis_stiffness(grid)
    # K (x) over the axes, innermost first: a 1-D tridiagonal K1 with
    # masses m1 in front of a block (Kb, Mb) gives K1 (x) Mb + m1 (x) Kb
    diag, links, mass = np.diag(Kx1), (np.diag(Kx1, 1),), grid.xvol
    for K1, m1 in [(Kx1, grid.xvol)] * (grid.spec.d - 1) + [(Ky1, grid.yvol)]:
        diag = (np.multiply.outer(np.diag(K1), mass)
                + np.multiply.outer(m1, diag))
        links = ((np.multiply.outer(np.diag(K1, 1), mass),)
                 + tuple(np.multiply.outer(m1, link) for link in links))
        mass = np.multiply.outer(m1, mass)

    xmass = grid.xmass
    trace_index = np.arange(xmass.shape[0])  # y-major layout: y=0 block first
    return DiscreteOperators(mass=grid.node_mass,
                             Ka=KroneckerStencil(diag, links),
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
    # alpha -> (inv, h), filled by resolvent
    resolvents: dict = field(default_factory=dict, repr=False)

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

    def resolvent(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """(inv, h) of alpha M + K + sigma D_tr, cached per alpha: inv =
        1 / (alpha + lam), the modal diagonal of its inverse, and h =
        trace_gain(inv), its capacitance matrix on the trace."""
        pair = self.resolvents.get(alpha)
        if pair is None:
            inv = 1.0 / (alpha + self.lam)
            pair = self.resolvents[alpha] = (inv, self.trace_gain(inv))
        return pair


def axis_eigenbasis(grid: WeightedGrid, ops: DiscreteOperators,
                    sigma: float = 0.0) -> AxisEigenbasis:
    """The AxisEigenbasis of K + sigma D_tr, cached on ops per sigma."""
    sigma = float(sigma)
    basis = ops.bases.get(sigma)
    if basis is None:
        Kx1, Ky = _axis_stiffness(grid)
        Ky[0, 0] += sigma
        lam_y, Vy = _mass_eigh(Ky, grid.yvol)
        lam_x, Vx = _mass_eigh(Kx1, grid.xvol)
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
                     ops: DiscreteOperators | None = None,
                     KU: np.ndarray | None = None,
                     Pm: np.ndarray | None = None) -> float:
    """Discrete weighted inertia-energy-dissipation value of U.

    KU, when given, is the stiffness product (Ka @ U.T).T of the layers
    of U, so a caller that also needs the residual forms it once; Pm,
    when given, is the layer sums phi_eval(model, U[:, trace_index]) @
    trace_mass of the trace potential, so a caller that also keeps them
    evaluates Phi once."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    ops = ops or build_operators(grid)
    Ulay = _layers(grid, U)
    _check_initial(grid, Ulay, U0)
    w = exp_time_weights(grid.t, eps)

    dU = np.diff(Ulay, axis=0) / grid.dt
    icell = (dU * dU) @ ops.mass
    if KU is None:
        KU = (ops.Ka @ Ulay.T).T
    Sm = np.einsum("ns,ns->n", Ulay, KU)
    if Pm is None:
        Pm = phi_eval(model, Ulay[:, ops.trace_index]) @ ops.trace_mass
    return float(np.sum(w * (eps * icell
                             + 0.5 * (Sm[:-1] + Sm[1:])
                             + 0.5 * (Pm[:-1] + Pm[1:]))))


def functional_gradient(grid: WeightedGrid, model, eps: float,
                        U: np.ndarray, U0: np.ndarray | None = None,
                        ops: DiscreteOperators | None = None) -> np.ndarray:
    """Exact gradient of functional_value w.r.t. nodal values.

    Row m (m = 1..nt) is 2 w_{m-1} times row m of the unforced EL
    residual stencil_residual, the weight that residual divides out, so
    the gradient and the residual the solvers drive to zero are one
    formula.  Layer 0 is returned as zeros by convention (the initial
    layer is constrained, variations vanish there).  Shape
    (nt+1, n_spatial).
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    ops = ops or build_operators(grid)
    Ulay = _layers(grid, U)
    _check_initial(grid, Ulay, U0)
    KU = (ops.Ka @ Ulay.T).T
    G = np.zeros_like(Ulay)
    G[1:] = 2.0 * exp_time_weights(grid.t, eps)[:, None] * stencil_residual(
        grid, model, eps, Ulay, KU, ops)
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
    newton_matrix are the assembled scipy CSR references the tests check
    those solves against.
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
    def A(self):
        """The space-time CSR matrix on the flattened unknown (nt * n_spatial):

            diags(c main (x) m) - c Msub - c rho Msup + diags(c_hat) (x) Ka,

        Msub and Msup the mass on the time sub- and superdiagonal blocks."""
        import scipy.sparse as sp
        nt = self.grid.spec.nt
        c, rho, main, c_hat = _row_coefficients(self.grid, self.eps)
        M = sp.diags(self.ops.mass)
        shift = sp.diags([np.ones(nt - 1)], [-1], shape=(nt, nt))
        return finalize_csr(sp.diags(c * np.outer(main, self.ops.mass).ravel())
                            - c * sp.kron(shift, M)
                            - (c * rho) * sp.kron(shift.T, M)
                            + sp.kron(sp.diags(c_hat), self.ops.Ka.tocsr()))

    def _initial_term(self, U0f: np.ndarray) -> np.ndarray:
        return (self.eps / self.grid.dt**2) * self.ops.mass * U0f

    def rhs(self, U0: np.ndarray) -> np.ndarray:
        b = self.b_forcing.copy().reshape(self.grid.spec.nt, -1)
        b[0] += self._initial_term(np.asarray(U0, dtype=float).reshape(-1))
        return b.ravel()

    def newton_matrix(self, model, Ulay: np.ndarray):
        """A + c_hat D_tr beta'(u) on the trace diagonal, as CSR."""
        import scipy.sparse as sp
        d = np.zeros((self.grid.spec.nt, self.grid.n_spatial))
        u = Ulay[1:, self.ops.trace_index]
        d[:, self.ops.trace_index] = (self.c_hat[:, None] * self.ops.trace_mass
                                      * beta_prime_eval(model, u))
        return finalize_csr(self.A + sp.diags(d.ravel()))

    def residual(self, model, U: np.ndarray, U0: np.ndarray | None = None,
                 KU: np.ndarray | None = None) -> np.ndarray:
        """Normalized EL residual on layers 1..nt, shape (nt, n_spatial):
        stencil_residual minus b_forcing.  KU, when given, is the
        stiffness product (Ka @ U.T).T of the layers of U."""
        Ulay = _layers(self.grid, U)
        _check_initial(self.grid, Ulay, U0)
        if KU is None:
            KU = (self.ops.Ka @ Ulay.T).T
        r = stencil_residual(self.grid, model, self.eps, Ulay, KU, self.ops)
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
    returns its (nt, S) argument.  It works on row views with one (S,)
    scratch row and allocates nothing per layer.
    """
    nt, S = b.shape
    cp = np.empty((nt, S))
    emul = np.empty((nt, S))
    emul[0] = 1.0 / b[0]
    cp[0] = -up * emul[0]
    for m in range(1, nt):
        emul[m] = 1.0 / (b[m] + low * cp[m - 1])
        cp[m] = -up * emul[m] if m < nt - 1 else 0.0
    erows, cprows = list(emul), list(cp)
    tmp = np.empty(S)

    def solve(z: np.ndarray) -> np.ndarray:
        zr = list(z)
        np.multiply(zr[0], erows[0], out=zr[0])
        for m in range(1, nt):
            # z[m] = (z[m] + low z[m-1]) emul[m]
            np.multiply(low, zr[m - 1], out=tmp)
            np.add(zr[m], tmp, out=zr[m])
            np.multiply(zr[m], erows[m], out=zr[m])
        for m in range(nt - 2, -1, -1):
            # z[m] -= cp[m] z[m+1]
            np.multiply(cprows[m], zr[m + 1], out=tmp)
            np.subtract(zr[m], tmp, out=zr[m])
        return z

    return solve


def time_line_preconditioner(system: LinearSystem, A=None):
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

    which solve_modes answers with a batched Thomas sweep: P = V Tm^{-1} V'
    with Tm these time problems.  Calling the object applies P to a
    flattened (nt * n_spatial) vector: two per-axis transforms and one
    sweep.  A solver that keeps its unknowns as modal coefficients
    x_hat = V' M x (x = V x_hat) needs neither transform: P r has the
    coefficients Tm^{-1} V' r.  E injects (nt, n_trace) trace blocks into
    the y = 0 columns, and only the y = 0 row of Vy meets the trace, so
    trace_solve (the coefficients of P E s) transforms s on the trace
    alone and trace (E' V x_hat) reads the trace of modal coefficients
    without a full transform.  One Thomas sweep is therefore the only
    full-size work of trace_solve and of capacitance (C s = E' P E s),
    beyond a few elementwise passes.
    """

    basis: AxisEigenbasis
    # in-place batched Thomas solve on (nt, S) modal arrays
    solve_modes: Callable[[np.ndarray], np.ndarray]
    nt: int

    def __call__(self, r: np.ndarray) -> np.ndarray:
        w = self.basis.to_modes(np.asarray(r, dtype=float).reshape(self.nt,
                                                                    -1))
        return self.basis.from_modes(self.solve_modes(w)).ravel()

    def trace_solve(self, s: np.ndarray,
                    r_hat: np.ndarray | None = None) -> np.ndarray:
        """Tm^{-1} (r_hat + V' E s), the modal coefficients of P (r + E s),
        for a trace block s (nt, n_trace) and r_hat = V' r (nt, n_spatial)
        of a right-hand side r (zero when None); shape (nt, n_spatial)."""
        vy0 = self.basis.Vy[0]
        z = self.basis.to_trace_modes(s)
        w = (vy0[None, :, None] * z[:, None, :]).reshape(self.nt, -1)
        if r_hat is not None:
            w += r_hat
        return self.solve_modes(w)

    def trace(self, w: np.ndarray) -> np.ndarray:
        """E' V w, the y = 0 trace block (nt, n_trace) of the field with
        modal coefficients w (nt, n_spatial)."""
        vy0 = self.basis.Vy[0]
        return self.basis.from_trace_modes(
            vy0 @ w.reshape(self.nt, vy0.shape[0], -1))

    def capacitance(self, s: np.ndarray) -> np.ndarray:
        """C s = E' P E s for a trace block s (nt, n_trace)."""
        return self.trace(self.trace_solve(s))

    def shifted_solve(self, w0: np.ndarray, x0_tr: np.ndarray,
                      shift: np.ndarray, tol: float, maxit: int,
                      y0: np.ndarray | None = None):
        """The modal coefficients of (A_sigma + E diag(shift) E')^{-1} rhs
        from those of x0 = P rhs, w0 (nt, n_spatial), and its trace
        x0_tr = trace(w0); shift is a trace block (nt, n_trace).

        Woodbury on the trace: y solves (I + C diag(shift)) y = x0_tr by
        GMRES to relative residual tol, from y0 when given, and
        x = x0 - P E (shift y).  Then E' x - y is the GMRES residual g,
        and the linear residual of x is exactly E (shift g), up to the
        roundoff of P, so its norm is at most
        tol max|shift| |x0_tr|; solve_wied picks tol from the outer
        residual that way.  Returns the coefficients of x, one Thomas
        sweep after GMRES, and the GMRES SolveResult (its x is y,
        flattened).
        """
        shape = shift.shape

        def apply(v):
            return v + self.capacitance(shift * v.reshape(shape)).ravel()

        sol = gmres_solve(apply, np.ravel(x0_tr), tol=tol, maxit=maxit,
                          x0=None if y0 is None else np.ravel(y0))
        w = self.trace_solve(shift * sol.x.reshape(shape))
        return np.subtract(w0, w, out=w), sol


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
        inv = SpaceTimeInverse(basis=basis, solve_modes=solve, nt=nt)
        system.inverses[sigma] = inv
    return inv


def spectral_preconditioner(system: LinearSystem, sigma: float = 0.0):
    """Exact inverse of A + diag(c_hat) (x) sigma D_tr by fast
    diagonalization in space and batched Thomas in time: the cached
    space_time_inverse, whose call is one apply.

    With sigma the model's Lipschitz constant this is the damped-Picard
    (majorize-minimize) matrix itself; a Newton matrix differs from it
    only by the trace diagonal c_hat D_tr (beta'(u) - sigma), which
    SpaceTimeInverse.shifted_solve handles on the trace.  Each apply
    costs two per-axis transforms and the Thomas sweeps, with no bound on
    the grid size; solve_wied works in the modes and makes none.
    """
    return space_time_inverse(system, sigma)


def weighted_trace_flux(grid: WeightedGrid, spatial_field: np.ndarray) -> np.ndarray:
    """Discrete partial_y^a U at y = 0 recovered from the first face."""
    U = np.asarray(spatial_field, dtype=float).reshape(grid.spatial_shape)
    return grid.face_trans_y[0] * (U[1] - U[0])
