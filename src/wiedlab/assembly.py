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

A field's check is formed in one place, LinearSystem.check: one pass
over the layers (LinearSystem.residual) forms the stiffness products
Ka U_m a block of layers at a time and takes from them the residual
rows and the layer sums <U_m, K U_m>; the check adds the trace-potential
layer sums and the inertia cells.  The functional, the gradient and the
energy report read that check, so no space-time matrix is assembled on
the solver path and no product of all layers is kept.  Every sum of the
check over the nodes is an einsum, never a BLAS call, so its bits do
not depend on the BLAS thread count.  Ka itself is a numpy stencil
(KroneckerStencil) rather than a stored sparse matrix: scipy is
imported only for the CSR references the tests check against.  The
Picard and Newton matrices differ from A only on the y = 0 trace
diagonal, so the solvers apply the exact inverse of the Picard matrix
(SpaceTimeInverse) and treat the Newton difference on the trace instead
of assembling either.
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

    K @ x for one vector x (S,), and K.blocks(X) for the rows of X (k, S),
    such as the time layers of a field, add each row's neighbour products
    in increasing column order, starting from +0.0, as a sorted CSR
    matvec does, so every product equals the CSR one bit for bit:
    K.blocks(X) yields (K.tocsr() @ X.T).T a block of rows at a time.  A
    product with coefficient 0 (no such neighbour; a CSR matrix stores no
    zero) is +0.0, which adds nothing to a sum started at +0.0 whatever X
    holds.  A vector is one gather of each row's neighbours, with an
    appended 0 for those it lacks, one product and one sum over the
    neighbours in order.  blocks takes about CHUNK entries of X at a time, copied end
    to end into a zero-padded block, so a neighbour's products are one
    (n, S) product of the coefficients, broadcast over the n rows, with
    the block shifted by the neighbour's stride.
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
        # per term, the rows with coefficient 0 (None if there are none),
        # and the largest offset, the zero padding of a block of rows
        self._zeros = [z if z.size else None for z in
                       (np.flatnonzero(c == 0.0) for _, c in self._terms)]
        self._pad = max(abs(off) for off, _ in self._terms)
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

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        S = self.shape[0]
        x = np.asarray(x, dtype=float)
        if x.shape != (S,):
            raise ValueError(f"K @ x takes one vector of shape ({S},), got "
                             f"{x.shape}; blocks(X) takes the rows of X")
        xp = np.empty(S + 1)
        xp[:S] = x
        xp[S] = 0.0
        G = xp[self._gather]
        G *= self._coef
        return np.add.reduce(G, axis=0, initial=0.0)

    def blocks(self, X: np.ndarray):
        """K applied to the rows of X (k, S) a block of rows at a time:
        yields (k0, Y, T), Y the (n, S) products of rows k0 .. k0 + n - 1,
        (K.tocsr() @ X[k0:k0 + n].T).T bit for bit, and T an (n, S)
        scratch array the caller may overwrite until it takes the next
        block.  Y is one (kb, S) buffer, kb = CHUNK // S rows (at least
        one), that the next block overwrites."""
        S = self.shape[0]
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != S:
            raise ValueError(f"blocks takes (k, {S}) rows, got {X.shape}")
        k = X.shape[0]
        kb = max(1, min(k, self.CHUNK // S))
        # the rows of a block laid end to end between pad zeros on either
        # side, so each shifted view stays inside P
        pad = self._pad
        P = np.zeros(kb * S + 2 * pad)
        Y = np.empty((kb, S))
        T = np.empty((kb, S))
        for k0 in range(0, k, kb):
            n = min(kb, k - k0)
            P[pad:pad + n * S].reshape(n, S)[...] = X[k0:k0 + n]
            P[pad + n * S:2 * pad + n * S] = 0.0
            y, t = Y[:n], T[:n]
            y.fill(0.0)
            for (off, c), zero in zip(self._terms, self._zeros):
                np.multiply(c, P[pad + off:pad + off + n * S].reshape(n, S),
                            out=t)
                if zero is not None:
                    t[:, zero] = 0.0
                np.add(y, t, out=y)
            yield k0, y, t

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

    Ka is a KroneckerStencil, applied as Ka @ x to a vector and by
    Ka.blocks(X) to the rows of X, such as the layers of a field; its
    tocsr() is the sparse matrix the tests check it against."""

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
               r: np.ndarray, out: np.ndarray | None = None,
               scratch: np.ndarray | None = None) -> np.ndarray:
        # (Ay (x) Ax [(x) Ax]) applied to each row of r, shape (..., S),
        # into out when given; Ay None: the x factor alone, on y = 0
        # trace vectors.  Each stage is a stack of small products, one per
        # grid line
        ny1, nx1 = (1 if Ay is None else Ay.shape[0]), Ax.shape[0]
        r = np.asarray(r, dtype=float)
        R = r.reshape((-1, ny1) + (nx1,) * self.d)
        if r.ndim == 1 and out is None:
            # one vector, as the parabolic steps transform: nothing to keep
            R = R @ Ax.T
            if self.d == 2:
                R = Ax @ R
            if Ay is not None:
                R = Ay @ R.reshape(1, ny1, -1)
            return R.reshape(r.shape)
        # a block: the stages alternate between out and one scratch array
        # shaped like r, the caller's when given, so that the last stage
        # lands in out.  out may be r, which only the first stage reads:
        # then the first stage goes to the scratch, and the result is
        # copied into out if the last one does not land there
        if out is None:
            out = np.empty(r.shape)
        elif not (out.flags.c_contiguous and out.shape == r.shape):
            raise ValueError("out must be C-contiguous and shaped like r")
        n = R.shape[0]
        stages = [lambda R, o: np.matmul(R, Ax.T, out=o)]
        if self.d == 2:
            stages.append(lambda R, o: np.matmul(Ax, R, out=o))
        if Ay is not None:
            stages.append(lambda R, o: np.matmul(
                Ay, R.reshape(n, ny1, -1), out=o.reshape(n, ny1, -1)))
        in_place = np.may_share_memory(out, r)
        if len(stages) == 1 and not in_place:
            return stages[0](R, out.reshape(R.shape)).reshape(r.shape)
        buf = np.empty(r.shape) if scratch is None else scratch
        dst = (buf, out) if len(stages) % 2 == 0 or in_place else (out, buf)
        for k, stage in enumerate(stages):
            R = stage(R, dst[k % 2].reshape(R.shape)).reshape(R.shape)
        if dst[(len(stages) - 1) % 2] is buf:
            out[...] = buf
        return out

    def to_modes(self, r: np.ndarray, out: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> np.ndarray:
        """V' r for nodal vectors stacked along the last axis, written
        into out when given (which may be r itself).  A block of vectors
        passes its stages through scratch, a C-contiguous array shaped
        like r and apart from r and out, or through one allocated here."""
        return self._apply(self.Vy.T, self.Vx.T, r, out, scratch)

    def from_modes(self, w: np.ndarray, out: np.ndarray | None = None,
                   scratch: np.ndarray | None = None) -> np.ndarray:
        """V w for modal vectors stacked along the last axis, written
        into out when given (which may be w itself), with scratch as in
        to_modes."""
        return self._apply(self.Vy, self.Vx, w, out, scratch)

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


def _layers(grid: WeightedGrid, U: np.ndarray) -> np.ndarray:
    U = np.asarray(U, dtype=float)
    if U.shape == grid.spacetime_shape:
        return U.reshape(grid.spec.nt + 1, -1)
    if U.ndim == 2 and U.shape == (grid.spec.nt + 1, grid.n_spatial):
        return U
    raise ValueError(f"space-time field shape {U.shape} not on this grid")


def _check_initial(grid, Ulay, U0):
    # raise unless the initial layer of Ulay is U0; U0 None checks nothing
    if U0 is None:
        return
    U0f = np.asarray(U0, dtype=float).reshape(-1)
    if U0f.shape[0] != grid.n_spatial:
        raise ValueError("initial field shape mismatch")
    if not np.array_equal(Ulay[0], U0f):
        raise ValueError("U does not satisfy U(., t0) = U0 on the initial layer")


def functional_value(grid: WeightedGrid, model, eps: float,
                     U: np.ndarray, U0: np.ndarray | None = None,
                     ops: DiscreteOperators | None = None,
                     check: FieldCheck | None = None) -> float:
    """Discrete weighted inertia-energy-dissipation value of U, the sum
    of its weighted cell terms (FieldCheck.cells).

    check, when given, must be the full check of U at eps
    (LinearSystem.check), as a caller that also needs the residual forms
    it: the value then reads its sums and forms nothing of U.  Without
    it the value forms the check on the system of eps."""
    if check is None:
        check = assemble_linear_system(grid, eps, ops).check(model, U, U0)
    icell, s_cell, p_cell = check.cells()
    w = exp_time_weights(grid.t, eps)
    return float(np.sum(w * (eps * icell + s_cell + p_cell)))


@dataclass
class FieldCheck:
    """The full check of a field at one eps (LinearSystem.check): its
    normalized EL residual and the layer and cell sums of its
    functional, which the functional and the energy report read."""

    residual: np.ndarray = field(repr=False)   # (nt, S), layers 1..nt
    Sm: np.ndarray = field(repr=False)         # (nt+1,) <U_m, K U_m>
    Pm: np.ndarray = field(repr=False)         # (nt+1,) Phi(u_m) . D_tr
    icell: np.ndarray = field(repr=False)      # (nt,) |D_t U|_M^2

    def cells(self):
        """The three per-cell terms of the functional, per time cell n:
        the inertia |D_t U|_M^2 and the means (S_n + S_{n+1})/2 and
        (P_n + P_{n+1})/2 of the Dirichlet and trace-potential sums."""
        return (self.icell, 0.5 * (self.Sm[:-1] + self.Sm[1:]),
                0.5 * (self.Pm[:-1] + self.Pm[1:]))


def functional_gradient(grid: WeightedGrid, model, eps: float,
                        U: np.ndarray, U0: np.ndarray | None = None,
                        ops: DiscreteOperators | None = None) -> np.ndarray:
    """Exact gradient of functional_value w.r.t. nodal values.

    Row m (m = 1..nt) is 2 w_{m-1} times row m of the EL residual of
    LinearSystem.residual, the weight that residual divides out, so the
    gradient and the residual the solvers drive to zero are one formula.
    Layer 0 is returned as zeros by convention (the initial layer is
    constrained, variations vanish there).  Shape (nt+1, n_spatial).
    """
    system = assemble_linear_system(grid, eps, ops)
    G = np.zeros((grid.spec.nt + 1, grid.n_spatial))
    system.residual(model, U, U0, out=G[1:])
    G[1:] *= 2.0 * exp_time_weights(grid.t, eps)[:, None]
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


@dataclass
class LinearSystem:
    """Weight-normalized discrete system on layers 1..nt.

    residual is the stencil form of A x + E bs - rhs: the stiffness
    products of all layers, the time stencil and the trace source; the
    initial-layer term is the stencil's use of U_0 in the first row.
    check is the full check of a field (FieldCheck): that residual and
    the sums of the functional, from the same pass.  The right-hand side
    b is zero outside row 0, which initial_row gives; rhs assembles b as
    one vector.  c_hat is the per-row coefficient shared by the
    stiffness and the trace source (interior (1+rho)/2, terminal 1/2).

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

    def initial_row(self, U0: np.ndarray) -> np.ndarray:
        """Row 0 of the right-hand side b, its only nonzero row: the
        initial-layer term (eps/dt^2) M U0, shape (n_spatial,)."""
        return ((self.eps / self.grid.dt**2) * self.ops.mass
                * np.asarray(U0, dtype=float).reshape(-1))

    def rhs(self, U0: np.ndarray) -> np.ndarray:
        """b as one flattened (nt * n_spatial) vector."""
        b = np.zeros((self.grid.spec.nt, self.grid.n_spatial))
        b[0] = self.initial_row(U0)
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
                 out: np.ndarray | None = None):
        """One pass over the (nt+1, S) layers of U that forms their
        stiffness products Ka U_m a block of layers at a time (Ka.blocks,
        about KroneckerStencil.CHUNK entries per block, in one reusable
        buffer), so no (nt+1, S) product is kept.  From each block it
        takes the layer sums Sm = <U_m, K U_m> and the rows of the
        normalized EL residual on layers 1..nt,

            c M ((1+rho) U_m - U_{m-1} - rho U_{m+1}) + c_hat (K U_m + D_tr beta(u_m))

        with the terminal row c M (U_nt - U_{nt-1}) + (K U_nt + D_tr beta(u_nt))/2,
        equal to A x + E bs - rhs(U_0) of the assembled system up to
        summation order.  Returns (Sm, r): r (nt, S), written into out
        when given.  Every row has the bits of the same formula applied
        to all layers at once; the time stencil of a block is formed in
        the scratch of the products, and the residual rows of the block
        hold its rho U_{m+1} term until they are written.
        """
        Ulay = _layers(self.grid, U)
        _check_initial(self.grid, Ulay, U0)
        ops = self.ops
        nt, tr = Ulay.shape[0] - 1, ops.trace_index
        c, rho, main, c_hat = _row_coefficients(self.grid, self.eps)
        cm = c * ops.mass
        ctm = c_hat[:, None] * ops.trace_mass
        Sm = np.empty(nt + 1)
        r = np.empty((nt, Ulay.shape[1])) if out is None else out
        for m0, KUb, scratch in ops.Ka.blocks(Ulay):
            m1 = m0 + KUb.shape[0]
            Sm[m0:m1] = np.einsum("ns,ns->n", Ulay[m0:m1], KUb)
            a = max(m0, 1)      # the unknown layers a .. m1 - 1, rows a - 1 ..
            if a == m1:
                continue
            rows, u = r[a - 1:m1 - 1], Ulay[a:m1]
            t = np.multiply(main[a - 1:m1 - 1, None], u, out=scratch[:m1 - a])
            t -= Ulay[a - 1:m1 - 1]
            e = min(m1, nt)     # the layers a .. e - 1 have a layer above
            t[:e - a] -= np.multiply(rho, Ulay[a + 1:e + 1], out=rows[:e - a])
            t *= cm
            np.multiply(c_hat[a - 1:m1 - 1, None], KUb[a - m0:], out=rows)
            rows += t
            rows[:, tr] += ctm[a - 1:m1 - 1] * beta_eval(model, u[:, tr])
        return Sm, r

    def check(self, model, U: np.ndarray, U0: np.ndarray | None = None,
              out: np.ndarray | None = None,
              work: np.ndarray | None = None) -> FieldCheck:
        """The full check of U at this eps, the one place a field's
        residual and functional sums are formed: the residual and Sm of
        one residual pass (r written into out when given), Pm the layer
        sums Phi(u_m) . D_tr of the trace potential and icell the
        inertia cells |D_t U|_M^2, whose time differences are formed in
        work (nt, S) when given.  Every sum over the nodes is an einsum,
        which calls no BLAS and adds in one fixed order, so the check has
        the same bits at any BLAS thread count."""
        Ulay = _layers(self.grid, U)
        Sm, r = self.residual(model, Ulay, U0, out=out)
        ops = self.ops
        dU = np.subtract(Ulay[1:], Ulay[:-1], out=work)
        dU /= self.grid.dt
        dU *= dU
        return FieldCheck(
            residual=r, Sm=Sm,
            Pm=np.einsum("ns,s->n", phi_eval(model, Ulay[:, ops.trace_index]),
                         ops.trace_mass),
            icell=np.einsum("ns,s->n", dU, ops.mass))


def assemble_linear_system(grid: WeightedGrid, eps: float,
                           ops: DiscreteOperators | None = None) -> LinearSystem:
    """The weight-normalized space-time system for one eps: its row
    coefficients on the grid's operators."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    ops = ops or build_operators(grid)
    _, rho, _, c_hat = _row_coefficients(grid, eps)
    return LinearSystem(grid=grid, ops=ops, eps=eps, rho=rho, c_hat=c_hat)


def _time_thomas(b: np.ndarray, low, up):
    """Batched Thomas solve of the time-tridiagonal systems with diagonal
    b (nt, S), subdiagonal -low and superdiagonal -up (scalars or (S,)).

    The factorization is done once, in place: b becomes the factor's
    reciprocal pivots, and one more (nt, S) array holds the eliminated
    superdiagonal.  The returned solve overwrites and returns its (nt, S)
    argument.  Both work on row views with one (S,) scratch row and
    allocate nothing per layer.
    """
    nt, S = b.shape
    cp = np.empty((nt, S))
    emul = b
    tmp = np.empty(S)
    np.divide(1.0, emul[0], out=emul[0])
    np.multiply(-up, emul[0], out=cp[0])
    for m in range(1, nt):
        # emul[m] = 1 / (b[m] + low cp[m-1])
        np.multiply(low, cp[m - 1], out=tmp)
        np.add(emul[m], tmp, out=tmp)
        np.divide(1.0, tmp, out=emul[m])
        if m < nt - 1:
            np.multiply(-up, emul[m], out=cp[m])
        else:
            cp[m] = 0.0
    erows, cprows = list(emul), list(cp)

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
    with Tm these time problems.  sweep runs it and counts it in sweeps.
    Calling the object applies P to a flattened (nt * n_spatial) vector:
    two per-axis transforms and one sweep.  A solver that keeps its
    unknowns as modal coefficients x_hat = V' M x (x = V x_hat) needs
    neither transform: P r has the coefficients Tm^{-1} V' r.  E injects
    (nt, n_trace) trace blocks into the y = 0 columns, and only the y = 0
    row of Vy meets the trace, so trace_solve (the coefficients of
    P (r + E s)) transforms s on the trace alone and trace (E' V x_hat)
    reads the trace of modal coefficients without a full transform.  One
    Thomas sweep is therefore the only full-size work of trace_solve and
    of capacitance (C s = E' P E s), beyond a few elementwise passes, and
    shifted_solve, GMRES on the trace with the capacitance matrix C,
    costs one sweep per iteration and no other full-size work.
    """

    basis: AxisEigenbasis
    # in-place batched Thomas solve on (nt, S) modal arrays
    solve_modes: Callable[[np.ndarray], np.ndarray]
    nt: int
    # Thomas sweeps run so far, by every caller of this inverse
    sweeps: int = 0

    def sweep(self, w: np.ndarray) -> np.ndarray:
        """Tm^{-1} w for modal coefficients w (nt, n_spatial), in place:
        one Thomas sweep, counted."""
        self.sweeps += 1
        return self.solve_modes(w)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        w = self.basis.to_modes(np.asarray(r, dtype=float).reshape(self.nt,
                                                                    -1))
        return self.basis.from_modes(self.sweep(w)).ravel()

    def trace_solve(self, s: np.ndarray, r_hat: np.ndarray | None = None,
                    out: np.ndarray | None = None) -> np.ndarray:
        """Tm^{-1} (r_hat + V' E s), the modal coefficients of P (r + E s),
        for a trace block s (nt, n_trace) and a right-hand side r that is
        zero outside row 0, given by r_hat = V' r[0] (r zero when None);
        shape (nt, n_spatial), written into out when given."""
        vy0 = self.basis.Vy[0]
        z = self.basis.to_trace_modes(s)
        w = np.multiply(vy0[None, :, None], z[:, None, :],
                        out=None if out is None
                        else out.reshape(self.nt, vy0.shape[0], -1))
        w = w.reshape(self.nt, -1)
        if r_hat is not None:
            w[0] += r_hat
        return self.sweep(w)

    def trace(self, w: np.ndarray) -> np.ndarray:
        """E' V w, the y = 0 trace block (nt, n_trace) of the field with
        modal coefficients w (nt, n_spatial)."""
        vy0 = self.basis.Vy[0]
        return self.basis.from_trace_modes(
            vy0 @ w.reshape(self.nt, vy0.shape[0], -1))

    def capacitance(self, s: np.ndarray, work: np.ndarray) -> np.ndarray:
        """C s = E' P E s for a trace block s (nt, n_trace); the sweep,
        read only on the trace, runs in work (nt, n_spatial)."""
        return self.trace(self.trace_solve(s, out=work))

    def shifted_solve(self, r0: np.ndarray, shift: np.ndarray, tol: float,
                      maxit: int, work: np.ndarray):
        """delta with (I + C diag(shift)) delta = r0, for trace blocks r0
        and shift (nt, n_trace), by one GMRES cycle from 0 of at most
        maxit iterations to relative residual tol, each iteration one
        capacitance apply with its sweep in work (nt, n_spatial).

        Woodbury on the trace: let P (b + E s) be the Picard point at a
        trace y, y_p its trace and r0 = y_p - y.  The Newton point
        (A_sigma + E diag(shift) E')^{-1} rhs of the same right-hand side
        is then the field of the source s - shift delta, whose trace is
        y_p - C (shift delta) = y + delta + g, g the GMRES residual, and
        whose linear residual is exactly E (shift g).  Returns the GMRES
        SolveResult, whose x is delta (flattened) and whose image is
        C (shift delta), summed from the C (shift v_i) of its applies in
        its fixed update order, so no sweep forms it.
        """
        shape, d = r0.shape, np.ravel(shift)

        def apply(v):
            cv = self.capacitance((d * v).reshape(shape), work).ravel()
            return v + cv, cv

        sol = gmres_solve(apply, np.ravel(r0), tol=tol, maxit=maxit)
        if sol.image is None:       # no apply ran
            sol.image = np.zeros(sol.x.shape)
        return sol


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
        # the diagonal c main + c_hat lam, built in the array the
        # factorization keeps
        diag = np.multiply.outer(c_hat, basis.lam)
        diag += (c * main)[:, None]
        solve = _time_thomas(diag, c, c * rho)
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
