import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from wiedlab import ForcingSpec
from wiedlab.assembly import (assemble_linear_system, axis_eigenbasis,
                              build_operators, exp_time_weights,
                              functional_gradient, functional_value,
                              _time_thomas, space_time_inverse,
                              spectral_preconditioner, _row_coefficients)
from wiedlab.combustion import (ZERO_MODEL, CombustionModel, beta_eval,
                                beta_prime_eval, phi_eval, validate_model)
from wiedlab.grid import GridSpec, build_grid
from wiedlab.linalg import finalize_csr

BUMP = validate_model(CombustionModel())


def small_grid(nx=4, ny=4, nt=4, a=0.5, T=1.0):
    return build_grid(GridSpec(d=1, a=a, L=1.0, Y=1.0, T=T,
                               nx=nx, ny=ny, nt=nt))


def test_operator_invariants():
    g = small_grid(6, 5, 3)
    ops = build_operators(g)
    K = ops.Ka.tocsr()
    assert (K - K.T).nnz == 0 or np.max(np.abs((K - K.T).data)) == 0.0
    const = np.ones(g.n_spatial)
    assert np.max(np.abs(ops.Ka @ const)) <= 1e-14 * np.max(np.abs(K.data))
    assert np.all(ops.mass > 0)
    eigs = np.linalg.eigvalsh(K.toarray())
    assert eigs.min() > -1e-12


def _kron_stiffness(g):
    """The weighted stiffness by its sparse Kronecker formula, and the 1-D
    axis matrices (Kx1, Ky1) it is built from."""
    spec = g.spec
    Dy = sp.diags([-np.ones(spec.ny), np.ones(spec.ny)], [0, 1],
                  shape=(spec.ny, spec.ny + 1))
    Ky1 = Dy.T @ sp.diags(g.face_trans_y) @ Dy
    Dx = sp.diags([-np.ones(spec.nx), np.ones(spec.nx)], [0, 1],
                  shape=(spec.nx, spec.nx + 1))
    Kx1 = Dx.T @ sp.diags(np.full(spec.nx, 1.0 / g.hx)) @ Dx
    xv = g.xvol
    if spec.d == 1:
        K = sp.kron(Ky1, sp.diags(xv)) + sp.kron(sp.diags(g.yvol), Kx1)
    else:
        Kxx = sp.kron(Kx1, sp.diags(xv)) + sp.kron(sp.diags(xv), Kx1)
        K = (sp.kron(Ky1, sp.diags(g.xmass))
             + sp.kron(sp.diags(g.yvol), Kxx))
    return finalize_csr(K), Kx1.toarray(), Ky1.toarray()


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _block_rows(K, X):
    # the products of the rows of X collected from K.blocks, which must
    # cover the rows in order, each block with a scratch of its shape
    Y = np.empty(np.shape(X))
    k = 0
    for k0, y, t in K.blocks(X):
        assert k0 == k and t.shape == y.shape
        Y[k0:k0 + len(y)] = y
        k += len(y)
    assert k == len(Y)
    return Y


@pytest.mark.parametrize("chunk", ["default", "small"])
@pytest.mark.parametrize("d,nx,ny", [(1, 7, 5), (2, 5, 3)])
@pytest.mark.parametrize("a", [-0.5, 0.5])
def test_stencil_products_equal_csr_bitwise(monkeypatch, a, d, nx, ny,
                                            chunk):
    # every product of the stencil stiffness, of a vector or of the rows
    # of a field, has the bits of the CSR matrix of the Kronecker formula,
    # signed zeros and non-finite entries included; so does the shifted
    # parabolic step matrix.  The row products are the same whatever the
    # layout of the input
    from wiedlab.assembly import KroneckerStencil, _axis_stiffness
    g = build_grid(GridSpec(d=d, a=a, L=1.0, Y=1.0, T=1.0,
                            nx=nx, ny=ny, nt=4))
    S = g.n_spatial
    if chunk == "small":   # blocks of 2 rows: 7 rows are 3 and a remainder
        monkeypatch.setattr(KroneckerStencil, "CHUNK", 2 * S + 1)
    ops = build_operators(g)
    K, Kx1, Ky1 = _kron_stiffness(g)
    assert all(np.array_equal(_bits(p), _bits(q)) for p, q in
               zip(_axis_stiffness(g), (Kx1, Ky1)))
    C = ops.Ka.tocsr()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(C, name), getattr(K, name)), name
    rng = np.random.default_rng(nx + 10 * d)
    for k in (None, 1, 2, 7):
        U = rng.standard_normal((S,) if k is None else (k, S))
        U[np.abs(U) < 0.4] = 0.0
        U[np.abs(U) > 1.6] = -0.0
        if k is None:
            assert np.array_equal(_bits(ops.Ka @ U), _bits(K @ U))
            continue
        ref = _bits((K @ U.T).T)
        assert np.array_equal(_bits(_block_rows(ops.Ka, U)), ref)
        assert np.array_equal(
            _bits(_block_rows(ops.Ka, np.asfortranarray(U))), ref)
    V = rng.standard_normal((5, S))
    V[1, 3], V[2, -1], V[4, 0] = np.inf, -np.inf, np.nan
    with np.errstate(invalid="ignore"):
        assert np.array_equal(_bits(_block_rows(ops.Ka, V)),
                              _bits((K @ V.T).T))
        for v in V:
            assert np.array_equal(_bits(ops.Ka @ v), _bits(K @ v))
    with pytest.raises(ValueError, match="rows"):
        ops.Ka @ V.T
    shift = ops.mass / 0.01
    B = finalize_csr(sp.diags(shift) + K)
    for u in (U[0], rng.standard_normal(S)):
        assert np.array_equal(_bits(ops.Ka.shifted(shift) @ u), _bits(B @ u))


def test_exp_weights_telescope():
    g = small_grid()
    for eps in (0.5, 0.05):
        w = exp_time_weights(g.t, eps)
        assert abs(w.sum() - (1.0 - np.exp(-g.spec.T / eps))) < 1e-15


def test_functional_zero_for_constants_without_reaction():
    g = small_grid()
    U = np.full(g.spacetime_shape, 0.8)
    assert abs(functional_value(g, ZERO_MODEL, 0.2, U)) < 1e-14


def test_functional_constant_with_reaction_closed_form():
    g = small_grid()
    c, eps = 0.6, 0.17
    U = np.full(g.spacetime_shape, c)
    expected = phi_eval(BUMP, c) * 2.0 * g.spec.L * (
        1.0 - np.exp(-g.spec.T / eps))
    assert abs(functional_value(g, BUMP, eps, U) - expected) < 1e-14


def brute_force_functional(grid, model, eps, U):
    """Independent dense re-evaluation by plain loops over cells."""
    spec = grid.spec
    Ul = U.reshape(spec.nt + 1, spec.ny + 1, spec.nx + 1)
    total = 0.0
    for n in range(spec.nt):
        w = np.exp(-grid.t[n] / eps) - np.exp(-grid.t[n + 1] / eps)
        inert = 0.0
        for j in range(spec.ny + 1):
            for i in range(spec.nx + 1):
                dudt = (Ul[n + 1, j, i] - Ul[n, j, i]) / grid.dt
                inert += grid.yvol[j] * grid.xvol[i] * dudt**2
        spat = 0.0
        for m in (n, n + 1):
            e = 0.0
            for j in range(spec.ny):
                for i in range(spec.nx + 1):
                    e += grid.xvol[i] * grid.face_trans_y[j] * (
                        Ul[m, j + 1, i] - Ul[m, j, i])**2
            for j in range(spec.ny + 1):
                for i in range(spec.nx):
                    e += grid.yvol[j] / grid.hx * (
                        Ul[m, j, i + 1] - Ul[m, j, i])**2
            tr = 0.0
            for i in range(spec.nx + 1):
                tr += grid.xvol[i] * float(phi_eval(model, Ul[m, 0, i]))
            spat += 0.5 * (e + tr)
        total += w * (eps * inert + spat)
    return total


def test_functional_matches_brute_force():
    g = small_grid(4, 4, 4)
    rng = np.random.default_rng(7)
    U = 0.5 + 0.3 * rng.standard_normal(g.spacetime_shape)
    val = functional_value(g, BUMP, 0.3, U)
    ref = brute_force_functional(g, BUMP, 0.3, U)
    assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("d", [1, 2])
def test_gradient_matches_central_differences(d):
    # d = 2 checks the trace term of stencil_residual on a 2-D trace
    g = (small_grid(5, 4, 5) if d == 1 else
         build_grid(GridSpec(d=2, a=0.5, L=1.0, Y=1.0, T=1.0,
                             nx=4, ny=3, nt=5)))
    rng = np.random.default_rng(1)
    U = 0.5 + 0.3 * rng.standard_normal(g.spacetime_shape)
    G = functional_gradient(g, BUMP, 0.25, U)
    h = 1e-5
    for trial in range(3):
        eta = rng.standard_normal(g.spacetime_shape)
        eta.reshape(g.spec.nt + 1, -1)[0] = 0.0
        fp = functional_value(g, BUMP, 0.25, U + h * eta)
        fm = functional_value(g, BUMP, 0.25, U - h * eta)
        fd = (fp - fm) / (2 * h)
        an = float(np.sum(G * eta.reshape(G.shape[0], -1).reshape(G.shape)))
        assert abs(fd - an) <= 1e-6 * max(1.0, abs(fd))


def test_gradient_zero_on_initial_layer():
    g = small_grid()
    rng = np.random.default_rng(2)
    U = rng.standard_normal(g.spacetime_shape)
    G = functional_gradient(g, ZERO_MODEL, 0.2, U)
    assert np.all(G[0] == 0.0)


def test_gradient_linear_in_time_reduction():
    # beta = 0, U = alpha t, no spatial variation: only the inertia term
    # survives and the exact per-layer gradient is
    #   2 eps alpha / dt * mass * (w_{m-1} - w_m)
    g = small_grid(4, 4, 6)
    eps, alpha = 0.3, 0.7
    U = np.broadcast_to((alpha * g.t)[:, None, None],
                        g.spacetime_shape).copy()
    G = functional_gradient(g, ZERO_MODEL, eps, U)
    w = exp_time_weights(g.t, eps)
    wpad = np.append(w, 0.0)
    ops = build_operators(g)
    for m in range(1, g.spec.nt + 1):
        expect = (2.0 * eps * alpha / g.dt) * ops.mass * (w[m - 1] - wpad[m])
        assert np.max(np.abs(G[m] - expect)) < 1e-14


def test_adjoint_consistency_gradient_vs_system():
    # gradient row m equals 2 w_{m-1} times row m of the assembled
    # system's residual A x + E bs - rhs, a CSR matvec that shares no
    # code with the stencil the gradient is formed from, to roundoff
    g = small_grid(4, 4, 5, T=0.8)
    eps = 0.15
    system = assemble_linear_system(g, eps)
    w = exp_time_weights(g.t, eps)
    rng = np.random.default_rng(3)
    for model in (ZERO_MODEL, BUMP):
        U = rng.random((g.spec.nt + 1, g.n_spatial))
        G = functional_gradient(g, model, eps, U)
        rG = G[1:] / (2.0 * w[:, None])
        rA = _matvec_residual(system, model, U)
        scale = np.max(np.abs(rA))
        assert np.max(np.abs(rG - rA)) <= 1e-12 * scale, model


def test_constants_solve_homogeneous_system():
    from wiedlab.wied import WiedConfig, solve_wied
    g = small_grid()
    c = 1.3
    U = solve_wied(g, ZERO_MODEL, WiedConfig(eps=0.2, outer_tol=1e-11),
                   np.full(g.n_spatial, c)).U
    assert np.max(np.abs(U - c)) < 1e-10


def test_assembled_residual_at_dense_solution():
    g = small_grid(4, 4, 4, T=0.5)
    system = assemble_linear_system(g, 0.2)
    U0 = np.random.default_rng(4).standard_normal(g.n_spatial)
    b = system.rhs(U0)
    x = np.linalg.solve(system.A.toarray(), b)  # dense LU oracle
    resid = system.A @ x - b
    assert np.max(np.abs(resid)) < 1e-10 * max(1.0, np.max(np.abs(b)))


def test_drift_is_the_only_skew_part():
    g = small_grid(3, 3, 5, T=0.5)
    eps = 0.2
    system = assemble_linear_system(g, eps)
    skew = (system.A - system.A.T) * 0.5
    # expected: +- (eps/dt^2) (1 - rho)/2 M on the time off-diagonals
    nt, S = g.spec.nt, g.n_spatial
    coef = (eps / g.dt**2) * (1.0 - system.rho) / 2.0
    shift = sp.diags([np.ones(nt - 1)], [1], shape=(nt, nt))
    ops = build_operators(g)
    expected = coef * (sp.kron(shift, sp.diags(ops.mass))
                       - sp.kron(shift.T, sp.diags(ops.mass)))
    assert abs(sp.csr_matrix(skew - expected)).max() < 1e-14


def test_manufactured_weighted_flux_is_exact():
    # the first face's transmissibility recovers y^a dU/dy at y = 0 exactly
    # for a profile of constant weighted flux
    for a in (-0.5, 0.0, 0.5):
        g = small_grid(4, 6, 4, a=a)
        U = g.eval_spatial(lambda x, y: 1.0 + y**(1 - a) / (1 - a))
        flux = g.face_trans_y[0] * (U[1] - U[0])
        assert np.max(np.abs(flux - 1.0)) < 1e-10


def test_spectral_preconditioner_inverts_base_system():
    # exact inverse of the Picard matrix A + diag(c_hat) (x) sigma D_tr,
    # for sigma = 0 (the base system) and sigma = the model's Lipschitz bound
    for d, a in itertools.product((1, 2), (-0.5, 0.0, 0.5)):
        g = build_grid(GridSpec(d=d, a=a, L=1.0, Y=1.0, T=0.5,
                                nx=4, ny=5, nt=6))
        nt, S = g.spec.nt, g.n_spatial
        for eps, sigma in itertools.product((0.3, 0.02),
                                            (0.0, BUMP.lipschitz)):
            system = assemble_linear_system(g, eps)
            stab = np.zeros((nt, S))
            stab[:, system.ops.trace_index] = (
                system.c_hat[:, None] * system.ops.trace_mass * sigma)
            A = system.A + sp.diags(stab.ravel())
            prec = spectral_preconditioner(system, sigma)
            r = np.random.default_rng(5).standard_normal(system.n_unknowns)
            z = prec(r)
            assert np.max(np.abs(A @ z - r)) < 1e-10 * np.max(np.abs(r)), \
                (d, a, eps, sigma)


def test_trace_newton_step_matches_sparse_direct_solve(monkeypatch):
    # the Woodbury/trace Newton step (exact Picard inverse plus GMRES on the
    # y = 0 trace) against a sparse direct solve with the assembled Newton
    # matrix, at a Picard iterate of a burning plateau (the level stopped
    # after OUTER_MAXIT = 4 steps)
    from scipy.sparse.linalg import spsolve

    from wiedlab import wied
    from wiedlab.wied import WiedConfig, WiedConvergenceError, solve_wied
    monkeypatch.setattr(wied, "OUTER_MAXIT", 4)
    for d, eps in itertools.product((1, 2), (0.1, 0.03)):
        g = build_grid(GridSpec(d=d, a=0.5, L=1.0, Y=1.0, T=1.0,
                                nx=8, ny=4, nt=24))
        U0 = g.eval_spatial(lambda *xy: np.clip(
            1 - sum(v**2 for v in xy[:-1]) / 0.36, 0, None)**2
            + 0.0 * xy[-1]).ravel()
        system = assemble_linear_system(g, eps)
        with pytest.raises(WiedConvergenceError) as exc:
            solve_wied(g, BUMP, WiedConfig(eps=eps), U0,
                       system=system)
        U = exc.value.level.U
        nt, S = g.spec.nt, g.n_spatial
        tr = system.ops.trace_index
        ctm = system.c_hat[:, None] * system.ops.trace_mass
        dbeta = ctm * beta_prime_eval(BUMP, U[1:, tr])
        rhs = system.rhs(U0).reshape(nt, S)
        rhs[:, tr] += dbeta * U[1:, tr] - ctm * beta_eval(BUMP, U[1:, tr])
        x_ref = spsolve(system.newton_matrix(BUMP, U).tocsc(), rhs.ravel())
        inv = space_time_inverse(system, BUMP.lipschitz)
        shift = dbeta - ctm * BUMP.lipschitz
        # the Picard point P (b + E s_p) in the per-axis eigenbasis, s_p
        # the Picard source at the trace y0 of the iterate, and the trace
        # system's residual at y0
        y0 = U[1:, tr]
        s_p = ctm * (BUMP.lipschitz * y0 - beta_eval(BUMP, y0))
        bh = inv.basis.to_modes(system.initial_row(U0))
        xp_tr = inv.trace(inv.trace_solve(s_p, bh))
        r0 = xp_tr - y0
        work = np.empty((nt, S))
        for tol in (1e-7, 1e-11):
            sol = inv.shifted_solve(r0, shift, tol=tol, maxit=500, work=work)
            assert sol.converged, (d, eps, tol)
            # the Newton point is the field of the source s_p - shift delta
            s_n = s_p - shift * sol.x.reshape(r0.shape)
            x = inv.basis.from_modes(inv.trace_solve(s_n, bh))
            assert np.max(np.abs(x.ravel() - x_ref)) <= \
                10.0 * tol * np.max(np.abs(x_ref)), (d, eps, tol)
            # and its trace is xp_tr - C (shift delta), the image GMRES
            # sums from its applies
            x_tr = xp_tr - sol.image.reshape(r0.shape)
            assert np.max(np.abs(x_tr - x[:, tr])) <= \
                1e-12 * np.max(np.abs(x)), (d, eps, tol)


def test_trace_capacitance_matches_dense_inverse():
    # G = E' (M/dt + K + sigma D_tr)^{-1} E, E the injection into the y = 0
    # layer, against its factored form Vx diag(h) Vx' from the per-axis basis
    for d, a in itertools.product((1, 2), (-0.5, 0.0, 0.5)):
        g = build_grid(GridSpec(d=d, a=a, L=1.0, Y=1.0, T=0.5,
                                nx=4, ny=5, nt=6))
        ops = build_operators(g)
        E = np.zeros((g.n_spatial, ops.trace_index.shape[0]))
        E[ops.trace_index, np.arange(E.shape[1])] = 1.0
        for sigma in (0.0, BUMP.lipschitz):
            B = (np.diag(ops.mass / g.dt) + ops.Ka.tocsr().toarray()
                 + sigma * E @ np.diag(ops.trace_mass) @ E.T)
            G_dense = E.T @ np.linalg.solve(B, E)
            basis = axis_eigenbasis(g, ops, sigma)
            h = basis.trace_gain(1.0 / (1.0 / g.dt + basis.lam))
            I = np.eye(E.shape[1])
            G = basis.from_trace_modes(h * basis.to_trace_modes(I))
            assert np.max(np.abs(G - G_dense)) <= \
                1e-12 * np.max(np.abs(G_dense)), (d, a, sigma)


def test_stencil_residual_matches_assembled_system():
    # the stencil EL residual, formed layer by layer from Ka U, against
    # the matvec of the assembled space-time matrix plus the trace source
    # minus the initial-layer right-hand side
    rng = np.random.default_rng(12)
    for d, model, eps in itertools.product((1, 2), (ZERO_MODEL, BUMP),
                                           (0.3, 0.02)):
        g = build_grid(GridSpec(d=d, a=0.5, L=1.0, Y=1.0, T=0.5,
                                nx=4, ny=5, nt=6))
        ops = build_operators(g)
        U = rng.random((g.spec.nt + 1, g.n_spatial))
        system = assemble_linear_system(g, eps, ops=ops)
        r = system.residual(model, U)[1]
        ref = _matvec_residual(system, model, U)
        assert r.shape == ref.shape
        assert np.max(np.abs(r - ref)) <= 1e-12 * np.max(np.abs(ref)), \
            (d, model.kind, eps)


def _sparse_formula_system(g, ops, eps, U0):
    """The space-time matrix and rhs by the sparse-operator formula:
    diags(c main (x) m) - c Msub - c rho Msup + diags(c_hat) Kkron, and
    the initial-layer term c M U0 in row 0."""
    nt, S = g.spec.nt, g.n_spatial
    c = eps / g.dt**2
    rho = float(np.exp(-g.dt / eps))
    main = np.full(nt, 1.0 + rho)
    main[-1] = 1.0
    c_hat = np.full(nt, 0.5 * (1.0 + rho))
    c_hat[-1] = 0.5
    shift = sp.diags([np.ones(nt - 1)], [-1], shape=(nt, nt))
    Msub = sp.kron(shift, sp.diags(ops.mass), format="csr")
    Msup = sp.kron(shift.T, sp.diags(ops.mass), format="csr")
    Kkron = sp.kron(sp.eye(nt), ops.Ka.tocsr(), format="csr")
    A = (sp.diags(c * np.outer(main, ops.mass).ravel())
         - c * Msub - (c * rho) * Msup
         + sp.diags(np.repeat(c_hat, S)) @ Kkron)
    b = np.zeros((nt, S))
    b[0] = c * ops.mass * U0
    return finalize_csr(A), b


def test_pattern_assembly_matches_sparse_formula():
    # the lazily built A is the very matrix the sparse formula gives, for
    # every eps level on one set of operators; at eps = 1e-9 rho
    # underflows and the zero time couplings are dropped
    rng = np.random.default_rng(14)
    for d, a in itertools.product((1, 2), (-0.5, 0.5)):
        g = build_grid(GridSpec(d=d, a=a, L=1.0, Y=1.0, T=0.5,
                                nx=4, ny=5, nt=6))
        ops = build_operators(g)
        nt, S = g.spec.nt, g.n_spatial
        U0 = rng.standard_normal(S)
        for eps in (0.3, 0.02, 1e-9):
            system = assemble_linear_system(g, eps, ops=ops)
            A_ref, b_ref = _sparse_formula_system(g, ops, eps, U0)
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(system.A, name),
                                      getattr(A_ref, name)), (d, a, eps, name)
            assert np.array_equal(system.rhs(U0), b_ref.ravel())
            if eps == 1e-9:
                assert system.A.nnz == A_ref.nnz < (
                    ops.Ka.tocsr().nnz * nt + 2 * (nt - 1) * S)


def _matvec_residual(system, model, U):
    """A x + E bs - rhs(U0) with the assembled matrix A."""
    nt, S = system.grid.spec.nt, system.grid.n_spatial
    source = np.zeros((nt, S))
    tr = system.ops.trace_index
    source[:, tr] = (system.c_hat[:, None] * system.ops.trace_mass
                     * beta_eval(model, U[1:, tr]))
    return (system.A @ U[1:].ravel() + source.ravel()
            - system.rhs(U[0])).reshape(nt, S)


def test_residual_is_matvec_plus_source_minus_rhs():
    # the residual of the system against its assembled form
    rng = np.random.default_rng(16)
    for d, eps in itertools.product((1, 2), (0.3, 0.02)):
        g = build_grid(GridSpec(d=d, a=0.5, L=1.0, Y=1.0, T=0.5,
                                nx=4, ny=5, nt=6))
        U = rng.random((g.spec.nt + 1, g.n_spatial))
        system = assemble_linear_system(g, eps)
        ref = _matvec_residual(system, BUMP, U)
        r = system.residual(BUMP, U)[1]
        assert r.shape == ref.shape
        assert np.max(np.abs(r - ref)) <= 1e-12 * np.max(np.abs(ref)), \
            (d, eps)


def test_sweep_never_builds_the_space_time_matrix(tmp_path, monkeypatch):
    # the solver path, the energy reports and the checks read only the
    # stencil residual; A is built on first read and never read there
    from wiedlab import wied
    from wiedlab.config import config_from_dict
    from wiedlab.runner import run_experiment

    systems = []

    def recorded(*args, **kwargs):
        systems.append(assemble_linear_system(*args, **kwargs))
        return systems[-1]

    monkeypatch.setattr(wied, "assemble_linear_system", recorded)
    cfg = config_from_dict({
        "grid": {"d": 1, "a": 0.5, "L": 1.0, "Y": 1.0, "T": 1.0,
                 "nx": 6, "ny": 5, "nt": 20},
        "model": {"kind": "polynomial-bump"},
        "initial": {"kind": "plateau", "radius": 0.5, "height": 0.8},
        "schedule": {"eps0": 0.05, "ratio": 0.5, "count": 2},
        "diagnostics": [{"name": "energy"}],
    })
    run_experiment(cfg, out=str(tmp_path / "run"))
    assert len(systems) == 2
    assert all("A" not in system.__dict__ for system in systems)


def _allocating_time_thomas(b, low, up):
    # the batched Thomas solve written with augmented assignments, which
    # allocate a temporary per layer
    nt, S = b.shape
    cp = np.empty((nt, S))
    emul = np.empty((nt, S))
    emul[0] = 1.0 / b[0]
    cp[0] = -up * emul[0]
    for m in range(1, nt):
        emul[m] = 1.0 / (b[m] + low * cp[m - 1])
        cp[m] = -up * emul[m] if m < nt - 1 else 0.0

    def solve(z):
        z[0] *= emul[0]
        for m in range(1, nt):
            z[m] += low * z[m - 1]
            z[m] *= emul[m]
        for m in range(nt - 2, -1, -1):
            z[m] -= cp[m] * z[m + 1]
        return z

    return solve


@pytest.mark.parametrize("nt", [1, 2, 5, 240])
@pytest.mark.parametrize("shaped", [False, True], ids=["scalar", "per-node"])
def test_in_place_time_sweep_matches_allocating_loop(nt, shaped):
    # the in-place factorization and sweep do the same arithmetic in the
    # same order, so they agree bit for bit; per-node low/up is the (S,)
    # shape time_line_preconditioner passes.  The factorization keeps its
    # diagonal argument, so it gets a copy
    rng = np.random.default_rng(nt + 1000 * shaped)
    S = 37
    low = 0.2 + 0.5 * rng.random(S) if shaped else 0.6
    up = 0.1 + 0.5 * rng.random(S) if shaped else 0.35
    b = 1.5 + rng.random((nt, S))          # diagonally dominant
    solve = _time_thomas(b.copy(), low, up)
    ref = _allocating_time_thomas(b, low, up)
    for _ in range(2):                      # the scratch row is reused
        z = rng.standard_normal((nt, S))
        x = solve(z.copy())
        assert np.array_equal(x, ref(z.copy()))
        lhs = b * x
        lhs[1:] -= low * x[:-1]
        lhs[:-1] -= up * x[1:]
        assert np.max(np.abs(lhs - z)) <= 1e-13 * np.max(np.abs(z))


@pytest.mark.parametrize("d", [1, 2])
def test_inverse_build_peaks_at_its_two_factor_arrays(d):
    # the Thomas factorization of the time problems keeps two (nt, S)
    # arrays, its reciprocal pivots and its eliminated superdiagonal; the
    # diagonal c main + c_hat lam is built in the first, so the build
    # allocates no third full-size array (the basis and the per-row
    # scratch stay below a quarter of one on this grid)
    import tracemalloc
    g = build_grid(GridSpec(d=d, a=0.3, L=1.0, Y=1.0, T=0.5,
                            nx={1: 24, 2: 4}[d], ny=40, nt=200))
    system = assemble_linear_system(g, 0.025)
    full = 8 * g.spec.nt * g.n_spatial
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        inv = space_time_inverse(system, BUMP.lipschitz)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= (2 + 0.25) * full
    assert inv.sweeps == 0


def test_shared_stiffness_product_changes_no_bit():
    # the full check (LinearSystem.check) forms the stiffness products
    # once, in the residual's pass, which hands the layer sums
    # <U_m, K U_m> to the functional with the sums of Phi and the inertia
    # cells; each part must equal the one formed on its own, and the
    # functional read from the check the one that forms its check itself
    g = small_grid(6, 5, 8)
    ops = build_operators(g)
    system = assemble_linear_system(g, 0.1, ops=ops)
    rng = np.random.default_rng(5)
    U = rng.random((g.spec.nt + 1, g.n_spatial))
    work = np.full((g.spec.nt, g.n_spatial), np.nan)
    check = system.check(BUMP, U, U[0], work=work)
    Sm, r = system.residual(BUMP, U)
    assert np.array_equal(_bits(check.residual), _bits(r))
    assert np.array_equal(_bits(check.Sm), _bits(Sm))
    Pm = np.einsum("ns,s->n", phi_eval(BUMP, U[:, ops.trace_index]),
                   ops.trace_mass)
    assert np.array_equal(_bits(check.Pm), _bits(Pm))
    icell = np.einsum("ns,s->n", (np.diff(U, axis=0) / g.dt)**2, ops.mass)
    assert np.array_equal(_bits(check.icell), _bits(icell))
    icell_c, s_cell, p_cell = check.cells()
    assert icell_c is check.icell
    assert np.array_equal(s_cell, 0.5 * (Sm[:-1] + Sm[1:]))
    assert np.array_equal(p_cell, 0.5 * (Pm[:-1] + Pm[1:]))
    value = functional_value(g, BUMP, 0.1, U, U[0], ops=ops)
    assert functional_value(g, BUMP, 0.1, U, check=check) == value
    w = exp_time_weights(g.t, 0.1)
    assert value == float(np.sum(w * (0.1 * icell + s_cell + p_cell)))
    with pytest.raises(ValueError, match="initial layer"):
        system.check(BUMP, U, U[0] + 1.0)


def _stencil_residual_whole(g, model, eps, Ulay, ops):
    # the residual and the layer sums from the CSR products of all layers
    # at once: the blocked LinearSystem.residual must match bit for bit
    KU = np.ascontiguousarray((ops.Ka.tocsr() @ Ulay.T).T)
    c, rho, main, c_hat = _row_coefficients(g, eps)
    r = np.empty(Ulay[1:].shape)
    tstep = main[:, None] * Ulay[1:]
    tstep -= Ulay[:-1]
    tstep[:-1] -= rho * Ulay[2:]
    tstep *= c * ops.mass
    np.multiply(c_hat[:, None], KU[1:], out=r)
    r += tstep
    r[:, ops.trace_index] += c_hat[:, None] * ops.trace_mass * beta_eval(
        model, Ulay[1:, ops.trace_index])
    return np.einsum("ns,ns->n", Ulay, KU), r


@pytest.mark.parametrize("d", [1, 2])
def test_stencil_pass_blocks_keep_the_bits(d, monkeypatch):
    # the pass forms the products a block of layers at a time; at any
    # block size (one layer, blocks that do not divide the layers, one
    # block) its residual and layer sums are those of the whole product
    from wiedlab.assembly import KroneckerStencil
    g = build_grid(GridSpec(d=d, a=0.5, L=1.0, Y=1.0, T=0.5,
                            nx=4, ny=5, nt=11))
    ops = build_operators(g)
    system = assemble_linear_system(g, 0.05, ops=ops)
    rng = np.random.default_rng(20 + d)
    U = rng.random((g.spec.nt + 1, g.n_spatial)) * 1.2 - 0.1
    Sm_ref, r_ref = _stencil_residual_whole(g, BUMP, 0.05, U, ops)
    S = g.n_spatial
    for kb in (1, 2, 3, 5, 12, 40):
        monkeypatch.setattr(KroneckerStencil, "CHUNK", kb * S)
        out = np.full((g.spec.nt, S), np.nan)
        Sm, r = system.residual(BUMP, U, out=out)
        assert r is out
        assert np.array_equal(_bits(r), _bits(r_ref)), kb
        assert np.array_equal(_bits(Sm), _bits(Sm_ref)), kb


def test_eps_must_be_positive():
    g = small_grid()
    U = np.zeros(g.spacetime_shape)
    with pytest.raises(ValueError):
        functional_value(g, ZERO_MODEL, 0.0, U)
    with pytest.raises(ValueError):
        assemble_linear_system(g, -0.5)


def test_forcing_exponent_validation():
    g = small_grid()
    spec = ForcingSpec(p=1.0, q=4.0)
    with pytest.raises(ValueError):
        spec.validate_exponents(g)
    ForcingSpec(p=3.0, q=4.0).validate_exponents(g)
