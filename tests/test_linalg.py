import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from wiedlab.assembly import build_operators
from wiedlab.grid import GridSpec, build_grid
from wiedlab.linalg import (bicgstab_solve, finalize_csr, gmres_solve,
                            pcg_solve)


def test_csr_canonical_invariants():
    A = finalize_csr(sp.coo_matrix(([1.0, 2.0, 0.0, 5.0],
                                    ([0, 0, 2, 1], [1, 1, 0, 2])),
                                   shape=(3, 3)))
    assert A.has_sorted_indices
    assert A.nnz == 2  # duplicates summed, explicit zero dropped
    assert A[0, 1] == 3.0


def test_pcg_identity_one_iteration():
    A = finalize_csr(sp.eye(6))
    b = np.arange(6.0)
    res = pcg_solve(A, b, precond="none", tol=1e-12)
    assert res.converged and res.iterations <= 1
    assert np.max(np.abs(res.x - b)) < 1e-12


def test_pcg_diagonal_closed_form():
    A = finalize_csr(sp.diags([1.0, 4.0]))
    res = pcg_solve(A, np.array([1.0, 1.0]), tol=1e-14)
    assert np.allclose(res.x, [1.0, 0.25], atol=1e-12)


def test_pcg_assembled_operator_vs_dense():
    g = build_grid(GridSpec(d=1, a=0.4, L=1.0, Y=1.0, T=1.0,
                            nx=8, ny=8, nt=2))
    ops = build_operators(g)
    A = finalize_csr(sp.diags(ops.mass) + ops.Ka.tocsr())
    rng = np.random.default_rng(1)
    b = rng.standard_normal(A.shape[0])
    res = pcg_solve(A, b, tol=1e-12, maxit=500)
    assert res.converged and res.iterations <= 500
    assert res.residuals[-1] <= 1e-10
    x_dense = np.linalg.solve(A.toarray(), b)  # dense oracle, test only
    assert np.max(np.abs(res.x - x_dense)) < 1e-8 * np.max(np.abs(x_dense))


def test_pcg_breakdown_on_indefinite():
    A = finalize_csr(sp.diags([1.0, -1.0]))
    res = pcg_solve(A, np.array([1.0, 1.0]), precond="none", tol=1e-14)
    assert not res.converged
    assert res.breakdown is not None


def test_bicgstab_identity():
    A = finalize_csr(sp.eye(5))
    b = np.linspace(0, 1, 5)
    res = bicgstab_solve(A, b, tol=1e-13)
    assert res.converged
    assert np.max(np.abs(res.x - b)) < 1e-12


def test_bicgstab_nonsymmetric_2x2():
    A = finalize_csr(sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 3.0]])))
    b = np.array([3.0, 3.0])
    res = bicgstab_solve(A, b, tol=1e-13)
    assert res.converged
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-10)


def test_bicgstab_vs_dense_on_drift_system():
    from wiedlab.assembly import assemble_linear_system
    g = build_grid(GridSpec(d=1, a=0.2, L=1.0, Y=1.0, T=0.5,
                            nx=4, ny=4, nt=8))
    system = assemble_linear_system(g, 0.1)
    rng = np.random.default_rng(2)
    b = rng.standard_normal(system.A.shape[0])
    res = bicgstab_solve(system.A, b, tol=1e-12, maxit=4000)
    assert res.converged
    x_dense = np.linalg.solve(system.A.toarray(), b)
    assert np.max(np.abs(res.x - x_dense)) < 1e-7 * np.max(np.abs(x_dense))


def test_gmres_vs_dense_on_drift_system():
    # the space-time matrix is nonsymmetric (the exponential weight
    # couples the time layers one-sidedly); one cycle must reach the
    # dense solution, and the reported residual estimate must match the
    # true one.  The cycle's Hessenberg matrix is sized by min(maxit, n):
    # with maxit 20000 on 200 unknowns, one sized by maxit would take
    # 3.2 GB, while the solve holds at most the (n + 1, n) matrix, n + 1
    # basis vectors and four more vectors (observed: 481 kB of 650 kB)
    from wiedlab.assembly import assemble_linear_system
    g = build_grid(GridSpec(d=1, a=0.2, L=1.0, Y=1.0, T=0.5,
                            nx=4, ny=4, nt=8))
    system = assemble_linear_system(g, 0.1)
    A = system.A
    assert abs(A - A.T).max() > 0.0
    rng = np.random.default_rng(2)
    b = rng.standard_normal(A.shape[0])
    n = b.shape[0]
    x_dense = np.linalg.solve(A.toarray(), b)
    tracemalloc.start()
    try:
        res = gmres_solve(lambda v: A @ v, b, tol=1e-12, maxit=20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged, res.breakdown
    assert res.residuals[-1] == pytest.approx(
        np.linalg.norm(b - A @ res.x) / np.linalg.norm(b), rel=1e-6)
    assert np.max(np.abs(res.x - x_dense)) < 1e-8 * np.max(np.abs(x_dense))
    assert peak <= 8 * ((n + 1) * n + (n + 5) * n)


def test_gmres_basis_grows_with_the_iterations_made():
    # a solve that stops after k iterations holds k + 1 basis vectors, not
    # maxit + 1: with x, the operator's result and one product beside
    # them, at most k + 4 vectors are alive at once (observed: 7.2 at
    # k = 4), against maxit + 1 = 51 for a basis allocated up front.  The
    # diagonal operator has 4 distinct eigenvalues, so the cycle reaches
    # its Krylov space's exact solution at k = 4
    n = 20000
    d = np.repeat([1.0, 2.0, 3.0, 4.0], n // 4)
    b = np.random.default_rng(0).standard_normal(n)
    tracemalloc.start()
    try:
        res = gmres_solve(lambda v: d * v, b, tol=1e-10, maxit=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged and res.iterations == 4
    assert np.max(np.abs(d * res.x - b)) < 1e-8 * np.max(np.abs(b))
    assert peak <= 8 * n * (res.iterations + 4)


def test_gmres_image_of_a_second_map_needs_no_apply():
    # an operator that also returns B v gets B x back, summed from the
    # B v_i in the order x is summed from the v_i: the same x bit for bit
    # as without it, and B x to roundoff, at no further apply
    from wiedlab.assembly import assemble_linear_system
    g = build_grid(GridSpec(d=1, a=0.2, L=1.0, Y=1.0, T=0.5,
                            nx=4, ny=4, nt=8))
    A = assemble_linear_system(g, 0.1).A
    rng = np.random.default_rng(4)
    B = rng.standard_normal((3 * A.shape[0], A.shape[0]))
    b = rng.standard_normal(A.shape[0])
    applies = []

    def both(v):
        applies.append(1)
        return A @ v, B @ v

    plain = gmres_solve(lambda v: A @ v, b, tol=1e-8, maxit=400)
    res = gmres_solve(both, b, tol=1e-8, maxit=400)
    assert plain.image is None
    assert np.array_equal(res.x, plain.x)
    assert res.residuals == plain.residuals
    assert len(applies) == res.iterations > 0
    assert np.max(np.abs(res.image - B @ res.x)) <= \
        1e-12 * np.max(np.abs(B @ res.x))
    # no iteration, no image to sum: the caller knows its shape
    assert gmres_solve(both, np.zeros(4)).image is None


def test_gmres_first_cycle_applies_once_per_iteration():
    # the solve reports its Givens estimate without a closing apply: it
    # applies the operator once per iteration
    from wiedlab.assembly import assemble_linear_system
    g = build_grid(GridSpec(d=1, a=0.2, L=1.0, Y=1.0, T=0.5,
                            nx=4, ny=4, nt=8))
    A = assemble_linear_system(g, 0.1).A
    rng = np.random.default_rng(3)
    b = rng.standard_normal(A.shape[0])
    applies = []

    def apply(v):
        applies.append(1)
        return A @ v

    res = gmres_solve(apply, b, tol=1e-10, maxit=400)
    assert res.converged and 0 < res.iterations < 400
    assert len(applies) == res.iterations
    true = np.linalg.norm(b - A @ res.x) / np.linalg.norm(b)
    assert true <= 10.0 * 1e-10


def test_solver_determinism_bitwise():
    g = build_grid(GridSpec(d=1, a=0.3, L=1.0, Y=1.0, T=1.0,
                            nx=6, ny=6, nt=2))
    ops = build_operators(g)
    A = finalize_csr(sp.diags(ops.mass) + ops.Ka.tocsr())
    rng = np.random.default_rng(5)
    b = rng.standard_normal(A.shape[0])
    r1 = pcg_solve(A, b, tol=1e-12)
    r2 = pcg_solve(A, b, tol=1e-12)
    assert np.array_equal(r1.x, r2.x)
    assert r1.residuals == r2.residuals
    s1 = bicgstab_solve(A, b, tol=1e-12)
    s2 = bicgstab_solve(A, b, tol=1e-12)
    assert np.array_equal(s1.x, s2.x)
    g1 = gmres_solve(lambda v: A @ v, b, tol=1e-12)
    g2 = gmres_solve(lambda v: A @ v, b, tol=1e-12)
    assert g1.converged
    assert np.array_equal(g1.x, g2.x)
    assert g1.residuals == g2.residuals


def test_single_unknown_system_closed_form():
    # degenerate 1x1 solve through the same code path
    A = sp.csr_matrix(np.array([[2.5]]))
    res = bicgstab_solve(A, np.array([5.0]), tol=1e-15)
    assert res.converged
    assert abs(res.x[0] - 2.0) < 1e-14
