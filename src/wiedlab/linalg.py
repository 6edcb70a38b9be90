"""Iterative solvers, and the CSR helper of the sparse references.

The Krylov solvers are written out so that iterates are bitwise
reproducible: all reductions go through numpy's fixed-order pairwise
sums, never a threaded BLAS path.  gmres_solve takes a callable, and
the run path calls only it, one Arnoldi cycle; pcg_solve and
bicgstab_solve take any A with a matvec, and their default Jacobi
preconditioner reads A.diagonal(), so it needs a matrix that has one.
Scipy CSR matrices (row offsets / column indices / values) are only the
assembled references the tests check against; finalize_csr gives them
sorted indices and no explicit zeros, and imports scipy on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class SolverError(RuntimeError):
    pass


def finalize_csr(A):
    import scipy.sparse as sp
    A = sp.csr_matrix(A)
    A.eliminate_zeros()
    A.sort_indices()
    return A


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    # np.sum is single-threaded pairwise summation -> deterministic
    return float(np.sum(x * y))


def _norm(x: np.ndarray) -> float:
    return np.sqrt(_dot(x, x))


def jacobi(A) -> np.ndarray:
    d = A.diagonal().copy()
    d[d == 0.0] = 1.0
    return 1.0 / d


def _prec_apply(A, precond):
    """Preconditioner -> callable z = M^{-1} r.

    Accepts 'none', 'jacobi', or any callable; callables must be linear
    and deterministic.
    """
    if precond == "none" or precond is None:
        return lambda r: r
    if precond == "jacobi":
        d = jacobi(A)
        return lambda r: d * r
    if callable(precond):
        return precond
    raise SolverError(f"unknown preconditioner {precond!r}")


@dataclass
class SolveResult:
    x: np.ndarray
    iterations: int
    residuals: list = field(default_factory=list)
    converged: bool = False
    breakdown: str | None = None
    # B x for a second linear map B that the operator also applies
    # (gmres_solve), else None
    image: np.ndarray | None = None


def pcg_solve(A, b, precond="jacobi", tol=1e-10, maxit=1000,
              x0=None) -> SolveResult:
    """Preconditioned CG for SPD systems; relative-residual stopping.

    A nonpositive curvature direction is reported as a breakdown (the
    caller violated the SPD contract) rather than silently continuing.
    """
    n = b.shape[0]
    apply_m = _prec_apply(A, precond)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - A @ x
    bnorm = _norm(b)
    ref = bnorm if bnorm > 0 else 1.0
    res = [_norm(r) / ref]
    if res[0] <= tol:
        return SolveResult(x, 0, res, converged=True)
    z = apply_m(r)
    p = z.copy()
    rz = _dot(r, z)
    for k in range(1, maxit + 1):
        Ap = A @ p
        curv = _dot(p, Ap)
        if curv <= 0.0:
            return SolveResult(x, k, res, converged=False,
                               breakdown="nonpositive curvature (A not SPD?)")
        alpha = rz / curv
        x = x + alpha * p
        r = r - alpha * Ap
        res.append(_norm(r) / ref)
        if res[-1] <= tol:
            # guard against recurrence drift before reporting success
            rtrue = _norm(b - A @ x) / ref
            res[-1] = rtrue
            if rtrue <= 10.0 * tol:
                return SolveResult(x, k, res, converged=True)
            r = b - A @ x
        z = apply_m(r)
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return SolveResult(x, maxit, res, converged=False)


def bicgstab_solve(A, b, precond="jacobi", tol=1e-10, maxit=2000,
                   x0=None) -> SolveResult:
    """Right-preconditioned BiCGStab for nonsingular systems.

    Residual history is not monotone for this method; only the final
    (true, recomputed) relative residual is contractual.  The recurrence
    restarts whenever it claims convergence the true residual does not
    confirm, or when the stabilization parameters break down.
    """
    n = b.shape[0]
    apply_m = _prec_apply(A, precond)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    bnorm = _norm(b)
    ref = bnorm if bnorm > 0 else 1.0
    r = b - A @ x
    res = [_norm(r) / ref]
    if res[0] <= tol:
        return SolveResult(x, 0, res, converged=True)

    k = 0
    breakdown = None
    restarts = 0
    while k < maxit:
        rhat = r.copy()
        rho = alpha = omega = 1.0
        v = np.zeros(n)
        p = np.zeros(n)
        first = True
        restart = False
        while k < maxit:
            k += 1
            rho_new = _dot(rhat, r)
            if rho_new == 0.0:
                breakdown, restart = "rho breakdown", True
                break
            if first:
                p = r.copy()
                first = False
            else:
                beta = (rho_new / rho) * (alpha / omega)
                p = r + beta * (p - omega * v)
            rho = rho_new
            ph = apply_m(p)
            v = A @ ph
            denom = _dot(rhat, v)
            if denom == 0.0:
                breakdown, restart = "alpha breakdown", True
                break
            alpha = rho / denom
            s = r - alpha * v
            if _norm(s) / ref <= tol:
                x = x + alpha * ph
                rtrue = _norm(b - A @ x) / ref
                res.append(rtrue)
                if rtrue <= 10.0 * tol:
                    return SolveResult(x, k, res, converged=True)
                r = b - A @ x
                restart = True
                break
            sh = apply_m(s)
            t = A @ sh
            tt = _dot(t, t)
            if tt == 0.0:
                breakdown, restart = "omega breakdown", True
                break
            omega = _dot(t, s) / tt
            x = x + alpha * ph + omega * sh
            r = s - omega * t
            res.append(_norm(r) / ref)
            if res[-1] <= tol:
                rtrue = _norm(b - A @ x) / ref
                res[-1] = rtrue
                if rtrue <= 10.0 * tol:
                    return SolveResult(x, k, res, converged=True)
                r = b - A @ x
                restart = True
                break
            if omega == 0.0:
                breakdown, restart = "omega breakdown", True
                break
        if not restart:
            break
        restarts += 1
        if restarts > 8:
            break
        r = b - A @ x
        breakdown = None
    return SolveResult(x, k, res, converged=False, breakdown=breakdown)


def gmres_solve(apply_a, b, tol=1e-10, maxit=2000) -> SolveResult:
    """One GMRES cycle from 0, of at most min(maxit, n) iterations, for
    nonsingular systems given by the callable apply_a: v -> A v, or
    v -> (A v, B v) for a second linear map B whose value at the solution
    the caller needs: then the result's image is B x, formed from the
    returned B v_i in the same order as x from the v_i, with no apply.

    Arnoldi runs with modified Gram-Schmidt and the least-squares problem
    is updated with Givens rotations, so the residual estimate is known
    after every iteration.  The solve stops once that estimate of the
    relative residual is at most tol (success) or the cycle is spent, and
    reports it: no apply confirms it, so a caller that needs the true
    residual forms it.  Each iteration keeps the fresh array apply_a
    returns as the next basis vector, so a solve that stops after k
    iterations holds at most k + 1; the Hessenberg matrix and the
    rotations are sized by min(maxit, n).
    """
    n = b.shape[0]
    m = min(maxit, n)
    x = np.zeros(n)
    bnorm = _norm(b)
    ref = bnorm if bnorm > 0 else 1.0
    res = [bnorm / ref]
    if res[0] <= tol:
        return SolveResult(x, 0, res, converged=True)
    V = [b / bnorm]
    images = []
    H = np.zeros((m + 1, m))
    cs, sn = np.zeros(m), np.zeros(m)
    g = np.zeros(m + 1)
    g[0] = bnorm
    j = 0
    while j < m:
        w = apply_a(V[j])
        if isinstance(w, tuple):
            w, img = w
            images.append(img)
        for i in range(j + 1):
            H[i, j] = _dot(w, V[i])
            w -= H[i, j] * V[i]
        H[j + 1, j] = _norm(w)
        for i in range(j):
            H[i, j], H[i + 1, j] = (cs[i] * H[i, j] + sn[i] * H[i + 1, j],
                                    cs[i] * H[i + 1, j] - sn[i] * H[i, j])
        hyp = float(np.hypot(H[j, j], H[j + 1, j]))
        if hyp == 0.0:
            return SolveResult(x, j + 1, res, converged=False,
                               breakdown="singular Hessenberg matrix")
        cs[j], sn[j] = H[j, j] / hyp, H[j + 1, j] / hyp
        lucky = H[j + 1, j] == 0.0
        if not lucky:
            w /= H[j + 1, j]
            V.append(w)
        H[j, j], H[j + 1, j] = hyp, 0.0
        g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
        j += 1
        if lucky or abs(g[j]) / ref <= tol:
            break
    # back substitution, then x += V' y one basis vector at a time so
    # the update is the same under any BLAS thread count, and B x alike
    y = np.zeros(j)
    for i in range(j - 1, -1, -1):
        y[i] = (g[i] - _dot(H[i, i + 1:j], y[i + 1:])) / H[i, i]
    image = np.zeros(images[0].shape) if images else None
    for i in range(j):
        x += y[i] * V[i]
        if images:
            image += y[i] * images[i]
    res.append(abs(g[j]) / ref)
    return SolveResult(x, j, res, converged=res[-1] <= tol, image=image)
