"""Iterative solvers, and the CSR helper of the sparse references.

The Krylov solvers are written out so that iterates are bitwise
reproducible: all reductions go through numpy's fixed-order pairwise
sums, never a threaded BLAS path.  No solver needs a stored matrix: the
run path applies operators as callables or as assembly.KroneckerStencil.
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


def gmres_solve(apply_a, b, tol=1e-10, maxit=2000, restart=60,
                x0=None) -> SolveResult:
    """Restarted GMRES(restart) for nonsingular systems given by the
    callable apply_a: v -> A v.

    Arnoldi runs with modified Gram-Schmidt and the least-squares problem
    is updated with Givens rotations, so the residual estimate is known
    after every iteration.  The solve ends as soon as that estimate of
    the relative residual is at most tol (success) or maxit iterations
    are spent, and reports the estimate: it is the residual of x in
    exact arithmetic, and no apply confirms it, so a caller that needs
    the true residual forms it.  Only a cycle that ends above tol with
    iterations left forms the true residual, which starts the next
    cycle; a cycle that does not lower it means roundoff has set a floor
    above tol, and the solve stops there as a breakdown rather than
    cycling on to maxit.  Iterations counts operator applies inside the
    cycles; beyond them a solve applies the operator once for a warm
    start x0 and once per restart.
    """
    n = b.shape[0]
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    bnorm = _norm(b)
    ref = bnorm if bnorm > 0 else 1.0
    r = b - apply_a(x) if x0 is not None else b.copy()
    beta = _norm(r)
    res = [beta / ref]
    k = 0
    breakdown = None
    while res[-1] > tol and k < maxit:
        m = min(restart, maxit - k)
        V = np.empty((m + 1, n))
        H = np.zeros((m + 1, m))
        cs, sn = np.zeros(m), np.zeros(m)
        g = np.zeros(m + 1)
        V[0] = r / beta
        g[0] = beta
        j = 0
        while j < m:
            w = apply_a(V[j])
            k += 1
            for i in range(j + 1):
                H[i, j] = _dot(w, V[i])
                w -= H[i, j] * V[i]
            H[j + 1, j] = _norm(w)
            for i in range(j):
                H[i, j], H[i + 1, j] = (cs[i] * H[i, j] + sn[i] * H[i + 1, j],
                                        cs[i] * H[i + 1, j] - sn[i] * H[i, j])
            hyp = float(np.hypot(H[j, j], H[j + 1, j]))
            if hyp == 0.0:
                return SolveResult(x, k, res, converged=False,
                                   breakdown="singular Hessenberg matrix")
            cs[j], sn[j] = H[j, j] / hyp, H[j + 1, j] / hyp
            lucky = H[j + 1, j] == 0.0
            if not lucky:
                V[j + 1] = w / H[j + 1, j]
            H[j, j], H[j + 1, j] = hyp, 0.0
            g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
            j += 1
            if lucky or abs(g[j]) / ref <= tol:
                break
        # back substitution, then x += V' y one basis vector at a time so
        # the update is the same under any BLAS thread count
        y = np.zeros(j)
        for i in range(j - 1, -1, -1):
            y[i] = (g[i] - _dot(H[i, i + 1:j], y[i + 1:])) / H[i, i]
        for i in range(j):
            x += y[i] * V[i]
        if abs(g[j]) / ref <= tol or k >= maxit:
            # the estimate ends the solve without another apply
            res.append(abs(g[j]) / ref)
            break
        r = b - apply_a(x)
        beta = _norm(r)
        res.append(beta / ref)
        if res[-1] > tol and res[-1] >= res[-2]:
            breakdown = "stagnation"
            break
    return SolveResult(x, k, res, converged=res[-1] <= tol,
                       breakdown=breakdown)
