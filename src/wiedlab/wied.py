"""Space-time solves of the regularized problem and the eps sweep.

For fixed eps the weight-normalized Euler-Lagrange system is solved with
guarded Newton and a Picard fallback wherever the model has a reaction,
and with Picard alone on the zero model, where a Newton step is the
Picard step at a higher cost; accepted steps never increase the
functional.  The iterate lives in the spatial eigenbasis of the exact
inverse of the Picard matrix, so each Picard step is one Thomas sweep,
and each Newton step adds a GMRES solve on the y = 0 trace only; no
Krylov method runs on the full space.  The sweep re-solves along a
geometric eps schedule, starting its first level from the
implicit-Euler reference (the eps -> 0 limit) and each later level from
the previous one, and measures the distance to that reference in the
discrete C([0,T]: L^{2,a}) metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import (DiscreteOperators, LinearSystem,
                       assemble_linear_system, build_operators,
                       exp_time_weights, functional_value,
                       space_time_inverse)
from .combustion import beta_eval, beta_prime_eval, phi_eval
from .grid import WeightedGrid
# bicgstab_solve is unused here; it stays importable because
# perfbench/tracing.py patches it by name
from .linalg import bicgstab_solve  # noqa: F401
from .parabolic import solve_parabolic


@dataclass(eq=False)
class Level:
    """One eps level from its solve to its reports: the field, the stats
    of solve_wied (empty for a field not solved here, such as a stored
    dump), the stiffness product KU = Ka.rows(U) of its (nt+1, S) layers
    where known, so a level started from it and its energy report
    form none, and, in a sweep, its distance to the reference.  Levels
    compare by identity, so a level can key what is computed for it."""

    eps: float | None          # None for a field that is no WIED level
    U: np.ndarray              # space-time field, any shape of the grid's size
    stats: dict = field(default_factory=dict)
    KU: np.ndarray | None = field(default=None, repr=False)
    dist_to_ref: float | None = None

    @property
    def iterations(self) -> int:
        return self.stats["iterations"]

    @property
    def el_residual(self) -> float:
        return self.stats["residuals"][-1]

    @property
    def el_tol(self) -> float | None:     # the enforced EL tolerance
        return self.stats.get("el_tol_abs")


class WiedConvergenceError(RuntimeError):
    def __init__(self, msg, level: Level):
        super().__init__(msg)
        self.level = level      # the unfinished level


class SweepError(RuntimeError):
    def __init__(self, msg, completed: list[Level]):
        super().__init__(msg)
        self.completed = completed


@dataclass
class WiedConfig:
    """Settings of one WIED level solve.

    A level ends once its full EL residual is at most outer_tol times
    |b - E bs| at its start (el_tol_abs in solve_wied).
    inner_tol is the floor of the relative GMRES tolerance of a Newton
    trace solve, whose tolerance otherwise follows the outer residual
    (the forcing term in solve_wied).  The scheme itself is fixed (see
    solve_wied): full steps with a backtracking line search, at most
    INNER_MAXIT GMRES iterations per Newton try, and failure after
    OUTER_MAXIT iterations.
    """

    eps: float = 0.1
    outer_tol: float = 1e-9        # relative EL residual
    inner_tol: float = 1e-11       # floor of the Newton GMRES tolerance


@dataclass
class EpsilonSchedule:
    eps0: float
    ratio: float = 0.5
    count: int = 1

    def __post_init__(self):
        for e in self.values():
            if not 0.0 < e < 1.0:
                raise ValueError(f"schedule leaves (0, 1): eps = {e}")

    def values(self) -> list[float]:
        return [self.eps0 * self.ratio**k for k in range(self.count)]


def check_horizon(eps0: float, T: float):
    """Raise ValueError unless eps0 <= T/20, the bound that keeps the
    truncated-tail weight exp(-T/eps0) negligible."""
    if eps0 > T / 20.0 + 1e-12:
        raise ValueError(
            f"eps0 = {eps0} too large for horizon T = {T}: "
            "need eps0 <= T/20 so the truncated-tail weight stays negligible")


# Eisenstat-Walker choice 2: a Newton step's GMRES solve is held to the
# linear residual eta_k res_k, eta_k = min(FORCING_MAX,
# FORCING_GAMMA (res_k / res_{k-1})^FORCING_ALPHA); FORCING_MAX also caps
# the relative GMRES tolerance
FORCING_GAMMA = 0.9
FORCING_ALPHA = 2
FORCING_MAX = 0.1
# the GMRES budget of one Newton try, each iteration one Thomas sweep like
# a Picard step; a try that spends it still yields an inexact step the
# line search judges.  Started next to the minimizer, as the sweep starts
# every level, no try on the shipped config needs more than 5
INNER_MAXIT = 10
# a level that misses its tolerance after this many outer iterations fails
OUTER_MAXIT = 40
# after the k-th failed Newton try in a row, Picard runs until the
# residual is at most NEWTON_REARM times its value at that try, or for
# 2^k steps, whichever comes first; a cold start (no start) runs Picard
# until the residual is at most NEWTON_REARM times its start value
NEWTON_REARM = 0.05


def _norm(v) -> float:
    # one pass with no full-size temporary, in a fixed order
    x = np.ravel(v)
    return float(np.sqrt(np.einsum("i,i->", x, x)))


def solve_wied(grid: WeightedGrid, model, cfg: WiedConfig, U0: np.ndarray,
               start: Level | None = None,
               system: LinearSystem | None = None) -> Level:
    """Solve the discrete minimization for one eps.

    Returns the Level of cfg.eps: its field with U[0] = U0 exactly,
    per-iteration stats (residuals, functional values, the GMRES
    iterations of each tried step, 0 for Picard, the relative GMRES
    tolerance of each Newton try, the kind and damping of each accepted
    step, and the absolute residual threshold el_tol_abs actually
    enforced) and KU, the stiffness product its exit check formed.
    Check k follows step k - 1: a level that passes it reports k
    iterations and k residuals; one that fails the check after step
    OUTER_MAXIT raises with OUTER_MAXIT iterations and one more residual.

    The solve starts from start.U, its first layer replaced by U0, or
    from U0 held in time without a start.  A start's KU, if any, is the
    product of its own field, and the entry check uses it instead of
    forming it again; it needs a field whose first layer is U0 already,
    as a level of the same U0 has.

    system defaults to the system of cfg.eps; a sweep passes its own,
    built on the operators its levels share.

    With X the unknown layers, the EL residual is r(X) = L(X) + E bs(X):
    L(X) = A X - b is affine, bs the c_hat-scaled trace source and E the
    injection of trace blocks into the y = 0 columns.  Damped Picard runs
    in majorize-minimize form: bs is majorized by its quadratic surrogate
    of curvature sigma >= sup|beta'|, stab = c_hat D_tr sigma, so a full
    step can never increase the functional.  Its matrix
    A_sigma = A + E stab E' is inverted exactly (space_time_inverse), so

        Picard:  x = P (b - E bs(U) + E stab U_tr),  P = A_sigma^{-1},

    with no Krylov iterations.  P = V Tm^{-1} V' in the per-axis
    eigenbasis V (V' M V = I) with Tm one tridiagonal time problem per
    spatial mode, and from the first step to the level's exit the
    unknown layers are kept as their modal coefficients V' M U.  V' b is
    formed once per level, on row 0, the only nonzero row of b, and V' E s
    transforms only the trace block s, so a Picard step is one Thomas
    sweep and no full transform; the trace of the new iterate is read
    from its coefficients (SpaceTimeInverse.trace).  Where the model has
    a reaction (sigma > 0), an iteration tries a guarded Newton step and
    falls back to a Picard step in the same iteration when the line
    search rejects it.  With sigma = 0, beta' = 0 and the Newton step is
    the Picard step at GMRES iterations + 2 sweeps, so only Picard runs.
    Every step starts at the full step lam = 1 and halves lam until the
    line search accepts.  Far from the minimizer the trace Newton
    system can be indefinite, so Newton is tried only where the start
    or the last tries suggest it pays.  A level given a start (as
    the sweep starts every level, next to its minimizer) tries Newton
    from the first iteration on; a cold start, U0 held in time, takes
    Picard steps until the tracked residual is at most NEWTON_REARM
    (5%) of its start value.  A Newton try that is rejected, or accepted
    only with lam < 1, puts the level back on Picard: after the
    k-th such try in a row Newton is tried again once the tracked
    residual is at most NEWTON_REARM of its value at that try, or after
    2^k Picard steps, so it is never kept off for good.  The Newton
    matrix is
    A_sigma + E D E' with D = c_hat D_tr (beta'(U) - sigma), solved by
    Woodbury on the trace (SpaceTimeInverse.shifted_solve) as a
    correction of the Picard point x_p:

        Newton:  x = (A_sigma + E D E')^{-1} (b + E (c_hat D_tr beta'(U) U_tr - bs(U)))
                   = x_p - P E (D delta),

    where delta, the change of the trace from U_tr, solves
    (I + C D) delta = r0 with r0 = E' x_p - U_tr.  The Picard point
    starts every iteration, and it is the fallback step too; a Newton
    step adds one sweep per GMRES iteration and one for the correction:
    GMRES iterations + 2 sweeps in all, and again no full transform.

    The GMRES solve is inexact Newton with the Eisenstat-Walker choice 2
    forcing term eta_k = min(0.1, 0.9 (res_k / res_{k-1})^2) (0.1 at the
    first iteration): its linear residual is held below
    target = max(eta_k res_k, tol_abs / 2).  The GMRES residual g enters
    L(x) as E (D g), so the relative tolerance is
    target / (max|D| |r0|), clipped to [inner_tol, 0.1].  GMRES runs
    one cycle of at most INNER_MAXIT iterations in any case, and the
    line search judges the inexact step that leaves.

    Both steps leave a residual supported on the trace, known without a
    matvec:

        Picard:  L(x) = E (stab (U_tr - x_tr) - bs(U)),
        Newton:  L(x) = E (stab (U_tr - x_tr) - bs(U) - D delta),

    and L is affine, so a damped candidate (1 - lam) U + lam x has
    residual (1 - lam) L(U) + lam L(x) + E bs(cand).  The residual is
    therefore tracked as its trace block plus its off-trace part, which
    is the last full residual's scaled by the product of the 1 - lam.

    The functional needs no stiffness product either.  Its gradient is
    2 W r with W = diag(w_{m-1}), the exponential weight the rows of r
    are divided by, so E = Q + Pot with Q quadratic, grad Q = 2 W L and
    Hessian 2 W A, where Pot is the trace-potential sum.  Along
    d = x - U, A d = L(x) - L(U), hence

        E(U + lam d) = E(U) + lam a1 + lam^2 a2 + Pot(U + lam d) - Pot(U),
        a1 = 2 <W L(U), d>,   a2 = <W (L(x) - L(U)), d>,

    and a line-search candidate costs only trace work (beta and Phi on
    its trace).  The off-trace pairing <W r_off, d> is taken in the modes
    as <W V' r_off, V' M d>, with V' r_off formed once per full residual.
    LinearSystem.residual and functional_value run at entry, on the
    nodal input itself (so a level that has converged there returns its
    input bit for bit), and whenever the tracked residual passes the
    tolerance, on the field transformed back from the modes; only that
    full residual ends the solve, and the field it checked is returned.

    A level allocates its full-size arrays once: the nodal field and its
    stiffness product (both returned), three slots that the modal
    iterate, the Picard point and the Newton point rotate through, the
    full residual, and one scratch array for the residual's time
    stencil, the functional's time differences, the line search's
    off-trace pairing and the capacitance sweeps of GMRES.  A damped
    candidate is formed in the iterate's slot, and an accepted full step
    takes over the trial point's.  Beyond these, the inverse holds its
    two Thomas factor arrays and the basis one transform scratch.
    """
    system = system or assemble_linear_system(grid, cfg.eps)
    ops = system.ops
    nt, S = grid.spec.nt, grid.n_spatial
    U0f = np.asarray(U0, dtype=float).reshape(-1)
    if not np.all(np.isfinite(U0f)):
        raise ValueError("initial data must be finite")

    U = np.empty((nt + 1, S))
    if start is None:
        U[:] = U0f[None, :]
    else:
        U[:] = np.asarray(start.U, dtype=float).reshape(nt + 1, S)
        if start.KU is not None and not np.array_equal(U[0], U0f):
            raise ValueError("a start with a stiffness product needs "
                             "first layer U0")
        U[0] = U0f
    # the level's full-size buffers: the nodal field (U, then every field
    # nodal() forms), the full residual r (then W V' r_off), one scratch,
    # and, allocated on first use, the level's own stiffness product and
    # the three modal slots
    Ubuf = U
    rbuf = np.empty((nt, S))
    work = np.empty((nt, S))
    KUbuf = slots = None

    b0 = system.initial_row(U0f)
    tr = ops.trace_index
    tm = ops.trace_mass
    ctm = system.c_hat[:, None] * tm                  # (nt, n_trace)
    wgt = exp_time_weights(grid.t, cfg.eps)[:, None]  # w_{m-1} of row m
    sigma = max(model.lipschitz, 0.0)
    stab = ctm * sigma
    inv = space_time_inverse(system, sigma)
    basis = inv.basis

    def potential(pm):
        # the trace-potential part of E from the layer sums Phi(u_m) . D_tr
        return float(np.sum(wgt[:, 0] * (0.5 * (pm[:-1] + pm[1:]))))

    def full_state(U, KU=None):
        # residual and functional of the nodal U in full: |r|, r off the
        # trace (in rbuf) and its norm, the trace block of r, E(U), the
        # layer sums of Phi and the stiffness product KU both share, with
        # one Phi
        nonlocal KUbuf
        if KU is None:
            if KUbuf is None:
                KUbuf = np.empty((nt + 1, S))
            KU = ops.Ka.rows(U, out=KUbuf)
        r = system.residual(model, U, U0f, KU=KU, out=rbuf, work=work)
        res = _norm(r)
        rtr = r[:, tr].copy()
        r[:, tr] = 0.0
        pm = phi_eval(model, U[:, tr]) @ tm
        fval = functional_value(grid, model, cfg.eps, U, U0f, ops=ops,
                                KU=KU, Pm=pm, work=work)
        return res, r, _norm(r), rtr, fval, pm, KU

    def nodal(Uh):
        # the nodal field of modal unknown layers Uh: one full transform
        Ubuf[0] = U0f
        basis.from_modes(Uh, out=Ubuf[1:])
        return Ubuf

    def free_slot(*taken):
        # a slot that holds none of taken (views of slots)
        return next(slot for slot in slots
                    if not any(np.may_share_memory(slot, t) for t in taken))

    stats = {"residuals": [], "functional": [], "inner_iterations": [],
             "newton_tols": [], "steps": [], "damping": [], "iterations": 0}
    U_tr = U[1:, tr]
    bs = ctm * beta_eval(model, U_tr)
    # |b - E bs| at the start, with b assembled in rbuf
    rbuf.fill(0.0)
    rbuf[0] = b0
    rbuf[:, tr] -= bs
    tol_abs = cfg.outer_tol * max(_norm(rbuf), 1e-300)
    stats["el_tol_abs"] = tol_abs
    # the off-trace part of the current residual is mu r_off, its norm off
    res, r_off, off, rtr, fval, pm, KU = full_state(
        U, None if start is None else start.KU)
    mu = 1.0
    # the iterate's modal unknown layers and V' b[0], set when the first
    # step is needed; U (and its stiffness product KU) is the nodal
    # iterate only while it is the one the last full_state checked, and
    # None after a step
    Uh = bh = None
    # the residual at the last failed Newton try, or at a cold start
    # (None while Newton is armed), the failed tries in a row and the
    # Picard steps since the last
    failed_at = None if start is not None else res
    failures = waited = 0

    def picard_point():
        # the Picard trial point P (b - E bs + E stab U_tr) in the modes,
        # its trace and the trace block of L(x)
        x = inv.trace_solve(stab * U_tr - bs, bh, out=free_slot(Uh))
        x_tr = inv.trace(x)
        return x, x_tr, stab * (U_tr - x_tr) - bs

    def newton_point(xp, xp_tr, target):
        """Newton trial point from the Picard point xp, its trace and the
        trace block of L(x); its linear residual is held below target,
        the relative GMRES tolerance kept within [inner_tol,
        FORCING_MAX]."""
        dbeta = ctm * beta_prime_eval(model, U_tr)
        shift = dbeta - stab
        # xp = P (rhs - E (shift U_tr)) for the Newton right-hand side
        # rhs = b + E (dbeta U_tr - bs), so the trace system's residual
        # at U_tr is r0 = xp_tr - U_tr
        r0 = xp_tr - U_tr
        # the GMRES residual g enters L(x) as E (shift g), so a relative
        # tolerance tol keeps it below target
        den = float(np.max(np.abs(shift))) * _norm(r0)
        tol = FORCING_MAX if den == 0.0 else min(
            FORCING_MAX, max(cfg.inner_tol, target / den))
        stats["newton_tols"].append(tol)
        # an unconverged GMRES still gives a usable inexact step: its
        # error enters lin exactly, and the line search judges it
        x, sol = inv.shifted_solve(xp, r0, shift, tol=tol,
                                   maxit=INNER_MAXIT,
                                   out=free_slot(Uh, xp), work=work)
        stats["inner_iterations"].append(sol.iterations)
        x_tr = inv.trace(x)
        lin = stab * (U_tr - x_tr) - bs - shift * sol.x.reshape(shift.shape)
        return x, x_tr, lin

    def line_search(kind, x, x_tr, lin_x):
        lin_U = rtr - bs
        d_tr = x_tr - U_tr
        s_U = float(np.sum(wgt * lin_U * d_tr))
        # r_off holds W V' r_off here, so its pairing with the modal step
        # is the nodal <W r_off, x - U>
        s_off = 0.0
        if mu:
            pair = np.subtract(x, Uh, out=work)
            pair *= r_off
            s_off = mu * float(np.sum(pair))
        a1 = 2.0 * (s_U + s_off)
        a2 = float(np.sum(wgt * lin_x * d_tr)) - s_U - s_off
        pot = potential(pm)
        pm_c = pm.copy()
        lam = 1.0
        for _ in range(12):
            c_tr = (1.0 - lam) * U_tr + lam * x_tr
            pm_c[1:] = phi_eval(model, c_tr) @ tm
            fcand = fval + lam * a1 + lam * lam * a2 + (potential(pm_c) - pot)
            bs_c = ctm * beta_eval(model, c_tr)
            rtr_c = (1.0 - lam) * lin_U + lam * lin_x + bs_c
            off_c = (1.0 - lam) * off
            rcand = float(np.sqrt(off_c * off_c + np.sum(rtr_c * rtr_c)))
            # never increase the functional; never let the residual blow
            # up (Newton far from the solution can overshoot badly)
            if kind == "newton":
                res_ok = rcand <= (1.0 - 0.25 * lam) * res + tol_abs
            else:
                res_ok = rcand <= 2.0 * res + tol_abs
            if fcand <= fval * (1.0 + 1e-12) + 1e-300 and res_ok:
                cand = x
                if lam != 1.0:
                    # (1 - lam) Uh + lam x, in Uh's slot: after the step
                    # neither Uh nor x is read again
                    cand = np.multiply(1.0 - lam, Uh, out=Uh)
                    cand += np.multiply(lam, x, out=x)
                return (cand, c_tr, lam, fcand, pm_c, rcand, off_c, rtr_c,
                        bs_c)
            lam *= 0.5
        return None

    for k in range(1, OUTER_MAXIT + 2):
        stats["iterations"] = k
        if U is None and (res <= tol_abs or k > OUTER_MAXIT):
            U = nodal(Uh)
            res, r_off, off, rtr, fval, pm, KU = full_state(U)
            U_tr = U[1:, tr]
            bs = ctm * beta_eval(model, U_tr)
            mu = 1.0
        stats["residuals"].append(res)
        stats["functional"].append(fval)
        if res <= tol_abs:
            return Level(cfg.eps, U, stats, KU)
        if k > OUTER_MAXIT:
            stats["iterations"] = OUTER_MAXIT
            raise WiedConvergenceError(
                f"no convergence after {OUTER_MAXIT} outer iterations "
                f"(residual {res:g}, tol {tol_abs:g})",
                Level(cfg.eps, U, stats, KU))
        if Uh is None:
            # enter the eigenbasis: V' M U of the unknown layers and V' b
            # on row 0, once per level
            slots = [np.empty((nt, S)) for _ in range(3)]
            Uh = np.multiply(ops.mass, U[1:], out=slots[0])
            basis.to_modes(Uh, out=Uh)
            bh = basis.to_modes(b0)
        if U is not None:
            # W V' r_off, once per full_state
            basis.to_modes(r_off, out=r_off)
            np.multiply(wgt, r_off, out=r_off)

        kinds = ["picard"]
        if sigma > 0.0 and (
                failed_at is None or res <= NEWTON_REARM * failed_at
                or (failures and waited >= 2**failures)):
            kinds = ["newton", "picard"]
        # Eisenstat-Walker choice 2 forcing term for the Newton solve
        eta = FORCING_MAX
        if k > 1:
            ratio = res / stats["residuals"][-2]
            eta = min(FORCING_MAX, FORCING_GAMMA * ratio**FORCING_ALPHA)
        target = max(eta * res, 0.5 * tol_abs)
        picard = picard_point()
        step = None
        for kind in kinds:
            if kind == "newton":
                step = line_search(kind, *newton_point(*picard[:2], target))
            else:
                stats["inner_iterations"].append(0)
                step = line_search(kind, *picard)
            if step is not None:
                break
        if step is None:
            raise WiedConvergenceError(
                "damped step could not decrease the functional",
                Level(cfg.eps, nodal(Uh) if U is None else U, stats, KU))
        if kinds[0] == "newton":
            # a rejected or damped Newton try puts the level on Picard
            if kind == "newton" and step[2] == 1.0:
                failed_at, failures = None, 0
            else:
                failed_at, failures, waited = res, failures + 1, 0
        else:
            waited += 1
        Uh, U_tr, lam, fval, pm, res, off, rtr, bs = step
        U = KU = None
        mu *= 1.0 - lam
        if mu == 0.0:
            r_off = None
        stats["steps"].append(kind)
        stats["damping"].append(lam)


def dist_C_L2a(grid: WeightedGrid, U: np.ndarray, V: np.ndarray) -> float:
    """max over time layers of the spatial L^{2,a} distance (both-sides weight)."""
    Ul = np.asarray(U, dtype=float).reshape(grid.spec.nt + 1, -1)
    Vl = np.asarray(V, dtype=float).reshape(grid.spec.nt + 1, -1)
    d2 = 2.0 * ((Ul - Vl) ** 2 @ grid.node_mass)
    return float(np.sqrt(np.max(d2)))


def sweep_epsilon(grid: WeightedGrid, model, schedule: EpsilonSchedule,
                  U0: np.ndarray, cfg: WiedConfig | None = None,
                  reference: np.ndarray | None = None,
                  ops: DiscreteOperators | None = None) -> list[Level]:
    """Solve each eps level and compare to the reference; returns the
    levels in schedule order, each with its dist_to_ref.

    The first level starts from the reference, the eps -> 0 limit of the
    levels, and each later level from the one before, whose exit check
    also hands its stiffness product on.  Raises SweepError carrying the
    completed levels if some level fails.
    """
    check_horizon(schedule.eps0, grid.spec.T)
    cfg = cfg or WiedConfig(eps=schedule.eps0)
    ops = ops or build_operators(grid)
    if reference is None:
        reference = solve_parabolic(grid, model, U0, ops=ops)
    levels: list[Level] = []
    start = Level(None, reference)
    for eps in schedule.values():
        system = assemble_linear_system(grid, eps, ops=ops)
        try:
            level = solve_wied(grid, model, replace(cfg, eps=eps), U0,
                               start=start, system=system)
        except WiedConvergenceError as exc:
            raise SweepError(f"level eps = {eps} failed: {exc}",
                             completed=levels) from exc
        level.dist_to_ref = dist_C_L2a(grid, level.U, reference)
        levels.append(level)
        start = level
    return levels
