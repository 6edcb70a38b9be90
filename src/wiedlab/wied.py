"""Space-time solves of the regularized problem and the eps sweep.

For fixed eps the weight-normalized Euler-Lagrange system is solved with
guarded Newton and a Picard fallback wherever the model has a reaction,
and with Picard alone on the zero model, where a Newton step is the
Picard step at a higher cost; accepted steps never increase the
functional.  The exact inverse of the Picard matrix is one Thomas sweep
in a spatial eigenbasis, and a level's iterate is the field of a source
on the y = 0 trace plus a fading multiple of its start's deviation from
that field, carried as the source, the multiple and its trace: each
Picard point is one sweep, and each Newton try adds a GMRES solve on the
trace only; no Krylov method runs on the full space.  The sweep re-solves
along a geometric eps schedule, starting its first level from the
implicit-Euler reference (the eps -> 0 limit) and each later level from
the previous one, and measures the distance to that reference in the
discrete C([0,T]: L^{2,a}) metric.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import (DiscreteOperators, FieldCheck, KroneckerStencil,
                       LinearSystem, assemble_linear_system, build_operators,
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
    dump), the passing exit check of solve_wied (its residual and layer
    sums, which the level's energy report reuses; None for a stored
    dump) and, in a sweep, its distance to the reference.  Levels
    compare by identity, so a level can key what is computed for it.

    A level whose field is on disk carries load, a call that reads the
    field back bit for bit in the same (t, y, x...) layout; such a level
    may give its field up (release, or a next level that solves in it),
    and read() still returns the field.  Without load a level keeps its
    field until it is released."""

    eps: float | None          # None for a field that is no WIED level
    U: np.ndarray | None       # space-time field, any shape of the grid's
                               # size; None once released
    stats: dict = field(default_factory=dict)
    check: FieldCheck | None = field(default=None, repr=False)
    dist_to_ref: float | None = None
    load: Callable[[], np.ndarray] | None = field(default=None, repr=False)

    def read(self) -> np.ndarray:
        """The field: the one held, or else the one read back by load."""
        if self.U is not None:
            return self.U
        if self.load is None:
            raise ValueError(f"level eps = {self.eps} was released and "
                             "has no dump to read back")
        return self.load()

    def release(self):
        """Drop the field and the exit check, keeping eps, the stats, the
        distance and load: what a run keeps of a level it has
        reported."""
        self.U = self.check = None

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


def _anchor_pe(system: LinearSystem, lam, wgt, eh, rtr, e_tr) -> float:
    # an anchor's pe = <W Tm eh, eh> - <W rtr, e_tr>, eh = V' M e; Tm's
    # rows: c_hat (2 c + lam) on the diagonal, -c below, -c rho above
    c = system.eps / system.grid.dt**2
    nb = np.einsum("ns,ns->n", eh[1:], eh[:-1])
    q = system.c_hat * np.einsum("ns,s,ns->n", eh, lam + 2.0 * c, eh)
    q[1:] -= c * nb
    q[:-1] -= (c * system.rho) * nb
    return float(np.sum(wgt[:, 0] * q)) - float(np.sum(wgt * rtr * e_tr))


def solve_wied(grid: WeightedGrid, model, cfg: WiedConfig, U0: np.ndarray,
               start: Level | None = None,
               system: LinearSystem | None = None) -> Level:
    """Solve the discrete minimization for one eps.

    Returns the Level of cfg.eps: its field with U[0] = U0 exactly,
    per-iteration stats (residuals, functional values, the GMRES
    iterations of each tried step, 0 for Picard, the relative GMRES
    tolerance of each Newton try, the kind and damping of each accepted
    step, the absolute residual threshold el_tol_abs actually enforced,
    and the Thomas sweeps the level ran) and its passing exit check
    (FieldCheck: the residual of the field and the layer sums of its
    functional), which the level's energy report reuses.  Check k
    follows step k - 1: a level that passes it reports k iterations and
    k residuals; one that fails the check after step OUTER_MAXIT raises
    with OUTER_MAXIT iterations and one more residual.

    The solve starts from the field of start, its first layer replaced
    by U0, or from U0 held in time without a start.  A start that can be
    read back (Level.load) gives its array up: the level solves in it
    and the start is released, with no copy.  Any other start is copied
    and keeps its field.

    system defaults to the system of cfg.eps; a sweep passes its own,
    built on the operators its levels share.

    With X the unknown layers, the EL residual is r(X) = L(X) + E bs(X):
    L(X) = A X - b is affine, bs the c_hat-scaled trace source and E the
    injection of trace blocks into the y = 0 columns.  Damped Picard runs
    in majorize-minimize form: bs is majorized by its quadratic surrogate
    of curvature sigma >= sup|beta'|, stab = c_hat D_tr sigma, so a full
    step can never increase the functional.  Its matrix
    A_sigma = A + E stab E' is inverted exactly (space_time_inverse), so

        Picard:  x = P (b + E s_p),  s_p = stab U_tr - bs(U),  P = A_sigma^{-1},

    with no Krylov iterations.  P = V Tm^{-1} V' in the per-axis
    eigenbasis V (V' M V = I) with Tm one tridiagonal time problem per
    spatial mode; V' b is formed once per level, on row 0, the only
    nonzero row of b, and V' E s transforms only the trace block s, so
    P (b + E s) is one Thomas sweep in the modes and its trace is read
    from its coefficients (SpaceTimeInverse.trace).  Where the model has
    a reaction (sigma > 0), an iteration tries a guarded Newton step and
    falls back to the Picard step in the same iteration when the line
    search rejects it; with sigma = 0, beta' = 0 and the Newton step is
    the Picard step at a higher cost, so only Picard runs.  Every step
    starts at the full step lam = 1 and halves lam until the line search
    accepts.  Far from the minimizer the trace Newton system can be
    indefinite, so Newton is tried only where the start or the last
    tries suggest it pays.  A level given a start (as the sweep starts
    every level, next to its minimizer) tries Newton from the first
    iteration on; a cold start, U0 held in time, takes Picard steps until
    the tracked residual is at most NEWTON_REARM (5%) of its start value.
    A Newton try that is rejected, or accepted only with lam < 1, puts
    the level back on Picard: after the k-th such try in a row Newton is
    tried again once the tracked residual is at most NEWTON_REARM of its
    value at that try, or after 2^k Picard steps, so it is never kept off
    for good.

    Every iterate is U = P (b + E s) + mu e for a trace source s, a
    scalar mu in [0, 1] and a field e.  An anchor, at entry and after a
    failed full check while mu > 0, sets s to the Picard source of U,
    e = U - P (b + E s) and mu = 1: e is kept as its modal coefficients
    V' M e in U's unknown rows, and the one sweep that forms it gives the
    Picard point too.  A step to x = P (b + E x_s), damped by lam, lands
    on (1 - lam) U + lam x, the iterate of the source
    (1 - lam) s + lam x_s and of (1 - lam) mu, so no step touches a
    full-size array; a full step sets mu = 0.  The Picard point's trace
    is U_tr - mu e_tr + C (s_p - s), C = E' P E the capacitance matrix,
    one sweep, which starts the iteration and is the fallback step too.  The
    Newton matrix is A_sigma + E D E' with D = c_hat D_tr (beta'(U) - sigma);
    by Woodbury on the trace (SpaceTimeInverse.shifted_solve) its point
    has the source s_p - D delta and the trace x_p,tr - C D delta, where
    delta, the change of the trace from U_tr, solves
    (I + C D) delta = r0 with r0 = x_p,tr - U_tr.  GMRES returns C D delta
    as the sum of the C D v_i its applies formed, so a Newton try costs
    exactly its GMRES iterations in sweeps and no transform.

    The GMRES solve is inexact Newton with the Eisenstat-Walker choice 2
    forcing term eta_k = min(0.1, 0.9 (res_k / res_{k-1})^2) (0.1 at the
    first iteration): its linear residual is held below
    target = max(eta_k res_k, tol_abs / 2).  The GMRES residual g enters
    L(x) as E (D g), so the relative tolerance is
    target / (max|D| |r0|), clipped to [inner_tol, 0.1].  GMRES runs
    one cycle of at most INNER_MAXIT iterations in any case, and the
    line search judges the inexact step that leaves.

    Both steps leave a residual supported on the trace, known without a
    matvec, L(x) = E (x_s - stab x_tr), and L is affine, so a damped
    candidate (1 - lam) U + lam x has residual
    (1 - lam) L(U) + lam L(x) + E bs(cand).  The residual is therefore
    tracked as its trace block plus its off-trace part, mu r_off with
    r_off that of the residual at the last anchor, so 0 once a full step
    lands (the rounding of P aside).

    The functional needs no stiffness product either.  Its gradient is
    2 W r with W = diag(w_{m-1}), the exponential weight the rows of r
    are divided by, so E = Q + Pot with Q quadratic, grad Q = 2 W L and
    Hessian 2 W A, where Pot is the trace-potential sum.  Along
    d = x - U, A d = L(x) - L(U), hence

        E(U + lam d) = E(U) + lam a1 + lam^2 a2 + Pot(U + lam d) - Pot(U),
        a1 = 2 <W L(U), d>,   a2 = <W (L(x) - L(U)), d>,

    and a line-search candidate costs only trace work (beta and Phi on
    its trace).  The off-trace pairing mu <W r_off, d> is trace work as
    well: W A_sigma and W P are symmetric and A_sigma e is the anchor's
    residual, with trace block rtr_a, so

        mu <W r_off, d> = mu (<W e_tr, x_s - s>
                              - <W rtr_a, x_tr - U_tr + mu e_tr> - mu pe)

    with pe = <W r_off, e> = <W A_sigma e, e> - <W rtr_a, e_tr>, read
    once per anchor in the modes, where V' A_sigma e = Tm V' M e
    (_anchor_pe).  A full check runs at entry, on the nodal input itself
    (so a level that has converged there returns its input bit for
    bit), and whenever the tracked residual passes the tolerance, on the
    field of the iterate: one sweep on b + E s, plus mu e while mu > 0,
    and one transform.  It is LinearSystem.check, one pass a block of
    layers at a time, and functional_value reads it.  Only that full
    residual ends the solve, and the field it checked is returned.

    A level allocates two full-size arrays, once: U, the nodal field
    (returned; the start's own array when the start can be read back),
    which holds V' M e from an anchor to the next check, and one scratch
    for each check's residual (the exit check's is returned) and the
    sweeps.  With the inverse's one Thomas factor array it holds three.
    """
    system = system or assemble_linear_system(grid, cfg.eps)
    ops = system.ops
    nt, S = grid.spec.nt, grid.n_spatial
    U0f = np.asarray(U0, dtype=float).reshape(-1)
    if not np.all(np.isfinite(U0f)):
        raise ValueError("initial data must be finite")

    if start is None:
        U = np.repeat(U0f[None, :], nt + 1, axis=0)
    else:
        U = np.asarray(start.read(), dtype=float).reshape(nt + 1, S)
        if start.load is None:
            U = U.copy()        # the start keeps its field
        else:
            start.release()     # on disk: the level solves in its array
        U[0] = U0f
    # the one full-size scratch: a check's residual, then the sweeps
    work = np.empty((nt, S))

    b0 = system.initial_row(U0f)
    tr = ops.trace_index
    tm = ops.trace_mass
    ctm = system.c_hat[:, None] * tm                  # (nt, n_trace)
    wgt = exp_time_weights(grid.t, cfg.eps)[:, None]  # w_{m-1} of row m
    sigma = max(model.lipschitz, 0.0)
    stab = ctm * sigma
    inv = space_time_inverse(system, sigma)
    basis = inv.basis
    sweeps0 = inv.sweeps

    def potential(pm):
        # the trace-potential part of E from the layer sums Phi(u_m) . D_tr
        return float(np.sum(wgt[:, 0] * (0.5 * (pm[:-1] + pm[1:]))))

    def full_state():
        # the full check of U, its residual in work: |r|, |r| off the
        # trace, r's trace block, E(U), the layer sums of Phi, the check
        check = system.check(model, U, U0f, out=work)
        res = _norm(work)
        rtr = work[:, tr].copy()
        work[:, tr] = 0.0
        fval = functional_value(grid, model, cfg.eps, U, check=check)
        return res, _norm(work), rtr, fval, check.Pm, check

    stats = {"residuals": [], "functional": [], "inner_iterations": [],
             "newton_tols": [], "steps": [], "damping": [], "iterations": 0}
    U_tr = U[1:, tr]
    bs = ctm * beta_eval(model, U_tr)
    # |b - E bs| at the start, with b assembled in work
    work.fill(0.0)
    work[0] = b0
    work[:, tr] -= bs
    tol_abs = cfg.outer_tol * max(_norm(work), 1e-300)
    stats["el_tol_abs"] = tol_abs
    # the off-trace part of the current residual is mu r_off, its norm off
    res, off, rtr, fval, pm, check = full_state()
    # the iterate is P (b + E s) + mu e.  checked: U holds the nodal
    # iterate the last full_state checked (and check its sums); otherwise
    # U[1:] holds V' M e while mu > 0, and nothing once mu = 0.  The last
    # anchor left e_tr, the trace of e, rtr_a, its trace residual, and
    # pe = <W r_off, e>; bh is V' b[0], formed at the first step
    checked, mu, bh = True, 1.0, None
    # the residual at the last failed Newton try, or at a cold start
    # (None while Newton is armed), the failed tries in a row and the
    # Picard steps since the last
    failed_at = None if start is not None else res
    failures = waited = 0

    def field():
        # the nodal iterate in U: one sweep on b + E s, plus mu e in the
        # modes while mu > 0 (U's rows scaled in place), and one transform
        if not checked:
            modes = inv.trace_solve(s, bh, out=work)
            if mu:
                modes += np.multiply(mu, U[1:], out=U[1:])
            basis.from_modes(modes, out=U[1:])
        return U

    def level(passed=False):
        # a passing check hands its residual, the trace block restored
        stats["sweeps"] = inv.sweeps - sweeps0
        if passed:
            work[:, tr] = rtr
        return Level(cfg.eps, field(), stats, check if passed else None)

    def newton_try(xp_tr, s_p, target):
        """The Newton point from the Picard point, given by its trace
        xp_tr and its source s_p: its source, its trace and the trace
        block of L(x).  Its linear residual is held below target, the
        relative GMRES tolerance kept within [inner_tol, FORCING_MAX]."""
        shift = ctm * beta_prime_eval(model, U_tr) - stab
        # the trace system's residual at U_tr
        r0 = xp_tr - U_tr
        # the GMRES residual g enters L(x) as E (shift g), so a relative
        # tolerance tol keeps it below target
        den = float(np.max(np.abs(shift))) * _norm(r0)
        tol = FORCING_MAX if den == 0.0 else min(
            FORCING_MAX, max(cfg.inner_tol, target / den))
        stats["newton_tols"].append(tol)
        # an unconverged GMRES still gives a usable inexact step: its
        # error enters lin exactly, and the line search judges it
        sol = inv.shifted_solve(r0, shift, tol=tol, maxit=INNER_MAXIT,
                                work=work)
        stats["inner_iterations"].append(sol.iterations)
        x_s = s_p - shift * sol.x.reshape(r0.shape)
        x_tr = xp_tr - sol.image.reshape(r0.shape)
        return x_s, x_tr, x_s - stab * x_tr

    def pairing(x_s, x_tr):
        # the off-trace pairing mu <W r_off, x - U> of x = P (b + E x_s),
        # from its source and its trace: W A_sigma and W P are symmetric
        # and A_sigma e is the anchor's residual, so <W r_off, P E q> =
        # <W e_tr, q> - <W rtr_a, C q>
        if not mu:
            return 0.0
        d_tr = x_tr - U_tr + mu * e_tr
        return mu * (float(np.sum(wgt * e_tr * (x_s - s)))
                     - float(np.sum(wgt * rtr_a * d_tr)) - mu * pe)

    def line_search(kind, x_s, x_tr, lin_x):
        s_off = pairing(x_s, x_tr)
        lin_U = rtr - bs
        d_tr = x_tr - U_tr
        s_U = float(np.sum(wgt * lin_U * d_tr))
        a1 = 2.0 * (s_U + s_off)
        a2 = float(np.sum(wgt * lin_x * d_tr)) - s_U - s_off
        pot = potential(pm)
        pm_c = pm.copy()
        lam = 1.0
        for _ in range(12):
            c_tr = (1.0 - lam) * U_tr + lam * x_tr
            pm_c[1:] = np.einsum("ns,s->n", phi_eval(model, c_tr), tm)
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
                return lam, c_tr, fcand, pm_c, rcand, off_c, rtr_c, bs_c
            lam *= 0.5
        return None

    for k in range(1, OUTER_MAXIT + 2):
        stats["iterations"] = k
        if not checked and (res <= tol_abs or k > OUTER_MAXIT):
            field()
            checked = True
            res, off, rtr, fval, pm, check = full_state()
            U_tr = U[1:, tr]
            bs = ctm * beta_eval(model, U_tr)
            if not mu:
                # the residual of the field of a source is 0 off the
                # trace, up to the rounding of P
                off = 0.0
        stats["residuals"].append(res)
        stats["functional"].append(fval)
        if res <= tol_abs:
            return level(passed=True)
        if k > OUTER_MAXIT:
            stats["iterations"] = OUTER_MAXIT
            raise WiedConvergenceError(
                f"no convergence after {OUTER_MAXIT} outer iterations "
                f"(residual {res:g}, tol {tol_abs:g})", level())
        if bh is None:
            bh = basis.to_modes(b0)

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
        s_p = stab * U_tr - bs
        if checked and mu:
            # anchor: s is the Picard source of U and e = U - P (b + E s),
            # in the modes in U's rows; the sweep gives the Picard point
            s, mu, checked = s_p, 1.0, False
            np.multiply(ops.mass, U[1:], out=U[1:])
            basis.to_modes(U[1:], out=U[1:])
            xh = inv.trace_solve(s, bh, out=work)
            xp_tr = inv.trace(xh)
            U[1:] -= xh
            e_tr, rtr_a = U_tr - xp_tr, rtr
            pe = _anchor_pe(system, basis.lam, wgt, U[1:], rtr_a, e_tr)
        else:
            # the Picard trace U_tr - mu e_tr + C (s_p - s)
            xp_tr = U_tr - mu * e_tr if mu else U_tr
            xp_tr = xp_tr + inv.capacitance(s_p - s, work)
        step = None
        for kind in kinds:
            if kind == "newton":
                x_s, x_tr, lin = newton_try(xp_tr, s_p, target)
            else:
                stats["inner_iterations"].append(0)
                x_s, x_tr, lin = s_p, xp_tr, s_p - stab * xp_tr
            step = line_search(kind, x_s, x_tr, lin)
            if step is not None:
                break
        if step is None:
            raise WiedConvergenceError(
                "damped step could not decrease the functional", level())
        if kinds[0] == "newton":
            # a rejected or damped Newton try puts the level on Picard
            if kind == "newton" and step[0] == 1.0:
                failed_at, failures = None, 0
            else:
                failed_at, failures, waited = res, failures + 1, 0
        else:
            waited += 1
        lam, U_tr, fval, pm, res, off, rtr, bs = step
        # (1 - lam) U + lam x = P (b + E ((1 - lam) s + lam x_s))
        # + (1 - lam) mu e
        s = x_s if lam == 1.0 else (1.0 - lam) * s + lam * x_s
        checked = False
        mu *= 1.0 - lam
        stats["steps"].append(kind)
        stats["damping"].append(lam)


def dist_C_L2a(grid: WeightedGrid, U: np.ndarray, V: np.ndarray) -> float:
    """max over time layers of the spatial L^{2,a} distance (both-sides
    weight), summed over the nodes by an einsum in a fixed order.  The
    difference is formed a block of about KroneckerStencil.CHUNK entries
    of layers at a time, in one buffer.  A layer's sum does not depend
    on the block while it has at most 8192 nodes, the size of the buffer
    in which numpy's einsum reduces; a larger layer's does."""
    Ul = np.asarray(U, dtype=float).reshape(grid.spec.nt + 1, -1)
    Vl = np.asarray(V, dtype=float).reshape(grid.spec.nt + 1, -1)
    kb = max(1, KroneckerStencil.CHUNK // Ul.shape[1])
    buf = np.empty((min(kb, Ul.shape[0]), Ul.shape[1]))
    d2 = np.empty(Ul.shape[0])
    for i in range(0, Ul.shape[0], kb):
        sq = buf[:min(kb, Ul.shape[0] - i)]
        np.square(np.subtract(Ul[i:i + kb], Vl[i:i + kb], out=sq), out=sq)
        np.einsum("ns,s->n", sq, grid.node_mass, out=d2[i:i + kb])
    return float(np.sqrt(np.max(2.0 * d2)))


def sweep_epsilon(grid: WeightedGrid, model, schedule: EpsilonSchedule,
                  U0: np.ndarray, cfg: WiedConfig | None = None,
                  reference: np.ndarray | Level | None = None,
                  ops: DiscreteOperators | None = None,
                  on_level=None) -> list[Level]:
    """Solve each eps level and compare to the reference; returns the
    levels in schedule order, each with its dist_to_ref.

    The first level starts from the reference, the eps -> 0 limit of the
    levels, and each later level from the one before.  on_level, when
    given, is called with each level as it finishes, its dist_to_ref
    set, before the next level starts; it may release the levels before
    it (Level.release), which the sweep no longer reads, and it may give
    the level a load (its dump's reader).  A level's system and inverse
    are dropped before the call.  Raises SweepError carrying the
    completed levels if some level fails.

    The reference is a field, or a Level of it (eps None).  A start that
    can be read back is taken over by the next level (solve_wied), so a
    run whose on_level dumps each level, and whose reference Level reads
    its dump back, holds one field at a time: the reference is read back
    once per level for its distance.  Without loads every level keeps
    its field and the reference is never read back.
    """
    check_horizon(schedule.eps0, grid.spec.T)
    cfg = cfg or WiedConfig(eps=schedule.eps0)
    ops = ops or build_operators(grid)
    if reference is None:
        reference = solve_parabolic(grid, model, U0, ops=ops)
    if not isinstance(reference, Level):
        reference = Level(None, reference)
    levels: list[Level] = []
    start = reference
    for eps in schedule.values():
        try:
            level = solve_wied(grid, model, replace(cfg, eps=eps), U0,
                               start=start, system=assemble_linear_system(
                                   grid, eps, ops=ops))
        except WiedConvergenceError as exc:
            raise SweepError(f"level eps = {eps} failed: {exc}",
                             completed=levels) from exc
        level.dist_to_ref = dist_C_L2a(grid, level.U, reference.read())
        levels.append(level)
        if on_level is not None:
            on_level(level)
        start = level
    return levels
