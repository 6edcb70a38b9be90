"""The diagnostics registry: each name's load-time check of what depends
on the grid, its compute step and what that step reads of the levels;
its options are rows of config.SCHEMA.  Compute steps return report rows
and summary entries and touch no file; `run` and `diagnose` evaluate
them through a Stream, which takes the levels as they finish, and write
them.  They look measuring functions up on the `diagnostics` module at
call time, so a function replaced there (by a profiler, say) is the one
called."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import diagnostics as dg
from .combustion import beta_eval
from .grid import Cylinder
from .wied import Level


class NotApplicable(Exception):
    """The diagnostic measures nothing on these levels."""


@dataclass
class Context:
    """What compute steps share; energy reports are computed once a level."""
    grid: object
    model: object
    forcing_exponents: tuple
    ops: object
    _energy: dict = field(default_factory=dict)

    def energy(self, lv: Level):
        """The level's energy report, from its exit check when it has
        one, computed once."""
        if lv.eps is None:
            raise NotApplicable("the field has no eps, so it is no WIED "
                                "minimizer the energy identity applies to")
        if lv not in self._energy:
            self._energy[lv] = dg.energy_decomposition(
                self.grid, self.model, lv.eps, lv.read(), ops=self.ops,
                check=lv.check)
        return self._energy[lv]


def entry(name, value, threshold, passed, calibration=None) -> dict:
    """One summary.json entry."""
    return {"name": name, "value": value, "threshold": threshold,
            "pass": passed, "calibration-id": calibration}


def _field(ctx, lv: Level) -> np.ndarray:
    """The level's field, read back from its dump if it was released."""
    return lv.read().reshape(ctx.grid.spacetime_shape)


def _layer(ctx, lv: Level, opt) -> np.ndarray:
    _check_layer(opt, ctx.grid, None)     # a stored field's grid may differ
    return _field(ctx, lv)[int(round(float(opt["layer_time"])
                                     / ctx.grid.dt))]


def _per_level(fname: str, keys: tuple, levels, measure):
    """One report row per level: its eps and these keys of measure(lv)."""
    rows = []
    for lv in levels:
        r = measure(lv)
        if not r.get("applicable", True):
            raise NotApplicable(r["reason"])
        rows.append({"eps": lv.eps, **{k: r[k] for k in keys}})
    return [(fname, ["eps", *keys], rows)], []


# -- compute steps: (context, levels, options) -> (reports, summary), a
#    report being (file name, header, rows)

def _energy(ctx, levels, opt):
    reports, summary = [], []
    for lv in levels:
        rep = ctx.energy(lv)
        reports.append((f"energy-eps-{lv.eps:g}.csv",
                        ["n", "tau", "I", "R", "E"], rep.rows()))
        tol = None if lv.el_tol is None else 10.0 * lv.el_tol
        summary.append(entry(
            f"energy-identity-eps-{lv.eps:g}", rep.identity_l1, tol,
            None if tol is None else bool(rep.identity_l1 <= tol)))
    return reports, summary


def _uniform_bounds(ctx, levels, opt):
    if len(levels) < 2:
        raise NotApplicable("uniformity is a statement across two or more "
                            "eps levels")
    factor = float(opt["factor"])
    ub = dg.uniform_bounds_report([ctx.energy(lv) for lv in levels],
                                  factor=factor)
    return ([("uniform_bounds.csv", list(ub["rows"][0]), ub["rows"])],
            [entry("uniform-bounds",
                    max(ub["dt_energy_spread"], ub["windowed_spread"]),
                    factor, ub["uniform"])])


def _trace_forcing(ctx, lv: Level) -> np.ndarray:
    """f = -beta(u) on the trace, the source the field carries."""
    sp = ctx.grid.spec
    tr = _field(ctx, lv).reshape(sp.nt + 1, -1)[:, ctx.ops.trace_index]
    return -np.asarray(beta_eval(ctx.model, tr.reshape(
        (sp.nt + 1,) + (sp.nx + 1,) * sp.d)))


def _linf_l2(ctx, levels, opt):
    p, q = ctx.forcing_exponents
    return _per_level(
        "linf_l2.csv", ("ratio", "sup_inner", "l2a_outer", "f_lqinf"),
        levels, lambda lv: dg.linf_l2_ratio(
            ctx.grid, _field(ctx, lv),
            dg.ForcingSpec(f=_trace_forcing(ctx, lv), p=p, q=q),
            tuple(opt["center"]), float(opt["radius"])))


def _no_spikes(ctx, levels, opt):
    delta = float(opt["delta"])
    rep = dg.no_spikes_iteration(
        ctx.grid, _field(ctx, levels[-1]),
        Cylinder(tuple(opt["center"]), float(opt["radius"])), delta=delta)
    rows = [{"j": j, "level": rep.levels[j], "radius": rep.radii[j],
             "energy": rep.energies[j]} for j in range(rep.levels.shape[0])]
    return ([("no_spikes.csv", ["j", "level", "radius", "energy"], rows)],
            [entry("no-spikes-decay", float(rep.energies[-1]), 1e-12,
                    bool(rep.converged), f"delta={delta}")])


def _level_sets(ctx, levels, opt):
    cyl = Cylinder(tuple(opt["center"]), float(opt["radius"]))
    return _per_level(
        "level_sets.csv", ("A", "C", "D", "total"), levels,
        lambda lv: dg.level_set_measures(ctx.grid, _field(ctx, lv),
                                         cyl).measures)


def _holder(ctx, levels, opt):
    rows, fits = [], []
    for c in opt["centers"]:
        rep = dg.fit_holder(dg.oscillation_table(
            ctx.grid, _field(ctx, levels[-1]), tuple(c), int(opt["levels"])))
        rows += [{"x0": c[0], "t0": c[-1], **row} for row in rep.table]
        fits.append({"x0": c[0], "t0": c[-1], "alpha": rep.alpha,
                     "C": rep.constant, "residual": rep.fit_residual,
                     "max_ratio": max(rep.ratios(), default=0.0)})
    return [("holder.csv", ["x0", "t0", "n", "radius", "osc"], rows),
            ("holder_fits.csv",
             ["x0", "t0", "alpha", "C", "residual", "max_ratio"], fits)], []


def _embedding(ctx, levels, opt):
    return _per_level(
        "embedding.csv", ("trace_ratio", "sobolev_ratio"), levels,
        lambda lv: dg.embedding_ratio_check(
            ctx.grid, _layer(ctx, lv, opt), radius=float(opt["radius"])))


def _isoperimetric(ctx, levels, opt):
    return _per_level(
        "isoperimetric.csv",
        ("lhs", "rhs_factor", "ratio", "gradient_energy"), levels,
        lambda lv: dg.isoperimetric_check(
            ctx.grid, _layer(ctx, lv, opt), float(opt["p"]),
            radius=float(opt["radius"])))


def _cauchy(ctx, levels, opt):
    inc = dg.sweep_cauchy_increments(ctx.grid,
                                     [_field(ctx, lv) for lv in levels])
    return [("cauchy.csv", ["pair", "increment"],
             [{"pair": f"{levels[i].eps:g}->{levels[i + 1].eps:g}",
               "increment": v} for i, v in enumerate(inc)])], []


# -- load-time checks of what depends on the grid: (options, grid,
#    config); ValueError on a bad one.  config.SCHEMA checks each
#    option's type and range first.

def _check_cylinder(opt, grid, cfg) -> Cylinder:
    """The cylinder inside the grid."""
    cyl = Cylinder(tuple(opt["center"]), float(opt["radius"]))
    cyl.require_fits(grid)
    return cyl


def _check_linf_l2(opt, grid, cfg):
    cyl = _check_cylinder(opt, grid, cfg)
    if any(s.start == s.stop
           for s in Cylinder(cyl.center, cyl.radius / 2.0).box(grid)):
        raise ValueError(f"the inner half cylinder (center={cyl.center}, "
                         f"r={cyl.radius / 2.0}) holds no grid node")
    p, q = cfg.forcing_exponents
    dg.ForcingSpec(p=p, q=q).validate_exponents(grid)


def _check_holder(opt, grid, cfg):
    """Each probe's unit cylinder inside the grid, and its third cylinder
    (radius 1/16) two nodes at least: the fit needs three positive
    oscillations."""
    for c in opt["centers"]:
        if not Cylinder(tuple(c), 1.0).fits(grid):
            raise ValueError(f"probe {c} too close to the boundary for "
                             "unit-radius cylinders")
        nodes = math.prod(s.stop - s.start
                          for s in Cylinder(tuple(c), 1.0 / 16.0).box(grid))
        if nodes < 2:
            raise ValueError(f"probe {c}: its cylinder of radius 1/16 holds "
                             f"{nodes} grid node(s), too few for a fit")


def _check_layer(opt, grid, cfg):
    if opt["layer_time"] > grid.spec.T:
        raise ValueError(f"option 'layer_time' = {opt['layer_time']} is "
                         f"past the horizon T = {grid.spec.T}")
    # the slice's cylinder is centred at x = 0, y = 0 and the ratios scale
    # with its radius: clipped to the grid, it would no longer have it
    r = float(opt["radius"])
    if not Cylinder((0.0,) * (grid.d + 2), r).fits(grid, time=False):
        raise ValueError(
            f"option 'radius' = {r} leaves the grid: the cylinder at "
            f"x = 0, y = 0 needs radius <= min(L, Y) = "
            f"{min(grid.spec.L, grid.spec.Y)}")


# -- the table

@dataclass(frozen=True)
class Diagnostic:
    compute: Callable
    check: Callable = lambda opt, grid, cfg: None
    # what compute reads of the levels: "each" level alone, one report
    # row or file per level; each two consecutive "pairs"; the "last"
    # level; or the "energy" reports of all levels
    reads: str = "each"


DIAGNOSTICS = {
    "energy": Diagnostic(_energy),
    "uniform-bounds": Diagnostic(_uniform_bounds, reads="energy"),
    "linf-l2": Diagnostic(_linf_l2, _check_linf_l2),
    "no-spikes": Diagnostic(_no_spikes, _check_cylinder, reads="last"),
    "level-sets": Diagnostic(_level_sets, _check_cylinder),
    "holder": Diagnostic(_holder, _check_holder, reads="last"),
    "embedding": Diagnostic(_embedding, _check_layer),
    "cauchy": Diagnostic(_cauchy, reads="pairs"),
    "isoperimetric": Diagnostic(_isoperimetric, _check_layer),
}


def compute(name: str, ctx: Context, levels: list, opt: dict):
    """(reports, summary entries) of one diagnostic on the levels, given
    every option; raises NotApplicable, or ValueError/ArithmeticError if
    the fields fail it."""
    return DIAGNOSTICS[name].compute(ctx, levels, opt)


@dataclass
class Outcome:
    """What a Stream computed: per request in order, up to the first
    that failed, its (name, reports, summary entries), or its (name,
    reason) in skipped when it measured nothing; failure is the (index,
    name, exception) of the first request that failed, or None."""
    results: list
    skipped: list
    failure: tuple | None


class Stream:
    """The (name, options) requests evaluated on levels as they arrive,
    in schedule order, so that a level can be released once it is
    added: each request computes what it reads of a level (its
    Diagnostic.reads) when the level arrives, and what reads the last
    level or every energy report when the stream finishes.  A request
    that reads pairs reads the level before back (Level.read) once it
    has been released, so a run reads that field back once per level,
    and only for such a request; the last level must keep its field
    until finish, or be readable.  Reports and entries are merged in
    level order, so the outcome is that of compute over all levels,
    request by request, up to the first request that fails."""

    def __init__(self, ctx: Context, requests: list):
        self.ctx, self.requests = ctx, list(requests)
        self._pieces = [[] for _ in self.requests]
        self._skipped = {}      # index -> reason
        self._failed = {}       # index -> exception
        self._prev = None

    def _try(self, j, step):
        # step() for request j, unless the request is settled or comes
        # after a failed one, which ends the outcome anyway; None if it
        # did not run or raised
        if j in self._skipped or any(i <= j for i in self._failed):
            return None
        try:
            return step()
        except NotApplicable as exc:
            self._skipped[j] = str(exc)
        except (ValueError, ArithmeticError) as exc:
            self._failed[j] = exc
        return None

    def _compute(self, j, levels):
        name, opt = self.requests[j]
        piece = self._try(j, lambda: compute(name, self.ctx, levels, opt))
        if piece is not None:
            self._pieces[j].append(piece)

    def add(self, lv: Level):
        """Compute what each request reads of lv alone, or of lv and the
        level before it; the energy report of lv is formed here when a
        request reads every energy report."""
        for j, (name, _) in enumerate(self.requests):
            reads = DIAGNOSTICS[name].reads
            if reads == "each":
                self._compute(j, [lv])
            elif reads == "pairs":
                # the first level alone gives the report's header
                self._compute(j, [lv] if self._prev is None
                              else [self._prev, lv])
            elif reads == "energy" and lv.eps is not None:
                # the report alone, which ctx keeps; without eps, compute
                # says at finish why it measures nothing
                self._try(j, lambda: self.ctx.energy(lv))
        self._prev = lv

    def finish(self, levels: list) -> Outcome:
        """The outcome on levels, every level added, in order; the last
        one keeps its field."""
        for j, (name, _) in enumerate(self.requests):
            reads = DIAGNOSTICS[name].reads
            if reads in ("last", "energy"):
                self._compute(j, levels[-1:] if reads == "last" else levels)
        results, skipped, failure = [], [], None
        for j, (name, _) in enumerate(self.requests):
            if j in self._failed:
                failure = (j, name, self._failed[j])
                break
            if j in self._skipped:
                skipped.append((name, self._skipped[j]))
                continue
            files, entries = {}, []
            for reports, ents in self._pieces[j]:
                for fname, header, rows in reports:
                    files.setdefault(fname, (fname, header, []))[2].extend(
                        rows)
                entries.extend(ents)
            results.append((name, list(files.values()), entries))
        return Outcome(results, skipped, failure)
