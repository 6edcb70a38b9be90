"""The diagnostics registry: each name's option defaults, load-time check
and compute step.  Compute steps return report rows and summary entries
and touch no file; `run` and `diagnose` write them.  They look measuring
functions up on the `diagnostics` module at call time, so a function
replaced there (by a profiler, say) is the one called."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import diagnostics as dg
from .assembly import ForcingSpec
from .combustion import beta_eval
from .grid import Cylinder


class NotApplicable(Exception):
    """The diagnostic measures nothing on these levels."""


@dataclass(frozen=True, eq=False)
class Level:
    eps: float | None         # None for a field that is not a WIED level
    U: np.ndarray             # space-time field, any shape of the grid's size
    el_tol: float | None      # the level's absolute EL tolerance, if known


@dataclass
class Context:
    """What compute steps share; energy reports are computed once a level."""
    grid: object
    model: object
    forcing_exponents: tuple
    ops: object
    _energy: dict = field(default_factory=dict)

    def energy(self, lv: Level):
        if lv.eps is None:
            raise NotApplicable("the field has no eps, so it is no WIED "
                                "minimizer the energy identity applies to")
        if lv not in self._energy:
            self._energy[lv] = dg.energy_decomposition(
                self.grid, self.model, lv.eps, lv.U, ops=self.ops)
        return self._energy[lv]


def _entry(name, value, threshold, passed, calibration=None) -> dict:
    return {"name": name, "value": value, "threshold": threshold,
            "pass": passed, "calibration-id": calibration}


def _field(ctx, lv: Level) -> np.ndarray:
    return lv.U.reshape(ctx.grid.spacetime_shape)


def _layer(ctx, lv: Level, opt) -> np.ndarray:
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
        summary.append(_entry(
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
            [_entry("uniform-bounds",
                    max(ub["dt_energy_spread"], ub["windowed_spread"]),
                    factor, ub["uniform"])])


def _trace_forcing(ctx, lv: Level) -> np.ndarray:
    """f = -beta(u) on the trace, the source the field carries."""
    sp = ctx.grid.spec
    tr = lv.U.reshape(sp.nt + 1, -1)[:, ctx.ops.trace_index]
    return -np.asarray(beta_eval(ctx.model, tr.reshape(
        (sp.nt + 1,) + (sp.nx + 1,) * sp.d)))


def _linf_l2(ctx, levels, opt):
    p, q = ctx.forcing_exponents
    return _per_level(
        "linf_l2.csv", ("ratio", "sup_inner", "l2a_outer", "f_lqinf"),
        levels, lambda lv: dg.linf_l2_ratio(
            ctx.grid, _field(ctx, lv),
            ForcingSpec(f=_trace_forcing(ctx, lv), p=p, q=q),
            tuple(opt["center"]), float(opt["radius"])))


def _no_spikes(ctx, levels, opt):
    delta = float(opt["delta"])
    cyl = Cylinder(tuple(opt["center"]), float(opt["radius"]))
    upos = np.clip(_field(ctx, levels[-1]), 0.0, None)
    denom = dg.weighted_norm(ctx.grid, upos, "L2a", region=cyl)
    upos *= np.sqrt(delta) / denom if denom > 0 else 0.0
    rep = dg.no_spikes_iteration(ctx.grid, upos, cyl)
    rows = [{"j": j, "level": rep.levels[j], "radius": rep.radii[j],
             "energy": rep.energies[j]} for j in range(rep.levels.shape[0])]
    return ([("no_spikes.csv", ["j", "level", "radius", "energy"], rows)],
            [_entry("no-spikes-decay", float(rep.energies[-1]), 1e-12,
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
    inc = dg.sweep_cauchy_increments(ctx.grid, [lv.U for lv in levels])
    return [("cauchy.csv", ["pair", "increment"],
             [{"pair": f"{levels[i].eps:g}->{levels[i + 1].eps:g}",
               "increment": v} for i, v in enumerate(inc)])], []


# -- load-time checks: (options, grid, config); ValueError on a bad one

def _option(opt, key, test, need, kinds=(int, float, np.number)):
    """ValueError unless opt[key] is a finite JSON number of the given
    kinds that passes test; need says what it must be."""
    v = opt[key]
    if (isinstance(v, bool) or not isinstance(v, kinds)
            or not np.isfinite(v) or not test(v)):
        raise ValueError(f"option {key!r} must be a finite {need}, "
                         f"got {v!r}")


def _positive(opt, *keys):
    for key in keys:
        _option(opt, key, lambda v: v > 0, "number > 0")


def _check_cylinder(opt, grid, cfg, *positive) -> Cylinder:
    """center and radius given, the named options positive, and the
    cylinder inside the grid."""
    missing = [k for k in ("center", "radius") if opt.get(k) is None]
    if missing:
        raise ValueError(f"needs {' and '.join(map(repr, missing))}")
    _positive(opt, "radius", *positive)
    cyl = Cylinder(tuple(opt["center"]), float(opt["radius"]))
    cyl.require_fits(grid)
    return cyl


def _check_linf_l2(opt, grid, cfg):
    cyl = _check_cylinder(opt, grid, cfg)
    if not Cylinder(cyl.center, cyl.radius / 2.0).mask(grid).any():
        raise ValueError(f"the inner half cylinder (center={cyl.center}, "
                         f"r={cyl.radius / 2.0}) holds no grid node")
    p, q = cfg.forcing_exponents
    ForcingSpec(p=p, q=q).validate_exponents(grid)


def _check_holder(opt, grid, cfg):
    _option(opt, "levels", lambda v: v >= 1, "integer >= 1",
            (int, np.integer))
    near = [c for c in opt["centers"]
            if not Cylinder(tuple(c), 1.0).fits(grid)]
    if near:
        raise ValueError(f"probe {near[0]} too close to the boundary for "
                         "unit-radius cylinders")


def _check_layer(opt, grid, cfg):
    _positive(opt, "radius")
    _option(opt, "layer_time", lambda v: 0 <= v <= grid.spec.T,
            f"number in [0, {grid.spec.T}]")


def _check_isoperimetric(opt, grid, cfg):
    _option(opt, "p", lambda v: 1 < v < 2, "number in (1, 2)")
    _check_layer(opt, grid, cfg)


# -- the table

@dataclass(frozen=True)
class Diagnostic:
    compute: Callable
    defaults: Callable = lambda spec: {}          # GridSpec -> options
    check: Callable = lambda opt, grid, cfg: None


DIAGNOSTICS = {
    "energy": Diagnostic(_energy),
    "uniform-bounds": Diagnostic(
        _uniform_bounds, lambda spec: {"factor": 4.0},
        lambda opt, grid, cfg: _positive(opt, "factor")),
    "linf-l2": Diagnostic(_linf_l2, check=_check_linf_l2),
    "no-spikes": Diagnostic(
        _no_spikes, lambda spec: {"delta": 0.5},
        lambda opt, grid, cfg: _check_cylinder(opt, grid, cfg, "delta")),
    "level-sets": Diagnostic(_level_sets, check=_check_cylinder),
    "holder": Diagnostic(_holder, lambda spec: {"centers": [], "levels": 3},
                         _check_holder),
    "embedding": Diagnostic(
        _embedding, lambda spec: {"layer_time": spec.T / 2.0, "radius": 1.0},
        _check_layer),
    "cauchy": Diagnostic(_cauchy),
    "isoperimetric": Diagnostic(
        _isoperimetric,
        lambda spec: {"layer_time": spec.T / 2.0, "radius": 1.0, "p": 1.5},
        _check_isoperimetric),
}


def options(name: str, given: dict, spec) -> dict:
    """The entry's defaults for this grid, overridden by the given ones."""
    return {**DIAGNOSTICS[name].defaults(spec), **given}


def check(name: str, given: dict, grid, cfg) -> None:
    """ValueError unless the name is known and its options fit the grid."""
    if name not in DIAGNOSTICS:
        raise ValueError(f"no such diagnostic; known: {', '.join(DIAGNOSTICS)}")
    DIAGNOSTICS[name].check(options(name, given, grid.spec), grid, cfg)


def compute(name: str, ctx: Context, levels: list, given: dict):
    """(reports, summary entries) of one diagnostic on the levels; raises
    NotApplicable, or ValueError/ArithmeticError if the fields fail it."""
    return DIAGNOSTICS[name].compute(ctx, levels,
                                     options(name, given, ctx.grid.spec))
