"""Cross-cutting interface checks: d = 2 support, dump formats, the
Newton matrix's trace shift, the names the benchmark's traced mode
patches or reads, and a start and run that import no scipy."""

import functools
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wiedlab.assembly import assemble_linear_system
from wiedlab.combustion import CombustionModel, validate_model
from wiedlab.grid import GridSpec, build_grid
from wiedlab.parabolic import solve_parabolic
from wiedlab.runner import dump_field, load_field
from wiedlab.wied import WiedConfig, solve_wied

BUMP = validate_model(CombustionModel())
ROOT = Path(__file__).resolve().parent.parent


def test_d2_solver_smoke():
    g = build_grid(GridSpec(d=2, a=0.3, L=1.0, Y=1.0, T=0.5,
                            nx=6, ny=4, nt=10))
    assert g.spatial_shape == (5, 7, 7)
    U0 = g.eval_spatial(
        lambda x1, x2, y: np.clip(1 - (x1**2 + x2**2 + y**2) / 0.36,
                                  0, None)**2).ravel()
    res = solve_wied(g, BUMP, WiedConfig(eps=0.05, outer_tol=1e-8), U0)
    assert res.U.min() >= -1e-8 and res.U.max() <= 1.0 + 1e-8
    traj = solve_parabolic(g, BUMP, U0)
    assert traj.min() >= -1e-8 and traj.max() <= 1.0 + 1e-8
    masses = traj @ g.node_mass
    assert np.all(np.diff(masses) <= 1e-12)


def test_d2_mass_and_measure():
    g = build_grid(GridSpec(d=2, a=0.0, L=1.0, Y=1.0, T=1.0,
                            nx=4, ny=4, nt=4, grading=1.0))
    from wiedlab.grid import weighted_measure
    # Lebesgue volume of [-1,1]^2 x [0,1] x [0,1]
    assert abs(weighted_measure(
        g, np.ones(g.spacetime_shape, dtype=bool)) - 4.0) < 1e-13


def test_field_dump_byte_order_contract(tmp_path):
    # row-major (x, y, t): the time index is fastest in the flat file
    g = build_grid(GridSpec(d=1, a=0.5, L=1.0, Y=1.0, T=1.0,
                            nx=3, ny=2, nt=4))
    rng = np.random.default_rng(0)
    arr = rng.standard_normal(g.spacetime_shape)
    dump_field(tmp_path / "f.f64", g, arr, {"eps": 0.1})
    raw = np.frombuffer((tmp_path / "f.f64").read_bytes(), dtype="<f8")
    nt1, ny1, nx1 = g.spec.nt + 1, g.spec.ny + 1, g.spec.nx + 1
    assert raw[0] == arr[0, 0, 0]
    assert raw[1] == arr[1, 0, 0]                 # t fastest
    assert raw[nt1] == arr[0, 1, 0]               # then y
    assert raw[nt1 * ny1] == arr[0, 0, 1]         # then x
    g2, back, side = load_field(tmp_path / "f.f64")
    assert np.array_equal(back, arr)
    assert side["eps"] == 0.1
    assert json.loads((tmp_path / "f.json").read_text())["dtype"] == "<f8"


def test_field_dump_byte_order_contract_d2(tmp_path):
    # row-major (x1, x2, y, t): t fastest, then y, then x2, then x1
    g = build_grid(GridSpec(d=2, a=0.5, L=1.0, Y=1.0, T=1.0,
                            nx=3, ny=2, nt=4))
    arr = np.random.default_rng(1).standard_normal(g.spacetime_shape)
    dump_field(tmp_path / "f.f64", g, arr, {"eps": 0.1})
    raw = np.frombuffer((tmp_path / "f.f64").read_bytes(), dtype="<f8")
    nt1, ny1, nx1 = g.spec.nt + 1, g.spec.ny + 1, g.spec.nx + 1
    assert raw.size == arr.size
    assert raw[0] == arr[0, 0, 0, 0]
    assert raw[1] == arr[1, 0, 0, 0]                   # t fastest
    assert raw[nt1] == arr[0, 1, 0, 0]                 # then y
    assert raw[nt1 * ny1] == arr[0, 0, 0, 1]           # then x2
    assert raw[nt1 * ny1 * nx1] == arr[0, 0, 1, 0]     # then x1
    assert np.array_equal(raw, np.transpose(arr, (2, 3, 1, 0)).ravel())
    g2, back, side = load_field(tmp_path / "f.f64")
    assert g2.spec == g.spec and np.array_equal(back, arr)
    assert side["eps"] == 0.1


@pytest.mark.parametrize("d", [1, 2])
def test_field_round_trip_over_several_blocks(tmp_path, monkeypatch, d):
    # a block of 3 x-planes: the 11 (d = 1) or 121 (d = 2) planes take
    # several blocks and a short last one; the bytes are those of one
    # transpose, and the load gives the field back bit for bit
    from wiedlab import runner
    g = build_grid(GridSpec(d=d, a=0.5, L=1.0, Y=1.0, T=1.0,
                            nx=10, ny=3, nt=6))
    plane = 8 * (g.spec.ny + 1) * (g.spec.nt + 1)
    monkeypatch.setattr(runner, "FIELD_BLOCK_BYTES", 3 * plane + 7)
    arr = np.random.default_rng(2).standard_normal(g.spacetime_shape)
    arr.reshape(-1)[:5 * 7:7] = [np.nan, np.inf, -0.0, 5e-324, -np.inf]
    path = tmp_path / "f.f64"
    digest = dump_field(path, g, arr, {}, digest=True)
    axes = tuple(range(2, 2 + d)) + (1, 0)
    assert path.read_bytes() == np.ascontiguousarray(
        np.transpose(arr, axes)).astype("<f8").tobytes()
    _, back, _ = load_field(path)
    assert back.view(np.int64).tobytes() == arr.view(np.int64).tobytes()
    assert runner._sha256(path) == hashlib.sha256(
        path.read_bytes()).hexdigest() == digest
    assert dump_field(path, g, arr, {}) is None


def test_field_io_allocates_one_block_beyond_the_field(tmp_path,
                                                       monkeypatch):
    # dump_field and load_field stream through one block buffer: the
    # dump allocates at most a block beyond the field it is given, the
    # load at most the field it returns and a block (plus a small slack
    # for the sidecar and the grid)
    from wiedlab import runner
    g = build_grid(GridSpec(d=1, a=0.5, L=1.0, Y=1.0, T=1.0,
                            nx=40, ny=15, nt=400))
    arr = np.random.default_rng(3).standard_normal(g.spacetime_shape)
    block = 256 << 10
    monkeypatch.setattr(runner, "FIELD_BLOCK_BYTES", block)
    assert arr.nbytes > 8 * block
    slack = 64 << 10
    path = tmp_path / "f.f64"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dump_field(path, g, arr, {"eps": 0.1})
        dump_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _, back, _ = load_field(path)
        load_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, arr)
    assert dump_peak <= block + slack
    assert load_peak <= arr.nbytes + block + slack


def _level_peak(d, warm, **grid):
    # the traced peak of one level beyond its inputs, in full-size
    # (nt, S) arrays, by default on a grid whose trace-sized GMRES
    # vectors (with their images) and row-product blocks stay below one
    # such array; grid overrides it; warm: a start and the operators and
    # system of its sweep
    from wiedlab.assembly import build_operators
    g = build_grid(GridSpec(**{**dict(d=d, a=0.3, L=1.0, Y=1.0, T=0.5,
                                      nx={1: 24, 2: 4}[d], ny=40, nt=200),
                               **grid}))
    U0 = g.eval_spatial(lambda *xy: np.clip(
        1 - sum(v**2 for v in xy) / 0.36, 0, None)**2).ravel()
    ops = build_operators(g)
    start = None
    if warm:
        start = solve_wied(g, BUMP, WiedConfig(eps=0.05, outer_tol=1e-8),
                           U0, system=assemble_linear_system(g, 0.05,
                                                             ops=ops))
    system = assemble_linear_system(g, 0.025, ops=ops)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        level = solve_wied(g, BUMP, WiedConfig(eps=0.025, outer_tol=1e-8),
                           U0, start=start, system=system)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert "newton" in level.stats["steps"]
    assert level.el_residual <= level.el_tol
    return peak / (8 * g.spec.nt * g.n_spatial)


def test_warm_level_allocates_its_working_set_once():
    # a warm level peaks at K = 3 full-size (nt, S) arrays beyond its
    # inputs: its field, one scratch (each check's residual, the sweeps)
    # and the one Thomas factor array.  Its iterate is P (b + E s) + mu e,
    # a trace source s and the modes of e in its field, so it keeps no
    # modal slot and no trial point; an anchor reads pe in the modes, and
    # the full checks and the transforms work a block of layers at a
    # time.  It reads 3.87: the slack holds about 25 trace-sized vectors
    # of 1/41 of a field each (the GMRES basis and images of a Newton
    # try, the level's and the step's trace blocks) and the field's extra
    # layer and the shared operators
    assert _level_peak(2, warm=True) <= 3 + 1


@pytest.mark.parametrize("d, warm", [(2, False), (1, True), (1, False)])
def test_level_allocates_its_working_set_once(d, warm):
    # the same bound from a cold start, where the level takes Picard
    # steps before Newton, and in d = 1, where a transform has one stage
    # fewer; they read 3.87 to 3.89
    assert _level_peak(d, warm) <= 3 + 1


@pytest.mark.parametrize("warm", [True, False])
def test_level_working_set_on_a_run_2d_grid(warm):
    # the same three full-size arrays on the grid of the run-2d benchmark
    # (ny = 9), where a trace vector is a tenth of a field, so the about
    # 25 trace-sized vectors beside them (the GMRES basis and images of a
    # Newton try, the level's and the step's trace blocks) count for
    # about 2.5 arrays, which the ny = 40 grids above hide: it reads 5.79
    # warm and 5.82 cold
    assert _level_peak(2, warm, nx=24, ny=9, nt=48) <= 3 + 3


def _run_config(grid, count, diagnostics, **extra):
    from wiedlab.config import config_from_dict
    return config_from_dict({
        "grid": grid, "model": {"kind": "polynomial-bump"},
        "initial": {"kind": "plateau", "radius": 0.6, "height": 0.9},
        "schedule": {"eps0": 0.05, "ratio": 0.5, "count": count},
        "wied": {"outer_tol": 1e-8}, "diagnostics": diagnostics, **extra})


def _run_peak(tmp_path, grid, count, diagnostics):
    # the traced peak of a run on the test bump, in full-size (nt, S)
    # arrays, its schedule eps 0.025, 0.0125, ...
    from wiedlab.runner import run_experiment
    cfg = _run_config(grid, count, diagnostics,
                      schedule={"eps0": 0.025, "ratio": 0.5, "count": count})
    g = build_grid(cfg.grid)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        manifest = run_experiment(cfg, out=str(tmp_path / "run"))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(manifest["sweeps"]) == count
    return peak / (8 * g.spec.nt * g.n_spatial)


def test_run_holds_one_level_working_set(tmp_path):
    # each level is dumped as the sweep hands it over, its energy report
    # formed from its exit check, and a field on disk gives its memory
    # up: level 1 solves in the reference's trajectory and each later
    # level in the field of the one before.  A three-level run therefore
    # holds three full-size (nt, S) arrays at a time: a level's field,
    # its scratch and its one Thomas factor array while it solves; once
    # it has solved, its field, its exit residual (the scratch, read by
    # the energy report) and the reference read back for dist_to_ref,
    # whose difference dist_C_L2a forms a block of layers at a time.
    # The diagnostics run after the sweep on the last level's field and
    # at most two fields read back (cauchy).  It peaks at 3.72 inside a
    # level's solve, at a capacitance apply of the GMRES: the slack is
    # the level's trace-sized vectors and the small arrays of the run
    center = [0.0, 0.0, 0.25]
    peak = _run_peak(
        tmp_path, {"d": 1, "a": 0.3, "L": 1.0, "Y": 1.0, "T": 0.5, "nx": 24,
                   "ny": 40, "nt": 400}, 3,
        [{"name": "energy"}, {"name": "uniform-bounds"}, {"name": "cauchy"},
         {"name": "level-sets", "center": center, "radius": 0.25}])
    assert peak <= 3 + 0.8


def test_run_holds_one_level_working_set_d2(tmp_path):
    # the same in d = 2 over two levels, on the grid of _level_peak
    # (3.87 there): the run peaks at 4.12 arrays, reading the reference
    # back for dist_to_ref beside the level's field and exit residual,
    # since on this grid the read's 2 MB block buffer holds a whole field
    peak = _run_peak(
        tmp_path, {"d": 2, "a": 0.3, "L": 1.0, "Y": 1.0, "T": 0.5, "nx": 4,
                   "ny": 40, "nt": 200}, 2,
        [{"name": "energy"}, {"name": "uniform-bounds"}, {"name": "cauchy"}])
    assert peak <= 3 + 1.25


# a burning run with every registered diagnostic, in d = 1 over three
# levels and in d = 2 over two, on grids fine enough in x for a Hoelder fit
RUN_CASES = {
    "d1-3-levels": ({"d": 1, "a": 0.5, "L": 1.0, "Y": 1.0, "T": 2.0,
                     "nx": 32, "ny": 4, "nt": 16}, 3),
    "d2-2-levels": ({"d": 2, "a": 0.5, "L": 1.0, "Y": 1.0, "T": 2.0,
                     "nx": 32, "ny": 3, "nt": 8}, 2),
}


def _every_diagnostic(d):
    center = [0.0] * (d + 1) + [1.0]
    cyl = {"center": center, "radius": 1.0}
    return [{"name": "energy"}, {"name": "uniform-bounds"},
            {"name": "linf-l2", **cyl}, {"name": "no-spikes", **cyl},
            {"name": "level-sets", **cyl},
            {"name": "holder", "centers": [center]},
            {"name": "embedding", "layer_time": 1.0},
            {"name": "isoperimetric", "layer_time": 1.0},
            {"name": "cauchy"}]


@pytest.mark.parametrize("case", list(RUN_CASES))
def test_run_writes_what_compute_gives_on_all_levels(tmp_path, case):
    # a run releases each level's field and exit check as the sweep goes
    # on; its reports and summary entries are those of registry.compute
    # over the full list of levels held in memory, request by request
    from wiedlab import registry
    from wiedlab.assembly import build_operators
    from wiedlab.runner import run_experiment, write_csv
    from wiedlab.wied import sweep_epsilon
    grid, count = RUN_CASES[case]
    cfg = _run_config(grid, count, _every_diagnostic(grid["d"]),
                      forcing_exponents={"p": 4.0, "q": 6.0})
    run = tmp_path / "run"
    run_experiment(cfg, out=str(run))
    g = build_grid(cfg.grid)
    ops = build_operators(g)
    levels = sweep_epsilon(g, cfg.model, cfg.schedule, cfg.initial.evaluate(g),
                           cfg=cfg.wied, ops=ops)
    assert len(levels) == count
    ctx = registry.Context(g, cfg.model, cfg.forcing_exponents, ops)
    want = tmp_path / "want"
    want.mkdir()
    entries, files = [], ["convergence.csv", "levels.json"]
    for req in cfg.diagnostics:
        reports, ents = registry.compute(req.name, ctx, levels, req.options)
        for fname, header, rows in reports:
            write_csv(want / fname, header, rows)
            assert ((run / "reports" / fname).read_bytes()
                    == (want / fname).read_bytes()), fname
            files.append(fname)
        entries += ents
    assert sorted(files) == sorted(p.name for p in (run / "reports").iterdir())
    summary = json.loads((run / "summary.json").read_text())
    assert summary[:len(entries)] == json.loads(json.dumps(entries))
    assert [e["name"] for e in summary[len(entries):]] == (
        ["eps-limit-monotone"]
        + [f"max-principle-eps-{lv.eps:g}" for lv in levels]
        + ["max-principle-parabolic"])


def test_diagnostics_stop_at_the_first_request_that_fails(tmp_path,
                                                          monkeypatch):
    # the requests are computed in order on all levels: those before the
    # first that fails are written or skipped, the failure counts them,
    # and no later request is computed
    from wiedlab import registry
    from wiedlab.runner import DiagnosticError, write_diagnostics
    from wiedlab.wied import Level
    calls = []

    def rows(ctx, levels, opt):
        calls.append("each")
        return [("each.csv", ["eps"], [{"eps": lv.eps} for lv in levels])], \
            [registry.entry(f"each-{lv.eps:g}", lv.eps, None, None)
             for lv in levels]

    def fails(ctx, levels, opt):
        calls.append(opt["name"])
        raise ValueError(f"{opt['name']} fails")

    def skips(ctx, levels, opt):
        calls.append("skip")
        raise registry.NotApplicable("measures nothing")

    monkeypatch.setattr(registry, "DIAGNOSTICS", {
        "each": registry.Diagnostic(rows),
        "skip": registry.Diagnostic(skips),
        "last": registry.Diagnostic(fails),
        "later": registry.Diagnostic(fails)})
    requests = [("each", {}), ("skip", {}), ("last", {"name": "last"}),
                ("later", {"name": "later"})]
    levels = [Level(0.1, None), Level(0.05, None)]
    summary = []
    assert write_diagnostics(None, requests[:2], levels, tmp_path,
                             summary) == [("skip", "measures nothing")]
    (tmp_path / "each.csv").unlink()
    calls.clear()
    summary.clear()
    with pytest.raises(DiagnosticError,
                       match="^diagnostic 'last': last fails$") as exc:
        write_diagnostics(None, requests, levels, tmp_path, summary)
    assert exc.value.completed == 2
    assert calls == ["each", "skip", "last"]
    assert [p.name for p in tmp_path.iterdir()] == ["each.csv"]
    assert (tmp_path / "each.csv").read_text() == "eps\n0.1\n0.05\n"
    assert summary == [registry.entry("each-0.1", 0.1, None, None),
                       registry.entry("each-0.05", 0.05, None, None)]


def test_run_reads_each_released_field_once_per_request(tmp_path,
                                                        monkeypatch):
    # the run's read-back traffic on three levels with one request of
    # each kind: the reference once per level for dist_to_ref; each
    # earlier level once for each per-level request (linf-l2 reads its
    # field once for the field and its trace forcing) and once for
    # cauchy; nothing for energy and uniform-bounds, which read the
    # reports formed from the exit checks, nor for no-spikes and holder,
    # which read the last level, held.  The manifest records the count
    from wiedlab import runner
    reads = []
    read_field = runner.read_field

    def counted(path, grid):
        reads.append(path.name)
        return read_field(path, grid)

    monkeypatch.setattr(runner, "read_field", counted)
    grid, count = RUN_CASES["d1-3-levels"]
    cfg = _run_config(grid, count, _every_diagnostic(1),
                      forcing_exponents={"p": 4.0, "q": 6.0})
    manifest = runner.run_experiment(cfg, out=str(tmp_path / "run"))
    per_level = ("linf-l2", "level-sets", "embedding", "isoperimetric")
    assert sorted(reads) == sorted(
        ["parabolic.f64"] * count
        + ["eps-0.05.f64", "eps-0.025.f64"] * (len(per_level) + 1))
    assert manifest["field_reads"] == len(reads) == 13


def test_energy_report_failing_at_a_level_exit_fails_in_request_order(
        tmp_path, monkeypatch):
    # a report that fails at a level's exit does not stop the sweep and is
    # not kept: after the sweep the first request that reads it forms it
    # again, from the field read back, and the run fails there, after the
    # requests before it are written
    from wiedlab import diagnostics as dg
    from wiedlab.runner import RunnerSolverError, run_experiment
    checks = []

    def fails(grid, model, eps, U, ops=None, check=None):
        checks.append(check is not None)
        raise ArithmeticError("energy fails (test)")

    monkeypatch.setattr(dg, "energy_decomposition", fails)
    grid, count = RUN_CASES["d1-3-levels"]
    level_sets, = [d for d in _every_diagnostic(1)
                   if d["name"] == "level-sets"]
    cfg = _run_config(grid, count, [level_sets, {"name": "uniform-bounds"},
                                    {"name": "energy"}])
    out = tmp_path / "run"
    with pytest.raises(RunnerSolverError, match="diagnostics failed: "
                       "diagnostic 'uniform-bounds': energy fails"):
        run_experiment(cfg, out=str(out))
    assert checks == [True] * count + [False]
    levels = json.loads((out / "reports" / "levels.json").read_text())
    assert len(levels) == count
    assert sorted(p.name for p in (out / "reports").iterdir()) == [
        "convergence.csv", "level_sets.csv", "levels.json"]
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert (failure["phase"], failure["completed"]) == ("diagnostics", 1)


def test_failed_sweep_leaves_completed_levels_and_no_report(tmp_path,
                                                            monkeypatch):
    # a level that fails after the first: the first is dumped and in
    # levels.json, the diagnostics it was measured by write nothing, and
    # the manifest says the sweep stopped after one level
    from wiedlab import wied
    from wiedlab.runner import RunnerSolverError, run_experiment
    solve = wied.solve_wied
    calls = []

    def second_fails(grid, model, cfg, *args, **kwargs):
        calls.append(cfg.eps)
        if len(calls) == 2:
            raise wied.WiedConvergenceError("no convergence (test)",
                                            wied.Level(cfg.eps, None))
        return solve(grid, model, cfg, *args, **kwargs)

    monkeypatch.setattr(wied, "solve_wied", second_fails)
    cfg = _run_config(*RUN_CASES["d1-3-levels"], _every_diagnostic(1),
                      forcing_exponents={"p": 4.0, "q": 6.0})
    out = tmp_path / "run"
    with pytest.raises(RunnerSolverError, match="sweep failed: level eps"):
        run_experiment(cfg, out=str(out))
    assert calls == [0.05, 0.025]
    written = sorted(str(p.relative_to(out)) for p in out.rglob("*")
                     if p.is_file())
    assert written == ["fields/eps-0.05.f64", "fields/eps-0.05.json",
                       "fields/parabolic.f64", "fields/parabolic.json",
                       "manifest.json", "reports/convergence.csv",
                       "reports/levels.json", "summary.json"]
    levels = json.loads((out / "reports" / "levels.json").read_text())
    assert [lv["eps"] for lv in levels] == [0.05]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failure"]["phase"] == "sweep"
    assert manifest["failure"]["completed"] == 1
    summary = json.loads((out / "summary.json").read_text())
    assert [e["name"] for e in summary] == ["max-principle-eps-0.05",
                                            "max-principle-parabolic"]


@pytest.mark.parametrize("case", list(RUN_CASES))
def test_run_distances_equal_those_of_fields_held_in_memory(tmp_path, case):
    # a run reads the reference back for each dist_to_ref and the
    # earlier levels for the cauchy pairs; read back bit for bit, they
    # give the values a sweep and sweep_cauchy_increments form from the
    # fields they hold
    from wiedlab import diagnostics as dg
    from wiedlab.assembly import build_operators
    from wiedlab.runner import run_experiment
    from wiedlab.wied import sweep_epsilon
    grid, count = RUN_CASES[case]
    cfg = _run_config(grid, count, [{"name": "cauchy"}])
    run = tmp_path / "run"
    run_experiment(cfg, out=str(run))
    g = build_grid(cfg.grid)
    levels = sweep_epsilon(g, cfg.model, cfg.schedule, cfg.initial.evaluate(g),
                           cfg=cfg.wied, ops=build_operators(g))
    written = json.loads((run / "reports" / "levels.json").read_text())
    assert [lv["dist_to_ref"] for lv in written] == [
        lv.dist_to_ref for lv in levels]
    rows = (run / "reports" / "cauchy.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[1]) for row in rows] == \
        dg.sweep_cauchy_increments(g, [lv.U for lv in levels])
    assert len(rows) == count - 1


def test_sweep_failing_after_taking_its_start_leaves_a_consistent_tree(
        tmp_path, monkeypatch):
    # the second level solves in the first level's array, then fails
    # (OUTER_MAXIT = 0 fails it after its entry check): the first level
    # is on disk bit for bit, its reports come from its stats, and the
    # manifest records the failure and hashes what was written
    from wiedlab import wied
    from wiedlab.runner import RunnerSolverError, run_experiment, write_csv
    from wiedlab.wied import sweep_epsilon
    solve = wied.solve_wied
    starts = []

    def second_fails(grid, model, cfg, U0, start=None, system=None):
        starts.append(start)
        if len(starts) == 2:
            monkeypatch.setattr(wied, "OUTER_MAXIT", 0)
        return solve(grid, model, cfg, U0, start=start, system=system)

    monkeypatch.setattr(wied, "solve_wied", second_fails)
    cfg = _run_config(*RUN_CASES["d1-3-levels"],
                      [{"name": "energy"}, {"name": "cauchy"}])
    out = tmp_path / "run"
    with pytest.raises(RunnerSolverError,
                       match="sweep failed: level eps = 0.025 failed"):
        run_experiment(cfg, out=str(out))
    monkeypatch.undo()
    first = starts[1]
    assert first.eps == 0.05 and first.U is None     # given to level 2
    g = build_grid(cfg.grid)
    want, = sweep_epsilon(g, cfg.model, replace(cfg.schedule, count=1),
                          cfg.initial.evaluate(g), cfg=cfg.wied)
    _, U, side = load_field(out / "fields" / "eps-0.05.f64")
    assert side["eps"] == 0.05
    assert U.tobytes() == want.U.tobytes()
    assert first.read().tobytes() == want.U.tobytes()
    write_csv(tmp_path / "want.csv",
              ["eps", "iters", "el_residual", "dist_to_ref"],
              [{"eps": 0.05, "iters": want.iterations,
                "el_residual": want.el_residual,
                "dist_to_ref": want.dist_to_ref}])
    assert ((out / "reports" / "convergence.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())
    entry, = json.loads((out / "reports" / "levels.json").read_text())
    assert entry["dist_to_ref"] == want.dist_to_ref
    assert entry["residuals"] == want.stats["residuals"]
    assert entry["steps"] == want.stats["steps"]
    manifest = json.loads((out / "manifest.json").read_text())
    failure = manifest["failure"]
    assert (failure["phase"], failure["completed"]) == ("sweep", 1)
    assert failure["message"].startswith(
        "level eps = 0.025 failed: no convergence after 0 outer iterations")
    assert manifest["sweeps"] == [want.stats["sweeps"]]
    assert sorted(manifest["artifacts"]) == sorted(
        str(p.relative_to(out)) for p in out.rglob("*")
        if p.is_file() and p.name != "manifest.json")
    for rel, digest in manifest["artifacts"].items():
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest


def test_manifest_hashes_each_field_as_it_is_dumped(tmp_path, monkeypatch):
    # the run hashes a field's bytes as dump_field writes them and reads
    # no field back; every hash is that of the file on disk
    from wiedlab import runner
    read_back = []
    sha256 = runner._sha256

    def recorded(path):
        read_back.append(path.name)
        return sha256(path)

    monkeypatch.setattr(runner, "_sha256", recorded)
    cfg = _run_config(*RUN_CASES["d1-3-levels"], [{"name": "energy"}])
    out = tmp_path / "run"
    manifest = runner.run_experiment(cfg, out=str(out))
    fields = sorted(p for p in (out / "fields").glob("*.f64"))
    assert len(fields) == 4
    assert not any(name.endswith(".f64") for name in read_back)
    for path in out.rglob("*"):
        if path.is_file() and path.name != "manifest.json":
            assert (manifest["artifacts"][str(path.relative_to(out))]
                    == sha256(path)), path


@pytest.mark.parametrize("damage, message", [
    (lambda path, side: path.write_bytes(path.read_bytes()[:-8]),
     "holds 472 bytes; its sidecar shape (4, 3, 5) needs 480"),
    (lambda path, side: path.write_bytes(path.read_bytes() + bytes(8)),
     "holds 488 bytes; its sidecar shape (4, 3, 5) needs 480"),
    (lambda path, side: side.update(dtype=">f8"), "dtype '>f8'"),
    (lambda path, side: side.update(dtype="<f4"), "dtype '<f4'"),
    (lambda path, side: side.pop("dtype"), "dtype None"),
    (lambda path, side: side.update(order="row-major (t, y, x)"),
     "order 'row-major (t, y, x)'"),
    (lambda path, side: side["gridspec"].update(nx=1), "gridspec"),
    (lambda path, side: side["gridspec"].update(bogus=1), "gridspec"),
    (lambda path, side: side.pop("gridspec"), "gridspec"),
    (lambda path, side: side.update(gridspec=[1, 2]), "gridspec"),
    # a grid too large to allocate is refused before any allocation
    (lambda path, side: side["gridspec"].update(nx=10**13),
     "physical memory"),
], ids=["truncated", "oversized", "big-endian", "float32", "no-dtype",
        "wrong-order", "bad-nx", "unknown-field", "no-gridspec",
        "gridspec-list", "grid-past-memory"])
def test_load_field_rejects_a_bad_dump(tmp_path, damage, message):
    # the sidecar is checked before the dump is read, and every fault is
    # an OSError (exit 4 from the CLI)
    g = build_grid(GridSpec(d=1, a=0.5, L=1.0, Y=1.0, T=1.0,
                            nx=3, ny=2, nt=4))
    path = tmp_path / "f.f64"
    dump_field(path, g, np.zeros(g.spacetime_shape), {})
    side = json.loads(path.with_suffix(".json").read_text())
    damage(path, side)
    path.with_suffix(".json").write_text(json.dumps(side))
    with pytest.raises(OSError, match=re.escape(message)):
        load_field(path)


def test_load_field_rejects_a_sidecar_that_is_no_json_object(tmp_path):
    g = build_grid(GridSpec(d=1, a=0.5, L=1.0, Y=1.0, T=1.0,
                            nx=3, ny=2, nt=4))
    path = tmp_path / "f.f64"
    dump_field(path, g, np.zeros(g.spacetime_shape), {})
    for text, message in (("{", "is no JSON"), ("[1]", "no JSON object")):
        path.with_suffix(".json").write_text(text)
        with pytest.raises(OSError, match=message):
            load_field(path)


def test_newton_matrix_diag_shift_only_on_trace():
    g = build_grid(GridSpec(d=1, a=0.5, L=1.0, Y=1.0, T=1.0,
                            nx=4, ny=4, nt=4))
    system = assemble_linear_system(g, 0.1)
    U = np.full((g.spec.nt + 1, g.n_spatial), 0.25)
    AN = system.newton_matrix(BUMP, U)
    diff = (AN - system.A).tocoo()
    assert np.all(diff.row == diff.col)
    S = g.n_spatial
    assert set(diff.row % S) <= set(system.ops.trace_index.tolist())


def _load_perfbench(name):
    # perfbench/<name>.py, loaded from its file (perfbench is no package)
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_configs_load():
    # every workload config of the benchmark, which copies the shipped
    # config and sets keys of its own, passes the config walk: a key the
    # benchmark still sets cannot be deleted from the schema unnoticed
    from wiedlab.config import config_from_dict
    workloads = _load_perfbench("workloads")
    for name in workloads.WORKLOADS:
        for smoke in (False, True):
            for seed in (1, 7):
                config_from_dict(workloads.make_config(name, seed, smoke))


def test_benchmark_tracing_hooks_install_and_restore():
    # perfbench/tracing.py wraps wiedlab names by attribute; installing
    # fails on any name that no longer exists, and leaving the block puts
    # every original back, so a rename that would break the benchmark's
    # traced mode fails here
    from wiedlab import assembly, config, runner, wied
    tracing = _load_perfbench("tracing")
    before = (wied.assemble_linear_system, assembly.LinearSystem.residual,
              config.load_config, config.build_grid, runner.build_grid)
    with tracing.installed(tracing.Tracer()):
        assert wied.assemble_linear_system is not before[0]
        assert config.load_config is not before[2]
    assert (wied.assemble_linear_system, assembly.LinearSystem.residual,
            config.load_config, config.build_grid, runner.build_grid) == before
    # perfbench/micro.py reads these names directly, without a wrapper
    assert callable(assembly.assemble_linear_system)
    assert callable(assembly.spectral_preconditioner)
    assert isinstance(assembly.LinearSystem.A, functools.cached_property)
    assert isinstance(assembly.LinearSystem.n_unknowns, property)


def test_benchmark_tracing_restores_every_patched_name():
    # every attribute of wiedlab's modules and of their classes that the
    # traced mode replaces wraps its original and is put back on exit, so
    # a name the run path drops fails here and not only in a traced run
    # of the benchmark, which lies outside these tests
    import inspect
    from wiedlab import (assembly, cli, config, diagnostics, grid,
                         parabolic, runner, wied)
    tracing = _load_perfbench("tracing")
    owners = [assembly, cli, config, diagnostics, grid, parabolic, runner,
              wied]
    owners += [cls for mod in owners[:] for cls in vars(mod).values()
               if inspect.isclass(cls) and cls.__module__ == mod.__name__]

    def snapshot():
        return {(owner, attr): value for owner in owners
                for attr, value in vars(owner).items()}

    before = snapshot()
    with tracing.installed(tracing.Tracer()):
        during = snapshot()
    after = snapshot()
    assert during.keys() == before.keys() == after.keys()
    patched = [key for key in before if during[key] is not before[key]]
    assert all(during[key].__wrapped__ is before[key] for key in patched)
    assert {("wied", "bicgstab_solve"), ("parabolic", "pcg_solve"),
            ("parabolic", "finalize_csr"),
            ("assembly", "spectral_preconditioner"),
            ("LinearSystem", "residual")} <= {
                (owner.__name__.split(".")[-1], attr)
                for owner, attr in patched}
    assert all(after[key] is before[key] for key in before)


# the package's `# noqa: F401` imports: names no module of the package
# reads, kept only because perfbench/tracing.py patches them; deleting the
# legacy solver layer and the tracer removes them
TRACER_REIMPORTS = {("wied", "bicgstab_solve"),
                    ("parabolic", "beta_prime_eval"),
                    ("parabolic", "finalize_csr"), ("parabolic", "pcg_solve"),
                    ("runner", "beta_eval"), ("diagnostics", "phi_eval"),
                    ("diagnostics", "build_grid")}


def test_every_unused_import_is_one_the_tracer_patches():
    # each name a package module imports under `# noqa: F401` must be an
    # attribute the benchmark's traced mode replaces, and the list is
    # TRACER_REIMPORTS, so no dead re-import can hide behind a noqa
    import ast
    import importlib
    tracing = _load_perfbench("tracing")
    reimports = set()
    for path in sorted((ROOT / "src" / "wiedlab").glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "# noqa: F401" in lines[i - 1]
                    for i in range(node.lineno, node.end_lineno + 1)):
                reimports |= {(path.stem, alias.asname or alias.name)
                              for alias in node.names}
    assert reimports == TRACER_REIMPORTS
    modules = {stem: importlib.import_module(f"wiedlab.{stem}")
               for stem, _ in reimports}
    before = {key: getattr(modules[key[0]], key[1]) for key in reimports}
    with tracing.installed(tracing.Tracer()):
        unpatched = sorted(key for key in reimports
                           if getattr(modules[key[0]], key[1])
                           is before[key])
    assert unpatched == []


def test_traced_parabolic_steps_equal_nt():
    # perfbench's parabolic.steps counts the spans of step_implicit, so
    # solve_parabolic must call it once per time step
    from wiedlab import parabolic
    tracing = _load_perfbench("tracing")
    g = build_grid(GridSpec(d=1, a=0.5, L=1.0, Y=1.0, T=0.5,
                            nx=8, ny=4, nt=12))
    U0 = g.eval_spatial(
        lambda x, y: np.clip(1 - (x**2 + y**2) / 0.36, 0, None)**2).ravel()
    with tracing.installed(tracing.Tracer()) as tracer:
        parabolic.solve_parabolic(g, BUMP, U0)
    table = tracing.layer_table(tracer, 1)
    assert table["parabolic.steps"] == (g.spec.nt, "count")


def test_traced_run_sees_the_sweep(tmp_path):
    # perfbench reads the sweep from its wrappers of solve_wied and
    # energy_decomposition, which the sweep and the registry must call by
    # module name: a two-level run shows both levels, their outer steps
    # and one energy report per level, which uniform-bounds reuses
    from wiedlab.config import config_from_dict
    from wiedlab.runner import run_experiment
    tracing = _load_perfbench("tracing")
    cfg = config_from_dict({
        "grid": {"d": 1, "a": 0.5, "L": 1.0, "Y": 1.0, "T": 1.0,
                 "nx": 6, "ny": 5, "nt": 20},
        "model": {"kind": "polynomial-bump"},
        "initial": {"kind": "plateau", "radius": 0.5, "height": 0.8},
        "schedule": {"eps0": 0.05, "ratio": 0.5, "count": 2},
        "diagnostics": [{"name": "energy"}, {"name": "uniform-bounds"}]})
    with tracing.installed(tracing.Tracer()) as tracer:
        run_experiment(cfg, out=str(tmp_path / "out"))
    table = tracing.layer_table(tracer, 1)
    assert table["wied.levels"] == (2, "count")
    assert table["wied.outer_steps"][0] > 0
    assert table["diagnostics.energy_calls"] == (2, "count")


# imports what a job imports, then runs `wiedlab run`, `parabolic` and
# `diagnose` on the config argv[1]; prints the exit codes and the scipy
# modules loaded after the imports and after the runs
_SCIPY_PROBE = """
import json, sys
from wiedlab import cli, runner  # noqa: F401

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

after_import = scipy_modules()
cfg, out = sys.argv[1], sys.argv[2]
codes = [cli.main(["run", cfg, "--out", out + "/run"]),
         cli.main(["parabolic", cfg, "--out", out + "/ref"]),
         cli.main(["diagnose", cfg, "--field", out + "/ref/parabolic.f64",
                   "--which", "no-spikes,level-sets", "--out",
                   out + "/diag"])]
print(json.dumps({"codes": codes, "after_import": after_import,
                  "after_run": scipy_modules()}))
"""


@pytest.mark.parametrize("m", [1, 1.5])
def test_runs_import_scipy_only_for_non_integer_bumps(tmp_path, m):
    # the shipped config on a tiny one-level grid, in a fresh process: the
    # start and every run path stay scipy-free with integer bump
    # exponents; m = 1.5 still runs and loads scipy.special on first use
    cfg = json.loads((ROOT / "configs" / "combustion-1d.json").read_text())
    cfg["grid"].update(nx=8, ny=3, nt=24)
    cfg["schedule"]["count"] = 1
    cfg["model"]["params"]["m"] = m
    cfg["diagnostics"] = [d for d in cfg["diagnostics"]
                          if d["name"] in ("energy", "uniform-bounds",
                                           "no-spikes", "level-sets")]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(path), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["codes"] == [0, 0, 0], proc.stderr
    assert seen["after_import"] == []
    if m == 1:
        assert seen["after_run"] == []
    else:
        assert "scipy.special" in seen["after_run"]
