"""Traced mode: spans and counters recorded around wiedlab's public names.

Each wrapped function is replaced at the module attribute its callers
look it up through (``wiedlab.wied.bicgstab_solve``, not only
``wiedlab.linalg.bicgstab_solve``, because ``wied`` imports the name),
and restored afterwards, so untraced jobs in the same process run the
original code.  Spans hold (job, name, start, end, parent); they stay in
memory and are written out when the run ends.  A layer's self time is
its spans' durations minus the time covered by their direct children.

Preconditioner applies are counted through the callable the
preconditioner builders return to ``default_st_preconditioner``, and
Krylov matvecs through a proxy around the matrix handed to the solver.
Neither changes an operation, so traced and untraced jobs write
identical artifacts.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

# diagnostics function -> diagnostic name as it appears in configs
DIAGNOSTIC_FUNCTIONS = {
    "energy_decomposition": "energy",
    "uniform_bounds_report": "uniform-bounds",
    "linf_l2_ratio": "linf-l2",
    "no_spikes_iteration": "no-spikes",
    "level_set_measures": "level-sets",
    "oscillation_table": "holder",
    "fit_holder": "holder",
    "embedding_ratio_check": "embedding",
    "isoperimetric_check": "isoperimetric",
    "sweep_cauchy_increments": "cauchy",
}
DIAGNOSTIC_NAMES = sorted(set(DIAGNOSTIC_FUNCTIONS.values()))

# eps levels of the run-* workloads (eps0 = 0.2, ratio 0.5, up to 4 levels)
LEVEL_EPS = (0.2, 0.1, 0.05, 0.025)


def _csr_matvec_bytes(A) -> float:
    """Computed bytes of one CSR matvec: values, indices, row pointers,
    x read once and y written once.  Cache misses are not counted."""
    idx = A.indices.dtype.itemsize
    rows, cols = A.shape
    return float(A.nnz * (8 + idx) + (rows + 1) * idx + 8 * (rows + cols))


class _MatvecProxy:
    """Stands in for the Krylov solver's matrix; records each ``A @ x``."""

    def __init__(self, tracer, A):
        self._tracer = tracer
        self._A = A
        self._bytes = _csr_matvec_bytes(A)

    def __matmul__(self, x):
        with self._tracer.span("linalg.matvec"):
            y = self._A @ x
        self._tracer.count("linalg.matvec_bytes", self._bytes)
        return y

    def __getattr__(self, name):
        return getattr(self._A, name)


class Tracer:
    """In-memory span and counter store for one benchmark run."""

    def __init__(self):
        self.spans = []      # [job, name, start, end, parent index]
        self.counts = defaultdict(float)
        self.job = 0
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [self.job, name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, value: float = 1.0):
        self.counts[key] += value

    def wrap(self, fn, name, after=None, before=None):
        """``fn`` inside a span; ``name`` is a string or a function of the
        call's arguments, ``before`` may rewrite the arguments and
        ``after(result, args, kwargs)`` may record from, or wrap, the
        result."""
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            with self.span(name if isinstance(name, str)
                           else name(*args, **kwargs)):
                out = fn(*args, **kwargs)
            if after is not None:
                replaced = after(out, args, kwargs)
                if replaced is not None:
                    out = replaced
            return out
        traced.__wrapped__ = fn
        return traced

    # -- aggregation -------------------------------------------------------

    def totals(self, setup: bool = False) -> tuple[dict, dict, dict]:
        """Per span name: total time (outermost spans of that name only),
        self time, and number of spans; over the jobs, or over the set-up
        (job -1) when ``setup`` is true."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[4] >= 0:
                child[rec[4]] += rec[3] - rec[2]
        total, self_t, calls = (defaultdict(float), defaultdict(float),
                                defaultdict(int))
        for i, (job, name, t0, t1, parent) in enumerate(self.spans):
            if (job < 0) != setup:
                continue
            dur = t1 - t0
            calls[name] += 1
            self_t[name] += dur - child[i]
            if parent < 0 or self.spans[parent][1] != name:
                total[name] += dur
        return total, self_t, calls

    def write(self, path: Path, extra: dict):
        names = sorted({rec[1] for rec in self.spans})
        code = {n: i for i, n in enumerate(names)}
        t_ref = self.spans[0][2] if self.spans else 0.0
        payload = dict(extra)
        payload["span_names"] = names
        payload["span_fields"] = ["job", "name", "start_s", "end_s", "parent"]
        payload["spans"] = [[j, code[n], round(t0 - t_ref, 7),
                             round(t1 - t_ref, 7), p]
                            for j, n, t0, t1, p in self.spans]
        payload["counts"] = dict(self.counts)
        path.write_text(json.dumps(payload, separators=(",", ":")))


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    from wiedlab import (assembly, cli, config, diagnostics, grid,
                         parabolic, runner, wied)

    patches = []

    def patch(owner, attr, name, **hooks):
        original = getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, **hooks))

    patch(config, "load_config", "config.load")
    for mod in (config, runner, diagnostics, grid):
        patch(mod, "build_grid", "grid.build")
    for mod, attrs in ((assembly, ("beta_eval", "beta_prime_eval",
                                   "phi_eval")),
                       (parabolic, ("beta_eval", "beta_prime_eval")),
                       (runner, ("beta_eval",)),
                       (diagnostics, ("phi_eval",))):
        for attr in attrs:
            patch(mod, attr, "combustion.eval")

    for mod in (assembly, runner, wied, parabolic, diagnostics):
        patch(mod, "build_operators", "assembly.ops_build")
    patch(wied, "assemble_linear_system", "assembly.system")
    patch(diagnostics, "assemble_linear_system", "assembly.system_diag")
    patch(wied, "functional_value", "assembly.functional")
    patch(assembly.LinearSystem, "residual", "assembly.residual")
    patch(assembly.LinearSystem, "newton_matrix", "assembly.newton_matrix")

    def prec(kind):
        def after(apply, args, kwargs):
            system = args[0]
            nt, S = system.grid.spec.nt, system.grid.n_spatial
            # spectral: two dense (nt x S)(S x S) products plus the Thomas
            # sweeps and mass scalings; time-line: the Thomas sweeps only
            flops = (4.0 * nt * S * S + 7.0 * nt * S if kind == "spectral"
                     else 5.0 * nt * S)
            tracer.count(f"assembly.prec_setups_{kind}")

            def counted(r):
                tracer.count("assembly.prec_apply_flops", flops)
                with tracer.span("assembly.prec_apply"):
                    return apply(r)
            return counted
        return after

    patch(assembly, "spectral_preconditioner", "assembly.prec_setup",
          after=prec("spectral"))
    patch(assembly, "time_line_preconditioner", "assembly.prec_setup",
          after=prec("timeline"))

    def proxied(args, kwargs):
        return (_MatvecProxy(tracer, args[0]),) + tuple(args[1:]), kwargs

    def krylov(kind):
        def after(sol, args, kwargs):
            tracer.count(f"linalg.{kind}_iters", sol.iterations)
            if not sol.converged:
                tracer.count(f"linalg.{kind}_failed")
        return after

    patch(wied, "bicgstab_solve", "linalg.bicgstab", before=proxied,
          after=krylov("bicgstab"))
    patch(parabolic, "pcg_solve", "linalg.pcg", before=proxied,
          after=krylov("pcg"))

    def level_done(res, args, kwargs):
        tracer.count("wied.outer_steps", res.stats["iterations"])
        tracer.count("wied.accepted_steps", len(res.stats["damping"]))

    patch(wied, "solve_wied",
          lambda grid, model, cfg, *a, **k: f"wied.level.eps-{cfg.eps:g}",
          after=level_done)
    patch(runner, "sweep_epsilon", "wied.sweep")
    for mod in (runner, wied, parabolic):
        patch(mod, "solve_parabolic", "parabolic.solve")
    patch(parabolic, "step_implicit", "parabolic.step")
    patch(parabolic, "finalize_csr", "parabolic.step_matrix")

    for fn, diag in DIAGNOSTIC_FUNCTIONS.items():
        patch(diagnostics, fn, f"diagnostics.{diag}")

    def written(out, args, kwargs):
        path = Path(args[0])
        tracer.count("runner.bytes_written", path.stat().st_size)

    for attr in ("write_csv", "write_json", "dump_field"):
        patch(runner, attr, "runner.io", after=written)
    patch(runner, "load_field", "runner.io")
    patch(runner, "run_experiment", "runner.run_experiment")
    patch(cli, "main", "cli.main")
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def layer_table(tracer: Tracer, jobs: int) -> dict:
    """Per-layer metrics, per traced job: counts and seconds are divided
    by ``jobs``; rates and ratios are taken over all traced jobs.  The
    config and grid metrics are those of the run's set-up."""
    total, self_t, calls = tracer.totals()
    setup_total, _, setup_calls = tracer.totals(setup=True)
    c = tracer.counts
    n = max(jobs, 1)

    def per_job(v):
        return float(v) / n

    def ratio(num, den):
        return float(num) / den if den else 0.0

    m = {}
    m["assembly.prec_applies"] = (per_job(calls["assembly.prec_apply"]),
                                  "count")
    m["assembly.prec_apply_s"] = (per_job(total["assembly.prec_apply"]), "s")
    m["assembly.prec_apply_gflops_computed"] = (
        ratio(c["assembly.prec_apply_flops"] / 1e9,
              total["assembly.prec_apply"]), "GFLOP/s")
    for kind in ("spectral", "timeline"):
        m[f"assembly.prec_setups_{kind}"] = (
            per_job(c[f"assembly.prec_setups_{kind}"]), "count")
    m["assembly.prec_setup_s"] = (per_job(total["assembly.prec_setup"]), "s")
    m["assembly.system_calls"] = (
        per_job(calls["assembly.system"] + calls["assembly.system_diag"]),
        "count")
    m["assembly.system_calls_diag"] = (
        per_job(calls["assembly.system_diag"]), "count")
    m["assembly.system_s"] = (
        per_job(total["assembly.system"] + total["assembly.system_diag"]),
        "s")
    m["assembly.ops_builds"] = (per_job(calls["assembly.ops_build"]),
                                "count")
    for key in ("functional", "residual", "newton_matrix"):
        m[f"assembly.{key}_calls"] = (per_job(calls[f"assembly.{key}"]),
                                      "count")
        m[f"assembly.{key}_s"] = (per_job(total[f"assembly.{key}"]), "s")

    m["linalg.bicgstab_calls"] = (per_job(calls["linalg.bicgstab"]), "count")
    m["linalg.bicgstab_iters"] = (per_job(c["linalg.bicgstab_iters"]),
                                  "count")
    m["linalg.bicgstab_failed"] = (per_job(c["linalg.bicgstab_failed"]),
                                   "count")
    m["linalg.bicgstab_s"] = (per_job(total["linalg.bicgstab"]), "s")
    m["linalg.bicgstab_self_s"] = (per_job(self_t["linalg.bicgstab"]), "s")
    m["linalg.matvecs"] = (per_job(calls["linalg.matvec"]), "count")
    m["linalg.matvec_s"] = (per_job(total["linalg.matvec"]), "s")
    m["linalg.matvec_gbps_computed"] = (
        ratio(c["linalg.matvec_bytes"] / 1e9, total["linalg.matvec"]),
        "GB/s")
    m["linalg.pcg_calls"] = (per_job(calls["linalg.pcg"]), "count")
    m["linalg.pcg_iters"] = (per_job(c["linalg.pcg_iters"]), "count")
    m["linalg.pcg_s"] = (per_job(total["linalg.pcg"]), "s")

    levels = sum(v for k, v in calls.items()
                 if k.startswith("wied.level.eps-"))
    m["wied.levels"] = (per_job(levels), "count")
    for eps in LEVEL_EPS:
        m[f"wied.level_s.eps-{eps:g}"] = (
            per_job(total[f"wied.level.eps-{eps:g}"]), "s")
    inner = calls["linalg.bicgstab"]
    m["wied.outer_steps"] = (per_job(c["wied.outer_steps"]), "count")
    m["wied.inner_solves"] = (per_job(inner), "count")
    m["wied.inner_iters_per_solve"] = (
        ratio(c["linalg.bicgstab_iters"], inner), "iters/solve")
    # functional_value runs once per level and once per line-search
    # candidate; the first candidate of each inner solve is not a backtrack
    m["wied.backtracks"] = (
        per_job(max(calls["assembly.functional"] - levels - inner, 0)),
        "count")
    m["wied.step_accept_ratio"] = (ratio(c["wied.accepted_steps"], inner),
                                   "ratio")

    pcg = calls["linalg.pcg"]
    m["parabolic.solve_s"] = (per_job(total["parabolic.solve"]), "s")
    m["parabolic.steps"] = (per_job(calls["parabolic.step"]), "count")
    m["parabolic.picard_iters"] = (per_job(pcg), "count")
    m["parabolic.step_matrix_builds"] = (
        per_job(calls["parabolic.step_matrix"]), "count")
    m["parabolic.pcg_iters_per_solve"] = (ratio(c["linalg.pcg_iters"], pcg),
                                          "iters/solve")

    for diag in DIAGNOSTIC_NAMES:
        m[f"diagnostics.{diag}_s"] = (per_job(total[f"diagnostics.{diag}"]),
                                      "s")
    m["diagnostics.energy_calls"] = (per_job(calls["diagnostics.energy"]),
                                     "count")

    m["combustion.eval_calls"] = (per_job(calls["combustion.eval"]), "count")
    m["combustion.eval_s"] = (per_job(total["combustion.eval"]), "s")
    m["runner.io_s"] = (per_job(total["runner.io"]), "s")
    m["runner.bytes_written"] = (per_job(c["runner.bytes_written"]), "B")
    m["runner.self_s"] = (per_job(self_t["runner.run_experiment"]), "s")
    m["config.load_s"] = (setup_total["config.load"], "s")
    m["grid.build_calls"] = (float(setup_calls["grid.build"]), "count")
    m["grid.build_s"] = (setup_total["grid.build"], "s")
    m["cli.self_s"] = (per_job(self_t["cli.main"]), "s")
    return m
