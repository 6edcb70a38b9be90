"""Experiment orchestration and artifact persistence.

One experiment = WIED sweep + parabolic reference + requested
diagnostics, written as a deterministic artifact tree:

    fields/eps-*.f64 (+ .json sidecars), fields/parabolic.f64
    reports/*.csv, summary.json
    manifest.json  (config hash, versions, BLAS kernel, wall clock, artifact
                    hashes, the parabolic reference's trace corrections,
                    each level's Thomas sweeps)

Field dumps are raw little-endian float64 in row-major (x, y, t) node
order; everything numeric is reproduced bit-exactly by a re-run with the
same config.  Dumps, loads and artifact hashes stream through one block
of at most FIELD_BLOCK_BYTES, so no field is copied whole on its way to
or from disk.  A run gives a dumped field's memory up and reads the
field back (read_field) when a distance needs it, so it holds one field
at a time.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import math
import operator
import os
import time
from pathlib import Path

import numpy as np

from . import __version__, registry
from .assembly import build_operators
from .combustion import sup_bound
# beta_eval is unused here; it stays importable because
# perfbench/tracing.py patches it by name
from .combustion import beta_eval  # noqa: F401
from .config import ExperimentConfig, walk
from .grid import GridSpec, build_grid
from .parabolic import ParabolicError, solve_parabolic
from .wied import Level, SweepError, sweep_epsilon


class RunnerSolverError(RuntimeError):
    """A solver failed; partial artifacts were kept."""


class DiagnosticError(RuntimeError):
    """A diagnostic could not be evaluated on the solved fields."""

    def __init__(self, msg, completed: int):
        super().__init__(msg)
        self.completed = completed   # diagnostics finished before it


# how RunnerSolverError introduces the message of each failure phase
_FAILURE_PREFIX = {"parabolic": "parabolic reference failed: ",
                   "sweep": "sweep failed: ",
                   "diagnostics": "diagnostics failed: "}


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


# the types whose values float.__repr__ formats as _fmt does
_FLOATS = {float, np.float64}


def write_csv(path: Path, header: list, rows: list):
    """The rows as CSV under header, each value as _fmt formats it.  A
    column of floats is formatted by one map of float.__repr__, so no
    Python call runs per value."""
    cols = []
    for h in header:
        col = list(map(operator.itemgetter(h), rows))
        cols.append(map(float.__repr__ if set(map(type, col)) <= _FLOATS
                        else _fmt, col))
    lines = [",".join(header), *map(",".join, zip(*cols))]
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, obj):
    path.write_text(json.dumps(obj, sort_keys=True, indent=1,
                               default=_json_default) + "\n")


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


# Field dumps, loads and hashes stream through one block of at most this
# many bytes (a whole number of x-planes, at least one, never more than
# the field), so a field is never copied whole on its way to or from disk
FIELD_BLOCK_BYTES = 2 << 20

_FIELD_ORDER = "row-major (x, y, t)"


def _planes(grid, arr: np.ndarray) -> np.ndarray:
    """The (x..., y, t) view of a (t, y, x...) field, its x axes merged
    into one plane index (the view the dump's byte order walks)."""
    sp = grid.spec
    return arr.reshape(sp.nt + 1, sp.ny + 1, -1).T


def _block(planes: np.ndarray) -> np.ndarray:
    """The reusable block buffer for a (planes, y, t) view."""
    k = max(1, min(planes.shape[0], FIELD_BLOCK_BYTES
                   // (8 * planes.shape[1] * planes.shape[2])))
    return np.empty((k,) + planes.shape[1:], dtype="<f8")


def dump_field(path: Path, grid, arr: np.ndarray, meta: dict, *,
               digest: bool = False) -> str | None:
    """Raw float64 dump in row-major (x, y, t) order plus JSON sidecar;
    with digest, returns the sha256 of the dump's bytes, hashed as they
    are written (a run's manifest takes it), otherwise None.

    The sidecar holds the grid spec, the dump's order and dtype, the
    space-time exponent s = (1 - a)/2 of the grid's weight and meta.
    The transpose is streamed: a few x-planes at a time are copied into
    one block buffer (FIELD_BLOCK_BYTES) and written from it.
    """
    arr = np.asarray(arr, dtype="<f8").reshape(grid.spacetime_shape)
    planes = _planes(grid, arr)
    buf = _block(planes)
    k = buf.shape[0]
    h = hashlib.sha256() if digest else None
    with open(path, "wb") as f:
        for i in range(0, planes.shape[0], k):
            blk = buf[: min(k, planes.shape[0] - i)]
            np.copyto(blk, planes[i:i + blk.shape[0]])
            f.write(memoryview(blk))
            if h is not None:
                h.update(memoryview(blk))
    side = {"gridspec": grid.spec.to_dict(), "order": _FIELD_ORDER,
            "dtype": "<f8", "s_exponent": (1.0 - grid.spec.a) / 2.0}
    side.update(meta)
    write_json(path.with_suffix(".json"), side)
    return h.hexdigest() if h is not None else None


def load_field(path: Path):
    """Read back a field dump; returns (grid, array in internal (t, y, x)
    layout, sidecar dict).

    The sidecar is checked before the dump is read: a dtype other than
    "<f8", another order, or a gridspec that builds no grid raise
    OSError; the dump itself is read by read_field.
    """
    path = Path(path)
    side, grid = _read_sidecar(path)
    return grid, read_field(path, grid), side


def read_field(path: Path, grid) -> np.ndarray:
    """The field of a dump on grid, in internal (t, y, x) layout, bit for
    bit, without its sidecar: a run reads its own dumps back this way.
    OSError unless the file holds the grid's size.

    The result is allocated once; the dump is read into one block buffer
    (FIELD_BLOCK_BYTES) at a time and scattered into the result's
    transposed view.
    """
    sp = grid.spec
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        shape = (sp.nx + 1,) * sp.d + (sp.ny + 1, sp.nt + 1)
        expected = 8 * math.prod(shape)
        if size != expected:
            raise OSError(f"field dump {path} holds {size} bytes; its "
                          f"sidecar shape {shape} needs {expected}")
        arr = np.empty(grid.spacetime_shape)
        planes = _planes(grid, arr)
        buf = _block(planes)
        k = buf.shape[0]
        for i in range(0, planes.shape[0], k):
            blk = buf[: min(k, planes.shape[0] - i)]
            if f.readinto(memoryview(blk).cast("B")) != blk.nbytes:
                raise OSError(f"field dump {path} ended before byte "
                              f"{expected}")
            np.copyto(planes[i:i + blk.shape[0]], blk)
    return arr


def _read_sidecar(path: Path):
    """(sidecar dict, grid) of a dump; OSError unless the sidecar is a
    JSON object with the dump's dtype and order and a gridspec that
    builds a grid."""
    try:
        side = json.loads(path.with_suffix(".json").read_text())
    except ValueError as exc:
        raise OSError(f"sidecar of field dump {path} is no JSON: "
                      f"{exc}") from exc
    if not isinstance(side, dict):
        raise OSError(f"sidecar of field dump {path} is no JSON object")
    for key, want in (("dtype", "<f8"), ("order", _FIELD_ORDER)):
        if side.get(key) != want:
            raise OSError(f"sidecar of field dump {path} gives {key} "
                          f"{side.get(key)!r}; dumps are {want!r}")
    try:
        grid = build_grid(GridSpec(**walk(side["gridspec"], "gridspec",
                                          "grid")))
    except (KeyError, ValueError) as exc:  # ConfigError, GridError included
        raise OSError(f"sidecar of field dump {path} has no valid "
                      f"gridspec: {exc!r}") from exc
    return side, grid


def _sha256(path: Path) -> str:
    """sha256 of a file, read in chunks of FIELD_BLOCK_BYTES at most
    (a smaller file in one chunk of its own size)."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        buf = memoryview(bytearray(min(FIELD_BLOCK_BYTES, size)))
        while n := f.readinto(buf):
            h.update(buf[:n])
    return h.hexdigest()


def blas_kernel() -> str | None:
    """The core numpy's OpenBLAS runs on, such as "SkylakeX", which
    OPENBLAS_CORETYPE can set; None where it cannot be read."""
    try:    # the scipy-openblas numpy ships, among the mapped libraries
        with open("/proc/self/maps") as f:
            lib = next(ln.split()[-1] for ln in f if "scipy_openblas64_" in ln)
        get = ctypes.CDLL(lib).scipy_openblas_get_corename64_
    except (OSError, StopIteration, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_char_p
    return get().decode()


def provenance() -> dict:
    """What a manifest records of the build that wrote it: the package
    and numpy versions, the BLAS numpy was built with (name and version)
    and the kernel OpenBLAS runs on, each BLAS entry None where it cannot
    be read."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):   # numpy < 1.26 takes no mode
        blas = None
    return {"package_version": __version__, "numpy_version": np.__version__,
            "blas": blas, "blas_kernel": blas_kernel()}


def write_diagnostics(stream: registry.Stream, levels, outdir: Path,
                      summary: list) -> list:
    """Finish the stream on levels (every one added to it), write each
    request's reports into outdir and append its summary entries to
    summary, in request order; return the (name, reason) of each one
    that measured nothing.  A diagnostic the fields do not support ends
    the requests with DiagnosticError, after those before it are
    written."""
    outcome = stream.finish(levels)
    for name, reports, entries in outcome.results:
        for fname, header, rows in reports:
            write_csv(outdir / fname, header, rows)
        summary.extend(entries)
    if outcome.failure is not None:
        done, name, exc = outcome.failure
        raise DiagnosticError(f"diagnostic {name!r}: {exc}",
                              completed=done) from exc
    return outcome.skipped


def run_experiment(cfg: ExperimentConfig, out: str | None = None) -> dict:
    """Run the full pipeline; returns the manifest dict.

    Each eps level is handled as the sweep hands it over: its field is
    dumped, the diagnostics measure what they read of it (a
    registry.Stream), and it is given the dump's reader (read_field).
    A field on disk gives its memory up: level 1 solves in the parabolic
    trajectory, and each later level in the field of the one before
    (solve_wied), so the run holds one field and one level's working
    set.  The reference is read back once per level for dist_to_ref, and
    the level before once per level for a cauchy pair, when one is
    requested; the last level keeps its field for the diagnostics that
    read it at the end.  Reports and summary entries are written once
    the sweep is done.
    Raises RunnerSolverError on solver failure (partial artifacts are
    kept on disk: a failed sweep leaves its completed levels dumped and
    no diagnostic written); ConfigError surfaces before anything is
    written.
    """
    t_start = time.time()
    outdir = Path(out or cfg.output)
    grid = build_grid(cfg.grid)
    U0 = cfg.initial.evaluate(grid)
    ops = build_operators(grid)

    (outdir / "fields").mkdir(parents=True, exist_ok=True)
    (outdir / "reports").mkdir(parents=True, exist_ok=True)

    ctx = registry.Context(grid, cfg.model, cfg.forcing_exponents, ops)
    stream = registry.Stream(
        ctx, [(req.name, req.options) for req in cfg.diagnostics])
    # failure: where the run stopped (phase), why, and how many steps,
    # levels or diagnostics of that phase were completed; hashes: of the
    # dumps, as they were written; extremes: (min, max) per dump
    failure, levels, reference, corrections = None, [], None, {}
    hashes, extremes = {}, {}

    def dump(name, U, meta):
        # the dump's reader, which reads U back bit for bit
        path = outdir / "fields" / f"{name}.f64"
        hashes[str(path.relative_to(outdir))] = dump_field(
            path, grid, U, meta, digest=True)
        extremes[name] = (U.min(), U.max())
        return functools.partial(read_field, path, grid)

    def on_level(lv):
        # the next level solves in lv's array, which lv gives up
        lv.load = dump(f"eps-{lv.eps:g}", lv.U,
                       {"eps": lv.eps, "role": "wied-level"})
        stream.add(lv)
        lv.check = None
        levels.append(lv)

    try:
        trajectory = solve_parabolic(grid, cfg.model, U0, ops=ops,
                                     stats=corrections)
    except ParabolicError as exc:
        failure = {"phase": "parabolic", "message": str(exc),
                   "completed": exc.completed}
    else:
        # level 1 solves in the trajectory, so the run keeps no other
        # name for it
        reference = Level(None, trajectory, load=dump(
            "parabolic", trajectory, {"role": "parabolic-reference"}))
        del trajectory
        try:
            sweep_epsilon(grid, cfg.model, cfg.schedule, U0, cfg=cfg.wied,
                          reference=reference, ops=ops, on_level=on_level)
        except SweepError as exc:
            failure = {"phase": "sweep", "message": str(exc),
                       "completed": len(exc.completed)}

    write_csv(outdir / "reports" / "convergence.csv",
              ["eps", "iters", "el_residual", "dist_to_ref"],
              [{"eps": lv.eps, "iters": lv.iterations,
                "el_residual": lv.el_residual,
                "dist_to_ref": lv.dist_to_ref} for lv in levels])
    write_json(outdir / "reports" / "levels.json",
               [{"eps": lv.eps, "iterations": lv.iterations,
                 "el_residual": lv.el_residual, "el_tol_abs": lv.el_tol,
                 "dist_to_ref": lv.dist_to_ref,
                 **{k: lv.stats[k] for k in ("residuals", "inner_iterations",
                                             "newton_tols", "steps",
                                             "damping")}}
                for lv in levels])

    summary = []
    if failure is None:
        try:
            write_diagnostics(stream, levels, outdir / "reports", summary)
        except DiagnosticError as exc:
            failure = {"phase": "diagnostics", "message": str(exc),
                       "completed": exc.completed}

    dists = [lv.dist_to_ref for lv in levels]
    if len(dists) >= 2:
        if not any(dists):
            ratio, monotone = 0.0, True  # already at the limit problem
        elif dists[0] == 0.0:
            ratio, monotone = None, False  # moved away from the limit
        else:
            ratio = dists[-1] / dists[0]
            monotone = (all(b < a for a, b in zip(dists, dists[1:]))
                        and dists[-1] <= dists[0] / 3.0)
        summary.append(registry.entry("eps-limit-monotone", ratio,
                                      1.0 / 3.0, bool(monotone)))
    names = [f"eps-{lv.eps:g}" for lv in levels]
    if reference is not None:
        names.append("parabolic")
    for name in names:
        lo, hi = extremes[name]
        summary.append(registry.entry(
            f"max-principle-{name}", float(max(hi - 1.0, -lo, 0.0)), 1e-8,
            bool(-1e-8 <= lo and hi <= 1.0 + 1e-8)))
    write_json(outdir / "summary.json", summary)

    artifacts = {}
    for p in sorted(outdir.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            rel = str(p.relative_to(outdir))
            artifacts[rel] = hashes.get(rel) or _sha256(p)
    manifest = {
        "config_hash": hashlib.sha256(
            json.dumps(_config_fingerprint(cfg), sort_keys=True).encode()
        ).hexdigest(),
        **provenance(),
        "s_exponent": (1.0 - cfg.grid.a) / 2.0,
        "beta_sup": sup_bound(cfg.model),
        "tail_weight": float(np.exp(-cfg.grid.T / cfg.schedule.eps0)),
        "wallclock_s": time.time() - t_start,
        "artifacts": artifacts,
        # solver counts, kept out of every hashed artifact
        "sweeps": [lv.stats["sweeps"] for lv in levels],
    }
    if corrections:
        manifest["parabolic"] = corrections
    if failure is not None:
        manifest["failure"] = failure
    write_json(outdir / "manifest.json", manifest)
    if failure is not None:
        raise RunnerSolverError(_FAILURE_PREFIX[failure["phase"]]
                                + failure["message"])
    return manifest


def _config_fingerprint(cfg: ExperimentConfig) -> dict:
    return {
        "grid": cfg.grid.to_dict(),
        "model": {"kind": cfg.model.kind, "params": cfg.model.params},
        "initial": {"kind": cfg.initial.kind, **cfg.initial.params},
        "schedule": {"eps0": cfg.schedule.eps0, "ratio": cfg.schedule.ratio,
                     "count": cfg.schedule.count},
        "seed": cfg.seed,
    }
