"""Micro-timings of the two sweep kernels, with the machine they ran on.

Both run at the shipped spatial grid (81 x 18 nodes) with nt = 480,
0.70M space-time unknowns: one spectral preconditioner apply and one
space-time matvec.  Flops and bytes are computed from the operation
shapes, not measured, and are labelled so.
"""

from __future__ import annotations

import ctypes
import os
import statistics
import time

import numpy as np
import scipy

SIZE = {"nx": 80, "ny": 17, "nt": 480, "eps": 0.025}

# glibc sysconf names for the cache sizes (not in os.sysconf_names)
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194


def _cache_kib(name: int) -> float:
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return 0.0
    libc.sysconf.restype = ctypes.c_long
    libc.sysconf.argtypes = [ctypes.c_int]
    size = libc.sysconf(name)
    return size / 1024.0 if size > 0 else 0.0


def environment(blas_threads: int) -> dict:
    """What the timings depend on besides the code."""
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads,
            "numpy": np.__version__, "scipy": scipy.__version__,
            "l2_cache_kib": _cache_kib(_SC_LEVEL2_CACHE_SIZE),
            "l3_cache_kib": _cache_kib(_SC_LEVEL3_CACHE_SIZE)}


def _median_time(fn, arg, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_timings(seed: int) -> dict:
    """Median seconds of one spectral apply and one space-time matvec,
    with computed GFLOP/s and GB/s."""
    from wiedlab.assembly import (assemble_linear_system,
                                  spectral_preconditioner)
    from wiedlab.grid import GridSpec, build_grid

    grid = build_grid(GridSpec(d=1, a=0.5, L=4.0, Y=2.5, T=4.0,
                               nx=SIZE["nx"], ny=SIZE["ny"], nt=SIZE["nt"]))
    system = assemble_linear_system(grid, SIZE["eps"])
    t0 = time.perf_counter()
    apply = spectral_preconditioner(system)
    setup_s = time.perf_counter() - t0
    x = np.random.default_rng(seed).standard_normal(system.n_unknowns)
    nt, S = SIZE["nt"], grid.n_spatial

    apply_s = _median_time(apply, x, 5)
    A = system.A
    matvec_s = _median_time(A.__matmul__, x, 21)
    flops = 4.0 * nt * S * S + 7.0 * nt * S
    idx = A.indices.dtype.itemsize
    nbytes = A.nnz * (8 + idx) + (A.shape[0] + 1) * idx + 16 * A.shape[0]
    return {"micro.spectral_setup_s": (setup_s, "s"),
            "micro.spectral_apply_s": (apply_s, "s"),
            "micro.spectral_apply_gflops_computed": (flops / apply_s / 1e9,
                                                     "GFLOP/s"),
            "micro.st_matvec_s": (matvec_s, "s"),
            "micro.st_matvec_gbps_computed": (nbytes / matvec_s / 1e9,
                                              "GB/s")}
