"""Run conditions: the machine, the BLAS thread settings, a fixed reference
loop timed at the start and the end of every run, and the short host probe
that measures the host's speed around every timed sample.

The reference loop is recorded beside the metrics, never as one: when a run
reads slow, a slow reference loop in the same run says the host was slow.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads() -> dict:
    """Thread count each loaded OpenBLAS library reports (numpy and scipy
    may each bundle their own copy)."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return out
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = fn()
                break
    return out


def machine(np) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "openblas_threads": _openblas_threads(),
    }


def _loop_ms(passes: int, py_iters: int, products: int, size: int) -> float:
    """Median over ``passes`` of a fixed pure-Python loop plus a fixed chain of
    small dense numpy products. It never runs program code."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((size, size)) / size
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        s = 0
        for k in range(py_iters):
            s += k * k
        b = a
        for _ in range(products):
            b = np.tanh(b @ a + 0.5)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def reference_probe_ms() -> float:
    """The reference loop recorded at the start and the end of a run (~10 ms)."""
    return _loop_ms(5, 100_000, 50, 96)


def host_probe_ms() -> float:
    """The short probe that brackets set-up repetitions and rounds (~3 ms). It
    reads about the same on a quiet host in every run and rises in step with
    the program's own timings while other tenants load the machine."""
    return _loop_ms(3, 15_000, 8, 64)
