"""Record of the machine and libraries a result was measured on (stdlib only)."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

# OpenBLAS builds export the thread-count getter under one of these names
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads() -> int | None:
    """Thread count of the BLAS loaded into this process, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: Path) -> dict:
    """nproc, BLAS name/version/threads, Python/numpy/scipy versions, commit.

    Call after numpy and scipy are imported, so their BLAS is loaded.
    """
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (KeyError, TypeError, ValueError):
        blas_name = blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(root),
    }
