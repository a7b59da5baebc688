"""Result-file header: the machine, libraries, thread pin, seed and commit.

A timing, and any claim that two runs give byte-identical numbers, only
means something together with the BLAS/LAPACK build it ran on, so every
result file carries this header.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_blas_threads():
    """Pin every BLAS/OpenMP pool to one thread.

    Must run before numpy is imported: the pools read these variables
    once, at load time.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown: not a git checkout"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = git / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown: unresolved ref {name}"


def blas_lapack_build() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    # name, version and build configuration; the install directories
    # say nothing about the build
    return {
        k: {f: v for f, v in deps[k].items() if "directory" not in f}
        for k in ("blas", "lapack")
        if k in deps
    }


def header(root: Path, seed: int, **extra) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_lapack": blas_lapack_build(),
        "blas_thread_pin": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "seed": seed,
        "commit": git_commit(root),
        "argv": sys.argv[1:],
        **extra,
    }
