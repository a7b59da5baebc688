"""The host's speed, from a fixed kernel timed between the checks.

The benchmark runs on a few cores of a shared host whose speed changes,
from outside the process, by up to 1.7x from one minute to the next and
by 10-40 % from one second to the next (README.md, "Reference
seconds").  Raw wall times of the same code then spread past any useful
bound.  So a run times a small fixed kernel, which no change to the
package can touch, before every check and after the last one, and the
end-to-end times are reported in *reference seconds*: a measured wall
time scaled by ``REF_KERNEL_S / kernel time around it``, which is the
time the work would have taken at the speed at which the kernel takes
``REF_KERNEL_S``.  The raw wall times are kept in the result file.
"""

from __future__ import annotations

import math
import statistics
import time

# the kernel's time on the 2-CPU x86_64 host the benchmark was built on,
# in one of its faster stretches; it only fixes the unit
REF_KERNEL_S = 0.0043
KERNEL_REPS = 3
KERNEL_MATRICES = 200
KERNEL_LOOP = 15000
# kernel timings on each side of a check that set its speed; the host's
# speed moves within a second, and wider windows (2, 3, 5, 8 timings a
# side, tried on cone and contacts) spread the tail more between seeds
WINDOW = 1

_matrices: list = []


def kernel_seconds() -> float:
    """Best of KERNEL_REPS timings of the kernel, in wall seconds.

    The kernel mixes what the checks spend their time on: small dense
    LAPACK calls through numpy (``eigh`` of 6 x 6 complex Hermitian
    matrices) and interpreted float arithmetic.
    """
    import numpy as np

    if not _matrices:
        rng = np.random.default_rng(12345)
        for _ in range(KERNEL_MATRICES):
            m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            _matrices.append(m + m.conj().T)
    best = math.inf
    for _ in range(KERNEL_REPS):
        t0 = time.perf_counter()
        for m in _matrices:
            np.linalg.eigh(m)
        acc = 0.0
        for i in range(KERNEL_LOOP):
            acc += (i * 0.5) ** 0.5
        best = min(best, time.perf_counter() - t0)
    return best


def around(kernel: list[float], i: int) -> float:
    """Kernel time for the check between timings i and i + 1: the
    median of the WINDOW timings on each side of it (with one a side,
    their mean)."""
    return statistics.median(kernel[max(0, i + 1 - WINDOW): i + 1 + WINDOW])


def to_reference(seconds: float, kernel_s: float) -> float:
    return seconds * REF_KERNEL_S / kernel_s
