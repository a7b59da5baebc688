"""Pure-Python complex Jacobi iteration: the tests' independent oracle
for the package's batched LAPACK eigen kernel."""

import math

from numrange.linalg import ConvergenceFailure

# Off-diagonal Frobenius threshold for Jacobi convergence.
JACOBI_OFF_TOL = 1e-14
JACOBI_MAX_SWEEPS = 100


def jacobi_eigh(a_rows: list, d: int):
    """Cyclic complex Jacobi iteration on a list-of-lists Hermitian matrix.

    The reference solver: the package computes with `batched_eigh`, and
    the tests check that kernel against this independent iteration.
    Returns (values list, vector columns list-of-lists, sweeps used).
    Raises ConvergenceFailure after 100 full sweeps.  The input list is
    consumed destructively.
    """
    if d == 1:
        return [a_rows[0][0].real], [[1.0 + 0j]], 0
    a = a_rows
    fro2 = 0.0
    for j in range(d):
        row = a[j]
        for k in range(d):
            v = row[k]
            fro2 += v.real * v.real + v.imag * v.imag
    threshold = JACOBI_OFF_TOL * math.sqrt(fro2)
    v = [[1.0 + 0j if i == j else 0.0 + 0j for j in range(d)] for i in range(d)]
    sweeps = 0
    for sweep in range(JACOBI_MAX_SWEEPS):
        off2 = 0.0
        for p in range(d - 1):
            row = a[p]
            for q in range(p + 1, d):
                x = row[q]
                off2 += x.real * x.real + x.imag * x.imag
        if math.sqrt(2.0 * off2) <= threshold:
            sweeps = sweep
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p][q]
                m = abs(apq)
                if m <= 1e-300:
                    continue
                w = apq / m
                wc = w.conjugate()
                tau = (a[q][q].real - a[p][p].real) / (2.0 * m)
                # small-magnitude root of t^2 - 2 tau t - 1 = 0, formed
                # without cancellation for large |tau|
                if abs(tau) > 1e150:
                    t = -0.5 / tau
                else:
                    t = -math.copysign(1.0, tau) / (
                        abs(tau) + math.sqrt(1.0 + tau * tau)
                    )
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                swc = s * wc
                sw = s * w
                for i in range(d):
                    rowi = a[i]
                    aip = rowi[p]
                    aiq = rowi[q]
                    rowi[p] = c * aip + swc * aiq
                    rowi[q] = c * aiq - sw * aip
                rp = a[p]
                rq = a[q]
                for j in range(d):
                    apj = rp[j]
                    aqj = rq[j]
                    rp[j] = c * apj + sw * aqj
                    rq[j] = c * aqj - swc * apj
                # clamp roundoff drift on the zeroed pair
                rp[q] = 0.0 + 0j
                rq[p] = 0.0 + 0j
                rp[p] = complex(rp[p].real, 0.0)
                rq[q] = complex(rq[q].real, 0.0)
                for i in range(d):
                    rowi = v[i]
                    vip = rowi[p]
                    viq = rowi[q]
                    rowi[p] = c * vip + swc * viq
                    rowi[q] = c * viq - sw * vip
        else:
            continue
        break
    else:
        raise ConvergenceFailure(
            f"off-diagonal mass above threshold after {JACOBI_MAX_SWEEPS} sweeps"
        )
    values = [a[j][j].real for j in range(d)]
    return values, v, sweeps
