"""Line polish and tangent functionals: the tests' reference for the
masked polish and the array functionals.

`polish_on_lines` is the damped Newton polish that copied the live rows
out by fancy indexing at every step and tried its halvings one at a
time, halving the pending steps in place, before the masked polish
evaluated the whole halving ladder at once; `halvings` is that ladder.
`tangent_functionals` is the per-point loop that divided each gradient
row by its norm, before the rows were divided in one array operation.
"""

import numpy as np

from numrange.dual import POLISH_HALVINGS, POLISH_STEPS
from numrange.poly import batched_gradient


def horner(coeffs, t):
    # rows of coeffs are c_0, ..., c_deg; one value per row at its t
    acc = np.zeros(len(t), dtype=complex)
    for k in range(coeffs.shape[1] - 1, -1, -1):
        acc = acc * t + coeffs[:, k]
    return acc


def polish_on_lines(coeffs, t):
    """Damped Newton on each row's restriction, one halving at a time."""
    deriv = coeffs[:, 1:] * np.arange(1, coeffs.shape[1])
    t = t.copy()
    val = horner(coeffs, t)
    live = np.arange(len(t))
    for _ in range(POLISH_STEPS):
        dv = horner(deriv[live], t[live])
        moving = np.abs(dv) != 0.0
        live = live[moving]
        step = val[live] / dv[moving]
        pending = np.arange(len(live))
        for _ in range(POLISH_HALVINGS):
            rows = live[pending]
            cand = t[rows] - step[pending]
            cval = horner(coeffs[rows], cand)
            ok = np.abs(cval) <= np.abs(val[rows])
            t[rows[ok]] = cand[ok]
            val[rows[ok]] = cval[ok]
            pending = pending[~ok]
            step[pending] *= 0.5
            if not len(pending):
                break
        live = np.delete(live, pending)
        if not len(live):
            break
    return t


def halvings(step):
    """The steps polish_on_lines tries after the full one, halved in
    place once per try, as rows (POLISH_HALVINGS - 1, len(step))."""
    step = step.copy()
    pending = np.arange(len(step))
    ladder = []
    for _ in range(POLISH_HALVINGS - 1):
        step[pending] *= 0.5
        ladder.append(step.copy())
    return np.array(ladder).reshape(POLISH_HALVINGS - 1, len(step))


def tangent_functionals(f, points) -> list:
    """Unit-normalized gradients of f at the points, one row at a time."""
    if not len(points):
        return []
    x = np.asarray(points)
    if x.dtype == object:
        x = x.astype(float)
    g = batched_gradient(f, x)
    nrm = np.linalg.norm(g, axis=1)
    out = []
    for p, row, n in zip(points, g, nrm):
        if n < 1e-300:
            continue
        out.append((row if np.iscomplexobj(p) else row.real) / n)
    return out
