"""Scalar cone checks: the tests' reference for the Taylor table and for
the determinant pencil match.

`multiplicity_at` and `check_multiplicity_lemma` are the float paths
that expanded f(x + y) term by term and restricted f to each line with
one scalar `restrict_to_line` call, before float forms read both off
their Taylor table.  `check_pencil_match` is the float comparison that
expanded `charpoly(pencil)` a second time and evaluated both forms
point by point, before the determinants of the pencil replaced it.
`restrict_to_line` is the full binomial expansion of every variable,
before variables that a line does not move were expanded to t^0 only.
"""

import math

import numpy as np

from numrange.cones import PENCIL_MATCH_TOL, ConeError
from numrange.poly import (
    TAYLOR_ZERO_TOL,
    ArityMismatch,
    MultiplicityReport,
    NotOnVariety,
    _root_multiplicity_at_zero,
    _taylor_shift,
    charpoly,
    evaluate,
)


def restrict_to_line(f, base, dir):
    """Coefficients [c_0, ..., c_deg] of t -> f(base + t*dir), expanding
    (base_j + t*dir_j)^e in full for every variable of every term."""
    base = list(base)
    dir = list(dir)
    if len(base) != f.nvars or len(dir) != f.nvars:
        raise ArityMismatch("base/dir arity mismatch")
    if any(isinstance(v, np.ndarray) for v in dir):
        zero = (np.stack(np.broadcast_arrays(*dir)) == 0).all(axis=0).any()
    else:
        zero = all(v == 0 for v in dir)
    if zero:
        raise ValueError("direction must be nonzero")
    deg = f.degree
    out = [0] * (deg + 1)
    cache = {}

    def var_power(j, e):
        key = (j, e)
        got = cache.get(key)
        if got is None:
            b, d = base[j], dir[j]
            got = [
                math.comb(e, k) * b ** (e - k) * d**k for k in range(e + 1)
            ]
            cache[key] = got
        return got

    for exp, c in f.terms.items():
        u = [c]
        for j, e in enumerate(exp):
            if e == 0:
                continue
            vp = var_power(j, e)
            u = [
                sum(u[i] * vp[k - i] for i in range(max(0, k - e), min(len(u), k + 1)))
                for k in range(len(u) + e)
            ]
        for k, v in enumerate(u):
            out[k] = out[k] + v
    return out


def multiplicity_at(f, x) -> int:
    """Order of vanishing of a float form at x, tested at x / |x|."""
    x = list(x)
    if len(x) != f.nvars:
        raise ArityMismatch(f"point arity {len(x)} vs nvars {f.nvars}")
    norm = math.sqrt(sum(float(v) ** 2 for v in x))
    if norm > 0.0:
        x = [float(v) / norm for v in x]
    shifted = _taylor_shift(f, x)
    scale = max((abs(float(c)) for c in shifted.values()), default=0.0)
    tol = TAYLOR_ZERO_TOL * max(scale, 1e-300)
    orders = sorted(sum(e) for e, c in shifted.items() if abs(float(c)) > tol)
    if not orders:
        raise NotOnVariety("all Taylor coefficients below tolerance")
    if orders[0] == 0:
        raise NotOnVariety(f"f(x) = {float(shifted[(0,) * f.nvars]):.3e} exceeds tolerance")
    return orders[0]


def check_multiplicity_lemma(f, e, x) -> MultiplicityReport:
    """The lemma's three orders of a float form, by scalar expansion."""
    e = list(e)
    x = list(x)
    m = multiplicity_at(f, x)
    m1 = _root_multiplicity_at_zero(restrict_to_line(f, x, e), f.domain)
    emx = [a - b for a, b in zip(e, x)]
    m2 = _root_multiplicity_at_zero(restrict_to_line(f, x, emx), f.domain)
    return MultiplicityReport(m, m1, m2, m == m1 == m2)


def check_pencil_match(f, pencil):
    """Raise ConeError unless f matches the pencil's expanded float charpoly
    at 20 fixed points, within 1e-9 of the larger coefficient scale."""
    ff, pf = f.to_float(), charpoly(pencil).to_float()
    gen = np.random.default_rng(1234)
    scale = max(ff.coeff_scale(), pf.coeff_scale(), 1e-300)
    for _ in range(20):
        x = list(gen.uniform(-1.0, 1.0, ff.nvars))
        a, b = evaluate(ff, x), evaluate(pf, x)
        if abs(a - b) > PENCIL_MATCH_TOL * scale * (1.0 + max(abs(v) for v in x)) ** ff.degree:
            raise ConeError(f"polynomial disagrees with the pencil's charpoly at {x}: {a} vs {b}")
