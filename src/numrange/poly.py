"""Homogeneous multivariate polynomials over exact rationals or floats.

Supplies the characteristic form of a Hermitian pencil, evaluation and
differentiation, restriction to lines, a Monte-Carlo hyperbolicity
check, and Taylor multiplicity at a point of the zero set.  Exact
arithmetic uses Fraction coefficients built through Gaussian-rational
intermediates; everything else is complex floats.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from numrange.linalg import (
    EXACT,
    FLOAT,
    GaussianRational,
    MatrixPencil,
    NonHermitianInput,
    OutOfFloatRange,
    as_rng,
    parse_rational,
    rational_str,
)

# Leibniz expansion bound for the exact characteristic form.
EXACT_CHARPOLY_MAX_DIM = 6
# |Im root| <= REAL_ROOT_TOL * (1 + max|root|) counts as real.
REAL_ROOT_TOL = 1e-7
# Witness threshold for a not_hyperbolic verdict; the band between the
# two tolerances is reported as inconclusive.
WITNESS_IMAG_TOL = 1e-6
ZERO_AT_DIRECTION_TOL = 1e-12
# Relative floor under which a float Taylor coefficient counts as zero.
TAYLOR_ZERO_TOL = 1e-8


class PolyError(Exception):
    """Base class for errors raised by this module."""


class ArityMismatch(PolyError):
    """Point length does not match the number of variables."""


class DimensionTooLarge(PolyError):
    """Exact expansion requested beyond the d <= 6 bound."""


class ZeroAtDirection(PolyError):
    """Polynomial vanishes at the proposed hyperbolicity direction."""


class NotOnVariety(PolyError):
    """Multiplicity requested at a point where f does not vanish."""


class MultiPoly:
    """Sparse homogeneous polynomial: exponent tuple -> coefficient.

    Coefficients are Fraction in the exact domain, float otherwise.
    Instances are immutable; scale returns a new object.  The zero
    polynomial keeps its nominal degree with an empty term map.
    """

    # _float caches an exact polynomial's to_float(); _float_form and
    # _taylor hold a float polynomial's compiled arrays (see _float_form
    # and _taylor_table); each is set once
    __slots__ = ("nvars", "degree", "terms", "domain", "_float", "_float_form", "_taylor")

    def __init__(self, nvars: int, degree: int, terms: dict, domain: str):
        clean = {}
        for exp, c in terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars:
                raise ArityMismatch(f"exponent {exp} has arity {len(exp)}, not {nvars}")
            if sum(exp) != degree:
                raise ValueError(f"exponent {exp} breaks homogeneity of degree {degree}")
            if domain == EXACT:
                c = Fraction(c)
                if c == 0:
                    continue
            else:
                c = float(c)
                if c == 0.0:
                    continue
            clean[exp] = c
        object.__setattr__(self, "nvars", int(nvars))
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_float", None)
        object.__setattr__(self, "_float_form", None)
        object.__setattr__(self, "_taylor", None)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def scale(self, c) -> "MultiPoly":
        return MultiPoly(
            self.nvars,
            self.degree,
            {e: v * c for e, v in self.terms.items()},
            self.domain,
        )

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.degree == other.degree
            and self.domain == other.domain
            and self.terms == other.terms
        )

    # -- conversions -------------------------------------------------------

    def to_float(self) -> "MultiPoly":
        if self.domain == FLOAT:
            return self
        if self._float is None:
            try:
                terms = {e: float(c) for e, c in self.terms.items()}
            except OverflowError as exc:
                raise OutOfFloatRange(f"exact coefficient beyond the float range: {exc}") from exc
            object.__setattr__(self, "_float", MultiPoly(self.nvars, self.degree, terms, FLOAT))
        return self._float

    def coeff_scale(self) -> float:
        if not self.terms:
            return 0.0
        return max(abs(float(c)) for c in self.terms.values())

    def __call__(self, x):
        return evaluate(self, x)

    def __str__(self):
        return poly_pretty(self)

    def __repr__(self):
        return (
            f"MultiPoly(nvars={self.nvars}, degree={self.degree}, "
            f"terms={len(self.terms)}, domain={self.domain!r})"
        )


def monomial(nvars: int, exp, coeff=1, domain: str = EXACT) -> MultiPoly:
    exp = tuple(exp)
    return MultiPoly(nvars, sum(exp), {exp: coeff}, domain)


def evaluate(f: MultiPoly, x):
    """Value of f at a point; exact for Fraction input in the exact domain.

    Accepts real or complex coordinates in the float domain.
    """
    x = list(x)
    if len(x) != f.nvars:
        raise ArityMismatch(f"point arity {len(x)} vs nvars {f.nvars}")
    # cache powers per variable up to the largest exponent used
    maxe = [0] * f.nvars
    for exp in f.terms:
        for j, e in enumerate(exp):
            if e > maxe[j]:
                maxe[j] = e
    pows = []
    for j in range(f.nvars):
        col = [1]
        for _ in range(maxe[j]):
            col.append(col[-1] * x[j])
        pows.append(col)
    total = 0
    for exp, c in f.terms.items():
        v = c
        for j, e in enumerate(exp):
            if e:
                v = v * pows[j][e]
        total = total + v
    return total


def partial_derivative(f: MultiPoly, j: int) -> MultiPoly:
    terms = {}
    for exp, c in f.terms.items():
        if exp[j] == 0:
            continue
        newexp = exp[:j] + (exp[j] - 1,) + exp[j + 1 :]
        terms[newexp] = terms.get(newexp, 0) + c * exp[j]
    return MultiPoly(f.nvars, max(f.degree - 1, 0), terms, f.domain)


def gradient(f: MultiPoly, x):
    """All first partial derivatives of f evaluated at x.

    A float form evaluates the partial derivatives cached on it.
    """
    x = list(x)
    if len(x) != f.nvars:
        raise ArityMismatch(f"point arity {len(x)} vs nvars {f.nvars}")
    if f.domain == FLOAT:
        partials = _float_form(f)[2]
    else:
        partials = [partial_derivative(f, j) for j in range(f.nvars)]
    return [evaluate(p, x) for p in partials]


def _float_form(f: MultiPoly):
    """(exps, coeffs, partials, grad_exps, grad_coeffs) of a float form.

    exps is the (T, nvars) exponent matrix of f's terms and coeffs the
    matching column.  partials are the nvars partial derivatives.  The
    gradient at x is monomial_values(x, grad_exps) @ grad_coeffs, whose
    column j holds d/dx_j.  Built on first use and kept in f's own slot,
    so it lives exactly as long as f.
    """
    form = f._float_form
    if form is None:
        nv = f.nvars
        exps = np.array(list(f.terms), dtype=np.int64).reshape(len(f.terms), nv)
        coeffs = np.array(list(f.terms.values()), dtype=float)
        partials = tuple(partial_derivative(f, j) for j in range(nv))
        rows = {}
        for p in partials:
            for e in p.terms:
                rows.setdefault(e, len(rows))
        grad_exps = np.array(list(rows), dtype=np.int64).reshape(len(rows), nv)
        grad_coeffs = np.zeros((len(rows), nv))
        for j, p in enumerate(partials):
            for e, c in p.terms.items():
                grad_coeffs[rows[e], j] = c
        form = (exps, coeffs, partials, grad_exps, grad_coeffs)
        object.__setattr__(f, "_float_form", form)
    return form


def monomial_values(points, exponents) -> np.ndarray:
    """x^e for each row x of points (m, nvars) and row e of exponents.

    Returns shape (m, T) for T exponent rows.  Powers are built per
    variable by repeated multiplication, as evaluate builds them.
    """
    x = np.asarray(points)
    exps = np.asarray(exponents, dtype=np.int64)
    out = np.ones((len(x), len(exps)), dtype=np.result_type(x, float))
    for j in range(x.shape[1]):
        top = int(exps[:, j].max(initial=0))
        if top == 0:
            continue
        pows = np.ones((len(x), top + 1), dtype=out.dtype)
        for e in range(1, top + 1):
            pows[:, e] = pows[:, e - 1] * x[:, j]
        out *= pows[:, exps[:, j]]
    return out


def _point_rows(f: MultiPoly, points) -> np.ndarray:
    x = np.asarray(points)
    if x.ndim != 2 or x.shape[1] != f.nvars:
        raise ArityMismatch(f"points of shape {x.shape} vs nvars {f.nvars}")
    return x


def batched_evaluate(f: MultiPoly, points) -> np.ndarray:
    """evaluate at each row of an (m, nvars) float or complex array.

    Returns shape (m,).  The terms are summed in another order than
    evaluate sums them, so the two agree to roundoff, not bit for bit.
    """
    x = _point_rows(f, points)
    exps, coeffs = _float_form(f.to_float())[:2]
    return monomial_values(x, exps) @ coeffs


def batched_gradient(f: MultiPoly, points) -> np.ndarray:
    """gradient at each row of an (m, nvars) array: shape (m, nvars)."""
    x = _point_rows(f, points)
    grad_exps, grad_coeffs = _float_form(f.to_float())[3:]
    return monomial_values(x, grad_exps) @ grad_coeffs


def restrict_to_line(f: MultiPoly, base, dir):
    """Coefficients [c_0, ..., c_deg] of t -> f(base + t*dir).

    Exact when f and the points are rational; otherwise float/complex.
    `base`, `dir` or both may also be nvars numpy columns of shape (m,),
    one line per row: each c_k is then a column of shape (m,), computed
    elementwise by the same arithmetic as m scalar calls.  Every row's
    direction must be nonzero.

    Each term is expanded one variable at a time, convolving with the
    binomial expansion of (base_j + t*dir_j)^e.  Where dir_j is a scalar
    zero (a coordinate axis moves one variable), that expansion stops at
    its t^0 term: the full expansion would only add signed zero products
    to sums that start from 0, so for finite input every coefficient is
    the same value, bit for bit, and every nonzero product is formed in
    the same order.  A power of t that no term reaches is a zero of
    c_0's kind and shape: a zero column for column input, an exact zero
    for exact input.
    """
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
    top = 0
    # per-variable binomial expansions of (base_j + t*dir_j)^e, cached
    cache = {}

    def var_power(j, e):
        key = (j, e)
        got = cache.get(key)
        if got is None:
            b, d = base[j], dir[j]
            still = not isinstance(d, np.ndarray) and d == 0
            got = [
                math.comb(e, k) * b ** (e - k) * d**k for k in range(1 if still else e + 1)
            ]
            cache[key] = got
        return got

    for exp, c in f.terms.items():
        u = [c]
        for j, e in enumerate(exp):
            if e == 0:
                continue
            vp = var_power(j, e)
            if len(vp) == 1:
                # the line leaves x_j fixed: every sum has one product
                u = [v * vp[0] for v in u]
                continue
            u = [
                sum(u[i] * vp[k - i] for i in range(max(0, k - e), min(len(u), k + 1)))
                for k in range(len(u) + e)
            ]
        for k, v in enumerate(u):
            out[k] = out[k] + v
        top = max(top, len(u) - 1)
    if f.terms and top < deg:
        out[top + 1 :] = [0 + out[0] * 0 for _ in range(top, deg)]
    return out


def roots_univariate(coeffs) -> np.ndarray:
    """All complex roots of c_0 + c_1 t + ... via the companion matrix.

    Leading coefficients tiny relative to the largest are trimmed first;
    numpy balances the companion matrix before its eigenvalue run.
    """
    c = [complex(v) for v in coeffs]
    scale = max((abs(v) for v in c), default=0.0)
    if scale == 0.0:
        return np.array([], dtype=complex)
    while c and abs(c[-1]) <= 1e-13 * scale:
        c.pop()
    if len(c) <= 1:
        return np.array([], dtype=complex)
    arr = np.array(c[::-1], dtype=complex)
    if np.allclose(arr.imag, 0.0):
        arr = arr.real
    return np.atleast_1d(np.roots(arr))


def batched_roots(coeffs) -> list:
    """roots_univariate for each of m lines at once.

    coeffs is [c_0, ..., c_deg] as restrict_to_line returns it for a
    batch, each c_k a column of shape (m,); row i holds line i.  Finite
    rows that keep their full degree after the trim, with a nonzero
    constant term, share one eigvals call over their stacked companion
    matrices: the matrices np.roots builds for them.  As there, a row
    whose imaginary parts are all within 1e-8 of zero is solved as a
    real row, and any other row as a complex one, in a second stack.
    Every remaining row goes through roots_univariate.
    """
    c = np.column_stack(coeffs)
    out = [None] * len(c)
    deg = c.shape[1] - 1
    if deg >= 1:
        mag = np.abs(c)
        full = (
            np.isfinite(c).all(axis=1)
            & (mag[:, -1] > 1e-13 * mag.max(axis=1))
            & (c[:, 0] != 0)
        )
        real = (np.abs(c.imag) <= 1e-8).all(axis=1)
        for rows, part in ((full & real, c.real), (full & ~real, c)):
            idx = np.flatnonzero(rows)
            if not len(idx):
                continue
            p = part[idx][:, ::-1]
            comp = np.zeros((len(idx), deg, deg), dtype=p.dtype)
            comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
            comp[:, 0, :] = -p[:, 1:] / p[:, :1]
            for k, w in zip(idx, np.linalg.eigvals(comp)):
                out[k] = w
    return [roots_univariate(row) if r is None else r for row, r in zip(c, out)]


# ---------------------------------------------------------------------------
# characteristic polynomial of a pencil


def _linear_entry_forms(pencil: MatrixPencil):
    """entry (j,k) of x_0 I + sum x_i A_i as {var index: coefficient}."""
    d, n = pencil.d, pencil.n
    exact = pencil.domain == EXACT
    forms = [[{} for _ in range(d)] for _ in range(d)]
    for j in range(d):
        for k in range(d):
            form = forms[j][k]
            if j == k:
                form[0] = GaussianRational(1) if exact else (1.0 + 0j)
            for i, m in enumerate(pencil.matrices):
                v = m.data[j][k] if exact else complex(m.data[j, k])
                if (exact and v) or (not exact and v != 0):
                    form[i + 1] = v
    return forms


def _det_by_column_subsets(forms, d: int, nvars: int, exact: bool):
    """Determinant of a matrix of linear forms, expanding along rows
    with shared minors over column subsets (the full Leibniz sum)."""
    one = GaussianRational(1) if exact else (1.0 + 0j)
    full = (1 << d) - 1
    minors = {0: {(0,) * nvars: one}}
    for mask in sorted(range(1, full + 1), key=lambda m: m.bit_count()):
        r = mask.bit_count() - 1
        acc = {}
        sign = -1 if r & 1 else 1
        for j in range(d):
            bit = 1 << j
            if not mask & bit:
                continue
            sub = minors[mask ^ bit]
            form = forms[r][j]
            if form:
                for exp, c in sub.items():
                    for var, a in form.items():
                        newexp = exp[:var] + (exp[var] + 1,) + exp[var + 1 :]
                        inc = c * a if sign > 0 else -(c * a)
                        prev = acc.get(newexp)
                        acc[newexp] = inc if prev is None else prev + inc
            sign = -sign
        minors[mask] = acc
    return minors[full]


def charpoly(pencil: MatrixPencil) -> MultiPoly:
    """det(x_0 I + x_1 A_1 + ... + x_n A_n) as a homogeneous MultiPoly.

    Exact pencils (d <= 6) expand in the Gaussian-rational ring and must
    come out with identically real coefficients.  Float pencils expand
    the same way up to d = 6 and fall back to interpolation on an
    integer grid beyond that.
    """
    d, n = pencil.d, pencil.n
    nvars = n + 1
    if pencil.domain == EXACT:
        if d > EXACT_CHARPOLY_MAX_DIM:
            raise DimensionTooLarge(f"exact expansion capped at d = {EXACT_CHARPOLY_MAX_DIM}, got {d}")
        forms = _linear_entry_forms(pencil)
        raw = _det_by_column_subsets(forms, d, nvars, exact=True)
        terms = {}
        for exp, c in raw.items():
            if not c.is_real():
                raise NonHermitianInput(
                    f"coefficient of {exp} has imaginary part {c.im}"
                )
            if c.re != 0:
                terms[exp] = c.re
        return MultiPoly(nvars, d, terms, EXACT)
    if d <= EXACT_CHARPOLY_MAX_DIM:
        forms = _linear_entry_forms(pencil)
        raw = _det_by_column_subsets(forms, d, nvars, exact=False)
        scale = max((abs(c) for c in raw.values()), default=0.0)
        terms = {}
        for exp, c in raw.items():
            if abs(c.imag) > 1e-10 * max(scale, 1e-300):
                raise NonHermitianInput(
                    f"coefficient of {exp} has imaginary part {c.imag:.3e}"
                )
            if abs(c) > 1e-12 * scale:
                terms[exp] = c.real
        return MultiPoly(nvars, d, terms, FLOAT)
    return _charpoly_interpolated(pencil)


def _charpoly_interpolated(pencil: MatrixPencil) -> MultiPoly:
    """Fit the degree-d coefficients from determinant values on an
    integer grid; float pencils with d > 6 only."""
    d, n = pencil.d, pencil.n
    nvars = n + 1
    exps = sorted(homogeneous_exponents(nvars, d), reverse=True)
    rng = np.random.default_rng(20240 + 16 * d + n)
    rows = 3 * len(exps)
    pts = rng.integers(-3, 4, size=(rows, nvars)).astype(float)
    pts[np.all(pts == 0, axis=1)] = 1.0
    stack = pencil.stack()
    A = monomial_values(pts, exps)
    b = np.empty(rows)
    eye = np.eye(d)
    for s in range(rows):
        x = pts[s]
        M = x[0] * eye + np.tensordot(x[1:], stack, axes=1)
        b[s] = float(np.real(np.linalg.det(M)))
    coeffs, *_ = np.linalg.lstsq(A, b, rcond=None)
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    terms = {
        exp: float(c)
        for exp, c in zip(exps, coeffs)
        if abs(c) > 1e-9 * scale
    }
    return MultiPoly(nvars, d, terms, FLOAT)


def homogeneous_exponents(nvars: int, degree: int):
    """Every exponent tuple of nvars entries summing to degree, in
    descending lexicographic order."""
    if nvars == 0:
        if degree == 0:
            yield ()
        return
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in homogeneous_exponents(nvars - 1, degree - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# hyperbolicity


@dataclass(frozen=True)
class HyperbolicityCertificate:
    direction: tuple
    verdict: str  # hyperbolic | not_hyperbolic | inconclusive
    witness: tuple | None
    samples_checked: int


def hyperbolicity_check(
    f: MultiPoly, e, trials: int = 200, rng=None
) -> HyperbolicityCertificate:
    """Monte-Carlo reality test of t -> f(te - a) along random points a.

    All `trials` standard normal points a are drawn as one block, and
    their lines are restricted and solved in one batch, so the generator
    advances by `trials` draws whatever the verdict.  A hyperbolic
    verdict means no counterexample was found among them with f(e) > 0.
    A clear complex root (imaginary part beyond 1e-6 of the root scale)
    yields not_hyperbolic, with the first such a as the witness and its
    1-based index as samples_checked; otherwise the gray band between
    the real-root tolerance and the witness threshold, or a negative
    sign at e, yields inconclusive.  The verdict is array work: one
    masked reduction over the concatenated roots gives each line with
    roots its max |root| and max |Im root|, and lines without roots are
    skipped.
    """
    e = [float(v) for v in e]
    if len(e) != f.nvars:
        raise ArityMismatch(f"direction arity {len(e)} vs nvars {f.nvars}")
    ff = f.to_float()
    scale = ff.coeff_scale()
    pe = evaluate(ff, e)
    if abs(pe) <= ZERO_AT_DIRECTION_TOL * max(scale, 1e-300):
        raise ZeroAtDirection(f"f(e) = {pe:.3e} below tolerance")
    if pe < 0:
        # sign convention not met; the caller should flip f
        return HyperbolicityCertificate(tuple(e), "inconclusive", None, 0)
    points = as_rng(rng).standard_normal((trials, f.nvars))
    roots = batched_roots(restrict_to_line(ff, list(-points.T), e))
    sizes = np.array([len(r) for r in roots], dtype=np.intp)
    rows = np.flatnonzero(sizes)
    if not len(rows):
        return HyperbolicityCertificate(tuple(e), "hyperbolic", None, trials)
    flat = np.concatenate(roots)
    starts = np.cumsum(sizes)[rows] - sizes[rows]
    rscale = 1.0 + np.maximum.reduceat(np.abs(flat), starts)
    worst = np.maximum.reduceat(np.abs(flat.imag), starts)
    witnesses = rows[worst > WITNESS_IMAG_TOL * rscale]
    if len(witnesses):
        k = int(witnesses[0])
        return HyperbolicityCertificate(
            tuple(e), "not_hyperbolic", tuple(float(v) for v in points[k]), k + 1
        )
    verdict = "inconclusive" if (worst > REAL_ROOT_TOL * rscale).any() else "hyperbolic"
    return HyperbolicityCertificate(tuple(e), verdict, None, trials)


# ---------------------------------------------------------------------------
# multiplicity


def _taylor_shift(f: MultiPoly, x):
    """Terms of y -> f(x + y) grouped as {exponent: coefficient}, expanded
    term by term: the exact path of multiplicity_at."""
    shifted = {}
    for exp, c in f.terms.items():
        # expand prod_j (x_j + y_j)^(e_j)
        factors = []
        for j, e in enumerate(exp):
            if e == 0:
                factors.append([(0, 1)])
                continue
            col = []
            for k in range(e + 1):
                col.append((k, math.comb(e, k) * x[j] ** (e - k)))
            factors.append(col)
        for combo in itertools.product(*factors):
            yexp = tuple(k for k, _ in combo)
            v = c
            for _, w in combo:
                v = v * w
            shifted[yexp] = shifted.get(yexp, 0) + v
    return shifted


def _taylor_table(f: MultiPoly):
    """(shift_exps, weights, k_index, k_exps, k_orders) of a float form.

    One row per pair of a term exponent e and a sub-exponent k <= e, so
    that f(x + y) is the sum over rows of weight * x^(e - k) * y^k:
    shift_exps holds e - k, weights c_e * prod_j C(e_j, k_j), and k_index
    the row of k in k_exps, the distinct sub-exponents, whose total
    degrees |k| are k_orders.  Built on the first multiplicity call and
    kept in f's own slot, apart from _float_form, which callers that
    never ask for a multiplicity compile without it.
    """
    table = f._taylor
    if table is None:
        exps, coeffs = _float_form(f)[:2]
        term = np.arange(len(exps))
        ks = np.zeros((len(exps), 0), dtype=np.int64)
        for j in range(f.nvars):
            # each row splits into one row per k_j = 0..e_j
            counts = exps[term, j] + 1
            first = np.repeat(np.cumsum(counts) - counts, counts)
            ks = np.column_stack([np.repeat(ks, counts, axis=0), np.arange(counts.sum()) - first])
            term = np.repeat(term, counts)
        top = f.degree + 1
        binom = np.array([[math.comb(a, b) for b in range(top)] for a in range(top)], dtype=float)
        weights = coeffs[term] * np.prod(binom[exps[term], ks], axis=1)
        # number the distinct k: sort the rows, and a new k starts wherever
        # a row differs from the one before
        order = np.lexsort(ks.T[::-1])
        new = np.ones(len(ks), dtype=bool)
        new[1:] = (np.diff(ks[order], axis=0) != 0).any(axis=1)
        k_index = np.empty(len(ks), dtype=np.int64)
        k_index[order] = np.cumsum(new) - 1
        k_exps = ks[order][new]
        table = (exps[term] - ks, weights, k_index, k_exps, k_exps.sum(axis=1))
        object.__setattr__(f, "_taylor", table)
    return table


def _grouped_sums(values, index, size: int) -> np.ndarray:
    """Row-wise sums of an (m, R) array over the groups index (R,) assigns
    in 0..size-1: shape (m, size), one bincount for all rows."""
    m = len(values)
    flat = (index + size * np.arange(m)[:, None]).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=m * size).reshape(m, size)


def _taylor_coeffs(f: MultiPoly, points) -> np.ndarray:
    """Coefficient of y^k in f(x + y), for each row x of a real (m, nvars)
    array and each row k of the table's k_exps: shape (m, len(k_exps))."""
    shift_exps, weights, k_index, k_exps, _ = _taylor_table(f)
    values = monomial_values(points, shift_exps) * weights
    return _grouped_sums(values, k_index, len(k_exps))


def _unit_point(x) -> list:
    """x / |x| as floats, or x itself at the origin."""
    norm = math.sqrt(sum(float(v) ** 2 for v in x))
    return [float(v) / norm for v in x] if norm > 0.0 else list(x)


def _float_order(f: MultiPoly, shifted) -> int:
    """The least |k| whose Taylor coefficient exceeds TAYLOR_ZERO_TOL
    times the largest one."""
    k_orders = _taylor_table(f)[4]
    mag = np.abs(shifted)
    big = mag > TAYLOR_ZERO_TOL * max(float(mag.max(initial=0.0)), 1e-300)
    if not big.any():
        raise NotOnVariety("all Taylor coefficients below tolerance")
    order = int(k_orders[big].min())
    if order == 0:
        value = float(shifted[np.flatnonzero(k_orders == 0)[0]])
        raise NotOnVariety(f"f(x) = {value:.3e} exceeds tolerance")
    return order


def multiplicity_at(f: MultiPoly, x) -> int:
    """Order of vanishing of f at x: the least total degree carrying a
    nonzero Taylor coefficient after recentering at x.

    Float forms take real points and read their Taylor coefficients off
    the form's Taylor table (_taylor_table), built on the first call.
    They are tested at x / |x| (x = 0 as given): f is homogeneous, so
    the order is the same along the ray, while the relative zero test
    would read the shrinking low-order coefficients near the origin as
    zeros.  Exact forms expand term by term in exact arithmetic.
    """
    x = list(x)
    if len(x) != f.nvars:
        raise ArityMismatch(f"point arity {len(x)} vs nvars {f.nvars}")
    if f.domain != EXACT:
        return _float_order(f, _taylor_coeffs(f, np.array([_unit_point(x)], dtype=float))[0])
    shifted = _taylor_shift(f, x)
    orders = sorted(sum(e) for e, c in shifted.items() if c != 0)
    if not orders:
        raise NotOnVariety("f is the zero polynomial")
    if orders[0] == 0:
        raise NotOnVariety(f"f(x) = {shifted[(0,) * f.nvars]} is not 0")
    return orders[0]


def _float_lemma(f: MultiPoly, e, x) -> tuple:
    """(order at x, restriction along e, restriction along e - x) of a
    float form, from one table evaluation at x / |x| and at x.

    f(x + t d) = sum_k s_k(x) d^k t^|k|, so the restriction's
    coefficient of t^j sums s_k(x) d^k over |k| = j.  The restrictions
    are taken at x as given, as restrict_to_line takes them.
    """
    if len(x) != f.nvars:
        raise ArityMismatch(f"point arity {len(x)} vs nvars {f.nvars}")
    x = np.array(x, dtype=float)
    at_unit, at_x = _taylor_coeffs(f, np.array([_unit_point(x), x]))
    order = _float_order(f, at_unit)
    if len(e) != f.nvars:
        raise ArityMismatch("base/dir arity mismatch")
    e = np.array(e, dtype=float)
    dirs = np.array([e, e - x])
    if (dirs == 0).all(axis=1).any():
        raise ValueError("direction must be nonzero")
    k_exps, k_orders = _taylor_table(f)[3:]
    lines = _grouped_sums(at_x * monomial_values(dirs, k_exps), k_orders, f.degree + 1)
    return order, lines[0], lines[1]


def _root_multiplicity_at_zero(coeffs, domain: str) -> int:
    if domain == EXACT:
        m = 0
        for c in coeffs:
            if c == 0:
                m += 1
            else:
                break
        return m
    vals = [abs(complex(c)) for c in coeffs]
    scale = max(vals, default=0.0)
    tol = TAYLOR_ZERO_TOL * max(scale, 1e-300)
    m = 0
    for v in vals:
        if v <= tol:
            m += 1
        else:
            break
    return m


@dataclass(frozen=True)
class MultiplicityReport:
    point_multiplicity: int
    along_direction: int
    along_direction_minus_point: int
    agree: bool


def check_multiplicity_lemma(f: MultiPoly, e, x) -> MultiplicityReport:
    """Compare the Taylor order at x with the t=0 root multiplicities of
    f(x + t e) and f(x + t (e - x)); they must coincide for hyperbolic f.

    A float form reads all three from its Taylor table (_float_lemma),
    with real e and x; an exact form expands the order and both
    restrictions term by term (multiplicity_at, restrict_to_line).
    """
    e = list(e)
    x = list(x)
    if f.domain == EXACT:
        m = multiplicity_at(f, x)
        r1 = restrict_to_line(f, x, e)
        r2 = restrict_to_line(f, x, [a - b for a, b in zip(e, x)])
    else:
        m, r1, r2 = _float_lemma(f, e, x)
    m1 = _root_multiplicity_at_zero(r1, f.domain)
    m2 = _root_multiplicity_at_zero(r2, f.domain)
    return MultiplicityReport(m, m1, m2, m == m1 == m2)


# ---------------------------------------------------------------------------
# serialization


def poly_pretty(f: MultiPoly) -> str:
    """Human-readable one-liner, terms in descending exponent order.

    "x0^3 + x0^2*x3 - 2*x0*x1^2"; unit coefficients are suppressed in
    front of variables, rationals print as p/q, floats at 12 digits.
    """
    pieces = []
    for exp in sorted(f.terms, reverse=True):
        c = f.terms[exp]
        neg = c < 0
        mag = rational_str(abs(c)) if f.domain == EXACT else f"{abs(c):.12g}"
        vars_part = "*".join(
            f"x{j}" if p == 1 else f"x{j}^{p}"
            for j, p in enumerate(exp)
            if p > 0
        )
        if not vars_part:
            body = mag
        elif mag == "1":
            body = vars_part
        else:
            body = f"{mag}*{vars_part}"
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces) if pieces else "0"


def poly_to_json(f: MultiPoly) -> str:
    terms = []
    for exp in sorted(f.terms, reverse=True):
        c = f.terms[exp]
        coeff = rational_str(c) if f.domain == EXACT else float(c)
        terms.append({"exp": list(exp), "coeff": coeff})
    doc = {
        "vars": [f"x{j}" for j in range(f.nvars)],
        "degree": f.degree,
        "terms": terms,
    }
    return json.dumps(doc, sort_keys=True)


def poly_from_json(text) -> MultiPoly:
    """Parse the polynomial schema; exact when every coefficient is a
    rational string or an integer, floats otherwise.  Booleans,
    non-finite coefficients and negative or non-integer exponents are
    rejected with ValueError."""
    doc = json.loads(text) if isinstance(text, str) else text
    try:
        nvars = len(doc["vars"])
        degree = doc["degree"]
        raw = doc["terms"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed polynomial document: {exc}") from exc
    if not _is_count(degree):
        raise ValueError(f"degree {degree!r} is not a nonnegative integer")
    if not isinstance(raw, list) or not all(
        isinstance(t, dict) and isinstance(t.get("exp"), list) for t in raw
    ):
        raise ValueError("terms is not a list of {exp, coeff} objects")
    for t in raw:
        c = t.get("coeff")
        if isinstance(c, bool) or not isinstance(c, (str, int, float)):
            raise ValueError(f"coefficient {c!r} is not a number or a rational string")
        if not all(_is_count(v) for v in t["exp"]):
            raise ValueError(f"exponent {t['exp']!r} is not a list of nonnegative integers")
    exact = all(isinstance(t["coeff"], (str, int)) for t in raw)
    terms = {}
    for t in raw:
        exp = tuple(t["exp"])
        if exact:
            c = parse_rational(t["coeff"])
        else:
            try:
                c = float(t["coeff"])
            except OverflowError as exc:
                raise ValueError(f"coefficient out of float range: {exc}") from exc
        terms[exp] = terms.get(exp, 0) + c
    if not exact and not all(math.isfinite(c) for c in terms.values()):
        raise ValueError("a coefficient is not finite")
    return MultiPoly(nvars, degree, terms, EXACT if exact else FLOAT)


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0
