"""Dual hypersurfaces: exact quadric duality and numerical dual fitting.

A hyperplane tangent to the zero set of f at a regular point x is the
functional grad f(x) up to scale.  Sampling many such functionals and
solving for a homogeneous form vanishing on all of them recovers the
dual hypersurface by interpolation; no elimination theory is involved.
The centrality probe classifies singular dual points by proximity to a
traced boundary cloud.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from numrange.linalg import EXACT, FLOAT, MatrixPencil, as_rng
from numrange.poly import (
    MultiPoly,
    batched_evaluate,
    batched_gradient,
    batched_roots,
    evaluate,
    homogeneous_exponents,
    monomial_values,
    restrict_to_line,
)
from numrange.ranges import BoundaryCloud

SYMMETRY_TOL = 1e-12
DET_FLOOR = 1e-10
SAMPLE_RESIDUAL_TOL = 1e-10
# Newton polishing stalls at ~sqrt(machine eps) distance on a multiple
# root, leaving gradients of ~1e-8 * scale there; the floor must sit
# clearly above that stall level or non-reduced inputs leak through.
GRADIENT_FLOOR = 1e-6
NULLSPACE_RATIO = 1e-11
FIT_RESIDUAL_TOL = 1e-6
TRIAL_FACTOR = 100
# damped Newton along a sampling line: steps, and halvings per step
POLISH_STEPS = 12
POLISH_HALVINGS = 20


class DualError(Exception):
    pass


class SingularForm(DualError):
    """Quadric duality asked of a non-invertible form."""


class InsufficientSamples(DualError):
    """Line sampling failed to find enough regular variety points."""


class NoFormFound(DualError):
    """No degree up to the cap produced an acceptable dual form."""


@dataclass(frozen=True)
class SymmetricForm:
    """Real symmetric matrix viewed as a quadratic form."""

    dim: int
    entries: tuple
    domain: str = FLOAT

    @staticmethod
    def from_rows(rows, domain: str = FLOAT) -> "SymmetricForm":
        if domain == EXACT:
            m = tuple(tuple(Fraction(v) for v in row) for row in rows)
            dim = len(m)
            for row in m:
                if len(row) != dim:
                    raise DualError("form matrix must be square")
            for i in range(dim):
                for j in range(i):
                    if m[i][j] != m[j][i]:
                        raise DualError(f"entries ({i},{j}) and ({j},{i}) differ")
            return SymmetricForm(dim, m, EXACT)
        arr = np.asarray(rows, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DualError("form matrix must be square")
        scale = max(float(np.max(np.abs(arr))), 1.0)
        if float(np.max(np.abs(arr - arr.T))) > SYMMETRY_TOL * scale:
            raise DualError("form matrix is not symmetric")
        sym = 0.5 * (arr + arr.T)
        return SymmetricForm(arr.shape[0], tuple(tuple(float(v) for v in row) for row in sym), FLOAT)

    def as_array(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.entries])


def _fraction_inverse(m: tuple, dim: int) -> list:
    # Gauss-Jordan over the rationals; raises on exact singularity
    a = [[Fraction(m[i][j]) for j in range(dim)] + [Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for col in range(dim):
        pivot = next((r for r in range(col, dim) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularForm("exact form is singular")
        a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        a[col] = [v / pv for v in a[col]]
        for r in range(dim):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[dim:] for row in a]


def _integerize(rows: list) -> list:
    denom = 1
    for row in rows:
        for v in row:
            denom = denom * v.denominator // math.gcd(denom, v.denominator)
    scaled = [[v * denom for v in row] for row in rows]
    g = 0
    for row in scaled:
        for v in row:
            g = math.gcd(g, abs(v.numerator))
    if g > 1:
        scaled = [[v / g for v in row] for row in scaled]
    return scaled


def quadric_dual(form: SymmetricForm, integerize: bool = True) -> SymmetricForm:
    """Dual of the quadric {x : x M x = 0}: the form of M^-1.

    Exact forms are inverted over the rationals (rescaled to coprime
    integers when integerize is set, since the dual is projective).
    Float forms are inverted only while |det M| stays above 1e-10 at the
    entry scale; beyond that the quadric counts as singular and has no
    quadric dual.
    """
    if form.domain == EXACT:
        inv = _fraction_inverse(form.entries, form.dim)
        if integerize:
            inv = _integerize(inv)
        return SymmetricForm(form.dim, tuple(tuple(v for v in row) for row in inv), EXACT)
    arr = form.as_array()
    scale = max(float(np.max(np.abs(arr))), 1e-300)
    det = float(np.linalg.det(arr))
    if abs(det) <= DET_FLOOR * scale**form.dim:
        raise SingularForm(f"|det| = {abs(det):.3e} at entry scale {scale:.3e}")
    inv = np.linalg.inv(arr)
    inv = 0.5 * (inv + inv.T)
    return SymmetricForm.from_rows(inv, FLOAT)


def _poly_scales(f: MultiPoly):
    fl = f.to_float()
    return fl, fl.coeff_scale()


def _horner(coeffs, t):
    # rows of coeffs are c_0, ..., c_deg; t is one value per row, or
    # (k, rows) for k values per row
    acc = np.zeros(t.shape, dtype=complex)
    for k in range(coeffs.shape[1] - 1, -1, -1):
        np.multiply(acc, t, out=acc)
        acc += coeffs[:, k]
    return acc


def _halvings(step):
    """Rung j - 1 is step halved j times, for j = 1 .. POLISH_HALVINGS - 1.

    One halving per rung: a product by 0.5**j rounds once where j
    halvings round j times, and the two differ in the subnormals.
    """
    ladder = np.empty((POLISH_HALVINGS - 1, len(step)), dtype=complex)
    for rung in ladder:
        step = np.multiply(step, 0.5, out=rung)
    return ladder


def _polish_on_lines(coeffs, t):
    """Damped Newton on each row's restriction, all rows at once.

    Row i polishes root t[i] of c_0 + c_1 t + ... (row i of coeffs) by
    up to POLISH_STEPS steps, on full arrays under a mask of live rows.
    Each step tries the full Newton step on every live row; the rows
    whose |value| grew then try the rest of the halving ladder, the
    step halved 1 .. POLISH_HALVINGS - 1 times, in one evaluation, and
    take their first rung where |value| does not grow.  A row stops for
    good when its derivative is exactly zero or when no rung holds.
    """
    deriv = coeffs[:, 1:] * np.arange(1, coeffs.shape[1])
    t = t.copy()
    val = _horner(coeffs, t)
    live = np.ones(len(t), dtype=bool)
    for _ in range(POLISH_STEPS):
        dv = _horner(deriv, t)
        live &= dv != 0.0
        step = np.divide(val, dv, out=np.zeros_like(val), where=live)
        cand = t - step
        cval = _horner(coeffs, cand)
        size = np.abs(val)
        ok = np.abs(cval) <= size
        ok &= live
        np.copyto(t, cand, where=ok)
        np.copyto(val, cval, where=ok)
        miss = np.flatnonzero(live & ~ok)
        if len(miss):
            cands = t[miss] - _halvings(step[miss])
            cvals = _horner(coeffs[miss], cands)
            ok = np.abs(cvals) <= size[miss]
            rung = ok.argmax(axis=0)
            held = ok[rung, np.arange(len(miss))]
            rows, rung = miss[held], rung[held]
            t[rows] = cands[rung, held]
            val[rows] = cvals[rung, held]
            live[miss[~held]] = False
        if not live.any():
            break
    return t


def _regular_points(fl: MultiPoly, cscale: float, draws: np.ndarray, use_complex: bool):
    """Trial index and point of every regular point on a block of lines.

    draws is (k, 2, nv) real or (k, 4, nv) complex trials, as drawn; the
    result keeps (trial, root) order.
    """
    if use_complex:
        base = draws[:, 0] + 1j * draws[:, 1]
        direc = draws[:, 2] + 1j * draws[:, 3]
    else:
        base, direc = draws[:, 0], draws[:, 1]
    coeffs = restrict_to_line(fl, list(base.T), list(direc.T))
    roots = batched_roots(coeffs)
    trial = np.repeat(np.arange(len(draws)), [len(r) for r in roots])
    if not len(trial):
        return trial, np.empty((0, fl.nvars))
    cs = np.column_stack(coeffs).astype(complex)[trial]
    t = _polish_on_lines(cs, np.concatenate(roots).astype(complex))
    deg = fl.degree
    # multiple root on the line: the restriction's derivative vanishes
    # too, and the point cannot be certified regular
    dv = np.sum(cs[:, 1:] * np.arange(1, deg + 1) * t[:, None] ** np.arange(deg), axis=1)
    top = np.abs(cs).max(axis=1)
    keep = np.abs(dv) > 1e-6 * top * (1.0 + np.abs(t)) ** max(deg - 1, 0)
    if not use_complex:
        keep &= np.abs(t.imag) <= 1e-9 * (1.0 + np.abs(t))
    trial, t = trial[keep], t[keep]
    x = base[trial] + t[:, None] * direc[trial]
    if not use_complex:
        x = x.real
    nrm = np.linalg.norm(x, axis=1)
    keep = nrm >= 1e-12
    trial, x = trial[keep], x[keep] / nrm[keep, None]
    lift = 1.0 + np.abs(x).max(axis=1)
    keep = np.abs(batched_evaluate(fl, x)) <= SAMPLE_RESIDUAL_TOL * cscale * lift**deg
    trial, x, lift = trial[keep], x[keep], lift[keep]
    gscale = cscale * lift ** max(deg - 1, 0)
    keep = np.linalg.norm(batched_gradient(fl, x), axis=1) > GRADIENT_FLOOR * gscale
    return trial[keep], x[keep]


def sample_variety_points(f: MultiPoly, count: int, rng=None, force_complex: bool = False) -> list:
    """Regular points of the zero set of f, found by random line cuts.

    Each trial intersects the variety with a random line (real lines
    first, complex lines once the real budget is half spent), polishes
    the roots by damped Newton along the line, and keeps points where
    |f| <= 1e-10 and the gradient is bounded away from zero at the
    local coefficient scale.  Points are returned unit-normalized, in
    (trial, root) order.

    Trials are drawn and solved in blocks that grow geometrically and
    never straddle the switch to complex lines, and the budget stays
    100*count lines: InsufficientSamples is raised once they all come
    up short.  When a block holds the count-th point, the generator is
    rewound to the block's start and redraws only the trials up to that
    point's, so it ends where a trial-by-trial loop would have ended.
    """
    if not f.terms or f.degree < 1:
        raise DualError("cannot sample a constant polynomial")
    fl, cscale = _poly_scales(f)
    nv = fl.nvars
    gen = as_rng(rng)
    out = []
    budget = TRIAL_FACTOR * count
    switch = 0 if force_complex else budget // 2
    done = 0
    while done < budget:
        use_complex = done >= switch
        k = min(max(count - len(out), done, 1), (budget if use_complex else switch) - done)
        shape = (k, 4 if use_complex else 2, nv)
        state = gen.bit_generator.state
        trial, x = _regular_points(fl, cscale, gen.standard_normal(shape), use_complex)
        need = count - len(out)
        if len(trial) >= need:
            gen.bit_generator.state = state
            gen.standard_normal((int(trial[need - 1]) + 1,) + shape[1:])
            return out + list(x[:need])
        out += list(x)
        done += k
    raise InsufficientSamples(
        f"found {len(out)} of {count} regular points in {budget} line trials"
    )


def tangent_functionals(f: MultiPoly, points) -> list:
    """Unit-normalized gradients of f at the given variety points.

    A real point gives a real functional, a complex point a complex one.
    Points where the gradient norm is below 1e-300 give none.
    """
    if not len(points):
        return []
    x = np.asarray(points)
    if x.dtype == object:
        x = x.astype(float)
    g = batched_gradient(f, x)
    nrm = np.linalg.norm(g, axis=1)
    keep = ~(nrm < 1e-300)
    g, nrm = g[keep], nrm[keep, None]
    if not np.iscomplexobj(g):
        return list(g / nrm)
    # a mixed list is solved as complex; its real points keep real parts
    cplx = np.array([np.iscomplexobj(p) for p in points])[keep]
    return [c if k else r for c, r, k in zip(g / nrm, g.real / nrm, cplx)]


@dataclass(frozen=True)
class DualFitResult:
    degree: int
    form: MultiPoly
    residual_rms: float
    singular_gap: float
    samples_used: int
    search_trace: tuple = ()

    def to_json_dict(self) -> dict:
        terms = []
        for exp in sorted(self.form.terms, reverse=True):
            terms.append({"exp": list(exp), "coeff": float(self.form.terms[exp])})
        return {
            "degree": self.degree,
            "terms": terms,
            "residual_rms": self.residual_rms,
            "singular_gap": self.singular_gap,
            "samples_used": self.samples_used,
            "normalization": "coefficient vector has unit 2-norm; largest entry positive",
        }


def _monomial_rows(functionals, exponents) -> np.ndarray:
    # one row per functional, plus its imaginary part as a second row
    # when that is not negligible
    vals = monomial_values(np.array(functionals, dtype=complex), exponents)
    split = np.abs(vals.imag).max(axis=1) > 1e-14
    rows = np.stack([vals.real, vals.imag], axis=1)
    return rows[np.column_stack([np.ones_like(split), split])]


def dual_fit(f: MultiPoly, max_degree: int, rng=None, samples: int | None = None) -> DualFitResult:
    """Recover the dual hypersurface's defining form by interpolation.

    Tangent functionals are collected at sampled regular points, and for
    each degree from 1 up the nullspace of the monomial-evaluation
    matrix is examined.  The first degree whose smallest singular value
    drops below 1e-11 of the largest, and whose form also vanishes on a
    held-out batch of functionals to RMS 1e-6, wins.  Ascending order
    protects against picking up a multiple of the true form at a higher
    degree.
    """
    if max_degree < 1:
        raise DualError("max_degree must be at least 1")
    gen = as_rng(rng)
    nv = f.nvars
    largest = len(list(homogeneous_exponents(nv, max_degree)))
    if samples is None:
        samples = max(3 * largest, 120)
    pts = sample_variety_points(f, samples, gen)
    pts += sample_variety_points(f, max(samples // 3, 20), gen, force_complex=True)
    held = sample_variety_points(f, max(samples // 3, 30), gen)
    train = tangent_functionals(f, pts)
    test = tangent_functionals(f, held)
    trace = []
    for degree in range(1, max_degree + 1):
        exponents = list(homogeneous_exponents(nv, degree))
        A = _monomial_rows(train, exponents)
        if A.shape[0] < len(exponents):
            trace.append((degree, math.inf, math.inf))
            continue
        _, svals, Vt = np.linalg.svd(A, full_matrices=False)
        gap = float(svals[-1] / svals[0]) if svals[0] > 0 else 0.0
        coeffs = Vt[-1]
        k = int(np.argmax(np.abs(coeffs)))
        if coeffs[k] < 0:
            coeffs = -coeffs
        form = MultiPoly(nv, degree, dict(zip(exponents, map(float, coeffs))), FLOAT)
        resid = np.abs(batched_evaluate(form, test)) if test else np.array([math.inf])
        rms = float(np.sqrt(np.mean(resid**2)))
        trace.append((degree, gap, rms))
        if gap < NULLSPACE_RATIO and rms <= FIT_RESIDUAL_TOL:
            return DualFitResult(
                degree=degree,
                form=form,
                residual_rms=rms,
                singular_gap=gap,
                samples_used=len(train),
                search_trace=tuple(trace),
            )
    raise NoFormFound(
        "no degree up to "
        + str(max_degree)
        + " passed; search trace (degree, singular gap, held-out rms): "
        + ", ".join(f"({d}, {g:.2e}, {r:.2e})" for d, g, r in trace)
    )


@dataclass(frozen=True)
class DualFormReport:
    rms: float
    max_abs: float
    samples_used: int


def verify_dual_form(f: MultiPoly, q: MultiPoly, samples: int = 200, rng=None) -> DualFormReport:
    """Residuals of q on fresh tangent functionals of the zero set of f.

    Both q's coefficient vector and each functional are unit-normalized,
    so the numbers are scale-free.
    """
    gen = as_rng(rng)
    pts = sample_variety_points(f, samples, gen)
    funcs = tangent_functionals(f, pts)
    qf = q.to_float()
    nrm = math.sqrt(sum(float(c) * float(c) for c in qf.terms.values()))
    if nrm == 0:
        raise DualError("candidate form is zero")
    qn = qf.scale(1.0 / nrm)
    resid = [abs(evaluate(qn, list(ell))) for ell in funcs]
    rms = math.sqrt(sum(r * r for r in resid) / len(resid))
    return DualFormReport(rms=rms, max_abs=max(resid), samples_used=len(funcs))


def match_reference(form: MultiPoly, reference: dict) -> dict:
    """Compare a fitted form with reference terms (exponent -> coefficient).

    The fit is unit-norm, so it is first rescaled to match the largest
    reference term exactly; "matched" holds when every coefficient then
    agrees to 1e-6.
    """
    anchor = max(reference, key=lambda e: (abs(reference[e]), e))
    got = form.terms.get(anchor, 0.0)
    if abs(float(got)) < 1e-12:
        return {"matched": False, "note": "anchor coefficient missing from fit"}
    ratio = reference[anchor] / float(got)
    worst = 0.0
    for exp in set(reference) | set(form.terms):
        want = float(reference.get(exp, 0.0))
        have = float(form.terms.get(exp, 0.0)) * ratio
        worst = max(worst, abs(want - have))
    return {
        "matched": bool(worst <= 1e-6),
        "anchor": list(anchor),
        "scale": ratio,
        "max_coeff_error": worst,
    }


@dataclass(frozen=True)
class ProbeResult:
    verdict: str
    distance: float
    radius: float
    nearest: tuple

    def central(self) -> bool:
        return self.verdict == "central"


def _cloud_mesh(points: np.ndarray) -> float:
    # median nearest-neighbour spacing on a thinned subsample
    sub = points[:: max(1, len(points) // 1200)]
    if len(sub) < 2:
        return 1.0
    d2 = np.sum((sub[:, None, :] - sub[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    return float(np.median(np.sqrt(np.min(d2, axis=1))))


def central_point_probe(
    pencil: MatrixPencil,
    candidate,
    cloud: BoundaryCloud,
    radius: float | None = None,
) -> ProbeResult:
    """Is the candidate approached by the traced regular dual points?

    Verdict is central when some cloud point lies within `radius` of the
    candidate (affine chart coordinates).  The answer is only as good as
    the cloud: near eigenvalue crossings the regular points limiting
    onto a singular dual point are invisible to plain per-branch
    tracing, so augment the cloud with degenerate_patches() before
    probing candidates on a singular locus.
    """
    q = np.asarray(candidate, dtype=float)
    if q.shape != (pencil.n,):
        raise DualError(f"candidate must have {pencil.n} coordinates")
    pts = cloud.points()
    if radius is None:
        radius = 10.0 * _cloud_mesh(pts)
    dists = np.linalg.norm(pts - q, axis=1)
    k = int(np.argmin(dists))
    dist = float(dists[k])
    return ProbeResult(
        verdict="central" if dist <= radius else "not_central",
        distance=dist,
        radius=float(radius),
        nearest=tuple(float(v) for v in pts[k]),
    )


# --- the printed ellipse of the 3x3 example's singular slice ---------------

def _ellipse_data():
    from numrange.examples import (
        CN_ELLIPSE_CONST,
        CN_ELLIPSE_LIN,
        CN_ELLIPSE_QUAD,
        CN_ELLIPSE_APEX,
    )

    Q = [[Fraction(v) for v in row] for row in CN_ELLIPSE_QUAD]
    L = [Fraction(v) for v in CN_ELLIPSE_LIN]
    c = Fraction(CN_ELLIPSE_CONST)
    P = tuple(Fraction(v) for v in CN_ELLIPSE_APEX)
    return Q, L, c, P


def _conic_value(Q, L, c, y1, y3) -> Fraction:
    return (
        Q[0][0] * y1 * y1
        + (Q[0][1] + Q[1][0]) * y1 * y3
        + Q[1][1] * y3 * y3
        + L[0] * y1
        + L[1] * y3
        + c
    )


def chien_nakazato_ellipse_test(y1, y3) -> bool:
    """Membership in the convex hull of the printed ellipse plus (1, 0).

    The hull is the union of segments from the apex to the ellipse disk,
    so a point is inside iff it satisfies the conic inequality or the
    ray from the apex through it still meets the disk at or beyond the
    point.  Exact rational arithmetic throughout; the quadratic part of
    the conic is positive definite, which makes the ray test a root
    location question for one quadratic.
    """
    Q, L, c, P = _ellipse_data()
    y1 = Fraction(y1)
    y3 = Fraction(y3)
    if _conic_value(Q, L, c, y1, y3) <= 0:
        return True
    v1, v3 = y1 - P[0], y3 - P[1]
    if v1 == 0 and v3 == 0:
        return True
    # g(t) = conic(P + t v): g(0) > 0 (apex outside), leading term > 0
    a = Q[0][0] * v1 * v1 + (Q[0][1] + Q[1][0]) * v1 * v3 + Q[1][1] * v3 * v3
    g0 = _conic_value(Q, L, c, P[0], P[1])
    g1 = _conic_value(Q, L, c, y1, y3)
    # quadratic through g(0), g(1) with leading coefficient a
    b = g1 - g0 - a
    disc = b * b - 4 * a * g0
    if disc < 0:
        return False
    # both roots share the sign of -b/(2a); need the near root >= 1
    return -b >= 2 * a
