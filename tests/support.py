"""Helpers that only the tests call: a quadratic form as a polynomial,
a pencil written as a JSON document, the exact chien-nakazato cubic,
cone helpers (half-space filter, base slice, chart generators,
nonnegative generation, support agreement of two generator cones) and
range helpers (state inclusion in a hull, tangency residual)."""

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import nnls

from numrange.cones import ConeError, FunctionalPoint
from numrange.dual import SymmetricForm
from numrange.hulls import ConvexHull
from numrange.linalg import (
    EXACT,
    FLOAT,
    MatrixPencil,
    as_rng,
    rational_str,
    sample_mixed_state,
    sample_pure_state,
)
from numrange.poly import MultiPoly
from numrange.ranges import BoundaryCloud, CloudRecord

SLICE_FLOOR = 1e-10
GENERATION_TOL = 1e-4
MAX_GENERATORS = 500
STATE_INCLUSION_TOL = 1e-6


def form_to_poly(form: SymmetricForm) -> MultiPoly:
    """The quadratic form as a homogeneous degree-2 polynomial."""
    terms = {}
    m = form.entries
    exact = form.domain == EXACT
    for i in range(form.dim):
        for j in range(i, form.dim):
            c = m[i][j] if i == j else (m[i][j] + m[j][i])
            if not exact:
                c = float(c)
            if c == 0:
                continue
            exp = [0] * form.dim
            exp[i] += 1
            exp[j] += 1
            terms[tuple(exp)] = c
    return MultiPoly(form.dim, 2, terms, EXACT if exact else FLOAT)


def _entry_to_json(v, domain: str):
    if domain == EXACT:
        return [rational_str(v.re), rational_str(v.im)]
    return [float(v.real), float(v.imag)]


def pencil_to_json(pencil: MatrixPencil) -> str:
    """Serialize a pencil: {"d":., "n":., "matrices":[ d x d x [re, im] ]}."""
    mats = []
    for m in pencil.matrices:
        if pencil.domain == EXACT:
            rows = [
                [_entry_to_json(v, EXACT) for v in row] for row in m.data
            ]
        else:
            rows = [
                [_entry_to_json(m.data[j, k], FLOAT) for k in range(pencil.d)]
                for j in range(pencil.d)
            ]
        mats.append(rows)
    doc = {"d": pencil.d, "n": pencil.n, "matrices": mats}
    return json.dumps(doc, sort_keys=True)


def chien_nakazato_cubic_terms() -> dict:
    """Integer coefficients of the degree-3 characteristic form."""
    return {
        (3, 0, 0, 0): Fraction(1),
        (2, 0, 0, 1): Fraction(1),
        (1, 2, 0, 0): Fraction(-2),
        (1, 0, 2, 0): Fraction(-1),
        (0, 3, 0, 0): Fraction(-1),
        (0, 2, 0, 1): Fraction(-1),
        (0, 1, 2, 0): Fraction(1),
    }


def halfspace_filter(points, e) -> list:
    """Keep the functionals nonnegative against e (closed half-space)."""
    e = np.asarray(e, dtype=float)
    out = []
    for p in points:
        vec = np.asarray(p.ell if isinstance(p, FunctionalPoint) else p, dtype=float)
        if float(vec @ e) >= 0.0:
            out.append(p)
    return out


@dataclass(frozen=True)
class BaseSliceResult:
    points: tuple
    dropped: int


def base_slice(cone_points, ell) -> BaseSliceResult:
    """Scale each cone point onto the affine slice {ell = 1}.

    Points pairing below 1e-10 at scale sit near the slice's horizon
    and are dropped (counted): their rays never meet the hyperplane.
    """
    lvec = np.asarray(ell.ell if isinstance(ell, FunctionalPoint) else ell, dtype=float)
    lnorm = float(np.linalg.norm(lvec))
    if lnorm == 0.0:
        raise ConeError("slice functional must be nonzero")
    kept = []
    dropped = 0
    for x in cone_points:
        x = np.asarray(x, dtype=float)
        v = float(lvec @ x)
        if v > SLICE_FLOOR * lnorm * (1.0 + float(np.linalg.norm(x))):
            kept.append(tuple(float(c) for c in x / v))
        else:
            dropped += 1
    return BaseSliceResult(points=tuple(kept), dropped=dropped)


@dataclass(frozen=True)
class GenerationReport:
    residual: float
    scale: float
    generators_used: int
    active: int

    def passed(self) -> bool:
        return self.residual <= GENERATION_TOL * self.scale


def chart_generators(cloud: BoundaryCloud) -> np.ndarray:
    """Homogenized chart contacts (1, y) of a cloud.

    These span the dual cone: each is the expectation functional of an
    eigenstate, nonnegative on the whole spectrahedral cone.
    """
    pts = cloud.points()
    return np.hstack([np.ones((len(pts), 1)), pts])


def nonnegative_generation(
    ell, generators: np.ndarray, limit: int = MAX_GENERATORS
) -> GenerationReport:
    """Reproduce a functional as a nonnegative combination of generators.

    Nonnegative least squares over at most `limit` generators, chosen
    by alignment with the functional so a dense cloud still yields a
    bounded problem.  The residual is compared to 1e-4 of the
    functional's norm.  The support is trimmed toward the conic
    Caratheodory bound (ambient dimension many generators) whenever the
    trim does not hurt the residual.
    """
    lvec = np.asarray(ell.ell if isinstance(ell, FunctionalPoint) else ell, dtype=float)
    G = np.asarray(generators, dtype=float)
    lnorm = float(np.linalg.norm(lvec))
    if len(G) > limit:
        # Near-boundary functionals need generators close to their own
        # supporting face, interior ones a spread covering all of the
        # cone: half the budget goes to each.
        gn = np.linalg.norm(G, axis=1)
        gn[gn == 0.0] = 1.0
        scores = (G @ lvec) / (gn * max(lnorm, 1e-300))
        local = np.argsort(scores)[-(limit // 2):]
        stride = max(1, -(-len(G) // (limit - limit // 2)))
        spread = np.arange(0, len(G), stride)
        keep = np.unique(np.concatenate([local, spread]))[:limit]
        G = G[keep]
    A = G.T
    coeffs, resid = nnls(A, lvec)
    active = np.flatnonzero(coeffs > 1e-12)
    dim = len(lvec)
    if len(active) > dim:
        top = active[np.argsort(coeffs[active])[-dim:]]
        c2, r2 = nnls(A[:, top], lvec)
        if r2 <= max(resid, 1e-12 * lnorm):
            resid = r2
            active = top[c2 > 1e-12]
    return GenerationReport(
        residual=float(resid),
        scale=lnorm,
        generators_used=A.shape[1],
        active=int(len(active)),
    )


def cone_support_agreement(gen_a: np.ndarray, gen_b: np.ndarray, probes: int = 400, rng=None) -> float:
    """Largest support-value disagreement of two generator cones.

    Generators are ray representatives; both sets are unit-normalized
    and probed with random unit directions, so the number is scale-free.
    Used for the three-variable strengthening check: admitting
    near-singular contacts must not enlarge the generated cone.
    """
    gen = as_rng(rng)
    a = np.asarray(gen_a, dtype=float)
    b = np.asarray(gen_b, dtype=float)
    a = a / np.linalg.norm(a, axis=1)[:, None]
    b = b / np.linalg.norm(b, axis=1)[:, None]
    v = gen.standard_normal((probes, a.shape[1]))
    v /= np.linalg.norm(v, axis=1)[:, None]
    gaps = np.abs(np.max(a @ v.T, axis=0) - np.max(b @ v.T, axis=0))
    return float(np.max(gaps, initial=0.0))


@dataclass(frozen=True)
class InclusionReport:
    checked: int
    violations: int
    worst_excess: float

    def passed(self) -> bool:
        return self.violations == 0


def verify_state_inclusion(
    pencil: MatrixPencil,
    hull: ConvexHull,
    count: int = 200,
    rng=None,
    mixed_fraction: float = 0.5,
) -> InclusionReport:
    """Expectation tuples of random states must land inside the hull."""
    gen = as_rng(rng)
    scale = 1.0 + float(np.max(np.abs(hull.vertices)))
    slack = STATE_INCLUSION_TOL * scale
    violations = 0
    worst = 0.0
    for i in range(count):
        if gen.uniform() < mixed_fraction:
            rho = sample_mixed_state(pencil.d, gen)
        else:
            rho = sample_pure_state(pencil.d, gen)
        y = np.array(rho.expectations(pencil))
        if not hull.contains(y, slack):
            violations += 1
            if hull.normals is not None:
                excess = float(np.max(hull.normals @ y - hull.offsets))
                worst = max(worst, excess)
    return InclusionReport(checked=count, violations=violations, worst_excess=worst)


def tangency_residual(record: CloudRecord) -> float:
    """|lambda - <u, y>| for one contact; zero in exact arithmetic."""
    u = np.asarray(record.direction)
    y = np.asarray(record.point)
    return abs(record.eigenvalue - float(u @ y))
