"""Hyperbolicity cones, their duals, and normal rays at the boundary.

The cone of a certified hyperbolic polynomial consists of the points
whose line toward the distinguished direction meets the zero set only
at nonnegative parameters.  For determinantal polynomials this is the
positive-semidefiniteness region of the pencil and root finding turns
into an eigenvalue computation.  Dual-cone questions are answered by
evaluating functionals on the cone's boundary samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from numrange.linalg import EXACT, MatrixPencil, as_rng, batched_eigvalsh
from numrange.poly import (
    HyperbolicityCertificate,
    MultiPoly,
    batched_evaluate,
    batched_roots,
    charpoly,
    gradient,
    hyperbolicity_check,
    restrict_to_line,
)
from numrange.ranges import BoundaryCloud, EmptyCloud

MEMBERSHIP_TOL = 1e-8
PAIRING_TOL = 1e-8
GRADIENT_FLOOR = 1e-8
PENCIL_MATCH_TOL = 1e-9


class ConeError(Exception):
    pass


class NotCertifiedHyperbolic(ConeError):
    """Cone construction needs a hyperbolic certificate."""


class SingularBoundaryPoint(ConeError):
    """Gradient vanishes: the normal cone is not a single ray there."""


@dataclass(frozen=True)
class ConeSpec:
    """A certified hyperbolicity cone, optionally spectrahedral."""

    f: MultiPoly
    e: tuple
    certified: HyperbolicityCertificate
    pencil: MatrixPencil | None = None


def make_cone_spec(
    f: MultiPoly,
    e,
    pencil: MatrixPencil | None = None,
    trials: int = 200,
    rng=None,
) -> ConeSpec:
    """Certify hyperbolicity along e and bundle the result.

    When the pencil is supplied, f must be its characteristic polynomial
    (checked exactly in the rational domain, else at 20 fixed sample
    points against LAPACK determinants of the pencil) and e the
    distinguished first axis.
    """
    e = tuple(float(v) for v in e)
    cert = hyperbolicity_check(f, e, trials=trials, rng=rng)
    if cert.verdict != "hyperbolic":
        raise NotCertifiedHyperbolic(
            f"verdict {cert.verdict!r} along {e}"
            + (f", witness {cert.witness}" if cert.witness is not None else "")
        )
    if pencil is not None:
        if len(e) != pencil.n + 1 or any(
            v != (1.0 if k == 0 else 0.0) for k, v in enumerate(e)
        ):
            raise ConeError("spectrahedral cones use e = (1, 0, ..., 0)")
        _check_pencil_match(f, pencil)
    return ConeSpec(f=f, e=e, certified=cert, pencil=pencil)


def _check_pencil_match(f: MultiPoly, pencil: MatrixPencil):
    """Raise ConeError unless f is det(x0 I + sum x_i A_i).

    Exact f and pencil must expand to the same polynomial.  Otherwise f
    is evaluated at 20 fixed points x in [-1, 1]^(n+1) and compared with
    LAPACK determinants of the pencil there, within PENCIL_MATCH_TOL *
    scale * (1 + max|x|)^deg, scale f's largest coefficient; the
    determinants share no code with the expansion.
    """
    if f.domain == pencil.domain == EXACT:
        if f != charpoly(pencil):
            raise ConeError("polynomial is not the pencil's characteristic polynomial")
        return
    ff = f.to_float()
    pts = np.random.default_rng(1234).uniform(-1.0, 1.0, (20, ff.nvars))
    values = batched_evaluate(ff, pts)
    dets = np.linalg.det(np.tensordot(pts, _homogenised_stack(pencil), axes=1)).real
    bound = PENCIL_MATCH_TOL * max(ff.coeff_scale(), 1e-300) * (1.0 + np.abs(pts).max(axis=1)) ** ff.degree
    bad = np.flatnonzero(np.abs(values - dets) > bound)
    if len(bad):
        k = bad[0]
        raise ConeError(
            f"polynomial disagrees with the pencil's determinant at {list(pts[k])}: "
            f"{values[k]} vs {dets[k]}"
        )


@dataclass(frozen=True)
class FunctionalPoint:
    """A dual-space vector, with its affine chart image when ell_0 != 0."""

    ell: tuple
    chart_point: tuple | None

    def __len__(self) -> int:
        return len(self.ell)

    def pair(self, x) -> float:
        return float(np.dot(self.ell, x))


def functional_point(ell) -> FunctionalPoint:
    ell = tuple(float(v) for v in ell)
    chart = tuple(v / ell[0] for v in ell[1:]) if ell[0] != 0.0 else None
    return FunctionalPoint(ell=ell, chart_point=chart)


@dataclass(frozen=True)
class ConeMembership:
    classification: str  # inside | boundary | outside
    margin: float
    method: str  # roots | eigen
    roots: tuple


def cone_membership(spec: ConeSpec, a) -> ConeMembership:
    """Classify a against the cone by the smallest root toward e.

    All roots of the restriction t -> f(t e - a) are real for certified
    input; the point is inside when they are all positive, with margin
    the smallest root and tolerance band 1e-8 (1 + |a|) around zero.
    Spectrahedral cones take the eigenvalue route (see _line_roots).
    """
    a = np.asarray(a, dtype=float)
    tau = MEMBERSHIP_TOL * (1.0 + float(np.linalg.norm(a)))
    method, (roots,) = _line_roots(spec, [a])
    roots = tuple(roots.tolist())
    margin = roots[0] if roots else math.inf
    if margin > tau:
        cls = "inside"
    elif margin < -tau:
        cls = "outside"
    else:
        cls = "boundary"
    return ConeMembership(classification=cls, margin=margin, method=method, roots=roots)


def _line_roots(spec: ConeSpec, points) -> tuple:
    """The route taken and, for each row x of points, the ascending real
    roots of s -> f(s e - x).

    Spectrahedral cones take the eigenvalue route: those roots are
    exactly the eigenvalues of x0 I + sum x_k A_k, one batched call for
    all rows.  Other cones restrict f to all the lines in one call and
    solve them in one batch (batched_roots); far out on a recession ray
    the trimmed restriction can lose all its roots.
    """
    points = np.asarray(points, dtype=float)
    if spec.pencil is not None:
        return "eigen", list(batched_eigvalsh(_homogenised_stack(spec.pencil), points))
    coeffs = restrict_to_line(spec.f.to_float(), list(-points.T), list(spec.e))
    return "roots", [np.sort(r.real) for r in batched_roots(coeffs)]


def _homogenised_stack(pencil: MatrixPencil) -> np.ndarray:
    """The stack (I, A_1, ..., A_n).  Its combination along a point x is
    x0 I + x1 A1 + ... + xn An, whose eigenvalues are the roots of
    t -> f(t e - x) for the pencil's charpoly f.  Solving that matrix,
    rather than adding x0 to the eigenvalues of the rest, keeps the
    smallest eigenvalue accurate near the cone's boundary, where it
    vanishes."""
    return np.concatenate([np.eye(pencil.d)[None], pencil.stack()])


def _pencil_boundary_points(pencil: MatrixPencil, directions) -> list:
    """Boundary points (h(u), -u) of the pencil's cone: the homogenized
    support contacts, where h is the top eigenvalue along u."""
    dirs = np.asarray(directions, dtype=float).reshape(-1, pencil.n)
    h = batched_eigvalsh(pencil.stack(), dirs)[:, -1]
    return list(np.column_stack([h, -dirs]))


def sample_cone_boundary(spec: ConeSpec, count: int, rng=None) -> list:
    """Boundary points where random rays out of e leave the cone.

    f is homogeneous, so along e + t r the roots of s -> f(s e - x) are
    1 + t mu_i, with mu_i the roots at r: the ray leaves the cone at
    t = -1/mu_min, and never when mu_min >= 0 (or r has no roots); such
    rays are skipped.  One polish step x <- x - m e, with m the least
    root at x, then puts the point on the boundary to roundoff: moving
    along e shifts every root by the same amount.  Each ray is
    r = (a - e)/|a - e| for a standard normal draw a, at most 60 * count
    of them.
    """
    gen = as_rng(rng)
    e = np.asarray(spec.e, dtype=float)

    def least_roots(points) -> np.ndarray:
        return np.array([r[0] if len(r) else math.inf for r in _line_roots(spec, points)[1]])

    out = []
    attempts = 0
    while len(out) < count and attempts < 60 * count:
        block = min(count - len(out), 60 * count - attempts)
        attempts += block
        rays = gen.standard_normal((block, spec.f.nvars)) - e
        norms = np.linalg.norm(rays, axis=1)
        keep = norms >= 1e-12
        rays = rays[keep] / norms[keep, None]
        mu = least_roots(rays)
        leaves = mu < 0.0
        x = e - rays[leaves] / mu[leaves, None]
        out.extend(x - least_roots(x)[:, None] * e)
    return out


@dataclass(frozen=True)
class DualConeReport:
    classification: str  # inside | outside
    margin: float
    witness: tuple | None
    checked: int


def dual_evaluation_points(
    spec: ConeSpec,
    cloud: BoundaryCloud | None = None,
    states: int = 200,
    rng=None,
) -> np.ndarray:
    """Evaluation set for dual membership: e plus boundary samples.

    Spectrahedral cones contribute their homogenized support contacts
    (h(u), -u) over the cloud's directions plus `states` extra random
    directions; general cones contribute the points where `states`
    random rays out of e leave the cone (sample_cone_boundary).
    Precompute once per cone when testing many functionals.
    """
    gen = as_rng(rng)
    points = [np.asarray(spec.e, dtype=float)]
    if spec.pencil is not None:
        if cloud is None or not len(cloud):
            raise EmptyCloud("spectrahedral dual membership needs a traced cloud")
        # the trace emits a direction's rows together, so dropping each row
        # equal to the one before leaves the set far fewer tuples to hash
        d = cloud.directions
        d = d[np.r_[True, np.any(d[1:] != d[:-1], axis=1)]]
        points += _pencil_boundary_points(spec.pencil, sorted(set(map(tuple, d.tolist()))))
        if states > 0:
            extra = gen.standard_normal((states, spec.pencil.n))
            norms = np.linalg.norm(extra, axis=1)
            keep = norms > 1e-12
            points += _pencil_boundary_points(spec.pencil, extra[keep] / norms[keep, None])
    else:
        points += sample_cone_boundary(spec, states, gen)
    return np.array(points, dtype=float)


def dual_cone_membership(
    spec: ConeSpec,
    ell,
    cloud: BoundaryCloud | None = None,
    states: int = 200,
    rng=None,
    points: np.ndarray | None = None,
) -> DualConeReport:
    """Is the functional nonnegative on the cone?

    Evaluates ell over dual_evaluation_points (pass `points` to reuse a
    precomputed set).  Any evaluation below -1e-8 at the combined scale
    is a witness for outside; the margin is the least evaluation.
    """
    if isinstance(ell, FunctionalPoint):
        lvec = np.asarray(ell.ell, dtype=float)
    else:
        lvec = np.asarray(ell, dtype=float)
    if points is None:
        points = dual_evaluation_points(spec, cloud, states, rng)
    scale = float(np.linalg.norm(lvec)) * (
        1.0 + float(np.max(np.linalg.norm(points, axis=1)))
    )
    values = points @ lvec
    k = int(np.argmin(values))
    margin = float(values[k])
    if margin < -PAIRING_TOL * scale:
        return DualConeReport(
            classification="outside",
            margin=margin,
            witness=tuple(float(x) for x in points[k]),
            checked=len(points),
        )
    return DualConeReport(
        classification="inside", margin=margin, witness=None, checked=len(points)
    )


def normal_ray(spec: ConeSpec, x) -> FunctionalPoint:
    """The outward-facing normal functional at a regular boundary point.

    The normal cone at such a point is a single ray through the
    gradient; the sign is fixed by positivity against e.  Points where
    the gradient sinks below 1e-8 of the local coefficient scale are
    singular and rejected.
    """
    x = np.asarray(x, dtype=float)
    member = cone_membership(spec, x)
    if member.classification != "boundary":
        raise ConeError(f"normal_ray needs a boundary point, got {member.classification}")
    fl = spec.f.to_float()
    g = np.array([float(v) for v in gradient(fl, list(x))])
    gscale = fl.coeff_scale() * (1.0 + float(np.max(np.abs(x)))) ** max(fl.degree - 1, 0)
    if float(np.linalg.norm(g)) <= GRADIENT_FLOOR * gscale:
        raise SingularBoundaryPoint(
            f"gradient norm {float(np.linalg.norm(g)):.3e} at scale {gscale:.3e}"
        )
    le = float(g @ np.asarray(spec.e))
    if abs(le) <= GRADIENT_FLOOR * gscale:
        raise SingularBoundaryPoint("normal pairs to zero against e")
    if le < 0:
        g = -g
    return functional_point(g)
