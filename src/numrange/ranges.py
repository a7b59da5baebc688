"""Boundary tracing and hull verification for joint expectation ranges.

For a tuple of hermitian matrices, each direction u on the sphere gives
the family combination M(u); every simple eigenvalue branch contributes
a tangency point built from expectation values of its eigenvector.  The
cloud of these points, swept over a direction grid, outlines the range;
the support of its convex hull (for n <= 3; above that, of the cloud
itself) is then compared against the support function
u -> lambda_max(M(u)) on a test grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from numrange.hulls import ConvexHull, convex_hull_2d, convex_hull_3d, support_of_points
from numrange.linalg import (
    MULTIPLICITY_TOL,
    MatrixPencil,
    as_rng,
    batched_eigh,
    batched_eigvalsh,
    group_starts,
)

UNIT_NORM_TOL = 1e-12
GAP_LOWER_SLACK = 1e-9
# crossing patches: seed and certification gaps, relative to 1 + |pencil|,
# and the (theta, phi) sweep of each patch
PATCH_SEED_GAP = 0.05
PATCH_CERTIFY_GAP = 1e-8
PATCH_THETA_SAMPLES = 1200
PATCH_PHI_SAMPLES = 8
# Newton steps per crossing search.  A transversal crossing takes a few;
# a tangential one, where a first-order coupling vanishes, only halves
# its distance per step: at chien-nakazato's two poles 16 steps certify
# all 24 seeds and 8 steps certify 2.
CROSSING_STEPS = 30


class RangeError(Exception):
    pass


class EmptyCloud(RangeError):
    """Tracing produced no usable boundary points."""


class UnsupportedDimension(RangeError):
    """Hull verification asked for in a dimension it cannot certify."""


@dataclass(frozen=True)
class DirectionGrid:
    """Unit directions in R^n with a record of how they were generated."""

    kind: str
    n: int
    directions: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=float)
        norms = np.linalg.norm(d, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
            raise RangeError("grid directions must be unit vectors")
        object.__setattr__(self, "directions", d)

    def __len__(self) -> int:
        return len(self.directions)

    def mesh_estimate(self) -> float:
        """Rough covering radius of the grid on the unit sphere."""
        count = max(len(self.directions), 2)
        if self.n == 2:
            return math.pi / count
        if self.n == 3:
            # area argument: count caps of this radius tile the sphere
            return math.sqrt(4.0 / count)
        return math.pi * count ** (-1.0 / (self.n - 1))


def uniform_angle_grid(count: int) -> DirectionGrid:
    """count equispaced directions on the unit circle, starting at angle 0."""
    if count < 1:
        raise RangeError("need at least one direction")
    theta = np.arange(count) * (2.0 * math.pi / count)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return DirectionGrid("uniform_angle", 2, dirs)


def fibonacci_sphere_grid(count: int) -> DirectionGrid:
    """Deterministic low-discrepancy directions on the 2-sphere."""
    if count < 1:
        raise RangeError("need at least one direction")
    k = np.arange(count)
    z = 1.0 - (2.0 * k + 1.0) / count
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    phi = 2.0 * math.pi * (k / golden % 1.0)
    dirs = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return DirectionGrid("fibonacci_sphere", 3, dirs)


def random_sphere_grid(count: int, n: int, rng=None) -> DirectionGrid:
    """count directions drawn uniformly on the sphere in R^n."""
    if count < 1:
        raise RangeError("need at least one direction")
    if n < 1:
        raise RangeError("need ambient dimension >= 1")
    gen = as_rng(rng)
    raw = gen.standard_normal((count, n))
    norms = np.linalg.norm(raw, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        raw[bad] = gen.standard_normal((int(np.sum(bad)), n))
        norms = np.linalg.norm(raw, axis=1)
    return DirectionGrid("random_sphere", n, raw / norms[:, None])


def direction_grid(n: int, count: int, rng=None) -> DirectionGrid:
    """Default grid family for each ambient dimension."""
    if n == 2:
        return uniform_angle_grid(count)
    if n == 3:
        return fibonacci_sphere_grid(count)
    return random_sphere_grid(count, n, rng)


@dataclass(frozen=True)
class CloudRecord:
    """One tangency contact: where, from which direction, which branch."""

    point: tuple
    direction: tuple
    branch: int
    eigenvalue: float
    simple: bool


@dataclass(frozen=True)
class BoundaryCloud:
    """All contacts produced by sweeping a grid, plus the skip count.

    Row i of the columns is one contact: point coords[i], its direction
    directions[i], branch[i], eigenvalue[i] and simple[i].  `records`
    builds CloudRecord rows from them on every access.
    """

    n: int
    coords: np.ndarray
    directions: np.ndarray
    branch: np.ndarray
    eigenvalue: np.ndarray
    simple: np.ndarray
    grid: DirectionGrid
    skipped: int

    def __len__(self) -> int:
        return len(self.coords)

    def points(self) -> np.ndarray:
        if not len(self):
            raise EmptyCloud("no boundary contacts recorded")
        return self.coords

    @property
    def records(self) -> tuple:
        # point and direction tuples zipped from the coordinate columns
        points, directions = (zip(*c.T.tolist()) for c in (self.coords, self.directions))
        rest = (c.tolist() for c in (self.branch, self.eigenvalue, self.simple))
        return tuple(map(CloudRecord, points, directions, *rest))


def _stack_cloud(n: int, grid: DirectionGrid, skipped: int, blocks) -> BoundaryCloud:
    """One cloud from blocks of its five columns, in order."""
    empty = (np.empty((0, n)),) * 2 + (np.empty(0, np.int64), np.empty(0), np.empty(0, bool))
    return BoundaryCloud(n, *(np.concatenate(c) for c in zip(empty, *blocks)), grid, skipped)


def trace_boundary_cloud(
    pencil: MatrixPencil,
    grid: DirectionGrid,
    include_degenerate: bool = False,
) -> BoundaryCloud:
    """Contact points of the range boundary, one per simple branch.

    Repeated eigenvalues do not determine an eigenvector, so their
    branches are skipped (and counted); pass include_degenerate=True to
    record an arbitrary vector of the eigenspace anyway, flagged
    simple=False.
    """
    if grid.n != pencil.n:
        raise RangeError(f"grid lives in R^{grid.n}, family in R^{pencil.n}")
    stack = pencil.stack()
    group_tol = MULTIPLICITY_TOL * (1.0 + pencil.norm())
    blocks = []
    skipped = 0
    for start, values, vectors in batched_eigh(stack, grid.directions):
        # contacts[c, j, k] = <psi, A_k psi> for eigenvector column j of
        # combination c; expectation values, so vector phases drop out.
        # Taking the matmul first is 2x faster than one einsum at d = 6, 5x at 12.
        contacts = np.einsum("caj,ckaj->cjk", vectors.conj(), stack @ vectors[:, None]).real
        # a branch is a group of eigenvalues within group_tol of each other,
        # simple when it opens and closes at the same index
        first = group_starts(values, group_tol)
        last = np.ones(values.shape, dtype=bool)
        last[:, :-1] = first[:, 1:]
        simple = first & last
        if not include_degenerate:
            skipped += int(simple.size - np.count_nonzero(simple))
        rows, cols = np.nonzero(first if include_degenerate else simple)
        branch = np.cumsum(first, axis=1) - 1
        y, br, lam, sim = (x[rows, cols] for x in (contacts, branch, values, simple))
        blocks.append((y, grid.directions[start + rows], br, lam, sim))
    return _stack_cloud(pencil.n, grid, skipped, blocks)


def merge_boundary_clouds(a: BoundaryCloud, b: BoundaryCloud) -> BoundaryCloud:
    if a.n != b.n:
        raise RangeError("clouds live in different dimensions")
    blocks = [(c.coords, c.directions, c.branch, c.eigenvalue, c.simple) for c in (a, b)]
    return _stack_cloud(a.n, a.grid, a.skipped + b.skipped, blocks)


def _tangent_basis(u: np.ndarray) -> np.ndarray:
    """Rows spanning the orthogonal complement of each unit vector of
    u (..., n), as an (..., n - 1, n) array."""
    # Householder frames: the reflection taking e_1 onto u is symmetric,
    # and its rows 2..n span u's orthogonal complement
    v = u.copy()
    v[..., 0] += np.where(u[..., 0] < 0, -1.0, 1.0) * np.linalg.norm(u, axis=-1)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return np.eye(u.shape[-1])[1:] - 2.0 * v[..., 1:, None] * v[..., None, :]


def _closest_pairs(stack: np.ndarray, us: np.ndarray) -> tuple:
    """The closest adjacent eigenvalue pair of the combination at each row
    of us (m, n): its gap, lower index lo and mean eigenvalue, each (m,),
    and the (m, n, 2, 2) blocks B_k = V* A_k V on its eigenvectors V."""
    parts = list(batched_eigh(stack, us))
    values = np.concatenate([p[1] for p in parts])
    vectors = np.concatenate([p[2] for p in parts])
    gaps = np.diff(values, axis=1)
    rows = np.arange(len(us))
    lo = gaps.argmin(axis=1)
    pair = np.stack([vectors[rows, :, lo], vectors[rows, :, lo + 1]], axis=2)
    blocks = pair.conj().swapaxes(1, 2)[:, None] @ stack @ pair[:, None]
    mean = 0.5 * (values[rows, lo] + values[rows, lo + 1])
    return gaps[rows, lo], lo, mean, blocks


def _newton_crossings(stack: np.ndarray, us: np.ndarray, certify: float) -> tuple:
    """Newton steps from every seed row of us toward a crossing of its
    closest pair.

    On the pair's eigenvectors V the pencil acts as the 2x2 pencil
    B_k = V* A_k V, and the pair crosses where the traceless part of
    sum_k u_k B_k vanishes.  To first order that is three real equations,
    linear in u: half the difference of the diagonal, then the real and
    the imaginary part of the off-diagonal (zero for real symmetric
    input).  Each step solves them by least squares in the tangent plane
    and renormalises.  Returns the final directions and their gaps.
    """
    gaps, _, _, blocks = _closest_pairs(stack, us)
    for _ in range(CROSSING_STEPS):
        if np.all(gaps <= 0.01 * certify):
            break
        off = blocks[..., 0, 1]
        eqs = np.stack(
            [0.5 * (blocks[..., 0, 0] - blocks[..., 1, 1]).real, off.real, off.imag], axis=1
        )
        tangent = _tangent_basis(us).swapaxes(1, 2)
        shift = np.linalg.pinv(eqs @ tangent) @ (eqs @ us[..., None])
        us = us - (tangent @ shift)[..., 0]
        us /= np.linalg.norm(us, axis=1, keepdims=True)
        gaps, _, _, blocks = _closest_pairs(stack, us)
    return us, gaps


def _crossing_centers(stack: np.ndarray, directions, scale: float, max_patches: int) -> list:
    """Certified crossings reached from the grid directions whose
    smallest adjacent gap is at most PATCH_SEED_GAP * scale."""
    certify = PATCH_CERTIFY_GAP * scale
    gaps = np.diff(batched_eigvalsh(stack, directions), axis=1).min(axis=1)
    seeds = [
        (gap, u) for gap, u in zip(gaps.tolist(), directions) if gap <= PATCH_SEED_GAP * scale
    ]
    seeds.sort(key=lambda t: t[0])
    picked = []
    for _, u in seeds:
        if all(np.linalg.norm(u - v) > 0.05 for v in picked):
            picked.append(u)
        if len(picked) >= max_patches:
            break
    if not picked:
        return []
    ends, end_gaps = _newton_crossings(stack, np.array(picked), certify)
    centers = []
    for uc in ends[end_gaps <= certify]:
        if all(np.linalg.norm(uc - w) > 0.01 for w in centers):
            centers.append(uc)
    return centers


def _patch_columns(stack: np.ndarray, uc: np.ndarray) -> tuple:
    """The expectation values of every mixture cos(t) psi1 + e^{i phi}
    sin(t) psi2 of the closest pair at uc, over a (theta, phi) grid, as
    one block of cloud columns."""
    _, lo, lam, blocks = _closest_pairs(stack, uc[None])
    a = blocks[0, :, 0, 0].real
    b = blocks[0, :, 1, 1].real
    c = blocks[0, :, 0, 1]
    theta = np.linspace(0.0, 0.5 * math.pi, PATCH_THETA_SAMPLES)[:, None, None]
    phi = np.linspace(0.0, 2.0 * math.pi, PATCH_PHI_SAMPLES, endpoint=False)[:, None]
    mix = np.cos(phi) * c.real - np.sin(phi) * c.imag
    points = (np.cos(theta) ** 2 * a + np.sin(theta) ** 2 * b) + (
        2.0 * (np.cos(theta) * np.sin(theta)) * mix
    )
    count = PATCH_THETA_SAMPLES * PATCH_PHI_SAMPLES
    return (
        points.reshape(count, len(a)),
        np.tile(uc, (count, 1)),
        np.full(count, lo[0]),
        np.full(count, lam[0]),
        np.zeros(count, dtype=bool),
    )


def degenerate_patches(
    pencil: MatrixPencil, cloud: BoundaryCloud, max_patches: int = 24
) -> BoundaryCloud:
    """Expectation patches at eigenvalue crossings near the traced grid.

    Per-branch tracing cannot see the dual points that regular branches
    limit onto at a crossing; the eigenvectors there are only determined
    up to mixing, and the mixtures' expectation values fill a patch
    (for the 3x3 example's zero crossing, exactly the singular segment).

    Seeds are the grid directions whose smallest adjacent eigengap is at
    most PATCH_SEED_GAP * (1 + |pencil|), smallest first, at least 0.05
    apart, at most max_patches of them.  From every seed at once, Newton
    steps on the 2x2 pencil of the closest pair (`_newton_crossings`)
    run until every gap is below a hundredth of the certification gap
    PATCH_CERTIFY_GAP * (1 + |pencil|), or for CROSSING_STEPS steps.  An
    end point whose gap is at most the certification gap is a crossing;
    crossings closer than 0.01 to an earlier one are dropped.  Each
    crossing emits the mixed-eigenvector sweep over PATCH_THETA_SAMPLES x
    PATCH_PHI_SAMPLES angles as simple=False contacts.  A pencil of 1x1
    matrices has no adjacent branches and no patches, and a single
    matrix has no direction to move along: its range is the segment its
    traced contacts already span.
    """
    blocks = []
    if pencil.d >= 2 and pencil.n >= 2:
        stack = pencil.stack()
        scale = 1.0 + pencil.norm()
        for uc in _crossing_centers(stack, cloud.grid.directions, scale, max_patches):
            blocks.append(_patch_columns(stack, uc))
    return _stack_cloud(pencil.n, cloud.grid, 0, blocks)


@dataclass(frozen=True)
class SupportTable:
    """Support values of the range sampled over a grid of directions."""

    grid: DirectionGrid
    values: np.ndarray


def support_function(pencil: MatrixPencil, u) -> float:
    """Support value of the range at one direction: the top eigenvalue
    of the family combined along u."""
    uu = [float(x) for x in u]
    if len(uu) != pencil.n:
        raise RangeError(f"direction arity {len(uu)} vs family n = {pencil.n}")
    return float(batched_eigvalsh(pencil.stack(), [uu])[0, -1])


def support_table(pencil: MatrixPencil, grid: DirectionGrid) -> SupportTable:
    if grid.n != pencil.n:
        raise RangeError(f"grid lives in R^{grid.n}, family in R^{pencil.n}")
    values = batched_eigvalsh(pencil.stack(), grid.directions)[:, -1].copy()
    return SupportTable(grid=grid, values=values)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of the hull-versus-support comparison.

    The traced cloud includes degenerate branches, one contact per
    repeated eigenvalue group from an arbitrary vector of its
    eigenspace; `skipped` counts those simple=False contacts.  `advisory`
    marks a cloud maximum standing in for the hull (n >= 4).
    """

    n: int
    max_gap: float
    min_gap: float
    argmax_direction: tuple
    grid_sizes: dict
    tol: float
    verdict: str
    skipped: int
    advisory: bool = False

    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "max_gap": self.max_gap,
            "min_gap": self.min_gap,
            "argmax_direction": list(self.argmax_direction),
            "grid_sizes": dict(self.grid_sizes),
            "tol": self.tol,
            "verdict": self.verdict,
            "skipped": self.skipped,
            "advisory": self.advisory,
        }


def cloud_hull(cloud: BoundaryCloud) -> ConvexHull:
    pts = cloud.points()
    if cloud.n == 2:
        return convex_hull_2d(pts)
    if cloud.n == 3:
        return convex_hull_3d(pts)
    raise UnsupportedDimension(
        f"certified hulls cover n in {{2, 3}}, got n={cloud.n}"
    )


def verify_main_theorem(
    pencil: MatrixPencil,
    trace_grid: DirectionGrid,
    test_grid: DirectionGrid,
    tol: float | None = None,
) -> VerifyReport:
    """Compare the support of the traced cloud with the true support.

    The gap lambda_max(M(u)) - h(u), with h the support of the traced
    cloud, must be nonnegative up to 1e-9 * (1 + |pencil|) roundoff
    (the cloud never sticks out) and at most tol (the cloud fills the
    range).  Default tol scales with the mesh of the trace grid and the
    family norm.  For n <= 3, h is the support of the cloud's hull;
    above n = 3 there is no hull, and h is the raw cloud maximum,
    reported as advisory rather than certified.  Repeated eigenvalues
    are traced too (include_degenerate=True), so a pencil whose
    branches all cross, down to a scalar one, still has a cloud.
    """
    n = pencil.n
    if n < 2:
        raise UnsupportedDimension("need at least two matrices to verify a range")
    cloud = trace_boundary_cloud(pencil, trace_grid, include_degenerate=True)
    pts = cloud.points()
    use_hull = n <= 3
    hull = cloud_hull(cloud) if use_hull else None
    if tol is None:
        tol = 10.0 * trace_grid.mesh_estimate() * pencil.norm()
    table = support_table(pencil, test_grid)
    max_gap = -math.inf
    min_gap = math.inf
    argmax = test_grid.directions[0]
    for u, sval in zip(test_grid.directions, table.values):
        inner = hull.support(u) if use_hull else support_of_points(pts, u)
        gap = sval - inner
        if gap > max_gap:
            max_gap = gap
            argmax = u
        if gap < min_gap:
            min_gap = gap
    ok = min_gap >= -GAP_LOWER_SLACK * (1.0 + pencil.norm()) and max_gap <= tol
    return VerifyReport(
        n=n,
        max_gap=float(max_gap),
        min_gap=float(min_gap),
        argmax_direction=tuple(float(x) for x in argmax),
        grid_sizes={"trace": len(trace_grid), "test": len(test_grid)},
        tol=float(tol),
        verdict="pass" if ok else "fail",
        skipped=int(np.count_nonzero(~cloud.simple)),
        advisory=not use_hull,
    )


def cloud_to_csv(cloud: BoundaryCloud, metadata: dict | None = None) -> str:
    """CSV dump: direction columns, branch, point columns, simple flag.

    Metadata rides along in '#'-prefixed header lines so the file stays
    loadable by ordinary CSV readers that skip comments.  The rows are
    one row template repeated and filled by a single % from the columns:
    '%.17g' spells every float as f"{x:.17g}" does, and no field ever
    needs CSV quoting.
    """
    n = cloud.n
    comments = [f"# {key}: {metadata[key]}\n" for key in sorted(metadata or {})]
    header = [f"u{k + 1}" for k in range(n)] + ["branch"] + [f"y{k + 1}" for k in range(n)] + ["simple"]
    row = ",".join(["%.17g"] * n + ["%d"] + ["%.17g"] * n + ["%d"]) + "\n"
    # branch and simple are small integers, exact as floats, so one float
    # array holds every row's values in order
    columns = (cloud.directions, cloud.branch[:, None], cloud.coords, cloud.simple[:, None])
    values = np.hstack(columns, dtype=float).ravel().tolist()
    return "".join(comments) + ",".join(header) + "\n" + (row * len(cloud)) % tuple(values)
