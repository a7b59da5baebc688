"""Convex hulls in the plane and in space, with support queries.

The planar hull is an Andrew monotone chain with an explicit collinear
tolerance.  The spatial hull wraps scipy's qhull behind the same small
interface and falls back to a planar hull in a fitted plane when the
input is flat.  Degenerate inputs (points, segments) stay representable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull as _QHull
from scipy.spatial import QhullError

COLLINEAR_TOL = 1e-12
COPLANAR_TOL = 1e-9


class HullError(Exception):
    pass


@dataclass(frozen=True)
class ConvexHull:
    """Hull of a finite point cloud in dimension 2 or 3.

    `vertices` are the extreme points; counterclockwise-ordered in 2D
    (also in plane coordinates for flat 3D input).  `normals` and
    `offsets` describe the facets as normal . x <= offset with outward
    normals; they are None for hulls of affine dimension below the
    ambient one, where containment falls back to distance tests.
    """

    dim: int
    vertices: np.ndarray
    vertex_indices: np.ndarray
    facets: np.ndarray | None = None
    normals: np.ndarray | None = None
    offsets: np.ndarray | None = None
    flat: bool = False
    # affine frame for flat 3D hulls: origin + orthonormal plane basis
    plane_origin: np.ndarray | None = None
    plane_basis: np.ndarray | None = None

    def support(self, u) -> float:
        u = np.asarray(u, dtype=float)
        return float(np.max(self.vertices @ u))

    def contains(self, x, slack: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if self.dim == 2:
            return _contains_2d(self, x, slack)
        return _contains_3d(self, x, slack)


def hull_support(hull: ConvexHull, u) -> float:
    """Support value max_v <u, v> over the hull vertices."""
    return hull.support(u)


def support_of_points(points: np.ndarray, u) -> float:
    """Brute-force support of a raw cloud; the hull-free fallback."""
    return float(np.max(np.asarray(points, dtype=float) @ np.asarray(u, dtype=float)))


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_2d(points) -> ConvexHull:
    """Monotone-chain hull; counterclockwise vertex order.

    Points whose turn determinant stays within 1e-12 of the coordinate
    scale are treated as collinear and dropped.  One- and two-point
    hulls (and fully collinear input) come out as degenerate hulls with
    the `flat` flag set.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise HullError(f"expected (N, 2) points, got {pts.shape}")
    if len(pts) == 0:
        raise HullError("empty point set")
    scale = float(np.max(np.abs(pts))) if len(pts) else 0.0
    try:
        tol = COLLINEAR_TOL * max(scale, 1.0) ** 2
    except OverflowError as exc:
        raise HullError(f"coordinate scale {scale:.3e} overflows the turn test") from exc
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    unique = []
    for idx in order:
        if unique and np.max(np.abs(pts[idx] - pts[unique[-1]])) <= COLLINEAR_TOL * max(scale, 1.0):
            continue
        unique.append(int(idx))
    if len(unique) == 1:
        v = pts[unique]
        return ConvexHull(2, v, np.array(unique), flat=True)
    lower = []
    for idx in unique:
        while len(lower) >= 2 and _cross(pts[lower[-2]], pts[lower[-1]], pts[idx]) <= tol:
            lower.pop()
        lower.append(idx)
    upper = []
    for idx in reversed(unique):
        while len(upper) >= 2 and _cross(pts[upper[-2]], pts[upper[-1]], pts[idx]) <= tol:
            upper.pop()
        upper.append(idx)
    ring = lower[:-1] + upper[:-1]
    if len(ring) <= 2:
        idxs = np.array(sorted(set(ring)))
        return ConvexHull(2, pts[idxs], idxs, flat=True)
    idxs = np.array(ring)
    verts = pts[idxs]
    edges = np.roll(verts, -1, axis=0) - verts
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    norms = np.linalg.norm(normals, axis=1)
    normals = normals / norms[:, None]
    offsets = np.einsum("ij,ij->i", normals, verts)
    return ConvexHull(2, verts, idxs, normals=normals, offsets=offsets)


def _contains_2d(hull: ConvexHull, x, slack: float) -> bool:
    if hull.normals is not None:
        return bool(np.all(hull.normals @ x <= hull.offsets + slack))
    v = hull.vertices
    if len(v) == 1:
        return bool(np.linalg.norm(x - v[0]) <= slack)
    return _segment_distance(v[0], v[-1], x) <= slack


def _segment_distance(a, b, x) -> float:
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0 else float(np.clip((x - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(a + t * ab - x))


def convex_hull_3d(points) -> ConvexHull:
    """Spatial hull via incremental quickhull (scipy's qhull).

    Affinely dependent input is detected through the singular values of
    the centered cloud (coplanarity tolerance 1e-9 of the scale), flagged
    flat, and reduced to a planar hull inside the fitted plane.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise HullError(f"expected (N, 3) points, got {pts.shape}")
    if len(pts) == 0:
        raise HullError("empty point set")
    scale = max(float(np.max(np.abs(pts))), 1.0)
    centroid = pts.mean(axis=0)
    if len(pts) >= 4:
        svals = np.linalg.svd(pts - centroid, compute_uv=False)
        degenerate = svals[-1] <= COPLANAR_TOL * scale
    else:
        degenerate = True
    if not degenerate:
        try:
            q = _QHull(pts)
        except QhullError:
            degenerate = True
    if not degenerate:
        vidx = q.vertices
        normals = q.equations[:, :3]
        offsets = -q.equations[:, 3]
        return ConvexHull(
            3,
            pts[vidx],
            vidx.copy(),
            facets=q.simplices.copy(),
            normals=normals.copy(),
            offsets=offsets.copy(),
        )
    return _flat_hull_3d(pts, centroid, scale)


def _flat_hull_3d(pts, centroid, scale) -> ConvexHull:
    centered = pts - centroid
    U, s, Vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(s > COPLANAR_TOL * scale))
    if rank == 0:
        return ConvexHull(
            3,
            centroid[None, :].copy(),
            np.array([0]),
            flat=True,
            plane_origin=centroid,
        )
    if rank == 1:
        axis = Vt[0]
        t = centered @ axis
        idxs = np.array([int(np.argmin(t)), int(np.argmax(t))])
        return ConvexHull(
            3,
            pts[idxs],
            idxs,
            flat=True,
            plane_origin=centroid,
            plane_basis=Vt[:1].copy(),
        )
    basis = Vt[:2]
    planar = centered @ basis.T
    sub = convex_hull_2d(planar)
    idxs = sub.vertex_indices
    return ConvexHull(
        3,
        pts[idxs],
        idxs,
        flat=True,
        plane_origin=centroid,
        plane_basis=basis.copy(),
    )


def _contains_3d(hull: ConvexHull, x, slack: float) -> bool:
    if hull.normals is not None and not hull.flat:
        return bool(np.all(hull.normals @ x <= hull.offsets + slack))
    if hull.plane_basis is None:
        return bool(np.linalg.norm(x - hull.vertices[0]) <= slack)
    rel = x - hull.plane_origin
    in_plane = rel @ hull.plane_basis.T
    out_of_plane = rel - in_plane @ hull.plane_basis
    if np.linalg.norm(out_of_plane) > slack:
        return False
    if len(hull.plane_basis) == 1:
        lo = float(np.min((hull.vertices - hull.plane_origin) @ hull.plane_basis[0]))
        hi = float(np.max((hull.vertices - hull.plane_origin) @ hull.plane_basis[0]))
        t = float(in_plane[0])
        return lo - slack <= t <= hi + slack
    verts2 = (hull.vertices - hull.plane_origin) @ hull.plane_basis.T
    sub = convex_hull_2d(verts2)
    return sub.contains(in_plane, slack)
