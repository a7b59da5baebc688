"""Convex hulls in the plane and in space, with support queries.

Every hull comes from one routine: scipy's qhull behind a rank test on
the singular values of the centred cloud (tolerance `COPLANAR_TOL` of
the coordinate scale).  Input of lower affine dimension is hulled in
its own affine span, as a point, a segment or a planar qhull, and
flagged flat.  One containment test serves every case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull as _QHull
from scipy.spatial import QhullError

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
    ambient one, which carry their affine span as `plane_origin` and
    orthonormal rows `plane_basis` instead.
    """

    dim: int
    vertices: np.ndarray
    vertex_indices: np.ndarray
    facets: np.ndarray | None = None
    normals: np.ndarray | None = None
    offsets: np.ndarray | None = None
    flat: bool = False
    # affine frame for flat hulls: origin + orthonormal basis of the span
    plane_origin: np.ndarray | None = None
    plane_basis: np.ndarray | None = None

    def support(self, u) -> float:
        u = np.asarray(u, dtype=float)
        return float(np.max(self.vertices @ u))

    def contains(self, x, slack: float = 1e-9) -> bool:
        return _contains(self, np.asarray(x, dtype=float), slack)


def support_of_points(points: np.ndarray, u) -> float:
    """Brute-force support of a raw cloud; the hull-free fallback."""
    return float(np.max(np.asarray(points, dtype=float) @ np.asarray(u, dtype=float)))


def convex_hull_2d(points) -> ConvexHull:
    """Planar hull; counterclockwise from the lowest leftmost vertex."""
    return _hull(points, 2)


def convex_hull_3d(points) -> ConvexHull:
    """Spatial hull; flat input is hulled in its plane or line."""
    return _hull(points, 3)


def _hull(points, dim: int) -> ConvexHull:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise HullError(f"expected (N, {dim}) points, got {pts.shape}")
    if len(pts) == 0:
        raise HullError("empty point set")
    if not np.all(np.isfinite(pts)):
        raise HullError("non-finite point coordinates")
    scale = max(float(np.max(np.abs(pts))), 1.0)
    origin = pts.mean(axis=0)
    centred = pts - origin
    _, svals, vt = np.linalg.svd(centred, full_matrices=False)
    rank = int(np.sum(svals > COPLANAR_TOL * scale))
    if rank == dim:
        # qhull overflows past about 1e150; a power-of-two rescale is exact
        exp = int(np.frexp(scale)[1])
        try:
            q = _QHull(np.ldexp(pts, -exp))
        except QhullError:
            rank -= 1
        else:
            idxs = q.vertices
            if dim == 2:  # qhull's 2D ring is counterclockwise
                idxs = np.roll(idxs, -int(np.lexsort((pts[idxs, 1], pts[idxs, 0]))[0]))
            return ConvexHull(
                dim,
                pts[idxs],
                idxs.copy(),
                facets=q.simplices.copy(),
                normals=q.equations[:, :dim].copy(),
                offsets=np.ldexp(-q.equations[:, dim], exp),
            )
    basis = vt[:rank]
    coords = centred @ basis.T
    if rank == 2:
        idxs = _hull(coords, 2).vertex_indices
    elif rank == 1:
        idxs = np.array([int(np.argmin(coords)), int(np.argmax(coords))])
    else:
        idxs = np.array([0])
    return ConvexHull(
        dim, pts[idxs], idxs, flat=True, plane_origin=origin, plane_basis=basis
    )


def _contains(hull: ConvexHull, x, slack: float) -> bool:
    if not hull.flat:
        return bool(np.all(hull.normals @ x <= hull.offsets + slack))
    basis = hull.plane_basis
    rel = x - hull.plane_origin
    coords = rel @ basis.T
    if np.linalg.norm(rel - coords @ basis) > slack:
        return False
    if len(basis) == 0:
        return True
    span = (hull.vertices - hull.plane_origin) @ basis.T
    if len(basis) == 1:
        return bool(span.min() - slack <= coords[0] <= span.max() + slack)
    return _contains(_hull(span, 2), coords, slack)
