"""The single qhull-backed hull routine: exact support on dense traced
boundaries, the planar vertex order, non-finite input, and containment
for hulls of lower affine dimension."""

import numpy as np
import pytest

from numrange.hulls import HullError, convex_hull_2d, convex_hull_3d
from numrange.linalg import HermitianMatrix, MatrixPencil
from numrange.ranges import direction_grid, trace_boundary_cloud

SLACK = 1e-6


def test_dense_planar_trace_keeps_every_extreme_point():
    # A nearly collinear turn test used to drop real extreme points of
    # this cloud and put the hull support 6e-8 below the cloud maximum.
    rng = np.random.default_rng(0)
    mats = []
    for _ in range(2):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mats.append(HermitianMatrix(g + g.conj().T))
    cloud = trace_boundary_cloud(MatrixPencil(mats), direction_grid(2, 20000))
    pts = cloud.points()
    hull = convex_hull_2d(pts)
    u = direction_grid(2, 5000).directions
    brute = np.max(pts @ u.T, axis=0)
    support = np.max(hull.vertices @ u.T, axis=0)
    scale = float(np.max(np.abs(pts)))
    assert np.max(np.abs(support - brute)) <= 1e-10 * (1.0 + scale)


def test_planar_ring_starts_at_lowest_leftmost_and_turns_left():
    pts = np.array(
        [[0, 1], [2, 0], [0, -1], [1, 3], [0, 0.5], [1, -3], [1, 0], [0, -1]],
        dtype=float,
    )
    hull = convex_hull_2d(pts)
    assert not hull.flat
    assert hull.vertices.tolist() == [[0, -1], [1, -3], [2, 0], [1, 3], [0, 1]]
    assert np.array_equal(pts[hull.vertex_indices], hull.vertices)
    edges = np.roll(hull.vertices, -1, axis=0) - hull.vertices
    following = np.roll(edges, -1, axis=0)
    assert np.all(edges[:, 0] * following[:, 1] - edges[:, 1] * following[:, 0] > 0)


@pytest.mark.parametrize("seed", range(20))
def test_planar_ring_start_on_random_clouds(seed):
    rng = np.random.default_rng(seed)
    pts = np.round(rng.standard_normal((40, 2)), 1)  # rounding makes ties
    hull = convex_hull_2d(pts)
    lowest_leftmost = pts[np.lexsort((pts[:, 1], pts[:, 0]))[0]]
    assert hull.vertices[0].tolist() == lowest_leftmost.tolist()
    x, y = hull.vertices.T
    assert np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y) > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("build, dim", [(convex_hull_2d, 2), (convex_hull_3d, 3)])
def test_non_finite_points_raise(build, dim, bad):
    pts = np.random.default_rng(1).standard_normal((10, dim))
    pts[3, dim - 1] = bad
    with pytest.raises(HullError):
        build(pts)


@pytest.mark.parametrize("scale", [1e150, 1e200, 1e300])
@pytest.mark.parametrize("dim", [2, 3])
def test_huge_coordinates_keep_full_rank(scale, dim):
    pts = np.random.default_rng(2).standard_normal((50, dim)) * scale
    hull = (convex_hull_2d if dim == 2 else convex_hull_3d)(pts)
    assert not hull.flat
    u = np.random.default_rng(3).standard_normal((30, dim))
    assert np.array_equal(np.max(hull.vertices @ u.T, axis=0), np.max(pts @ u.T, axis=0))
    assert all(hull.contains(x, slack=1e-12 * scale) for x in pts)
    assert not hull.contains(hull.vertices[0] * 1.01, slack=1e-12 * scale)


def _probes(on, outward):
    """Probes at a hull point: on it, half the slack outward, and one and
    a half times the slack outward."""
    outward = np.asarray(outward, dtype=float) / np.linalg.norm(outward)
    on = np.asarray(on, dtype=float)
    return [(on, True), (on + 0.5 * SLACK * outward, True), (on + 1.5 * SLACK * outward, False)]


FLAT_CASES = {
    "2d-collinear": (
        convex_hull_2d,
        np.array([[0, 0], [1, 1], [2, 2], [3, 3], [1.5, 1.5]], dtype=float),
        [
            *_probes([1.5, 1.5], [1, -1]),
            *_probes([3, 3], [1, 1]),
            *_probes([0, 0], [-1, -1]),
            *_probes([0, 0], [-1, 1]),
        ],
    ),
    "3d-plane": (
        convex_hull_3d,
        np.array(
            [[0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1], [0.5, 0.5, 1], [0.2, 0.7, 1]],
            dtype=float,
        ),
        [
            *_probes([0.5, 0.5, 1], [0, 0, 1]),
            *_probes([0.5, 0.5, 1], [0, 0, -1]),
            *_probes([1, 0.5, 1], [1, 0, 0]),
            *_probes([0.5, 0, 1], [0, -1, 0]),
            *_probes([1, 1, 1], [0, 0, 1]),
        ],
    ),
    "3d-line": (
        convex_hull_3d,
        np.linspace(-1, 2, 30)[:, None] * np.array([[1.0, -2.0, 0.5]]),
        [
            *_probes([0.5, -1.0, 0.25], [2, 1, 0]),
            *_probes([0.5, -1.0, 0.25], [0, 1, 4]),
            *_probes([2.0, -4.0, 1.0], [1, -2, 0.5]),
            *_probes([-1.0, 2.0, -0.5], [-1, 2, -0.5]),
        ],
    ),
    "3d-point": (
        convex_hull_3d,
        np.array([[1.0, 2.0, 3.0]] * 4),
        [*_probes([1, 2, 3], [1, 0, 0]), *_probes([1, 2, 3], [1, -1, 2])],
    ),
}


@pytest.mark.parametrize("name", sorted(FLAT_CASES))
def test_flat_containment(name):
    build, pts, probes = FLAT_CASES[name]
    hull = build(pts)
    assert hull.flat
    assert hull.normals is None
    for x, inside in probes:
        assert hull.contains(x, slack=SLACK) is inside, (x, inside)
