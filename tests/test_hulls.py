import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from numrange.hulls import (
    HullError,
    convex_hull_2d,
    convex_hull_3d,
    support_of_points,
)


class TestHull2d:
    def test_square_with_interior_noise(self):
        rng = np.random.default_rng(0)
        corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        inner = rng.uniform(0.1, 0.9, (50, 2))
        hull = convex_hull_2d(np.vstack([inner, corners]))
        assert len(hull.vertices) == 4
        assert sorted(map(tuple, hull.vertices)) == sorted(map(tuple, corners))

    def test_counterclockwise_orientation(self):
        hull = convex_hull_2d([[0, 0], [2, 0], [2, 2], [0, 2], [1, 1]])
        v = hull.vertices
        area2 = 0.0
        for i in range(len(v)):
            a, b = v[i], v[(i + 1) % len(v)]
            area2 += a[0] * b[1] - b[0] * a[1]
        assert area2 > 0

    def test_collinear_input_flat(self):
        hull = convex_hull_2d([[0, 0], [1, 1], [2, 2], [3, 3]])
        assert hull.flat
        assert len(hull.vertices) == 2

    def test_single_point_and_duplicates(self):
        hull = convex_hull_2d([[1.5, -2.0]] * 5)
        assert hull.flat and len(hull.vertices) == 1

    def test_empty_raises(self):
        with pytest.raises(HullError):
            convex_hull_2d(np.zeros((0, 2)))

    def test_containment(self):
        hull = convex_hull_2d([[0, 0], [4, 0], [0, 4]])
        assert hull.contains((1, 1))
        assert hull.contains((0, 0))
        assert not hull.contains((3, 3))
        assert hull.contains((2.0, 2.0 + 1e-12))  # boundary within slack

    def test_support_equals_brute_force(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((300, 2)) * [2.0, 0.5]
        hull = convex_hull_2d(pts)
        for _ in range(40):
            u = rng.standard_normal(2)
            assert hull.support(u) == pytest.approx(
                support_of_points(pts, u), abs=1e-10
            )


class TestHull3d:
    def test_cube_vertices(self):
        rng = np.random.default_rng(2)
        corners = np.array(
            [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)],
            dtype=float,
        )
        cloud = np.vstack([rng.uniform(0.2, 0.8, (100, 3)), corners])
        hull = convex_hull_3d(cloud)
        assert not hull.flat
        assert len(hull.vertices) == 8

    def test_support_equals_brute_force(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((500, 3))
        hull = convex_hull_3d(pts)
        for _ in range(40):
            u = rng.standard_normal(3)
            assert hull.support(u) == pytest.approx(
                support_of_points(pts, u), abs=1e-10
            )

    def test_planar_degenerate(self):
        rng = np.random.default_rng(4)
        flat = rng.standard_normal((60, 2))
        pts = np.hstack([flat, (flat @ [0.3, -0.7])[:, None]])  # z = 0.3x - 0.7y
        hull = convex_hull_3d(pts)
        assert hull.flat
        u = np.array([1.0, 2.0, -0.5])
        assert hull.support(u) == pytest.approx(
            support_of_points(pts, u), abs=1e-9
        )

    def test_collinear_degenerate(self):
        t = np.linspace(-1, 2, 30)[:, None]
        pts = t * np.array([[1.0, -2.0, 0.5]])
        hull = convex_hull_3d(pts)
        assert hull.flat and len(hull.vertices) == 2

    def test_point_degenerate(self):
        hull = convex_hull_3d([[1.0, 2.0, 3.0]] * 4)
        assert hull.flat and len(hull.vertices) == 1

    def test_containment_full_and_flat(self):
        simplex = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float
        )
        hull = convex_hull_3d(simplex)
        assert hull.contains((0.2, 0.2, 0.2))
        assert not hull.contains((0.5, 0.5, 0.5))
        square = np.array(
            [[0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]], dtype=float
        )
        flat_hull = convex_hull_3d(square)
        assert flat_hull.flat
        assert flat_hull.contains((0.5, 0.5, 1.0))
        assert not flat_hull.contains((0.5, 0.5, 1.1))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.integers(3, 60))
def test_hull_2d_support_never_below_any_point(seed, count):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, 2))
    hull = convex_hull_2d(pts)
    u = rng.standard_normal(2)
    assert hull.support(u) >= support_of_points(pts, u) - 1e-10


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.floats(-np.pi, np.pi))
def test_hull_2d_rotation_equivariance(seed, angle):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((40, 2))
    c, s = np.cos(angle), np.sin(angle)
    R = np.array([[c, -s], [s, c]])
    u = rng.standard_normal(2)
    h1 = convex_hull_2d(pts).support(u)
    h2 = convex_hull_2d(pts @ R.T).support(R @ u)
    assert h2 == pytest.approx(h1, abs=1e-9)
