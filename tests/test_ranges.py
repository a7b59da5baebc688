import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from numrange.examples import builtin_pencil
from numrange.linalg import sample_mixed_state
from numrange.ranges import (
    RangeError,
    cloud_hull,
    cloud_to_csv,
    degenerate_patches,
    direction_grid,
    fibonacci_sphere_grid,
    merge_boundary_clouds,
    support_function,
    support_table,
    trace_boundary_cloud,
    uniform_angle_grid,
    verify_main_theorem,
)

from conftest import random_pencil
from support import tangency_residual, verify_state_inclusion


class TestGrids:
    def test_angle_grid_unit_norm_and_count(self):
        grid = uniform_angle_grid(16)
        assert grid.n == 2 and len(grid.directions) == 16
        norms = np.linalg.norm(np.array(grid.directions), axis=1)
        assert np.abs(norms - 1).max() <= 1e-12

    def test_fibonacci_covers_both_poles(self):
        grid = fibonacci_sphere_grid(500)
        z = np.array(grid.directions)[:, 2]
        assert z.max() > 0.99 and z.min() < -0.99

    def test_dispatcher_picks_layout(self):
        rng = np.random.default_rng(0)
        assert direction_grid(2, 32, rng).kind == "uniform_angle"
        assert direction_grid(3, 32, rng).kind == "fibonacci_sphere"
        assert direction_grid(4, 32, rng).kind == "random_sphere"

    def test_mesh_estimate_shrinks_with_count(self):
        a = direction_grid(3, 100).mesh_estimate()
        b = direction_grid(3, 10000).mesh_estimate()
        assert b < a / 5


class TestTracing:
    def test_qubit_disk_unit_circle(self):
        pencil = builtin_pencil("qubit-disk")
        cloud = trace_boundary_cloud(pencil, uniform_angle_grid(360))
        assert len(cloud.records) == 720
        radii = np.linalg.norm(cloud.points(), axis=1)
        assert np.abs(radii - 1.0).max() <= 1e-9

    def test_contacts_satisfy_tangency(self, cn_pencil):
        cloud = trace_boundary_cloud(cn_pencil, direction_grid(3, 300))
        scale = 1.0 + cn_pencil.norm()
        for r in cloud.records:
            assert tangency_residual(r) <= 1e-9 * scale

    def test_drop_clusters_on_sphere_and_apex(self, drop_pencil):
        cloud = trace_boundary_cloud(drop_pencil, direction_grid(3, 2000))
        pts = cloud.points()
        on_sphere = np.abs(np.linalg.norm(pts, axis=1) - 1.0) <= 1e-6
        at_apex = np.linalg.norm(pts - [2.0, 0.0, 0.0], axis=1) <= 1e-6
        assert np.all(on_sphere | at_apex)
        assert at_apex.sum() > 0 and on_sphere.sum() > 0

    def test_grid_dimension_checked(self, drop_pencil):
        with pytest.raises(RangeError):
            trace_boundary_cloud(drop_pencil, uniform_angle_grid(16))

    def test_merge_concatenates(self, drop_pencil):
        a = trace_boundary_cloud(drop_pencil, direction_grid(3, 50))
        b = trace_boundary_cloud(drop_pencil, direction_grid(3, 60))
        merged = merge_boundary_clouds(a, b)
        assert len(merged.records) == len(a.records) + len(b.records)

    def test_states_inside_cloud_hull(self, drop_pencil):
        cloud = trace_boundary_cloud(drop_pencil, direction_grid(3, 3000))
        hull = cloud_hull(cloud)
        report = verify_state_inclusion(
            drop_pencil, hull, count=200, rng=np.random.default_rng(0)
        )
        assert report.checked == 200
        # pure states land on the true surface; the polyhedral hull sags
        # under it by O(mesh^2), so bound the excess instead of zeroing it
        assert report.worst_excess <= 1e-3


class TestSupport:
    def test_drop_support_closed_form(self, drop_pencil):
        rng = np.random.default_rng(1)
        for _ in range(200):
            u = rng.standard_normal(3)
            want = max(float(np.linalg.norm(u)), 2.0 * u[0])
            assert support_function(drop_pencil, u) == pytest.approx(
                want, abs=1e-9
            )

    def test_table_matches_pointwise(self, cn_pencil):
        grid = direction_grid(3, 64)
        table = support_table(cn_pencil, grid)
        for u, v in zip(grid.directions, table.values):
            assert support_function(cn_pencil, u) == pytest.approx(v, abs=1e-12)

    def test_positive_homogeneity(self, cn_pencil):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(3)
        h = support_function(cn_pencil, u)
        assert support_function(cn_pencil, 2.5 * u) == pytest.approx(
            2.5 * h, rel=1e-10
        )

    def test_state_expectations_respect_support(self, cn_pencil):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rho = sample_mixed_state(3, rng)
            y = rho.expectations(cn_pencil)
            u = rng.standard_normal(3)
            assert float(u @ y) <= support_function(cn_pencil, u) + 1e-9


class TestVerification:
    def test_drop_passes_and_is_one_sided(self, drop_pencil):
        rng = np.random.default_rng(0)
        report = verify_main_theorem(
            drop_pencil,
            direction_grid(3, 4000, rng),
            direction_grid(3, 1000, rng),
        )
        assert report.passed()
        assert report.min_gap >= -1e-9
        assert report.verdict == "pass"

    def test_chien_nakazato_passes(self, cn_pencil):
        rng = np.random.default_rng(0)
        report = verify_main_theorem(
            cn_pencil,
            direction_grid(3, 6000, rng),
            direction_grid(3, 1500, rng),
        )
        assert report.passed()

    def test_gap_shrinks_with_grid_doubling(self, cn_pencil):
        rng = np.random.default_rng(1)
        probe = direction_grid(3, 800, rng)
        coarse = verify_main_theorem(
            cn_pencil, direction_grid(3, 1500), probe
        ).max_gap
        fine = verify_main_theorem(
            cn_pencil, direction_grid(3, 6000), probe
        ).max_gap
        assert fine < coarse

    def test_kippenhahn_gap_small_for_planar_pencils(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            pencil = random_pencil(4, 2, rng)
            report = verify_main_theorem(
                pencil,
                uniform_angle_grid(1440),
                uniform_angle_grid(1440),
            )
            assert report.max_gap <= 1e-5 * (1.0 + pencil.norm())
            assert report.min_gap >= -1e-9

    def test_needs_two_matrices(self):
        rng = np.random.default_rng(0)
        pencil = random_pencil(3, 1, rng)
        with pytest.raises(RangeError):
            verify_main_theorem(
                pencil, direction_grid(1, 64), direction_grid(1, 64)
            )

    def test_cloud_maximum_above_three(self):
        # no hull above n = 3: the traced cloud's own maximum stands in,
        # and the report says so
        rng = np.random.default_rng(0)
        pencil = random_pencil(3, 4, rng)
        tgrid, pgrid = direction_grid(4, 500, rng), direction_grid(4, 200, rng)
        report = verify_main_theorem(pencil, tgrid, pgrid)
        assert report.advisory
        cloud = trace_boundary_cloud(pencil, tgrid, include_degenerate=True)
        gaps = support_table(pencil, pgrid).values - (cloud.coords @ pgrid.directions.T).max(axis=0)
        # one matmul against the per-direction maxima: equal to roundoff
        assert (report.max_gap, report.min_gap) == pytest.approx((gaps.max(), gaps.min()), abs=1e-12)

    def test_report_serializes(self, drop_pencil):
        report = verify_main_theorem(
            drop_pencil, direction_grid(3, 1000), direction_grid(3, 300)
        )
        doc = report.to_json_dict()
        assert set(doc) >= {"max_gap", "min_gap", "verdict", "grid_sizes", "tol"}


class TestDegeneratePatches:
    def test_chien_nakazato_crossings_found(self, cn_pencil, cn_patched_cloud):
        swept = [r for r in cn_patched_cloud.records if not r.simple]
        assert swept, "expected swept records over the conical crossings"
        crossing_dirs = {r.direction for r in swept}
        # both poles carry a double eigenvalue
        top = min(abs(1.0 - abs(u[2])) for u in crossing_dirs)
        assert top <= 1e-6

    def test_patches_fill_the_singular_segment(self, cn_patched_cloud):
        pts = cn_patched_cloud.points()
        for t in np.linspace(-0.95, 0.95, 21):
            dist = np.linalg.norm(pts - [t, 0.0, 0.0], axis=1).min()
            assert dist <= 5e-3, f"gap {dist:.2e} at ({t:.2f},0,0)"

    def test_no_patches_on_generic_pencil(self):
        rng = np.random.default_rng(10)
        pencil = random_pencil(4, 3, rng)
        cloud = trace_boundary_cloud(pencil, direction_grid(3, 400))
        patches = degenerate_patches(pencil, cloud)
        assert len(patches.records) == 0


class TestCsv:
    def test_format_and_determinism(self, drop_pencil):
        cloud = trace_boundary_cloud(drop_pencil, direction_grid(3, 64))
        text = cloud_to_csv(cloud, {"seed": 0, "note": "x"})
        again = cloud_to_csv(cloud, {"seed": 0, "note": "x"})
        assert text == again
        lines = text.strip().split("\n")
        comments = [l for l in lines if l.startswith("#")]
        assert len(comments) == 2
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "u1,u2,u3,branch,y1,y2,y3,simple"
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(rows) == len(cloud.records)


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10_000))
def test_cloud_points_never_exceed_support(seed):
    rng = np.random.default_rng(seed)
    pencil = random_pencil(3, 2, rng)
    cloud = trace_boundary_cloud(pencil, uniform_angle_grid(64))
    pts = cloud.points()
    for _ in range(10):
        u = rng.standard_normal(2)
        h = support_function(pencil, u)
        assert float(np.max(pts @ u)) <= h + 1e-9 * (1 + abs(h))
