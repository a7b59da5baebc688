from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from numrange.cones import (
    ConeError,
    NotCertifiedHyperbolic,
    SingularBoundaryPoint,
    cone_membership,
    dual_cone_membership,
    dual_evaluation_points,
    functional_point,
    make_cone_spec,
    normal_ray,
    sample_cone_boundary,
)
from numrange.linalg import HermitianMatrix, MatrixPencil, batched_eigvalsh
from numrange.poly import MultiPoly, charpoly
from numrange.ranges import BoundaryCloud, degenerate_patches, direction_grid, trace_boundary_cloud

from support import (
    base_slice,
    chart_generators,
    cone_support_agreement,
    halfspace_filter,
    nonnegative_generation,
)


def lorentz_form() -> MultiPoly:
    terms = {
        (2, 0, 0, 0): Fraction(1),
        (0, 2, 0, 0): Fraction(-1),
        (0, 0, 2, 0): Fraction(-1),
        (0, 0, 0, 2): Fraction(-1),
    }
    return MultiPoly(4, 2, terms, "exact")


@pytest.fixture(scope="module")
def lorentz_spec():
    return make_cone_spec(lorentz_form(), (1, 0, 0, 0), rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def cn_spec(cn_pencil):
    return make_cone_spec(
        charpoly(cn_pencil),
        (1, 0, 0, 0),
        pencil=cn_pencil,
        rng=np.random.default_rng(0),
    )


class TestConeSpec:
    def test_nonhyperbolic_refused(self):
        terms = {(2, 0): Fraction(1), (0, 2): Fraction(1)}
        f = MultiPoly(2, 2, terms, "exact")
        with pytest.raises(NotCertifiedHyperbolic):
            make_cone_spec(f, (1, 0), rng=np.random.default_rng(0))

    def test_pencil_mismatch_refused(self, cn_pencil):
        with pytest.raises(ConeError):
            make_cone_spec(
                lorentz_form(), (1, 0, 0, 0), pencil=cn_pencil,
                rng=np.random.default_rng(0),
            )

    def test_pencil_needs_first_axis(self, cn_pencil):
        with pytest.raises(ConeError):
            make_cone_spec(
                charpoly(cn_pencil), (0, 1, 0, 0), pencil=cn_pencil,
                rng=np.random.default_rng(0),
            )


class TestMembership:
    def test_axis_is_inside(self, lorentz_spec):
        res = cone_membership(lorentz_spec, (1, 0, 0, 0))
        assert res.classification == "inside"
        assert res.margin == pytest.approx(1.0, abs=1e-12)

    def test_light_ray_is_boundary(self, lorentz_spec):
        res = cone_membership(lorentz_spec, (1, 1, 0, 0))
        assert res.classification == "boundary"

    def test_spacelike_is_outside(self, lorentz_spec):
        res = cone_membership(lorentz_spec, (0, 1, 0, 0))
        assert res.classification == "outside"

    def test_pencil_route_uses_eigenvalues(self, cn_spec):
        res = cone_membership(cn_spec, (1, 0, 0, 0))
        assert res.method == "eigen"
        assert res.classification == "inside"

    def test_routes_agree(self, cn_spec, cn_pencil):
        bare = make_cone_spec(
            charpoly(cn_pencil), (1, 0, 0, 0), rng=np.random.default_rng(1)
        )
        rng = np.random.default_rng(2)
        for _ in range(40):
            a = rng.standard_normal(4) * rng.uniform(0.2, 3.0)
            via_eigen = cone_membership(cn_spec, a)
            via_roots = cone_membership(bare, a)
            assert via_eigen.margin == pytest.approx(
                via_roots.margin, abs=1e-7 * (1 + np.linalg.norm(a))
            )

    def test_margin_scales_with_the_point(self, lorentz_spec):
        a = (2.0, 1.0, 0.5, 0.0)
        m1 = cone_membership(lorentz_spec, a).margin
        m3 = cone_membership(lorentz_spec, tuple(3 * v for v in a)).margin
        assert m3 == pytest.approx(3 * m1, rel=1e-9)


class TestBoundarySampling:
    def test_samples_classify_as_boundary(self, cn_spec):
        pts = sample_cone_boundary(cn_spec, 25, rng=np.random.default_rng(3))
        assert len(pts) == 25
        for x in pts:
            res = cone_membership(cn_spec, x)
            assert res.classification == "boundary", res

    def test_lorentz_samples_on_light_cone(self, lorentz_spec):
        pts = sample_cone_boundary(lorentz_spec, 25, rng=np.random.default_rng(4))
        for x in pts:
            x = np.asarray(x)
            assert x[0] == pytest.approx(np.linalg.norm(x[1:]), abs=1e-7 * (1 + x[0]))


class TestNormalRay:
    def test_interior_point_refused(self, lorentz_spec):
        with pytest.raises(ConeError):
            normal_ray(lorentz_spec, (1, 0, 0, 0))

    def test_apex_is_singular(self, lorentz_spec):
        with pytest.raises(SingularBoundaryPoint):
            normal_ray(lorentz_spec, (0, 0, 0, 0))

    def test_rays_annihilate_their_points(self, cn_spec):
        pts = sample_cone_boundary(cn_spec, 20, rng=np.random.default_rng(5))
        for x in pts:
            fp = normal_ray(cn_spec, x)
            assert fp.ell[0] > 0
            scale = np.linalg.norm(fp.ell) * (1 + np.linalg.norm(x))
            assert abs(fp.pair(x)) <= 1e-8 * scale

    def test_rays_are_dual_members(self, cn_spec, cn_pencil):
        cloud = trace_boundary_cloud(cn_pencil, direction_grid(3, 2000))
        pool = dual_evaluation_points(
            cn_spec, cloud=cloud, states=100, rng=np.random.default_rng(6)
        )
        pts = sample_cone_boundary(cn_spec, 15, rng=np.random.default_rng(7))
        for x in pts:
            fp = normal_ray(cn_spec, x)
            report = dual_cone_membership(cn_spec, fp.ell, points=pool)
            assert report.classification == "inside", report


class TestDualMembership:
    def test_trace_functional_inside(self, cn_spec, cn_pencil):
        y = tuple(
            float(sum(m.as_array()[k, k].real for k in range(3)) / 3)
            for m in cn_pencil.matrices
        )
        cloud = trace_boundary_cloud(cn_pencil, direction_grid(3, 1500))
        report = dual_cone_membership(
            cn_spec, (1.0, *y), cloud=cloud, rng=np.random.default_rng(8)
        )
        assert report.classification == "inside"
        assert report.margin > 0

    def test_outward_functional_rejected_with_witness(self, lorentz_spec):
        report = dual_cone_membership(
            lorentz_spec, (0.0, 1.0, 0.0, 0.0), rng=np.random.default_rng(9)
        )
        assert report.classification == "outside"
        w = np.asarray(report.witness)
        assert float(w @ [0.0, 1.0, 0.0, 0.0]) < 0

    def test_functional_point_chart(self):
        fp = functional_point((2.0, 1.0, -4.0))
        assert fp.chart_point == (0.5, -2.0)
        assert functional_point((0.0, 1.0, 0.0)).chart_point is None


class TestEvaluationPoints:
    @staticmethod
    def _reference(spec, cloud):
        # every contact's direction through a set of tuples, sorted
        dirs = np.array(sorted(set(map(tuple, cloud.directions.tolist()))))
        h = batched_eigvalsh(spec.pencil.stack(), dirs)[:, -1]
        return np.vstack([spec.e, np.column_stack([h, -dirs])])

    def test_distinct_directions_match_the_set(self, cn_spec, cn_pencil, cn_patched_cloud):
        traced = trace_boundary_cloud(cn_pencil, direction_grid(3, 500))
        shuffled = np.random.default_rng(11).permutation(traced.directions)
        # a zero entry with both signs, where the set keeps the sign it saw first
        zero = np.array([[0.0, 0.6, 0.8], [-0.0, 0.6, 0.8], [1.0, 0.0, 0.0], [-0.0, 0.6, 0.8]])
        signed = np.vstack([zero, traced.directions[:5], zero[::-1]])
        clouds = [traced, cn_patched_cloud]
        for dirs in (shuffled, signed):
            count = len(dirs)
            flags = (np.zeros(count, np.int64), np.zeros(count), np.ones(count, bool))
            clouds.append(BoundaryCloud(3, dirs, dirs, *flags, traced.grid, 0))
        for cloud in clouds:
            got = dual_evaluation_points(cn_spec, cloud=cloud, states=0)
            want = self._reference(cn_spec, cloud)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestGeneration:
    def test_tangents_generated_by_chart_points(self, cn_spec, cn_pencil):
        cloud = trace_boundary_cloud(cn_pencil, direction_grid(3, 20000))
        gens = chart_generators(cloud)
        pts = sample_cone_boundary(cn_spec, 10, rng=np.random.default_rng(10))
        for x in pts:
            fp = normal_ray(cn_spec, x)
            report = nonnegative_generation(fp.ell, gens)
            assert report.passed(), report
            assert report.active <= 4

    def test_interior_functional_generated(self, cn_spec, cn_pencil):
        cloud = trace_boundary_cloud(cn_pencil, direction_grid(3, 20000))
        gens = chart_generators(cloud)
        # strictly interior: average of a spread-out batch of generators
        ell = gens[:: len(gens) // 7].mean(axis=0)
        report = nonnegative_generation(ell, gens)
        assert report.passed(), report

    def test_strengthened_cone_agrees_with_plain_hull(self):
        # crossing along the first grid direction: the top branch swaps
        a1 = HermitianMatrix([[1, 0, 0], [0, -1, 0], [0, 0, 1]], domain="exact")
        a2 = HermitianMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]], domain="exact")
        pencil = MatrixPencil([a1, a2])
        cloud = trace_boundary_cloud(pencil, direction_grid(2, 720))
        spec = make_cone_spec(
            charpoly(pencil), (1, 0, 0), pencil=pencil,
            rng=np.random.default_rng(11),
        )
        plain = chart_generators(cloud)
        patches = degenerate_patches(pencil, cloud)
        assert len(patches.records) > 0
        extras = chart_generators(patches)
        disagreement = cone_support_agreement(
            plain, np.vstack([plain, extras]), rng=np.random.default_rng(13)
        )
        assert disagreement <= 1e-6


class TestSliceAndFilter:
    def test_halfspace_filter_keeps_closed_side(self):
        pts = [(1.0, 0.0), (-0.5, 1.0), (0.0, 3.0)]
        kept = halfspace_filter(pts, (1.0, 0.0))
        assert kept == [(1.0, 0.0), (0.0, 3.0)]

    def test_base_slice_normalizes_and_drops(self):
        res = base_slice([(2.0, 4.0), (0.0, 1.0), (1.0, -1.0)], (1.0, 0.0))
        assert res.points == ((1.0, 2.0), (1.0, -1.0))
        assert res.dropped == 1


@settings(deadline=None, max_examples=25)
@given(st.floats(0.05, 20.0), st.integers(0, 500))
def test_membership_classification_scale_invariant(scale, seed):
    spec = make_cone_spec(lorentz_form(), (1, 0, 0, 0), rng=np.random.default_rng(0))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(4)
    plain = cone_membership(spec, a)
    scaled = cone_membership(spec, scale * a)
    if plain.classification != "boundary":
        assert scaled.classification == plain.classification


def test_support_agreement_matches_per_probe_loop():
    """The probes are one (probes, dim) draw of the stream a per-probe
    loop would draw, so the loop gives the same number to roundoff."""
    rng = np.random.default_rng(14)
    gen_a = rng.standard_normal((300, 4))
    gen_b = np.vstack([gen_a, rng.standard_normal((50, 4))])
    a = gen_a / np.linalg.norm(gen_a, axis=1)[:, None]
    b = gen_b / np.linalg.norm(gen_b, axis=1)[:, None]
    probe_gen = np.random.default_rng(15)
    worst = 0.0
    for _ in range(100):
        v = probe_gen.standard_normal(4)
        v /= float(np.linalg.norm(v))
        worst = max(worst, abs(float(np.max(a @ v)) - float(np.max(b @ v))))
    got = cone_support_agreement(gen_a, gen_b, probes=100, rng=np.random.default_rng(15))
    assert worst > 0.0
    assert got == pytest.approx(worst, abs=1e-14)
    assert cone_support_agreement(gen_a, gen_b, probes=0) == 0.0
