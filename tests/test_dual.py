from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from numrange.dual import (
    DualError,
    NoFormFound,
    InsufficientSamples,
    SingularForm,
    SymmetricForm,
    central_point_probe,
    chien_nakazato_ellipse_test,
    dual_fit,
    quadric_dual,
    sample_variety_points,
    tangent_functionals,
    verify_dual_form,
)
from numrange.examples import chien_nakazato_quartic_terms
from numrange.poly import MultiPoly, evaluate

from support import form_to_poly


LORENTZ = SymmetricForm.from_rows(
    [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], domain="exact"
)


def lorentz_poly() -> MultiPoly:
    return form_to_poly(LORENTZ)


class TestSymmetricForm:
    def test_rejects_nonsquare(self):
        with pytest.raises(DualError):
            SymmetricForm.from_rows([[1, 0, 0], [0, 1, 0]])

    def test_rejects_asymmetric_exact(self):
        with pytest.raises(DualError, match=r"\(1,0\)"):
            SymmetricForm.from_rows([[1, 2], [3, 1]], domain="exact")

    def test_float_symmetrizes_roundoff(self):
        eps = 1e-14
        form = SymmetricForm.from_rows([[1.0, 2.0 + eps], [2.0, 1.0]])
        arr = form.as_array()
        assert arr[0, 1] == arr[1, 0]

    def test_rejects_gross_asymmetry_float(self):
        with pytest.raises(DualError):
            SymmetricForm.from_rows([[1.0, 2.0], [2.5, 1.0]])


class TestQuadricDual:
    def test_lorentz_is_self_dual(self):
        dual = quadric_dual(LORENTZ)
        assert dual.entries == LORENTZ.entries

    def test_exact_dual_is_adjugate_like(self):
        form = SymmetricForm.from_rows([[2, 1], [1, 3]], domain="exact")
        dual = quadric_dual(form, integerize=False)
        arr = np.array([[float(v) for v in r] for r in dual.entries])
        want = np.linalg.inv([[2.0, 1.0], [1.0, 3.0]])
        assert np.allclose(arr, want, atol=1e-12)

    def test_involution_on_random_forms(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            raw = rng.standard_normal((4, 4))
            sym = raw + raw.T
            if abs(np.linalg.det(sym)) < 1e-3:
                continue
            form = SymmetricForm.from_rows(sym)
            back = quadric_dual(quadric_dual(form)).as_array()
            # projective object: compare up to the scale of one entry
            k = np.unravel_index(np.argmax(np.abs(sym)), sym.shape)
            ratio = sym[k] / back[k]
            assert np.allclose(back * ratio, sym, rtol=1e-10, atol=1e-10)

    def test_singular_input_refused(self):
        with pytest.raises(SingularForm):
            quadric_dual(SymmetricForm.from_rows([[1, 1], [1, 1]], domain="exact"))

    def test_integerize_clears_denominators(self):
        form = SymmetricForm.from_rows([[2, 0], [0, 4]], domain="exact")
        dual = quadric_dual(form)
        flat = [v for row in dual.entries for v in row]
        assert all(Fraction(v).denominator == 1 for v in flat)


class TestSampling:
    def test_points_satisfy_equation(self):
        f = lorentz_poly()
        pts = sample_variety_points(f, 60, np.random.default_rng(0))
        assert len(pts) == 60
        for x in pts:
            assert abs(evaluate(f, list(x))) <= 1e-9

    def test_multiple_hyperplane_rejected(self):
        # x0^2 has no regular points at all
        f = MultiPoly(4, 2, {(2, 0, 0, 0): Fraction(1)}, "exact")
        with pytest.raises(InsufficientSamples):
            sample_variety_points(f, 20, np.random.default_rng(0))

    def test_tangent_functionals_unit_and_euler(self):
        f = lorentz_poly()
        pts = sample_variety_points(f, 40, np.random.default_rng(1))
        funcs = tangent_functionals(f, pts)
        for ell, x in zip(funcs, pts):
            assert np.linalg.norm(ell) == pytest.approx(1.0, abs=1e-12)
            # tangency: the functional annihilates its own contact point
            assert abs(float(np.dot(ell, x))) <= 1e-8


class TestFit:
    def test_lorentz_dual_degree_two(self):
        result = dual_fit(lorentz_poly(), 4, np.random.default_rng(0))
        assert result.degree == 2
        reference = form_to_poly(quadric_dual(LORENTZ)).to_float()
        got = result.form
        key = (2, 0, 0, 0)
        ratio = float(reference.terms[key]) / got.terms[key]
        for exp, c in reference.terms.items():
            assert got.terms.get(exp, 0.0) * ratio == pytest.approx(
                float(c), abs=1e-7
            )

    def test_low_ceiling_raises_with_trace(self, cn_pencil):
        from numrange.poly import charpoly

        f = charpoly(cn_pencil)
        with pytest.raises(NoFormFound, match="singular gap"):
            dual_fit(f, 3, np.random.default_rng(0))

    def test_verify_dual_form_accepts_reference(self, cn_pencil):
        from numrange.poly import charpoly

        f = charpoly(cn_pencil)
        q = MultiPoly(4, 4, chien_nakazato_quartic_terms(), "exact")
        report = verify_dual_form(f, q, samples=80, rng=np.random.default_rng(2))
        assert report.max_abs <= 1e-7
        assert report.samples_used > 0

    def test_verify_dual_form_rejects_wrong_form(self, cn_pencil):
        from numrange.poly import charpoly

        f = charpoly(cn_pencil)
        wrong = MultiPoly(4, 2, {(2, 0, 0, 0): Fraction(1), (0, 2, 0, 0): Fraction(-1)}, "exact")
        report = verify_dual_form(f, wrong, samples=40, rng=np.random.default_rng(3))
        assert report.rms > 1e-3


class TestCentralProbe:
    def test_segment_interior_is_central(self, cn_pencil, cn_patched_cloud):
        res = central_point_probe(
            cn_pencil, (0.5, 0.0, 0.0), cn_patched_cloud, radius=0.005
        )
        assert res.central()
        assert res.distance <= 0.005

    def test_beyond_segment_is_not(self, cn_pencil, cn_patched_cloud):
        res = central_point_probe(
            cn_pencil, (1.5, 0.0, 0.0), cn_patched_cloud, radius=0.005
        )
        assert not res.central()
        assert res.distance > 0.01

    def test_default_radius_from_mesh(self, cn_pencil, cn_patched_cloud):
        res = central_point_probe(cn_pencil, (0.0, 0.0, 0.0), cn_patched_cloud)
        assert res.radius > 0

    def test_candidate_arity_checked(self, cn_pencil, cn_patched_cloud):
        with pytest.raises(DualError):
            central_point_probe(cn_pencil, (0.5, 0.0), cn_patched_cloud)

    def test_verdict_monotone_in_radius(self, cn_pencil, cn_patched_cloud):
        tight = central_point_probe(
            cn_pencil, (0.9, 0.0, 0.0), cn_patched_cloud, radius=1e-4
        )
        loose = central_point_probe(
            cn_pencil, (0.9, 0.0, 0.0), cn_patched_cloud, radius=0.05
        )
        assert loose.central()
        assert tight.distance == loose.distance


class TestEllipseTest:
    @pytest.mark.parametrize("y1", [-1, -0.9, -0.5, 0, 0.5, 0.9, 1])
    def test_segment_points_inside(self, y1):
        assert chien_nakazato_ellipse_test(y1, 0)

    @pytest.mark.parametrize("y1", [-5, -2, -1.2, 1.2, 2, 5])
    def test_outside_segment_rejected(self, y1):
        assert not chien_nakazato_ellipse_test(y1, 0)

    def test_exact_rational_boundary(self):
        # conic value at (-1, 0) is exactly zero
        assert chien_nakazato_ellipse_test(Fraction(-1), Fraction(0))

    def test_disk_interior(self):
        assert chien_nakazato_ellipse_test(Fraction(-1, 2), Fraction(1, 2))


@settings(deadline=None, max_examples=20)
@given(
    st.floats(-3, 3),
    st.floats(-3, 3),
    st.floats(0.01, 1.0),
)
@example(0.5, 0.5, 0.9999999999999999)
def test_ellipse_hull_closed_under_apex_mixing(y1, y3, t):
    # convexity: mixing any inside point toward the apex stays inside.
    # The mix is exact: in floats the example rounds to (1.0, 5.55e-17),
    # a point just beside the apex and outside the hull.
    if chien_nakazato_ellipse_test(y1, y3):
        y1, y3, t = Fraction(y1), Fraction(y3), Fraction(t)
        m1 = (1 - t) * y1 + t
        m3 = (1 - t) * y3
        assert chien_nakazato_ellipse_test(m1, m3)
