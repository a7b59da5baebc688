from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from numrange.cones import make_cone_spec, sample_cone_boundary
from numrange.examples import builtin_pencil
from numrange.poly import (
    ArityMismatch,
    MultiPoly,
    NotOnVariety,
    charpoly,
    check_multiplicity_lemma,
    evaluate,
    gradient,
    hyperbolicity_check,
    monomial,
    multiplicity_at,
    partial_derivative,
    poly_from_json,
    poly_pretty,
    poly_to_json,
    restrict_to_line,
    roots_univariate,
)

from conftest import random_pencil
from support import chien_nakazato_cubic_terms


def lorentz_form(domain="exact"):
    one = Fraction(1) if domain == "exact" else 1.0
    return MultiPoly(
        3, 2, {(2, 0, 0): one, (0, 2, 0): -one, (0, 0, 2): -one}, domain
    )


class TestCharpoly:
    def test_chien_nakazato_exact_integer_coefficients(self, cn_pencil):
        f = charpoly(cn_pencil)
        assert f.domain == "exact"
        assert f.terms == chien_nakazato_cubic_terms()

    def test_drop_divisible_by_linear_component(self, drop_pencil):
        f = charpoly(drop_pencil)
        # exact vanishing on the hyperplane x0 + 2 x1 = 0 pins the factor
        for x1, x2, x3 in [(1, 2, 3), (-2, 5, 7), (Fraction(1, 3), 0, 1)]:
            assert evaluate(f, [-2 * x1, x1, x2, x3]) == 0

    def test_degree_and_homogeneity(self, cn_pencil):
        f = charpoly(cn_pencil)
        assert f.degree == cn_pencil.d
        assert all(sum(e) == f.degree for e in f.terms)

    def test_float_pencil_matches_determinant(self):
        rng = np.random.default_rng(2)
        pencil = random_pencil(4, 3, rng)
        f = charpoly(pencil)
        for _ in range(10):
            x = rng.uniform(-1, 1, 4)
            m = x[0] * np.eye(4) + sum(
                x[k + 1] * pencil.matrices[k].as_array() for k in range(3)
            )
            want = float(np.real(np.linalg.det(m)))
            assert evaluate(f, list(x)) == pytest.approx(want, abs=1e-8)

    def test_large_dimension_interpolated_path(self):
        rng = np.random.default_rng(4)
        pencil = random_pencil(8, 2, rng)
        f = charpoly(pencil)
        assert f.domain == "float"
        x = [0.3, -0.7, 0.4]
        m = x[0] * np.eye(8) + sum(
            x[k + 1] * pencil.matrices[k].as_array() for k in range(2)
        )
        assert evaluate(f, x) == pytest.approx(
            float(np.real(np.linalg.det(m))), rel=1e-8
        )


class TestCalculus:
    def test_partial_derivative_exact(self):
        f = monomial(2, (3, 1), Fraction(2))
        df = partial_derivative(f, 0)
        assert df.terms == {(2, 1): Fraction(6)}

    def test_gradient_matches_finite_differences(self):
        f = charpoly(builtin_pencil("cayley")).to_float()
        rng = np.random.default_rng(8)
        x = list(rng.uniform(-1, 1, 4))
        g = [float(v) for v in gradient(f, x)]
        h = 1e-6
        for j in range(4):
            xp = list(x)
            xm = list(x)
            xp[j] += h
            xm[j] -= h
            fd = (evaluate(f, xp) - evaluate(f, xm)) / (2 * h)
            assert g[j] == pytest.approx(fd, abs=1e-5 * (1 + abs(fd)))

    def test_restriction_composes_with_evaluation(self):
        f = lorentz_form("float")
        base, direction = [0.2, 0.1, -0.3], [1.0, 0.5, 0.25]
        cs = restrict_to_line(f, base, direction)
        for t in (-1.0, 0.0, 0.7):
            direct = evaluate(f, [b + t * d for b, d in zip(base, direction)])
            horner = sum(c * t**k for k, c in enumerate(cs))
            assert horner == pytest.approx(direct, abs=1e-12)

    def test_roots_recover_known_factors(self):
        # (t - 1)(t + 2)(t - 3)
        roots = np.sort(roots_univariate([6, -5, -2, 1]))
        assert np.allclose(roots.real, [-2, 1, 3], atol=1e-9)
        assert np.abs(roots.imag).max() <= 1e-9

    def test_arity_checked(self):
        with pytest.raises(ArityMismatch):
            evaluate(lorentz_form(), [1, 2])


class TestHyperbolicity:
    def test_charpoly_certified_hyperbolic(self, drop_pencil):
        cert = hyperbolicity_check(
            charpoly(drop_pencil), (1, 0, 0, 0), rng=np.random.default_rng(0)
        )
        assert cert.verdict == "hyperbolic"

    def test_definite_quadric_rejected_with_witness(self):
        f = MultiPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0}, "float")
        cert = hyperbolicity_check(f, (1, 0), rng=np.random.default_rng(0))
        assert cert.verdict == "not_hyperbolic"
        assert cert.witness is not None

    def test_negative_at_direction_inconclusive(self):
        f = MultiPoly(2, 2, {(2, 0): -1.0}, "float")
        cert = hyperbolicity_check(f, (1, 0), rng=np.random.default_rng(0))
        assert cert.verdict == "inconclusive"


class TestMultiplicity:
    def test_regular_boundary_point_has_order_one(self):
        rep = check_multiplicity_lemma(lorentz_form(), (1, 0, 0), (1, 1, 0))
        assert rep.agree and rep.point_multiplicity == 1

    def test_cone_apex_has_full_order(self):
        f = lorentz_form()
        assert multiplicity_at(f, (0, 0, 0)) == 2
        rep = check_multiplicity_lemma(f, (1, 0, 0), (0, 0, 0))
        assert rep.agree and rep.point_multiplicity == 2

    def test_off_variety_point_rejected(self):
        with pytest.raises(NotOnVariety):
            multiplicity_at(lorentz_form(), (2, 1, 0))

    def test_chien_nakazato_singular_point_order_two(self, cn_pencil):
        f = charpoly(cn_pencil)
        rep = check_multiplicity_lemma(f, (1, 0, 0, 0), (0, 0, 0, 1))
        assert rep.agree and rep.point_multiplicity == 2

    def test_boundary_point_near_apex_keeps_its_order(self):
        # the float charpoly of a random (5, 2) pencil; scaled toward the
        # apex, the boundary point's low-order Taylor coefficients shrink
        # like 0.01^4 against the top ones, below the relative zero floor
        rng = np.random.default_rng(5)
        pencil = random_pencil(5, 2, rng)
        f = charpoly(pencil)
        e = (1.0, 0.0, 0.0)
        spec = make_cone_spec(f, e, pencil=pencil, rng=rng)
        x = sample_cone_boundary(spec, 1, rng=rng)[0]
        assert f.domain == "float"
        assert check_multiplicity_lemma(f, e, list(x)).agree
        rep = check_multiplicity_lemma(f, e, list(0.01 * x))
        assert rep.agree and rep.point_multiplicity == 1


class TestPrettyAndJson:
    def test_pretty_trivial_square(self):
        f = monomial(2, (2, 0), Fraction(1))
        assert poly_pretty(f) == "x0^2"

    def test_pretty_chien_nakazato(self, cn_pencil):
        assert poly_pretty(charpoly(cn_pencil)) == (
            "x0^3 + x0^2*x3 - 2*x0*x1^2 - x0*x2^2 - x1^3 - x1^2*x3 + x1*x2^2"
        )

    def test_exact_roundtrip(self, cn_pencil):
        f = charpoly(cn_pencil)
        back = poly_from_json(poly_to_json(f))
        assert back.domain == "exact" and back.terms == f.terms

    def test_float_roundtrip(self):
        rng = np.random.default_rng(3)
        f = charpoly(random_pencil(3, 2, rng))
        back = poly_from_json(poly_to_json(f))
        assert back.terms == pytest.approx(f.terms)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000), st.floats(0.1, 3.0))
def test_charpoly_euler_homogeneity(seed, t):
    rng = np.random.default_rng(seed)
    f = charpoly(random_pencil(3, 2, rng))
    x = list(rng.uniform(-1, 1, 3))
    scaled = evaluate(f, [t * v for v in x])
    assert scaled == pytest.approx(
        t**f.degree * evaluate(f, x), rel=1e-9, abs=1e-12
    )


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000))
def test_restriction_roots_are_eigenvalue_shifts(seed):
    # roots of det((t - a0) I - sum a_i A_i) are a0 + eigenvalues
    rng = np.random.default_rng(seed)
    pencil = random_pencil(3, 2, rng)
    f = charpoly(pencil)
    a = rng.uniform(-1, 1, 3)
    cs = restrict_to_line(f.to_float(), list(-a), [1.0, 0.0, 0.0])
    got = np.sort(roots_univariate(cs).real)
    m = sum(a[k + 1] * pencil.matrices[k].as_array() for k in range(2))
    want = np.sort(a[0] + np.linalg.eigvalsh(m))
    assert np.allclose(got, want, atol=1e-8 * (1 + np.abs(want).max()))


@pytest.mark.parametrize("domain", ["exact", "float"])
def test_str_is_the_pretty_printer(cn_pencil, domain):
    pencil = cn_pencil if domain == "exact" else random_pencil(3, 2, np.random.default_rng(4))
    f = charpoly(pencil)
    assert f.domain == domain
    assert str(f) == poly_pretty(f)
    assert str(lorentz_form(domain)) == poly_pretty(lorentz_form(domain)) == "x0^2 - x1^2 - x2^2"
