"""The closed-form cone boundary against the bisection it replaced, and
the paper's normal route at the boundary points it returns.

`bisection_boundary` is the bracket-and-bisection sampler the package
used before the closed form, with its margins computed here rather
than by the package: the least eigenvalue of x0 I + sum x_k A_k on the
eigen route, the least root of the line restriction on the roots route.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from numrange.cones import make_cone_spec, normal_ray, sample_cone_boundary
from numrange.examples import builtin_pencil
from numrange.poly import MultiPoly, charpoly, restrict_to_line, roots_univariate

from conftest import random_pencil


def _eigen_margin(pencil):
    stack = pencil.stack()

    def margin_at(x) -> float:
        h = x[0] * np.eye(pencil.d) + np.tensordot(x[1:], stack, axes=1)
        return float(np.linalg.eigvalsh(h)[0])

    return margin_at


def _roots_margin(spec):
    fl = spec.f.to_float()
    ee = list(spec.e)

    def margin_at(x) -> float:
        rs = [float(r.real) for r in roots_univariate(restrict_to_line(fl, list(-x), ee))]
        return min(rs) if rs else math.inf

    return margin_at


def bisection_boundary(spec, margin_at, count, gen):
    """Returns the points and the number of rays drawn."""
    e = np.asarray(spec.e, dtype=float)
    out = []
    attempts = 0
    while len(out) < count and attempts < 60 * count:
        attempts += 1
        a = gen.standard_normal(spec.f.nvars)
        ray = a - e
        nrm = float(np.linalg.norm(ray))
        if nrm < 1e-12:
            continue
        ray /= nrm

        def g(t: float) -> float:
            return margin_at(e + t * ray)

        t_hi = 1.0
        t_lo = 0.0
        found = False
        for _ in range(60):
            if g(t_hi) <= 0.0:
                found = True
                break
            t_lo = t_hi
            t_hi *= 1.9
        if not found:
            continue
        for _ in range(90):
            mid = 0.5 * (t_lo + t_hi)
            if g(mid) <= 0.0:
                t_hi = mid
            else:
                t_lo = mid
        out.append(e + 0.5 * (t_lo + t_hi) * ray)
    return out, attempts


def lorentz_spec():
    terms = {
        (2, 0, 0, 0): Fraction(1),
        (0, 2, 0, 0): Fraction(-1),
        (0, 0, 2, 0): Fraction(-1),
        (0, 0, 0, 2): Fraction(-1),
    }
    return make_cone_spec(MultiPoly(4, 2, terms, "exact"), (1, 0, 0, 0))


def bare_cubic_spec():
    """The chien-nakazato cubic without its pencil: the roots route."""
    return make_cone_spec(charpoly(builtin_pencil("chien-nakazato")), (1, 0, 0, 0))


def pencil_spec(d, n):
    pencil = random_pencil(d, n, np.random.default_rng(10 * d + n))
    spec = make_cone_spec(charpoly(pencil), (1.0,) + (0.0,) * n, pencil=pencil)
    return spec, _eigen_margin(pencil)


def assert_same_as_bisection(spec, margin_at, count, seed):
    got_gen = np.random.default_rng(seed)
    want_gen = np.random.default_rng(seed)
    got = sample_cone_boundary(spec, count, rng=got_gen)
    want, attempts = bisection_boundary(spec, margin_at, count, want_gen)
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)
    assert got_gen.standard_normal() == want_gen.standard_normal()
    return attempts


@pytest.mark.parametrize("d,n", [(2, 2), (3, 3), (4, 2), (5, 3)])
def test_eigen_route_matches_bisection(d, n):
    spec, margin_at = pencil_spec(d, n)
    assert spec.pencil is not None
    assert_same_as_bisection(spec, margin_at, 40, seed=d + n)


def test_lorentz_roots_route_matches_bisection_and_skips():
    spec = lorentz_spec()
    attempts = assert_same_as_bisection(spec, _roots_margin(spec), 40, seed=4)
    # some rays point into the cone and never leave it
    assert attempts > 40


def test_cubic_roots_route_matches_bisection():
    spec = bare_cubic_spec()
    assert spec.pencil is None
    assert_same_as_bisection(spec, _roots_margin(spec), 25, seed=5)


def test_paper_normal_route_matches_gradient_normal(cn_pencil):
    """At a boundary point x with a simple kernel vector v of
    x0 I + sum x_k A_k, the outward normal is (1, <v,A_1 v>, ...,
    <v,A_n v>) up to scale: a point of the joint range in the chart."""
    spec = make_cone_spec(charpoly(cn_pencil), (1, 0, 0, 0), pencil=cn_pencil)
    stack = cn_pencil.stack()
    pts = sample_cone_boundary(spec, 200, rng=np.random.default_rng(12))
    assert len(pts) == 200
    for x in pts:
        h = x[0] * np.eye(cn_pencil.d) + np.tensordot(x[1:], stack, axes=1)
        values, vectors = np.linalg.eigh(h)
        assert values[1] - values[0] > 1e-6 * (1.0 + np.linalg.norm(x))
        v = vectors[:, 0]
        contact = np.array([1.0] + [np.vdot(v, a @ v).real for a in stack])
        ell = np.asarray(normal_ray(spec, x).ell)
        gap = np.linalg.norm(contact / np.linalg.norm(contact) - ell / np.linalg.norm(ell))
        assert gap <= 1e-10, (x, gap)
