"""The Taylor table and the determinant pencil match against the scalar
checks they replaced (tests/cone_reference.py).

A float form's multiplicity lemma reads its order and both line
restrictions off one Taylor table; the reference expands f(x + y) term
by term and restricts f to each line with a scalar call.  The reports
must be identical, and the shifted coefficients equal to roundoff.
"""

from fractions import Fraction

import numpy as np
import pytest

import cone_reference as ref
from numrange.cones import ConeError, _check_pencil_match, make_cone_spec, sample_cone_boundary
from numrange.dual import dual_fit
from numrange.examples import builtin_pencil
from numrange.poly import (
    MultiPoly,
    NotOnVariety,
    _taylor_coeffs,
    _taylor_shift,
    _taylor_table,
    batched_evaluate,
    charpoly,
    check_multiplicity_lemma,
    multiplicity_at,
)

from conftest import random_pencil


def _assert_same_shift(f, x):
    got = _taylor_coeffs(f, np.array([x], dtype=float))[0]
    want = _taylor_shift(f, x)
    k_exps = _taylor_table(f)[3]
    assert sorted(map(tuple, k_exps.tolist())) == sorted(want)
    want = np.array([want[tuple(k)] for k in k_exps.tolist()])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _assert_same_lemma(f, e, x):
    assert check_multiplicity_lemma(f, e, x) == ref.check_multiplicity_lemma(f, e, x)
    _assert_same_shift(f, x)


def test_criterion_08_points_match_reference():
    # the draws of test_criterion_08_contact_multiplicities_agree
    rng = np.random.default_rng(8)
    for case in range(50):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2, 4))
        pencil = random_pencil(d, n, rng)
        f = charpoly(pencil)
        e = tuple(1.0 if k == 0 else 0.0 for k in range(n + 1))
        spec = make_cone_spec(f, e, pencil=pencil, rng=rng)
        for x in sample_cone_boundary(spec, 10, rng=rng):
            _assert_same_lemma(f, e, list(x))


@pytest.mark.parametrize("n", [2, 3])
def test_degree_five_points_match_reference(n):
    rng = np.random.default_rng(50 + n)
    e = (1.0,) + (0.0,) * n
    for _ in range(8):
        pencil = random_pencil(5, n, rng)
        f = charpoly(pencil)
        spec = make_cone_spec(f, e, pencil=pencil, rng=rng)
        for x in sample_cone_boundary(spec, 10, rng=rng):
            _assert_same_lemma(f, e, list(x))
            # toward the apex the restrictions shrink but the order holds
            _assert_same_lemma(f, e, list(0.01 * x))


def test_root_route_points_match_reference(cn_pencil):
    f = charpoly(cn_pencil).to_float()
    e = (1.0, 0.0, 0.0, 0.0)
    spec = make_cone_spec(f, e, rng=np.random.default_rng(0))
    for x in sample_cone_boundary(spec, 40, rng=np.random.default_rng(1)):
        _assert_same_lemma(f, e, list(x))
    _assert_same_lemma(f, e, [0.0, 0.0, 0.0, 1.0])


def test_not_on_variety_where_the_reference_says_so():
    rng = np.random.default_rng(3)
    pencil = random_pencil(4, 3, rng)
    f = charpoly(pencil)
    e = (1.0, 0.0, 0.0, 0.0)
    spec = make_cone_spec(f, e, pencil=pencil, rng=rng)
    on = list(sample_cone_boundary(spec, 20, rng=rng))
    off = [x + 0.1 * rng.standard_normal(4) for x in on] + list(rng.standard_normal((20, 4)))
    for x in on:
        assert multiplicity_at(f, x) == ref.multiplicity_at(f, x)
    for x in off:
        for check in (ref.multiplicity_at, multiplicity_at):
            with pytest.raises(NotOnVariety):
                check(f, x)
        for check in (ref.check_multiplicity_lemma, check_multiplicity_lemma):
            with pytest.raises(NotOnVariety):
                check(f, e, x)
    zero = MultiPoly(3, 2, {}, "float")
    for x in ([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]):
        for check in (ref.multiplicity_at, multiplicity_at):
            with pytest.raises(NotOnVariety):
                check(zero, x)
        for check in (ref.check_multiplicity_lemma, check_multiplicity_lemma):
            with pytest.raises(NotOnVariety):
                check(zero, (1.0, 0.0, 0.0), x)


def _lorentz():
    one = Fraction(1)
    return MultiPoly(3, 2, {(2, 0, 0): one, (0, 2, 0): -one, (0, 0, 2): -one}, "exact")


@pytest.mark.parametrize(
    "name, points",
    [
        ("lorentz", [(1, 1, 0), (0, 0, 0), (5, 3, 4), (13, -5, 12), (1, 0, -1)]),
        (
            "chien-nakazato",
            [(0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (1, -1, 0, 0), (1, -1, 0, 2), (2, -2, 0, -3)],
        ),
    ],
)
def test_exact_forms_match_their_float_table(name, points):
    f = _lorentz() if name == "lorentz" else charpoly(builtin_pencil(name))
    assert f.domain == "exact"
    e = (1,) + (0,) * (f.nvars - 1)
    for x in points:
        exact = check_multiplicity_lemma(f, e, x)
        assert check_multiplicity_lemma(f.to_float(), e, x) == exact
        assert multiplicity_at(f.to_float(), x) == multiplicity_at(f, x)


def test_table_is_built_on_the_first_multiplicity_call():
    pencil = random_pencil(2, 2, np.random.default_rng(4))
    f = charpoly(pencil)
    batched_evaluate(f, np.ones((2, 3)))
    dual_fit(f, 2, rng=np.random.default_rng(0))
    assert f._float_form is not None and f._taylor is None
    e = (1.0, 0.0, 0.0)
    spec = make_cone_spec(f, e, pencil=pencil, rng=np.random.default_rng(0))
    assert f._taylor is None
    first, second = sample_cone_boundary(spec, 2, rng=np.random.default_rng(0))
    check_multiplicity_lemma(f, e, first)
    table = f._taylor
    assert table is not None
    check_multiplicity_lemma(f, e, second)
    assert f._taylor is table


def _bumped(f, exp, delta):
    terms = dict(f.terms)
    terms[exp] += delta
    return MultiPoly(f.nvars, f.degree, terms, f.domain)


def test_pencil_match_accepts_charpolys_and_rejects_bumped_coefficients():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        pencil = random_pencil(int(rng.integers(2, 6)), int(rng.integers(2, 4)), rng)
        f = charpoly(pencil)
        _check_pencil_match(f, pencil)
        ref.check_pencil_match(f, pencil)
        exps = sorted(f.terms)
        exp = exps[int(rng.integers(len(exps)))]
        for sign in (1.0, -1.0):
            bumped = _bumped(f, exp, sign * 1e-6 * f.coeff_scale())
            for check in (ref.check_pencil_match, _check_pencil_match):
                with pytest.raises(ConeError):
                    check(bumped, pencil)


def test_pencil_match_on_an_exact_pencil_with_a_float_form(cn_pencil):
    f = charpoly(cn_pencil).to_float()
    _check_pencil_match(f, cn_pencil)
    with pytest.raises(ConeError):
        _check_pencil_match(_bumped(f, (0, 1, 2, 0), 1e-6), cn_pencil)
