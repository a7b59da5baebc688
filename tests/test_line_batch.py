"""Batched line restriction and root solving against the per-line code
they replace.

`per_trial_check` is the hyperbolicity certificate as it was before the
batch: one draw, one restriction and one root solve per trial, stopping
at the first witness.
"""

from fractions import Fraction

import numpy as np
import pytest

from numrange.cones import _line_roots, make_cone_spec
from numrange.examples import builtin_pencil
from numrange.poly import (
    REAL_ROOT_TOL,
    WITNESS_IMAG_TOL,
    HyperbolicityCertificate,
    MultiPoly,
    batched_roots,
    charpoly,
    evaluate,
    hyperbolicity_check,
    restrict_to_line,
    roots_univariate,
)

from conftest import random_pencil


def per_trial_check(f, e, trials, rng):
    e = [float(v) for v in e]
    ff = f.to_float()
    assert evaluate(ff, e) > 0
    gray = False
    for k in range(trials):
        a = rng.standard_normal(f.nvars)
        roots = roots_univariate(restrict_to_line(ff, list(-a), e))
        if len(roots) == 0:
            continue
        rscale = 1.0 + float(np.max(np.abs(roots)))
        worst = float(np.max(np.abs(roots.imag)))
        if worst > WITNESS_IMAG_TOL * rscale:
            return HyperbolicityCertificate(
                tuple(e), "not_hyperbolic", tuple(float(v) for v in a), k + 1
            )
        if worst > REAL_ROOT_TOL * rscale:
            gray = True
    verdict = "inconclusive" if gray else "hyperbolic"
    return HyperbolicityCertificate(tuple(e), verdict, None, trials)


def lorentz():
    return MultiPoly(3, 2, {(2, 0, 0): 1.0, (0, 2, 0): -1.0, (0, 0, 2): -1.0}, "float")


def forms():
    """(name, float form, hyperbolic direction)."""
    out = [
        ("chien-nakazato", charpoly(builtin_pencil("chien-nakazato")).to_float(), (1, 0, 0, 0)),
        ("drop", charpoly(builtin_pencil("drop")).to_float(), (1, 0, 0, 0)),
        ("lorentz", lorentz(), (1, 0, 0)),
    ]
    rng = np.random.default_rng(41)
    for d, n in ((2, 2), (3, 3), (5, 3)):
        f = charpoly(random_pencil(d, n, rng)).to_float()
        out.append((f"pencil-{d}x{n}", f, (1,) + (0,) * n))
    return out


FORMS = forms()
IDS = [name for name, _, _ in FORMS]


@pytest.mark.parametrize("name,f,e", FORMS, ids=IDS)
def test_restriction_batch_matches_scalar_calls(name, f, e):
    rng = np.random.default_rng(5)
    bases = rng.standard_normal((60, f.nvars))
    for direction in (list(e), list(rng.standard_normal(f.nvars))):
        columns = restrict_to_line(f, list(bases.T), direction)
        assert len(columns) == f.degree + 1
        rows = np.column_stack(columns)
        for base, row in zip(bases, rows):
            want = np.array(restrict_to_line(f, list(base), direction), dtype=float)
            assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))


def test_restriction_scalar_call_stays_exact():
    f = MultiPoly(3, 2, {(2, 0, 0): Fraction(1), (0, 1, 1): Fraction(-3, 2)}, "exact")
    cs = restrict_to_line(f, [Fraction(1, 3), 2, -1], [1, 0, Fraction(1, 2)])
    assert all(isinstance(c, Fraction) for c in cs)
    assert cs == [Fraction(1, 9) + 3, Fraction(2, 3) - Fraction(3, 2), 1]


def test_restriction_batch_of_no_lines():
    f = lorentz()
    columns = restrict_to_line(f, list(np.zeros((0, 3)).T), [1.0, 0.0, 0.0])
    assert [c.shape for c in columns] == [(0,)] * 3
    assert batched_roots(columns) == []


def _sorted(roots):
    return np.sort_complex(np.asarray(roots, dtype=complex))


def test_batched_roots_match_np_roots_row_by_row():
    rng = np.random.default_rng(8)
    rows = rng.standard_normal((40, 6))
    rows[3, -1] = 1e-15 * np.max(np.abs(rows[3]))  # trimmed leading coefficient
    rows[4, 0] = 0.0  # zero constant term: a root at 0
    rows[5] = 0.0  # the zero polynomial
    rows[6, -2:] = 0.0  # two trimmed coefficients
    got = batched_roots(list(rows.T))
    assert len(got) == len(rows)
    for k, row in enumerate(rows):
        keep = len(row)
        while keep and abs(row[keep - 1]) <= 1e-13 * np.max(np.abs(row)):
            keep -= 1
        want = np.roots(row[:keep][::-1]) if keep > 1 else np.array([])
        assert len(got[k]) == len(want), k
        if len(want):
            scale = 1.0 + np.max(np.abs(want))
            assert np.max(np.abs(_sorted(got[k]) - _sorted(want))) <= 1e-12 * scale, k
    assert len(got[3]) == 4 and len(got[6]) == 3 and len(got[5]) == 0
    assert np.min(np.abs(got[4])) == 0.0


def test_one_row_batch_matches_roots_univariate():
    row = [6.0, -5.0, -2.0, 1.0]
    (got,) = batched_roots([np.array([c]) for c in row])
    assert np.array_equal(_sorted(got), _sorted(roots_univariate(row)))


@pytest.mark.parametrize("name,f,e", FORMS, ids=IDS)
def test_certificate_matches_per_trial_loop(name, f, e):
    for seed in (0, 3):
        g_new, g_old = np.random.default_rng(seed), np.random.default_rng(seed)
        got = hyperbolicity_check(f, e, trials=200, rng=g_new)
        want = per_trial_check(f, e, 200, g_old)
        assert got.verdict == want.verdict == "hyperbolic"
        assert got.samples_checked == want.samples_checked == 200
        assert g_new.standard_normal() == g_old.standard_normal()


def test_definite_quadric_witness_matches_per_trial_loop():
    f = MultiPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0}, "float")
    for seed in (0, 1, 2):
        got = hyperbolicity_check(f, (1, 0), rng=np.random.default_rng(seed))
        want = per_trial_check(f, (1, 0), 200, np.random.default_rng(seed))
        assert got.verdict == want.verdict == "not_hyperbolic"
        assert got.witness == want.witness
        assert got.samples_checked == want.samples_checked


def _near_real_quadric(seed, trials, target):
    """x0^2 + delta^2 x1^2, with delta set so that the largest ratio
    |Im root| / (1 + |root|) over the seed's trials is about `target`:
    the roots of t -> f(t e - a) are a0 +- i delta |a1|."""
    a = np.random.default_rng(seed).standard_normal((trials, 2))
    delta = target / np.max(np.abs(a[:, 1]) / (1.0 + np.abs(a[:, 0])))
    return MultiPoly(2, 2, {(2, 0): 1.0, (0, 2): delta**2}, "float")


def test_gray_band_is_inconclusive_like_the_loop():
    # ratios up to 4e-7: inside the band (1e-7, 1e-6]
    f = _near_real_quadric(11, 50, 4e-7)
    g_new, g_old = np.random.default_rng(11), np.random.default_rng(11)
    got = hyperbolicity_check(f, (1, 0), trials=50, rng=g_new)
    want = per_trial_check(f, (1, 0), 50, g_old)
    assert got == want
    assert got.verdict == "inconclusive" and got.samples_checked == 50
    assert g_new.standard_normal() == g_old.standard_normal()


def test_witness_outranks_an_earlier_gray_row():
    # ratios up to 3e-6: some rows gray, some witnesses
    f = _near_real_quadric(10, 50, 3e-6)
    got = hyperbolicity_check(f, (1, 0), trials=50, rng=np.random.default_rng(10))
    want = per_trial_check(f, (1, 0), 50, np.random.default_rng(10))
    assert got == want and got.verdict == "not_hyperbolic"
    assert got.samples_checked == 8  # rows 1-7 gray or real, row 8 the witness


@pytest.mark.parametrize("name", ["chien-nakazato", "lorentz"])
def test_line_roots_batch_matches_per_point(name):
    f, e = {n: (f, e) for n, f, e in FORMS}[name]
    spec = make_cone_spec(f, e, rng=np.random.default_rng(0))
    points = np.random.default_rng(2).standard_normal((80, f.nvars))
    method, got = _line_roots(spec, points)
    assert method == "roots" and len(got) == len(points)
    for x, roots in zip(points, got):
        want = np.sort(roots_univariate(restrict_to_line(f, list(-x), list(e))).real)
        assert roots.shape == want.shape
        assert np.all(np.abs(roots - want) <= 1e-12 * (1.0 + np.abs(want)))
