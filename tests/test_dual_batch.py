"""Block variety sampling and the columnar float form against the
per-trial and per-point code they replace.

`ref_sample_variety_points` is the sampler as it was before the blocks:
one draw, one scalar restriction, one root solve and one damped Newton
polish (`ref_polish_on_line`) per trial, with every point checked by a
scalar evaluate and a gradient that rebuilds each partial derivative.
`ref_monomial_rows` is the per-functional monomial table.
"""

from fractions import Fraction

import numpy as np
import pytest

from numrange.dual import (
    GRADIENT_FLOOR,
    SAMPLE_RESIDUAL_TOL,
    TRIAL_FACTOR,
    DualError,
    InsufficientSamples,
    _monomial_rows,
    _polish_on_lines,
    dual_fit,
    sample_variety_points,
    tangent_functionals,
)
from numrange.examples import builtin_pencil
from numrange.poly import (
    MultiPoly,
    batched_evaluate,
    batched_gradient,
    batched_roots,
    charpoly,
    evaluate,
    gradient,
    homogeneous_exponents,
    partial_derivative,
    restrict_to_line,
    roots_univariate,
)

from conftest import random_pencil

BUILTINS = ("cayley", "drop", "chien-nakazato", "qubit-disk")
RANDOM_SHAPES = ((2, 2), (2, 3), (3, 2), (4, 2))


def ref_gradient(f, x):
    return [evaluate(partial_derivative(f, j), x) for j in range(f.nvars)]


def ref_polish_on_line(coeffs, t, steps=12):
    deriv = [k * coeffs[k] for k in range(1, len(coeffs))]

    def ev(cs, z):
        acc = 0.0 + 0.0j
        for c in reversed(cs):
            acc = acc * z + c
        return acc

    val = ev(coeffs, t)
    for _ in range(steps):
        dv = ev(deriv, t)
        if abs(dv) == 0.0:
            break
        step = val / dv
        for _ in range(20):
            cand = t - step
            cval = ev(coeffs, cand)
            if abs(cval) <= abs(val):
                t, val = cand, cval
                break
            step *= 0.5
        else:
            break
    return t


def ref_sample_variety_points(f, count, gen, force_complex=False):
    """(points, kept trial indices); raises InsufficientSamples."""
    fl = f.to_float()
    cscale = fl.coeff_scale()
    nv = fl.nvars
    out, kept = [], []
    budget = TRIAL_FACTOR * count
    for trial in range(budget):
        use_complex = force_complex or trial >= budget // 2
        if use_complex:
            base = gen.standard_normal(nv) + 1j * gen.standard_normal(nv)
            direc = gen.standard_normal(nv) + 1j * gen.standard_normal(nv)
        else:
            base = gen.standard_normal(nv)
            direc = gen.standard_normal(nv)
        coeffs = restrict_to_line(fl, base, direc)
        cs = [complex(c) for c in coeffs]
        top = max(abs(c) for c in cs)
        if top == 0.0:
            continue
        dcs = [k * cs[k] for k in range(1, len(cs))]
        for t in roots_univariate(cs):
            t = ref_polish_on_line(cs, complex(t))
            dv = sum(c * t**k for k, c in enumerate(dcs))
            if abs(dv) <= 1e-6 * top * (1.0 + abs(t)) ** max(fl.degree - 1, 0):
                continue
            x = base + t * direc
            if not use_complex:
                if abs(t.imag) > 1e-9 * (1.0 + abs(t)):
                    continue
                x = x.real
            nrm = float(np.linalg.norm(x))
            if nrm < 1e-12:
                continue
            x = x / nrm
            local = cscale * (1.0 + float(np.max(np.abs(x)))) ** fl.degree
            if abs(evaluate(fl, list(x))) > SAMPLE_RESIDUAL_TOL * local:
                continue
            g = np.array(ref_gradient(fl, list(x)))
            gscale = cscale * (1.0 + float(np.max(np.abs(x)))) ** max(fl.degree - 1, 0)
            if float(np.linalg.norm(g)) <= GRADIENT_FLOOR * gscale:
                continue
            out.append(x)
            kept.append(trial)
            if len(out) >= count:
                return out, kept
    raise InsufficientSamples(
        f"found {len(out)} of {count} regular points in {budget} line trials"
    )


def ref_monomial_rows(functionals, exponents):
    rows = []
    for ell in functionals:
        vals = []
        for exp in exponents:
            v = 1.0 + 0.0j
            for base, e in zip(ell, exp):
                if e:
                    v *= complex(base) ** e
            vals.append(v)
        vals = np.array(vals)
        if np.max(np.abs(vals.imag)) > 1e-14:
            rows.append(vals.real)
            rows.append(vals.imag)
        else:
            rows.append(vals.real)
    return np.array(rows)


def random_form(d, n, seed):
    return charpoly(random_pencil(d, n, np.random.default_rng(seed)))


def sum_of_squares():
    # no real points at all: every sample comes from the complex lines
    return MultiPoly(3, 2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}, "float")


def cases():
    out = [(name, charpoly(builtin_pencil(name))) for name in BUILTINS]
    out += [(f"random-d{d}-n{n}", random_form(d, n, 10 * d + n)) for d, n in RANDOM_SHAPES]
    out.append(("sum-of-squares", sum_of_squares()))
    return out


CASES = cases()
IDS = [name for name, _ in CASES]


def assert_same_points(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert np.iscomplexobj(x) == np.iscomplexobj(y)
        assert np.max(np.abs(x - y)) <= 1e-12


@pytest.mark.parametrize("force_complex", [False, True], ids=["lines", "complex-lines"])
@pytest.mark.parametrize("name,f", CASES, ids=IDS)
def test_block_sampler_matches_per_trial_loop(name, f, force_complex):
    for seed, count in ((3, 7), (11, 40)):
        ref_gen, gen = np.random.default_rng(seed), np.random.default_rng(seed)
        want, kept = ref_sample_variety_points(f, count, ref_gen, force_complex)
        got = sample_variety_points(f, count, gen, force_complex=force_complex)
        assert_same_points(got, want)
        # the generator ends where the per-trial loop ended
        assert gen.standard_normal() == ref_gen.standard_normal()
        if name == "sum-of-squares" and not force_complex:
            assert min(kept) >= TRIAL_FACTOR * count // 2


def test_exact_domain_input_matches_float_form():
    f = charpoly(builtin_pencil("chien-nakazato"))
    assert f.domain == "exact"
    got = sample_variety_points(f, 30, np.random.default_rng(5))
    again = sample_variety_points(f.to_float(), 30, np.random.default_rng(5))
    want, _ = ref_sample_variety_points(f, 30, np.random.default_rng(5))
    assert_same_points(got, want)
    assert_same_points(again, want)


def test_three_draws_on_one_stream_match():
    # dual_fit samples three times from one generator
    f = random_form(3, 2, 4)
    ref_gen, gen = np.random.default_rng(17), np.random.default_rng(17)
    for count, force in ((50, False), (20, True), (30, False)):
        want, _ = ref_sample_variety_points(f, count, ref_gen, force)
        got = sample_variety_points(f, count, gen, force_complex=force)
        assert_same_points(got, want)
    assert np.array_equal(gen.standard_normal(4), ref_gen.standard_normal(4))


def test_vector_polish_matches_per_root_polish():
    # starts far from the roots, so that steps get halved and some rows
    # give up; double roots, where Newton stalls
    rng = np.random.default_rng(12)
    rows, starts = [], []
    for deg in (2, 3, 5):
        for _ in range(20):
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            for t in (0.0, 3.0 + 2.0j, 40.0 * rng.standard_normal()):
                rows.append(np.pad(c, (0, 6 - len(c))))
                starts.append(t)
    rows.append(np.array([1.0, -2.0, 1.0, 0, 0, 0], dtype=complex))  # (t - 1)^2
    starts.append(0.3)
    got = _polish_on_lines(np.array(rows), np.array(starts, dtype=complex))
    for c, t0, t in zip(rows, starts, got):
        want = ref_polish_on_line([complex(v) for v in np.trim_zeros(c, "b")], complex(t0))
        assert abs(t - want) <= 1e-12 * (1.0 + abs(want))


@pytest.mark.parametrize(
    "f",
    [
        MultiPoly(4, 2, {(2, 0, 0, 0): Fraction(1)}, "exact"),
        MultiPoly(3, 2, {(2, 0, 0): 1.0}, "float"),
    ],
    ids=["double-hyperplane", "double-line"],
)
def test_insufficient_samples_same_message_and_end_state(f):
    ref_gen, gen = np.random.default_rng(2), np.random.default_rng(2)
    with pytest.raises(InsufficientSamples) as want:
        ref_sample_variety_points(f, 12, ref_gen)
    with pytest.raises(InsufficientSamples) as got:
        sample_variety_points(f, 12, gen)
    assert str(got.value) == str(want.value)
    assert gen.bit_generator.state == ref_gen.bit_generator.state


def test_constant_form_refused():
    with pytest.raises(DualError):
        sample_variety_points(MultiPoly(2, 0, {(0, 0): 1.0}, "float"), 5)


def term_scale(f, x):
    # sum of |c x^e|: the scale of the roundoff in a value of f at x
    return sum(abs(c) * abs(evaluate(MultiPoly(f.nvars, f.degree, {e: 1.0}, "float"), x))
               for e, c in f.terms.items())


@pytest.mark.parametrize("name,f", CASES, ids=IDS)
def test_batch_evaluate_and_gradient_match_scalar(name, f):
    fl = f.to_float()
    rng = np.random.default_rng(8)
    real = rng.standard_normal((25, fl.nvars))
    cplx = real + 1j * rng.standard_normal((25, fl.nvars))
    for pts in (real, cplx):
        vals = batched_evaluate(f, pts)
        grads = batched_gradient(f, pts)
        assert vals.shape == (len(pts),) and grads.shape == pts.shape
        for x, v, g in zip(pts, vals, grads):
            x = list(x)
            assert abs(v - evaluate(fl, x)) <= 1e-13 * term_scale(fl, x)
            want = ref_gradient(fl, x)
            assert gradient(fl, x) == want
            for j, w in enumerate(want):
                assert abs(g[j] - w) <= 1e-13 * term_scale(partial_derivative(fl, j), x)


def test_float_form_is_cached_on_the_instance():
    f = random_form(3, 2, 1)
    assert f._float_form is None
    batched_gradient(f, np.ones((2, f.nvars)))
    form = f._float_form
    assert form is not None
    gradient(f, [1.0, 2.0, 3.0])
    assert f._float_form is form
    # a new polynomial starts with no form
    assert f.scale(2.0)._float_form is None
    exact = charpoly(builtin_pencil("drop"))
    assert exact.to_float() is exact.to_float()


def test_exact_gradient_stays_exact():
    f = charpoly(builtin_pencil("cayley"))
    g = gradient(f, [Fraction(1), Fraction(1, 3), Fraction(2), Fraction(-1, 7)])
    assert all(isinstance(v, Fraction) for v in g)
    assert f._float_form is None


def test_complex_rows_match_np_roots_row_by_row():
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((30, 5)) + 1j * rng.standard_normal((30, 5))
    rows[3, 4] = 1e-15           # trimmed leading coefficient
    rows[5, 0] = 0.0             # zero root
    rows[7] = 0.0                # no roots at all
    rows[9].imag = 1e-9          # solved as a real row
    got = batched_roots(list(rows.T))
    for row, roots in zip(rows, got):
        want = roots_univariate(row)
        assert len(roots) == len(want)
        assert np.array_equal(np.sort_complex(np.asarray(roots, complex)),
                              np.sort_complex(np.asarray(want, complex)))


def test_restriction_with_direction_columns_matches_scalar_calls():
    f = random_form(3, 3, 6).to_float()
    rng = np.random.default_rng(9)
    base = rng.standard_normal((12, f.nvars)) + 1j * rng.standard_normal((12, f.nvars))
    direc = rng.standard_normal((12, f.nvars))
    cols = restrict_to_line(f, list(base.T), list(direc.T))
    for i in range(12):
        want = restrict_to_line(f, list(base[i]), list(direc[i]))
        for k, w in enumerate(want):
            assert abs(cols[k][i] - w) <= 1e-12 * max(1.0, abs(w))
    direc[4] = 0.0
    with pytest.raises(ValueError, match="nonzero"):
        restrict_to_line(f, list(base.T), list(direc.T))


@pytest.mark.parametrize("name,f", CASES[:5] + CASES[-1:], ids=IDS[:5] + IDS[-1:])
def test_tangent_functionals_and_monomial_rows_match_per_point(name, f):
    fl = f.to_float()
    pts = sample_variety_points(f, 30, np.random.default_rng(1))
    pts += sample_variety_points(f, 10, np.random.default_rng(2), force_complex=True)
    funcs = tangent_functionals(f, pts)
    assert len(funcs) == len(pts)
    for ell, x in zip(funcs, pts):
        g = np.array(ref_gradient(fl, list(x)))
        assert np.iscomplexobj(ell) == np.iscomplexobj(x)
        assert np.max(np.abs(ell - g / np.linalg.norm(g))) <= 1e-13
    for degree in (1, 2, 4):
        exps = list(homogeneous_exponents(fl.nvars, degree))
        got, want = _monomial_rows(funcs, exps), ref_monomial_rows(funcs, exps)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("name,degree", [("qubit-disk", 2), ("drop", 3), ("cayley", 4)])
def test_dual_fit_degrees_unchanged(name, degree):
    result = dual_fit(charpoly(builtin_pencil(name)).to_float(), 4, rng=np.random.default_rng(1))
    assert result.degree == degree
    assert result.residual_rms <= 1e-6
