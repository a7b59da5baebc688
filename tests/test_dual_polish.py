"""The masked line polish and the array tangent functionals against the
code they replace (`dual_reference`), bit for bit.

The batches are the ones variety sampling makes: restrictions of random
characteristic forms of degree 2 to 6 to random real and complex lines,
started at their roots, at perturbed roots and far away, so that steps
are halved and some rows give up.  Edge rows: a zero derivative, rows
whose halvings all fail, steps whose halvings reach the subnormals, and
an empty batch.  The halving ladder on its own is compared with the
reference's halving in place, subnormal and special steps included.
"""

import numpy as np
import pytest

from numrange.dual import _halvings, _polish_on_lines, sample_variety_points, tangent_functionals
from numrange.poly import MultiPoly, batched_roots, charpoly, restrict_to_line

import dual_reference as ref
from conftest import random_pencil

DEGREES = (2, 3, 4, 5, 6)


def assert_same_bits(got, want):
    assert isinstance(got, np.ndarray)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def random_form(d, seed):
    return charpoly(random_pencil(d, 3, np.random.default_rng(seed))).to_float()


def line_batch(f, lines, use_complex, rng):
    """Rows and root starts as variety sampling builds them, plus the
    same rows started off their roots."""
    shape = (lines, f.nvars)
    base, direc = rng.standard_normal(shape), rng.standard_normal(shape)
    if use_complex:
        base = base + 1j * rng.standard_normal(shape)
        direc = direc + 1j * rng.standard_normal(shape)
    coeffs = restrict_to_line(f, list(base.T), list(direc.T))
    roots = batched_roots(coeffs)
    rows = np.column_stack(coeffs).astype(complex)
    rows = rows[np.repeat(np.arange(lines), [len(r) for r in roots])]
    starts = np.concatenate(roots).astype(complex)
    off = starts + 0.3 * rng.standard_normal(len(starts))
    far = 40.0 * (rng.standard_normal(len(starts)) + 1j * rng.standard_normal(len(starts)))
    return np.concatenate([rows] * 3), np.concatenate([starts, off, far])


@pytest.mark.parametrize("use_complex", [False, True], ids=["real-lines", "complex-lines"])
@pytest.mark.parametrize("d", DEGREES)
def test_polish_matches_reference_on_line_batches(d, use_complex):
    rng = np.random.default_rng(100 + d)
    for seed in range(3):
        rows, starts = line_batch(random_form(d, 10 * d + seed), 40, use_complex, rng)
        assert_same_bits(_polish_on_lines(rows, starts), ref.polish_on_lines(rows, starts))


def pad(rows, width=4):
    return np.array([np.pad(np.asarray(r, complex), (0, width - len(r))) for r in rows])


def test_polish_edge_rows_match_reference():
    rng = np.random.default_rng(7)
    rows, starts = [], []
    # zero derivative: at the start, and everywhere (a constant)
    rows += [[1.0, 0.0, 1.0], [2.0, 0.0, 0.0]]
    starts += [0.0, 0.5]
    # every halving fails: a NaN value, and a Newton step from near the
    # critical point of t^2 + 1 that no halving brings back
    rows += [[np.nan, 1.0, 1.0], [1.0, 0.0, 1.0]]
    starts += [0.5, 1e-8]
    # a double root, where Newton stalls
    rows.append([1.0, -2.0, 1.0])
    starts.append(0.3)
    # t^2 + 1 near the real axis: the steps' imaginary parts are
    # subnormal or nearly so, and halving them rounds
    for _ in range(200):
        tiny = 10.0 ** rng.uniform(-323, -305)
        rows.append([1.0, 0.0, 1.0 + 1j * tiny])
        starts.append(rng.uniform(-3, 3) + 1j * tiny * rng.choice([-1, 1]))
    rows, starts = pad(rows), np.array(starts, dtype=complex)
    got, want = _polish_on_lines(rows, starts), ref.polish_on_lines(rows, starts)
    assert_same_bits(got, want)
    # rows that stop for good keep their start
    assert got[0] == 0.0 and got[1] == 0.5 and got[3] == 1e-8
    assert np.isnan(ref.horner(rows[2:3], got[2:3])[0])


def test_halving_ladder_matches_halving_in_place():
    # every scale down to the least subnormal, where one product by
    # 0.5**j and j halvings round differently, and the special values
    rng = np.random.default_rng(11)
    steps = [
        scale * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
        for scale in (1.0, 1e-300, 1e-310, 1e-320, 5e-324, 1e300)
    ]
    zero = (0.0, -0.0)
    special = [complex(a, b) for a in zero for b in zero]
    special += [complex(np.inf, 1.0), complex(np.nan, 0.0), complex(3e-323, -0.0), complex(-5e-324, 1e-320)]
    steps.append(np.array(special))
    with np.errstate(invalid="ignore"):
        for step in steps + [np.zeros(0, dtype=complex)]:
            assert_same_bits(_halvings(step), ref.halvings(step))


def test_polish_of_an_empty_batch():
    rows, starts = np.zeros((0, 4), dtype=complex), np.zeros(0, dtype=complex)
    assert_same_bits(_polish_on_lines(rows, starts), ref.polish_on_lines(rows, starts))


def assert_same_functionals(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same_bits(a, b)


@pytest.mark.parametrize("d", DEGREES)
def test_tangent_functionals_match_reference(d):
    f = random_form(d, d)
    real = sample_variety_points(f, 20, np.random.default_rng(d))
    cplx = sample_variety_points(f, 10, np.random.default_rng(d), force_complex=True)
    rng = np.random.default_rng(d)
    mixed = [real[0], cplx[0], cplx[1]] + [real[i] for i in rng.permutation(len(real))[:8]] + cplx[2:]
    for pts in (real, cplx, mixed):
        got = tangent_functionals(f, pts)
        assert_same_functionals(got, ref.tangent_functionals(f, pts))
        assert [np.iscomplexobj(v) for v in got] == [np.iscomplexobj(p) for p in pts]


def test_gradients_below_the_floor_are_dropped():
    # x0^2 + x1^2 - x2^2 has gradient 2x: zero at the origin, below
    # 1e-300 near it; a NaN norm is not below the floor and stays
    f = MultiPoly(3, 2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): -1.0}, "float")
    s = np.sqrt(0.5)
    for pts, kept in (
        ([np.array([s, 0.0, s]), np.zeros(3), np.array([0.0, s, -s])], 2),
        ([np.array([s, 0.0, s]), np.zeros(3, dtype=complex), np.array([1j * s, s, 0.0])], 2),
        ([[0.0, 0.0, 0.0], [0.6, 0.8, 1.0]], 1),
        ([np.array([s, 0.0, s]) * 1e-305, np.array([np.nan, s, s]), np.array([s, s, 1.0])], 2),
    ):
        got = tangent_functionals(f, pts)
        assert len(got) == kept
        assert_same_functionals(got, ref.tangent_functionals(f, pts))
    assert tangent_functionals(f, []) == ref.tangent_functionals(f, []) == []
