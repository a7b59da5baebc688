import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from numrange.linalg import (
    DensityMatrix,
    DimensionMismatch,
    GaussianRational,
    HermitianMatrix,
    MatrixPencil,
    NonHermitianInput,
    eig_hermitian,
    pairing,
    parse_rational,
    pencil_from_json,
    rational_str,
    sample_mixed_state,
    sample_pure_state,
)
from numrange.poly import MultiPoly, hyperbolicity_check
from numrange.ranges import direction_grid

from conftest import random_hermitian, random_pencil
from jacobi_reference import jacobi_eigh
from support import pencil_to_json


class TestGaussianRational:
    def test_arithmetic_stays_exact(self):
        a = GaussianRational(Fraction(1, 3), Fraction(1, 2))
        b = GaussianRational(Fraction(2, 3), Fraction(-1, 2))
        assert (a + b).re == 1
        assert (a + b).im == 0
        prod = a * b
        assert prod.re == Fraction(1, 3) * Fraction(2, 3) + Fraction(1, 4)
        assert a.conjugate().im == Fraction(-1, 2)

    def test_rational_roundtrip(self):
        for s in ("3", "-2/7", "0"):
            assert rational_str(parse_rational(s)) == s

    def test_parse_rejects_non_integral_float(self):
        with pytest.raises(ValueError):
            parse_rational(0.3)


class TestHermitianMatrix:
    def test_rejects_asymmetric_float(self):
        with pytest.raises(NonHermitianInput):
            HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            HermitianMatrix(np.zeros((2, 3)))

    def test_exact_entries_must_conjugate(self):
        g = GaussianRational
        with pytest.raises(NonHermitianInput):
            HermitianMatrix([[g(0), g(0, 1)], [g(0, 1), g(0)]], "exact")

    def test_pencil_rejects_mixed_domains(self):
        g = GaussianRational
        exact = HermitianMatrix([[g(1)]], "exact")
        flt = HermitianMatrix(np.array([[1.0]]))
        with pytest.raises(ValueError):
            MatrixPencil([exact, flt])


class TestJacobi:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_matches_numpy_eigenvalues(self, d):
        rng = np.random.default_rng(d)
        for _ in range(10):
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            m = 0.5 * (m + m.conj().T)
            rows = [[complex(m[i, j]) for j in range(d)] for i in range(d)]
            values, vectors, _ = jacobi_eigh(rows, d)
            want = np.linalg.eigvalsh(m)
            got = np.sort(np.array(values))
            assert np.max(np.abs(got - want)) <= 1e-10 * (1.0 + np.linalg.norm(m))

    def test_eigensystem_reconstructs_matrix(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m = 0.5 * (m + m.conj().T)
        eig = eig_hermitian(m)
        v = eig.vectors
        assert np.allclose(v.conj().T @ v, np.eye(6), atol=1e-10)
        rebuilt = v @ np.diag(eig.values) @ v.conj().T
        assert np.allclose(rebuilt, m, atol=1e-9)
        assert list(eig.values) == sorted(eig.values)

    def test_degenerate_grouping(self):
        eig = eig_hermitian(np.diag([1.0, 1.0, 3.0]))
        assert eig.groups == ((0, 1), (2,))
        assert not eig.simple(0)
        assert eig.simple(2)

    def test_rejects_asymmetric(self):
        with pytest.raises(NonHermitianInput):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPairingAndStates:
    def test_pairing_is_trace_product(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(4, rng)
        b = random_hermitian(4, rng)
        want = float(np.real(np.trace(a.as_array() @ b.as_array())))
        assert pairing(a, b) == pytest.approx(want, abs=1e-12)

    def test_exact_pairing_is_rational(self):
        g = GaussianRational
        a = HermitianMatrix([[g(1), g(0, 1)], [g(0, -1), g(2)]], "exact")
        assert pairing(a, a) == Fraction(7)

    @pytest.mark.parametrize("sampler", [sample_pure_state, sample_mixed_state])
    def test_states_are_density_matrices(self, sampler):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rho = sampler(3, rng)
            arr = rho.as_array()
            assert abs(np.trace(arr).real - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(arr).min() >= -1e-10

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_expectations_lie_in_range_hull_certificate(self):
        rng = np.random.default_rng(5)
        pencil = random_pencil(3, 2, rng)
        rho = sample_mixed_state(3, rng)
        y = rho.expectations(pencil)
        # support bound: <u, y> <= lambda_max(sum u_i A_i) for every u
        for _ in range(25):
            u = rng.standard_normal(2)
            m = sum(
                float(c) * mat.as_array()
                for c, mat in zip(u, pencil.matrices)
            )
            assert float(u @ y) <= np.linalg.eigvalsh(m).max() + 1e-10


class TestSerialization:
    def test_exact_roundtrip(self, cn_pencil):
        text = pencil_to_json(cn_pencil)
        back = pencil_from_json(text)
        assert back.domain == "exact"
        for a, b in zip(cn_pencil.matrices, back.matrices):
            assert a.data == b.data

    def test_float_roundtrip(self):
        rng = np.random.default_rng(9)
        pencil = random_pencil(3, 2, rng)
        back = pencil_from_json(pencil_to_json(pencil))
        for a, b in zip(pencil.matrices, back.matrices):
            assert np.allclose(a.as_array(), b.as_array(), atol=0, rtol=0)

    def test_malformed_document_raises(self):
        with pytest.raises(ValueError):
            pencil_from_json(json.dumps({"d": 2, "matrices": []}))

    def test_entry_shape_validated(self):
        doc = {"d": 1, "n": 1, "matrices": [[[3]]]}
        with pytest.raises(ValueError):
            pencil_from_json(doc)


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 6), st.integers(0, 10_000))
def test_eigenvalue_sum_is_trace(d, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = 0.5 * (m + m.conj().T)
    eig = eig_hermitian(m)
    assert float(np.sum(eig.values)) == pytest.approx(
        float(np.real(np.trace(m))), abs=1e-9 * (1 + np.linalg.norm(m))
    )


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_pure_states_are_extreme_rank_one(seed):
    rho = sample_pure_state(4, np.random.default_rng(seed))
    vals = np.linalg.eigvalsh(rho.as_array())
    assert vals[-1] == pytest.approx(1.0, abs=1e-10)
    assert np.abs(vals[:-1]).max() <= 1e-10


def test_default_rng_is_seeded():
    """rng=None stands for a fixed seed, so defaults repeat call to call."""
    a, b = direction_grid(4, 50), direction_grid(4, 50)
    assert np.array_equal(a.directions, b.directions)
    assert sample_pure_state(3) == sample_pure_state(3)
    assert sample_mixed_state(3) == sample_mixed_state(3)
    # x0^2 + x1^2 is not hyperbolic along e = (1, 0): the first random
    # point drawn is the witness
    f = MultiPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0}, "float")
    first = hyperbolicity_check(f, (1.0, 0.0))
    assert first.witness is not None
    assert hyperbolicity_check(f, (1.0, 0.0)) == first


def _one_entry_doc(re, im=0):
    return {"d": 1, "n": 1, "matrices": [[[[re, im]]]]}


@pytest.mark.parametrize(
    "text",
    [
        '{"d": 1, "n": 1, "matrices": [[[[1e400, 0]]]]}',
        '{"d": 1, "n": 1, "matrices": [[[[-Infinity, 0]]]]}',
        '{"d": 1, "n": 1, "matrices": [[[[NaN, 0]]]]}',
        '{"d": 1, "n": 1, "matrices": [[[[true, 0]]]]}',
        '{"d": 1, "n": 1, "matrices": [[[[1, false]]]]}',
        '{"d": 1, "n": 1, "matrices": [[[[null, 0]]]]}',
        '{"d": 1, "n": 1, "matrices": [[[["inf", 0.5]]]]}',
        '{"d": 1, "n": 1, "matrices": 5}',
        '{"d": 1, "n": 1, "matrices": [7]}',
        '{"d": 1, "n": 1, "matrices": [[7]]}',
    ],
)
def test_pencil_document_rejects_malformed_parts(text):
    with pytest.raises(ValueError):
        pencil_from_json(text)


def test_pencil_document_rejects_int_beyond_float_range():
    # an integer part is exact on its own; beside a fractional float the
    # block goes to floats, where 10**400 does not fit
    with pytest.raises(ValueError):
        pencil_from_json(_one_entry_doc(10**400, 0.5))
    assert pencil_from_json(_one_entry_doc(10**400)).domain == "exact"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_hermitian_matrix_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        HermitianMatrix([[1.0, 0.0], [0.0, bad]])
    with pytest.raises(ValueError):
        HermitianMatrix([[1.0, bad], [bad, 1.0]])
