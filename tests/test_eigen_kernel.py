"""The batched LAPACK eigen kernel against the pure-Python Jacobi oracle.

Each reference below recomputes a kernel caller one direction at a time
with `jacobi_eigh` on list-of-lists rows, the way the package did before
the kernel, and the callers must reproduce it: the same records, skip
counts, branches and simple flags exactly, and the same contacts,
eigenvalues, support values and cone boundary points to roundoff.
"""

import numpy as np
import pytest

import numrange.cones as cones
from numrange.cones import cone_membership, make_cone_spec, sample_cone_boundary
from numrange.examples import builtin_pencil
from numrange.linalg import (
    EIGH_CHUNK,
    MULTIPLICITY_TOL,
    HermitianMatrix,
    MatrixPencil,
    batched_eigh,
    batched_eigvalsh,
    eig_hermitian,
)
from numrange.poly import charpoly
from numrange.ranges import (
    direction_grid,
    support_function,
    support_table,
    trace_boundary_cloud,
)

from conftest import random_hermitian, random_pencil
from jacobi_reference import jacobi_eigh

GRID_SIZES = {2: 48, 3: 60}


def _rows(m: np.ndarray) -> list:
    return [[complex(v) for v in row] for row in m]


def _jacobi_sorted(m: np.ndarray):
    """Ascending values and matching vector columns of one matrix."""
    d = m.shape[0]
    values, vectors, _ = jacobi_eigh(_rows(m), d)
    order = sorted(range(d), key=lambda k: values[k])
    vecs = np.array([[vectors[i][k] for k in order] for i in range(d)])
    return np.array([values[k] for k in order]), vecs


def _jacobi_trace(pencil, grid):
    """Per direction: (eigenvalue groups as (lo, hi), values, contacts)."""
    stack = pencil.stack()
    tol = MULTIPLICITY_TOL * (1.0 + pencil.norm())
    out = []
    for u in grid.directions:
        values, vectors = _jacobi_sorted(np.tensordot(u, stack, axes=1))
        groups, lo = [], 0
        for k in range(1, len(values)):
            if values[k] - values[k - 1] > tol:
                groups.append((lo, k))
                lo = k
        groups.append((lo, len(values)))
        contacts = [
            [float(np.vdot(vectors[:, j], a @ vectors[:, j]).real) for a in stack]
            for j in range(len(values))
        ]
        out.append((groups, values, contacts))
    return out


def _expected_records(reference, include_degenerate):
    records, skipped = [], 0
    for c, (groups, values, contacts) in enumerate(reference):
        for branch, (lo, hi) in enumerate(groups):
            simple = hi - lo == 1
            if not simple and not include_degenerate:
                skipped += hi - lo
                continue
            records.append((c, branch, simple, values[lo], contacts[lo]))
    return records, skipped


def _doubled_pencil(seed: int) -> MatrixPencil:
    """d = 6: a doubled 2x2 block (every eigenvalue of it exactly twice)
    beside a simple 2x2 block."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(3):
        double = np.kron(random_hermitian(2, rng).as_array(), np.eye(2))
        block = np.zeros((6, 6), dtype=complex)
        block[:4, :4] = double
        block[4:, 4:] = random_hermitian(2, rng).as_array()
        mats.append(HermitianMatrix(block))
    return MatrixPencil(mats)


PENCILS = [
    pytest.param(random_pencil(d, n, np.random.default_rng(100 * d + n)), id=f"random-d{d}-n{n}")
    for d in range(1, 9)
    for n in (2, 3)
] + [
    pytest.param(builtin_pencil("drop"), id="drop"),
    pytest.param(_doubled_pencil(3), id="doubled-block"),
]


@pytest.mark.parametrize("pencil", PENCILS)
def test_trace_and_support_match_jacobi(pencil):
    grid = direction_grid(pencil.n, GRID_SIZES[pencil.n])
    reference = _jacobi_trace(pencil, grid)
    scale = 1.0 + pencil.norm()
    for include_degenerate in (False, True):
        want, want_skipped = _expected_records(reference, include_degenerate)
        cloud = trace_boundary_cloud(pencil, grid, include_degenerate=include_degenerate)
        assert cloud.skipped == want_skipped
        assert len(cloud.records) == len(want)
        for rec, (c, branch, simple, value, contact) in zip(cloud.records, want):
            assert rec.direction == tuple(grid.directions[c].tolist())
            assert rec.branch == branch
            assert rec.simple == simple
            assert abs(rec.eigenvalue - value) <= 1e-12 * scale
            if simple:
                assert np.max(np.abs(np.subtract(rec.point, contact))) <= 1e-12 * scale
            else:
                # any vector of a repeated eigenspace may be recorded; its
                # contact still lies on the supporting hyperplane
                u = grid.directions[c]
                assert abs(float(u @ np.asarray(rec.point)) - value) <= 1e-12 * scale
    table = support_table(pencil, grid)
    tops = np.array([values[-1] for _, values, _ in reference])
    assert np.max(np.abs(table.values - tops)) <= 1e-12 * scale
    assert abs(support_function(pencil, grid.directions[0]) - tops[0]) <= 1e-12 * scale


def test_doubled_pencil_is_all_degenerate_or_simple():
    """The doubled block shows up as skipped pairs, the simple block as
    records, so both sides of the skip logic above are exercised."""
    pencil = _doubled_pencil(3)
    grid = direction_grid(3, GRID_SIZES[3])
    cloud = trace_boundary_cloud(pencil, grid)
    assert cloud.skipped == 4 * len(grid)
    assert len(cloud.records) == 2 * len(grid)


@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_eig_hermitian_matches_jacobi(d):
    rng = np.random.default_rng(d)
    m = random_hermitian(d, rng).as_array()
    eig = eig_hermitian(m)
    values, _ = _jacobi_sorted(m)
    assert np.max(np.abs(eig.values - values)) <= 1e-12 * (1.0 + np.linalg.norm(m))
    assert np.allclose(eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T, m, atol=1e-12)


def test_chunks_cover_every_row_in_order():
    pencil = random_pencil(3, 2, np.random.default_rng(4))
    grid = direction_grid(2, 2 * EIGH_CHUNK + 5)
    starts, total = [], 0
    for start, values, vectors in batched_eigh(pencil.stack(), grid.directions):
        starts.append(start)
        assert vectors.shape == (len(values), 3, 3)
        total += len(values)
    assert total == len(grid)
    assert starts == sorted(starts) and starts[0] == 0
    assert batched_eigvalsh(pencil.stack(), np.empty((0, 2))).shape == (0, 3)


@pytest.mark.parametrize("d,n", [(2, 2), (3, 3), (4, 2)])
def test_cone_boundary_and_membership_match_jacobi(d, n, monkeypatch):
    pencil = random_pencil(d, n, np.random.default_rng(10 * d + n))
    spec = make_cone_spec(charpoly(pencil), (1.0,) + (0.0,) * n, pencil=pencil)
    got = sample_cone_boundary(spec, 6, rng=np.random.default_rng(7))
    probes = np.random.default_rng(8).standard_normal((5, n + 1))
    got_roots = [cone_membership(spec, a).roots for a in probes]

    def jacobi_homogenised(_stack, points):
        # x0 I + sum x_k A_k formed from the pencil itself, apart from the
        # stack the cone code passes
        return np.array([
            _jacobi_sorted(x[0] * np.eye(d) + np.tensordot(x[1:], pencil.stack(), axes=1))[0]
            for x in np.asarray(points, dtype=float)
        ])

    monkeypatch.setattr(cones, "batched_eigvalsh", jacobi_homogenised)
    want = sample_cone_boundary(spec, 6, rng=np.random.default_rng(7))
    assert len(got) == len(want) == 6
    for x, y in zip(got, want):
        assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)
    for a, roots in zip(probes, got_roots):
        want_roots = cone_membership(spec, a).roots
        assert np.max(np.abs(np.subtract(roots, want_roots))) <= 1e-12 * (
            1.0 + pencil.norm() + np.linalg.norm(a)
        )
