"""Crossing patches against the search and the sweep they replace.

`reference_centers` is the crossing search as it was before the Newton
steps: per seed a ring descent on the smallest adjacent eigengap, then
Nelder-Mead in tangent-plane coordinates, one eigen solve per objective
call.  `reference_sweep` is the per-sample (theta, phi) loop that built
the patch records.  Both keep the seed scan, the certification and the
deduplication of `degenerate_patches`.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from numrange.examples import builtin_pencil
from numrange.linalg import HermitianMatrix, MatrixPencil, batched_eigh, batched_eigvalsh
from numrange.ranges import (
    PATCH_CERTIFY_GAP,
    CloudRecord,
    degenerate_patches,
    direction_grid,
    random_sphere_grid,
    trace_boundary_cloud,
)

from conftest import random_pencil


def _min_adjacent_gap(values) -> tuple:
    gaps = np.diff(values)
    k = int(np.argmin(gaps))
    return float(gaps[k]), k


def _tangent_basis(u):
    n = len(u)
    v = u.copy()
    v[0] += math.copysign(1.0, u[0] if u[0] != 0 else 1.0) * np.linalg.norm(u)
    v /= np.linalg.norm(v)
    H = np.eye(n) - 2.0 * np.outer(v, v)
    return H[:, 1:].T


def _ring_steps(m: int) -> list:
    if m == 1:
        return [np.array([1.0]), np.array([-1.0])]
    if m == 2:
        out = []
        for k in range(12):
            a = 2.0 * math.pi * k / 12.0
            out.append(np.array([math.cos(a), math.sin(a)]))
        return out
    steps = []
    for i in range(m):
        for s in (1.0, -1.0):
            e = np.zeros(m)
            e[i] = s
            steps.append(e)
    diag = np.ones(m) / math.sqrt(m)
    steps += [diag, -diag]
    return steps


def _refine_crossing(stack, u0, certify: float):
    u = np.asarray(u0, dtype=float)
    u = u / np.linalg.norm(u)

    def gap_at(vec) -> float:
        vec = vec / np.linalg.norm(vec)
        return _min_adjacent_gap(batched_eigvalsh(stack, [vec])[0])[0]

    val = gap_at(u)
    r = 0.04
    for _ in range(60):
        if r < 1e-6 or val <= 0.01 * certify:
            break
        basis = _tangent_basis(u)
        moved = False
        for step in _ring_steps(len(basis)):
            cand = u + r * (step @ basis)
            cand = cand / np.linalg.norm(cand)
            v = gap_at(cand)
            if v < val:
                u, val = cand, v
                moved = True
                break
        if not moved:
            r *= 0.55
    basis = _tangent_basis(u)
    center = u

    def objective(ab) -> float:
        return gap_at(center + ab @ basis)

    res = minimize(
        objective,
        np.zeros(len(basis)),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 600, "maxfev": 900},
    )
    if res.fun < val:
        u = center + res.x @ basis
        u = u / np.linalg.norm(u)
        val = float(res.fun)
    return u, val


def reference_centers(pencil, cloud, max_patches=24) -> list:
    stack = pencil.stack()
    scale = 1.0 + pencil.norm()
    gap_tol = 0.05 * scale
    certify_tol = 1e-8 * scale
    gaps = np.diff(batched_eigvalsh(stack, cloud.grid.directions), axis=1).min(axis=1)
    seeds = [
        (gap, u) for gap, u in zip(gaps.tolist(), cloud.grid.directions) if gap <= gap_tol
    ]
    seeds.sort(key=lambda t: t[0])
    picked = []
    for gap, u in seeds:
        if all(np.linalg.norm(u - v) > 0.05 for _, v in picked):
            picked.append((gap, u))
        if len(picked) >= max_patches:
            break
    centers = []
    for _, u in picked:
        uc, val = _refine_crossing(stack, u, certify_tol)
        if val > certify_tol:
            continue
        if all(np.linalg.norm(uc - w) > 0.01 for w in centers):
            centers.append(uc)
    return centers


def reference_sweep(stack, uc, theta_samples=1200, phi_samples=8) -> list:
    ((_, values, vectors),) = batched_eigh(stack, [uc])
    values, vectors = values[0], vectors[0]
    _, lo = _min_adjacent_gap(values)
    psi1 = vectors[:, lo]
    psi2 = vectors[:, lo + 1]
    a = np.array([np.vdot(psi1, m @ psi1).real for m in stack])
    b = np.array([np.vdot(psi2, m @ psi2).real for m in stack])
    c = np.array([np.vdot(psi1, m @ psi2) for m in stack])
    theta = np.linspace(0.0, 0.5 * math.pi, theta_samples)
    phi = np.linspace(0.0, 2.0 * math.pi, phi_samples, endpoint=False)
    ct2 = np.cos(theta) ** 2
    st2 = np.sin(theta) ** 2
    cs = np.cos(theta) * np.sin(theta)
    lam = 0.5 * float(values[lo] + values[lo + 1])
    direction = tuple(float(x) for x in uc)
    records = []
    for ti in range(theta_samples):
        base_pt = ct2[ti] * a + st2[ti] * b
        for ph in phi:
            mix = 2.0 * cs[ti] * (c.real * math.cos(ph) - c.imag * math.sin(ph))
            y = base_pt + mix
            records.append(
                CloudRecord(
                    point=tuple(float(v) for v in y),
                    direction=direction,
                    branch=lo,
                    eigenvalue=lam,
                    simple=False,
                )
            )
    return records


def _strengthened_cone_pencil():
    # the n = 2 pencil of test_cones' strengthened-cone test
    a1 = HermitianMatrix([[1, 0, 0], [0, -1, 0], [0, 0, 1]], domain="exact")
    a2 = HermitianMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]], domain="exact")
    return MatrixPencil([a1, a2])


# Isolated crossings: the two searches must find the same ones.  On S^3
# the grid is 6000 directions: on 3000, seeds lie up to 0.7 from their
# crossing, and which of several crossings such a far seed reaches is
# arbitrary for both searches.
ISOLATED = {
    "chien-nakazato": lambda: (builtin_pencil("chien-nakazato"), direction_grid(3, 2000)),
    "cayley": lambda: (builtin_pencil("cayley"), direction_grid(3, 2000)),
    "exact-n2": lambda: (_strengthened_cone_pencil(), direction_grid(2, 720)),
    "real-d3": lambda: (
        random_pencil(3, 3, np.random.default_rng(3), real=True),
        direction_grid(3, 2000),
    ),
    "real-d4": lambda: (
        random_pencil(4, 3, np.random.default_rng(3), real=True),
        direction_grid(3, 2000),
    ),
    "real-d5": lambda: (
        random_pencil(5, 3, np.random.default_rng(3), real=True),
        direction_grid(3, 2000),
    ),
    "complex-n4-d3": lambda: (
        random_pencil(3, 4, np.random.default_rng(0)),
        random_sphere_grid(6000, 4, np.random.default_rng(1)),
    ),
    "complex-n4-d4": lambda: (
        random_pencil(4, 4, np.random.default_rng(2)),
        random_sphere_grid(6000, 4, np.random.default_rng(1)),
    ),
}

# Crossings along curves: the seed spacing and max_patches decide which
# points of a curve are kept, so only certification is compared.
CURVES = {
    "drop": lambda: (builtin_pencil("drop"), direction_grid(3, 2000)),
    "real-n4": lambda: (
        random_pencil(3, 4, np.random.default_rng(0), real=True),
        random_sphere_grid(3000, 4, np.random.default_rng(1)),
    ),
}


@pytest.fixture(scope="module")
def run_case():
    """case name -> (pencil, cloud, patches, [(centre, its records)]),
    each case computed once for the module's tests."""
    runs = {}

    def run(name):
        if name not in runs:
            pencil, grid = {**ISOLATED, **CURVES}[name]()
            cloud = trace_boundary_cloud(pencil, grid)
            patches = degenerate_patches(pencil, cloud)
            blocks = {}
            for r in patches.records:
                blocks.setdefault(r.direction, []).append(r)
            centres = [(np.array(u), recs) for u, recs in blocks.items()]
            runs[name] = (pencil, cloud, patches, centres)
        return runs[name]

    return run


def pair_gap(pencil, u) -> float:
    values = np.linalg.eigvalsh(np.tensordot(u, pencil.stack(), axes=1))
    return float(np.diff(values).min())


def certify_tol(pencil) -> float:
    return PATCH_CERTIFY_GAP * (1.0 + pencil.norm())


def assert_certified(pencil, centres):
    for u, _ in centres:
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
        assert pair_gap(pencil, u) <= certify_tol(pencil), u


@pytest.mark.parametrize("name", sorted(ISOLATED))
def test_isolated_crossings_match_reference(run_case, name):
    pencil, cloud, _, centres = run_case(name)
    reference = reference_centers(pencil, cloud)
    assert reference, "the case must have crossings to compare"
    new = [u for u, _ in centres]
    for w in reference:
        assert min(np.linalg.norm(u - w) for u in new) <= 0.01, w
    # a centre the reference missed is kept only if it is a crossing
    assert_certified(pencil, centres)


@pytest.mark.parametrize("name", sorted(CURVES))
def test_curve_crossings_are_certified(run_case, name):
    pencil, cloud, _, centres = run_case(name)
    assert 0 < len(centres) <= 24
    assert_certified(pencil, centres)
    few = degenerate_patches(pencil, cloud, max_patches=5)
    assert 0 < len({r.direction for r in few.records}) <= 5


@pytest.mark.parametrize("name", sorted(ISOLATED) + sorted(CURVES))
def test_patch_records_match_reference_sweep(run_case, name):
    pencil, _, _, centres = run_case(name)
    u, records = centres[0]
    expected = reference_sweep(pencil.stack(), u)
    assert len(records) == len(expected) == 1200 * 8
    got = np.array([r.point for r in records])
    want = np.array([r.point for r in expected])
    assert np.max(np.abs(got - want)) <= 1e-12
    for r, e in zip(records, expected):
        assert (r.direction, r.branch, r.eigenvalue, r.simple) == (
            e.direction, e.branch, e.eigenvalue, e.simple
        )


@pytest.mark.parametrize("name", sorted(ISOLATED) + sorted(CURVES))
def test_patch_records_are_tangent(run_case, name):
    # a mixture of the pair's eigenvectors has <u, y> between the pair's
    # eigenvalues, whose mean is the record's eigenvalue
    pencil, _, patches, centres = run_case(name)
    assert len(patches.records) == sum(len(recs) for _, recs in centres)
    slack = 1e-9 * (1.0 + pencil.norm())
    for u, records in centres:
        points = np.array([r.point for r in records])
        lam = np.array([r.eigenvalue for r in records])
        assert np.max(np.abs(points @ u - lam)) <= pair_gap(pencil, u) + slack
