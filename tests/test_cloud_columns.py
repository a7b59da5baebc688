"""The columnar boundary cloud against the record-by-record reference.

The record view must rebuild exactly the records the reference loops
build, and the `trace` exports written from the columns must match,
byte for byte, the exports written from those records.
"""

import json

import numpy as np
import pytest

from numrange import __version__
from numrange.cli import main
from numrange.examples import BUILTIN_NAMES, FOUR_ELLIPSES, builtin_pencil
from numrange.linalg import HermitianMatrix, MatrixPencil
from numrange.ranges import (
    CloudRecord,
    EmptyCloud,
    degenerate_patches,
    direction_grid,
    merge_boundary_clouds,
    trace_boundary_cloud,
)

from cloud_reference import (
    assert_same_text,
    patch_records,
    records_to_csv,
    records_to_json,
    trace_records,
)
from conftest import random_pencil

PENCILS = [name for name in BUILTIN_NAMES if name != FOUR_ELLIPSES]


def _structured(name):
    # repeated eigenvalues on every direction, so include_degenerate matters
    if name == "segment":
        mats = [np.diag([1.0, 1.0, 2.0]), np.diag([0.0, 0.0, 1.0])]
    else:
        mats = [np.eye(2), np.zeros((2, 2))]
    return MatrixPencil([HermitianMatrix(m) for m in mats])


def _assert_same_records(cloud, records):
    got = cloud.records
    assert len(cloud) == len(got) == len(records)
    assert got == tuple(records)
    for r in got[:3]:
        assert type(r) is CloudRecord
        assert type(r.branch) is int and type(r.eigenvalue) is float
        assert type(r.simple) is bool
        assert all(type(x) is float for x in r.point + r.direction)


def _assert_columns(cloud):
    count, n = len(cloud), cloud.n
    assert cloud.coords.shape == (count, n) and cloud.coords.dtype == np.float64
    assert cloud.directions.shape == (count, n) and cloud.directions.dtype == np.float64
    assert cloud.branch.shape == (count,) and cloud.branch.dtype == np.int64
    assert cloud.eigenvalue.shape == (count,) and cloud.eigenvalue.dtype == np.float64
    assert cloud.simple.shape == (count,) and cloud.simple.dtype == np.bool_


@pytest.mark.parametrize("degenerate", [False, True])
@pytest.mark.parametrize("name", PENCILS)
def test_builtin_records_match_reference(name, degenerate):
    pencil = builtin_pencil(name)
    grid = direction_grid(pencil.n, 700, np.random.default_rng(1))
    cloud = trace_boundary_cloud(pencil, grid, include_degenerate=degenerate)
    records, skipped = trace_records(pencil, grid, include_degenerate=degenerate)
    _assert_same_records(cloud, records)
    _assert_columns(cloud)
    assert cloud.skipped == skipped
    assert np.array_equal(cloud.points(), np.array([r.point for r in records]))


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_random_records_match_reference(d, n, real):
    rng = np.random.default_rng(100 * d + 10 * n + int(real))
    pencil = random_pencil(d, n, rng, real=real)
    # more directions than one eigen batch, so the chunks are joined
    grid = direction_grid(n, 1500, rng)
    for degenerate in (False, True):
        cloud = trace_boundary_cloud(pencil, grid, include_degenerate=degenerate)
        records, skipped = trace_records(pencil, grid, include_degenerate=degenerate)
        _assert_same_records(cloud, records)
        _assert_columns(cloud)
        assert cloud.skipped == skipped


@pytest.mark.parametrize("name", ["segment", "scalar"])
def test_degenerate_branches_match_reference(name):
    pencil = _structured(name)
    grid = direction_grid(2, 64)
    for degenerate in (False, True):
        cloud = trace_boundary_cloud(pencil, grid, include_degenerate=degenerate)
        records, skipped = trace_records(pencil, grid, include_degenerate=degenerate)
        _assert_same_records(cloud, records)
        _assert_columns(cloud)
        assert cloud.skipped == skipped
        assert bool(np.all(cloud.simple)) == (not degenerate)


@pytest.mark.parametrize("name", ["chien-nakazato", "drop"])
def test_patches_and_merge_match_reference(name):
    pencil = builtin_pencil(name)
    grid = direction_grid(3, 2000)
    cloud = trace_boundary_cloud(pencil, grid)
    patches = degenerate_patches(pencil, cloud)
    want = patch_records(pencil, grid)
    assert len(want) > 0
    _assert_same_records(patches, want)
    _assert_columns(patches)
    assert patches.skipped == 0
    merged = merge_boundary_clouds(cloud, patches)
    traced, skipped = trace_records(pencil, grid)
    _assert_same_records(merged, traced + want)
    _assert_columns(merged)
    assert merged.skipped == skipped
    assert merged.grid is grid


def test_patch_cloud_without_crossings_is_empty():
    # the qubit disk's two eigenvalues stay 2 apart on every direction
    pencil = builtin_pencil("qubit-disk")
    cloud = trace_boundary_cloud(pencil, direction_grid(2, 200))
    patches = degenerate_patches(pencil, cloud)
    assert len(patches) == 0 and patches.records == ()
    _assert_columns(patches)
    with pytest.raises(EmptyCloud):
        patches.points()
    merged = merge_boundary_clouds(cloud, patches)
    _assert_same_records(merged, cloud.records)


@pytest.mark.parametrize("name", PENCILS)
def test_trace_exports_match_reference(name, tmp_path, capsys):
    pencil = builtin_pencil(name)
    grid = direction_grid(pencil.n, 200, np.random.default_rng(0))
    records, skipped = trace_records(pencil, grid)
    csv_path = tmp_path / "cloud.csv"
    json_path = tmp_path / "cloud.json"
    args = ["trace", "--builtin", name, "--trace-grid", "200"]
    assert main(args + ["--out", str(csv_path)]) == 0
    assert main(args + ["--format", "json", "--out", str(json_path)]) == 0
    capsys.readouterr()
    meta = {
        "seed": 0,
        "trace_grid": 200,
        "grid_kind": grid.kind,
        "skipped": skipped,
        "numrange": __version__,
    }
    assert_same_text(csv_path.read_text(), records_to_csv(pencil.n, records, meta))
    header = json.loads(json_path.read_text())["header"]
    assert_same_text(json_path.read_text(), records_to_json(header, skipped, records))
