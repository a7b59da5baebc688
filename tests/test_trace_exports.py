"""The `trace` CSV and JSON writers against the record-by-record reference.

Both exports fill one row template from the cloud's columns.  These
tests hold them, byte for byte, to `records_to_csv` and
`records_to_json`, which write the same files one record at a time
through `csv.writer` and `json.dumps(indent=2)`: on an empty cloud, a
random n = 4 pencil, floats at the edges of their spelling, and clouds
whose rows have simple=False.
"""

import json

import numpy as np
import pytest

from numrange import __version__, cli
from numrange.cli import main
from numrange.examples import builtin_pencil
from numrange.linalg import HermitianMatrix, MatrixPencil
from numrange.ranges import (
    BoundaryCloud,
    cloud_to_csv,
    degenerate_patches,
    direction_grid,
    trace_boundary_cloud,
)

from cloud_reference import assert_same_text, records_to_csv, records_to_json, trace_records
from conftest import random_pencil
from support import pencil_to_json

# floats whose text differs between spellings: signed zero, the switch to
# exponent form on both sides, short decimals, subnormals, the extremes
EDGE_FLOATS = [
    -0.0, 0.0, 1e16, 1e15, 9999999999999998.0, 1e-05, 0.0001, 0.1, 1 / 3, -2.5,
    5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1e300,
    float("inf"), float("-inf"), float("nan"),
]


def _diagonal_pencil(*diagonals):
    return MatrixPencil([HermitianMatrix(np.diag(v)) for v in diagonals])


def _trace_exports(capsys, tmp_path, args):
    """The CLI's `trace` CSV and JSON text for the same arguments."""
    texts = []
    for fmt in ("csv", "json"):
        out = tmp_path / f"cloud.{fmt}"
        assert main(["trace", *args, "--format", fmt, "--out", str(out)]) == 0
        texts.append(out.read_text())
    capsys.readouterr()
    return texts


def _meta(seed, count, kind, skipped):
    return {
        "seed": seed,
        "trace_grid": count,
        "grid_kind": kind,
        "skipped": skipped,
        "numrange": __version__,
    }


def _assert_exports_match(csv_text, json_text, n, records, meta):
    assert_same_text(csv_text, records_to_csv(n, records, meta))
    header = json.loads(json_text)["header"]
    assert_same_text(json_text, records_to_json(header, meta["skipped"], records))


def _feed_cloud(monkeypatch, cloud):
    """Make the CLI's `trace` export this cloud whatever it traces."""
    monkeypatch.setattr(cli, "trace_boundary_cloud", lambda pencil, grid, include_degenerate: cloud)


def test_empty_cloud(capsys, tmp_path, monkeypatch):
    # A1 = I, A2 = 0: a trace that skips degenerate branches keeps nothing
    scalar = _diagonal_pencil([1.0, 1.0], [0.0, 0.0])
    _feed_cloud(monkeypatch, trace_boundary_cloud(scalar, direction_grid(2, 64)))
    doc = tmp_path / "scalar.json"
    doc.write_text(pencil_to_json(scalar))
    csv_text, json_text = _trace_exports(capsys, tmp_path, ["--input", str(doc), "--trace-grid", "64"])
    assert csv_text.splitlines()[-1] == "u1,u2,branch,y1,y2,simple"
    assert '\n  "rows": [],\n' in json_text
    assert json.loads(json_text)["rows"] == []
    _assert_exports_match(csv_text, json_text, 2, (), _meta(0, 64, "uniform_angle", 0))


def test_scalar_pencil_exports_its_degenerate_branch(capsys, tmp_path):
    # the CLI traces degenerate branches too: one simple=False row per direction
    scalar = _diagonal_pencil([1.0, 1.0], [0.0, 0.0])
    doc = tmp_path / "scalar.json"
    doc.write_text(pencil_to_json(scalar))
    csv_text, json_text = _trace_exports(capsys, tmp_path, ["--input", str(doc), "--trace-grid", "64"])
    cloud = trace_boundary_cloud(scalar, direction_grid(2, 64), include_degenerate=True)
    assert len(cloud) == 64 and not cloud.simple.any()
    assert json.loads(json_text)["skipped"] == 64
    _assert_exports_match(csv_text, json_text, 2, cloud.records, _meta(0, 64, "uniform_angle", 64))


def test_random_four_matrix_pencil(capsys, tmp_path):
    pencil = random_pencil(3, 4, np.random.default_rng(4))
    doc = tmp_path / "four.json"
    doc.write_text(pencil_to_json(pencil))
    args = ["--input", str(doc), "--trace-grid", "300", "--seed", "5"]
    csv_text, json_text = _trace_exports(capsys, tmp_path, args)
    grid = direction_grid(4, 300, np.random.default_rng(5))
    records, skipped = trace_records(pencil, grid)
    assert len(records) == 900
    _assert_exports_match(csv_text, json_text, 4, records, _meta(5, 300, grid.kind, skipped))


def _edge_cloud(n):
    """A cloud of every edge float in every column, rows mostly simple=False."""
    count = len(EDGE_FLOATS)
    rng = np.random.default_rng(n)
    coords = np.array([np.roll(EDGE_FLOATS, k)[:n] for k in range(count)])
    directions = np.array([np.roll(EDGE_FLOATS, -k)[:n] for k in range(count)])
    grid = direction_grid(n, 8)
    return BoundaryCloud(
        n, coords, directions, rng.integers(0, 12, count), rng.standard_normal(count),
        np.arange(count) % 3 == 0, grid, 7,
    )


def _degenerate_clouds():
    segment = _diagonal_pencil([1.0, 1.0, 2.0], [0.0, 0.0, 1.0])
    yield "segment", trace_boundary_cloud(segment, direction_grid(2, 64), include_degenerate=True)
    # the Pauli matrices tensored with I2: every eigenvalue is double
    paulis = ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])
    doubled = MatrixPencil([HermitianMatrix(np.kron(p, np.eye(2))) for p in paulis])
    yield "doubled", trace_boundary_cloud(doubled, direction_grid(3, 400), include_degenerate=True)
    cn = builtin_pencil("chien-nakazato")
    traced = trace_boundary_cloud(cn, direction_grid(3, 400))
    yield "patch", degenerate_patches(cn, traced, max_patches=1)


CLOUDS = {"edge2": _edge_cloud(2), "edge3": _edge_cloud(3), **dict(_degenerate_clouds())}


@pytest.mark.parametrize("name", list(CLOUDS))
def test_cli_writes_any_cloud_like_the_reference(name, capsys, tmp_path, monkeypatch):
    cloud = CLOUDS[name]
    assert not cloud.simple.all()
    _feed_cloud(monkeypatch, cloud)
    doc = tmp_path / "pencil.json"
    doc.write_text(pencil_to_json(random_pencil(2, cloud.n, np.random.default_rng(0))))
    csv_text, json_text = _trace_exports(capsys, tmp_path, ["--input", str(doc), "--trace-grid", "8"])
    kind = direction_grid(cloud.n, 8, np.random.default_rng(0)).kind
    # the CLI counts the simple=False rows, not the cloud's own skipped
    meta = _meta(0, 8, kind, int(np.count_nonzero(~cloud.simple)))
    _assert_exports_match(csv_text, json_text, cloud.n, cloud.records, meta)


@pytest.mark.parametrize("name", list(CLOUDS))
def test_cloud_to_csv_matches_reference(name):
    cloud = CLOUDS[name]
    assert_same_text(cloud_to_csv(cloud), records_to_csv(cloud.n, cloud.records, {}))
    meta = {"b": "two words", "a": 1.5}
    assert_same_text(cloud_to_csv(cloud, meta), records_to_csv(cloud.n, cloud.records, meta))


def test_edge_floats_keep_their_spelling():
    text = cloud_to_csv(_edge_cloud(2))
    row = text.splitlines()[1].split(",")
    assert row[:2] == row[3:5] == ["-0", "0"]
    assert "1.0000000000000001e-05" in text and "nan" in text
