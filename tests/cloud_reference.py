"""Record-by-record boundary clouds: the tests' reference for the
columnar `BoundaryCloud`.

`trace_records` is the per-record tracing loop and `patch_records` the
per-crossing patch sweep that built one frozen `CloudRecord` per
contact, before the cloud held its contacts as columns.  The CSV and
JSON writers below turn such records into the `trace` subcommand's
exports, row by row, as the exports did from the records, and
`assert_same_text` compares two exports line by line.
"""

import csv
import io
import json
import math

import numpy as np

from numrange.linalg import MULTIPLICITY_TOL, batched_eigh, group_starts
from numrange.ranges import (
    PATCH_PHI_SAMPLES,
    PATCH_THETA_SAMPLES,
    CloudRecord,
    _closest_pairs,
    _crossing_centers,
)


def trace_records(pencil, grid, include_degenerate: bool = False) -> tuple:
    """(records, skipped) of `trace_boundary_cloud`, one record at a time."""
    stack = pencil.stack()
    group_tol = MULTIPLICITY_TOL * (1.0 + pencil.norm())
    records = []
    skipped = 0
    for start, values, vectors in batched_eigh(stack, grid.directions):
        contacts = np.einsum("caj,ckaj->cjk", vectors.conj(), stack @ vectors[:, None]).real
        first = group_starts(values, group_tol)
        last = np.ones(values.shape, dtype=bool)
        last[:, :-1] = first[:, 1:]
        simple = first & last
        if not include_degenerate:
            skipped += int(simple.size - np.count_nonzero(simple))
        rows, cols = np.nonzero(first if include_degenerate else simple)
        branch = np.cumsum(first, axis=1) - 1
        directions = [tuple(u) for u in grid.directions[start : start + len(values)].tolist()]
        for c, point, br, lam, sim in zip(
            rows.tolist(),
            contacts[rows, cols].tolist(),
            branch[rows, cols].tolist(),
            values[rows, cols].tolist(),
            simple[rows, cols].tolist(),
        ):
            records.append(
                CloudRecord(
                    point=tuple(point),
                    direction=directions[c],
                    branch=br,
                    eigenvalue=lam,
                    simple=sim,
                )
            )
    return tuple(records), skipped


def _patch_sweep(stack, uc) -> list:
    _, lo, lam, blocks = _closest_pairs(stack, uc[None])
    a = blocks[0, :, 0, 0].real
    b = blocks[0, :, 1, 1].real
    c = blocks[0, :, 0, 1]
    theta = np.linspace(0.0, 0.5 * math.pi, PATCH_THETA_SAMPLES)[:, None, None]
    phi = np.linspace(0.0, 2.0 * math.pi, PATCH_PHI_SAMPLES, endpoint=False)[:, None]
    mix = np.cos(phi) * c.real - np.sin(phi) * c.imag
    points = (np.cos(theta) ** 2 * a + np.sin(theta) ** 2 * b) + (
        2.0 * (np.cos(theta) * np.sin(theta)) * mix
    )
    direction = tuple(uc.tolist())
    branch, eigenvalue = int(lo[0]), float(lam[0])
    return [
        CloudRecord(
            point=p, direction=direction, branch=branch, eigenvalue=eigenvalue, simple=False
        )
        for p in zip(*points.reshape(-1, len(a)).T.tolist())
    ]


def patch_records(pencil, grid, max_patches: int = 24) -> tuple:
    """The records of `degenerate_patches`, one crossing sweep at a time."""
    records = []
    if pencil.d >= 2 and pencil.n >= 2:
        stack = pencil.stack()
        scale = 1.0 + pencil.norm()
        for uc in _crossing_centers(stack, grid.directions, scale, max_patches):
            records += _patch_sweep(stack, uc)
    return tuple(records)


def records_to_csv(n: int, records, metadata: dict) -> str:
    """`cloud_to_csv` written record by record."""
    buf = io.StringIO()
    for key in sorted(metadata):
        buf.write(f"# {key}: {metadata[key]}\n")
    writer = csv.writer(buf, lineterminator="\n")
    header = [f"u{k + 1}" for k in range(n)] + ["branch"] + [f"y{k + 1}" for k in range(n)] + ["simple"]
    writer.writerow(header)
    for r in records:
        row = [f"{x:.17g}" for x in r.direction]
        row.append(str(r.branch))
        row += [f"{x:.17g}" for x in r.point]
        row.append("1" if r.simple else "0")
        writer.writerow(row)
    return buf.getvalue()


def records_to_json(header: dict, skipped: int, records) -> str:
    """The `trace --format json` document written record by record."""
    doc = {
        "header": header,
        "skipped": skipped,
        "rows": [
            {
                "direction": list(r.direction),
                "branch": r.branch,
                "point": list(r.point),
                "simple": r.simple,
            }
            for r in records
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def assert_same_text(got: str, want: str):
    """got == want, line by line with their line ends: a failure names the
    first line that differs, and never diffs two whole exports."""
    got_lines = got.splitlines(keepends=True)
    want_lines = want.splitlines(keepends=True)
    for number, (a, b) in enumerate(zip(got_lines, want_lines), 1):
        assert a == b, f"line {number} differs: {a!r} != {b!r}"
    assert len(got_lines) == len(want_lines), f"{len(got_lines)} lines, expected {len(want_lines)}"
