"""Verdicts that must not depend on how an input is written or scaled.

A pencil times 1e6 has the same range times 1e6, so `verify` must pass
it whenever it passes the original: the lower gap slack scales with the
pencil norm.  A non-Hermitian document is named by its matrix whatever
the domain of its entries, rational strings included.
"""

import json

import numpy as np

from numrange.cli import main
from numrange.linalg import HermitianMatrix, MatrixPencil

from conftest import random_pencil
from support import pencil_to_json


def _run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scaled_pencil_still_verifies(capsys, tmp_path):
    base = random_pencil(3, 2, np.random.default_rng(3))
    for scale in (1.0, 1e6):
        pencil = MatrixPencil([HermitianMatrix(m.as_array() * scale) for m in base.matrices])
        path = tmp_path / f"scaled-{scale:g}.json"
        path.write_text(pencil_to_json(pencil))
        code, out, err = _run(capsys, "verify", "--input", str(path))
        report = json.loads(out)
        # roundoff below the hull: about -4.2e-9 at scale 1e6
        assert report["min_gap"] < 0.0
        assert code == 0 and report["verdict"] == "pass", (scale, report["min_gap"], err)


def test_rational_non_hermitian_names_matrix(capsys, tmp_path):
    doc = {
        "d": 2,
        "n": 2,
        "matrices": [
            [[["1/2", 0], [0, 0]], [[0, 0], [1, 0]]],
            [[[0, 0], ["1/2", 0]], [["1/3", 0], [0, 0]]],
        ],
    }
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "charpoly", "--input", str(path))
    assert code == 3 and out == ""
    assert "matrix 1" in err and "(0,1)" in err and err.count("\n") == 1


def test_float_non_hermitian_names_worst_entry(capsys, tmp_path):
    doc = {
        "d": 3,
        "n": 2,
        "matrices": [
            [[[1.5, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]],
            [[[0, 0], [0, 0], [0.5, 0]], [[0, 0], [0, 0], [0, 0]], [[0.25, 0], [0, 0], [0, 0]]],
        ],
    }
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "verify", "--input", str(path))
    assert code == 3 and out == ""
    assert "matrix 1" in err and "(0,2)" in err and err.count("\n") == 1
