"""The dual-fit degree ladder accepts a rung only at roundoff scale.

The dual of a plane curve of degree m has degree m(m - 1) - 2 delta -
3 kappa (delta nodes, kappa cusps), so a cubic's dual has degree 6, 4
or 3 and a quartic's never 11.  With the nullspace test at 1e-8 these
pencils stopped one rung short: the cubic at degree 5 (singular gap
4.3e-9) and the quartics at 11 (2.5e-9 to 6.6e-9).  True rungs read
4e-16 to 3.0e-13.
"""

import json

import numpy as np
import pytest

from numrange.cli import main
from numrange.dual import dual_fit
from numrange.poly import charpoly

from conftest import random_pencil

# a random 3x3 pencil with n = 2: its charpoly is a smooth plane cubic
CUBIC = [
    [
        [[1.0282190720409716, 0.0], [1.0361005188982741, 0.2890354376154016], [1.5956194298185897, -0.393921590247576]],
        [[1.0361005188982741, -0.2890354376154016], [-0.01699784371749489, 0.0], [-1.3815670851746003, 0.1554447801383316]],
        [[1.5956194298185897, 0.393921590247576], [-1.3815670851746003, -0.1554447801383316], [-0.15553891822001584, 0.0]],
    ],
    [
        [[0.9698516025530031, 0.0], [-0.6609648707078943, -0.033509668765764666], [-0.9592001899822831, 0.1686434931325269]],
        [[-0.6609648707078943, 0.033509668765764666], [0.5560513382174068, 0.0], [0.11861842396422126, 0.12805177569894477]],
        [[-0.9592001899822831, -0.1686434931325269], [0.11861842396422126, -0.12805177569894477], [0.18834264203664336, 0.0]],
    ],
]


def test_cubic_dual_has_degree_six(capsys, tmp_path):
    doc = {"d": 3, "n": 2, "matrices": CUBIC}
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(doc))
    code = main(["dual-fit", "--input", str(path), "--seed", "875054859"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out[: out.rfind("}") + 1])
    assert report["degree"] == 6


@pytest.mark.parametrize("seed", [6, 16, 29])
def test_quartic_dual_has_degree_twelve(seed):
    pencil = random_pencil(4, 2, np.random.default_rng(seed))
    result = dual_fit(charpoly(pencil), 12, rng=np.random.default_rng(seed))
    assert result.degree == 12
