"""Malformed `four-ellipses --input` documents end in exit 2 with one
"error:" line, never in a traceback."""

import json

import pytest

from numrange.cli import main

CIRCLE = [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        '"x"',
        '{"conics": 5}',
        '{"conics": [["a"]]}',
        '{"conics": [[1, [2]]]}',
        '{"conics": [{"a": 1}]}',
        "{}",
        json.dumps({"conics": [[[float("nan"), 0, 0], [0, 1, 0], [0, 0, 1]]] + [CIRCLE] * 3}),
    ],
)
def test_malformed_document_is_parse_error(text, tmp_path, capsys):
    path = tmp_path / "conics.json"
    path.write_text(text)
    code = main(["four-ellipses", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
