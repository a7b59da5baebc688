"""The CLI's failure contract: every input ends in a documented exit
code 0-6 with at most one line on stderr, never in a traceback, and
exit 1 only for a failed verification."""

import contextlib
import io
import json
import os
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from numrange.cli import main

I2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]


def run_document(doc, *args):
    """Write doc as JSON, run the CLI on it in-process and return the
    exit code and stderr.  A string doc is written as it stands."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([args[0], "--input", path, *args[1:]])
    # a warning would print its own lines on stderr
    return code, err.getvalue() + "".join(f"warning: {w.message}\n" for w in caught)


def assert_one_error_line(err):
    assert err.startswith("error: ") and err.count("\n") == 1


class TestLibraryErrorTable:
    def test_dual_fit_without_regular_points_is_fit_failure(self):
        # a single 2x2 identity: the charpoly x0^2 has no regular points
        code, err = run_document({"d": 2, "n": 1, "matrices": [I2]}, "dual-fit")
        assert code == 6
        assert_one_error_line(err)
        assert "InsufficientSamples" in err

    def test_empty_pencil_is_dimension_mismatch(self):
        code, err = run_document({"d": 0, "n": 0, "matrices": []}, "charpoly")
        assert code == 4
        assert_one_error_line(err)
        assert "DimensionMismatch" in err

    def test_arity_mismatch_is_dimension_error(self):
        doc = {"vars": ["x0", "x1"], "degree": 1, "terms": [{"exp": [1, 0, 0], "coeff": 1}]}
        code, err = run_document(doc, "dual-fit")
        assert code == 4
        assert_one_error_line(err)

    def test_exact_entry_beyond_float_range(self):
        # exact arithmetic takes 10**400; the float solvers cannot
        doc = {"d": 1, "n": 2, "matrices": [[[[10**400, 0]]], [[[1, 0]]]]}
        assert run_document(doc, "charpoly") == (0, "")
        code, err = run_document(doc, "trace", "--trace-grid", "8")
        assert code == 5
        assert_one_error_line(err)
        assert "OutOfFloatRange" in err


    def test_central_on_single_matrix_with_repeated_eigenvalue(self):
        # diag(1, 1, 2): the zero gap at u = 1 used to seed a crossing
        # search with no direction to move in
        diag = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [2, 0]]]
        code, err = run_document({"d": 3, "n": 1, "matrices": [diag]}, "central", "0")
        assert (code, err) == (0, "")


class TestPolynomialDocument:
    @pytest.mark.parametrize(
        "coeff",
        ["true", "1e400", "-1e400", "NaN", '"1/0"', '"1e400"', "[1]", "null"],
    )
    def test_bad_coefficient_is_parse_error(self, coeff):
        text = (
            '{"vars": ["x0", "x1"], "degree": 2, "terms": '
            '[{"exp": [2, 0], "coeff": %s}, {"exp": [0, 2], "coeff": -1.0}]}' % coeff
        )
        code, err = run_document(text, "dual-fit")
        assert code == 2
        assert_one_error_line(err)
        assert "malformed polynomial document" in err

    @pytest.mark.parametrize(
        "field",
        [
            {"degree": True},
            {"degree": 2.5},
            {"degree": "2"},
            {"terms": [{"exp": [3, -1], "coeff": 1}]},
            {"terms": [{"exp": [True, 1], "coeff": 1}]},
            {"terms": [[2, 0]]},
            {"terms": {"exp": [2, 0]}},
        ],
    )
    def test_bad_structure_is_parse_error(self, field):
        doc = {"vars": ["x0", "x1"], "degree": 2, "terms": [{"exp": [2, 0], "coeff": 1}]}
        doc.update(field)
        code, err = run_document(doc, "dual-fit")
        assert code == 2
        assert_one_error_line(err)


# -- property gate over malformed and edge-case documents -----------------

NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from([True, None, "1/2", "1/0", "x", 10**400, "1e400", [1]]),
)
ENTRIES = st.one_of(st.lists(NUMBERS, min_size=2, max_size=2), NUMBERS, st.lists(NUMBERS, max_size=3))
COUNTS = st.one_of(st.integers(-1, 3), st.sampled_from([True, 2.0, "2", None, 10**400]))


@st.composite
def pencil_documents(draw):
    d = draw(st.integers(0, 3))
    n = draw(st.integers(0, 3))
    if draw(st.booleans()):
        # well-formed shape, arbitrary entries
        block = st.lists(st.lists(ENTRIES, min_size=d, max_size=d), min_size=d, max_size=d)
        mats = draw(st.lists(block, min_size=n, max_size=n))
    else:
        mats = draw(st.one_of(st.none(), st.lists(st.lists(st.lists(ENTRIES, max_size=3), max_size=3), max_size=3)))
    doc = {"d": d, "n": n, "matrices": mats}
    if draw(st.booleans()):
        doc[draw(st.sampled_from(["d", "n"]))] = draw(COUNTS)
    if draw(st.integers(0, 9)) == 0:
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


@st.composite
def polynomial_documents(draw):
    nvars = draw(st.integers(0, 3))
    degree = draw(st.one_of(st.integers(0, 3), COUNTS))
    exps = st.lists(st.one_of(st.integers(-1, 3), COUNTS), min_size=nvars, max_size=nvars)
    terms = draw(st.lists(st.fixed_dictionaries({"exp": exps, "coeff": NUMBERS}), max_size=4))
    doc = {"vars": [f"x{j}" for j in range(nvars)], "degree": degree, "terms": terms}
    if draw(st.integers(0, 9)) == 0:
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


@st.composite
def hermitian_pencils(draw):
    """Valid documents at the edges: zero, scalar and 1x1 pencils, and
    entries from 1e-300 to 1e300, or exact integers up to 10**400."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    scale = st.sampled_from([0, 1, -1, 2, 0.5, 1e-300, 1e150, 1e200, 1e300, 10**200, 10**400])
    mats = []
    for _ in range(n):
        m = [[[0, 0] for _ in range(d)] for _ in range(d)]
        for i in range(d):
            m[i][i][0] = draw(scale)
            for j in range(i + 1, d):
                re, im = draw(scale), draw(scale)
                m[i][j], m[j][i] = [re, im], [re, -im]
        mats.append(m)
    return {"d": d, "n": n, "matrices": mats}


DOCUMENTS = st.one_of(
    hermitian_pencils(),
    pencil_documents(),
    polynomial_documents(),
    st.sampled_from(["{not json", "[]", "3", "null", '"text"']),
)
SUBCOMMANDS = st.sampled_from(
    [
        ("charpoly",),
        ("trace", "--trace-grid", "8"),
        ("verify", "--trace-grid", "16", "--test-grid", "8"),
        ("central", "--trace-grid", "16", "0"),
        ("dual-fit",),
    ]
)


# derandomized, so every run checks the same 60 documents (about 2 s)
@settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(doc=DOCUMENTS, args=SUBCOMMANDS)
def test_every_document_ends_in_a_documented_exit_code(doc, args):
    code, err = run_document(doc, *args)
    assert 0 <= code <= 6
    assert err.count("\n") <= 1
    if code != 0:
        assert err.startswith("error: ") or (code == 1 and args[0] == "verify")
