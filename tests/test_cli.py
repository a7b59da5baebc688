import json

import numpy as np
import pytest

from numrange.cli import _build_parser, main
from numrange.dual import SymmetricForm, quadric_dual
from numrange.examples import builtin_pencil
from numrange.linalg import HermitianMatrix, MatrixPencil
from numrange.poly import poly_to_json
from numrange.ranges import direction_grid, support_table, trace_boundary_cloud

from conftest import random_pencil
from support import form_to_poly, pencil_to_json


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CN_CUBIC = "x0^3 + x0^2*x3 - 2*x0*x1^2 - x0*x2^2 - x1^3 - x1^2*x3 + x1*x2^2"


class TestCharpoly:
    def test_builtin_cubic_exact(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--builtin", "chien-nakazato")
        assert code == 0
        assert CN_CUBIC in out

    def test_drop_factors_through_plane(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--builtin", "drop")
        assert code == 0
        # (x0 + 2 x1) divides: the quotient is the Lorentz quadric
        assert "x0^3 + 2*x0^2*x1" in out

    def test_zero_pencil_gives_pure_power(self, capsys, tmp_path):
        doc = {
            "d": 2,
            "n": 2,
            "matrices": [
                [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
            ],
        }
        p = tmp_path / "zero.json"
        p.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "charpoly", "--input", str(p))
        assert code == 0
        assert "x0^2" in out

    def test_malformed_json_is_parse_error(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, err = run(capsys, "charpoly", "--input", str(p))
        assert code == 2
        assert "error:" in err

    def test_nonhermitian_names_offender(self, capsys, tmp_path):
        doc = {
            "d": 2,
            "n": 1,
            "matrices": [[[[1, 0], [2, 0]], [[3, 0], [1, 0]]]],
        }
        p = tmp_path / "skew.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, "charpoly", "--input", str(p))
        assert code == 3
        assert "matrix 0" in err and "(0, 1)" in err.replace("(0,1)", "(0, 1)")

    def test_unknown_builtin_rejected(self, capsys):
        code, _, err = run(capsys, "charpoly", "--builtin", "nonesuch")
        assert code == 3
        assert "nonesuch" in err


class TestTrace:
    def test_qubit_disk_circle(self, capsys, tmp_path):
        out_path = tmp_path / "disk.csv"
        code, _, _ = run(
            capsys,
            "trace",
            "--builtin", "qubit-disk",
            "--trace-grid", "360",
            "--out", str(out_path),
        )
        assert code == 0
        rows = [
            line.split(",")
            for line in out_path.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("u1")
        ]
        assert len(rows) == 720
        for row in rows:
            y = np.array([float(row[3]), float(row[4])])
            assert abs(np.linalg.norm(y) - 1.0) <= 1e-9

    def test_grid_floor_enforced(self, capsys):
        code, _, err = run(
            capsys, "trace", "--builtin", "qubit-disk", "--trace-grid", "4"
        )
        assert code == 3
        assert "floor of 8" in err

    def test_single_matrix_is_dimension_error(self, capsys, tmp_path):
        pencil = random_pencil(3, 1, np.random.default_rng(0))
        p = tmp_path / "one.json"
        p.write_text(pencil_to_json(pencil))
        code, _, _ = run(capsys, "trace", "--input", str(p))
        assert code == 4

    def test_svg_limited_to_planar(self, capsys):
        code, _, err = run(
            capsys,
            "trace",
            "--builtin", "chien-nakazato",
            "--trace-grid", "64",
            "--format", "svg",
        )
        assert code == 5

    def test_svg_output_for_qubit(self, capsys):
        code, out, _ = run(
            capsys,
            "trace",
            "--builtin", "qubit-disk",
            "--trace-grid", "64",
            "--format", "svg",
        )
        assert code == 0
        assert out.startswith("<svg") and "polyline" in out

    def test_svg_draws_scalar_pencil_point(self, capsys, tmp_path):
        # A1 = I, A2 = 0: the range is the point (1, 0), reached only by
        # the degenerate branch, which trace draws
        p = tmp_path / "scalar.json"
        p.write_text(json.dumps({"d": 2, "n": 2, "matrices": [
            [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        ]}))
        code, out, err = run(
            capsys, "trace", "--input", str(p), "--trace-grid", "64", "--format", "svg"
        )
        assert (code, err) == (0, "")
        assert '<polyline points="1,0 1,0 ' in out

    def test_byte_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["trace", "--builtin", "drop", "--trace-grid", "128", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_drop_defaults_pass(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--builtin", "drop",
            "--trace-grid", "4000",
            "--test-grid", "1000",
        )
        assert code == 0
        doc = json.loads(out[: out.rfind("}") + 1])
        assert doc["max_gap"] <= 2e-3
        assert doc["min_gap"] >= -1e-9

    def test_starved_grid_fails_honestly(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--builtin", "drop", "--trace-grid", "8"
        )
        assert code == 1

    @pytest.mark.parametrize(
        "diagonals",
        [
            # the range is the segment from (1, 0) to (2, 1)
            ([1.0, 1.0, 2.0], [0.0, 0.0, 1.0]),
            # a scalar pencil: the range is the point (1, 0)
            ([1.0, 1.0], [0.0, 0.0]),
        ],
        ids=["segment", "scalar"],
    )
    def test_degenerate_branches_are_contacts(self, capsys, tmp_path, diagonals):
        # every direction has a repeated eigenvalue; its eigenspace's
        # contacts span the range, so the verdict is a pass
        p = tmp_path / "pencil.json"
        p.write_text(pencil_to_json(MatrixPencil([HermitianMatrix(np.diag(v)) for v in diagonals])))
        code, out, _ = run(capsys, "verify", "--input", str(p))
        assert code == 0
        doc = json.loads(out[: out.rfind("}") + 1])
        assert doc["verdict"] == "pass"
        assert abs(doc["max_gap"]) <= 1e-12 and abs(doc["min_gap"]) <= 1e-12
        # one simple=False contact per direction
        assert doc["skipped"] == doc["grid_sizes"]["trace"]

    def test_four_matrices_report_advisory(self, capsys, tmp_path):
        # no hull above three matrices: the cloud maximum stands in
        pencil = random_pencil(2, 4, np.random.default_rng(1))
        p = tmp_path / "four.json"
        p.write_text(pencil_to_json(pencil))
        code, out, _ = run(
            capsys, "verify", "--input", str(p), "--trace-grid", "64",
            "--test-grid", "32",
        )
        assert code in (0, 1)
        doc = json.loads(out[: out.rfind("}") + 1])
        assert doc["advisory"] is True
        # the same grids as the command's: both drawn from one seed-0 stream
        rng = np.random.default_rng(0)
        tgrid, pgrid = direction_grid(4, 64, rng), direction_grid(4, 32, rng)
        cloud = trace_boundary_cloud(pencil, tgrid, include_degenerate=True)
        gaps = support_table(pencil, pgrid).values - (cloud.coords @ pgrid.directions.T).max(axis=0)
        assert doc["max_gap"] == pytest.approx(gaps.max(), abs=1e-12)


class TestDualFit:
    def test_cayley_matches_reference(self, capsys):
        code, out, _ = run(
            capsys, "dual-fit", "--builtin", "cayley", "--seed", "0"
        )
        assert code == 0
        doc = json.loads(out[: out.rfind("}") + 1])
        assert doc["degree"] == 4
        assert doc["reference_match"]["matched"] is True
        assert doc["reference_match"]["max_coeff_error"] <= 1e-6

    def test_quadric_input_recovers_inverse(self, capsys, tmp_path):
        lorentz = SymmetricForm.from_rows(
            [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
            domain="exact",
        )
        f = form_to_poly(lorentz)
        p = tmp_path / "lorentz.json"
        p.write_text(poly_to_json(f))
        code, out, _ = run(capsys, "dual-fit", "--input", str(p), "--seed", "1")
        assert code == 0
        doc = json.loads(out[: out.rfind("}") + 1])
        assert doc["degree"] == 2
        got = {tuple(t["exp"]): t["coeff"] for t in doc["terms"]}
        ref = quadric_dual(lorentz).as_array()
        ratio = ref[0, 0] / got[(2, 0, 0, 0)]
        for k in range(1, 4):
            exp = tuple(2 if j == k else 0 for j in range(4))
            assert got[exp] * ratio == pytest.approx(ref[k, k], abs=1e-7)

    def test_steep_dual_reports_fit_failure(self, capsys, tmp_path):
        # smooth quartic curve: its dual has degree 12, over the ceiling
        from fractions import Fraction
        from numrange.poly import MultiPoly

        f = MultiPoly(
            3, 4,
            {(4, 0, 0): Fraction(1), (0, 4, 0): Fraction(1), (0, 0, 4): Fraction(-1)},
            "exact",
        )
        p = tmp_path / "quartic.json"
        p.write_text(poly_to_json(f))
        code, _, err = run(capsys, "dual-fit", "--input", str(p), "--seed", "2")
        assert code == 6
        assert "no dual form" in err


class TestCentral:
    def test_drop_apex_is_central(self, capsys):
        code, out, _ = run(
            capsys,
            "central",
            "--builtin", "drop",
            "--trace-grid", "2000",
            "2",
        )
        assert code == 0
        doc = json.loads(out[: out.rfind("}") + 1])
        row = doc["candidates"][0]
        assert row["candidate"] == [2.0, 0.0, 0.0]
        assert row["verdict"] == "central"

    def test_far_point_is_not_central(self, capsys):
        code, out, _ = run(
            capsys,
            "central",
            "--builtin", "drop",
            "--trace-grid", "2000",
            "5,5,5",
        )
        assert code == 0
        doc = json.loads(out[: out.rfind("}") + 1])
        assert doc["candidates"][0]["verdict"] == "not_central"

    def test_candidate_arity_mismatch(self, capsys):
        code, _, err = run(
            capsys,
            "central",
            "--builtin", "drop",
            "--trace-grid", "512",
            "1,2",
        )
        assert code == 4

    def test_no_candidates_without_builtin_default(self, capsys):
        code, _, err = run(
            capsys, "central", "--builtin", "drop", "--trace-grid", "512"
        )
        assert code == 3
        assert "no candidates" in err


class TestFourEllipses:
    def test_default_family_drops_last(self, capsys):
        code, out, _ = run(capsys, "four-ellipses", "--format", "json")
        assert code == 0
        doc = json.loads(out[: out.rfind("}") + 1])
        assert doc["redundant"] == [3]

    def test_nested_circles_keep_smallest(self, capsys, tmp_path):
        conics = [
            [[-float(r * r), 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
            for r in (1, 2, 3, 4)
        ]
        p = tmp_path / "circles.json"
        p.write_text(json.dumps({"conics": conics}))
        code, out, _ = run(capsys, "four-ellipses", "--input", str(p))
        assert code == 0
        doc = json.loads(out[: out.rfind("}") + 1])
        # dual radii are 1/r: the smallest primal circle carries the hull
        assert doc["contributors"] == [0]
        assert doc["redundant"] == [1, 2, 3]

    def test_identical_conics_leave_one(self, capsys, tmp_path):
        conic = [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        p = tmp_path / "same.json"
        p.write_text(json.dumps({"conics": [conic] * 4}))
        code, out, _ = run(capsys, "four-ellipses", "--input", str(p))
        assert code == 0
        doc = json.loads(out[: out.rfind("}") + 1])
        assert len(doc["redundant"]) == 3

    def test_singular_conic_rejected(self, capsys, tmp_path):
        conics = [
            [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            [[-4.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            [[-9.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        ]
        p = tmp_path / "sing.json"
        p.write_text(json.dumps({"conics": conics}))
        code, _, err = run(capsys, "four-ellipses", "--input", str(p))
        assert code == 3
        assert "singular" in err

    def test_svg_render(self, capsys):
        code, out, _ = run(capsys, "four-ellipses", "--format", "svg")
        assert code == 0
        assert out.startswith("<svg") and "polygon" in out


class TestReproHeader:
    def test_header_records_run(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--builtin", "drop",
            "--trace-grid", "512",
            "--test-grid", "128",
            "--seed", "11",
        )
        doc = json.loads(out[: out.rfind("}") + 1])
        header = doc["header"]
        assert header["seed"] == 11
        assert header["grids"] == {"trace": 512, "test": 128}
        assert "numrange" in header["versions"]
        assert "numpy" in header["versions"]

    @pytest.mark.parametrize(
        "argv,keys",
        [
            (["charpoly", "--builtin", "drop"], {}),
            (["trace", "--builtin", "drop", "--trace-grid", "64", "--format", "json"],
             {"seed": 0, "grids": {"trace": 64}}),
            (["verify", "--builtin", "drop", "--trace-grid", "64", "--test-grid", "16"],
             {"seed": 0, "grids": {"trace": 64, "test": 16}}),
            (["dual-fit", "--builtin", "cayley", "--seed", "3"], {"seed": 3}),
            (["central", "--builtin", "drop", "--trace-grid", "64", "2"],
             {"seed": 0, "grids": {"trace": 64}}),
            (["four-ellipses"], {}),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else "",
    )
    def test_header_keys_follow_options(self, capsys, argv, keys):
        # the header records the settings a subcommand takes, and no others
        code, out, _ = run(capsys, *argv)
        assert code in (0, 1)
        header = json.loads(out[: out.rfind("}") + 1])["header"]
        assert set(header) == {"tolerances", "versions"} | set(keys)
        assert {k: header[k] for k in keys} == keys

    def test_header_records_lapack_build(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--builtin", "drop")
        assert code == 0
        versions = json.loads(out[: out.rfind("}") + 1])["header"]["versions"]
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        assert versions["lapack"] == f"{lapack['name']} {lapack['version']}"


class TestCommandLine:
    """A rejected command line exits 2 with one error line, and each
    subcommand takes only the options it reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--trace-grid", "abc"],
            [],
            ["trace", "--bogus"],
            ["central", "--builtin", "drop", "--seed", "1.5", "0"],
        ]
        # options a subcommand does not read, formats it does not write
        + [
            [sub, "--advisory"]
            for sub in ("charpoly", "trace", "verify", "dual-fit", "central", "four-ellipses")
        ]
        + [[sub, "--tol", "1"] for sub in ("charpoly", "trace", "dual-fit", "four-ellipses")]
        + [
            [sub, "--format", fmt]
            for sub in ("charpoly", "verify", "dual-fit", "central")
            for fmt in ("csv", "svg")
        ]
        + [["four-ellipses", "--format", "csv"]]
        # settings a subcommand would only echo into its header
        + [
            [sub, opt, "100"]
            for sub in ("charpoly", "four-ellipses")
            for opt in ("--seed", "--trace-grid", "--test-grid")
        ]
        + [["dual-fit", "--trace-grid", "100"], ["dual-fit", "--test-grid", "100"]]
        + [["trace", "--test-grid", "100"], ["central", "--test-grid", "100"]]
        # --format where json is the only format
        + [[sub, "--format", "json"] for sub in ("charpoly", "verify", "dual-fit", "central")],
        ids=lambda argv: " ".join(argv) or "no-subcommand",
    )
    def test_rejected_command_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["trace", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: numrange")

    @pytest.mark.parametrize(
        "argv,prefix",
        [
            (["charpoly", "--tol", "1"], "numrange charpoly: unrecognized arguments: --tol 1"),
            (["verify", "--trace-grid", "abc"], "numrange verify: argument --trace-grid:"),
            (
                ["four-ellipses", "--builtin", "drop"],
                "numrange four-ellipses: unrecognized arguments: --builtin drop",
            ),
            (["verify", "--builtin", "drop", "2"], "numrange verify: unrecognized arguments: 2"),
            (["--bogus", "charpoly"], "numrange: unrecognized arguments: --bogus"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else "",
    )
    def test_rejection_names_the_subcommand(self, capsys, argv, prefix):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {prefix}") and err.count("\n") == 1

    def test_parser_keeps_no_state_between_calls(self, capsys, tmp_path):
        # the parser is built once; a rejected call must not leak into
        # the next one.  The file is real, so that only the clash of
        # --input with --builtin can reject the third call.
        p = tmp_path / "drop.json"
        p.write_text(pencil_to_json(builtin_pencil("drop")))
        valid = ["dual-fit", "--builtin", "drop", "--seed", "3"]
        calls = [
            valid,
            ["dual-fit", "--builtin", "cayley", "--bogus"],
            ["dual-fit", "--input", str(p), "--builtin", "drop"],
            valid,
        ]
        results = [run(capsys, *argv) for argv in calls]
        assert [code for code, _, _ in results] == [0, 2, 2, 0]
        assert results[0][1] == results[3][1] != ""
        assert _build_parser() is _build_parser()


class TestInputRobustness:
    """Malformed numbers end in a one-line error and a documented code."""

    @staticmethod
    def _doc(entry: str) -> str:
        return '{"d": 2, "n": 2, "matrices": [[[%s, [0, 0]], [[0, 0], [1, 0]]], ' \
            '[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]]}' % entry

    @pytest.mark.parametrize("entry", ["[1e400, 0]", "[NaN, 0]", "[true, 0]", "[0.5, -Infinity]"])
    @pytest.mark.parametrize("subcommand", ["charpoly", "dual-fit"])
    def test_bad_number_is_parse_error(self, capsys, tmp_path, entry, subcommand):
        p = tmp_path / "bad.json"
        p.write_text(self._doc(entry))
        code, out, err = run(capsys, subcommand, "--input", str(p))
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed pencil document") and err.count("\n") == 1

    def test_dual_fit_names_non_hermitian_offender(self, capsys, tmp_path):
        doc = {
            "d": 2,
            "n": 2,
            "matrices": [
                [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                [[[0, 0], [2, 0]], [[1, 0], [0, 0]]],
            ],
        }
        p = tmp_path / "skew.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, "dual-fit", "--input", str(p))
        assert code == 3
        assert "matrix 1" in err

    def test_central_on_one_by_one_pencil(self, capsys, tmp_path):
        # the range of 1x1 matrices is the single point (1, 2, 0.5): no
        # adjacent eigenvalues, so no crossing patches to search
        doc = {"d": 1, "n": 3, "matrices": [[[[1, 0]]], [[[2, 0]]], [[[0.5, 0]]]]}
        p = tmp_path / "d1.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "central", "--input", str(p), "1.5,2.5,0.5")
        assert code == 0 and err == ""
        doc = json.loads(out[: out.rfind("}") + 1])
        assert doc["patch_records"] == 0
        assert doc["candidates"][0]["verdict"] == "not_central"
