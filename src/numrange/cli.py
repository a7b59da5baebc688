"""Command line surface: pencil ingestion, tracing, verification, fits.

Every subcommand reads a pencil, a polynomial or four conics (builtin
name or JSON file), runs one pipeline stage, and emits CSV, JSON, or
SVG.  Reports carry a reproducibility header (the seed and grid sizes
the subcommand takes, tolerances, library versions); identical
configuration yields byte-identical output.

One table (SUBCOMMANDS) defines the subcommands, and each accepts only
the options it reads: --input, whose help names the file it reads, and
--out everywhere; --builtin, the other source, everywhere but
four-ellipses; --seed on trace, verify, dual-fit and central;
--trace-grid on trace, verify and central, --test-grid on verify;
--format where a command writes more than json (csv, json or svg for
trace, json or svg for four-ellipses); --tol on verify and central.
The header records exactly the settings a subcommand takes.

verify compares the support of the traced cloud's hull with the true
support for n <= 3; for n >= 4 it takes the cloud maximum and reports
"advisory": true.

Exit codes, stable: 0 ok, 1 verification fail, 2 parse error, 3 input
validation, 4 dimension mismatch, 5 unsupported request, 6 fit failure.
Library errors map onto them in one table (_EXIT_CODES): a
non-Hermitian input is 3, a dimension or arity mismatch 4, a dimension
beyond a bound or an empty cloud 5, any dual-fit error 6, and every
other linalg, poly, range, cone or hull error 5 (the input parsed, but
the pipeline has no answer for it).  Each prints one "error:" line;
only a failed verification exits 1.  A rejected command line (a bad
value, an unknown option or format, a missing subcommand) exits 2 with
one "error:" line as well, which names the subcommand when it has one.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np
import scipy

from numrange import __version__
from numrange.cones import ConeError
from numrange.dual import (
    DualError,
    NoFormFound,
    SingularForm,
    SymmetricForm,
    central_point_probe,
    chien_nakazato_ellipse_test,
    dual_fit,
    match_reference,
    quadric_dual,
)
from numrange.examples import (
    BUILTIN_NAMES,
    CHIEN_NAKAZATO,
    FOUR_ELLIPSES,
    builtin_pencil,
    chien_nakazato_quartic_terms,
    four_ellipses_conics,
    steiner_quartic_terms,
)
from numrange.hulls import HullError, convex_hull_2d
from numrange.linalg import (
    DimensionMismatch,
    LinalgError,
    MatrixPencil,
    NonHermitianInput,
    pencil_from_json,
)
from numrange.poly import (
    ArityMismatch,
    DimensionTooLarge,
    MultiPoly,
    PolyError,
    charpoly,
    poly_from_json,
    poly_pretty,
    poly_to_json,
)
from numrange.ranges import (
    EmptyCloud,
    RangeError,
    UnsupportedDimension,
    degenerate_patches,
    direction_grid,
    cloud_to_csv,
    merge_boundary_clouds,
    trace_boundary_cloud,
    verify_main_theorem,
)
from numrange.svg import SvgCanvas

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_INPUT = 3
EXIT_DIMENSION = 4
EXIT_UNSUPPORTED = 5
EXIT_FIT = 6

GRID_FLOOR = 8
DEFAULT_TRACE_GRID = 2000
VERIFY_TRACE_GRID = 20000
VERIFY_TEST_GRID = 5000
# Fixed acceptance bar for cmd_verify at its default grids.  The
# library's own default loosens with the mesh, which would wave
# through deliberately under-resolved runs.
VERIFY_TOL = 2e-3
CENTRAL_TRACE_GRID = 20000
# Probe radius for the chien-nakazato singular line.  The regular
# surface dips to distance ~0.0113 from the line just past the
# interval ends, while the traced sweep leaves gaps ~0.002 inside it,
# so the radius must separate those two scales.
CN_PROBE_RADIUS = 0.005
CN_DEFAULT_CANDIDATES = (-5.0, -2.0, -1.2, -0.9, -0.5, 0.0, 0.5, 0.9, 1.2, 2.0, 5.0)
ELLIPSE_SAMPLES = 400
DUAL_FIT_MAX_DEGREE = 6

# Library errors that escape a subcommand, most specific first.
_EXIT_CODES = (
    (NonHermitianInput, EXIT_INPUT),
    ((DimensionMismatch, ArityMismatch), EXIT_DIMENSION),
    ((DimensionTooLarge, UnsupportedDimension, EmptyCloud), EXIT_UNSUPPORTED),
    (DualError, EXIT_FIT),
    ((LinalgError, PolyError, RangeError, ConeError, HullError), EXIT_UNSUPPORTED),
)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _header(args: argparse.Namespace, tolerances: dict) -> dict:
    """The run's settings: the seed and grids the subcommand takes, the
    tolerances it applied and the library versions."""
    header = {
        "tolerances": tolerances,
        "versions": {
            "numrange": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "lapack": _lapack_build(),
        },
    }
    if "seed" in args:
        header["seed"] = args.seed
    grids = _grids(args)
    if grids:
        header["grids"] = grids
    return header


def _grids(args: argparse.Namespace) -> dict:
    """The direction grid sizes the subcommand takes, by grid name."""
    return {
        name: getattr(args, f"{name}_grid") for name in ("trace", "test") if f"{name}_grid" in args
    }


def _lapack_build() -> str:
    """Name and version of the LAPACK numpy links: the eigen kernel's
    last digits, and so byte-identical output, depend on it."""
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    return f"{lapack['name']} {lapack['version']}"


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot read {path}: {exc}") from exc


def _parse_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_PARSE, f"malformed JSON: {exc}") from exc


def _resolve_pencil(args: argparse.Namespace) -> MatrixPencil:
    if args.builtin is not None:
        if args.builtin == FOUR_ELLIPSES:
            raise CliError(
                EXIT_INPUT,
                "four-ellipses carries conics, not a pencil; "
                "use the four-ellipses subcommand",
            )
        try:
            return builtin_pencil(args.builtin)
        except KeyError as exc:
            raise CliError(EXIT_INPUT, str(exc.args[0])) from exc
    if args.input is None:
        raise CliError(EXIT_INPUT, "need --input PATH or --builtin NAME")
    return _pencil_document(_parse_json(_read_text(args.input)))


def _pencil_document(doc: dict) -> MatrixPencil:
    try:
        return pencil_from_json(doc)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"malformed pencil document: {exc}") from exc


def _resolve_polynomial(args: argparse.Namespace) -> MultiPoly:
    if args.builtin is not None:
        return charpoly(_resolve_pencil(args))
    if args.input is None:
        raise CliError(EXIT_INPUT, "need --input PATH or --builtin NAME")
    doc = _parse_json(_read_text(args.input))
    if isinstance(doc, dict) and "matrices" in doc:
        return charpoly(_pencil_document(doc))
    try:
        return poly_from_json(doc)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(EXIT_PARSE, f"malformed polynomial document: {exc}") from exc


def _emit(args: argparse.Namespace, text: str, echo: str | None = None):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        if echo:
            print(echo)
    else:
        sys.stdout.write(text)


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_charpoly(args: argparse.Namespace) -> int:
    pencil = _resolve_pencil(args)
    f = charpoly(pencil)
    pretty = poly_pretty(f)
    doc = {
        "header": _header(args, {}),
        "domain": f.domain,
        "polynomial": json.loads(poly_to_json(f)),
        "pretty": pretty,
    }
    _emit(args, _json_text(doc), echo=pretty)
    return EXIT_OK


def cmd_trace(args: argparse.Namespace) -> int:
    pencil = _resolve_pencil(args)
    if pencil.n < 2:
        raise CliError(
            EXIT_DIMENSION, f"tracing needs at least two matrices, got {pencil.n}"
        )
    rng = np.random.default_rng(args.seed)
    grid = direction_grid(pencil.n, args.trace_grid, rng)
    # degenerate branches are drawn too, flagged simple=False and counted
    # as verify counts them
    cloud = trace_boundary_cloud(pencil, grid, include_degenerate=True)
    skipped = int(np.count_nonzero(~cloud.simple))
    meta = {
        "seed": args.seed,
        "trace_grid": args.trace_grid,
        "grid_kind": grid.kind,
        "skipped": skipped,
        "numrange": __version__,
    }
    if args.format == "svg":
        if pencil.n != 2:
            raise CliError(
                EXIT_UNSUPPORTED, "SVG tracing is a planar view; pencil has n != 2"
            )
        _emit(args, _trace_svg(cloud))
        return EXIT_OK
    if args.format == "json":
        doc = {"header": _header(args, {}), "rows": [], "skipped": skipped}
        # a newline and two spaces open only the document's own keys, so
        # this finds "rows" and nothing inside the header
        text = _json_text(doc).replace('\n  "rows": []', '\n  "rows": ' + _rows_json(cloud), 1)
        _emit(args, text)
        return EXIT_OK
    _emit(args, cloud_to_csv(cloud, meta))
    return EXIT_OK


def _rows_json(cloud) -> str:
    """The cloud's rows, one object per contact, spelled as
    json.dumps(indent=2, sort_keys=True) spells them one level down.

    The numbers come from json's own encoder, one call for all of them;
    one row template, repeated and filled by a single %, lays them out.
    """
    count, n = len(cloud), cloud.n
    if not count:
        return "[]"
    number = ",\n".join(["        %s"] * n)
    row = (
        '    {\n      "branch": %s,\n      "direction": [\n' + number
        + '\n      ],\n      "point": [\n' + number
        + '\n      ],\n      "simple": %s\n    }'
    )
    cells = np.empty((count, 2 * n + 2), dtype=object)
    cells[:, 0] = cloud.branch.tolist()
    floats = json.dumps(np.hstack([cloud.directions, cloud.coords]).ravel().tolist())
    cells[:, 1:-1] = np.array(floats[1:-1].split(", "), dtype=object).reshape(count, 2 * n)
    cells[:, -1] = np.where(cloud.simple, "true", "false").tolist()
    return "[\n" + ",\n".join([row] * count) % tuple(cells.ravel().tolist()) + "\n  ]"


def _trace_svg(cloud) -> str:
    canvas = SvgCanvas()
    palette = ("#1f6feb", "#d29922", "#3fb950", "#f85149", "#bc8cff", "#39c5cf")
    for b in np.unique(cloud.branch).tolist():
        canvas.polyline(cloud.coords[cloud.branch == b], stroke=palette[b % len(palette)])
    hull = convex_hull_2d(cloud.points())
    if not hull.flat:
        canvas.polygon(hull.vertices, stroke="#8b949e")
    return canvas.render()


def cmd_verify(args: argparse.Namespace) -> int:
    pencil = _resolve_pencil(args)
    if pencil.n < 2:
        raise CliError(
            EXIT_DIMENSION, f"verification needs at least two matrices, got {pencil.n}"
        )
    rng = np.random.default_rng(args.seed)
    tgrid = direction_grid(pencil.n, args.trace_grid, rng)
    pgrid = direction_grid(pencil.n, args.test_grid, rng)
    tol = VERIFY_TOL if args.tol is None else args.tol
    report = verify_main_theorem(pencil, tgrid, pgrid, tol=tol)
    doc = {
        "header": _header(args, {"max_gap": report.tol}),
        **report.to_json_dict(),
    }
    _emit(args, _json_text(doc), echo=f"verdict: {report.verdict}")
    return EXIT_OK if report.passed() else EXIT_VERIFY_FAIL


def cmd_dual_fit(args: argparse.Namespace) -> int:
    f = _resolve_polynomial(args)
    rng = np.random.default_rng(args.seed)
    try:
        result = dual_fit(f.to_float(), DUAL_FIT_MAX_DEGREE, rng=rng)
    except NoFormFound as exc:
        raise CliError(EXIT_FIT, f"no dual form found: {exc}") from exc
    doc = {
        "header": _header(args, {}),
        **result.to_json_dict(),
    }
    reference = _dual_reference(args.builtin)
    if reference is not None:
        doc["reference_match"] = match_reference(result.form, reference)
    _emit(
        args,
        _json_text(doc),
        echo=f"degree {result.degree}, rms {result.residual_rms:.3e}",
    )
    return EXIT_OK


def _dual_reference(builtin: str | None):
    if builtin == "cayley":
        return steiner_quartic_terms()
    if builtin == CHIEN_NAKAZATO:
        return chien_nakazato_quartic_terms()
    return None


def cmd_central(args: argparse.Namespace) -> int:
    pencil = _resolve_pencil(args)
    candidates = _parse_candidates(args, pencil.n)
    rng = np.random.default_rng(args.seed)
    grid = direction_grid(pencil.n, args.trace_grid, rng)
    cloud = trace_boundary_cloud(pencil, grid)
    patches = degenerate_patches(pencil, cloud)
    if len(patches):
        cloud = merge_boundary_clouds(cloud, patches)
    radius = args.tol
    if radius is None and args.builtin == CHIEN_NAKAZATO:
        radius = CN_PROBE_RADIUS
    rows = []
    for cand in candidates:
        probe = central_point_probe(pencil, cand, cloud, radius=radius)
        row = {
            "candidate": list(cand),
            "verdict": probe.verdict,
            "distance": probe.distance,
            "radius": probe.radius,
        }
        if args.builtin == CHIEN_NAKAZATO and abs(cand[1]) < 1e-12:
            exact = chien_nakazato_ellipse_test(cand[0], cand[2])
            row["ellipse_test"] = "central" if exact else "not_central"
            row["cross_check"] = row["ellipse_test"] == probe.verdict
        rows.append(row)
    doc = {
        "header": _header(args, {"probe_radius": radius}),
        "patch_records": len(patches),
        "candidates": rows,
    }
    echo = ", ".join(
        f"{tuple(r['candidate'])}: {r['verdict']}" for r in rows
    )
    _emit(args, _json_text(doc), echo=echo)
    return EXIT_OK


def _parse_candidates(args: argparse.Namespace, n: int) -> list:
    if not args.candidates:
        if args.builtin == CHIEN_NAKAZATO:
            return [(t, 0.0, 0.0) for t in CN_DEFAULT_CANDIDATES]
        raise CliError(EXIT_INPUT, "no candidates given")
    out = []
    for raw in args.candidates:
        parts = raw.split(",")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise CliError(EXIT_PARSE, f"bad candidate {raw!r}: {exc}") from exc
        if len(vals) == 1:
            vals = vals + [0.0] * (n - 1)
        if len(vals) != n:
            raise CliError(
                EXIT_DIMENSION,
                f"candidate {raw!r} has {len(vals)} coordinates, pencil has n = {n}",
            )
        out.append(tuple(vals))
    return out


def cmd_four_ellipses(args: argparse.Namespace) -> int:
    conics = _resolve_conics(args)
    duals = []
    for k, M in enumerate(conics):
        try:
            form = SymmetricForm.from_rows(M)
            duals.append(quadric_dual(form, integerize=False).as_array())
        except SingularForm as exc:
            raise CliError(EXIT_INPUT, f"conic {k} is singular: {exc}") from exc
        except ValueError as exc:
            raise CliError(EXIT_INPUT, f"conic {k}: {exc}") from exc
    loops = [_conic_loop(D, k) for k, D in enumerate(duals)]
    allpts = np.vstack(loops)
    hull = convex_hull_2d(allpts)
    contributors = sorted({int(i) // ELLIPSE_SAMPLES for i in hull.vertex_indices})
    redundant = [k for k in range(len(conics)) if k not in contributors]
    if args.format == "svg":
        canvas = SvgCanvas()
        palette = ("#1f6feb", "#d29922", "#3fb950", "#f85149")
        for k, loop in enumerate(loops):
            canvas.polygon(loop, stroke=palette[k % len(palette)])
        if not hull.flat:
            canvas.polygon(hull.vertices, stroke="#8b949e")
        _emit(args, canvas.render())
        return EXIT_OK
    doc = {
        "header": _header(args, {}),
        "dual_conics": [[list(map(float, row)) for row in D] for D in duals],
        "hull_vertices": [list(map(float, v)) for v in hull.vertices],
        "contributors": contributors,
        "redundant": redundant,
    }
    _emit(args, _json_text(doc), echo=f"redundant conics: {redundant}")
    return EXIT_OK


def _resolve_conics(args: argparse.Namespace) -> list:
    if args.input is None:
        return four_ellipses_conics()
    doc = _parse_json(_read_text(args.input))
    raw = doc.get("conics") if isinstance(doc, dict) else None
    if not isinstance(raw, list):
        raise CliError(EXIT_PARSE, "expected top-level key 'conics' holding a list")
    out = []
    for k, m in enumerate(raw):
        try:
            arr = np.asarray(m, dtype=float)
        except (TypeError, ValueError) as exc:
            raise CliError(EXIT_PARSE, f"conic {k} is not a numeric matrix: {exc}") from exc
        if not np.all(np.isfinite(arr)):
            raise CliError(EXIT_PARSE, f"conic {k} has a non-finite entry")
        if arr.shape != (3, 3):
            raise CliError(EXIT_INPUT, f"conic {k} is not 3x3: shape {arr.shape}")
        if float(np.abs(arr - arr.T).max()) > 1e-12 * max(float(np.abs(arr).max()), 1e-300):
            raise CliError(EXIT_INPUT, f"conic {k} is not symmetric")
        out.append(arr)
    if len(out) != 4:
        raise CliError(EXIT_INPUT, f"expected four conics, found {len(out)}")
    return out


def _conic_loop(D: np.ndarray, index: int) -> np.ndarray:
    """Sample a bounded dual conic as a closed polygon.

    Splitting D into affine blocks, the curve is an ellipse exactly when
    the quadratic block is definite after sign normalization; unbounded
    duals (origin on or outside the primal) are rejected.
    """
    A = D[1:, 1:]
    b = D[0, 1:]
    c = float(D[0, 0])
    evals, evecs = np.linalg.eigh(A)
    scale = max(float(np.abs(D).max()), 1e-300)
    if np.all(evals < 0):
        A, b, c = -A, -b, -c
        evals, evecs = -evals[::-1], evecs[:, ::-1]
    if np.any(evals <= 1e-12 * scale):
        raise CliError(
            EXIT_INPUT,
            f"dual conic {index} is not an ellipse; "
            "the primal must contain the origin in its interior",
        )
    center = -np.linalg.solve(A, b)
    # conic value at the center: c - b A^{-1} b
    gamma = c + float(b @ center)
    if gamma >= 0:
        raise CliError(EXIT_INPUT, f"dual conic {index} has no real points")
    theta = np.linspace(0.0, 2.0 * np.pi, ELLIPSE_SAMPLES, endpoint=False)
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    half = evecs @ np.diag(np.sqrt(-gamma / evals))
    return center[None, :] + ring @ half.T


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """Rejects a command line with one error line and exit 2, instead of
    argparse's usage block and SystemExit."""

    def error(self, message):
        raise CliError(EXIT_PARSE, f"{self.prog}: {message}")


class _Subparser(_Parser):
    """A subcommand's parser.  It rejects the arguments it does not take
    itself, so that the error line names the subcommand; argparse would
    hand them back to the top-level parser."""

    def parse_known_args(self, args=None, namespace=None):
        parsed, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return parsed, extras


# Options beyond --input and --out, by the name a subcommand row lists;
# --builtin joins --input as the other source of the input.
_EXTRA_OPTIONS = {
    "builtin": (("--builtin",), {"help": f"one of {', '.join(BUILTIN_NAMES)}"}),
    "seed": (("--seed",), {"type": int, "default": 0}),
    "tol": (("--tol",), {"type": float, "default": None}),
    "candidates": (
        ("candidates",),
        {"nargs": "*", "help": "points 'y1,y2,...' or bare y1 for the first-axis line"},
    ),
}

PENCIL_FILE = "pencil JSON file"

# One row per subcommand: name, command, what its --input file holds,
# the default size of each direction grid it takes, the formats it
# writes (the first is the default; a json-only command takes no
# --format), and its extra options.
SUBCOMMANDS = (
    ("charpoly", cmd_charpoly, PENCIL_FILE, {}, (), ("builtin",)),
    (
        "trace", cmd_trace, PENCIL_FILE, {"trace": DEFAULT_TRACE_GRID}, ("csv", "json", "svg"),
        ("builtin", "seed"),
    ),
    (
        "verify", cmd_verify, PENCIL_FILE,
        {"trace": VERIFY_TRACE_GRID, "test": VERIFY_TEST_GRID}, (), ("builtin", "seed", "tol"),
    ),
    ("dual-fit", cmd_dual_fit, "pencil or polynomial JSON file", {}, (), ("builtin", "seed")),
    (
        "central", cmd_central, PENCIL_FILE, {"trace": CENTRAL_TRACE_GRID}, (),
        ("builtin", "seed", "tol", "candidates"),
    ),
    (
        "four-ellipses", cmd_four_ellipses, "JSON file with a top-level 'conics' list", {},
        ("json", "svg"), (),
    ),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once: parse_args keeps its state in the namespace it returns
    ap = _Parser(
        prog="numrange",
        description="joint numerical ranges, dual forms, hyperbolicity cones",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True, parser_class=_Subparser)
    for name, cmd, input_help, grids, formats, extras in SUBCOMMANDS:
        p = sub.add_parser(name)
        src = p.add_mutually_exclusive_group()
        src.add_argument("--input", help=input_help)
        for grid, default in grids.items():
            p.add_argument(f"--{grid}-grid", type=int, default=default)
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None)
        for extra in extras:
            flags, kwargs = _EXTRA_OPTIONS[extra]
            (src if extra == "builtin" else p).add_argument(*flags, **kwargs)
        p.set_defaults(run=cmd)
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        for label, value in _grids(args).items():
            if value < GRID_FLOOR:
                raise CliError(
                    EXIT_INPUT, f"{label} grid {value} below the floor of {GRID_FLOOR}"
                )
        # Overflow on extreme input is left to the pipelines' own gates;
        # numpy's warnings would break the one-line stderr contract.
        with np.errstate(all="ignore"):
            return args.run(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (LinalgError, PolyError, RangeError, DualError, ConeError, HullError) as exc:
        code = next(c for kinds, c in _EXIT_CODES if isinstance(exc, kinds))
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return code


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
