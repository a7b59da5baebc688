"""The four workloads: seeded lists of checks and how each check runs.

A check is one question answered end to end.  Each kind of check has

- ``answer(p)``: the untraced call, through ``numrange.cli.main``
  in-process when the CLI offers the check, else through the public
  library call.  Only this call is timed in an untraced run.
- ``judge(p, raw)``: compares the answer with the expected one and
  returns ``(ok, why, tol_use)``, where tol_use is the observed error
  over the check's own tolerance (None for exact answers).
- ``compose(p, tracer)``: the same answer rebuilt from the public
  functions of each module, in the order and with the arguments the
  CLI (or the library call) uses, with a span around every call.
- ``key(p, raw)``: the verdicts and numbers that the untraced answer
  and the traced composition must reproduce bit for bit.

The compositions mirror the package's call sequence as of the commit
that added them; a change to that sequence changes the composition in
a benchmark-only change.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from numrange import __version__
from numrange.cli import (
    CN_DEFAULT_CANDIDATES,
    CN_PROBE_RADIUS,
    DUAL_FIT_MAX_DEGREE,
    main as cli_main,
)
from numrange.cones import (
    PAIRING_TOL,
    dual_cone_membership,
    dual_evaluation_points,
    make_cone_spec,
    normal_ray,
    sample_cone_boundary,
)
from numrange.dual import (
    central_point_probe,
    chien_nakazato_ellipse_test,
    dual_fit,
    sample_variety_points,
    tangent_functionals,
    verify_dual_form,
)
from numrange.examples import builtin_pencil
from numrange.hulls import convex_hull_2d, convex_hull_3d
from numrange.linalg import HermitianMatrix, MatrixPencil, eig_hermitian
from numrange.poly import (
    charpoly,
    check_multiplicity_lemma,
    evaluate,
    poly_pretty,
    poly_to_json,
)
from numrange.ranges import (
    GAP_LOWER_SLACK,
    cloud_to_csv,
    degenerate_patches,
    direction_grid,
    merge_boundary_clouds,
    support_table,
    trace_boundary_cloud,
    verify_main_theorem,
)

from tracing import NULL_TRACER

CN = "chien-nakazato"
PENCIL_BUILTINS = ("cayley", "drop", CN, "qubit-disk")

# Grids: the CLI defaults (20 000 trace / 5 000 test directions) make one
# check take 3-10 s, so a run of a few tens of seconds would hold too few
# checks for a median and a tail.  The benchmark passes smaller grids
# through the CLI's own flags; README.md gives the numbers behind this.
BUILTIN_TRACE_GRID = 2000  # verify, the exports and central
BUILTIN_TEST_GRID = 500
# criterion 05's gap bound; the CLI's fixed 2e-3 bar is set for the
# default 20 000-direction grid and chien-nakazato's gap sits near 3.5e-3
# on every coarser fibonacci grid
BUILTIN_VERIFY_TOL = 5e-3
RANDOM_GRIDS = {2: (240, 101), 3: (400, 150)}
RANDOM_VERIFY_DEGREES = tuple(range(2, 9))
# n is fixed where a random verify would cost about as much as the CSV
# export: d = 2..5 then stay below it and d = 6..8 above, so the median
# check of a run is one of the chien-nakazato checks, whose inputs do not
# depend on the seed, and not a random pencil
RANDOM_VERIFY_FIXED_N = {5: 2, 6: 3}
# (5, 2) is left out: on it, multiplicity_at misreads a boundary point
# within about 0.017 of the apex as a double point (README.md, "Known
# defects"), which failed 1 of 282 such checks.  (5, 3) runs four
# times per pass, so that the tail of a run (the 11th-slowest check)
# falls inside the cluster of (5, 3) checks, and not on its edge.
C08_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)) + ((5, 3),) * 4
C08_POINTS = 10
C09_POINTS = 20
C09_CLOUD_GRID = 500
C09_STATES = 200
ROOTS_POINTS = 8
# a pass sorts by check time into three cheap c08 shapes, a cluster of
# the (3, 3) c08 and the roots checks (0.17-0.20 s at reference speed),
# then the c09 checks and the d >= 4 c08 shapes; with eight roots checks
# the median of a pass falls inside that cluster, and not on its edge,
# where it jumped by a sixth between seeds
ROOTS_PER_PASS = 8
VERIFY_FORM_SAMPLES = 200
# generic conics and quadric surfaces have quadric duals.  Random plane
# cubics and quartics (duals of degree 6 and 12) are left out: on some
# seeds dual_fit accepts a spurious form one degree short (README.md,
# "Known defect"), and a benchmark check must not fail.
RANDOM_DUAL_DEGREES = {(2, 2): 2, (2, 3): 2}
# two pencils of each shape per pass put the median check time among the
# (2, 2) fits; with one, half a pass is fast (charpoly, the qubit-disk
# fit) and half slow, and the median falls in the gap between the halves,
# where it jumps from run to run
RANDOM_DUAL_PER_SHAPE = 2
BUILTIN_DUAL_DEGREES = {"cayley": 4, "drop": 3, CN: 4, "qubit-disk": 2}
CN_CUBIC = "x0^3 + x0^2*x3 - 2*x0*x1^2 - x0*x2^2 - x1^3 - x1^2*x3 + x1*x2^2"

MIN_GAP_FLOOR = -1e-9
RMS_TOL = 1e-6
COEFF_TOL = 1e-7

WORKLOADS = ("contacts", "crossings", "cone", "dual")
PASSES = 24


@dataclass
class Check:
    id: int
    kind: str
    params: dict


def random_pencil(d: int, n: int, rng: np.random.Generator) -> MatrixPencil:
    mats = []
    for _ in range(n):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mats.append(HermitianMatrix(0.5 * (m + m.conj().T)))
    return MatrixPencil(mats)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _interleave(*groups) -> list:
    """Round-robin merge, so that any prefix of a pass mixes the kinds."""
    out = []
    longest = max(len(g) for g in groups)
    for i in range(longest):
        for g in groups:
            if i < len(g):
                out.append(g[i])
    return out


# ---------------------------------------------------------------------------
# workload generation


def _contacts_pass(rng, k):
    builtins = [
        ("verify_builtin", {"builtin": "drop", "seed": k}),
        ("export_csv", {"builtin": CN, "seed": k}),
        ("verify_builtin", {"builtin": CN, "seed": k}),
        ("export_json", {"builtin": CN, "seed": k}),
    ]
    randoms = []
    for d in map(int, rng.permutation(RANDOM_VERIFY_DEGREES)):
        # the other degrees take n = 3 in alternate passes; going to n = 3
        # costs about as much at d in {2, 8} as at d in {3, 4, 7}, so
        # consecutive passes cost about the same
        n = RANDOM_VERIFY_FIXED_N.get(d, 3 if (d in (2, 8)) == (k % 2 == 0) else 2)
        randoms.append(("verify_random", {"d": d, "n": n, "pencil": random_pencil(d, n, rng)}))
    return _interleave(builtins, randoms)


def _drop_candidates(rng):
    """Seeded drop candidates whose answer follows from the geometry.

    The range is the hull of the unit sphere and the point (2, 0, 0);
    every traced contact lies on the sphere cap x <= 1/2, on the apex,
    or (patch records) on the tangent cone between them, so all of them
    have norm >= 1.  Sphere points with x <= -0.2 and the apex are
    central; points of norm <= 0.4 sit at least 0.6 from every contact.
    """
    cands = [((2.0, 0.0, 0.0), "central")]
    while len(cands) < 3:
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        if v[0] <= -0.2:
            cands.append((tuple(float(x) for x in v), "central"))
    for _ in range(2):
        v = rng.standard_normal(3)
        v *= rng.uniform(0.0, 0.4) / np.linalg.norm(v)
        cands.append((tuple(float(x) for x in v), "not_central"))
    order = rng.permutation(len(cands))
    return [cands[i] for i in order]


def _crossings_pass(rng, k):
    checks = [
        ("central", {"builtin": CN, "seed": k, "candidates": None}),
        ("central", {"builtin": "drop", "seed": k, "candidates": _drop_candidates(rng)}),
    ]
    return [checks[i] for i in rng.permutation(len(checks))]


def _cone_pass(rng, k):
    c08 = []
    for i in rng.permutation(len(C08_SHAPES)):
        d, n = C08_SHAPES[i]
        c08.append(("cone_c08", {"d": d, "n": n, "pencil": random_pencil(d, n, rng), "seed": _seed(rng)}))
    c09 = [("cone_c09", {"seeds": [_seed(rng) for _ in range(3)]}) for _ in range(2)]
    roots = [("cone_roots", {"seeds": [_seed(rng) for _ in range(2)]}) for _ in range(ROOTS_PER_PASS)]
    # two c08 checks, a c09 check, two c08 checks, two roots checks, and
    # round again, so that any prefix of a pass mixes the kinds
    return _interleave(c08[0::4], c08[1::4], c09, c08[2::4], c08[3::4], roots[0::2], roots[1::2])


def _dual_pass(rng, k):
    names = [PENCIL_BUILTINS[i] for i in rng.permutation(len(PENCIL_BUILTINS))]
    charpolys = [("charpoly_cli", {"builtin": b}) for b in names]
    fits = [("dualfit_cli", {"builtin": b, "seed": k}) for b in names]
    randoms = []
    for (d, n), degree in RANDOM_DUAL_DEGREES.items():
        for _ in range(RANDOM_DUAL_PER_SHAPE):
            randoms.append(
                (
                    "dualfit_random",
                    {"d": d, "n": n, "degree": degree, "pencil": random_pencil(d, n, rng),
                     "seeds": [_seed(rng), _seed(rng)]},
                )
            )
    randoms = [randoms[i] for i in rng.permutation(len(randoms))]
    return _interleave(fits, randoms, charpolys)


_PASSES = {
    "contacts": _contacts_pass,
    "crossings": _crossings_pass,
    "cone": _cone_pass,
    "dual": _dual_pass,
}


def build(workload: str, seed: int) -> list[list[Check]]:
    """The workload's fixed check list, as passes, from the seed alone.

    Every pass holds the same kinds and shapes of check in a seeded
    order, so a run made of whole passes always measures the same mix.
    Builtin checks pass the pass index as the CLI's --seed, so every run
    asks the same builtin questions pass by pass; the seed drives the
    random pencils, the rng streams of library checks and the order.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    passes = []
    count = 0
    for k in range(PASSES):
        one = []
        for kind, params in _PASSES[workload](rng, k):
            one.append(Check(count, kind, params))
            count += 1
        passes.append(one)
    return passes


# ---------------------------------------------------------------------------
# helpers shared by the kinds


def run_cli(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
    return {"code": code, "text": buf.getvalue()}


def _doc(raw: dict) -> dict:
    if "doc" not in raw:
        raw["doc"] = json.loads(raw["text"])
    return raw["doc"]


def _expect_exit_zero(raw: dict):
    if raw["code"] != 0:
        return False, f"exit code {raw['code']}", None
    return None


def _unit_vector(k: int, size: int) -> tuple:
    return tuple(1.0 if j == k else 0.0 for j in range(size))


def _array_key(points) -> str:
    return hashlib.sha256(np.ascontiguousarray(np.asarray(points, dtype=float)).tobytes()).hexdigest()


def verify_composed(pencil, tgrid, pgrid, tol, tracer) -> dict:
    """verify_main_theorem for n in {2, 3}, one span per public call."""
    n = pencil.n
    with tracer.span("ranges.trace", dirs=len(tgrid)) as c:
        cloud = trace_boundary_cloud(pencil, tgrid)
        c.update(records=len(cloud.records), skipped=cloud.skipped)
    pts = cloud.points()
    with tracer.span("hulls.build", points=len(pts)) as c:
        hull = convex_hull_2d(pts) if n == 2 else convex_hull_3d(pts)
        c.update(vertices=len(hull.vertices))
    if tol is None:
        tol = 10.0 * tgrid.mesh_estimate() * pencil.norm()
    with tracer.span("ranges.support_table", dirs=len(pgrid)):
        table = support_table(pencil, pgrid)
    max_gap = -math.inf
    min_gap = math.inf
    argmax = pgrid.directions[0]
    with tracer.span("hulls.support", queries=len(pgrid)):
        for u, sval in zip(pgrid.directions, table.values):
            gap = sval - hull.support(u)
            if gap > max_gap:
                max_gap = gap
                argmax = u
            if gap < min_gap:
                min_gap = gap
    ok = min_gap >= -GAP_LOWER_SLACK and max_gap <= tol
    return {
        "max_gap": float(max_gap),
        "min_gap": float(min_gap),
        "argmax_direction": [float(x) for x in argmax],
        "tol": float(tol),
        "verdict": "pass" if ok else "fail",
        "skipped": cloud.skipped,
    }


def _judge_verify(doc: dict):
    if doc["verdict"] != "pass":
        return False, f"verdict {doc['verdict']}, max_gap {doc['max_gap']:.3e} > tol {doc['tol']:.3e}", None
    if doc["min_gap"] < MIN_GAP_FLOOR:
        return False, f"min_gap {doc['min_gap']:.3e} below {MIN_GAP_FLOOR}", None
    return True, "", doc["max_gap"] / doc["tol"]


def _key_verify(doc: dict) -> tuple:
    return (doc["verdict"], doc["max_gap"], doc["min_gap"], tuple(doc["argmax_direction"]), doc["skipped"])


# ---------------------------------------------------------------------------
# contacts


class VerifyBuiltin:
    """`numrange verify` on a builtin pencil (criterion 05 shape)."""

    cli = "verify"

    @staticmethod
    def argv(p):
        return [
            "verify", "--builtin", p["builtin"],
            "--trace-grid", str(BUILTIN_TRACE_GRID), "--test-grid", str(BUILTIN_TEST_GRID),
            "--tol", repr(BUILTIN_VERIFY_TOL), "--seed", str(p["seed"]),
        ]

    @classmethod
    def answer(cls, p):
        return run_cli(cls.argv(p))

    @staticmethod
    def judge(p, raw):
        return _expect_exit_zero(raw) or _judge_verify(_doc(raw))

    @staticmethod
    def key(p, raw):
        return _key_verify(_doc(raw))

    @staticmethod
    def compose(p, tracer):
        with tracer.span("cli.verify"):
            pencil = builtin_pencil(p["builtin"])
            rng = np.random.default_rng(p["seed"])
            tgrid = direction_grid(pencil.n, BUILTIN_TRACE_GRID, rng)
            pgrid = direction_grid(pencil.n, BUILTIN_TEST_GRID, rng)
            doc = verify_composed(pencil, tgrid, pgrid, BUILTIN_VERIFY_TOL, tracer)
            json.dumps(doc, indent=2, sort_keys=True)
        return {"code": 0, "doc": doc}


class VerifyRandom:
    """verify_main_theorem on a seeded random pencil, library default tol."""

    @staticmethod
    def grids(p):
        t, q = RANDOM_GRIDS[p["n"]]
        return direction_grid(p["n"], t), direction_grid(p["n"], q)

    @classmethod
    def answer(cls, p):
        report = verify_main_theorem(p["pencil"], *cls.grids(p))
        return {"doc": report.to_json_dict()}

    @staticmethod
    def judge(p, raw):
        return _judge_verify(raw["doc"])

    @staticmethod
    def key(p, raw):
        return _key_verify(raw["doc"])

    @classmethod
    def compose(cls, p, tracer):
        with tracer.span("bench.verify_random"):
            doc = verify_composed(p["pencil"], *cls.grids(p), None, tracer)
        return {"doc": doc}


def _export_compose(p, tracer, fmt):
    with tracer.span("cli.trace"):
        pencil = builtin_pencil(p["builtin"])
        rng = np.random.default_rng(p["seed"])
        grid = direction_grid(pencil.n, BUILTIN_TRACE_GRID, rng)
        with tracer.span("ranges.trace", dirs=len(grid)) as c:
            cloud = trace_boundary_cloud(pencil, grid)
            c.update(records=len(cloud.records), skipped=cloud.skipped)
        with tracer.span("ranges.export", records=len(cloud.records), format=fmt):
            if fmt == "csv":
                meta = {
                    "seed": p["seed"],
                    "trace_grid": BUILTIN_TRACE_GRID,
                    "grid_kind": grid.kind,
                    "skipped": cloud.skipped,
                    "numrange": __version__,
                }
                text = cloud_to_csv(cloud, meta)
            else:
                rows = [
                    {
                        "direction": list(r.direction),
                        "branch": r.branch,
                        "point": list(r.point),
                        "simple": r.simple,
                    }
                    for r in cloud.records
                ]
                text = json.dumps({"skipped": cloud.skipped, "rows": rows}, indent=2, sort_keys=True)
    if fmt == "csv":
        return {"code": 0, "text": text}
    return {"code": 0, "doc": {"skipped": cloud.skipped, "rows": rows}}


def _expected_records(p, skipped: int) -> int:
    pencil = builtin_pencil(p["builtin"])
    return BUILTIN_TRACE_GRID * pencil.d - skipped


class ExportCsv:
    """`numrange trace --format csv`: the cloud written record by record."""

    @staticmethod
    def answer(p):
        return run_cli([
            "trace", "--builtin", p["builtin"], "--trace-grid", str(BUILTIN_TRACE_GRID),
            "--format", "csv", "--seed", str(p["seed"]),
        ])

    @staticmethod
    def judge(p, raw):
        bad = _expect_exit_zero(raw)
        if bad:
            return bad
        lines = raw["text"].splitlines()
        meta = dict(ln[2:].split(": ", 1) for ln in lines if ln.startswith("# "))
        rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
        header, data = rows[0], rows[1:]
        want = _expected_records(p, int(meta["skipped"]))
        if len(data) != want:
            return False, f"{len(data)} rows for {want} records", None
        for row in data:
            if len(row) != len(header):
                return False, f"row of {len(row)} fields under a {len(header)}-field header", None
            for x in row:
                float(x)  # a field that does not parse raises, failing the check
        return True, "", None

    @staticmethod
    def key(p, raw):
        return (hashlib.sha256(raw["text"].encode()).hexdigest(),)

    @staticmethod
    def compose(p, tracer):
        return _export_compose(p, tracer, "csv")


class ExportJson:
    """`numrange trace --format json`: one JSON row per record."""

    @staticmethod
    def answer(p):
        return run_cli([
            "trace", "--builtin", p["builtin"], "--trace-grid", str(BUILTIN_TRACE_GRID),
            "--format", "json", "--seed", str(p["seed"]),
        ])

    @staticmethod
    def judge(p, raw):
        bad = _expect_exit_zero(raw)
        if bad:
            return bad
        doc = _doc(raw)
        want = _expected_records(p, doc["skipped"])
        if len(doc["rows"]) != want:
            return False, f"{len(doc['rows'])} rows for {want} records", None
        return True, "", None

    @staticmethod
    def key(p, raw):
        doc = _doc(raw)
        rows = json.dumps(doc["rows"], sort_keys=True).encode()
        return (doc["skipped"], hashlib.sha256(rows).hexdigest())

    @staticmethod
    def compose(p, tracer):
        return _export_compose(p, tracer, "json")


# ---------------------------------------------------------------------------
# crossings


def _cn_expected(t: float) -> str:
    # criterion 07: the singular segment of the chien-nakazato dual
    return "central" if abs(t) <= 0.9 else "not_central"


class Central:
    """`numrange central` (criterion 07 shape): trace, patches, probes."""

    @staticmethod
    def candidates(p):
        if p["candidates"] is None:
            return [(t, 0.0, 0.0) for t in CN_DEFAULT_CANDIDATES]
        return [c for c, _ in p["candidates"]]

    @staticmethod
    def expected(p):
        if p["candidates"] is None:
            return [_cn_expected(t) for t in CN_DEFAULT_CANDIDATES]
        return [v for _, v in p["candidates"]]

    @classmethod
    def answer(cls, p):
        argv = [
            "central", "--builtin", p["builtin"],
            "--trace-grid", str(BUILTIN_TRACE_GRID), "--seed", str(p["seed"]),
        ]
        if p["candidates"] is not None:
            # "--": candidates may start with a minus sign
            argv += ["--"] + [",".join(repr(x) for x in c) for c in cls.candidates(p)]
        return run_cli(argv)

    @classmethod
    def judge(cls, p, raw):
        bad = _expect_exit_zero(raw)
        if bad:
            return bad
        rows = _doc(raw)["candidates"]
        got = [r["verdict"] for r in rows]
        if got != cls.expected(p):
            return False, f"verdicts {got}, expected {cls.expected(p)}", None
        if not all(r.get("cross_check", True) for r in rows):
            return False, "ellipse cross-check disagrees with the probe", None
        # how close each verdict came to flipping at the probe radius
        use = max(
            r["distance"] / r["radius"] if r["verdict"] == "central" else r["radius"] / r["distance"]
            for r in rows
        )
        return True, "", use

    @staticmethod
    def key(p, raw):
        doc = _doc(raw)
        rows = tuple(
            (tuple(r["candidate"]), r["verdict"], r["distance"], r["radius"], r.get("cross_check"))
            for r in doc["candidates"]
        )
        return (doc["patch_records"], rows)

    @classmethod
    def compose(cls, p, tracer):
        with tracer.span("cli.central"):
            pencil = builtin_pencil(p["builtin"])
            cands = cls.candidates(p)
            rng = np.random.default_rng(p["seed"])
            grid = direction_grid(pencil.n, BUILTIN_TRACE_GRID, rng)
            with tracer.span("ranges.trace", dirs=len(grid)) as c:
                cloud = trace_boundary_cloud(pencil, grid)
                c.update(records=len(cloud.records), skipped=cloud.skipped)
            with tracer.span("ranges.patches") as c:
                patches = degenerate_patches(pencil, cloud)
                c.update(records=len(patches.records))
            if patches.records:
                with tracer.span("ranges.merge"):
                    cloud = merge_boundary_clouds(cloud, patches)
            radius = CN_PROBE_RADIUS if p["builtin"] == CN else None
            rows = []
            for cand in cands:
                with tracer.span("dual.probe"):
                    probe = central_point_probe(pencil, cand, cloud, radius=radius)
                row = {
                    "candidate": list(cand),
                    "verdict": probe.verdict,
                    "distance": probe.distance,
                    "radius": probe.radius,
                }
                if p["builtin"] == CN and abs(cand[1]) < 1e-12:
                    with tracer.span("dual.ellipse_test"):
                        exact = chien_nakazato_ellipse_test(cand[0], cand[2])
                    row["ellipse_test"] = "central" if exact else "not_central"
                    row["cross_check"] = row["ellipse_test"] == probe.verdict
                rows.append(row)
            doc = {"patch_records": len(patches.records), "candidates": rows}
            json.dumps(doc, indent=2, sort_keys=True)
        return {"code": 0, "doc": doc}


# ---------------------------------------------------------------------------
# cone


def _boundary(spec, count, rng, tracer, route):
    with tracer.span(f"cones.boundary.{route}", rays=count) as c:
        pts = sample_cone_boundary(spec, count, rng=rng)
        c.update(points=len(pts))
    return pts


def _multiplicities(f, e, pts, tracer) -> list:
    out = []
    for x in pts:
        with tracer.span("poly.multiplicity"):
            report = check_multiplicity_lemma(f, e, list(x))
        out.append(report.agree)
    return out


class _LibraryKind:
    """A library-path check: the untraced answer is the composition with
    spans switched off."""

    @classmethod
    def answer(cls, p):
        return cls.compose(p, NULL_TRACER)


class ConeC08(_LibraryKind):
    """Criterion 08 shape: certify the cone of a random pencil, sample its
    boundary on the eigen route, check the multiplicity lemma at each point."""

    @staticmethod
    def compose(p, tracer):
        with tracer.span("bench.cone_c08"):
            rng = np.random.default_rng(p["seed"])
            pencil = p["pencil"]
            with tracer.span("poly.charpoly"):
                f = charpoly(pencil)
            e = _unit_vector(0, pencil.n + 1)
            with tracer.span("cones.spec"):
                spec = make_cone_spec(f, e, pencil=pencil, rng=rng)
            pts = _boundary(spec, C08_POINTS, rng, tracer, "eigen")
            agree = _multiplicities(f, e, pts, tracer)
        return {"points": pts, "agree": agree}

    @staticmethod
    def judge(p, raw):
        if len(raw["points"]) != C08_POINTS:
            return False, f"{len(raw['points'])} of {C08_POINTS} boundary points", None
        if not all(raw["agree"]):
            return False, "multiplicities disagree", None
        return True, "", None

    @staticmethod
    def key(p, raw):
        return (_array_key(raw["points"]), tuple(raw["agree"]))


class ConeC09(_LibraryKind):
    """Criterion 09 shape on chien-nakazato: boundary points, their normal
    rays, and dual-cone membership against dual_evaluation_points."""

    @staticmethod
    def compose(p, tracer):
        s_spec, s_pool, s_pts = p["seeds"]
        with tracer.span("bench.cone_c09"):
            pencil = builtin_pencil(CN)
            with tracer.span("poly.charpoly"):
                f = charpoly(pencil)
            with tracer.span("cones.spec"):
                spec = make_cone_spec(f, (1, 0, 0, 0), pencil=pencil, rng=np.random.default_rng(s_spec))
            grid = direction_grid(3, C09_CLOUD_GRID)
            with tracer.span("ranges.trace", dirs=len(grid)) as c:
                cloud = trace_boundary_cloud(pencil, grid)
                c.update(records=len(cloud.records), skipped=cloud.skipped)
            with tracer.span("cones.eval_points"):
                pool = dual_evaluation_points(
                    spec, cloud=cloud, states=C09_STATES, rng=np.random.default_rng(s_pool)
                )
            pts = _boundary(spec, C09_POINTS, np.random.default_rng(s_pts), tracer, "eigen")
            rows = []
            for x in pts:
                with tracer.span("cones.normal_ray"):
                    fp = normal_ray(spec, x)
                with tracer.span("cones.dual_membership"):
                    report = dual_cone_membership(spec, fp.ell, points=pool)
                scale = np.linalg.norm(fp.ell) * (1.0 + np.linalg.norm(x))
                rows.append((fp.ell, fp.pair(x), float(scale), report.classification, report.margin))
        return {"points": pts, "rows": rows}

    @staticmethod
    def judge(p, raw):
        if len(raw["points"]) != C09_POINTS:
            return False, f"{len(raw['points'])} of {C09_POINTS} boundary points", None
        use = 0.0
        for ell, pair, scale, member, _ in raw["rows"]:
            if not ell[0] > 0:
                return False, "normal ray does not pair positively with e", None
            ratio = abs(pair) / (PAIRING_TOL * scale)
            if ratio > 1.0:
                return False, f"pairing residual {abs(pair):.3e} over {PAIRING_TOL:g} * {scale:.3e}", None
            if member != "inside":
                return False, f"normal ray classified {member}", None
            use = max(use, ratio)
        return True, "", use

    @staticmethod
    def key(p, raw):
        rows = tuple((tuple(ell), pair, member, margin) for ell, pair, _, member, margin in raw["rows"])
        return (_array_key(raw["points"]), rows)


class ConeRoots(_LibraryKind):
    """The chien-nakazato cone built from its cubic alone, without the
    pencil, so that membership and boundary sampling take the root route."""

    @staticmethod
    def compose(p, tracer):
        s_spec, s_pts = p["seeds"]
        with tracer.span("bench.cone_roots"):
            with tracer.span("poly.charpoly"):
                f = charpoly(builtin_pencil(CN)).to_float()
            e = (1.0, 0.0, 0.0, 0.0)
            with tracer.span("cones.spec"):
                spec = make_cone_spec(f, e, rng=np.random.default_rng(s_spec))
            pts = _boundary(spec, ROOTS_POINTS, np.random.default_rng(s_pts), tracer, "roots")
            agree = _multiplicities(f, e, pts, tracer)
        return {"points": pts, "agree": agree}

    @staticmethod
    def judge(p, raw):
        if len(raw["points"]) != ROOTS_POINTS:
            return False, f"{len(raw['points'])} of {ROOTS_POINTS} boundary points", None
        if not all(raw["agree"]):
            return False, "multiplicities disagree", None
        return True, "", None

    key = staticmethod(ConeC08.key)


# ---------------------------------------------------------------------------
# dual


class CharpolyCli:
    """`numrange charpoly` on a builtin pencil."""

    @staticmethod
    def answer(p):
        return run_cli(["charpoly", "--builtin", p["builtin"]])

    @staticmethod
    def judge(p, raw):
        bad = _expect_exit_zero(raw)
        if bad:
            return bad
        doc = _doc(raw)
        d = builtin_pencil(p["builtin"]).d
        if doc["polynomial"]["degree"] != d:
            return False, f"degree {doc['polynomial']['degree']} for a {d}x{d} pencil", None
        if p["builtin"] == CN and doc["pretty"] != CN_CUBIC:
            return False, f"cubic {doc['pretty']!r}", None
        return True, "", None

    @staticmethod
    def key(p, raw):
        doc = _doc(raw)
        return (doc["pretty"], json.dumps(doc["polynomial"], sort_keys=True))

    @staticmethod
    def compose(p, tracer):
        with tracer.span("cli.charpoly"):
            pencil = builtin_pencil(p["builtin"])
            with tracer.span("poly.charpoly"):
                f = charpoly(pencil)
            with tracer.span("poly.format"):
                pretty = poly_pretty(f)
                polynomial = json.loads(poly_to_json(f))
            doc = {"domain": f.domain, "polynomial": polynomial, "pretty": pretty}
            json.dumps(doc, indent=2, sort_keys=True)
        return {"code": 0, "doc": doc}


class DualFitCli:
    """`numrange dual-fit` on a builtin pencil's characteristic form."""

    @staticmethod
    def answer(p):
        return run_cli(["dual-fit", "--builtin", p["builtin"], "--seed", str(p["seed"])])

    @staticmethod
    def judge(p, raw):
        bad = _expect_exit_zero(raw)
        if bad:
            return bad
        doc = _doc(raw)
        want = BUILTIN_DUAL_DEGREES[p["builtin"]]
        if doc["degree"] != want:
            return False, f"dual degree {doc['degree']}, expected {want}", None
        if doc["residual_rms"] > RMS_TOL:
            return False, f"held-out rms {doc['residual_rms']:.3e}", None
        use = doc["residual_rms"] / RMS_TOL
        if p["builtin"] in ("cayley", CN):
            match = doc.get("reference_match", {})
            if not match.get("matched"):
                return False, f"reference form not matched: {match}", None
            use = max(use, match["max_coeff_error"] / COEFF_TOL)
        return True, "", use

    @staticmethod
    def key(p, raw):
        doc = _doc(raw)
        terms = tuple((tuple(t["exp"]), t["coeff"]) for t in doc["terms"])
        return (doc["degree"], doc["residual_rms"], doc["singular_gap"], doc["samples_used"], terms)

    @staticmethod
    def compose(p, tracer):
        with tracer.span("cli.dual-fit"):
            pencil = builtin_pencil(p["builtin"])
            with tracer.span("poly.charpoly"):
                f = charpoly(pencil)
            rng = np.random.default_rng(p["seed"])
            with tracer.span("dual.fit") as c:
                result = dual_fit(f.to_float(), DUAL_FIT_MAX_DEGREE, rng=rng)
                c.update(rungs=len(result.search_trace), samples=result.samples_used)
            doc = result.to_json_dict()
            json.dumps(doc, indent=2, sort_keys=True)
        return {"code": 0, "doc": doc}


def verify_form_composed(f, q, samples, rng, tracer) -> float:
    """verify_dual_form's held-out rms, one span per public call."""
    with tracer.span("dual.variety", points=samples):
        pts = sample_variety_points(f, samples, rng)
    with tracer.span("dual.tangent"):
        funcs = tangent_functionals(f, pts)
    qf = q.to_float()
    nrm = math.sqrt(sum(float(c) * float(c) for c in qf.terms.values()))
    qn = qf.scale(1.0 / nrm)
    with tracer.span("poly.evaluate", calls=len(funcs)):
        resid = [abs(evaluate(qn, list(ell))) for ell in funcs]
    return math.sqrt(sum(r * r for r in resid) / len(resid))


class DualFitRandom:
    """dual_fit plus verify_dual_form on a seeded random pencil."""

    @staticmethod
    def answer(p):
        s_fit, s_check = p["seeds"]
        f = charpoly(p["pencil"])
        result = dual_fit(f, p["degree"], rng=np.random.default_rng(s_fit))
        report = verify_dual_form(
            f, result.form, samples=VERIFY_FORM_SAMPLES, rng=np.random.default_rng(s_check)
        )
        return {"degree": result.degree, "fit_rms": result.residual_rms, "rms": report.rms}

    @staticmethod
    def judge(p, raw):
        if raw["degree"] != p["degree"]:
            return False, f"dual degree {raw['degree']}, expected {p['degree']}", None
        if raw["rms"] > RMS_TOL:
            return False, f"held-out rms {raw['rms']:.3e}", None
        return True, "", max(raw["rms"], raw["fit_rms"]) / RMS_TOL

    @staticmethod
    def key(p, raw):
        return (raw["degree"], raw["fit_rms"], raw["rms"])

    @staticmethod
    def compose(p, tracer):
        s_fit, s_check = p["seeds"]
        with tracer.span("bench.dualfit_random"):
            with tracer.span("poly.charpoly"):
                f = charpoly(p["pencil"])
            with tracer.span("dual.fit") as c:
                result = dual_fit(f, p["degree"], rng=np.random.default_rng(s_fit))
                c.update(rungs=len(result.search_trace), samples=result.samples_used)
            with tracer.span("dual.verify_form"):
                rms = verify_form_composed(
                    f, result.form, VERIFY_FORM_SAMPLES, np.random.default_rng(s_check), tracer
                )
        return {"degree": result.degree, "fit_rms": result.residual_rms, "rms": rms}


KINDS = {
    "verify_builtin": VerifyBuiltin,
    "verify_random": VerifyRandom,
    "export_csv": ExportCsv,
    "export_json": ExportJson,
    "central": Central,
    "cone_c08": ConeC08,
    "cone_c09": ConeC09,
    "cone_roots": ConeRoots,
    "charpoly_cli": CharpolyCli,
    "dualfit_cli": DualFitCli,
    "dualfit_random": DualFitRandom,
}


# ---------------------------------------------------------------------------
# traced runs only

EIG_SIZES = ((3, 40), (6, 16), (12, 6))
PROBE_GRID = 300
PROBE_TEST_GRID = 100
PROBE_PATCHES = 2
PROBE_POINTS = 3


def eig_microbench(tracer, rng):
    """eig_hermitian on seeded random matrices at d = 3, 6 and 12."""
    for d, count in EIG_SIZES:
        for _ in range(count):
            m = random_pencil(d, 1, rng).matrices[0]
            with tracer.span("linalg.eig", d=d):
                eig_hermitian(m)


def layer_probes(tracer, rng):
    """Small fixed calls into every layer.

    Every traced run reports every per-layer metric; a metric whose layer
    the workload bypasses is measured here instead, and the result file
    marks it as coming from the probes.
    """
    cn = builtin_pencil(CN)
    with tracer.span("bench.probe"):
        grid = direction_grid(3, PROBE_GRID)
        verify_composed(cn, grid, direction_grid(3, PROBE_TEST_GRID), 1.0, tracer)
        with tracer.span("ranges.trace", dirs=len(grid)) as c:
            cloud = trace_boundary_cloud(cn, grid)
            c.update(records=len(cloud.records), skipped=cloud.skipped)
        with tracer.span("ranges.export", records=len(cloud.records), format="csv"):
            cloud_to_csv(cloud, {"seed": 0})
        with tracer.span("ranges.patches") as c:
            patches = degenerate_patches(cn, cloud, max_patches=PROBE_PATCHES)
            c.update(records=len(patches.records))
        merged = merge_boundary_clouds(cloud, patches)
        for t in (-0.5, 0.0, 2.0):
            with tracer.span("dual.probe"):
                central_point_probe(cn, (t, 0.0, 0.0), merged, radius=CN_PROBE_RADIUS)
        with tracer.span("poly.charpoly"):
            f = charpoly(cn)
        e = (1, 0, 0, 0)
        with tracer.span("cones.spec"):
            spec = make_cone_spec(f, e, pencil=cn, trials=20, rng=rng)
        with tracer.span("cones.eval_points"):
            pool = dual_evaluation_points(spec, cloud=cloud, states=20, rng=rng)
        pts = _boundary(spec, PROBE_POINTS, rng, tracer, "eigen")
        for x in pts:
            with tracer.span("cones.normal_ray"):
                fp = normal_ray(spec, x)
            with tracer.span("cones.dual_membership"):
                dual_cone_membership(spec, fp.ell, points=pool)
        fl = f.to_float()
        roots_spec = make_cone_spec(fl, e, trials=20, rng=rng)
        _multiplicities(fl, e, _boundary(roots_spec, PROBE_POINTS, rng, tracer, "roots"), tracer)
        quadric = charpoly(builtin_pencil("qubit-disk"))
        with tracer.span("dual.fit") as c:
            result = dual_fit(quadric.to_float(), 2, rng=rng)
            c.update(rungs=len(result.search_trace), samples=result.samples_used)
        with tracer.span("dual.verify_form"):
            verify_form_composed(quadric.to_float(), result.form, 30, rng, tracer)
