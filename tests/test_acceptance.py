"""End-to-end gates, one test per acceptance criterion.

Every test carries its own wall-clock budget; the tolerance and the
runtime bound are both part of the pass condition.  Run with -v to get
one PASSED/FAILED line per criterion.
"""

import json
import time

import numpy as np

from numrange.cli import main
from numrange.cones import (
    dual_cone_membership,
    dual_evaluation_points,
    make_cone_spec,
    normal_ray,
    sample_cone_boundary,
)
from numrange.dual import (
    SymmetricForm,
    chien_nakazato_ellipse_test,
    dual_fit,
    match_reference,
    quadric_dual,
)
from numrange.examples import (
    builtin_pencil,
    chien_nakazato_quartic_terms,
    steiner_quartic_terms,
)
from numrange.hulls import convex_hull_2d, convex_hull_3d
from numrange.poly import charpoly, check_multiplicity_lemma
from numrange.ranges import (
    degenerate_patches,
    direction_grid,
    merge_boundary_clouds,
    support_function,
    trace_boundary_cloud,
    uniform_angle_grid,
    verify_main_theorem,
)

from conftest import random_pencil


class Stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def last_json(out: str) -> dict:
    return json.loads(out[: out.rfind("}") + 1])


def test_criterion_01_exact_cubic_from_the_cli(capsys):
    want = "x0^3 + x0^2*x3 - 2*x0*x1^2 - x0*x2^2 - x1^3 - x1^2*x3 + x1*x2^2"
    with Stopwatch() as sw:
        code, out = run_cli(capsys, "charpoly", "--builtin", "chien-nakazato")
    assert code == 0
    assert want in out
    assert sw.elapsed < 1.0


def test_criterion_02_quadric_dual_is_an_involution():
    rng = np.random.default_rng(20)
    with Stopwatch() as sw:
        done = 0
        while done < 100:
            raw = rng.standard_normal((4, 4))
            sym = raw + raw.T
            if abs(np.linalg.det(sym)) < 1e-3:
                continue
            form = SymmetricForm.from_rows(sym)
            back = quadric_dual(quadric_dual(form)).as_array()
            k = np.unravel_index(np.argmax(np.abs(sym)), sym.shape)
            ratio = sym[k] / back[k]
            err = np.abs(back * ratio - sym).max()
            assert err <= 1e-10 * np.abs(sym).max(), f"case {done}: {err:.2e}"
            done += 1
    assert sw.elapsed < 1.0


def test_criterion_03_steiner_surface_recovered_from_samples():
    with Stopwatch() as sw:
        f = charpoly(builtin_pencil("cayley"))
        result = dual_fit(f.to_float(), 6, rng=np.random.default_rng(3))
    assert result.degree == 4
    reference = steiner_quartic_terms()
    # stated normalization: the mixed y0 y1 y2 y3 coefficient becomes -2
    got = result.form.terms.get((1, 1, 1, 1), 0.0)
    assert abs(got) > 1e-12
    ratio = -2.0 / got
    for exp in set(reference) | set(result.form.terms):
        want = float(reference.get(exp, 0.0))
        have = float(result.form.terms.get(exp, 0.0)) * ratio
        assert abs(want - have) <= 1e-7, f"{exp}: {want} vs {have}"
    assert sw.elapsed < 30.0


def test_criterion_04_degree_three_example_has_quartic_dual():
    with Stopwatch() as sw:
        f = charpoly(builtin_pencil("chien-nakazato"))
        result = dual_fit(f.to_float(), 6, rng=np.random.default_rng(4))
    assert result.degree == 4
    reference = chien_nakazato_quartic_terms()
    assert len(reference) == 10
    match = match_reference(result.form, reference)
    assert match["max_coeff_error"] <= 1e-7, match
    assert sw.elapsed < 60.0


def test_criterion_05_support_gap_bounds(capsys):
    with Stopwatch() as sw:
        for name in ("drop", "chien-nakazato"):
            code, out = run_cli(
                capsys, "verify", "--builtin", name, "--seed", "5"
            )
            doc = last_json(out)
            assert code == 0, doc
            assert doc["header"]["grids"] == {"trace": 20000, "test": 5000}
            assert doc["max_gap"] <= 5e-3, (name, doc["max_gap"])
            assert doc["min_gap"] >= -1e-9, (name, doc["min_gap"])
        rng = np.random.default_rng(55)
        grid = uniform_angle_grid(1440)
        for case in range(20):
            d = int(rng.integers(2, 7))
            pencil = random_pencil(d, 2, rng)
            report = verify_main_theorem(pencil, grid, grid)
            bound = 1e-5 * (1.0 + pencil.norm())
            assert report.max_gap <= bound, (case, d, report.max_gap)
            assert report.min_gap >= -1e-9
    assert sw.elapsed < 120.0


def test_criterion_06_closed_form_support_of_the_drop():
    pencil = builtin_pencil("drop")
    rng = np.random.default_rng(6)
    with Stopwatch() as sw:
        for _ in range(1000):
            u = rng.standard_normal(3)
            want = max(float(np.linalg.norm(u)), 2.0 * u[0])
            got = support_function(pencil, u)
            assert abs(got - want) <= 1e-9
    assert sw.elapsed < 1.0


def test_criterion_07_central_point_classification(capsys):
    with Stopwatch() as sw:
        code, out = run_cli(
            capsys, "central", "--builtin", "chien-nakazato", "--seed", "7"
        )
        assert code == 0
        doc = last_json(out)
        verdicts = {tuple(r["candidate"]): r["verdict"] for r in doc["candidates"]}
        for t in (-0.9, -0.5, 0.0, 0.5, 0.9):
            assert verdicts[(t, 0.0, 0.0)] == "central", t
        for t in (-1.2, 1.2, -2.0, 2.0, -5.0, 5.0):
            assert verdicts[(t, 0.0, 0.0)] == "not_central", t

        # grid sweep: exact chart membership against the traced cloud
        pencil = builtin_pencil("chien-nakazato")
        cloud = trace_boundary_cloud(pencil, direction_grid(3, 20000))
        patches = degenerate_patches(pencil, cloud)
        cloud = merge_boundary_clouds(cloud, patches)
        flat = cloud.points()[:, [0, 2]]
        agree = 0
        for y1 in np.linspace(-2.2, 1.6, 50):
            for y3 in np.linspace(-1.0, 1.5, 50):
                exact = chien_nakazato_ellipse_test(y1, y3)
                dist = float(
                    np.min(np.linalg.norm(flat - [y1, y3], axis=1))
                )
                probed = dist <= 0.02
                agree += exact == probed
        assert agree >= 0.98 * 2500, f"{agree}/2500"
    assert sw.elapsed < 120.0


def test_criterion_08_contact_multiplicities_agree():
    rng = np.random.default_rng(8)
    with Stopwatch() as sw:
        for case in range(50):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(2, 4))
            pencil = random_pencil(d, n, rng)
            f = charpoly(pencil)
            e = tuple(1.0 if k == 0 else 0.0 for k in range(n + 1))
            spec = make_cone_spec(f, e, pencil=pencil, rng=rng)
            for x in sample_cone_boundary(spec, 10, rng=rng):
                report = check_multiplicity_lemma(f, e, list(x))
                assert report.agree, (case, d, n, x, report)
    assert sw.elapsed < 60.0


def test_criterion_09_normal_rays_land_in_the_dual_cone(cn_pencil):
    with Stopwatch() as sw:
        spec = make_cone_spec(
            charpoly(cn_pencil), (1, 0, 0, 0), pencil=cn_pencil,
            rng=np.random.default_rng(9),
        )
        cloud = trace_boundary_cloud(cn_pencil, direction_grid(3, 2000))
        pool = dual_evaluation_points(
            spec, cloud=cloud, states=200, rng=np.random.default_rng(90)
        )
        pts = sample_cone_boundary(spec, 1000, rng=np.random.default_rng(91))
        assert len(pts) == 1000
        for x in pts:
            fp = normal_ray(spec, x)
            assert fp.ell[0] > 0
            scale = np.linalg.norm(fp.ell) * (1.0 + np.linalg.norm(x))
            assert abs(fp.pair(x)) <= 1e-8 * scale
            report = dual_cone_membership(spec, fp.ell, points=pool)
            assert report.classification == "inside", report
    assert sw.elapsed < 30.0


def test_criterion_10_hull_support_equals_brute_force():
    rng = np.random.default_rng(10)
    with Stopwatch() as sw:
        for case in range(100):
            size = int(rng.integers(10, 10_001))
            dim = 2 if case % 2 else 3
            pts = rng.standard_normal((size, dim)) * rng.uniform(0.5, 3.0)
            hull = convex_hull_2d(pts) if dim == 2 else convex_hull_3d(pts)
            for _ in range(20):
                u = rng.standard_normal(dim)
                brute = float(np.max(pts @ u))
                assert abs(hull.support(u) - brute) <= 1e-10
    assert sw.elapsed < 30.0
