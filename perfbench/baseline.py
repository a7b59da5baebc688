"""Reproduce ROADMAP's "Measured baseline" rows and the acceptance headroom.

    python3 perfbench/baseline.py [--out perfbench/out/baseline.json]

Run from the root of a source checkout.  Each baseline row is one
package call at its full size (the 20 000-direction trace, its crossing
patches, 1 000 cone rays, the 5 000-direction support table, qhull on
the 60 000-contact cloud, the degree <= 6 dual fit, and the eigen cost
at d = 3 / 6 / 12), timed REPEATS times.  A row reproduces when the
ROADMAP figure lies inside the [min, max] of the repeats.

It then runs the acceptance tests of criteria 05, 07, 08 and 09 under
pytest and reports each one's call time against the wall-clock budget
its test asserts.  That headroom is reported only; nothing is gated.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
CRITERIA = ("05", "07", "08", "09")

from machine import header, pin_blas_threads  # noqa: E402

# ROADMAP.md, "Measured baseline": single runs, in seconds (eig rows: per matrix)
ROADMAP = {
    "trace_cn_20000": 3.35,
    "patches_cn_20000": 6.3,
    "cone_rays_cn_1000": (9.8, 10.5),
    "support_table_cn_5000": 0.64,
    "qhull_cn_60000": 0.43,
    "dual_fit_cn_deg6": 0.31,
    "eig_jacobi_s_d3": 64e-6,
    "eig_jacobi_s_d6": 760e-6,
    "eig_jacobi_s_d12": 7200e-6,
    "eig_lapack_single_s_d3": 12e-6,
    "eig_lapack_single_s_d6": 23e-6,
    "eig_lapack_single_s_d12": 42e-6,
    "eig_lapack_batched_s_d3": 3e-6,
    "eig_lapack_batched_s_d6": 10e-6,
    "eig_lapack_batched_s_d12": 40e-6,
}
EIG_COUNT = {3: 400, 6: 100, 12: 20}
REPEATS = 3
SEED = 1  # seeds the eig matrices; repeat r uses SEED + r


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def one_repeat(seed: int) -> tuple[dict, dict]:
    import numpy as np

    from numrange.cones import make_cone_spec, sample_cone_boundary
    from numrange.dual import dual_fit
    from numrange.examples import builtin_pencil
    from numrange.hulls import convex_hull_3d
    from numrange.linalg import eig_hermitian
    from numrange.poly import charpoly
    from numrange.ranges import degenerate_patches, direction_grid, support_table, trace_boundary_cloud
    from workloads import random_pencil

    cn = builtin_pencil("chien-nakazato")
    f = charpoly(cn)
    rows, counts = {}, {}
    rows["trace_cn_20000"], cloud = _timed(lambda: trace_boundary_cloud(cn, direction_grid(3, 20000)))
    rows["patches_cn_20000"], patches = _timed(lambda: degenerate_patches(cn, cloud))
    spec = make_cone_spec(f, (1, 0, 0, 0), pencil=cn, rng=np.random.default_rng(9))
    rows["cone_rays_cn_1000"], pts = _timed(
        lambda: sample_cone_boundary(spec, 1000, rng=np.random.default_rng(91))
    )
    rows["support_table_cn_5000"], _ = _timed(lambda: support_table(cn, direction_grid(3, 5000)))
    points = cloud.points()
    rows["qhull_cn_60000"], hull = _timed(lambda: convex_hull_3d(points))
    rows["dual_fit_cn_deg6"], fit = _timed(lambda: dual_fit(f.to_float(), 6, rng=np.random.default_rng(4)))
    counts.update(
        cloud_records=len(cloud.records),
        patch_records=len(patches.records),
        cone_points=len(pts),
        hull_vertices=len(hull.vertices),
        dual_degree=fit.degree,
    )
    rng = np.random.default_rng(seed)
    for d, count in EIG_COUNT.items():
        mats = [random_pencil(d, 1, rng).matrices[0] for _ in range(count)]
        arrays = np.stack([m.as_array() for m in mats])
        dt, _ = _timed(lambda: [eig_hermitian(m) for m in mats])
        rows[f"eig_jacobi_s_d{d}"] = dt / count
        dt, _ = _timed(lambda: [np.linalg.eigh(a) for a in arrays])
        rows[f"eig_lapack_single_s_d{d}"] = dt / count
        dt, _ = _timed(lambda: np.linalg.eigh(arrays))
        rows[f"eig_lapack_batched_s_d{d}"] = dt / count
    return rows, counts


def compare(samples: dict) -> dict:
    out = {}
    for name, vals in samples.items():
        ref = ROADMAP[name]
        lo_ref, hi_ref = ref if isinstance(ref, tuple) else (ref, ref)
        lo, hi = min(vals), max(vals)
        med = statistics.median(vals)
        out[name] = {
            "roadmap": ref,
            "median": med,
            "min": lo,
            "max": hi,
            "ratio_to_roadmap": med / ((lo_ref + hi_ref) / 2),
            "reproduces": lo <= hi_ref and lo_ref <= hi,
        }
    return out


def budgets() -> dict:
    """Wall-clock budget each criterion test asserts, read from its source."""
    src = ACCEPTANCE.read_text(encoding="utf-8")
    out = {}
    for crit in CRITERIA:
        body = re.search(rf"def test_criterion_{crit}_\w+\(.*?(?=\ndef |\Z)", src, re.S).group(0)
        out[crit] = float(re.findall(r"sw\.elapsed < ([\d.]+)", body)[-1])
    return out


def criterion_headroom() -> dict:
    expr = " or ".join(f"criterion_{c}" for c in CRITERIA)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=0",
         str(ACCEPTANCE.relative_to(ROOT)), "-k", expr],
        cwd=ROOT, capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    found = dict(
        (m.group(2), float(m.group(1)))
        for m in re.finditer(r"([\d.]+)s call\s+\S+::test_criterion_(\d\d)_", proc.stdout)
    )
    out = {}
    for crit, budget in budgets().items():
        took = found.get(crit)
        out[crit] = {
            "budget_s": budget,
            "call_s": took,
            "headroom_s": None if took is None else budget - took,
            "budget_over_call": None if took is None else budget / took,
        }
    return {"pytest_exit": proc.returncode, "criteria": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(HERE / "out" / "baseline.json"))
    args = ap.parse_args(argv)
    pin_blas_threads()
    if not (SRC / "numrange" / "__init__.py").is_file():
        print(f"error: no numrange package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    samples: dict = {}
    counts = {}
    for r in range(REPEATS):
        rows, counts = one_repeat(SEED + r)
        for k, v in rows.items():
            samples.setdefault(k, []).append(v)
        print(f"repeat {r + 1}/{REPEATS} done", file=sys.stderr)
    table = compare(samples)
    headroom = criterion_headroom()
    doc = {
        "header": header(ROOT, SEED, repeats=REPEATS),
        "rows": table,
        "counts": counts,
        "acceptance_headroom": headroom,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    print(f"{'row':<28} {'roadmap':>16} {'median':>10} {'min':>10} {'max':>10}  ratio  reproduces")
    for name, row in table.items():
        ref = row["roadmap"]
        ref_s = f"{ref[0]:.3g}-{ref[1]:.3g}" if isinstance(ref, tuple) else f"{ref:.3g}"
        print(f"{name:<28} {ref_s:>16} {row['median']:>10.4g} {row['min']:>10.4g} {row['max']:>10.4g}"
              f"  {row['ratio_to_roadmap']:5.2f}  {'yes' if row['reproduces'] else 'no'}")
    print(f"counts: {counts}")
    for crit, row in headroom["criteria"].items():
        print(f"criterion {crit}: budget {row['budget_s']:g} s, call {row['call_s']} s, "
              f"budget/call {row['budget_over_call'] and round(row['budget_over_call'], 2)}")
    return 0 if headroom["pytest_exit"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
