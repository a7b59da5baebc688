"""numrange benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload contacts --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src/`` directory.  A single closed-loop client runs the workload's
seeded check list in whole passes, starting passes until the checks
have taken ``--seconds`` reference seconds (speed.py; at least one
pass): the next check starts when the previous one has been answered
and judged.  Every answer is compared with its expected one; any failed
check makes the run exit 1 without reporting a timing.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` also runs a
traced composition of every check, asserts that it reproduces the
untraced verdicts and numbers bit for bit, and reports the per-layer
metrics.  The last line of standard output is one JSON object; a result
file with the run header, every check and (traced) every span is
written under ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

from machine import header, pin_blas_threads  # noqa: E402
from speed import around, kernel_seconds, to_reference  # noqa: E402
from tracing import SpanStats, Tracer, layer_table, write_spans  # noqa: E402

SETUP_PROBES = 5
SETUP_TIMEOUT_S = 120
WALL_CAP = 1.5
TAIL_BEYOND = 10


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("contacts", "crossings", "cone", "dual"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-only", action="store_true",
        help="import the package, build the inputs, print READY <epoch seconds>, exit",
    )
    return ap.parse_args(argv)


def prepare(workload: str, seed: int):
    """Everything a run does before its first check."""
    # imported lazily by the package on first use; load it here so the
    # first check does not pay for it
    import scipy.optimize  # noqa: F401
    import workloads

    return workloads.build(workload, seed)


def setup_probe(args) -> float:
    """Process start to first check, in one fresh process."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    t0 = time.time()
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False
    )
    ready = [ln for ln in proc.stdout.splitlines() if ln.startswith("READY ")]
    if proc.returncode != 0 or not ready:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(ready[-1].split()[1]) - t0


def run_checks(passes, args, tracer=None) -> tuple[list[dict], list[float], list[float]]:
    """Whole passes until the checks have taken `args.seconds` reference
    seconds (speed.py), with the SETUP_PROBES set-up probes spread
    evenly over that time and a timing of the speed kernel before every
    check and after the last one.  Counting reference seconds keeps the
    number of checks, and so the checks that the tail falls on, the
    same when the host slows down.  On a host so slow that the checks
    take WALL_CAP times that in wall time, the run stops there, in
    the middle of a pass if need be.

    Returns the check records, the probes' wall seconds and the kernel
    timings.
    """
    from workloads import KINDS

    seconds = args.seconds
    records, setup, kernel = [], [], []
    busy = wall = 0.0
    k = 0
    while (k == 0 or busy < seconds) and wall < WALL_CAP * seconds:
        for chk in passes[k % len(passes)]:
            if wall >= WALL_CAP * seconds:
                break
            if len(setup) < SETUP_PROBES and busy >= len(setup) * seconds / SETUP_PROBES:
                setup.append(setup_probe(args))
                # the first kernel timing after a probe can read slow
                kernel_seconds()
            kernel.append(kernel_seconds())
            records.append(run_check(KINDS[chk.kind], chk, tracer))
            wall += records[-1]["seconds"]
            busy += to_reference(records[-1]["seconds"], kernel[-1])
        k += 1
    kernel.append(kernel_seconds())
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(args))
    for i, rec in enumerate(records):
        rec["kernel_s"] = around(kernel, i)
        rec["ref_seconds"] = to_reference(rec["seconds"], rec["kernel_s"])
    return records, setup, kernel


def run_check(kind, chk, tracer) -> dict:
    """Answer and judge one check; traced, also compose it and compare."""
    rec = {"id": chk.id, "kind": chk.kind, **_label(chk.params)}
    start = time.perf_counter()
    try:
        raw = kind.answer(chk.params)
        rec["seconds"] = time.perf_counter() - start
        ok, why, use = kind.judge(chk.params, raw)
        if ok and tracer is not None:
            tracer.check = chk.id
            first = len(tracer.spans)
            traced = kind.compose(chk.params, tracer)
            root = tracer.spans[first]
            rec["traced_seconds"] = root["end"] - root["start"]
            if kind.key(chk.params, traced) != kind.key(chk.params, raw):
                ok, why = False, "traced composition does not reproduce the untraced answer"
    except Exception as exc:  # a check that raises is a failed check; keep going
        rec.setdefault("seconds", time.perf_counter() - start)
        ok, why, use = False, f"{type(exc).__name__}: {exc}", None
        rec["traceback"] = traceback.format_exc()
    rec.update(ok=bool(ok), why=why, tol_use=use)
    if not ok:
        print(f"check {chk.id} ({chk.kind}) failed: {why}", file=sys.stderr)
    return rec


def _label(params: dict) -> dict:
    return {k: params[k] for k in ("builtin", "d", "n") if k in params}


def tail_rank(count: int) -> int | None:
    """1-based rank of the highest order statistic with TAIL_BEYOND
    samples beyond it, or None when there are too few samples."""
    rank = count - TAIL_BEYOND
    return rank if rank >= 1 else None


def end_to_end(records, setup, kernel) -> tuple[dict, dict]:
    """Times in reference seconds (speed.py); the raw wall-time figure
    is in each note.  Set-up is scaled by the run's mean kernel timing:
    a probe takes about a second, over which the host's speed moves too
    much for the timings next to it to say what it was, and the host
    flips between a fast and a slow mode, between which a median jumps."""
    setup_wall = statistics.median(setup)
    times = sorted(r["ref_seconds"] for r in records)
    raw = sorted(r["seconds"] for r in records)
    count = len(times)
    rank = tail_rank(count)
    if rank is None:
        rank, tail_note = count, f"max of {count} (fewer than {TAIL_BEYOND + 1} checks)"
    else:
        tail_note = f"p{100.0 * rank / count:.1f} of {count}"
    tail = times[rank - 1]
    uses = [r["tol_use"] for r in records if r["tol_use"] is not None]
    tol_use_max = max(uses)
    metrics = {
        "setup_s": (to_reference(setup_wall, statistics.fmean(kernel)), "s",
                    f"median of {len(setup)} fresh processes; wall {setup_wall:.4g} s"),
        "checks_per_s": (count / sum(times), "1/s", f"{count} checks; wall {count / sum(raw):.4g} /s"),
        "check_s.p50": (statistics.median(times), "s",
                        f"median of {count}; wall {statistics.median(raw):.4g} s"),
        "check_s.tail": (tail, "s", f"{tail_note}; wall {raw[rank - 1]:.4g} s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "getrusage, this process"),
        "tol_headroom_dec": (-math.log10(tol_use_max), "decades",
                             f"-log10 of tol_use_max = {tol_use_max:.4g}, over {len(uses)} checks"),
    }
    printed_only = {
        "failed_frac": (sum(not r["ok"] for r in records) / count, "ratio",
                        f"{sum(not r['ok'] for r in records)} of {count}"),
        "tol_use_max": (tol_use_max, "ratio", "worst observed error / own tolerance"),
    }
    return metrics, printed_only


def per_layer(records, tracer, probe_from: int) -> dict:
    """Per-layer metrics: from the workload's own spans where its checks
    reach the layer, else from the layer probes (marked 'probe')."""
    work = SpanStats(tracer.spans[:probe_from])
    probe = SpanStats(tracer.spans[probe_from:])

    def pick(name):
        return (work, "workload") if work.has(name) else (probe, "probe")

    out = {}

    def per_unit(metric, name, key, unit, scale):
        st, src = pick(name)
        out[metric] = (scale * st.seconds(name) / st.count(name, key), unit, src)

    def per_call(metric, name, unit, scale):
        st, src = pick(name)
        out[metric] = (scale * st.seconds(name) / st.calls(name), unit, src)

    def mean_count(metric, name, key):
        st, src = pick(name)
        out[metric] = (st.count(name, key) / st.calls(name), "count", src)

    for d in (3, 6, 12):
        out[f"linalg.eig_us.d{d}"] = (1e6 * probe.median_seconds("linalg.eig", d=d), "us", "microbench")
    per_call("ranges.trace.s", "ranges.trace", "s", 1.0)
    per_unit("ranges.trace.us_per_dir", "ranges.trace", "dirs", "us", 1e6)
    mean_count("ranges.trace.records", "ranges.trace", "records")
    mean_count("ranges.trace.skipped", "ranges.trace", "skipped")
    per_unit("ranges.support_table.us_per_dir", "ranges.support_table", "dirs", "us", 1e6)
    per_call("ranges.patches.s", "ranges.patches", "s", 1.0)
    mean_count("ranges.patches.records", "ranges.patches", "records")
    per_unit("ranges.export.us_per_record", "ranges.export", "records", "us", 1e6)
    per_call("hulls.build.s", "hulls.build", "s", 1.0)
    mean_count("hulls.vertices", "hulls.build", "vertices")
    per_unit("hulls.support.us_per_query", "hulls.support", "queries", "us", 1e6)
    per_call("poly.charpoly.ms", "poly.charpoly", "ms", 1e3)
    per_call("poly.multiplicity.us_per_call", "poly.multiplicity", "us", 1e6)
    per_call("cones.spec.ms", "cones.spec", "ms", 1e3)
    per_unit("cones.boundary.eigen.us_per_ray", "cones.boundary.eigen", "points", "us", 1e6)
    per_unit("cones.boundary.roots.us_per_ray", "cones.boundary.roots", "points", "us", 1e6)
    st, src = pick("cones.boundary.eigen")
    kept = sum(st.count(f"cones.boundary.{r}", "points") for r in ("eigen", "roots"))
    asked = sum(st.count(f"cones.boundary.{r}", "rays") for r in ("eigen", "roots"))
    out["cones.boundary.kept_ratio"] = (kept / asked, "ratio", src)
    per_call("cones.normal_ray.us_per_call", "cones.normal_ray", "us", 1e6)
    per_call("cones.eval_points.ms", "cones.eval_points", "ms", 1e3)
    per_call("cones.dual_membership.us_per_call", "cones.dual_membership", "us", 1e6)
    per_unit("dual.variety.us_per_point", "dual.variety", "points", "us", 1e6)
    per_call("dual.fit.ms", "dual.fit", "ms", 1e3)
    mean_count("dual.fit.rungs", "dual.fit", "rungs")
    mean_count("dual.fit.samples_used", "dual.fit", "samples")
    per_call("dual.verify_form.ms", "dual.verify_form", "ms", 1e3)
    per_call("dual.probe.us_per_call", "dual.probe", "us", 1e6)
    traced = [r for r in records if "traced_seconds" in r]
    overhead = sum(r["traced_seconds"] for r in traced) / sum(r["seconds"] for r in traced)
    out["trace.overhead_ratio"] = (overhead, "ratio", f"traced / untraced time over {len(traced)} checks")
    return out


def print_table(title: str, metrics: dict):
    print(title)
    width = max(len(k) for k in metrics)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<8} {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    if not (SRC / "numrange" / "__init__.py").is_file():
        print(f"error: no numrange package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        prepare(args.workload, args.seed)
        print(f"READY {time.time()!r}", flush=True)
        return 0

    checks = prepare(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    records, setup, kernel = run_checks(checks, args, tracer)
    failed = sum(not r["ok"] for r in records)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = {
        "header": header(ROOT, args.seed, workload=args.workload, seconds=args.seconds,
                         trace=args.trace, setup_walls_s=setup, kernel_s=kernel),
        "checks": records,
    }
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": {}}
    if failed == 0:
        reported, printed_only = end_to_end(records, setup, kernel)
        print_table(f"{args.workload}, seed {args.seed}: end-to-end", {**reported, **printed_only})
        doc["end_to_end"] = {**reported, **printed_only}
        if args.trace:
            import numpy as np
            from workloads import eig_microbench, layer_probes

            probe_from = len(tracer.spans)
            tracer.check = "probe"
            rng = np.random.default_rng([args.seed, 99])
            eig_microbench(tracer, rng)
            layer_probes(tracer, rng)
            reported = per_layer(records, tracer, probe_from)
            layers = layer_table(tracer.spans[:probe_from])
            total = sum(r["traced_seconds"] for r in records)
            print_table("per-layer", reported)
            print_table(
                "self time by layer (workload checks, traced)",
                {k: (v["self_s"], "s", f"{100 * v['self_s'] / total:5.1f}% of traced check time, "
                                       f"{v['spans']} spans")
                 for k, v in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])},
            )
            doc["per_layer"] = reported
            doc["layers"] = layers
            write_spans(stem.with_suffix(".spans.jsonl"), tracer.spans)
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u, _) in reported.items()}
    stem.with_suffix(".json").write_text(json.dumps(doc, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
