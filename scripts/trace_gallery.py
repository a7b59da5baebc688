"""Trace every builtin pencil and write its cloud as CSV.

Writes one CSV per pencil, crossing patches merged in, into --out-dir
(./gallery by default), and prints a one-line summary each: sizes,
record and patch counts, the range of |y| and the file written.  Meant
as a smoke run after touching the tracer.
"""

import argparse
import pathlib

import numpy as np

from numrange.examples import BUILTIN_NAMES, FOUR_ELLIPSES, builtin_pencil
from numrange.ranges import (
    cloud_to_csv,
    degenerate_patches,
    direction_grid,
    merge_boundary_clouds,
    trace_boundary_cloud,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=4000)
    ap.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("gallery"))
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    for name in BUILTIN_NAMES:
        if name == FOUR_ELLIPSES:
            continue  # not a pencil, handled by the four-ellipses subcommand
        pencil = builtin_pencil(name)
        grid = direction_grid(pencil.n, args.grid)
        cloud = trace_boundary_cloud(pencil, grid)
        patches = degenerate_patches(pencil, cloud)
        if len(patches):
            cloud = merge_boundary_clouds(cloud, patches)
        path = args.out_dir / f"{name}.csv"
        path.write_text(cloud_to_csv(cloud, {"builtin": name, "grid": args.grid}))
        pts = cloud.points()
        radii = np.linalg.norm(pts, axis=1)
        print(
            f"{name:16s} d={pencil.d} n={pencil.n} "
            f"records={len(cloud)} patched={len(patches)} "
            f"|y| in [{radii.min():.3f}, {radii.max():.3f}] -> {path}"
        )


if __name__ == "__main__":
    main()
