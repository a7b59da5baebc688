"""Support-gap convergence as the tracing grid is refined.

The gap between the hull of traced contacts and the true support values
shrinks roughly with the squared mesh; this prints the trend for the
builtin 3-matrix pencils, which is what justifies pinning the verify
subcommand's pass threshold instead of scaling it with the mesh.
"""

import argparse

from numrange.examples import builtin_pencil
from numrange.ranges import direction_grid, verify_main_theorem


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--test-grid", type=int, default=2000)
    args = ap.parse_args()

    sizes = (250, 1000, 4000, 16000)
    for name in ("drop", "chien-nakazato"):
        pencil = builtin_pencil(name)
        probe = direction_grid(pencil.n, args.test_grid)
        print(f"== {name}")
        prev = None
        for size in sizes:
            report = verify_main_theorem(
                pencil, direction_grid(pencil.n, size), probe
            )
            factor = "" if prev is None else f"  ({prev / report.max_gap:5.1f}x down)"
            print(f"   grid {size:6d}: max gap {report.max_gap:.3e}{factor}")
            prev = report.max_gap


if __name__ == "__main__":
    main()
