"""Recover dual-surface equations for the two builtin cubics and check
them against their known integer forms."""

import argparse

import numpy as np

from numrange.dual import dual_fit, match_reference, verify_dual_form
from numrange.examples import (
    builtin_pencil,
    chien_nakazato_quartic_terms,
    steiner_quartic_terms,
)
from numrange.poly import MultiPoly, charpoly, poly_pretty


CASES = {
    "cayley": steiner_quartic_terms,
    "chien-nakazato": chien_nakazato_quartic_terms,
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-degree", type=int, default=6)
    args = ap.parse_args()

    for name, reference in CASES.items():
        f = charpoly(builtin_pencil(name))
        rng = np.random.default_rng(args.seed)
        result = dual_fit(f.to_float(), args.max_degree, rng=rng)
        match = match_reference(result.form, reference())
        ref_poly = MultiPoly(4, 4, reference(), "float")
        check = verify_dual_form(f.to_float(), ref_poly, rng=rng)
        print(f"== {name}")
        print(f"   primal: {poly_pretty(f)}")
        print(
            f"   fit: degree {result.degree}, rms {result.residual_rms:.2e}, "
            f"singular gap {result.singular_gap:.2e}"
        )
        print(
            f"   reference match: {match['matched']}, "
            f"max coeff error {match['max_coeff_error']:.2e}"
        )
        print(
            f"   reference residuals on fresh tangents: "
            f"rms {check.rms:.2e}, max {check.max_abs:.2e}"
        )


if __name__ == "__main__":
    main()
