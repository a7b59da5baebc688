"""Line restriction that expands only the variables a line moves, and the
certificate's masked verdict, against the code they replace.

`cone_reference.restrict_to_line` expands every variable in full; the
library stops at t^0 where the direction entry is a scalar zero.  Both
must give the same coefficients byte for byte, of the same kind and
shape, including powers of t that no term of the shortcut reaches.
`per_trial_check` is the certificate's per-trial loop.
"""

from fractions import Fraction

import numpy as np
import pytest

from numrange.examples import builtin_pencil
from numrange.poly import MultiPoly, charpoly, hyperbolicity_check, restrict_to_line

from cone_reference import restrict_to_line as full_restriction
from test_line_batch import FORMS, IDS, per_trial_check


def assert_same_columns(got, want):
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert isinstance(a, np.ndarray), k
        assert (a.dtype, a.shape) == (b.dtype, b.shape), k
        assert a.tobytes() == b.tobytes(), k


def assert_same_scalars(got, want):
    assert [type(v) for v in got] == [type(v) for v in want]
    assert got == want
    # equal floats may still differ in the sign of a zero
    assert [repr(v) for v in got] == [repr(v) for v in want]


def directions(nv, rng):
    """Axes, a random direction, and random ones with zero entries."""
    out = [list(np.eye(nv)[j]) for j in range(nv)]
    out.append(list(rng.standard_normal(nv)))
    for zeros in range(1, nv):
        d = rng.standard_normal(nv)
        d[rng.permutation(nv)[:zeros]] = 0.0
        out.append(list(d))
    return out


@pytest.mark.parametrize("name,f,e", FORMS, ids=IDS)
def test_columns_match_full_expansion(name, f, e):
    rng = np.random.default_rng(17)
    bases = list(rng.standard_normal((50, f.nvars)).T)
    for d in [list(map(float, e))] + directions(f.nvars, rng):
        assert_same_columns(restrict_to_line(f, bases, d), full_restriction(f, bases, d))


@pytest.mark.parametrize("name,f,e", FORMS, ids=IDS)
def test_scalar_lines_match_full_expansion(name, f, e):
    rng = np.random.default_rng(18)
    for d in [list(map(float, e))] + directions(f.nvars, rng):
        base = [float(v) for v in rng.standard_normal(f.nvars)]
        assert_same_scalars(restrict_to_line(f, base, d), full_restriction(f, base, d))


def test_column_directions_match_full_expansion():
    # column directions, as the dual's trial lines pass them, never take
    # the shortcut, even where a whole column is zero
    name, f, e = FORMS[0]
    rng = np.random.default_rng(19)
    bases = list(rng.standard_normal((40, f.nvars)).T)
    direc = list(rng.standard_normal((40, f.nvars)).T)
    direc[2] = np.zeros(40)
    assert_same_columns(restrict_to_line(f, bases, direc), full_restriction(f, bases, direc))


@pytest.mark.parametrize("builtin", ["chien-nakazato", "drop", "cayley"])
def test_exact_lines_match_full_expansion(builtin):
    f = charpoly(builtin_pencil(builtin))
    assert f.domain == "exact"
    base = [Fraction(k + 1, 7) - 1 for k in range(f.nvars)]
    for d in (
        [1] + [0] * (f.nvars - 1),
        [0, Fraction(2, 3)] + [0] * (f.nvars - 2),
        [Fraction(1, 2), 0, -1] + [0] * (f.nvars - 3),
    ):
        got = restrict_to_line(f, base, d)
        assert all(isinstance(c, Fraction) for c in got)
        assert_same_scalars(got, full_restriction(f, base, d))


def product_form(domain):
    return MultiPoly(3, 3, {(1, 1, 1): 2}, domain)


@pytest.mark.parametrize("d", [[1.0, 0.0, 0.0], [1.0, -1.0, 0.0]])
def test_unreached_powers_vanish_like_the_full_expansion(d):
    # f(d) = 0, and no term of x0 x1 x2 reaches t^3 (nor t^2 along x0):
    # those coefficients are zeros of c_0's kind and shape
    f = product_form("float")
    assert f(d) == 0.0
    bases = list(np.random.default_rng(20).standard_normal((30, 3)).T)
    got = restrict_to_line(f, bases, d)
    assert_same_columns(got, full_restriction(f, bases, d))
    assert not got[3].any()
    scalars = restrict_to_line(f, [0.5, -2.0, 3.0], d)
    assert_same_scalars(scalars, full_restriction(f, [0.5, -2.0, 3.0], d))
    assert scalars[3] == 0.0 and isinstance(scalars[3], float)
    g, base, exact_d = product_form("exact"), [Fraction(1, 2), -2, 3], [int(v) for v in d]
    exact = restrict_to_line(g, base, exact_d)
    assert exact[3] == 0 and isinstance(exact[3], Fraction)
    assert_same_scalars(exact, full_restriction(g, base, exact_d))


def test_zero_form_keeps_integer_zeros():
    f = MultiPoly(2, 2, {}, "float")
    assert restrict_to_line(f, [1.0, 2.0], [1.0, 0.0]) == [0, 0, 0]


class Replay(np.random.Generator):
    """A generator whose standard normal draws are given rows: the whole
    block for a (trials, nvars) draw, or the next row for an nvars draw."""

    def __init__(self, rows):
        super().__init__(np.random.PCG64(0))
        self.rows = np.asarray(rows, dtype=float)
        self.drawn = 0

    def standard_normal(self, size=None):
        if isinstance(size, tuple):
            return self.rows[: size[0]].copy()
        self.drawn += 1
        return self.rows[self.drawn - 1].copy()


# t -> f(te - a) for f = x0^2 + S q(x) is (t - a0)^2 + S q(a): at a0 = 0
# and |q(a)| = 100 the constant term holds all but 1e-13 of the scale, so
# the trim leaves a constant and the line has no roots
S = 5e11
DEFINITE = {(2, 0): 1.0, (0, 2): S}  # every line with roots is a witness
LORENTZ = {(2, 0): 1.0, (0, 2): -S}  # every line has real roots
MIXED = {(2, 0, 0): 1.0, (0, 1, 1): S}  # real where a1 a2 < 0
ROOTLESS = [(0.0, 10.0), (0.0, -10.0)]


@pytest.mark.parametrize(
    "terms,rows,verdict,checked",
    [
        (DEFINITE, ROOTLESS + [(0.3, 0.5), (0.1, 0.2)], "not_hyperbolic", 3),
        (LORENTZ, ROOTLESS + [(0.3, 0.5), (0.1, 0.2)], "hyperbolic", 4),
        (LORENTZ, ROOTLESS, "hyperbolic", 2),
        (LORENTZ, np.zeros((0, 2)), "hyperbolic", 0),
        (MIXED, [(0.3, 1.0, -1.0), (0.0, 10.0, 10.0), (0.3, 0.5, 1.0)], "not_hyperbolic", 3),
        (MIXED, [(0.3, 1.0, -1.0), (0.0, 10.0, 10.0)], "hyperbolic", 2),
    ],
    ids=[
        "witness-after-rootless",
        "real-after-rootless",
        "all-rootless",
        "no-trials",
        "rootless-between",
        "rootless-last",
    ],
)
def test_rootless_rows_are_skipped_like_the_loop(terms, rows, verdict, checked):
    nv = len(next(iter(terms)))
    f = MultiPoly(nv, 2, terms, "float")
    e = (1,) + (0,) * (nv - 1)
    got = hyperbolicity_check(f, e, trials=len(rows), rng=Replay(rows))
    want = per_trial_check(f, e, len(rows), Replay(rows))
    assert got == want
    assert (got.verdict, got.samples_checked) == (verdict, checked)
    if verdict == "not_hyperbolic":
        assert got.witness == tuple(rows[checked - 1])
