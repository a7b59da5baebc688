"""Built-in demonstration pencils and conic families.

Each entry is constructed in the exact domain so that characteristic
forms come out with integer coefficients.  The four-ellipses demo
constants are plain configuration, chosen for a readable picture; they
carry no claim beyond what the run itself produces.
"""

from __future__ import annotations

import numpy as np

from numrange.linalg import EXACT, GaussianRational, HermitianMatrix, MatrixPencil

CAYLEY = "cayley"
DROP = "drop"
CHIEN_NAKAZATO = "chien-nakazato"
FOUR_ELLIPSES = "four-ellipses"
QUBIT_DISK = "qubit-disk"

BUILTIN_NAMES = (CAYLEY, DROP, CHIEN_NAKAZATO, FOUR_ELLIPSES, QUBIT_DISK)


def _g(re=0, im=0) -> GaussianRational:
    return GaussianRational(re, im)


def _exact(rows) -> HermitianMatrix:
    return HermitianMatrix(
        [[_g(*v) if isinstance(v, tuple) else _g(v) for v in row] for row in rows],
        EXACT,
    )


def cayley_pencil() -> MatrixPencil:
    """Three real symmetric 0/1 matrices; the induced cubic surface is
    the classical four-node cubic."""
    a1 = _exact([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    a2 = _exact([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    a3 = _exact([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    return MatrixPencil([a1, a2, a3])


def drop_pencil() -> MatrixPencil:
    """A 2x2 spin block plus a decoupled level at 2; the joint range is
    the hull of the unit sphere and an outside point."""
    a1 = _exact([[0, 1, 0], [1, 0, 0], [0, 0, 2]])
    a2 = _exact([[0, (0, -1), 0], [(0, 1), 0, 0], [0, 0, 0]])
    a3 = _exact([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    return MatrixPencil([a1, a2, a3])


def chien_nakazato_pencil() -> MatrixPencil:
    """Three 3x3 matrices whose characteristic form is an irreducible
    hyperbolic cubic with a quartic dual surface."""
    a1 = _exact([[1, 0, 0], [0, -1, 1], [0, 1, 0]])
    a2 = _exact([[0, 0, (0, -1)], [0, 0, 0], [(0, 1), 0, 0]])
    a3 = _exact([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    return MatrixPencil([a1, a2, a3])


def qubit_disk_pencil() -> MatrixPencil:
    """The two off-diagonal Pauli matrices; the joint range is the
    closed unit disk."""
    a1 = _exact([[0, 1], [1, 0]])
    a2 = _exact([[0, (0, -1)], [(0, 1), 0]])
    return MatrixPencil([a1, a2])


def builtin_pencil(name: str) -> MatrixPencil:
    table = {
        CAYLEY: cayley_pencil,
        DROP: drop_pencil,
        CHIEN_NAKAZATO: chien_nakazato_pencil,
        QUBIT_DISK: qubit_disk_pencil,
    }
    if name not in table:
        raise KeyError(f"no pencil-valued builtin named {name!r}")
    return table[name]()


def ellipse_conic(cx: float, cy: float, rx: float, ry: float, angle: float) -> np.ndarray:
    """Symmetric 3x3 matrix M with (1,x,y) M (1,x,y)^T = 0 on the ellipse
    of center (cx, cy), semi-axes (rx, ry), tilted by `angle` radians.

    Normalized so the interior has negative value.
    """
    ca, sa = np.cos(angle), np.sin(angle)
    R = np.array([[ca, -sa], [sa, ca]])
    Q = R @ np.diag([1.0 / rx**2, 1.0 / ry**2]) @ R.T
    c = np.array([cx, cy])
    M = np.empty((3, 3))
    M[1:, 1:] = Q
    M[0, 1:] = M[1:, 0] = -Q @ c
    M[0, 0] = c @ Q @ c - 1.0
    return M


# Demo configuration: four tilted ellipses around the origin, the last
# one big enough that its dual adds nothing to the hull.
FOUR_ELLIPSES_DEFAULTS = (
    (0.3, 0.0, 2.0, 0.9, 0.0),
    (-0.2, 0.1, 1.8, 1.0, np.pi / 3),
    (0.0, -0.2, 1.9, 0.8, -np.pi / 3),
    (0.0, 0.0, 3.5, 3.2, 0.2),
)


def four_ellipses_conics(params=FOUR_ELLIPSES_DEFAULTS) -> list:
    return [ellipse_conic(*p) for p in params]


# Exact ground truth of the chien-nakazato dual surface.


def chien_nakazato_quartic_terms() -> dict:
    """Integer coefficients of the quartic dual surface, y0..y3."""
    return {
        (2, 0, 0, 2): 4.0,
        (1, 1, 0, 2): 8.0,
        (1, 0, 2, 1): -4.0,
        (1, 0, 0, 3): -24.0,
        (0, 2, 0, 2): 4.0,
        (0, 1, 2, 1): -4.0,
        (0, 1, 0, 3): -8.0,
        (0, 0, 4, 0): 1.0,
        (0, 0, 2, 2): 8.0,
        (0, 0, 0, 4): 20.0,
    }


def steiner_quartic_terms() -> dict:
    """Integer coefficients of the quartic dual of the cayley cubic."""
    return {
        (0, 2, 2, 0): 1.0,
        (0, 2, 0, 2): 1.0,
        (0, 0, 2, 2): 1.0,
        (1, 1, 1, 1): -2.0,
    }


# Conic in the (y1, y3) chart controlling which vertical lines meet the
# chien-nakazato dual surface: y1^2 + 5 y3^2 - 2 y1 y3 + 2 y1 - 6 y3 + 1.
CN_ELLIPSE_QUAD = np.array([[1.0, -1.0], [-1.0, 5.0]])
CN_ELLIPSE_LIN = np.array([2.0, -6.0])
CN_ELLIPSE_CONST = 1.0
CN_ELLIPSE_APEX = (1.0, 0.0)
