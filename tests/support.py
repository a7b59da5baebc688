"""Helpers that only the tests call: a quadratic form as a polynomial,
a pencil written as a JSON document, and the exact chien-nakazato cubic."""

import json
from fractions import Fraction

from numrange.dual import SymmetricForm
from numrange.linalg import EXACT, FLOAT, MatrixPencil, rational_str
from numrange.poly import MultiPoly


def form_to_poly(form: SymmetricForm) -> MultiPoly:
    """The quadratic form as a homogeneous degree-2 polynomial."""
    terms = {}
    m = form.entries
    exact = form.domain == EXACT
    for i in range(form.dim):
        for j in range(i, form.dim):
            c = m[i][j] if i == j else (m[i][j] + m[j][i])
            if not exact:
                c = float(c)
            if c == 0:
                continue
            exp = [0] * form.dim
            exp[i] += 1
            exp[j] += 1
            terms[tuple(exp)] = c
    return MultiPoly(form.dim, 2, terms, EXACT if exact else FLOAT)


def _entry_to_json(v, domain: str):
    if domain == EXACT:
        return [rational_str(v.re), rational_str(v.im)]
    return [float(v.real), float(v.imag)]


def pencil_to_json(pencil: MatrixPencil) -> str:
    """Serialize a pencil: {"d":., "n":., "matrices":[ d x d x [re, im] ]}."""
    mats = []
    for m in pencil.matrices:
        if pencil.domain == EXACT:
            rows = [
                [_entry_to_json(v, EXACT) for v in row] for row in m.data
            ]
        else:
            rows = [
                [_entry_to_json(m.data[j, k], FLOAT) for k in range(pencil.d)]
                for j in range(pencil.d)
            ]
        mats.append(rows)
    doc = {"d": pencil.d, "n": pencil.n, "matrices": mats}
    return json.dumps(doc, sort_keys=True)


def chien_nakazato_cubic_terms() -> dict:
    """Integer coefficients of the degree-3 characteristic form."""
    return {
        (3, 0, 0, 0): Fraction(1),
        (2, 0, 0, 1): Fraction(1),
        (1, 2, 0, 0): Fraction(-2),
        (1, 0, 2, 0): Fraction(-1),
        (0, 3, 0, 0): Fraction(-1),
        (0, 2, 0, 1): Fraction(-1),
        (0, 1, 2, 0): Fraction(1),
    }
