"""Hermitian matrix types, the batched eigen kernel, and state sampling.

Two scalar domains run through the package: exact Gaussian rationals for
small pencils whose determinants must come out with integer coefficients,
and complex floats for everything numerical.  Conversion between the two
is always explicit, never silent.

Every float eigenvalue problem in the package goes through one kernel,
`batched_eigh`: LAPACK's Hermitian solver over a chunked batch of real
combinations of a pencil's stacked matrices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

EXACT = "exact"
FLOAT = "float"

# Relative asymmetry allowed by the HermitianMatrix constructor.
HERMITIAN_CONSTRUCT_TOL = 1e-12
# Looser gate applied by the eigensolver to raw arrays.
HERMITIAN_EIG_TOL = 1e-8
# Eigenvalues closer than this (relative) are grouped as one multiplicity.
MULTIPLICITY_TOL = 1e-8
# Combinations per LAPACK call.  A chunk holds a (chunk, d, d) complex
# batch, its eigenvectors and a contact intermediate n times that size:
# at d = 12, n = 3 about 2.4 + 2.4 + 7 MB, where a whole 20 000-direction
# grid would take 46 MB per array.
EIGH_CHUNK = 1024
# Seed of the generator that `rng=None` stands for.
DEFAULT_SEED = 0


class LinalgError(Exception):
    """Base class for errors raised by this module."""


class NonHermitianInput(LinalgError):
    """Input matrix is not conjugate symmetric within tolerance."""


class ConvergenceFailure(LinalgError):
    """The eigensolver stopped before converging."""


class DimensionMismatch(LinalgError):
    """Operands have incompatible shapes."""


class OutOfFloatRange(LinalgError):
    """An exact entry is too large for the float solvers."""


class GaussianRational:
    """Complex number with Fraction real and imaginary parts.

    Immutable.  Arithmetic stays exact; `to_complex` is the only exit
    into floats.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_real(self) -> bool:
        return self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return NotImplemented


def rational_str(x: Fraction) -> str:
    """Reduced fraction as a string, '3' or '-2/7'."""
    return str(Fraction(x))


def parse_rational(s) -> Fraction:
    """Accept 'p/q' strings, plain integers, or integer-valued floats;
    'p/0' raises ValueError."""
    if isinstance(s, str):
        try:
            return Fraction(s)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {s!r}") from exc
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, float) and s == int(s):
        return Fraction(int(s))
    raise ValueError(f"not an exact rational: {s!r}")


class HermitianMatrix:
    """Square conjugate-symmetric matrix in either scalar domain.

    Float data lives in a read-only complex ndarray; exact data is a
    tuple of tuples of GaussianRational.  The constructor rejects float
    input with a non-finite entry, and input whose asymmetry exceeds
    1e-12 relative to the Frobenius norm.
    """

    __slots__ = ("data", "dim", "domain")

    def __init__(self, data, domain: str = FLOAT):
        if domain == FLOAT:
            a = np.asarray(data, dtype=complex)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise DimensionMismatch(f"expected square matrix, got shape {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ValueError("matrix has a non-finite entry")
            fro = float(np.linalg.norm(a))
            asym = float(np.linalg.norm(a - a.conj().T))
            if asym > HERMITIAN_CONSTRUCT_TOL * max(fro, 1e-300):
                i, j = np.unravel_index(int(np.abs(a - a.conj().T).argmax()), a.shape)
                raise NonHermitianInput(
                    f"asymmetry {asym:.3e} exceeds {HERMITIAN_CONSTRUCT_TOL:g} * |A|, "
                    f"worst at entry ({i},{j})"
                )
            a = a.copy()
            a.flags.writeable = False
            object.__setattr__(self, "data", a)
            object.__setattr__(self, "dim", a.shape[0])
        elif domain == EXACT:
            rows = tuple(tuple(_as_gaussian(v) for v in row) for row in data)
            d = len(rows)
            if any(len(r) != d for r in rows):
                raise DimensionMismatch("ragged exact matrix")
            for j in range(d):
                for k in range(j, d):
                    if rows[j][k] != rows[k][j].conjugate():
                        raise NonHermitianInput(
                            f"exact entries ({j},{k}) and ({k},{j}) are not conjugate"
                        )
            object.__setattr__(self, "data", rows)
            object.__setattr__(self, "dim", d)
        else:
            raise ValueError(f"unknown domain {domain!r}")
        object.__setattr__(self, "domain", domain)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianMatrix is immutable")

    def to_float(self) -> "HermitianMatrix":
        if self.domain == FLOAT:
            return self
        try:
            arr = np.array(
                [[v.to_complex() for v in row] for row in self.data], dtype=complex
            )
        except OverflowError as exc:
            raise OutOfFloatRange(f"exact entry beyond the float range: {exc}") from exc
        return HermitianMatrix(arr, FLOAT)

    def as_array(self) -> np.ndarray:
        return self.to_float().data

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.as_array()))

    def __eq__(self, other):
        if not isinstance(other, HermitianMatrix):
            return NotImplemented
        if self.domain != other.domain or self.dim != other.dim:
            return False
        if self.domain == EXACT:
            return self.data == other.data
        return bool(np.array_equal(self.data, other.data))

    def __repr__(self):
        return f"HermitianMatrix(dim={self.dim}, domain={self.domain!r})"


def _as_gaussian(v) -> GaussianRational:
    if isinstance(v, GaussianRational):
        return v
    if isinstance(v, (int, Fraction)):
        return GaussianRational(v)
    if isinstance(v, complex):
        re, im = v.real, v.imag
        if re != int(re) or im != int(im):
            raise ValueError(f"non-integral complex {v} cannot enter the exact domain")
        return GaussianRational(int(re), int(im))
    raise ValueError(f"cannot treat {v!r} as a Gaussian rational")


class MatrixPencil:
    """Tuple (A_1, ..., A_n) of d x d Hermitian matrices, one domain.

    The induced degree-d form is det(x_0 I + x_1 A_1 + ... + x_n A_n);
    everything downstream (tracing, cones, duals) consumes this object.
    """

    __slots__ = ("matrices", "d", "n", "domain", "_stack")

    def __init__(self, matrices):
        mats = tuple(matrices)
        if not mats:
            raise DimensionMismatch("pencil needs at least one matrix")
        if not all(isinstance(m, HermitianMatrix) for m in mats):
            raise TypeError("pencil entries must be HermitianMatrix")
        d = mats[0].dim
        domain = mats[0].domain
        if any(m.dim != d for m in mats):
            raise DimensionMismatch("pencil matrices differ in dimension")
        if any(m.domain != domain for m in mats):
            raise ValueError("pencil matrices mix scalar domains")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", len(mats))
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_stack", None)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixPencil is immutable")

    def to_float(self) -> "MatrixPencil":
        if self.domain == FLOAT:
            return self
        return MatrixPencil([m.to_float() for m in self.matrices])

    def stack(self) -> np.ndarray:
        """(n, d, d) complex array of the coefficient matrices."""
        if self._stack is None:
            arr = np.stack([m.as_array() for m in self.matrices])
            arr.flags.writeable = False
            object.__setattr__(self, "_stack", arr)
        return self._stack

    def norm(self) -> float:
        """Root of the summed squared Frobenius norms."""
        return float(math.sqrt(sum(m.frobenius() ** 2 for m in self.matrices)))

    def __repr__(self):
        return f"MatrixPencil(d={self.d}, n={self.n}, domain={self.domain!r})"


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues with matching orthonormal eigenvector columns.

    `groups` partitions the index range into runs of eigenvalues equal
    within 1e-8 * (1 + |A|_F); an index is simple when its group is a
    singleton.
    """

    values: np.ndarray
    vectors: np.ndarray
    groups: tuple = field(default_factory=tuple)

    def simple(self, k: int) -> bool:
        for g in self.groups:
            if k in g:
                return len(g) == 1
        raise IndexError(k)

    @property
    def dim(self) -> int:
        return len(self.values)


def group_starts(values, tol: float) -> np.ndarray:
    """Along the last axis of ascending eigenvalues: True where a value
    opens a multiplicity group, being more than tol above the one before."""
    values = np.asarray(values)
    starts = np.ones(values.shape, dtype=bool)
    starts[..., 1:] = np.diff(values, axis=-1) > tol
    return starts


def _group_close(values, tol: float):
    bounds = np.flatnonzero(group_starts(values, tol)).tolist() + [len(values)]
    return tuple(tuple(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:]))


def batched_eigh(stack, coeffs, vectors: bool = True):
    """Eigen-decompose sum_k c_k stack[k] for every row c of coeffs.

    `stack` is an (n, d, d) array of Hermitian matrices, such as
    `MatrixPencil.stack()`, and `coeffs` an (m, n) array of real rows.
    The combinations are formed and solved EIGH_CHUNK rows at a time by
    LAPACK (`eigh`, or `eigvalsh` when vectors=False).  Yields
    (start, values, vectors) per chunk: the chunk's first row index,
    ascending eigenvalues (k, d) and eigenvector columns (k, d, d), or
    None in place of the vectors.
    """
    stack = np.asarray(stack)
    n, d = stack.shape[0], stack.shape[-1]
    # tensordot(coeffs, stack, axes=1) as one product with the flattened
    # stack: the same numbers without tensordot's per-call overhead, which
    # matters to the one-direction callers (membership, the patch sweep)
    flat = stack.reshape(n, d * d)
    coeffs = np.asarray(coeffs, dtype=float)
    for start in range(0, len(coeffs), EIGH_CHUNK):
        mats = (coeffs[start : start + EIGH_CHUNK] @ flat).reshape(-1, d, d)
        try:
            if vectors:
                values, vecs = np.linalg.eigh(mats)
            else:
                values, vecs = np.linalg.eigvalsh(mats), None
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"LAPACK eigensolver: {exc}") from exc
        yield start, values, vecs


def batched_eigvalsh(stack, coeffs) -> np.ndarray:
    """Ascending eigenvalues (m, d) of the combination of every row."""
    parts = [values for _, values, _ in batched_eigh(stack, coeffs, vectors=False)]
    if not parts:
        return np.empty((0, np.shape(stack)[-1]))
    return np.concatenate(parts)


def eig_hermitian(matrix) -> EigenSystem:
    """Full eigensystem of one Hermitian matrix through `batched_eigh`.

    Accepts a HermitianMatrix or a raw complex array.  Raw input may be
    asymmetric up to 1e-8 relative; it is symmetrized before solving.
    """
    if isinstance(matrix, HermitianMatrix):
        arr = matrix.as_array()
    else:
        arr = np.asarray(matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"expected square matrix, got shape {arr.shape}")
        fro = float(np.linalg.norm(arr))
        asym = float(np.linalg.norm(arr - arr.conj().T))
        if asym > HERMITIAN_EIG_TOL * max(fro, 1e-300):
            raise NonHermitianInput(
                f"asymmetry {asym:.3e} exceeds {HERMITIAN_EIG_TOL:g} * |A|"
            )
        arr = 0.5 * (arr + arr.conj().T)
    ((_, values, vectors),) = batched_eigh(arr[None], [[1.0]])
    fro = float(np.linalg.norm(arr))
    groups = _group_close(values[0], MULTIPLICITY_TOL * (1.0 + fro))
    return EigenSystem(values=values[0], vectors=vectors[0], groups=groups)


def pairing(a, b):
    """Hilbert-Schmidt pairing tr(A B) of two Hermitian matrices.

    Real for Hermitian operands; returned as a float in the float
    domain and as a Fraction in the exact domain.
    """
    if isinstance(a, HermitianMatrix) and isinstance(b, HermitianMatrix):
        if a.dim != b.dim:
            raise DimensionMismatch(f"dims {a.dim} vs {b.dim}")
        if a.domain == EXACT and b.domain == EXACT:
            total = GaussianRational(0)
            for j in range(a.dim):
                for k in range(a.dim):
                    total = total + a.data[j][k] * b.data[k][j]
            if not total.is_real():
                raise NonHermitianInput("exact pairing came out complex")
            return total.re
        am, bm = a.as_array(), b.as_array()
    else:
        am = a.as_array() if isinstance(a, HermitianMatrix) else np.asarray(a, dtype=complex)
        bm = b.as_array() if isinstance(b, HermitianMatrix) else np.asarray(b, dtype=complex)
        if am.shape != bm.shape:
            raise DimensionMismatch(f"shapes {am.shape} vs {bm.shape}")
    return float(np.real(np.sum(am * bm.T)))


class DensityMatrix(HermitianMatrix):
    """Positive semidefinite Hermitian matrix of unit trace (float domain)."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, FLOAT)
        tr = float(np.real(np.trace(self.data)))
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"trace {tr} is not 1 within 1e-10")
        eig = eig_hermitian(self)
        if eig.values[0] < -1e-10:
            raise ValueError(f"negative eigenvalue {eig.values[0]:.3e}")

    def expectations(self, pencil: MatrixPencil) -> np.ndarray:
        """The point (<rho, A_1>, ..., <rho, A_n>) of the joint range."""
        return np.array(
            [pairing(self, m) for m in pencil.to_float().matrices], dtype=float
        )


def as_rng(rng) -> np.random.Generator:
    """`rng` itself when it is a Generator, else a generator seeded by it.

    None selects DEFAULT_SEED, so that a default never draws on OS
    entropy and every seeded routine is deterministic without a seed.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(DEFAULT_SEED if rng is None else rng)


def sample_pure_state(d: int, rng=None) -> DensityMatrix:
    """Rank-one projector psi psi* with psi complex Gaussian, normalized."""
    g = as_rng(rng)
    psi = g.standard_normal(d) + 1j * g.standard_normal(d)
    psi = psi / np.linalg.norm(psi)
    return DensityMatrix(np.outer(psi, psi.conj()))


def sample_mixed_state(d: int, rng=None) -> DensityMatrix:
    """G G* / tr(G G*) for a complex Gaussian square G (full rank a.s.)."""
    g = as_rng(rng)
    G = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    P = G @ G.conj().T
    return DensityMatrix(P / np.real(np.trace(P)))


# ---------------------------------------------------------------------------
# pencil parsing


def pencil_from_json(text) -> MatrixPencil:
    """Parse the pencil schema; picks the exact domain when every entry
    is a rational string or an integer, floats otherwise."""
    doc = json.loads(text) if isinstance(text, str) else text
    try:
        d, n, mats = doc["d"], doc["n"], doc["matrices"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed pencil document: {exc}") from exc
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (d, n)):
        raise ValueError(f"d and n must be integers, got {d!r} and {n!r}")
    if not isinstance(mats, (list, tuple)):
        raise ValueError("matrices is not a list")
    if len(mats) != n:
        raise ValueError(f"expected {n} matrices, found {len(mats)}")
    exact = True
    for m in mats:
        if not isinstance(m, (list, tuple)) or len(m) != d or any(
            not isinstance(row, (list, tuple)) or len(row) != d for row in m
        ):
            raise ValueError("matrix block is not d x d")
        for row in m:
            for entry in row:
                if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                    raise ValueError(f"entry {entry!r} is not an [re, im] pair")
                for part in entry:
                    if isinstance(part, bool) or not isinstance(part, (str, int, float)):
                        raise ValueError(
                            f"entry part {part!r} is not a number or a rational string"
                        )
                    if isinstance(part, float):
                        if not math.isfinite(part):
                            raise ValueError(f"entry part {part!r} is not finite")
                        exact = exact and part == int(part)
    out = []
    for k, m in enumerate(mats):
        if exact:
            data = [
                [
                    GaussianRational(parse_rational(e[0]), parse_rational(e[1]))
                    for e in row
                ]
                for row in m
            ]
        else:
            try:
                data = np.array(
                    [[complex(float(e[0]), float(e[1])) for e in row] for row in m]
                )
            except OverflowError as exc:
                raise ValueError(f"entry out of float range: {exc}") from exc
        try:
            out.append(HermitianMatrix(data, EXACT if exact else FLOAT))
        except NonHermitianInput as exc:
            raise NonHermitianInput(f"matrix {k}: {exc}") from exc
    return MatrixPencil(out)
