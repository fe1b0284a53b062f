"""Cubic Chow variety constructions over Z_m.

Random points (products of three linear forms), per-point tangent
bases, the stacked tangent matrix for several points, and the
curvature-form matrix obtained by contracting second derivatives of the
product map with a normal vector.  Every tangent vector is a variable
times a quadric, so the stacked matrix is kept as its quadrics and the
variable shift maps, and it is eliminated as the Macaulay matrix it is
(`TerraciniMatrix`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import PrimeModulus, SeededRng, _check_same_modulus
from .matrix import FfMatrix, _mod_matmul, _split_echelon
from .poly import (
    LinearForm,
    Poly,
    _shift_map,
    expand_product,
    monomial_basis,
    multiply_by_variable,
)

DEGREE = 3


@dataclass(frozen=True)
class ChowPoint:
    """A point of the cubic Chow cone: an ordered triple of linear forms."""

    forms: tuple[LinearForm, LinearForm, LinearForm]

    def __post_init__(self):
        if len(self.forms) != DEGREE:
            raise ValueError(f"expected {DEGREE} linear forms")
        first = self.forms[0]
        for f in self.forms[1:]:
            _check_same_modulus(first.modulus, f.modulus)
            if f.n != first.n:
                raise ValueError("forms must share the variable count")
        if any(f.is_zero() for f in self.forms):
            raise ValueError("forms must be nonzero")

    @property
    def n(self) -> int:
        return self.forms[0].n

    @property
    def modulus(self) -> PrimeModulus:
        return self.forms[0].modulus

    def expand(self) -> Poly:
        return expand_product(self.forms)


@dataclass
class SamplingStats:
    """Counts rare resampling events (a drawn linear form was zero)."""

    resamples: int = 0


def sample_linear_form(
    n: int, modulus: PrimeModulus, rng: SeededRng, stats: SamplingStats | None = None
) -> LinearForm:
    """Uniform nonzero linear form; zero draws are discarded and counted."""
    while True:
        form = LinearForm(rng.vector(modulus, n + 1), modulus)
        if not form.is_zero():
            return form
        if stats is not None:
            stats.resamples += 1


def sample_point(
    n: int, modulus: PrimeModulus, rng: SeededRng, stats: SamplingStats | None = None
) -> ChowPoint:
    """One random point: three i.i.d. uniform linear forms."""
    if n < 1:
        raise ValueError("need n >= 1")
    return ChowPoint(
        tuple(sample_linear_form(n, modulus, rng, stats) for _ in range(DEGREE))
    )


@dataclass(frozen=True)
class TangentBasis:
    """The 3(n+1) spanning tangent vectors at a point, (k, i) row-major.

    Vector (k, i) is x_i times the product of the two forms other than
    form k.  At a generic point the span has dimension 3n+1.
    """

    point: ChowPoint
    vectors: tuple[Poly, ...]


def tangent_basis(point: ChowPoint) -> TangentBasis:
    """One point's tangent vectors, one `Poly` at a time: the row-by-row
    reference that `terracini_matrix` is tested against."""
    n = point.n
    vectors = []
    for k in range(DEGREE):
        others = [point.forms[a] for a in range(DEGREE) if a != k]
        pair = expand_product(others)
        for i in range(n + 1):
            vectors.append(multiply_by_variable(pair, i))
    return TangentBasis(point, tuple(vectors))


class TerraciniMatrix(FfMatrix):
    """The stacked tangent matrix, stored as the quadrics it is made of.

    Row (p, k, i) holds `quads[3 p + k]`, the quadric of the two forms
    of point p other than k, at the columns `shifts[i]` (multiplication
    by x_i) and zeros elsewhere.  So the matrix is the Macaulay matrix of
    the quadrics in degree 3, and it is eliminated as one
    (`matrix._split_echelon`): only the rows that do not start a new
    column are ever written out.  The int64 matrix `data` is never
    needed for a rank or a kernel vector; it is built on first access.
    The quadrics are kept read-only, so an elimination copies them
    rather than working in them (`matrix._echelon_blocked`).
    """

    __slots__ = ("_quads", "_shifts", "_shape", "_data")

    def __init__(self, quads: np.ndarray, shifts: np.ndarray, cols: int, modulus):
        self._quads = quads.view()
        self._quads.setflags(write=False)
        self._shifts = shifts
        self._shape = (quads.shape[0] * shifts.shape[0], cols)
        self._data = None
        self.modulus = modulus

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            nvar = self._shifts.shape[0]
            rows = np.arange(self.rows)
            out = np.zeros(self._shape, dtype=np.int64)
            np.put_along_axis(
                out, self._shifts[rows % nvar], self._quads[rows // nvar], axis=1
            )
            out.setflags(write=False)
            self._data = out
        return self._data

    def _echelon(self, m: int):
        # Grevlex is a term order, so every shift map is increasing, as
        # the split requires.
        return _split_echelon(self._quads, self._shifts, self.cols, m)


def terracini_matrix(points) -> TerraciniMatrix:
    """Stack every point's tangent vectors into one matrix.

    Rows are ordered point-major, then factor-major, then by variable;
    columns follow the degree-3 monomial order.  At r generic points the
    rank is min((3n+1) r, binom(n+3, 3)).  Row (p, k, i) is the tangent
    vector (k, i) of `tangent_basis`: the quadric of the two forms other
    than k, shifted by x_i.  The quadrics are computed for all points at
    once; the rows themselves are only written when they are read
    (`TerraciniMatrix`).
    """
    points = list(points)
    if not points:
        raise ValueError("need at least one point")
    modulus = points[0].modulus
    n = points[0].n
    for p in points[1:]:
        _check_same_modulus(modulus, p.modulus)
        if p.n != n:
            raise ValueError("points must share the variable count")
    m = modulus.value
    # coords[p, k] = coordinates of form k of point p, each in [0, m)
    coords = np.array([[f.coords for f in p.forms] for p in points])
    # the degree-2 monomials as variable pairs u <= v
    u, v = np.array(monomial_basis(n, 2)._vars, dtype=np.int64).T
    cross = u != v
    quads = np.empty((len(points), DEGREE, u.size), dtype=np.int64)
    for k in range(DEGREE):
        a, b = (coords[:, c] for c in range(DEGREE) if c != k)
        # coefficient of x_u x_v in the product of the other two forms:
        # a_u b_v + a_v b_u, or a_u b_u when u = v; below
        # 2 (m-1)^2 < 2^63 for m < 2^31, so int64 holds it unreduced
        quad = a[:, u] * b[:, v]
        quad[:, cross] += a[:, v[cross]] * b[:, u[cross]]
        quad %= m
        quads[:, k] = quad
    shifts = np.stack([_shift_map(n, 2, i) for i in range(n + 1)])
    return TerraciniMatrix(
        quads.reshape(-1, u.size), shifts, monomial_basis(n, DEGREE).dim, modulus
    )


def cone_dimension(n: int) -> int:
    """Dimension of the cubic Chow cone: 3n + 1."""
    return 3 * n + 1


def ambient_dimension(n: int) -> int:
    """Dimension of the space of cubics in n+1 variables."""
    return math.comb(n + 3, 3)


def expected_tangent_rank(n: int, r: int) -> int:
    return cone_dimension(n) * r


def expected_hessian_rank(n: int) -> int:
    """Full contracted-curvature rank at a generic point and normal.

    The 3(n+1)-dimensional parameter space always contains three exact
    kernel directions (two rescaling trade-offs between factors plus the
    radial one), so the best possible rank is 3(n+1) - 3 = 3n.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return 3 * n


@dataclass(frozen=True)
class HessianMatrix:
    """Curvature form contracted with a normal vector, frame (k, i).

    Symmetric, with identically zero diagonal blocks: the product map is
    multilinear, so repeated differentiation in one factor slot
    vanishes.
    """

    entries: FfMatrix
    n: int


def hessian_at(point: ChowPoint, normal: Poly) -> HessianMatrix:
    """Contract the second derivatives of the product map with a normal vector.

    Entry ((k, i), (l, j)) with k != l is the pairing of x_i x_j L_c
    against the normal vector, where c is the factor index other than
    k and l.
    """
    n = point.n
    modulus = point.modulus
    m = modulus.value
    basis3 = monomial_basis(n, DEGREE)
    if normal.basis != basis3:
        raise ValueError("normal vector must be a cubic over the same variables")
    _check_same_modulus(modulus, normal.modulus)
    # gathered[i, t] = normal-vector coefficient on x_i * (degree-2 monomial t)
    gathered = np.empty((n + 1, monomial_basis(n, 2).dim), dtype=np.int64)
    for i in range(n + 1):
        gathered[i] = normal.coeffs[_shift_map(n, 2, i)]
    size = DEGREE * (n + 1)
    out = np.zeros((size, size), dtype=np.int64)
    for k in range(DEGREE):
        for l in range(k + 1, DEGREE):
            c = 3 - k - l
            third = point.forms[c].as_poly()
            # q[j, t] = coefficient of x_j * L_c on degree-2 monomial t
            q = np.stack(
                [multiply_by_variable(third, j).coeffs for j in range(n + 1)]
            )
            block = _mod_matmul(gathered, q.T, m)
            out[
                k * (n + 1) : (k + 1) * (n + 1), l * (n + 1) : (l + 1) * (n + 1)
            ] = block
            out[
                l * (n + 1) : (l + 1) * (n + 1), k * (n + 1) : (k + 1) * (n + 1)
            ] = block.T
    return HessianMatrix(FfMatrix(out, modulus), n)

