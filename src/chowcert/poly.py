"""Dense coefficient vectors for homogeneous polynomials over Z_m.

A degree-d form in variables x_0..x_n is a vector of binom(n+d, d)
coefficients indexed by a pinned monomial order (graded reverse
lexicographic, largest monomial first).  The order is part of the
certificate contract: replaying a recorded computation must place every
coefficient in the same slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .field import FieldElement, PrimeModulus, _check_kernel_modulus, _check_same_modulus


class MonomialBasis:
    """Bijection between degree-d exponent vectors and flat indices.

    Index 0 is the grevlex-largest monomial (x_0^d); index dim-1 is the
    smallest (x_n^d).  Internally a monomial is the sorted tuple of its
    variable indices with repetition, which keeps the tables small even
    at n around 100.
    """

    def __init__(self, n: int, d: int):
        if n < 0 or d < 0:
            raise ValueError("need n >= 0 and d >= 0")
        self.n = n
        self.d = d
        self.dim = math.comb(n + d, d)
        # Descending grevlex == ascending lex on reverse-sorted variable
        # tuples; the equivalence is covered by tests against the
        # exponent-vector definition.
        self._vars = sorted(
            combinations_with_replacement(range(n + 1), d),
            key=lambda ms: tuple(reversed(ms)),
        )
        self._index = {ms: i for i, ms in enumerate(self._vars)}

    def index_of(self, exponents) -> int:
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != self.n + 1:
            raise ValueError(
                f"expected {self.n + 1} exponents, got {len(exponents)}"
            )
        if any(e < 0 for e in exponents) or sum(exponents) != self.d:
            raise ValueError(f"exponents must be nonnegative and sum to {self.d}")
        ms = []
        for var, e in enumerate(exponents):
            ms.extend([var] * e)
        return self._index[tuple(ms)]

    def exponents_of(self, index: int) -> tuple[int, ...]:
        ms = self._vars[index]
        exps = [0] * (self.n + 1)
        for var in ms:
            exps[var] += 1
        return tuple(exps)

    def index_of_variables(self, variables) -> int:
        """Index of the monomial given as a multiset of variable indices."""
        return self._index[tuple(sorted(variables))]

    def __eq__(self, other):
        return (
            isinstance(other, MonomialBasis)
            and self.n == other.n
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.n, self.d))

    def __repr__(self):
        return f"MonomialBasis(n={self.n}, d={self.d}, dim={self.dim})"


@lru_cache(maxsize=None)
def monomial_basis(n: int, d: int) -> MonomialBasis:
    return MonomialBasis(n, d)


@lru_cache(maxsize=None)
def _shift_map(n: int, d: int, var: int) -> np.ndarray:
    """Index map realizing multiplication by x_var from degree d to d+1.

    Injective: entry t is the degree-(d+1) index of x_var times the
    degree-d monomial t.
    """
    src = monomial_basis(n, d)
    dst = monomial_basis(n, d + 1)
    out = np.empty(src.dim, dtype=np.int64)
    for t, ms in enumerate(src._vars):
        out[t] = dst._index[tuple(sorted(ms + (var,)))]
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LinearForm:
    """A linear form a_0 x_0 + ... + a_n x_n with coefficients in Z_m."""

    coords: np.ndarray
    modulus: PrimeModulus

    def __post_init__(self):
        _check_kernel_modulus(self.modulus)
        arr = np.asarray(self.coords, dtype=np.int64) % self.modulus.value
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("coords must be a nonempty vector")

    @property
    def n(self) -> int:
        return self.coords.size - 1

    def is_zero(self) -> bool:
        return not self.coords.any()

    def as_poly(self) -> "Poly":
        return Poly(monomial_basis(self.n, 1), self.coords, self.modulus)

    def __eq__(self, other):
        return (
            isinstance(other, LinearForm)
            and self.modulus == other.modulus
            and np.array_equal(self.coords, other.coords)
        )


@dataclass(frozen=True)
class Poly:
    """Homogeneous polynomial as a dense coefficient vector over Z_m."""

    basis: MonomialBasis
    coeffs: np.ndarray
    modulus: PrimeModulus

    def __post_init__(self):
        _check_kernel_modulus(self.modulus)
        arr = np.asarray(self.coeffs, dtype=np.int64) % self.modulus.value
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        if arr.shape != (self.basis.dim,):
            raise ValueError(
                f"coefficient vector has length {arr.shape}, basis dim {self.basis.dim}"
            )

    @classmethod
    def zero(cls, basis: MonomialBasis, modulus: PrimeModulus) -> "Poly":
        return cls(basis, np.zeros(basis.dim, dtype=np.int64), modulus)

    @classmethod
    def monomial(
        cls, basis: MonomialBasis, exponents, modulus: PrimeModulus, coeff: int = 1
    ) -> "Poly":
        vec = np.zeros(basis.dim, dtype=np.int64)
        vec[basis.index_of(exponents)] = coeff % modulus.value
        return cls(basis, vec, modulus)

    def _check_compatible(self, other: "Poly") -> None:
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")
        _check_same_modulus(self.modulus, other.modulus)

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        return Poly(self.basis, self.coeffs + other.coeffs, self.modulus)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        return Poly(self.basis, self.coeffs - other.coeffs, self.modulus)

    def scale(self, c: int) -> "Poly":
        return Poly(self.basis, self.coeffs * (c % self.modulus.value), self.modulus)

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.basis == other.basis
            and self.modulus == other.modulus
            and np.array_equal(self.coeffs, other.coeffs)
        )


def multiply_by_variable(p: Poly, var: int) -> Poly:
    """Exact shift x_var * p from degree d to degree d+1."""
    basis = p.basis
    if not 0 <= var <= basis.n:
        raise ValueError(f"variable index {var} out of range for n={basis.n}")
    dst = monomial_basis(basis.n, basis.d + 1)
    out = np.zeros(dst.dim, dtype=np.int64)
    out[_shift_map(basis.n, basis.d, var)] = p.coeffs
    return Poly(dst, out, p.modulus)


def multiply_by_form(p: Poly, form: LinearForm) -> Poly:
    """Product of p with a linear form, one degree up."""
    _check_same_modulus(p.modulus, form.modulus)
    if form.n != p.basis.n:
        raise ValueError("variable count mismatch")
    n, d = p.basis.n, p.basis.d
    dst = monomial_basis(n, d + 1)
    m = p.modulus.value
    # Accumulate sum_i a_i * (x_i p); reduce eagerly only when the n+1
    # summands (each < m^2) could overflow int64.
    deferred = (n + 1) * (m - 1) ** 2 < 2**63
    out = np.zeros(dst.dim, dtype=np.int64)
    for var in range(n + 1):
        a = int(form.coords[var])
        if a == 0:
            continue
        out[_shift_map(n, d, var)] += a * p.coeffs
        if not deferred:
            out %= m
    return Poly(dst, out % m, p.modulus)


def expand_product(forms) -> Poly:
    """Expand a product of linear forms into a dense coefficient vector.

    The result is multilinear in each input and symmetric under
    permuting them.
    """
    forms = list(forms)
    if not forms:
        raise ValueError("need at least one linear form")
    modulus = forms[0].modulus
    n = forms[0].n
    for f in forms[1:]:
        _check_same_modulus(modulus, f.modulus)
        if f.n != n:
            raise ValueError("all forms must share the variable count")
    p = forms[0].as_poly()
    for f in forms[1:]:
        p = multiply_by_form(p, f)
    return p


def contract(p: Poly, q: Poly) -> FieldElement:
    """Unweighted dot product of coefficient vectors over Z_m.

    This is the bilinear pairing used both to carve out normal spaces
    and to evaluate curvature-form entries; monomials form an
    orthonormal set for it.
    """
    p._check_compatible(q)
    m = p.modulus.value
    chunk = max(1, (2**63 - 1) // (m - 1) ** 2)
    total = 0
    for start in range(0, p.basis.dim, chunk):
        total += int(np.dot(p.coeffs[start : start + chunk],
                            q.coeffs[start : start + chunk])) % m
    return FieldElement(total, p.modulus)
