"""Closed-form curvature checks at the coordinate monomial point.

At p = x_0 ... x_{d-1} the tangent space of the degree-d cone has a
monomial basis, so projecting onto the normal space is a membership
test: a monomial either sits in the tangent set (projection zero) or it
survives unchanged.  This module computes those projections, the
special normal form built from them, the contraction table, and the
two structured matrices whose exact spectra witness that the assembled
quadric is invertible.  Everything is exact over Z_m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import PrimeModulus, SeededRng
from .matrix import FfMatrix
from .poly import LinearForm, Poly, contract, expand_product, monomial_basis

CASE_DISTINCT4 = "distinct-4"
CASE_EQUAL_BELOW = "equal-below-d"
CASE_MIXED = "mixed"
CASE_BOTH_ABOVE = "both-above-d"
CASE_ZERO = "zero"

CASE_LABELS = (
    CASE_DISTINCT4,
    CASE_EQUAL_BELOW,
    CASE_MIXED,
    CASE_BOTH_ABOVE,
    CASE_ZERO,
)


def _check_dn(d: int, n: int) -> None:
    if not 3 <= d <= n + 1:
        raise ValueError(f"need 3 <= d <= n+1, got d={d}, n={n}")


@lru_cache(maxsize=None)
def tangent_monomial_indices(d: int, n: int) -> frozenset[int]:
    """Indices of the monomials spanning the tangent space at x_0...x_{d-1}.

    These are x_i * (the point with factor k removed) for all k < d and
    0 <= i <= n; i = k reproduces the point itself.
    """
    _check_dn(d, n)
    basis = monomial_basis(n, d)
    out = set()
    for k in range(d):
        rest = [a for a in range(d) if a != k]
        for i in range(n + 1):
            out.add(basis.index_of_variables(rest + [i]))
    return frozenset(out)


def tangent_split_dimensions(d: int, n: int) -> tuple[int, int, int]:
    """Sizes (point line, square part, high-variable part) of the split
    tangent basis: 1, d(d-1), and d(n+1-d)."""
    _check_dn(d, n)
    return 1, d * (d - 1), d * (n + 1 - d)


def _component_variables(d: int, k: int, l: int, i: int, j: int) -> list[int]:
    return [i, j] + [a for a in range(d) if a not in (k, l)]


def _validate_indices(d: int, n: int, k: int, i: int, l: int, j: int) -> None:
    if not (0 <= k < d and 0 <= l < d):
        raise ValueError(f"factor indices must lie in [0, {d}), got k={k}, l={l}")
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError(f"variable indices must lie in [0, {n}], got i={i}, j={j}")


def sff_component(
    d: int, n: int, k: int, i: int, l: int, j: int, modulus: PrimeModulus
) -> Poly:
    """Projection of the mixed second derivative onto the normal space.

    For k != l this is the monomial x_i x_j * (point with factors k, l
    removed) if that monomial is not tangent, and zero otherwise.  Equal
    factor slots (k = l) vanish outright: the product map is
    multilinear.
    """
    _check_dn(d, n)
    _validate_indices(d, n, k, i, l, j)
    basis = monomial_basis(n, d)
    if k == l:
        return Poly.zero(basis, modulus)
    idx = basis.index_of_variables(_component_variables(d, k, l, i, j))
    if idx in tangent_monomial_indices(d, n):
        return Poly.zero(basis, modulus)
    vec = np.zeros(basis.dim, dtype=np.int64)
    vec[idx] = 1
    return Poly(basis, vec, modulus)


@dataclass(frozen=True)
class SffComponentCase:
    """One index tuple with its closed-form label and predicted value."""

    d: int
    n: int
    k: int
    i: int
    l: int
    j: int
    label: str
    predicted: Poly


def classify_component(
    d: int, n: int, k: int, i: int, l: int, j: int, modulus: PrimeModulus
) -> SffComponentCase:
    """The closed-form case table, used as the oracle for the projection.

    Index symmetry (i <-> j, k <-> l) is normalized away first; the five
    branches are mutually exclusive on the normalized tuple.
    """
    _check_dn(d, n)
    _validate_indices(d, n, k, i, l, j)
    basis = monomial_basis(n, d)
    ii, jj = min(i, j), max(i, j)

    def case(label: str, variables=None) -> SffComponentCase:
        if variables is None:
            predicted = Poly.zero(basis, modulus)
        else:
            predicted = Poly.monomial(
                basis, _exps(n, variables), modulus
            )
        return SffComponentCase(d, n, k, i, l, j, label, predicted)

    if k == l:
        return case(CASE_ZERO)
    others = [a for a in range(d) if a not in (k, l)]
    if ii < jj < d and len({k, l, ii, jj}) == 4:
        return case(CASE_DISTINCT4, [ii, ii, jj, jj] + [a for a in others if a not in (ii, jj)])
    if ii == jj < d and len({k, l, ii}) == 3:
        return case(CASE_EQUAL_BELOW, [ii, ii, ii] + [a for a in others if a != ii])
    if ii < d <= jj and len({k, l, ii}) == 3:
        return case(CASE_MIXED, [ii, ii, jj] + [a for a in others if a != ii])
    if d <= ii:
        return case(CASE_BOTH_ABOVE, [ii, jj] + others)
    return case(CASE_ZERO)


def _exps(n: int, variables) -> tuple[int, ...]:
    exps = [0] * (n + 1)
    for v in variables:
        exps[v] += 1
    return tuple(exps)


def special_normal_form(d: int, n: int, modulus: PrimeModulus) -> Poly:
    """The distinguished normal form built from the nonzero projections.

    Coefficient 1 on x_i^3 * (point with i, k, l removed) for every
    i < d and pair {k, l} avoiding i, and on x_j^2 * (point with k, l
    removed) for every j >= d and pair k < l < d.  Normality against
    every tangent monomial is verified before returning.
    """
    _check_dn(d, n)
    basis = monomial_basis(n, d)
    vec = np.zeros(basis.dim, dtype=np.int64)
    for i in range(d):
        rest = [a for a in range(d) if a != i]
        for a in range(len(rest)):
            for b in range(a + 1, len(rest)):
                k, l = rest[a], rest[b]
                variables = [i, i, i] + [c for c in range(d) if c not in (k, l, i)]
                vec[basis.index_of_variables(variables)] = 1
    for j in range(d, n + 1):
        for k in range(d):
            for l in range(k + 1, d):
                variables = [j, j] + [c for c in range(d) if c not in (k, l)]
                vec[basis.index_of_variables(variables)] = 1
    normal = Poly(basis, vec, modulus)
    for idx in tangent_monomial_indices(d, n):
        t = Poly.monomial(basis, basis.exponents_of(idx), modulus)
        if not contract(t, normal).is_zero():
            raise AssertionError("special normal form fails normality")
    return normal


def contraction_value(d: int, k: int, i: int, l: int, j: int) -> int:
    """Predicted pairing of the (k,i)/(l,j) curvature entry with the
    special normal form:
    1 exactly when i = j, the factor slots differ, and i avoids both
    slots whenever i < d."""
    if k == l or i != j:
        return 0
    if i < d:
        return 1 if len({k, l, i}) == 3 else 0
    return 1


def frame_indices(d: int, n: int) -> list[tuple[int, int]]:
    """Row order for the assembled quadric.

    Square part first, enumerated by choice offset a then variable i
    (the a-th admissible factor slot for variable i), then the
    high-variable part by variable then slot.  This is the order in
    which the assembled matrix is literally block-diagonal with the two
    Kronecker forms below.
    """
    _check_dn(d, n)
    frame = []
    for a in range(d - 1):
        for i in range(d):
            k = [x for x in range(d) if x != i][a]
            frame.append((k, i))
    for i in range(d, n + 1):
        for k in range(d):
            frame.append((k, i))
    return frame


@dataclass(frozen=True)
class GhPair:
    """The two structured blocks of the assembled quadric."""

    d: int
    n: int
    g: FfMatrix
    h: FfMatrix


def gh_build(d: int, n: int, modulus: PrimeModulus) -> GhPair:
    """G = 1_{d-1} (x) I_d - I and H = I_{n+1-d} (x) 1_d - I."""
    _check_dn(d, n)
    g = FfMatrix.ones(d - 1, d - 1, modulus).kron(
        FfMatrix.identity(d, modulus)
    ) - FfMatrix.identity(d * (d - 1), modulus)
    h = FfMatrix.identity(n + 1 - d, modulus).kron(
        FfMatrix.ones(d, d, modulus)
    ) - FfMatrix.identity(d * (n + 1 - d), modulus)
    return GhPair(d, n, g, h)


def assemble_contraction_matrix(d: int, n: int, modulus: PrimeModulus) -> FfMatrix:
    """Pair every frame entry's projected component with the special
    normal form."""
    normal = special_normal_form(d, n, modulus)
    frame = frame_indices(d, n)
    size = len(frame)
    out = np.zeros((size, size), dtype=np.int64)
    for a, (k, i) in enumerate(frame):
        for b, (l, j) in enumerate(frame):
            out[a, b] = contract(
                sff_component(d, n, k, i, l, j, modulus), normal
            ).value
    return FfMatrix(out, modulus)


@dataclass(frozen=True)
class GhReport:
    d: int
    n: int
    assembly_ok: bool
    g_annihilated: bool
    h_annihilated: bool
    g_order: int
    h_order: int
    g_rank: int
    h_rank: int
    mismatches: tuple[str, ...] = ()

    @property
    def g_invertible(self) -> bool:
        return self.g_rank == self.g_order

    @property
    def h_invertible(self) -> bool:
        return self.h_rank == self.h_order

    @property
    def ok(self) -> bool:
        return (
            self.assembly_ok
            and self.g_annihilated
            and self.h_annihilated
            and self.g_invertible
            and self.h_invertible
        )


def _annihilated(mat: FfMatrix, eig_a: int, eig_b: int) -> bool:
    """(mat - eig_a I)(mat - eig_b I) == 0, the exact two-eigenvalue test."""
    ident = FfMatrix.identity(mat.rows, mat.modulus)
    return ((mat - ident.scale(eig_a)) @ (mat - ident.scale(eig_b))).is_zero()


def gh_check(pair: GhPair) -> GhReport:
    """Assembly, annihilating polynomials, and invertibility, all exact.

    The assembled pairing matrix in frame order must literally equal
    blockdiag(G, H); G must satisfy (G - (d-2) I)(G + I) = 0 and H must
    satisfy (H - (d-1) I)(H + I) = 0; both must have full rank.
    """
    d, n = pair.d, pair.n
    modulus = pair.g.modulus
    assembled = assemble_contraction_matrix(d, n, modulus)
    g_order = d * (d - 1)
    h_order = d * (n + 1 - d)
    mismatches = []
    expect = np.zeros((g_order + h_order, g_order + h_order), dtype=np.int64)
    expect[:g_order, :g_order] = pair.g.data
    expect[g_order:, g_order:] = pair.h.data
    if not np.array_equal(assembled.data, expect):
        bad = np.argwhere(assembled.data != expect)
        for a, b in bad[:10]:
            mismatches.append(
                f"entry ({a}, {b}): assembled {assembled.data[a, b]}, "
                f"structured {expect[a, b]}"
            )
        if len(bad) > 10:
            mismatches.append(f"... {len(bad) - 10} more")
    m = modulus.value
    return GhReport(
        d=d,
        n=n,
        assembly_ok=not mismatches,
        g_annihilated=_annihilated(pair.g, (d - 2) % m, -1 % m),
        h_annihilated=_annihilated(pair.h, (d - 1) % m, -1 % m),
        g_order=g_order,
        h_order=h_order,
        g_rank=pair.g.rank(),
        h_rank=pair.h.rank(),
        mismatches=tuple(mismatches),
    )


def second_difference_same_slot(forms, slot: int, direction: LinearForm) -> Poly:
    """Exact second difference of the product map along one factor slot.

    Identically zero: the expansion is degree one in each slot, which is
    the computational content of the vanishing diagonal blocks and of
    the zero-trace (minimality) property.
    """
    forms = list(forms)
    m = forms[0].modulus.value

    def shifted(c: int) -> Poly:
        moved = list(forms)
        moved[slot] = LinearForm(
            (forms[slot].coords + c * direction.coords) % m, forms[slot].modulus
        )
        return expand_product(moved)

    return shifted(0) - shifted(1).scale(2) + shifted(2)


def second_difference_mixed(
    forms, slot_a: int, slot_b: int, da: LinearForm, db: LinearForm
) -> Poly:
    """Mixed second difference; generically nonzero for distinct slots."""
    forms = list(forms)
    m = forms[0].modulus.value

    def shifted(ca: int, cb: int) -> Poly:
        moved = list(forms)
        moved[slot_a] = LinearForm(
            (moved[slot_a].coords + ca * da.coords) % m, da.modulus
        )
        moved[slot_b] = LinearForm(
            (moved[slot_b].coords + cb * db.coords) % m, db.modulus
        )
        return expand_product(moved)

    return shifted(1, 1) - shifted(1, 0) - shifted(0, 1) + shifted(0, 0)


def minimality_check(forms, trials: int, rng: SeededRng) -> bool:
    """Zero same-slot second differences for random directions, exactly.

    Works for any number of factor slots; the certification pipeline
    uses three.
    """
    forms = list(forms)
    modulus = forms[0].modulus
    n = forms[0].n
    for _ in range(trials):
        direction = LinearForm(rng.vector(modulus, n + 1), modulus)
        for slot in range(len(forms)):
            if not second_difference_same_slot(forms, slot, direction).is_zero():
                return False
    return True
