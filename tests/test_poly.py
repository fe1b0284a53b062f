import math
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowcert.field import PrimeModulus, SeededRng
from chowcert.poly import (
    LinearForm,
    Poly,
    contract,
    expand_product,
    monomial_basis,
    multiply_by_form,
    multiply_by_variable,
)

MOD = PrimeModulus(20201)
P31 = PrimeModulus(2**31 - 1)


def random_form(n, rng):
    return LinearForm(rng.vector(MOD, n + 1), MOD)


class TestMonomialBasis:
    def test_dimension_small(self):
        assert monomial_basis(1, 3).dim == 4
        assert monomial_basis(2, 3).dim == 10
        assert monomial_basis(5, 3).dim == 56

    def test_dimension_large(self):
        assert monomial_basis(102, 3).dim == 187460

    def test_ordering_binary_cubics(self):
        # pinned order: x0^3, x0^2 x1, x0 x1^2, x1^3
        basis = monomial_basis(1, 3)
        assert [basis.exponents_of(i) for i in range(4)] == [
            (3, 0), (2, 1), (1, 2), (0, 3),
        ]

    def test_degree_one_order_matches_variables(self):
        for n in (1, 2, 5, 9):
            basis = monomial_basis(n, 1)
            for i in range(n + 1):
                exps = [0] * (n + 1)
                exps[i] = 1
                assert basis.index_of(exps) == i

    def test_bijection(self):
        basis = monomial_basis(4, 3)
        for idx in range(basis.dim):
            assert basis.index_of(basis.exponents_of(idx)) == idx

    def test_grevlex_definition(self):
        # order must equal: descending graded reverse lexicographic, i.e.
        # ascending lexicographic on reversed exponent vectors
        for n, d in [(1, 3), (2, 2), (3, 3), (4, 2), (5, 3), (2, 6)]:
            basis = monomial_basis(n, d)
            seq = [tuple(reversed(basis.exponents_of(i))) for i in range(basis.dim)]
            assert seq == sorted(seq)

    def test_index_of_validates(self):
        basis = monomial_basis(2, 3)
        with pytest.raises(ValueError):
            basis.index_of((1, 1))  # wrong length
        with pytest.raises(ValueError):
            basis.index_of((1, 1, 2))  # wrong degree
        with pytest.raises(ValueError):
            basis.index_of((4, -1, 0))


class TestExpandProduct:
    def test_cube_of_variable(self):
        x0 = LinearForm([1, 0], MOD)
        p = expand_product([x0, x0, x0])
        expected = np.zeros(4, dtype=np.int64)
        expected[p.basis.index_of((3, 0))] = 1
        assert np.array_equal(p.coeffs, expected)

    def test_distinct_variables(self):
        n = 2
        forms = [LinearForm(np.eye(3, dtype=np.int64)[i], MOD) for i in range(3)]
        p = expand_product(forms)
        idx = p.basis.index_of((1, 1, 1))
        assert p.coeffs[idx] == 1
        assert p.coeffs.sum() == 1

    def test_binomial_cube(self):
        # (x0 + x1)^3 -> 1, 3, 3, 1 against the binomial oracle
        f = LinearForm([1, 1], MOD)
        p = expand_product([f, f, f])
        basis = p.basis
        for k in range(4):
            assert p.coeffs[basis.index_of((3 - k, k))] == math.comb(3, k)

    def test_symmetry(self):
        rng = SeededRng(11)
        forms = [random_form(3, rng) for _ in range(3)]
        reference = expand_product(forms)
        for perm in permutations(forms):
            assert expand_product(perm) == reference

    def test_multilinearity(self):
        rng = SeededRng(12)
        a, b, f2, f3 = (random_form(3, rng) for _ in range(4))
        apb = LinearForm((a.coords + b.coords) % MOD.value, MOD)
        left = expand_product([apb, f2, f3])
        right_a = expand_product([a, f2, f3])
        right_b = expand_product([b, f2, f3])
        assert left == right_a + right_b

    def test_general_degree(self):
        x0 = LinearForm([1, 0], MOD)
        x1 = LinearForm([0, 1], MOD)
        p = expand_product([x0, x1, x0, x1, x0])
        assert p.basis.d == 5
        assert p.coeffs[p.basis.index_of((3, 2))] == 1


class TestContract:
    def test_zero(self):
        basis = monomial_basis(2, 3)
        p = Poly.monomial(basis, (3, 0, 0), MOD)
        assert contract(p, Poly.zero(basis, MOD)).value == 0

    def test_matching_monomials(self):
        basis = monomial_basis(2, 3)
        p = Poly.monomial(basis, (3, 0, 0), MOD)
        assert contract(p, p).value == 1

    def test_disjoint_monomials(self):
        basis = monomial_basis(1, 3)
        p = Poly.monomial(basis, (2, 1), MOD)
        q = Poly.monomial(basis, (1, 2), MOD)
        assert contract(p, q).value == 0

    def test_orthonormal_basis(self):
        basis = monomial_basis(2, 2)
        for i, j in product(range(basis.dim), repeat=2):
            p = Poly.monomial(basis, basis.exponents_of(i), MOD)
            q = Poly.monomial(basis, basis.exponents_of(j), MOD)
            assert contract(p, q).value == (1 if i == j else 0)

    def test_symmetric_bilinear(self):
        rng = SeededRng(13)
        basis = monomial_basis(3, 3)
        p = Poly(basis, rng.vector(MOD, basis.dim), MOD)
        q = Poly(basis, rng.vector(MOD, basis.dim), MOD)
        r = Poly(basis, rng.vector(MOD, basis.dim), MOD)
        assert contract(p, q).value == contract(q, p).value
        assert contract(p + r, q).value == (contract(p, q) + contract(r, q)).value

    def test_basis_mismatch(self):
        p = Poly.zero(monomial_basis(2, 3), MOD)
        q = Poly.zero(monomial_basis(2, 2), MOD)
        with pytest.raises(ValueError):
            contract(p, q)


class TestModulusRange:
    """The int64 kernels are exact for moduli below 2^31 only; a larger
    modulus is refused, not wrapped around."""

    def test_refuses_2_61_minus_1(self):
        big = PrimeModulus(2**61 - 1)
        with pytest.raises(ValueError, match="below 2\\^31"):
            LinearForm([1, 2], big)
        with pytest.raises(ValueError, match="below 2\\^31"):
            Poly.zero(monomial_basis(1, 3), big)

    def test_exact_at_the_largest_modulus(self):
        m = P31.value
        coords = ([m - 1, m - 2, m - 3], [m - 1, m - 1, 1], [m - 2, 5, m - 1])
        p = expand_product([LinearForm(c, P31) for c in coords])
        # the product expanded over Python integers
        expected = [0] * p.basis.dim
        for i, j, k in product(range(3), repeat=3):
            t = p.basis.index_of_variables((i, j, k))
            expected[t] += coords[0][i] * coords[1][j] * coords[2][k]
        assert p.coeffs.tolist() == [c % m for c in expected]
        assert contract(p, p).value == sum(c * c for c in expected) % m


class TestMultiplyByVariable:
    def test_shift_cube(self):
        basis = monomial_basis(2, 2)
        p = Poly.monomial(basis, (2, 0, 0), MOD)
        q = multiply_by_variable(p, 0)
        assert q.coeffs[q.basis.index_of((3, 0, 0))] == 1
        assert q.coeffs.sum() == 1

    def test_shift_mixed(self):
        basis = monomial_basis(2, 2)
        p = Poly.monomial(basis, (1, 1, 0), MOD)
        q = multiply_by_variable(p, 2)
        assert q.coeffs[q.basis.index_of((1, 1, 1))] == 1

    def test_linearity(self):
        rng = SeededRng(14)
        basis = monomial_basis(4, 2)
        for _ in range(20):
            p = Poly(basis, rng.vector(MOD, basis.dim), MOD)
            q = Poly(basis, rng.vector(MOD, basis.dim), MOD)
            i = rng.below(5)
            assert multiply_by_variable(p + q, i) == (
                multiply_by_variable(p, i) + multiply_by_variable(q, i)
            )

    def test_commutes(self):
        basis = monomial_basis(3, 1)
        p = Poly.monomial(basis, (0, 1, 0, 0), MOD)
        a = multiply_by_variable(multiply_by_variable(p, 2), 3)
        b = multiply_by_variable(multiply_by_variable(p, 3), 2)
        assert a == b

    def test_against_form_multiplication(self):
        rng = SeededRng(15)
        basis = monomial_basis(3, 2)
        p = Poly(basis, rng.vector(MOD, basis.dim), MOD)
        form = random_form(3, rng)
        total = Poly.zero(monomial_basis(3, 3), MOD)
        for i in range(4):
            total = total + multiply_by_variable(p, i).scale(int(form.coords[i]))
        assert total == multiply_by_form(p, form)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=4))
def test_expand_symmetry_property(data, n):
    coords = data.draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=20200), min_size=n + 1, max_size=n + 1),
            min_size=3,
            max_size=3,
        )
    )
    forms = [LinearForm(c, MOD) for c in coords]
    if any(f.is_zero() for f in forms):
        return
    base = expand_product(forms)
    assert expand_product(forms[::-1]) == base
    assert expand_product([forms[1], forms[0], forms[2]]) == base
