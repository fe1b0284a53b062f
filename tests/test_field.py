import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowcert import field
from chowcert.field import (
    FieldElement,
    ModulusMismatchError,
    PrimeModulus,
    SeededRng,
    derive_seed,
    is_prime,
)

PRIMES = [7, 8191, 20201, 202001]


def egcd(a, b):
    """Extended Euclid, the independent oracle for inverses."""
    if b == 0:
        return a, 1, 0
    g, x, y = egcd(b, a % b)
    return g, y, x - (a // b) * y


def inverse_oracle(a, m):
    g, x, _ = egcd(a % m, m)
    assert g == 1
    return x % m


class TestPrimality:
    def test_small_values(self):
        assert [n for n in range(2, 40) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
        ]

    def test_known_primes(self):
        for p in PRIMES + [2**31 - 1]:
            assert is_prime(p)

    def test_known_composites(self):
        for n in [1, 0, -7, 20202, 202001 * 3, 8191 * 8191, 2**32 + 1]:
            assert not is_prime(n)

    def test_carmichael_numbers_rejected(self):
        for n in [561, 1105, 1729, 41041, 825265]:
            assert not is_prime(n)

    def test_refuses_from_the_first_pseudoprime_to_every_witness(
        self, monkeypatch
    ):
        # 1287836182261 x 2575672364521 passes all 12 witnesses
        pseudoprime = 3317044064679887385961981
        assert is_prime(2**61 - 1)
        # refused before any modular power, which for 4000 digits would
        # take seconds each
        monkeypatch.setattr(field, "pow", None, raising=False)
        for n in (pseudoprime, 10**4000 + 1):
            with pytest.raises(ValueError, match="decided only below"):
                is_prime(n)
            with pytest.raises(ValueError, match="decided only below"):
                PrimeModulus(n)


class TestPrimeModulus:
    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeModulus(20202)

    def test_rejects_two(self):
        with pytest.raises(ValueError):
            PrimeModulus(2)

    def test_element_factory(self):
        mod = PrimeModulus(7)
        assert mod.element(10).value == 3
        assert mod.zero().value == 0
        assert mod.one().value == 1


class TestArithmetic:
    def test_add_wraparound(self):
        mod = PrimeModulus(7)
        assert (mod.element(3) + mod.element(4)).value == 0

    def test_add_identity(self):
        mod = PrimeModulus(20201)
        for x in [0, 1, 12345, 20200]:
            assert (mod.zero() + mod.element(x)).value == x

    def test_add_max_plus_one(self):
        mod = PrimeModulus(20201)
        assert (mod.element(20200) + mod.element(1)).value == 0

    def test_mul_identity(self):
        mod = PrimeModulus(8191)
        for x in [0, 1, 4096, 8190]:
            assert (mod.one() * mod.element(x)).value == x

    def test_minus_one_squared(self):
        for p in PRIMES:
            mod = PrimeModulus(p)
            assert (mod.element(p - 1) * mod.element(p - 1)).value == 1

    def test_double_inverse_of_two(self):
        mod = PrimeModulus(20201)
        assert inverse_oracle(2, 20201) == 10101
        assert (mod.element(2) * mod.element(10101)).value == 1
        assert mod.element(2).inv().value == 10101

    def test_inv_one(self):
        for p in PRIMES:
            assert PrimeModulus(p).one().inv().value == 1

    def test_inv_minus_one(self):
        for p in PRIMES:
            mod = PrimeModulus(p)
            assert mod.element(p - 1).inv().value == p - 1

    def test_inv_matches_euclid_oracle(self):
        rng = np.random.default_rng(0)
        for p in PRIMES:
            mod = PrimeModulus(p)
            for a in rng.integers(1, p, 25):
                assert mod.element(int(a)).inv().value == inverse_oracle(int(a), p)

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            PrimeModulus(7).zero().inv()

    def test_division(self):
        mod = PrimeModulus(7)
        assert (mod.element(6) / mod.element(2)).value == 3

    def test_modulus_mismatch_rejected(self):
        a = PrimeModulus(7).element(3)
        b = PrimeModulus(11).element(3)
        with pytest.raises(ModulusMismatchError):
            a + b
        with pytest.raises(ModulusMismatchError):
            a * b

    def test_int_coercion(self):
        mod = PrimeModulus(7)
        assert (mod.element(3) + 11).value == 0
        assert (2 * mod.element(5)).value == 3
        assert (1 - mod.element(3)).value == 5

    def test_big_modulus_products(self):
        # products near 2^62 must not lose precision
        p = 2**31 - 1
        mod = PrimeModulus(p)
        a = mod.element(p - 2)
        b = mod.element(p - 3)
        assert (a * b).value == ((p - 2) * (p - 3)) % p

    def test_pow(self):
        mod = PrimeModulus(20201)
        x = mod.element(1234)
        assert (x**3).value == pow(1234, 3, 20201)
        assert (x**-1).value == x.inv().value


@settings(max_examples=200)
@given(
    p=st.sampled_from(PRIMES),
    a=st.integers(min_value=0, max_value=2**40),
    b=st.integers(min_value=0, max_value=2**40),
    c=st.integers(min_value=0, max_value=2**40),
)
def test_field_axioms(p, a, b, c):
    mod = PrimeModulus(p)
    x, y, z = mod.element(a), mod.element(b), mod.element(c)
    assert (x + y).value == (y + x).value
    assert (x * y).value == (y * x).value
    assert ((x + y) + z).value == (x + (y + z)).value
    assert ((x * y) * z).value == (x * (y * z)).value
    assert (x * (y + z)).value == (x * y + x * z).value
    if x.value != 0:
        assert (x * x.inv()).value == 1


@settings(max_examples=200)
@given(
    p=st.sampled_from(PRIMES),
    a=st.integers(min_value=-(2**40), max_value=2**40),
    b=st.integers(min_value=-(2**40), max_value=2**40),
)
def test_canonical_closure(p, a, b):
    mod = PrimeModulus(p)
    x, y = mod.element(a), mod.element(b)
    for out in (x + y, x - y, x * y, -x):
        assert 0 <= out.value < p


class TestSeededRng:
    def test_determinism(self):
        mod = PrimeModulus(20201)
        a = SeededRng(123).vector(mod, 50)
        b = SeededRng(123).vector(mod, 50)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, SeededRng(124).vector(mod, 50))

    def test_range(self):
        mod = PrimeModulus(7)
        draws = SeededRng(99).vector(mod, 2000)
        assert draws.min() >= 0
        assert draws.max() < 7

    def test_uniformity_chi_square(self):
        # 10^6 draws mod 7; critical value for df=6 at alpha=0.001
        mod = PrimeModulus(7)
        rng = SeededRng(1591688259)
        counts = np.zeros(7, dtype=np.int64)
        for _ in range(1_000_000):
            counts[rng.below(mod.value)] += 1
        expected = 1_000_000 / 7
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 22.458, f"chi-square {chi2} rejects uniformity"

    def test_seed_bounds(self):
        SeededRng(0)
        SeededRng(2**64 - 1)
        with pytest.raises(ValueError):
            SeededRng(-1)
        with pytest.raises(ValueError):
            SeededRng(2**64)

    def test_element(self):
        mod = PrimeModulus(8191)
        e = SeededRng(5).element(mod)
        assert isinstance(e, FieldElement)
        assert 0 <= e.value < 8191


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 1) == derive_seed(42, 1)

    def test_distinct_tags(self):
        seeds = {derive_seed(42, t) for t in range(100)}
        assert len(seeds) == 100

    def test_fits_64_bits(self):
        for t in range(10):
            assert 0 <= derive_seed(2**64 - 1, t) < 2**64
