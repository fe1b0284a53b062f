import functools
import gc
import math
import os
import tracemalloc
from collections import Counter
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chowcert.geometry as geometry
import chowcert.matrix as matrix
from chowcert.field import PrimeModulus, SeededRng, is_prime
from chowcert.geometry import TerraciniMatrix, sample_point, terracini_matrix
from chowcert.matrix import (
    _F64_EXACT,
    _LIMB,
    _OUTER,
    _SUB,
    DEFAULT_BLOCK,
    FfMatrix,
    ShiftedRows,
    _matmul_naive,
    _mod_matmul,
    _rref_naive,
    _carry,
    _dot_rows,
    _factor_panel,
    _reduce_i64,
    _reduced_echelon,
    _ReduceF64,
    _regime,
    _run_stages,
    _shifted_rows,
    null_vector,
)
from chowcert.pipeline import certify, default_r
from chowcert.poly import _shift_map, monomial_basis

from oracles import reduced_form, shifted_dense

MOD = PrimeModulus(20201)
Z7 = PrimeModulus(7)
# the largest prime the matrix kernels accept
P31 = 2**31 - 1


def random_matrix(rows, cols, modulus, rng):
    return FfMatrix(rng.integers(0, modulus.value, (rows, cols)), modulus)


class TestConstruction:
    def test_canonicalizes(self):
        mat = FfMatrix([[9, -1], [7, 14]], Z7)
        assert mat.data.tolist() == [[2, 6], [0, 0]]

    def test_immutable(self):
        mat = FfMatrix([[1, 2]], Z7)
        with pytest.raises(ValueError):
            mat.data[0, 0] = 5

    def test_rejects_huge_modulus(self):
        with pytest.raises(ValueError):
            FfMatrix([[1]], PrimeModulus(2**31 + 11))

    def test_helpers(self):
        assert FfMatrix.identity(3, Z7).data.tolist() == np.eye(3, dtype=int).tolist()
        assert FfMatrix.ones(2, 2, Z7).data.tolist() == [[1, 1], [1, 1]]
        assert FfMatrix.zeros(2, 3, Z7).shape == (2, 3)


class TestRref:
    def test_identity(self):
        res = FfMatrix.identity(5, MOD).rref()
        assert res.rank == 5
        assert res.pivot_cols == (0, 1, 2, 3, 4)
        assert res.free_cols == ()
        assert reduced_form(res) == FfMatrix.identity(5, MOD)

    def test_hand_worked_example(self):
        # rows are multiples of each other over Z_7
        mat = FfMatrix([[1, 2, 3], [2, 4, 6]], Z7)
        res = mat.rref()
        assert res.rank == 1
        assert res.pivot_cols == (0,)
        assert reduced_form(res).data.tolist() == [[1, 2, 3], [0, 0, 0]]
        # X in [I | X]: the pivot rows restricted to the free columns
        x = reduced_form(res).data[: res.rank][:, list(res.free_cols)]
        assert x.tolist() == [[2, 3]]
        assert res.pivot_cols + res.free_cols == (0, 1, 2)

    def test_zero_matrix(self):
        res = FfMatrix.zeros(4, 6, MOD).rref()
        assert res.rank == 0
        assert res.pivot_cols == ()
        assert reduced_form(res).is_zero()

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mat = random_matrix(
                int(rng.integers(1, 40)), int(rng.integers(1, 50)), MOD, rng
            )
            res = mat.rref()
            reduced = reduced_form(res)
            again = reduced.rref()
            assert reduced_form(again) == reduced
            assert again.pivot_cols == res.pivot_cols

    def test_rank_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            rows, cols = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            mat = random_matrix(rows, cols, Z7, rng)
            assert mat.rank() <= min(rows, cols)

    def test_row_space_preserved(self):
        # every original row must be a combination of echelon rows: since
        # the echelon restricted to pivot columns is the identity, the
        # combination is readable off the pivot columns
        rng = np.random.default_rng(5)
        mat = random_matrix(12, 20, Z7, rng)
        res = mat.rref()
        coeffs = mat.data[:, list(res.pivot_cols)]
        rebuilt = coeffs @ reduced_form(res).data[: res.rank] % 7
        assert np.array_equal(rebuilt, mat.data)

    def test_blocked_equals_naive(self):
        rng = np.random.default_rng(6)
        mods = [Z7, PrimeModulus(8191), MOD, PrimeModulus(202001), PrimeModulus(2**31 - 1)]
        for trial in range(30):
            modulus = mods[trial % len(mods)]
            # up to three panels
            rows, cols = int(rng.integers(1, 150)), int(rng.integers(1, 180))
            a = rng.integers(0, modulus.value, (rows, cols))
            if trial % 3 == 0 and rows > 2:
                a[rows // 2] = (3 * a[0] + 5 * a[1]) % modulus.value
            mat = FfMatrix(a, modulus)
            naive = mat.rref(naive=True)
            fast = mat.rref()
            assert reduced_form(fast) == reduced_form(naive)
            assert fast.pivot_cols == naive.pivot_cols

    def test_rank_deficient_pivots_skip(self):
        mat = FfMatrix([[0, 1, 2], [0, 2, 4], [0, 0, 5]], Z7)
        res = mat.rref()
        assert res.pivot_cols == (1, 2)
        assert res.free_cols == (0,)


class TestNullVector:
    def test_definition_unrolled(self):
        # [I | X] with identity permutation: normal = (-X f0, f0)
        x = [[3, 1], [2, 5], [0, 4]]
        mat = FfMatrix(np.hstack([np.eye(3, dtype=np.int64), np.array(x)]), Z7)
        res = mat.rref()
        normal = null_vector(res, [1, 0])
        assert normal.tolist() == [(-3) % 7, (-2) % 7, 0, 1, 0]

    def test_annihilation_random(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            rows = int(rng.integers(1, 40))
            cols = int(rng.integers(rows + 1, 60))
            mat = random_matrix(rows, cols, MOD, rng)
            res = mat.rref()
            c = cols - res.rank
            f0 = rng.integers(0, MOD.value, c)
            normal = null_vector(res, f0)
            assert not (mat.data @ normal % MOD.value).any()

    def test_full_rank_rejected(self):
        res = FfMatrix.identity(3, Z7).rref()
        with pytest.raises(ValueError, match="full column rank"):
            null_vector(res, [])

    def test_length_checked(self):
        res = FfMatrix([[1, 2, 3]], Z7).rref()
        with pytest.raises(ValueError):
            null_vector(res, [1])

    def test_back_substitution_over_several_blocks(self):
        rng = np.random.default_rng(17)
        rows = 3 * DEFAULT_BLOCK + 5
        data = rng.integers(0, MOD.value, (rows, rows + 40))
        data = np.vstack([data, (2 * data[:10] + data[10:20]) % MOD.value])
        mat = FfMatrix(data, MOD)
        fast, naive = mat.rref(), mat.rref(naive=True)
        assert fast.rank == rows
        f0 = rng.integers(0, MOD.value, mat.cols - fast.rank)
        normal = null_vector(fast, f0)
        assert np.array_equal(normal, null_vector(naive, f0))
        assert not (data.astype(object) @ normal.astype(object) % MOD.value).any()


class TestMatmul:
    def test_times_identity(self):
        rng = np.random.default_rng(9)
        a = random_matrix(7, 7, Z7, rng)
        assert a @ FfMatrix.identity(7, Z7) == a

    def test_ones_square(self):
        for d in (2, 3, 5):
            ones = FfMatrix.ones(d, d, MOD)
            assert ones.matmul(ones) == ones.scale(d)

    def test_fast_equals_naive(self):
        rng = np.random.default_rng(10)
        mods = [Z7, MOD, PrimeModulus(202001), PrimeModulus(2**31 - 1)]
        for trial in range(12):
            modulus = mods[trial % len(mods)]
            n = int(rng.integers(1, 64))
            k = int(rng.integers(1, 64))
            p = int(rng.integers(1, 64))
            a = random_matrix(n, k, modulus, rng)
            b = random_matrix(k, p, modulus, rng)
            assert a.matmul(b) == a.matmul(b, naive=True)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            FfMatrix.zeros(2, 3, Z7) @ FfMatrix.zeros(2, 3, Z7)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            FfMatrix.zeros(2, 2, Z7) @ FfMatrix.zeros(2, 2, MOD)

    def test_associativity(self):
        rng = np.random.default_rng(11)
        a = random_matrix(5, 6, Z7, rng)
        b = random_matrix(6, 4, Z7, rng)
        c = random_matrix(4, 3, Z7, rng)
        assert (a @ b) @ c == a @ (b @ c)


def top_heavy(rows, cols, m, rng):
    """Entries at the top of [0, m), so sums of products come near their
    bound: mostly m - 1; m - 2, which makes odd sums (an even sum above
    2^53 can still be exact); the largest value below m whose low 16-bit
    limb is all ones; a few random."""
    a = np.full((rows, cols), m - 1, dtype=np.int64)
    pick = rng.random((rows, cols))
    low_ones = (m - 1) | (_LIMB - 1)
    a[pick < 0.3] = m - 2
    a[(0.3 <= pick) & (pick < 0.45)] = (
        low_ones if low_ones < m else low_ones - _LIMB
    )
    a[pick > 0.9] = rng.integers(0, m, int((pick > 0.9).sum()))
    return a


def direct_edge(inner):
    """Largest m whose products over `inner` terms take one direct dgemm:
    inner (m-1)^2 < 2^53."""
    return 1 + math.isqrt(_F64_EXACT // inner)


def split_chunk(m):
    """Inner indices per dgemm of the split path."""
    return _F64_EXACT // ((_LIMB - 1) * (m - 1))


def assert_mod_matmul_exact(rows, inner, cols, m, rng):
    """All-(m-1) and top-heavy operands; both operand orders, so either
    side is the one split into limbs."""
    full_a = np.full((rows, inner), m - 1, dtype=np.int64)
    full_b = np.full((inner, cols), m - 1, dtype=np.int64)
    # every entry is inner (m-1)^2, which is inner mod m
    assert (_mod_matmul(full_a, full_b, m) == inner % m).all()
    assert (_mod_matmul(full_b.T, full_a.T, m) == inner % m).all()
    for a, b in (
        (top_heavy(rows, inner, m, rng), top_heavy(inner, cols, m, rng)),
        (top_heavy(cols, inner, m, rng), top_heavy(inner, rows, m, rng)),
    ):
        assert np.array_equal(_mod_matmul(a, b, m), _matmul_naive(a, b, m))


class TestModMatmulBounds:
    """`_mod_matmul` at the magnitudes its exactness bounds guard."""

    @pytest.mark.parametrize("inner", (1, 3, 10, 64, 300))
    def test_primes_around_the_direct_split_switch(self, inner):
        rng = np.random.default_rng(inner)
        under, over = primes_around(direct_edge(inner))
        assert inner * (under - 1) ** 2 <= _F64_EXACT < inner * (over - 1) ** 2
        for m in (under, over):
            assert_mod_matmul_exact(3, inner, 40, m, rng)

    @pytest.mark.parametrize("m", (200000033, P31))
    def test_inner_spanning_several_split_chunks(self, m):
        rng = np.random.default_rng(m)
        chunk = split_chunk(m)
        for inner in (chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
            assert_mod_matmul_exact(3, inner, 5, m, rng)

    def test_largest_modulus(self):
        rng = np.random.default_rng(31)
        for inner in (1, 2, 8, 64, 200):
            assert_mod_matmul_exact(17, inner, 23, P31, rng)


def on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (OSError, ValueError):
        return False


def resident_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not on_glibc(), reason="malloc thresholds are fixed on glibc only")
class TestLargeArraysReturned:
    """A freed array of 4 MB or more leaves the process at once, so peak
    memory does not depend on what was freed before."""

    def test_repeated_large_array(self):
        words = (16 << 20) // 8
        # glibc's dynamic threshold would move the later ones to the heap
        for _ in range(3):
            np.ones(words)
        base = resident_bytes()
        x = np.ones(words)
        assert resident_bytes() - base >= 0.9 * x.nbytes
        del x
        assert resident_bytes() - base < 0.25 * words * 8


class TestKronecker:
    def test_identities(self):
        i2 = FfMatrix.identity(2, Z7)
        i3 = FfMatrix.identity(3, Z7)
        assert i2.kron(i3) == FfMatrix.identity(6, Z7)

    def test_identity_with_ones(self):
        out = FfMatrix.identity(2, Z7).kron(FfMatrix.ones(3, 3, Z7))
        expected = np.zeros((6, 6), dtype=np.int64)
        expected[:3, :3] = 1
        expected[3:, 3:] = 1
        assert out.data.tolist() == expected.tolist()

    def test_index_formula(self):
        rng = np.random.default_rng(12)
        a = random_matrix(2, 3, Z7, rng)
        b = random_matrix(3, 2, Z7, rng)
        out = a.kron(b)
        for i in range(2):
            for j in range(3):
                for k in range(3):
                    for l in range(2):
                        assert out[i * 3 + k, j * 2 + l] == a[i, j] * b[k, l] % 7

    def test_mixed_product_property(self):
        rng = np.random.default_rng(13)
        a = random_matrix(2, 2, Z7, rng)
        b = random_matrix(3, 3, Z7, rng)
        c = random_matrix(2, 2, Z7, rng)
        d = random_matrix(3, 3, Z7, rng)
        assert a.kron(b) @ c.kron(d) == (a @ c).kron(b @ d)


class TestRrefResultInvariants:
    def test_counts_consistent(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            mat = random_matrix(
                int(rng.integers(1, 25)), int(rng.integers(1, 25)), Z7, rng
            )
            res = mat.rref()
            assert res.rank == len(res.pivot_cols)
            nonzero_rows = int((reduced_form(res).data.any(axis=1)).sum())
            assert res.rank == nonzero_rows
            assert list(res.pivot_cols) == sorted(res.pivot_cols)
            assert sorted(res.pivot_cols + res.free_cols) == list(range(mat.cols))

    def test_pivot_block_is_identity(self):
        rng = np.random.default_rng(16)
        mat = random_matrix(8, 14, Z7, rng)
        res = mat.rref()
        pivot_block = reduced_form(res).data[: res.rank][:, list(res.pivot_cols)]
        assert np.array_equal(pivot_block, np.eye(res.rank, dtype=np.int64))


# Labels of the moduli under test, by the kernels that run there
# (`_regime`): "deep", float64, whose budget holds the most products a
# value of the elimination collects before it is read (`whole_count`),
# so none is reduced early; "eager", int64.
REGIMES = ("deep", "eager")
# the largest prime whose budget (264) once sufficed for float64 at every
# shape, and the next prime; both now run int64 at every nonempty shape,
# and stay under test.  Where a case of F64_LAST is labelled "settled",
# the label is the schedule it ran when its id was given, kept so that
# the case can be followed by its id; it runs int64.
F64_LAST, EAGER_FIRST = 11682149, 11682161
# int64 range that bounded two regimes the eager one has replaced; the
# moduli around those limits stay under test
I64_MAX = 2**63 - 1


def largest_fitting(fits):
    """Largest m with fits(m), for a test that holds up to some m >= 1
    and fails above it."""
    lo, hi = 1, 2**32
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def primes_around(edge):
    """The largest prime up to edge and the smallest prime above it."""
    under = next(p for p in range(edge, 2, -1) if is_prime(p))
    over = next(p for p in range(edge + 1, 2 * edge) if is_prime(p))
    return under, over


def whole_count(shape):
    """The most products a value of a matrix of this shape collects if
    it is never reduced before it is read: one per pivot, and one solve
    product of _OUTER + _SUB."""
    return min(shape) + _OUTER + _SUB


def fits_f64(count, m):
    """`_regime`'s bound: `count` products of balanced residues, each at
    most (m // 2 + 2)^2, on a value of at most m + 1, stay within the
    range of `_ReduceF64`, 2^53 - m."""
    b = m // 2 + 2
    return count * b * b + m + 1 <= 2**53 - m


def f64_budget(m):
    """`_regime`'s float64 budget, at any modulus."""
    b = m // 2 + 2
    return (2**53 - 1 - 2 * m) // (b * b)


def budget_edge(count):
    """The largest prime whose budget holds `count` products, and the
    next prime."""
    return primes_around(largest_fitting(lambda m: f64_budget(m) >= count))


def boundary_moduli(shape):
    """(prime, label) just under and just over the shape's `whole_count`:
    float64 at the prime under it, int64 at the prime over it."""
    under, over = budget_edge(whole_count(shape))
    return [(under, "deep"), (over, "eager")]


def old_int64_moduli(shape):
    """Primes just under and just over two former int64 limits, of a
    deep and a per-panel regime; all of them now run the eager regime."""
    out = []
    for factor in (2 * min(shape) + _OUTER + 4, DEFAULT_BLOCK + 2):
        out += primes_around(largest_fitting(lambda m: factor * m * m < I64_MAX))
    return out


def structured_matrix(rows, cols, m, rng):
    """Random entries with zero columns and rows that repeat others.

    The second panel is zero: a panel that gives no pivot.
    """
    a = rng.integers(0, m, (rows, cols))
    a[:, [0, cols // 2, cols - 3]] = 0
    a[:, DEFAULT_BLOCK : 2 * DEFAULT_BLOCK] = 0
    a[rows // 3] = (2 * a[0] + 3 * a[1]) % m
    a[rows - 1] = (a[1] + 5 * a[2]) % m
    return a


def extreme_matrix(rows, cols, m, rng):
    """`top_heavy` entries with dependent rows and a dependent column
    planted, so there is a kernel vector at any shape."""
    a = top_heavy(rows, cols, m, rng)
    a[rows // 3] = (2 * a[0] + 3 * a[1]) % m
    a[rows // 2] = a[2]
    a[:, cols // 3] = (a[:, 0] + (m - 1) * a[:, 1]) % m
    return a


def half_modulus_matrix(rows, cols, m, rng):
    """Entries (m - 1) / 2 and (m + 1) / 2 for odd m: they balance to
    +-(m - 1) / 2, the largest residues, where `extreme_matrix`'s
    entries near m - 1 balance to the smallest.  So the first products
    are as large as products of two residues get."""
    return (m - 1) // 2 + rng.integers(0, 2, (rows, cols))


def low_rank_matrix(rows, cols, m, rng, inner):
    """A product of random rows x inner and inner x cols factors mod m
    (`_mod_matmul` is checked against the naive product above)."""
    left = rng.integers(0, m, (rows, inner))
    right = rng.integers(0, m, (inner, cols))
    return _mod_matmul(left, right, m)


def assert_row_echelon(res):
    """`upper` is reduced, zero left of each pivot and 1 at it."""
    upper = res.upper
    m = res.modulus.value
    assert upper.shape == (res.rank, res.cols)
    assert upper.min(initial=0) >= 0 and upper.max(initial=0) < m
    for k, c in enumerate(res.pivot_cols):
        assert not upper[k, :c].any()
        assert upper[k, c] == 1


SMALL_PRIMES = [3, 5, 7]


# Widths of the last panel: narrower than a sub-panel, two sub-panels,
# and a whole panel.
LAST_PANEL = (_SUB // 2, 2 * _SUB, DEFAULT_BLOCK)
# ((rows, cols), last): three panels, the last `last` columns wide, with
# more rows than columns, then more columns than rows
SHAPE_CASES = [
    ((2 * DEFAULT_BLOCK + last + 8, 2 * DEFAULT_BLOCK + last), last)
    for last in LAST_PANEL
] + [((100, 2 * DEFAULT_BLOCK + last), last) for last in LAST_PANEL]
# Three outer panels of the deep regime, the last narrower than a panel.
# Few rows keep the naive oracle cheap; the first outer panel still
# holds more than `DEFAULT_BLOCK` pivots.
WIDE_LAST = 40
WIDE_CASE = ((100, 2 * _OUTER + WIDE_LAST), WIDE_LAST)


class TestEliminationRegimes:
    @pytest.mark.parametrize("shape,last", SHAPE_CASES + [WIDE_CASE])
    def test_boundary_moduli_reach_every_regime(self, shape, last, monkeypatch):
        """An elimination of the shape counts `whole_count` products and
        runs float64 exactly up to the prime whose budget holds them;
        past it, at the former float64 limit and at the old int64
        limits, int64."""
        counts = []

        def recorded_regime(m, terms):
            counts.append(terms)
            return regime(m, terms)

        regime = _regime
        monkeypatch.setattr(matrix, "_regime", recorded_regime)
        FfMatrix.zeros(*shape, MOD).rref()
        assert counts == [whole_count(shape)]
        cases = boundary_moduli(shape) + [(F64_LAST, "eager"), (EAGER_FIRST, "eager")]
        cases += [(m, "eager") for m in old_int64_moduli(shape)]
        for m, label in cases:
            dtype = _regime(m, whole_count(shape))[0]
            assert (dtype is np.int64) == (label == "eager"), m
        assert {name for _, name in cases} == set(REGIMES)

    @pytest.mark.parametrize("shape,last", SHAPE_CASES + [WIDE_CASE])
    def test_blocked_matches_naive_at_every_limit(self, shape, last):
        rows, cols = shape
        rng = np.random.default_rng(rows * cols)
        moduli = [m for m, _ in boundary_moduli(shape)] + [F64_LAST, EAGER_FIRST]
        moduli += old_int64_moduli(shape) + [P31]
        # the smallest primes, where exact zeros and negative balanced
        # residues are common
        moduli += SMALL_PRIMES
        for m in moduli:
            modulus = PrimeModulus(m)
            for data in (
                structured_matrix(rows, cols, m, rng),
                low_rank_matrix(rows, cols, m, rng, min(shape) // 2),
                extreme_matrix(rows, cols, m, rng),
            ):
                mat = FfMatrix(data, modulus)
                naive = mat.rref(naive=True)
                fast = mat.rref()
                assert fast.pivot_cols == naive.pivot_cols
                assert_row_echelon(fast)
                # the reduced form of the blocked U against the naive one
                assert reduced_form(fast) == reduced_form(naive)
                f0 = rng.integers(0, m, cols - naive.rank)
                normal = null_vector(fast, f0)
                assert np.array_equal(normal, null_vector(naive, f0))
                pivots = list(naive.pivot_cols)
                x = reduced_form(naive).data[: naive.rank][:, list(naive.free_cols)]
                minus_xf0 = -(x.astype(object) @ f0.astype(object)) % m
                assert normal[pivots].tolist() == minus_xf0.tolist()


def reduction_inputs(m, bound):
    """Integers up to `bound` in magnitude where the balanced reduction
    is closest to failing: +-bound, the ties q m +- m/2, and values
    around a few multiples of m, the largest near the bound.  Built from
    a handful of multiples, never from a range of length m."""
    top = bound // m
    out = {bound, bound - 1}
    for q in {0, 1, 2, 7, max(top - 1, 0), top}:
        for d in (-2, -1, 0, 1, 2, -(m // 2), m // 2, -(m // 2) - 1, m // 2 + 1):
            out.add(q * m + d)
    out = [x for x in out if abs(x) <= bound]
    return sorted(out + [-x for x in out])


class TestBalancedReduction:
    """`_ReduceF64` against exact integer arithmetic, at every magnitude
    the float64 regimes admit."""

    @pytest.mark.parametrize("shape,last", SHAPE_CASES)
    def test_residues_congruent_and_below_m(self, shape, last):
        moduli = SMALL_PRIMES + [20201, F64_LAST, EAGER_FIRST]
        moduli += [m for m, _ in boundary_moduli(shape)]
        for m in moduli:
            # the most a value of the shape reaches unreduced; for moduli
            # whose budget is shorter, the largest magnitude the
            # reduction is exact for
            b = m // 2 + 2
            bound = min(whole_count(shape) * b * b + m + 1, _F64_EXACT + 1 - m)
            xs = reduction_inputs(m, bound)
            r = np.array(xs, dtype=np.float64)
            _ReduceF64(m)(r, m)
            assert np.array_equal(r, np.rint(r))
            for x, got in zip(xs, r.tolist()):
                assert int(got) % m == x % m, (m, x)
                assert abs(got) <= m / 2 + abs(x) * 2.0**-52, (m, x)
                # the residue bound the budget's product counts use
                assert abs(got) <= b and abs(got) < m, (m, x)
                if x % m == 1:
                    # what a scaled pivot reduces to
                    assert got == 1, (m, x)


def profile_matrix(starts, cols, m, rng):
    """Row i is zero left of column starts[i], nonzero there and random
    after it; a start of `cols` gives a zero row."""
    a = rng.integers(0, m, (len(starts), cols))
    for i, s in enumerate(starts):
        a[i, :s] = 0
        if s < cols:
            a[i, s] = rng.integers(1, m)
    return a


def row_order_cases(rows, cols, m, rng):
    """(name, data) inputs whose rows start at varied columns, in an
    order the elimination keeps: zero rows among the others, rows in
    reverse order of their first column, and panels with no pivot."""
    # rows in reverse order of their first column, every third row zero
    reverse = np.linspace(cols - 1, 0, rows).astype(int)
    reverse[::3] = cols
    # a few rows from column 0, the rest starting around a panel edge
    edge = rng.choice([DEFAULT_BLOCK - 1, DEFAULT_BLOCK, DEFAULT_BLOCK + 1], rows)
    edge[:2] = 0
    rng.shuffle(edge)
    # rows from column 0 whose rank q is reached by column q - 1, then
    # rows that start only after it, more of them than columns remain
    q = min(rows, cols) // 3
    late = profile_matrix(rng.integers(q + 1, cols, rows - q), cols, m, rng)
    late_rows = np.vstack([low_rank_matrix(q, cols, m, rng, q), late])
    return [
        ("reverse", profile_matrix(reverse, cols, m, rng)),
        ("panel edge", profile_matrix(edge, cols, m, rng)),
        ("after rank", late_rows[rng.permutation(rows)]),
        # no panel but the last has a pivot
        ("last column", profile_matrix([cols - 1] * rows, cols, m, rng)),
        ("zero", np.zeros((rows, cols), dtype=np.int64)),
    ]


class TestRowProfileOrder:
    """Rows are eliminated in the order they come in, wherever they
    start; pivots and kernel vectors must not depend on that order."""

    @pytest.mark.parametrize("shape,last", SHAPE_CASES)
    def test_blocked_matches_naive(self, shape, last):
        rows, cols = shape
        rng = np.random.default_rng(rows + cols)
        for m in (20201, F64_LAST, P31):
            modulus = PrimeModulus(m)
            for name, data in row_order_cases(rows, cols, m, rng):
                mat = FfMatrix(data, modulus)
                naive = mat.rref(naive=True)
                fast = mat.rref()
                assert fast.pivot_cols == naive.pivot_cols, (m, name)
                assert_row_echelon(fast)
                assert reduced_form(fast) == reduced_form(naive), (m, name)
                if naive.rank < cols:
                    f0 = rng.integers(0, m, cols - naive.rank)
                    normal = null_vector(fast, f0)
                    assert np.array_equal(normal, null_vector(naive, f0))
                    assert not (data.astype(object) @ normal.astype(object) % m).any()


def whole_prime(shape):
    """The largest prime whose budget holds a whole matrix of the shape
    (`whole_count`): none of its values is reduced before it is read."""
    return boundary_moduli(shape)[0][0]


OUTER_SHAPE = (190, WIDE_CASE[0][1])


def outer_panel_cases(m, rng):
    """(name, data) inputs of `OUTER_SHAPE` that cross the float64
    outer panels; the last outer panel is `WIDE_LAST` columns wide."""
    rows, cols = OUTER_SHAPE
    k = _OUTER
    # rows from column 0 take the first outer panel's pivots, and the
    # others start in the last one: the second has no pivot
    no_pivots = [0] * 80 + sorted(rng.integers(2 * k, cols, rows - 80))
    # more than `DEFAULT_BLOCK` pivots from column 0, then rows that
    # start around the end of the first outer panel
    edge = [0] * 100 + sorted(rng.choice([k - 1, k, k + 1], rows - 100))
    # `DEFAULT_BLOCK` rows from column 0, then rows that their pivots
    # zero up to a column s: sums of those rows plus a row that starts
    # at s.  In a later half of the same outer panel, a row that starts
    # earlier is swapped up past them, and their multipliers from the
    # first pivots must move with them.
    base = profile_matrix([0] * DEFAULT_BLOCK, cols, m, rng)
    late = [DEFAULT_BLOCK + 6, 2 * DEFAULT_BLOCK + 2, k + 3]
    sums = _mod_matmul(rng.integers(1, m, (len(late), DEFAULT_BLOCK)), base, m)
    sums = (sums + profile_matrix(late, cols, m, rng)) % m
    rest = rows - DEFAULT_BLOCK - len(late)
    others = profile_matrix(rng.integers(DEFAULT_BLOCK, cols, rest), cols, m, rng)
    return [
        ("outer panel without pivots", profile_matrix(no_pivots, cols, m, rng)),
        ("outer panel edge", profile_matrix(edge, cols, m, rng)),
        ("swap after multipliers", np.vstack([base, sums, others])),
    ]


class TestOuterPanels:
    """The delayed update right of each outer panel, in float64 and in
    int64."""

    @pytest.mark.parametrize("m", (20201, whole_prime(OUTER_SHAPE), F64_LAST, P31))
    def test_blocked_matches_naive(self, m):
        cols = OUTER_SHAPE[1]
        eager = _regime(m, whole_count(OUTER_SHAPE))[0] is np.int64
        assert eager == (m in (F64_LAST, P31))
        rng = np.random.default_rng(m)
        modulus = PrimeModulus(m)
        for name, data in outer_panel_cases(m, rng):
            mat = FfMatrix(data, modulus)
            naive = mat.rref(naive=True)
            fast = mat.rref()
            assert fast.pivot_cols == naive.pivot_cols, (m, name)
            assert_row_echelon(fast)
            assert reduced_form(fast) == reduced_form(naive), (m, name)
            f0 = rng.integers(0, m, cols - naive.rank)
            normal = null_vector(fast, f0)
            assert np.array_equal(normal, null_vector(naive, f0)), (m, name)
            assert not (data.astype(object) @ normal.astype(object) % m).any()
            if name == "outer panel without pivots":
                assert not [c for c in naive.pivot_cols if _OUTER <= c < 2 * _OUTER]


# Rows in reverse order of their first column, over three float64 outer
# panels and eleven eager ones: nearly every pivot swaps two rows.
SWAP_SHAPE = (200, 700)


class TestRowPermutation:
    """An outer panel's row swaps reach the columns right of it as they
    are made, one column swap of the transposed matrix each."""

    @pytest.mark.parametrize("chunk", (1, 1000))
    @pytest.mark.parametrize("m", (20201, F64_LAST, P31))
    def test_swap_heavy_matches_naive(self, m, chunk, monkeypatch):
        """With `_TILE` at one entry, a carry (`_carry`) takes one column
        at a time; at 1000, several at a time."""
        rows, cols = SWAP_SHAPE
        rng = np.random.default_rng(m + chunk)
        data = profile_matrix(np.linspace(cols - 1, 0, rows).astype(int), cols, m, rng)
        # the rows that each outer panel with columns right of it moved
        # there
        panels = []

        def recorded_panel(pan, j0, j1, k, mult, *rest):
            # an outer panel, not a half of one, with columns right of it
            if (j0, j1) != (0, len(mult)) or len(pan) == j1:
                return factor_panel(pan, j0, j1, k, mult, *rest)
            before = pan[j1:].copy()
            out = factor_panel(pan, j0, j1, k, mult, *rest)
            panels.append(int((pan[j1:] != before).any(axis=0).sum()))
            return out

        factor_panel = _factor_panel
        monkeypatch.setattr(matrix, "_TILE", chunk)
        monkeypatch.setattr(matrix, "_factor_panel", recorded_panel)
        mat = FfMatrix(data, PrimeModulus(m))
        naive = mat.rref(naive=True)
        fast = mat.rref()
        assert fast.pivot_cols == naive.pivot_cols
        assert_row_echelon(fast)
        assert reduced_form(fast) == reduced_form(naive)
        f0 = rng.integers(0, m, cols - naive.rank)
        normal = null_vector(fast, f0)
        assert np.array_equal(normal, null_vector(naive, f0))
        assert not (data.astype(object) @ normal.astype(object) % m).any()
        # swaps reach the columns right of the first outer panel and of a
        # later one, whose active rows start below row 0
        assert panels[0] and any(panels[1:])


def forward_substitution(trail, mult, piv_inv, m):
    """The per-pivot solve, as an oracle, in Python integers: row i of
    `trail` loses mult[l, i] times each solved row l < i and is then
    scaled by piv_inv[i], the inverse of its pivot."""
    out = []
    for i, row in enumerate(trail.astype(np.int64).tolist()):
        for l in range(i):
            c = int(mult[l, i])
            row = [a - c * b for a, b in zip(row, out[l])]
        out.append([a * int(piv_inv[i]) % m for a in row])
    return out


def residues(shape, m, rng, balanced):
    """Random residues: balanced, |x| < m, half of them negative, as
    float64 keeps them; otherwise canonical."""
    x = rng.integers(0, m, shape)
    return x - m * rng.integers(0, 2, shape) * (x > 0) if balanced else x


# Runs of pivots that one diagonal block of the solve matrix solves: a
# single pivot, sub-panels, halves and a whole float64 outer panel.
SOLVE_BLOCKS = (1, _SUB - 1, _SUB, _SUB + 1, DEFAULT_BLOCK, DEFAULT_BLOCK + 1, _OUTER)


class TestSolveMatrix:
    """Solving pivot rows by one product with a diagonal block of the
    outer panel's solve matrix (`_carry`), against the per-pivot solve."""

    @pytest.mark.parametrize(
        "m,regime",
        [(whole_prime(OUTER_SHAPE), "deep"), (F64_LAST, "settled"), (P31, "eager")],
    )
    def test_blocks_match_forward_substitution(self, m, regime):
        dtype, reduce_, matmul = _regime(m, whole_count(OUTER_SHAPE))
        balanced = dtype is np.float64
        assert balanced == (regime == "deep")
        # the largest solve matrix of the dtype: one outer panel
        kk = _OUTER if balanced else DEFAULT_BLOCK
        rng = np.random.default_rng(m)
        # multipliers above the diagonal, as the elimination stores them
        mult = np.triu(residues((kk, kk), m, rng, balanced), 1).astype(dtype)
        piv_inv = rng.integers(1, m, kk)
        # the first pivot of each leaf; a leaf may find fewer pivots than
        # it has columns
        starts = [0]
        while starts[-1] < kk:
            starts.append(min(starts[-1] + int(rng.integers(1, _SUB + 1)), kk))
        values = [pow(int(v), -1, m) for v in piv_inv]
        solve = np.array(lower_inverse(values, mult, m), dtype=np.int64)
        if balanced:
            # as `_factor_panel` stores it: canonical on the leaves'
            # diagonal blocks, balanced elsewhere
            leaf = np.zeros((kk, kk), dtype=bool)
            for s0, s1 in zip(starts, starts[1:]):
                leaf[s0:s1, s0:s1] = True
            solve[~leaf & (solve > m // 2)] -= m
        solve = solve.astype(dtype)
        for b in (b for b in SOLVE_BLOCKS if b <= kk):
            # the first block and the last one that starts a sub-panel
            for o in {0, max(s for s in starts if s + b <= kk)}:
                trail = residues((b, 37), m, rng, balanced).astype(dtype)
                if balanced:
                    # unreduced trailing values, up to the largest the
                    # reduction takes
                    trail[:, 0] = _F64_EXACT + 1 - m
                    trail[::2, 0] *= -1
                    trail[:, 1] = rng.integers(-(2**52), 2**52, b)
                else:
                    trail[:, 0] = rng.integers(-(2**62), 2**62, b)
                below = residues((5, 37), m, rng, balanced).astype(dtype)
                l21 = residues((5, b), m, rng, balanced).astype(dtype)
                want = forward_substitution(
                    trail, mult[o : o + b, o : o + b], piv_inv[o : o + b], m
                )
                solved = np.array(want, dtype=object)
                want_below = (
                    below.astype(np.int64).astype(object)
                    - l21.astype(np.int64).astype(object) @ solved
                ) % m
                # transposed, as `_carry` takes them: o earlier active
                # rows, the b pivot rows and the 5 rows below them, with
                # the multipliers of the pivot rows in those 5 columns
                right = np.zeros((37, o + b + 5), dtype=dtype)
                right[:, o : o + b] = trail.T
                right[:, o + b :] = below.T
                multipliers = np.zeros((kk, o + b + 5), dtype=dtype)
                multipliers[o : o + b, o + b :] = l21.T
                _carry(right, o, o + b, multipliers, solve, reduce_, m, matmul)
                trail, below = right[:, o : o + b].T, right[:, o + b :].T
                assert (trail.astype(np.int64) % m).tolist() == want, (b, o)
                assert (below.astype(np.int64) % m).tolist() == want_below.tolist()


def swap_matrix(shape, base, m, rng):
    """Rows whose multipliers from the first `base` pivots move with them.

    `base` rows from column 0 take the first pivots.  Then come sums of
    them plus a row that starts later, at a column s: the base pivots
    leave them zero up to s, with nonzero multipliers.  In profile order
    they sit right after the base rows, so in each column before s a row
    that starts there is swapped up past one of them, which carries its
    multipliers along; when it later becomes a pivot, in a later
    sub-panel, half or outer panel, its row of the solve matrix is
    built from those swapped multipliers.
    """
    rows, cols = shape
    late = [base + 3, base + _SUB + 2, base + DEFAULT_BLOCK + 2, _OUTER + 3]
    head = profile_matrix([0] * base, cols, m, rng)
    sums = _mod_matmul(rng.integers(1, m, (len(late), base)), head, m)
    sums = (sums + profile_matrix(late, cols, m, rng)) % m
    # rows that start before each late row does
    starts = rng.integers(base, cols, rows - base - len(late))
    starts[:4] = [base, base + 1, base + _SUB, base + DEFAULT_BLOCK]
    return np.vstack([head, sums, profile_matrix(starts, cols, m, rng)])


class TestSwappedMultipliers:
    """A later sub-panel or half swaps rows that carry multipliers from
    the outer panel's earlier pivots."""

    @pytest.mark.parametrize("base", (_SUB, DEFAULT_BLOCK))
    def test_blocked_matches_naive_at_every_limit(self, base):
        shape, _ = WIDE_CASE
        rng = np.random.default_rng(base)
        eager = [(F64_LAST, "eager"), (EAGER_FIRST, "eager"), (P31, "eager")]
        for m, label in boundary_moduli(shape) + eager:
            assert (_regime(m, whole_count(shape))[0] is np.int64) == (label == "eager")
            data = swap_matrix(shape, base, m, rng)
            mat = FfMatrix(data, PrimeModulus(m))
            naive = mat.rref(naive=True)
            fast = mat.rref()
            assert fast.pivot_cols == naive.pivot_cols, m
            assert_row_echelon(fast)
            assert reduced_form(fast) == reduced_form(naive), m


# The outer panels of the direct `_factor_panel` tests, as width: width
# of the left half.  19 columns split unevenly, with a last half of three
# columns; 40 columns split unevenly twice (24 and 16, then 16 and 8);
# and a whole float64 outer panel.
PANEL_HALVES = {19: 16, 40: 24, _OUTER: _OUTER // 2}


def panel_cases(w, m, rng):
    """(name, active rows) for the direct `_factor_panel` tests on an
    outer panel of w columns."""
    # The first row starts one column late, so the first column swaps.
    # Sums of the first sub-panel's rows plus rows that start later come
    # next: reduced, they are zero at the second sub-panel's first
    # columns, with nonzero multipliers from the first sub-panel's
    # pivots, and the rows that start there come after them.
    head = profile_matrix([1, 0] + list(range(2, _SUB)), w, m, rng)
    late = profile_matrix([_SUB + 3, 2 * _SUB + 1], w, m, rng)
    sums = (_mod_matmul(rng.integers(1, m, (2, _SUB)), head, m) + late) % m
    later = [_SUB, _SUB + 1, _SUB + 2] + list(rng.integers(_SUB, w, 9))
    search = np.vstack([head, sums, profile_matrix(later, w, m, rng)])
    # The same across the halves: rows that take every pivot of the left
    # half, sums of them plus rows that start later in the right half,
    # then rows that start at the right half's first columns.
    mid = PANEL_HALVES[w]
    left = profile_matrix(list(range(mid)), w, m, rng)
    late = profile_matrix([mid + 1, w - 1], w, m, rng)
    sums = (_mod_matmul(rng.integers(1, m, (2, mid)), left, m) + late) % m
    right = [mid, mid + 1] + list(rng.integers(mid, w, 4))
    across = np.vstack([left, sums, profile_matrix(right, w, m, rng)])
    # One column and the whole second sub-panel zero on every row, and
    # one column a sum of two earlier ones, zero once they are pivots.
    zero = profile_matrix([0] * 20, w, m, rng)
    zero[:, 5] = 0
    zero[:, _SUB : 2 * _SUB] = 0
    zero[:, 2 * _SUB + 1] = (zero[:, 2] + 3 * zero[:, 4]) % m
    # The first pivot row's scaled entries are +-(m - 1) / 2, the largest
    # balanced residues, and the other rows' entries balance to them.
    largest = half_modulus_matrix(20, w, m, rng)
    pivot = int(rng.integers(1, m))
    h = m // 2
    largest[0] = pivot * np.where(rng.integers(0, 2, w), h, m - h) % m
    largest[0, 0] = pivot
    return [
        ("search", search),
        ("across the halves", across),
        ("zero column", zero),
        # fewer rows than the panel has columns
        ("short", profile_matrix([0] * 5, w, m, rng)),
        ("largest residues", largest),
    ]


def panel_reference(rows, mid, m):
    """The columns of `rows` factored one at a time in Python integers,
    the pivot the first nonzero of its column; the right half of the
    outer panel starts at column `mid`.

    Returns the pivot columns, the rows (reduced, eliminated, pivot rows
    scaled, in their final order), the first row index of each of them,
    each row's multipliers, one per pivot, the pivots' values, and the
    count of each branch taken: "first" (the candidate row is the
    pivot), "swap", "carried" (a swapped row has a multiplier from the
    pivot of an earlier sub-panel), "right half" (a swap in the right
    half, of a row with a multiplier from a pivot of the left half),
    "skip" (a column zero on the active rows), "empty" (a sub-panel
    without a pivot, before the last one with one), "full" (every row is
    a pivot before the panel ends) and "largest" (a pivot row's scaled
    entries after the pivot in its sub-panel are all +-(m - 1) / 2).
    """
    rows = [[int(v) % m for v in r] for r in rows]
    n, w = len(rows), len(rows[0])
    order = list(range(n))
    carried = [[] for _ in range(n)]
    pivots, values, subs = [], [], []
    hits = Counter()

    def carries(k, p, earlier):
        return any(carried[i][l] for i in (k, p) for l in earlier)

    k = 0
    for c in range(w):
        if k == n:
            hits["full"] += 1
            break
        sub = c // _SUB
        nz = [i for i in range(k, n) if rows[i][c]]
        if not nz:
            hits["skip"] += 1
            continue
        p = nz[0]
        if p == k:
            hits["first"] += 1
        else:
            hits["swap"] += 1
            if carries(k, p, [l for l, s in enumerate(subs) if s < sub]):
                hits["carried"] += 1
            if c >= mid and carries(k, p, [l for l, j in enumerate(pivots) if j < mid]):
                hits["right half"] += 1
            for x in (rows, carried, order):
                x[k], x[p] = x[p], x[k]
        value = rows[k][c]
        inv = pow(value, -1, m)
        rows[k][c:] = [v * inv % m for v in rows[k][c:]]
        end = min((sub + 1) * _SUB, w)
        if {min(v, m - v) for v in rows[k][c + 1 : end]} == {m // 2}:
            hits["largest"] += 1
        prow = rows[k][c:]
        for i in range(n):
            f = rows[i][c] if i > k else 0
            carried[i].append(f)
            if f:
                rows[i][c:] = [(a - f * b) % m for a, b in zip(rows[i][c:], prow)]
        pivots.append(c)
        values.append(value)
        subs.append(sub)
        k += 1
    hits["empty"] += len(set(range(max(subs, default=0))) - set(subs))
    return pivots, rows, order, carried, values, hits


def lower_inverse(values, mult, m):
    """The inverse of M mod m, M[i, i] = values[i] and M[i, l] =
    mult[l, i] for l < i, by forward substitution in Python integers."""
    out = []
    for i, value in enumerate(values):
        row = [int(i == j) for j in range(len(values))]
        for l in range(i):
            c = int(mult[l][i]) % m
            if c:
                row = [a - c * b for a, b in zip(row, out[l])]
        inv = pow(int(value), -1, m)
        out.append([a * inv % m for a in row])
    return out


class TestFactorPanel:
    """`_factor_panel` on whole outer panels, against a column-by-column
    reference and `_rref_naive`: every branch its leaves keep is reached
    at a small prime, the benchmark prime, the former float64 limit and
    the largest prime."""

    @pytest.mark.parametrize("m", (7, 20201, F64_LAST, P31))
    def test_matches_references(self, m, monkeypatch):
        def checked_reduce(self, x, m):
            assert np.abs(x).max(initial=0) <= _F64_EXACT + 1 - self.m
            reduce_f64(self, x, m)

        def counted_swap(x, k, p):
            swaps.append((k, p))
            swap_columns(x, k, p)

        reduce_f64, swap_columns = _ReduceF64.__call__, matrix._swap_columns
        monkeypatch.setattr(_ReduceF64, "__call__", checked_reduce)
        monkeypatch.setattr(matrix, "_swap_columns", counted_swap)
        # as an elimination of the widest outer panel's shape runs them
        dtype, reduce_, matmul = _regime(m, whole_count((_OUTER, _OUTER)))
        eager = dtype is np.int64
        assert eager == (m in (F64_LAST, P31))
        rng = np.random.default_rng(m)
        hits = Counter()
        swaps = []
        for w, mid in PANEL_HALVES.items():
            for name, rows in panel_cases(w, m, rng):
                nact = len(rows)
                mult = np.zeros((w, nact), dtype=dtype)
                solve = np.zeros((w, w), dtype=dtype)
                # the rows' entries right of the outer panel, two per row,
                # all distinct
                tail = np.arange(2 * nact, dtype=dtype).reshape(nact, 2)
                pan = np.ascontiguousarray(np.hstack([rows, tail]).T, dtype=dtype)
                swaps.clear()
                pivots = []
                args = (mult, solve, pivots, reduce_, m, matmul, eager)
                k = _factor_panel(pan, 0, w, 0, *args)
                want, out, moved, carried, found, seen = panel_reference(rows, mid, m)
                hits += seen
                case = (w, name)
                assert pivots == want and k == len(want), case
                # each swap moves the rows in `pan`, the outer panel and
                # the columns right of it, and in `mult`
                assert len(swaps) == 2 * seen["swap"], case
                # the trailing rows end in the reference's row order
                assert np.array_equal(pan[w:].T, tail[moved]), case
                got = pan[:w].T.astype(np.int64)
                # stored reduced: canonical in int64, balanced in float64
                if eager:
                    assert got.min() >= 0 and got.max() < m, case
                else:
                    assert np.abs(got).max() <= m // 2 + 2, case
                assert (got % m).tolist() == out, case
                want_mult = np.zeros((w, nact), dtype=np.int64)
                want_mult[:k] = np.array(carried, dtype=np.int64).reshape(nact, k).T
                assert np.array_equal(mult.astype(np.int64) % m, want_mult), case
                want_solve = np.zeros((w, w), dtype=np.int64)
                want_solve[:k, :k] = lower_inverse(found, want_mult, m)
                assert np.array_equal(solve.astype(np.int64) % m, want_solve), case
                # the pivots and the row space, against the naive elimination
                naive, naive_pivots = _rref_naive(rows, m)
                assert naive_pivots == pivots, case
                reduced, _ = _rref_naive(got[:k] % m, m)
                assert np.array_equal(reduced, naive[:k]), case
        branches = ("first", "swap", "carried", "right half", "skip", "empty")
        for branch in branches + ("full", "largest"):
            assert hits[branch], branch


def macaulay_matrix(basis, n, m):
    """The degree-3 Macaulay matrix of the quadrics `basis` in n + 1
    variables, row (j, i) being x_i times quadric j; a `TerraciniMatrix`
    holds any quadrics, and eliminates them by the split."""
    shifts = np.stack([_shift_map(n, 2, i) for i in range(n + 1)])
    return TerraciniMatrix(basis, shifts, math.comb(n + 3, 3), PrimeModulus(m))


# 33 quadrics in 13 variables: a 429 x 455 Macaulay matrix of rank 429
# at most, whose A triangle is 3 levels deep
SPLIT_N, SPLIT_Q = 12, 33
SPLIT_SHAPE = ((SPLIT_N + 1) * SPLIT_Q, math.comb(SPLIT_N + 3, 3))


def split_bases(m, rng):
    """(name, quadrics) for the split at modulus m: random quadrics, ones
    with repeated rows (so rank W < 3r), and reduced ones whose free
    entries balance to the largest residues, +-(m - 1) / 2, or to the
    smallest (`top_heavy`); reduced, they are W' itself."""
    q, nb = SPLIT_Q, math.comb(SPLIT_N + 2, 2)
    eye = np.eye(q, dtype=np.int64)
    rand = rng.integers(0, m, (q, nb))
    repeated = rand.copy()
    repeated[q // 2 :] = rand[: q - q // 2]
    return [
        ("random", rand),
        ("repeated", repeated),
        ("half modulus", np.hstack([eye, half_modulus_matrix(q, nb - q, m, rng)])),
        ("top heavy", np.hstack([eye, top_heavy(q, nb - q, m, rng)])),
    ]


# A reduced basis of five quadrics in x_0..x_3 (monomials as variable
# pairs) whose A triangle is a chain of nine rows, eight levels, in the
# multiplier solve and in the back-substitution alike; the Macaulay
# matrix, 20 x 20, has rank 18 and three C rows.
DEEP_BASIS = (
    {(1, 1): 1, (1, 2): 3},
    {(0, 2): 1, (1, 2): 3},
    {(2, 2): 1, (0, 3): 6, (2, 3): 2},
    {(1, 3): 1, (2, 3): 4},
    {(3, 3): 1},
)


def deep_basis():
    index = monomial_basis(3, 2)._index
    out = np.zeros((len(DEEP_BASIS), len(index)), dtype=np.int64)
    for j, terms in enumerate(DEEP_BASIS):
        for pair, c in terms.items():
            out[j, index[pair]] = c
    return out


# the kernels of the split at SPLIT_SHAPE, float64 at its largest
# modulus, and int64 at the former float64 limit and at 2^31 - 1
SPLIT_REGIMES = (
    (whole_prime(SPLIT_SHAPE), "deep"),
    (F64_LAST, "settled"),
    (P31, "eager"),
)


def split_rows(basis, n, m):
    """The A rows (`ShiftedRows`) of the split of the Macaulay matrix of
    `basis` (`macaulay_matrix`), without eliminating it."""
    shifts = np.stack([_shift_map(n, 2, i) for i in range(n + 1)])
    return _shifted_rows(basis, shifts, math.comb(n + 3, 3), m)[0]


def schedule_bases(m):
    """(name, quadrics, n) at modulus m: `split_bases`, `deep_basis()`,
    and the quadrics of the first attempt of certify(n, seed=77) at
    n = 12, 20 and 30."""
    rng = np.random.default_rng(m)
    out = [(name, basis, SPLIT_N) for name, basis in split_bases(m, rng)]
    out.append(("deep", deep_basis(), 3))
    for n in (12, 20, 30):
        seeded = SeededRng(77)
        points = [sample_point(n, PrimeModulus(m), seeded) for _ in range(default_r(n))]
        out.append((f"certify({n})", terracini_matrix(points)._quads, n))
    return out


def level_of(shifted):
    """Each A row's level (`ShiftedRows.levels`)."""
    level = np.full(shifted.lead.size, -1)
    for k, rows in enumerate(shifted.levels):
        level[rows] = k
    return level


def highest_dependency(shifted, level):
    """For each A row k, the highest level among the other A rows that
    are nonzero at k's lead, -1 where there is none: A's triangle is
    read from the basis through `reach`, one variable's rows at a
    time."""
    top = np.full(shifted.lead.size, -1)
    for i in range(len(shifted.shifts)):
        mine = np.flatnonzero(shifted.var == i)
        t = shifted.reach[i, shifted.lead]
        at = np.flatnonzero(t >= 0)
        nonzero = shifted.basis[np.ix_(shifted.row[mine], t[at])] != 0
        deps = np.where(nonzero, level[mine][:, None], -1).max(axis=0, initial=-1)
        top[at] = np.maximum(top[at], deps)
    return top


def substitution(off, r, m):
    """(I + N)^-1 R mod m by plain substitution in Python integers, N =
    `off` strictly lower or strictly upper triangular: rows in the order
    that solves each one after every row it depends on."""
    k = len(off)
    n = off.astype(np.int64).tolist()
    rows = r.astype(np.int64).tolist()
    y = [None] * k
    for t in range(k) if not np.triu(off).any() else reversed(range(k)):
        row = rows[t]
        for s, c in enumerate(n[t]):
            if c:
                row = [a - c * b for a, b in zip(row, y[s])]
        y[t] = [a % m for a in row]
    return y


def triangle_off(shifted):
    """A's triangle, the A rows at their leading columns (unit upper
    triangular), less the identity, as int64."""
    return shifted_dense(shifted)[:, shifted.lead] - np.eye(shifted.lead.size, dtype=np.int64)


def x_rows(shifted):
    """The row of the X update's target (`_run_stages`) that A row k
    fills: grouped by variable, each group by level and then lead
    (`_split_echelon`)."""
    group = np.concatenate(shifted.levels)
    group = group[np.argsort(shifted.var[group], kind="stable")]
    pos = np.empty(group.size, dtype=np.int64)
    pos[group] = np.arange(group.size)
    return pos


def x_update_products(monkeypatch):
    """[levels, products] for each tile's X update (`_run_stages`) in
    the runs after this call: the stages of levels above 0 it runs and
    the products it makes, one per operand of a level."""
    runs = []

    def run_stages(xt, dt, stages, *args):
        def walked():
            for schur, update, spans in stages:
                if not schur:
                    runs[-1][0] += 1
                    runs[-1][1] += len(update)
                yield schur, update, spans

        runs.append([0, 0])
        return run(xt, dt, walked(), *args)

    run = _run_stages
    monkeypatch.setattr(matrix, "_run_stages", run_stages)
    return runs


def basis_of_rank(rows, cols, rank, m, rng, variant):
    """A rows x cols basis of rank exactly `rank` at modulus m: L R, R
    the identity at `rank` random columns and random elsewhere, and L
    unit lower triangular on `rank` of its rows, in random order.  With
    `variant` "zero columns", a third of R's other columns are zero;
    with "repeated rows", L's other rows repeat those rows.  (`_mod_matmul`
    is checked against the naive product above.)"""
    right = rng.integers(0, m, (rank, cols))
    lead = rng.choice(cols, rank, replace=False)
    right[:, lead] = np.eye(rank, dtype=np.int64)
    if variant == "zero columns":
        other = np.setdiff1d(np.arange(cols), lead)
        right[:, other[: other.size // 3]] = 0
    left = rng.integers(0, m, (rows, rank))
    left[:rank] = np.tril(left[:rank], -1) + np.eye(rank, dtype=np.int64)
    if variant == "repeated rows" and rank:
        left[rank:] = left[rng.integers(0, rank, rows - rank)]
    return _mod_matmul(left[rng.permutation(rows)], right, m)


# (rows, cols, ranks) of the bases W's reduction is checked on: every
# rank of two shapes, from none to several `_SUB`-column leaves of the
# second pass's panel, the ranks around the eager outer panel's
# `DEFAULT_BLOCK` columns, and a rank past float64's `_OUTER`
REDUCTION_SHAPES = (
    (12, 20, range(13)),
    (40, 52, range(41)),
    (70, 90, (DEFAULT_BLOCK - 1, DEFAULT_BLOCK, DEFAULT_BLOCK + 1, 70)),
    (_OUTER + 12, _OUTER + 24, (_OUTER + 9,)),
)
REDUCTION_VARIANTS = ("plain", "zero columns", "repeated rows")


class TestReducedEchelon:
    """W' comes from two passes of the blocked elimination
    (`_reduced_echelon`): the first gives U and the pivots, the second
    eliminates U's rows reversed, its pivot block reversed in front."""

    @pytest.mark.parametrize("m", [7, 101, 20201, 3000017, F64_LAST, P31])
    def test_matches_naive(self, m, monkeypatch, schedule):
        """W' and the pivots are the naive reduction's nonzero rows and
        pivots, at every rank; the second pass finds pivot i on row i,
        for i < rank, without a swap.  Float64 runs at the four smaller
        primes, int64 at the two larger ones."""
        # (rows eliminated, pivots, row swaps) of each pass, in the
        # order of `schedule.dtypes`
        passes = []
        echelon_blocked, swap_columns = matrix._echelon_blocked, matrix._swap_columns

        def recorded_pass(at, m, *args):
            passes.append([at.shape[1], None, 0])
            upper, pivots = echelon_blocked(at, m, *args)
            passes[-1][1] = pivots
            return upper, pivots

        def recorded_swap(x, k, p):
            passes[-1][2] += 1
            swap_columns(x, k, p)

        monkeypatch.setattr(matrix, "_echelon_blocked", recorded_pass)
        monkeypatch.setattr(matrix, "_swap_columns", recorded_swap)
        rng = np.random.default_rng(m)
        for rows, cols, ranks in REDUCTION_SHAPES:
            for rank in ranks:
                variant = REDUCTION_VARIANTS[rank % 3]
                basis = basis_of_rank(rows, cols, rank, m, rng, variant)
                want, pivots = _rref_naive(basis, m)
                assert len(pivots) == rank
                start = len(passes)
                wp, lm = _reduced_echelon(basis, m)
                case = (rows, cols, rank, variant)
                assert lm == pivots, case
                assert np.array_equal(wp, want[:rank]), case
                [_, first, _], [again, second, swaps] = passes[start:]
                assert first == pivots and again == rank, case
                assert second == list(range(rank)) and swaps == 0, case
        # one `_regime` call per pass; a pass over no rows does no work
        kernel = np.int64 if m >= F64_LAST else np.float64
        ran = zip(passes, schedule.dtypes[m], strict=True)
        assert {dtype for (rows, _, _), dtype in ran if rows} == {kernel}


class TestLevelSolve:
    """Both solves with A's triangle, for X and for the kernel vector,
    walk the levels of `ShiftedRows.levels`, which the shifts alone
    decide."""

    @pytest.mark.parametrize("m,regime", SPLIT_REGIMES)
    def test_schedule_is_valid(self, m, regime):
        """Every nonzero entry of A's triangle off its diagonal comes
        from a row of a strictly lower level than the row whose lead it
        sits on, and each row is one level above the highest such row,
        so the levels are those of the triangle's nonzero entries."""
        for name, basis, n in schedule_bases(m):
            shifted = split_rows(basis, n, m)
            rows = np.concatenate(shifted.levels)
            assert sorted(rows.tolist()) == list(range(shifted.lead.size)), name
            assert all((np.diff(r) > 0).all() for r in shifted.levels), name
            level = level_of(shifted)
            top = highest_dependency(shifted, level)
            assert (top < level).all(), name
            assert (level == top + 1).all(), name

    @pytest.mark.parametrize("upper", (False, True), ids=("lower", "upper"))
    @pytest.mark.parametrize("m,regime", SPLIT_REGIMES)
    def test_matches_substitution(self, m, regime, upper, monkeypatch):
        """Both solves with A's triangle against plain substitution, on the
        split's bases (`split_bases`, `deep_basis()`).  Lower: the X
        update of each tile of C rows (`_run_stages`), C_A = X A_A
        solved as A_A^T X^T = C_A^T, walks every level above 0, each
        reduction within the regime's bounds and, in int64, each product
        of canonical operands.  Upper: the back-substitution
        (`ShiftedRows.back_substitute`), A_A x_A = -A_rest x_rest with
        the known coordinates at the largest residue m - 1, one dot per
        `DEFAULT_BLOCK` chunk of a level, from the top level down."""

        def checked_reduce(self, x, m):
            assert np.abs(x).max(initial=0) <= _F64_EXACT + 1 - self.m
            reduce_f64(self, x, m)

        def checked_matmul(a, b, m):
            if inside:
                for x in (a, b):
                    assert x.min(initial=0) >= 0 and x.max(initial=0) < m
            return mod_matmul(a, b, m)

        def recorded_solve(ct, *args):
            before = ct.astype(np.int64) % m
            inside.append(True)
            try:
                run(ct, *args)
            finally:
                inside.pop()
            solved.append((before, ct.astype(np.int64) % m))

        def dot_rows(a, b, m):
            dots.append(len(a))
            return _dot_rows(a, b, m)

        reduce_f64, mod_matmul = _ReduceF64.__call__, _mod_matmul
        monkeypatch.setattr(_ReduceF64, "__call__", checked_reduce)
        runs = x_update_products(monkeypatch)
        run = matrix._run_stages
        monkeypatch.setattr(matrix, "_run_stages", recorded_solve)
        monkeypatch.setattr(matrix, "_mod_matmul", checked_matmul)
        monkeypatch.setattr(matrix, "_dot_rows", dot_rows)
        inside, solved, dots = [], [], []
        rng = np.random.default_rng(m + upper)
        bases = [(name, basis, SPLIT_N) for name, basis in split_bases(m, rng)]
        bases.append(("deep", deep_basis(), 3))
        for name, basis, n in bases:
            del runs[:], solved[:], dots[:]
            if upper:
                shifted = split_rows(basis, n, m)
                lead, rest = shifted.lead, shifted.rest
                x = np.full(shifted.cols, m - 1, dtype=np.int64)
                x[lead] = 0
                known = shifted_dense(shifted)[:, rest].astype(object) @ x[rest].astype(object)
                r = np.array([[-v % m] for v in known], dtype=np.int64)
                want = [v for [v] in substitution(triangle_off(shifted), r, m)]
                shifted.back_substitute(x, m)
                assert x[lead].tolist() == want, name
                assert (x[rest] == m - 1).all(), name
                chunks = [
                    min(DEFAULT_BLOCK, rows.size - s)
                    for rows in reversed(shifted.levels)
                    for s in range(0, rows.size, DEFAULT_BLOCK)
                ]
                assert dots == chunks, name
                continue
            shifted = macaulay_matrix(basis, n, m).rref().shifted
            off, pos = triangle_off(shifted).T, x_rows(shifted)
            assert solved, name
            for before, after in solved:
                assert after[pos].tolist() == substitution(off, before[pos], m), name
            walked = len(shifted.levels) - 1
            assert [w for w, _ in runs] == [walked] * len(solved), name

    def test_certify_30(self, monkeypatch):
        """certify(30, seed=77): A's 3441 rows fall in 4 levels, and the
        X update makes one product per variable per level above 0 whose
        A rows reach the level, in each tile of C rows: 248 in all."""
        runs = x_update_products(monkeypatch)
        splits = []

        def recorded(*args):
            splits.append(split_echelon(*args))
            return splits[-1]

        split_echelon = geometry._split_echelon
        monkeypatch.setattr(geometry, "_split_echelon", recorded)
        certify(30, seed=77)
        [(_, _, shifted)] = splits
        assert [r.size for r in shifted.levels] == [1161, 330, 1878, 72]
        assert len(runs) > 1 and all(walked == 3 for walked, _ in runs)
        assert sum(products for _, products in runs) == 248

    @pytest.mark.parametrize(
        "n,products,distinct,tiles",
        ((16, [2, 10, 3, 17], (27, 12), 1), (24, [15, 25], (31, 16), 4)),
        ids=("n16", "n24"),
    )
    def test_schur_product_runs_last(self, n, products, distinct, tiles, monkeypatch):
        """certify(n, seed=77): in each of its tiles of C rows, the split
        makes the products of its stages (`_stages`) in order, the X
        update's levels above 0 and then the Schur product, with
        `products` per stage and `distinct` left operands, of all stages
        and of the Schur stage.  The X update's target is the tile
        buffer; the Schur stage's is the tile's view of the array that
        `_echelon_blocked` then eliminates."""
        ran = []

        def recorded(xt, dt, stages, reduce_, m, matmul):
            made = []

            def counted(a, b):
                made.append(id(a))
                return matmul(a, b)

            ran.append((xt, dt, stages, made))
            return run_stages(xt, dt, stages, reduce_, m, counted)

        run_stages = _run_stages
        monkeypatch.setattr(matrix, "_run_stages", recorded)
        calls = TestWorkingArray.record(monkeypatch)
        certify(n, seed=77)
        [at] = [at for at, _, _ in calls if np.shares_memory(at, ran[0][1])]
        assert len(ran) == tiles
        last = [False] * (len(products) - 1) + [True]
        for xt, dt, stages, made in ran:
            assert stages is ran[0][2]
            assert [schur for schur, _, _ in stages] == last
            assert [len(update) for _, update, _ in stages] == products
            lefts = [[id(left) for _, left, _ in update] for _, update, _ in stages]
            assert made == sum(lefts, [])
            assert (len(set(made)), len(set(lefts[-1]))) == distinct
            assert np.shares_memory(dt, at) and not np.shares_memory(xt, at)

    @pytest.mark.parametrize("m,regime", SPLIT_REGIMES)
    def test_identity_runs_no_product(self, m, regime, monkeypatch):
        """A basis of every quadric: each column of A's triangle is a
        pivot column of W' = I, so the triangle is the identity, the
        schedule one level, and the X update of the C rows makes no
        product."""
        runs = x_update_products(monkeypatch)
        nb = math.comb(DEGENERATE_N + 2, 2)
        basis = np.random.default_rng(m).integers(0, m, (nb, nb))
        res = assert_matches_naive(macaulay_matrix(basis, DEGENERATE_N, m), m)
        assert len(res.shifted.levels) == 1 and c_rows(res.shifted) > 0
        assert runs == [[0, 0]]

    @pytest.mark.parametrize("m", (7, 20201, F64_LAST, P31))
    def test_deep_triangle_in_the_split(self, m, monkeypatch):
        """A degenerate basis whose A triangle is a chain deeper than the
        split meets at sampled points: the X update runs one round of
        products per level above 0 and the back-substitution walks
        every level, and the kernel vector matches the naive
        elimination's."""
        runs = x_update_products(monkeypatch)
        dots = []

        def dot_rows(a, b, m):
            dots.append(len(a))
            return _dot_rows(a, b, m)

        monkeypatch.setattr(matrix, "_dot_rows", dot_rows)
        mat = macaulay_matrix(deep_basis(), 3, m)
        naive = FfMatrix(mat.data, mat.modulus).rref(naive=True)
        res = mat.rref()
        assert res.pivot_cols == naive.pivot_cols
        rng = np.random.default_rng(m)
        f0 = rng.integers(0, m, mat.cols - naive.rank)
        normal = null_vector(res, f0)
        assert np.array_equal(normal, null_vector(naive, f0))
        assert not (mat.data.astype(object) @ normal.astype(object) % m).any()
        # nine levels, a chain of one row each above the first: one X
        # update of 8 rounds, and one dot per level, from the top down
        levels = [r.size for r in res.shifted.levels]
        assert levels == [8, 1, 1, 1, 1, 1, 1, 1, 2]
        assert [r[0] for r in runs] == [8] and runs[0][1] >= 8
        assert dots == levels[::-1]


# The largest prime whose budget holds two full outer panels' pivots:
# the eliminations of `TestExactness`'s shapes run float64 there, and
# those of `STAIR_SHAPE`, which count more, int64.
MIXED = budget_edge(2 * _OUTER)[0]


class TestExactness:
    """Every value float64 reduces is within the reduction's stated
    precondition, |x| <= 2^53 - m, each outer panel starts from values
    that leave room in the budget for its own pivots, and every operand
    of an eager product is canonical, at the largest modulus of each
    kind of kernels, on inputs whose balanced residues are the smallest
    and the largest."""

    @pytest.mark.parametrize("regime", ("deep", "settled", "mixed", "eager"))
    def test_preconditions_hold(self, regime, monkeypatch, schedule):
        """Also counts the in-panel products of `_factor_panel`, its
        carries (`_carry`) and the joins of its solve matrix alike: each
        has at most
        half an outer panel's width of inner terms, and its operands are
        reduced.  In float64 they are balanced, but that at most `_SUB`
        of each term list may be canonical entries of a leaf's diagonal
        block of the solve matrix, in a row of the left operand or a
        column of the right one (`_regime`).  "mixed" runs both kernels
        at one prime, `MIXED`: float64 on the shapes below, int64 on the
        stairs (`stair_matrix`); "settled", at the former float64 limit,
        and "eager", at 2^31 - 1, run int64."""
        seen = []
        # the rows of the current elimination
        rows_of = [0]
        # "panel" while `_factor_panel` runs
        phase = []
        in_panel = []

        def within(name, f):
            def run(*args):
                phase.append(name)
                try:
                    return f(*args)
                finally:
                    phase.pop()

            return run

        def checked_regime(m, terms):
            dtype, reduce_, matmul = regime_of(m, terms)

            def product(a, b):
                if phase:
                    assert a.shape[1] <= _OUTER // 2
                    if dtype is np.float64:
                        big = [np.abs(x) > m // 2 + 2 for x in (a, b)]
                        assert max(np.abs(x).max(initial=0) for x in (a, b)) < m
                        assert (
                            big[0].sum(axis=1).max(initial=0)
                            + big[1].sum(axis=0).max(initial=0)
                            <= _SUB
                        )
                    in_panel.append(a.shape)
                return matmul(a, b)

            return dtype, reduce_, product

        def checked_reduce(self, x, m):
            assert np.abs(x).max(initial=0) <= _F64_EXACT + 1 - self.m
            seen.append(x.size)
            reduce_f64(self, x, m)

        def checked_matmul(a, b, m):
            for x in (a, b):
                assert x.min(initial=0) >= 0 and x.max(initial=0) < m
            seen.append(a.size)
            return mod_matmul(a, b, m)

        def checked_echelon(at, m, *args):
            rows_of[0] = at.shape[1]
            return echelon_blocked(at, m, *args)

        def checked_panel(pan, j0, j1, *rest):
            # an outer panel, j1 columns wide, not a half of one, and the
            # columns right of it
            if pan.dtype == np.float64 and "panel" not in phase:
                # one product per earlier pivot, and room in the budget
                # for this outer panel's own
                done = rows_of[0] - pan.shape[1]
                b = m // 2 + 2
                assert done + j1 <= f64_budget(m)
                assert np.abs(pan).max(initial=0) <= m + 1 + done * b * b
                seen.append(pan.size)
            return within("panel", _factor_panel)(pan, j0, j1, *rest)

        reduce_f64 = _ReduceF64.__call__
        mod_matmul = _mod_matmul
        regime_of = matrix._regime
        echelon_blocked = matrix._echelon_blocked
        monkeypatch.setattr(_ReduceF64, "__call__", checked_reduce)
        monkeypatch.setattr("chowcert.matrix._mod_matmul", checked_matmul)
        monkeypatch.setattr("chowcert.matrix._echelon_blocked", checked_echelon)
        monkeypatch.setattr("chowcert.matrix._factor_panel", checked_panel)
        monkeypatch.setattr("chowcert.matrix._regime", checked_regime)
        moduli = {"settled": [F64_LAST], "mixed": [MIXED], "eager": [P31]}.get(regime)
        ran = set()
        for shape, _ in SHAPE_CASES + [WIDE_CASE, (OUTER_SHAPE, None)]:
            for m in moduli or [whole_prime(shape)]:
                ran.add(m)
                rng = np.random.default_rng(m)
                rows, cols = shape
                for data in (
                    structured_matrix(rows, cols, m, rng),
                    extreme_matrix(rows, cols, m, rng),
                    half_modulus_matrix(rows, cols, m, rng),
                    swap_matrix(shape, _SUB, m, rng),
                ):
                    mat = FfMatrix(data, PrimeModulus(m))
                    assert mat.rref().pivot_cols == mat.rref(naive=True).pivot_cols
        if regime == "mixed":
            schedule.assert_kind("deep", MIXED)
            res = FfMatrix(stair_matrix(MIXED, rng), PrimeModulus(MIXED)).rref()
            assert list(res.pivot_cols) == stair_pivots()
            assert schedule.dtypes[MIXED][-1] is np.int64
        else:
            for m in ran:
                schedule.assert_kind("deep" if regime == "deep" else "eager", m)
        assert seen and in_panel

    @pytest.mark.parametrize("regime", [label for _, label in SPLIT_REGIMES])
    def test_split_preconditions_hold(self, regime, monkeypatch, schedule):
        """The same for the products of the split (`_split_echelon`), each
        of which must run, in one tile of C rows and in several: the
        left-looking X update, the Schur product, and the A
        back-substitution, whose dots (`_dot_rows`) must stay inside
        int64.  The X update and the Schur product reduce once, after all
        their terms (X's after its level).  The X update walks A's
        levels, at least two above 0 here, and neither solve with A's
        triangle inverts it: W's reduction (`_reduced_echelon`), the
        blocked elimination run twice, runs outside them."""
        m = dict((label, p) for p, label in SPLIT_REGIMES)[regime]
        phase = []
        # the tiling of the current run, and (tiling, step) for each step
        # seen to reduce or multiply
        tiling = [None]
        seen = set()
        # Schur products per run
        tiles = []

        def within(name, f):
            def run(*args):
                phase.append(name)
                try:
                    return f(*args)
                finally:
                    phase.pop()

            return run

        def see(step):
            seen.add((tiling[0], step))

        def checked_reduce(self, x, m):
            assert np.abs(x).max(initial=0) <= _F64_EXACT + 1 - self.m
            see(phase[-1] if phase else None)
            reduce_f64(self, x, m)

        def checked_matmul(a, b, m):
            for x in (a, b):
                assert x.min(initial=0) >= 0 and x.max(initial=0) < m
            see(phase[-1] if phase else None)
            return mod_matmul(a, b, m)

        def checked_reduction(data, m):
            assert not phase, phase
            reduced.append(len(data))
            return reduced_echelon(data, m)

        def checked_dots(a, b, m):
            for x in (a, b):
                assert x.min(initial=0) >= 0 and x.max(initial=0) < m
            # each product below 2^63, reduced, and their sum too
            assert (m - 1) ** 2 <= I64_MAX and a.shape[1] * (m - 1) <= I64_MAX
            see("A back-substitution")
            return dot_rows(a, b, m)

        def run_stages(xt, dt, stages, *args):
            # one stage at a time, each within its phase
            tiles[-1] += 1
            walked.append((tiling[0], sum(not schur for schur, _, _ in stages)))
            for stage in stages:
                run = schur_product if stage[0] else x_update
                run(xt, dt, [stage], *args)

        reduce_f64, mod_matmul, dot_rows = _ReduceF64.__call__, _mod_matmul, _dot_rows
        reduced_echelon = _reduced_echelon
        schur_product = within("Schur product", _run_stages)
        x_update = within("X update", _run_stages)
        # (tiling, levels above 0) for each X update
        walked, reduced = [], []
        monkeypatch.setattr(_ReduceF64, "__call__", checked_reduce)
        monkeypatch.setattr("chowcert.matrix._mod_matmul", checked_matmul)
        monkeypatch.setattr("chowcert.matrix._dot_rows", checked_dots)
        monkeypatch.setattr("chowcert.matrix._reduced_echelon", checked_reduction)
        monkeypatch.setattr("chowcert.matrix._run_stages", run_stages)
        monkeypatch.setattr(
            ShiftedRows,
            "back_substitute",
            within("A back-substitution", ShiftedRows.back_substitute),
        )
        rng = np.random.default_rng(m)
        for name, basis in split_bases(m, rng):
            mat = macaulay_matrix(basis, SPLIT_N, m)
            naive = FfMatrix(mat.data, mat.modulus).rref(naive=True)
            f0 = rng.integers(0, m, mat.cols - naive.rank)
            for tiling[0] in ("one", "several"):
                tiles.append(0)
                with monkeypatch.context() as mp:
                    if tiling[0] == "several":
                        # 4 tiles of the 147 C rows of a basis of rank
                        # 33, 2 of the 50 of one with repeated rows
                        tile_rows(mp, mat.cols, 40)
                    res = mat.rref()
                assert res.pivot_cols == naive.pivot_cols, name
                normal = null_vector(res, f0)
                assert np.array_equal(normal, null_vector(naive, f0)), name
        schedule.assert_kind("deep" if regime == "deep" else "eager", m)
        assert tiles[::2] == [1] * 4 and min(tiles[1::2]) >= 2
        steps = {"X update", "Schur product", "A back-substitution"}
        for run in ("one", "several"):
            assert steps <= {step for t, step in seen if t == run}, run
            assert max(n for t, n in walked if t == run) >= 2, run
        assert reduced


# (name, C rows per tile at most, the tile widths that run) for the 147
# C rows of a random basis at `SPLIT_N`; tiles are equal in size but for
# a shorter last one
TILINGS = (
    ("one tile", 147, [147]),
    ("two tiles", 74, [74, 73]),
    ("partial last tile", 40, [37, 37, 37, 36]),
    ("one row per tile", 1, [1] * 147),
)
# 7 variables: Macaulay matrices of at most 196 x 84, small enough for
# the naive elimination of a basis of every quadric
DEGENERATE_N = 6


def tile_rows(monkeypatch, cols, rows):
    """Set `_C_TILE` and `_C_TILE_ROWS` so that a split of `cols` columns
    takes at most `rows` C rows a tile."""
    monkeypatch.setattr(matrix, "_C_TILE", 8 * cols * rows)
    monkeypatch.setattr(matrix, "_C_TILE_ROWS", 1)


def recorded_tiles(monkeypatch):
    """The width of each tile of C rows that the split reduces, as
    `_run_stages` sees its view of D'."""
    widths = []

    def recorded(xt, dt, *args):
        widths.append(dt.shape[1])
        return run_stages(xt, dt, *args)

    run_stages = _run_stages
    monkeypatch.setattr(matrix, "_run_stages", recorded)
    return widths


def assert_matches_naive(mat, seed, naive=None):
    """Pivots, and the kernel vector when there is one, of the split
    against the naive elimination of the int64 rows (`naive`, when it
    is given)."""
    m = mat.modulus.value
    if naive is None:
        naive = FfMatrix(mat.data, mat.modulus).rref(naive=True)
    res = mat.rref()
    assert res.pivot_cols == naive.pivot_cols
    if naive.rank < mat.cols:
        f0 = np.random.default_rng(seed).integers(0, m, mat.cols - naive.rank)
        normal = null_vector(res, f0)
        assert np.array_equal(normal, null_vector(naive, f0))
        assert not (mat.data.astype(object) @ normal.astype(object) % m).any()
    return res


@functools.lru_cache(maxsize=None)
def random_split(m):
    """The Macaulay matrix of `SPLIT_Q` random quadrics at `SPLIT_N`, and
    its naive elimination, shared by the tilings."""
    rng = np.random.default_rng(m)
    basis = rng.integers(0, m, (SPLIT_Q, math.comb(SPLIT_N + 2, 2)))
    mat = macaulay_matrix(basis, SPLIT_N, m)
    return mat, FfMatrix(mat.data, mat.modulus).rref(naive=True)


def c_rows(shifted):
    """The number of C rows of a split: the shifted rows of W' that A
    does not take."""
    return len(shifted.shifts) * len(shifted.basis) - shifted.lead.size


class TestSplitTiles:
    """The split reduces C one tile of rows at a time (`_C_TILE`): every
    tiling gives the naive elimination's pivots and kernel vector, in
    float64, and in int64 at the former float64 limit and at
    2^31 - 1."""

    @pytest.mark.parametrize("m", (20201, F64_LAST, P31))
    @pytest.mark.parametrize("name,rows,widths", TILINGS, ids=[t[0] for t in TILINGS])
    def test_tilings_match_naive(self, m, name, rows, widths, monkeypatch, schedule):
        mat, naive = random_split(m)
        tile_rows(monkeypatch, mat.cols, rows)
        ran = recorded_tiles(monkeypatch)
        res = assert_matches_naive(mat, m, naive)
        assert c_rows(res.shifted) == sum(widths) == 147
        assert ran == widths
        schedule.assert_kind("deep" if m == 20201 else "eager", m)

    def test_operands_built_once(self, monkeypatch):
        """With several tiles, every tile reuses the operands of the X
        update and the Schur product, and A's levels are computed once
        per elimination."""
        mat, _ = random_split(20201)
        counts = Counter()

        def counted(name, f):
            def run(*args):
                counts[name] += 1
                return f(*args)

            return run

        levels = cached_property(counted("levels", ShiftedRows.levels.func))
        levels.__set_name__(ShiftedRows, "levels")
        monkeypatch.setattr(ShiftedRows, "levels", levels)

        def stages(*args):
            # the products `_stages` builds, each counted as an operand
            for stage in built(*args):
                counts["operand"] += len(stage[1])
                yield stage

        built = matrix._stages
        monkeypatch.setattr(matrix, "_stages", stages)
        ran = recorded_tiles(monkeypatch)
        seen = []
        for rows in (147, 1):
            counts.clear()
            tile_rows(monkeypatch, mat.cols, rows)
            mat.rref()
            seen.append(dict(counts))
        one, every_row = seen
        assert len(ran) == 1 + 147
        assert one["operand"] == every_row["operand"] > 0
        assert one["levels"] == every_row["levels"] == 1

    @pytest.mark.parametrize("m", (20201, F64_LAST, P31))
    @pytest.mark.parametrize("rows", (1, 2, 1000))
    def test_degenerate_bases(self, m, rows, monkeypatch):
        """Bases whose split has no C rows, no columns that lead no A row
        (`rest`), or more of those than A rows, in tiles of `rows` C rows
        at most."""
        rng = np.random.default_rng(m + rows)
        nb = math.comb(DEGENERATE_N + 2, 2)
        cols = math.comb(DEGENERATE_N + 3, 3)
        tile_rows(monkeypatch, cols, rows)
        ran = recorded_tiles(monkeypatch)
        # one quadric: its shifts all lead new columns
        mat = macaulay_matrix(rng.integers(1, m, (1, nb)), DEGENERATE_N, m)
        split = assert_matches_naive(mat, m).shifted
        assert c_rows(split) == 0 and split.rest.size > 0 and not ran
        # every quadric: each cubic leads an A row, and C holds the rest
        mat = macaulay_matrix(rng.integers(0, m, (nb, nb)), DEGENERATE_N, m)
        res = assert_matches_naive(mat, m)
        assert res.rank == cols and res.shifted.rest.size == 0
        assert sum(ran) == c_rows(res.shifted) > 0
        assert max(ran) <= rows
        ran.clear()
        # two quadrics: one C row, and far more rest columns than A rows
        mat = macaulay_matrix(rng.integers(0, m, (2, nb)), DEGENERATE_N, m)
        split = assert_matches_naive(mat, m).shifted
        assert c_rows(split) == 1 and split.rest.size > split.lead.size
        assert ran == [1]


# Rows that start at the first column of the first three outer panels,
# `STAIRS` of each, over three full outer panels and a last one
# `WIDE_LAST` columns wide: in float64 the outer updates carry 200, 120
# and 150 pivots, and the outer panels after them are 256, 256 and 40
# wide.
STAIRS = (200, 120, 150)
STAIR_SHAPE = (sum(STAIRS), 3 * _OUTER + WIDE_LAST)


def stair_matrix(m, rng):
    starts = np.repeat([0, _OUTER, 2 * _OUTER], STAIRS)
    return profile_matrix(starts, STAIR_SHAPE[1], m, rng)


def stair_pivots():
    """The pivots of `stair_matrix`: each group's rows are independent
    from its first column on."""
    return [_OUTER * i + j for i, g in enumerate(STAIRS) for j in range(g)]


class TestSchedule:
    """One rule picks the kernels (`_regime`): float64 exactly when the
    modulus's budget covers the most products a value collects before
    it is read, int64 otherwise; either way no value is reduced before
    it is read."""

    def test_kernels_follow_the_budget(self):
        budgets = {
            20201: 88262259,
            3000017: 4003,
            # the largest prime whose budget holds the 3441 A rows of
            # certify(30, seed=77), and the next prime
            3235789: 3441,
            3235807: 3440,
            F64_LAST: 264,
        }
        for m, want in budgets.items():
            assert f64_budget(m) == want
            assert fits_f64(want, m) and not fits_f64(want + 1, m)
            dtype, reduce_, matmul = _regime(m, want)
            assert dtype is np.float64 and matmul is np.matmul
            assert isinstance(reduce_, _ReduceF64)
            dtype, reduce_, _ = _regime(m, want + 1)
            assert dtype is np.int64 and reduce_ is _reduce_i64
        assert budget_edge(3441) == (3235789, 3235807)
        assert _regime(3235789, 3441)[0] is np.float64
        assert _regime(3235807, 3441)[0] is np.int64
        # the default and the other documented primes hold any elimination
        # of a Terracini matrix up to n = 102, at most its columns plus
        # one solve product
        for m in (20201, 8191, 202001):
            assert f64_budget(m) >= math.comb(105, 3) + _OUTER + _SUB
        # `MIXED` holds the eliminations of `TestExactness`'s shapes, not
        # that of the stairs
        shapes = [shape for shape, _ in SHAPE_CASES + [WIDE_CASE, (OUTER_SHAPE, None)]]
        assert max(map(whole_count, shapes)) <= f64_budget(MIXED)
        assert f64_budget(MIXED) < whole_count(STAIR_SHAPE)

    @pytest.mark.parametrize("m,regime", [(20201, "deep"), (MIXED, "eager"), (F64_LAST, "eager")])
    def test_stairs_match_at_every_kernel(self, m, regime, schedule, monkeypatch):
        """The stairs in float64, with three outer updates, and in int64,
        with one outer update per 64-column outer panel, at a prime whose
        budget holds smaller matrices whole and at the former float64
        limit."""

        def checked_reduce(self, x, m):
            assert np.abs(x).max(initial=0) <= _F64_EXACT + 1 - self.m
            reduce_f64(self, x, m)

        def recorded_panel(pan, j0, j1, k, mult, *rest):
            found = factor_panel(pan, j0, j1, k, mult, *rest)
            # an outer panel, not a half of one, whose pivots an outer
            # update carries into the columns right of it
            if (j0, j1) == (0, len(mult)) and found and len(pan) > j1:
                outer.append(found)
            return found

        reduce_f64, factor_panel = _ReduceF64.__call__, _factor_panel
        monkeypatch.setattr(_ReduceF64, "__call__", checked_reduce)
        monkeypatch.setattr(matrix, "_factor_panel", recorded_panel)
        outer = []
        rng = np.random.default_rng(m)
        data = stair_matrix(m, rng)
        res = FfMatrix(data, PrimeModulus(m)).rref()
        schedule.assert_kind(regime, m)
        assert list(res.pivot_cols) == stair_pivots()
        assert_row_echelon(res)
        f0 = rng.integers(0, m, STAIR_SHAPE[1] - res.rank)
        normal = null_vector(res, f0)
        assert not (data.astype(object) @ normal.astype(object) % m).any()
        if regime == "deep":
            assert outer == list(STAIRS)
        else:
            assert len(outer) > 3

    def test_eager_never_settles(self, monkeypatch):
        """No outer update at 2^31 - 1 reduces ("settles") the columns
        right of its outer panel: a later outer panel starts from values
        that its earlier pivots' products left outside [0, m), which it
        reduces as it reads them."""

        def recorded_panel(pan, j0, j1, k, mult, *rest):
            if (j0, j1) == (0, len(mult)):
                unreduced.append(bool(((pan < 0) | (pan >= P31)).any()))
            return factor_panel(pan, j0, j1, k, mult, *rest)

        factor_panel = _factor_panel
        monkeypatch.setattr(matrix, "_factor_panel", recorded_panel)
        unreduced = []
        rng = np.random.default_rng(P31)
        res = FfMatrix(stair_matrix(P31, rng), PrimeModulus(P31)).rref()
        assert res.rank == sum(STAIRS)
        # one outer panel per 64 columns with active rows; the first
        # starts from the input, reduced
        assert len(unreduced) > 3 and not unreduced[0] and any(unreduced[1:])

    def test_carry_without_multipliers(self):
        """A carry whose pivot rows have no multiple in the rows below
        solves the pivot rows and leaves the rows below as they are,
        unreduced: their values still hold the products of earlier
        carries."""
        m = whole_prime(STAIR_SHAPE)
        rng = np.random.default_rng(m)
        # transposed, as `_carry` takes them: 4 pivot rows, then 5 rows
        # below them, none with a multiplier
        right = np.empty((6, 9))
        right[:, :4] = residues((4, 6), m, rng, True).T
        right[:, 4:] = float(_F64_EXACT + 1 - m)
        right[::2, 4:] *= -1
        want = right[:, 4:].copy()
        solve = np.eye(4)
        mult = np.zeros((4, 9))
        _carry(right, 0, 4, mult, solve, _ReduceF64(m), m, np.matmul)
        assert np.array_equal(right[:, 4:], want)
        assert np.abs(right[:, :4]).max() <= m // 2 + 2


class TestWorkingArray:
    """`_echelon_blocked` eliminates one array, the matrix transposed:
    each outer panel that `_factor_panel` factors is a view of it, never
    a copy, and in a split it is the buffer the split wrote D' into."""

    @staticmethod
    def record(monkeypatch):
        """Per `_echelon_blocked` call, its argument as it came in and
        the outer panels `_factor_panel` factored."""
        calls = []

        def recorded_echelon(at, m, *args):
            calls.append((at, at.copy(), []))
            return echelon_blocked(at, m, *args)

        def recorded_panel(pan, j0, j1, k, mult, *rest):
            if (j0, j1) == (0, len(mult)):
                calls[-1][2].append(pan)
            return factor_panel(pan, j0, j1, k, mult, *rest)

        echelon_blocked, factor_panel = matrix._echelon_blocked, _factor_panel
        monkeypatch.setattr(matrix, "_echelon_blocked", recorded_echelon)
        monkeypatch.setattr(matrix, "_factor_panel", recorded_panel)
        return calls

    @pytest.mark.parametrize("m", (20201, P31))
    def test_outer_panels_are_views(self, m, monkeypatch):
        calls = self.record(monkeypatch)
        rng = np.random.default_rng(m)
        # full column rank: every outer panel holds pivots, and U's
        # columns reach into the last one
        data = rng.integers(0, m, (600, 560))
        res = FfMatrix(data, PrimeModulus(m)).rref()
        assert res.rank == 560
        [(_, _, pans)] = calls
        assert len(pans) == -(-560 // (DEFAULT_BLOCK if m == P31 else _OUTER))
        for pan in pans:
            assert np.shares_memory(pan, res.upper)

    @pytest.mark.parametrize("m", (20201, P31))
    def test_split_eliminates_its_buffer(self, m, monkeypatch):
        mat, naive = random_split(m)
        tile_rows(monkeypatch, mat.cols, 40)
        tiles = []

        def recorded_schur(xt, dt, *args):
            run_stages(xt, dt, *args)
            tiles.append(dt.copy())

        run_stages = _run_stages
        monkeypatch.setattr(matrix, "_run_stages", recorded_schur)
        calls = self.record(monkeypatch)
        res = assert_matches_naive(mat, m, naive)
        # the basis's elimination, then D''s
        at, given, pans = calls[-1]
        assert len(tiles) == 4
        assert np.array_equal(given, np.hstack(tiles))
        assert pans and all(np.shares_memory(pan, at) for pan in pans)
        assert np.shares_memory(res.upper, at)

    def test_split_past_the_budget_runs_int64(self, monkeypatch):
        """At a prime whose budget holds D''s own elimination but not
        the split's A rows, the split writes D' in int64, and D''s
        elimination runs int64 in that buffer: the pivots, the reduced
        form and the kernel vector are the naive elimination's."""
        q = 52
        basis = np.random.default_rng(q).integers(0, 20201, (q, math.comb(SPLIT_N + 2, 2)))
        na = split_rows(basis, SPLIT_N, 20201).lead.size
        m = budget_edge(na)[1]
        mat = macaulay_matrix(basis, SPLIT_N, m)
        naive = FfMatrix(mat.data, mat.modulus).rref(naive=True)
        targets = []

        def recorded_schur(xt, dt, *args):
            targets.append(dt)
            run_stages(xt, dt, *args)

        run_stages = _run_stages
        monkeypatch.setattr(matrix, "_run_stages", recorded_schur)
        calls = self.record(monkeypatch)
        res = assert_matches_naive(mat, m, naive)
        assert reduced_form(res) == reduced_form(naive)
        # the basis's elimination, then D''s
        at, _, pans = calls[-1]
        assert res.shifted.lead.size == na > f64_budget(m) >= whole_count(at.shape)
        assert _regime(m, whole_count(at.shape))[0] is np.float64
        assert at.dtype == np.int64 and at.shape[0] > DEFAULT_BLOCK
        assert targets and all(np.shares_memory(dt, at) for dt in targets)
        assert len(pans) > 1 and all(np.shares_memory(pan, at) for pan in pans)
        assert np.shares_memory(res.upper, at)

    @pytest.mark.parametrize("m", (20201, P31))
    @pytest.mark.parametrize("rows,tiles", ((147, 1), (40, 4)))
    def test_schur_rows_written_in_place(self, m, rows, tiles, monkeypatch):
        """Each tile's rows of D' are written and reduced where D''s
        elimination finds them: every Schur stage's target
        (`_run_stages`) is a view of the array `_echelon_blocked`
        eliminates, not a tile buffer."""
        mat, naive = random_split(m)
        tile_rows(monkeypatch, mat.cols, rows)
        targets = []

        def recorded_schur(xt, dt, *args):
            targets.append(dt)
            run_stages(xt, dt, *args)

        run_stages = _run_stages
        monkeypatch.setattr(matrix, "_run_stages", recorded_schur)
        calls = self.record(monkeypatch)
        assert_matches_naive(mat, m, naive)
        at = calls[-1][0]
        assert len(targets) == tiles
        assert all(np.shares_memory(dt, at) for dt in targets)


class TestEliminationMemory:
    def test_peak_stays_near_one_working_array(self):
        """The read-only input is copied once into the float64 working
        array, which becomes U's int64 array in place: any second
        full-size array would break the bound."""
        rows = cols = 1200
        rng = np.random.default_rng(12)
        # rows in reverse order of their first column
        starts = np.linspace(cols - 1, 0, rows).astype(int) // 2
        mat = FfMatrix(profile_matrix(starts, cols, 20201, rng), MOD)
        tracemalloc.start()
        try:
            mat.rref()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * rows * cols * 8


    @pytest.mark.parametrize("m", (20201, P31))
    def test_nothing_left_for_the_collector(self, m):
        """With the garbage collector off, an elimination returns traced
        memory to its entry level: no reference cycle holds any array it
        made, which would keep each outer panel's copy and multipliers
        alive until the collector ran."""
        rows = cols = 400
        rng = np.random.default_rng(m)
        starts = np.linspace(cols - 1, 0, rows).astype(int) // 2
        mat = FfMatrix(profile_matrix(starts, cols, m, rng), PrimeModulus(m))
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            mat.rref()
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        # a few small objects, far less than any array of the elimination
        assert left < rows * cols


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    # up to four panels
    rows=st.integers(min_value=1, max_value=4 * DEFAULT_BLOCK),
    cols=st.integers(min_value=2, max_value=4 * DEFAULT_BLOCK),
    m=st.sampled_from(
        (7, 20201) + tuple(m for m, _ in boundary_moduli((150, 150)))
    ),
)
def test_null_vector_annihilates(data, rows, cols, m):
    inner = data.draw(st.integers(min_value=0, max_value=min(rows, cols - 1)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mat = FfMatrix(low_rank_matrix(rows, cols, m, rng, inner), PrimeModulus(m))
    res = mat.rref()
    f0 = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=m - 1),
            min_size=cols - res.rank,
            max_size=cols - res.rank,
        )
    )
    normal = null_vector(res, f0)
    assert not (mat.data.astype(object) @ normal.astype(object) % m).any()


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(min_value=1, max_value=12),
    cols=st.integers(min_value=1, max_value=12),
)
def test_rref_properties(data, rows, cols):
    entries = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=6),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    mat = FfMatrix(np.array(entries).reshape(rows, cols), Z7)
    res = mat.rref()
    assert res.rank <= min(rows, cols)
    assert reduced_form(reduced_form(res).rref()) == reduced_form(res)
    assert mat.rank(naive=True) == res.rank
