import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowcert.field import PrimeModulus, is_prime
from chowcert.matrix import (
    _F64_EXACT,
    _LIMB,
    FfMatrix,
    _matmul_naive,
    _mod_matmul,
    _regime,
    kronecker,
    mul_mat,
    null_vector,
    rref,
)

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
        assert res.x_block().size == 0

    def test_hand_worked_example(self):
        # rows are multiples of each other over Z_7
        mat = FfMatrix([[1, 2, 3], [2, 4, 6]], Z7)
        res = rref(mat)
        assert res.rank == 1
        assert res.pivot_cols == (0,)
        assert res.echelon.data.tolist() == [[1, 2, 3], [0, 0, 0]]
        assert res.x_block().tolist() == [[2, 3]]
        assert res.permutation == (0, 1, 2)

    def test_zero_matrix(self):
        res = FfMatrix.zeros(4, 6, MOD).rref()
        assert res.rank == 0
        assert res.pivot_cols == ()
        assert res.echelon.is_zero()

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mat = random_matrix(
                int(rng.integers(1, 40)), int(rng.integers(1, 50)), MOD, rng
            )
            res = mat.rref()
            again = res.echelon.rref()
            assert again.echelon == res.echelon
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
        rebuilt = coeffs @ res.echelon.data[: res.rank] % 7
        assert np.array_equal(rebuilt, mat.data)

    def test_blocked_equals_naive(self):
        rng = np.random.default_rng(6)
        mods = [Z7, PrimeModulus(8191), MOD, PrimeModulus(202001), PrimeModulus(2**31 - 1)]
        for trial in range(30):
            modulus = mods[trial % len(mods)]
            rows, cols = int(rng.integers(1, 60)), int(rng.integers(1, 80))
            a = rng.integers(0, modulus.value, (rows, cols))
            if trial % 3 == 0 and rows > 2:
                a[rows // 2] = (3 * a[0] + 5 * a[1]) % modulus.value
            mat = FfMatrix(a, modulus)
            naive = mat.rref(naive=True)
            for block in (4, 16, 64):
                fast = mat.rref(block=block)
                assert fast.echelon == naive.echelon
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


class TestMatmul:
    def test_times_identity(self):
        rng = np.random.default_rng(9)
        a = random_matrix(7, 7, Z7, rng)
        assert a @ FfMatrix.identity(7, Z7) == a

    def test_ones_square(self):
        for d in (2, 3, 5):
            ones = FfMatrix.ones(d, d, MOD)
            assert mul_mat(ones, ones) == ones.scale(d)

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
        assert kronecker(i2, i3) == FfMatrix.identity(6, Z7)

    def test_identity_with_ones(self):
        out = kronecker(FfMatrix.identity(2, Z7), FfMatrix.ones(3, 3, Z7))
        expected = np.zeros((6, 6), dtype=np.int64)
        expected[:3, :3] = 1
        expected[3:, 3:] = 1
        assert out.data.tolist() == expected.tolist()

    def test_index_formula(self):
        rng = np.random.default_rng(12)
        a = random_matrix(2, 3, Z7, rng)
        b = random_matrix(3, 2, Z7, rng)
        out = kronecker(a, b)
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
        assert kronecker(a, b) @ kronecker(c, d) == kronecker(a @ c, b @ d)


class TestDumpFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(14)
        mat = random_matrix(4, 6, MOD, rng)
        assert FfMatrix.loads(mat.dumps()) == mat

    def test_header(self):
        mat = FfMatrix([[1, 2], [3, 4]], Z7)
        assert mat.dumps().splitlines()[0] == "2 2 7"

    def test_bad_row_count(self):
        with pytest.raises(ValueError):
            FfMatrix.loads("2 2 7\n1 2\n")

    def test_bad_entry_count(self):
        with pytest.raises(ValueError):
            FfMatrix.loads("1 3 7\n1 2\n")


class TestRrefResultInvariants:
    def test_counts_consistent(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            mat = random_matrix(
                int(rng.integers(1, 25)), int(rng.integers(1, 25)), Z7, rng
            )
            res = mat.rref()
            assert res.rank == len(res.pivot_cols)
            nonzero_rows = int((res.echelon.data.any(axis=1)).sum())
            assert res.rank == nonzero_rows
            assert list(res.pivot_cols) == sorted(res.pivot_cols)
            assert sorted(res.permutation) == list(range(mat.cols))

    def test_pivot_block_is_identity(self):
        rng = np.random.default_rng(16)
        mat = random_matrix(8, 14, Z7, rng)
        res = mat.rref()
        pivot_block = res.echelon.data[: res.rank][:, list(res.pivot_cols)]
        assert np.array_equal(pivot_block, np.eye(res.rank, dtype=np.int64))


REGIMES = ("deep", "per-panel", "eager")
# int64 range that bounded two regimes the eager one has replaced; the
# moduli around those limits stay under test
I64_MAX = 2**63 - 1


def largest_fitting(factor, limit):
    """Largest m with factor * m^2 below limit."""
    m = math.isqrt(limit // factor)
    while factor * m * m >= limit:
        m -= 1
    while factor * (m + 1) ** 2 < limit:
        m += 1
    return m


def primes_around(edge):
    """The largest prime up to edge and the smallest prime above it."""
    under = next(p for p in range(edge, 2, -1) if is_prime(p))
    over = next(p for p in range(edge + 1, 2 * edge) if is_prime(p))
    return under, over


def regime_factors(shape, block):
    """The deep and the per-panel bounds of `_regime`, as multiples of m^2."""
    return 2 * min(shape) + block + 4, block + 2


def boundary_moduli(shape, block):
    """(prime, regime) just under and just over every regime limit.

    The limits, in the order `_regime` tries them: the deep and the
    per-panel magnitude bounds against the exact float64 range.  Under a
    limit the regime it guards runs; just over it, the next one.
    """
    out = []
    for i, factor in enumerate(regime_factors(shape, block)):
        under, over = primes_around(largest_fitting(factor, _F64_EXACT))
        out += [(under, REGIMES[i]), (over, REGIMES[i + 1])]
    return out


def old_int64_moduli(shape, block):
    """Primes just under and just over the former int64 deep and
    per-panel limits; all of them now run the eager regime."""
    out = []
    for factor in regime_factors(shape, block):
        out += primes_around(largest_fitting(factor, I64_MAX))
    return out


def structured_matrix(rows, cols, m, rng):
    """Random entries with zero columns and rows that repeat others.

    Columns 4..7 are a whole panel without a pivot when the block is 4.
    """
    a = rng.integers(0, m, (rows, cols))
    a[:, [0, cols // 2, cols - 3]] = 0
    a[:, 4:8] = 0
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


def low_rank_matrix(rows, cols, m, rng, inner):
    """A product of random rows x inner and inner x cols factors mod m."""
    left = rng.integers(0, m, (rows, inner)).astype(object)
    right = rng.integers(0, m, (inner, cols)).astype(object)
    return (left @ right % m).astype(np.int64)


def assert_row_echelon(res):
    """`upper` is reduced, zero left of each pivot and 1 at it."""
    upper = res.upper
    m = res.modulus.value
    assert upper.shape == (res.rank, res.cols)
    assert upper.min(initial=0) >= 0 and upper.max(initial=0) < m
    for k, c in enumerate(res.pivot_cols):
        assert not upper[k, :c].any()
        assert upper[k, c] == 1


# (rows, cols): more rows than columns and more columns than rows, each
# wider than the largest block so every block size gives several panels
SHAPES = ((90, 70), (60, 110))
BLOCK_CASES = [(shape, block) for shape in SHAPES for block in (4, 16, 64)]


class TestEliminationRegimes:
    @pytest.mark.parametrize("shape,block", BLOCK_CASES)
    def test_boundary_moduli_reach_every_regime(self, shape, block):
        cases = boundary_moduli(shape, block)
        cases += [(m, "eager") for m in old_int64_moduli(shape, block)]
        for m, expected in cases:
            assert _regime(shape, m, block) == expected, m
        assert {name for _, name in cases} == set(REGIMES)

    @pytest.mark.parametrize("shape,block", BLOCK_CASES)
    def test_blocked_matches_naive_at_every_limit(self, shape, block):
        rows, cols = shape
        rng = np.random.default_rng(rows * cols + block)
        moduli = [m for m, _ in boundary_moduli(shape, block)]
        moduli += old_int64_moduli(shape, block) + [P31]
        for m in moduli:
            modulus = PrimeModulus(m)
            for data in (
                structured_matrix(rows, cols, m, rng),
                low_rank_matrix(rows, cols, m, rng, min(shape) // 2),
                extreme_matrix(rows, cols, m, rng),
            ):
                mat = FfMatrix(data, modulus)
                naive = mat.rref(naive=True)
                fast = mat.rref(block=block)
                assert fast.pivot_cols == naive.pivot_cols
                assert_row_echelon(fast)
                # forces the lazy Gauss-Jordan back pass
                assert fast.echelon == naive.echelon
                assert np.array_equal(fast.x_block(), naive.x_block())
                f0 = rng.integers(0, m, cols - naive.rank)
                normal = null_vector(fast, f0)
                assert np.array_equal(normal, null_vector(naive, f0))
                pivots = list(naive.pivot_cols)
                minus_xf0 = -(naive.x_block().astype(object) @ f0.astype(object)) % m
                assert normal[pivots].tolist() == minus_xf0.tolist()


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(min_value=1, max_value=20),
    cols=st.integers(min_value=2, max_value=24),
    block=st.sampled_from((4, 16, 64)),
    m=st.sampled_from(
        (7, 20201) + tuple(m for m, _ in boundary_moduli((20, 24), 16))
    ),
)
def test_null_vector_annihilates(data, rows, cols, block, m):
    inner = data.draw(st.integers(min_value=0, max_value=min(rows, cols - 1)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mat = FfMatrix(low_rank_matrix(rows, cols, m, rng, inner), PrimeModulus(m))
    res = mat.rref(block=block)
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
    assert res.echelon.rref().echelon == res.echelon
    assert mat.rank(naive=True) == res.rank
