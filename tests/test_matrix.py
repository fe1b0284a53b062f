import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowcert.field import PrimeModulus, is_prime
from chowcert.matrix import (
    _F64_EXACT,
    _I64_MAX,
    FfMatrix,
    _regime,
    kronecker,
    mul_mat,
    null_vector,
    rref,
)

MOD = PrimeModulus(20201)
Z7 = PrimeModulus(7)


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


REGIMES = ("float64 deep", "float64 per-panel", "int64 deep", "int64 per-panel", "eager")


def regime_name(shape, m, block):
    dtype, deep, eager = _regime(shape, m, block)
    if eager:
        return "eager"
    kind = "float64" if dtype is np.float64 else "int64"
    return f"{kind} {'deep' if deep else 'per-panel'}"


def largest_fitting(factor, limit):
    """Largest m with factor * m^2 below limit."""
    m = math.isqrt(limit // factor)
    while factor * m * m >= limit:
        m -= 1
    while factor * (m + 1) ** 2 < limit:
        m += 1
    return m


def boundary_moduli(shape, block):
    """(prime, regime) just under and just over every regime limit.

    The limits, in the order `_regime` tries them: deep and per-panel
    magnitude bounds against the exact float64 range, then against the
    int64 range.  Under a limit the regime it guards runs; just over it,
    the next one.
    """
    short = min(shape)
    deep, panel = 2 * short + block + 4, block + 2
    limits = ((deep, _F64_EXACT), (panel, _F64_EXACT), (deep, _I64_MAX), (panel, _I64_MAX))
    out = []
    for i, (factor, limit) in enumerate(limits):
        edge = largest_fitting(factor, limit)
        under = next(p for p in range(edge, 2, -1) if is_prime(p))
        over = next(p for p in range(edge + 1, 2 * edge) if is_prime(p))
        out += [(under, REGIMES[i]), (over, REGIMES[i + 1])]
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
        for m, expected in cases:
            assert regime_name(shape, m, block) == expected, m
        assert {name for _, name in cases} == set(REGIMES)

    @pytest.mark.parametrize("shape,block", BLOCK_CASES)
    def test_blocked_matches_naive_at_every_limit(self, shape, block):
        rows, cols = shape
        rng = np.random.default_rng(rows * cols + block)
        for m, _ in boundary_moduli(shape, block):
            modulus = PrimeModulus(m)
            for data in (
                structured_matrix(rows, cols, m, rng),
                low_rank_matrix(rows, cols, m, rng, min(shape) // 2),
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
