import numpy as np
import pytest

from chowcert.field import PrimeModulus, SeededRng
from chowcert.geometry import (
    ChowPoint,
    SamplingStats,
    ambient_dimension,
    cone_dimension,
    expected_hessian_rank,
    expected_tangent_rank,
    hessian_at,
    sample_point,
    tangent_basis,
    terracini_matrix,
)
from chowcert.matrix import _OUTER, FfMatrix, _rref_naive, null_vector
from chowcert.pipeline import default_r
from chowcert.poly import LinearForm, Poly, contract, monomial_basis

from oracles import reduced_form, scaling_fiber_directions, shifted_dense

MOD = PrimeModulus(20201)


def unit_form(n, i):
    coords = np.zeros(n + 1, dtype=np.int64)
    coords[i] = 1
    return LinearForm(coords, MOD)


def random_point(n, seed):
    return sample_point(n, MOD, SeededRng(seed))


class TestChowPoint:
    def test_rejects_zero_form(self):
        good = unit_form(2, 0)
        zero = LinearForm([0, 0, 0], MOD)
        with pytest.raises(ValueError):
            ChowPoint((good, good, zero))

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            ChowPoint((unit_form(2, 0), unit_form(2, 1)))

    def test_expand(self):
        p = ChowPoint((unit_form(2, 0), unit_form(2, 1), unit_form(2, 2)))
        cubic = p.expand()
        assert cubic.coeffs[cubic.basis.index_of((1, 1, 1))] == 1
        assert cubic.coeffs.sum() == 1


class TestSamplePoint:
    def test_range_and_determinism(self):
        a = random_point(5, 99)
        b = random_point(5, 99)
        for fa, fb in zip(a.forms, b.forms):
            assert np.array_equal(fa.coords, fb.coords)
            assert fa.coords.min() >= 0 and fa.coords.max() < MOD.value

    def test_distinct_seeds_differ(self):
        a, b = random_point(5, 1), random_point(5, 2)
        assert any(
            not np.array_equal(fa.coords, fb.coords)
            for fa, fb in zip(a.forms, b.forms)
        )

    def test_stats_default_zero(self):
        stats = SamplingStats()
        sample_point(3, MOD, SeededRng(0), stats)
        assert stats.resamples == 0


class TestTangentBasis:
    def test_monomial_point_rank(self):
        # p = x0 x1 x2 at n=2: the 9 tangent vectors span dimension 7 = 3n+1
        p = ChowPoint((unit_form(2, 0), unit_form(2, 1), unit_form(2, 2)))
        mat = terracini_matrix([p])
        assert mat.shape == (9, 10)
        assert mat.rank() == 7

    def test_generic_point_rank(self):
        for n in (2, 3, 5):
            mat = terracini_matrix([random_point(n, 7)])
            assert mat.rank() == cone_dimension(n)

    def test_repeated_form_degenerates(self):
        # triple point x0^3: the span is x_i x0^2, dimension n+1 = 3
        x0 = unit_form(2, 0)
        p = ChowPoint((x0, x0, x0))
        mat = terracini_matrix([p])
        assert mat.rank() == 3

    def test_vector_values(self):
        p = ChowPoint((unit_form(2, 0), unit_form(2, 1), unit_form(2, 2)))
        basis = tangent_basis(p)
        assert len(basis.vectors) == 9
        # slot k=0, variable i=0: x0 * x1 x2
        v = basis.vectors[0]
        assert v.coeffs[v.basis.index_of((1, 1, 1))] == 1
        # slot k=2, variable i=2: x2 * x0 x1
        v = basis.vectors[8]
        assert v.coeffs[v.basis.index_of((1, 1, 1))] == 1
        # slot k=1, variable i=0: x0 * x0 x2 = x0^2 x2
        v = basis.vectors[3]
        assert v.coeffs[v.basis.index_of((2, 0, 1))] == 1


class TestTerraciniMatrix:
    def test_shape_and_order(self):
        points = [random_point(3, s) for s in (1, 2)]
        mat = terracini_matrix(points)
        assert mat.shape == (2 * 3 * 4, ambient_dimension(3))
        single = terracini_matrix([points[1]])
        assert np.array_equal(mat.data[12:], single.data)

    def test_generic_rank_three_points(self):
        points = [random_point(5, s) for s in (11, 12, 13)]
        mat = terracini_matrix(points)
        assert mat.shape == (54, 56)
        assert mat.rank() == expected_tangent_rank(5, 3) == 48

    def test_nondefectivity_sweep(self):
        # generic rank is min(r (3n+1), binom(n+3,3)) for all tested n, r
        for n in (2, 3, 4, 6, 10):
            dim = ambient_dimension(n)
            cone = cone_dimension(n)
            for r in range(1, dim // cone + 2):
                points = [random_point(n, 100 * n + s) for s in range(r)]
                assert terracini_matrix(points).rank() == min(r * cone, dim)


def tangent_rows(points):
    """The Terracini matrix row by row from `tangent_basis`: the oracle
    for the vectorised build."""
    return np.array(
        [vec.coeffs for p in points for vec in tangent_basis(p).vectors]
    )


def oracle_points(n, modulus):
    """Two random points, then one whose forms have zero coordinates
    (a unit form, every other coordinate zeroed) or are all m - 1."""
    m = modulus.value
    rng = SeededRng(1000 * n + m % 1000)
    points = [sample_point(n, modulus, rng) for _ in range(2)]
    unit = np.zeros(n + 1, dtype=np.int64)
    unit[n] = 1
    sparse = rng.vector(modulus, n + 1)
    sparse[::2] = 0
    sparse[1] = 1 + sparse[1] % (m - 1)
    top = np.full(n + 1, m - 1, dtype=np.int64)
    forms = (LinearForm(c, modulus) for c in (unit, sparse, top))
    return points + [ChowPoint(tuple(forms))]


def late_point(n, modulus, rng):
    """A point whose forms vanish on x_0..x_{n/2 - 1}."""
    m = modulus.value
    coords = [rng.vector(modulus, n + 1) for _ in range(3)]
    for c in coords:
        c[: n // 2] = 0
        c[n // 2] = 1 + c[n // 2] % (m - 1)
    return ChowPoint(tuple(LinearForm(c, modulus) for c in coords))


class TestTerraciniOracle:
    @pytest.mark.parametrize("prime", (3, 20201, 2**31 - 1))
    @pytest.mark.parametrize("n", (1, 2, 5, 12))
    def test_equals_stacked_tangent_vectors(self, n, prime):
        points = oracle_points(n, PrimeModulus(prime))
        mat = terracini_matrix(points)
        assert np.array_equal(mat.data, tangent_rows(points))

    @pytest.mark.parametrize("prime", (20201, 2**31 - 1))
    @pytest.mark.parametrize("n", (5, 12))
    def test_forms_with_leading_zeros(self, n, prime):
        """A point whose forms vanish on x_0..x_{n/2 - 1}: its rows start
        far right of a generic point's, and the elimination must still
        agree with the naive one."""
        modulus = PrimeModulus(prime)
        rng = SeededRng(77 * n + prime % 1000)
        points = [late_point(n, modulus, rng), sample_point(n, modulus, rng)]
        mat = terracini_matrix(points)
        assert np.array_equal(mat.data, tangent_rows(points))
        naive = mat.rref(naive=True)
        f0 = rng.vector(modulus, mat.cols - naive.rank)
        fast = mat.rref()
        assert fast.pivot_cols == naive.pivot_cols
        assert reduced_form(fast) == reduced_form(naive)
        assert np.array_equal(null_vector(fast, f0), null_vector(naive, f0))


class TestStreamedBuild:
    """The elimination works from the quadrics: it never builds the int64
    rows, and it must find the pivots and the reduced form of a plain
    `FfMatrix` of the same rows, under every kind of schedule (`Schedule`
    in conftest).  (U is not canonical, and the split has none for the
    whole matrix, so the reduced forms are compared.)"""

    @pytest.mark.parametrize(
        "prime,n,regime",
        [
            (20201, 12, "deep"),
            # the largest prime a float64 regime once took
            (11682149, 13, "eager"),
            (2**31 - 1, 8, "eager"),
            # quadric coefficients vanish often, so rows start late
            (7, 8, "deep"),
        ],
    )
    def test_equals_sorted_int64_matrix(self, prime, n, regime, schedule):
        modulus = PrimeModulus(prime)
        points = oracle_points(n, modulus)
        rng = SeededRng(prime % 1000 + n)
        points += [sample_point(n, modulus, rng) for _ in range(default_r(n) - 3)]
        tmat = terracini_matrix(points)
        streamed = tmat.rref()
        # neither the shape nor the elimination builds the int64 rows
        assert tmat._data is None
        assert not tmat.data.flags.writeable
        plain = FfMatrix(tmat.data, modulus).rref()
        assert plain.shifted is None and streamed.shifted is not None
        assert streamed.pivot_cols == plain.pivot_cols
        assert reduced_form(streamed) == reduced_form(plain)
        schedule.assert_kind(regime, prime)
        if n >= 12:
            # the whole matrix has more than one outer panel
            assert tmat.cols > _OUTER


def split_leads(tmat):
    """The leading column of every row x_i w'_j, row (i, j) at i * rank
    + j, where W' is the naive reduced form of the quadrics."""
    reduced, lm = _rref_naive(tmat._quads, tmat.modulus.value)
    return reduced[: len(lm)], tmat._shifts[:, lm].ravel()


def assert_split_rows(tmat, res):
    """The A rows are one shifted row of W' per distinct leading column,
    in echelon form with unit pivots, and U covers the other columns."""
    rows = res.shifted
    basis, leads = split_leads(tmat)
    assert np.array_equal(rows.basis, basis)
    assert rows.lead.tolist() == sorted(set(leads.tolist()))
    dense = shifted_dense(rows)
    for k, c in enumerate(rows.lead.tolist()):
        assert not dense[k, :c].any() and dense[k, c] == 1
        # row k is x_i w'_j with lead c
        assert leads[rows.var[k] * len(basis) + rows.row[k]] == c
    assert rows.rest.tolist() == sorted(set(range(tmat.cols)) - set(leads.tolist()))
    assert res.upper.shape == (res.rank - rows.lead.size, rows.rest.size)


def assert_split_matches_naive(tmat, seed):
    """Pivots, reduced form and kernel vector of the split elimination
    equal those of the naive one on the int64 rows."""
    m = tmat.modulus.value
    naive = FfMatrix(tmat.data, tmat.modulus).rref(naive=True)
    split = tmat.rref()
    assert_split_rows(tmat, split)
    assert split.pivot_cols == naive.pivot_cols
    assert reduced_form(split) == reduced_form(naive)
    if naive.rank < tmat.cols:
        f0 = np.random.default_rng(seed).integers(0, m, tmat.cols - naive.rank)
        normal = null_vector(split, f0)
        assert np.array_equal(normal, null_vector(naive, f0))
        assert not (tmat.data.astype(object) @ normal.astype(object) % m).any()
    return split


class TestMacaulaySplit:
    """The Terracini matrix eliminated as the Macaulay matrix of its
    quadrics (`matrix._split_echelon`), against the naive elimination
    of its int64 rows."""

    @pytest.mark.parametrize(
        "prime,n,regime",
        [
            # two blocks of A rows, the second one's triangle the identity
            (20201, 12, "deep"),
            # the largest prime a float64 regime once took
            (11682149, 13, "eager"),
            (2**31 - 1, 12, "eager"),
            # quadric coefficients vanish often
            (7, 9, "deep"),
        ],
    )
    def test_regimes(self, prime, n, regime, schedule):
        modulus = PrimeModulus(prime)
        rng = SeededRng(prime % 1000 + n)
        points = [sample_point(n, modulus, rng) for _ in range(default_r(n))]
        tmat = terracini_matrix(points)
        assert_split_matches_naive(tmat, n)
        schedule.assert_kind(regime, prime)
        # several rows x_i w'_j share a leading column: C is not empty
        _, leads = split_leads(tmat)
        assert np.unique(leads, return_counts=True)[1].max() >= 3

    @pytest.mark.parametrize("prime", (3, 7, 20201, 2**31 - 1))
    @pytest.mark.parametrize("n", (1, 2, 5, 12))
    def test_oracle_points(self, n, prime):
        tmat = terracini_matrix(oracle_points(n, PrimeModulus(prime)))
        assert_split_matches_naive(tmat, prime + n)

    @pytest.mark.parametrize("prime", (7, 20201, 2**31 - 1))
    @pytest.mark.parametrize("n", (5, 12))
    def test_forms_with_leading_zeros(self, n, prime):
        modulus = PrimeModulus(prime)
        rng = SeededRng(31 * n + prime % 1000)
        points = [late_point(n, modulus, rng), sample_point(n, modulus, rng)]
        assert_split_matches_naive(terracini_matrix(points), n)

    @pytest.mark.parametrize("prime", (7, 20201, 2**31 - 1))
    @pytest.mark.parametrize("n", (1, 2, 6, 10))
    def test_repeated_point(self, n, prime):
        """A point taken twice: its quadrics repeat, so rank W < 3r."""
        modulus = PrimeModulus(prime)
        rng = SeededRng(n + prime % 1000)
        p, q = (sample_point(n, modulus, rng) for _ in range(2))
        tmat = terracini_matrix([p, q, p])
        res = assert_split_matches_naive(tmat, n)
        assert len(res.shifted.basis) < len(tmat._quads)

    def test_quadrics_left_as_they_are(self):
        """The eager regime works in int64, the quadrics' own dtype: the
        elimination must copy them, not eliminate them in place."""
        modulus = PrimeModulus(2**31 - 1)
        rng = SeededRng(5)
        tmat = terracini_matrix([sample_point(5, modulus, rng) for _ in range(4)])
        quads = tmat._quads.copy()
        first = tmat.rref()
        assert np.array_equal(tmat._quads, quads)
        again = tmat.rref()
        assert again.pivot_cols == first.pivot_cols
        assert np.array_equal(again.upper, first.upper)

    @pytest.mark.parametrize("n", (1, 2))
    def test_smallest_n(self, n):
        rng = SeededRng(n)
        for r in (1, 2, 3):
            points = [sample_point(n, MOD, rng) for _ in range(r)]
            assert_split_matches_naive(terracini_matrix(points), r)


def certified_normal(points):
    mat = terracini_matrix(points)
    res = mat.rref()
    rng = SeededRng(4242)
    f0 = rng.vector(MOD, mat.cols - res.rank)
    n = points[0].n
    return Poly(monomial_basis(n, 3), null_vector(res, f0), MOD)


class TestHessian:
    def test_normal_vector_is_normal(self):
        points = [random_point(4, s) for s in (21, 22)]
        normal = certified_normal(points)
        for p in points:
            for t in tangent_basis(p).vectors:
                assert contract(t, normal).value == 0

    def test_symmetric_zero_diagonal(self):
        points = [random_point(4, s) for s in (31, 32)]
        normal = certified_normal(points)
        h = hessian_at(points[0], normal)
        data = h.entries.data
        assert np.array_equal(data, data.T)
        w = points[0].n + 1
        for k in range(3):
            block = data[k * w : (k + 1) * w, k * w : (k + 1) * w]
            assert not block.any()

    def test_expected_rank_generic(self):
        for n, r in ((2, 1), (3, 1), (4, 2), (5, 3)):
            pts = [random_point(n, 40 + 10 * n + s) for s in range(r)]
            normal = certified_normal(pts)
            h = hessian_at(pts[0], normal)
            assert h.entries.rank() == expected_hessian_rank(n)

    def test_scaling_fiber_in_kernel(self):
        points = [random_point(4, s) for s in (61, 62)]
        normal = certified_normal(points)
        for p in points:
            h = hessian_at(p, normal)
            for direction in scaling_fiber_directions(p):
                assert not (h.entries.data @ direction % MOD.value).any()

    def test_radial_direction_in_kernel(self):
        points = [random_point(3, 71)]
        normal = certified_normal(points)
        p = points[0]
        h = hessian_at(p, normal)
        radial = np.concatenate([f.coords for f in p.forms])
        assert not (h.entries.data @ radial % MOD.value).any()

    def test_normal_vector_validation(self):
        p = random_point(3, 81)
        wrong_degree = Poly.zero(monomial_basis(3, 2), MOD)
        with pytest.raises(ValueError):
            hessian_at(p, wrong_degree)


class TestDimensionHelpers:
    def test_values(self):
        assert cone_dimension(5) == 16
        assert ambient_dimension(5) == 56
        assert ambient_dimension(102) == 187460
        assert expected_tangent_rank(5, 3) == 48
        assert expected_hessian_rank(5) == 15
        assert expected_hessian_rank(2) == 6
        assert expected_hessian_rank(102) == 306

    def test_hessian_rank_requires_n2(self):
        with pytest.raises(ValueError):
            expected_hessian_rank(1)
