import csv
import dataclasses
import tracemalloc
from pathlib import Path

import pytest

from chowcert.certificate import (
    format_certificate,
    integrity_digest,
    parse_certificate,
)
from chowcert.field import PrimeModulus, SeededRng, derive_seed
from chowcert.geometry import sample_point, terracini_matrix
from chowcert.matrix import FfMatrix
from chowcert.pipeline import (
    DEFAULT_PRIME,
    GenericityError,
    _point_from_vectors,
    certify,
    default_r,
    generic_rank,
    rank_table,
    sweep,
    verify,
    verify_certificate,
    verify_text,
)

DATA = Path(__file__).parent / "data"
REFERENCE = DATA / "reference_certificate_n5.txt"


class TestCertify:
    def test_smallest_case(self):
        cert = certify(2, 1, seed=7)
        assert cert.tangent_rank == cert.tangent_expected == 7
        assert cert.hessian_rank == cert.hessian_expected == 6
        assert cert.verdict is True
        assert cert.attempt == 0

    def test_replay_is_identical(self):
        a = certify(4, 2, seed=123)
        b = certify(4, 2, seed=123)
        assert dataclasses.replace(a, seconds=None) == dataclasses.replace(
            b, seconds=None
        )

    def test_r_defaults_to_generic_minus_one(self):
        cert = certify(4, seed=5)
        assert cert.r == default_r(4) == generic_rank(4) - 1

    def test_precondition_r_too_large(self):
        # n=2: 7r >= 10 already at r=2
        with pytest.raises(ValueError, match="normal space"):
            certify(2, 2, seed=1)

    def test_precondition_small_n(self):
        with pytest.raises(ValueError):
            certify(1, 1, seed=1)

    def test_other_primes(self):
        for prime in (8191, 202001):
            cert = certify(2, 1, prime, seed=11)
            assert cert.verdict is True
            assert cert.prime == prime

    def test_round_trip_through_text(self):
        cert = certify(5, 3, seed=17)
        report = verify_text(format_certificate(cert))
        assert report.ok, report.failures


class TestPinnedCertificates:
    """Certificate payloads pinned by digest: a kernel change that alters
    a recorded rank, vector or verdict shows here."""

    def test_reference_parameters_at_20201(self):
        # the reference fixture's parameters and seed; the same digest is
        # the benchmark's n=5 gate
        cert = certify(5, 3, 20201, seed=1591688259)
        assert integrity_digest(cert) == (
            "1794b8ba1679c68805a8eaf3a10b838b10a0190852a5788c111e160b65fdbad3"
        )

    def test_many_panels_at_20201(self):
        # a 1827x1771 elimination: 28 panels, a row swap at nearly
        # every pivot; digest computed before the balanced reduction
        cert = certify(20, prime=20201, seed=1591688259)
        assert integrity_digest(cert) == (
            "9690b0b8c6040b9297952f55738bce8eec34f2da17dbde2b9d326c8b214b2fc9"
        )

    @pytest.mark.parametrize(
        "prime,digest",
        [
            # the former int64 deep regime
            (30000001, "1d8465b59cedf8a0a8c35d1805a14c4627511bbd1adef86495710824b0855b57"),
            # the former int64 per-panel regime
            (200000033, "67e0525572e5f9ac05e37c47b09a7f2410182e2c82f225b4cd3d566450aed48f"),
        ],
    )
    def test_mid_range_primes(self, prime, digest):
        # both now take the eager regime; the digests were computed when
        # these primes ran the int64 regimes
        cert = certify(8, prime=prime, seed=1591688259)
        assert integrity_digest(cert) == digest

    @pytest.mark.parametrize(
        "n,prime,regime,digest",
        [
            (12, 3000017, "deep", "8dca393cf6e0266762e550295824bf176e9ffea8d761193e6f69ce26ee5052d6"),
            (20, 3000017, "deep", "1a0a413c4ad6c08e9276227bb650bf9827d6f8829d8adc16064fe8d99a97b7f4"),
            # the largest prime a float64 regime once took, whose budget
            # of 264 products now covers no elimination
            (12, 11682149, "eager", "0fc61a4ecb79691281fc0c5748d8be1b81ab8aa37be4ef6e0b5e375f6e55b7d5"),
        ],
    )
    def test_large_float64_primes(self, n, prime, regime, schedule, digest):
        # digests computed when all three ran a former per-panel
        # regime, with 64-column outer panels; at 3000017 the budget
        # holds these matrices whole, at 11682149 it does not, and they
        # run int64: the certificate does not depend on the regime
        cert = certify(n, prime=prime, seed=77)
        assert integrity_digest(cert) == digest
        schedule.assert_kind(regime, prime)

    def test_eager_regime_at_2_31_minus_1(self):
        # m = 2^31 - 1 takes the eager int64 elimination
        cert = certify(8, prime=2**31 - 1, seed=1591688259)
        assert integrity_digest(cert) == (
            "785042ade7050a577c703390a563174ae887d41416b04410c0d045350a643eff"
        )

    @pytest.mark.parametrize(
        "n,prime,digest",
        [
            # the benchmark's certify_n30 shape, 5487 x 5456
            (30, 20201, "d302f024c244a1adc00c1521722578e062993818876635449282bba21ae49d53"),
            (24, 20201, "90544c3c1f49157da2e7fb1d4e8e28ec008804d561184db4b11fffbd80db9479"),
            # the benchmark's certify_p31 shape, in the eager regime
            (16, 2**31 - 1, "c4599eafab63e08c56e61e69cb09677c7288099fdce09902c3c93ced5369fc34"),
        ],
    )
    def test_benchmark_sizes_at_seed_77(self, n, prime, digest, schedule):
        # digests computed with the dense elimination of the whole
        # Terracini matrix; the budget holds these matrices whole, so no
        # value is reduced before it is read
        cert = certify(n, prime=prime, seed=77)
        assert integrity_digest(cert) == digest
        schedule.assert_kind("eager" if prime == 2**31 - 1 else "deep", prime)

    def test_row_swaps_into_later_outer_panels_at_101(self):
        # at prime 101 the elimination of D' moves 8, 12 and 10 rows in
        # its first, third and fourth outer panels, the last two from
        # active rows 512 and 768, so swaps reach the columns right of an
        # outer panel that does not start at row 0; the digest is the one
        # the elimination gave when it replayed each outer panel's swaps
        # there in one permutation
        cert = certify(24, prime=101, seed=77)
        assert integrity_digest(cert) == (
            "b66bb69b64e1a722ef939698bf7d804f6e5d76373eebf29094e0513e9b6515fa"
        )
        assert cert.attempt == 0
        report = verify_certificate(cert)
        assert report.ok, report.failures


class TestVerify:
    def test_reference_certificate(self):
        report = verify(REFERENCE)
        assert report.ok, report.failures
        assert report.certificate.tangent_rank == 48
        assert report.certificate.tangent_expected == 48
        assert report.certificate.hessian_rank == 15
        assert report.certificate.hessian_expected == 15
        assert report.certificate.verdict is True
        assert report.tangent_recomputed == 48
        assert report.hessian_recomputed == 15

    def test_missing_file(self, tmp_path):
        report = verify(tmp_path / "nope.txt")
        assert not report.ok
        assert "read" in report.failures[0]

    def test_corrupt_rank_detected(self):
        text = REFERENCE.read_text().replace(
            "tangent_rank = 48 / 48", "tangent_rank = 47 / 48"
        )
        report = verify_text(text)
        assert not report.ok
        assert any("tangent rank" in f for f in report.failures)

    def test_corrupt_vector_breaks_integrity(self):
        # certificates we emit carry a digest, so any integer edit fails
        cert = certify(2, 1, seed=99)
        text = format_certificate(cert)
        k0 = cert.points[0][0]
        tampered = text.replace(str(k0[1]), str((k0[1] + 1) % cert.prime), 1)
        report = verify_text(tampered)
        assert not report.ok
        assert any("parse" in f for f in report.failures)

    def test_wrong_expected_value_detected(self):
        text = REFERENCE.read_text().replace(
            "hessian_rank = 15 / 15", "hessian_rank = 15 / 16"
        )
        report = verify_text(text)
        assert not report.ok

    def test_reference_f0_yields_exact_kernel_vector(self):
        from chowcert.geometry import terracini_matrix
        from chowcert.matrix import null_vector
        from chowcert.pipeline import _point_from_vectors

        cert = parse_certificate(REFERENCE.read_text())
        modulus = cert.modulus
        points = [_point_from_vectors(vs, modulus) for vs in cert.points]
        tmat = terracini_matrix(points)
        res = tmat.rref()
        assert tmat.cols - res.rank == 8 == len(cert.f0)
        normal = null_vector(res, cert.f0)
        assert not (tmat.data @ normal % cert.prime).any()

    def test_prime_too_large_for_the_kernels(self):
        # 2^61 - 1 is prime and parses (the integrity line, which the
        # parser does not require, is dropped); replaying it would
        # overflow the int64 products, so verify refuses before building
        # anything
        text = format_certificate(certify(2, 1, seed=5))
        text = text.replace("prime = 20201", f"prime = {2**61 - 1}")
        text = "".join(
            ln for ln in text.splitlines(True) if not ln.startswith("check")
        )
        assert parse_certificate(text).prime == 2**61 - 1
        report = verify_text(text)
        assert not report.ok
        assert report.tangent_recomputed is None
        assert any(
            "moduli below 2^31" in f and str(2**61 - 1) in f
            for f in report.failures
        )

    def test_recorded_huge_ranks_are_echoed_short(self):
        # 4000 digits parse (int() allows 4300) once the integrity line,
        # which the parser does not require, is dropped
        huge = "9" * 4000
        text = format_certificate(certify(2, 1, seed=5))
        text = text.replace("7 / 7", f"{huge} / {huge}")
        text = "".join(
            ln for ln in text.splitlines(True) if not ln.startswith("check")
        )
        report = verify_text(text)
        assert not report.ok
        assert len(report.failures) == 2
        assert len(report.summary()) < 300

    def test_refuses_a_working_array_beyond_physical_memory(self, monkeypatch):
        import chowcert.pipeline as pl

        def never_built(points):
            raise AssertionError("the Terracini matrix was built")

        monkeypatch.setattr(pl, "_physical_memory", lambda: 20000)
        monkeypatch.setattr(pl, "terracini_matrix", never_built)
        # n=5, r=3: 54 x 56 entries of 8 bytes
        report = verify(REFERENCE)
        assert not report.ok
        assert report.tangent_recomputed is None
        assert any(
            "54 x 56" in f and "24192 bytes" in f and "20000 bytes" in f
            for f in report.failures
        )

    def test_zero_form_is_invalid_point_data(self):
        cert = certify(2, 1, seed=5)
        k0, l0, m0 = cert.points[0]
        zero = dataclasses.replace(cert, points=(((0,) * len(k0), l0, m0),))
        report = verify_certificate(zero)
        assert not report.ok
        assert report.tangent_recomputed is None
        assert any("invalid point data" in f for f in report.failures)

    def test_equal_points_leave_f0_the_wrong_length(self):
        # two equal points span one tangent space: the normal space is
        # larger than the recorded f_0 fills
        cert = certify(4, 2, seed=5)
        twice = dataclasses.replace(cert, points=(cert.points[0],) * 2)
        report = verify_certificate(twice)
        assert not report.ok
        assert report.tangent_recomputed == 13 < cert.tangent_rank == 26
        assert report.hessian_recomputed is None
        assert any(
            "free-variable vector has length 9" in f and "dimension 22" in f
            for f in report.failures
        )

    def test_recorded_false_verdict_is_consistent(self):
        # a certificate honestly recording a failed check verifies as
        # internally consistent; the verdict stays FALSE
        cert = certify(2, 1, seed=3)
        honest = dataclasses.replace(cert, hessian_rank=5, verdict=False)
        report = verify_certificate(honest)
        assert not report.ok  # recomputed hessian is 6, record says 5
        lying = dataclasses.replace(cert, verdict=False)
        report = verify_certificate(lying)
        assert not report.ok
        assert any("verdict" in f for f in report.failures)


class TestRankTable:
    def test_reference_values(self):
        rows = {row.n: row for row in rank_table(1, 14)}
        assert rows[1].dim_ambient == 4
        assert rows[1].r_gen == 1
        assert rows[1].perfect
        assert rows[3].perfect
        assert rows[13].perfect
        assert not rows[2].perfect
        assert rows[5].dim_ambient == 56
        assert rows[5].cone_dim == 16
        assert rows[5].r_gen == 4
        assert rows[5].r_identifiable_bound == 2

    def test_bound_vs_generic_rank(self):
        for row in rank_table(1, 60):
            if row.perfect:
                assert row.r_identifiable_bound == row.r_gen - 1
            else:
                assert row.r_identifiable_bound == row.r_gen - 2

    def test_reduction_threshold(self):
        rows = rank_table(1, 110)
        first = next(row.n for row in rows if row.reduction_applies)
        assert first == 103

    def test_validation(self):
        with pytest.raises(ValueError):
            rank_table(0, 5)
        with pytest.raises(ValueError):
            rank_table(5, 4)


class TestSweep:
    def test_small_range(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rows = sweep(2, 6, seed=20201, csv_path=out)
        assert [row.n for row in rows] == [2, 3, 4, 5, 6]
        for row in rows:
            assert row.verdict
            assert row.tangent_rank == (3 * row.n + 1) * row.r
            assert row.hessian_rank == 3 * row.n
            assert row.r == default_r(row.n)
        cumulative = [row.cumulative_seconds for row in rows]
        assert cumulative == sorted(cumulative)
        with open(out) as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == [
                "n", "r", "dim_ambient", "tangent_rank", "hessian_rank",
                "verdict", "seconds", "cumulative_seconds",
            ]
            parsed = list(reader)
        assert len(parsed) == 5
        assert parsed[0]["verdict"] == "TRUE"
        assert parsed[3]["n"] == "5"
        assert parsed[3]["r"] == "3"

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            sweep(2, 50, seed=1)
        # raised cap is accepted (range kept tiny here)
        sweep(2, 2, seed=1, cap=50)

    @pytest.mark.parametrize("n_min,n_max", [(5, 3), (2, 1), (0, 1)])
    def test_empty_range_is_an_error(self, n_min, n_max, tmp_path):
        out = tmp_path / "sweep.csv"
        with pytest.raises(ValueError, match="no case"):
            sweep(n_min, n_max, seed=1, csv_path=out)
        assert not out.exists()

    def test_exhausted_case_is_a_false_row(self):
        # at prime 3 and one attempt, both draws are degenerate
        rows = sweep(2, 3, prime=3, seed=0, retries=1)
        assert [
            (r.n, r.tangent_rank, r.hessian_rank, r.verdict) for r in rows
        ] == [(2, 7, 4, False), (3, 10, 8, False)]

    def test_replayable(self):
        a = sweep(2, 4, seed=77)
        b = sweep(2, 4, seed=77)
        assert [(r.n, r.tangent_rank, r.hessian_rank, r.verdict) for r in a] == [
            (r.n, r.tangent_rank, r.hessian_rank, r.verdict) for r in b
        ]


class TestGenericityRetry:
    def test_exhaustion_reports_attempts(self, monkeypatch):
        import chowcert.pipeline as pl

        calls = []
        original = pl.terracini_matrix

        def always_deficient(points):
            calls.append(1)
            real = original(points)
            # zero out a row block: the first point's rows become zero
            data = real.data.copy()
            data[: 3 * (points[0].n + 1)] = 0
            return FfMatrix(data, real.modulus)

        monkeypatch.setattr(pl, "terracini_matrix", always_deficient)
        with pytest.raises(GenericityError) as err:
            pl.certify(2, 1, seed=5, retries=3)
        assert len(err.value.attempts) == 3
        assert "does not disprove" in str(err.value)
        seeds = {a.seed for a in err.value.attempts}
        assert len(seeds) == 3


    def test_retry_after_short_curvature_rank(self):
        # seed 8 at prime 3: the first draw reaches the full tangent rank
        # 7 but curvature rank 2 of 6; the derived seed of attempt 1
        # certifies
        with pytest.raises(GenericityError) as err:
            certify(2, 1, 3, seed=8, retries=1)
        (first,) = err.value.attempts
        assert (first.tangent_rank, first.tangent_expected) == (7, 7)
        assert (first.hessian_rank, first.hessian_expected) == (2, 6)
        assert "hessian 2/6" in str(err.value)
        cert = certify(2, 1, 3, seed=8, retries=3)
        assert cert.attempt == 1
        assert cert.seed == derive_seed(8, 1)
        assert cert.verdict is True
        assert verify_certificate(cert).ok


def traced_peak(run):
    """run() and the peak of the memory it allocated, as tracemalloc saw."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def split_entry_memory(monkeypatch):
    """The memory traced when each split begins (`_split_echelon`), in a
    list that the runs after this call fill."""
    import chowcert.geometry as geo

    entries = []
    split_echelon = geo._split_echelon

    def recorded(*args):
        entries.append(tracemalloc.get_traced_memory()[0])
        return split_echelon(*args)

    monkeypatch.setattr(geo, "_split_echelon", recorded)
    return entries


def split_operands(tmat, monkeypatch):
    """tmat.rref(), and the bytes of the operands that a split of several
    tiles builds once for all of them: the left operands of the X
    update and of the Schur product, each array counted once however
    many products share it."""
    import chowcert.matrix as mx

    # id -> array, each kept alive so that no id is reused
    held = {}
    run_stages = mx._run_stages

    def recorded(xt, dt, stages, *args):
        # several tiles: the stages are a list, read here unconsumed
        assert isinstance(stages, list)
        for _, update, _ in stages:
            held.update((id(left), left) for _, left, _ in update)
        return run_stages(xt, dt, stages, *args)

    with monkeypatch.context() as mp:
        mp.setattr(mx, "_run_stages", recorded)
        res = tmat.rref()
    return res, sum(a.nbytes for a in held.values())


def split_sizes(tmat, split):
    """Bytes of C, of D' and of one tile of C rows (`_C_TILE`), and the
    number of tiles, for a split of `tmat`."""
    import chowcert.matrix as mx

    c = len(split.shifts) * len(split.basis) - split.lead.size
    tiles = -(-c // max(mx._C_TILE_ROWS, mx._C_TILE // (8 * tmat.cols)))
    tile = -(-c // tiles) * tmat.cols * 8
    return c * tmat.cols * 8, c * split.rest.size * 8, tile, tiles


class TestTerraciniMemory:
    """certify and verify write only the split's C rows, straight from
    the quadrics, one tile of C rows at a time: neither the int64
    Terracini matrix nor C is ever held whole."""

    def test_data_never_built(self, monkeypatch):
        import chowcert.pipeline as pl

        built = []
        original = pl.terracini_matrix

        def recording(points):
            built.append(original(points))
            return built[-1]

        monkeypatch.setattr(pl, "terracini_matrix", recording)
        cert = certify(8, seed=11)
        assert verify_certificate(cert).ok
        assert len(built) >= 2
        assert all(t._data is None for t in built)

    def test_peak_near_one_working_array(self, monkeypatch):
        # certify and verify hold D', one tile of C rows on X's columns
        # (`na` of them), the distinct operands every tile reuses, and
        # W' twice (as given and in the working format) with its
        # `reach` table: 15.8 MB at n=24, in 4 tiles, where C and D' are
        # 35.6 MB and the Terracini matrix 70 MB, so the bound fails for
        # C or the whole matrix held at once, or for a tile held at C's
        # full width beside D'.  The 20% covers the temporaries of a
        # tile's products, each the size of the rows it hits (certify
        # peaks 9% above the working set); the memory already held when
        # the split begins (the quadrics, the monomial tables, about
        # 1 MB) is added, not scaled
        n = 24
        entries = split_entry_memory(monkeypatch)
        cert, certify_peak = traced_peak(lambda: certify(n, seed=3))
        certify_entry = max(entries)
        entries.clear()
        report, verify_peak = traced_peak(lambda: verify_certificate(cert))
        assert report.ok
        verify_entry = max(entries)
        points = [_point_from_vectors(vs, cert.modulus) for vs in cert.points]
        tmat = terracini_matrix(points)
        res, operands = split_operands(tmat, monkeypatch)
        c, d, tile, tiles = split_sizes(tmat, res.shifted)
        assert tiles > 1
        x_tile = tile // tmat.cols * res.shifted.lead.size
        basis = 2 * res.shifted.basis.nbytes + res.shifted.reach.nbytes
        working = d + x_tile + operands + basis
        assert c + d > 1.5 * working
        assert certify_peak < 1.2 * working + certify_entry
        assert verify_peak < 1.2 * working + verify_entry

    def test_schur_operands_shared(self, monkeypatch):
        # a Schur operand holds W''s rows of a variable's A rows in the
        # columns of W' that reach `rest`: products for which both are
        # the same share one array.  At n=24 the last 10 of the 25
        # variables shift all of W''s rows and reach `rest` through the
        # same columns
        import chowcert.matrix as mx

        keys, lefts = [], []
        built, run_stages = mx._stages, mx._run_stages

        def recorded_stages(*args):
            for schur, update, spans in built(*args):
                if schur:
                    keys.extend((op[1].tobytes(), op[2].tobytes()) for op in update)
                yield schur, update, spans

        def recorded_run(xt, dt, stages, *args):
            # several tiles: the stages are a list, read here
            # unconsumed; every tile gets the same one, the Schur
            # stage last
            assert isinstance(stages, list) and stages[-1][0]
            if not lefts:
                lefts.extend(left for _, left, _ in stages[-1][1])
            return run_stages(xt, dt, stages, *args)

        monkeypatch.setattr(mx, "_stages", recorded_stages)
        monkeypatch.setattr(mx, "_run_stages", recorded_run)
        certify(24, seed=77)
        assert len(keys) == len(lefts) == 25
        for key, left in zip(keys, lefts):
            for key2, left2 in zip(keys, lefts):
                assert (key == key2) == (left is left2)
        assert len(set(keys)) == len({id(left) for left in lefts}) == 16

    def test_single_tile_peak(self):
        # at n=16 and prime 2^31-1, C fits in one tile: D' and the
        # tile's X columns hold what the whole of C did, and nothing is
        # cached for later tiles.  The peak, 4.8 MB against 3.7 MB of
        # C + D', comes in the Schur product, whose products are split
        # into 16-bit limbs; the X update's, one per variable and level
        # of A, reach 4.4 MB.  Two more copies of D' (1 MB each) held
        # through it would pass the bound
        cert, peak = traced_peak(lambda: certify(16, prime=2**31 - 1, seed=77))
        points = [_point_from_vectors(vs, cert.modulus) for vs in cert.points]
        tmat = terracini_matrix(points)
        c, d, tile, tiles = split_sizes(tmat, tmat.rref().shifted)
        assert tiles == 1 and tile == c
        assert peak < 1.6 * (c + d)

    def test_schur_complement_eliminated_in_place(self, monkeypatch):
        # D' is eliminated in the array the split wrote it into,
        # transposed: inside its elimination, memory grows by the
        # multipliers and the 2 MB row tiles, not by a second D'-sized
        # array.  At n=30 D' is 33 MB, far above those; at n=24 they
        # are half of it
        import chowcert.matrix as mx

        n = 30
        rng = SeededRng(3)
        modulus = PrimeModulus(DEFAULT_PRIME)
        tmat = terracini_matrix(
            [sample_point(n, modulus, rng) for _ in range(default_r(n))]
        )
        calls = []
        original = mx._echelon_blocked

        def measured(a, m, *args):
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = original(a, m, *args)
            calls.append((a.shape, tracemalloc.get_traced_memory()[1] - entry))
            return out

        monkeypatch.setattr(mx, "_echelon_blocked", measured)
        res, _ = traced_peak(tmat.rref)
        # the quadrics W, W's reduction to W', then D'
        assert len(calls) == 3
        shape, growth = calls[-1]
        split = res.shifted
        c_rows = (n + 1) * len(split.basis) - split.lead.size
        assert shape == (split.rest.size, c_rows)
        assert growth < 0.5 * c_rows * split.rest.size * 8
