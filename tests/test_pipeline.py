import csv
import dataclasses
from pathlib import Path

import pytest

from chowcert.certificate import (
    format_certificate,
    integrity_digest,
    parse_certificate,
)
from chowcert.pipeline import (
    GenericityError,
    bench,
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

    def test_eager_regime_at_2_31_minus_1(self):
        # m = 2^31 - 1 takes the eager int64 elimination
        cert = certify(8, prime=2**31 - 1, seed=1591688259)
        assert integrity_digest(cert) == (
            "785042ade7050a577c703390a563174ae887d41416b04410c0d045350a643eff"
        )


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
            return pl.FfMatrix(data, real.modulus)

        monkeypatch.setattr(pl, "terracini_matrix", always_deficient)
        with pytest.raises(GenericityError) as err:
            pl.certify(2, 1, seed=5, retries=3)
        assert len(err.value.attempts) == 3
        assert "does not disprove" in str(err.value)
        seeds = {a.seed for a in err.value.attempts}
        assert len(seeds) == 3


class TestBench:
    def test_smoke(self):
        report = bench([16, 32])
        assert [case.size for case in report.cases] == [16, 32]
        for case in report.cases:
            assert case.agree
            assert case.rank <= case.size
        assert len(report.exponents("mul_naive_seconds")) == 1
