"""End-to-end certification pipeline and the operations behind the CLI.

`certify` runs the four-step randomized check (sample points, stack
tangent vectors, cut a normal vector out of the echelon data, rank-test
the contracted curvature form) and packages the outcome as a
certificate.  `verify` replays a certificate's recorded vectors with no
randomness involved.  `rank_table`, `sweep`, and `bench` are the
supporting survey/benchmark operations.
"""

from __future__ import annotations

import csv
import math
import secrets
import time
from dataclasses import dataclass

import numpy as np

from .certificate import (
    Certificate,
    CertificateError,
    load_certificate,
    parse_certificate,
    save_certificate,
)
from .field import PrimeModulus, SeededRng, derive_seed
from .geometry import (
    ChowPoint,
    SamplingStats,
    ambient_dimension,
    cone_dimension,
    expected_hessian_rank,
    expected_tangent_rank,
    hessian_at,
    sample_point,
    terracini_matrix,
)
from .matrix import FfMatrix, null_vector
from .poly import LinearForm, Poly, monomial_basis

DEFAULT_PRIME = 20201
KNOWN_PRIMES = (8191, 20201, 202001)
DEFAULT_RETRIES = 3
DEFAULT_SWEEP_CAP = 40


@dataclass(frozen=True)
class AttemptRecord:
    """Outcome of one randomized attempt, kept for failure reports."""

    attempt: int
    seed: int
    tangent_rank: int
    tangent_expected: int
    hessian_rank: int | None
    hessian_expected: int


class GenericityError(RuntimeError):
    """All attempts drew degenerate configurations.

    This never disproves anything: the check is one-sided, and a failed
    draw only means the random points were unlucky for this modulus.
    """

    def __init__(self, n: int, r: int, prime: int, attempts: list[AttemptRecord]):
        self.n = n
        self.r = r
        self.prime = prime
        self.attempts = attempts
        detail = "; ".join(
            f"attempt {a.attempt} (seed {a.seed}): tangent {a.tangent_rank}/{a.tangent_expected}"
            + (
                f", hessian {a.hessian_rank}/{a.hessian_expected}"
                if a.hessian_rank is not None
                else ""
            )
            for a in attempts
        )
        super().__init__(
            f"no generic configuration found for n={n}, r={r} over F_{prime} "
            f"after {len(attempts)} attempt(s) [{detail}]; this does not "
            f"disprove identifiability"
        )


def _as_modulus(prime) -> PrimeModulus:
    return prime if isinstance(prime, PrimeModulus) else PrimeModulus(int(prime))


def generic_rank(n: int) -> int:
    return math.ceil(ambient_dimension(n) / cone_dimension(n))


def default_r(n: int) -> int:
    """The rank the survey targets: one below the generic rank."""
    return generic_rank(n) - 1


def _point_vectors(point: ChowPoint) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(v) for v in f.coords) for f in point.forms)


def _point_from_vectors(vectors, modulus: PrimeModulus) -> ChowPoint:
    return ChowPoint(tuple(LinearForm(v, modulus) for v in vectors))


def _curvature_rank(
    res, f0, n: int, point: ChowPoint, modulus: PrimeModulus
) -> int:
    """The curvature-form rank of the normal vector with free part f0.

    Cuts the normal vector out of the echelon data, then ranks the
    curvature form it contracts to at `point`.  The step certify records
    and verify replays; it calls the module-level names, so wrappers
    placed on them see every call.
    """
    normal = Poly(monomial_basis(n, 3), null_vector(res, f0), modulus)
    return hessian_at(point, normal).entries.rank()


def certify(
    n: int,
    r: int | None = None,
    prime=DEFAULT_PRIME,
    seed: int | None = None,
    retries: int = DEFAULT_RETRIES,
) -> Certificate:
    """Run the randomized not-r-TWD check and return its certificate.

    Tangent-rank or curvature-rank deficits are genericity failures:
    the run is retried with a derived seed up to `retries` total
    attempts, and every attempt is recorded in the error on exhaustion.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    modulus = _as_modulus(prime)
    if r is None:
        r = default_r(n)
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    dim = ambient_dimension(n)
    texp = expected_tangent_rank(n, r)
    if texp >= dim:
        raise ValueError(
            f"(3n+1) r = {texp} must stay below binom(n+3,3) = {dim}, "
            f"otherwise there is no normal space to test"
        )
    if retries < 1:
        raise ValueError("need at least one attempt")
    if seed is None:
        seed = secrets.randbits(64)
    hexp = expected_hessian_rank(n)
    attempts: list[AttemptRecord] = []
    for attempt in range(retries):
        attempt_seed = seed if attempt == 0 else derive_seed(seed, attempt)
        rng = SeededRng(attempt_seed)
        stats = SamplingStats()
        start = time.perf_counter()
        points = [sample_point(n, modulus, rng, stats) for _ in range(r)]
        tmat = terracini_matrix(points)
        res = tmat.rref()
        trank = res.rank
        if trank != texp:
            attempts.append(
                AttemptRecord(attempt, attempt_seed, trank, texp, None, hexp)
            )
            continue
        f0 = rng.vector(modulus, dim - trank)
        hrank = _curvature_rank(res, f0, n, points[0], modulus)
        elapsed = time.perf_counter() - start
        if hrank != hexp:
            attempts.append(
                AttemptRecord(attempt, attempt_seed, trank, texp, hrank, hexp)
            )
            continue
        return Certificate(
            seed=attempt_seed,
            prime=modulus.value,
            n=n,
            r=r,
            points=tuple(_point_vectors(p) for p in points),
            f0=tuple(int(v) for v in f0),
            tangent_rank=trank,
            tangent_expected=texp,
            hessian_rank=hrank,
            hessian_expected=hexp,
            verdict=True,
            attempt=attempt,
            resamples=stats.resamples,
            seconds=elapsed,
        )
    raise GenericityError(n, r, modulus.value, attempts)


@dataclass
class VerificationReport:
    """Outcome of replaying a certificate's recorded data."""

    ok: bool
    failures: list[str]
    certificate: Certificate | None = None
    tangent_recomputed: int | None = None
    hessian_recomputed: int | None = None

    def summary(self) -> str:
        if self.ok:
            cert = self.certificate
            lines = [
                f"certificate verified: tangent rank "
                f"{cert.tangent_rank} / {cert.tangent_expected}, hessian rank "
                f"{cert.hessian_rank} / {cert.hessian_expected}, verdict "
                f"not-{cert.r}-TWD {'TRUE' if cert.verdict else 'FALSE'}"
            ]
            if cert.verdict and cert.r > 1:
                # the property is downward closed in the number of points
                lines.append(
                    f"(implies not-k-TWD for every k <= {cert.r})"
                )
            return "\n".join(lines)
        return "certificate REJECTED:\n" + "\n".join(
            f"  - {f}" for f in self.failures
        )


def verify_certificate(cert: Certificate) -> VerificationReport:
    """Recompute both ranks from the recorded vectors and compare.

    Deterministic: the recorded seed is ignored; only the vectors
    matter, so certificates produced by other implementations verify as
    long as they follow the format.
    """
    failures: list[str] = []
    modulus = cert.modulus
    texp = expected_tangent_rank(cert.n, cert.r)
    hexp = expected_hessian_rank(cert.n)
    if cert.tangent_expected != texp:
        failures.append(
            f"recorded expected tangent rank {cert.tangent_expected}, "
            f"but (3n+1) r = {texp}"
        )
    if cert.hessian_expected != hexp:
        failures.append(
            f"recorded expected hessian rank {cert.hessian_expected}, "
            f"but 3n = {hexp}"
        )
    try:
        points = [_point_from_vectors(vs, modulus) for vs in cert.points]
    except ValueError as exc:
        failures.append(f"invalid point data: {exc}")
        return VerificationReport(False, failures, cert)
    tmat = terracini_matrix(points)
    res = tmat.rref()
    trank = res.rank
    if trank != cert.tangent_rank:
        failures.append(
            f"tangent rank: recomputed {trank}, certificate records "
            f"{cert.tangent_rank}"
        )
    hrank = None
    if tmat.cols - trank == len(cert.f0):
        hrank = _curvature_rank(res, cert.f0, cert.n, points[0], modulus)
        if hrank != cert.hessian_rank:
            failures.append(
                f"hessian rank: recomputed {hrank}, certificate records "
                f"{cert.hessian_rank}"
            )
        verdict = trank == texp and hrank == hexp
        if verdict != cert.verdict:
            failures.append(
                f"verdict: recomputed {'TRUE' if verdict else 'FALSE'}, "
                f"certificate records {'TRUE' if cert.verdict else 'FALSE'}"
            )
    else:
        failures.append(
            f"free-variable vector has length {len(cert.f0)} but the "
            f"recomputed normal space has dimension {tmat.cols - trank}"
        )
    return VerificationReport(not failures, failures, cert, trank, hrank)


def verify_text(text: str) -> VerificationReport:
    try:
        cert = parse_certificate(text)
    except CertificateError as exc:
        return VerificationReport(False, [f"parse: {exc}"])
    return verify_certificate(cert)


def verify(path) -> VerificationReport:
    """Verify a certificate file; parse problems are reported, not raised."""
    try:
        cert = load_certificate(path)
    except CertificateError as exc:
        return VerificationReport(False, [f"parse: {exc}"])
    except OSError as exc:
        return VerificationReport(False, [f"read: {exc}"])
    return verify_certificate(cert)


@dataclass(frozen=True)
class RankTableRow:
    """Dimension bookkeeping for one n."""

    n: int
    dim_ambient: int
    cone_dim: int
    r_gen: int
    r_identifiable_bound: int
    perfect: bool

    @property
    def reduction_applies(self) -> bool:
        """True when the dimension-count shortcut already covers this n,
        so no certificate is needed."""
        return 2 * self.cone_dim < self.dim_ambient // self.cone_dim


def rank_table(n_min: int, n_max: int) -> list[RankTableRow]:
    if n_min < 1:
        raise ValueError("need n_min >= 1")
    if n_max < n_min:
        raise ValueError("need n_max >= n_min")
    rows = []
    for n in range(n_min, n_max + 1):
        dim = ambient_dimension(n)
        cone = cone_dimension(n)
        rows.append(
            RankTableRow(
                n=n,
                dim_ambient=dim,
                cone_dim=cone,
                r_gen=math.ceil(dim / cone),
                r_identifiable_bound=dim // cone - 1,
                perfect=dim % cone == 0,
            )
        )
    return rows


SWEEP_COLUMNS = (
    "n",
    "r",
    "dim_ambient",
    "tangent_rank",
    "hessian_rank",
    "verdict",
    "seconds",
    "cumulative_seconds",
)


@dataclass(frozen=True)
class SweepRow:
    n: int
    r: int
    dim_ambient: int
    tangent_rank: int
    hessian_rank: int | None
    verdict: bool
    seconds: float
    cumulative_seconds: float


def sweep(
    n_min: int,
    n_max: int,
    prime=DEFAULT_PRIME,
    seed: int | None = None,
    csv_path=None,
    cap: int = DEFAULT_SWEEP_CAP,
    retries: int = DEFAULT_RETRIES,
    progress=None,
) -> list[SweepRow]:
    """Certify r = r_gen - 1 for every n in range; never aborts mid-sweep.

    Each n gets its own derived seed, so cases are independent and the
    whole sweep replays from one recorded seed.  Failures (exhausted
    retries) appear as verdict FALSE rows.
    """
    if n_max > cap:
        raise ValueError(
            f"n_max = {n_max} exceeds the desk-scale cap {cap}; raise the cap "
            f"explicitly if you mean it"
        )
    modulus = _as_modulus(prime)
    if seed is None:
        seed = secrets.randbits(64)
    rows: list[SweepRow] = []
    cumulative = 0.0
    for n in range(max(n_min, 2), n_max + 1):
        r = default_r(n)
        if r < 1:
            continue
        case_seed = derive_seed(seed, n)
        start = time.perf_counter()
        try:
            cert = certify(n, r, modulus, case_seed, retries=retries)
            trank, hrank, verdict = (
                cert.tangent_rank,
                cert.hessian_rank,
                cert.verdict,
            )
        except GenericityError as exc:
            last = exc.attempts[-1]
            trank, hrank, verdict = last.tangent_rank, last.hessian_rank, False
        elapsed = time.perf_counter() - start
        cumulative += elapsed
        row = SweepRow(
            n=n,
            r=r,
            dim_ambient=ambient_dimension(n),
            tangent_rank=trank,
            hessian_rank=hrank,
            verdict=verdict,
            seconds=elapsed,
            cumulative_seconds=cumulative,
        )
        rows.append(row)
        if progress is not None:
            progress(row)
    if csv_path is not None:
        write_sweep_csv(rows, csv_path)
    return rows


def write_sweep_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row.n,
                    row.r,
                    row.dim_ambient,
                    row.tangent_rank,
                    "" if row.hessian_rank is None else row.hessian_rank,
                    "TRUE" if row.verdict else "FALSE",
                    f"{row.seconds:.6f}",
                    f"{row.cumulative_seconds:.6f}",
                ]
            )


@dataclass(frozen=True)
class BenchCase:
    size: int
    rref_naive_seconds: float
    rref_blocked_seconds: float
    mul_naive_seconds: float
    mul_fast_seconds: float
    rank: int
    agree: bool


@dataclass(frozen=True)
class BenchReport:
    cases: list[BenchCase]

    def exponents(self, attr: str) -> list[float]:
        """Observed scaling exponents between consecutive sizes."""
        out = []
        for a, b in zip(self.cases, self.cases[1:]):
            ta, tb = getattr(a, attr), getattr(b, attr)
            if ta <= 0 or tb <= 0:
                out.append(float("nan"))
            else:
                out.append(math.log(tb / ta) / math.log(b.size / a.size))
        return out


def bench(sizes, prime=DEFAULT_PRIME, seed: int = 0) -> BenchReport:
    """Time the elimination and multiplication kernels, both paths.

    Inputs are pseudorandom dense matrices whose last row repeats the
    first, so there is a kernel vector to compare.  Both rref timings
    cover the reduced echelon form.  The two paths must agree exactly
    (reduced form, pivots, kernel vector, product), which is asserted,
    not just reported.
    """
    modulus = _as_modulus(prime)
    gen = np.random.default_rng(seed)
    cases = []
    for size in sizes:
        data = gen.integers(0, modulus.value, (size, size))
        data[-1] = data[0]
        a = FfMatrix(data, modulus)
        b = FfMatrix(gen.integers(0, modulus.value, (size, size)), modulus)
        t0 = time.perf_counter()
        res_naive = a.rref(naive=True)
        t1 = time.perf_counter()
        res_blocked = a.rref()
        res_blocked.echelon  # the reduced form is built on first access
        t2 = time.perf_counter()
        prod_naive = a.matmul(b, naive=True)
        t3 = time.perf_counter()
        prod_fast = a.matmul(b)
        t4 = time.perf_counter()
        agree = (
            res_naive.echelon == res_blocked.echelon
            and res_naive.pivot_cols == res_blocked.pivot_cols
            and prod_naive == prod_fast
        )
        free = size - res_naive.rank
        if agree and free:
            f0 = gen.integers(0, modulus.value, free)
            agree = np.array_equal(
                null_vector(res_naive, f0), null_vector(res_blocked, f0)
            )
        if not agree:
            raise AssertionError(
                f"kernel paths disagree at size {size}; this is a bug"
            )
        cases.append(
            BenchCase(
                size=size,
                rref_naive_seconds=t1 - t0,
                rref_blocked_seconds=t2 - t1,
                mul_naive_seconds=t3 - t2,
                mul_fast_seconds=t4 - t3,
                rank=res_naive.rank,
                agree=agree,
            )
        )
    return BenchReport(cases)


__all__ = [
    "AttemptRecord",
    "BenchCase",
    "BenchReport",
    "Certificate",
    "GenericityError",
    "RankTableRow",
    "SweepRow",
    "SWEEP_COLUMNS",
    "VerificationReport",
    "bench",
    "certify",
    "default_r",
    "generic_rank",
    "rank_table",
    "save_certificate",
    "sweep",
    "verify",
    "verify_certificate",
    "verify_text",
    "write_sweep_csv",
]
