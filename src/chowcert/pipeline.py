"""End-to-end certification pipeline and the operations behind the CLI.

`certify` runs the four-step randomized check (sample points, stack
tangent vectors, cut a normal vector out of the echelon data, rank-test
the contracted curvature form) and packages the outcome as a
certificate.  `verify` replays a certificate's recorded vectors with no
randomness involved.  `rank_table` and `sweep` are the supporting survey
operations.
"""

from __future__ import annotations

import csv
import math
import os
import secrets
import time
from dataclasses import dataclass

from .certificate import (
    Certificate,
    CertificateError,
    _echo,
    load_certificate,
    parse_certificate,
    save_certificate,
)
from .field import MAX_KERNEL_MODULUS, PrimeModulus, SeededRng, derive_seed
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
from .matrix import null_vector
from .poly import LinearForm, Poly, monomial_basis

DEFAULT_PRIME = 20201
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


def _ranks(points: list[ChowPoint], f0) -> tuple[int, int | None]:
    """The tangent rank at `points`, and the curvature rank of the
    normal vector with free part f0, or None when f0's length is not the
    dimension of the normal space.

    The replay that certify records and verify repeats, the Hessian
    criterion of Chiantini, Ottaviani and Vannieuwenhoven: eliminate the
    Terracini matrix, cut the normal vector out of its echelon data,
    and rank the curvature form it contracts to at the first point.  It
    calls the module-level names, so wrappers placed on them see every
    call.
    """
    n, modulus = points[0].n, points[0].modulus
    res = terracini_matrix(points).rref()
    if res.cols - res.rank != len(f0):
        return res.rank, None
    normal = Poly(monomial_basis(n, 3), null_vector(res, f0), modulus)
    return res.rank, hessian_at(points[0], normal).entries.rank()


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
    _check_memory(n, r)
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
        f0 = rng.vector(modulus, dim - texp)
        trank, hrank = _ranks(points, f0)
        elapsed = time.perf_counter() - start
        if (trank, hrank) != (texp, hexp):
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


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not say."""
    try:
        pages = os.sysconf("SC_PHYS_PAGES")
        page = os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * page if pages > 0 and page > 0 else None


def _check_memory(n: int, r: int) -> None:
    """Refuse an (n, r) run whose Terracini matrix, as one 8-byte array,
    exceeds physical memory, before anything is built.  The split
    elimination holds D', one tile of C rows on X's columns and the
    operands every tile reuses, 15 to 19% of that at generic points,
    n = 30 to 60; the bound stays the whole matrix because a replayed
    certificate's points are untrusted, and at degenerate points D'
    itself can approach the whole matrix's size."""
    rows, cols = 3 * (n + 1) * r, ambient_dimension(n)
    need = rows * cols * 8
    have = _physical_memory()
    if have is not None and need > have:
        raise ValueError(
            f"n = {n}, r = {r}: the {rows} x {cols} Terracini matrix takes "
            f"{need} bytes as one 8-byte array, more than the {have} bytes "
            "of physical memory"
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
            f"recorded expected tangent rank {_echo(cert.tangent_expected)}, "
            f"but (3n+1) r = {texp}"
        )
    if cert.hessian_expected != hexp:
        failures.append(
            f"recorded expected hessian rank {_echo(cert.hessian_expected)}, "
            f"but 3n = {hexp}"
        )
    if cert.prime >= MAX_KERNEL_MODULUS:
        # the replay's int64 products would overflow, so nothing is built
        failures.append(
            f"prime {_echo(cert.prime)} cannot be replayed: matrix kernels "
            f"support moduli below 2^31"
        )
        return VerificationReport(False, failures, cert)
    try:
        _check_memory(cert.n, cert.r)
    except ValueError as exc:
        failures.append(f"replay refused: {exc}")
        return VerificationReport(False, failures, cert)
    try:
        points = [_point_from_vectors(vs, modulus) for vs in cert.points]
    except ValueError as exc:
        failures.append(f"invalid point data: {exc}")
        return VerificationReport(False, failures, cert)
    trank, hrank = _ranks(points, cert.f0)
    if trank != cert.tangent_rank:
        failures.append(
            f"tangent rank: recomputed {trank}, certificate records "
            f"{_echo(cert.tangent_rank)}"
        )
    if hrank is None:
        failures.append(
            f"free-variable vector has length {len(cert.f0)} but the recomputed "
            f"normal space has dimension {ambient_dimension(cert.n) - trank}"
        )
    else:
        if hrank != cert.hessian_rank:
            failures.append(
                f"hessian rank: recomputed {hrank}, certificate records "
                f"{_echo(cert.hessian_rank)}"
            )
        verdict = trank == texp and hrank == hexp
        if verdict != cert.verdict:
            failures.append(
                f"verdict: recomputed {'TRUE' if verdict else 'FALSE'}, "
                f"certificate records {'TRUE' if cert.verdict else 'FALSE'}"
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
    retries) appear as verdict FALSE rows.  A range with no n >= 2 in it
    is an error, not an empty success.
    """
    cases = range(max(n_min, 2), n_max + 1)
    if not cases:
        raise ValueError(
            f"no case to certify for n in [{n_min}, {n_max}]: need "
            f"n_max >= max(n_min, 2)"
        )
    if n_max > cap:
        raise ValueError(
            f"n_max = {n_max} exceeds the desk-scale cap {cap}; raise the cap "
            f"explicitly if you mean it"
        )
    modulus = _as_modulus(prime)
    # the largest case needs the largest array: refused before the first
    _check_memory(n_max, default_r(n_max))
    if seed is None:
        seed = secrets.randbits(64)
    rows: list[SweepRow] = []
    cumulative = 0.0
    for n in cases:
        # r >= 1 for every n >= 2: binom(n+3, 3) > 3n + 1
        r = default_r(n)
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


__all__ = [
    "AttemptRecord",
    "Certificate",
    "GenericityError",
    "RankTableRow",
    "SweepRow",
    "SWEEP_COLUMNS",
    "VerificationReport",
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
