"""The benchmark's workloads and the correctness checks on their outputs.

Every workload draws its inputs from the run's seed, runs one call of the
operation a user waits for in `call`, and checks each output in `check`,
outside the timed region.  The package is always called through module
attributes (`chowcert.pipeline.certify`, ...) so that the tracer's
wrappers see every call.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


@dataclass
class Gate:
    """Counts checked operations and keeps a line per failed one."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


def expected_ranks(n: int, r: int) -> tuple[int, int]:
    """Tangent rank (3n+1) r and curvature-form rank 3n of a TRUE verdict."""
    return (3 * n + 1) * r, 3 * n


def rank_problems(n, r, verdict, tangent_rank, hessian_rank) -> list[str]:
    texp, hexp = expected_ranks(n, r)
    problems = []
    if not verdict:
        problems.append("verdict is not TRUE")
    if tangent_rank != texp:
        problems.append(f"tangent rank {tangent_rank}, expected {texp}")
    if hessian_rank != hexp:
        problems.append(f"hessian rank {hessian_rank}, expected {hexp}")
    return problems


def verify_problems(expect: str, report, n: int, r: int) -> list[str]:
    """Does a verify_text report show the outcome `expect` calls for?

    genuine: accepted, with both ranks recomputed at their expected values.
    stale_check: rejected by the parser, before any replay.
    wrong_rank: parsed, then rejected by the replay's tangent rank.
    """
    texp, hexp = expected_ranks(n, r)
    if expect == "genuine":
        if report.ok and (report.tangent_recomputed, report.hessian_recomputed) == (
            texp,
            hexp,
        ):
            return []
        return [f"genuine certificate not accepted: {report.failures}"]
    if report.ok:
        return [f"{expect} certificate accepted"]
    if expect == "stale_check":
        if report.tangent_recomputed is None and report.failures[0].startswith(
            "parse: integrity check failed"
        ):
            return []
        return [f"stale check not rejected at parse: {report.failures}"]
    if report.tangent_recomputed == texp and any(
        f.startswith("tangent rank") for f in report.failures
    ):
        return []
    return [f"wrong rank not rejected by the replay: {report.failures}"]


def stale_check(cc, cert) -> str:
    """One f_0 entry edited under the original `check` digest."""
    digest = cc.certificate.integrity_digest(cert)
    f0 = list(cert.f0)
    f0[0] = (f0[0] + 1) % cert.prime
    edited = dataclasses.replace(cert, f0=tuple(f0))
    return cc.certificate.format_certificate(edited, check=False) + f"check = {digest}\n"


def wrong_rank(cc, cert) -> str:
    """`check` line dropped and the tangent rank recorded one short, so
    only a full replay can tell."""
    edited = dataclasses.replace(cert, tangent_rank=cert.tangent_rank - 1)
    return cc.certificate.format_certificate(edited, check=False)


# sha256 payload digest of certify(5, 3, 20201, seed=1591688259), the
# reference certificate's parameters and seed, as produced by the source
# this benchmark was written against.  The reference file itself is not
# reproducible from its seed (its vectors were not drawn by SeededRng), so
# the payload is pinned here: a change that alters certificates shows.
PINNED_N5_DIGEST = "1794b8ba1679c68805a8eaf3a10b838b10a0190852a5788c111e160b65fdbad3"


def check_reference(cc, text: str, gate: Gate) -> None:
    """certify reproduces the pinned payload from the reference's seed; the
    reference replays; tampered copies of it are rejected."""
    ref = cc.certificate.parse_certificate(text)
    cert = cc.pipeline.certify(ref.n, ref.r, ref.prime, ref.seed)
    digest = cc.certificate.integrity_digest(cert)
    gate.record(
        "pinned n=5 payload",
        [] if digest == PINNED_N5_DIGEST else [f"payload digest {digest}"],
    )
    for expect, variant in (
        ("genuine", text),
        ("stale_check", stale_check(cc, ref)),
        ("wrong_rank", wrong_rank(cc, ref)),
    ):
        report = cc.pipeline.verify_text(variant)
        gate.record(f"reference {expect}", verify_problems(expect, report, ref.n, ref.r))


class _Seeded:
    """Per-call 64-bit seeds, drawn in call order from the run's generator."""

    unit = 1  # calls per pass: a timed loop stops only after whole passes

    def prepare(self, cc, rng) -> None:
        self.cc = cc
        self.rng = rng
        self.seeds: list[int] = []

    def input(self, i: int):
        while len(self.seeds) <= i:
            self.seeds.append(self.rng.getrandbits(64))
        return self.seeds[i]

    def timing_kind(self, arg) -> str:
        return self.kind


class CertifyWorkload(_Seeded):
    """One call: certify at (n, prime), then format the certificate text."""

    kind = "certify"

    def __init__(self, n: int, prime: int, trace_calls: int):
        self.n = n
        self.prime = prime
        self.trace_calls = trace_calls

    def call(self, seed):
        try:
            cert = self.cc.pipeline.certify(self.n, prime=self.prime, seed=seed)
        except self.cc.pipeline.GenericityError as exc:
            return exc
        return cert, self.cc.certificate.format_certificate(cert)

    def check(self, seed, out, gate: Gate) -> None:
        what = f"certify n={self.n} prime={self.prime} seed={seed}"
        if isinstance(out, Exception):
            gate.record(what, [str(out)])
            return
        cert, text = out
        problems = rank_problems(
            cert.n, cert.r, cert.verdict, cert.tangent_rank, cert.hessian_rank
        )
        strip = self.cc.certificate.strip_timing
        try:
            parsed = self.cc.certificate.parse_certificate(text)
        except self.cc.certificate.CertificateError as exc:
            problems.append(f"formatted text does not parse: {exc}")
        else:
            if strip(parsed) != strip(cert):
                problems.append("format/parse round trip changed the certificate")
        report = self.cc.pipeline.verify_text(text)
        problems += verify_problems("genuine", report, cert.n, cert.r)
        gate.record(what, problems)

    def key(self, out):
        if isinstance(out, Exception):
            return str(out)
        return self.cc.certificate.strip_timing(out[0])


class SweepWorkload(_Seeded):
    """One call: a whole sweep over n_min..n_max at one prime."""

    kind = "sweep"
    trace_calls = 1

    def __init__(self, n_min: int, n_max: int, prime: int):
        self.n_min = n_min
        self.n_max = n_max
        self.prime = prime

    def call(self, seed):
        return self.cc.pipeline.sweep(
            self.n_min, self.n_max, prime=self.prime, seed=seed
        )

    def check(self, seed, rows, gate: Gate) -> None:
        cases = [row.n for row in rows]
        if cases != list(range(self.n_min, self.n_max + 1)):
            gate.record(f"sweep seed={seed}", [f"cases {cases}"])
        for row in rows:
            gate.record(
                f"sweep n={row.n} seed={seed}",
                rank_problems(
                    row.n, row.r, row.verdict, row.tangent_rank, row.hessian_rank
                ),
            )

    def key(self, rows):
        return [dataclasses.replace(row, seconds=0.0, cumulative_seconds=0.0) for row in rows]


class VerifyWorkload:
    """One call: verify_text on one certificate of a batch built in set-up.

    Each genuine certificate comes with a stale_check copy, and the first
    also with a wrong_rank copy; only the genuine calls make up the timed
    metric.
    """

    kind = "genuine"

    def __init__(self, n: int, prime: int, genuine: int):
        self.n = n
        self.prime = prime
        self.genuine = genuine

    def prepare(self, cc, rng) -> None:
        self.cc = cc
        self.r = cc.pipeline.default_r(self.n)
        self.batch = []
        for i in range(self.genuine):
            cert = cc.pipeline.certify(
                self.n, prime=self.prime, seed=rng.getrandbits(64)
            )
            self.batch += [
                ("genuine", cc.certificate.format_certificate(cert)),
                ("stale_check", stale_check(cc, cert)),
            ]
            # one replay-rejected copy per batch: it costs a full replay,
            # which would otherwise crowd out genuine calls in the window
            if i == 0:
                self.batch.append(("wrong_rank", wrong_rank(cc, cert)))
        self.unit = self.trace_calls = len(self.batch)

    def input(self, i: int):
        return self.batch[i % len(self.batch)]

    def timing_kind(self, item) -> str:
        return item[0]

    def call(self, item):
        return self.cc.pipeline.verify_text(item[1])

    def check(self, item, report, gate: Gate) -> None:
        gate.record(
            f"verify {item[0]} n={self.n}",
            verify_problems(item[0], report, self.n, self.r),
        )

    def key(self, report):
        return report.ok, tuple(report.failures)


WORKLOADS = {
    # 5487 x 5456 Terracini matrix, ~240 MB per copy, larger than a typical
    # L3: one float64 deep-regime elimination dominated by the trailing dgemm
    "certify_n30": lambda: CertifyWorkload(30, 20201, trace_calls=1),
    # 21 cases, every matrix at most 2346 x 2300: per-pivot Python work and
    # per-case fixed costs weigh more than on certify_n30
    "sweep_2_22": lambda: SweepWorkload(2, 22, 20201),
    # the read path: replay genuine certificates, reject tampered ones
    "verify_mixed": lambda: VerifyWorkload(20, 20201, genuine=3),
    # m = 2^31 - 1 takes the eager int64 elimination and the int64
    # _mod_matmul fallback, which no other workload reaches
    "certify_p31": lambda: CertifyWorkload(16, 2**31 - 1, trace_calls=2),
}
