"""Reading and writing the line-oriented certificate format.

A certificate is a self-contained record of one not-r-TWD check: the
parameters, every sampled vector, the free-variable vector, both ranks
(observed / expected), and the verdict.  The deterministic replay of the
recorded vectors is what constitutes the proof, so the format is pinned
exactly:

    seed = <u64>
    prime = <int>
    n = <int>
    r = <int>
    k_0 = [<int> ...]          (n+1 entries; likewise l_0, m_0, k_1, ...)
    ...
    f_0 = [<int> ...]          (c = binom(n+3,3) - (3n+1) r entries)
    tangent_rank = <int> / <int>
    hessian_rank = <int> / <int>
    verdict = not-<r>-TWD <TRUE|FALSE>

Vectors are space-separated decimal; alignment padding is allowed on
emit and ignored on parse.  Emitted files append metadata lines
(`attempt`, optional `resamples`, `seconds`) and an integrity line
`check = <sha256>` over the canonical payload, so that any edit of a
recorded integer is detectable.  The integrity line is optional on
parse: certificates transcribed from other tools verify without one.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, replace

from .field import MASK64, PRIMALITY_BOUND, PrimeModulus

_VECTOR_RE = re.compile(r"^\[(.*)\]$")
_VERDICT_RE = re.compile(r"^not-(\d+)-TWD (TRUE|FALSE)$")
_RANK_RE = re.compile(r"^(\d+)\s*/\s*(\d+)$")


class CertificateError(ValueError):
    """A certificate file is malformed, out of domain, or fails integrity."""


# Characters of an offending value that an error message repeats.
_ECHO = 40


def _echo(value) -> str:
    """`value` for an error message, so a hostile line cannot flood the
    report: a string's repr, cut at `_ECHO` characters and followed by
    its length when longer; an integer's digits, or its size in bits
    when longer (past int()'s digit limit it has no decimal form)."""
    if isinstance(value, int):
        bits = value.bit_length()
        # 3 * _ECHO bits is at most 37 digits
        return str(value) if bits <= 3 * _ECHO else f"<{bits}-bit integer>"
    text = repr(value)
    if len(text) <= _ECHO:
        return text
    return f"{text[:_ECHO]}... ({len(value)} characters)"


@dataclass(frozen=True)
class Certificate:
    """Parsed or freshly generated certificate data."""

    seed: int
    prime: int
    n: int
    r: int
    points: tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]
    f0: tuple[int, ...]
    tangent_rank: int
    tangent_expected: int
    hessian_rank: int
    hessian_expected: int
    verdict: bool
    attempt: int = 0
    resamples: int = 0
    seconds: float | None = None

    @property
    def modulus(self) -> PrimeModulus:
        return PrimeModulus(self.prime)

    @property
    def ambient_dim(self) -> int:
        return math.comb(self.n + 3, 3)

    @property
    def codim(self) -> int:
        return self.ambient_dim - (3 * self.n + 1) * self.r


def _canonical_payload(cert: Certificate) -> str:
    """Padding-free serialization of every recorded integer, for hashing."""
    lines = [
        f"seed={cert.seed}",
        f"prime={cert.prime}",
        f"n={cert.n}",
        f"r={cert.r}",
    ]
    for j, (k, l, mvec) in enumerate(cert.points):
        for name, vec in (("k", k), ("l", l), ("m", mvec)):
            lines.append(f"{name}_{j}=[{' '.join(str(v) for v in vec)}]")
    lines.append(f"f_0=[{' '.join(str(v) for v in cert.f0)}]")
    lines.append(f"tangent_rank={cert.tangent_rank}/{cert.tangent_expected}")
    lines.append(f"hessian_rank={cert.hessian_rank}/{cert.hessian_expected}")
    lines.append(
        f"verdict=not-{cert.r}-TWD {'TRUE' if cert.verdict else 'FALSE'}"
    )
    lines.append(f"attempt={cert.attempt}")
    lines.append(f"resamples={cert.resamples}")
    return "\n".join(lines)


def integrity_digest(cert: Certificate) -> str:
    return hashlib.sha256(_canonical_payload(cert).encode()).hexdigest()


def format_certificate(cert: Certificate, check: bool = True) -> str:
    """Emit the pinned text format, vectors padded like the tool output."""
    width = len(str(cert.prime - 1))

    def vec(values) -> str:
        return "[" + " ".join(str(v).rjust(width) for v in values) + "]"

    lines = [
        f"seed = {cert.seed}",
        f"prime = {cert.prime}",
        f"n = {cert.n}",
        f"r = {cert.r}",
    ]
    for j, (k, l, mvec) in enumerate(cert.points):
        lines.append(f"k_{j} = {vec(k)}")
        lines.append(f"l_{j} = {vec(l)}")
        lines.append(f"m_{j} = {vec(mvec)}")
    lines.append(f"f_0 = {vec(cert.f0)}")
    lines.append(f"tangent_rank = {cert.tangent_rank} / {cert.tangent_expected}")
    lines.append(f"hessian_rank = {cert.hessian_rank} / {cert.hessian_expected}")
    lines.append(
        f"verdict = not-{cert.r}-TWD {'TRUE' if cert.verdict else 'FALSE'}"
    )
    lines.append(f"attempt = {cert.attempt}")
    if cert.resamples:
        lines.append(f"resamples = {cert.resamples}")
    if cert.seconds is not None:
        lines.append(f"seconds = {cert.seconds:.6f}")
    if check:
        lines.append(f"check = {integrity_digest(cert)}")
    return "\n".join(lines) + "\n"


def _parse_int(raw: str, what: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise CertificateError(f"{what}: not an integer: {_echo(raw)}") from None


def _parse_count(raw: str, what: str) -> int:
    """A metadata count: an integer >= 0."""
    value = _parse_int(raw, what)
    if value < 0:
        raise CertificateError(f"{what}: need a count >= 0, got {_echo(value)}")
    return value


def _parse_vector(raw: str, what: str, length: int, prime: int) -> tuple[int, ...]:
    match = _VECTOR_RE.match(raw.strip())
    if not match:
        raise CertificateError(
            f"{what}: expected a bracketed vector, got {_echo(raw)}"
        )
    values = tuple(_parse_int(tok, what) for tok in match.group(1).split())
    if len(values) != length:
        raise CertificateError(
            f"{what}: expected {_echo(length)} entries, found {len(values)}"
        )
    for v in values:
        if not 0 <= v < prime:
            raise CertificateError(f"{what}: entry {_echo(v)} outside [0, {prime})")
    return values


def parse_certificate(text: str) -> Certificate:
    """Parse and validate a certificate; raises CertificateError on any
    structural, domain, or integrity problem."""
    pairs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if "=" not in line:
            raise CertificateError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        pairs.append((key.strip(), value.strip()))

    pos = 0

    def take(expected_key: str) -> str:
        nonlocal pos
        if pos >= len(pairs):
            raise CertificateError(f"missing line: {expected_key}")
        key, value = pairs[pos]
        if key != expected_key:
            raise CertificateError(
                f"expected line {expected_key!r}, found {_echo(key)}"
            )
        pos += 1
        return value

    seed = _parse_int(take("seed"), "seed")
    if not 0 <= seed <= MASK64:
        raise CertificateError(f"seed {_echo(seed)} does not fit in 64 bits")
    prime = _parse_int(take("prime"), "prime")
    try:
        PrimeModulus(prime)
    except ValueError:
        raise CertificateError(
            f"prime: {_echo(prime)} is not prime, or too large to test "
            f"(need a prime >= 3 and below {PRIMALITY_BOUND})"
        ) from None
    n = _parse_int(take("n"), "n")
    if n < 2:
        raise CertificateError(f"need n >= 2, got {_echo(n)}")
    r = _parse_int(take("r"), "r")
    if r < 1:
        raise CertificateError(f"need r >= 1, got {_echo(r)}")

    points = []
    for j in range(r):
        triple = tuple(
            _parse_vector(take(f"{name}_{j}"), f"{name}_{j}", n + 1, prime)
            for name in ("k", "l", "m")
        )
        points.append(triple)

    codim = math.comb(n + 3, 3) - (3 * n + 1) * r
    if codim < 1:
        raise CertificateError(
            f"(3n+1) r = {(3 * n + 1) * r} leaves no normal directions in"
            f" dimension {math.comb(n + 3, 3)}"
        )
    f0 = _parse_vector(take("f_0"), "f_0", codim, prime)

    ranks = {}
    for key in ("tangent_rank", "hessian_rank"):
        match = _RANK_RE.match(take(key))
        if not match:
            raise CertificateError(f"{key}: expected '<observed> / <expected>'")
        ranks[key] = (
            _parse_int(match.group(1), key),
            _parse_int(match.group(2), key),
        )

    verdict_raw = take("verdict")
    match = _VERDICT_RE.match(verdict_raw)
    if not match:
        raise CertificateError(f"verdict: unrecognized value {_echo(verdict_raw)}")
    label = _parse_int(match.group(1), "verdict")
    if label != r:
        raise CertificateError(
            f"verdict labels r = {_echo(label)} but the certificate has r = {r}"
        )
    verdict = match.group(2) == "TRUE"

    attempt = 0
    resamples = 0
    seconds = None
    check = None
    seen = set()
    while pos < len(pairs):
        key, value = pairs[pos]
        pos += 1
        if key in seen:
            raise CertificateError(f"duplicate metadata line: {_echo(key)}")
        seen.add(key)
        if key == "attempt":
            attempt = _parse_count(value, "attempt")
        elif key == "resamples":
            resamples = _parse_count(value, "resamples")
        elif key == "seconds":
            try:
                seconds = float(value)
            except ValueError:
                raise CertificateError(
                    f"seconds: not a number: {_echo(value)}"
                ) from None
            if not (math.isfinite(seconds) and seconds >= 0):
                raise CertificateError(
                    f"seconds: need a finite time >= 0, got {_echo(value)}"
                )
        elif key == "check":
            check = value
        else:
            raise CertificateError(f"unknown line: {_echo(key)}")

    cert = Certificate(
        seed=seed,
        prime=prime,
        n=n,
        r=r,
        points=tuple(points),
        f0=f0,
        tangent_rank=ranks["tangent_rank"][0],
        tangent_expected=ranks["tangent_rank"][1],
        hessian_rank=ranks["hessian_rank"][0],
        hessian_expected=ranks["hessian_rank"][1],
        verdict=verdict,
        attempt=attempt,
        resamples=resamples,
        seconds=seconds,
    )
    if check is not None and check != integrity_digest(cert):
        raise CertificateError(
            "integrity check failed: recorded digest does not match content"
        )
    return cert


# Bytes a certificate file may hold: about 30 times the largest one any
# n <= 102 writes, 2.09 MB at prime 2^31 - 1 and r = 610.  A longer file
# (or a device or pipe that never ends) is refused after this many bytes
# and one more are read, never read whole.
MAX_CERTIFICATE_BYTES = 64 << 20


def load_certificate(path) -> Certificate:
    with open(path, "rb") as fh:
        data = fh.read(MAX_CERTIFICATE_BYTES + 1)
    if len(data) > MAX_CERTIFICATE_BYTES:
        raise CertificateError(
            f"file longer than {MAX_CERTIFICATE_BYTES} bytes, the most a "
            "certificate may hold"
        )
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CertificateError(
            f"not UTF-8 text: invalid byte at offset {exc.start}"
        ) from None
    return parse_certificate(text)


def save_certificate(cert: Certificate, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_certificate(cert))


def strip_timing(cert: Certificate) -> Certificate:
    """Timing is not part of the proof; drop it for comparisons."""
    return replace(cert, seconds=None)
