import dataclasses
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowcert.certificate import (
    Certificate,
    CertificateError,
    format_certificate,
    integrity_digest,
    load_certificate,
    parse_certificate,
    save_certificate,
)

DATA = Path(__file__).parent / "data"
REFERENCE = DATA / "reference_certificate_n5.txt"
REFERENCE_DIGEST = "775ea43533281ecc91a6d57b7d8d5fe9c3dd9b938529b0bacbe1d12b49ae0e07"
# more digits than Python's default int() conversion limit (4300)
HUGE = "9" * 5000


def make_cert(**overrides):
    base = dict(
        seed=42,
        prime=20201,
        n=2,
        r=1,
        points=(((1, 2, 3), (4, 5, 6), (7, 8, 9)),),
        f0=(1, 2, 3),
        tangent_rank=7,
        tangent_expected=7,
        hessian_rank=6,
        hessian_expected=6,
        verdict=True,
        attempt=0,
        resamples=0,
        seconds=0.01,
    )
    base.update(overrides)
    return Certificate(**base)


class TestRoundTrip:
    def test_emit_parse(self):
        cert = make_cert()
        parsed = parse_certificate(format_certificate(cert))
        assert parsed == cert

    def test_file_round_trip(self, tmp_path):
        cert = make_cert()
        path = tmp_path / "cert.txt"
        save_certificate(cert, path)
        assert load_certificate(path) == cert

    def test_without_check_line(self):
        cert = make_cert()
        text = format_certificate(cert, check=False)
        assert "check" not in text
        assert parse_certificate(text) == cert

    def test_padding_ignored_on_parse(self):
        text = (
            "seed = 1\nprime = 7\nn = 2\nr = 1\n"
            "k_0 = [   1 2    3]\nl_0 = [4 5 6]\nm_0 = [1    1 1]\n"
            "f_0 = [0 1 2]\n"
            "tangent_rank = 7/7\nhessian_rank = 6 /6\n"
            "verdict = not-1-TWD TRUE\n"
        )
        cert = parse_certificate(text)
        assert cert.points[0][0] == (1, 2, 3)
        assert cert.tangent_rank == 7

    def test_emit_matches_pinned_grammar(self):
        lines = format_certificate(make_cert()).splitlines()
        assert lines[0].startswith("seed = ")
        assert lines[1] == "prime = 20201"
        assert lines[4].startswith("k_0 = [")
        assert lines[7].startswith("f_0 = [")
        assert lines[8] == "tangent_rank = 7 / 7"
        assert lines[9] == "hessian_rank = 6 / 6"
        assert lines[10] == "verdict = not-1-TWD TRUE"


class TestValidation:
    def test_missing_line(self):
        text = "seed = 1\nprime = 7\nn = 2\n"
        with pytest.raises(CertificateError, match="missing line"):
            parse_certificate(text)

    def test_entry_out_of_range(self):
        cert = make_cert(points=(((1, 2, 30000), (4, 5, 6), (7, 8, 9)),))
        with pytest.raises(CertificateError, match="outside"):
            parse_certificate(format_certificate(cert, check=False))

    def test_composite_prime(self):
        text = format_certificate(make_cert(), check=False).replace(
            "prime = 20201", "prime = 20202"
        )
        with pytest.raises(CertificateError, match="not prime"):
            parse_certificate(text)

    @pytest.mark.parametrize(
        "prime",
        [
            # a strong pseudoprime to every Miller-Rabin witness
            "3317044064679887385961981",
            # prime or not, far too large to test
            "9" * 3999 + "7",
        ],
        ids=["pseudoprime", "4000-digits"],
    )
    def test_prime_beyond_the_decided_range(self, prime):
        text = format_certificate(make_cert(), check=False).replace(
            "prime = 20201", f"prime = {prime}"
        )
        with pytest.raises(CertificateError, match="too large to test") as err:
            parse_certificate(text)
        assert len(str(err.value)) < 200

    def test_wrong_vector_length(self):
        text = format_certificate(make_cert(), check=False).replace(
            "k_0 = [    1     2     3]", "k_0 = [1 2]"
        )
        with pytest.raises(CertificateError, match="expected 3 entries"):
            parse_certificate(text)

    def test_f0_length_tied_to_codim(self):
        cert = make_cert(f0=(1, 2))
        with pytest.raises(CertificateError, match="f_0"):
            parse_certificate(format_certificate(cert, check=False))

    def test_verdict_label_must_match_r(self):
        text = format_certificate(make_cert(), check=False).replace(
            "not-1-TWD", "not-2-TWD"
        )
        with pytest.raises(CertificateError, match="labels r"):
            parse_certificate(text)

    def test_no_normal_space_rejected(self):
        # n=2, r=2: (3n+1) r = 14 >= 10 leaves no free variables
        cert = make_cert(
            r=2,
            points=(
                ((1, 2, 3), (4, 5, 6), (7, 8, 9)),
                ((1, 1, 1), (2, 2, 2), (3, 3, 3)),
            ),
            f0=(),
        )
        with pytest.raises(CertificateError, match="normal directions"):
            parse_certificate(format_certificate(cert, check=False))

    @pytest.mark.parametrize(
        "old,new,key",
        [
            ("tangent_rank = 7 / 7", f"tangent_rank = {HUGE} / 7", "tangent_rank"),
            ("hessian_rank = 6 / 6", f"hessian_rank = 6 / {HUGE}", "hessian_rank"),
            ("not-1-TWD", f"not-{HUGE}-TWD", "verdict"),
        ],
        ids=["tangent-rank", "hessian-rank", "verdict-label"],
    )
    def test_huge_integer_is_a_certificate_error(self, old, new, key):
        text = format_certificate(make_cert()).replace(old, new)
        with pytest.raises(CertificateError, match=f"{key}: not an integer"):
            parse_certificate(text)

    def test_unknown_trailing_line(self):
        text = format_certificate(make_cert(), check=False) + "extra = 1\n"
        with pytest.raises(CertificateError, match="unknown line"):
            parse_certificate(text)

    def test_integrity_mismatch(self):
        cert = make_cert()
        text = format_certificate(cert)
        tampered = text.replace("seed = 42", "seed = 43")
        with pytest.raises(CertificateError, match="integrity"):
            parse_certificate(tampered)

    def test_integrity_covers_every_field(self):
        cert = make_cert()
        digest = integrity_digest(cert)
        for field in (
            "seed",
            "prime",
            "n",
            "r",
            "points",
            "f0",
            "tangent_rank",
            "hessian_rank",
            "verdict",
            "attempt",
        ):
            if field == "points":
                changed = dataclasses.replace(
                    cert, points=(((9, 2, 3), (4, 5, 6), (7, 8, 9)),)
                )
            elif field == "f0":
                changed = dataclasses.replace(cert, f0=(1, 2, 4))
            elif field == "verdict":
                changed = dataclasses.replace(cert, verdict=False)
            else:
                changed = dataclasses.replace(cert, **{field: getattr(cert, field) + 1})
            assert integrity_digest(changed) != digest, field

    def test_seconds_not_in_digest(self):
        cert = make_cert()
        assert integrity_digest(cert) == integrity_digest(
            dataclasses.replace(cert, seconds=99.0)
        )

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("attempt", -7, "attempt: need a count"),
            ("resamples", -2, "resamples: need a count"),
            ("seconds", -1.0, "seconds: need a finite time"),
            ("seconds", float("inf"), "seconds: need a finite time"),
            ("seconds", float("nan"), "seconds: need a finite time"),
        ],
    )
    def test_metadata_out_of_range(self, field, value, match):
        """Metadata the digest covers (attempt, resamples) or not
        (seconds) must still be in range: with a matching `check` line,
        only the parser can refuse it."""
        text = format_certificate(make_cert(**{field: value}))
        assert f"{field} = " in text
        with pytest.raises(CertificateError, match=match):
            parse_certificate(text)

    def test_metadata_zero_accepted(self):
        cert = make_cert(attempt=0, resamples=0, seconds=0.0)
        assert parse_certificate(format_certificate(cert)) == cert


class TestParserRobustness:
    """Edits of the reference fixture that the grammar might read in more
    than one way: each must be rejected or parse to the same payload.
    The expected outcome records the current grammar."""

    @pytest.mark.parametrize(
        "old,new,parses",
        [
            pytest.param("\n", "\r\n", True, id="crlf"),
            pytest.param("\nr = 3\n", "\nr = \u0663\n", True, id="arabic-indic-r"),
            pytest.param("48 / 48", "\u0664\u0668 / 48", True, id="arabic-indic-rank"),
            pytest.param("\nr = 3\n", "\nr = 0_3\n", True, id="underscore-r"),
            pytest.param("[17068 ", "[1_7068 ", True, id="underscore-entry"),
            pytest.param("48 / 48", "4_8 / 48", False, id="underscore-rank"),
            pytest.param("\nn = 5\n", "\nn = 5\nn = 5\n", False, id="duplicated-key"),
            pytest.param(
                "\nn = 5\nr = 3\n", "\nr = 3\nn = 5\n", False, id="reordered-keys"
            ),
            pytest.param("48 / 48", f"{HUGE} / 48", False, id="huge-tangent-rank"),
            pytest.param("15 / 15", f"15 / {HUGE}", False, id="huge-hessian-rank"),
            pytest.param(
                "not-3-TWD", f"not-{HUGE}-TWD", False, id="huge-verdict-label"
            ),
            # n + 1 has 4301 digits, past the limit of str() as of int()
            pytest.param(
                "\nn = 5\n", f"\nn = {'9' * 4300}\n", False, id="n-at-digit-limit"
            ),
        ],
    )
    def test_edit_rejected_or_same_digest(self, old, new, parses):
        text = REFERENCE.read_text()
        assert old in text
        text = text.replace(old, new)
        if parses:
            assert integrity_digest(parse_certificate(text)) == REFERENCE_DIGEST
        else:
            with pytest.raises(CertificateError):
                parse_certificate(text)


# The fixture with its integrity line: an edit that changes a recorded
# integer must now be rejected, whether or not it parses.
SIGNED = REFERENCE.read_text() + f"check = {REFERENCE_DIGEST}\n"
# The zero of several decimal scripts (Arabic-Indic, Devanagari,
# fullwidth, mathematical bold): int() reads each run of ten as 0-9.
DIGIT_ZEROS = (0x660, 0x966, 0xFF10, 0x1D7CE)


def _splice(text, start, end, new):
    return text[:start] + new + text[end:]


@st.composite
def non_ascii_digit(draw, text):
    """One ASCII digit replaced by a digit of another script, of the
    same value or (any decimal digit character) of any value."""
    spots = [i for i, ch in enumerate(text) if ch.isascii() and ch.isdigit()]
    i = draw(st.sampled_from(spots))
    same = chr(draw(st.sampled_from(DIGIT_ZEROS)) + int(text[i]))
    other = draw(st.characters(categories=["Nd"]))
    return _splice(text, i, i + 1, draw(st.sampled_from((same, other))))


@st.composite
def huge_integer(draw, text):
    """One run of digits replaced by a long integer, or padded with
    leading zeros (same value) to around int()'s 4300-digit limit."""
    runs = [m.span() for m in re.finditer(r"[0-9]+", text)]
    start, end = draw(st.sampled_from(runs))
    length = draw(st.sampled_from((19, 20, 40, 4299, 4300, 4301, 6000)))
    digit = draw(st.sampled_from("123456789"))
    padded = "0" * (length - (end - start)) + text[start:end]
    new = draw(st.sampled_from((digit * length, padded)))
    return _splice(text, start, end, new)


@st.composite
def line_ending(draw, text):
    """Every line ending, or one, written as \\r\\n or a bare \\r."""
    lines = text.splitlines(keepends=True)
    ending = draw(st.sampled_from(("\r\n", "\r")))
    if draw(st.booleans()):
        return "".join(line.rstrip("\r\n") + ending for line in lines)
    i = draw(st.integers(0, len(lines) - 1))
    lines[i] = lines[i].rstrip("\r\n") + ending
    return "".join(lines)


@st.composite
def line_edit(draw, text):
    """One line duplicated, two lines swapped, or one line cut short
    (never to nothing, which would drop the line)."""
    lines = text.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(("duplicate", "swap", "truncate")))
    if kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        body = lines[i].rstrip("\r\n")
        cut = draw(st.integers(1, max(1, len(body) - 1)))
        lines[i] = body[:cut] + lines[i][len(body) :]
    return "".join(lines)


EDITS = (non_ascii_digit, huge_integer, line_ending, line_edit)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), count=st.integers(1, 3))
def test_fuzzed_edits_rejected_or_same_digest(data, count):
    """Generated edits of the signed reference fixture: each input must
    raise CertificateError, with a message that does not repeat a long
    token whole, or parse to the fixture's own payload."""
    text = SIGNED
    for _ in range(count):
        text = data.draw(data.draw(st.sampled_from(EDITS))(text))
    try:
        cert = parse_certificate(text)
    except CertificateError as exc:
        assert len(str(exc)) < 200
        return
    assert integrity_digest(cert) == REFERENCE_DIGEST


class TestReferenceFixture:
    def test_parses(self):
        cert = load_certificate(REFERENCE)
        assert cert.seed == 1591688259
        assert cert.prime == 20201
        assert (cert.n, cert.r) == (5, 3)
        assert cert.points[0][0] == (17068, 9508, 8836, 2681, 14273, 2196)
        assert cert.points[2][2] == (3018, 609, 15188, 18700, 1096, 13016)
        assert cert.f0 == (5257, 5355, 19748, 3457, 1773, 19861, 15532, 19684)
        assert cert.codim == 8
        assert cert.verdict is True
