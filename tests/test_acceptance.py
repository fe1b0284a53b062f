"""Acceptance suite: the six exit criteria, one test per criterion.

Every check is exact (integer equality) except the two wall-clock
budgets, which are generous by design.  Each test prints a single
summary line; run with `pytest tests/test_acceptance.py -v -s` to see
them.
"""

import math
import re
import time
from itertools import product
from pathlib import Path

import numpy as np

import chowcert.pipeline as pipeline
from chowcert.certificate import format_certificate, integrity_digest
from chowcert.field import PrimeModulus, SeededRng
from chowcert.geometry import hessian_at, sample_point, terracini_matrix
from chowcert.matrix import FfMatrix, null_vector
from chowcert.pipeline import certify, rank_table, sweep, verify, verify_text
from chowcert.poly import (
    LinearForm,
    Poly,
    contract,
    expand_product,
    monomial_basis,
)
from chowcert.sff import (
    classify_component,
    contraction_value,
    special_normal_form,
    gh_build,
    gh_check,
    sff_component,
    tangent_monomial_indices,
)

from oracles import reduced_form, scaling_fiber_directions

DATA = Path(__file__).parent / "data"
REFERENCE = DATA / "reference_certificate_n5.txt"


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_1_reference_certificate_replay():
    start = time.perf_counter()
    result = verify(REFERENCE)
    elapsed = time.perf_counter() - start
    assert result.ok, result.failures
    cert = result.certificate
    assert (cert.n, cert.r, cert.prime) == (5, 3, 20201)
    assert result.tangent_recomputed == 48
    assert cert.tangent_rank == 48 and cert.tangent_expected == 48
    assert result.hessian_recomputed == 15
    assert cert.hessian_rank == 15 and cert.hessian_expected == 15
    assert cert.verdict is True
    assert elapsed < 1.0, f"verification took {elapsed:.3f}s"
    report(1, f"reference certificate replays 48/48 and 15/15 in {elapsed * 1e3:.1f}ms")


# The check lines of the 29 certificates of sweep(2, 30, seed=20260811),
# n = 2..30 in order: every change to the elimination must leave them
# as they are.
SWEEP_DIGESTS = (
    "d08e7a33c81b0fd8abc34e0ac08ededaabe8e36ed668bc2b93fa1067d14b7360",
    "63269c3afaab3003336c8b476f585f2763430c28ac5221d2c181f7e7690cec17",
    "fca20150a7fa2da271bb6cc69e91a63e12c47fd1a73956028ca698bcceb354d9",
    "c73d8f261f649cbdb2f6b509a1b8d2b75876b1589792e5e00717c6bef0f2dfe1",
    "4ef2c49b7de9537221b367844259a44cf8ec94d6090c02bb0a09b9e93c62aa46",
    "0b4fce34789308d50d798ed0d1afe45c3eed8d7622189e26b6ca83f7481d7388",
    "791daf9f16c729783d621ba68641509a4f8df818683c5f5dee426f257cea4026",
    "7112404cf87f6eb65a4f316ae2ce54f7c31949e2751b4a40594b14e0e5ab7b38",
    "f2ce70e13087478590c23c90cb86066bdbc8ce39f710ce1aca5a0de9cedb2300",
    "000bbadce1a6ff0fb634033a687485b81314d8abeddbe8129e1d2b40dff98a62",
    "98d6057303b36a6443f6b2cbfeef132b3442d193cf0d56cbba890d80871e16e0",
    "aea3487a98c27c890d622485a7546d21268861eab9b1bf402d916171fde91b94",
    "e2713bcb3464ff295872e6f7a29fc5cc84dd67549908b64318f87382776a9dd2",
    "3cf92b921b743bf4610aeb2f3b52d7737a266a1303809553afe2d93c61c1ada0",
    "008925642b5475e99eff3bce8a8d9160e27c28fcedb98cc684781d571af3be03",
    "e37a2160f0d81347fd9339d0732f1d3f0c8823e41f107a8866506ac696802819",
    "fae9a0d8eba80f4ae4ced8d91c78773477766c51ef866088e8f8449255073649",
    "2c28fa08dd86c73715758c905989b78d1e3b49ce6575e204772f96005847ac60",
    "f3b1c24051909d6943bb1185ffe2f321c6d37fb4d009bfc0b1b087219b891c83",
    "4cfe3c39822093f77cf21dc5c88f76e7ea0afed0c8ab8133e27bbf9bd1fb7f1b",
    "456477499fa337a8ac1a8152c1cf9e6e80379a59f0448b80051b9028e72958e9",
    "364e986653caf6d85f43b8ab6a10364b1c10136776c717e94cc78a03b915b301",
    "544dcbac7098161bf863c6466a40c5adaf68cad0bb2ee506f0777ef976938eb9",
    "795f0badf9d2625a541c73682225760b3f18f52ad7c0e2157a82f6ff9687ec68",
    "8fa613fcd1c254ac923d8bca2c8dd96705ddbc87467a64d17d6e4885b30e3a5f",
    "aa7cf1b6d3805dc86de7a42b83613fcc4de684b0bbfba6770979f22873f7dc35",
    "93437a00bc6cf6631e9e4db6c2c18f390b02482c5ef53a845e1fa564023af3e7",
    "82874ec736c8876edce604dee607db9e19a3a66d6d8986537da4738e3fcc2773",
    "acd12f4526a9c9119180db555baebb63f70e9c98dd90226a788aac7bb611c91e",
)


def test_criterion_2_sweep_to_n30(monkeypatch):
    basis = monomial_basis(102, 3)
    assert basis.dim == 187460  # the largest case is touched via indexing only
    exps = [0] * 103
    exps[100] = 3
    assert basis.exponents_of(basis.index_of(exps)) == tuple(exps)

    # the certificates the sweep makes, captured as it makes them
    digests = []

    def recorded(*args, **kwargs):
        cert = certify_case(*args, **kwargs)
        digests.append(integrity_digest(cert))
        return cert

    certify_case = pipeline.certify
    monkeypatch.setattr(pipeline, "certify", recorded)
    start = time.perf_counter()
    rows = sweep(2, 30, prime=20201, seed=20260811)
    elapsed = time.perf_counter() - start
    assert [row.n for row in rows] == list(range(2, 31))
    for row in rows:
        assert row.verdict, f"n={row.n} failed"
        assert row.tangent_rank == (3 * row.n + 1) * row.r, f"n={row.n}"
        assert row.hessian_rank == 3 * row.n, f"n={row.n}"
    assert tuple(digests) == SWEEP_DIGESTS
    assert elapsed < 600, f"sweep took {elapsed:.1f}s"
    report(2, f"29 pinned certificates, all TRUE with full ranks, in {elapsed:.1f}s")


def test_criterion_3_rank_table_to_n103():
    rows = rank_table(1, 103)
    for row in rows:
        assert row.r_gen == math.ceil(
            math.comb(row.n + 3, 3) / (3 * row.n + 1)
        ), f"n={row.n}"
    assert [row.n for row in rows if row.perfect] == [1, 3, 13]
    threshold = [row.n for row in rows if row.reduction_applies]
    assert threshold and threshold[0] == 103
    assert all(not row.reduction_applies for row in rows if row.n < 103)
    report(3, "r_gen exact for n=1..103, perfect cases {1,3,13}, threshold at 103")


def test_criterion_4_closed_form_tables():
    mod = PrimeModulus(20201)
    tuples_checked = 0
    for d, n_range in ((3, range(3, 7)), (4, range(4, 7))):
        for n in n_range:
            normal = special_normal_form(d, n, mod)
            basis = monomial_basis(n, d)
            for idx in tangent_monomial_indices(d, n):
                t = Poly.monomial(basis, basis.exponents_of(idx), mod)
                assert contract(t, normal).value == 0
            for k, l, i, j in product(
                range(d), range(d), range(n + 1), range(n + 1)
            ):
                computed = sff_component(d, n, k, i, l, j, mod)
                case = classify_component(d, n, k, i, l, j, mod)
                assert computed == case.predicted, (d, n, k, i, l, j, case.label)
                got = contract(computed, normal).value
                assert got == contraction_value(d, k, i, l, j), (d, n, k, i, l, j)
                tuples_checked += 1
    gh_cases = 0
    for d in range(3, 7):
        for n in range(d - 1, d + 5):
            rep = gh_check(gh_build(d, n, mod))
            assert rep.assembly_ok, (d, n, rep.mismatches)
            assert rep.g_annihilated and rep.h_annihilated, (d, n)
            assert rep.g_rank == rep.g_order == d * (d - 1), (d, n)
            assert rep.h_rank == rep.h_order == d * (n + 1 - d), (d, n)
            gh_cases += 1
    report(
        4,
        f"{tuples_checked} component tuples match the closed form; "
        f"{gh_cases} structured-block cases pass assembly/spectrum/rank",
    )


class TestCriterion5Properties:
    def test_field_axioms(self):
        rng = np.random.default_rng(1001)
        for p in (7, 8191, 20201, 202001):
            mod = PrimeModulus(p)
            raw = rng.integers(0, p, (10_000, 3))
            for a, b, c in raw:
                x, y, z = mod.element(int(a)), mod.element(int(b)), mod.element(int(c))
                assert (x + y).value == (a + b) % p
                assert ((x + y) + z).value == (x + (y + z)).value
                assert (x * y).value == (y * x).value
                assert ((x * y) * z).value == (x * (y * z)).value
                assert (x * (y + z)).value == (x * y + x * z).value
                if x.value:
                    assert (x * x.inv()).value == 1
        report(5, "field axioms hold on 10^4 triples per prime (part 1/5)")

    def test_rref_and_null_vectors(self):
        rng = np.random.default_rng(1002)
        mod = PrimeModulus(20201)
        for trial in range(100):
            rows = int(rng.integers(1, 101))
            cols = int(rng.integers(1, 151))
            data = rng.integers(0, mod.value, (rows, cols))
            if trial % 4 == 0 and rows >= 3:
                data[rows // 2] = (2 * data[0] + 3 * data[1]) % mod.value
            mat = FfMatrix(data, mod)
            res = mat.rref()
            reduced = reduced_form(res)
            again = reduced.rref()
            assert reduced_form(again) == reduced
            assert again.pivot_cols == res.pivot_cols
            c = cols - res.rank
            if c:
                f0 = rng.integers(0, mod.value, c)
                normal = null_vector(res, f0)
                assert not (mat.data @ normal % mod.value).any()
        report(5, "rref idempotence and kernel annihilation on 100 matrices (2/5)")

    def test_fast_vs_naive_matrix_kernels(self):
        rng = np.random.default_rng(1003)
        mod = PrimeModulus(20201)
        for size in (8, 33, 64, 129, 256):
            a = FfMatrix(rng.integers(0, mod.value, (size, size)), mod)
            b = FfMatrix(rng.integers(0, mod.value, (size, size)), mod)
            assert a.matmul(b) == a.matmul(b, naive=True)
            naive = a.rref(naive=True)
            fast = a.rref()
            assert fast.rank == naive.rank
            assert reduced_form(fast) == reduced_form(naive)
        report(5, "fast and naive kernels agree exactly up to 256x256 (3/5)")

    def test_expand_product_properties(self):
        mod = PrimeModulus(20201)
        rng = SeededRng(1004)
        for _ in range(1000):
            n = 1 + rng.below(5)
            forms = [
                LinearForm(rng.vector(mod, n + 1), mod) for _ in range(4)
            ]
            if any(f.is_zero() for f in forms):
                continue
            a, b, f2, f3 = forms
            base = expand_product([a, f2, f3])
            assert expand_product([f2, a, f3]) == base
            assert expand_product([f3, f2, a]) == base
            apb = LinearForm((a.coords + b.coords) % mod.value, mod)
            assert expand_product([apb, f2, f3]) == base + expand_product(
                [b, f2, f3]
            )
        report(5, "expansion symmetry and multilinearity on 10^3 inputs (4/5)")

    def test_certified_hessian_structure(self):
        mod = PrimeModulus(20201)
        rng = SeededRng(1005)
        cases = 0
        while cases < 100:
            n = 2 + rng.below(4)
            dim = math.comb(n + 3, 3)
            r_max = (dim - 1) // (3 * n + 1)
            r = 1 + rng.below(r_max)
            points = [sample_point(n, mod, rng) for _ in range(r)]
            mat = terracini_matrix(points)
            res = mat.rref()
            if res.rank != (3 * n + 1) * r:
                continue
            f0 = rng.vector(mod, mat.cols - res.rank)
            normal = Poly(monomial_basis(n, 3), null_vector(res, f0), mod)
            h = hessian_at(points[0], normal).entries.data
            assert np.array_equal(h, h.T)
            w = n + 1
            for k in range(3):
                assert not h[k * w : (k + 1) * w, k * w : (k + 1) * w].any()
            for direction in scaling_fiber_directions(points[0]):
                assert not (h @ direction % mod.value).any()
            cases += 1
        report(5, "hessian symmetry/diagonal/kernel on 100 certified runs (5/5)")


def test_criterion_6_tamper_detection():
    cert = certify(5, 3, seed=987654321)
    text = format_certificate(cert)
    assert verify_text(text).ok

    lines = text.splitlines()
    eligible = []  # (line index, token span)
    for li, line in enumerate(lines):
        key = line.split("=")[0].strip()
        if key in ("seconds", "check"):
            continue
        for match in re.finditer(r"\d+", line):
            eligible.append((li, match.span()))
    assert len(eligible) > 75  # all recorded integers are in play

    rng = np.random.default_rng(1006)
    detected = 0
    for trial in range(50):
        li, (a, b) = eligible[int(rng.integers(0, len(eligible)))]
        original = lines[li][a:b]
        while True:
            replacement = str(int(rng.integers(0, 1_000_000)))
            if replacement != original:
                break
        corrupted = list(lines)
        corrupted[li] = lines[li][:a] + replacement + lines[li][b:]
        result = verify_text("\n".join(corrupted) + "\n")
        assert not result.ok, (
            f"trial {trial}: corrupting {lines[li][:12]!r} {original}->{replacement} "
            f"was not detected"
        )
        assert result.failures
        detected += 1
    report(6, f"{detected}/50 single-integer corruptions detected")
