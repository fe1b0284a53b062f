import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chowcert import pipeline
from chowcert.cli import main


def refuse_to_compute(*args, **kwargs):
    raise AssertionError("computed before checking the output path")


def verify_in_subprocess(path):
    """`chowcert verify` in a fresh interpreter, so a traceback shows."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "chowcert.cli", "verify", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )


class TestCertifyCommand:
    def test_writes_certificate(self, tmp_path, capsys):
        out = tmp_path / "cert.txt"
        code = main(
            ["certify", "--n", "2", "--r", "1", "--seed", "42", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert "tangent_rank = 7 / 7" in text
        assert "hessian_rank = 6 / 6" in text
        assert "verdict = not-1-TWD TRUE" in text
        captured = capsys.readouterr()
        assert "verdict = not-1-TWD TRUE" in captured.out

    def test_default_r(self, tmp_path):
        out = tmp_path / "cert.txt"
        assert main(["certify", "--n", "4", "--seed", "1", "--out", str(out)]) == 0
        assert "r = 2" in out.read_text()

    def test_prime_and_flags(self, tmp_path):
        out = tmp_path / "cert.txt"
        code = main(
            [
                "certify", "--n", "3", "--r", "1", "--prime", "8191",
                "--seed", "9", "--retries", "2", "--out", str(out),
            ]
        )
        assert code == 0
        assert "prime = 8191" in out.read_text()

    def test_bad_r_errors(self, tmp_path, capsys):
        out = tmp_path / "cert.txt"
        code = main(
            ["certify", "--n", "2", "--r", "5", "--seed", "1", "--out", str(out)]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_seed_validation(self):
        with pytest.raises(SystemExit):
            main(["certify", "--n", "2", "--seed", "-3", "--out", "x"])

    @pytest.mark.parametrize("where", ("missing directory", "a directory"))
    def test_unwritable_out_refused_before_computing(
        self, tmp_path, capsys, monkeypatch, where
    ):
        monkeypatch.setattr(pipeline, "certify", refuse_to_compute)
        out = tmp_path / "missing" / "c.txt" if where == "missing directory" else tmp_path
        code = main(["certify", "--n", "6", "--seed", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in err

    def test_failed_run_leaves_no_file(self, tmp_path, capsys):
        out = tmp_path / "cert.txt"
        code = main(
            ["certify", "--n", "2", "--r", "5", "--seed", "1", "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()

    def test_run_beyond_physical_memory_refused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pipeline, "_physical_memory", lambda: 20000)
        monkeypatch.setattr(pipeline, "sample_point", refuse_to_compute)
        out = tmp_path / "cert.txt"
        # n=5, r=3: a 54 x 56 Terracini matrix, 24192 bytes at 8 an entry
        code = main(["certify", "--n", "5", "--seed", "1", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: n = 5, r = 3: the 54 x 56 Terracini matrix takes 24192 bytes "
            "as one 8-byte array, more than the 20000 bytes of physical memory"
        ]
        assert captured.out == ""
        assert not out.exists()

    def test_existing_out_is_overwritten(self, tmp_path):
        out = tmp_path / "cert.txt"
        out.write_text("old\n" * 1000)
        code = main(
            ["certify", "--n", "2", "--r", "1", "--seed", "42", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("seed = 42\n")
        assert "old" not in text


class TestVerifyCommand:
    def test_round_trip(self, tmp_path, capsys):
        out = tmp_path / "cert.txt"
        main(["certify", "--n", "2", "--r", "1", "--seed", "5", "--out", str(out)])
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        assert "certificate verified" in capsys.readouterr().out

    def test_rejects_tampered(self, tmp_path, capsys):
        out = tmp_path / "cert.txt"
        main(["certify", "--n", "2", "--r", "1", "--seed", "5", "--out", str(out)])
        text = out.read_text().replace("tangent_rank = 7 / 7", "tangent_rank = 6 / 7")
        out.write_text(text)
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        assert "REJECTED" in capsys.readouterr().out

    def test_prime_too_large_is_rejected_without_traceback(self, tmp_path):
        out = tmp_path / "cert.txt"
        main(["certify", "--n", "2", "--r", "1", "--seed", "5", "--out", str(out)])
        # 2^61 - 1 is prime, so the restated certificate parses; the
        # integrity line, which the parser does not require, is dropped
        lines = out.read_text().replace("prime = 20201", f"prime = {2**61 - 1}")
        out.write_text(
            "".join(ln for ln in lines.splitlines(True) if not ln.startswith("check"))
        )
        proc = verify_in_subprocess(out)
        assert proc.returncode == 1
        assert "REJECTED" in proc.stdout
        assert "moduli below 2^31" in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_huge_rank_is_rejected_without_traceback(self, tmp_path):
        out = tmp_path / "cert.txt"
        main(["certify", "--n", "2", "--r", "1", "--seed", "5", "--out", str(out)])
        # more digits than Python's default int() conversion limit
        huge = "9" * 5000
        text = out.read_text()
        out.write_text(text.replace("7 / 7", f"{huge} / 7"))
        proc = verify_in_subprocess(out)
        assert proc.returncode == 1
        assert "REJECTED" in proc.stdout
        assert "tangent_rank: not an integer" in proc.stdout
        assert "Traceback" not in proc.stderr
        # the report echoes a prefix of the token and its length, not
        # all 5000 digits
        assert "(5000 characters)" in proc.stdout
        assert len(proc.stdout.encode()) < 300


    def test_non_utf8_file_is_rejected_without_traceback(self, tmp_path):
        out = tmp_path / "cert.txt"
        out.write_bytes(b"seed = 1\n\xff\xfe\n")
        proc = verify_in_subprocess(out)
        assert proc.returncode == 1
        assert "certificate REJECTED" in proc.stdout
        assert "parse: not UTF-8 text: invalid byte at offset 9" in proc.stdout
        assert "Traceback" not in proc.stderr


class TestRankTableCommand:
    def test_prints_rows(self, capsys):
        assert main(["rank-table", "--min", "1", "--max", "5"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 6  # header + 5 rows
        assert "yes" in lines[1]  # n=1 is a perfect case
        assert lines[5].split() == ["5", "56", "16", "4", "2"]


class TestSweepCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--min", "2", "--max", "4", "--seed", "3", "--csv", str(out)]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["n"] for r in rows] == ["2", "3", "4"]
        assert all(r["verdict"] == "TRUE" for r in rows)
        assert "all 3 cases TRUE" in capsys.readouterr().out

    def test_failed_cases_exit_1(self, tmp_path, capsys):
        # at prime 3 and one attempt, both draws are degenerate
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--min", "2", "--max", "3", "--prime", "3",
                "--seed", "0", "--retries", "1", "--csv", str(out),
            ]
        )
        assert code == 1
        with open(out) as fh:
            assert [r["verdict"] for r in csv.DictReader(fh)] == ["FALSE"] * 2
        captured = capsys.readouterr()
        assert "FAILED cases: n in [2, 3]" in captured.err
        assert "cases TRUE" not in captured.out

    def test_unwritable_csv_refused_before_computing(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(pipeline, "sweep", refuse_to_compute)
        out = tmp_path / "missing" / "s.csv"
        code = main(["sweep", "--min", "2", "--max", "8", "--csv", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: No such file or directory")

    def test_cap(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--min", "2", "--max", "45", "--seed", "3", "--csv", str(out)]
        )
        assert code == 1
        assert "cap" in capsys.readouterr().err

    def test_largest_case_beyond_physical_memory_refused_first(
        self, tmp_path, capsys, monkeypatch
    ):
        # n=2..4 would fit; n=5's matrix takes 24192 bytes
        monkeypatch.setattr(pipeline, "_physical_memory", lambda: 20000)
        monkeypatch.setattr(pipeline, "certify", refuse_to_compute)
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--min", "2", "--max", "5", "--seed", "3", "--csv", str(out)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: n = 5, r = 3: the 54 x 56 Terracini matrix takes 24192 bytes "
            "as one 8-byte array, more than the 20000 bytes of physical memory"
        ]
        assert captured.out == ""
        assert not out.exists()

    def test_empty_range_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--min", "5", "--max", "3", "--seed", "3", "--csv", str(out)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "error: no case" in captured.err
        assert "cases TRUE" not in captured.out
        assert not out.exists()


class TestValidateSffCommand:
    def test_reference_case(self, capsys):
        assert main(["validate-sff", "--d", "3", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert "G: order 6, rank 6" in out
        assert "H: order 9, rank 9" in out

    def test_invalid_dn(self, capsys):
        assert main(["validate-sff", "--d", "5", "--n", "2"]) == 1
        assert "error" in capsys.readouterr().err
