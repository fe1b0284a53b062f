import csv

import pytest

from chowcert.cli import main


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

    def test_cap(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--min", "2", "--max", "45", "--seed", "3", "--csv", str(out)]
        )
        assert code == 1
        assert "cap" in capsys.readouterr().err


class TestBenchCommand:
    def test_smoke(self, capsys):
        assert main(["bench", "--sizes", "16,32"]) == 0
        out = capsys.readouterr().out
        assert "identical results" in out
        assert "scaling exponent" in out

    def test_size_validation(self):
        with pytest.raises(SystemExit):
            main(["bench", "--sizes", "16,frog"])


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
