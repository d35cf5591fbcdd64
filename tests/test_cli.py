"""Command dispatch, output formats, and exit codes."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import betheperm
from betheperm import parse_matrix_json
from betheperm.cli import main


@pytest.fixture
def ones2(tmp_path):
    path = tmp_path / "ones2.csv"
    path.write_text("1,1\n1,1\n")
    return str(path)


@pytest.fixture
def tight8(tmp_path):
    rows = []
    for i in range(8):
        block = i // 2
        row = ["0"] * 8
        row[2 * block] = "1"
        row[2 * block + 1] = "1"
        rows.append(",".join(row))
    path = tmp_path / "tight8.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPer:
    def test_all_ones_2x2(self, capsys, ones2):
        code, out, _ = run(capsys, "per", ones2)
        assert code == 0
        assert out.strip() == "2"

    def test_oracle_agrees(self, capsys, ones2):
        code, out, _ = run(capsys, "per", ones2, "--oracle")
        assert code == 0 and out.strip() == "2"

    def test_rational_mode_exact_output(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1/2,1/2\n1/3,2/3\n")
        code, out, _ = run(capsys, "per", str(path), "--mode", "rational")
        assert code == 0
        assert out.strip() == str(Fraction(1, 2) * Fraction(2, 3)
                                  + Fraction(1, 2) * Fraction(1, 3))

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        code, _, err = run(capsys, "per", str(path))
        assert code == 2
        assert "line 2" in err

    def test_missing_file_exit_code(self, capsys, tmp_path):
        code, _, err = run(capsys, "per", str(tmp_path / "absent.csv"))
        assert code == 2

    def test_guard_violation_exit_code(self, capsys, tmp_path):
        n = 11
        rows = "\n".join(",".join("1" for _ in range(n)) for _ in range(n))
        path = tmp_path / "big.csv"
        path.write_text(rows + "\n")
        code, _, err = run(capsys, "per", str(path), "--oracle")
        assert code == 2
        assert "brute-force limit" in err


class TestOptimizeCommands:
    def test_bethe_json(self, capsys, ones2):
        code, out, _ = run(capsys, "bethe", ones2)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["log_value"]) <= 1e-8
        assert payload["converged"] is True

    def test_bp_gamma_required_range(self, capsys, ones2):
        code, out, _ = run(capsys, "bp", ones2, "--gamma", "-0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["log_value"] == pytest.approx(math.log(2), abs=1e-7)
        code, _, err = run(capsys, "bp", ones2, "--gamma", "2.0")
        assert code == 2

    def test_zero_permanent_value(self, capsys, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("1,0\n0,0\n")
        code, out, _ = run(capsys, "bethe", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["log_value"] == "-inf"

    def test_value_past_the_float_range_prints_no_warning(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("1e300,1e300\n1e300,1e300\n")
        src = str(Path(betheperm.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "betheperm.cli", "bethe", str(path)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=60)
        assert done.returncode == 0
        assert done.stdout == (
            '{"converged": true, "gradient_residual": 0.0, "iterations": 1, '
            '"log_value": 1381.55105579643, "value": "inf"}\n')
        assert done.stderr == ""


class TestMarginals:
    def test_round_trip_exact(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        code, out, _ = run(capsys, "marginals", str(path), "--mode", "rational")
        assert code == 0
        matrix = parse_matrix_json(out, exact=True)
        assert matrix.entries == ((Fraction(2, 5), Fraction(3, 5)),
                                  (Fraction(3, 5), Fraction(2, 5)))
        # emit-parse-emit is the identity
        code2, out2, _ = run(capsys, "marginals", str(path), "--mode", "rational")
        assert out2 == out


class TestBounds:
    def test_tight8_report(self, capsys, tight8):
        code, out, _ = run(capsys, "bounds", tight8)
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 8
        assert all(payload["checks"].values())
        assert payload["ratio_per_bethe"] == pytest.approx(16.0, rel=1e-6)

    def test_zero_permanent_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("1,0\n0,0\n")
        code, _, err = run(capsys, "bounds", str(path))
        assert code == 2
        assert "zero" in err


class TestSampleAndKL:
    def test_sample_lines_are_permutations(self, capsys, ones2):
        code, out, _ = run(capsys, "sample", ones2, "--count", "5", "--seed", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            image = [int(tok) for tok in line.split()]
            assert sorted(image) == [0, 1]

    def test_sample_deterministic_under_seed(self, capsys, ones2):
        _, out1, _ = run(capsys, "sample", ones2, "--count", "4", "--seed", "9")
        _, out2, _ = run(capsys, "sample", ones2, "--count", "4", "--seed", "9")
        assert out1 == out2

    def test_kl_zero_for_uniform(self, capsys, ones2):
        code, out, _ = run(capsys, "kl", ones2, "--order", "reverse")
        assert code == 0
        assert float(out) == 0.0

    def test_kl_random_order_seeded(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,3\n4,5,6\n7,8,10\n")
        code, out, _ = run(capsys, "kl", str(path), "--order", "random",
                           "--seed", "5")
        assert code == 0
        assert float(out) >= 0.0


class TestCertify:
    def test_smoke_pass(self, capsys):
        code, out, _ = run(capsys, "certify", "--n-grid", "2000",
                           "--smoke", "200", "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["failures"] == []
        assert payload["N"] == 2000 and payload["M"] == 880

    def test_small_grid_fails_with_exit_one(self, capsys, tmp_path):
        log = tmp_path / "failures.csv"
        code, out, _ = run(capsys, "certify", "--n-grid", "50",
                           "--failures-log", str(log))
        assert code == 1
        payload = json.loads(out)
        assert [0, 0] in payload["failures"]
        logged = log.read_text().strip().splitlines()
        assert logged[0] == "0,0"
        assert len(logged) == len(payload["failures"])


class TestPhiCommand:
    def test_vector_value(self, capsys, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1/2,1/2\n")
        code, out, _ = run(capsys, "phi", str(path), "--mode", "rational")
        assert code == 0
        assert float(out) == pytest.approx(math.log(2), abs=1e-12)

    def test_invalid_vector(self, capsys, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("0.9,0.3\n")
        code, _, err = run(capsys, "phi", str(path))
        assert code == 2
