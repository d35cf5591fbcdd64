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
from tests.test_matrices import wide_span_rows


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

    @pytest.mark.parametrize("command, text, place", [
        ("per", "nan,1\n1,1\n", "line 1, column 1"),
        ("per", "1e400,1\n1,1\n", "line 1, column 1"),
        ("bounds", "nan,1\n1,1\n", "line 1, column 1"),
        ("bounds", "1e400,1\n1,1\n", "line 1, column 1"),
        ("phi", "0.5,nan,0.5\n", "column 2"),
        ("phi", "1e400,0,0\n", "column 1"),
    ])
    def test_non_finite_entry_exit_code(self, capsys, tmp_path, command, text, place):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: {place}: non-finite entry ")

    def test_rational_mode_reads_past_the_float_range(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("1e400,1\n1,1\n")
        code, out, _ = run(capsys, "per", str(path), "--mode", "rational")
        assert code == 0
        assert out.strip() == str(10**400 + 1)

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]])
    def test_rational_mode_integer_valued(self, capsys, tmp_path, oracle):
        path = tmp_path / "m.csv"
        path.write_text("2/2,4/2\n6/2,8/2\n")
        code, out, _ = run(capsys, "per", str(path), "--mode", "rational", *oracle)
        assert (code, out) == (0, "10\n")

    def test_json_literals_read_exactly_in_rational_mode(self, capsys, tmp_path):
        csv = tmp_path / "m.csv"
        csv.write_text("0.10000000000000000001\n")
        doc = tmp_path / "m.json"
        doc.write_text('{"entries": [[0.10000000000000000001]]}')
        outs = [run(capsys, "per", str(path), "--mode", "rational")
                for path in (csv, doc)]
        assert outs[0] == outs[1] == (0, "10000000000000000001/100000000000000000000\n", "")
        doc.write_text('{"entries": [[1e400, 1], [1, 1]]}')
        assert run(capsys, "per", str(doc), "--mode", "rational") == (
            0, f"{10**400 + 1}\n", "")
        code, out, err = run(capsys, "per", str(doc))
        assert (code, out) == (2, "")
        assert err == f"error: {doc}: row 1, column 1: non-finite entry 1e400\n"

    @pytest.mark.parametrize("text", ['{"entries": 5}', '{"n": 2, "entries": [[1, 2], 3]}'])
    def test_json_shape_error_exit_code(self, capsys, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        code, out, err = run(capsys, "per", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: ") and "is not a list" in err

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


class TestPinnedStdout:
    """The optimize and bounds commands print these exact bytes for the
    3-cycle support matrix, whose per is 2 and whose values are closed forms."""

    @pytest.mark.parametrize("argv, expected", [
        (["bethe"], '{"converged": true, "gradient_residual": 0.0, "iterations": 1, '
                    '"log_value": 0.0, "value": 1.0}\n'),
        (["bp", "--gamma", "-0.5"],
         '{"converged": true, "gradient_residual": 0.0, "iterations": 1, '
         '"log_value": 1.03972077083992, "value": 2.82842712474619}\n'),
        (["bounds"],
         '{"checks": {"bethe_le_per": true, "bp_half_le_sqrte_n_bethe": true, '
         '"per_le_bp_half": true, "per_le_sqrt2n_beta_marginals": true, '
         '"per_le_sqrt2n_bethe": true}, "log_beta_marginals": 0.0, "log_bethe": 0.0, '
         '"log_bp_half": 1.03972077083992, "log_per": 0.693147180559945, "n": 3, '
         '"ratio_per_bethe": 2.0, "ratio_per_bp_half": 0.707106781186547}\n'),
    ])
    def test_cycle_matrix(self, capsys, tmp_path, argv, expected):
        path = tmp_path / "cycle.csv"
        path.write_text("1,1,0\n0,1,1\n1,0,1\n")
        assert run(capsys, argv[0], str(path), *argv[1:]) == (0, expected, "")


class TestWideSpanInput:
    """Entries whose logs span more than the float range: the float paths'
    diagonal scaling does not converge, an input error, not a failed check."""

    @pytest.fixture
    def wide(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(",".join(repr(x) for x in row)
                                  for row in wide_span_rows()) + "\n")
        return str(path)

    @pytest.mark.parametrize("command", ["per", "bounds"])
    def test_float_mode_is_an_input_error(self, capsys, wide, command):
        code, out, err = run(capsys, command, wide)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "float range" in err

    def test_rational_mode_is_exact(self, capsys, wide):
        code, out, _ = run(capsys, "per", wide, "--mode", "rational")
        assert code == 0
        per = Fraction(out.strip())
        assert math.log(per.numerator) - math.log(per.denominator) == pytest.approx(
            688.0590620709352, rel=1e-15)


class TestMarginals:
    def test_float_output(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        for text, entries in (("1,1\n1,1\n", "[[0.5, 0.5], [0.5, 0.5]]"),
                              ("2,0\n0,0.5\n", "[[1.0, 0.0], [0.0, 1.0]]")):
            path.write_text(text)
            assert run(capsys, "marginals", str(path)) == (
                0, f'{{"entries": {entries}, "n": 2}}\n', "")

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

    def test_marginal_cancelled_below_zero(self, capsys, tmp_path):
        path = tmp_path / "cancel.csv"
        path.write_text("1e300,1e-300,1\n1e300,1e-300,1\n1,1e-300,1e300\n")
        code, out, _ = run(capsys, "bounds", str(path))
        assert code == 0
        assert all(json.loads(out)["checks"].values())

    def test_zero_permanent_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("1,0\n0,0\n")
        code, _, err = run(capsys, "bounds", str(path))
        assert code == 2
        assert "zero" in err

    @pytest.mark.parametrize("command, max_iter", [("bounds", "0"), ("bethe", "-3")])
    def test_max_iter_needs_a_step(self, capsys, tight8, command, max_iter):
        code, out, err = run(capsys, command, tight8, "--max-iter", max_iter)
        assert code == 2 and out == ""
        assert "max_iter" in err

    @pytest.mark.parametrize("command", ["bounds", "bethe"])
    def test_nan_tolerance_is_input_error(self, capsys, tight8, command):
        code, out, err = run(capsys, command, tight8, "--tol", "nan")
        assert code == 2 and out == ""
        assert "tolerance" in err


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

    def test_sample_stdout_pinned(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,3,4\n4,1,2,3\n2,5,1,1\n3,3,0,2\n")
        images = ("2013 2301 2013 3210 1230 2013 2310 3021 2013 2301 3210 2301 2310 "
                  "1023 1023 3201 2310 2301 1203 2013 2103 3210 3210 2103 2013 1203 "
                  "1023 2013 2013 2130 2310 2130 2013 2013 2013 2310 2013 2301 3210 "
                  "3210 2013 2310 2013 3210 2013 2310 2031 2013 3210 2013")
        expected = "".join(" ".join(image) + "\n" for image in images.split())
        assert run(capsys, "sample", str(path), "--count", "50", "--seed", "3") == (
            0, expected, "")

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

    @pytest.mark.parametrize("smoke", ["0", "-1"])
    def test_smoke_needs_a_cell(self, capsys, smoke):
        code, out, err = run(capsys, "certify", "--n-grid", "2000", "--smoke", smoke)
        assert code == 2 and out == ""
        assert "smoke" in err

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_sample_needs_a_draw(self, capsys, monkeypatch, ones2, count):
        # the count is checked before any marginals are computed
        monkeypatch.setattr("betheperm.cli.marginals", None)
        code, out, err = run(capsys, "sample", ones2, "--count", count)
        assert code == 2 and out == ""
        assert "count" in err

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
