"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Span, self_times  # noqa: E402

wl = run.load()
import betheperm  # noqa: E402


def test_self_time_of_nested_and_overlapping_spans():
    spans = [
        Span("a", 0.0, 10.0, -1, "x"),
        Span("b", 1.0, 4.0, 0, "x"),
        Span("c", 2.0, 3.0, 1, "x"),
        Span("d", 5.0, 7.0, 0, "x"),
        Span("e", 6.0, 8.0, 0, "x"),    # overlaps d: the union counts once
        Span("f", 9.5, 11.0, 0, "x"),   # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([3.5, 2.0, 1.0, 2.0, 2.0, 1.5])


def test_item_time_is_median_of_calibrated_calls():
    ref = run.calibrate.REFERENCE_S
    # measured 1, 2 and 4 s while the kernel ran at 1, 1/2 and 1 times reference speed
    tally = run.Tally(times={"a": [1.0, 2.0, 4.0]}, kernel={"a": [ref, 2 * ref, ref]})
    assert tally.reference_times() == pytest.approx([1.0])


def _betheperm_bindings():
    return {(name, key): value for name, module in sys.modules.items()
            if name == "betheperm" or name.startswith("betheperm.")
            for key, value in vars(module).items() if callable(value)}


def test_traced_run_restores_every_patched_name():
    before = _betheperm_bindings()
    original = betheperm.per_ryser
    metrics, tally, extra = run.trace(wl, "exact", 7, 0, quick=True)
    assert metrics["permanents.per_ryser.calls"] > 0
    assert extra["absent"] == []
    assert _betheperm_bindings() == before
    assert betheperm.per_ryser is original

    spans_before = len(extra["spans"])
    _, untraced, _ = run.measure(wl, "exact", 7, 0, quick=True)
    assert untraced.failed == 0
    assert len(extra["spans"]) == spans_before


def test_count_metrics_repeat_across_traced_runs():
    counts = [k for k, unit in run.PER_LAYER.items()
              if unit == "count" or k == "permanents.ryser_per_item"]
    for workload in ("bounds", "certificate"):
        first, _, _ = run.trace(wl, workload, 3, 0, quick=True)
        second, _, _ = run.trace(wl, workload, 3, 0, quick=True)
        assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_wrong_result_is_counted_as_failed(monkeypatch):
    real = betheperm.per_ryser
    monkeypatch.setattr(betheperm, "per_ryser", lambda matrix: real(matrix) + 1)
    metrics, tally, _ = run.measure(wl, "exact", 7, 0, quick=True)
    assert tally.failed == len(wl.EXACT_QUICK)
    assert metrics["failed_frac"] > 0
    assert metrics["pass_frac"] < 1


def test_absent_function_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(sys.modules["betheperm.permanents"], "per_bruteforce")
    monkeypatch.delattr(betheperm, "per_bruteforce")
    monkeypatch.setattr(wl, "BRUTEFORCE_MAX", 0)
    metrics, _, extra = run.trace(wl, "exact", 7, 0, quick=True)
    assert extra["absent"] == ["permanents.per_bruteforce"]
    assert metrics["permanents.per_bruteforce.calls"] == 0


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_quick_mode_finishes_in_seconds(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--quick"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
