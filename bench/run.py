"""betheperm benchmark: one workload per process, closed loop, single client.

    python3 bench/run.py --workload exact --seed 1811 --seconds 18 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` and
its CLI runs as ``python -m betheperm.cli``.  Workloads: ``exact``,
``bounds``, ``bethe_large``, ``certificate`` (see bench/README.md).

``--trace 0`` measures the end-to-end metrics: the seed's round of items is
repeated until its items have taken ``--seconds`` (at least MIN_REPS times).
After every repetition a fresh-process ``import betheperm`` is timed, and
after every third one the workload's CLI command.  The calibration kernel
runs right after each item, and times are reported in its reference seconds
(see calibrate.py); an item's time is the median over repetitions.
``--trace 1`` instead repeats the round untraced and traced, alternately,
and reports per-layer counts and self times per traced round.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it names every metric with its
unit.  A full run record (machine facts, raw item times, failures, spans)
goes to ``bench_records/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RECORDS = ROOT / "bench_records"

#: Seed used while writing a change; a claimed gain is confirmed on HELD_OUT_SEED.
DEFAULT_SEED = 1811
HELD_OUT_SEED = 2933

#: Least number of repetitions of the round, fresh-process imports and CLI
#: runs in a run; the CLI runs after every CLI_EVERY-th repetition.
MIN_REPS = 3
SETUP_SAMPLES = 7
CLI_SAMPLES = 3
CLI_EVERY = 3
IMPORTTIME_SAMPLES = 3
#: Untimed calibration kernel runs before the first item.
KERNEL_WARMUP = 3

#: Pinned tail percentile of the items' times.  Each round's items fall in
#: cost tiers, and the top tier holds the p85 position.
TAIL_PCT = 85

END_TO_END = {
    "items_per_s": "items/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "pass_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed and recorded with the end-to-end metrics, not gated: the first two
# are zero on most workloads, and cli_s (mostly a fresh import) varied by up
# to 26% (quartile distance over median) between runs of the same code.
END_TO_END_EXTRA = {"cli_s": "s", "failed_frac": "ratio", "max_log_err": "nats"}

# span name -> (module, attribute) wrapped in the traced run
TRACE_TARGETS = {
    "matrices.matchable_support": ("betheperm.matrices", "matchable_support"),
    "matrices.max_matching_size": ("betheperm.matrices", "max_matching_size"),
    "matrices.has_matching_support": ("betheperm.matrices", "has_matching_support"),
    "matrices.validate_doubly_stochastic": ("betheperm.matrices", "validate_doubly_stochastic"),
    "matrices.parse_matrix": ("betheperm.matrices", "parse_matrix"),
    "permanents.per_ryser": ("betheperm.permanents", "per_ryser"),
    "permanents.per_bruteforce": ("betheperm.permanents", "per_bruteforce"),
    "permanents.permanent_minors": ("betheperm.permanents", "permanent_minors"),
    "permanents.marginals": ("betheperm.permanents", "marginals"),
    "permanents.log_permanent": ("betheperm.permanents", "log_permanent"),
    "bethe.optimize": ("betheperm.bethe", "optimize"),
    "bethe.bound_report": ("betheperm.bethe", "bound_report"),
    "bethe.linear_sum_assignment": ("betheperm.bethe", "linear_sum_assignment"),
    "sampling.kl_mu_nu": ("betheperm.sampling", "kl_mu_nu"),
    "sampling.entropy_upper_bound": ("betheperm.sampling", "entropy_upper_bound"),
    "sampling.estimate_log_permanent": ("betheperm.sampling", "estimate_log_permanent"),
    "sampling.nu_prob": ("betheperm.sampling", "nu_prob"),
    "sampling.nu_sample": ("betheperm.sampling", "nu_sample"),
    "phi.certify": ("betheperm.phi", "certify"),
    "phi.verify_cell": ("betheperm.phi", "verify_cell"),
    "cli.main": ("betheperm.cli", "main"),
}

TRACE_OBSERVERS = {
    "bethe.optimize": lambda r: {
        "bethe.optimize.iterations": getattr(r, "iterations", 0),
        "bethe.optimize.unconverged": int(not getattr(r, "converged", True))},
    "phi.certify": lambda r: {
        "phi.cells_checked": getattr(r, "cells_checked", 0),
        "phi.failing_cells": len(getattr(r, "failures", ()))},
}

PER_LAYER = {
    "matrices.matchable_support.calls": "count",
    "matrices.matchable_support.self_s": "s",
    "matrices.max_matching_size.calls": "count",
    "matrices.max_matching_size.self_s": "s",
    "matrices.has_matching_support.self_s": "s",
    "matrices.validate_doubly_stochastic.self_s": "s",
    "matrices.parse_matrix.self_s": "s",
    "permanents.per_ryser.calls": "count",
    "permanents.per_ryser.self_s": "s",
    "permanents.per_bruteforce.calls": "count",
    "permanents.per_bruteforce.self_s": "s",
    "permanents.permanent_minors.calls": "count",
    "permanents.permanent_minors.self_s": "s",
    "permanents.marginals.calls": "count",
    "permanents.marginals.self_s": "s",
    "permanents.log_permanent.calls": "count",
    "permanents.log_permanent.self_s": "s",
    "permanents.ryser_per_item": "ratio",
    "permanents.max_log_err": "nats",
    "bethe.optimize.calls": "count",
    "bethe.optimize.self_s": "s",
    "bethe.optimize.iterations": "count",
    "bethe.optimize.s_per_iter": "s",
    "bethe.optimize.unconverged": "count",
    "bethe.bound_report.self_s": "s",
    "bethe.linear_sum_assignment.calls": "count",
    "bethe.linear_sum_assignment.self_s": "s",
    "sampling.kl_mu_nu.self_s": "s",
    "sampling.entropy_upper_bound.self_s": "s",
    "sampling.estimate_log_permanent.self_s": "s",
    "sampling.nu_prob.calls": "count",
    "sampling.nu_prob.self_s": "s",
    "sampling.nu_sample.calls": "count",
    "sampling.nu_sample.self_s": "s",
    "phi.certify.calls": "count",
    "phi.certify.self_s": "s",
    "phi.cells_checked": "count",
    "phi.cells_per_s": "1/s",
    "phi.failing_cells": "count",
    "phi.verify_cell.calls": "count",
    "phi.verify_cell.self_s": "s",
    "cli.main.self_s": "s",
    "setup.import.numpy_s": "s",
    "setup.import.scipy_s": "s",
    "setup.import.betheperm_self_s": "s",
    "trace.overhead_frac": "ratio",
}


def load():
    """Put ``src`` on the path and import the program; None if it is not here."""
    if not (SRC / "betheperm" / "__init__.py").is_file():
        return None
    # One BLAS thread, like the single client: on 2 CPUs a second BLAS thread
    # contends with everything else on the machine and makes timings erratic.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for path in (str(SRC), str(Path(__file__).resolve().parent)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import betheperm.cli  # noqa: F401  (the CLI module is not imported by the package)
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# Items
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    units: int = 0
    failed: int = 0          # failed units of regular items
    probe_failed: int = 0    # failed units of probe items
    max_log_err: float = 0.0
    times: dict = field(default_factory=dict)      # item id -> [seconds per repetition]
    kernel: dict = field(default_factory=dict)     # item id -> [kernel seconds after each]
    failures: list = field(default_factory=list)   # (item id, probe, reason)
    cli_runs: int = 0
    cli_failed: int = 0

    @property
    def all_failed(self) -> int:
        return self.failed + self.probe_failed

    def best(self) -> list[float]:
        """Each item's least time over the repetitions."""
        return [min(ts) for ts in self.times.values()]

    def reference_times(self) -> list[float]:
        """Each item's median over the repetitions of its time in reference seconds."""
        return [statistics.median(map(calibrate.scaled, ts, self.kernel[key]))
                for key, ts in self.times.items()]


def execute(items, tally: Tally, tracer=None, calibrated: bool = False) -> float:
    """Run items back to back, timing each one's library calls only; returns their sum.

    With ``calibrated`` the calibration kernel is timed after every item.
    """
    busy = 0.0
    for item in items:
        if tracer is not None:
            tracer.item = item.id
        t0 = time.perf_counter()
        try:
            result = item.call()
        except Exception as exc:  # a raising item is a failed item
            elapsed = time.perf_counter() - t0
            outcome = (item.units, 0.0, f"{type(exc).__name__}: {exc}")
        else:
            elapsed = time.perf_counter() - t0
            try:
                outcome = item.check(result)
            except Exception as exc:
                outcome = (item.units, 0.0, f"check raised {type(exc).__name__}: {exc}")
        busy += elapsed
        failed_units, log_err, reason = outcome
        tally.units += item.units
        tally.times.setdefault(item.id, []).append(elapsed)
        if log_err == log_err:  # NaN errors are reported as failures instead
            tally.max_log_err = max(tally.max_log_err, log_err)
        if failed_units:
            if item.probe:
                tally.probe_failed += failed_units
            else:
                tally.failed += failed_units
            tally.failures.append((item.id, item.probe, reason))
        if calibrated:
            tally.kernel.setdefault(item.id, []).append(calibrate.timed())
    return busy


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# ---------------------------------------------------------------------------
# Subprocess measurements
# ---------------------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_timed(argv) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    return time.perf_counter() - t0, proc


IMPORT_ARGV = [sys.executable, "-c", "import betheperm"]


def import_time() -> float:
    elapsed, proc = run_timed(IMPORT_ARGV)
    if proc.returncode != 0:
        raise RuntimeError(f"import betheperm failed: {proc.stderr}")
    return elapsed


def import_breakdown(samples: int) -> dict[str, float]:
    """Median self time per top-level package from ``python -X importtime``."""
    import_time()  # writes bytecode caches, loads numpy/scipy into the file cache
    procs = [run_timed([sys.executable, "-X", "importtime", *IMPORT_ARGV[1:]])[1]
             for _ in range(samples)]
    per_run = []
    for proc in procs:
        totals = {"numpy": 0.0, "scipy": 0.0, "betheperm": 0.0}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if not line.startswith("import time:") or len(fields) != 3:
                continue
            try:
                self_us = int(fields[0].split(":")[1])
            except ValueError:  # the header line
                continue
            top = fields[2].strip().split(".")[0]
            if top in totals:
                totals[top] += self_us / 1e6
        per_run.append(totals)
    return {
        "setup.import.numpy_s": statistics.median(r["numpy"] for r in per_run),
        "setup.import.scipy_s": statistics.median(r["scipy"] for r in per_run),
        "setup.import.betheperm_self_s": statistics.median(r["betheperm"] for r in per_run),
    }


def cli_argv(case) -> list[str]:
    argv = list(case.argv)
    if case.input_name is not None:
        WORK.mkdir(exist_ok=True)
        path = WORK / f"{os.getpid()}-{case.input_name}"
        path.write_text(case.input_text)
        argv.append(str(path))
    return argv


def cli_time(argv, case, tally: Tally) -> float:
    elapsed, proc = run_timed([sys.executable, "-m", "betheperm.cli", *argv])
    _check_cli(case, proc.returncode, proc.stdout, tally)
    return elapsed


def cli_in_process(argv, case, tally: Tally, tracer=None) -> None:
    """``main(argv)`` in this process with stdout captured (traced run only)."""
    if tracer is not None:
        tracer.item = "cli"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sys.modules["betheperm.cli"].main(argv)
    _check_cli(case, code, out.getvalue(), tally)


def _check_cli(case, code: int, stdout: str, tally: Tally) -> None:
    tally.cli_runs += 1
    reason = case.check(code, stdout)
    if reason:
        tally.cli_failed += 1
        tally.failures.append(("cli", False, reason))


def _clean_work(argv) -> None:
    for arg in argv:
        path = Path(arg)
        if path.parent == WORK:
            path.unlink(missing_ok=True)
    with contextlib.suppress(OSError):
        WORK.rmdir()


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def measure(wl, workload: str, seed: int, seconds: float, quick: bool = False):
    """End-to-end run: returns (metrics, tally, extra record fields)."""
    refs = wl.load_refs()
    spec = wl.WORKLOADS[workload]
    rnd = _rng(workload, seed)
    cli_case = spec.cli(rnd, refs)
    items = spec.build_round(rnd, refs, quick)
    tally = Tally()
    setup, cli = [], []
    argv = cli_argv(cli_case)
    try:
        import_time()  # writes bytecode caches, loads numpy/scipy into the file cache
        for _ in range(KERNEL_WARMUP):
            calibrate.timed()
        reps = 0
        busy = 0.0
        # the import and CLI samples are spread over the run, so that they
        # see the same machine as the items do
        while reps < (1 if quick else MIN_REPS) or busy < seconds:
            busy += execute(items, tally, calibrated=True)
            reps += 1
            # A subprocess is scaled by the repetition's median kernel time:
            # the kernel right after a subprocess runs on cold caches.
            kernel_s = statistics.median(ks[-1] for ks in tally.kernel.values())
            setup.append((import_time(), kernel_s))
            if reps % CLI_EVERY == 1:
                cli.append((cli_time(argv, cli_case, tally), kernel_s))
        while len(setup) < (1 if quick else SETUP_SAMPLES):
            setup.append((import_time(), kernel_s))
        while len(cli) < (1 if quick else CLI_SAMPLES):
            cli.append((cli_time(argv, cli_case, tally), kernel_s))
    finally:
        _clean_work(argv)

    # every time below is in reference seconds (see calibrate.py)
    item_s = tally.reference_times()
    tail = percentile(item_s, TAIL_PCT)
    metrics = {
        "items_per_s": sum(item.units for item in items) / sum(item_s),
        "item_p50_ms": 1e3 * statistics.median(item_s),
        "item_tail_ms": 1e3 * tail,
        "pass_frac": 1.0 - tally.all_failed / tally.units,
        "setup_s": statistics.median(calibrate.scaled(*pair) for pair in setup),
        "cli_s": statistics.median(calibrate.scaled(*pair) for pair in cli),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": tally.all_failed / tally.units,
        "max_log_err": tally.max_log_err,
    }
    extra = {
        "repetitions": reps,
        "busy_s": busy,
        "kernel_reference_s": calibrate.REFERENCE_S,
        "kernel_after_item_s": tally.kernel,
        "tail_percentile": TAIL_PCT,
        "items_per_round": len(items),
        "items_beyond_tail": sum(t > tail for t in item_s),
        "setup_samples_s": setup,   # (seconds, the repetition's median kernel seconds)
        "cli_samples_s": cli,
        "cli_argv": cli_case.argv,
    }
    return metrics, tally, extra


def trace(wl, workload: str, seed: int, seconds: float, quick: bool = False):
    """Traced run: returns (per-layer metrics, tally, extra record fields)."""
    from tracer import Tracer, self_times

    refs = wl.load_refs()
    spec = wl.WORKLOADS[workload]
    rnd = _rng(workload, seed)
    cli_case = spec.cli(rnd, refs)
    items = spec.build_round(rnd, refs, quick)
    imports = import_breakdown(1 if quick else IMPORTTIME_SAMPLES)

    plain, traced = Tally(), Tally()
    tracer = Tracer(TRACE_TARGETS, TRACE_OBSERVERS)
    reps = 0
    argv = cli_argv(cli_case)
    try:
        start = time.perf_counter()
        while reps == 0 or time.perf_counter() - start < seconds:
            execute(items, plain)
            cli_in_process(argv, cli_case, plain)
            with tracer:
                execute(items, traced, tracer)
                cli_in_process(argv, cli_case, traced, tracer)
            reps += 1
    finally:
        _clean_work(argv)

    spans = tracer.spans
    own = self_times(spans)
    calls = dict.fromkeys(TRACE_TARGETS, 0)
    self_s = dict.fromkeys(TRACE_TARGETS, 0.0)
    total_s = dict.fromkeys(TRACE_TARGETS, 0.0)
    for span, s in zip(spans, own):
        calls[span.name] += 1
        self_s[span.name] += s
        total_s[span.name] += span.end - span.start
    values = {}
    for name in TRACE_TARGETS:
        values[f"{name}.calls"] = calls[name] / reps
        values[f"{name}.self_s"] = self_s[name] / reps
    for key in ("bethe.optimize.iterations", "bethe.optimize.unconverged",
                "phi.cells_checked", "phi.failing_cells"):
        values[key] = tracer.counts.get(key, 0) / reps
    iterations = tracer.counts.get("bethe.optimize.iterations", 0)
    values["bethe.optimize.s_per_iter"] = (
        self_s["bethe.optimize"] / iterations if iterations else 0.0)
    values["phi.cells_per_s"] = (tracer.counts.get("phi.cells_checked", 0)
                                 / total_s["phi.certify"] if total_s["phi.certify"] else 0.0)
    item_rysers = sum(s.name == "permanents.per_ryser" and s.item != "cli" for s in spans)
    values["permanents.ryser_per_item"] = item_rysers / reps / len(items)
    values["permanents.max_log_err"] = traced.max_log_err
    values["trace.overhead_frac"] = sum(traced.best()) / sum(plain.best()) - 1.0
    values.update(imports)
    metrics = {name: values[name] for name in PER_LAYER}
    for count in ("units", "failed", "probe_failed", "cli_runs", "cli_failed"):
        setattr(traced, count, getattr(traced, count) + getattr(plain, count))
    extra = {
        "repetitions": reps,
        "items_per_round": len(items),
        "absent": tracer.absent,
        "untraced_item_times_s": plain.times,
        "spans": [list(s) for s in spans],
    }
    return metrics, traced, extra


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs and single set-up/CLI samples, for a smoke test")
    args = parser.parse_args(argv)

    wl = load()
    if wl is None:
        print(f"error: {SRC / 'betheperm'} not found; run from a betheperm checkout",
              file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")

    import numpy
    import scipy
    load_start = os.getloadavg()
    run = trace if args.trace else measure
    metrics, tally, extra = run(wl, args.workload, args.seed, args.seconds, args.quick)
    units = PER_LAYER if args.trace else {**END_TO_END, **END_TO_END_EXTRA}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": _git_commit(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
        "attempted_units": tally.units, "failed_units": tally.failed,
        "probe_failed_units": tally.probe_failed,
        "cli_runs": tally.cli_runs, "cli_failed": tally.cli_failed,
        "failures": tally.failures, "item_times_s": tally.times, **extra,
    }
    RECORDS.mkdir(exist_ok=True)
    path = RECORDS / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                      f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    path.write_text(json.dumps(record) + "\n")

    failed = tally.failed + tally.cli_failed
    print(f"{args.workload} seed={args.seed} record={path.relative_to(ROOT)} "
          + " ".join(f"{k}={v:.6g} {units[k]};" for k, v in metrics.items()))
    gated = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.units + tally.cli_runs,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": gated[k]} for k in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
