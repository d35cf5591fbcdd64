"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance below is pinned; run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines as they complete.
"""

import math
import time
from fractions import Fraction

import numpy as np
from betheperm import (
    GAMMA,
    NonNegMatrix,
    NuDistribution,
    beta_objective,
    bp_objective,
    certify,
    kl_mu_nu,
    ordering_gap,
    entropy_dominance_check,
    log_permanent,
    marginals,
    objective_gradient,
    optimize,
    pair_block_matrix,
    per_bruteforce,
    per_ryser,
    reduction_check,
    stationary_qt,
)
from betheperm.matrices import DoublyStochMatrix

LOG2 = math.log(2.0)
LOG_SQRT2 = 0.5 * LOG2


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label} {suffix}"


def random_quarter_grid_matrix(rng, n):
    return NonNegMatrix(tuple(
        tuple(Fraction(int(rng.integers(0, 17)), 4) for _ in range(n))
        for _ in range(n)))


def random_uniform_matrix(rng, n):
    return NonNegMatrix(tuple(tuple(float(x) for x in row)
                              for row in rng.uniform(0.0, 1.0, (n, n))))


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    ok = True
    for _ in range(500):
        n = int(rng.integers(2, 9))
        matrix = random_quarter_grid_matrix(rng, n)
        if per_ryser(matrix) != per_bruteforce(matrix):
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(1, "Ryser equals brute force exactly on 500 rational matrices",
           ok and elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_2_tight_block_example():
    start = time.perf_counter()
    ok = True
    details = []
    for n in (2, 4, 8):
        matrix = pair_block_matrix(n // 2)
        exact_per = per_ryser(matrix)
        bethe = optimize(matrix, -1.0)
        ratio = math.exp(log_permanent(matrix) - bethe.log_value)
        target = 2.0 ** (n / 2.0)
        ok &= exact_per == 2 ** (n // 2)
        ok &= abs(bethe.log_value) <= 1e-6
        ok &= abs(ratio / target - 1.0) <= 1e-6
        details.append(f"n={n} ratio={ratio:.9f}")
    elapsed = time.perf_counter() - start
    report(2, "paired-ones blocks hit the sqrt(2)^n ratio exactly",
           ok and elapsed < 60.0, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_3_sandwich():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        n = int(rng.integers(3, 8))
        matrix = random_uniform_matrix(rng, n)
        log_per = log_permanent(matrix)
        log_bethe = optimize(matrix, -1.0).log_value
        beta_marginals = beta_objective(matrix, marginals(matrix))
        if not (log_bethe <= log_per):
            ok = False
            break
        if not (log_per <= 0.5 * n * LOG2 + beta_marginals + 1e-9):
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(3, "lower bound and marginal-matrix sandwich on 200 matrices",
           ok and elapsed < 300.0, f"{elapsed:.1f}s")


def test_criterion_4_fractional_bp():
    rng = np.random.default_rng(1003)  # same matrices as criterion 3
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        n = int(rng.integers(3, 8))
        matrix = random_uniform_matrix(rng, n)
        log_per = log_permanent(matrix)
        log_bp_half = optimize(matrix, -0.5).log_value
        log_bethe = optimize(matrix, -1.0).log_value
        if not (log_per <= log_bp_half + 1e-9):
            ok = False
            break
        if not (log_bp_half <= 0.5 * n + log_bethe + 1e-6):
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(4, "gamma=-1/2 upper bound and sqrt(e)^n gap on 200 matrices",
           ok and elapsed < 600.0, f"{elapsed:.1f}s")


def test_criterion_5_certificate():
    smoke = certify(2000, smoke=1000, seed=2024)
    smoke_ok = smoke.passed and smoke.elapsed_s < 10.0

    run = certify(2000)
    full_ok = (run.passed and run.cells_checked == 881 ** 2
               and run.elapsed_s < 1800.0)
    report(5, "exact certificate passes all 881^2 cells at resolution 2000",
           smoke_ok and full_ok,
           f"smoke {smoke.elapsed_s:.1f}s, full {run.elapsed_s / 60.0:.1f} min")


def test_criterion_6_ordering_average_gap():
    rng = np.random.default_rng(1006)
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 7))
        raw = [Fraction(int(x)) for x in rng.integers(0, 20, n)]
        if sum(raw) == 0:
            raw[0] = Fraction(1)
        total = sum(raw)
        p = tuple(x / total for x in raw)
        if ordering_gap(p) > LOG_SQRT2 + 1e-12:
            ok = False
            break
    equality = abs(ordering_gap((Fraction(1, 2), Fraction(1, 2))) - LOG_SQRT2) <= 1e-12
    elapsed = time.perf_counter() - start
    report(6, "ordering-averaged gap bounded by log sqrt(2), tight at (1/2, 1/2)",
           ok and equality and elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_7_entropy_vs_tail_sums():
    rng = np.random.default_rng(1007)
    start = time.perf_counter()
    ok = True
    for _ in range(10_000):
        n = int(rng.integers(1, 11))
        raw = rng.uniform(0.0, 1.0, n)
        p = tuple(raw / raw.sum())
        if not entropy_dominance_check(p, slack=1e-12):
            ok = False
            break
    equality = entropy_dominance_check((Fraction(1, 2), Fraction(1, 2)), slack=0.0)
    elapsed = time.perf_counter() - start
    report(7, "entropy term dominates tail-sum terms on 10^4 vectors",
           ok and equality and elapsed < 120.0, f"{elapsed:.1f}s")


def test_criterion_8_merge_reduction():
    rng = np.random.default_rng(1008)
    start = time.perf_counter()
    ok = True
    checked = 0
    while checked < 10_000:
        raw = rng.uniform(0.0, 1.0, 4)
        q, r, s, t = (raw / raw.sum()).tolist()
        if r + s > GAMMA:
            continue
        if not reduction_check(q, r, s, t):
            ok = False
            break
        checked += 1
    sums_ok = True
    for _ in range(200):
        r, s = rng.uniform(0.0, 0.4, 2).tolist()
        q, t = stationary_qt(r, s)
        if abs(q + r + s + t - 1.0) > 1e-15:
            sums_ok = False
            break
    elapsed = time.perf_counter() - start
    report(8, "coordinate merge never decreases the gap below the threshold",
           ok and sums_ok and elapsed < 120.0, f"{elapsed:.1f}s")


def test_criterion_9_kl_machinery():
    rng = np.random.default_rng(1009)
    start = time.perf_counter()
    ok = True
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 6))
        matrix = random_uniform_matrix(rng, n)
        weights = marginals(matrix)
        order = tuple(int(x) for x in rng.permutation(n))
        if kl_mu_nu(matrix, NuDistribution(weights, order)) < -1e-15:
            ok = False
            break
        checked += 1
    uniform = NonNegMatrix(((1, 1), (1, 1)))
    tightness = kl_mu_nu(
        uniform, NuDistribution(marginals(uniform), (0, 1))) == 0.0
    elapsed = time.perf_counter() - start
    report(9, "KL divergence nonnegative, exactly zero at the tight example",
           ok and tightness and elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_10_gradient_validation():
    rng = np.random.default_rng(1010)
    start = time.perf_counter()
    step = 1e-6
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 6))
        matrix = NonNegMatrix(tuple(tuple(float(x) for x in row)
                                    for row in rng.uniform(0.2, 1.0, (n, n))))
        base = np.full((n, n), 1.0 / n)
        jitter = rng.uniform(-0.05, 0.05, (n, n))
        base = np.clip(base + jitter, 0.05, 0.95)
        point = DoublyStochMatrix(tuple(map(tuple, base)))
        gamma = float(rng.choice([-1.0, -0.5, float(rng.uniform(-1, 1))]))
        grad = objective_gradient(matrix, point, gamma)
        i, j = (int(x) for x in rng.integers(0, n, 2))
        up = base.copy()
        up[i, j] += step
        down = base.copy()
        down[i, j] -= step
        numeric = (bp_objective(matrix, DoublyStochMatrix(tuple(map(tuple, up))), gamma)
                   - bp_objective(matrix, DoublyStochMatrix(tuple(map(tuple, down))), gamma)
                   ) / (2.0 * step)
        if abs(grad[i, j] - numeric) > 1e-5 * max(1.0, abs(numeric)):
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(10, "analytic gradients match central differences at 1e-5",
           ok and elapsed < 60.0, f"{elapsed:.1f}s")
