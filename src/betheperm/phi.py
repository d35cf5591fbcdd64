"""The simplex gap function, its reduction machinery, and the exact grid certificate.

The gap function on the simplex attains its maximum log 2; certifying that
bound over the hard region reduces to finitely many arbitrary-precision
integer comparisons on an epsilon-net, one per cell (:func:`verify_cell`).
:func:`certify` decides the whole grid at once from integer brackets on
2^K log2(x), evaluated as int64 interval bounds on each cell's log2 margin;
the brackets come from one fixed-point squaring walk per prime p <= N,
summed exactly over each x's prime factors (:func:`log2_bounds`).  Only the
cells in the guard band, where the interval straddles zero, fall back to
the bigint comparison.  Everything on the certificate path is
integer arithmetic: no floats are consulted when deciding a cell.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .matrices import Scalar, StochasticVector, is_exact_scalar, log_scalar

#: Threshold for merging two adjacent coordinates without decreasing the gap
#: function: (sqrt(17) - 3) / 2.
GAMMA = (math.sqrt(17.0) - 3.0) / 2.0

LOG2 = math.log(2.0)


def _as_entries(p) -> tuple[Scalar, ...]:
    if isinstance(p, StochasticVector):
        return p.entries
    return tuple(p)


# ---------------------------------------------------------------------------
# Exact log-linear forms: a finite sum  sum_i c_i * log(x_i)  represented as a
# mapping {x_i: c_i} with rational x_i, c_i.  Identities between such sums can
# be checked exactly by comparing the mappings, with no transcendental math.
# ---------------------------------------------------------------------------

LogForm = dict[Fraction, Fraction]


def add_log_term(form: LogForm, argument: Fraction, coefficient: Fraction) -> None:
    """Accumulate coefficient * log(argument); log 1 terms are dropped."""
    if coefficient == 0 or argument == 1:
        return
    if argument <= 0:
        raise ValueError(f"log argument must be positive, got {argument}")
    form[argument] = form.get(argument, Fraction(0)) + coefficient
    if form[argument] == 0:
        del form[argument]


def merge_log_forms(target: LogForm, other: LogForm, factor: Fraction = Fraction(1)) -> None:
    for arg, c in other.items():
        add_log_term(target, arg, c * factor)


def eval_log_form(form: LogForm) -> float:
    return sum(float(c) * log_scalar(arg) for arg, c in form.items())


def _add_prefix_terms(form: LogForm, values: Sequence[Fraction], factor: Fraction) -> None:
    """Add factor * x_k log(prefix_k) for every coordinate x_k, where prefix_k
    includes x_k: the log-form twin of :func:`_prefix_log_sum`."""
    running = Fraction(0)
    for x in values:
        running += x
        add_log_term(form, running, factor * x)


def _add_slack_terms(form: LogForm, values: Sequence[Fraction], factor: Fraction) -> None:
    """Add factor * (1 - x_k) log(1 - x_k) for every coordinate x_k."""
    for x in values:
        add_log_term(form, 1 - x, factor * (1 - x))


def _prefix_log_sum(values: Sequence[Scalar], acc: float = 0.0) -> float:
    """acc + sum_k x_k log(prefix_k), where prefix_k includes x_k, with
    x log x = 0 at zero coordinates.  The prefixes stay exact on int and
    Fraction input; only the logs are floats."""
    running = 0
    for x in values:
        running = running + x
        if x > 0:
            acc += float(x) * log_scalar(running)
    return acc


def _prefix_suffix_log_sum(values: Sequence[Scalar]) -> float:
    """sum_k x_k log(prefix_k) + sum_k x_k log(suffix_k)."""
    return _prefix_log_sum(values[::-1], _prefix_log_sum(values))


def _slack_term(x: Scalar) -> float:
    """(1 - x) log(1 - x), zero at x = 1.  1 - x is exact on int and Fraction
    input, so x just below 1 keeps a finite log where log1p(-float(x)) would
    not."""
    rest = 1 - x
    return float(rest) * log_scalar(rest) if rest > 0 else 0.0


def phi_log_form(p) -> LogForm:
    """The gap function of a rational simplex point as an exact log-linear form.

    Useful for exact identity checks: inserting zero coordinates, reversal
    symmetry, and the ordering-average pairing identity all become equalities
    of these mappings.
    """
    entries = [Fraction(x) for x in _as_entries(p)]
    form: LogForm = {}
    _add_prefix_terms(form, entries, Fraction(1))
    _add_prefix_terms(form, entries[::-1], Fraction(1))
    _add_slack_terms(form, entries, Fraction(-2))
    return form


# ---------------------------------------------------------------------------
# The gap function and the coordinate-merge reduction
# ---------------------------------------------------------------------------

def phi(p) -> float:
    """Gap function value, with the x log x = 0 convention at zero coordinates.

    Prefix and suffix sums, and each 1 - p_k, are exact on rational input;
    only the logs are taken in floats.
    """
    entries = _as_entries(p)
    return _prefix_suffix_log_sum(entries) - 2.0 * sum(map(_slack_term, entries))


def entropy_dominance_check(p, slack: float = 1e-12) -> bool:
    """True iff sum (1-p_k) log(1-p_k) >= sum p_k log(prefix) + sum p_k log(suffix).

    Holds for every stochastic vector.  Rational input goes through exact
    log-linear forms, so the equality cases are decided exactly.
    """
    entries = _as_entries(p)
    if entries and all(is_exact_scalar(x) for x in entries):
        values = [Fraction(x) for x in entries]
        diff: LogForm = {}
        _add_slack_terms(diff, values, Fraction(1))
        _add_prefix_terms(diff, values, Fraction(-1))
        _add_prefix_terms(diff, values[::-1], Fraction(-1))
        if not diff:
            return True  # exact equality
        return eval_log_form(diff) >= -slack
    return sum(map(_slack_term, entries)) >= _prefix_suffix_log_sum(entries) - slack


def within_merge_threshold(r: Scalar, s: Scalar) -> bool:
    """Exact test of r + s <= (sqrt(17) - 3) / 2 for rational input.

    Rearranged to the integer comparison (2(r+s) + 3)^2 <= 17 so that the
    irrational threshold never enters an exact code path.
    """
    if is_exact_scalar(r) and is_exact_scalar(s):
        v = Fraction(r) + Fraction(s)
        if v < 0:
            return True
        return (2 * v + 3) ** 2 <= 17
    return float(r) + float(s) <= GAMMA


def reduction_check(q: Scalar, r: Scalar, s: Scalar, t: Scalar,
                    slack: float = 1e-12) -> bool:
    """True iff merging the two middle coordinates does not decrease phi.

    Guaranteed whenever r + s is within the merge threshold; outside it the
    inequality may go either way and the returned value simply reports it.
    """
    total = q + r + s + t
    if q < 0 or r < 0 or s < 0 or t < 0 or abs(float(total) - 1.0) > 1e-9:
        raise ValueError(f"({q}, {r}, {s}, {t}) is not a point of the 4-simplex")
    return phi((q, r, s, t)) <= phi((q, r + s, t)) + slack


def stationary_qt(r: Scalar, s: Scalar) -> tuple[Scalar, Scalar]:
    """Outer coordinates maximizing the merge defect for fixed middle pair.

    Returns (q*, t*) with q* + r + s + t* = 1; exact on rational input.

    Raises:
        ValueError: when (1 + r + s) * max(r, s) > 1, where the stationary
            point leaves the simplex.
    """
    if is_exact_scalar(r) and is_exact_scalar(s):
        r, s = Fraction(r), Fraction(s)
    if (1 + r + s) * max(r, s) > 1:
        raise ValueError("stationary point is infeasible: (1 + r + s) max(r, s) > 1")
    q = (1 - r * (1 + r + s)) / (2 + r + s)
    t = (1 - s * (1 + r + s)) / (2 + r + s)
    return q, t


# ---------------------------------------------------------------------------
# Exact certificate pieces
# ---------------------------------------------------------------------------

def loop_bound(n_grid: int) -> int:
    """Largest grid index checked on each axis: floor(44 N / 100)."""
    return 44 * n_grid // 100


def phi3_exp_form(q: Scalar, s: Scalar, n_grid: int,
                  qs_base_shift: Scalar = 0) -> tuple[Fraction, Fraction]:
    """Both sides of the N-th power of exp(phi) <= 2 at a 3-simplex point.

    For rationals q, s whose denominators divide N the two returned values
    are exact, so phi(q, 1-q-s, s) <= log 2 holds iff lhs <= rhs.  The
    optional base shift replaces q + s in the final factor (used to make the
    origin cell comparison nondegenerate); the exponents are unchanged.
    """
    q, s, shift = Fraction(q), Fraction(s), Fraction(qs_base_shift)
    if q < 0 or s < 0 or q + s > 1:
        raise ValueError(f"(q, s) = ({q}, {s}) leaves the simplex face")
    for name, value in (("q", q * n_grid), ("s", s * n_grid)):
        if value.denominator != 1:
            raise ValueError(f"N*{name} must be an integer, got {value}")
    nq = int(q * n_grid)
    ns = int(s * n_grid)
    lhs = q ** nq * s ** ns
    rhs = (Fraction(2) ** n_grid
           * (1 - q) ** (n_grid + ns - nq)
           * (1 - s) ** (n_grid + nq - ns)
           * (q + s + shift) ** (2 * (nq + ns)))
    return lhs, rhs


def _uses_origin_variant(i: int, j: int, n_grid: int) -> bool:
    # reproduced exactly as printed, including the N > 100 branch condition
    return i == 0 and j == 0 and n_grid > 100


def verify_cell(i: int, j: int, n_grid: int) -> bool:
    """Certify the bound on one epsilon-net patch by a single integer comparison.

    The patch inequality has every base a multiple of 1/N, so multiplying
    both sides by N^(2N + i + j + 6) clears all denominators:

        (i+1)^i (j+1)^j N^(2N+i+j+6)
            <= 2^N (N-i-1)^(N-i+j+1) (N-j-1)^(N+i-j+1) B^(2(i+j+2))

    with B = i + j, except at the origin cell for N > 100 where B = i + j + 2.
    A failed comparison is a value, not an error.
    """
    m = loop_bound(n_grid)
    if n_grid <= 5:
        raise ValueError("grid resolution must exceed 2e")
    if not (0 <= i <= m and 0 <= j <= m):
        raise ValueError(f"cell ({i}, {j}) outside the {m + 1}x{m + 1} grid")
    lhs = (i + 1) ** i * (j + 1) ** j * n_grid ** (2 * n_grid + i + j + 6)
    base = i + j + 2 if _uses_origin_variant(i, j, n_grid) else i + j
    rhs = (2 ** n_grid
           * (n_grid - i - 1) ** (n_grid - i + j + 1)
           * (n_grid - j - 1) ** (n_grid + i - j + 1)
           * base ** (2 * (i + j + 2)))
    return lhs <= rhs


def _log2_walk(x: int, bits: int) -> tuple[int, int]:
    """Integer brackets low <= 2^bits * log2(x) <= high with high - low <= 2.

    x = 2^e * y with y in [1, 2) is walked through ``bits`` binary digits of
    log2(y) by repeated squaring in fixed point, once with every rounding
    taken down (the lower bracket) and once with every rounding taken up
    (the upper bracket).  Eight guard bits keep the accumulated rounding
    under one unit.
    """
    point = bits + 8
    one = 1 << point
    two = one << 1
    e = x.bit_length() - 1
    down = up = x << (point - e)
    low = high = 0
    for _ in range(bits):
        down = (down * down) >> point
        up = -((-up * up) >> point)
        low <<= 1
        high <<= 1
        if down >= two:
            down >>= 1
            low += 1
        if up >= two:
            up = (up + 1) >> 1
            high += 1
    # the remainders lie in [1, 2], so their log2 adds [0, 1] units
    return (e << bits) + low, (e << bits) + high + (up != one)


def log2_bounds(n: int, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer brackets lo[x] <= 2^bits * log2(x) <= hi[x] for x = 1..n.

    Only the primes p <= n are walked (:func:`_log2_walk`), at ``bits + g``
    bits.  Every other x gets the exact integer sum of the brackets of its
    prime factors, read off a smallest-prime-factor sieve, since log2 is
    additive over them; the sums are then rounded to ``bits`` bits, lo down
    and hi up, which keeps the brackets sound.  An x <= n has fewer than
    bitlen(n) prime factors and each walk is at most 2 units wide, so with
    2^g >= 2 bitlen(n) guard units a sum is at most one coarse unit wide,
    and after the rounding hi[x] - lo[x] <= 2 as for a single walk.  Only
    integer arithmetic is used; index 0 is unused and left at zero.
    """
    guard = (2 * n.bit_length()).bit_length()
    fine = bits + guard
    # every fine sum is below 2^fine * (log2(n) + 1)
    if (n.bit_length() + 1) << fine >= 1 << 63:
        raise ValueError(f"log2 brackets at {bits} bits overflow int64 at n = {n}")
    rest = np.arange(n + 1, dtype=np.int64)
    spf = rest.copy()  # smallest prime factor of each x >= 2
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            multiples = spf[p * p::p]
            np.minimum(multiples, p, out=multiples)
    prime_lo = np.zeros(n + 1, dtype=np.int64)
    prime_hi = np.zeros(n + 1, dtype=np.int64)
    for p in np.flatnonzero(spf == rest)[2:].tolist():  # 0 and 1 are their own spf too
        prime_lo[p], prime_hi[p] = _log2_walk(p, fine)
    lo = np.zeros(n + 1, dtype=np.int64)
    hi = np.zeros(n + 1, dtype=np.int64)
    rest[0] = 1
    for _ in range(n.bit_length() - 1):  # the most prime factors of any x <= n
        factor = spf[rest]  # spf[1] = 1, whose brackets are zero
        lo += prime_lo[factor]
        hi += prime_hi[factor]
        rest //= factor
    return lo >> guard, -(-hi >> guard)


def _coefficient_sum(n_grid: int) -> int:
    # largest sum of |exponent| over the log terms of one cell
    return 4 * n_grid + 8 * loop_bound(n_grid) + 12


def _log_bits(n_grid: int) -> int:
    """Fixed-point bits K for the log table: the most that keeps every cell's
    int64 sums below 2^62, since each log2 bracket is below 2^K * bitlen(N)."""
    bits = 62 - (_coefficient_sum(n_grid) * n_grid.bit_length()).bit_length()
    # a cell's interval is about 2 * coefficient sum / 2^bits bits wide; below
    # 24 bits it would widen toward the margins and send cells to the bigints
    if bits < 24:
        raise ValueError(f"grid resolution {n_grid} is too large for int64 log intervals")
    return bits


def _interval_grid(n_grid: int, lo: np.ndarray, hi: np.ndarray, bits: int):
    """Decide every cell of the grid from log2 brackets at ``bits`` fixed-point bits.

    In log2 form, rhs - lhs of the :func:`verify_cell` inequality is

        N + (N-i+j+1) L(N-i-1) + (N+i-j+1) L(N-j-1) + 2(i+j+2) L(B)
          - i L(i+1) - j L(j+1) - (2N+i+j+6) L(N),

    so brackets on each L give integer lower and upper bounds on 2^bits times
    it.  A cell passes when the lower bound is >= 0 and fails when the upper
    bound is < 0 or B = 0; the cells in between (the guard band) go to
    :func:`verify_cell`.

    Returns the sorted failing cells, the number of guard-band cells, the
    cell with the smallest lower bound among those with B > 0, and that
    lower bound.
    """
    m = loop_bound(n_grid)
    extreme = max(int(np.abs(lo).max()), int(np.abs(hi).max()))
    if (n_grid << bits) + extreme * _coefficient_sum(n_grid) >= 1 << 63:
        raise ValueError(f"log brackets at {bits} bits overflow int64 at N = {n_grid}")
    j = np.arange(m + 1, dtype=np.int64)
    failures: list[tuple[int, int]] = []
    fallbacks = 0
    tightest, least = None, None
    rows = max(1, (1 << 18) // (m + 1))  # bounds the temporaries to ~2 MB each
    for first in range(0, m + 1, rows):
        i = np.arange(first, min(first + rows, m + 1), dtype=np.int64)[:, None]
        base = i + j
        if first == 0 and _uses_origin_variant(0, 0, n_grid):
            base[0, 0] = 2
        a = n_grid - i + j + 1
        b = n_grid + i - j + 1
        c = 2 * (i + j + 2)
        d = 2 * n_grid + i + j + 6

        def bound(pos, neg):
            return ((n_grid << bits) + a * pos[n_grid - i - 1] + b * pos[n_grid - j - 1]
                    + c * pos[base] - i * neg[i + 1] - j * neg[j + 1]
                    - d * neg[n_grid])

        lower = bound(lo, hi)
        upper = bound(hi, lo)
        open_base = base > 0
        failed = (upper < 0) | ~open_base
        undecided = ~failed & (lower < 0)
        for row, col in zip(*np.nonzero(undecided)):
            fallbacks += 1
            if not verify_cell(first + int(row), int(col), n_grid):
                failed[row, col] = True
        failures.extend((first + int(row), int(col)) for row, col in zip(*np.nonzero(failed)))
        masked = np.where(open_base, lower, np.iinfo(np.int64).max)
        row, col = np.unravel_index(int(masked.argmin()), masked.shape)
        if least is None or masked[row, col] < least:
            tightest, least = (first + int(row), int(col)), int(masked[row, col])
    return tuple(failures), fallbacks, tightest, least


@dataclass(frozen=True)
class CertificateRun:
    """Record of one certificate execution; an empty failure list is the certificate.

    ``fallbacks`` counts the grid cells the log intervals could not decide
    and :func:`verify_cell` did; ``tightest`` is the cell with the smallest
    lower bound on log2(rhs / lhs) and ``margin_bits`` that bound.  The
    three stay at their defaults on a smoke run, which uses
    :func:`verify_cell` alone.
    """

    n_grid: int
    loop_bound: int
    cells_checked: int
    failures: tuple[tuple[int, int], ...]
    elapsed_s: float
    fallbacks: int = 0
    tightest: tuple[int, int] | None = None
    margin_bits: float | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "N": self.n_grid,
            "M": self.loop_bound,
            "cells": self.cells_checked,
            "failures": [[i, j] for i, j in self.failures],
            "elapsed_ms": round(self.elapsed_s * 1000.0),
        }


def certify(n_grid: int, smoke: int | None = None, seed: int | None = None,
            workers: int = 1) -> CertificateRun:
    """Decide every cell of the (M+1)^2 grid, or a random sample of them.

    The full grid is filtered by integer log2 intervals (see
    :func:`log2_bounds`): a cell whose lower bound is nonnegative passes,
    one whose upper bound is negative fails, and only the cells in the
    guard band between are decided by the bigint comparison of
    :func:`verify_cell`.  A smoke run decides each sampled cell with
    :func:`verify_cell` alone, an independent spot-check of the filter.

    Args:
        n_grid: grid resolution; must exceed 2e (a full pass additionally
            needs the origin-cell variant, which engages above 100).
        smoke: if given, check only this many uniformly sampled cells;
            at least one.
        seed: RNG seed for smoke sampling.
        workers: accepted for compatibility and ignored; the run takes
            one process at every resolution.
    """
    if n_grid <= 5:
        raise ValueError("grid resolution must exceed 2e")
    m = loop_bound(n_grid)
    start = time.perf_counter()

    if smoke is not None:
        if smoke < 1:
            raise ValueError(f"smoke must sample at least one cell, got {smoke}")
        rng = np.random.default_rng(seed)
        cells = rng.integers(0, m + 1, size=(smoke, 2))
        failures = tuple(
            (int(i), int(j)) for i, j in cells if not verify_cell(int(i), int(j), n_grid)
        )
        return CertificateRun(n_grid, m, smoke, tuple(sorted(failures)),
                              time.perf_counter() - start)

    bits = _log_bits(n_grid)
    failures, fallbacks, tightest, least = _interval_grid(
        n_grid, *log2_bounds(n_grid, bits), bits)
    return CertificateRun(n_grid, m, (m + 1) ** 2, failures,
                          time.perf_counter() - start, fallbacks, tightest,
                          least / (1 << bits))


# ---------------------------------------------------------------------------
# Dense float search, a sanity check against the exact certificate
# ---------------------------------------------------------------------------

def phi_max_search(n: int, step: float = 1e-3, within_u: bool = False) -> float:
    """Maximum of the gap function found on a dense grid of the 2- or 3-simplex.

    ``within_u`` restricts the 3-simplex search to the region where both
    outer coordinates stay below 1 - GAMMA (the part not handled by the
    coordinate-merge reduction); there the maximum sits strictly below log 2.
    """
    if not 0 < step <= 1:  # NaN included
        raise ValueError(f"step must lie in (0, 1], got {step}")
    from scipy.special import xlogy  # deferred: importing scipy costs 0.3 s

    if n == 2:
        q = np.arange(0.0, 1.0 + step / 2, step)
        values = -xlogy(q, q) - xlogy(1.0 - q, 1.0 - q)
        return float(values.max())
    if n == 3:
        axis = np.arange(0.0, 1.0 + step / 2, step)
        q, s = np.meshgrid(axis, axis, indexing="ij")
        mask = q + s <= 1.0 + 1e-12
        if within_u:
            mask &= (q <= 1.0 - GAMMA) & (s <= 1.0 - GAMMA)
        q, s = q[mask], s[mask]
        values = (xlogy(q, q) + xlogy(s, s)
                  - xlogy(1.0 - q + s, 1.0 - q)
                  - xlogy(1.0 + q - s, 1.0 - s)
                  - 2.0 * xlogy(q + s, q + s))
        return float(values.max())
    raise ValueError("dense search is provided for n in {2, 3} only")
