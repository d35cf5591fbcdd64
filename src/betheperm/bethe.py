"""Concave matching-polytope objectives and the permanent bound sandwich.

The central objective on a doubly stochastic P is

    sum_e P_e log(A_e / P_e)  -  gamma * sum_e (1 - P_e) log(1 - P_e)

which interpolates from the mean-field value at gamma = 1 down to the Bethe
value at gamma = -1; it is concave on the Birkhoff polytope for gamma in
[-1, 1].  On doubly stochastic P, diagonal scaling Q = diag(r) A diag(c)
moves the objective by the constant sum log r + sum log c, so every input,
exact or float, is maximized on the doubly stochastic Q from
``matrices.prescale``: the steps do not depend on the scale of A.
Maximization uses entropic mirror ascent with backtracking on log P,
starting at Q: each multiplicative gradient step, a sum in logs, is
re-projected onto the polytope by ``matrices._project_birkhoff``, the same
diagonal scaler that gave Q (Sinkhorn sweeps, then Newton steps on the
scaling dual, each an n x n solve).  ``bound_report`` prescales once for
its permanent pass and both maximizations.  The optimality residual is a
linear-assignment first-order gap: for a concave objective the gap
upper-bounds the distance to the optimum value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import (
    DoublyStochMatrix,
    NonNegMatrix,
    ZeroPermanentError,
    _log_entries,
    _project_birkhoff,
    prescale,
    validate_doubly_stochastic,
)
from .permanents import _marginal_pass

LOG2 = math.log(2.0)

TOL_OPT_DEFAULT = 1e-8
MAX_ITER_DEFAULT = 100_000

#: Iterates are clamped into [eps, 1 - eps] for gradient evaluation only;
#: the reported objective is always recomputed on the unclamped iterate.
INTERIOR_EPS = 1e-12

_FORBIDDEN_SCORE = -1e18


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not -1.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [-1, 1], got {gamma}"
                         " (log-concavity holds only there)")
    return gamma


# ---------------------------------------------------------------------------
# Objectives (log domain)
# ---------------------------------------------------------------------------

def bp_objective(matrix: NonNegMatrix, weights: DoublyStochMatrix,
                 gamma: float) -> float:
    """Fractional objective at parameter gamma; -inf iff P puts mass where A is zero.

    Conventions: a zero P entry contributes nothing, and (1 - P) log(1 - P)
    vanishes at P = 1.  Whether P puts mass on an entry is read from the
    entries of P themselves, so an exact entry below the float range still
    counts.
    """
    gamma = _check_gamma(gamma)
    if matrix.n != weights.n:
        raise ValueError(f"dimension mismatch: {matrix.n} vs {weights.n}")
    log_a = _log_entries(matrix)
    mass = np.array([[p > 0 for p in row] for row in weights.entries])
    if np.isneginf(log_a[mass]).any():
        return float("-inf")
    return _objective_np(log_a, weights.numpy(), gamma)


def beta_objective(matrix: NonNegMatrix, weights: DoublyStochMatrix) -> float:
    """The Bethe objective: the gamma = -1 member of the fractional family."""
    return bp_objective(matrix, weights, -1.0)


def objective_gradient(matrix: NonNegMatrix, weights: DoublyStochMatrix,
                       gamma: float = -1.0) -> np.ndarray:
    """Entrywise derivative log(A/P) - 1 + gamma (log(1 - P) + 1).

    At gamma = -1 this is log(A / (P (1 - P))) - 2.  Intended for interior P;
    entries at 0 or 1 produce infinities.
    """
    gamma = _check_gamma(gamma)
    if matrix.n != weights.n:
        raise ValueError(f"dimension mismatch: {matrix.n} vs {weights.n}")
    with np.errstate(divide="ignore"):
        return _gradient_np(_log_entries(matrix), weights.numpy(), gamma)


def _objective_np(log_a: np.ndarray, p: np.ndarray, gamma: float) -> float:
    t1 = np.zeros_like(p)
    mass = p > 0.0
    t1[mass] = p[mass] * (log_a[mass] - np.log(p[mass]))
    t2 = np.zeros_like(p)
    slack = p < 1.0
    t2[slack] = (1.0 - p[slack]) * np.log1p(-p[slack])
    return float(t1.sum() - gamma * t2.sum())


def _gradient_np(log_a: np.ndarray, p: np.ndarray, gamma: float) -> np.ndarray:
    return log_a - np.log(p) - 1.0 + gamma * (np.log1p(-p) + 1.0)


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy.optimize.linear_sum_assignment, with scipy imported on the first
    call rather than with the package (the import takes about 0.3 s)."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def _fw_gap(g: np.ndarray, p: np.ndarray, face: np.ndarray) -> float:
    """First-order optimality gap max_{S in B_n} <g, S - P> over the support face.

    The maximizing vertex is a permutation matrix, found by linear assignment.
    """
    score = np.where(face, g, _FORBIDDEN_SCORE)
    rows, cols = linear_sum_assignment(-score)
    best = float(score[rows, cols].sum())
    current = float((g * p).sum())
    return max(best - current, 0.0)


# ---------------------------------------------------------------------------
# Maximization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetheResult:
    """Outcome of one objective maximization.

    ``log_value`` recomputes from ``optimizer_P`` via the objective;
    ``gradient_residual`` bounds how far below the true maximum the reported
    value can sit.  ``optimizer_P`` is None only for a zero permanent, where
    the feasible face is empty and the value is -inf.
    """

    optimizer_P: DoublyStochMatrix | None
    log_value: float
    iterations: int
    converged: bool
    gradient_residual: float
    gamma: float
    objective_history: tuple[float, ...] | None = None


def optimize(matrix: NonNegMatrix, gamma: float = -1.0,
             tol: float = TOL_OPT_DEFAULT, max_iter: int = MAX_ITER_DEFAULT,
             record_history: bool = False) -> BetheResult:
    """Maximize the fractional objective over doubly stochastic matrices.

    Entries of A equal to zero are frozen at zero, as are support entries that
    no support permutation can use (the polytope face forces them to zero).
    The ascent runs on the prescaled Q, so A scaled by any diagonal factors
    takes the same steps; the value is recomputed on A itself.  Iterates
    stay feasible throughout; the objective never decreases; the returned
    residual is the final first-order gap.

    A non-converged run returns its best iterate flagged ``converged=False``.
    """
    return _ascend(prescale(matrix), _check_gamma(gamma), tol, max_iter,
                   record_history)


def _ascend(prepared, gamma: float, tol: float, max_iter: int,
            record_history: bool) -> BetheResult:
    """``optimize`` on ``prepared = prescale(A)``.  The iterate is carried
    as P and log P, starting at Q and log Q; each trial, log P + eta * (the
    gradient less its row maximum) on the face, is at most log P entrywise,
    so nothing overflows.
    """
    tol = float(tol)
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if prepared is None:
        history = (float("-inf"),) if record_history else None
        return BetheResult(None, float("-inf"), 0, True, 0.0, gamma, history)
    face, log_a, p, log_q, shift = prepared
    n = face.shape[0]

    if bool((face.sum(axis=1) == 1).all()):
        # the face is a single permutation matrix; nothing to optimize
        cols = face.argmax(axis=1)
        p = np.zeros((n, n))
        p[np.arange(n), cols] = 1.0
        value = float(log_a[np.arange(n), cols].sum())
        history = (value,) if record_history else None
        return BetheResult(validate_doubly_stochastic(p), value, 0, True, 0.0,
                           gamma, history)

    log_p = log_q
    value = _objective_np(log_q, p, gamma)
    history = [value] if record_history else None
    eta = 1.0
    residual = float("inf")
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        pc = np.clip(p, INTERIOR_EPS, 1.0 - INTERIOR_EPS)
        g = np.where(face, _gradient_np(log_q, pc, gamma), 0.0)
        residual = _fw_gap(g, p, face)
        if residual <= tol:
            converged = True
            break

        # g is 0 off the face, where log P stays -inf
        centered = g - np.where(face, g, -np.inf).max(axis=1, keepdims=True)
        accepted = False
        scale = max(1.0, abs(value))
        while eta >= 1e-18:
            trial = _project_birkhoff(log_p + eta * centered)
            if trial is not None:
                trial_value = _objective_np(log_q, trial[0], gamma)
                if trial_value >= value - 1e-13 * scale:
                    if trial_value > value + 1e-12 * scale:
                        # grow the step only on genuine progress; near the
                        # optimum a frozen step keeps the projected
                        # multiplicative map contracting instead of letting
                        # the iterate wander at the float noise floor
                        eta = min(eta * 1.25, 1e3)
                    p, log_p, _ = trial
                    value = trial_value
                    if history is not None:
                        history.append(value)
                    accepted = True
                    break
            eta *= 0.5
        if not accepted:
            break  # step size exhausted; report the best iterate honestly

    # recomputed on A itself: P is doubly stochastic only to about 1e-12,
    # and that much times a large shift would move the value
    final_value = _objective_np(log_a, p, gamma)
    result_p = validate_doubly_stochastic(p)
    if history is not None:
        history = tuple(h - shift for h in history)
    return BetheResult(result_p, final_value, iterations, converged, residual,
                       gamma, history)


# ---------------------------------------------------------------------------
# Bound reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Exact permanent against its variational bounds, log domain throughout."""

    n: int
    log_per: float
    log_bethe: float
    log_bp_half: float
    log_beta_marginals: float
    ratio_per_bethe: float
    ratio_per_bp_half: float
    checks: dict[str, bool]

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())

    def to_json_dict(self) -> dict:
        def fmt(x: float) -> float:
            return float(f"{x:.15g}")

        return {
            "n": self.n,
            "log_per": fmt(self.log_per),
            "log_bethe": fmt(self.log_bethe),
            "log_bp_half": fmt(self.log_bp_half),
            "log_beta_marginals": fmt(self.log_beta_marginals),
            "ratio_per_bethe": fmt(self.ratio_per_bethe),
            "ratio_per_bp_half": fmt(self.ratio_per_bp_half),
            "checks": dict(self.checks),
        }


def bound_report(matrix: NonNegMatrix, tol: float = TOL_OPT_DEFAULT,
                 max_iter: int = MAX_ITER_DEFAULT) -> BoundReport:
    """Evaluate the full inequality sandwich for one matrix.

    Checks, in log domain (slack covers float evaluation plus the optimizer
    residual on whichever side a maximization could understate):

    * the Bethe value never exceeds the permanent,
    * the permanent is at most (n/2) log 2 above the objective at the exact
      marginal matrix, and at most that far above the Bethe maximum,
    * the gamma = -1/2 value upper-bounds the permanent and sits within n/2
      of the Bethe value.
    """
    n = matrix.n
    prepared = prescale(matrix)
    log_per, weights = _marginal_pass(matrix, prepared)
    if weights is None:
        raise ZeroPermanentError("permanent is zero: bound report undefined")
    marg = validate_doubly_stochastic(weights)
    bethe = _ascend(prepared, -1.0, tol, max_iter, False)
    bp_half = _ascend(prepared, -0.5, tol, max_iter, False)
    log_beta_marg = beta_objective(matrix, marg)

    slack = 1e-9
    checks = {
        "bethe_le_per": bethe.log_value <= log_per + slack,
        "per_le_sqrt2n_beta_marginals":
            log_per <= 0.5 * n * LOG2 + log_beta_marg + slack,
        "per_le_sqrt2n_bethe":
            log_per <= 0.5 * n * LOG2 + bethe.log_value
            + bethe.gradient_residual + slack,
        "per_le_bp_half":
            log_per <= bp_half.log_value + bp_half.gradient_residual + slack,
        "bp_half_le_sqrte_n_bethe":
            bp_half.log_value <= 0.5 * n + bethe.log_value
            + bethe.gradient_residual + 1e-6,
    }
    return BoundReport(
        n=n,
        log_per=log_per,
        log_bethe=bethe.log_value,
        log_bp_half=bp_half.log_value,
        log_beta_marginals=log_beta_marg,
        ratio_per_bethe=math.exp(log_per - bethe.log_value),
        ratio_per_bp_half=math.exp(log_per - bp_half.log_value),
        checks=checks,
    )
