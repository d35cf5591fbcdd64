"""Objectives, gradients, the Birkhoff-polytope ascent, and bound reports."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from betheperm import (
    NonNegMatrix,
    ZeroPermanentError,
    beta_objective,
    block_diag,
    bound_report,
    bp_objective,
    log_permanent,
    marginals,
    objective_gradient,
    ones,
    optimize,
    pair_block_matrix,
    per_ryser,
    validate_doubly_stochastic,
)
from betheperm import bethe, matrices, permanents
from tests.test_matrices import identity_matrix, random_rational_matrix
from tests.test_permanents import DYADIC_BITS, as_float, dyadic_rows

LOG2 = math.log(2.0)


def random_positive_matrix(rng, n, low=0.05, high=1.0):
    return NonNegMatrix(tuple(tuple(float(x) for x in row)
                              for row in rng.uniform(low, high, (n, n))))


def random_doubly_stochastic(rng, n, num_vertices=8):
    """Random convex combination of permutation matrices (always feasible)."""
    weights = rng.dirichlet(np.ones(num_vertices))
    m = np.zeros((n, n))
    for w in weights:
        perm = rng.permutation(n)
        m[np.arange(n), perm] += w
    return validate_doubly_stochastic(m, tol=1e-9)


def exchange_family(p):
    """The one-parameter family of 2x2 doubly stochastic matrices."""
    return validate_doubly_stochastic([[p, 1.0 - p], [1.0 - p, p]], tol=1e-12)


class TestObjectives:
    def test_two_by_two_family_closed_form(self):
        rng = np.random.default_rng(2)
        a = random_positive_matrix(rng, 2)
        (a11, a12), (a21, a22) = a.entries
        for p in (0.0, 0.2, 0.5, 0.9, 1.0):
            expected = 0.0
            if p > 0:
                expected += p * math.log(a11 * a22)
            if p < 1:
                expected += (1 - p) * math.log(a12 * a21)
            assert beta_objective(a, exchange_family(p)) == pytest.approx(expected, abs=1e-12)

    def test_identity_pair_is_zero(self):
        eye = identity_matrix(3)
        assert beta_objective(eye, validate_doubly_stochastic(eye)) == 0.0
        assert bp_objective(eye, validate_doubly_stochastic(eye), 0.37) == 0.0

    def test_beta_at_marginals_term_by_term(self):
        a = NonNegMatrix(((1, 2), (3, 4)))
        p = marginals(a)
        # independent evaluator: plain float sum straight off the definition
        expected = 0.0
        for arow, prow in zip(a.entries, p.entries):
            for av, pv in zip(arow, prow):
                av, pv = float(av), float(pv)
                if pv > 0:
                    expected += pv * math.log(av / pv)
                if pv < 1:
                    expected += (1 - pv) * math.log(1 - pv)
        assert beta_objective(a, p) == pytest.approx(expected, abs=1e-12)

    def test_gamma_minus_one_is_beta(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            a = random_positive_matrix(rng, n)
            p = random_doubly_stochastic(rng, n)
            assert bp_objective(a, p, -1.0) == beta_objective(a, p)

    def test_uniform_ones_half_gamma_value(self):
        # four entries of 1/2: relative term 2 log 2, entropy term -log 2
        value = bp_objective(ones(2), exchange_family(0.5), -0.5)
        assert value == pytest.approx(LOG2, abs=1e-14)

    def test_mass_on_zero_entry_is_minus_infinity(self):
        a = NonNegMatrix(((1, 0), (1, 1)))
        p = exchange_family(0.5)
        assert beta_objective(a, p) == float("-inf")

    def test_gamma_range_enforced(self):
        with pytest.raises(ValueError, match="gamma"):
            bp_objective(ones(2), exchange_family(0.5), 1.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            beta_objective(ones(3), exchange_family(0.5))

    def test_exact_entries_accepted(self):
        a = NonNegMatrix(((Fraction(1, 2), Fraction(1, 2)),
                          (Fraction(1, 2), Fraction(1, 2))))
        p = validate_doubly_stochastic([[Fraction(1, 2), Fraction(1, 2)],
                                        [Fraction(1, 2), Fraction(1, 2)]])
        # relative term vanishes; four entropy terms of (1/2) log(1/2)
        assert beta_objective(a, p) == pytest.approx(-2 * LOG2, abs=1e-14)

    def test_exact_entry_beyond_the_float_range(self):
        a = NonNegMatrix(((10**400, 0), (0, 1)))
        p = validate_doubly_stochastic(identity_matrix(2))
        assert beta_objective(a, p) == pytest.approx(400 * math.log(10), abs=1e-9)

    def test_mass_below_the_float_range_on_a_zero_entry(self):
        # eps is 0.0 as a float, but P still puts mass where A is zero
        eps = Fraction(1, 10**400)
        p = validate_doubly_stochastic([[1 - eps, eps], [eps, 1 - eps]])
        assert beta_objective(identity_matrix(2), p) == float("-inf")


class TestGradient:
    def test_matches_central_differences(self):
        # single-entry perturbations leave the polytope; the objective is
        # still defined entrywise, so the raw container is used directly
        from betheperm.matrices import DoublyStochMatrix

        rng = np.random.default_rng(5)
        step = 1e-6
        for _ in range(10):
            n = int(rng.integers(2, 6))
            a = random_positive_matrix(rng, n, low=0.2)
            base = np.clip(
                np.asarray(random_doubly_stochastic(rng, n).entries, dtype=float),
                0.05, 0.95)
            for gamma in (-1.0, -0.5, 0.0, 1.0):
                g = objective_gradient(a, DoublyStochMatrix(tuple(map(tuple, base))),
                                       gamma)
                i, j = rng.integers(0, n, 2)
                up = base.copy()
                up[i, j] += step
                down = base.copy()
                down[i, j] -= step
                numeric = (bp_objective(a, DoublyStochMatrix(tuple(map(tuple, up))), gamma)
                           - bp_objective(a, DoublyStochMatrix(tuple(map(tuple, down))), gamma)
                           ) / (2 * step)
                assert g[i, j] == pytest.approx(numeric, rel=1e-5)


class TestOptimize:
    def test_all_ones_2x2(self):
        result = optimize(ones(2), -1.0)
        assert abs(result.log_value) <= 1e-9
        assert result.converged

    def test_diagonal_support_forces_permutation(self):
        a = NonNegMatrix(((2, 0, 0), (0, 5, 0), (0, 0, 3)))
        result = optimize(a, -1.0)
        assert result.log_value == pytest.approx(math.log(30), abs=1e-12)
        assert result.optimizer_P.entries == ((1.0, 0.0, 0.0),
                                              (0.0, 1.0, 0.0),
                                              (0.0, 0.0, 1.0))
        assert result.iterations == 0 and result.converged

    def test_two_by_two_endpoint_maximum(self):
        result = optimize(NonNegMatrix(((1, 2), (3, 4))), -1.0)
        assert result.log_value == pytest.approx(math.log(6), abs=1e-6)
        assert result.converged

    def test_zero_permanent_short_circuit(self):
        result = optimize(NonNegMatrix(((1, 0), (0, 0))), -1.0)
        assert result.log_value == float("-inf")
        assert result.optimizer_P is None
        assert result.converged and result.iterations == 0

    def test_iterates_feasible_and_support_respecting(self):
        a = NonNegMatrix(((1, 1, 0), (1, 1, 0), (0, 0, 5)))
        result = optimize(a, -1.0)
        p = result.optimizer_P
        validate_doubly_stochastic(p, tol=1e-9)
        for i in range(3):
            for j in range(3):
                if a.entries[i][j] == 0:
                    assert p.entries[i][j] == 0.0

    def test_log_value_recomputable_from_returned_point(self):
        rng = np.random.default_rng(53)
        for gamma in (-1.0, -0.5):
            a = random_positive_matrix(rng, 4)
            result = optimize(a, gamma)
            assert result.log_value == pytest.approx(
                bp_objective(a, result.optimizer_P, gamma), abs=1e-12)
            assert result.converged and result.gradient_residual <= 1e-8

    def test_objective_history_non_decreasing(self):
        rng = np.random.default_rng(11)
        a = random_positive_matrix(rng, 5)
        result = optimize(a, -1.0, record_history=True)
        h = result.objective_history
        assert all(h[k + 1] >= h[k] - 1e-9 for k in range(len(h) - 1))

    def test_exact_entry_below_float_range_on_a_single_permutation(self):
        tiny = Fraction(1, 10 ** 400)
        a = NonNegMatrix(((tiny, 0), (0, 1)))
        result = optimize(a, -1.0)
        assert result.converged
        assert result.log_value == pytest.approx(log_permanent(a), abs=1e-9)
        assert result.log_value == pytest.approx(-921.034037, abs=1e-6)

    def test_exact_entry_below_float_range_on_a_full_face(self):
        tiny = Fraction(1, 10 ** 400)
        a = NonNegMatrix(((tiny, 1), (1, 1)))
        for gamma in (-1.0, -0.5):
            result = optimize(a, gamma)
            assert result.converged
            assert math.isfinite(result.log_value)
            # per(A) = 1 + 1e-400, so every value here is about 0
            assert abs(result.log_value) <= 1e-9

    def test_exact_entry_above_float_range(self):
        a = NonNegMatrix(((Fraction(10 ** 400), 1), (1, 1)))
        result = optimize(a, -1.0, record_history=True)
        assert result.converged
        assert result.log_value == pytest.approx(log_permanent(a), abs=1e-9)
        assert result.objective_history[-1] == pytest.approx(result.log_value, abs=1e-9)

    def test_overflowing_newton_trial_is_silent(self):
        # a full Newton step of one re-projection overflows exp() on this
        # input; the line search rejects it without a RuntimeWarning
        a = NonNegMatrix(tuple(tuple(math.ldexp(x, -6) for x in row) for row in
                               ((0, 16, 61), (44, 33, 0), (33, 24, 22))))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = optimize(a, -1.0)
        assert result.converged

    def test_nonconvergence_is_flagged_not_wrong(self):
        rng = np.random.default_rng(13)
        a = random_positive_matrix(rng, 5)
        result = optimize(a, -1.0, max_iter=2)
        assert not result.converged
        assert result.gradient_residual > 0
        validate_doubly_stochastic(result.optimizer_P, tol=1e-9)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_max_iter_needs_a_step(self, max_iter):
        # with no step the residual stays infinite and every padded check
        # of a bound report would hold vacuously
        a = random_positive_matrix(np.random.default_rng(13), 5)
        with pytest.raises(ValueError, match="max_iter"):
            optimize(a, -1.0, max_iter=max_iter)
        with pytest.raises(ValueError, match="max_iter"):
            bound_report(a, max_iter=max_iter)

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-9])
    def test_tolerance_must_be_positive(self, tol):
        # no residual is <= NaN, so a NaN tolerance would run every iteration
        a = random_positive_matrix(np.random.default_rng(13), 5)
        with pytest.raises(ValueError, match="tolerance"):
            optimize(a, -1.0, tol=tol, max_iter=50)
        with pytest.raises(ValueError, match="tolerance"):
            bound_report(a, tol=tol, max_iter=50)


def _scaling_fit_error(log_q, log_s):
    """Largest misfit of log s - log q to u_i + v_j on the support of q,
    for the least-squares u and v."""
    n = log_q.shape[0]
    rows, cols = np.nonzero(np.isfinite(log_q))
    incidence = np.zeros((len(rows), 2 * n))
    incidence[np.arange(len(rows)), rows] = 1.0
    incidence[np.arange(len(rows)), n + cols] = 1.0
    d = log_s[rows, cols] - log_q[rows, cols]
    uv = np.linalg.lstsq(incidence, d, rcond=None)[0]
    return float(np.abs(incidence @ uv - d).max())


def _sparse_face_input(rng, n):
    """A doubly stochastic mix of 4 permutation matrices, two of them with
    weights 1e-280 and 1e-150, times entrywise factors in [e^-3, e^3]: the
    shape of an ascent step near the polytope boundary."""
    p = np.zeros((n, n))
    weights = rng.dirichlet(np.ones(4))
    weights[:2] = 1e-280, 1e-150
    for w in weights:
        p[np.arange(n), rng.permutation(n)] += w
    return p * np.exp(rng.uniform(-3.0, 3.0, (n, n)))


class TestProjection:
    def check(self, q):
        with np.errstate(divide="ignore"):
            log_q = np.log(q)
        rows, sigma = bethe.linear_sum_assignment(np.where(q > 0, 0.0, 1.0))
        assert (q[rows, sigma] > 0).all()  # a permutation on the support
        for offset in (0.0, 100 * LOG2, -100 * LOG2):
            log_p = log_q + offset
            s, log_s, shift = matrices._project_birkhoff(log_p)
            assert np.abs(s.sum(axis=1) - 1.0).max() <= 1e-12
            assert np.abs(s.sum(axis=0) - 1.0).max() <= 1e-12
            assert ((s > 0) == (q > 0)).all()
            assert (np.isfinite(log_s) == (q > 0)).all()
            assert _scaling_fit_error(log_q, log_s) <= 1e-9
            normal = s >= 1e-300  # subnormals keep too few bits to compare
            assert np.abs(np.exp(log_s[normal]) / s[normal] - 1.0).max() <= 1e-12
            # shift = sum u + sum v, read off along any support permutation
            assert abs(shift - (log_s[rows, sigma] - log_p[rows, sigma]).sum()) <= 1e-9

    def test_dense_positive(self):
        rng = np.random.default_rng(59)
        for n in range(2, 31):
            self.check(rng.uniform(0.05, 1.0, (n, n)))

    def test_sparse_faces_down_to_1e_280(self):
        rng = np.random.default_rng(61)
        smallest = 1.0
        for n in range(2, 31):
            q = _sparse_face_input(rng, n)
            smallest = min(smallest, q[q > 0].min())
            self.check(q)
        assert smallest < 1e-280

    def test_column_far_below_its_rows_maxima(self):
        # after the row-max shift the middle column is e^-1381, which is 0.0
        # in floats; the column-max shift brings its largest entry back to 1
        self.check(np.array([[1e300, 1e-300, 1.0], [1e300, 1e-300, 1.0],
                             [1.0, 1e-300, 1e300]]))

    def test_entries_that_return_from_underflow(self):
        # after the max shifts entry (3, 4) is 2^-1086, 0.0 in floats, yet it
        # is about 1 in the doubly stochastic scaling; sweeps that divide S
        # in place balance the support without it, and Newton fails from there
        exponents = [[-416, None, -252, -840, -632], [None, -283, -162, -106, None],
                     [None, -570, 812, -274, -848], [None, -125, 16, -861, 535],
                     [-283, None, 526, -628, -800]]
        a = NonNegMatrix(tuple(tuple(0.0 if e is None else math.ldexp(1.0, e)
                                     for e in row) for row in exponents))
        exact = NonNegMatrix(tuple(tuple(0 if e is None else Fraction(2) ** e
                                         for e in row) for row in exponents))
        log_per = log_permanent(exact)
        assert log_permanent(a) == pytest.approx(log_per, rel=1e-15)
        for gamma in (-1.0, -0.5):
            result = optimize(a, gamma)
            assert result.converged
            assert result.log_value <= log_per + 1e-9

    def test_zero_row_collapses(self):
        log_q = np.log(np.random.default_rng(67).uniform(0.05, 1.0, (5, 5)))
        log_q[2] = -np.inf
        assert matrices._project_birkhoff(log_q) is None

    @pytest.mark.parametrize("rows, rk, ck", [
        ([[int(x) for x in row]
          for row in np.random.default_rng(71).integers(1, 64, (12, 12))],
         [exponent] * 12, None)
        for exponent in (300, -300)] + [
        # the input of test_scaling_that_needs_many_sweeps
        ([[31, 31, 27, 40, 55], [25, 35, 0, 0, 52], [0, 0, 0, 23, 42],
          [23, 0, 39, 20, 51], [43, 36, 0, 34, 16]],
         [-6, 86, 71, 6, 20], [-1, -33, 11, -81, 1])])
    def test_prescale_is_doubly_stochastic(self, rows, rk, ck):
        face, _, q, log_q, _ = matrices.prescale(as_float(rows, rk, ck))
        assert np.abs(q.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(q.sum(axis=0) - 1.0).max() <= 1e-12
        assert (np.isfinite(log_q) == face).all()


class TestProperties:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.data())
    def test_invariant_under_permutation_and_transpose(self, data):
        rows = data.draw(dyadic_rows(max_n=10))
        n = len(rows)
        p = data.draw(st.permutations(range(n)))
        q = data.draw(st.permutations(range(n)))
        permuted = [[rows[p[i]][q[j]] for j in range(n)] for i in range(n)]
        transposed = [list(col) for col in zip(*rows)]
        for gamma in (-1.0, -0.5):
            base = optimize(as_float(rows), gamma)
            for variant in (permuted, transposed):
                other = optimize(as_float(variant), gamma)
                if base.log_value == float("-inf"):
                    assert other.log_value == base.log_value
                    continue
                assert base.converged and other.converged
                assert abs(other.log_value - base.log_value) <= (
                    base.gradient_residual + other.gradient_residual + 1e-12)

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(17)
        tol = 1e-8
        for _ in range(5):
            n = int(rng.integers(2, 6))
            a = random_positive_matrix(rng, n)
            gammas = sorted(rng.uniform(-1, 1, 3))
            values = [optimize(a, g, tol=tol).log_value for g in gammas]
            assert values[0] <= values[1] + tol
            assert values[1] <= values[2] + tol

    def test_concavity_probe(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            a = random_positive_matrix(rng, n)
            gamma = float(rng.uniform(-1, 1))
            p1 = np.asarray(random_doubly_stochastic(rng, n).entries, dtype=float)
            p2 = np.asarray(random_doubly_stochastic(rng, n).entries, dtype=float)
            lam = float(rng.uniform(0.05, 0.95))
            mix = validate_doubly_stochastic(lam * p1 + (1 - lam) * p2, tol=1e-9)
            f1 = bp_objective(a, validate_doubly_stochastic(p1, tol=1e-9), gamma)
            f2 = bp_objective(a, validate_doubly_stochastic(p2, tol=1e-9), gamma)
            assert bp_objective(a, mix, gamma) >= lam * f1 + (1 - lam) * f2 - 1e-9

    def test_lower_bound_and_marginals_sandwich(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            a = random_positive_matrix(rng, n, low=0.0)
            lp = log_permanent(a)
            assert optimize(a, -1.0).log_value <= lp
            assert lp <= 0.5 * n * LOG2 + beta_objective(a, marginals(a)) + 1e-9

    def test_block_multiplicativity(self):
        rng = np.random.default_rng(29)
        tol = 1e-8
        b = random_positive_matrix(rng, 3)
        c = random_positive_matrix(rng, 2)
        lhs = optimize(block_diag(b, c), -1.0, tol=tol).log_value
        rhs = optimize(b, -1.0, tol=tol).log_value + optimize(c, -1.0, tol=tol).log_value
        assert abs(lhs - rhs) <= 3 * tol

    def test_sqrt_e_gap(self):
        rng = np.random.default_rng(31)
        tol = 1e-8
        for _ in range(5):
            n = int(rng.integers(2, 6))
            a = random_positive_matrix(rng, n)
            gap = (optimize(a, -0.5, tol=tol).log_value
                   - optimize(a, -1.0, tol=tol).log_value)
            assert gap <= 0.5 * n + tol

    def test_diagonal_scaling_covariance_grid_check_n2(self):
        # closed 2x2 family: the objective shifts by the scaler logs pointwise,
        # so the grid maxima must shift by exactly that amount
        rng = np.random.default_rng(37)
        a = random_positive_matrix(rng, 2)
        d = rng.uniform(0.5, 2.0, 2)
        e = rng.uniform(0.5, 2.0, 2)
        scaled = NonNegMatrix(tuple(
            tuple(d[i] * a.entries[i][j] * e[j] for j in range(2)) for i in range(2)))
        shift = math.log(d[0] * d[1] * e[0] * e[1])
        grid = np.linspace(1e-9, 1 - 1e-9, 2001)
        base_vals = [beta_objective(a, exchange_family(p)) for p in grid]
        scaled_vals = [beta_objective(scaled, exchange_family(p)) for p in grid]
        assert max(scaled_vals) == pytest.approx(max(base_vals) + shift, abs=1e-9)

    def test_diagonal_scaling_covariance_optimizer(self):
        rng = np.random.default_rng(41)
        tol = 1e-8
        for n in (2, 4):
            a = random_positive_matrix(rng, n)
            d = rng.uniform(0.5, 2.0, n)
            e = rng.uniform(0.5, 2.0, n)
            scaled = NonNegMatrix(tuple(
                tuple(d[i] * a.entries[i][j] * e[j] for j in range(n))
                for i in range(n)))
            shift = float(np.log(d).sum() + np.log(e).sum())
            lhs = optimize(scaled, -1.0, tol=tol).log_value
            rhs = optimize(a, -1.0, tol=tol).log_value + shift
            assert abs(lhs - rhs) <= 3 * tol


class TestBoundReport:
    def test_marginal_cancelled_below_zero_is_clamped(self):
        # marginals (3, 1) and (3, 2) are about 1e-900, and Glynn's signed
        # sum can leave them slightly negative; unclamped, the marginal
        # matrix fails validation
        a = NonNegMatrix(((1e300, 1e-300, 1.0), (1e300, 1e-300, 1.0),
                          (1.0, 1e-300, 1e300)))
        assert (marginals(a).numpy() >= 0.0).all()
        assert bound_report(a).all_passed

    def test_tight_block_example(self):
        report = bound_report(pair_block_matrix(4))
        assert report.n == 8
        assert report.log_per == pytest.approx(4 * LOG2, abs=1e-12)
        assert abs(report.log_bethe) <= 1e-6
        assert report.ratio_per_bethe == pytest.approx(2.0 ** 4, rel=1e-6)
        assert report.all_passed

    def test_identity_all_ratios_one(self):
        report = bound_report(identity_matrix(4))
        assert report.log_per == 0.0
        assert abs(report.log_bethe) <= 1e-9
        assert report.ratio_per_bethe == pytest.approx(1.0, rel=1e-9)
        assert report.ratio_per_bp_half == pytest.approx(1.0, rel=1e-9)
        assert report.all_passed

    def test_random_matrices_pass_all_checks(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            a = NonNegMatrix(tuple(tuple(float(x) for x in row)
                                   for row in rng.uniform(0, 1, (n, n))))
            report = bound_report(a)
            assert report.all_passed, report.checks

    def test_ratios_consistent_with_logs(self):
        rng = np.random.default_rng(47)
        a = random_positive_matrix(rng, 4)
        report = bound_report(a)
        assert report.ratio_per_bethe == pytest.approx(
            math.exp(report.log_per - report.log_bethe), rel=1e-9)
        assert report.ratio_per_bp_half == pytest.approx(
            math.exp(report.log_per - report.log_bp_half), rel=1e-9)

    def test_zero_permanent_propagates(self):
        with pytest.raises(ZeroPermanentError):
            bound_report(NonNegMatrix(((1, 0), (0, 0))))
        with pytest.raises(ZeroPermanentError):
            bound_report(NonNegMatrix(((1.0, 0.0), (0.0, 0.0))))

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_one_glynn_pass_per_call(self, monkeypatch, exact):
        if exact:
            a = random_rational_matrix(np.random.default_rng(73), 6)
            per = per_ryser(a)
            minors = permanents.permanent_minors(a)
            expected = tuple(tuple(Fraction(a.entries[i][j]) * minors[i][j] / per
                                   for j in range(6)) for i in range(6))
            expected_per = math.log(per.numerator) - math.log(per.denominator)
        else:
            a = random_positive_matrix(np.random.default_rng(71), 7)
            expected = marginals(a).entries
            expected_per = log_permanent(a)
        passes = []
        glynn = permanents._glynn

        def counting(x):
            passes.append(x)
            return glynn(x)

        monkeypatch.setattr(permanents, "_glynn", counting)
        weights = marginals(a)
        assert len(passes) == 1
        assert weights.entries == expected
        if exact:
            assert all(isinstance(x, Fraction) for row in weights.entries for x in row)
        passes.clear()
        report = bound_report(a)
        assert len(passes) == 1
        assert report.log_per == expected_per
        assert report.log_beta_marginals == beta_objective(a, weights)

    @pytest.mark.parametrize("exact", [False, True])
    def test_one_prescale_per_report(self, monkeypatch, exact):
        rng = np.random.default_rng(79)
        a = random_rational_matrix(rng, 6) if exact else random_positive_matrix(rng, 6)
        expected = bound_report(a)
        calls = []
        original = matrices.prescale

        def counting(matrix):
            calls.append(matrix)
            return original(matrix)

        for module in (matrices, permanents, bethe):
            monkeypatch.setattr(module, "prescale", counting)
        assert bound_report(a) == expected
        assert calls == [a]

    def test_json_keys(self):
        payload = bound_report(ones(2)).to_json_dict()
        assert set(payload) == {"n", "log_per", "log_bethe", "log_bp_half",
                                "log_beta_marginals", "ratio_per_bethe",
                                "ratio_per_bp_half", "checks"}
        assert set(payload["checks"]) == {
            "bethe_le_per", "per_le_sqrt2n_beta_marginals", "per_le_sqrt2n_bethe",
            "per_le_bp_half", "bp_half_le_sqrte_n_bethe"}


# ---------------------------------------------------------------------------
# Inputs that the float permanent path once got wrong
# ---------------------------------------------------------------------------

def _stored_input(family, n, seed_name):
    """Integer rows and the power of two that divides them, drawn from a
    named random stream: 'uniform' has entries 1..63 over 2^6,
    'near_boundary' the eighth powers of those over 2^48, and 'sparse_diag'
    a diagonal plus 3 random entries per row over 2^6."""
    rnd = random.Random(seed_name)

    def level():
        return 1 + int(rnd.random() * 63)

    def perm():
        p = list(range(n))
        for i in range(n - 1, 0, -1):
            j = int(rnd.random() * (i + 1))
            p[i], p[j] = p[j], p[i]
        return p

    if family == "uniform":
        return [[level() for _ in range(n)] for _ in range(n)], 6
    if family == "near_boundary":
        return [[level() ** 8 for _ in range(n)] for _ in range(n)], 48
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = level()
        for j in perm()[:3]:
            rows[i][j] = level()
    return rows, 6


@pytest.mark.parametrize("family, n, seed_name, shift", [
    # every entry scaled by 2^100 and 2^-100: once NaN and a false zero
    ("uniform", 12, "pool/uniform/12/0", 100),
    ("uniform", 12, "pool/uniform/12/0", -100),
    # entries on no perfect matching: once a marginal of -4e-15
    ("sparse_diag", 10, "pool/sparse_diag/10/0", 0),
    # entries down to 2^-48: once a marginal row sum of 1 + 1e-8
    ("near_boundary", 10, "pool/near_boundary/10/5", 0),
])
def test_bound_report_on_float_edge_inputs(family, n, seed_name, shift):
    rows, scale = _stored_input(family, n, seed_name)
    matrix = NonNegMatrix(tuple(tuple(math.ldexp(x, shift - scale) for x in row)
                                for row in rows))
    exact = math.log(per_ryser(NonNegMatrix(rows))) + n * (shift - scale) * LOG2
    report = bound_report(matrix)
    assert report.all_passed, report.checks
    assert abs(report.log_per - exact) <= 1e-9


# ---------------------------------------------------------------------------
# Diagonal scaling by powers of two
# ---------------------------------------------------------------------------

def _scaled_input(family, n, k):
    """The stored ``family`` input of order n, every entry scaled by 2^k."""
    rows, scale = _stored_input(family, n, f"pool/{family}/{n}/0")
    return NonNegMatrix(tuple(tuple(math.ldexp(x, k - scale) for x in row)
                              for row in rows))


class TestScaleCovariance:
    """The ascent runs on the same prescaled matrix at every scale of A, so
    it takes the same steps, and its value moves by exactly the log of the
    scale factor."""

    @pytest.mark.parametrize("n, gamma", [(12, -1.0), (30, -0.5)])
    def test_uniform_input_at_every_scale(self, n, gamma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base = optimize(_scaled_input("uniform", n, 0), gamma)
            assert base.converged
            for k in (100, -100, 300, -300):
                result = optimize(_scaled_input("uniform", n, k), gamma)
                assert result.converged
                assert result.iterations == base.iterations, k
                assert abs(result.log_value - n * k * LOG2 - base.log_value) <= (
                    result.gradient_residual + 1e-12), k

    def test_sparse_input_far_below_one_is_silent(self):
        base = optimize(_scaled_input("sparse_diag", 10, 0), -1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = optimize(_scaled_input("sparse_diag", 10, -300), -1.0)
        assert result.converged
        assert abs(result.log_value + 3000 * LOG2 - base.log_value) <= (
            result.gradient_residual + 1e-12)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.data())
    def test_covariant_under_row_and_column_scaling(self, data):
        rows = data.draw(dyadic_rows(max_n=10))
        n = len(rows)
        exponents = st.lists(st.integers(-100, 100), min_size=n, max_size=n)
        rk, ck = data.draw(exponents), data.draw(exponents)
        shift = (sum(rk) + sum(ck)) * LOG2
        for gamma in (-1.0, -0.5):
            base = optimize(as_float(rows), gamma)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scaled = optimize(as_float(rows, rk, ck), gamma)
            if base.log_value == float("-inf"):
                assert scaled.log_value == base.log_value
                continue
            assert base.converged and scaled.converged
            assert abs(scaled.log_value - shift - base.log_value) <= (
                base.gradient_residual + scaled.gradient_residual + 1e-12)


class TestBoundReportProperties:
    """``log_per``, ``log_bethe`` and ``log_bp_half`` are invariant under
    row and column permutations and transposition, and covariant under
    diagonal scaling, within each optimizer's residual."""

    KEYS = ("log_per", "log_bethe", "log_bp_half")

    @staticmethod
    def report(matrix):
        """The report and, per key, how far its value may sit below the
        true one: the residuals of the two maximizations it runs."""
        gaps = {"log_per": 0.0,
                "log_bethe": optimize(matrix, -1.0).gradient_residual,
                "log_bp_half": optimize(matrix, -0.5).gradient_residual}
        return bound_report(matrix), gaps

    def assert_close(self, base, other, shift=0.0):
        (report, gaps), (other_report, other_gaps) = base, other
        for key in self.KEYS:
            value = getattr(other_report, key)
            # the log of a scaled entry carries a rounding error relative to
            # its size
            slack = max(1e-12, 2e-15 * abs(value))
            assert abs(value - shift - getattr(report, key)) <= (
                gaps[key] + other_gaps[key] + slack), key

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(st.data())
    def test_invariant_under_permutation_and_transpose(self, data):
        rows = data.draw(dyadic_rows(max_n=8))
        if per_ryser(NonNegMatrix(rows)) == 0:
            return
        n = len(rows)
        p = data.draw(st.permutations(range(n)))
        q = data.draw(st.permutations(range(n)))
        permuted = [[rows[p[i]][q[j]] for j in range(n)] for i in range(n)]
        transposed = [list(col) for col in zip(*rows)]
        base = self.report(as_float(rows))
        for variant in (permuted, transposed):
            self.assert_close(base, self.report(as_float(variant)))

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(st.data())
    def test_covariant_under_row_and_column_scaling(self, data):
        rows = data.draw(dyadic_rows(max_n=8))
        if per_ryser(NonNegMatrix(rows)) == 0:
            return
        n = len(rows)
        exponents = st.lists(st.integers(-100, 100), min_size=n, max_size=n)
        rk, ck = data.draw(exponents), data.draw(exponents)
        self.assert_close(self.report(as_float(rows)),
                          self.report(as_float(rows, rk, ck)),
                          shift=(sum(rk) + sum(ck)) * LOG2)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(dyadic_rows(max_n=8))
    def test_exact_and_float_entries_agree(self, rows):
        if per_ryser(NonNegMatrix(rows)) == 0:
            return
        exact = bound_report(NonNegMatrix(tuple(
            tuple(Fraction(x, 2 ** DYADIC_BITS) for x in row) for row in rows)))
        approx = bound_report(as_float(rows))
        for key in self.KEYS:
            assert abs(getattr(exact, key) - getattr(approx, key)) <= 1e-12, key
        assert exact.checks == approx.checks
