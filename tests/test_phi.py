"""Gap function, coordinate-merge reduction, and the exact grid certificate."""

import importlib
import math
from fractions import Fraction

import numpy as np
import pytest

from betheperm import (
    GAMMA,
    certify,
    entropy_dominance_check,
    loop_bound,
    ordering_gap,
    ordering_gap_log_form,
    phi,
    phi3_exp_form,
    phi_log_form,
    phi_max_search,
    reduction_check,
    stationary_qt,
    verify_cell,
    within_merge_threshold,
)
from betheperm.matrices import log_scalar
from betheperm.phi import _interval_grid, _log_bits, eval_log_form, log2_bounds
from tests.test_sampling import random_simplex_point

# the package exports the function phi under the module's name
phi_module = importlib.import_module("betheperm.phi")

LOG2 = math.log(2.0)


def random_simplex_float(rng, n):
    raw = rng.uniform(0, 1, n)
    return tuple(raw / raw.sum())


class TestPhi:
    def test_two_point_uniform(self):
        assert phi((Fraction(1, 2), Fraction(1, 2))) == pytest.approx(LOG2, abs=1e-14)

    def test_single_point(self):
        assert phi((Fraction(1),)) == 0.0
        assert phi((1.0,)) == 0.0

    def test_zero_coordinate_dropped(self):
        assert phi((Fraction(1, 2), Fraction(0), Fraction(1, 2))) == pytest.approx(
            LOG2, abs=1e-14)

    def test_zero_insertion_invariance_exact(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 4):
            p = random_simplex_point(rng, n)
            base = phi_log_form(p)
            for pos in range(n + 1):
                padded = p[:pos] + (Fraction(0),) + p[pos:]
                assert phi_log_form(padded) == base

    def test_zero_insertion_invariance_float(self):
        rng = np.random.default_rng(5)
        p = random_simplex_float(rng, 4)
        for pos in range(5):
            padded = p[:pos] + (0.0,) + p[pos:]
            assert phi(padded) == pytest.approx(phi(p), abs=1e-12)

    def test_reversal_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            q, r, s, t = random_simplex_point(rng, 4)
            assert phi((q, r, s, t)) == pytest.approx(phi((t, s, r, q)), abs=1e-12)

    def test_float_and_exact_paths_agree(self):
        rng = np.random.default_rng(9)
        p = random_simplex_point(rng, 5)
        assert phi(tuple(float(x) for x in p)) == pytest.approx(phi(p), abs=1e-11)

    def test_coordinate_just_below_one(self):
        # 1 - x = 1e-30 is exact, where log1p(-float(x)) would be -inf; the
        # true values are about 1e-28, and the float logs of the prefixes
        # cancel to within about 1e-14
        tiny = Fraction(1, 10**30)
        p = (1 - tiny, tiny)
        assert phi(p) == pytest.approx(eval_log_form(phi_log_form(p)), abs=1e-13)
        assert phi(p) == pytest.approx(0.0, abs=1e-13)
        assert ordering_gap(p) == pytest.approx(
            eval_log_form(ordering_gap_log_form(p)), abs=1e-13)
        assert ordering_gap(p) == pytest.approx(0.0, abs=1e-13)
        assert entropy_dominance_check(p)
        assert entropy_dominance_check((1 - tiny, tiny / 2, tiny / 2))


class TestEntropyDominance:
    def test_single_point_equality(self):
        assert entropy_dominance_check((Fraction(1),))

    def test_two_point_uniform_equality_exact(self):
        # both sides reduce to log(1/2); the exact form difference is empty
        assert entropy_dominance_check((Fraction(1, 2), Fraction(1, 2)), slack=0.0)

    def test_random_points(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            assert entropy_dominance_check(random_simplex_float(rng, n))


class TestMergeThreshold:
    def test_constant_value(self):
        assert GAMMA == pytest.approx((math.sqrt(17) - 3) / 2, abs=1e-15)

    def test_exact_comparison_at_rationals(self):
        assert within_merge_threshold(Fraction(1, 4), Fraction(1, 4))
        assert within_merge_threshold(Fraction(28, 100), Fraction(28, 100))
        assert not within_merge_threshold(Fraction(29, 100), Fraction(29, 100))

    def test_float_fallback(self):
        assert within_merge_threshold(0.25, 0.25)
        assert not within_merge_threshold(0.3, 0.3)


class TestReduction:
    def test_zero_pair_is_equality(self):
        assert reduction_check(Fraction(1, 2), Fraction(0), Fraction(0),
                               Fraction(1, 2), slack=0.0)

    def test_concrete_point(self):
        assert reduction_check(0.3, 0.2, 0.2, 0.3)

    def test_random_points_below_threshold(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 500:
            q, r, s, t = random_simplex_float(rng, 4)
            if r + s > GAMMA:
                continue
            assert reduction_check(q, r, s, t)
            checked += 1

    def test_rejects_non_simplex_input(self):
        with pytest.raises(ValueError):
            reduction_check(0.5, 0.5, 0.5, 0.5)


class TestStationaryOuterPair:
    def test_zero_middle(self):
        assert stationary_qt(Fraction(0), Fraction(0)) == (Fraction(1, 2), Fraction(1, 2))

    def test_quarter_middle(self):
        assert stationary_qt(Fraction(1, 4), Fraction(1, 4)) == (Fraction(1, 4),
                                                                 Fraction(1, 4))

    def test_sum_to_one_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            r = Fraction(int(rng.integers(0, 30)), 100)
            s = Fraction(int(rng.integers(0, 30)), 100)
            q, t = stationary_qt(r, s)
            assert q + r + s + t == 1

    def test_sum_to_one_float(self):
        q, t = stationary_qt(0.3, 0.2)
        assert q + 0.3 + 0.2 + t == pytest.approx(1.0, abs=1e-15)

    def test_infeasible_raises(self):
        with pytest.raises(ValueError, match="infeasible"):
            stationary_qt(0.9, 0.1)


class TestExpForm:
    def test_boundary_point_equality(self):
        lhs, rhs = phi3_exp_form(Fraction(1, 2), Fraction(0), 2)
        assert lhs == Fraction(1, 2)
        assert rhs == Fraction(1, 2)

    def test_quarter_point(self):
        lhs, rhs = phi3_exp_form(Fraction(1, 4), Fraction(1, 4), 4)
        assert lhs == Fraction(1, 16)
        assert rhs == Fraction(6561, 65536)
        assert lhs <= rhs

    def test_origin_with_shift_is_nondegenerate(self):
        n_grid = 200
        shift = Fraction(2, n_grid)
        lhs, rhs = phi3_exp_form(Fraction(0), Fraction(0), n_grid,
                                 qs_base_shift=shift)
        assert rhs > 0
        assert lhs <= rhs

    def test_log_ratio_matches_gap_function(self):
        # lhs/rhs = exp(N (phi - log 2)) ties the exact form to the float phi
        rng = np.random.default_rng(19)
        n_grid = 64
        for _ in range(50):
            i, j = rng.integers(1, n_grid // 2, 2)
            q, s = Fraction(int(i), n_grid), Fraction(int(j), n_grid)
            if q + s >= 1:
                continue
            lhs, rhs = phi3_exp_form(q, s, n_grid)
            log_ratio = log_scalar(lhs) - log_scalar(rhs)
            expected = n_grid * (phi((q, 1 - q - s, s)) - LOG2)
            assert log_ratio == pytest.approx(expected, abs=1e-7 * n_grid)

    def test_denominator_must_divide_grid(self):
        with pytest.raises(ValueError, match="integer"):
            phi3_exp_form(Fraction(1, 3), Fraction(0), 4)


def cell_inequality_by_fractions(i, j, n_grid):
    """Direct rational evaluation of the patch inequality (independent oracle)."""
    eps = Fraction(1, n_grid)
    qb = Fraction(i, n_grid)
    sb = Fraction(j, n_grid)
    lhs = (qb + eps) ** i * (sb + eps) ** j
    if i == 0 and j == 0 and n_grid > 100:
        base = qb + sb + 2 * eps
    else:
        base = qb + sb
    rhs = (Fraction(2) ** n_grid
           * (1 - qb - eps) ** (n_grid - i + j + 1)
           * (1 - sb - eps) ** (n_grid + i - j + 1)
           * base ** (2 * (i + j + 2)))
    return lhs <= rhs


class TestVerifyCell:
    def test_origin_cell_passes_with_variant(self):
        assert verify_cell(0, 0, 2000)

    def test_far_corner_cell_passes(self):
        m = loop_bound(2000)
        assert verify_cell(m, m, 2000)

    def test_loop_bound_value(self):
        assert loop_bound(2000) == 880

    def test_plain_variant_fails_at_origin(self):
        # below the variant threshold the origin cell compares against zero
        assert not verify_cell(0, 0, 100)
        assert not verify_cell(0, 0, 50)

    def test_plain_variant_would_fail_at_origin_for_large_grids(self):
        # the origin-variant exists because the plain right-hand side is zero
        n_grid = 2000
        plain_rhs = (2 ** n_grid
                     * (n_grid - 1) ** (n_grid + 1)
                     * (n_grid - 1) ** (n_grid + 1)
                     * 0 ** 4)
        lhs = n_grid ** (2 * n_grid + 6)
        assert plain_rhs == 0 and lhs > plain_rhs

    def test_guards(self):
        with pytest.raises(ValueError):
            verify_cell(0, 0, 5)
        with pytest.raises(ValueError, match="grid"):
            verify_cell(0, 9999, 2000)

    def test_integer_form_matches_rational_oracle(self):
        # the denominator-clearing reduction, validated cell by cell
        rng = np.random.default_rng(23)
        m = loop_bound(2000)
        cells = [(0, 0), (m, m), (0, m), (m, 0)]
        cells += [(int(a), int(b)) for a, b in rng.integers(0, m + 1, (100, 2))]
        for i, j in cells:
            assert verify_cell(i, j, 2000) == cell_inequality_by_fractions(i, j, 2000)

    def test_integer_form_matches_rational_oracle_small_grid(self):
        # N=150 has genuine failures, so both outcomes get exercised
        m = loop_bound(150)
        for i in range(0, m + 1, 7):
            for j in range(0, m + 1, 7):
                assert verify_cell(i, j, 150) == cell_inequality_by_fractions(i, j, 150)


class TestCertify:
    def test_smoke_at_full_resolution(self):
        run = certify(2000, smoke=1000, seed=42)
        assert run.cells_checked == 1000
        assert run.failures == ()
        assert run.passed
        assert run.elapsed_s < 10.0

    def test_interval_grid_matches_fresh_cells(self):
        # coarse nets have genuine failures; at N <= 100 the origin cell fails
        for n_grid in (50, 101, 150, 200):
            m = loop_bound(n_grid)
            expected = tuple((i, j) for i in range(m + 1) for j in range(m + 1)
                             if not verify_cell(i, j, n_grid))
            assert certify(n_grid).failures == expected

    def test_forced_fallback_keeps_failures(self):
        # brackets widened by 2^10 bits each put every cell in the guard band
        n_grid, bits = 50, 20
        lo, hi = log2_bounds(n_grid, bits)
        widened = 1 << (bits + 10)
        failures, fallbacks, _, _ = _interval_grid(n_grid, lo - widened, hi + widened, bits)
        assert fallbacks == (loop_bound(n_grid) + 1) ** 2 - 1  # all but B = 0
        assert failures == certify(n_grid).failures
        assert (0, 0) in failures

    @pytest.mark.parametrize("n_grid, xs", [
        (300, range(1, 301)),
        # the largest _log_bits, so the least int64 headroom
        (6, range(1, 7)),
        # the composites with the most prime factors, and the primes nearest N
        (2000, (1024, 1458, 1536, 1944, 1997, 1999, 2000)),
    ], ids=["300", "6", "2000"])
    def test_log2_brackets(self, n_grid, xs):
        bits = _log_bits(n_grid)
        lo, hi = log2_bounds(n_grid, bits)
        shift = bits - 16
        for x in xs:
            lo_x, hi_x = int(lo[x]), int(hi[x])
            assert lo_x <= hi_x <= lo_x + 2
            power = x ** (1 << 16)
            assert 1 << (lo_x >> shift) <= power < 1 << ((hi_x >> shift) + 1)

    def test_one_walk_per_prime(self, monkeypatch):
        walk = phi_module._log2_walk
        walks = []

        def counted(x, bits):
            walks.append(x)
            return walk(x, bits)

        monkeypatch.setattr(phi_module, "_log2_walk", counted)
        log2_bounds(2000, _log_bits(2000))
        assert len(walks) == 303  # pi(2000), the prime 2 included
        assert walks[:5] == [2, 3, 5, 7, 11] and walks[-1] == 1999

    @pytest.mark.parametrize("n_grid, passed", [
        (983, False), (984, True), (1005, False), (1006, True), (1007, False), (1008, True),
    ])
    def test_tightest_grids_near_one_thousand(self, n_grid, passed):
        # margins within 0.01-0.15 bits of zero: the sharpest test of the brackets
        m = loop_bound(n_grid)
        run = certify(n_grid)
        assert run.tightest == (0, m)
        assert run.failures == (() if passed else ((0, m), (m, 0)))
        assert all(not verify_cell(i, j, n_grid) for i, j in run.failures)
        assert verify_cell(0, m, n_grid) == passed

    @pytest.mark.parametrize("smoke", [0, -1])
    def test_smoke_needs_a_cell(self, smoke):
        with pytest.raises(ValueError, match="smoke"):
            certify(2000, smoke=smoke, seed=1)

    def test_run_record_at_full_resolution(self):
        run = certify(2000)
        assert run.passed and run.cells_checked == 881 ** 2
        assert run.fallbacks == 0
        assert run.tightest == (0, 880)
        assert 10.28 <= run.margin_bits <= 10.29

    def test_full_run_small_grid_records_failures(self):
        run = certify(150)
        assert run.cells_checked == (run.loop_bound + 1) ** 2
        assert not run.passed
        assert all(not verify_cell(i, j, 150) for i, j in run.failures)

    def test_worker_split_is_deterministic(self):
        sequential = certify(160)
        parallel = certify(160, workers=2)
        assert sequential.failures == parallel.failures
        assert sequential.cells_checked == parallel.cells_checked

    def test_json_shape(self):
        run = certify(2000, smoke=10, seed=1)
        payload = run.to_json_dict()
        assert set(payload) == {"N", "M", "cells", "failures", "elapsed_ms"}
        assert payload["N"] == 2000 and payload["M"] == 880

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            certify(5)


class TestDenseSearch:
    def test_two_simplex_maximum(self):
        assert phi_max_search(2) == pytest.approx(LOG2, abs=1e-12)

    def test_three_simplex_maximum(self):
        value = phi_max_search(3)
        assert value <= LOG2 + 1e-6
        assert value == pytest.approx(LOG2, abs=1e-4)

    def test_restricted_region_strictly_below(self):
        value = phi_max_search(3, within_u=True)
        assert value < LOG2 - 5e-3

    def test_other_sizes_rejected(self):
        with pytest.raises(ValueError):
            phi_max_search(4)

    @pytest.mark.parametrize("step", [0.0, -0.1, 2.0, float("nan")])
    def test_step_outside_unit_interval_rejected(self, step):
        for n in (2, 3):
            with pytest.raises(ValueError, match="step"):
                phi_max_search(n, step=step)


class TestLogFormMachinery:
    def test_eval_matches_float_phi(self):
        rng = np.random.default_rng(29)
        p = random_simplex_point(rng, 4)
        assert eval_log_form(phi_log_form(p)) == pytest.approx(
            phi(tuple(float(x) for x in p)), abs=1e-11)
