"""Exact permanents, minors, and the weight distribution over permutations."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from betheperm import (
    GibbsWeights,
    NonNegMatrix,
    ZeroPermanentError,
    block_diag,
    identity_permutation,
    identity_tensor,
    log_permanent,
    marginals,
    ones,
    per_bruteforce,
    per_ryser,
    permanent_minors,
    reverse_order,
    validate_permutation,
)
from tests.test_matrices import identity_matrix, random_rational_matrix


class TestPermutations:
    def test_validate(self):
        assert validate_permutation([2, 0, 1]) == (2, 0, 1)
        with pytest.raises(ValueError):
            validate_permutation([0, 0, 1])
        with pytest.raises(ValueError):
            validate_permutation([0, 1], n=3)

    def test_reverse_is_involution(self):
        pi = (3, 1, 0, 2)
        assert reverse_order(reverse_order(pi)) == pi
        assert reverse_order(identity_permutation(3)) == (2, 1, 0)


class TestPermanent:
    def test_all_ones_2x2(self):
        assert per_bruteforce(ones(2)) == 2
        assert per_ryser(ones(2)) == 2

    def test_identity(self):
        assert per_bruteforce(identity_matrix(4)) == 1
        assert per_ryser(identity_matrix(6)) == 1

    def test_two_by_two_sum(self):
        m = NonNegMatrix(((1, 2), (3, 4)))
        assert per_bruteforce(m) == 10
        assert per_ryser(m) == 10

    def test_all_ones_factorial(self):
        assert per_ryser(ones(5)) == math.factorial(5)

    def test_ryser_matches_bruteforce_exactly(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 4, 5, 6, 7):
            m = random_rational_matrix(rng, n)
            assert per_ryser(m) == per_bruteforce(m)

    def test_float_ryser_close_to_bruteforce(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = NonNegMatrix(tuple(tuple(float(x) for x in row)
                                   for row in rng.uniform(0, 1, (n, n))))
            exact = per_bruteforce(a)
            assert per_ryser(a) == pytest.approx(exact, rel=1e-12)

    def test_dimension_guards(self):
        big = identity_matrix(11)
        with pytest.raises(ValueError, match="brute-force limit"):
            per_bruteforce(big)
        with pytest.raises(ValueError, match="Ryser limit"):
            per_ryser(identity_matrix(31))


class TestMinors:
    # n = 10 spans 2^3 blocks of the exact Glynn pass, so several high sign
    # columns change at block boundaries; its minors are checked against
    # Ryser, since brute force at 9x9 is too slow here
    @pytest.mark.parametrize("n, rows, per", [
        (5, None, per_bruteforce),
        (10, None, per_ryser),
        (10, [[(i * 10 + j + 1) * 2**64 + i * j % 7 for j in range(10)]
              for i in range(10)], per_ryser),
    ], ids=["5-rational", "10-rational", "10-past-int64"])
    def test_minors_against_explicit_deletion(self, n, rows, per):
        m = (random_rational_matrix(np.random.default_rng(31), n) if rows is None
             else NonNegMatrix(rows))
        minors = permanent_minors(m)
        for i in range(n):
            for j in range(n):
                kept = [[m.entries[r][c] for c in range(n) if c != j]
                        for r in range(n) if r != i]
                assert minors[i][j] == per(NonNegMatrix(tuple(map(tuple, kept))))

    def test_minors_1x1(self):
        assert permanent_minors(NonNegMatrix(((7,),))) == [[1]]


class TestMarginals:
    def test_uniform_2x2(self):
        p = marginals(ones(2))
        assert p.entries == ((Fraction(1, 2), Fraction(1, 2)),
                             (Fraction(1, 2), Fraction(1, 2)))

    def test_identity_support(self):
        p = marginals(identity_matrix(3))
        assert p.entries == ((Fraction(1), Fraction(0), Fraction(0)),
                             (Fraction(0), Fraction(1), Fraction(0)),
                             (Fraction(0), Fraction(0), Fraction(1)))

    def test_two_by_two_exact(self):
        p = marginals(NonNegMatrix(((1, 2), (3, 4))))
        assert p.entries == ((Fraction(2, 5), Fraction(3, 5)),
                             (Fraction(3, 5), Fraction(2, 5)))

    def test_rows_and_columns_exactly_one(self):
        rng = np.random.default_rng(37)
        m = random_rational_matrix(rng, 6, max_num=9)
        while per_ryser(m) == 0:
            m = random_rational_matrix(rng, 6, max_num=9)
        p = marginals(m)
        for i in range(6):
            assert sum(p.entries[i]) == 1
            assert sum(p.entries[j][i] for j in range(6)) == 1

    def test_block_structure_of_tensor_copies(self):
        rng = np.random.default_rng(41)
        a = random_rational_matrix(rng, 2, max_num=9)
        while per_ryser(a) == 0:
            a = random_rational_matrix(rng, 2, max_num=9)
        single = marginals(a)
        doubled = marginals(identity_tensor(2, a))
        for i in range(2):
            for j in range(2):
                assert doubled.entries[i][j] == single.entries[i][j]
                assert doubled.entries[2 + i][2 + j] == single.entries[i][j]
                assert doubled.entries[i][2 + j] == 0
                assert doubled.entries[2 + i][j] == 0

    def test_zero_permanent_raises(self):
        with pytest.raises(ZeroPermanentError):
            marginals(NonNegMatrix(((1, 0), (0, 0))))

    def test_marginals_exact_against_enumeration(self):
        rng = np.random.default_rng(43)
        m = random_rational_matrix(rng, 4, max_num=9)
        while per_ryser(m) == 0:
            m = random_rational_matrix(rng, 4, max_num=9)
        total = Fraction(per_bruteforce(m))
        p = marginals(m)
        for i in range(4):
            for j in range(4):
                mass = sum(
                    (Fraction(m.entries[0][s[0]]) * m.entries[1][s[1]]
                     * m.entries[2][s[2]] * m.entries[3][s[3]])
                    for s in itertools.permutations(range(4)) if s[i] == j)
                assert p.entries[i][j] == mass / total


def enumerated(rows):
    """per(rows) and every minor permanent, summed over all permutations of
    the entries as given."""
    n = len(rows)
    per = 0
    minors = [[0] * n for _ in range(n)]
    for sigma in itertools.permutations(range(n)):
        chosen = [rows[i][sigma[i]] for i in range(n)]
        per += math.prod(chosen)
        for i in range(n):
            minors[i][sigma[i]] += math.prod(chosen[:i] + chosen[i + 1:])
    return per, minors


F = Fraction
EXACT_KERNEL_INPUTS = {
    "mixed denominators": [
        [F(1, 3), F(2, 7), F(5, 6), 7, F(1, 2)],
        [F(2, 7), 0, 7, F(1, 3), F(5, 6)],
        [F(5, 6), 7, F(1, 3), F(2, 7), 1],
        [7, F(1, 3), F(2, 7), F(5, 6), F(3, 4)],
        [1, 2, 3, 4, 5]],
    "past the float range": [
        [10**400, 1, F(1, 10**400)],
        [F(1, 10**400), 2, 3],
        [1, F(1, 3), 10**400]],
    # a row-sum product near 2^381, and n = 8 so that the sign vectors span
    # more than one block of the exact Glynn pass
    "past int64": [[(i * 8 + j + 1) * 2**40 + i * j for j in range(8)]
                   for i in range(8)],
    "zero row": [[F(1, 2), 3, F(2, 5)], [0, 0, 0], [1, F(7, 3), 2]],
}


@pytest.mark.parametrize("rows", EXACT_KERNEL_INPUTS.values(), ids=EXACT_KERNEL_INPUTS)
def test_exact_kernels_against_enumeration(rows):
    """Each exact kernel against per and minors summed over all permutations
    of the original entries."""
    matrix = NonNegMatrix(rows)
    per, minors = enumerated(rows)
    assert per_bruteforce(matrix) == per
    assert per_ryser(matrix) == per
    assert permanent_minors(matrix) == minors
    if per == 0:
        assert log_permanent(matrix) == float("-inf")
        with pytest.raises(ZeroPermanentError):
            marginals(matrix)
        return
    per = F(per)
    assert log_permanent(matrix) == math.log(per.numerator) - math.log(per.denominator)
    p = marginals(matrix).entries
    n = len(rows)
    assert all(isinstance(x, F) for row in p for x in row)
    assert p == tuple(tuple(rows[i][j] * minors[i][j] / per for j in range(n))
                      for i in range(n))
    assert all(sum(row) == 1 for row in p)
    assert all(sum(row[j] for row in p) == 1 for j in range(n))


class TestWeightDistribution:
    def test_uniform_case(self):
        assert GibbsWeights.of(ones(2)).probability((0, 1)) == Fraction(1, 2)

    def test_identity_case(self):
        assert GibbsWeights.of(identity_matrix(3)).probability((0, 1, 2)) == 1

    def test_swap_probability(self):
        assert GibbsWeights.of(NonNegMatrix(((1, 2), (3, 4)))).probability((1, 0)) == Fraction(6, 10)

    def test_probabilities_sum_to_one_exactly(self):
        rng = np.random.default_rng(47)
        m = random_rational_matrix(rng, 5, max_num=9)
        while per_ryser(m) == 0:
            m = random_rational_matrix(rng, 5, max_num=9)
        gibbs = GibbsWeights.of(m)
        total = sum(gibbs.probability(s) for s in itertools.permutations(range(5)))
        assert total == 1

    def test_zero_permanent_is_an_error(self):
        with pytest.raises(ZeroPermanentError):
            GibbsWeights.of(NonNegMatrix(((0, 1), (0, 1))))

    def test_float_weights_below_the_float_range(self):
        # per(A) = 1e-600 is 0.0 as a float, but log per(A) = -1381.55
        gibbs = GibbsWeights.of(NonNegMatrix(((1e-300, 0.0), (0.0, 1e-300))))
        assert abs(gibbs.probability((0, 1)) - 1.0) <= 1e-12
        assert gibbs.probability((1, 0)) == 0.0


# ---------------------------------------------------------------------------
# The float pass against exact integer evaluation of the same dyadic input
# ---------------------------------------------------------------------------

LOG2 = math.log(2.0)
DYADIC_BITS = 6  # float entries are integers 0..63 over 2^6
FLOAT_SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)


@st.composite
def dyadic_rows(draw, max_n=12):
    """Integer rows with n <= max_n, entries 0..63, about a quarter zero."""
    n = draw(st.integers(1, max_n))
    cells = draw(st.lists(st.integers(0, 63), min_size=n * n, max_size=n * n))
    return [[x if x >= 16 else 0 for x in cells[i * n:(i + 1) * n]] for i in range(n)]


def as_float(rows, row_exponents=None, column_exponents=None):
    """rows / 2^6 as floats, entry (i, j) further scaled by
    2^(row_exponents[i] + column_exponents[j])."""
    n = len(rows)
    rk = row_exponents or [0] * n
    ck = column_exponents or [0] * n
    return NonNegMatrix(tuple(
        tuple(math.ldexp(rows[i][j], rk[i] + ck[j] - DYADIC_BITS) for j in range(n))
        for i in range(n)))


def exact_log_per(rows) -> float:
    """log per(rows / 2^6), from the integer permanent."""
    per = per_ryser(NonNegMatrix(rows))
    if per == 0:
        return float("-inf")
    return math.log(per) - len(rows) * DYADIC_BITS * LOG2


def assert_log_close(value, expected, tol=1e-12):
    if expected == float("-inf"):
        assert value == expected
    else:
        assert abs(value - expected) <= tol, (value, expected)


class TestFloatPass:
    @FLOAT_SETTINGS
    @given(dyadic_rows())
    def test_log_permanent_matches_exact(self, rows):
        assert_log_close(log_permanent(as_float(rows)), exact_log_per(rows))

    @FLOAT_SETTINGS
    @given(dyadic_rows(max_n=10))
    def test_marginals_match_exact(self, rows):
        if per_ryser(NonNegMatrix(rows)) == 0:
            with pytest.raises(ZeroPermanentError):
                marginals(as_float(rows))
            return
        exact = marginals(NonNegMatrix(tuple(
            tuple(Fraction(x, 2 ** DYADIC_BITS) for x in row) for row in rows)))
        approx = marginals(as_float(rows))
        for exact_row, approx_row in zip(exact.entries, approx.entries):
            for e, a in zip(exact_row, approx_row):
                assert abs(a - e) <= 1e-12
                if e == 0:
                    assert a == 0.0  # an entry on no perfect matching

    @FLOAT_SETTINGS
    @given(st.data())
    def test_invariant_under_permutation_and_transpose(self, data):
        rows = data.draw(dyadic_rows())
        n = len(rows)
        p = data.draw(st.permutations(range(n)))
        q = data.draw(st.permutations(range(n)))
        permuted = [[rows[p[i]][q[j]] for j in range(n)] for i in range(n)]
        transposed = [list(col) for col in zip(*rows)]
        base = log_permanent(as_float(rows))
        assert_log_close(log_permanent(as_float(permuted)), base)
        assert_log_close(log_permanent(as_float(transposed)), base)
        if base == float("-inf"):
            return
        weights = marginals(as_float(rows)).numpy()
        assert np.abs(marginals(as_float(permuted)).numpy()
                      - weights[np.ix_(p, q)]).max() <= 1e-12
        assert np.abs(marginals(as_float(transposed)).numpy() - weights.T).max() <= 1e-12

    def check_scaling(self, rows, rk, ck):
        scaled = as_float(rows, rk, ck)
        expected = exact_log_per(rows) + (sum(rk) + sum(ck)) * LOG2
        # the log of each scaled entry carries a rounding error relative to
        # its size, up to about 140 here
        assert_log_close(log_permanent(scaled), expected,
                         tol=max(1e-12, 2e-15 * abs(expected)))
        if expected == float("-inf"):
            assert per_ryser(scaled) == 0.0
            return
        assert np.abs(marginals(scaled).numpy()
                      - marginals(as_float(rows)).numpy()).max() <= 1e-12

    @FLOAT_SETTINGS
    @given(st.data())
    def test_covariant_under_power_of_two_scaling(self, data):
        rows = data.draw(dyadic_rows())
        exponents = st.lists(st.integers(-100, 100), min_size=len(rows),
                             max_size=len(rows))
        self.check_scaling(rows, data.draw(exponents), data.draw(exponents))

    def test_scaling_that_needs_many_sweeps(self):
        # after four Sinkhorn sweeps this input still has a block of entries
        # near 1e-22 against a row and a column of ones, and Glynn's sum on
        # it cancels to 0; the prescale must sweep on until it is balanced
        rows = [[31, 31, 27, 40, 55], [25, 35, 0, 0, 52], [0, 0, 0, 23, 42],
                [23, 0, 39, 20, 51], [43, 36, 0, 34, 16]]
        self.check_scaling(rows, [-6, 86, 71, 6, 20], [-1, -33, 11, -81, 1])

    @FLOAT_SETTINGS
    @given(dyadic_rows(max_n=6), dyadic_rows(max_n=6))
    def test_block_multiplicativity(self, top, bottom):
        joint = log_permanent(block_diag(as_float(top), as_float(bottom)))
        assert_log_close(joint, log_permanent(as_float(top))
                         + log_permanent(as_float(bottom)))
        assert_log_close(joint, exact_log_per(top) + exact_log_per(bottom))

    def test_zero_permanent_decided_from_support(self):
        # no empty row, yet every permutation meets a zero
        a = NonNegMatrix(((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
        assert log_permanent(a) == float("-inf")
        assert per_ryser(a) == 0.0
        with pytest.raises(ZeroPermanentError):
            marginals(a)
        assert permanent_minors(a) == [[0.0, 1.0, 1.0], [0.0, 1.0, 1.0],
                                       [0.0, 0.0, 0.0]]

    def test_float_range_edges(self):
        big = NonNegMatrix(((1e300, 1e300), (1e300, 1e300)))
        assert per_ryser(big) == float("inf")
        assert log_permanent(big) == pytest.approx(math.log(2) + 600 * math.log(10),
                                                   rel=1e-15)
        tiny = NonNegMatrix(((1e-300, 0.0), (0.0, 1e-300)))
        assert log_permanent(tiny) == pytest.approx(-600 * math.log(10), rel=1e-15)
        assert marginals(tiny).entries == ((1.0, 0.0), (0.0, 1.0))

    # n = 7 is a single block of the float Glynn pass; n = 14 spans 2^3
    @pytest.mark.parametrize("n", [7, 14])
    def test_float_minors_match_exact(self, n):
        # A is not prescaled for its minors, which entries on no perfect
        # matching still enter: here minor (1, 0) is entry (0, 1)
        assert permanent_minors(NonNegMatrix(((1.0, 2.0), (0.0, 3.0)))) == [
            [3.0, 0.0], [2.0, 1.0]]
        rng = np.random.default_rng(53)
        rows = [[int(x) for x in row] for row in rng.integers(0, 64, (n, n))]
        exact = permanent_minors(NonNegMatrix(rows))
        approx = permanent_minors(as_float(rows))
        for exact_row, approx_row in zip(exact, approx):
            for e, a in zip(exact_row, approx_row):
                assert a == pytest.approx(e / 2 ** (DYADIC_BITS * (n - 1)), rel=1e-12)

    def test_float_dimension_guard(self):
        with pytest.raises(ValueError, match="Ryser limit"):
            log_permanent(NonNegMatrix(((1.0,) * 31,) * 31))
