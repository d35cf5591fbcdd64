"""Sequential proposal, exact KL, and the ordering-averaged entropy bound."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from betheperm import sampling
from betheperm import (
    AbsoluteContinuityError,
    GibbsWeights,
    NonNegMatrix,
    NuDistribution,
    SamplerStrandedError,
    beta_objective,
    block_diag,
    entropy_upper_bound,
    entropy_upper_bound_sampled,
    estimate_log_permanent,
    kl_mu_nu,
    ordering_gap,
    ordering_gap_log_form,
    log_permanent,
    marginals,
    nu_prob,
    nu_sample,
    ones,
    per_ryser,
    validate_doubly_stochastic,
)
from betheperm.phi import (
    _add_prefix_terms,
    _add_slack_terms,
    _prefix_log_sum,
    _slack_term,
    eval_log_form,
    merge_log_forms,
    phi_log_form,
)
from tests.test_matrices import identity_matrix, random_rational_matrix
from tests.test_permanents import as_float, exact_log_per

LOG_SQRT2 = 0.5 * math.log(2.0)


def uniform_ds(n):
    x = Fraction(1, n)
    return validate_doubly_stochastic([[x] * n for _ in range(n)])


def identity_pattern(n):
    return validate_doubly_stochastic(
        [[Fraction(int(i == j)) for j in range(n)] for i in range(n)])


def random_rational_ds(rng, n, num_vertices=6, full_support=True):
    """Exact-rational convex combination of permutation matrices.

    ``full_support`` mixes in the uniform matrix so every entry is positive
    (a handful of permutation vertices alone leaves zero entries).
    """
    raw = [Fraction(int(rng.integers(1, 9)), 1) for _ in range(num_vertices)]
    total = sum(raw) + (1 if full_support else 0)
    weights = [w / total for w in raw]
    fill = Fraction(1, total * n) if full_support else Fraction(0)
    entries = [[fill] * n for _ in range(n)]
    for w in weights:
        perm = rng.permutation(n)
        for i, j in enumerate(perm):
            entries[i][int(j)] += w
    return validate_doubly_stochastic(entries)


def random_simplex_point(rng, n):
    raw = [Fraction(int(x)) for x in rng.integers(0, 30, n)]
    if sum(raw) == 0:
        raw[0] = Fraction(1)
    total = sum(raw)
    return tuple(x / total for x in raw)


def enumerated_gap(p):
    """The ordering-averaged gap by enumerating all n! orderings: a
    coordinate's tail is its prefix in the reversed ordering, and the
    orderings are closed under reversal.  fsum keeps the n! terms' sum
    correctly rounded."""
    total = math.fsum(_prefix_log_sum(order) for order in itertools.permutations(p))
    return total / math.factorial(len(p)) - math.fsum(map(_slack_term, p))


def enumerated_gap_form(p):
    """The ordering-averaged gap form by enumerating all n! orderings."""
    entries = [Fraction(x) for x in p]
    form = {}
    weight = Fraction(1, math.factorial(len(entries)))
    for order in itertools.permutations(entries):
        _add_prefix_terms(form, order, weight)
    _add_slack_terms(form, entries, Fraction(-1))
    return form


@st.composite
def rational_simplex_points(draw, max_n=7):
    """Stochastic vectors with n <= max_n from a few small numerators, so
    zeros and repeated values are common."""
    raw = draw(st.lists(st.sampled_from([0, 0, 1, 1, 2, 3, 5, 8]),
                        min_size=1, max_size=max_n))
    if sum(raw) == 0:
        raw[0] = 1
    return tuple(Fraction(x, sum(raw)) for x in raw)


class TestNuProb:
    def test_uniform_2x2(self):
        dist = NuDistribution(uniform_ds(2), (0, 1))
        assert nu_prob(dist, (0, 1)) == Fraction(1, 2)
        assert nu_prob(dist, (1, 0)) == Fraction(1, 2)

    def test_identity_pattern(self):
        dist = NuDistribution(identity_pattern(3), (0, 1, 2))
        assert nu_prob(dist, (0, 1, 2)) == 1
        assert nu_prob(dist, (1, 0, 2)) == 0

    def test_marginal_weights_2x2(self):
        weights = marginals(NonNegMatrix(((1, 2), (3, 4))))
        dist = NuDistribution(weights, (0, 1))
        assert nu_prob(dist, (0, 1)) == Fraction(2, 5)
        assert nu_prob(dist, (1, 0)) == Fraction(3, 5)

    def test_sums_to_one_for_full_support(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4, 5):
            dist = NuDistribution(random_rational_ds(rng, n),
                                  tuple(int(x) for x in rng.permutation(n)))
            total = sum(nu_prob(dist, s) for s in itertools.permutations(range(n)))
            assert total == 1

    def test_embedding_extra_block_preserves_probabilities(self):
        rng = np.random.default_rng(5)
        p = random_rational_ds(rng, 3)
        order = (0, 1, 2)
        dist = NuDistribution(p, order)
        embedded_entries = [list(row) + [Fraction(0)] * 2 for row in p.entries]
        embedded_entries += [[Fraction(0)] * 3 + [Fraction(1), Fraction(0)],
                             [Fraction(0)] * 4 + [Fraction(1)]]
        embedded = NuDistribution(validate_doubly_stochastic(embedded_entries),
                                  (0, 1, 2, 3, 4))
        for sigma in itertools.permutations(range(3)):
            assert nu_prob(embedded, sigma + (3, 4)) == nu_prob(dist, sigma)

    def test_value_type_follows_the_weights(self):
        # (sigma, probability): sigma = (2, 0, 1) meets a zero entry at the
        # first step and (0, 1, 2) at the second
        strandable = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
        cases = [((0, 2, 1), Fraction(1, 2)), ((1, 0, 2), Fraction(1, 4)),
                 ((2, 0, 1), 0), ((0, 1, 2), 0)]
        for scale, kind in ((Fraction(1, 2), Fraction), (0.5, float)):
            dist = NuDistribution(validate_doubly_stochastic(
                [[scale * x for x in row] for row in strandable]), (0, 1, 2))
            for sigma, value in cases:
                assert type(nu_prob(dist, sigma)) is kind
                assert nu_prob(dist, sigma) == value
        integer = NuDistribution(validate_doubly_stochastic(
            [[int(i == j) for j in range(3)] for i in range(3)]), (2, 0, 1))
        assert type(nu_prob(integer, (0, 1, 2))) is Fraction
        assert type(nu_prob(integer, (1, 0, 2))) is Fraction
        assert nu_prob(integer, (1, 0, 2)) == 0


class TestNuSample:
    def test_identity_pattern_always_identity(self):
        dist = NuDistribution(identity_pattern(4), (0, 1, 2, 3))
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert nu_sample(dist, rng) == (0, 1, 2, 3)

    def test_uniform_frequencies(self):
        dist = NuDistribution(uniform_ds(2), (0, 1))
        rng = np.random.default_rng(123)
        counts = Counter(nu_sample(dist, rng) for _ in range(100_000))
        assert abs(counts[(0, 1)] / 100_000 - 0.5) < 0.01

    def test_marginal_weights_frequencies(self):
        weights = marginals(NonNegMatrix(((1, 2), (3, 4))))
        dist = NuDistribution(weights, (0, 1))
        rng = np.random.default_rng(7)
        counts = Counter(nu_sample(dist, rng) for _ in range(100_000))
        assert abs(counts[(1, 0)] / 100_000 - 0.6) < 0.01

    def test_strandable_weights_resample_and_error_paths(self):
        entries = [[Fraction(1, 2), Fraction(1, 2), Fraction(0)],
                   [Fraction(1, 2), Fraction(0), Fraction(1, 2)],
                   [Fraction(0), Fraction(1, 2), Fraction(1, 2)]]
        dist = NuDistribution(validate_doubly_stochastic(entries), (0, 1, 2))
        rng = np.random.default_rng(11)
        for _ in range(50):  # retries hide the strandings
            sigma = nu_sample(dist, rng)
            assert nu_prob(dist, sigma) > 0
        stranded = False
        for seed in range(64):  # with a single attempt some seed must strand
            try:
                nu_sample(dist, np.random.default_rng(seed), max_retries=1)
            except SamplerStrandedError:
                stranded = True
                break
        assert stranded

    @pytest.mark.parametrize("max_retries", [0, -1])
    def test_no_attempt_is_an_argument_error(self, max_retries):
        dist = NuDistribution(validate_doubly_stochastic([[1.0, 0.0], [0.0, 1.0]]), (0, 1))
        with pytest.raises(ValueError, match="max_retries"):
            nu_sample(dist, np.random.default_rng(0), max_retries=max_retries)


class TestKL:
    def test_dimension_mismatch(self):
        dist = NuDistribution(marginals(ones(2)), (0, 1))
        with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
            kl_mu_nu(ones(3), dist)
        with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
            estimate_log_permanent(ones(3), dist, 4, 0)

    def test_zero_when_distributions_coincide(self):
        a = ones(2)
        dist = NuDistribution(marginals(a), (1, 0))
        assert kl_mu_nu(a, dist) == 0.0

    def test_identity_zero(self):
        a = identity_matrix(3)
        dist = NuDistribution(identity_pattern(3), (0, 1, 2))
        assert kl_mu_nu(a, dist) == 0.0

    def test_any_2x2_with_marginal_weights_is_zero(self):
        # with two rows the first pick determines the permutation, so the
        # proposal built from the marginals reproduces the target exactly
        a = NonNegMatrix(((1, 2), (3, 4)))
        dist = NuDistribution(marginals(a), (0, 1))
        assert kl_mu_nu(a, dist) == 0.0

    def test_permanent_below_the_float_range(self):
        # per(A) = 2e-400 underflows as a float; the weights are normalized
        # in the log domain; the float sum, about -6e-14 unclamped, stays
        # nonnegative
        a = NonNegMatrix(((1e-200, 1e-200), (1e-200, 1e-200)))
        dist = NuDistribution(marginals(a), (0, 1))
        assert 0.0 <= kl_mu_nu(a, dist) <= 1e-12

    def test_positive_at_n3_and_matches_direct_sum(self):
        a = NonNegMatrix(((1, 2, 3), (4, 5, 6), (7, 8, 10)))
        dist = NuDistribution(marginals(a), (0, 1, 2))
        value = kl_mu_nu(a, dist)
        gibbs = GibbsWeights.of(a)
        direct = 0.0
        for sigma in itertools.permutations(range(3)):
            mu = gibbs.probability(sigma)
            nu = nu_prob(dist, sigma)
            direct += float(mu) * math.log(float(mu) / float(nu))
        assert value == pytest.approx(direct, abs=1e-13)
        assert value > 1e-6

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            a = random_rational_matrix(rng, n, max_num=9)
            if not any(x > 0 for row in a.entries for x in row):
                continue
            try:
                weights = marginals(a)
            except Exception:
                continue
            order = tuple(int(x) for x in rng.permutation(n))
            assert kl_mu_nu(a, NuDistribution(weights, order)) >= -1e-15

    def test_absolute_continuity_violation_reports_witness(self):
        a = ones(2)
        dist = NuDistribution(identity_pattern(2), (0, 1))
        with pytest.raises(AbsoluteContinuityError) as info:
            kl_mu_nu(a, dist)
        assert info.value.witness == (1, 0)

    def test_enumeration_guard(self):
        a = identity_matrix(8)
        with pytest.raises(ValueError, match="enumeration limit"):
            kl_mu_nu(a, NuDistribution(identity_pattern(8), tuple(range(8))))


class TestEntropyBound:
    def test_tight_for_paired_ones(self):
        assert entropy_upper_bound(ones(2)) == pytest.approx(math.log(2), abs=1e-12)

    def test_identity_is_zero(self):
        assert entropy_upper_bound(identity_matrix(3)) == pytest.approx(0.0, abs=1e-12)

    def test_dominates_log_permanent(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = NonNegMatrix(tuple(tuple(float(x) for x in row)
                                   for row in rng.uniform(0.05, 1.0, (4, 4))))
            assert entropy_upper_bound(a) >= log_permanent(a) - 1e-10

    def test_chain_against_row_gap_bound(self):
        rng = np.random.default_rng(19)
        for _ in range(8):
            n = int(rng.integers(2, 7))
            a = NonNegMatrix(tuple(tuple(float(x) for x in row)
                                   for row in rng.uniform(0.05, 1.0, (n, n))))
            bound = entropy_upper_bound(a)
            beta_star = beta_objective(a, marginals(a))
            assert log_permanent(a) <= bound + 1e-10
            assert bound <= beta_star + n * LOG_SQRT2 + 1e-10

    @pytest.mark.parametrize("n", range(8, 17))
    def test_dominates_log_permanent_past_enumeration(self, n):
        # dyadic floats with about a quarter zeros and a positive diagonal,
        # against the exact integer permanent
        rng = np.random.default_rng(53 + n)
        rows = [[int(x) if x >= 16 else 0 for x in row]
                for row in rng.integers(0, 64, (n, n))]
        for i in range(n):
            rows[i][i] = max(rows[i][i], 16)
        assert entropy_upper_bound(as_float(rows)) >= exact_log_per(rows) - 1e-10

    @pytest.mark.parametrize("n", [3, 6, 9, 12])
    def test_exact_input_dominates_log_permanent(self, n):
        rng = np.random.default_rng(59 + n)
        rows = [[int(x) for x in row] for row in rng.integers(0, 5, (n, n))]
        for i in range(n):
            rows[i][i] = max(rows[i][i], 1)
        a = NonNegMatrix(tuple(tuple(Fraction(x, 4) for x in row) for row in rows))
        log_per = math.log(per_ryser(NonNegMatrix(rows))) - n * math.log(4)
        assert entropy_upper_bound(a) >= log_per - 1e-10

    def test_sampled_estimate_matches_exact(self):
        rng = np.random.default_rng(23)
        a = NonNegMatrix(tuple(tuple(float(x) for x in row)
                               for row in rng.uniform(0.1, 1.0, (5, 5))))
        exact = entropy_upper_bound(a)
        estimate, stderr = entropy_upper_bound_sampled(a, 4000, rng)
        assert abs(estimate - exact) <= 5 * stderr + 1e-9


class TestOrderingGap:
    def test_single_point_is_zero(self):
        assert ordering_gap((Fraction(1),)) == 0.0

    def test_equality_at_two_point_uniform(self):
        value = ordering_gap((Fraction(1, 2), Fraction(1, 2)))
        assert value == pytest.approx(LOG_SQRT2, abs=1e-12)

    def test_bounded_on_random_points(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            p = random_simplex_point(rng, n)
            assert ordering_gap(p) <= LOG_SQRT2 + 1e-12

    def test_pairing_identity_exact(self):
        # the gap form equals half the average of phi forms over reorderings,
        # exactly, as mappings from log arguments to rational coefficients
        rng = np.random.default_rng(31)
        for n in (2, 3, 4):
            p = random_simplex_point(rng, n)
            lhs = ordering_gap_log_form(p)
            rhs = {}
            weight = Fraction(1, 2 * math.factorial(n))
            for order in itertools.permutations(range(n)):
                merge_log_forms(rhs, phi_log_form([p[i] for i in order]), weight)
            assert lhs == rhs

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(rational_simplex_points())
    def test_subset_walk_matches_enumeration(self, p):
        form = enumerated_gap_form(p)
        floats = tuple(float(x) for x in p)
        value = enumerated_gap(floats)
        # two-bit tables split every row past two coordinates into blocks,
        # which the default table size reaches only past twelve
        for bits in (sampling._SUBSET_BLOCK_BITS, 2):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sampling, "_SUBSET_BLOCK_BITS", bits)
                assert ordering_gap_log_form(p) == form
                assert abs(ordering_gap(floats) - value) <= 1e-13

    @pytest.mark.parametrize("n", range(8, 13))
    def test_past_the_enumeration_limit(self, n):
        rng = np.random.default_rng(61 + n)
        p = random_simplex_point(rng, n)
        value = ordering_gap(p)
        assert value <= LOG_SQRT2 + 1e-12
        assert value == pytest.approx(eval_log_form(ordering_gap_log_form(p)), abs=1e-12)

    def test_walk_limit(self):
        p = (Fraction(1, 31),) * 31
        for function in (ordering_gap, ordering_gap_log_form):
            with pytest.raises(ValueError, match="Ryser limit"):
                function(p)

    @pytest.mark.parametrize("p, message", [
        ((Fraction(-1, 2), Fraction(3, 2)), "negative"),
        ((-0.5, 1.5), "negative"),
        ((float("nan"), 1.0), "finite"),
        ((Fraction(7, 10), Fraction(7, 10)), "sum"),
        ((0.7, 0.7), "sum"),
        ((Fraction(1, 2), Fraction(1, 3)), "sum"),
    ])
    def test_rejects_a_non_stochastic_vector(self, p, message):
        for function in (ordering_gap, ordering_gap_log_form):
            with pytest.raises(ValueError, match=message):
                function(p)

    def test_pairing_identity_float(self):
        rng = np.random.default_rng(37)
        p = random_simplex_point(rng, 5)
        avg_phi = np.mean([eval_log_form(phi_log_form([p[i] for i in order]))
                           for order in itertools.permutations(range(5))])
        assert ordering_gap(p) == pytest.approx(0.5 * float(avg_phi), abs=1e-11)


class TestImportanceEstimator:
    def test_log_permanent_estimate_close(self):
        rng = np.random.default_rng(41)
        a = NonNegMatrix(tuple(tuple(float(x) for x in row)
                               for row in rng.uniform(0.2, 1.0, (5, 5))))
        estimate = estimate_log_permanent(a, None, 4000, rng)
        assert estimate == pytest.approx(log_permanent(a), abs=0.1)

    def test_block_embedding_keeps_weight_distribution(self):
        # proposal over a block-diagonal matrix factorizes; a quick coherence
        # check that the estimator also works on structured support
        a = block_diag(ones(2), ones(2))
        rng = np.random.default_rng(43)
        estimate = estimate_log_permanent(a, None, 2000, rng)
        assert estimate == pytest.approx(math.log(4), abs=0.05)

    def test_finite_where_the_proposal_probability_underflows(self):
        # every sample has probability 1/200!, below the float range, and
        # weight 200!, so each log weight is log 200!
        n = 200
        uniform = validate_doubly_stochastic(np.full((n, n), 1.0 / n))
        dist = NuDistribution(uniform, tuple(range(n)))
        estimate = estimate_log_permanent(ones(n), dist, 3, 47)
        assert estimate == pytest.approx(math.lgamma(n + 1), abs=1e-9)
