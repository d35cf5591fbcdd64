"""Sequential row-by-row proposal over permutations, exact KL, and the
ordering-averaged entropy bound.

The proposal walks rows in a fixed order and picks a still-free column with
probability proportional to the corresponding entry of a doubly stochastic
weight matrix.  Comparing it against the weight-proportional distribution of
a matrix yields the permanent upper bound verified here at desk scale.

The KL divergence enumerates all n! permutations (n <= 7).  The ordering
average of a row depends only on which set of coordinates follows each one,
so it is a walk over the 2^m subsets of the row's m positive coordinates,
under the same limit as the permanent kernels.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .bethe import bp_objective
from .matrices import (
    DoublyStochMatrix,
    NonNegMatrix,
    Scalar,
    log_scalar,
    validate_stochastic_vector,
)
from .permanents import (
    GibbsWeights,
    Permutation,
    _check_ryser_limit,
    identity_permutation,
    validate_permutation,
)
from .permanents import marginals as _marginals
from .phi import (
    LogForm,
    _add_slack_terms,
    _as_entries,
    _prefix_log_sum,
    _slack_term,
    add_log_term,
)

#: ``kl_mu_nu`` enumerates all n! permutations, up to this size.
ENUM_LIMIT = 7

#: The subset walk builds its sums in tables of 2^12, so a long row's
#: walk never holds all 2^m sums at once.
_SUBSET_BLOCK_BITS = 12


class SamplerStrandedError(RuntimeError):
    """Every retry ran out of admissible columns part-way through a sample."""


class AbsoluteContinuityError(ValueError):
    """The proposal assigns zero probability to a permutation the target needs."""

    def __init__(self, witness: Permutation):
        super().__init__(
            f"proposal probability is zero at {witness} where the target is positive")
        self.witness = witness


@dataclass(frozen=True)
class NuDistribution:
    """Sequential proposal: rows visited in ``order``, columns drawn from ``weights``."""

    weights: DoublyStochMatrix
    order: Permutation

    def __post_init__(self):
        object.__setattr__(self, "order",
                           validate_permutation(self.order, self.weights.n))

    @property
    def n(self) -> int:
        return self.weights.n

    @functools.cached_property
    def _float_weights(self) -> np.ndarray:
        """The weights as floats, converted once for every draw to share."""
        return self.weights.numpy()


def _nu_factors(dist: NuDistribution, sigma: Permutation):
    """(chosen entry, total weight of the columns still free) at each visit
    step of the sequential procedure that produces ``sigma``."""
    rows = dist.weights.entries
    chosen_cols = [sigma[r] for r in dist.order]
    for t, r in enumerate(dist.order):
        yield rows[r][sigma[r]], sum(rows[r][j] for j in chosen_cols[t:])


def nu_prob(dist: NuDistribution, sigma: Permutation) -> Scalar:
    """Probability that the sequential procedure produces ``sigma``.

    Product over visit steps of the chosen entry divided by the total weight
    of the columns still free at that step: a Fraction on int and Fraction
    weights, zero included, and a float on float weights.
    """
    value = Fraction(1)
    for chosen, free in _nu_factors(dist, validate_permutation(sigma, dist.n)):
        if chosen == 0:
            return chosen * value
        value = value * chosen / free
    return value


def nu_sample(dist: NuDistribution, rng, max_retries: int = 64) -> Permutation:
    """Draw one permutation; restart from scratch when all free columns weigh zero.

    Args:
        rng: ``numpy.random.Generator`` or a seed for one.  No global state.
    """
    if max_retries < 1:
        raise ValueError(f"max_retries must be at least 1, got {max_retries}")
    rng = np.random.default_rng(rng)
    n = dist.n
    weights = dist._float_weights
    order = dist.order
    for _ in range(max_retries):
        free = np.ones(n, dtype=bool)
        image = [0] * n
        stranded = False
        for t in range(n):
            r = order[t]
            w = np.where(free, weights[r], 0.0)
            total = w.sum()
            if total <= 0.0:
                stranded = True
                break
            j = int(rng.choice(n, p=w / total))
            image[r] = j
            free[j] = False
        if not stranded:
            return tuple(image)
    raise SamplerStrandedError(
        f"no complete sample in {max_retries} attempts; the weight matrix "
        "strands the sampler too often")


def kl_mu_nu(matrix: NonNegMatrix, dist: NuDistribution) -> float:
    """KL divergence from the weight-proportional distribution to the proposal.

    Full enumeration (n <= 7); clamped at 0, so always nonnegative, and
    exactly zero when the two distributions coincide pointwise, since each
    log(mu / nu) is taken of an exact ratio on rational input.  On float
    input each mu(sigma) is exp(sum log a - log per), and log per carries
    about 1e-13 of error (``log_permanent``), so the sum is accurate to
    about 1e-13.
    """
    n = matrix.n
    if n != dist.n:
        raise ValueError(f"dimension mismatch: {n} vs {dist.n}")
    if n > ENUM_LIMIT:
        raise ValueError(f"n={n} exceeds the enumeration limit {ENUM_LIMIT}")
    gibbs = GibbsWeights.of(matrix)
    acc = 0.0
    for sigma in itertools.permutations(range(n)):
        mu = gibbs.probability(sigma)
        if mu == 0:
            continue
        nu = nu_prob(dist, sigma)
        if nu == 0:
            raise AbsoluteContinuityError(sigma)
        acc += float(mu) * log_scalar(mu / nu)
    return max(acc, 0.0)


# ---------------------------------------------------------------------------
# Ordering-averaged log tail sums and the entropy upper bound
# ---------------------------------------------------------------------------

def _subset_table(values: Sequence[Scalar], start: Scalar = 0,
                  size: int = 0) -> tuple[list, list[int]]:
    """start + p(T) and size + |T| for every subset T of ``values``, the
    empty one first.  Each sum is a smaller subset's sum plus one value, so
    the sums are exact on int and Fraction input and sums of nonnegative
    terms on float input."""
    sums, sizes = [start], [size]
    for x in values:
        sums += [s + x for s in sums]
        sizes += [k + 1 for k in sizes]
    return sums, sizes


def _subset_sums(values: Sequence[Scalar]) -> Iterator[tuple[Scalar, int]]:
    """(p(T), |T|) for every nonempty subset T of ``values``.  Each subset H
    of the values past the first ``_SUBSET_BLOCK_BITS`` starts one table of
    the first values' subsets at p(H), so the walk holds 2^12 + 2^(m - 12)
    sums at a time, not 2^m."""
    low, high = values[:_SUBSET_BLOCK_BITS], values[_SUBSET_BLOCK_BITS:]
    for start, size in zip(*_subset_table(high)):
        sums, sizes = _subset_table(low, start, size)
        first = 1 if size == 0 else 0  # skip the empty subset
        yield from zip(sums[first:], sizes[first:])


def _tail_sets(row: Sequence[Scalar]
               ) -> tuple[list[Fraction], Iterator[tuple[Scalar, int]]]:
    """c(s) for s = 0..m-1, and (p(T), |T|) for every nonempty set T of the
    m positive coordinates of ``row``.

    Under a uniformly random ordering, coordinate k's tail (k and everything
    placed after it) is T with probability c(|T| - 1) for each T that holds
    k, where c(s) = s! (m - 1 - s)! / m!.  Summing p_k over k in T gives

        E[sum_k p_k log(tail_k)] = sum_T c(|T| - 1) p(T) log p(T),

    2^m - 1 terms in place of m! m; zero coordinates change no tail sum.
    """
    support = [x for x in row if x > 0]
    m = len(support)
    c = [Fraction(math.factorial(s) * math.factorial(m - 1 - s), math.factorial(m))
         for s in range(m)]
    return c, _subset_sums(support)


def _avg_tail_log_sum(row: Sequence[Scalar]) -> float:
    """Average over all orderings of  sum_k p_k log(sum of p over k's tail),
    by the subset walk of :func:`_tail_sets`.  The subset sums stay exact on
    rational input; only the logs are floats."""
    c, sets = _tail_sets(row)
    by_size = [0.0] * len(c)
    for total, size in sets:
        by_size[size - 1] += float(total) * log_scalar(total)
    return sum(float(w) * t for w, t in zip(c, by_size))


def ordering_gap(p) -> float:
    """Ordering-averaged gap of one stochastic vector; at most log sqrt(2).

    Computes  E_orderings[ sum_k p_k log(tail_k) ] - sum_k (1 - p_k) log(1 - p_k)
    by the subset walk over p's support (n up to the Ryser limit).  ``p``
    must be a stochastic vector.  Equality holds at the two-point uniform
    vector.
    """
    entries = validate_stochastic_vector(_as_entries(p)).entries
    _check_ryser_limit(len(entries))
    return _avg_tail_log_sum(entries) - sum(map(_slack_term, entries))


def ordering_gap_log_form(p) -> LogForm:
    """The ordering-averaged gap as an exact log-linear form (rational input).

    The tail terms are c(|T| - 1) p(T) log p(T) over the subsets T of p's
    support, with exact coefficients (:func:`_tail_sets`).  The form equals
    one half of the average of the gap-function forms over all reorderings
    of ``p``; the pairing of each ordering with its reverse makes that an
    exact identity of forms, testable without evaluating a single log.
    """
    entries = [Fraction(x) for x in validate_stochastic_vector(_as_entries(p)).entries]
    _check_ryser_limit(len(entries))
    c, sets = _tail_sets(entries)
    form: LogForm = {}
    for total, size in sets:
        add_log_term(form, total, c[size - 1] * total)
    _add_slack_terms(form, entries, Fraction(-1))
    return form


def entropy_upper_bound(matrix: NonNegMatrix) -> float:
    """Ordering-averaged upper bound on log per(A) at the exact marginal matrix.

    Evaluates  sum_e P_e log(A_e/P_e) + sum_i E_orderings[sum_k P_ik log(tail)]
    with P the marginal matrix of A; each row's average is a walk over the
    subsets of its support (n up to the Ryser limit).  Tight for the paired
    all-ones block matrix.
    """
    weights = _marginals(matrix)
    acc = bp_objective(matrix, weights, 0.0)
    for row in weights.entries:
        acc += _avg_tail_log_sum(row)
    return acc


def entropy_upper_bound_sampled(matrix: NonNegMatrix, num_orders: int,
                                rng) -> tuple[float, float]:
    """Monte Carlo version of :func:`entropy_upper_bound`, for n where its
    2^n-term subset walk per row is too slow.  Both take the exact marginals,
    so both stop at the Ryser limit.

    One uniformly random ordering is shared across rows per sample, which
    keeps the estimator unbiased by linearity.  Returns (estimate, standard
    error); bound checks against it should allow several standard errors.
    """
    if num_orders < 2:
        raise ValueError("need at least two sampled orderings for a standard error")
    rng = np.random.default_rng(rng)
    weights = _marginals(matrix)
    rows = weights.numpy()
    samples = np.empty(num_orders)
    for k in range(num_orders):
        # a coordinate's tail under an ordering is its prefix in the reverse
        order = rng.permutation(matrix.n)[::-1]
        value = 0.0
        for row in rows[:, order].tolist():
            value = _prefix_log_sum(row, value)
        samples[k] = value
    base = bp_objective(matrix, weights, 0.0)
    return base + float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(num_orders))


# ---------------------------------------------------------------------------
# Importance-sampling demonstration (not a bound)
# ---------------------------------------------------------------------------

def estimate_log_permanent(matrix: NonNegMatrix, dist: NuDistribution | None,
                           num_samples: int, rng) -> float:
    """Unbiased importance-sampling estimate of log per(A), for demonstration.

    Weights are the permutation products of A divided by the proposal
    probability; the default proposal uses the exact marginal matrix with the
    identity visit order.  Log-domain throughout, the proposal probability
    included, so the estimate stays finite at any n.
    """
    from scipy.special import logsumexp  # deferred: importing scipy costs 0.3 s

    if num_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(rng)
    if dist is None:
        dist = NuDistribution(_marginals(matrix), identity_permutation(matrix.n))
    if dist.n != matrix.n:
        raise ValueError(f"dimension mismatch: {matrix.n} vs {dist.n}")
    log_weights = np.empty(num_samples)
    rows = matrix.entries
    for k in range(num_samples):
        sigma = nu_sample(dist, rng)
        log_target = sum(log_scalar(rows[i][sigma[i]]) for i in range(matrix.n))
        log_nu = sum(log_scalar(chosen) - log_scalar(free)
                     for chosen, free in _nu_factors(dist, sigma))
        log_weights[k] = log_target - log_nu
    return float(logsumexp(log_weights) - math.log(num_samples))
