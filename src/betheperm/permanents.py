"""Permanents, the weighted distribution over permutations, and its marginals.

Exact (integer or rational) input runs on Python ints: each row times the
lcm of its denominators.  Two independent permanent algorithms are kept side
by side: full permutation enumeration (the definition, n <= 10) and Ryser's
inclusion-exclusion in Gray-code order (n <= 30).

Every minor comes from one blocked pass of Glynn's formula, and every
marginal matrix, exact or float, is x_ij minor_ij(x) / per(x) from one such
pass on a matrix x with A's marginals, where per(x) = sum_j x_0j minor_0j(x).
Exact input takes x = diag(d) A on Python ints, so its marginals are exact
Fractions.  Float input takes x = Q, the doubly stochastic diag(r) A diag(c)
from ``matrices.prescale`` that the optimizer of ``bethe`` starts from, in
numpy blocks of at most 2^10 sign vectors; the same pass gives log per(A).
Q's rows and columns sum to 1, so nothing overflows or underflows whatever
the scale of A.  Measured against exact integer evaluation of the
benchmark's dyadic ``bounds`` inputs, n = 6..16, each in 12 row and column
orders, log per(A) is within 1.5e-14 (3.5e-13, three units in the last
place, on copies scaled by 2^+-100) and marginal rows and columns sum to 1
within 1.4e-14; the tests hold n <= 12 to 1e-12.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .matrices import (
    DoublyStochMatrix,
    NonNegMatrix,
    Scalar,
    ZeroPermanentError,
    log_scalar,
    prescale,
    validate_doubly_stochastic,
)

BRUTEFORCE_LIMIT = 10
RYSER_LIMIT = 30

#: The float pass walks Glynn's sign vectors in blocks of 2^10 rows.  At
#: n = 16 that was the fastest of 2^6..2^12 (8.9 ms against 12.0 at 2^8 and
#: 10.9 at 2^12), and it keeps the block tables near 1 MB.  Exact input
#: takes 2^6 rows: as fast as 2^10, with fewer live int objects at a time.
_GLYNN_BLOCK_BITS = 10
_GLYNN_EXACT_BLOCK_BITS = 6

Permutation = tuple[int, ...]


# ---------------------------------------------------------------------------
# Permutations (0-based images)
# ---------------------------------------------------------------------------

def validate_permutation(seq: Sequence[int], n: int | None = None) -> Permutation:
    """Check that ``seq`` is a bijection of {0, ..., len(seq)-1}."""
    sigma = tuple(int(x) for x in seq)
    if n is not None and len(sigma) != n:
        raise ValueError(f"permutation has length {len(sigma)}, expected {n}")
    if sorted(sigma) != list(range(len(sigma))):
        raise ValueError(f"not a permutation of 0..{len(sigma) - 1}: {sigma}")
    return sigma


def identity_permutation(n: int) -> Permutation:
    return tuple(range(n))


def reverse_order(pi: Permutation) -> Permutation:
    """The reversed permutation; it induces the opposite total ordering."""
    n = len(pi)
    return tuple(pi[n - 1 - i] for i in range(n))


# ---------------------------------------------------------------------------
# Permanents
# ---------------------------------------------------------------------------

def _integer_rows(matrix: NonNegMatrix) -> tuple[list[list[int]], list[int]]:
    """B = diag(d) A as rows of Python ints, and d, with d_i the lcm of the
    denominators in row i of exact A: per(A) = per(B) / prod(d), and A and B
    have the same marginal matrix."""
    rows, scales = [], []
    for row in matrix.entries:
        d = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (d // x.denominator) for x in row])
        scales.append(d)
    return rows, scales


def _unscale(total: Scalar, scales: Sequence[int]) -> Scalar:
    """per(A) = per(B) / prod(d) from per(B) = ``total``; an int when d = 1."""
    denominator = math.prod(scales)
    return total if denominator == 1 else Fraction(total, denominator)


def per_bruteforce(matrix: NonNegMatrix) -> Scalar:
    """Permanent by summing over all n! permutations (n <= 10)."""
    n = matrix.n
    if n > BRUTEFORCE_LIMIT:
        raise ValueError(
            f"n={n} exceeds the brute-force limit {BRUTEFORCE_LIMIT}; use per_ryser")
    rows, scales = _integer_rows(matrix) if matrix.is_exact else (matrix.entries, ())
    total = 0
    for sigma in itertools.permutations(range(n)):
        weight = rows[0][sigma[0]]
        for i in range(1, n):
            if weight == 0:
                break
            weight = weight * rows[i][sigma[i]]
        total = total + weight
    return _unscale(total, scales)


def _check_ryser_limit(n: int) -> None:
    if n > RYSER_LIMIT:
        raise ValueError(f"n={n} exceeds the Ryser limit {RYSER_LIMIT}")


def per_ryser(matrix: NonNegMatrix) -> Scalar:
    """Permanent by Ryser's formula, O(2^n * n), exact on rational input.
    Column subsets S go in Gray-code order, one column in or out per step
    (Nijenhuis & Wilf), and sums[i] keeps row i's sum over S.

    Float input returns exp(log per A) from the blocked Glynn pass (see the
    module docstring): 0.0 for a zero permanent, inf only past the float range.
    """
    if not matrix.is_exact:
        with np.errstate(over="ignore"):
            return float(np.exp(log_permanent(matrix)))
    n = matrix.n
    _check_ryser_limit(n)
    rows, scales = _integer_rows(matrix)
    columns = list(zip(*rows))
    sums = [0] * n
    total = gray = 0
    for k in range(1, 1 << n):
        bit = (k & -k).bit_length() - 1
        gray ^= 1 << bit
        column = columns[bit]
        if gray >> bit & 1:
            sums = [s + a for s, a in zip(sums, column)]
        else:
            sums = [s - a for s, a in zip(sums, column)]
        product = math.prod(sums)
        if (n - gray.bit_count()) & 1:  # Ryser's sign (-1)^(n - |S|)
            total -= product
        else:
            total += product
    return _unscale(total, scales)


def _glynn(q: np.ndarray) -> np.ndarray:
    """2^(n-1) times each minor of q, by Glynn's formula

        per(q) = 2^(1-n) * sum over d in {-1, 1}^n with d_0 = 1 of
                 (prod_j d_j) * prod_i (sum_j q_ij d_j).

    The formula is multilinear in q, so minor ij, its derivative in q_ij, is
    the same sum with row i's factor replaced by d_j, and per(q) =
    sum_j q_0j minor_0j.  Sign vectors go in blocks: the k low bits form a
    fixed table of 2^k rows, and a Python loop runs over the high bits with
    no matrix product inside.  A block's row sums are the fixed low-bit table
    plus one vector from its high signs.  Its unsigned products e are added
    to E, or subtracted when its high signs multiply to -1; one product of
    E^T with the table's rows times their low signs, after the loop, gives
    the low minor columns.  A high column's sign is constant within a block,
    so the block adds e's low-signed column sums times that sign to it.

    On an object array of Python ints the sums are exact ints; no numpy
    int64, which wraps past 2^63, enters them.
    """
    n = q.shape[0]
    k = min(n - 1, _GLYNN_EXACT_BLOCK_BITS if q.dtype == object else _GLYNN_BLOCK_BITS)
    high = n - 1 - k
    d = np.ones((1 << k, k + 1), dtype=q.dtype)
    d[:, 1:] = 1 - 2 * ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1)
    low_sign = d[:, 1:].prod(axis=1)
    s_low = d @ q[:, :k + 1].T  # s_low[b, i] = sum_{j <= k} q_ij d_bj
    e_sum = np.zeros_like(s_low)
    minors = np.zeros((n, n), dtype=q.dtype)
    for code in range(1 << high):
        signs = (1 - 2 * ((code >> np.arange(high)) & 1)).astype(q.dtype)
        s = s_low + q[:, k + 1:] @ signs
        # e[b, i]: product of s[b] over every row but i
        e = np.ones_like(s)
        np.cumprod(s[:, :-1], axis=1, out=e[:, 1:])
        e[:, :-1] *= np.cumprod(s[:, :0:-1], axis=1)[:, ::-1]
        sign = -1 if code.bit_count() & 1 else 1  # the product of the high signs
        (np.add if sign > 0 else np.subtract)(e_sum, e, out=e_sum)
        minors[:, k + 1:] += np.outer(low_sign @ e, sign * signs)
    minors[:, :k + 1] = e_sum.T @ (d * low_sign[:, None])
    return minors


def log_permanent(matrix: NonNegMatrix) -> float:
    """log per(A); -inf when the permanent is zero.

    Exact input runs Ryser on integers or rationals; float input runs the
    blocked Glynn pass, accurate to about 1e-13 (see the module docstring).
    """
    if matrix.is_exact:
        return log_scalar(per_ryser(matrix))
    return _marginal_pass(matrix, prescale(matrix))[0]


# ---------------------------------------------------------------------------
# The distribution mu(sigma) = weight(sigma) / per(A) and its marginal matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GibbsWeights:
    """per-permutation weights of A together with their normalizer.

    ``total`` is per(A) on exact input.  On float input it is log per(A), and
    probabilities are taken in the log domain, since per(A) and the weights
    can leave the float range where the probabilities do not.
    """

    matrix: NonNegMatrix
    total: Scalar

    @classmethod
    def of(cls, matrix: NonNegMatrix) -> "GibbsWeights":
        if matrix.is_exact:
            total, zero = Fraction(per_ryser(matrix)), 0  # keep int/int divisions exact
        else:
            total, zero = log_permanent(matrix), float("-inf")
        if total == zero:
            raise ZeroPermanentError("permanent is zero: weights cannot be normalized")
        return cls(matrix, total)

    def weight(self, sigma: Permutation) -> Scalar:
        """Product of the matrix entries selected by sigma."""
        rows = self.matrix.entries
        weight = rows[0][sigma[0]]
        for i in range(1, len(rows)):
            weight = weight * rows[i][sigma[i]]
        return weight

    def probability(self, sigma: Permutation) -> Scalar:
        sigma = validate_permutation(sigma, self.matrix.n)
        if isinstance(self.total, Fraction):
            return self.weight(sigma) / self.total
        rows = self.matrix.entries
        return math.exp(sum(log_scalar(rows[i][j]) for i, j in enumerate(sigma))
                        - self.total)


def permanent_minors(matrix: NonNegMatrix) -> list[list[Scalar]]:
    """per of the (i, j) minor for every entry, from one pass of ``_glynn``.

    Exact input runs it on B = diag(d) A from ``_integer_rows``, and minor
    ij of A is the Fraction d_i minor_ij(B) / prod(d), built once from the
    pass's integer sum.  Float input runs it on A as given: unlike the
    permanent, the minors depend on entries that lie on no perfect matching,
    so A is not prescaled.
    """
    n = matrix.n
    _check_ryser_limit(n)
    if not matrix.is_exact:
        return np.ldexp(_glynn(matrix.numpy()), 1 - n).tolist()
    rows, scales = _integer_rows(matrix)
    minors = _glynn(np.array(rows, dtype=object)).tolist()
    denominator = math.prod(scales) << (n - 1)
    return [[Fraction(m * d, denominator) for m in row] for d, row in zip(scales, minors)]


def _marginal_pass(matrix: NonNegMatrix, prepared
                   ) -> tuple[float, list | np.ndarray | None]:
    """log per(A) and the marginal rows A_ij minor_ij / per(A), from one
    ``_glynn`` pass on a matrix x with A's marginal matrix
    x_ij minor_ij(x) / per(x), where per(x) = sum_j x_0j minor_0j(x).

    Exact input takes x = B = diag(d) A from ``_integer_rows`` and does not
    read ``prepared``: the marginals are exact Fractions, and per(A) =
    per(B) / prod(d).  Float input takes x = Q from ``prepared``, which is
    ``prescale(matrix)`` and is 0 on every entry on no perfect matching:
    log per(A) = log per(Q) - shift.  A zero permanent gives (-inf, None); on
    float input the support decides it (``prepared`` is None).
    """
    n = matrix.n
    _check_ryser_limit(n)
    if matrix.is_exact:
        rows, scales = _integer_rows(matrix)
        x = np.array(rows, dtype=object)
    elif prepared is None:
        return float("-inf"), None
    else:
        _, _, x, _, shift = prepared
    minors = _glynn(x)
    per = x[0] @ minors[0]  # 2^(n-1) per(x), the scale of the minors
    if not matrix.is_exact:
        # a marginal below the rounding error of Glynn's signed sum can come out
        # slightly negative; the minors of a nonnegative matrix are not
        return (math.log(math.ldexp(per, 1 - n)) - shift,
                np.maximum(x * minors / per, 0.0))
    if per == 0:
        return float("-inf"), None
    return (log_scalar(Fraction(per, math.prod(scales) << (n - 1))),
            [[Fraction(b * m, per) for b, m in zip(row, minor)]
             for row, minor in zip(rows, minors.tolist())])


def marginals(matrix: NonNegMatrix) -> DoublyStochMatrix:
    """Marginal matrix P[i][j] = Pr[(i, j) is selected] under the weight
    distribution, A[i][j] * per(minor ij) / per(A).

    Exact on rational input.  Float input takes it from the Glynn pass,
    with rows and columns summing to 1 within about 1e-14 and an exact 0 on
    every entry that lies on no perfect matching.  The result is validated
    doubly stochastic.
    """
    weights = _marginal_pass(matrix, None if matrix.is_exact else prescale(matrix))[1]
    if weights is None:
        raise ZeroPermanentError("permanent is zero: marginals are undefined")
    return validate_doubly_stochastic(weights)
