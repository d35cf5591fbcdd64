"""Permanents, the weighted distribution over permutations, and its marginals.

On exact (integer or rational) input two independent permanent algorithms
are kept side by side: full permutation enumeration (the definition,
n <= 10) and Ryser's inclusion-exclusion (n <= 30).  One Gray-code walk over
the column subsets, which keeps each row's sum over the current subset,
drives both Ryser's formula and the pass that gives every minor.  All are
exact.  The marginal matrix takes one walk: the minors, with per(A) =
sum_j A_0j minor_0j from them.

Float input goes through one numpy pass of Glynn's formula, in blocks of at
most 2^10 sign vectors, on the doubly stochastic Q = diag(r) A diag(c) from
``matrices.prescale``, the matrix the optimizer of ``bethe`` starts from.
The pass gives log per(A) and the marginal matrix together.  Q's rows and
columns sum to 1, so nothing overflows or underflows whatever the scale of A.
Measured against exact integer evaluation of dyadic input with n = 6..16,
log per(A) is within 1.1e-14 (1.2e-13, one unit in the last place, on
copies scaled by 2^+-100) and marginal rows and columns sum to 1 within
2e-14; the tests hold n <= 12 to 1e-12.
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
#: 10.9 at 2^12), and it keeps the block tables near 1 MB.
_GLYNN_BLOCK_BITS = 10

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

def per_bruteforce(matrix: NonNegMatrix) -> Scalar:
    """Permanent by summing over all n! permutations (n <= 10)."""
    n = matrix.n
    if n > BRUTEFORCE_LIMIT:
        raise ValueError(
            f"n={n} exceeds the brute-force limit {BRUTEFORCE_LIMIT}; use per_ryser")
    rows = matrix.entries
    total = 0
    for sigma in itertools.permutations(range(n)):
        weight = rows[0][sigma[0]]
        for i in range(1, n):
            if weight == 0:
                break
            weight = weight * rows[i][sigma[i]]
        total = total + weight
    return total


def _check_ryser_limit(n: int) -> None:
    if n > RYSER_LIMIT:
        raise ValueError(f"n={n} exceeds the Ryser limit {RYSER_LIMIT}")


def per_ryser(matrix: NonNegMatrix) -> Scalar:
    """Permanent by Ryser's formula, Gray-code order, O(2^n * n), exact on
    rational input.

    Float input returns exp(log per A) from the blocked Glynn pass (see the
    module docstring): 0.0 for a zero permanent, inf only past the float range.
    """
    if not matrix.is_exact:
        with np.errstate(over="ignore"):
            return float(np.exp(_marginal_pass(matrix, prescale(matrix))[0]))
    n = matrix.n
    _check_ryser_limit(n)
    total = 0
    for sign, _, sums in _gray_walk(matrix.entries, n):
        product = sums[0]
        for i in range(1, n):
            if product == 0:
                break
            product = product * sums[i]
        total = total + product if sign > 0 else total - product
    return total


def _gray_walk(rows, n: int):
    """Every nonempty column subset S in Gray-code order, one column in or
    out per step (Nijenhuis & Wilf).

    Yields (sign, members, sums): sign = (-1)^(n - |S|), the columns of S,
    and sums[i] = sum of row i over S.  The lists are updated in place.
    """
    sums = [0] * n
    members: list[int] = []
    gray = 0
    for k in range(1, 1 << n):
        bit = (k & -k).bit_length() - 1
        gray ^= 1 << bit
        if gray & (1 << bit):
            members.append(bit)
            for i in range(n):
                sums[i] = sums[i] + rows[i][bit]
        else:
            members.remove(bit)
            for i in range(n):
                sums[i] = sums[i] - rows[i][bit]
        yield (1 if (n - len(members)) % 2 == 0 else -1), members, sums


def _glynn(q: np.ndarray) -> tuple[float, np.ndarray]:
    """per(q) and the matrix of its minors, by Glynn's formula

        per(q) = 2^(1-n) * sum over d in {-1, 1}^n with d_0 = 1 of
                 (prod_j d_j) * prod_i (sum_j q_ij d_j).

    The formula is multilinear in q, so minor ij, its derivative in q_ij, is
    the same sum with row i's factor replaced by d_j.  Sign vectors go in
    blocks: the low bits form a fixed table of 2^k rows, and a Python loop
    runs over the high bits.
    """
    n = q.shape[0]
    if n == 1:
        return float(q[0, 0]), np.ones((1, 1))
    k = min(n - 1, _GLYNN_BLOCK_BITS)
    high = n - 1 - k
    d = np.ones((1 << k, n))
    d[:, 1:k + 1] = 1 - 2 * ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1)
    low_sign = d[:, 1:k + 1].prod(axis=1)
    total = 0.0
    minors = np.zeros((n, n))
    for code in range(1 << high):
        signs = 1 - 2 * ((code >> np.arange(high)) & 1)
        d[:, k + 1:] = signs
        s = d @ q.T  # s[b, i] = sum_j q_ij d_bj
        # e[b, i]: signed product of s[b] over every row but i
        e = np.ones_like(s)
        np.cumprod(s[:, :-1], axis=1, out=e[:, 1:])
        e[:, :-1] *= np.cumprod(s[:, :0:-1], axis=1)[:, ::-1]
        e *= (low_sign * signs.prod())[:, None]
        total += e[:, 0] @ s[:, 0]
        minors += e.T @ d
    scale = 0.5 ** (n - 1)
    return float(total) * scale, minors * scale


def _float_pass(prepared) -> tuple[float, np.ndarray | None]:
    """log per(A) and the marginal matrix of float input, from
    ``prepared = prescale(A)``.

    ``prescale`` sets the entries on no perfect matching to 0 (they are on
    no permutation of nonzero weight) and scales the rest to Q =
    diag(r) A diag(c).  One Glynn pass on Q then gives both: log per A =
    log per Q - shift, and A shares Q's marginal matrix Q_ij minor_ij(Q) /
    per Q.  A zero permanent is decided from the support (``prepared`` is
    None) and gives (-inf, None).
    """
    if prepared is None:
        return float("-inf"), None
    _, _, q, _, shift = prepared
    per_q, minors_q = _glynn(q)
    # a marginal below the rounding error of Glynn's signed sum can come out
    # slightly negative; the minors of a nonnegative matrix are not
    return math.log(per_q) - shift, np.maximum(q * minors_q / per_q, 0.0)


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
    """per of the (i, j) minor for every entry, in one pass.

    The permanent is multilinear in the entries, so the (i, j) minor permanent
    is the partial derivative with respect to entry (i, j).  On exact input,
    differentiating Ryser's formula term by term costs O(2^n * n^2) for all
    n^2 minors at once instead of n^2 separate Ryser runs.  Float input takes
    them from Glynn's formula on A as given: unlike the permanent, the minors
    depend on entries that lie on no perfect matching, so A is not prescaled.
    """
    n = matrix.n
    _check_ryser_limit(n)
    if not matrix.is_exact:
        return _glynn(matrix.numpy())[1].tolist()
    minors = [[0] * n for _ in range(n)]
    for sign, members, sums in _gray_walk(matrix.entries, n):
        # products of all row sums except row i, via prefix/suffix sweeps
        prefix = [1] * (n + 1)
        for i in range(n):
            prefix[i + 1] = prefix[i] * sums[i]
        suffix = sign  # carries Ryser's sign into every product
        for i in range(n - 1, -1, -1):
            exclude_i = prefix[i] * suffix
            if exclude_i != 0:
                for j in members:
                    minors[i][j] = minors[i][j] + exclude_i
            suffix = suffix * sums[i]
    return minors


def _marginal_pass(matrix: NonNegMatrix, prepared
                   ) -> tuple[float, list | np.ndarray | None]:
    """log per(A) and the marginal rows A_ij minor_ij / per(A), from one pass.

    Float input takes both from the Glynn pass on ``prepared``, which is
    ``prescale(matrix)``.  Exact input does not read ``prepared``: it takes
    the minors from one Gray-code walk and per(A) = sum_j A_0j minor_0j from
    them, so the marginals are exact.  A zero permanent gives (-inf, None).
    """
    _check_ryser_limit(matrix.n)
    if not matrix.is_exact:
        return _float_pass(prepared)
    minors = permanent_minors(matrix)
    rows = matrix.entries
    # a Fraction total keeps int/int divisions exact
    total = Fraction(sum(a * m for a, m in zip(rows[0], minors[0])))
    if total == 0:
        return float("-inf"), None
    return log_scalar(total), [[a * m / total for a, m in zip(row, minor)]
                               for row, minor in zip(rows, minors)]


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
