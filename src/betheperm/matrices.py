"""Matrix and vector types, constructions, support analysis, Sinkhorn scaling.

Values are immutable after construction; every operation here is a pure
function of its inputs.  Matrices carry either float64 entries or exact
rationals (``fractions.Fraction``); exactness is preserved wherever the
math allows it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

Scalar = int | float | Fraction

#: Default tolerance for doubly stochastic validation in float mode.
DEFAULT_DS_TOL = 1e-9


class ZeroPermanentError(ValueError):
    """The matrix has no perfect matching in its support (permanent is zero)."""


class MatrixParseError(ValueError):
    """Matrix or vector input could not be parsed; message carries position info."""


def is_exact_scalar(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def log_scalar(x: Scalar) -> float:
    """Natural log of a nonnegative scalar; exact-ratio aware, -inf at 0."""
    if isinstance(x, Fraction):
        if x == 0:
            return float("-inf")
        return math.log(x.numerator) - math.log(x.denominator)
    if x == 0:
        return float("-inf")
    return math.log(x)


def _freeze_rows(rows: Iterable[Sequence[Scalar]]) -> tuple[tuple[Scalar, ...], ...]:
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class NonNegMatrix:
    """Square matrix A with nonnegative entries, the permanent's argument."""

    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", _freeze_rows(self.entries))
        n = len(self.entries)
        if n == 0:
            raise ValueError("matrix must have at least one row")
        for i, row in enumerate(self.entries):
            if len(row) != n:
                raise ValueError(f"row {i + 1} has {len(row)} entries, expected {n}")
            for j, x in enumerate(row):
                if x < 0:
                    raise ValueError(f"negative entry {x} at row {i + 1}, column {j + 1}")

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def is_exact(self) -> bool:
        return all(is_exact_scalar(x) for row in self.entries for x in row)

    def numpy(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.entries], dtype=float)

    def support(self) -> list[list[bool]]:
        return [[x > 0 for x in row] for row in self.entries]


@dataclass(frozen=True)
class DoublyStochMatrix:
    """Matrix in the Birkhoff polytope.  Construct via ``validate_doubly_stochastic``."""

    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", _freeze_rows(self.entries))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def is_exact(self) -> bool:
        return all(is_exact_scalar(x) for row in self.entries for x in row)

    def numpy(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.entries], dtype=float)


@dataclass(frozen=True)
class StochasticVector:
    """Point of the standard simplex: nonnegative entries summing to one."""

    entries: tuple[Scalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def is_exact(self) -> bool:
        return all(is_exact_scalar(x) for x in self.entries)


def validate_stochastic_vector(entries: Sequence[Scalar],
                               tol: float = DEFAULT_DS_TOL) -> StochasticVector:
    """Check simplex membership; exact equality is required for rational input."""
    entries = tuple(entries)
    if not entries:
        raise ValueError("vector must have at least one entry")
    for k, x in enumerate(entries):
        if x < 0:
            raise ValueError(f"negative entry {x} at position {k + 1}")
    total = sum(entries)
    if all(is_exact_scalar(x) for x in entries):
        if total != 1:
            raise ValueError(f"entries sum to {total}, expected exactly 1")
    elif abs(total - 1) > tol:
        raise ValueError(f"entries sum to {float(total)!r}, outside tolerance {tol}")
    return StochasticVector(entries)


def validate_doubly_stochastic(matrix, tol: float = DEFAULT_DS_TOL) -> DoublyStochMatrix:
    """Validate row sums, column sums, and entry range; return the typed value.

    Rational input is checked for exact equality; float input within ``tol``.
    The first violated constraint is reported (negative entry, row, or column,
    all 1-based in messages).  A square ndarray is checked in numpy, and the
    entry loop below runs only to name the first violation; its sums are
    cumulative, in the loop's order, so both agree bit for bit.
    """
    if isinstance(matrix, (NonNegMatrix, DoublyStochMatrix)):
        rows = matrix.entries
    elif isinstance(matrix, np.ndarray):
        q = matrix.astype(float)
        rows = tuple(map(tuple, q.tolist()))
        if q.ndim == 2 and q.shape[0] == q.shape[1] > 0 and not (
                (q < 0).any() or (q > 1 + tol).any()
                or (np.abs(np.cumsum(q, axis=1)[:, -1] - 1) > tol).any()
                or (np.abs(np.cumsum(q, axis=0)[-1] - 1) > tol).any()):
            return DoublyStochMatrix(rows)
    else:
        rows = _freeze_rows(matrix)
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {i + 1} has {len(row)} entries, expected {n}")

    exact = all(is_exact_scalar(x) for row in rows for x in row)

    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x < 0:
                raise ValueError(f"negative entry {x} at row {i + 1}, column {j + 1}")
            upper = 1 if exact else 1 + tol
            if x > upper:
                raise ValueError(f"entry {x} at row {i + 1}, column {j + 1} exceeds 1")

    def _bad(total) -> bool:
        if exact:
            return total != 1
        return abs(total - 1) > tol

    for i, row in enumerate(rows):
        total = sum(row)
        if _bad(total):
            raise ValueError(f"row {i + 1} sums to {total}")
    for j in range(n):
        total = sum(rows[i][j] for i in range(n))
        if _bad(total):
            raise ValueError(f"column {j + 1} sums to {total}")
    return DoublyStochMatrix(rows)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def ones(n: int) -> NonNegMatrix:
    """The all-ones matrix J_n (exact integer entries)."""
    return NonNegMatrix(tuple(tuple(1 for _ in range(n)) for _ in range(n)))


def block_diag(top: NonNegMatrix, bottom: NonNegMatrix) -> NonNegMatrix:
    """Block-diagonal matrix with ``top`` and ``bottom`` on the diagonal."""
    n1, n2 = top.n, bottom.n
    zero_right = (0,) * n2
    zero_left = (0,) * n1
    rows = [row + zero_right for row in top.entries]
    rows += [zero_left + row for row in bottom.entries]
    return NonNegMatrix(tuple(rows))


def identity_tensor(m: int, block: NonNegMatrix) -> NonNegMatrix:
    """Block-diagonal matrix with ``m`` copies of ``block`` (permanent = per(block)^m)."""
    if m < 1:
        raise ValueError("m must be at least 1")
    result = block
    for _ in range(m - 1):
        result = block_diag(result, block)
    return result


def pair_block_matrix(m: int) -> NonNegMatrix:
    """The 2m x 2m matrix of m all-ones 2x2 diagonal blocks, the worst case
    for the Bethe lower bound: its permanent is 2^m while the Bethe value is 1."""
    return identity_tensor(m, ones(2))


# ---------------------------------------------------------------------------
# Support analysis: one maximum matching, then strongly connected components
# ---------------------------------------------------------------------------

def _support_matching(matrix: NonNegMatrix):
    """The support of A as a CSR bipartite graph (row -> column), the row of
    each stored entry, and the row that one maximum matching gives each
    column (-1 where the column is unmatched).

    The support is read from the exact entries, so a tiny rational that
    would round to 0.0 as a float stays in it.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching
    n = matrix.n
    rows, cols = np.nonzero(np.array(matrix.support(), dtype=bool))
    indptr = np.searchsorted(rows, np.arange(n + 1))
    graph = csr_matrix((np.ones(len(cols), dtype=bool), cols, indptr), shape=(n, n))
    return graph, rows, maximum_bipartite_matching(graph, perm_type="row")


def has_matching_support(matrix: NonNegMatrix) -> bool:
    """True iff the support admits a perfect matching, i.e. per(A) > 0."""
    _, _, row_of = _support_matching(matrix)
    return bool((row_of >= 0).all())


def matchable_support(matrix: NonNegMatrix) -> list[list[bool]]:
    """Mask of entries that lie on at least one permutation within the support.

    Entries outside this mask are forced to zero on every doubly stochastic
    matrix with the same support, so optimizers freeze them.  Given one
    perfect matching M, a support entry (i, j) lies on a perfect matching
    exactly when it is in M or closes an M-alternating cycle, that is, when
    row i and the row M(j) matched to column j share a strongly connected
    component of the digraph with an arc i -> M(j) for every support entry
    (i, j); these components are the Dulmage-Mendelsohn fine blocks.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components
    n = matrix.n
    graph, rows, row_of = _support_matching(matrix)
    mask = np.zeros((n, n), dtype=bool)
    if (row_of < 0).any():
        return mask.tolist()
    target = row_of[graph.indices]
    alternating = csr_matrix((graph.data, target, graph.indptr), shape=(n, n))
    _, label = connected_components(alternating, directed=True, connection="strong")
    mask[rows, graph.indices] = label[rows] == label[target]
    return mask.tolist()


# ---------------------------------------------------------------------------
# Sinkhorn scaling
# ---------------------------------------------------------------------------

#: ``prescale`` stops once the rows it normalizes already summed to within
#: a factor e^0.1 of 1, or after 1000 sweeps.
_PRESCALE_TOL = 0.1
_PRESCALE_MAX_SWEEPS = 1000


def sinkhorn_sweep(q: np.ndarray, log: bool = False
                   ) -> tuple[np.ndarray, np.ndarray] | None:
    """Normalize the rows of ``q`` and then its columns, in place.

    With ``log`` true, ``q`` holds natural logs (-inf for a zero entry) and
    each sum is a log-sum-exp, which holds any scale of entries.  Returns
    the row and column sums divided out (their logs, subtracted, when
    ``log``), as keepdims arrays, or None when a row or column sums to zero.
    """
    sums = []
    for axis in (1, 0):
        if log:
            peak = q.max(axis=axis, keepdims=True)
            if not np.all(peak > -np.inf):
                return None
            total = peak + np.log(np.exp(q - peak).sum(axis=axis, keepdims=True))
            q -= total
        else:
            total = q.sum(axis=axis, keepdims=True)
            if not np.all(total > 0.0):
                return None
            q /= total
        sums.append(total)
    return sums[0], sums[1]


def _log_entries(matrix: NonNegMatrix) -> np.ndarray:
    """log A entrywise, -inf at zero entries.  Exact entries outside the
    float range, such as 10**400, still get their finite logs."""
    if matrix.is_exact:
        return np.array([[log_scalar(x) for x in row] for row in matrix.entries])
    with np.errstate(divide="ignore"):
        return np.log(matrix.numpy())


def prescale(matrix: NonNegMatrix
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float] | None:
    """The face of A, log A, and A scaled until its row and column sums
    are near 1; None when A has no perfect matching.

    The face is the ``matchable_support`` mask.  Log-domain Sinkhorn sweeps
    on log A restricted to the face give log Q and shift = sum log r +
    sum log c, for Q = diag(r) A diag(c), so no entry of Q leaves the float
    range whatever the scale of A.  The scaling is exact for any r and c,
    so the sweeps need not converge: per Q = exp(shift) per A, Q has the
    marginal matrix of A, and on a doubly stochastic P the objectives of
    ``bethe`` at Q exceed those at A by shift.  Returns (face, log A,
    log Q, shift); log Q is -inf off the face.
    """
    face = np.array(matchable_support(matrix), dtype=bool)
    if not face.any(axis=1).all():  # the mask is empty: no perfect matching
        return None
    log_a = _log_entries(matrix)
    log_q = np.where(face, log_a, -np.inf)
    shift = 0.0
    for _ in range(_PRESCALE_MAX_SWEEPS):
        row, col = sinkhorn_sweep(log_q, log=True)
        shift -= float(row.sum() + col.sum())
        if np.abs(row).max() <= _PRESCALE_TOL:
            break
    return face, log_a, log_q, shift


# ---------------------------------------------------------------------------
# File formats: CSV (decimal or p/q literals) and JSON {"n":..., "entries":...}
# ---------------------------------------------------------------------------

def parse_scalar(token: str, exact: bool) -> Scalar:
    token = token.strip()
    if exact:
        return Fraction(token)
    if "/" in token:
        return float(Fraction(token))
    return float(token)


def format_scalar(x: Scalar) -> str | float:
    """JSON-friendly form: rationals as 'p/q' strings, floats as numbers."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    if isinstance(x, int):
        return str(x)
    return float(x)


def parse_matrix_csv(text: str, exact: bool = False) -> NonNegMatrix:
    rows: list[tuple[Scalar, ...]] = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split(",")
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise MatrixParseError(
                f"line {lineno}: expected {width} values, got {len(tokens)}")
        row = []
        for col, token in enumerate(tokens, start=1):
            try:
                value = parse_scalar(token, exact)
            except (ValueError, ZeroDivisionError) as exc:
                raise MatrixParseError(f"line {lineno}, column {col}: {exc}") from exc
            if value < 0:
                raise MatrixParseError(
                    f"line {lineno}, column {col}: negative entry {token.strip()}")
            row.append(value)
        rows.append(tuple(row))
    if not rows:
        raise MatrixParseError("empty input")
    if len(rows) != width:
        raise MatrixParseError(
            f"matrix is {len(rows)}x{width}, expected square")
    return NonNegMatrix(tuple(rows))


def parse_matrix_json(text: str, exact: bool = False) -> NonNegMatrix:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "entries" not in data:
        raise MatrixParseError('expected an object with "n" and "entries"')
    entries = data["entries"]
    n = data.get("n", len(entries))
    if len(entries) != n:
        raise MatrixParseError(f'"entries" has {len(entries)} rows, "n" is {n}')
    rows = []
    for i, raw_row in enumerate(entries, start=1):
        if len(raw_row) != n:
            raise MatrixParseError(f"row {i}: expected {n} values, got {len(raw_row)}")
        row = []
        for j, item in enumerate(raw_row, start=1):
            try:
                value = parse_scalar(str(item), exact)
            except (ValueError, ZeroDivisionError) as exc:
                raise MatrixParseError(f"row {i}, column {j}: {exc}") from exc
            if value < 0:
                raise MatrixParseError(f"row {i}, column {j}: negative entry {item}")
            row.append(value)
        rows.append(tuple(row))
    return NonNegMatrix(tuple(rows))


def parse_matrix(text: str, exact: bool = False) -> NonNegMatrix:
    """Dispatch on the leading character: '{' means JSON, anything else CSV."""
    if text.lstrip().startswith("{"):
        return parse_matrix_json(text, exact)
    return parse_matrix_csv(text, exact)


def parse_vector_csv(text: str, exact: bool = False,
                     tol: float = DEFAULT_DS_TOL) -> StochasticVector:
    tokens = [t for t in text.replace("\n", ",").split(",") if t.strip()]
    if not tokens:
        raise MatrixParseError("empty input")
    values = []
    for col, token in enumerate(tokens, start=1):
        try:
            values.append(parse_scalar(token, exact))
        except (ValueError, ZeroDivisionError) as exc:
            raise MatrixParseError(f"column {col}: {exc}") from exc
    try:
        return validate_stochastic_vector(values, tol=tol)
    except ValueError as exc:
        raise MatrixParseError(str(exc)) from exc


def matrix_to_json_dict(matrix: NonNegMatrix | DoublyStochMatrix) -> dict:
    return {
        "n": matrix.n,
        "entries": [[format_scalar(x) for x in row] for row in matrix.entries],
    }
