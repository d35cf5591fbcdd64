"""Matrix and vector types, constructions, support analysis, diagonal scaling.

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


def _square_rows(rows: Iterable[Sequence[Scalar]]) -> tuple[tuple[Scalar, ...], ...]:
    rows = tuple(tuple(row) for row in rows)
    n = len(rows)
    if n == 0:
        raise ValueError("matrix must have at least one row")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {i + 1} has {len(row)} entries, expected {n}")
    return rows


def _check_entries(rows: Iterable[Sequence[Scalar]], upper: Scalar | None = None,
                   where: str = "row {i}, column {j}") -> None:
    """Raise ValueError at the first entry, in row-major order, that is not
    finite, is negative, or exceeds ``upper`` (1, or 1 plus a tolerance).
    Exact entries are finite whatever their size; ``where`` names the place
    from the 1-based row i and column j."""
    for i, row in enumerate(rows, start=1):
        for j, x in enumerate(row, start=1):
            if 0 <= x < math.inf and (upper is None or x <= upper):
                continue  # NaN fails every comparison
            place = where.format(i=i, j=j)
            if not (is_exact_scalar(x) or math.isfinite(x)):
                raise ValueError(f"non-finite entry {x} at {place}")
            if x < 0:
                raise ValueError(f"negative entry {x} at {place}")
            raise ValueError(f"entry {x} at {place} exceeds 1")


@dataclass(frozen=True)
class _SquareMatrix:
    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", _square_rows(self.entries))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def is_exact(self) -> bool:
        return all(is_exact_scalar(x) for row in self.entries for x in row)

    def numpy(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.entries], dtype=float)


@dataclass(frozen=True)
class NonNegMatrix(_SquareMatrix):
    """Square matrix A with finite nonnegative entries, the permanent's
    argument.  Exact entries (int, Fraction) may lie past the float range."""

    def __post_init__(self):
        super().__post_init__()
        _check_entries(self.entries)

    def support(self) -> list[list[bool]]:
        return [[x > 0 for x in row] for row in self.entries]


@dataclass(frozen=True)
class DoublyStochMatrix(_SquareMatrix):
    """Matrix in the Birkhoff polytope.  Construct via ``validate_doubly_stochastic``."""


@dataclass(frozen=True)
class StochasticVector:
    """Point of the standard simplex: nonnegative entries summing to one."""

    entries: tuple[Scalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))


def validate_stochastic_vector(entries: Sequence[Scalar],
                               tol: float = DEFAULT_DS_TOL) -> StochasticVector:
    """Check simplex membership; exact equality is required for rational input."""
    entries = tuple(entries)
    if not entries:
        raise ValueError("vector must have at least one entry")
    _check_entries((entries,), where="position {j}")
    total = sum(entries)
    if all(is_exact_scalar(x) for x in entries):
        if total != 1:
            raise ValueError(f"entries sum to {total}, expected exactly 1")
    elif abs(total - 1) > tol:
        raise ValueError(f"entries sum to {float(total)!r}, outside tolerance {tol}")
    return StochasticVector(entries)


def validate_doubly_stochastic(matrix, tol: float = DEFAULT_DS_TOL) -> DoublyStochMatrix:
    """Validate the entry range, row sums and column sums; return the typed value.

    Rational input is checked for exact equality; float input, including
    every ndarray, within ``tol``.  The first violation is reported (a
    non-finite, negative or too large entry, then a row, then a column, all
    1-based in messages).  Entries are screened and the sums formed in
    numpy, on object arrays for rational input; the sums are cumulative, so
    they add each line left to right as Python's ``sum`` does.
    """
    if isinstance(matrix, np.ndarray):
        a = matrix.astype(float)
        rows, exact = _square_rows(a.tolist()), False
    else:
        rows = _square_rows(matrix.entries if isinstance(matrix, _SquareMatrix) else matrix)
        exact = all(is_exact_scalar(x) for row in rows for x in row)
        a = np.array(rows, dtype=object if exact else float)
    upper = 1 if exact else 1 + tol
    if not ((a >= 0) & (a <= upper)).all():  # NaN and ±inf fail too
        _check_entries(rows, upper)
    for line, sums in (("row", np.cumsum(a, axis=1)[:, -1]),
                       ("column", np.cumsum(a, axis=0)[-1])):
        bad = np.flatnonzero(sums != 1 if exact else np.abs(sums - 1) > tol)
        if bad.size:
            raise ValueError(f"{line} {bad[0] + 1} sums to {sums[bad[0]]}")
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
# Diagonal scaling onto the Birkhoff polytope
# ---------------------------------------------------------------------------

#: The scaler's Sinkhorn sweeps stop once the rows they normalize already
#: summed to within a factor e^0.1 of 1, or after 1000 sweeps.
_SWEEP_TOL = 0.1
_MAX_SWEEPS = 1000


def _log_entries(matrix: NonNegMatrix) -> np.ndarray:
    """log A entrywise, -inf at zero entries.  Exact entries outside the
    float range, such as 10**400, still get their finite logs."""
    if matrix.is_exact:
        return np.array([[log_scalar(x) for x in row] for row in matrix.entries])
    with np.errstate(divide="ignore"):
        return np.log(matrix.numpy())


def _project_birkhoff(log_p: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Diagonal scaling S = exp(log_p + u_i + v_j) onto the Birkhoff
    polytope, returned as (S, log S, shift = sum u + sum v); None on
    collapse.  -inf in ``log_p`` marks a zero entry.

    u starts at minus each row's maximum of ``log_p``, and v at minus each
    column's maximum after that, so every row and every column of S has a
    largest entry of exactly 1: nothing overflows whatever the scale of
    ``log_p``, and no row or column sums to 0.  Sinkhorn sweeps then divide
    S by its row and then its column sums and subtract their logs from u
    and v, until the rows they normalize already summed to within e^0.1 of
    1, or 1000 times.  Sweeps alone stall when entries approach zero (the
    contraction factor tends to one near the polytope boundary), so damped
    Newton on the scaling dual sum_ij exp(log_p_ij + u_i + v_j) - sum u -
    sum v, whose convergence does not degrade there, continues from the
    same u, v until rows and columns sum to 1 within 1e-12.  With r and c the row and
    column sums of S, g_r = r - 1 and g_c = c - 1, each step eliminates the
    row scalers and solves the n x n Schur complement

        (diag(c) - S^T diag(1/r) S) dv = S^T (g_r / r) - g_c,
        du = -(g_r + S dv) / r.

    The ones vector of each connected block of the support spans that
    matrix's null space and the right side is orthogonal to it; a 1e-14
    ridge fixes the gauge, which cancels in u_i + v_j anyway.
    """
    n = log_p.shape[0]
    u = -log_p.max(axis=1, keepdims=True)
    if np.isinf(u).any():  # an empty row
        return None
    v = -(log_p + u).max(axis=0, keepdims=True)
    if np.isinf(v).any():  # an empty column
        return None
    s = np.exp(log_p + u + v)
    # an entry that underflows to 0 here can grow back into the float range
    # as the sweeps move u and v, and dividing S in place would never see it:
    # the sweeps would balance a smaller support.  S is then recomputed from
    # its logs every sweep.
    refresh = np.count_nonzero(s) < np.count_nonzero(np.isfinite(log_p))

    def scaled() -> tuple[np.ndarray, np.ndarray, float]:
        return s, log_p + u + v, float(u.sum() + v.sum())

    for _ in range(_MAX_SWEEPS):
        rows = s.sum(axis=1, keepdims=True)
        s /= rows
        cols = s.sum(axis=0, keepdims=True)
        s /= cols
        log_rows = np.log(rows)
        u -= log_rows
        v -= np.log(cols)
        if np.abs(log_rows).max() <= _SWEEP_TOL:
            break
        if refresh:
            s = np.exp(log_p + u + v)

    r, c = s.sum(axis=1), s.sum(axis=0)
    diagonal = np.diag_indices(n)
    for _ in range(100):
        g = np.concatenate([r - 1.0, c - 1.0])
        err = np.abs(g).max()
        if err <= 1e-12:
            return scaled()
        w = s / r[:, None]  # diag(1/r) S
        schur = -(s.T @ w)
        schur[diagonal] += c + 1e-14  # diag(c), plus the gauge ridge
        try:
            dv = np.linalg.solve(schur, w.T @ g[:n] - g[n:])
        except np.linalg.LinAlgError:
            return None
        du = -(g[:n] + s @ dv) / r
        step = 1.0
        norm = np.linalg.norm(g)
        while step >= 1e-8:
            u_try = u + step * du[:, None]
            v_try = v + step * dv
            # a step through a nearly disconnected support can overflow;
            # its infinite residual fails the test and halves the step
            with np.errstate(over="ignore"):
                s_try = np.exp(log_p + u_try + v_try)
                r_try, c_try = s_try.sum(axis=1), s_try.sum(axis=0)
                g_try = np.concatenate([r_try - 1.0, c_try - 1.0])
                accept = np.linalg.norm(g_try) <= (1.0 - 0.25 * step) * norm
            if accept:
                u, v, s, r, c = u_try, v_try, s_try, r_try, c_try
                break
            step *= 0.5
        else:
            return scaled() if err <= 1e-9 else None
    return scaled() if np.abs(r - 1.0).max() <= 1e-9 else None


def prescale(matrix: NonNegMatrix
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float] | None:
    """The face of A, log A, and the doubly stochastic scaling Q of A on
    that face; None when A has no perfect matching.

    The face is the ``matchable_support`` mask.  ``_project_birkhoff`` of
    log A restricted to the face gives Q = diag(r) A diag(c), its log and
    shift = sum log r + sum log c, so no entry of Q leaves the float range
    whatever the scale of A, and Q's rows and columns sum to 1 within
    1e-12.  The scaling is exact for any r and c: per Q = exp(shift) per A,
    Q has the marginal matrix of A, and on a doubly stochastic P the
    objectives of ``bethe`` at Q exceed those at A by shift.  Returns
    (face, log A, Q, log Q, shift); Q is 0 and log Q -inf off the face.
    Raises ValueError when the scaling does not converge.
    """
    face = np.array(matchable_support(matrix), dtype=bool)
    if not face.any(axis=1).all():  # the mask is empty: no perfect matching
        return None
    log_a = _log_entries(matrix)
    projected = _project_birkhoff(np.where(face, log_a, -np.inf))
    if projected is None:
        raise ValueError("diagonal scaling of the matchable face did not converge; "
                         "the entries may span more than the float range")
    return (face, log_a) + projected


# ---------------------------------------------------------------------------
# File formats: CSV (decimal or p/q literals) and JSON {"n":..., "entries":...}
# ---------------------------------------------------------------------------

def parse_scalar(token: str, exact: bool) -> Scalar:
    """One entry of a matrix or vector file: a decimal or p/q literal, as a
    Fraction when ``exact`` and as a float otherwise.  Raises ValueError on
    a malformed or negative literal, and in float mode on a non-finite one
    (nan, inf, or a decimal past the float range such as 1e400); p/0, and
    in float mode a p/q past the float range, raise an ArithmeticError."""
    token = token.strip()
    if exact:
        value = Fraction(token)
    else:
        value = float(Fraction(token)) if "/" in token else float(token)
        if not math.isfinite(value):
            raise ValueError(f"non-finite entry {token}")
    if value < 0:
        raise ValueError(f"negative entry {token}")
    return value


def _parse_tokens(tokens: Iterable[str], exact: bool, prefix: str = "") -> tuple[Scalar, ...]:
    """``parse_scalar`` of each token; an error names the 1-based column
    after ``prefix``."""
    values = []
    for col, token in enumerate(tokens, start=1):
        try:
            values.append(parse_scalar(token, exact))
        except (ValueError, ArithmeticError) as exc:
            raise MatrixParseError(f"{prefix}column {col}: {exc}") from exc
    return tuple(values)


def format_scalar(x: Scalar) -> str | float:
    """JSON-friendly form: exact scalars as 'p' or 'p/q' strings, floats as numbers."""
    return str(x) if is_exact_scalar(x) else float(x)


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
        rows.append(_parse_tokens(tokens, exact, f"line {lineno}, "))
    if not rows:
        raise MatrixParseError("empty input")
    if len(rows) != width:
        raise MatrixParseError(
            f"matrix is {len(rows)}x{width}, expected square")
    return NonNegMatrix(tuple(rows))


def parse_matrix_json(text: str, exact: bool = False) -> NonNegMatrix:
    """Number literals reach ``parse_scalar`` as their source text, so
    ``exact`` reads 0.10000000000000000001 and 1e400 exactly."""
    try:
        data = json.loads(text, parse_float=str)
    except json.JSONDecodeError as exc:
        raise MatrixParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "entries" not in data:
        raise MatrixParseError('expected an object with "n" and "entries"')
    entries = data["entries"]
    if not isinstance(entries, list):
        raise MatrixParseError(f'"entries" is not a list of rows: {entries!r}')
    n = data.get("n", len(entries))
    if type(n) is not int:
        raise MatrixParseError(f'"n" is not an integer: {n}')
    if len(entries) != n:
        raise MatrixParseError(f'"entries" has {len(entries)} rows, "n" is {n}')
    rows = []
    for i, raw_row in enumerate(entries, start=1):
        if not isinstance(raw_row, list):
            raise MatrixParseError(f"row {i} is not a list: {raw_row!r}")
        if len(raw_row) != n:
            raise MatrixParseError(f"row {i}: expected {n} values, got {len(raw_row)}")
        rows.append(_parse_tokens(map(str, raw_row), exact, f"row {i}, "))
    return NonNegMatrix(tuple(rows))


def parse_matrix(text: str, exact: bool = False) -> NonNegMatrix:
    """Dispatch on the leading character: '{' means JSON, anything else CSV."""
    if text.lstrip().startswith("{"):
        return parse_matrix_json(text, exact)
    return parse_matrix_csv(text, exact)


def parse_vector_csv(text: str, exact: bool = False) -> StochasticVector:
    tokens = [t for t in text.replace("\n", ",").split(",") if t.strip()]
    if not tokens:
        raise MatrixParseError("empty input")
    values = _parse_tokens(tokens, exact)
    try:
        return validate_stochastic_vector(values)
    except ValueError as exc:
        raise MatrixParseError(str(exc)) from exc


def matrix_to_json_dict(matrix: _SquareMatrix) -> dict:
    return {
        "n": matrix.n,
        "entries": [[format_scalar(x) for x in row] for row in matrix.entries],
    }
