"""Domain types, constructions, support analysis, and file formats."""

import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import betheperm
from betheperm import (
    MatrixParseError,
    NonNegMatrix,
    block_diag,
    has_matching_support,
    identity_tensor,
    matrix_to_json_dict,
    ones,
    parse_matrix,
    parse_matrix_csv,
    parse_matrix_json,
    parse_vector_csv,
    per_bruteforce,
    validate_doubly_stochastic,
    validate_stochastic_vector,
)
from betheperm.matrices import matchable_support, prescale


#: Entries x * 2^k of a 5 x 5 matrix at 1-based (row, column), 0 elsewhere.
#: Their logs span more than the float range, and the diagonal scaling of
#: the matrix does not converge.
WIDE_SPAN_ENTRIES = {
    (1, 1): (2, 979), (1, 4): (48, -827),
    (2, 2): (3, 818), (2, 4): (39, 684), (2, 5): (26, -937),
    (3, 3): (28, -77), (3, 5): (56, 221),
    (4, 2): (26, -572), (4, 3): (31, 761), (4, 4): (60, -775),
    (5, 1): (53, -4), (5, 5): (14, -225),
}


def wide_span_rows():
    return [[math.ldexp(*WIDE_SPAN_ENTRIES[i, j]) if (i, j) in WIDE_SPAN_ENTRIES
             else 0.0 for j in range(1, 6)] for i in range(1, 6)]


def identity_matrix(n):
    return NonNegMatrix(tuple(tuple(1 if i == j else 0 for j in range(n))
                              for i in range(n)))


def random_rational_matrix(rng, n, denominator=4, max_num=16):
    return NonNegMatrix(tuple(
        tuple(Fraction(int(rng.integers(0, max_num + 1)), denominator)
              for _ in range(n))
        for _ in range(n)))


class TestValidation:
    def test_identity_accepted(self):
        validate_doubly_stochastic(identity_matrix(3), tol=1e-12)

    def test_uniform_2x2_accepted(self):
        validate_doubly_stochastic([[0.5, 0.5], [0.5, 0.5]], tol=1e-12)

    def test_bad_row_sum_reports_first_row(self):
        with pytest.raises(ValueError, match="row 1 sums to 1.1"):
            validate_doubly_stochastic([[0.6, 0.5], [0.5, 0.5]])

    def test_bad_column_reported(self):
        with pytest.raises(ValueError, match="column 1"):
            validate_doubly_stochastic([[0.4, 0.6], [0.5, 0.5]])

    def test_negative_entry_reported(self):
        with pytest.raises(ValueError, match="negative entry"):
            validate_doubly_stochastic([[0.5, -0.2], [0.5, 1.2]])

    @pytest.mark.parametrize("rows, message", [
        ([[0.5, -0.2, 0.7], [0.5, 1.2, 2.0], [0.0, 0.0, 1.0]],
         "negative entry -0.2 at row 1, column 2"),
        ([[0.5, 0.5, 0.0], [0.5, 0.5, 1.5], [0.0, 0.0, -1.0]],
         "entry 1.5 at row 2, column 3 exceeds 1"),
        ([[0.5, 0.5, 0.0], [0.5, 0.25, 0.0], [0.0, 0.0, 1.0]],
         "row 2 sums to 0.75"),
        ([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.0, 0.5, 0.5]],
         "column 1 sums to 0.75"),
    ])
    def test_ndarray_and_tuples_report_the_same_violation(self, rows, message):
        for given_rows in (np.array(rows), tuple(map(tuple, rows))):
            with pytest.raises(ValueError) as info:
                validate_doubly_stochastic(given_rows)
            assert str(info.value) == message

    def test_ndarray_and_tuples_agree_at_the_tolerance(self):
        # tolerances at, and one ulp below, the largest deviation of the
        # loop's own sums: a sum in any other order can flip the verdict
        rng = np.random.default_rng(73)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            m = np.zeros((n, n))
            for w in rng.dirichlet(np.ones(4)):
                m[np.arange(n), rng.permutation(n)] += w
            rows = tuple(map(tuple, m.tolist()))
            dev = max(abs(sum(line) - 1) for line in rows + tuple(zip(*rows)))
            for tol in (dev, np.nextafter(dev, 0.0)):
                outcomes = []
                for given_rows in (m, rows):
                    try:
                        outcomes.append(validate_doubly_stochastic(given_rows, tol=tol))
                    except ValueError as err:
                        outcomes.append(str(err))
                assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                     np.float64("inf"), np.float32("nan")])
    def test_non_finite_entries_rejected(self, bad):
        message = f"non-finite entry {bad} at row 2, column 1"
        rows = ((0.5, 0.5), (bad, 0.5))
        with pytest.raises(ValueError, match=f"^{message}$"):
            NonNegMatrix(rows)
        for given_rows in (rows, np.array(rows)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                validate_doubly_stochastic(given_rows)
        with pytest.raises(ValueError, match=f"^non-finite entry {bad} at position 2$"):
            validate_stochastic_vector((0.5, bad, 0.5))

    def test_exact_entries_past_the_float_range_accepted(self):
        assert NonNegMatrix(((10**400, 1), (1, 1))).entries[0][0] == 10**400
        with pytest.raises(ValueError, match=f"^entry {10**400} at row 1, column 1 exceeds 1$"):
            validate_doubly_stochastic(((10**400, 0), (0, 1)))

    def test_exact_mode_requires_exact_sums(self):
        validate_doubly_stochastic([[Fraction(1, 3), Fraction(2, 3)],
                                    [Fraction(2, 3), Fraction(1, 3)]])
        with pytest.raises(ValueError):
            validate_doubly_stochastic([[Fraction(1, 3), Fraction(2, 3)],
                                        [Fraction(2, 3), Fraction(1, 4)]])

    def test_nonneg_matrix_rejects_negative_and_nonsquare(self):
        with pytest.raises(ValueError, match="negative"):
            NonNegMatrix(((1, -1), (0, 1)))
        with pytest.raises(ValueError, match="row 1"):
            NonNegMatrix(((1, 2, 3), (1, 2, 3)))

    def test_stochastic_vector(self):
        validate_stochastic_vector((Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(ValueError):
            validate_stochastic_vector((0.9, 0.2))


class TestConstructions:
    def test_block_diag_trivial(self):
        m = block_diag(NonNegMatrix(((1,),)), NonNegMatrix(((1,),)))
        assert m.entries == ((1, 0), (0, 1))

    def test_block_diag_shape(self):
        m = block_diag(ones(2), NonNegMatrix(((1,),)))
        assert m.n == 3
        assert m.entries[0][:2] == (1, 1)
        assert m.entries[2] == (0, 0, 1)

    def test_identity_tensor_single_copy_is_input(self):
        a = NonNegMatrix(((1, 2), (3, 4)))
        assert identity_tensor(1, a).entries == a.entries

    def test_identity_tensor_rejects_zero_copies(self):
        with pytest.raises(ValueError):
            identity_tensor(0, ones(2))

    def test_permanent_multiplicative_over_blocks(self):
        rng = np.random.default_rng(7)
        b = random_rational_matrix(rng, 3)
        c = random_rational_matrix(rng, 2)
        assert per_bruteforce(block_diag(b, c)) == per_bruteforce(b) * per_bruteforce(c)

    def test_identity_tensor_squares_permanent(self):
        rng = np.random.default_rng(11)
        a = random_rational_matrix(rng, 3)
        assert per_bruteforce(identity_tensor(2, a)) == per_bruteforce(a) ** 2


def support_permutations(rows):
    """Every permutation that stays inside the support of ``rows``."""
    n = len(rows)
    return [perm for perm in itertools.permutations(range(n))
            if all(rows[i][perm[i]] for i in range(n))]


def matchable_by_definition(rows):
    n = len(rows)
    mask = [[False] * n for _ in range(n)]
    for perm in support_permutations(rows):
        for i, j in enumerate(perm):
            mask[i][j] = True
    return mask


@st.composite
def supports(draw, max_n=7):
    """A random 0/1 matrix with n <= max_n and a density drawn per matrix."""
    n = draw(st.integers(1, max_n))
    density = draw(st.sampled_from((0.2, 0.4, 0.6, 0.8)))
    cells = draw(st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n))
    return [[int(cells[i * n + j] < density) for j in range(n)] for i in range(n)]


SUPPORT_SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)


class TestMatchingSupport:
    def test_full_support(self):
        assert has_matching_support(ones(3))

    def test_zero_permanent_support(self):
        assert not has_matching_support(NonNegMatrix(((1, 0), (0, 0))))

    def test_matchable_entries_exclude_forced_zeros(self):
        # entry (0, 1) of [[1,1],[0,1]] is on no support permutation
        mask = matchable_support(NonNegMatrix(((1, 1), (0, 1))))
        assert mask == [[True, False], [False, True]]

    @SUPPORT_SETTINGS
    @given(supports())
    def test_mask_matches_definition(self, rows):
        a = NonNegMatrix(rows)
        assert matchable_support(a) == matchable_by_definition(rows)
        assert has_matching_support(a) == bool(support_permutations(rows))

    @SUPPORT_SETTINGS
    @given(st.data())
    def test_mask_invariant_under_permutation_and_transpose(self, data):
        rows = data.draw(supports())
        n = len(rows)
        p = data.draw(st.permutations(range(n)))
        q = data.draw(st.permutations(range(n)))
        mask = matchable_support(NonNegMatrix(rows))
        permuted = [[rows[p[i]][q[j]] for j in range(n)] for i in range(n)]
        assert matchable_support(NonNegMatrix(permuted)) == [
            [mask[p[i]][q[j]] for j in range(n)] for i in range(n)]
        transposed = [list(col) for col in zip(*rows)]
        assert matchable_support(NonNegMatrix(transposed)) == [
            list(col) for col in zip(*mask)]

    def test_one_by_one(self):
        assert matchable_support(NonNegMatrix(((Fraction(1, 3),),))) == [[True]]
        assert has_matching_support(NonNegMatrix(((2.5,),)))
        assert matchable_support(NonNegMatrix(((0,),))) == [[False]]
        assert not has_matching_support(NonNegMatrix(((0,),)))

    def test_all_zero(self):
        zero = NonNegMatrix(((0,) * 4,) * 4)
        assert not has_matching_support(zero)
        assert matchable_support(zero) == [[False] * 4 for _ in range(4)]

    def test_tiny_rational_stays_in_support(self):
        tiny = Fraction(1, 10 ** 400)
        assert float(tiny) == 0.0
        a = NonNegMatrix(((tiny, 1, 0), (1, 0, 1), (0, 1, 1)))
        assert matchable_support(a) == [[True, True, False],
                                        [True, False, True],
                                        [False, True, True]]
        # rounded to floats, the entry drops out and so does a permutation
        rounded = NonNegMatrix(a.numpy().tolist())
        assert matchable_support(rounded) == [[False, True, False],
                                              [True, False, False],
                                              [False, False, True]]
        assert has_matching_support(NonNegMatrix(((tiny, 0), (0, 1))))
        assert not has_matching_support(NonNegMatrix(((float(tiny), 0), (0, 1))))

    def test_import_loads_no_scipy(self):
        # the support layer imports scipy on call; the package import must not
        src = str(Path(betheperm.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run(
            [sys.executable, "-c", "import betheperm, sys; "
             "assert not [m for m in sys.modules if m.startswith('scipy')]"],
            env=env, check=True, timeout=60)


class TestPrescale:
    def test_unconverged_scaling_is_an_input_error(self):
        with pytest.raises(ValueError, match="may span more than the float range"):
            prescale(NonNegMatrix(wide_span_rows()))


class TestFileFormats:
    def test_csv_floats(self):
        m = parse_matrix_csv("1,2\n3,4\n")
        assert m.entries == ((1.0, 2.0), (3.0, 4.0))

    def test_csv_rationals(self):
        m = parse_matrix_csv("1/2,1/2\n0.25,3/4\n", exact=True)
        assert m.entries == ((Fraction(1, 2), Fraction(1, 2)),
                             (Fraction(1, 4), Fraction(3, 4)))

    def test_csv_fraction_literal_in_float_mode(self):
        m = parse_matrix_csv("1/2,1/2\n1/2,1/2\n")
        assert m.entries[0][0] == 0.5

    def test_csv_nonsquare_diagnostic(self):
        with pytest.raises(MatrixParseError, match="line 2: expected 3"):
            parse_matrix_csv("1,2,3\n1,2\n3,2,1\n")

    def test_csv_negative_diagnostic(self):
        with pytest.raises(MatrixParseError, match="line 2, column 1"):
            parse_matrix_csv("1,2\n-3,4\n")

    def test_csv_garbage_diagnostic(self):
        with pytest.raises(MatrixParseError, match="line 1, column 2"):
            parse_matrix_csv("1,zzz\n3,4\n")

    def test_json_round_trip_exact(self):
        m = parse_matrix_csv("1/3,2/3\n2/3,1/3\n", exact=True)
        text = json.dumps(matrix_to_json_dict(m))
        again = parse_matrix_json(text, exact=True)
        assert again.entries == m.entries

    def test_json_shape_diagnostics(self):
        with pytest.raises(MatrixParseError, match="row 1"):
            parse_matrix_json('{"n": 2, "entries": [[1], [1, 2]]}')
        with pytest.raises(MatrixParseError, match='"n"'):
            parse_matrix_json('{"n": 3, "entries": [[1, 2], [3, 4]]}')

    @pytest.mark.parametrize("text, message", [
        ('{"entries": 5}', '"entries" is not a list'),
        ('{"n": 2, "entries": [[1, 2], 3]}', "row 2 is not a list"),
        ('{"n": "2", "entries": [[1, 2], [3, 4]]}', '"n" is not an integer'),
        ('{"n": 2.5, "entries": [[1, 2], [3, 4]]}', '"n" is not an integer'),
        ('{"n": true, "entries": [[1]]}', '"n" is not an integer'),
    ])
    def test_json_non_list_or_non_integer_shape(self, text, message):
        for exact in (False, True):
            with pytest.raises(MatrixParseError, match=message):
                parse_matrix_json(text, exact)

    def test_json_number_literals_are_exact_in_rational_mode(self):
        text = '{"entries": [[0.10000000000000000001, 1e400], [1, 1]]}'
        exact = parse_matrix_json(text, exact=True)
        assert exact.entries[0] == (Fraction(10**19 + 1, 10**20), 10**400)
        assert exact.entries == parse_matrix_csv(
            "0.10000000000000000001,1e400\n1,1\n", exact=True).entries
        assert parse_matrix_json('{"entries": [[0.1, 2.5], [1, 1]]}').entries == (
            (0.1, 2.5), (1.0, 1.0))

    def test_dispatch_by_leading_character(self):
        m = parse_matrix('{"n": 1, "entries": [[5]]}')
        assert m.entries == ((5.0,),)
        m = parse_matrix("5\n")
        assert m.entries == ((5.0,),)

    @pytest.mark.parametrize("parse, text, message", [
        (parse_matrix, "nan,1\n1,1", "line 1, column 1: non-finite entry nan"),
        (parse_matrix, "1,1\n1,1e400", "line 2, column 2: non-finite entry 1e400"),
        (parse_matrix, '{"n": 2, "entries": [[1, 1], [NaN, 1]]}',
         "row 2, column 1: non-finite entry nan"),
        (parse_matrix, '{"n": 2, "entries": [[1, 1], [1, 1e400]]}',
         "row 2, column 2: non-finite entry 1e400"),
        (parse_vector_csv, "0.5,nan,0.5", "column 2: non-finite entry nan"),
        (parse_vector_csv, "0.5,-0.5,1", "column 2: negative entry -0.5"),
        pytest.param(parse_matrix, f"{10**400}/1,1\n1,1", "line 1, column 1: .+",
                     id="p/q past the float range"),
    ])
    def test_non_finite_and_negative_token_diagnostics(self, parse, text, message):
        with pytest.raises(MatrixParseError, match=f"^{message}$"):
            parse(text)

    def test_vector_parsing(self):
        v = parse_vector_csv("1/2,1/2", exact=True)
        assert v.entries == (Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(MatrixParseError):
            parse_vector_csv("0.9,0.3")
