"""Workload inputs, the library calls each item makes, and their correctness checks.

A workload is a fixed composition of items, called a round, which a run
repeats.  Each (family, n) slot of a round holds a stored matrix, named by
its family, n and occurrence; the seed permutes the rows and columns of
every input (and may transpose it), which leaves its permanent and the work
it takes unchanged, so runs with different seeds do the same work on
different inputs.  Every float matrix is dyadic, so its exact permanent is
an integer computation (:func:`ryser_int`, the benchmark's own reference,
independent of the program).

Items marked ``probe`` in ``bounds`` are fixed inputs that expose defects of
the seed commit (overflow to NaN, underflow to a false zero permanent,
negative float marginals, row sums outside the validation tolerance).  They
run in every round whatever the seed, so their share of the items is
constant; their outcome is reported by ``pass_frac`` and the run record, and
they do not count toward the run's ``failed`` total.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, NamedTuple

import betheperm as bp

LOG2 = math.log(2.0)

#: Largest accepted |log per - reference| in nats; bound_report's own slack.
LOG_TOL = 1e-9

REFS_PATH = Path(__file__).with_name("refs.json")


class Outcome(NamedTuple):
    failed_units: int = 0
    log_err: float = 0.0
    reason: str = ""


@dataclass
class Item:
    id: str
    call: Callable[[], Any]          # the timed library calls
    check: Callable[[Any], Outcome]  # untimed comparison with the reference
    units: int = 1                   # grid cells in `certificate`, else 1
    probe: bool = False


class CliCase(NamedTuple):
    argv: list[str]
    input_name: str | None
    input_text: str | None
    check: Callable[[int, str], str]   # (exit code, stdout) -> "" or a reason


# ---------------------------------------------------------------------------
# Integer matrices and the exact reference
# ---------------------------------------------------------------------------

def ryser_int(rows: list[list[int]]) -> int:
    """Exact permanent of an integer matrix by Ryser's formula in Gray-code order."""
    n = len(rows)
    sums = [0] * n
    total = 0
    size = 0
    gray = 0
    for k in range(1, 1 << n):
        bit = (k & -k).bit_length() - 1
        gray ^= 1 << bit
        if gray >> bit & 1:
            size += 1
            for i in range(n):
                sums[i] += rows[i][bit]
        else:
            size -= 1
            for i in range(n):
                sums[i] -= rows[i][bit]
        product = 1
        for s in sums:
            product *= s
            if not product:
                break
        total += product if (n - size) % 2 == 0 else -product
    return total


def _level(rnd: random.Random) -> int:
    return 1 + int(rnd.random() * 63)


def _perm(rnd: random.Random, n: int) -> list[int]:
    """Fisher-Yates on ``random()`` alone, whose stream Python keeps stable."""
    p = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rnd.random() * (i + 1))
        p[i], p[j] = p[j], p[i]
    return p


# Each generator returns (integer rows, scale): the float matrix is rows / 2^scale.

def uniform(rnd, n):
    return [[_level(rnd) for _ in range(n)] for _ in range(n)], 6


def near_boundary(rnd, n):
    """U^8 on a 1/64 grid: entries span 2^-48..1, all exact in float64."""
    return [[_level(rnd) ** 8 for _ in range(n)] for _ in range(n)], 48


def sparse_total(rnd, n, k=3):
    """Diagonal plus k random permutation matrices: every entry is on a matching."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = _level(rnd)
    for _ in range(k):
        for i, j in enumerate(_perm(rnd, n)):
            rows[i][j] = _level(rnd)
    return rows, 6


def sparse_diag(rnd, n, k=3):
    """Diagonal plus k random entries per row; some entries are on no matching."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = _level(rnd)
        for j in _perm(rnd, n)[:k]:
            rows[i][j] = _level(rnd)
    return rows, 6


def quarter_grid(rnd, n):
    """Entries 0..4 in steps of 1/4 with a nonzero diagonal, so per > 0."""
    rows = [[int(rnd.random() * 17) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][i] = max(rows[i][i], 1)
    return rows, 2


def pair_block(rnd, n):
    """pair_block_matrix(n/2) under a random integer diagonal scaling."""
    r = [1 + int(rnd.random() * 7) for _ in range(n)]
    c = [1 + int(rnd.random() * 7) for _ in range(n)]
    return [[r[i] * c[j] if i // 2 == j // 2 else 0 for j in range(n)]
            for i in range(n)], 0


FAMILIES = {
    "uniform": uniform,
    "near_boundary": near_boundary,
    "sparse_total": sparse_total,
    "sparse_diag": sparse_diag,
    "pair_block": pair_block,
    "quarter_grid": quarter_grid,
}

def pool_matrix(family: str, n: int, variant: int):
    """A stored-reference input, regenerated from its name."""
    return FAMILIES[family](random.Random(f"pool/{family}/{n}/{variant}"), n)


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def float_matrix(rows, scale: int, shift: int = 0) -> bp.NonNegMatrix:
    return bp.NonNegMatrix(tuple(tuple(math.ldexp(x, shift - scale) for x in row)
                                 for row in rows))


def shuffled(rnd, rows):
    """Rows and columns permuted and maybe transposed: the permanent is unchanged."""
    n = len(rows)
    p, q = _perm(rnd, n), _perm(rnd, n)
    out = [[rows[p[i]][q[j]] for j in range(n)] for i in range(n)]
    if rnd.random() < 0.5:
        out = [list(col) for col in zip(*out)]
    return out


def slot_keys(slots) -> list[tuple[str, int, int]]:
    """(family, n, variant) of each slot: a repeated slot takes the next variant."""
    seen = Counter()
    keys = []
    for family, n in slots:
        keys.append((family, n, seen[family, n]))
        seen[family, n] += 1
    return keys


def pooled(rnd, slots):
    """Each slot's stored input, shuffled: (rows, scale, pool key)."""
    for family, n, variant in slot_keys(slots):
        rows, scale = pool_matrix(family, n, variant)
        yield shuffled(rnd, rows), scale, f"{family}-{n}-{variant}"


def exact_log(per: int, n: int, scale: int, shift: int = 0) -> float:
    return math.log(per) + n * (shift - scale) * LOG2


def csv_text(rows, scale: int) -> str:
    return "\n".join(",".join(repr(math.ldexp(x, -scale)) for x in row) for row in rows) + "\n"


def json_cli(argv, input_name, input_text, accept: Callable[[dict], bool]) -> CliCase:
    """A CLI case whose stdout is one JSON object that ``accept`` must approve."""
    def check(code, out):
        try:
            payload = json.loads(out)
            ok = code == 0 and accept(payload)
        except (ValueError, KeyError, TypeError):
            ok, payload = False, out
        return "" if ok else f"exit {code}: {payload!r}"

    return CliCase(argv, input_name, input_text, check)


def load_refs(path: Path = REFS_PATH) -> dict:
    """Stored references, after checking each pool input regenerates identically."""
    refs = json.loads(path.read_text())
    for key, entry in refs["bounds"].items():
        family, n, variant = key.rsplit("-", 2)
        rows, _ = pool_matrix(family, int(n), int(variant))
        if digest(rows) != entry["sha"]:
            raise RuntimeError(f"{key}: regenerated input differs from refs.json; "
                               "run bench/make_refs.py")
    return refs


# ---------------------------------------------------------------------------
# exact: rational quarter-grid matrices
# ---------------------------------------------------------------------------

# Cost tiers of five, four and three items, so the median falls inside the
# middle tier and the p85 tail inside the top one.
EXACT_SIZES = (2, 4, 5, 7, 9,  6, 6, 10, 10,  8, 11, 11)
EXACT_QUICK = (2, 3, 4, 5)
BRUTEFORCE_MAX = 8
SAMPLING_MAX = 6


def rational(rows) -> bp.NonNegMatrix:
    return bp.NonNegMatrix(tuple(tuple(Fraction(x, 4) for x in row) for row in rows))


def _exact_item(label: str, rows, seed: int) -> Item:
    """``rows`` are numerators over 4."""
    n = len(rows)
    matrix = rational(rows)
    reference = Fraction(ryser_int(rows), 4 ** n)

    def call():
        out = {}
        if n <= BRUTEFORCE_MAX:
            out["ryser"] = bp.per_ryser(matrix)
            out["brute"] = bp.per_bruteforce(matrix)
        out["marginals"] = weights = bp.marginals(matrix)
        if n <= SAMPLING_MAX:
            order = tuple(_perm(random.Random(seed), n))
            out["kl"] = bp.kl_mu_nu(matrix, bp.NuDistribution(weights, order))
            out["entropy"] = bp.entropy_upper_bound(matrix)
            out["estimate"] = bp.estimate_log_permanent(matrix, None, 32, seed)
        return out

    def check(out) -> Outcome:
        for key in ("ryser", "brute"):
            if key in out and out[key] != reference:
                return Outcome(1, 0.0, f"{key} {out[key]} != {reference}")
        rows_p = out["marginals"].entries
        if any(sum(row) != 1 for row in rows_p) or any(
                sum(row[j] for row in rows_p) != 1 for j in range(n)):
            return Outcome(1, 0.0, "marginals not exactly doubly stochastic")
        if "kl" in out:
            log_per = math.log(reference.numerator) - math.log(reference.denominator)
            if not out["kl"] >= -1e-12:
                return Outcome(1, 0.0, f"KL {out['kl']} < 0")
            if not out["entropy"] >= log_per - LOG_TOL:
                return Outcome(1, 0.0, "entropy bound below log per")
            if not math.isfinite(out["estimate"]):
                return Outcome(1, 0.0, "estimate not finite")
        return Outcome()

    return Item(label, call, check)


def exact_round(rnd, refs, quick=False) -> list[Item]:
    slots = [("quarter_grid", n) for n in (EXACT_QUICK if quick else EXACT_SIZES)]
    return [_exact_item(key, rows, int(rnd.random() * 2**31))
            for rows, _, key in pooled(rnd, slots)]


def exact_cli(rnd, refs) -> CliCase:
    rows, _ = quarter_grid(rnd, 6)
    expected = str(Fraction(ryser_int(rows), 4 ** 6))
    text = "\n".join(",".join(f"{x}/4" for x in row) for row in rows) + "\n"

    def check(code, out):
        return "" if code == 0 and out.strip() == expected else f"exit {code}: {out!r}"

    return CliCase(["per", "--mode", "rational"], "exact.csv", text, check)


# ---------------------------------------------------------------------------
# bounds: bound_report on dyadic float matrices against exact references
# ---------------------------------------------------------------------------

# Thirteen cheap items (with the probes) around the median, four n >= 14
# ones in the p85 tail.  Near-boundary matrices appear only as a probe: at
# the seed commit about 1 in 40 of them (n = 6..10) fails the row-sum check
# of the float marginals, which would make `correct` depend on which inputs
# are stored.  The sparse family starts at n = 8: at n = 6 `optimize` takes
# 26 or 64 iterations depending on the row and column order, so the item
# would cross the median from seed to seed.
BOUNDS_SLOTS = (
    ("pair_block", 6), ("uniform", 6), ("sparse_total", 9), ("uniform", 8),
    ("sparse_total", 8), ("pair_block", 10), ("uniform", 10), ("sparse_total", 10),
    ("pair_block", 12),
    ("uniform", 14), ("uniform", 14), ("sparse_total", 14), ("sparse_total", 16),
)
BOUNDS_QUICK = (("uniform", 6), ("sparse_total", 8), ("pair_block", 6))
# (label, family, n, variant, power of two applied to every entry)
BOUNDS_PROBES = (
    ("scaled_up", "uniform", 12, 0, 100),
    ("scaled_down", "uniform", 12, 0, -100),
    ("partial_support", "sparse_diag", 10, 0, 0),
    ("near_boundary", "near_boundary", 10, 5, 0),
)


def _bounds_item(label: str, rows, scale: int, log_ref: float, shift: int = 0,
                 probe: bool = False) -> Item:
    matrix = float_matrix(rows, scale, shift)

    def call():
        return bp.bound_report(matrix)

    def check(report) -> Outcome:
        err = abs(report.log_per - log_ref)
        if not err <= LOG_TOL:
            return Outcome(1, err, f"log_per {report.log_per!r} vs exact {log_ref!r}")
        failed = [name for name, ok in report.checks.items() if not ok]
        if failed:
            return Outcome(1, err, "checks false: " + ",".join(failed))
        return Outcome(0, err)

    return Item(label, call, check, probe=probe)


def bounds_round(rnd, refs, quick=False) -> list[Item]:
    items = []
    for rows, scale, key in pooled(rnd, BOUNDS_QUICK if quick else BOUNDS_SLOTS):
        log_ref = exact_log(int(refs["bounds"][key]["per"]), len(rows), scale)
        items.append(_bounds_item(key, rows, scale, log_ref))
    if not quick:
        for label, family, n, variant, shift in BOUNDS_PROBES:
            rows, scale = pool_matrix(family, n, variant)
            per = int(refs["bounds"][f"{family}-{n}-{variant}"]["per"])
            items.append(_bounds_item(label, rows, scale,
                                      exact_log(per, n, scale, shift), shift,
                                      probe=True))
    return items


def bounds_cli(rnd, refs) -> CliCase:
    rows, scale = uniform(rnd, 8)
    log_ref = exact_log(ryser_int(rows), 8, scale)
    return json_cli(["bounds"], "bounds.csv", csv_text(rows, scale), lambda out: (
        all(out["checks"].values())
        # stdout carries 15 significant digits
        and abs(out["log_per"] - log_ref) <= 1e-12 * max(1.0, abs(log_ref))))


# ---------------------------------------------------------------------------
# bethe_large: optimize where no permanent is computable
# ---------------------------------------------------------------------------

OPT_TOL = 1e-8
# Cost tiers: four cheap items, four around the median, three in the p85
# tail.  The sparse family is diagonal + 3 random entries per row (partial
# support, so faces are frozen) at n = 30, and diagonal + 3 permutations
# (total support) at n = 50 and 80: at the seed commit about 1 in 75
# partial-support matrices at n = 80 needs over 1500 iterations (6-7 s) and
# about 1 in 300 does not converge, which would make the run time and
# `correct` depend on which stored inputs happen to be drawn.
BETHE_SLOTS = (
    ("pair_block", 60), ("pair_block", 80), ("sparse_diag", 30), ("sparse_total", 50),
    ("uniform", 30), ("near_boundary", 30), ("uniform", 30), ("near_boundary", 30),
    ("sparse_total", 80), ("uniform", 34), ("near_boundary", 34),
)
BETHE_QUICK = (("uniform", 8), ("sparse_diag", 10), ("pair_block", 10))


def _bethe_item(label: str, rows, scale: int) -> Item:
    n = len(rows)
    matrix = float_matrix(rows, scale)

    def call():
        return bp.optimize(matrix, -1.0, tol=OPT_TOL), bp.optimize(matrix, -0.5, tol=OPT_TOL)

    def check(results) -> Outcome:
        bethe, half = results
        for r in results:
            if not (r.converged and r.gradient_residual <= OPT_TOL):
                return Outcome(1, 0.0, f"gamma {r.gamma}: converged={r.converged} "
                                       f"residual={r.gradient_residual}")
        if not half.log_value + half.gradient_residual + LOG_TOL >= bethe.log_value:
            return Outcome(1, 0.0, "log_bp_half < log_bethe")
        if not half.log_value <= bethe.log_value + n / 2 + bethe.gradient_residual + LOG_TOL:
            return Outcome(1, 0.0, "log_bp_half > log_bethe + n/2 + residual")
        return Outcome()

    return Item(label, call, check)


def bethe_round(rnd, refs, quick=False) -> list[Item]:
    return [_bethe_item(key, rows, scale)
            for rows, scale, key in pooled(rnd, BETHE_QUICK if quick else BETHE_SLOTS)]


def bethe_cli(rnd, refs) -> CliCase:
    rows, scale = uniform(rnd, 20)
    return json_cli(["bethe"], "bethe.csv", csv_text(rows, scale), lambda out: (
        out["converged"] and out["gradient_residual"] <= OPT_TOL))


# ---------------------------------------------------------------------------
# certificate: full single-process grids and N = 2000 smoke samples
# ---------------------------------------------------------------------------

# Three cost tiers of three calls: small grids, smoke samples, larger grids.
CERT_GRIDS = (150, 175, 200, 290, 300, 310)
CERT_QUICK_GRIDS = (101, 150)
CERT_REF_GRIDS = CERT_QUICK_GRIDS[:1] + CERT_GRIDS
SMOKE_N = 2000
SMOKE_CELLS = 100
SMOKE_CALLS = 3


def _cells(n_grid: int) -> int:
    return (44 * n_grid // 100 + 1) ** 2


def _grid_item(n_grid: int, expected: frozenset) -> Item:
    def check(run) -> Outcome:
        got = frozenset(map(tuple, run.failures))
        if run.cells_checked != _cells(n_grid):
            return Outcome(_cells(n_grid), 0.0, f"checked {run.cells_checked} cells")
        wrong = got ^ expected
        return Outcome(len(wrong), 0.0,
                       f"cells differ from the bigint record: {sorted(wrong)[:5]}" if wrong else "")

    return Item(f"grid-{n_grid}", lambda: bp.certify(n_grid, workers=1), check,
                units=_cells(n_grid))


def _smoke_item(seed: int, cells: int) -> Item:
    def check(run) -> Outcome:
        if run.cells_checked != cells:
            return Outcome(cells, 0.0, f"checked {run.cells_checked} cells")
        # every N = 2000 cell passes (the full certificate)
        return Outcome(len(run.failures), 0.0,
                       f"failing cells {list(run.failures)[:5]}" if run.failures else "")

    return Item(f"smoke-{seed}", lambda: bp.certify(SMOKE_N, smoke=cells, seed=seed),
                check, units=cells)


def certificate_round(rnd, refs, quick=False) -> list[Item]:
    grids = CERT_QUICK_GRIDS if quick else CERT_GRIDS
    items = [_grid_item(n, frozenset(map(tuple, refs["certificate"][str(n)])))
             for n in grids]
    for _ in range(1 if quick else SMOKE_CALLS):
        items.append(_smoke_item(int(rnd.random() * 2**31), 10 if quick else SMOKE_CELLS))
    return items


def certificate_cli(rnd, refs) -> CliCase:
    argv = ["certify", "--n-grid", str(SMOKE_N), "--smoke", "200",
            "--seed", str(int(rnd.random() * 2**31))]
    return json_cli(argv, None, None, lambda out: out["cells"] == 200 and not out["failures"])


# ---------------------------------------------------------------------------

class Workload(NamedTuple):
    build_round: Callable
    cli: Callable


WORKLOADS = {
    "exact": Workload(exact_round, exact_cli),
    "bounds": Workload(bounds_round, bounds_cli),
    "bethe_large": Workload(bethe_round, bethe_cli),
    "certificate": Workload(certificate_round, certificate_cli),
}
