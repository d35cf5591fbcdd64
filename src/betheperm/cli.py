"""Command-line front end: matrix ingestion, command dispatch, report emission.

Exit codes: 0 on success, 1 when an inequality check fails (bound report or
certificate), 2 on input errors including parse failures and size-guard
violations.  Numeric output is fixed at 15 significant digits so runs diff
cleanly.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .bethe import (
    MAX_ITER_DEFAULT,
    TOL_OPT_DEFAULT,
    bound_report,
    optimize,
)
from .matrices import (
    MatrixParseError,
    matrix_to_json_dict,
    parse_matrix,
    parse_vector_csv,
)
from .permanents import (
    identity_permutation,
    marginals,
    per_bruteforce,
    per_ryser,
    reverse_order,
)
from .phi import certify, phi
from .sampling import NuDistribution, kl_mu_nu, nu_sample

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _json_value(x: float):
    if x == float("-inf"):
        return "-inf"
    if x == float("inf"):
        return "inf"
    return float(_fmt(x))


def _scalar_str(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, int):
        return str(x)
    return _fmt(x)


def _load(path: str, exact: bool, parse=parse_matrix):
    """Read and parse a matrix file (or, with ``parse_vector_csv``, a vector
    file); read and parse errors both name the file."""
    try:
        return parse(Path(path).read_text(), exact=exact)
    except (OSError, MatrixParseError) as exc:
        raise MatrixParseError(f"{path}: {exc}") from exc


def _make_order(kind: str, n: int, seed: int | None):
    if kind == "identity":
        return identity_permutation(n)
    if kind == "reverse":
        return reverse_order(identity_permutation(n))
    rng = np.random.default_rng(seed)
    return tuple(int(x) for x in rng.permutation(n))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_per(args) -> int:
    matrix = _load(args.matrix, args.mode == "rational")
    value = per_bruteforce(matrix) if args.oracle else per_ryser(matrix)
    print(_scalar_str(value))
    return EXIT_OK


def _cmd_optimize(args, gamma: float) -> int:
    matrix = _load(args.matrix, args.mode == "rational")
    result = optimize(matrix, gamma, tol=args.tol, max_iter=args.max_iter)
    with np.errstate(over="ignore"):  # a value past the float range prints "inf"
        value = np.exp(result.log_value)
    print(json.dumps({
        "log_value": _json_value(result.log_value),
        "value": _json_value(value),
        "iterations": result.iterations,
        "converged": result.converged,
        "gradient_residual": _json_value(result.gradient_residual),
    }, sort_keys=True))
    return EXIT_OK


def _cmd_bethe(args) -> int:
    return _cmd_optimize(args, -1.0)


def _cmd_bp(args) -> int:
    return _cmd_optimize(args, args.gamma)


def _cmd_marginals(args) -> int:
    matrix = _load(args.matrix, args.mode == "rational")
    print(json.dumps(matrix_to_json_dict(marginals(matrix)), sort_keys=True))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    matrix = _load(args.matrix, args.mode == "rational")
    report = bound_report(matrix, tol=args.tol, max_iter=args.max_iter)
    payload = report.to_json_dict()
    payload.update({key: _json_value(payload[key]) for key in
                    ("log_per", "log_bethe", "log_bp_half", "log_beta_marginals",
                     "ratio_per_bethe", "ratio_per_bp_half")})
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _cmd_sample(args) -> int:
    matrix = _load(args.matrix, args.mode == "rational")
    weights = marginals(matrix)
    order = _make_order(args.order, matrix.n, args.seed)
    dist = NuDistribution(weights, order)
    rng = np.random.default_rng(args.seed)
    for _ in range(args.count):
        sigma = nu_sample(dist, rng)
        print(" ".join(str(j) for j in sigma))
    return EXIT_OK


def _cmd_kl(args) -> int:
    matrix = _load(args.matrix, args.mode == "rational")
    weights = marginals(matrix)
    order = _make_order(args.order, matrix.n, args.seed)
    print(_fmt(kl_mu_nu(matrix, NuDistribution(weights, order))))
    return EXIT_OK


def _cmd_certify(args) -> int:
    run = certify(args.n_grid, smoke=args.smoke, seed=args.seed)
    if args.failures_log and run.failures:
        with open(args.failures_log, "a") as handle:
            for i, j in run.failures:
                handle.write(f"{i},{j}\n")
    print(json.dumps(run.to_json_dict(), sort_keys=True))
    return EXIT_OK if run.passed else EXIT_CHECK_FAILED


def _cmd_phi(args) -> int:
    vector = _load(args.vector, args.mode == "rational", parse_vector_csv)
    print(_fmt(phi(vector)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sub, matrix_arg: bool = True) -> None:
    if matrix_arg:
        sub.add_argument("matrix", help="matrix file (CSV rows or JSON object)")
    sub.add_argument("--mode", choices=("float", "rational"), default="float",
                     help="numeric mode for parsing and exact paths")


def _add_optimizer_flags(sub) -> None:
    sub.add_argument("--tol", type=float, default=TOL_OPT_DEFAULT,
                     help="first-order residual target")
    sub.add_argument("--max-iter", type=int, default=MAX_ITER_DEFAULT)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betheperm",
        description="Permanents, Bethe / fractional-BP bounds, and the exact "
                    "grid certificate.")
    commands = parser.add_subparsers(dest="command", required=True)

    per = commands.add_parser("per", help="exact permanent (Ryser)")
    _add_common(per)
    per.add_argument("--oracle", action="store_true",
                     help="use full permutation enumeration instead of Ryser")
    per.set_defaults(func=_cmd_per)

    bethe = commands.add_parser("bethe", help="maximize the Bethe objective")
    _add_common(bethe)
    _add_optimizer_flags(bethe)
    bethe.set_defaults(func=_cmd_bethe)

    bp = commands.add_parser("bp", help="maximize the fractional objective")
    _add_common(bp)
    _add_optimizer_flags(bp)
    bp.add_argument("--gamma", type=float, required=True,
                    help="fractional parameter in [-1, 1]")
    bp.set_defaults(func=_cmd_bp)

    marg = commands.add_parser("marginals", help="exact marginal matrix as JSON")
    _add_common(marg)
    marg.set_defaults(func=_cmd_marginals)

    bounds = commands.add_parser("bounds",
                                 help="permanent bound sandwich report (JSON)")
    _add_common(bounds)
    _add_optimizer_flags(bounds)
    bounds.set_defaults(func=_cmd_bounds)

    sample = commands.add_parser(
        "sample", help="sequential proposal samples, one permutation per line")
    _add_common(sample)
    sample.add_argument("--count", type=int, required=True)
    sample.add_argument("--order", choices=("random", "identity", "reverse"),
                        default="identity", help="row visit order")
    sample.add_argument("--seed", type=int, default=None)
    sample.set_defaults(func=_cmd_sample)

    kl = commands.add_parser(
        "kl", help="KL divergence from the weight distribution to the proposal")
    _add_common(kl)
    kl.add_argument("--order", choices=("random", "identity", "reverse"),
                    default="identity")
    kl.add_argument("--seed", type=int, default=None)
    kl.set_defaults(func=_cmd_kl)

    cert = commands.add_parser("certify", help="exact grid certificate run")
    cert.add_argument("--n-grid", type=int, required=True,
                      help="grid resolution (cells per axis scale)")
    cert.add_argument("--smoke", type=int, default=None,
                      help="check only this many randomly sampled cells")
    cert.add_argument("--seed", type=int, default=None)
    cert.add_argument("--failures-log", default=None,
                      help="append failing cells to this file, one i,j per line")
    cert.set_defaults(func=_cmd_certify)

    phi_cmd = commands.add_parser("phi", help="gap function of a stochastic vector")
    phi_cmd.add_argument("vector", help="vector file (one CSV line)")
    phi_cmd.add_argument("--mode", choices=("float", "rational"), default="float")
    phi_cmd.set_defaults(func=_cmd_phi)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # MatrixParseError and ZeroPermanentError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
