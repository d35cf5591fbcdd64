"""Permanents of nonnegative matrices, their Bethe and fractional-BP bounds,
and the exact grid certificate behind the sqrt(2)^n approximation factor."""

from .matrices import (
    DoublyStochMatrix,
    MatrixParseError,
    NonNegMatrix,
    Scalar,
    StochasticVector,
    ZeroPermanentError,
    block_diag,
    has_matching_support,
    identity_tensor,
    matrix_to_json_dict,
    ones,
    pair_block_matrix,
    parse_matrix,
    parse_matrix_csv,
    parse_matrix_json,
    parse_vector_csv,
    validate_doubly_stochastic,
    validate_stochastic_vector,
)
from .permanents import (
    GibbsWeights,
    Permutation,
    identity_permutation,
    log_permanent,
    marginals,
    per_bruteforce,
    per_ryser,
    permanent_minors,
    reverse_order,
    validate_permutation,
)
from .bethe import (
    BetheResult,
    BoundReport,
    beta_objective,
    bound_report,
    bp_objective,
    objective_gradient,
    optimize,
)
from .sampling import (
    AbsoluteContinuityError,
    NuDistribution,
    SamplerStrandedError,
    entropy_upper_bound,
    entropy_upper_bound_sampled,
    estimate_log_permanent,
    kl_mu_nu,
    ordering_gap,
    ordering_gap_log_form,
    nu_prob,
    nu_sample,
)
from .phi import (
    GAMMA,
    CertificateRun,
    certify,
    entropy_dominance_check,
    loop_bound,
    phi,
    phi3_exp_form,
    phi_log_form,
    phi_max_search,
    reduction_check,
    stationary_qt,
    verify_cell,
    within_merge_threshold,
)

__version__ = "0.1.0"
