"""Two-sided bounds for norms of sums of independent random matrices.

The package computes the variance parameter, the large-deviation parameter,
and the dimensional constant for a model of independent summands, forms the
matched lower/upper estimates that sandwich (E||sum||^2)^(1/2), checks every
supporting matrix inequality against randomized oracles, and reproduces the
optimality examples by exact enumeration plus Monte Carlo.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .linalg import HermitianMatrix, as_hermitian, spectral_norm
from .oracles import (
    KINDS,
    FactCase,
    brute_force_expected_norm,
    sweep_fact_kind,
    sweep_symmetrization,
    symmetrization_check,
    verify_fact,
)
from .models import (
    CenteredBernoulliBasis,
    FiniteSummand,
    FixedGaussian,
    FixedRademacher,
    ParetoDiagonal,
    RademacherEntry,
    ScaledBasisRademacher,
    analytic_max_sq,
    analytic_second_moments,
    center,
    make_example,
    make_model,
    model_from_json,
    model_to_json,
    pareto_sample,
    sample_summands,
)
from .bounds import (
    BoundInputs,
    BoundInterval,
    dimensional_constant,
    hermitian_case_interval,
    large_dev_param,
    main_interval,
    psd_case_interval,
    rademacher_bound,
    sweep_rademacher_domination,
    trace_moment_bound,
    variance_param,
)
from .montecarlo import (
    MCConfig,
    MEAN,
    MEDIAN_OF_MEANS,
    bound_report,
    collect_samples,
    estimate_max_summand_sq,
)

__all__ = [
    "__version__",
    # linalg
    "HermitianMatrix",
    "as_hermitian",
    "spectral_norm",
    # oracles
    "KINDS",
    "FactCase",
    "brute_force_expected_norm",
    "sweep_fact_kind",
    "sweep_symmetrization",
    "symmetrization_check",
    "verify_fact",
    # models
    "CenteredBernoulliBasis",
    "FiniteSummand",
    "FixedGaussian",
    "FixedRademacher",
    "ParetoDiagonal",
    "RademacherEntry",
    "ScaledBasisRademacher",
    "analytic_max_sq",
    "analytic_second_moments",
    "center",
    "make_example",
    "make_model",
    "model_from_json",
    "model_to_json",
    "pareto_sample",
    "sample_summands",
    # bounds
    "BoundInputs",
    "BoundInterval",
    "dimensional_constant",
    "hermitian_case_interval",
    "large_dev_param",
    "main_interval",
    "psd_case_interval",
    "rademacher_bound",
    "sweep_rademacher_domination",
    "trace_moment_bound",
    "variance_param",
    # montecarlo
    "MCConfig",
    "MEAN",
    "MEDIAN_OF_MEANS",
    "bound_report",
    "collect_samples",
    "estimate_max_summand_sq",
]
