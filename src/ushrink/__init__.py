"""Shrinkage estimation of Hilbert-space-valued U-statistic estimands.

Kernel mean embeddings, covariance operators, covariance matrices and normal
means are all unbiased U-statistic estimates that can be improved by pulling
them toward a fixed target with a data-driven coefficient.  This package
implements the estimators in closed Gram-matrix form, ships an exact
enumeration engine that serves as their oracle, and provides a deterministic
Monte Carlo harness for measuring the risk improvement.
"""

from .errors import (
    CapabilityError,
    EnumerationLimitError,
    EstimationError,
    InsufficientSampleError,
    ParameterError,
)
from .kernels import (
    GramMatrix,
    KernelSpec,
    as_dataset,
    gram,
    kernel_function,
    load_gram_csv,
)
from .ustat import comb_weights, u_stat_perm
from .shrinkage import (
    DEGENERATE,
    GENERAL,
    DualMeanElement,
    ShrinkageReport,
    TargetSpec,
    alpha_from,
    covop_inner,
    delta_degen,
    delta_general,
    dual_norm_sq,
    evaluate_mean,
    mean_inner,
    shrink_covop,
    shrink_covop_degen,
    shrink_mean,
)
from .covmat import (
    CovShrinkResult,
    SpectralSummaries,
    dist_sq_identity,
    shrink_cov_matrix,
    spectral_summaries,
)
from .normalmean import (
    NormalMeanResult,
    default_c,
    dimension_threshold,
    mu_check,
    mu_check_c,
)
from .simulate import (
    DistSpec,
    EstimatorSpec,
    RiskEstimate,
    gaussian_embed_norm_sq,
    gaussian_kernel_location_moment,
    mc_detail,
    mc_risk,
    oracle_alpha,
    rate_slope,
    run_experiment,
    sample,
)

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "CovShrinkResult",
    "DEGENERATE",
    "DistSpec",
    "DualMeanElement",
    "EnumerationLimitError",
    "EstimationError",
    "EstimatorSpec",
    "GENERAL",
    "GramMatrix",
    "InsufficientSampleError",
    "KernelSpec",
    "NormalMeanResult",
    "ParameterError",
    "RiskEstimate",
    "ShrinkageReport",
    "SpectralSummaries",
    "TargetSpec",
    "alpha_from",
    "as_dataset",
    "comb_weights",
    "covop_inner",
    "default_c",
    "delta_degen",
    "delta_general",
    "dimension_threshold",
    "dist_sq_identity",
    "dual_norm_sq",
    "evaluate_mean",
    "gaussian_embed_norm_sq",
    "gaussian_kernel_location_moment",
    "gram",
    "kernel_function",
    "load_gram_csv",
    "mc_detail",
    "mc_risk",
    "mean_inner",
    "mu_check",
    "mu_check_c",
    "oracle_alpha",
    "rate_slope",
    "run_experiment",
    "sample",
    "shrink_cov_matrix",
    "shrink_covop",
    "shrink_covop_degen",
    "shrink_mean",
    "spectral_summaries",
    "u_stat_perm",
]
