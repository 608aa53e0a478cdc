"""Parallel (product-of-subset) kernel density estimation with optimal bandwidths."""

__version__ = "0.1.0"

from .kernels import Kernel, from_name
from .quadrature import ConvergenceError, Grid, argmin_scalar, gradient_fd, integrate, integrate_values
from .estimators import (
    AnalyticModel,
    DegenerateProduct,
    ProductPosterior,
    SubsetKde,
    SubsetSample,
    fit_subset_kde,
    normalize,
)
from .amise import (
    AmiseCoefficients,
    amise_bar,
    amise_hat,
    amise_hat_grad,
    amise_product,
    bias_leading,
    empirical_coefficients,
    variance_leading,
)
from .bandwidth import (
    GammaDomain,
    OptimizeResult,
    ab_constants,
    h_opt_gamma,
    h_opt_normal,
    h_opt_symmetric,
    optimize_bandwidth,
    parzen_h_m1,
)
from .harness import (
    DegenerateMajority,
    ExperimentConfig,
    MiseCurve,
    MiseEstimate,
    closed_form_h,
    estimate_mise,
    run_experiment,
    sample_model,
    sweep_bandwidth,
)

__all__ = [
    "Kernel",
    "from_name",
    "ConvergenceError",
    "Grid",
    "argmin_scalar",
    "gradient_fd",
    "integrate",
    "integrate_values",
    "AnalyticModel",
    "DegenerateProduct",
    "ProductPosterior",
    "SubsetKde",
    "SubsetSample",
    "fit_subset_kde",
    "normalize",
    "AmiseCoefficients",
    "amise_bar",
    "amise_hat",
    "amise_hat_grad",
    "amise_product",
    "bias_leading",
    "empirical_coefficients",
    "variance_leading",
    "GammaDomain",
    "OptimizeResult",
    "ab_constants",
    "h_opt_gamma",
    "h_opt_normal",
    "h_opt_symmetric",
    "optimize_bandwidth",
    "parzen_h_m1",
    "DegenerateMajority",
    "ExperimentConfig",
    "MiseCurve",
    "MiseEstimate",
    "closed_form_h",
    "estimate_mise",
    "run_experiment",
    "sample_model",
    "sweep_bandwidth",
]
