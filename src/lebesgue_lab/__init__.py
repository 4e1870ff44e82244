"""Numerical verification of sharp Dirichlet-kernel norm bounds and their
consequence for the max-entropy power of sums of integer-valued variables."""

from .epi import (
    EpiInstance,
    EpiReport,
    RogozinCheck,
    check_epi,
    check_epis,
    check_rogozin,
    decide_chain,
    handcrafted_corpus,
    holder_exponents,
    instance_from_json_obj,
    instance_to_json_obj,
    load_instances,
    make_instance,
    random_instance,
    random_instances,
    save_instances,
)
from .errors import (
    ConvolutionOverflowError,
    DomainError,
    GenerationError,
    PreconditionError,
    VerificationError,
)
from .kernel import (
    KernelSpec,
    TruncatedGaussian,
    check_first_arch_domination,
    eval_gaussian,
    eval_kernel,
    gaussian_distribution_function,
    kernel_slope,
)
from .levelsets import (
    BumpProfile,
    SignChangeReport,
    bump_profiles,
    check_derivative_bounds,
    check_derivative_bounds_many,
    comparison_functional,
    detect_sign_change,
    detect_sign_changes,
    slope_sum,
    superlevel_measure,
    superlevel_measure_many,
)
from .pmf import EntropySummary, Pmf, convolve, convolve_many, entropy_summary, l_index
from .pmf import uniform, uniform_max
from .quadrature import (
    BoundCertificate,
    LpNormResult,
    QuadratureConfig,
    ball_half,
    ball_half_grid,
    ball_integral,
    ball_integral_grid,
    certify_bound,
    certify_bound_grid,
    integrate_kernel_power_grid,
    lp_norm,
    lp_norm_grid,
    norm_bound,
)

__version__ = "0.1.0"
