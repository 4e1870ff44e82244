"""Numerical verification of sharp Dirichlet-kernel norm bounds and their
consequence for the max-entropy power of sums of integer-valued variables.

Importing the package loads ``errors`` and ``kernel`` (and with it numpy),
which every command reads.  Every other public name is looked up in its
module on first access (PEP 562), so that a process loads only the modules
it uses; ``lebesgue_lab.X``, ``from lebesgue_lab import X`` and ``import *``
give the module's own objects.
"""

import importlib

from . import errors, kernel  # noqa: F401

# module -> its public names, the names the package gives
_PUBLIC = {
    "epi": (
        "EpiInstance",
        "EpiReport",
        "RogozinCheck",
        "check_epi",
        "check_epis",
        "check_rogozin",
        "decide_chain",
        "handcrafted_corpus",
        "holder_exponents",
        "instance_from_json_obj",
        "instance_to_json_obj",
        "load_instances",
        "make_instance",
        "random_instance",
        "random_instances",
        "save_instances",
    ),
    "errors": (
        "ConvolutionOverflowError",
        "DomainError",
        "GenerationError",
        "PreconditionError",
        "VerificationError",
    ),
    "kernel": (
        "KernelSpec",
        "TruncatedGaussian",
        "check_first_arch_domination",
        "eval_gaussian",
        "eval_kernel",
        "gaussian_distribution_function",
        "kernel_slope",
    ),
    "levelsets": (
        "BumpProfile",
        "SignChangeReport",
        "bump_profiles",
        "check_derivative_bounds",
        "check_derivative_bounds_many",
        "comparison_functional",
        "detect_sign_change",
        "detect_sign_changes",
        "slope_sum",
        "superlevel_measure",
        "superlevel_measure_many",
    ),
    "pmf": ("EntropySummary", "Pmf", "convolve", "convolve_many", "entropy_summary", "l_index", "uniform", "uniform_max"),
    "quadrature": (
        "BoundCertificate",
        "LpNormResult",
        "QuadratureConfig",
        "ball_half",
        "ball_half_grid",
        "ball_integral",
        "ball_integral_grid",
        "certify_bound",
        "certify_bound_grid",
        "integrate_kernel_power_grid",
        "lp_norm",
        "lp_norm_grid",
        "norm_bound",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

# the modules are public names too, as ``import *`` has always given them
__all__ = [*_PUBLIC, *_HOME]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
