"""Potential theory for subordinate Brownian motion.

Complete Bernstein functions and their conjugates, potential and Levy
densities via numerical Laplace inversion, Green and jump kernels through
subordination, ladder-height objects on the half-line, and a deterministic
Monte Carlo engine for exit-time, exit-distribution, Harnack, and boundary
Harnack checks.
"""

from . import bernstein, densities, harnack, kernels, ladder, laplace, montecarlo, rng
from .bernstein import (
    CompleteBernsteinFunction,
    check_bernstein,
    check_complete_monotonicity,
    check_levy_shift_bound,
    conjugate,
    default_catalog,
    eval_levy_density,
    geometric_like,
    killed_shift,
    levy_tail,
    log_perturbed_down,
    log_perturbed_up,
    phi_from_json,
    phi_to_json,
    reg_var_profile,
    relativistic_stable,
    stable,
    sum_of_stables,
)
from .densities import (
    ZAHLE_BOUND,
    ScalingWitness,
    ZahleReport,
    find_scaling_constant,
    mu_asymptotic_ratio,
    potential_density_u,
    tail_vs_conjugate_potential,
    u_asymptotic_ratio,
    verify_scaling_condition,
    zahle_upper_check,
)
from .errors import (
    ConstructionError,
    EvaluationDomainError,
    NotTransientError,
    NumericAccuracyError,
    UndecidableError,
    UnsupportedKindError,
)
from .harnack import (
    BhpReport,
    CarlesonReport,
    HarmonicProbe,
    HarnackReport,
    bhp_ratio_check,
    carleson_check,
    harnack_ratio,
    mc_harmonic,
)
from .kernels import (
    build_kernel_table,
    g_asymptotic_ratio,
    green_function,
    j_asymptotic_ratio,
    j_doubling_and_shift,
    jump_kernel,
    transience_check,
)
from .ladder import (
    SANDWICH_HI,
    SANDWICH_LO,
    chi_is_cbf_check,
    chi_sandwich_check,
    halfline_green,
    interval_green_mass_bound,
    ladder_density_v,
    ladder_exponent_chi,
    renewal_function_V,
)
from .montecarlo import (
    Ball,
    Interval,
    McEstimate,
    PathConfig,
    epsilon_refinement_check,
    exceedance_probability,
    exit_distribution_histogram,
    exit_time_bounds_check,
    hitting_before_exit,
    sample_subordinator_increment,
    scaled_config,
    simulate_exits,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "bernstein", "laplace", "densities", "kernels", "ladder", "rng",
    "montecarlo", "harnack",
    "CompleteBernsteinFunction", "stable", "relativistic_stable",
    "sum_of_stables", "log_perturbed_up", "log_perturbed_down",
    "geometric_like", "conjugate", "killed_shift",
    "eval_levy_density", "levy_tail", "check_levy_shift_bound",
    "reg_var_profile", "check_complete_monotonicity", "check_bernstein",
    "phi_from_json", "phi_to_json", "default_catalog",
    "ZAHLE_BOUND", "potential_density_u",
    "zahle_upper_check", "ZahleReport", "ScalingWitness",
    "find_scaling_constant", "verify_scaling_condition",
    "u_asymptotic_ratio", "mu_asymptotic_ratio", "tail_vs_conjugate_potential",
    "transience_check", "green_function", "jump_kernel",
    "g_asymptotic_ratio", "j_asymptotic_ratio", "j_doubling_and_shift",
    "build_kernel_table",
    "SANDWICH_LO", "SANDWICH_HI", "ladder_exponent_chi",
    "chi_sandwich_check", "chi_is_cbf_check", "ladder_density_v",
    "renewal_function_V", "halfline_green", "interval_green_mass_bound",
    "PathConfig", "scaled_config", "McEstimate", "Interval", "Ball",
    "sample_subordinator_increment", "simulate_exits",
    "exceedance_probability", "exit_time_bounds_check",
    "exit_distribution_histogram", "hitting_before_exit",
    "epsilon_refinement_check",
    "HarmonicProbe", "mc_harmonic", "harnack_ratio",
    "HarnackReport", "carleson_check", "CarlesonReport", "bhp_ratio_check",
    "BhpReport",
    "ConstructionError", "UnsupportedKindError", "EvaluationDomainError",
    "NumericAccuracyError", "UndecidableError", "NotTransientError",
]
