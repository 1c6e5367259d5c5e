"""Trap-model (random hopping time) dynamics on the hypercube.

Simulates clock processes of p-spin and REM energy landscapes, the Slepian
comparison block process, alpha-stable subordinators and the generalized
arcsine law, plus the rate functions and Skorokhod M1/J1 diagnostics used to
verify the scaling predictions numerically.
"""

from .core import ModelParams, RngStream, ScaleReport, derive_scales
from .hypercube import (
    SpinConfig,
    WalkTrajectory,
    distance_distribution,
    ehrenfest_hitting_prob,
    no_backtrack_prob,
    overlap,
    sample_walk,
)
from .hamiltonian import PSpinDisorder, RemDisorder, trajectory_energies
from .blockprocess import (
    GammaCoefficients,
    block_laplace_mc,
    block_scaling_constant,
    sample_block,
)
from .clock import (
    ClockPath,
    RescaledClock,
    coarse_grain_clock,
    record_point_process,
    rescale_clock,
    simulate_clock,
    truncated_clock,
)
from .stable import (
    SubordinatorPath,
    arcsine_cdf,
    first_passage_values,
    range_miss_prob_mc,
    sample_subordinator,
)
from .analysis import (
    RateFunctionParams,
    entropy_I,
    j_N,
    phi,
    upsilon,
    upsilon_tilde,
    xi_rate_check,
    zeta,
)
from .skorokhod import (
    CadlagStepPath,
    j1_distance,
    m1_distance,
    modulus_v,
    modulus_w,
    modulus_w_prime,
)
from .aging import (
    AgingEstimate,
    aging_curve,
    estimate_aging,
    estimate_aging_frozen,
    estimate_range_miss,
)

__version__ = "0.1.0"

__all__ = [
    "AgingEstimate",
    "CadlagStepPath",
    "ClockPath",
    "GammaCoefficients",
    "ModelParams",
    "PSpinDisorder",
    "RateFunctionParams",
    "RemDisorder",
    "RescaledClock",
    "RngStream",
    "ScaleReport",
    "SpinConfig",
    "SubordinatorPath",
    "WalkTrajectory",
    "aging_curve",
    "arcsine_cdf",
    "block_laplace_mc",
    "block_scaling_constant",
    "coarse_grain_clock",
    "derive_scales",
    "distance_distribution",
    "ehrenfest_hitting_prob",
    "entropy_I",
    "estimate_aging",
    "estimate_aging_frozen",
    "estimate_range_miss",
    "first_passage_values",
    "j1_distance",
    "j_N",
    "m1_distance",
    "modulus_v",
    "modulus_w",
    "modulus_w_prime",
    "no_backtrack_prob",
    "overlap",
    "phi",
    "range_miss_prob_mc",
    "record_point_process",
    "rescale_clock",
    "sample_block",
    "sample_subordinator",
    "sample_walk",
    "simulate_clock",
    "trajectory_energies",
    "truncated_clock",
    "upsilon",
    "upsilon_tilde",
    "xi_rate_check",
    "zeta",
]
