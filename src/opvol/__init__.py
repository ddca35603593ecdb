"""opvol: operator-valued stochastic volatility laboratory.

Simulates jump-driven operator-valued variance processes and
volatility-modulated forwards in truncated Hilbert spaces, and verifies the
explicit robustness bounds relating exact and truncated models.
"""

from opvol.bounds import (
    PASS_MARGIN,
    BoundInputs,
    bound_cpp_diff,
    bound_forward,
    bound_pathwise,
    bound_pricing,
    bound_sqrt,
    bound_tensor_jump,
    bound_tensor_jump_trace,
    bound_variance_generator,
    bound_variance_generator_tail,
    bound_variance_jumps,
    combined_margin,
)
from opvol.experiments import (
    ConvergenceStudy,
    CoupledScenario,
    ExperimentResult,
    convergence_study,
    default_scenario,
    run_experiment,
)
from opvol.forward import (
    ForwardSemigroupSpec,
    forward_sup_error,
    simulate_forward_coupled,
)
from opvol.operators import NotPositiveSemidefinite
from opvol.pricing import (
    FunctionalSpec,
    PayoffSpec,
    PricingReport,
)
from opvol.processes import (
    PURPOSE_CLOCK,
    PURPOSE_JUMPS,
    PURPOSE_WIENER,
    cp_second_moment,
    cp_second_moment_bound,
    sample_clock,
    sample_jump_stream,
    sample_wiener_increments,
    stream,
)
from opvol.variance import (
    GeneratorSpec,
    TimeGrid,
    VariancePath,
    build_grid,
    eigen_tail_sup_sq,
    evolve_coupled,
    generator_gap_op_norm,
    karhunen_loeve_spectrum,
    make_stepper,
    truncate_generator,
)

__all__ = [
    "BoundInputs",
    "ConvergenceStudy",
    "CoupledScenario",
    "ExperimentResult",
    "ForwardSemigroupSpec",
    "FunctionalSpec",
    "GeneratorSpec",
    "NotPositiveSemidefinite",
    "PASS_MARGIN",
    "PURPOSE_CLOCK",
    "PURPOSE_JUMPS",
    "PURPOSE_WIENER",
    "PayoffSpec",
    "PricingReport",
    "TimeGrid",
    "VariancePath",
    "bound_cpp_diff",
    "bound_forward",
    "bound_pathwise",
    "bound_pricing",
    "bound_sqrt",
    "bound_tensor_jump",
    "bound_tensor_jump_trace",
    "bound_variance_generator",
    "bound_variance_generator_tail",
    "bound_variance_jumps",
    "build_grid",
    "combined_margin",
    "convergence_study",
    "cp_second_moment",
    "cp_second_moment_bound",
    "default_scenario",
    "eigen_tail_sup_sq",
    "evolve_coupled",
    "forward_sup_error",
    "generator_gap_op_norm",
    "karhunen_loeve_spectrum",
    "make_stepper",
    "run_experiment",
    "sample_clock",
    "sample_jump_stream",
    "sample_wiener_increments",
    "simulate_forward_coupled",
    "stream",
    "truncate_generator",
]

__version__ = "0.1.0"
