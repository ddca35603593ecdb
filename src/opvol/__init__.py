"""opvol: operator-valued stochastic volatility laboratory.

Simulates jump-driven operator-valued variance processes and
volatility-modulated forwards in truncated Hilbert spaces, and verifies the
explicit robustness bounds relating exact and truncated models.  Only the
engine's entry points are exported here; the rest live in the submodules.
"""

from opvol.bounds import PASS_MARGIN
from opvol.experiments import (
    ConvergenceStudy,
    CoupledScenario,
    ExperimentResult,
    convergence_study,
    default_scenario,
    run_experiment,
)
from opvol.operators import NotPositiveSemidefinite
from opvol.pricing import PricingReport

__all__ = [
    "ConvergenceStudy",
    "CoupledScenario",
    "ExperimentResult",
    "NotPositiveSemidefinite",
    "PASS_MARGIN",
    "PricingReport",
    "convergence_study",
    "default_scenario",
    "run_experiment",
]

__version__ = "0.1.0"
