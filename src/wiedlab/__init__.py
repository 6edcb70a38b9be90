"""wiedlab: numerical laboratory for the weighted inertia-energy-dissipation
approximation of weighted Cauchy-Neumann combustion problems."""

from .grid import (GridSpec, WeightedGrid, Cylinder, build_grid,
                   weighted_measure, weighted_norm, default_grading)
from .combustion import (CombustionModel, ZERO_MODEL, beta_eval, phi_eval,
                         validate_model)
from .assembly import (DiscreteOperators, ForcingSpec, build_operators,
                       functional_value, functional_gradient,
                       assemble_linear_system, exp_time_weights)
from .wied import (WiedConfig, EpsilonSchedule, solve_wied, sweep_epsilon,
                   dist_C_L2a)
from .parabolic import (step_implicit, march_parabolic, solve_parabolic,
                        analytic_heat_oracle)

__version__ = "0.1.0"
