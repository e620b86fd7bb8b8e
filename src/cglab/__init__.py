"""Congestion-game equilibrium laboratory.

Computes equilibria of nonatomic, weighted-atomic, and Bernoulli-atomic
congestion games, constructs the Poisson limit game with auxiliary costs,
and checks the quantitative convergence bounds connecting them.
"""

from .atomic import (BernoulliGame, MixedProfile, WeightedGame, best_response_dynamics,
                     conditional_cost_estimate, esc, load_distribution, opt_and_poa,
                     resource_choice_prob, symmetric_mixed_equilibrium, verify_equilibrium)
from .core import (AffineCost, DemandVector, FlowLoadPair, GrowthEnvelope,
                   PolynomialCost, Structure, TableCost, check_feasible,
                   load_instance, loads_from_flows, parse_instance, social_cost,
                   strategy_cost)
from .discrete_dist import (Pmf, ValueDist, barbour_hall_bound, bernoulli_sum_pmf,
                            borisov_ruzankin_bound, poisson_pmf,
                            tv_distance, tv_poisson_bound, weighted_sum_distribution)
from .harness import (ConvergenceReport, SequenceSpec, opt_convergence,
                      reproduce_example, run_convergence)
from .poisson_limit import (AuxCost, BoundConstants, build_limit_game, lambda_bound,
                            poa_polynomial_bound, rate_bounds, regularity_constants)
from .population import (PopulationModel, TypeProfile, flow_profile_probability,
                         posterior, posterior_count_pmf,
                         verify_poisson_game_equilibrium, wardrop_equivalence_check)
from .wardrop import (WardropSolution, poa_nonatomic, solve_social_optimum,
                      solve_wardrop, wardrop_epsilon)

__version__ = "0.1.0"
