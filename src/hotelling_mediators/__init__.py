"""Mediated facility-location games on the unit segment.

Players place facilities in [0, 1], users arrive according to a continuous
density, and a mediator decides which facility serves each user.  The package
implements five direction rules as exact piecewise policies, integrates
payoffs and social cost in closed form, estimates intervention cost, and
verifies or enumerates pure Nash equilibria.
"""

from .core import (
    Clime,
    Dictator,
    GameSpec,
    Glime,
    Lime,
    Nime,
    PiecewiseLinearDensity,
    UNIFORM,
    Uniform,
    distribution_from_json,
    mediator_from_json,
    mediator_to_json,
    optimal_locations,
    quantile_locations,
    validate_profile,
)
from .mediators import (
    PiecewisePolicy,
    compile_policy,
    direct,
    pii_intervals,
)
from .metrics import (
    IcEstimate,
    adversarial_profile,
    analytic_ic_bounds,
    ic_search,
    intervention_gap,
    mc_payoff,
    mc_social_cost,
    payoff,
    social_cost,
)
from .equilibrium import (
    DynamicsTrace,
    PneReport,
    best_response_gain,
    better_response_dynamics,
    candidate_deviations,
    is_pne,
    known_pne,
    neutrality_check,
    pne_enumerate,
)

__version__ = "0.1.0"

__all__ = [
    "Clime",
    "Dictator",
    "GameSpec",
    "Glime",
    "Lime",
    "Nime",
    "PiecewiseLinearDensity",
    "UNIFORM",
    "Uniform",
    "distribution_from_json",
    "mediator_from_json",
    "mediator_to_json",
    "optimal_locations",
    "quantile_locations",
    "validate_profile",
    "PiecewisePolicy",
    "compile_policy",
    "direct",
    "pii_intervals",
    "IcEstimate",
    "adversarial_profile",
    "analytic_ic_bounds",
    "ic_search",
    "intervention_gap",
    "mc_payoff",
    "mc_social_cost",
    "payoff",
    "social_cost",
    "DynamicsTrace",
    "PneReport",
    "best_response_gain",
    "better_response_dynamics",
    "candidate_deviations",
    "is_pne",
    "known_pne",
    "neutrality_check",
    "pne_enumerate",
]
