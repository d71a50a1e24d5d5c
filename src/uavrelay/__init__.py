"""Interference-aware position planning for UAV decode-and-forward relays."""

__version__ = "0.1.0"

from .channel import (ChannelParams, Scenario, SirReport, multihop_link_sirs,
                      path_loss, sir_air_link, sir_multihop, sir_rx_link,
                      sir_system_dual, sir_tx_link)
from .dualhop import (classify_case_fixed_h, locus_heights, optimal_h_fixed_x,
                      optimal_position, optimal_x_fixed_h,
                      quartic_roots_fixed_h, stationary_points)
from .errors import (DomainError, InfeasibleError, NumericError,
                     PlanningError, SchemaError)
from .multihop import (DesignResult, IterationTrace, Placement,
                       design_min_uavs, distributed_max_sir,
                       feasibility_bound, first_hop_distance,
                       last_hop_max_distance, middle_hop_distance,
                       refine_altitudes)
from .multisource import (HypotheticalMsi, InterferenceSource,
                          fit_hypothetical_msi, total_interference)
from .oracle import (BaselineStats, GridSpec, exhaustive_min_uavs,
                     grid_search_dual, lipschitz_slack,
                     random_placement_baseline)
from .stochastic import (BetaField, DeterministicField, EmpiricalField,
                         InterferenceModel, MgfField, beta_upsilon,
                         design_min_uavs_stochastic, distributed_max_esir,
                         expected_multihop_link_sirs, single_uav_position,
                         upsilon, upsilon_field)

__all__ = [name for name in dir() if not name.startswith("_")]
