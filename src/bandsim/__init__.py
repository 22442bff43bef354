"""Distributed frequency-band allocation.

Clusters sharing r frequency bands each measure the interference they would
receive on every band and asynchronously move to the quietest one.  The
package simulates that update process on configurable geometries, checks the
converged result against exhaustive and analytic bounds, and reproduces its
stochastic behavior under random on/off cluster activity.
"""

__version__ = "0.1.0"

from .allocation import (PoissonClock, RandomPermutationRounds,
                         UpdateRecord, apply_update, best_band,
                         run_to_convergence)
from .dynamics import (DynamicsConfig, DynamicsPrediction, SimTrace,
                       SteadyStateStats, ensemble_mean_trace,
                       fit_exponential_decay, lambda_from_alpha,
                       markov_toggle_all, predicted_variance, run_ensemble,
                       sample_on_grid, simulate_time_varying,
                       stability_margin, steady_state_stats)
from .experiments import (ConfigError, ExperimentConfig, RunResult,
                          config_hash, dumps_canonical, load_config,
                          parse_config, preset, resolve_out_dir,
                          run_experiment, validate_config)
from .interference import (ActivityState, Assignment, InterferenceCache,
                           aggregate_interference, band_interference,
                           cluster_interference, worst_case_interference)
from .metrics import CapacityReport, capacity_comparison, db_gap, \
    shannon_capacity
from .oracle import (BoundReport, alternating_assignment,
                     asymptotic_lower_bound, bound_report,
                     brute_force_optimal, canonical_relabel,
                     lattice_reuse_assignment, riemann_zeta)
from .topology import (Topology, make_hexagonal_lattice,
                       make_random_linear_array, make_rectangular_lattice,
                       make_uniform_linear_array, topology_from_json,
                       topology_from_positions, topology_to_json)

__all__ = [
    "__version__",
    "Topology", "make_uniform_linear_array", "make_random_linear_array",
    "make_rectangular_lattice", "make_hexagonal_lattice",
    "topology_from_positions", "topology_to_json", "topology_from_json",
    "Assignment", "ActivityState", "InterferenceCache",
    "band_interference", "cluster_interference", "aggregate_interference",
    "worst_case_interference",
    "UpdateRecord", "PoissonClock", "RandomPermutationRounds",
    "best_band", "apply_update", "run_to_convergence",
    "BoundReport", "alternating_assignment", "lattice_reuse_assignment",
    "canonical_relabel", "brute_force_optimal", "riemann_zeta",
    "asymptotic_lower_bound", "bound_report",
    "DynamicsConfig", "DynamicsPrediction", "SimTrace", "SteadyStateStats",
    "markov_toggle_all", "lambda_from_alpha", "stability_margin",
    "simulate_time_varying", "run_ensemble", "sample_on_grid",
    "ensemble_mean_trace", "fit_exponential_decay", "predicted_variance",
    "steady_state_stats",
    "CapacityReport", "shannon_capacity", "capacity_comparison", "db_gap",
    "ConfigError", "ExperimentConfig", "RunResult", "parse_config",
    "load_config", "validate_config", "preset", "run_experiment",
    "resolve_out_dir", "config_hash", "dumps_canonical",
]
