"""Joint transmit precoding and RIS phase-shift optimization via
generalized power iteration, with a statistical lower bound on the
sum spectral efficiency under imperfect cascaded-channel knowledge."""

from .baselines import random_phases, rzf_precoder, rzf_regularizer
from .channel import (ChannelEstimate, ChannelSet, cascade, error_covariance_dft,
                      error_scale_dft, estimate_channels, perfect_estimate,
                      steering_ula, steering_upa, synthesize_channels)
from .gpi_precoder import (GpiSettings, PrecoderQuadratics,
                           build_precoder_quadratics, run_gpi_precoder)
from .gpi_ris import (RegularizerSettings, RisGpiResult, RisQuadratics,
                      build_ris_quadratics, default_tau, run_gpi_ris)
from .harness import (BenchResult, ExperimentSpec, ResultRow, bench_from_spec,
                      bench_ris_stage, load_spec, run_experiment, write_results)
from .joint import (AlgorithmSettings, JointResult, LineSearchPlan,
                    compute_r_sigma, initial_pair, run_joint, run_joint_fixed_mu)
from .metrics import (PhaseShifts, Precoder, commutation_matrix,
                      effective_channels, exact_sum_se, lower_bound_phase_form,
                      lower_bound_sum_se, mc_instantaneous_se, nmse_unit_modulus,
                      theta_matrices, xi_matrices)
from .scenario import (Geometry, PathlossModel, Scenario, SystemConfig,
                       db_to_linear, default_geometry, linear_to_db,
                       load_scenario, noise_power_dbm, pathloss_db, place_users,
                       scenario_from_dict)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmSettings", "BenchResult", "ChannelEstimate", "ChannelSet",
    "ExperimentSpec", "Geometry", "GpiSettings", "JointResult",
    "LineSearchPlan", "PathlossModel", "PhaseShifts", "Precoder",
    "PrecoderQuadratics", "RegularizerSettings", "ResultRow",
    "RisGpiResult", "RisQuadratics", "Scenario", "SystemConfig",
    "bench_from_spec", "bench_ris_stage", "build_precoder_quadratics",
    "build_ris_quadratics", "cascade", "commutation_matrix",
    "compute_r_sigma", "db_to_linear", "default_geometry", "default_tau",
    "effective_channels", "error_covariance_dft", "error_scale_dft",
    "estimate_channels", "exact_sum_se", "initial_pair", "linear_to_db",
    "load_scenario", "load_spec", "lower_bound_phase_form",
    "lower_bound_sum_se", "mc_instantaneous_se", "nmse_unit_modulus",
    "noise_power_dbm", "pathloss_db", "perfect_estimate", "place_users",
    "random_phases", "run_experiment", "run_gpi_precoder", "run_gpi_ris",
    "run_joint", "run_joint_fixed_mu", "rzf_precoder", "rzf_regularizer",
    "scenario_from_dict", "steering_ula", "steering_upa",
    "synthesize_channels", "theta_matrices", "write_results",
    "xi_matrices",
]
