"""Joint transmit precoding and RIS phase-shift optimization via
generalized power iteration, with a statistical lower bound on the
sum spectral efficiency under imperfect cascaded-channel knowledge.

The package root holds what the quick start, the demos and the benchmark
use; everything else imports from its module (``gpris.metrics``, ...)."""

from .channel import estimate_channels, synthesize_channels
from .gpi_precoder import (GpiSettings, build_precoder_quadratics,
                           run_gpi_precoder)
from .gpi_ris import build_ris_quadratics, run_gpi_ris
from .harness import ExperimentSpec
from .joint import (AlgorithmSettings, LineSearchPlan, compute_r_sigma,
                    initial_pair, run_joint)
from .metrics import exact_sum_se, lower_bound_sum_se, nmse_unit_modulus
from .scenario import scenario_from_dict

__version__ = "0.1.0"

__all__ = [
    "AlgorithmSettings", "ExperimentSpec", "GpiSettings", "LineSearchPlan",
    "build_precoder_quadratics", "build_ris_quadratics", "compute_r_sigma",
    "estimate_channels", "exact_sum_se", "initial_pair", "lower_bound_sum_se",
    "nmse_unit_modulus", "run_gpi_precoder", "run_gpi_ris", "run_joint",
    "scenario_from_dict", "synthesize_channels",
]
