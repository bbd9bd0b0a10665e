"""Minimum-energy finite-time stabilization under bounded disturbances.

Controls that drive an LTI system to the origin at a fixed final time
with least control energy, with or without a bounded disturbance; a
worst-case bound on the disturbed energy; additive and multiplicative
cost-of-disturbance metric bounds over initial-condition sets; and a
hardness measure tying bound accuracy to R / t_f.
"""

from .energy import (EnergyReport, disturbed_energy_bound,
                     disturbed_signal_energy, nominal_energy)
from .errors import (ConfigError, DimensionError, DistcostError, DomainError,
                     IllConditionedError, ModelParseError, NumericalError,
                     ValidationError)
from .gramian import (GramianBundle, build_bundle, build_bundles,
                      controllability_gramian, norm_integral)
from .linalg import SpectralDecomposition, expm, norm, sym_eig
from .metrics import (MetricReport, additive_metric_bound, hardness,
                      metric_report, multiplicative_metric_bound)
from .models import admire, builtin_models, load_model, save_model
from .signals import (DisturbanceSignal, derive_seed, make_disturbance,
                      uniform_stream)
from .simulate import Trajectory, simulate_closed_loop, trajectory_to_csv
from .synthesis import ControlSignal, disturbance_response, disturbed_control, nominal_control
from .systems import LtiSystem, StabilizationTask, controllability_rank

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ControlSignal", "DimensionError", "DistcostError",
    "DisturbanceSignal", "DomainError", "EnergyReport", "GramianBundle",
    "IllConditionedError", "LtiSystem", "MetricReport", "ModelParseError",
    "NumericalError", "SpectralDecomposition", "StabilizationTask",
    "Trajectory", "ValidationError", "additive_metric_bound", "admire",
    "build_bundle", "build_bundles", "builtin_models", "controllability_gramian",
    "controllability_rank", "derive_seed", "disturbance_response",
    "disturbed_control", "disturbed_energy_bound", "disturbed_signal_energy",
    "expm", "hardness", "load_model", "make_disturbance", "metric_report",
    "multiplicative_metric_bound", "nominal_control", "nominal_energy", "norm",
    "norm_integral", "save_model", "simulate_closed_loop", "sym_eig",
    "trajectory_to_csv", "uniform_stream", "__version__",
]
