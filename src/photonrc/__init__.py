"""Passive photonic reservoir simulation and optical-readout training.

Subsystems:

* :mod:`photonrc.signals` -- bit streams, modulation, detection targets
* :mod:`photonrc.reservoir` -- swirl topology and time-domain propagation
* :mod:`photonrc.detector` -- optical readout and photodetector model
* :mod:`photonrc.ridge` -- complex ridge regression baseline
* :mod:`photonrc.cmaes` -- evolution-strategy black-box training
* :mod:`photonrc.stateest` -- state estimation through a single detector
* :mod:`photonrc.harness` -- experiment driver and persistence
"""

__version__ = "0.1.0"

from .signals import OpticalSignal, desired_signal, gen_bits, header_bits, modulate
from .reservoir import (
    Edge,
    InputPort,
    ReservoirTopology,
    StateMatrix,
    build_swirl,
    load_topology,
    perturb_phases,
    save_topology,
    simulate,
)
from .detector import DetectorConfig, noise_variance, readout_forward
from .ridge import cv_alpha, invert_target, ridge_problem
from .cmaes import (
    bit_sse,
    cmaes_minimize,
    decode_weights,
    default_population,
    train_cmaes,
)
from .stateest import (
    SimulatedReadout,
    build_probe_schedule,
    estimate_states,
    probe_count,
)
from .config import ExperimentConfig, ci_profile, load_config, paper_profile
from .harness import (
    ExperimentRecord,
    best_sampling_point,
    bit_error_rate,
    run_bitrate_sweep,
    run_convergence,
    run_perturbation,
    run_single,
    threshold_level,
)
