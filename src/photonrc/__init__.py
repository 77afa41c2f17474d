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

from .signals import BitSignal, DesiredSignal, HeaderPattern, OpticalSignal, desired_signal, gen_bits, modulate
from .reservoir import (
    Edge,
    InputPort,
    PerturbationSpec,
    ReservoirTopology,
    StateMatrix,
    build_swirl,
    default_swirl4x4,
    load_topology,
    perturb_phases,
    save_topology,
    simulate,
)
from .detector import (
    DetectorConfig,
    ElectricalSignal,
    ReadoutWeights,
    noise_variance,
    readout_forward,
)
from .ridge import cv_alpha, invert_target, ridge_problem
from .cmaes import (
    CmaConfig,
    bit_sse,
    cmaes_minimize,
    decode_weights,
    default_population,
    encode_weights,
    train_cmaes,
)
from .stateest import (
    ProbeSchedule,
    SimulatedReadout,
    build_probe_schedule,
    estimate_states,
    probe_count,
    train_nlinv,
)
from .config import ExperimentConfig, ci_profile, load_config, paper_profile, save_config
from .harness import (
    ExperimentRecord,
    best_sampling_point,
    bit_error_rate,
    run_all_headers,
    run_bitrate_sweep,
    run_convergence,
    run_perturbation,
    run_single,
    threshold_level,
)
