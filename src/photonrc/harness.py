"""End-to-end experiment driver for header-recognition error-rate studies.

One experiment cell = (bitrate, header, trainer, reservoir instance).
The driver generates train/test bit streams, propagates the training
input through a reservoir instance, trains the readout with the selected
trainer, and freezes decision threshold and sampling point on the
training output; only then does it propagate the test input and score
it.  Everything is reproducible from the configuration and its master
seed.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import zlib
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .cmaes import decode_weights, train_cmaes
from .config import ExperimentConfig, config_to_dict
from .detector import readout_forward
from .reservoir import (
    TWO_PI,
    ReservoirTopology,
    StateMatrix,
    build_swirl,
    load_topology,
    perturb_phases,
    simulate,
    simulate_each,
    with_phases,
)
from .ridge import cv_alpha, ridge_problem
from .signals import OpticalSignal, desired_signal, gen_bits, modulate
from .stateest import SimulatedReadout, estimate_states, probe_count

__all__ = [
    "ExperimentRecord",
    "SummaryRow",
    "PerturbationRow",
    "ConvergenceRow",
    "threshold_level",
    "decide_bits",
    "bit_error_rate",
    "best_sampling_point",
    "run_single",
    "run_bitrate_sweep",
    "run_perturbation",
    "run_convergence",
    "aggregate_records",
    "write_records_csv",
    "write_summary_csv",
    "write_summary_json",
    "derive_seed",
]

GEO_MEAN_CLAMP = 1e-4

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Decision chain


def threshold_level(y) -> float:
    """Decision threshold in the middle of the robust signal range.

    Uses the 5th and 95th percentile so isolated noise spikes do not
    drag the threshold around.
    """
    samples = np.asarray(y, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("cannot compute a threshold of an empty signal")
    p5, p95 = np.percentile(samples, [5.0, 95.0])
    return float(p5 + (p95 - p5) / 2.0)


def decide_bits(y, samples_per_bit: int, offset: int, threshold: float) -> np.ndarray:
    """Subsample once per bit starting at ``offset`` and threshold."""
    samples = np.asarray(y, dtype=np.float64)
    if offset < 0:
        raise ValueError("sampling offset must be non-negative")
    return (samples[offset::samples_per_bit] > threshold).astype(np.uint8)


def bit_error_rate(decided, ideal) -> float:
    """Fraction of mismatched bits between two equal-length bit streams."""
    decided = np.asarray(decided)
    ideal = np.asarray(ideal)
    if decided.shape != ideal.shape:
        raise ValueError(f"length mismatch: {decided.shape} vs {ideal.shape}")
    if decided.size == 0:
        raise ValueError("cannot compute a bit error rate over zero bits")
    return float(np.mean(decided != ideal))


def _score(samples, d_ideal, samples_per_bit, offset, threshold) -> tuple[float, int]:
    """BER of the decided stream against ``d_ideal`` and the bits scored."""
    decided = decide_bits(samples, samples_per_bit, offset, threshold)
    n = min(decided.size, len(d_ideal))
    if n == 0:
        return 1.0, 0
    return bit_error_rate(decided[:n], np.asarray(d_ideal)[:n]), n


def best_sampling_point(
    y,
    d_ideal,
    samples_per_bit: int,
    search_bits: int = 2,
    *,
    threshold: float,
) -> int:
    """Offset within the first ``search_bits`` bit periods minimizing BER.

    Offsets of a whole bit period or more absorb integer-bit latency of
    the reservoir: the decided stream simply pairs with the target
    shifted by that many bits.  Ties go to the smallest offset.
    """
    offsets = range(search_bits * samples_per_bit)
    bers = [_score(y, d_ideal, samples_per_bit, o, threshold)[0] for o in offsets]
    return int(np.argmin(bers))


def _freeze_decision(y, d_ideal, samples_per_bit: int, search_bits: int) -> tuple[float, int]:
    """Threshold and sampling offset chosen on one (training) output."""
    threshold = threshold_level(y)
    return threshold, best_sampling_point(y, d_ideal, samples_per_bit, search_bits, threshold=threshold)


# ---------------------------------------------------------------------------
# Reproducible seed derivation


def _seed_word(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode())
    if isinstance(part, float):
        return int(round(part * 1e9)) & 0xFFFFFFFFFFFFFFFF
    return int(part) & 0xFFFFFFFFFFFFFFFF


def derive_seed(master: int, *parts) -> int:
    """Stable per-purpose seed derived from the master seed."""
    entropy = [_seed_word(master)] + [_seed_word(p) for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


# ---------------------------------------------------------------------------
# Records


@dataclass(frozen=True)
class ExperimentRecord:
    bitrate_gbps: float
    header: str
    trainer: str
    instance: int
    topology_seed: int
    threshold_a: float
    sampling_offset: int
    train_ber: float
    test_ber: float
    train_ber_floor: float
    test_ber_floor: float
    presentations: int
    detail: str

    @property
    def train_ber_report(self) -> str:
        return format_ber(self.train_ber, self.train_ber_floor)

    @property
    def test_ber_report(self) -> str:
        return format_ber(self.test_ber, self.test_ber_floor)


@dataclass(frozen=True)
class SummaryRow:
    bitrate_gbps: float
    header: str
    trainer: str
    n_instances: int
    geo_mean_test_ber: float
    mean_test_ber: float
    min_test_ber: float
    max_test_ber: float


@dataclass(frozen=True)
class PerturbationRow:
    b_over_pi: float
    b_rad: float
    mean_ber: float
    geo_mean_ber: float
    n_evaluations: int


@dataclass(frozen=True)
class ConvergenceRow:
    iteration: int
    presentations: int
    best_sse: float
    ber: float
    best_ber: float


def format_ber(ber: float, floor: float) -> str:
    """Human-readable BER; values at or below the floor are flagged."""
    if ber < floor:
        return "<" + f"{floor:.0e}".replace("e-0", "e-")
    return f"{ber:.3g}"


# ---------------------------------------------------------------------------
# Cell preparation and training


@dataclass
class _Cell:
    """Training side of one (bitrate, instance) simulation, header-agnostic.

    It holds the modulated test input but not the test states: a cell fits
    every readout on ``states_train`` or, for ``nlinv``, on the states its
    one probing round recovered, ``states_nlinv``.  It deletes both
    attributes and only then simulates ``sig_test`` (see
    :func:`_run_cell`), so neither is alive with the test states.
    """

    bitrate_gbps: float
    instance: int
    topology: ReservoirTopology
    topology_seed: int
    bits_train: np.ndarray
    bits_test: np.ndarray
    sig_test: OpticalSignal
    states_train: StateMatrix
    states_nlinv: StateMatrix | None = None


@dataclass(frozen=True)
class _Fit:
    """One trained readout with its decision frozen on the training output.

    It keeps only what scoring the test output needs: no readout, no
    ``nlinv`` estimate, nothing that holds a state matrix.
    """

    header: str
    trainer: str
    weights: np.ndarray
    presentations: int
    detail: str
    threshold: float
    offset: int
    train_ber: float
    n_train_scored: int


def _instance_topology(cfg: ExperimentConfig, instance: int) -> tuple[ReservoirTopology, int]:
    seed = derive_seed(cfg.master_seed, "topology", instance)
    res = cfg.reservoir
    if res.topology_file:
        topo = load_topology(res.topology_file)
        if instance > 0:
            # keep the file's geometry, redraw all phases for this instance
            rng = np.random.default_rng(seed)
            edge_phases = rng.uniform(0.0, TWO_PI, size=len(topo.edges))
            port_phases = rng.uniform(0.0, TWO_PI, size=len(topo.input_ports))
            topo = replace(with_phases(topo, edge_phases, port_phases), seed=seed)
        return topo, seed
    topo = build_swirl(
        res.rows,
        res.cols,
        delay=res.delay_s,
        loss_db_per_cm=res.loss_db_per_cm,
        group_index=res.group_index,
        seed=seed,
    )
    return topo, seed


def _prepare_cell(cfg: ExperimentConfig, bitrate_gbps: float, instance: int) -> _Cell:
    """Topology, both bit streams, the test input and the training states of a cell."""
    bitrate_gbps = float(bitrate_gbps)  # an int would seed differently
    bitrate = bitrate_gbps * 1e9
    topo, topo_seed = _instance_topology(cfg, instance)
    bits_train = gen_bits(cfg.n_train_bits, derive_seed(cfg.master_seed, "train-bits"))
    bits_test = gen_bits(cfg.n_test_bits, derive_seed(cfg.master_seed, "test-bits"))
    p_node = cfg.p_total_w / len(topo.input_ports)
    sig_train = modulate(bits_train, bitrate, cfg.samples_per_bit, p_node, cfg.smoothing)
    sig_test = modulate(bits_test, bitrate, cfg.samples_per_bit, p_node, cfg.smoothing)
    states_train = simulate(topo, sig_train, cfg.bias_power_w)
    return _Cell(
        bitrate_gbps=bitrate_gbps,
        instance=instance,
        topology=topo,
        topology_seed=topo_seed,
        bits_train=bits_train,
        bits_test=bits_test,
        sig_test=sig_test,
        states_train=states_train,
    )


def _targets(cell: _Cell, header: str) -> tuple[np.ndarray, np.ndarray]:
    """The 0/1 train and test targets of one header, one per bit."""
    return desired_signal(cell.bits_train, header), desired_signal(cell.bits_test, header)


def _power_target(cfg: ExperimentConfig, ideal: np.ndarray) -> np.ndarray:
    """Per-bit power target in W: what the trained readout should reproduce at the detector."""
    return ideal.astype(np.float64) * cfg.p_total_w


def _detected(cfg: ExperimentConfig, states: StateMatrix, weights: np.ndarray, *seed_key) -> np.ndarray:
    """Detector output past the warm-up, its noise seeded by ``seed_key``."""
    rng = np.random.default_rng(derive_seed(cfg.master_seed, *seed_key))
    y = readout_forward(states, weights, cfg.detector, rng=rng)
    return y[cfg.warmup_bits * cfg.samples_per_bit :]


def _nlinv_round(cfg: ExperimentConfig, cell: _Cell) -> StateMatrix:
    """The states that the ``nlinv`` probing round of one cell recovers.

    The reference is the bias line, bright at every sample.  The round
    reads no target, so its noise is seeded per cell without the header,
    and one round serves every header of a cell, as one round on a chip
    serves every task.  It must use exactly ``3F - 2`` presentations.
    """
    readout = SimulatedReadout(
        cell.states_train,
        cfg.detector,
        seed=derive_seed(cfg.master_seed, "probe-noise", cell.bitrate_gbps, cell.instance),
    )
    estimated = estimate_states(readout, cfg.detector.responsivity, cell.states_train.bias_index)
    expected = probe_count(readout.n_channels)
    if readout.presentations != expected:
        raise RuntimeError(f"probing used {readout.presentations} presentations, expected {expected}")
    return estimated


def _train(
    cfg: ExperimentConfig,
    cell: _Cell,
    header: str,
    trainer: str,
    d_train: np.ndarray,
) -> tuple[np.ndarray, int, str]:
    """Run the selected trainer; returns weights, presentations used, detail.

    ``cmaes`` trains through the detector as a black box.  ``ridge`` and
    ``nlinv`` are one fit on different states: the full states, or those
    the cell's probing round recovered.  Each trainer fits the power
    target of ``d_train``.
    """
    target_w = _power_target(cfg, d_train)
    if trainer == "cmaes":
        key = (cell.bitrate_gbps, header, cell.instance)
        readout = SimulatedReadout(
            cell.states_train, cfg.detector, seed=derive_seed(cfg.master_seed, "cmaes-noise", *key)
        )
        sigma0, run = train_cmaes(
            readout,
            target_w,
            cfg.cmaes.sigma_sweep,
            cfg.cmaes.max_iterations,
            cfg.cmaes.population,
            derive_seed(cfg.master_seed, "cmaes", *key),
            cfg.samples_per_bit,
            cfg.warmup_bits,
        )
        return decode_weights(run.best_x), readout.presentations, f"sigma0={sigma0:g}"

    if trainer == "ridge":
        # The state capture itself corresponds to one presentation of the
        # training sequence (and is only possible with full observability).
        states, presentations = cell.states_train, 1
    elif trainer == "nlinv":
        # Every header reports the presentations of the round it shares.
        states = cell.states_nlinv
        presentations = probe_count(states.n_channels)
    else:
        raise ValueError(f"unknown trainer {trainer!r}")
    x, target = ridge_problem(
        states, target_w, cfg.detector.responsivity, cfg.samples_per_bit, cfg.warmup_bits
    )
    alpha, weights = cv_alpha(x, target)
    return weights, presentations, f"alpha={alpha:.6g}"


def _fit(cfg: ExperimentConfig, cell: _Cell, header: str, trainer: str, d_train: np.ndarray) -> _Fit:
    """Train one readout, then freeze threshold and sampling point on its train output."""
    weights, presentations, detail = _train(cfg, cell, header, trainer, d_train)
    spb = cfg.samples_per_bit
    key = (cell.bitrate_gbps, header, trainer, cell.instance)
    y_train = _detected(cfg, cell.states_train, weights, "eval-train", *key)
    d_tr = d_train[cfg.warmup_bits :]
    threshold, offset = _freeze_decision(y_train, d_tr, spb, cfg.search_bits)
    train_ber, n_train_scored = _score(y_train, d_tr, spb, offset, threshold)
    return _Fit(header, trainer, weights, presentations, detail, threshold, offset, train_ber, n_train_scored)


def _test_score(
    cfg: ExperimentConfig, cell: _Cell, fit: _Fit, states_test: StateMatrix, d_test: np.ndarray
) -> tuple[float, int]:
    """Test BER of a frozen fit and the bits scored."""
    key = (cell.bitrate_gbps, fit.header, fit.trainer, cell.instance)
    y_test = _detected(cfg, states_test, fit.weights, "eval-test", *key)
    return _score(y_test, d_test[cfg.warmup_bits :], cfg.samples_per_bit, fit.offset, fit.threshold)


def _run_cell(
    cfg: ExperimentConfig,
    bitrate_gbps: float,
    instance: int,
    headers,
    trainers,
) -> list[ExperimentRecord]:
    """Records of every header x trainer of one (bitrate, instance).

    With ``nlinv`` among the trainers, the probing round runs once, before
    any fit.  Every readout is fitted, and its decision frozen, on the
    training states or the round's estimate first.  Both are then released
    and the test input is simulated once, so neither is alive with the
    test state matrix (65 MB each at paper length).
    """
    cell = _prepare_cell(cfg, bitrate_gbps, instance)
    if "nlinv" in trainers:
        cell.states_nlinv = _nlinv_round(cfg, cell)
    targets = {header: _targets(cell, header) for header in headers}
    fits = [
        _fit(cfg, cell, header, trainer, targets[header][0]) for header in headers for trainer in trainers
    ]
    del cell.states_train, cell.states_nlinv
    states_test = simulate(cell.topology, cell.sig_test, cfg.bias_power_w)
    records = []
    for fit in fits:
        test_ber, n_test_scored = _test_score(cfg, cell, fit, states_test, targets[fit.header][1])
        records.append(
            ExperimentRecord(
                bitrate_gbps=cell.bitrate_gbps,
                header=fit.header,
                trainer=fit.trainer,
                instance=cell.instance,
                topology_seed=cell.topology_seed,
                threshold_a=fit.threshold,
                sampling_offset=fit.offset,
                train_ber=fit.train_ber,
                test_ber=test_ber,
                train_ber_floor=cfg.ber_floor_errors / max(fit.n_train_scored, 1),
                test_ber_floor=cfg.ber_floor_errors / max(n_test_scored, 1),
                presentations=fit.presentations,
                detail=fit.detail,
            )
        )
    return records


def run_single(
    cfg: ExperimentConfig,
    bitrate_gbps: float,
    header: str,
    trainer: str,
    instance: int = 0,
) -> ExperimentRecord:
    """Run one full experiment cell and return its record."""
    return _run_cell(cfg, bitrate_gbps, instance, [header], [trainer])[0]


# ---------------------------------------------------------------------------
# Sweeps


def run_bitrate_sweep(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
) -> tuple[list[ExperimentRecord], list[SummaryRow]]:
    """Sweep (bitrate x header x trainer x instance) and aggregate.

    Simulations are shared across headers and trainers of one cell, so
    adding trainers is cheap compared to adding bitrates or instances.
    """
    records: list[ExperimentRecord] = []
    for bitrate in cfg.bitrates_gbps:
        for instance in range(cfg.n_reservoirs):
            cell_records = _run_cell(cfg, bitrate, instance, cfg.headers, cfg.trainers)
            records.extend(cell_records)
            for r in cell_records:
                logger.info(
                    "bitrate=%g Gbps header=%s trainer=%s instance=%d test BER=%s",
                    r.bitrate_gbps, r.header, r.trainer, r.instance, r.test_ber_report,
                )
    records.sort(key=lambda r: (r.bitrate_gbps, r.header, r.trainer, r.instance))
    summary = aggregate_records(records)
    if out_dir is not None:
        out = _output_dir(cfg, out_dir)
        write_records_csv(records, out / "records.csv")
        write_summary_csv(summary, out / "summary.csv")
    return records, summary


def _geo_mean(bers) -> float:
    """Geometric mean with each BER clamped at ``GEO_MEAN_CLAMP``."""
    clamped = np.maximum(np.asarray(bers), GEO_MEAN_CLAMP)
    return float(np.exp(np.mean(np.log(clamped))))


def aggregate_records(records: list[ExperimentRecord]) -> list[SummaryRow]:
    """Per (bitrate, header, trainer): geometric and arithmetic mean BER.

    The geometric mean clamps each BER at 1e-4 so error-free instances do
    not zero the product; both aggregations are reported because either
    may be wanted for log-scale curves.
    """
    groups: dict[tuple, list[float]] = {}
    for r in records:
        groups.setdefault((r.bitrate_gbps, r.header, r.trainer), []).append(r.test_ber)
    rows = []
    for (bitrate, header, trainer), bers in sorted(groups.items()):
        rows.append(
            SummaryRow(
                bitrate_gbps=bitrate,
                header=header,
                trainer=trainer,
                n_instances=len(bers),
                geo_mean_test_ber=_geo_mean(bers),
                mean_test_ber=float(np.mean(bers)),
                min_test_ber=float(np.min(bers)),
                max_test_ber=float(np.max(bers)),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Perturbation study


def _study_header(cfg: ExperimentConfig) -> str:
    """The one header that the perturbation or the convergence study trains on.

    Their outputs name no header, so a configuration with more than one
    raises ``ValueError`` instead of using the first in silence.
    """
    if len(cfg.headers) != 1:
        raise ValueError(
            f"this study trains on one header, got {len(cfg.headers)}: {', '.join(cfg.headers)}"
        )
    return cfg.headers[0]


def run_perturbation(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
) -> list[PerturbationRow]:
    """Degradation of frozen ridge weights under random phase perturbations.

    For each nominal reservoir instance the readout is trained once; the
    trained weights, threshold, and sampling point are then reapplied to
    perturbed copies of the instance, where every waveguide phase gets an
    independent U(0, b) shift, for each ``b`` of
    ``cfg.perturbation_b_over_pi`` times pi.  ``b = 0`` is the unperturbed
    baseline by construction.  As in a sweep cell, the training states are
    released before the test input is simulated; one ``simulate_each``
    call runs it through the instance and all its perturbed copies.  The
    configuration must name one header.
    """
    header = _study_header(cfg)
    b_list = [f * math.pi for f in cfg.perturbation_b_over_pi]
    bitrate = cfg.perturbation_bitrate_gbps

    per_b: dict[int, list[float]] = {i: [] for i in range(len(b_list))}
    for instance in range(cfg.n_reservoirs):
        cell = _prepare_cell(cfg, bitrate, instance)
        d_train, d_test = _targets(cell, header)
        fit = _fit(cfg, cell, header, "ridge", d_train)
        del cell.states_train
        # The instance and its perturbed copies share their delays, so one
        # simulate_each call runs the test input through all of them on one
        # grid.  The baseline alone reads the test states, yet they stay
        # alive until the draws are done.  Freed before them, the draws' own
        # 13 MB ci-length matrices, which sit below glibc's dynamic mmap
        # threshold, let it trim the heap and fault the pages back in draw
        # after draw: 20-21k minor page faults per ci-length cell instead of
        # 8k, and about 7 % more time.  Each draw's states are dropped before
        # the next is asked for, so no two draws are alive together.
        draws = [
            (b_idx, draw, derive_seed(cfg.master_seed, "perturb", instance, b_idx, draw))
            for b_idx, b in enumerate(b_list)
            if b != 0.0
            for draw in range(cfg.n_perturbation_draws)
        ]
        perturbed = [perturb_phases(cell.topology, b_list[b_idx], seed) for b_idx, _, seed in draws]
        sims = simulate_each([cell.topology] + perturbed, cell.sig_test, cfg.bias_power_w)
        states_test = next(sims)
        baseline_ber = _test_score(cfg, cell, fit, states_test, d_test)[0]
        for b_idx, b in enumerate(b_list):
            if b == 0.0:
                per_b[b_idx].append(baseline_ber)
        d_te = d_test[cfg.warmup_bits :]
        for b_idx, draw, _ in draws:
            states = next(sims)
            y = _detected(cfg, states, fit.weights, "perturb-eval", instance, b_idx, draw)
            del states
            per_b[b_idx].append(_score(y, d_te, cfg.samples_per_bit, fit.offset, fit.threshold)[0])
        del states_test, sims  # before the next instance simulates its training states
        logger.info("perturbation instance %d: baseline test BER %.3g", instance, baseline_ber)

    rows = []
    for b_idx, b in enumerate(b_list):
        bers = np.asarray(per_b[b_idx])
        rows.append(
            PerturbationRow(
                b_over_pi=b / math.pi,
                b_rad=b,
                mean_ber=float(bers.mean()),
                geo_mean_ber=_geo_mean(bers),
                n_evaluations=int(bers.size),
            )
        )
    if out_dir is not None:
        _write_rows_csv(rows, _output_dir(cfg, out_dir) / "perturbation.csv", _columns(PerturbationRow))
    return rows


# ---------------------------------------------------------------------------
# Convergence study

# Initial CMA-ES step size of the convergence study's single run.
CONVERGENCE_SIGMA0 = 0.1


def run_convergence(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
) -> list[ConvergenceRow]:
    """Black-box training, then the error rate of its best point after every iteration.

    The study trains on reservoir instance 0.  One run starts at step size
    :data:`CONVERGENCE_SIGMA0`; each row of its ``history_x`` is scored
    with detector noise seeded by the iteration, as the training output is
    scored in a sweep.  One objective
    evaluation equals one presentation of the training sequence, so the
    presentation column is iterations times population.
    The ``best_ber`` column is the running minimum of the recorded BER.
    The configuration must name one header.
    """
    header = _study_header(cfg)
    bitrate = cfg.convergence_bitrate_gbps
    spb = cfg.samples_per_bit
    warm = cfg.warmup_bits

    cell = _prepare_cell(cfg, bitrate, 0)
    d_train, _ = _targets(cell, header)
    d_tr = d_train[warm:]
    readout = SimulatedReadout(
        cell.states_train,
        cfg.detector,
        seed=derive_seed(cfg.master_seed, "conv-noise", bitrate, 0),
    )
    _, run = train_cmaes(
        readout,
        _power_target(cfg, d_train),
        [CONVERGENCE_SIGMA0],
        cfg.cmaes.convergence_iterations,
        cfg.cmaes.population,
        derive_seed(cfg.master_seed, "conv", bitrate, 0),
        spb,
        warm,
    )
    population = run.evaluations // run.iterations
    rows: list[ConvergenceRow] = []
    best_ber = math.inf
    for iteration, (x, sse) in enumerate(zip(run.history_x, run.history.tolist()), start=1):
        y = _detected(cfg, cell.states_train, decode_weights(x), "conv-eval", bitrate, 0, iteration)
        threshold, offset = _freeze_decision(y, d_tr, spb, cfg.search_bits)
        ber = _score(y, d_tr, spb, offset, threshold)[0]
        best_ber = min(best_ber, ber)
        presentations = iteration * population
        rows.append(ConvergenceRow(iteration, presentations, sse, ber, best_ber))
        if iteration % 25 == 0:
            logger.info("iteration %d: presentations=%d sse=%.4g ber=%.4g", iteration, presentations, sse, ber)
    if out_dir is not None:
        _write_rows_csv(rows, _output_dir(cfg, out_dir) / "convergence.csv", _columns(ConvergenceRow))
    return rows


# ---------------------------------------------------------------------------
# Persistence


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


# Unlike the row types, whose columns are their fields, a record is written
# with its report properties and without its train_ber_floor.
RECORD_COLUMNS = [
    "bitrate_gbps",
    "header",
    "trainer",
    "instance",
    "topology_seed",
    "threshold_a",
    "sampling_offset",
    "train_ber",
    "train_ber_report",
    "test_ber",
    "test_ber_report",
    "test_ber_floor",
    "presentations",
    "detail",
]


def write_records_csv(records: list[ExperimentRecord], path: str | Path) -> None:
    _write_rows_csv(records, path, RECORD_COLUMNS)


def _write_rows_csv(rows, path: str | Path, columns: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(getattr(row, c)) for c in columns])


def _columns(row_type) -> list[str]:
    """A row dataclass's field names, in order: the columns of its CSV file."""
    return [f.name for f in fields(row_type)]


def write_summary_csv(rows: list[SummaryRow], path: str | Path) -> None:
    _write_rows_csv(rows, path, _columns(SummaryRow))


def write_summary_json(cfg: ExperimentConfig, path: str | Path) -> None:
    payload = {"package": "photonrc", "version": __version__, "config": config_to_dict(cfg)}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _output_dir(cfg: ExperimentConfig, out_dir: str | Path) -> Path:
    """Create ``out_dir`` and write the run's ``summary.json`` into it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_summary_json(cfg, out / "summary.json")
    return out

