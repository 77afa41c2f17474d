"""State estimation through a single intensity detector.

An integrated optical readout hides the complex node signals: the only
observable is the photocurrent of the weighted sum.  Presenting the same
input repeatedly while setting structured weight vectors recovers the
full complex state matrix up to one global phase per time sample, which
an intensity detector cannot distinguish anyway:

* one-hot weights expose each channel's modulus through the inverted
  square law,
* a pair probe (1 on the reference channel, 1 on channel q) exposes
  ``cos`` of their relative phase,
* a quadrature probe (j on the reference, 1 on q) exposes ``sin`` and
  thereby the sign.

That is F one-hot probes plus 2(F-1) pair probes: 3F-2 presentations in
total.  The reconstructed states then feed the ordinary complex ridge
trainer, and the resulting weights can be written back to the readout.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .detector import DetectorConfig, ElectricalSignal, ReadoutWeights, readout_forward
from .reservoir import StateMatrix
from .ridge import RidgeConfig, cv_alpha, ridge_problem
from .signals import DesiredSignal

__all__ = [
    "OpaqueReadout",
    "SimulatedReadout",
    "ProbeSchedule",
    "EstimatedStates",
    "build_probe_schedule",
    "probe_count",
    "probe_moduli",
    "estimate_phase",
    "reconstruct_states",
    "estimate_states",
    "train_nlinv",
    "TrainNlinvResult",
]

logger = logging.getLogger(__name__)


@runtime_checkable
class OpaqueReadout(Protocol):
    """Behavioral surface of hardware with an integrated optical readout.

    The internal states are invisible; one can only set weights, present
    the predefined input sequence, and collect the detector output.
    Repeated presentations with identical weights differ only by detector
    noise.
    """

    n_channels: int
    presentations: int

    def present(self, weights: ReadoutWeights | np.ndarray) -> ElectricalSignal:
        """Present one weight vector, or each column of an F x K matrix in order.

        A matrix counts as K presentations and yields a K x N block of
        outputs, one row per column.
        """
        ...


class SimulatedReadout:
    """Opaque readout driven by a simulated state matrix.

    Detector noise is drawn from an internal generator, so repeated
    presentations see independent noise while the whole experiment stays
    reproducible from the seed.  Presenting K weight columns in one call
    draws the same noise as K single calls in column order.
    """

    def __init__(self, states: StateMatrix, detector: DetectorConfig, seed: int | None = None):
        self._states = states
        self.detector = detector
        self._rng = np.random.default_rng(seed)
        self.presentations = 0

    @property
    def n_channels(self) -> int:
        return self._states.n_channels

    @property
    def n_samples(self) -> int:
        return self._states.n_samples

    @property
    def sample_period(self) -> float:
        return self._states.sample_period

    @property
    def channel_roles(self) -> tuple[str, ...]:
        return self._states.channel_roles

    def present(self, weights: ReadoutWeights | np.ndarray) -> ElectricalSignal:
        w = weights.values if isinstance(weights, ReadoutWeights) else np.asarray(weights)
        self.presentations += w.shape[1] if w.ndim == 2 else 1
        return readout_forward(self._states, w, self.detector, rng=self._rng)


@dataclass(frozen=True)
class ProbeSchedule:
    """The 3F-2 weight vectors of one estimation round.

    ``kinds`` labels each probe: ``("modulus", f)``, ``("pair", k, q)`` or
    ``("quad", k, q)`` with reference channel ``k``.
    """

    weights: tuple[np.ndarray, ...]
    kinds: tuple[tuple, ...]
    ref_channel: int

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.kinds):
            raise ValueError("weights and kinds must align")
        n = self.weights[0].size if self.weights else 0
        expected = probe_count(n)
        if len(self.weights) != expected:
            raise ValueError(f"schedule must hold exactly {expected} probes for {n} channels")

    def __len__(self) -> int:
        return len(self.weights)


def probe_count(n_channels: int) -> int:
    """Presentations needed to estimate ``n_channels`` complex channels."""
    if n_channels < 1:
        raise ValueError("need at least one channel")
    return 3 * n_channels - 2


def build_probe_schedule(n_channels: int, ref_channel: int = 0) -> ProbeSchedule:
    if not 0 <= ref_channel < n_channels:
        raise ValueError("reference channel out of range")
    weights: list[np.ndarray] = []
    kinds: list[tuple] = []
    for f in range(n_channels):
        w = np.zeros(n_channels, dtype=np.complex128)
        w[f] = 1.0
        weights.append(w)
        kinds.append(("modulus", f))
    for q in range(n_channels):
        if q == ref_channel:
            continue
        pair = np.zeros(n_channels, dtype=np.complex128)
        pair[ref_channel] = 1.0
        pair[q] = 1.0
        weights.append(pair)
        kinds.append(("pair", ref_channel, q))
        quad = np.zeros(n_channels, dtype=np.complex128)
        quad[ref_channel] = 1.0j
        quad[q] = 1.0
        weights.append(quad)
        kinds.append(("quad", ref_channel, q))
    return ProbeSchedule(tuple(weights), tuple(kinds), ref_channel)


def _inverted_modulus(y: np.ndarray, responsivity: float) -> np.ndarray:
    """Clip negative detector samples to zero, then invert the square law."""
    return np.sqrt(np.maximum(y, 0.0) / responsivity)


def _present_average(readout: OpaqueReadout, probes: list[np.ndarray], repeats: int) -> np.ndarray:
    """Mean output of each probe over ``repeats`` presentations (P x N).

    One call presents every probe ``repeats`` times in a row, probe by
    probe, as the schedule lists them.
    """
    columns = np.repeat(np.stack(probes, axis=1), repeats, axis=1)
    y = readout.present(columns).samples.reshape(len(probes), repeats, -1)
    acc = y[:, 0]
    for r in range(1, repeats):
        acc = acc + y[:, r]
    return acc / repeats


def probe_moduli(
    readout: OpaqueReadout,
    responsivity: float,
    repeats: int = 1,
) -> np.ndarray:
    """Per-channel modulus estimates from one-hot probes (N x F array).

    Negative output samples, which noise or filter ringing can produce,
    are replaced by zero before the square law is inverted.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    schedule = build_probe_schedule(readout.n_channels)
    columns = [
        _inverted_modulus(_present_average(readout, [w], repeats)[0], responsivity)
        for w, kind in zip(schedule.weights, schedule.kinds)
        if kind[0] == "modulus"
    ]
    return np.stack(columns, axis=1)


def _phase_from_powers(
    p_k: np.ndarray,
    p_l: np.ndarray,
    p_pair: np.ndarray,
    p_quad: np.ndarray,
    valid: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Signed relative phase and the worst pre-clamp arccos excess."""
    denom = np.where(valid, 2.0 * p_k * p_l, 1.0)
    ratio_pair = np.where(valid, (p_pair**2 - p_k**2 - p_l**2) / denom, 0.0)
    ratio_quad = np.where(valid, (p_quad**2 - p_k**2 - p_l**2) / denom, 0.0)
    excess = 0.0
    if valid.any():
        excess = float(
            max(
                np.max(np.abs(ratio_pair[valid])) - 1.0,
                np.max(np.abs(ratio_quad[valid])) - 1.0,
                0.0,
            )
        )
    magnitude = np.arccos(np.clip(ratio_pair, -1.0, 1.0))
    quad_angle = np.arccos(np.clip(ratio_quad, -1.0, 1.0))
    sign = np.where(quad_angle <= np.pi / 2.0, 1.0, -1.0)
    return sign * magnitude, excess


def estimate_phase(
    p_k: np.ndarray,
    p_l: np.ndarray,
    p_pair: np.ndarray,
    p_pair_quad: np.ndarray,
) -> np.ndarray:
    """Signed relative phase of channel l with respect to channel k.

    ``p_pair`` is the modulus of the plain sum, ``p_pair_quad`` the
    modulus of the sum with the reference rotated by a quarter turn.  The
    magnitude comes from the law of cosines; the quadrature measurement
    settles which half-plane the phase lies in.  Ratios are clamped to
    [-1, 1], which absorbs noise-driven excursions.
    """
    p_k = np.asarray(p_k, dtype=np.float64)
    p_l = np.asarray(p_l, dtype=np.float64)
    p_pair = np.asarray(p_pair, dtype=np.float64)
    p_pair_quad = np.asarray(p_pair_quad, dtype=np.float64)
    valid = (p_k > 0) & (p_l > 0)
    phase, excess = _phase_from_powers(p_k, p_l, p_pair, p_pair_quad, valid)
    if excess > 0:
        logger.debug("arccos ratio exceeded [-1, 1] by %.3e before clamping", excess)
    return phase


@dataclass(frozen=True)
class EstimatedStates:
    """Reconstructed complex states plus bookkeeping of unreliable samples.

    ``defaulted`` marks entries whose phase was set to zero because the
    channel or the reference modulus fell below the threshold there; the
    phase is unobservable at vanishing intensity.
    """

    samples: np.ndarray
    sample_period: float
    channel_roles: tuple[str, ...]
    defaulted: np.ndarray
    ref_channel: int
    clamp_excess: float = 0.0

    @property
    def defaulted_fraction(self) -> float:
        return float(np.mean(self.defaulted)) if self.defaulted.size else 0.0

    def as_state_matrix(self) -> StateMatrix:
        return StateMatrix(self.samples, self.sample_period, self.channel_roles)


def reconstruct_states(
    moduli: np.ndarray,
    phases: np.ndarray,
    ref_channel: int,
    sample_period: float = 1.0,
    channel_roles: tuple[str, ...] | None = None,
    eps: float = 0.0,
    clamp_excess: float = 0.0,
) -> EstimatedStates:
    """Assemble complex state estimates from moduli and relative phases.

    The reference channel is taken as phase zero; every other channel
    carries its estimated phase relative to it.  Where either modulus in
    a pair drops below ``eps`` the phase defaults to 0 and the sample is
    flagged.
    """
    moduli = np.asarray(moduli, dtype=np.float64)
    phases = np.asarray(phases, dtype=np.float64)
    if moduli.shape != phases.shape:
        raise ValueError("moduli and phases must have the same shape")
    if not 0 <= ref_channel < moduli.shape[1]:
        raise ValueError("reference channel out of range")

    low = moduli < eps
    defaulted = low | low[:, [ref_channel]]
    defaulted[:, ref_channel] = low[:, ref_channel]
    used_phases = np.where(defaulted, 0.0, phases)
    used_phases[:, ref_channel] = 0.0
    samples = moduli * np.exp(1j * used_phases)
    if channel_roles is None:
        channel_roles = tuple(f"ch{i}" for i in range(moduli.shape[1]))
    return EstimatedStates(
        samples=samples,
        sample_period=sample_period,
        channel_roles=tuple(channel_roles),
        defaulted=defaulted,
        ref_channel=ref_channel,
        clamp_excess=clamp_excess,
    )


def estimate_states(
    readout: OpaqueReadout,
    responsivity: float,
    eps: float = 1e-12,
    repeats: int = 1,
    ref_channel: int | None = None,
) -> EstimatedStates:
    """Run the full 3F-2 probing round against an opaque readout.

    Presents the probes of :func:`build_probe_schedule` in schedule order,
    each ``repeats`` times, in one call per one-hot probe and one per
    pair/quad couple.  The reference defaults to the channel with the
    largest mean modulus (usually the bias line), which maximizes the
    signal-to-noise ratio of every pair probe.
    """
    moduli = probe_moduli(readout, responsivity, repeats=repeats)
    if ref_channel is None:
        ref_channel = int(np.argmax(moduli.mean(axis=0)))
    schedule = build_probe_schedule(moduli.shape[1], ref_channel)
    # Pair and quad probes alternate per channel.  Each couple is one
    # presentation call and is reduced to a phase before the next, so only
    # two averaged outputs are held; all 2(F-1) at once would cost about
    # 61 MB at paper length.
    phase_probes = [(w, k) for w, k in zip(schedule.weights, schedule.kinds) if k[0] != "modulus"]

    phases = np.zeros_like(moduli)
    worst_excess = 0.0
    p_ref = moduli[:, ref_channel]
    for (pair, (_, _, q)), (quad, _) in zip(phase_probes[::2], phase_probes[1::2]):
        p_pair, p_quad = _inverted_modulus(
            _present_average(readout, [pair, quad], repeats), responsivity
        )
        valid = (p_ref >= eps) & (moduli[:, q] >= eps)
        phases[:, q], excess = _phase_from_powers(p_ref, moduli[:, q], p_pair, p_quad, valid)
        worst_excess = max(worst_excess, excess)

    if worst_excess > 0:
        logger.debug("phase estimation clamp excess across channels: %.3e", worst_excess)
    roles = getattr(readout, "channel_roles", None)
    period = getattr(readout, "sample_period", 1.0)
    return reconstruct_states(
        moduli,
        phases,
        ref_channel,
        sample_period=period,
        channel_roles=roles,
        eps=eps,
        clamp_excess=worst_excess,
    )


@dataclass(frozen=True)
class TrainNlinvResult:
    weights: ReadoutWeights
    alpha: float
    estimated: EstimatedStates
    presentations: int


def train_nlinv(
    readout: OpaqueReadout,
    desired: DesiredSignal,
    ridge_cfg: RidgeConfig,
    responsivity: float,
    samples_per_bit: int = 24,
    skip_bits: int = 0,
    eps: float | None = None,
    repeats: int = 1,
) -> TrainNlinvResult:
    """Estimate the states through the detector, then train by ridge.

    The reconstructed states and the detector-inverted target form the
    same ridge problem as the full-observability baseline
    (:func:`~photonrc.ridge.ridge_problem`).  Exactly ``repeats * (3F-2)``
    presentations of the input are consumed.
    """
    if eps is None:
        eps = 1e-6 * np.sqrt(desired.p_total)
    before = readout.presentations
    estimated = estimate_states(readout, responsivity, eps=eps, repeats=repeats)
    used = readout.presentations - before
    expected = repeats * probe_count(readout.n_channels)
    if used != expected:
        raise RuntimeError(f"probing used {used} presentations, expected {expected}")

    x, target = ridge_problem(
        estimated.as_state_matrix(), desired, responsivity, samples_per_bit, skip_bits
    )
    alpha, weights = cv_alpha(x, target, ridge_cfg)
    return TrainNlinvResult(weights=weights, alpha=alpha, estimated=estimated, presentations=used)
