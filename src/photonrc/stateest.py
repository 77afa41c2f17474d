"""State estimation through a single intensity detector.

An integrated optical readout hides the complex node signals: the only
observable is the photocurrent of the weighted sum.  Presenting the same
input repeatedly while setting structured weight vectors recovers the
full complex state matrix up to one global phase per time sample, which
an intensity detector cannot distinguish anyway:

* one-hot weights expose each channel's power ``P_f = R |x_f|^2``,
* a pair probe (1 on the reference channel r, 1 on channel q) exposes
  ``Re(x_r conj x_q) = (P+ - P_r - P_q) / 2R``,
* a quadrature probe (j on the reference, 1 on q) exposes
  ``Im(x_r conj x_q) = -(Pj - P_r - P_q) / 2R``.

That is F one-hot probes plus 2(F-1) pair probes: 3F-2 presentations in
total.  The cross terms are linear in the detected powers, so no
trigonometry is needed: dividing by ``|x_r|`` gives each channel rotated
to the reference phase.  The reference must therefore be bright at every
sample; the harness uses the bias line.  The reconstructed states then
feed the ordinary complex ridge trainer, and the resulting weights can be
written back to the readout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .detector import (
    DetectorConfig,
    ElectricalSignal,
    ReadoutWeights,
    SampledBasis,
    _check_sampling_point,
    _weight_matrix,
    readout_forward,
    readout_sampled,
    sampled_basis,
)
from .reservoir import StateMatrix
from .ridge import cv_alpha, ridge_problem
from .signals import DesiredSignal

__all__ = [
    "OpaqueReadout",
    "SimulatedReadout",
    "ProbeSchedule",
    "build_probe_schedule",
    "probe_count",
    "estimate_states",
    "train_nlinv",
    "TrainNlinvResult",
]


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

    def present_sampled(
        self, weights: ReadoutWeights | np.ndarray, samples_per_bit: int, sample_offset: int
    ) -> ElectricalSignal:
        """Present as :meth:`present` does, keeping what a receiver sampling once per bit sees.

        The output holds the samples at ``sample_offset + b *
        samples_per_bit``; it may come from a cheaper path than the full
        detector grid, but its statistics are those of ``present(weights)
        .samples[..., sample_offset::samples_per_bit]``, and it counts the
        same presentations.
        """
        ...


class SimulatedReadout:
    """Opaque readout driven by a simulated state matrix.

    Detector noise is drawn from an internal generator, so repeated
    presentations see independent noise while the whole experiment stays
    reproducible from the seed.  Presenting K weight columns in one call
    draws the same noise as K single calls in column order.

    :meth:`present_sampled` builds a :class:`~photonrc.detector.SampledBasis`
    once per ``(samples_per_bit, sample_offset)`` and keeps it, when that
    basis is no larger than the state matrix: F^2 real products per bit
    against ``samples_per_bit`` complex samples of F channels, that is
    ``F <= 2 * samples_per_bit``, and when there is more than one sample
    per bit: at one there is nothing to save, and the Riccati equation of
    the noise factor is singular.  Otherwise it slices the full-grid output
    of :meth:`present`.
    """

    def __init__(self, states: StateMatrix, detector: DetectorConfig, seed: int | None = None):
        self._states = states
        self.detector = detector
        self._rng = np.random.default_rng(seed)
        self._bases: dict[tuple[int, int], SampledBasis] = {}
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

    def _counted(self, weights: ReadoutWeights | np.ndarray) -> np.ndarray:
        """The checked weights, counting one presentation per column.

        Weights that fail the check raise before anything is counted.
        """
        w = _weight_matrix(weights, self.n_channels)
        self.presentations += w.shape[1] if w.ndim == 2 else 1
        return w

    def present(self, weights: ReadoutWeights | np.ndarray) -> ElectricalSignal:
        return readout_forward(self._states, self._counted(weights), self.detector, rng=self._rng)

    def present_sampled(
        self, weights: ReadoutWeights | np.ndarray, samples_per_bit: int, sample_offset: int
    ) -> ElectricalSignal:
        _check_sampling_point(samples_per_bit, sample_offset)
        if samples_per_bit == 1 or self.n_channels > 2 * samples_per_bit:
            y = self.present(weights)
            return ElectricalSignal(
                y.samples[..., sample_offset::samples_per_bit], y.sample_period * samples_per_bit
            )
        key = (samples_per_bit, sample_offset)
        if key not in self._bases:
            self._bases[key] = sampled_basis(self._states, self.detector, *key)
        return readout_sampled(self._bases[key], self._counted(weights), rng=self._rng)


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


# Pair/quad couples per presentation call in ``estimate_states``.  Each call
# reads the whole state matrix once, and its K x N output is live until the
# call's couples are reduced.  Per output, the product and square law cost
# 11.1 ms at one output per call, 8.4 ms at 2, 5.3 ms at 4, 3.6 ms at 8 and
# 3.1 ms at 17 (paper length, 240240 x 17 states, medians of 7, one BLAS
# thread, 2-vCPU host), so wider calls gain little; they cost peak memory.
_COUPLES_PER_CALL = 4


def estimate_states(readout: OpaqueReadout, responsivity: float, ref_channel: int) -> StateMatrix:
    """Run the full 3F-2 probing round against an opaque readout.

    Presents the probes of :func:`build_probe_schedule` in schedule order,
    once each: the F one-hot probes in one call, then the F-1 pair/quad
    couples in calls of four couples, 1 + ceil((F-1)/4) calls in all.
    The reference is the caller's choice; the harness passes the bias
    line, a constant field that is bright at every sample.

    The probes are linear in intensity, so with ``s_q = P_r + P_q`` each
    couple gives channel q rotated to the reference phase,
    ``z_q = ((P+ - s_q) + j (Pj - s_q)) / (2 R |x_r|)``, and the reference
    column is ``|x_r| = sqrt(max(P_r, 0) / R)``.  No phase is observable
    against a dark reference, so a reference with ``|x_r| == 0`` at any
    sample raises ``ValueError`` after the F one-hot presentations.
    """
    n_channels = readout.n_channels
    schedule = build_probe_schedule(n_channels, ref_channel)
    # The F x N raw one-hot powers stay alive for the whole round: each
    # couple subtracts two of its rows.
    one_hot = np.stack(schedule.weights[:n_channels], axis=1)
    powers = readout.present(one_hot).samples.reshape(n_channels, -1)
    n = powers.shape[1]
    p_ref = powers[ref_channel]
    mod_ref = np.sqrt(np.maximum(p_ref, 0.0) / responsivity)
    n_dark = np.count_nonzero(mod_ref == 0.0)
    if n_dark:
        raise ValueError(f"reference channel {ref_channel} is dark at {n_dark} of {n} samples")
    scale = 1.0 / (2.0 * responsivity * mod_ref)

    samples = np.empty((n, n_channels), dtype=np.complex128)
    # Channel q's real and imaginary parts are columns 2q and 2q + 1.
    flat = samples.view(np.float64)
    couple_probes = schedule.weights[n_channels:]
    channels = [k[2] for k in schedule.kinds if k[0] == "pair"]
    s = np.empty(n)
    for start in range(0, len(channels), _COUPLES_PER_CALL):
        batch = channels[start : start + _COUPLES_PER_CALL]
        probes = couple_probes[2 * start : 2 * (start + len(batch))]
        # Pair and quad rows alternate per channel, at most 8 rows (15 MB
        # at paper length); all 2(F-1) at once would cost about 61 MB.
        block = readout.present(np.stack(probes, axis=1)).samples.reshape(len(probes), -1)
        for i, q in enumerate(batch):
            np.add(p_ref, powers[q], out=s)
            block[2 * i : 2 * i + 2] -= s
        block *= scale
        q0 = batch[0]
        if batch == list(range(q0, q0 + len(batch))):
            flat[:, 2 * q0 : 2 * (q0 + len(batch))] = block.T
        else:  # the batch straddles the reference
            for i, q in enumerate(batch):
                flat[:, 2 * q : 2 * q + 2] = block[2 * i : 2 * i + 2].T
        del block  # before the next call allocates its own

    samples[:, ref_channel] = mod_ref
    roles = getattr(readout, "channel_roles", None)
    if roles is None:
        roles = tuple(f"ch{i}" for i in range(n_channels))
    return StateMatrix(samples, getattr(readout, "sample_period", 1.0), tuple(roles))


@dataclass(frozen=True)
class TrainNlinvResult:
    weights: ReadoutWeights
    alpha: float
    estimated: StateMatrix
    presentations: int


def train_nlinv(
    readout: OpaqueReadout,
    desired: DesiredSignal,
    responsivity: float,
    ref_channel: int,
    samples_per_bit: int = 24,
    skip_bits: int = 0,
) -> TrainNlinvResult:
    """Estimate the states through the detector against ``ref_channel``, then train by ridge.

    The reconstructed states and the detector-inverted target form the
    same ridge problem as the full-observability baseline
    (:func:`~photonrc.ridge.ridge_problem`).  Exactly 3F-2 presentations
    of the input are consumed.
    """
    before = readout.presentations
    estimated = estimate_states(readout, responsivity, ref_channel)
    used = readout.presentations - before
    expected = probe_count(readout.n_channels)
    if used != expected:
        raise RuntimeError(f"probing used {used} presentations, expected {expected}")

    x, target = ridge_problem(estimated, desired, responsivity, samples_per_bit, skip_bits)
    alpha, weights = cv_alpha(x, target)
    return TrainNlinvResult(weights=weights, alpha=alpha, estimated=estimated, presentations=used)
