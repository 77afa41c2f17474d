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
sample; the harness uses the bias line.  Beside the N x F estimate, the
round keeps one presentation block at a time: the one-hot powers are
folded into the estimate before the first pair probe is presented.  The
module only estimates: the harness fits the reconstructed states by the
same ridge path as the full states, and the resulting weights can be
written back to the readout.
"""

from __future__ import annotations

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

__all__ = [
    "SimulatedReadout",
    "build_probe_schedule",
    "probe_count",
    "estimate_states",
]


class SimulatedReadout:
    """Opaque readout driven by a simulated state matrix.

    It behaves as hardware with an integrated optical readout: the states
    are invisible; one can only set weights, present the predefined input
    sequence and collect the detector output.  Repeated presentations with
    identical weights differ only by detector noise.

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
        """Present one weight vector, or each column of an F x K matrix in order.

        A matrix counts as K presentations and yields a K x N block of
        outputs, one row per column.
        """
        return readout_forward(self._states, self._counted(weights), self.detector, rng=self._rng)

    def present_sampled(
        self, weights: ReadoutWeights | np.ndarray, samples_per_bit: int, sample_offset: int
    ) -> ElectricalSignal:
        """Present as :meth:`present` does, keeping the samples ``sample_offset + b * samples_per_bit``.

        Their statistics are those of ``present(weights).samples[...,
        sample_offset::samples_per_bit]``, and they count the same
        presentations.
        """
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


def probe_count(n_channels: int) -> int:
    """Presentations needed to estimate ``n_channels`` complex channels."""
    if n_channels < 1:
        raise ValueError("need at least one channel")
    return 3 * n_channels - 2


def build_probe_schedule(n_channels: int, ref_channel: int) -> np.ndarray:
    """The 3F-2 probes of one estimation round, one per column of an F x (3F-2) matrix.

    The F one-hot probes come first, then for each channel ``q !=
    ref_channel`` in order its pair probe (1 on the reference and on q) and
    its quadrature probe (j on the reference, 1 on q).
    """
    if not 0 <= ref_channel < n_channels:
        raise ValueError("reference channel out of range")
    probes = np.zeros((n_channels, probe_count(n_channels)), dtype=np.complex128)
    probes[:, :n_channels] = np.eye(n_channels)
    channels = [q for q in range(n_channels) if q != ref_channel]
    pairs = n_channels + 2 * np.arange(len(channels))
    probes[ref_channel, pairs] = 1.0
    probes[ref_channel, pairs + 1] = 1.0j
    probes[channels, pairs] = 1.0
    probes[channels, pairs + 1] = 1.0
    return probes


# Pair/quad couples per presentation call in ``estimate_states``.  Each call
# reads the whole state matrix once, and its K x N output is live until the
# call's couples are reduced.  Per output, the product and square law cost
# 11.1 ms at one output per call, 8.4 ms at 2, 5.3 ms at 4, 3.6 ms at 8 and
# 3.1 ms at 17 (paper length, 240240 x 17 states, medians of 7, one BLAS
# thread, 2-vCPU host), so wider calls gain little; they cost peak memory.
_COUPLES_PER_CALL = 4

# Sample rows per step of the fold and of each couple reduction in
# ``estimate_states``, so the strided reads and writes of the N x 2F float
# view stay in cache.  At paper length a four-couple reduction takes about
# 15 ms in steps of 2048 rows and 24 ms in one step over all rows.
_ROWS = 2048


def _fold_one_hots(powers: np.ndarray, ref_channel: int, slots: np.ndarray) -> None:
    """Write ``s_q = P_q + P_r`` into channel q's real slot, for every q.

    ``powers`` is the F x N one-hot block; the reference's own slot gets
    ``2 P_r``.
    """
    p_ref = powers[ref_channel]
    for start in range(0, powers.shape[1], _ROWS):
        rows = slice(start, start + _ROWS)
        np.add(powers[:, rows].T, p_ref[rows, None], out=slots[rows, :, 0])


def _reduce_couples(block: np.ndarray, scale: np.ndarray, slots: np.ndarray) -> None:
    """Write ``(P - s_q) * scale`` into the slots (N x k x 2) of k consecutive channels.

    ``block`` holds their couple outputs P as k x 2 x N, the pair output
    before the quadrature output, and is reduced in place; ``s_q`` is read
    from each channel's real slot.
    """
    for start in range(0, slots.shape[0], _ROWS):
        rows = slice(start, start + _ROWS)
        part = block[:, :, rows]
        part -= slots[rows, :, 0].T[:, None, :]
        part *= scale[rows]
        slots[rows] = part.transpose(2, 0, 1)


def estimate_states(readout: SimulatedReadout, responsivity: float, ref_channel: int) -> StateMatrix:
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

    The F x N one-hot powers live only until they are folded into the
    estimate: each ``s_q`` waits in the real slot of channel q in the
    estimate's float view (real part at column 2q, imaginary at 2q + 1),
    and each couple block is reduced against it into both slots, as
    ``(P+ - s_q) * scale`` and ``(Pj - s_q) * scale`` with ``scale = 1 /
    (2 R |x_r|)``.  These are the floating-point operations, in the same
    order, of a round that keeps the powers, so the estimate has its
    bytes; but the round never holds the powers beside a couple block.
    """
    n_channels = readout.n_channels
    probes = build_probe_schedule(n_channels, ref_channel)
    powers = readout.present(probes[:, :n_channels]).samples.reshape(n_channels, -1)
    n = powers.shape[1]
    mod_ref = np.sqrt(np.maximum(powers[ref_channel], 0.0) / responsivity)
    n_dark = np.count_nonzero(mod_ref == 0.0)
    if n_dark:
        raise ValueError(f"reference channel {ref_channel} is dark at {n_dark} of {n} samples")

    samples = np.empty((n, n_channels), dtype=np.complex128)
    # slots[:, q] holds channel q's real and imaginary parts.
    slots = samples.view(np.float64).reshape(n, n_channels, 2)
    _fold_one_hots(powers, ref_channel, slots)
    del powers
    # only now, so the fold's peak is the powers and the estimate
    scale = 1.0 / (2.0 * responsivity * mod_ref)

    channels = [q for q in range(n_channels) if q != ref_channel]
    for start in range(0, len(channels), _COUPLES_PER_CALL):
        batch = channels[start : start + _COUPLES_PER_CALL]
        first = n_channels + 2 * start
        couples = probes[:, first : first + 2 * len(batch)]
        # Pair and quad rows alternate per channel, at most 8 rows (15 MB
        # at paper length); all 2(F-1) at once would cost about 61 MB.
        block = readout.present(couples).samples.reshape(len(batch), 2, n)
        # A batch that straddles the reference is two runs of consecutive channels.
        below = sum(q < ref_channel for q in batch)
        for i, run in ((0, batch[:below]), (below, batch[below:])):
            if run:
                _reduce_couples(block[i : i + len(run)], scale, slots[:, run[0] : run[0] + len(run)])
        del block  # before the next call allocates its own

    samples[:, ref_channel] = mod_ref
    return StateMatrix(samples, readout.sample_period, readout.channel_roles)
