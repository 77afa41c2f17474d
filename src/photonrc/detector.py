"""Photodetector model and the weighted-sum optical readout in front of it.

The readout forms the inner product of the complex node signals with a
complex weight vector; the detector then converts the optical sum to a
photocurrent through its square-law response, adds shot and thermal
noise, and band-limits the result with a fourth-order Butterworth filter.

One kernel serves every presentation.  A weight matrix with K columns is
K presentations in a single pass: one matrix product, then noise and
filter row by row in column order, so the noise stream is the one K
single-vector calls would draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.signal import butter, lfilter

from .reservoir import StateMatrix
from .signals import OpticalSignal

__all__ = [
    "ELEMENTARY_CHARGE",
    "BOLTZMANN",
    "DetectorConfig",
    "ReadoutWeights",
    "ElectricalSignal",
    "noise_variance",
    "photodiode",
    "readout_forward",
]

ELEMENTARY_CHARGE = 1.602176634e-19  # C
BOLTZMANN = 1.380649e-23  # J/K


@dataclass(frozen=True)
class DetectorConfig:
    """Photodetector parameters.

    ``bandwidth_hz`` sets both the noise bandwidth and the Butterworth
    cutoff.  ``filter_enabled`` exists so oracles can probe the pure
    square-law response; physical runs keep it on.
    """

    responsivity: float = 0.5  # A/W
    bandwidth_hz: float = 25e9
    dark_current_a: float = 1e-10
    temperature_k: float = 300.0
    load_ohm: float = 1e6
    noise_enabled: bool = True
    filter_enabled: bool = True
    noise_seed: int | None = None

    def __post_init__(self) -> None:
        if not self.responsivity > 0:
            raise ValueError("responsivity must be positive")
        if not self.bandwidth_hz > 0:
            raise ValueError("bandwidth must be positive")
        if self.dark_current_a < 0:
            raise ValueError("dark current must be non-negative")
        if not self.temperature_k > 0:
            raise ValueError("temperature must be positive")
        if not self.load_ohm > 0:
            raise ValueError("load impedance must be positive")


@dataclass(frozen=True)
class ReadoutWeights:
    """Complex weights applied to the state channels before detection."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.complex128)
        if values.ndim != 1:
            raise ValueError("weights must be one-dimensional")
        if values.size and not np.isfinite(values).all():
            raise ValueError("weights must be finite")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class ElectricalSignal:
    """Real photocurrent samples in Ampere on a uniform grid.

    ``samples`` is one output of N samples, or a K x N block holding the
    outputs of K presentations, one per row.
    """

    samples: np.ndarray
    sample_period: float

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim not in (1, 2):
            raise ValueError("samples must be one output or a block of outputs, one per row")
        if samples.size and not np.isfinite(samples).all():
            raise ValueError("electrical samples must be finite")
        if not self.sample_period > 0:
            raise ValueError("sample_period must be positive")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return int(self.samples.shape[-1])


def noise_variance(mean_current_a: float, cfg: DetectorConfig) -> float:
    """Stationary detector noise power: shot noise plus thermal noise."""
    mean_current_a = max(float(mean_current_a), 0.0)
    shot = 2.0 * ELEMENTARY_CHARGE * cfg.bandwidth_hz * (mean_current_a + cfg.dark_current_a)
    thermal = 4.0 * BOLTZMANN * cfg.temperature_k * cfg.bandwidth_hz / cfg.load_ohm
    return shot + thermal


def butterworth_cutoff(cfg: DetectorConfig, sample_rate: float) -> float:
    """Effective low-pass cutoff; capped at 0.45x the sample rate.

    Low bitrates sample below twice the detector bandwidth, where the
    nominal cutoff would not be realizable in discrete time.
    """
    nyquist = 0.5 * sample_rate
    if cfg.bandwidth_hz < nyquist:
        return cfg.bandwidth_hz
    return 0.45 * sample_rate


@lru_cache(maxsize=64)
def _butterworth(cfg: DetectorConfig, sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Fourth-order low-pass design for one (detector, sample rate) pair.

    ``butter`` costs about as much as filtering a ci-length output, so the
    design is computed once and shared; the arrays are read-only.
    """
    b, a = butter(4, butterworth_cutoff(cfg, sample_rate), btype="low", fs=sample_rate)
    b.flags.writeable = False
    a.flags.writeable = False
    return b, a


def _detect(
    current: np.ndarray,
    sample_period: float,
    cfg: DetectorConfig,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """Add noise to each row of a K x N square-law block and filter it, in place.

    Row k draws its noise after row k - 1 and is filtered before row
    k + 1 is touched, so the rows see the same generator stream as K
    separate detections would, and only one row-length temporary is live.
    """
    if not current.shape[1]:
        return current
    if cfg.noise_enabled and rng is None:
        rng = np.random.default_rng(cfg.noise_seed)
    ba = _butterworth(cfg, 1.0 / sample_period) if cfg.filter_enabled else None
    for row in current:
        if cfg.noise_enabled:
            sigma = np.sqrt(noise_variance(row.mean(), cfg))
            row += rng.normal(0.0, sigma, size=row.size)
        if ba is not None:
            row[:] = lfilter(*ba, row)
    return current


def photodiode(
    a: OpticalSignal,
    cfg: DetectorConfig,
    rng: np.random.Generator | None = None,
) -> ElectricalSignal:
    """Square-law detection of an optical signal.

    The photocurrent is ``responsivity * |a|^2``.  Zero-mean Gaussian
    noise with the variance from :func:`noise_variance` (evaluated at the
    mean photocurrent of this signal) is added before the band-limiting
    Butterworth filter, matching the physical ordering.  Negative samples
    produced by noise or filter ringing are retained.  Without ``rng`` the
    noise comes from a fresh generator seeded with ``cfg.noise_seed``.
    """
    current = np.square(a.samples.real)[None, :]
    current += np.square(a.samples.imag)
    current *= cfg.responsivity
    return ElectricalSignal(_detect(current, a.sample_period, cfg, rng)[0], a.sample_period)


# Rows of the state matrix per product in ``readout_forward``.  The complex
# K x chunk product is the only temporary besides the K x N output; 4096
# rows ran fastest for K = 1 and K = 14 at ci length (48240 x 17 states,
# one BLAS thread, 2-vCPU host).
_CHUNK_ROWS = 4096


def readout_forward(
    states: StateMatrix,
    weights: ReadoutWeights | np.ndarray,
    cfg: DetectorConfig,
    rng: np.random.Generator | None = None,
) -> ElectricalSignal:
    """Detector output of the weighted optical sum ``X @ w``, batched over columns.

    ``weights`` is one vector of ``n_channels`` entries, or an
    ``n_channels x K`` matrix whose K columns are presented in order; the
    result then holds K outputs as the rows of a K x N block, and row k
    equals what a separate call with column k would return after the
    first k calls on the same ``rng``.  The products run in row chunks
    straight into the real output block, so memory stays at the output
    plus one chunk whatever K is.
    """
    w = weights.values if isinstance(weights, ReadoutWeights) else np.asarray(weights, dtype=np.complex128)
    if w.ndim not in (1, 2) or w.shape[0] != states.n_channels:
        raise ValueError(
            f"weights of shape {w.shape} do not match a state matrix with "
            f"{states.n_channels} channels"
        )
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    columns = w.reshape(states.n_channels, -1).T  # K x F
    x = states.samples
    current = np.empty((columns.shape[0], x.shape[0]))
    for start in range(0, x.shape[0], _CHUNK_ROWS):
        field = columns @ x[start : start + _CHUNK_ROWS].T
        part = current[:, start : start + _CHUNK_ROWS]
        np.square(field.real, out=part)
        part += np.square(field.imag)
        part *= cfg.responsivity
    _detect(current, states.sample_period, cfg, rng)
    return ElectricalSignal(current if w.ndim == 2 else current[0], states.sample_period)
