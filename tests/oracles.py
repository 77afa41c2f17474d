"""Reference models that tests compare the package against."""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter

from photonrc.detector import (
    BOLTZMANN,
    ELEMENTARY_CHARGE,
    DetectorConfig,
    SampledBasis,
    _channel_products,
    _checked_output,
    _detect,
    _sampled_noise,
    _weight_matrix,
)
from photonrc.signals import OpticalSignal


def photodiode(
    a: OpticalSignal,
    cfg: DetectorConfig,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Square-law detection of one optical signal: the one-signal oracle of ``readout_forward``.

    The photocurrent is ``responsivity * |a|^2``.  Zero-mean Gaussian
    noise with the variance from ``noise_variance`` (evaluated at the
    mean photocurrent of this signal) is added before the band-limiting
    Butterworth filter, matching the physical ordering.  Negative samples
    produced by noise or filter ringing are retained.  Without ``rng`` the
    noise comes from a fresh, unseeded generator.
    """
    current = np.square(a.samples.real)[None, :]
    current += np.square(a.samples.imag)
    current *= cfg.responsivity
    return _detect(current, a.sample_period, cfg, rng)[0]


def noise_variance_scalar(mean_current_a: float, cfg: DetectorConfig) -> float:
    """Shot plus thermal noise power of one mean current, clamped at 0, in Python floats."""
    mean_current_a = max(float(mean_current_a), 0.0)
    shot = 2.0 * ELEMENTARY_CHARGE * cfg.bandwidth_hz * (mean_current_a + cfg.dark_current_a)
    thermal = 4.0 * BOLTZMANN * cfg.temperature_k * cfg.bandwidth_hz / cfg.load_ohm
    return shot + thermal


def readout_sampled(
    basis: SampledBasis,
    weights: np.ndarray,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Detector output at one instant per bit, batched over weight columns: the oracle of ``SampledScore``.

    Row k stands for ``readout_forward(states, W, cfg)[k,
    sample_offset::samples_per_bit]``.  The clean part is that output to
    rounding: ``responsivity * products^T c(w)`` with ``c(w)`` the F^2
    coefficients ``|w_f|^2``, ``2 Re(w_i conj(w_j))`` and ``-2 Im(w_i
    conj(w_j))``.  The noise has the same power, set by the row's mean
    clean current, and the filtered noise's stationary covariance at the
    sampled instants: one standard normal per bit and row, drawn in one
    block, through the ARMA factor of ``_sampled_noise`` (white when the
    filter is off).  Both start from rest, so they differ only in the
    start-up transient, which decays as ``|p|^(2 * samples_per_bit * b)``
    at bit b for the filter's largest pole p.  Without ``rng`` the noise
    comes from a fresh, unseeded generator.  The output is checked as
    ``readout_forward``'s is.
    """
    cfg = basis.detector
    f = basis.gram.shape[0]
    w = _weight_matrix(weights, f)
    columns = w.reshape(f, -1)
    i, j = np.triu_indices(f, 1)
    coef = _channel_products(columns.T, i, j)
    coef[f:] *= 2.0
    coef[f + i.size :] *= -1.0
    y = (cfg.responsivity * coef.T) @ basis.products
    if cfg.noise_enabled and y.size:
        if rng is None:
            rng = np.random.default_rng()
        sigma = np.sqrt([noise_variance_scalar(m, cfg) for m in basis.mean_current(columns)])
        noise = rng.standard_normal(y.shape)
        if cfg.filter_enabled:
            num, den, gain = _sampled_noise(cfg, 1.0 / basis.sample_period, basis.samples_per_bit)
            noise = lfilter(num, den, noise, axis=1)
            sigma *= gain
        y += sigma[:, None] * noise
    return _checked_output(y if w.ndim == 2 else y[0])


def bit_sse_direct(
    y: np.ndarray,
    target_w: np.ndarray,
    samples_per_bit: int,
    sample_offset: int,
    skip_bits: int,
) -> float | np.ndarray:
    """The SSE of ``SimulatedReadout.score_sampled`` as ``np.sum((y_bits - d) ** 2)``, with two temporaries.

    ``y`` is a full detector output or a K x N block of them, read at
    ``sample_offset::samples_per_bit``; the difference and its square are
    the temporaries.
    """
    y_bits = y[..., sample_offset::samples_per_bit][..., skip_bits:]
    d = np.asarray(target_w, dtype=np.float64)[skip_bits:]
    n = min(y_bits.shape[-1], d.size)
    sse = np.sum((y_bits[..., :n] - d[:n]) ** 2, axis=-1)
    return float(sse) if y.ndim == 1 else sse
