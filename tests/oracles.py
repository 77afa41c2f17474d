"""Reference models that tests compare the package against."""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter

from photonrc.detector import (
    BOLTZMANN,
    ELEMENTARY_CHARGE,
    DetectorConfig,
    SampledBasis,
    _butterworth,
    _channel_products,
    _checked_output,
    _detect,
    _sampled_noise,
    _weight_matrix,
    noise_variance,
)
from photonrc.harness import SEARCH_BITS
from photonrc.reservoir import StateMatrix
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


def readout_forward_dense(
    states: StateMatrix,
    weights: np.ndarray,
    cfg: DetectorConfig,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """``readout_forward`` as the product over all F channels: the oracle of its probe paths.

    Every block forms ``columns @ x.T`` over every channel, 4096 rows at
    a time; each row then gets ``rng.normal(0.0, sigma)`` noise at the
    power of its mean and the Butterworth filter, in row order.
    """
    w = _weight_matrix(weights, states.n_channels)
    columns = w.reshape(states.n_channels, -1).T
    x = states.samples
    current = np.empty((columns.shape[0], x.shape[0]))
    for start in range(0, x.shape[0], 4096):
        field = columns @ x[start : start + 4096].T
        current[:, start : start + 4096] = cfg.responsivity * (np.square(field.real) + np.square(field.imag))
    if x.shape[0]:
        if cfg.noise_enabled and rng is None:
            rng = np.random.default_rng()
        for row in current:
            if cfg.noise_enabled:
                row += rng.normal(0.0, np.sqrt(noise_variance(row.mean(), cfg)), size=row.size)
            if cfg.filter_enabled:
                row[:] = lfilter(*_butterworth(cfg, 1.0 / states.sample_period), row)
    return _checked_output(current if w.ndim == 2 else current[0])


def block_system_conjugated(xb: np.ndarray, tb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A fold block's Gram ``xb^H xb`` and right-hand side ``xb^H tb`` through a conjugate copy."""
    xh = xb.conj().T
    return xh @ xb, xh @ tb


def mean_squared_modulus(states: np.ndarray) -> float:
    """The scale of ``candidate_alphas`` as one whole-array mean over ``|x|^2``."""
    return float(np.mean(np.square(np.abs(states))))


def freeze_decision_loop(y, d_ideal, samples_per_bit: int) -> tuple[float, int, float, int]:
    """``harness._freeze_decision`` as one decided stream and mean BER per offset: its oracle."""
    p5, p95 = np.percentile(y, [5.0, 95.0])
    threshold = float(p5 + (p95 - p5) / 2.0)
    best = None
    for offset in range(SEARCH_BITS * samples_per_bit):
        decided = (y[offset::samples_per_bit] > threshold).astype(np.uint8)
        n = min(decided.size, len(d_ideal))
        ber = float(np.mean(decided[:n] != d_ideal[:n])) if n else 1.0
        if best is None or ber < best[2]:
            best = (threshold, offset, ber, n)
    return best
