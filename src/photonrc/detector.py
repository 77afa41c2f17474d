"""Photodetector model and the weighted-sum optical readout in front of it.

The readout forms the inner product of the complex node signals with a
complex weight vector; the detector then converts the optical sum to a
photocurrent through its square-law response, adds shot and thermal
noise, and band-limits the result with a fourth-order Butterworth filter.

One kernel serves every full-grid presentation.  A weight matrix with K
columns is K presentations in a single pass: one matrix product, then
noise and filter row by row in column order, so the noise stream is the
one K single-vector calls would draw.

A receiver that samples once per bit sees only every ``samples_per_bit``-th
filtered sample.  :func:`sampled_basis` and :func:`readout_sampled` give
that output without the full grid: the filter is linear in intensity, so
the clean part is a fixed basis of filtered channel products times a
quadratic form in the weights, and the filtered noise at the sampled
instants is an ARMA process with an exact spectral factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_discrete_are
from scipy.signal import butter, lfilter

from .reservoir import StateMatrix
from .signals import OpticalSignal

__all__ = [
    "ELEMENTARY_CHARGE",
    "BOLTZMANN",
    "DetectorConfig",
    "ReadoutWeights",
    "ElectricalSignal",
    "SampledBasis",
    "noise_variance",
    "photodiode",
    "readout_forward",
    "readout_sampled",
    "sampled_basis",
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


@lru_cache(maxsize=64)
def _sampled_noise(
    cfg: DetectorConfig, sample_rate: float, samples_per_bit: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """ARMA factor ``(num, den, gain)`` of filtered unit white noise read once per bit.

    White noise ``n[t]`` through the filter's DF2T state space ``(A, B, C,
    D)``, read at every ``samples_per_bit``-th sample, is the output of
    ``s[b+1] = Phi s[b] + v[b]``, ``y[b] = C s[b] + D n[t_b]`` with ``Phi =
    A^spb`` and ``v[b] = sum_k A^(spb-1-k) B n[t_b + k]``.  The feedthrough
    sample ``n[t_b]`` enters ``v[b]`` as well, hence the cross term of the
    filtering DARE.  Its steady-state innovations form maps unit white
    noise to ``y`` through ``gain * num / den`` with ``num = poly(Phi - K
    C)`` and ``den = poly(Phi)``, so ``gain * lfilter(num, den, e)`` has
    the stationary autocovariance of the sampled noise exactly.  Needs
    ``samples_per_bit > 1``: at one sample per bit the joint noise of
    ``(v, D n)`` is singular.  Cached like :func:`_butterworth`.
    """
    b, a = _butterworth(cfg, sample_rate)  # a[0] == 1
    order = a.size - 1
    trans = np.zeros((order, order))
    trans[:, 0] = -a[1:]
    trans[:-1, 1:] = np.eye(order - 1)
    into = b[1:] - a[1:] * b[0]
    out = np.zeros((1, order))
    out[0, 0] = 1.0
    powers = [into]  # A^k B, k = 0 .. spb - 1
    for _ in range(samples_per_bit - 1):
        powers.append(trans @ powers[-1])
    spread = np.stack(powers, axis=1)
    phi = np.linalg.matrix_power(trans, samples_per_bit)
    cross = b[0] * powers[-1][:, None]
    p = solve_discrete_are(phi.T, out.T, spread @ spread.T, np.array([[b[0] ** 2]]), s=cross)
    innovation = p[0, 0] + b[0] ** 2
    kalman = (phi @ p[:, :1] + cross) / innovation
    num = np.poly(phi - kalman @ out)
    den = np.poly(phi)
    num.flags.writeable = False
    den.flags.writeable = False
    return num, den, float(np.sqrt(innovation))


def _detect(
    current: np.ndarray,
    sample_period: float,
    cfg: DetectorConfig,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """Add noise to each row of a K x N square-law block and filter it, in place.

    Row k draws its noise after row k - 1 and is filtered before row
    k + 1 is touched, so the rows see the same generator stream as K
    separate detections would.  The noise of every row is drawn into one
    reused buffer as ``0.0 + sigma * z``, numpy's own arithmetic for
    ``rng.normal(0.0, sigma)``, so it has the same bytes, signed zeros
    included.
    """
    if not current.shape[1]:
        return current
    if cfg.noise_enabled:
        if rng is None:
            rng = np.random.default_rng()
        noise = np.empty(current.shape[1])
    ba = _butterworth(cfg, 1.0 / sample_period) if cfg.filter_enabled else None
    for row in current:
        if cfg.noise_enabled:
            sigma = np.sqrt(noise_variance(row.mean(), cfg))
            rng.standard_normal(out=noise)
            noise *= sigma
            noise += 0.0
            row += noise
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
    noise comes from a fresh, unseeded generator.
    """
    current = np.square(a.samples.real)[None, :]
    current += np.square(a.samples.imag)
    current *= cfg.responsivity
    return ElectricalSignal(_detect(current, a.sample_period, cfg, rng)[0], a.sample_period)


def _weight_matrix(weights: ReadoutWeights | np.ndarray, n_channels: int) -> np.ndarray:
    """Checked complex weights: one vector, or an ``n_channels x K`` matrix."""
    w = weights.values if isinstance(weights, ReadoutWeights) else np.asarray(weights, dtype=np.complex128)
    if w.ndim not in (1, 2) or w.shape[0] != n_channels:
        raise ValueError(
            f"weights of shape {w.shape} do not match a state matrix with {n_channels} channels"
        )
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    return w


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
    w = _weight_matrix(weights, states.n_channels)
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


@dataclass(frozen=True)
class SampledBasis:
    """Detector-filtered channel products of a state matrix, read once per bit.

    ``products`` holds F^2 rows over the sampled instants ``sample_offset +
    b * samples_per_bit``: the filtered ``|x_f|^2`` for every channel, then
    the real and the imaginary parts of the filtered ``x_i conj(x_j)`` for
    every ``i < j``.  ``gram`` is ``X^H X / N`` over the whole grid, so
    ``responsivity * w^H gram w`` is the mean clean photocurrent that sets
    the noise power.  ``detector`` is the configuration it was filtered
    for and ``sample_period`` that of the full grid.
    """

    products: np.ndarray
    gram: np.ndarray
    detector: DetectorConfig
    samples_per_bit: int
    sample_period: float

    def mean_current(self, columns: np.ndarray) -> np.ndarray:
        """Mean clean photocurrent of each column of an F x K weight matrix."""
        quad = np.einsum("fk,fk->k", columns.conj(), self.gram @ columns).real
        return self.detector.responsivity * quad


# Rows of the state matrix per chunk in ``sampled_basis``.  The filter state
# is carried between chunks, so only an F^2 x chunk block is live besides
# the basis itself.
_BASIS_ROWS = 256


def _check_sampling_point(samples_per_bit: int, sample_offset: int) -> None:
    if not 0 <= sample_offset < samples_per_bit:
        raise ValueError(
            f"sample offset {sample_offset} outside one bit of {samples_per_bit} samples"
        )


def _channel_products(x: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The F^2 real products of :class:`SampledBasis` for rows ``x`` of the states."""
    t = x.T
    cross = t[i] * t[j].conj()
    return np.concatenate([np.square(t.real) + np.square(t.imag), cross.real, cross.imag])


def sampled_basis(
    states: StateMatrix,
    cfg: DetectorConfig,
    samples_per_bit: int,
    sample_offset: int,
) -> SampledBasis:
    """Precompute what :func:`readout_sampled` needs for one sampling point.

    The products of each chunk of at most 256 rows are filtered with the
    filter state carried over from the previous chunk, and the Gram
    matrix accumulates in the same pass.  With the filter off only the
    sampled rows are multiplied out.
    """
    _check_sampling_point(samples_per_bit, sample_offset)
    x = states.samples
    n, f = x.shape
    i, j = np.triu_indices(f, 1)
    products = np.empty((f * f, len(range(sample_offset, n, samples_per_bit))))
    gram = np.zeros((f, f), dtype=np.complex128)
    ba = _butterworth(cfg, 1.0 / states.sample_period) if cfg.filter_enabled else None
    zi = None if ba is None else np.zeros((f * f, ba[1].size - 1))
    done = 0
    for start in range(0, n, _BASIS_ROWS):
        chunk = x[start : start + _BASIS_ROWS]
        gram += chunk.conj().T @ chunk
        picked = slice((sample_offset - start) % samples_per_bit, None, samples_per_bit)
        if ba is None:
            part = _channel_products(chunk[picked], i, j)
        else:
            filtered, zi = lfilter(*ba, _channel_products(chunk, i, j), axis=1, zi=zi)
            part = filtered[:, picked]
        products[:, done : done + part.shape[1]] = part
        done += part.shape[1]
    gram /= max(n, 1)
    return SampledBasis(products, gram, cfg, samples_per_bit, states.sample_period)


def readout_sampled(
    basis: SampledBasis,
    weights: ReadoutWeights | np.ndarray,
    rng: np.random.Generator | None = None,
) -> ElectricalSignal:
    """Detector output at one instant per bit, batched over weight columns.

    Row k stands for ``readout_forward(states, W, cfg).samples[k,
    sample_offset::samples_per_bit]``.  The clean part is that output to
    rounding: ``responsivity * products^T c(w)`` with ``c(w)`` the F^2
    coefficients ``|w_f|^2``, ``2 Re(w_i conj(w_j))`` and ``-2 Im(w_i
    conj(w_j))``.  The noise has the same power, set by the row's mean
    clean current, and the filtered noise's stationary covariance at the
    sampled instants: one standard normal per bit and row, drawn row after
    row, through the ARMA factor of :func:`_sampled_noise` (white when the
    filter is off).  Both start from rest, so they differ only in the
    start-up transient, which decays as ``|p|^(2 * samples_per_bit * b)``
    at bit b for the filter's largest pole p.  Without ``rng`` the noise
    comes from a fresh, unseeded generator.
    """
    cfg = basis.detector
    f = basis.gram.shape[0]
    w = _weight_matrix(weights, f)
    columns = w.reshape(f, -1)
    i, j = np.triu_indices(f, 1)
    coef = _channel_products(columns.T, i, j)  # the basis layout, scaled below
    coef[f:] *= 2.0
    coef[f + i.size :] *= -1.0
    y = (cfg.responsivity * coef.T) @ basis.products
    if cfg.noise_enabled and y.size:
        if rng is None:
            rng = np.random.default_rng()
        sigma = np.sqrt([noise_variance(m, cfg) for m in basis.mean_current(columns)])
        noise = rng.standard_normal(y.shape)
        if cfg.filter_enabled:
            num, den, gain = _sampled_noise(cfg, 1.0 / basis.sample_period, basis.samples_per_bit)
            noise = lfilter(num, den, noise, axis=1)
            sigma *= gain
        y += sigma[:, None] * noise
    period = basis.sample_period * basis.samples_per_bit
    return ElectricalSignal(y if w.ndim == 2 else y[0], period)
