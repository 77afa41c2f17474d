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

The basis is filtered only at the sampled instants, in the filter's modal
(pole-residue) form: per bit, one weighted F x F sum of the bit's own
samples for each pole pair, carried to the next instant by ``p^spb``,
and one through the impulse response itself for the bit's own samples.
It matches ``lfilter`` over the full grid to 3e-13 of the largest
product at 1-31 Gbps, and its error against a long-double filter is at
most 1.8 times ``lfilter``'s own at 31 Gbps and 24 samples per bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_discrete_are
from scipy.signal import butter, lfilter, residuez

from .reservoir import StateMatrix

__all__ = [
    "ELEMENTARY_CHARGE",
    "BOLTZMANN",
    "DetectorConfig",
    "SampledBasis",
    "noise_variance",
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
        if not 0 < self.responsivity < math.inf:
            raise ValueError(f"responsivity must be positive and finite, got {self.responsivity!r}")
        if not 0 < self.bandwidth_hz < math.inf:
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth_hz!r}")
        if not 0 <= self.dark_current_a < math.inf:
            raise ValueError(f"dark current must be non-negative and finite, got {self.dark_current_a!r}")
        if not 0 < self.temperature_k < math.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature_k!r}")
        # an infinite load is a detector without thermal noise
        if not self.load_ohm > 0:
            raise ValueError("load impedance must be positive")


def noise_variance(mean_current_a: float | np.ndarray, cfg: DetectorConfig) -> float | np.ndarray:
    """Stationary detector noise power: shot noise plus thermal noise.

    Takes one mean current or an array of them, entry by entry; a negative
    mean current counts as 0.
    """
    mean_current_a = np.maximum(mean_current_a, 0.0)
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


def _weight_matrix(weights: np.ndarray, n_channels: int) -> np.ndarray:
    """Checked complex weights: one vector, or an ``n_channels x K`` matrix."""
    w = np.asarray(weights, dtype=np.complex128)
    if w.ndim not in (1, 2) or w.shape[0] != n_channels:
        raise ValueError(
            f"weights of shape {w.shape} do not match a state matrix with {n_channels} channels"
        )
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    return w


def _checked_output(y: np.ndarray) -> np.ndarray:
    """``y``, the photocurrent of one presentation or a K x N block, once it is finite."""
    if not np.isfinite(y).all():
        raise ValueError("electrical samples must be finite")
    return y


# Rows of the state matrix per product in ``readout_forward``.  The complex
# K x chunk product is the only temporary besides the K x N output; 4096
# rows ran fastest for K = 1 and K = 14 at ci length (48240 x 17 states,
# one BLAS thread, 2-vCPU host).
_CHUNK_ROWS = 4096


def readout_forward(
    states: StateMatrix,
    weights: np.ndarray,
    cfg: DetectorConfig,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Detector output of the weighted optical sum ``X @ w``, batched over columns.

    Returns the photocurrent in ampere, N samples on the grid of
    ``states``; an output that is not finite raises ``ValueError``.
    ``weights`` is one complex vector of ``n_channels`` entries, or an
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
    return _checked_output(current if w.ndim == 2 else current[0])


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


# Rows of the state matrix per Gram product in ``sampled_basis``.  The Gram
# matrix is summed over these chunks in this order, which fixes its bytes.
_BASIS_ROWS = 256

# Bits per chunk in ``sampled_basis``.  A chunk's window sums (P + 1 complex
# F x F matrices per bit, P = 2 filter modes) and the weighted states they
# are formed from are its only temporaries besides the basis: about 42 kB a
# bit at F = 17 and 24 samples per bit, so 1.3 MB a chunk.
_BASIS_BITS = 32


def _check_sampling_point(samples_per_bit: int, sample_offset: int) -> None:
    if not 0 <= sample_offset < samples_per_bit:
        raise ValueError(
            f"sample offset {sample_offset} outside one bit of {samples_per_bit} samples"
        )


@lru_cache(maxsize=64)
def _channel_pairs(f: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(f, 1)``: the channel pairs ``i < j`` of the basis layout."""
    i, j = np.triu_indices(f, 1)
    i.flags.writeable = False
    j.flags.writeable = False
    return i, j


def _channel_products(x: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The F^2 real products of :class:`SampledBasis` for rows ``x`` of the states."""
    t = x.T
    cross = t[i] * t[j].conj()
    return np.concatenate([np.square(t.real) + np.square(t.imag), cross.real, cross.imag])


def _hermitian_products(c: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """:func:`_channel_products` layout of ``c_b + c_b^H`` for a stack of F x F matrices.

    Column b holds ``2 Re c_b[f, f]``, then ``Re`` and ``Im`` of ``c_b[i, j] +
    conj(c_b[j, i])`` for every ``i < j``, read through a real view of ``c``.
    """
    m, f, _ = c.shape
    flat = c.reshape(m, f * f).view(np.float64).T  # row 2 (i f + j) + part, column b
    d = np.arange(f)
    out = np.empty((f * f, m))
    np.multiply(flat[2 * (d * f + d)], 2.0, out=out[:f])
    np.add(flat[2 * (i * f + j)], flat[2 * (j * f + i)], out=out[f : f + i.size])
    np.subtract(flat[2 * (i * f + j) + 1], flat[2 * (j * f + i) + 1], out=out[f + i.size :])
    return out


@lru_cache(maxsize=64)
def _sampled_modes(
    cfg: DetectorConfig, sample_rate: float, samples_per_bit: int
) -> tuple[np.ndarray, np.ndarray]:
    """Window weights and mode steps ``(weights, phi)`` of the filter read once per bit.

    ``residuez`` splits the filter into a direct term and one mode ``r / (1
    - p z^-1)`` per pole.  The poles come in conjugate pairs with conjugate
    residues, so the impulse response is ``h[m] = sum 2 Re(r p^m)`` for m >
    0, summed over the P poles ``p`` with positive imaginary part.  Take a
    bit whose samples q = 0 .. spb - 1 end at a sampled instant.  Row k <
    P of ``weights`` holds ``r p^(spb - 1 - q)``, the weight of sample q
    in mode k at that instant, and ``phi[k] = p^spb`` carries mode k on to
    the next instant.  The last row holds ``h[spb - 1 - q] / 2``: a bit's
    own samples go through the impulse response itself, because the modes
    cancel to its small leading taps only to about 1e-16 of the residues
    (``h[0]`` is 4e-4 of the largest residue at 31 Gbps).  Cached like
    :func:`_butterworth`.
    """
    b, a = _butterworth(cfg, sample_rate)
    r, p, _ = residuez(b, a)
    upper = p.imag > 0  # fourth order: two conjugate pairs, no real pole
    r, p = r[upper], p[upper]
    lags = np.arange(samples_per_bit - 1, -1, -1)
    impulse = np.zeros(samples_per_bit)
    impulse[0] = 1.0
    response = lfilter(b, a, impulse)[lags]
    weights = np.vstack([r[:, None] * p[:, None] ** lags, 0.5 * response])
    phi = p**samples_per_bit
    weights.flags.writeable = False
    phi.flags.writeable = False
    return weights, phi


def _window_modes(windows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``M[b, k] = sum_q weights[k, q] x[b, q] x[b, q]^H``, one F x F matrix per bit and weight row.

    ``windows`` is an m x q x F stack of bit windows; a window shorter than
    a bit takes the last q weights, since its samples end at the instant.
    Its temporaries are released on return, before the modes are carried.
    """
    m, q, f = windows.shape
    # C order, or the reshape below would copy what the broadcast laid out its own way
    weighted = np.multiply(windows[:, :, None, :], weights[:, -q:].T[:, :, None], order="C")
    rows = weighted.reshape(m, q, -1).transpose(0, 2, 1)  # (k, i) x q per bit
    return np.matmul(rows, windows.conj()).reshape(m, -1, f, f)


def _filtered_bits(
    windows: np.ndarray,
    weights: np.ndarray,
    phi: np.ndarray,
    carry: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Filtered channel products at the instants that end ``windows``, and the modes after them.

    ``carry`` holds the P mode sums ``C_(b-1)`` (P x F x F) at the instant
    before the first window.  Window b adds its samples, ``C_b = phi
    C_(b-1) + M_b[:P]`` with the rows ``M_b`` of :func:`_window_modes`,
    and the filtered ``x x^H`` at its instant is ``T_b + T_b^H`` with ``T_b
    = M_b[P] + sum_k phi_k C_(b-1)[k]``: the bit's own samples through the
    impulse response, the earlier ones through the modes.
    """
    modes = _window_modes(windows, weights)
    phi = phi[:, None, None]
    sums, own = modes[:, :-1], modes[:, -1]
    own[0] += (phi * carry).sum(axis=0)
    for mode in sums:
        mode += phi * carry
        carry = mode
    own[1:] += (phi * sums[:-1]).sum(axis=1)
    return _hermitian_products(own, i, j), carry.copy()  # no view that keeps ``modes`` alive


def sampled_basis(
    states: StateMatrix,
    cfg: DetectorConfig,
    samples_per_bit: int,
    sample_offset: int,
) -> SampledBasis:
    """Precompute what :func:`readout_sampled` needs for one sampling point.

    The filter is evaluated only at the sampled instants ``t_b =
    sample_offset + b * samples_per_bit``, one bit window ``(t_(b-1), t_b]``
    after another (``[0, t_0]`` for the first), with the filter's modes
    carried from each instant to the next (:func:`_filtered_bits`).  Bits
    are taken a chunk at a time, straight into the basis; with the filter
    off only the products at the instants themselves are formed.  The Gram
    matrix is summed over 256-row chunks.
    """
    _check_sampling_point(samples_per_bit, sample_offset)
    x = np.ascontiguousarray(states.samples)  # free for the C-ordered matrices simulate returns
    n, f = x.shape
    i, j = _channel_pairs(f)
    gram = np.zeros((f, f), dtype=np.complex128)
    for start in range(0, n, _BASIS_ROWS):
        chunk = x[start : start + _BASIS_ROWS]
        gram += chunk.conj().T @ chunk
    gram /= max(n, 1)

    n_bits = len(range(sample_offset, n, samples_per_bit))
    products = np.empty((f * f, n_bits))
    # (first bit, m x q x F windows): rows 0 .. offset for the first bit, then whole bits
    rest = x[sample_offset + 1 : sample_offset + 1 + max(n_bits - 1, 0) * samples_per_bit]
    rest = rest.reshape(-1, samples_per_bit, f)
    windows = [(0, x[None, : sample_offset + 1])] if n_bits else []
    windows += [(1 + b, rest[b : b + _BASIS_BITS]) for b in range(0, rest.shape[0], _BASIS_BITS)]
    if cfg.filter_enabled:
        weights, phi = _sampled_modes(cfg, 1.0 / states.sample_period, samples_per_bit)
        carry = np.zeros((phi.size, f, f), dtype=np.complex128)
    for first, block in windows:
        if cfg.filter_enabled:
            part, carry = _filtered_bits(block, weights, phi, carry, i, j)
        else:
            part = _channel_products(block[:, -1], i, j)
        products[:, first : first + part.shape[1]] = part
    return SampledBasis(products, gram, cfg, samples_per_bit, states.sample_period)


def readout_sampled(
    basis: SampledBasis,
    weights: np.ndarray,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Detector output at one instant per bit, batched over weight columns.

    Row k stands for ``readout_forward(states, W, cfg)[k,
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
    comes from a fresh, unseeded generator.  The output is checked as in
    :func:`readout_forward`.
    """
    cfg = basis.detector
    f = basis.gram.shape[0]
    w = _weight_matrix(weights, f)
    columns = w.reshape(f, -1)
    i, j = _channel_pairs(f)
    coef = _channel_products(columns.T, i, j)  # the basis layout, scaled below
    coef[f:] *= 2.0
    coef[f + i.size :] *= -1.0
    y = (cfg.responsivity * coef.T) @ basis.products
    if cfg.noise_enabled and y.size:
        if rng is None:
            rng = np.random.default_rng()
        sigma = np.sqrt(noise_variance(basis.mean_current(columns), cfg))
        noise = rng.standard_normal(y.shape)
        if cfg.filter_enabled:
            num, den, gain = _sampled_noise(cfg, 1.0 / basis.sample_period, basis.samples_per_bit)
            noise = lfilter(num, den, noise, axis=1)
            sigma *= gain
        noise *= sigma[:, None]
        y += noise
    return _checked_output(y if w.ndim == 2 else y[0])
