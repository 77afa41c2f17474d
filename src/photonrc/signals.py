"""Bit streams, optical intensity modulation, and header-detection targets.

Bits, headers and targets are plain ``uint8`` arrays of 0 and 1; an
optical signal carries complex amplitudes in sqrt(Watt) on a uniform
sample grid together with its sample period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import lfilter

__all__ = [
    "OpticalSignal",
    "header_bits",
    "gen_bits",
    "modulate",
    "desired_signal",
]


def _as_binary_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional sequence")
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{name} may contain only the symbols 0 and 1")
    return arr.astype(np.uint8)


def header_bits(text: str) -> np.ndarray:
    """The bits of a header string such as ``"101"``, at least one."""
    try:
        bits = [int(ch) for ch in text.strip()]
    except ValueError as exc:
        raise ValueError(f"invalid header string {text!r}") from exc
    if not bits:
        raise ValueError("header must contain at least one bit")
    return _as_binary_array(bits, "header bits")


@dataclass(frozen=True)
class OpticalSignal:
    """Uniformly sampled complex optical amplitude in sqrt(Watt)."""

    samples: np.ndarray
    sample_period: float

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if samples.size and not np.isfinite(samples).all():
            raise ValueError("optical samples must be finite")
        if not self.sample_period > 0:
            raise ValueError("sample_period must be positive")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return int(self.samples.size)


def gen_bits(n: int, seed: int | None) -> np.ndarray:
    """``n`` independent equiprobable bits as a ``uint8`` array.

    The same seed always yields the same sequence.
    """
    if n < 0:
        raise ValueError("bit count must be non-negative")
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=n, dtype=np.uint8)


def modulate(
    bits,
    bitrate: float,
    samples_per_bit: int,
    p_node: float,
    smoothing: float | str | None = "auto",
) -> OpticalSignal:
    """Intensity-modulate a bit stream at ``bitrate`` (bits/s) into an optical amplitude signal.

    A one-bit maps to amplitude sqrt(p_node), a zero-bit to 0 (full
    extinction), each held for ``samples_per_bit`` samples.  The staircase
    is then smoothed with a single-pole low-pass filter.

    Parameters
    ----------
    smoothing:
        ``"auto"`` places the filter pole at the bit rate (one inverse bit
        period), a float selects an explicit pole frequency in Hz, and
        ``None`` disables smoothing.
    """
    bits = _as_binary_array(bits, "bits")
    if not bitrate > 0:
        raise ValueError("bitrate must be positive")
    if samples_per_bit < 1:
        raise ValueError("samples_per_bit must be at least 1")
    if not p_node > 0:
        raise ValueError("p_node must be positive")

    amplitude = np.sqrt(p_node) * np.repeat(bits.astype(np.float64), samples_per_bit)
    sample_period = 1.0 / bitrate / samples_per_bit

    if smoothing is not None:
        pole_hz = bitrate if smoothing == "auto" else float(smoothing)
        if not pole_hz > 0:
            raise ValueError("smoothing pole frequency must be positive")
        # Exact discrete equivalent of the first-order response
        # 1 - exp(-2*pi*f_pole*t).
        decay = np.exp(-2.0 * np.pi * pole_hz * sample_period)
        amplitude = lfilter([1.0 - decay], [1.0, -decay], amplitude)

    return OpticalSignal(amplitude.astype(np.complex128), sample_period)


def desired_signal(bits, header: str) -> np.ndarray:
    """Mark with a 1 every bit position at which the header just completed.

    Position ``n`` is flagged when the ``M`` most recent bits ending at
    ``n`` equal the header.  The first ``M - 1`` positions are defined as
    0 because no full window exists there.
    """
    pattern = header_bits(header)
    bits = _as_binary_array(bits, "bits")
    m, n = pattern.size, bits.size
    if n < m:
        raise ValueError(f"need at least {m} bits to match a {m}-bit header")
    ideal = np.zeros(n, dtype=np.uint8)
    windows = sliding_window_view(bits, m)
    ideal[m - 1 :] = (windows == pattern).all(axis=1)
    return ideal
