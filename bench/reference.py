"""A fixed work mix that tracks how fast the shared host runs right now.

On a host shared with other tenants the same cell can take up to 50 % longer
from one minute to the next, which swamps the differences the benchmark
exists to show.  The reference below runs between cells; it does not
touch photonrc, so no change to the package alters its work.  A cell's
time is reported at reference speed: its host seconds times
``REFERENCE_S`` over the reference time measured right before and after
it.

The mix mirrors what the cells spend their time on: a per-sample Python
loop of small numpy calls (the delay-line recursion) and detector-sized
vector work (a 48k x 17 complex product, noise and an IIR filter).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.signal import lfilter

# Median reference time on the baseline host (Intel Xeon, 2 vCPUs, one
# BLAS thread), so that reference-speed seconds read close to host seconds.
REFERENCE_S = 0.14

_LOOP_STEPS = 6000
_VECTOR_REPEATS = 30


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((48000, 17)) + 1j * rng.standard_normal((48000, 17))
        self._w = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        self._src = rng.integers(0, 16, 24)
        self._dst = rng.integers(0, 16, 24)
        self._steps = rng.integers(8, 17, 24)
        self._gain = 0.3 * np.exp(2j * np.pi * rng.random(24))
        self()  # first calls into numpy and scipy pay one-off costs

    def __call__(self) -> float:
        """Seconds one pass of the work mix takes now."""
        rng = np.random.default_rng(1)
        start = time.perf_counter()
        out = np.zeros((_LOOP_STEPS, 16), dtype=np.complex128)
        for n in range(_LOOP_STEPS):
            acc = np.full(16, 0.1 + 0j)
            back = n - self._steps
            live = back >= 0
            if live.any():
                np.add.at(acc, self._dst[live], self._gain[live] * out[back[live], self._src[live]])
            out[n] = acc
        for _ in range(_VECTOR_REPEATS):
            y = np.abs(self._x @ self._w) ** 2
            y += rng.normal(0.0, 1e-3, y.size)
            lfilter([0.1, 0.2, 0.1], [1.0, -0.5, 0.1], y)
        return time.perf_counter() - start

    @staticmethod
    def at_reference_speed(host_s: float, measured_s: float) -> float:
        """Host seconds scaled to a host on which one pass takes ``REFERENCE_S``."""
        return host_s * REFERENCE_S / measured_s
