"""Reference detector models that tests compare the package against."""

from __future__ import annotations

import numpy as np

from photonrc.detector import DetectorConfig, _detect
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
