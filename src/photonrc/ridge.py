"""Complex-valued ridge regression onto the detector-inverted target.

This is the full-observability baseline: it needs the complex state
matrix itself, which only a simulator (or a chip with per-node coherent
taps) can provide.  The square-law detector is approximately inverted on
the target side, so the regression fits the optical sum ``X @ w`` against
``sqrt(d / responsivity)``.
"""

from __future__ import annotations

import logging

import numpy as np

from .detector import ReadoutWeights
from .reservoir import StateMatrix
from .signals import DesiredSignal

__all__ = [
    "candidate_alphas",
    "invert_target",
    "ridge_problem",
    "cv_alpha",
]

logger = logging.getLogger(__name__)

# Cross validation splits the samples into this many contiguous blocks.
_FOLDS = 5


def candidate_alphas(states: np.ndarray) -> tuple[float, ...]:
    """Decades 1e-12 .. 1e2 scaled by the mean channel power of ``states``."""
    # |x| is a fresh array, so it is squared in place: no second temporary.
    magnitudes = np.abs(states)
    scale = float(np.mean(np.square(magnitudes, out=magnitudes)))
    if scale <= 0:
        scale = 1.0
    return tuple(scale * 10.0 ** k for k in range(-12, 3))


def invert_target(d: np.ndarray, responsivity: float) -> np.ndarray:
    """Approximate inverse of the square-law detector: sqrt(d / R).

    Feeding the result through a noiseless, unfiltered detector
    reproduces ``d`` exactly.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.size and d.min() < 0:
        raise ValueError("targets must be non-negative")
    if not responsivity > 0:
        raise ValueError("responsivity must be positive")
    return np.sqrt(d / responsivity)


def ridge_problem(
    states: StateMatrix,
    desired: DesiredSignal,
    responsivity: float,
    samples_per_bit: int,
    skip_bits: int = 0,
) -> tuple[StateMatrix, np.ndarray]:
    """States and detector-inverted target of one readout ridge fit.

    The per-bit power targets are expanded to the sample grid and passed
    through :func:`invert_target`; both sides drop the first ``skip_bits``
    transient bits and end at the shorter of the two.
    """
    target = invert_target(np.repeat(desired.scaled, samples_per_bit), responsivity)
    skip = skip_bits * samples_per_bit
    n = min(states.n_samples, target.size)
    trimmed = StateMatrix(states.samples[skip:n], states.sample_period, states.channel_roles)
    return trimmed, target[skip:n]


def _penalty_diag(states: StateMatrix) -> np.ndarray:
    """Ones, with a zero at the bias line: its weight is not penalized."""
    diag = np.ones(states.n_channels)
    if states.bias_index is not None:
        diag[states.bias_index] = 0.0
    return diag


def _solve_regularized(gram: np.ndarray, rhs: np.ndarray, penalty_diag: np.ndarray) -> ReadoutWeights:
    system = gram + np.diag(penalty_diag).astype(gram.dtype)
    try:
        w = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"ridge system is singular: {exc}") from exc
    residual = np.linalg.norm(system @ w - rhs)
    bound = 1e-8 * (np.linalg.norm(system) * np.linalg.norm(w) + np.linalg.norm(rhs))
    if not np.isfinite(w).all() or residual > bound + 1e-300:
        raise np.linalg.LinAlgError("ridge system is numerically singular")
    return ReadoutWeights(w)


def cv_alpha(states: StateMatrix, target: np.ndarray) -> tuple[float, ReadoutWeights]:
    """Fit the readout by ridge, its strength picked by blocked cross validation.

    The candidates are :func:`candidate_alphas`; the bias line is exempt
    from the penalty.  The five folds are contiguous time blocks to
    respect temporal correlation, read as slices of the state matrix
    without copying it.  Validation error is the mean squared gap between
    ``|X w|`` and the detector-inverted target, i.e. the quantity the
    intensity detector can actually distinguish.  Each distinct fold
    weight vector is scored once: alphas whose penalty falls below the
    rounding of the Gram diagonal give bit-identical weights, and so the
    same error.  An alpha whose system is singular in any fold is dropped
    with a warning; only an all-singular grid raises.  The winning alpha
    (smallest on ties) is refit on all data.
    """
    # In C order every fold is a contiguous block of rows (no copy if it already is).
    x = np.ascontiguousarray(states.samples)
    t = np.asarray(target)
    if t.shape != (x.shape[0],):
        raise ValueError("target length must match the number of state samples")
    grid = np.sort(np.asarray(candidate_alphas(x), dtype=np.float64))

    n, k = x.shape[0], _FOLDS
    if n < k:
        raise ValueError(f"not enough samples for {k} folds")
    # The blocks of np.array_split: the first n % k hold one extra sample.
    bounds = [i * (n // k) + min(i, n % k) for i in range(k + 1)]
    blocks = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    # Per-block Gram pieces; a fold's training Gram is the total minus its block.
    # Each block is conjugated once, for its Gram and its right-hand side.
    grams, rhss = [], []
    for b in blocks:
        xh = x[b].conj().T
        grams.append(xh @ x[b])
        rhss.append(xh @ t[b])
    del xh  # free the last conjugate (13 MB at paper length) before the folds are scored
    gram_total = np.sum(grams, axis=0)
    rhs_total = np.sum(rhss, axis=0)
    pen_diag = _penalty_diag(states)

    # Validation error of each fold, keyed on the bytes of its weights.
    scored: list[dict[bytes, float]] = [{} for _ in blocks]
    mean_errors = np.full(len(grid), np.inf)
    for i, alpha in enumerate(grid):
        errors = []
        try:
            for b, gram_b, rhs_b, seen in zip(blocks, grams, rhss, scored):
                w = _solve_regularized(gram_total - gram_b, rhs_total - rhs_b, alpha**2 * pen_diag)
                key = w.values.tobytes()
                if key not in seen:
                    pred = np.abs(x[b] @ w.values)
                    seen[key] = float(np.mean((pred - t[b]) ** 2))
                errors.append(seen[key])
        except np.linalg.LinAlgError as exc:
            logger.warning("dropping alpha=%g from cross validation: %s", alpha, exc)
            continue
        mean_errors[i] = np.mean(errors)
    if np.isinf(mean_errors).all():
        raise np.linalg.LinAlgError("ridge system is singular for every alpha in the grid")

    best = int(np.argmin(mean_errors))
    alpha_star = float(grid[best])
    w_final = _solve_regularized(gram_total, rhs_total, alpha_star**2 * pen_diag)
    return alpha_star, w_final
