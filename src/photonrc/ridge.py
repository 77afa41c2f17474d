"""Complex-valued ridge regression onto the detector-inverted target.

This is the full-observability baseline: it needs the complex state
matrix itself, which only a simulator (or a chip with per-node coherent
taps) can provide.  The square-law detector is approximately inverted on
the target side, so the regression fits the optical sum ``X @ w`` against
``sqrt(d / responsivity)``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .detector import ReadoutWeights
from .reservoir import StateMatrix
from .signals import DesiredSignal

__all__ = [
    "RidgeConfig",
    "default_alpha_grid",
    "invert_target",
    "ridge_problem",
    "ridge_solve",
    "cv_alpha",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RidgeConfig:
    """Regularization grid and cross-validation layout.

    ``alpha_grid=None`` selects a scale-free default grid derived from the
    mean channel power of the state matrix.  The bias channel is excluded
    from the penalty unless ``regularize_bias`` is set.
    """

    alpha_grid: tuple[float, ...] | None = None
    folds: int = 5
    regularize_bias: bool = False

    def __post_init__(self) -> None:
        if self.alpha_grid is not None:
            grid = tuple(float(a) for a in self.alpha_grid)
            if any(a < 0 for a in grid):
                raise ValueError("regularization strengths must be non-negative")
            object.__setattr__(self, "alpha_grid", grid)
        if self.folds < 2:
            raise ValueError("cross validation needs at least 2 folds")


def default_alpha_grid(states: np.ndarray) -> tuple[float, ...]:
    """Decades 1e-12 .. 1e2 scaled by the mean channel power of ``states``."""
    scale = float(np.mean(np.abs(states) ** 2))
    if scale <= 0:
        scale = 1.0
    return tuple(scale * 10.0 ** k for k in range(-12, 3))


def _as_matrix(states: StateMatrix | np.ndarray) -> tuple[np.ndarray, int | None]:
    if isinstance(states, StateMatrix):
        return states.samples, states.bias_index
    arr = np.asarray(states)
    if arr.ndim != 2:
        raise ValueError("state matrix must be 2-D")
    return arr, None


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


def _penalty_diag(n_channels: int, regularize_bias: bool, bias_index: int | None) -> np.ndarray:
    diag = np.ones(n_channels)
    if not regularize_bias and bias_index is not None:
        diag[bias_index] = 0.0
    return diag


def ridge_solve(
    states: StateMatrix | np.ndarray,
    target: np.ndarray,
    alpha: float,
    regularize_bias: bool = False,
    bias_channel: int | None = None,
) -> ReadoutWeights:
    """Solve ``(X^H X + alpha^2 I') w = X^H t`` for the complex weights.

    ``I'`` is the identity with a zero at the bias channel when that
    channel is exempt from the penalty.  For plain arrays the bias
    location can be passed as ``bias_channel``.
    """
    x, bias_idx = _as_matrix(states)
    if bias_channel is not None:
        bias_idx = bias_channel
    t = np.asarray(target)
    if t.shape != (x.shape[0],):
        raise ValueError("target length must match the number of state samples")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")

    gram = x.conj().T @ x
    rhs = x.conj().T @ t
    penalty = alpha**2 * _penalty_diag(x.shape[1], regularize_bias, bias_idx)
    return _solve_regularized(gram, rhs, penalty)


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


def cv_alpha(
    states: StateMatrix | np.ndarray,
    target: np.ndarray,
    cfg: RidgeConfig,
) -> tuple[float, ReadoutWeights]:
    """Pick the regularization strength by blocked cross validation.

    Folds are contiguous time blocks to respect temporal correlation.
    Validation error is the mean squared gap between ``|X w|`` and the
    detector-inverted target, i.e. the quantity the intensity detector
    can actually distinguish.  An alpha whose system is singular in any
    fold is dropped with a warning; only an all-singular grid raises.  The
    winning alpha (smallest on ties) is refit on all data.
    """
    x, bias_idx = _as_matrix(states)
    t = np.asarray(target)
    if t.shape != (x.shape[0],):
        raise ValueError("target length must match the number of state samples")
    grid = cfg.alpha_grid if cfg.alpha_grid is not None else default_alpha_grid(x)
    if len(grid) == 0:
        raise ValueError("alpha grid is empty")
    grid = np.sort(np.asarray(grid, dtype=np.float64))

    blocks = np.array_split(np.arange(x.shape[0]), cfg.folds)
    if any(len(b) == 0 for b in blocks):
        raise ValueError(f"not enough samples for {cfg.folds} folds")

    # Per-block Gram pieces; a fold's training Gram is the total minus its block.
    grams = [x[b].conj().T @ x[b] for b in blocks]
    rhss = [x[b].conj().T @ t[b] for b in blocks]
    gram_total = np.sum(grams, axis=0)
    rhs_total = np.sum(rhss, axis=0)
    pen_diag = _penalty_diag(x.shape[1], cfg.regularize_bias, bias_idx)

    mean_errors = np.full(len(grid), np.inf)
    for i, alpha in enumerate(grid):
        errors = []
        try:
            for b, gram_b, rhs_b in zip(blocks, grams, rhss):
                w = _solve_regularized(gram_total - gram_b, rhs_total - rhs_b, alpha**2 * pen_diag)
                pred = np.abs(x[b] @ w.values)
                errors.append(float(np.mean((pred - t[b]) ** 2)))
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
