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

from .reservoir import StateMatrix

__all__ = [
    "candidate_alphas",
    "invert_target",
    "ridge_problem",
    "cv_alpha",
]

logger = logging.getLogger(__name__)

# Cross validation splits the samples into this many contiguous blocks.
_FOLDS = 5

# Fold rows scored at a time: every distinct weight vector of a fold reads
# one chunk (0.5 MB at 17 channels) while it is in cache.
_SCORE_ROWS = 2048


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
    target_w: np.ndarray,
    responsivity: float,
    samples_per_bit: int,
    skip_bits: int = 0,
) -> tuple[StateMatrix, np.ndarray]:
    """States and detector-inverted target of one readout ridge fit.

    The per-bit power targets ``target_w`` (W) are expanded to the sample
    grid and passed through :func:`invert_target`; both sides drop the
    first ``skip_bits`` transient bits and end at the shorter of the two.
    """
    target = invert_target(np.repeat(target_w, samples_per_bit), responsivity)
    skip = skip_bits * samples_per_bit
    n = min(states.n_samples, target.size)
    trimmed = StateMatrix(states.samples[skip:n], states.sample_period, states.bias_index)
    return trimmed, target[skip:n]


def _penalty_diag(states: StateMatrix) -> np.ndarray:
    """Ones, with a zero at the bias line: its weight is not penalized."""
    diag = np.ones(states.n_channels)
    if states.bias_index is not None:
        diag[states.bias_index] = 0.0
    return diag


def _solve_regularized(gram: np.ndarray, rhs: np.ndarray, penalty_diag: np.ndarray) -> np.ndarray:
    system = gram + np.diag(penalty_diag).astype(gram.dtype)
    try:
        w = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"ridge system is singular: {exc}") from exc
    residual = np.linalg.norm(system @ w - rhs)
    bound = 1e-8 * (np.linalg.norm(system) * np.linalg.norm(w) + np.linalg.norm(rhs))
    if not np.isfinite(w).all() or residual > bound + 1e-300:
        raise np.linalg.LinAlgError("ridge system is numerically singular")
    return w


def _score_chunks(n: int) -> list[slice]:
    """Rows ``0 .. n`` cut into slices of ``_SCORE_ROWS`` rows, none one row long.

    A one-row tail joins the chunk before it: a one-row product is a
    matrix-vector product of its own that rounds differently, while
    chunks of two or more rows give the bytes of the whole-fold product.
    """
    starts = list(range(0, n, _SCORE_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


def cv_alpha(states: StateMatrix, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Fit the readout by ridge, its strength picked by blocked cross validation.

    The candidates are :func:`candidate_alphas`; the bias line is exempt
    from the penalty.  The curve of :func:`_cv_curve` scores each alpha;
    the winning alpha (smallest on ties) is refit on all data.  Returns
    that alpha and the complex weight vector of its refit.
    """
    grid, mean_errors, (gram_total, rhs_total, pen_diag) = _cv_curve(states, target)
    alpha_star = float(grid[int(np.argmin(mean_errors))])
    return alpha_star, _solve_regularized(gram_total, rhs_total, alpha_star**2 * pen_diag)


def _cv_curve(
    states: StateMatrix, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The sorted alpha grid, its cross-validation errors, and the all-data system.

    The five folds are contiguous time blocks to respect temporal
    correlation, read as slices of the state matrix without copying it.
    Validation error is the mean squared gap between ``|X w|`` and the
    detector-inverted target, i.e. the quantity the intensity detector
    can actually distinguish.

    Every alpha's five fold systems are solved first, in grid order; an
    alpha whose system is singular in any fold is dropped with a warning
    and scores ``inf``, and only an all-singular grid raises.  The folds
    are then scored one at a time: each distinct weight vector of the
    fold is scored once (alphas whose penalty falls below the rounding of
    the Gram diagonal give bit-identical weights, and so the same error),
    all of them over one chunk of ``_SCORE_ROWS`` rows before the next,
    so the fold is read from memory once rather than once per vector.
    Each error is the mean over the fold's whole prediction row, and an
    alpha's score the mean of its fold errors in fold order.  The system
    is the Gram matrix, right-hand side and penalty diagonal of the refit.
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
    # Each block is conjugated once, for its Gram and its right-hand side,
    # and released before the next is conjugated, so at most one conjugate
    # (13 MB at paper length) is held and none once the folds are scored.
    grams, rhss = [], []
    for b in blocks:
        xh = x[b].conj().T
        grams.append(xh @ x[b])
        rhss.append(xh @ t[b])
        del xh
    gram_total = np.sum(grams, axis=0)
    rhs_total = np.sum(rhss, axis=0)
    pen_diag = _penalty_diag(states)

    # The fold weights of every alpha that is regular in all folds.
    solved: list[tuple[int, list[np.ndarray]]] = []
    for i, alpha in enumerate(grid):
        try:
            weights = [
                _solve_regularized(gram_total - gram_b, rhs_total - rhs_b, alpha**2 * pen_diag)
                for gram_b, rhs_b in zip(grams, rhss)
            ]
        except np.linalg.LinAlgError as exc:
            logger.warning("dropping alpha=%g from cross validation: %s", alpha, exc)
            continue
        solved.append((i, weights))

    # Validation error of each fold, keyed on the bytes of its weights.
    scored: list[dict[bytes, float]] = []
    for f, b in enumerate(blocks):
        fold = x[b]
        distinct = {weights[f].tobytes(): weights[f] for _, weights in solved}
        preds = np.empty((len(distinct), len(fold)))
        for part in _score_chunks(len(fold)):
            chunk = fold[part]
            for pred, w in zip(preds, distinct.values()):
                np.abs(chunk @ w, out=pred[part])
        scored.append({key: float(np.mean((pred - t[b]) ** 2)) for key, pred in zip(distinct, preds)})

    mean_errors = np.full(len(grid), np.inf)
    for i, weights in solved:
        mean_errors[i] = np.mean([seen[w.tobytes()] for seen, w in zip(scored, weights)])
    if np.isinf(mean_errors).all():
        raise np.linalg.LinAlgError("ridge system is singular for every alpha in the grid")
    return grid, mean_errors, (gram_total, rhs_total, pen_diag)
