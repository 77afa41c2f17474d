"""Covariance matrix adaptation evolution strategy and black-box training.

The optimizer is the standard (mu/mu_w, lambda) scheme: rank-based
recombination weights, cumulative step-size adaptation, and a rank-one
plus rank-mu covariance update, run in the ask/tell form: each generation
samples all lambda candidates, scores them with one objective call, and
updates the distribution from the ranking.  It is used to train readout
weights through nothing but repeated presentations of the training
sequence: scoring a generation sets each candidate's weights on the
readout, plays the input once per candidate, and compares the detector
output, read by a receiver sampling once per bit, with the desired
signal bit by bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "CmaResult",
    "default_population",
    "decode_weights",
    "bit_sse",
    "cmaes_minimize",
    "train_cmaes",
    "DEFAULT_SIGMA_SWEEP",
]

DEFAULT_SIGMA_SWEEP: tuple[float, ...] = tuple(10.0**k for k in range(-5, 3))

_EIGENVALUE_FLOOR = 1e-300


def default_population(dim: int) -> int:
    """Population size 4 + floor(3 ln n) for search dimension n."""
    return 4 + int(3 * math.log(dim))


@dataclass(frozen=True)
class CmaResult:
    best_x: np.ndarray
    best_f: float
    history: np.ndarray  # best-so-far objective after each iteration
    history_x: np.ndarray  # best-so-far point after each iteration, iterations x dim
    evaluations: int
    iterations: int
    mean: np.ndarray  # final mean of the mutation distribution
    cov: np.ndarray  # final covariance of the mutation distribution


def _decode(v: np.ndarray) -> np.ndarray:
    """Complex weights from encoded vectors along the last axis."""
    half = v.shape[-1] // 2
    return v[..., :half] + 1j * v[..., half:]


def decode_weights(vector: np.ndarray) -> np.ndarray:
    """The complex weight vector encoded as [real parts; imaginary parts]."""
    v = np.asarray(vector, dtype=np.float64)
    if v.ndim != 1 or v.size % 2 != 0:
        raise ValueError("encoded weight vector must have even length")
    return _decode(v)


def bit_sse(
    y: np.ndarray,
    target_w: np.ndarray,
    samples_per_bit: int,
    sample_offset: int,
    skip_bits: int,
) -> float | np.ndarray:
    """Sum of squared errors between a per-bit detector output and the power target in W.

    The detector output ``y`` is sampled once per bit at ``sample_offset``;
    the first ``skip_bits`` bits are excluded so the reservoir transient
    does not enter the score.  A K x N block of outputs, one per row, gets
    K scores.
    """
    y_bits = y[..., sample_offset::samples_per_bit][..., skip_bits:]
    sse = _sse(y_bits, np.asarray(target_w, dtype=np.float64)[skip_bits:])
    return float(sse) if y.ndim == 1 else sse


def _sse(y_bits: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Sum over the last axis of ``(y_bits - d) ** 2``, over the bits both cover."""
    n = min(y_bits.shape[-1], d.size)
    err = y_bits[..., :n] - d[:n]
    np.square(err, out=err)
    return np.sum(err, axis=-1)


def cmaes_minimize(
    objective: Callable[[np.ndarray], np.ndarray],
    dim: int,
    sigma0: float,
    iterations: int,
    seed: int,
    population: int | None = None,
    x0: np.ndarray | None = None,
) -> CmaResult:
    """Minimize a function over R^dim.

    ``objective`` scores a whole generation: it maps a lambda x dim matrix
    of candidates, one per row, to their lambda values.  The search starts
    at ``x0`` (zero by default) with step size ``sigma0`` and runs exactly
    ``iterations`` generations of ``population`` candidates
    (:func:`default_population` by default).  Deterministic given ``seed``.
    Non-finite objective values abort with a diagnostic because they
    poison the ranking.
    """
    if dim < 1:
        raise ValueError("search dimension must be at least 1")
    if not (sigma0 > 0 and math.isfinite(sigma0)):
        raise ValueError(f"initial step size must be positive and finite, got {sigma0!r}")
    if population is not None and population < 4:
        raise ValueError(f"population must be at least 4, got {population!r}")
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations!r}")
    lam = population if population is not None else default_population(dim)
    mu = lam // 2
    raw = np.log((lam + 1) / 2.0) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    mueff = float(weights.sum() ** 2 / np.sum(weights**2))

    n = dim
    cc = (4.0 + mueff / n) / (n + 4.0 + 2.0 * mueff / n)
    cs = (mueff + 2.0) / (n + mueff + 5.0)
    c1 = 2.0 / ((n + 1.3) ** 2 + mueff)
    cmu = min(1.0 - c1, 2.0 * (mueff - 2.0 + 1.0 / mueff) / ((n + 2.0) ** 2 + mueff))
    damps = 1.0 + 2.0 * max(0.0, math.sqrt((mueff - 1.0) / (n + 1.0)) - 1.0) + cs
    chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n**2))
    # Update factors that stay fixed over the generations.
    ps_gain = math.sqrt(cs * (2.0 - cs) * mueff)
    pc_gain = math.sqrt(cc * (2.0 - cc) * mueff)
    hsig_limit = 1.4 + 2.0 / (n + 1.0)
    cov_keep = 1.0 - c1 - cmu
    sigma_rate = cs / damps

    # Mutation-distribution state: mean, covariance, step size, paths.
    rng = np.random.default_rng(seed)
    mean = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    cov = np.eye(n)
    sigma = float(sigma0)
    p_sigma = np.zeros(n)
    p_c = np.zeros(n)

    best_x = mean.copy()
    best_f = math.inf
    history: list[float] = []
    history_x: list[np.ndarray] = []
    evaluations = 0

    for iteration in range(1, iterations + 1):
        eigvals, eigvecs = np.linalg.eigh(cov)
        eigvals = np.maximum(eigvals, _EIGENVALUE_FLOOR)
        if not eigvals.min() > 0.0:
            raise RuntimeError(f"covariance eigenvalue floor violated at iteration {iteration}")
        root = np.sqrt(eigvals)
        scale = eigvecs * root  # B * diag(sqrt(d))
        inv_sqrt = (eigvecs / root) @ eigvecs.T

        # ask: the whole generation, scored by one objective call
        z = rng.standard_normal((lam, n))
        candidates = mean + sigma * z @ scale.T
        values = np.asarray(objective(candidates), dtype=np.float64)
        if values.shape != (lam,):
            raise ValueError(f"objective returned shape {values.shape} for {lam} candidates")
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            k = int(bad[0])
            raise RuntimeError(
                f"non-finite objective value {float(values[k])!r} at iteration {iteration}, "
                f"candidate {k} (|x| = {np.linalg.norm(candidates[k]):.3e})"
            )
        evaluations += lam

        # tell: rank the generation and update the distribution
        order = np.argsort(values, kind="stable")
        gen_best = float(values[order[0]])
        if gen_best < best_f:
            best_f = gen_best
            best_x = candidates[order[0]].copy()

        selected = candidates[order[:mu]]
        mean_old = mean
        mean = weights @ selected

        y_mean = (mean - mean_old) / sigma
        p_sigma = (1.0 - cs) * p_sigma + ps_gain * (inv_sqrt @ y_mean)
        ps_norm = float(np.linalg.norm(p_sigma))
        denom = math.sqrt(1.0 - (1.0 - cs) ** (2.0 * iteration))
        hsig = ps_norm / denom / chi_n < hsig_limit
        p_c = (1.0 - cc) * p_c + (pc_gain * y_mean if hsig else 0.0)

        y_sel = (selected - mean_old) / sigma
        rank_mu = (weights[:, None] * y_sel).T @ y_sel
        # When hsig is off the rank-one path is frozen; compensate the
        # missing variance so the update stays unbiased.
        delta_hsig = (0.0 if hsig else 1.0) * cc * (2.0 - cc)
        cov = (
            cov_keep * cov
            + c1 * (np.outer(p_c, p_c) + delta_hsig * cov)
            + cmu * rank_mu
        )
        cov = 0.5 * (cov + cov.T)
        sigma *= math.exp(sigma_rate * (ps_norm / chi_n - 1.0))

        history.append(best_f)
        history_x.append(best_x)

    return CmaResult(
        best_x=best_x,
        best_f=best_f,
        history=np.asarray(history),
        history_x=np.asarray(history_x),
        evaluations=evaluations,
        iterations=len(history),
        mean=mean,
        cov=cov,
    )


class _ReadoutObjective:
    """Scores a generation of encoded weight vectors, one presentation each.

    The lambda candidates go to the readout as the columns of one weight
    matrix in one ``present_sampled`` call, which returns only the sample
    ``bit_sse`` reads from each bit; the lambda outputs are scored together
    against the target, sliced once past the skipped bits.
    """

    def __init__(self, readout, target_w, samples_per_bit, sample_offset, skip_bits):
        self._readout = readout
        self._target = np.asarray(target_w, dtype=np.float64)[skip_bits:]
        self._spb = samples_per_bit
        self._offset = sample_offset
        self._skip = skip_bits

    def __call__(self, candidates: np.ndarray) -> np.ndarray:
        y = self._readout.present_sampled(_decode(candidates).T, self._spb, self._offset)
        return _sse(y[..., self._skip :], self._target)


def train_cmaes(
    readout,
    target_w: np.ndarray,
    sigma_sweep: Sequence[float],
    iterations: int,
    population: int | None,
    seed: int,
    samples_per_bit: int,
    skip_bits: int,
) -> tuple[float, CmaResult]:
    """Train readout weights as a pure black box; returns ``(sigma0, run)``.

    ``readout`` is any object exposing ``n_channels``/``present_sampled``,
    such as a ``SimulatedReadout`` over a state matrix, whose
    ``presentations`` count is the cost of the sweep; each candidate is one
    presentation, of which the objective reads the detector output once per
    bit, in the middle of the bit.  Optimization starts from the zero
    weight vector and runs once for each initial step size in
    ``sigma_sweep`` (:data:`DEFAULT_SIGMA_SWEEP` holds the decades
    1e-5 .. 1e2), run ``i`` seeded from ``SeedSequence([seed, i])``.  The
    run with the lowest final SSE wins, ties going to the earlier sweep
    member; ``decode_weights(run.best_x)`` are its weights, and
    ``run.history_x`` holds its best point after each generation.
    """
    objective = _ReadoutObjective(readout, target_w, samples_per_bit, samples_per_bit // 2, skip_bits)
    dim = 2 * readout.n_channels
    sweep = tuple(sigma_sweep)
    if not sweep:
        raise ValueError("sigma sweep is empty")

    best: tuple[float, CmaResult] | None = None
    for i, sigma0 in enumerate(sweep):
        run_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        run = cmaes_minimize(objective, dim, float(sigma0), iterations, run_seed, population, x0=np.zeros(dim))
        if best is None or run.best_f < best[1].best_f:
            best = (float(sigma0), run)

    assert best is not None
    return best
