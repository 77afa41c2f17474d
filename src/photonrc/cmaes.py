"""Covariance matrix adaptation evolution strategy and black-box training.

The optimizer is the standard (mu/mu_w, lambda) scheme: rank-based
recombination weights, cumulative step-size adaptation, and a rank-one
plus rank-mu covariance update, run in the ask/tell form: each generation
samples all lambda candidates, scores them with one objective call, and
updates the distribution from the ranking.  It is used to train readout
weights through nothing but repeated presentations of the training
sequence: scoring a generation sets each candidate's weights on the
readout, plays the input once per candidate, and compares every detector
output with the desired signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .detector import ReadoutWeights
from .signals import DesiredSignal

__all__ = [
    "CmaConfig",
    "CmaState",
    "CmaIteration",
    "CmaResult",
    "default_population",
    "encode_weights",
    "decode_weights",
    "bit_sse",
    "cmaes_minimize",
    "train_cmaes",
    "TrainCmaesResult",
    "DEFAULT_SIGMA_SWEEP",
]

DEFAULT_SIGMA_SWEEP: tuple[float, ...] = tuple(10.0**k for k in range(-5, 3))

_EIGENVALUE_FLOOR = 1e-300


def default_population(dim: int) -> int:
    """Population size 4 + floor(3 ln n) for search dimension n."""
    return 4 + int(3 * math.log(dim))


@dataclass(frozen=True)
class CmaConfig:
    initial_sigma: float = 1.0
    population: int | None = None
    max_iterations: int = 1000
    seed: int | None = None
    target_sse: float | None = None

    def __post_init__(self) -> None:
        if not self.initial_sigma > 0:
            raise ValueError("initial step size must be positive")
        if self.population is not None and self.population < 4:
            raise ValueError("population must be at least 4")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class CmaState:
    """Mutation-distribution state: mean, covariance, step size, paths."""

    mean: np.ndarray
    cov: np.ndarray
    sigma: float
    p_sigma: np.ndarray
    p_c: np.ndarray
    iteration: int = 0


@dataclass(frozen=True)
class CmaIteration:
    """Per-iteration snapshot passed to progress callbacks."""

    iteration: int
    evaluations: int
    best_f: float
    best_x: np.ndarray
    generation_best_f: float
    sigma: float


@dataclass(frozen=True)
class CmaResult:
    best_x: np.ndarray
    best_f: float
    history: np.ndarray  # best-so-far objective after each iteration
    evaluations: int
    iterations: int
    state: CmaState


def encode_weights(weights: ReadoutWeights | np.ndarray) -> np.ndarray:
    """Stack a complex weight vector as [real parts; imaginary parts]."""
    w = weights.values if isinstance(weights, ReadoutWeights) else np.asarray(weights, dtype=np.complex128)
    return np.concatenate([w.real, w.imag])


def _decode(v: np.ndarray) -> np.ndarray:
    """Complex weights from encoded vectors along the last axis."""
    half = v.shape[-1] // 2
    return v[..., :half] + 1j * v[..., half:]


def decode_weights(vector: np.ndarray) -> ReadoutWeights:
    """Inverse of :func:`encode_weights`."""
    v = np.asarray(vector, dtype=np.float64)
    if v.ndim != 1 or v.size % 2 != 0:
        raise ValueError("encoded weight vector must have even length")
    return ReadoutWeights(_decode(v))


def bit_sse(
    y: np.ndarray,
    desired: DesiredSignal,
    samples_per_bit: int,
    sample_offset: int,
    skip_bits: int,
) -> float | np.ndarray:
    """Sum of squared errors between a per-bit detector output and the target.

    The detector output ``y`` is sampled once per bit at ``sample_offset``;
    the first ``skip_bits`` bits are excluded so the reservoir transient
    does not enter the score.  A K x N block of outputs, one per row, gets
    K scores.
    """
    y_bits = y[..., sample_offset::samples_per_bit][..., skip_bits:]
    d = desired.scaled[skip_bits:]
    n = min(y_bits.shape[-1], d.size)
    sse = np.sum((y_bits[..., :n] - d[:n]) ** 2, axis=-1)
    return float(sse) if y.ndim == 1 else sse


def cmaes_minimize(
    objective: Callable[[np.ndarray], np.ndarray],
    dim: int,
    cfg: CmaConfig,
    x0: np.ndarray | None = None,
    callback: Callable[[CmaIteration], None] | None = None,
) -> CmaResult:
    """Minimize a function over R^dim.

    ``objective`` scores a whole generation: it maps a lambda x dim matrix
    of candidates, one per row, to their lambda values.  Deterministic
    given ``cfg.seed``.  Stops after ``max_iterations`` or once the best
    value reaches ``target_sse``.  Non-finite objective values abort with
    a diagnostic because they poison the ranking.
    """
    if dim < 1:
        raise ValueError("search dimension must be at least 1")
    lam = cfg.population if cfg.population is not None else default_population(dim)
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

    rng = np.random.default_rng(cfg.seed)
    state = CmaState(
        mean=np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy(),
        cov=np.eye(n),
        sigma=float(cfg.initial_sigma),
        p_sigma=np.zeros(n),
        p_c=np.zeros(n),
    )

    best_x = state.mean.copy()
    best_f = math.inf
    history: list[float] = []
    evaluations = 0

    for iteration in range(1, cfg.max_iterations + 1):
        eigvals, eigvecs = np.linalg.eigh(state.cov)
        eigvals = np.maximum(eigvals, _EIGENVALUE_FLOOR)
        if not eigvals.min() > 0.0:
            raise RuntimeError(f"covariance eigenvalue floor violated at iteration {iteration}")
        scale = eigvecs * np.sqrt(eigvals)  # B * diag(sqrt(d))
        inv_sqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T

        # ask: the whole generation, scored by one objective call
        z = rng.standard_normal((lam, n))
        candidates = state.mean + state.sigma * z @ scale.T
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
        mean_old = state.mean
        state.mean = weights @ selected

        y_mean = (state.mean - mean_old) / state.sigma
        state.p_sigma = (1.0 - cs) * state.p_sigma + math.sqrt(
            cs * (2.0 - cs) * mueff
        ) * (inv_sqrt @ y_mean)
        ps_norm = float(np.linalg.norm(state.p_sigma))
        denom = math.sqrt(1.0 - (1.0 - cs) ** (2.0 * iteration))
        hsig = ps_norm / denom / chi_n < 1.4 + 2.0 / (n + 1.0)
        state.p_c = (1.0 - cc) * state.p_c + (
            math.sqrt(cc * (2.0 - cc) * mueff) * y_mean if hsig else 0.0
        )

        y_sel = (selected - mean_old) / state.sigma
        rank_mu = (weights[:, None] * y_sel).T @ y_sel
        # When hsig is off the rank-one path is frozen; compensate the
        # missing variance so the update stays unbiased.
        delta_hsig = (0.0 if hsig else 1.0) * cc * (2.0 - cc)
        state.cov = (
            (1.0 - c1 - cmu) * state.cov
            + c1 * (np.outer(state.p_c, state.p_c) + delta_hsig * state.cov)
            + cmu * rank_mu
        )
        state.cov = 0.5 * (state.cov + state.cov.T)
        state.sigma *= math.exp((cs / damps) * (ps_norm / chi_n - 1.0))
        state.iteration = iteration

        history.append(best_f)
        if callback is not None:
            callback(
                CmaIteration(
                    iteration=iteration,
                    evaluations=evaluations,
                    best_f=best_f,
                    best_x=best_x.copy(),
                    generation_best_f=gen_best,
                    sigma=state.sigma,
                )
            )
        if cfg.target_sse is not None and best_f <= cfg.target_sse:
            break

    return CmaResult(
        best_x=best_x,
        best_f=best_f,
        history=np.asarray(history),
        evaluations=evaluations,
        iterations=len(history),
        state=state,
    )


@dataclass(frozen=True)
class TrainCmaesResult:
    weights: ReadoutWeights
    sigma0: float
    sse: float
    history: np.ndarray  # best-so-far SSE per iteration of the winning run
    presentations: int  # presentations used by the whole sweep
    presentations_winner: int


class _ReadoutObjective:
    """Scores a generation of encoded weight vectors, one presentation each.

    The lambda candidates go to the readout as the columns of one weight
    matrix, and the lambda outputs are scored together by :func:`bit_sse`.
    """

    def __init__(self, readout, desired, samples_per_bit, sample_offset, skip_bits):
        self._readout = readout
        self._desired = desired
        self._spb = samples_per_bit
        self._offset = sample_offset
        self._skip = skip_bits

    def __call__(self, candidates: np.ndarray) -> np.ndarray:
        y = self._readout.present(_decode(candidates).T).samples
        return bit_sse(y, self._desired, self._spb, self._offset, self._skip)


def train_cmaes(
    readout,
    desired: DesiredSignal,
    cma: CmaConfig,
    samples_per_bit: int = 24,
    sample_offset: int | None = None,
    skip_bits: int = 0,
    sigma_sweep: Sequence[float] | None = None,
    callback: Callable[[CmaIteration], None] | None = None,
) -> TrainCmaesResult:
    """Train readout weights as a pure black box.

    ``readout`` is any object exposing ``n_channels``/``present``/
    ``presentations``, such as a ``SimulatedReadout`` over a state matrix.
    Optimization starts from the zero weight vector and sweeps the initial
    step size over ``sigma_sweep`` (decades 1e-5 .. 1e2 by default); the
    sweep member with the lowest final SSE wins, ties going to the smaller
    step size.  ``presentations`` in the result counts only this sweep's.
    A ``callback`` follows one run, so it needs a single-member sweep.
    """
    if sample_offset is None:
        sample_offset = samples_per_bit // 2
    objective = _ReadoutObjective(readout, desired, samples_per_bit, sample_offset, skip_bits)
    dim = 2 * readout.n_channels
    sweep = tuple(sigma_sweep) if sigma_sweep is not None else DEFAULT_SIGMA_SWEEP
    if not sweep:
        raise ValueError("sigma sweep is empty")
    if callback is not None and len(sweep) > 1:
        raise ValueError(f"a callback needs a single-member sigma sweep, got {len(sweep)} members")

    best: CmaResult | None = None
    best_sigma0 = None
    winner_presentations = 0
    start = readout.presentations
    for i, sigma0 in enumerate(sweep):
        run_cfg = replace(
            cma,
            initial_sigma=float(sigma0),
            seed=None if cma.seed is None else int(np.random.SeedSequence([cma.seed, i]).generate_state(1)[0]),
        )
        before = readout.presentations
        result = cmaes_minimize(objective, dim, run_cfg, x0=np.zeros(dim), callback=callback)
        used = readout.presentations - before
        if best is None or result.best_f < best.best_f:
            best = result
            best_sigma0 = float(sigma0)
            winner_presentations = used

    assert best is not None
    return TrainCmaesResult(
        weights=decode_weights(best.best_x),
        sigma0=best_sigma0,
        sse=best.best_f,
        history=best.history,
        presentations=readout.presentations - start,
        presentations_winner=winner_presentations,
    )
