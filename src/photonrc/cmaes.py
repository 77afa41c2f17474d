"""Covariance matrix adaptation evolution strategy and black-box training.

The optimizer is the standard (mu/mu_w, lambda) scheme: rank-based
recombination weights, cumulative step-size adaptation, and a rank-one
plus rank-mu covariance update, run in the ask/tell form: each generation
samples all lambda candidates, scores them with one objective call, and
updates the distribution from the ranking.  It is used to train readout
weights through nothing but repeated presentations of the training
sequence: a generation is one ``score_sampled`` call on the readout,
which sets each candidate's weights, plays the input once per candidate,
and returns the sum of squared errors between the detector output, read
by a receiver sampling once per bit, and the desired signal.

A search is a generator (:func:`_search`) that yields each generation's
candidates and takes their values back.  One loop, :func:`_lockstep`,
advances a list of searches side by side: per generation it stacks the
candidates of all of them, in list order, into one objective call.
:func:`cmaes_minimize` is that loop with one search; :func:`train_cmaes`
runs its whole sigma sweep in it, so the readout presents all the sweep's
candidates of a generation in one call and draws their noise in that
order: run ``i``'s after those of runs 0 .. i - 1.  Each search's own
arithmetic is that of a search run alone.

The covariance is updated every generation, but its eigendecomposition,
which gives the sampling transform and the inverse square root that
whitens the step-size path, is recomputed lazily, as in Hansen's
reference implementations: in the first generation, and then only once
the evaluations since the last decomposition exceed
``gap = 0.5 * lambda / ((c1 + cmu) * n)``.  At n = 34 and lambda = 14
(a 4 x 4 swirl's 17 channels) the gap is 37.6 evaluations, so a search
decomposes at generations 1, 4, 7, ...; in between it samples and
whitens with the last decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generator, Sequence

import numpy as np

__all__ = [
    "CmaResult",
    "default_population",
    "decode_weights",
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
    at ``x0``, a finite vector of ``dim`` entries (zero by default), with
    step size ``sigma0`` and runs exactly ``iterations`` generations of
    ``population`` candidates (:func:`default_population` by default).
    Deterministic given ``seed``.
    Non-finite objective values abort with a diagnostic because they
    poison the ranking.
    """
    (result,) = _lockstep(objective, [_search(dim, sigma0, iterations, seed, population, x0)])
    return result


def _search(
    dim: int,
    sigma0: float,
    iterations: int,
    seed: int,
    population: int | None,
    x0: np.ndarray | None,
) -> Generator[np.ndarray, np.ndarray, CmaResult]:
    """One CMA-ES search in ask/tell form, as a generator.

    Each generation yields its lambda x dim candidates and takes their
    lambda values back through ``send``; the search returns its
    :class:`CmaResult`.  The settings, ``x0`` among them, are checked when
    the generator is first advanced, before the first candidate is yielded.
    The covariance is decomposed in the first generation and then whenever
    more than ``eigen_gap = 0.5 * lam / ((c1 + cmu) * n)`` evaluations have
    passed since the last decomposition; the eigenvalue floor is checked
    at each decomposition.
    """
    if dim < 1:
        raise ValueError("search dimension must be at least 1")
    if not (sigma0 > 0 and math.isfinite(sigma0)):
        raise ValueError(f"initial step size must be positive and finite, got {sigma0!r}")
    if population is not None and population < 4:
        raise ValueError(f"population must be at least 4, got {population!r}")
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations!r}")
    mean = np.zeros(dim) if x0 is None else np.array(x0, dtype=np.float64)
    if mean.shape != (dim,):
        raise ValueError(f"x0 must be a vector of {dim} entries, got shape {mean.shape}")
    if not np.isfinite(mean).all():
        raise ValueError("x0 must be finite")
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
    eigen_gap = 0.5 * lam / ((c1 + cmu) * n)  # evaluations between decompositions

    # Mutation-distribution state besides the mean: covariance, step size, paths.
    rng = np.random.default_rng(seed)
    cov = np.eye(n)
    sigma = float(sigma0)
    p_sigma = np.zeros(n)
    p_c = np.zeros(n)

    best_x = mean.copy()
    best_f = math.inf
    history: list[float] = []
    history_x: list[np.ndarray] = []
    evaluations = 0
    decomposed_at = -math.inf  # evaluations at the last decomposition

    for iteration in range(1, iterations + 1):
        if evaluations - decomposed_at > eigen_gap:
            eigvals, eigvecs = np.linalg.eigh(cov)
            eigvals = np.maximum(eigvals, _EIGENVALUE_FLOOR)
            if not eigvals.min() > 0.0:
                raise RuntimeError(f"covariance eigenvalue floor violated at iteration {iteration}")
            root = np.sqrt(eigvals)
            scale = eigvecs * root  # B * diag(sqrt(d))
            inv_sqrt = (eigvecs / root) @ eigvecs.T
            decomposed_at = evaluations

        # ask: the whole generation, scored by one objective call in _lockstep
        z = rng.standard_normal((lam, n))
        candidates = mean + sigma * z @ scale.T
        values = yield candidates
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


def _lockstep(
    objective: Callable[[np.ndarray], np.ndarray],
    searches: list[Generator[np.ndarray, np.ndarray, CmaResult]],
) -> list[CmaResult]:
    """Run :func:`_search` generators side by side; returns their results in order.

    Every search is advanced to its first generation, which checks its
    settings, before the objective is called.  Then each round stacks the
    candidates of the searches still running, in list order, scores them
    with one objective call, and sends each search its own rows' values.
    """
    asks = {i: next(search) for i, search in enumerate(searches)}
    results: dict[int, CmaResult] = {}
    while asks:
        batch = np.concatenate(list(asks.values()))
        values = np.asarray(objective(batch), dtype=np.float64)
        if values.shape != (len(batch),):
            raise ValueError(f"objective returned shape {values.shape} for {len(batch)} candidates")
        start = 0
        for i, candidates in list(asks.items()):
            stop = start + len(candidates)
            try:
                asks[i] = searches[i].send(values[start:stop])
            except StopIteration as done:
                results[i] = done.value
                del asks[i]
            start = stop
    return [results[i] for i in range(len(searches))]


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

    ``readout`` is any object exposing ``n_channels``/``score_sampled``,
    such as a ``SimulatedReadout`` over a state matrix, whose
    ``presentations`` count is the cost of the sweep; each candidate is one
    presentation, scored on the detector output read once per bit, in the
    middle of the bit, past the first ``skip_bits`` bits.  Optimization
    starts from the zero weight vector and runs once for each initial step
    size in ``sigma_sweep`` (:data:`DEFAULT_SIGMA_SWEEP` holds the decades
    1e-5 .. 1e2), run ``i`` seeded from ``SeedSequence([seed, i])``.  The
    runs go in lockstep: each generation stacks the candidates of all runs,
    run 0's first, into one ``score_sampled`` call, so the readout draws
    the noise of run ``i``'s presentations after those of runs 0 .. i - 1
    in the same generation.  Every run's settings are checked before the
    first presentation.  The run with the lowest final SSE wins, ties going
    to the earlier sweep member; ``decode_weights(run.best_x)`` are its
    weights, and ``run.history_x`` holds its best point after each
    generation.
    """
    def objective(candidates: np.ndarray) -> np.ndarray:
        weights = _decode(candidates).T
        return readout.score_sampled(weights, target_w, samples_per_bit, samples_per_bit // 2, skip_bits)

    dim = 2 * readout.n_channels
    sweep = tuple(float(sigma0) for sigma0 in sigma_sweep)
    if not sweep:
        raise ValueError("sigma sweep is empty")

    seeds = [int(np.random.SeedSequence([seed, i]).generate_state(1)[0]) for i in range(len(sweep))]
    searches = [
        _search(dim, sigma0, iterations, run_seed, population, np.zeros(dim))
        for sigma0, run_seed in zip(sweep, seeds)
    ]
    best: tuple[float, CmaResult] | None = None
    for sigma0, run in zip(sweep, _lockstep(objective, searches)):
        if best is None or run.best_f < best[1].best_f:
            best = (sigma0, run)

    assert best is not None
    return best
