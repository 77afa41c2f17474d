import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonrc.cmaes import (
    DEFAULT_SIGMA_SWEEP,
    cmaes_minimize,
    decode_weights,
    default_population,
    train_cmaes,
)
from photonrc.detector import DetectorConfig
from photonrc.reservoir import StateMatrix
from photonrc.stateest import SimulatedReadout

from oracles import bit_sse_direct, freeze_decision_loop

RAW = DetectorConfig(noise_enabled=False, filter_enabled=False)


def _power(ideal, p_total=0.1):
    """The per-bit power target in W of a 0/1 indicator, formed as the harness forms it."""
    return np.asarray(ideal).astype(np.float64) * p_total


def _rowwise(f):
    """Generation objective that scores each candidate row with scalar ``f``."""
    return lambda candidates: np.array([f(x) for x in candidates])


class TestEncoding:
    def test_explicit_example(self):
        assert decode_weights(np.array([1.0, 3.0, 2.0, -1.0])).tolist() == [1 + 2j, 3 - 1j]

    def test_zero_vector(self):
        w = decode_weights(np.zeros(10))
        assert w.size == 5 and np.all(w == 0.0)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            decode_weights(np.ones(3))

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, values):
        if len(values) % 2:
            values = values + [0.0]
        half = len(values) // 2
        w = np.asarray(values[:half]) + 1j * np.asarray(values[half:])
        assert np.array_equal(decode_weights(np.concatenate([w.real, w.imag])), w)


class TestPopulation:
    def test_default_formula(self):
        # 17 complex channels -> 34 real parameters -> 4 + floor(3 ln 34).
        assert default_population(34) == 14
        assert default_population(10) == 10
        assert default_population(1) == 4


class TestSseObjective:
    """``SimulatedReadout.score_sampled``, the score of every CMA-ES candidate."""

    def _held_states(self, per_bit, spb=8):
        col = np.repeat(per_bit, spb).astype(complex)
        return StateMatrix(col[:, None], 1e-11)

    def test_perfect_match_zero(self):
        # p_total = 0.125 keeps every intermediate value an exact binary
        # fraction, so the identity holds with zero floating-point slack.
        d = _power([1, 0, 1, 1], p_total=0.125)
        amp = np.sqrt(d / RAW.responsivity)
        readout = SimulatedReadout(self._held_states(amp), RAW)
        assert readout.score_sampled(np.ones(1, complex), d, 8, 4, 0) == 0.0

    def test_constant_offset(self):
        n = 50
        d = _power(np.zeros(n, dtype=int))
        eps = 0.003
        readout = SimulatedReadout(self._held_states(np.full(n, np.sqrt(eps / RAW.responsivity))), RAW)
        assert np.isclose(readout.score_sampled(np.ones(1, complex), d, 8, 4, 0), n * eps**2, rtol=1e-12)

    @pytest.mark.parametrize("spb, offset", [(6, 4), (1, 0)], ids=["sampled", "fallback"])
    def test_matches_loop_oracle(self, spb, offset):
        rng = np.random.default_rng(0)
        n_bits = 20
        states = StateMatrix(
            rng.normal(size=(n_bits * spb, 3)) + 1j * rng.normal(size=(n_bits * spb, 3)),
            1e-11,
        )
        w = rng.normal(size=3) + 1j * rng.normal(size=3)
        d = _power(rng.integers(0, 2, n_bits))
        got = SimulatedReadout(states, RAW).score_sampled(w, d, spb, offset, 2)
        total = 0.0
        for m in range(2, n_bits):
            y = RAW.responsivity * abs(states.samples[offset + m * spb] @ w) ** 2
            total += (y - d[m]) ** 2
        assert np.isclose(got, total, rtol=1e-12)

    @pytest.mark.parametrize("skip", [0, 10])
    @pytest.mark.parametrize("k, n", [(None, 40 * 6), (14, 40 * 6), (3, 37 * 6 + 2)], ids=["1-D", "block", "short"])
    def test_fallback_bytes_match_direct_oracle(self, k, n, skip):
        # Noise and filter on: where the score falls back to the full grid
        # (13 channels over at most 240 samples, F^3 > N), it has the bytes
        # of the direct SSE of the full-grid presentation drawn from the
        # same generator.  The sampled path draws its noise as two normals
        # per column instead (tests/test_detector.py, TestSampledScore).
        f = 13
        rng = np.random.default_rng(11)
        d = _power(rng.integers(0, 2, 40))
        x = 0.3 * (rng.normal(size=(n, f)) + 1j * rng.normal(size=(n, f)))
        w = rng.normal(size=(f, k or 1)) + 1j * rng.normal(size=(f, k or 1))
        w = w[:, 0] if k is None else w
        states, cfg = StateMatrix(x, 1.0 / (6 * 10e9)), DetectorConfig()
        given_d, given_w = d.copy(), w.copy()
        got = SimulatedReadout(states, cfg, seed=4).score_sampled(w, d, 6, 2, skip)
        # the caller's arrays are left as they were
        assert np.array_equal(d, given_d) and np.array_equal(w, given_w)
        want = bit_sse_direct(SimulatedReadout(states, cfg, seed=4).present(w), d, 6, 2, skip)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("spb, offset", [(6, 2), (1, 0)], ids=["sampled", "one-sample"])
    def test_block_scores_each_row(self, spb, offset):
        # One channel, so every product is a single multiply: a block of 5
        # columns scores as 5 single calls on a readout of the same seed.
        rng = np.random.default_rng(3)
        d = _power(rng.integers(0, 2, 40))
        states = StateMatrix(0.3 * rng.normal(size=(40 * spb, 1)) + 0j, 1.0 / (spb * 10e9))
        w = rng.normal(size=(1, 5)) + 1j * rng.normal(size=(1, 5))
        got = SimulatedReadout(states, DetectorConfig(), seed=9).score_sampled(w, d, spb, offset, 3)
        assert got.shape == (5,)
        single = SimulatedReadout(states, DetectorConfig(), seed=9)
        assert np.array_equal(got, [single.score_sampled(col, d, spb, offset, 3) for col in w.T])


def _reference_minimize(f, dim, sigma0, iterations, seed, population=None, x0=None):
    """Scalar-loop CMA-ES: one objective call per candidate, in order (the oracle)."""
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

    # Decompose in the first generation, then once more than this many
    # evaluations have passed since the last decomposition.
    lazy_gap_evals = 0.5 * n * lam / ((c1 + cmu) * n**2)

    rng = np.random.default_rng(seed)
    mean = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    cov, sigma = np.eye(n), float(sigma0)
    p_sigma, p_c = np.zeros(n), np.zeros(n)
    best_x, best_f, history, evaluations = mean.copy(), math.inf, [], 0
    updated_eval = None
    for iteration in range(1, iterations + 1):
        if updated_eval is None or evaluations > updated_eval + lazy_gap_evals:
            eigvals, eigvecs = np.linalg.eigh(cov)
            eigvals = np.maximum(eigvals, 1e-300)
            scale = eigvecs * np.sqrt(eigvals)
            inv_sqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
            updated_eval = evaluations
        z = rng.standard_normal((lam, n))
        candidates = mean + sigma * z @ scale.T
        values = np.empty(lam)
        for k in range(lam):
            values[k] = float(f(candidates[k]))
        evaluations += lam
        order = np.argsort(values, kind="stable")
        if values[order[0]] < best_f:
            best_f = float(values[order[0]])
            best_x = candidates[order[0]].copy()
        selected = candidates[order[:mu]]
        mean_old = mean
        mean = weights @ selected
        y_mean = (mean - mean_old) / sigma
        p_sigma = (1.0 - cs) * p_sigma + math.sqrt(cs * (2.0 - cs) * mueff) * (inv_sqrt @ y_mean)
        ps_norm = float(np.linalg.norm(p_sigma))
        hsig = ps_norm / math.sqrt(1.0 - (1.0 - cs) ** (2.0 * iteration)) / chi_n < 1.4 + 2.0 / (n + 1.0)
        p_c = (1.0 - cc) * p_c + (math.sqrt(cc * (2.0 - cc) * mueff) * y_mean if hsig else 0.0)
        y_sel = (selected - mean_old) / sigma
        rank_mu = (weights[:, None] * y_sel).T @ y_sel
        delta_hsig = (0.0 if hsig else 1.0) * cc * (2.0 - cc)
        cov = (1.0 - c1 - cmu) * cov + c1 * (np.outer(p_c, p_c) + delta_hsig * cov) + cmu * rank_mu
        cov = 0.5 * (cov + cov.T)
        sigma *= math.exp((cs / damps) * (ps_norm / chi_n - 1.0))
        history.append(best_f)
    return best_x, np.asarray(history), evaluations


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))


class TestAskTell:
    @pytest.mark.parametrize(
        "f, batched, dim, kw",
        [
            (
                lambda x: float(np.sum(x**2)),
                lambda c: np.sum(c**2, axis=1),
                6,
                dict(sigma0=0.7, iterations=120, seed=13),
            ),
            (
                _rosenbrock,
                lambda c: np.sum(100.0 * (c[:, 1:] - c[:, :-1] ** 2) ** 2 + (1 - c[:, :-1]) ** 2, axis=1),
                5,
                dict(sigma0=0.5, iterations=150, seed=29, population=9),
            ),
        ],
        ids=["sphere", "rosenbrock"],
    )
    def test_generation_matches_scalar_loop(self, f, batched, dim, kw):
        best_x, history, evaluations = _reference_minimize(f, dim, **kw, x0=np.full(dim, 0.4))
        for objective in (_rowwise(f), batched):
            result = cmaes_minimize(objective, dim, **kw, x0=np.full(dim, 0.4))
            assert np.array_equal(result.best_x, best_x)
            assert np.array_equal(result.history, history)
            assert result.evaluations == evaluations

    def test_objective_sees_whole_generation(self):
        shapes = []

        def objective(candidates):
            shapes.append(candidates.shape)
            return np.sum(candidates**2, axis=1)

        cmaes_minimize(objective, 4, 1.0, 5, 0, population=7)
        assert shapes == [(7, 4)] * 5

    def test_wrong_value_count_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            cmaes_minimize(lambda c: np.zeros(len(c) - 1), 3, 1.0, 2, 0)


class TestCmaesMinimize:
    def test_sphere_convergence(self):
        result = cmaes_minimize(_rowwise(lambda x: float(np.sum(x**2))), 10, 1.0, 300, 7, x0=np.full(10, 0.5))
        assert result.best_f < 1e-10

    def test_one_dimensional_quadratic(self):
        result = cmaes_minimize(_rowwise(lambda x: float((x[0] - 3.0) ** 2)), 1, 1.0, 300, 3)
        assert abs(result.mean[0] - 3.0) < 1e-6

    def test_history_is_best_so_far(self):
        result = cmaes_minimize(_rowwise(lambda x: float(np.sum(x**2)) + 1.0), 4, 0.5, 60, 1, x0=np.ones(4))
        assert len(result.history) == 60
        assert np.all(np.diff(result.history) <= 0.0)
        assert result.history[-1] == result.best_f

    def test_trajectory_holds_each_best_point(self):
        # The point stored after each generation scores that generation's
        # best-so-far value, and the last one is the result.
        def f(x):
            return float(np.sum((x - 0.3) ** 2) + np.sum(np.cos(3.0 * x)))

        result = cmaes_minimize(_rowwise(f), 4, 0.5, 40, 2, population=6, x0=np.ones(4))
        assert result.history_x.shape == (40, 4)
        assert [f(x) for x in result.history_x] == result.history.tolist()
        assert np.array_equal(result.history_x[-1], result.best_x)
        # the trajectory moves, so it is not one array stored 40 times
        assert len({x.tobytes() for x in result.history_x}) > 1

    def test_deterministic_given_seed(self):
        f = _rowwise(lambda x: float(np.sum((x - 1.0) ** 2)))
        r1 = cmaes_minimize(f, 5, 0.3, 40, 11)
        r2 = cmaes_minimize(f, 5, 0.3, 40, 11)
        assert np.array_equal(r1.history, r2.history)
        assert np.array_equal(r1.best_x, r2.best_x)

    def test_covariance_stays_positive_definite(self):
        def rosenbrock(x):
            return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))

        result = cmaes_minimize(_rowwise(rosenbrock), 6, 1.0, 80, 5)
        eigvals = np.linalg.eigvalsh(result.cov)
        assert eigvals.min() > 0.0
        assert np.allclose(result.cov, result.cov.T)

    def test_evaluation_budget(self):
        result = cmaes_minimize(_rowwise(lambda x: float(np.sum(x**2))), 3, 1.0, 25, 2, population=8)
        assert result.evaluations == 25 * 8

    def test_non_finite_objective_aborts(self):
        # Only the third candidate of the first generation is poisoned; the
        # message must point at it.
        def objective(candidates):
            values = np.sum(candidates**2, axis=1)
            values[2] = np.nan
            return values

        with pytest.raises(RuntimeError, match="non-finite .* iteration 1, candidate 2 "):
            cmaes_minimize(objective, 2, 1.0, 10, 0)

    def test_ill_conditioned_ellipsoid_converges(self):
        # Axis scales 1 .. 1e6 in 10 dimensions: the covariance must learn
        # the shape, through eigendecompositions made every 2nd generation.
        scales = 10.0 ** (6.0 * np.arange(10) / 9)
        for seed in range(5):
            result = cmaes_minimize(lambda c: c**2 @ scales, 10, 1.0, 700, seed, x0=np.ones(10))
            assert result.best_f < 1e-10, seed

    def test_degenerate_covariance_raises(self):
        # sigma0 near the float limit overflows the samples and turns the
        # covariance NaN; the eigenvalue check at the next decomposition
        # must raise even under -O.  At dimension 2 the search decomposes
        # at generations 1, 3 and 5, so the covariance that turns NaN in
        # generation 3's update is caught in generation 5.
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RuntimeError, match="iteration"):
            cmaes_minimize(lambda c: np.zeros(len(c)), 2, 1e308, 5, 1)

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            cmaes_minimize(lambda c: np.zeros(len(c)), 0, 1.0, 1000, 0)

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(sigma0=0.0), "step size"),
            (dict(sigma0=-1.0), "step size"),
            (dict(sigma0=math.nan), "step size"),
            (dict(sigma0=math.inf), "step size"),
            (dict(population=3), "population"),
            (dict(iterations=0), "iterations"),
            (dict(x0=0.5), "x0"),
            (dict(x0=np.zeros(3)), "x0"),
            (dict(x0=np.zeros((1, 2))), "x0"),
            (dict(x0=np.full(2, math.nan)), "x0"),
            (dict(x0=np.array([0.0, math.inf])), "x0"),
        ],
        ids=[
            "sigma-zero", "sigma-negative", "sigma-nan", "sigma-inf", "population-3", "iterations-0",
            "x0-scalar", "x0-wrong-length", "x0-2d", "x0-nan", "x0-inf",
        ],
    )
    def test_bad_setting_rejected_before_any_evaluation(self, kw, message):
        calls = []

        def objective(candidates):
            calls.append(candidates)
            return np.zeros(len(candidates))

        args = dict(sigma0=1.0, iterations=5, seed=0, population=None) | kw
        with pytest.raises(ValueError, match=message):
            cmaes_minimize(objective, 2, **args)
        assert calls == []


class _EighCounter:
    """Wraps ``np.linalg.eigh``; notes the generation of each call, counted by objective calls."""

    def __init__(self, monkeypatch):
        self.objective_calls = 0
        self.generations = []
        original = np.linalg.eigh

        def counting(a):
            self.generations.append(self.objective_calls + 1)
            return original(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)

    def objective(self, candidates):
        self.objective_calls += 1
        return np.sum(candidates**2, axis=1)


class TestEigenSchedule:
    def test_one_search_decomposes_every_third_generation(self, monkeypatch):
        # n = 34, lambda = 14: a gap of 37.6 evaluations, so 3 generations.
        counter = _EighCounter(monkeypatch)
        cmaes_minimize(counter.objective, 34, 0.5, 20, 3, x0=np.ones(34))
        assert counter.objective_calls == 20
        assert counter.generations == [1, 4, 7, 10, 13, 16, 19]

    def test_sigma_sweep_decomposes_56_times(self, monkeypatch):
        # The eight lockstep searches of a 17-channel readout share n and
        # lambda, so each decomposes 7 times in 20 generations.
        counter = _EighCounter(monkeypatch)

        class Readout:
            n_channels = 17

            def score_sampled(self, weights, target_w, spb, offset, skip):
                return counter.objective(np.concatenate([weights.real, weights.imag]).T)

        _, run = train_cmaes(Readout(), np.zeros(10), DEFAULT_SIGMA_SWEEP, 20, None, 5, 4, 0)
        assert run.iterations == 20 and counter.objective_calls == 20
        assert len(counter.generations) == 56
        assert counter.generations == sorted(8 * [1, 4, 7, 10, 13, 16, 19])


def _toy_problem(n_bits=60, spb=4, seed=0):
    # Channel 0 carries exactly the detector-inverted target; channel 1
    # is a decoy.  Weight (1, 0) solves the task with zero error.
    rng = np.random.default_rng(seed)
    d = _power(rng.integers(0, 2, n_bits))
    good = np.repeat(np.sqrt(d / RAW.responsivity), spb)
    decoy = np.repeat(rng.normal(size=n_bits), spb) * 0.05
    states = StateMatrix(np.stack([good, decoy], axis=1).astype(complex), 1e-10)
    return states, SimulatedReadout(states, RAW), d, spb


class TestTrainCmaes:
    def test_separable_toy_reaches_zero_ber(self):
        states, readout, d, spb = _toy_problem()
        _, run = train_cmaes(readout, d, (0.1, 1.0), 150, None, 21, spb, 0)
        y = RAW.responsivity * np.abs(states.samples @ decode_weights(run.best_x)) ** 2
        assert freeze_decision_loop(y, d > 0, spb)[2:] == (0.0, len(d))

    def test_sweep_returns_minimum_sse_member(self, monkeypatch):
        # Stub the searches so each sweep member lands on a known value;
        # the per-member outcome includes a tie to check the tie-break,
        # which keeps the earlier member in either sweep order.
        import photonrc.cmaes as cmaes_mod

        outcomes = {1e-4: 3.0, 1e-2: 1.0, 1.0: 1.0, 10.0: 2.0}
        seen = []

        def fake_search(dim, sigma0, iterations, seed, population, x0):
            seen.append(sigma0)
            yield np.zeros((1, dim))  # consume one presentation
            f = outcomes[sigma0]
            return cmaes_mod.CmaResult(
                best_x=np.zeros(dim),
                best_f=f,
                history=np.array([f]),
                history_x=np.zeros((1, dim)),
                evaluations=1,
                iterations=1,
                mean=np.zeros(dim),
                cov=np.eye(dim),
            )

        monkeypatch.setattr(cmaes_mod, "_search", fake_search)
        for sweep, winner in ((sorted(outcomes), 1e-2), (sorted(outcomes, reverse=True), 1.0)):
            _, readout, d, spb = _toy_problem(seed=3)
            seen.clear()
            sigma0, run = cmaes_mod.train_cmaes(readout, d, sweep, 1000, None, 4, spb, 0)
            assert seen == sweep
            assert run.best_f == 1.0
            assert sigma0 == winner  # tie between 1e-2 and 1.0 -> earlier member wins
            assert readout.presentations == len(outcomes)

    def test_toy_trains_on_the_sampled_path(self, monkeypatch):
        # The toy's 2 channels over 240 samples are within F^3 <= N, so
        # training reads one sample per bit from one basis, built once.
        import photonrc.stateest as stateest_mod

        built = []
        original = stateest_mod.sampled_basis

        def counting(states, cfg, spb, offset):
            built.append((spb, offset))
            return original(states, cfg, spb, offset)

        monkeypatch.setattr(stateest_mod, "sampled_basis", counting)
        states, readout, d, spb = _toy_problem()
        _, run = train_cmaes(readout, d, (0.1, 1.0), 150, None, 21, spb, 0)
        assert built == [(spb, spb // 2)]
        y = RAW.responsivity * np.abs(states.samples @ decode_weights(run.best_x)) ** 2
        assert freeze_decision_loop(y, d > 0, spb)[2:] == (0.0, len(d))

    def test_one_dimensional_candidate_is_one_presentation(self):
        # A single decoded candidate presents once and returns one score.
        _, readout, d, spb = _toy_problem(seed=12)
        value = readout.score_sampled(decode_weights(np.zeros(2 * readout.n_channels)), d, spb, spb // 2, 0)
        assert readout.presentations == 1
        assert np.ndim(value) == 0
        assert value == pytest.approx(float(np.sum(d**2)))
        assert readout.score_sampled(np.zeros((readout.n_channels, 3)), d, spb, spb // 2, 0).shape == (3,)
        assert readout.presentations == 4

    def test_presentation_accounting(self):
        _, readout, d, spb = _toy_problem(seed=5)
        _, run = train_cmaes(readout, d, (0.1, 1.0), 10, 6, 6, spb, 0)
        assert run.evaluations == 10 * 6
        assert readout.presentations == 2 * 10 * 6

    def test_presentations_on_reused_readout(self):
        # The readout counts every presentation: the sweep adds exactly its
        # own evaluations to the one made before it.
        _, readout, d, spb = _toy_problem(seed=10)
        readout.present(np.zeros(readout.n_channels, complex))
        _, run = train_cmaes(readout, d, (0.1,), 3, 4, 1, spb, 0)
        assert readout.presentations == 1 + run.evaluations == 1 + 3 * 4

    def test_ci_cell_reruns_are_identical(self):
        # A ci cell trained twice from one seed: same noise stream, same
        # scores, same run, and one presentation per candidate.
        from photonrc.config import SAMPLES_PER_BIT, WARMUP_BITS, ci_profile
        from photonrc.harness import _power_target, _prepare_cell, _targets

        cfg = ci_profile()
        cell = _prepare_cell(cfg, 10.0, 0)
        d = _power_target(cfg, _targets(cell, "101")[0])
        spb, skip = SAMPLES_PER_BIT, WARMUP_BITS
        sweep, iterations, population = (1e-3, 1e-1), 4, 14
        runs, readouts = [], []
        for _ in range(2):
            readouts.append(SimulatedReadout(cell.states_train, cfg.detector, seed=77))
            runs.append(train_cmaes(readouts[-1], d, sweep, iterations, population, 5, spb, skip))
        (got_sigma, got), (want_sigma, want) = runs
        assert got_sigma == want_sigma
        for field in ("history", "history_x", "best_x", "mean", "cov"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        assert [r.presentations for r in readouts] == [len(sweep) * iterations * population] * 2

    def test_negative_skip_presents_nothing(self):
        _, readout, d, spb = _toy_problem(seed=4)
        with pytest.raises(ValueError, match="skip_bits must be non-negative, got -5"):
            train_cmaes(readout, d, (0.1, 1.0), 3, 4, 1, spb, -5)
        assert readout.presentations == 0

    def test_history_monotone(self):
        _, readout, d, spb = _toy_problem(seed=7)
        _, run = train_cmaes(readout, d, (0.5,), 30, None, 8, spb, 0)
        assert np.all(np.diff(run.history) <= 0.0)


class _RecordingReadout:
    """A readout that keeps a copy of every weight matrix it is shown."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = []

    @property
    def n_channels(self):
        return self._inner.n_channels

    @property
    def presentations(self):
        return self._inner.presentations

    def score_sampled(self, weights, *args):
        self.calls.append(np.array(weights))
        return self._inner.score_sampled(weights, *args)


class TestLockstep:
    def test_searches_match_separate_runs(self):
        # Searches of different settings, lengths and populations, run side
        # by side on a deterministic objective, each end exactly as alone.
        from photonrc.cmaes import _lockstep, _search

        def objective(c):
            return np.sum(100.0 * (c[:, 1:] - c[:, :-1] ** 2) ** 2 + (1 - c[:, :-1]) ** 2, axis=1)

        dim = 5
        runs = [
            dict(sigma0=0.5, iterations=40, seed=3, population=None, x0=np.full(dim, 0.4)),
            dict(sigma0=1e-3, iterations=40, seed=8, population=None, x0=np.zeros(dim)),
            dict(sigma0=2.0, iterations=25, seed=8, population=9, x0=None),
        ]
        got = _lockstep(objective, [_search(dim, **kw) for kw in runs])
        for run, kw in zip(got, runs):
            want = cmaes_minimize(objective, dim, **kw)
            for field in dataclasses.fields(want):
                a, b = getattr(run, field.name), getattr(want, field.name)
                assert type(a) is type(b), field.name
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name

    def test_readout_sees_one_run_major_call_per_generation(self):
        # Noise-free, so every candidate scores as in a run of its own: the
        # readout's call of generation g holds run 0's candidates of that
        # generation, then run 1's, and so on.
        from photonrc.cmaes import _decode

        sweep, iterations, population, seed = (1e-2, 0.1, 1.0), 6, 5, 17
        _, inner, d, spb = _toy_problem(seed=4)
        readout = _RecordingReadout(inner)
        train_cmaes(readout, d, sweep, iterations, population, seed, spb, 0)
        dim = 2 * readout.n_channels
        assert [w.shape for w in readout.calls] == [(dim // 2, len(sweep) * population)] * iterations
        assert readout.presentations == len(sweep) * iterations * population

        alone = []
        for i, sigma0 in enumerate(sweep):
            _, solo, _, _ = _toy_problem(seed=4)
            solo = _RecordingReadout(solo)
            run_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
            def objective(c, solo=solo):
                return solo.score_sampled(_decode(c).T, d, spb, spb // 2, 0)

            cmaes_minimize(objective, dim, sigma0, iterations, run_seed, population, x0=np.zeros(dim))
            alone.append(solo.calls)
        for g, weights in enumerate(readout.calls):
            assert np.array_equal(weights, np.concatenate([calls[g] for calls in alone], axis=1)), g

    @pytest.mark.parametrize(
        "sweep",
        [(-1.0, 0.1, 1.0), (0.1, math.nan, 1.0), (0.1, 1.0, 0.0), (0.1, 1.0, math.inf)],
        ids=["first-negative", "middle-nan", "last-zero", "last-inf"],
    )
    def test_bad_sigma_anywhere_rejected_before_any_presentation(self, sweep):
        _, inner, d, spb = _toy_problem(seed=2)
        readout = _RecordingReadout(inner)
        with pytest.raises(ValueError, match="step size"):
            train_cmaes(readout, d, sweep, 5, None, 1, spb, 0)
        assert readout.calls == []
        assert readout.presentations == 0
