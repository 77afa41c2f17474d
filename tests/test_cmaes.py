import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonrc.cmaes import (
    CmaConfig,
    bit_sse,
    cmaes_minimize,
    decode_weights,
    default_population,
    encode_weights,
    train_cmaes,
)
from photonrc.detector import DetectorConfig, ReadoutWeights, readout_forward
from photonrc.harness import bit_error_rate, decide_bits, threshold_level
from photonrc.reservoir import StateMatrix
from photonrc.signals import DesiredSignal
from photonrc.stateest import SimulatedReadout

RAW = DetectorConfig(noise_enabled=False, filter_enabled=False)


def _rowwise(f):
    """Generation objective that scores each candidate row with scalar ``f``."""
    return lambda candidates: np.array([f(x) for x in candidates])


class TestEncoding:
    def test_explicit_example(self):
        w = ReadoutWeights(np.array([1 + 2j, 3 - 1j]))
        assert encode_weights(w).tolist() == [1.0, 3.0, 2.0, -1.0]

    def test_zero_vector(self):
        assert np.all(encode_weights(np.zeros(5, complex)) == 0.0)
        assert encode_weights(np.zeros(5, complex)).size == 10

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
        assert np.array_equal(decode_weights(encode_weights(w)).values, w)


class TestPopulation:
    def test_default_formula(self):
        # 17 complex channels -> 34 real parameters -> 4 + floor(3 ln 34).
        assert default_population(34) == 14
        assert default_population(10) == 10
        assert default_population(1) == 4


class TestSseObjective:
    def _held_states(self, per_bit, spb=8):
        col = np.repeat(per_bit, spb).astype(complex)
        return StateMatrix(col[:, None], 1e-11, ("ch0",))

    def test_perfect_match_zero(self):
        # p_total = 0.125 keeps every intermediate value an exact binary
        # fraction, so the identity holds with zero floating-point slack.
        d = DesiredSignal(np.array([1, 0, 1, 1]), p_total=0.125)
        amp = np.sqrt(d.scaled / RAW.responsivity)
        states = self._held_states(amp)
        y = readout_forward(states, np.ones(1, complex), RAW).samples
        assert bit_sse(y, d, 8, 4, 0) == 0.0

    def test_constant_offset(self):
        n = 50
        d = DesiredSignal(np.zeros(n, dtype=int), p_total=0.1)
        eps = 0.003
        states = self._held_states(np.full(n, np.sqrt(eps / RAW.responsivity)))
        y = readout_forward(states, np.ones(1, complex), RAW).samples
        assert np.isclose(bit_sse(y, d, 8, 4, 0), n * eps**2, rtol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        n_bits, spb = 20, 6
        states = StateMatrix(
            rng.normal(size=(n_bits * spb, 3)) + 1j * rng.normal(size=(n_bits * spb, 3)),
            1e-11,
            ("a", "b", "c"),
        )
        w = rng.normal(size=3) + 1j * rng.normal(size=3)
        d = DesiredSignal(rng.integers(0, 2, n_bits), p_total=0.1)
        offset = 4
        got = bit_sse(readout_forward(states, w, RAW).samples, d, spb, offset, 2)
        total = 0.0
        for m in range(2, n_bits):
            y = RAW.responsivity * abs(states.samples[offset + m * spb] @ w) ** 2
            total += (y - d.scaled[m]) ** 2
        assert np.isclose(got, total, rtol=1e-12)

    def test_block_scores_each_row(self):
        rng = np.random.default_rng(3)
        d = DesiredSignal(rng.integers(0, 2, 40), p_total=0.1)
        y = rng.normal(scale=0.05, size=(5, 40 * 6))
        got = bit_sse(y, d, 6, 2, 3)
        assert got.shape == (5,)
        assert np.array_equal(got, [bit_sse(row, d, 6, 2, 3) for row in y])


def _reference_minimize(f, dim, cfg, x0=None):
    """Scalar-loop CMA-ES: one objective call per candidate, in order (the oracle)."""
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
    mean = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    cov, sigma = np.eye(n), float(cfg.initial_sigma)
    p_sigma, p_c = np.zeros(n), np.zeros(n)
    best_x, best_f, history, evaluations = mean.copy(), math.inf, [], 0
    for iteration in range(1, cfg.max_iterations + 1):
        eigvals, eigvecs = np.linalg.eigh(cov)
        eigvals = np.maximum(eigvals, 1e-300)
        scale = eigvecs * np.sqrt(eigvals)
        inv_sqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
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
        if cfg.target_sse is not None and best_f <= cfg.target_sse:
            break
    return best_x, np.asarray(history), evaluations


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))


class TestAskTell:
    @pytest.mark.parametrize(
        "f, batched, dim, cfg",
        [
            (
                lambda x: float(np.sum(x**2)),
                lambda c: np.sum(c**2, axis=1),
                6,
                CmaConfig(initial_sigma=0.7, max_iterations=120, seed=13),
            ),
            (
                _rosenbrock,
                lambda c: np.sum(100.0 * (c[:, 1:] - c[:, :-1] ** 2) ** 2 + (1 - c[:, :-1]) ** 2, axis=1),
                5,
                CmaConfig(initial_sigma=0.5, population=9, max_iterations=150, seed=29),
            ),
            (
                lambda x: float(np.sum(x**2)),
                lambda c: np.sum(c**2, axis=1),
                3,
                CmaConfig(initial_sigma=1.0, max_iterations=500, seed=2, target_sse=1e-3),
            ),
        ],
        ids=["sphere", "rosenbrock", "sphere-target"],
    )
    def test_generation_matches_scalar_loop(self, f, batched, dim, cfg):
        best_x, history, evaluations = _reference_minimize(f, dim, cfg, x0=np.full(dim, 0.4))
        for objective in (_rowwise(f), batched):
            result = cmaes_minimize(objective, dim, cfg, x0=np.full(dim, 0.4))
            assert np.array_equal(result.best_x, best_x)
            assert np.array_equal(result.history, history)
            assert result.evaluations == evaluations

    def test_objective_sees_whole_generation(self):
        shapes = []

        def objective(candidates):
            shapes.append(candidates.shape)
            return np.sum(candidates**2, axis=1)

        cmaes_minimize(objective, 4, CmaConfig(population=7, max_iterations=5, seed=0))
        assert shapes == [(7, 4)] * 5

    def test_wrong_value_count_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            cmaes_minimize(lambda c: np.zeros(len(c) - 1), 3, CmaConfig(max_iterations=2, seed=0))


class TestCmaesMinimize:
    def test_sphere_convergence(self):
        cfg = CmaConfig(initial_sigma=1.0, max_iterations=300, seed=7)
        result = cmaes_minimize(_rowwise(lambda x: float(np.sum(x**2))), 10, cfg, x0=np.full(10, 0.5))
        assert result.best_f < 1e-10

    def test_one_dimensional_quadratic(self):
        cfg = CmaConfig(initial_sigma=1.0, max_iterations=300, seed=3)
        result = cmaes_minimize(_rowwise(lambda x: float((x[0] - 3.0) ** 2)), 1, cfg)
        assert abs(result.state.mean[0] - 3.0) < 1e-6

    def test_history_is_best_so_far(self):
        cfg = CmaConfig(initial_sigma=0.5, max_iterations=60, seed=1)
        result = cmaes_minimize(_rowwise(lambda x: float(np.sum(x**2)) + 1.0), 4, cfg, x0=np.ones(4))
        assert len(result.history) == 60
        assert np.all(np.diff(result.history) <= 0.0)
        assert result.history[-1] == result.best_f

    def test_deterministic_given_seed(self):
        cfg = CmaConfig(initial_sigma=0.3, max_iterations=40, seed=11)
        f = _rowwise(lambda x: float(np.sum((x - 1.0) ** 2)))
        r1 = cmaes_minimize(f, 5, cfg)
        r2 = cmaes_minimize(f, 5, cfg)
        assert np.array_equal(r1.history, r2.history)
        assert np.array_equal(r1.best_x, r2.best_x)

    def test_covariance_stays_positive_definite(self):
        tracked = []
        cfg = CmaConfig(initial_sigma=1.0, max_iterations=80, seed=5)

        def rosenbrock(x):
            return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))

        def watch(it):
            tracked.append(it.sigma)

        result = cmaes_minimize(_rowwise(rosenbrock), 6, cfg, callback=watch)
        eigvals = np.linalg.eigvalsh(result.state.cov)
        assert eigvals.min() > 0.0
        assert np.allclose(result.state.cov, result.state.cov.T)
        assert len(tracked) == 80

    def test_evaluation_budget(self):
        cfg = CmaConfig(initial_sigma=1.0, population=8, max_iterations=25, seed=2)
        result = cmaes_minimize(_rowwise(lambda x: float(np.sum(x**2))), 3, cfg)
        assert result.evaluations == 25 * 8

    def test_target_stops_early(self):
        cfg = CmaConfig(initial_sigma=1.0, max_iterations=500, seed=2, target_sse=1e-3)
        result = cmaes_minimize(_rowwise(lambda x: float(np.sum(x**2))), 3, cfg)
        assert result.best_f <= 1e-3
        assert result.iterations < 500

    def test_non_finite_objective_aborts(self):
        cfg = CmaConfig(initial_sigma=1.0, max_iterations=10, seed=0)
        # Only the third candidate of the first generation is poisoned; the
        # message must point at it.
        def objective(candidates):
            values = np.sum(candidates**2, axis=1)
            values[2] = np.nan
            return values

        with pytest.raises(RuntimeError, match="non-finite .* iteration 1, candidate 2 "):
            cmaes_minimize(objective, 2, cfg)

    def test_degenerate_covariance_raises(self):
        # sigma0 near the float limit overflows the samples and turns the
        # covariance NaN; the eigenvalue check must raise even under -O.
        cfg = CmaConfig(initial_sigma=1e308, max_iterations=5, seed=1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RuntimeError, match="iteration"):
            cmaes_minimize(lambda c: np.zeros(len(c)), 2, cfg)

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            cmaes_minimize(lambda c: np.zeros(len(c)), 0, CmaConfig())


class TestTrainCmaes:
    def _toy_problem(self, n_bits=60, spb=4, seed=0):
        # Channel 0 carries exactly the detector-inverted target; channel 1
        # is a decoy.  Weight (1, 0) solves the task with zero error.
        rng = np.random.default_rng(seed)
        d = DesiredSignal(rng.integers(0, 2, n_bits), p_total=0.1)
        good = np.repeat(np.sqrt(d.scaled / RAW.responsivity), spb)
        decoy = np.repeat(rng.normal(size=n_bits), spb) * 0.05
        states = StateMatrix(np.stack([good, decoy], axis=1).astype(complex), 1e-10, ("a", "b"))
        return states, SimulatedReadout(states, RAW), d, spb

    def test_separable_toy_reaches_zero_ber(self):
        states, readout, d, spb = self._toy_problem()
        cma = CmaConfig(max_iterations=150, seed=21)
        result = train_cmaes(readout, d, cma, samples_per_bit=spb, sigma_sweep=(0.1, 1.0))
        y = RAW.responsivity * np.abs(states.samples @ result.weights.values) ** 2
        sampled = decide_bits(y, spb, spb // 2, threshold_level(y))
        assert bit_error_rate(sampled[: len(d)], d.ideal) == 0.0

    def test_sweep_returns_minimum_sse_member(self, monkeypatch):
        # Stub the optimizer so each sweep member lands on a known value;
        # the per-member outcome includes a tie to check the tie-break.
        import photonrc.cmaes as cmaes_mod

        _, readout, d, spb = self._toy_problem(seed=3)
        outcomes = {1e-4: 3.0, 1e-2: 1.0, 1.0: 1.0, 10.0: 2.0}
        seen = []

        def fake_minimize(objective, dim, cfg, x0=None, callback=None):
            objective(np.zeros(dim))  # consume one presentation
            seen.append(cfg.initial_sigma)
            f = outcomes[cfg.initial_sigma]
            return cmaes_mod.CmaResult(
                best_x=np.zeros(dim),
                best_f=f,
                history=np.array([f]),
                evaluations=1,
                iterations=1,
                state=None,
            )

        monkeypatch.setattr(cmaes_mod, "cmaes_minimize", fake_minimize)
        best = cmaes_mod.train_cmaes(
            readout,
            d,
            CmaConfig(seed=4),
            samples_per_bit=spb,
            sigma_sweep=tuple(outcomes),
        )
        assert seen == sorted(outcomes)
        assert best.sse == 1.0
        assert best.sigma0 == 1e-2  # tie between 1e-2 and 1.0 -> smaller wins
        assert best.presentations == len(outcomes)

    def test_presentation_accounting(self):
        _, readout, d, spb = self._toy_problem(seed=5)
        cma = CmaConfig(max_iterations=10, population=6, seed=6)
        result = train_cmaes(readout, d, cma, samples_per_bit=spb, sigma_sweep=(0.1, 1.0))
        assert result.presentations == 2 * 10 * 6
        assert result.presentations_winner == 10 * 6

    def test_presentations_on_reused_readout(self):
        # Presentations made before the sweep are not charged to it.
        _, readout, d, spb = self._toy_problem(seed=10)
        readout.present(np.zeros(readout.n_channels, complex))
        cma = CmaConfig(max_iterations=3, population=4, seed=1)
        result = train_cmaes(readout, d, cma, samples_per_bit=spb, sigma_sweep=(0.1,))
        assert result.presentations == result.presentations_winner == 3 * 4
        assert readout.presentations == 1 + 3 * 4

    def test_callback_needs_single_sigma(self):
        # A callback follows one run; a multi-member sweep must not drop it.
        _, readout, d, spb = self._toy_problem(seed=11)
        cma = CmaConfig(max_iterations=2, population=4, seed=2)
        with pytest.raises(ValueError, match="single-member"):
            train_cmaes(
                readout, d, cma, samples_per_bit=spb, sigma_sweep=(0.1, 1.0), callback=lambda it: None
            )
        assert readout.presentations == 0
        seen = []
        train_cmaes(readout, d, cma, samples_per_bit=spb, sigma_sweep=(0.1,), callback=seen.append)
        assert [it.iteration for it in seen] == [1, 2]

    def test_history_monotone(self):
        _, readout, d, spb = self._toy_problem(seed=7)
        cma = CmaConfig(max_iterations=30, seed=8)
        result = train_cmaes(readout, d, cma, samples_per_bit=spb, sigma_sweep=(0.5,))
        assert np.all(np.diff(result.history) <= 0.0)
