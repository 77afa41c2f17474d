import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonrc.cmaes import (
    bit_sse,
    cmaes_minimize,
    decode_weights,
    default_population,
    train_cmaes,
)
from photonrc.detector import DetectorConfig, readout_forward
from photonrc.harness import bit_error_rate, decide_bits, threshold_level
from photonrc.reservoir import StateMatrix
from photonrc.stateest import SimulatedReadout

from oracles import bit_sse_direct, readout_sampled_loop

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
    def _held_states(self, per_bit, spb=8):
        col = np.repeat(per_bit, spb).astype(complex)
        return StateMatrix(col[:, None], 1e-11)

    def test_perfect_match_zero(self):
        # p_total = 0.125 keeps every intermediate value an exact binary
        # fraction, so the identity holds with zero floating-point slack.
        d = _power([1, 0, 1, 1], p_total=0.125)
        amp = np.sqrt(d / RAW.responsivity)
        states = self._held_states(amp)
        y = readout_forward(states, np.ones(1, complex), RAW)
        assert bit_sse(y, d, 8, 4, 0) == 0.0

    def test_constant_offset(self):
        n = 50
        d = _power(np.zeros(n, dtype=int))
        eps = 0.003
        states = self._held_states(np.full(n, np.sqrt(eps / RAW.responsivity)))
        y = readout_forward(states, np.ones(1, complex), RAW)
        assert np.isclose(bit_sse(y, d, 8, 4, 0), n * eps**2, rtol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        n_bits, spb = 20, 6
        states = StateMatrix(
            rng.normal(size=(n_bits * spb, 3)) + 1j * rng.normal(size=(n_bits * spb, 3)),
            1e-11,
        )
        w = rng.normal(size=3) + 1j * rng.normal(size=3)
        d = _power(rng.integers(0, 2, n_bits))
        offset = 4
        got = bit_sse(readout_forward(states, w, RAW), d, spb, offset, 2)
        total = 0.0
        for m in range(2, n_bits):
            y = RAW.responsivity * abs(states.samples[offset + m * spb] @ w) ** 2
            total += (y - d[m]) ** 2
        assert np.isclose(got, total, rtol=1e-12)

    @pytest.mark.parametrize("skip", [0, 10])
    @pytest.mark.parametrize("shape", [(40 * 6,), (14, 40 * 6), (3, 37 * 6 + 2)], ids=["1-D", "block", "short"])
    def test_bytes_match_direct_oracle(self, shape, skip):
        rng = np.random.default_rng(11)
        d = _power(rng.integers(0, 2, 40))
        y = rng.normal(scale=0.05, size=shape)
        got = bit_sse(y, d, 6, 2, skip)
        want = bit_sse_direct(y, d, 6, 2, skip)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_block_scores_each_row(self):
        rng = np.random.default_rng(3)
        d = _power(rng.integers(0, 2, 40))
        y = rng.normal(scale=0.05, size=(5, 40 * 6))
        got = bit_sse(y, d, 6, 2, 3)
        assert got.shape == (5,)
        assert np.array_equal(got, [bit_sse(row, d, 6, 2, 3) for row in y])


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

    rng = np.random.default_rng(seed)
    mean = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    cov, sigma = np.eye(n), float(sigma0)
    p_sigma, p_c = np.zeros(n), np.zeros(n)
    best_x, best_f, history, evaluations = mean.copy(), math.inf, [], 0
    for iteration in range(1, iterations + 1):
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

    def test_degenerate_covariance_raises(self):
        # sigma0 near the float limit overflows the samples and turns the
        # covariance NaN; the eigenvalue check must raise even under -O.
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
        ],
        ids=["sigma-zero", "sigma-negative", "sigma-nan", "sigma-inf", "population-3", "iterations-0"],
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


class TestTrainCmaes:
    def _toy_problem(self, n_bits=60, spb=4, seed=0):
        # Channel 0 carries exactly the detector-inverted target; channel 1
        # is a decoy.  Weight (1, 0) solves the task with zero error.
        rng = np.random.default_rng(seed)
        d = _power(rng.integers(0, 2, n_bits))
        good = np.repeat(np.sqrt(d / RAW.responsivity), spb)
        decoy = np.repeat(rng.normal(size=n_bits), spb) * 0.05
        states = StateMatrix(np.stack([good, decoy], axis=1).astype(complex), 1e-10)
        return states, SimulatedReadout(states, RAW), d, spb

    def test_separable_toy_reaches_zero_ber(self):
        states, readout, d, spb = self._toy_problem()
        _, run = train_cmaes(readout, d, (0.1, 1.0), 150, None, 21, spb, 0)
        y = RAW.responsivity * np.abs(states.samples @ decode_weights(run.best_x)) ** 2
        sampled = decide_bits(y, spb, spb // 2, threshold_level(y))
        assert bit_error_rate(sampled[: len(d)], d > 0) == 0.0

    def test_sweep_returns_minimum_sse_member(self, monkeypatch):
        # Stub the optimizer so each sweep member lands on a known value;
        # the per-member outcome includes a tie to check the tie-break,
        # which keeps the earlier member in either sweep order.
        import photonrc.cmaes as cmaes_mod

        outcomes = {1e-4: 3.0, 1e-2: 1.0, 1.0: 1.0, 10.0: 2.0}
        seen = []

        def fake_minimize(objective, dim, sigma0, iterations, seed, population=None, x0=None):
            objective(np.zeros(dim))  # consume one presentation
            seen.append(sigma0)
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

        monkeypatch.setattr(cmaes_mod, "cmaes_minimize", fake_minimize)
        for sweep, winner in ((sorted(outcomes), 1e-2), (sorted(outcomes, reverse=True), 1.0)):
            _, readout, d, spb = self._toy_problem(seed=3)
            seen.clear()
            sigma0, run = cmaes_mod.train_cmaes(readout, d, sweep, 1000, None, 4, spb, 0)
            assert seen == sweep
            assert run.best_f == 1.0
            assert sigma0 == winner  # tie between 1e-2 and 1.0 -> earlier member wins
            assert readout.presentations == len(outcomes)

    def test_toy_trains_on_the_sampled_path(self, monkeypatch):
        # The toy's 2 channels at 4 samples per bit are within F <= 2 * spb,
        # so training reads one sample per bit from one basis, built once.
        import photonrc.stateest as stateest_mod

        built = []
        original = stateest_mod.sampled_basis

        def counting(states, cfg, spb, offset):
            built.append((spb, offset))
            return original(states, cfg, spb, offset)

        monkeypatch.setattr(stateest_mod, "sampled_basis", counting)
        states, readout, d, spb = self._toy_problem()
        _, run = train_cmaes(readout, d, (0.1, 1.0), 150, None, 21, spb, 0)
        assert built == [(spb, spb // 2)]
        y = RAW.responsivity * np.abs(states.samples @ decode_weights(run.best_x)) ** 2
        sampled = decide_bits(y, spb, spb // 2, threshold_level(y))
        assert bit_error_rate(sampled[: len(d)], d > 0) == 0.0

    def test_one_dimensional_candidate_is_one_presentation(self):
        # An objective called with a single encoded vector (as a stubbed
        # optimizer may do) presents once and returns one score.
        from photonrc.cmaes import _ReadoutObjective

        _, readout, d, spb = self._toy_problem(seed=12)
        objective = _ReadoutObjective(readout, d, spb, spb // 2, 0)
        value = objective(np.zeros(2 * readout.n_channels))
        assert readout.presentations == 1
        assert np.ndim(value) == 0
        assert value == pytest.approx(float(np.sum(d**2)))
        assert objective(np.zeros((3, 2 * readout.n_channels))).shape == (3,)
        assert readout.presentations == 4

    def test_presentation_accounting(self):
        _, readout, d, spb = self._toy_problem(seed=5)
        _, run = train_cmaes(readout, d, (0.1, 1.0), 10, 6, 6, spb, 0)
        assert run.evaluations == 10 * 6
        assert readout.presentations == 2 * 10 * 6

    def test_presentations_on_reused_readout(self):
        # The readout counts every presentation: the sweep adds exactly its
        # own evaluations to the one made before it.
        _, readout, d, spb = self._toy_problem(seed=10)
        readout.present(np.zeros(readout.n_channels, complex))
        _, run = train_cmaes(readout, d, (0.1,), 3, 4, 1, spb, 0)
        assert readout.presentations == 1 + run.evaluations == 1 + 3 * 4

    def test_ci_cell_matches_loop_oracles(self, monkeypatch):
        # The package path against the loop forms of readout_sampled and
        # bit_sse on a ci cell: same noise stream, same scores, same run.
        import photonrc.cmaes as cmaes_mod
        from photonrc.config import ci_profile
        from photonrc.detector import sampled_basis
        from photonrc.harness import _power_target, _prepare_cell, _targets

        cfg = ci_profile()
        cell = _prepare_cell(cfg, 10.0, 0)
        d = _power_target(cfg, _targets(cell, "101")[0])
        spb, skip = cfg.samples_per_bit, cfg.warmup_bits
        sweep, iterations, population = (1e-3, 1e-1), 4, 14

        class LoopReadout:
            n_channels = cell.states_train.n_channels

            def __init__(self):
                self._basis = sampled_basis(cell.states_train, cfg.detector, spb, spb // 2)
                self._rng = np.random.default_rng(77)
                self.presentations = 0

            def present_sampled(self, weights, samples_per_bit, sample_offset):
                assert (samples_per_bit, sample_offset) == (spb, spb // 2)
                self.presentations += weights.shape[1]
                return readout_sampled_loop(self._basis, weights, rng=self._rng)

        class DirectObjective:
            def __init__(self, readout, target_w, samples_per_bit, sample_offset, skip_bits):
                self._args = readout, target_w, samples_per_bit, sample_offset, skip_bits

            def __call__(self, candidates):
                readout, target_w, samples_per_bit, sample_offset, skip_bits = self._args
                y = readout.present_sampled(cmaes_mod._decode(candidates).T, samples_per_bit, sample_offset)
                return bit_sse_direct(y, target_w, 1, 0, skip_bits)

        readout = SimulatedReadout(cell.states_train, cfg.detector, seed=77)
        got_sigma, got = train_cmaes(readout, d, sweep, iterations, population, 5, spb, skip)
        monkeypatch.setattr(cmaes_mod, "_ReadoutObjective", DirectObjective)
        loop = LoopReadout()
        want_sigma, want = train_cmaes(loop, d, sweep, iterations, population, 5, spb, skip)
        assert got_sigma == want_sigma
        for field in ("history", "history_x", "best_x", "mean", "cov"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        assert readout.presentations == loop.presentations == len(sweep) * iterations * population

    def test_history_monotone(self):
        _, readout, d, spb = self._toy_problem(seed=7)
        _, run = train_cmaes(readout, d, (0.5,), 30, None, 8, spb, 0)
        assert np.all(np.diff(run.history) <= 0.0)
