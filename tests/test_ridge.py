import logging
import tracemalloc

import numpy as np
import pytest

from photonrc.detector import DetectorConfig
from photonrc.reservoir import StateMatrix
from photonrc import ridge
from photonrc.ridge import (
    _SCORE_ROWS,
    _penalty_diag,
    _solve_regularized,
    candidate_alphas,
    cv_alpha,
    invert_target,
    ridge_problem,
)
from photonrc.signals import OpticalSignal

from oracles import block_system_conjugated, mean_squared_modulus, photodiode


def _random_system(n, f, seed, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, f)) + 1j * rng.normal(size=(n, f))
    w_true = rng.normal(size=f) + 1j * rng.normal(size=f)
    t = x @ w_true + noise * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return x, w_true, t


def _states(x, bias_index=None):
    """Wrap a sample array as a state matrix, by default without a bias line."""
    return StateMatrix(x, 1e-11, bias_index)


def _ridge(x, t, alpha, penalty_mask=None):
    """Ridge weights through the solve ``cv_alpha`` refits with.

    ``(X^H X + alpha^2 diag(mask)) w = X^H t``; every channel is
    penalized unless ``penalty_mask`` says otherwise.
    """
    mask = np.ones(x.shape[1]) if penalty_mask is None else np.asarray(penalty_mask, float)
    return _solve_regularized(x.conj().T @ x, x.conj().T @ t, alpha**2 * mask)


@pytest.fixture
def grid(monkeypatch):
    """Replace the candidate alphas of ``cv_alpha`` with a fixed tuple."""

    def use(alphas):
        monkeypatch.setattr(ridge, "candidate_alphas", lambda states: tuple(alphas))

    return use


def _augmented_oracle(x, t, alpha, penalty_mask=None):
    """Stacked least-squares solved by SVD: an independent numerical path."""
    f = x.shape[1]
    mask = np.ones(f) if penalty_mask is None else np.asarray(penalty_mask, float)
    stacked = np.vstack([x, alpha * np.diag(mask)])
    rhs = np.concatenate([t, np.zeros(f)])
    w, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
    return w


def _reference_cv_alpha(states, target):
    """The fold loop over five copied index blocks, one fit per fold and alpha.

    Returns the chosen alpha, its refit weights and the CV curve.
    """
    x = states.samples
    t = np.asarray(target)
    grid = np.sort(np.asarray(ridge.candidate_alphas(x), dtype=np.float64))
    blocks = np.array_split(np.arange(x.shape[0]), 5)
    grams = [x[b].conj().T @ x[b] for b in blocks]
    rhss = [x[b].conj().T @ t[b] for b in blocks]
    gram_total = np.sum(grams, axis=0)
    rhs_total = np.sum(rhss, axis=0)
    pen_diag = _penalty_diag(states)
    mean_errors = np.full(len(grid), np.inf)
    for i, alpha in enumerate(grid):
        errors = []
        try:
            for b, gram_b, rhs_b in zip(blocks, grams, rhss):
                w = _solve_regularized(gram_total - gram_b, rhs_total - rhs_b, alpha**2 * pen_diag)
                pred = np.abs(x[b] @ w)
                errors.append(float(np.mean((pred - t[b]) ** 2)))
        except np.linalg.LinAlgError:
            continue
        mean_errors[i] = np.mean(errors)
    best = int(np.argmin(mean_errors))
    alpha_star = float(grid[best])
    w_final = _solve_regularized(gram_total, rhs_total, alpha_star**2 * pen_diag)
    return alpha_star, w_final, mean_errors


def _assert_cv_matches_reference(states, target):
    alpha, w = cv_alpha(states, target)
    ref_alpha, ref_w, curve = _reference_cv_alpha(states, target)
    assert alpha == ref_alpha
    assert w.tobytes() == ref_w.tobytes()
    return curve


class TestInvertTarget:
    def test_zero(self):
        assert invert_target(np.zeros(4), 0.5).tolist() == [0, 0, 0, 0]

    def test_explicit_value(self):
        out = invert_target(np.array([0.1]), 0.5)
        assert np.isclose(out[0], np.sqrt(0.2))
        assert np.isclose(out[0], 0.44721, atol=1e-5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            invert_target(np.array([0.1, -0.2]), 0.5)

    def test_detector_inversion_identity(self):
        # Feeding sqrt(d/R) through a noiseless, unfiltered detector gives d back.
        d = np.array([0.0, 0.1, 0.1, 0.0, 0.025])
        amp = invert_target(d, 0.5)
        cfg = DetectorConfig(noise_enabled=False, filter_enabled=False)
        y = photodiode(OpticalSignal(amp.astype(complex), 1e-11), cfg)
        assert np.allclose(y, d, rtol=1e-12, atol=1e-18)


class TestRidgeProblem:
    def test_negative_skip_rejected(self):
        # It used to keep the last 2 bits' 48 rows.
        states = StateMatrix(np.ones((240, 1), dtype=complex), 1e-11)
        with pytest.raises(ValueError, match="skip_bits must be non-negative, got -2"):
            ridge_problem(states, np.full(10, 0.1), 0.5, 24, skip_bits=-2)


class TestRidgeSolve:
    def test_diagonal_example(self):
        w = _ridge(np.eye(2), np.array([1.0, 0.0]), alpha=1.0)
        assert np.allclose(w, [0.5, 0.0])

    def test_exact_solve_alpha_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        t = rng.normal(size=4) + 1j * rng.normal(size=4)
        w = _ridge(x, t, alpha=0.0)
        assert np.allclose(x @ w, t, rtol=1e-9)

    def test_matches_independent_oracle(self):
        for seed in range(5):
            x, _, t = _random_system(50, 5, seed, noise=0.3)
            for alpha in (1e-3, 0.1, 1.0, 10.0):
                w = _ridge(x, t, alpha)
                w_oracle = _augmented_oracle(x, t, alpha)
                assert np.linalg.norm(w - w_oracle) <= 1e-10 * np.linalg.norm(w_oracle)

    def test_bias_channel_not_penalized(self):
        x, _, t = _random_system(60, 4, 3, noise=0.2)
        bias = np.ones((60, 1), dtype=complex)
        xb = np.hstack([x, bias])
        mask = _penalty_diag(_states(xb, bias_index=4))
        assert mask.tolist() == [1.0, 1.0, 1.0, 1.0, 0.0]
        w = _ridge(xb, t, alpha=2.0, penalty_mask=mask)
        w_oracle = _augmented_oracle(xb, t, 2.0, penalty_mask=mask)
        assert np.allclose(w, w_oracle, rtol=1e-9)

    def test_singular_at_alpha_zero(self):
        x = np.ones((6, 3), dtype=complex)  # rank 1
        t = np.ones(6, dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            _ridge(x, t, alpha=0.0)

    def test_monotone_shrinkage(self):
        x, _, t = _random_system(40, 6, 9, noise=0.5)
        alphas = [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0]
        norms = [np.linalg.norm(_ridge(x, t, a)) for a in alphas]
        assert all(n1 >= n2 - 1e-12 for n1, n2 in zip(norms, norms[1:]))

    def test_real_system_gives_real_weights(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 5)).astype(complex)
        t = rng.normal(size=30)
        w = _ridge(x, t, alpha=0.5)
        assert np.max(np.abs(w.imag)) <= 1e-12

    def test_gradient_descent_oracle(self):
        # Wirtinger gradient descent on |Xw - t|^2 + a^2 |w|^2 converges to
        # the same minimizer on a small well-conditioned instance.
        x, _, t = _random_system(30, 3, 7, noise=0.2)
        alpha = 0.7
        w = np.zeros(3, dtype=complex)
        lipschitz = np.linalg.norm(x.conj().T @ x, 2) + alpha**2
        step = 1.0 / lipschitz
        for _ in range(20000):
            grad = x.conj().T @ (x @ w - t) + alpha**2 * w
            w = w - step * grad
        assert np.allclose(w, _ridge(x, t, alpha), atol=1e-8)

    def test_local_minimality(self):
        x, _, t = _random_system(25, 4, 11, noise=0.4)
        alpha = 0.9
        w = _ridge(x, t, alpha)

        def objective(v):
            return np.sum(np.abs(x @ v - t) ** 2) + alpha**2 * np.sum(np.abs(v) ** 2)

        base = objective(w)
        rng = np.random.default_rng(0)
        for _ in range(50):
            delta = 1e-4 * (rng.normal(size=4) + 1j * rng.normal(size=4))
            assert objective(w + delta) >= base


class TestCvAlpha:
    def test_single_alpha_grid(self, grid):
        grid((0.25,))
        x, _, t = _random_system(40, 3, 1, noise=0.1)
        alpha, w = cv_alpha(_states(x), np.abs(t))
        assert alpha == 0.25
        assert len(w) == 3

    def test_noiseless_system_picks_smallest_alpha(self, grid):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(100, 4)) + 1j * rng.normal(size=(100, 4))
        w_true = rng.normal(size=4) + 1j * rng.normal(size=4)
        t = np.abs(x @ w_true)  # exactly representable modulus target
        grid((1e-6, 1e-3, 1.0, 10.0))
        alpha, _ = cv_alpha(_states(x), t)
        assert alpha == 1e-6

    def test_pure_noise_target_prefers_shrinkage(self, grid):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(200, 6)) + 1j * rng.normal(size=(200, 6))
        t = rng.normal(size=200)  # independent of x
        alphas = tuple(10.0**k for k in range(-6, 4))
        grid(alphas)
        alpha, _ = cv_alpha(_states(x), t)
        assert alpha >= np.median(alphas)

    def test_too_few_samples_rejected(self):
        x, _, t = _random_system(4, 2, 5)
        with pytest.raises(ValueError, match="folds"):
            cv_alpha(_states(x), np.abs(t))

    def test_state_matrix_bias_exemption(self, grid):
        rng = np.random.default_rng(8)
        arr = rng.normal(size=(90, 3)) + 1j * rng.normal(size=(90, 3))
        arr[:, 2] = 0.14
        states = StateMatrix(arr, 1e-11, bias_index=2)
        t = np.abs(arr @ np.array([0.2, -0.4j, 1.0]))
        grid((5.0,))
        alpha, w = cv_alpha(states, t)
        w_oracle = _augmented_oracle(arr, t, 5.0, penalty_mask=np.array([1.0, 1.0, 0.0]))
        assert np.allclose(w, w_oracle, rtol=1e-8)

    def test_singular_alpha_is_dropped(self, grid, caplog):
        # alpha = 0 leaves the all-zero column unconstrained; alpha = 1 is
        # well posed and must still be selected.
        rng = np.random.default_rng(12)
        x = rng.normal(size=(100, 3)) + 1j * rng.normal(size=(100, 3))
        x[:, 1] = 0.0
        t = np.abs(x @ np.array([1.0, 0.0, 0.5j]))
        grid((0.0, 1.0))
        with caplog.at_level(logging.WARNING, logger="photonrc.ridge"):
            alpha, w = cv_alpha(_states(x), t)
        assert alpha == 1.0
        assert np.isfinite(w).all()
        assert "alpha=0" in caplog.text and "singular" in caplog.text

    def test_all_singular_grid_raises(self, grid):
        grid((0.0,))
        x = np.zeros((20, 2), dtype=complex)
        with pytest.raises(np.linalg.LinAlgError, match="every alpha"):
            cv_alpha(_states(x), np.ones(20))

    def test_default_grid_scales_with_power(self):
        small = candidate_alphas(0.01 * np.ones((10, 2)))
        large = candidate_alphas(1.0 * np.ones((10, 2)))
        assert len(small) == len(large) == 15
        assert small[0] < large[0]

    def test_grid_bytes_match_the_squared_modulus_expression(self):
        # The in-place square gives the grid of np.abs(x) ** 2, bit for bit.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(20000, 17)) + 1j * rng.normal(size=(20000, 17))
        x *= np.exp(rng.uniform(-20.0, 5.0, size=(20000, 1)))
        scale = float(np.mean(np.abs(x) ** 2))
        old = tuple(scale * 10.0**k for k in range(-12, 3))
        assert np.array(candidate_alphas(x)).tobytes() == np.array(old).tobytes()


class TestCvAlphaReference:
    """``cv_alpha`` selects and refits exactly as the copying fold loop does."""

    @pytest.mark.parametrize("n", [210, 211, 212, 213, 214])
    def test_ragged_folds(self, grid, n):
        # Every remainder of n modulo the 5 folds, 0 through 4.
        grid(tuple(10.0**k for k in range(-3, 4)))
        for seed in range(3):
            x, _, t = _random_system(n, 4, 10 * n + seed, noise=0.5)
            curve = _assert_cv_matches_reference(_states(x), np.abs(t))
            assert np.isfinite(curve).all()

    def test_interior_choice(self, grid):
        # A weak signal in strong noise is best fit by an alpha inside the
        # grid, so an error reused across different weights would change
        # the choice.
        rng = np.random.default_rng(21)
        x = rng.normal(size=(150, 6)) + 1j * rng.normal(size=(150, 6))
        t = 0.3 * np.abs(x[:, 0]) - 0.3 + 0.5 * rng.normal(size=150)
        alphas = tuple(10.0**k for k in np.arange(-1.0, 3.5, 0.5))
        grid(alphas)
        alpha, _ = cv_alpha(_states(x), t)
        assert alphas[0] < alpha < alphas[-1]
        curve = _assert_cv_matches_reference(_states(x), t)
        assert np.unique(curve).size == len(alphas)

    def test_default_grid_with_tied_bottom(self):
        # The bottom alphas of the default grid add a penalty below the
        # rounding of the Gram diagonal: their weights, and so their
        # errors, are bit-identical.
        x, _, t = _random_system(997, 5, 31, noise=0.3)
        curve = _assert_cv_matches_reference(_states(x), np.abs(t))
        assert curve[0] == curve[1]
        assert np.unique(curve).size < curve.size

    def test_choice_decided_by_rounding(self, grid):
        # Penalties of 1e-17 .. 1e-13 of the Gram diagonal: the bottom ones
        # leave the weights bit-identical, the others move them in the last
        # digits.  On a pure-noise target the error still falls with alpha,
        # so an error shared by weights that differ changes the choice.
        rng = np.random.default_rng(2)
        x = rng.normal(size=(400, 5)) + 1j * rng.normal(size=(400, 5))
        t = rng.normal(size=400)
        diag = np.mean(np.sum(np.abs(x) ** 2, axis=0))
        grid(tuple(np.sqrt(diag * 10.0**-e) for e in np.arange(17.0, 12.5, -0.5)))
        curve = _assert_cv_matches_reference(_states(x), t)
        assert curve[0] == curve[1]
        assert 1 < np.unique(curve).size < curve.size
        assert np.argmin(curve) == curve.size - 1

    def test_singular_alpha(self, grid):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(103, 4)) + 1j * rng.normal(size=(103, 4))
        x[:, 2] = 0.0  # rank-deficient: alpha = 0 is singular
        t = np.abs(x @ np.array([0.4, -1.0j, 0.0, 0.3]) + 0.2 * rng.normal(size=103))
        grid((0.0, 1e-3, 1e-1, 10.0))
        curve = _assert_cv_matches_reference(_states(x), t)
        assert np.isinf(curve[0]) and np.isfinite(curve[1:]).all()

    @pytest.mark.parametrize("bias_index", [2, None])
    def test_bias_penalty(self, grid, bias_index):
        rng = np.random.default_rng(51)
        arr = rng.normal(size=(301, 4)) + 1j * rng.normal(size=(301, 4))
        arr[:, 2] = 0.14
        states = StateMatrix(arr, 1e-11, bias_index)
        t = np.abs(arr @ np.array([0.2, -0.4j, 1.0, 0.1]) + 0.3 * rng.normal(size=301))
        expected = [1.0, 1.0, 0.0 if bias_index == 2 else 1.0, 1.0]
        assert _penalty_diag(states).tolist() == expected
        _assert_cv_matches_reference(states, t)  # the default alphas
        grid((1e-2, 1.0, 3.0, 30.0))
        _assert_cv_matches_reference(states, t)


class TestCvCurveScoreChunks:
    """Scoring a fold chunk by chunk gives the reference curve, byte for byte."""

    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_fold_of_one_chunk_and_a_short_tail(self, grid, extra):
        # Folds of exactly one scoring chunk, of one chunk and a one-row
        # tail, which joins the chunk, and of one chunk and two rows.  The
        # last row of every fold is scaled up, with its target left as it
        # was: 17 channels leave it outside the span of the other folds'
        # last rows, so its misfit dominates the fold error, and a tail
        # scored as a one-row product of its own, which rounds
        # differently, shows in the curve.
        fold = _SCORE_ROWS + extra
        grid(tuple(10.0**k for k in range(-3, 4)))
        for seed in range(3):
            x, _, t = _random_system(5 * fold, 17, 10 * extra + seed, noise=0.5)
            x[fold - 1 :: fold] *= 1e3
            states, target = _states(x), np.abs(t)
            curve = _assert_cv_matches_reference(states, target)
            assert ridge._cv_curve(states, target)[1].tobytes() == curve.tobytes()

    @pytest.mark.parametrize(
        "n, chunks",
        [(1, [1]), (2, [2]), (_SCORE_ROWS, [_SCORE_ROWS]), (_SCORE_ROWS + 1, [_SCORE_ROWS + 1]),
         (_SCORE_ROWS + 2, [_SCORE_ROWS, 2]), (2 * _SCORE_ROWS + 1, [_SCORE_ROWS, _SCORE_ROWS + 1])],
    )
    def test_chunks_cover_the_fold_without_a_one_row_chunk(self, n, chunks):
        parts = ridge._score_chunks(n)
        assert [p.stop - p.start for p in parts] == chunks
        assert parts[0].start == 0 and parts[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(parts, parts[1:]))


class TestFoldSystem:
    """A fold block's Gram and right-hand side without a conjugate copy, byte for byte."""

    @pytest.mark.parametrize("n", [1, 2, 37, 9600, 48048])
    def test_bytes_match_conjugate_copy(self, n):
        for seed in range(2):
            x, _, t = _random_system(n, 17, 100 * n + seed)
            x *= 10.0 ** np.random.default_rng(seed).uniform(-3.0, 0.0, size=17)
            gram, rhs = ridge._block_system(x, np.abs(t))
            want_gram, want_rhs = block_system_conjugated(x, np.abs(t))
            assert gram.tobytes() == want_gram.tobytes()
            assert rhs.tobytes() == want_rhs.tobytes()


def _alpha_oracle(x):
    scale = mean_squared_modulus(x)
    if scale <= 0:
        scale = 1.0
    return np.array([scale * 10.0**k for k in range(-12, 3)])


class TestAlphaScale:
    """``candidate_alphas`` sums on numpy's pairwise tree, so the grid keeps the bytes of the whole-array mean."""

    @pytest.mark.parametrize(
        "shape",
        [(1, 1), (7, 1), (8, 1), (127, 1), (128, 1), (129, 1), (65535, 1), (65536, 1), (65537, 1),
         (240230, 17)],
    )
    def test_bytes_match_whole_array_mean(self, shape):
        rng = np.random.default_rng(shape[0])
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        x *= np.exp(rng.uniform(-20.0, 5.0, size=(shape[0], 1)))
        assert np.array(candidate_alphas(x)).tobytes() == _alpha_oracle(x).tobytes()

    @pytest.mark.parametrize("n", [131090, 300007])
    def test_sum_splits_where_numpy_does(self, n):
        # Halves that are not a multiple of 8 at several levels: a split
        # anywhere else gives another rounding for some of these seeds.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = (rng.normal(size=n) + 1j * rng.normal(size=n)) * np.exp(rng.uniform(-3.0, 3.0, size=n))
            want = np.add.reduce(np.square(np.abs(x)))
            assert ridge._sum_squared_moduli(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("layout", ["fortran", "strided", "real", "vector"])
    def test_other_layouts_keep_their_bytes(self, layout):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(70001, 5)) + 1j * rng.normal(size=(70001, 5))
        x = {
            "fortran": np.asfortranarray(x),
            "strided": x[::3, 1:4],
            "real": x.real.copy(),
            "vector": x[:, 2].copy(),
        }[layout]
        assert np.array(candidate_alphas(x)).tobytes() == _alpha_oracle(x).tobytes()

    def test_empty_input_keeps_its_grid(self):
        x = np.empty((0, 17), complex)
        with pytest.warns(RuntimeWarning):
            want = _alpha_oracle(x)
        with pytest.warns(RuntimeWarning):
            got = np.array(candidate_alphas(x))
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got).all()

    def test_allocates_less_than_one_float_copy(self):
        # A ci-length state matrix: 2010 bits x 24 samples, 17 channels.
        rng = np.random.default_rng(3)
        x = rng.normal(size=(48240, 17)) + 1j * rng.normal(size=(48240, 17))
        tracemalloc.start()
        try:
            candidate_alphas(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.size * np.dtype(np.float64).itemsize
