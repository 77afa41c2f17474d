import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import butter, freqz, lfilter

from photonrc.detector import (
    BOLTZMANN,
    DetectorConfig,
    ELEMENTARY_CHARGE,
    _BASIS_BITS,
    _BASIS_ROWS,
    _CHUNK_ROWS,
    _NOISE_ROWS,
    _butterworth,
    _channel_pairs,
    _channel_products,
    _sampled_modes,
    _sampled_noise,
    butterworth_cutoff,
    noise_variance,
    readout_forward,
    readout_sampled,
    sampled_basis,
)
from photonrc.reservoir import StateMatrix
from photonrc.signals import OpticalSignal
from photonrc.stateest import SimulatedReadout

from oracles import bit_sse_direct, noise_variance_scalar, photodiode, readout_sampled_loop

QUIET = DetectorConfig(noise_enabled=False)
RAW = DetectorConfig(noise_enabled=False, filter_enabled=False)


def _constant_signal(value, n=4096, period=1.0 / (24 * 10e9)):
    return OpticalSignal(np.full(n, value, dtype=complex), period)


class TestPhotodiode:
    def test_square_law_dc(self):
        # |0.2|^2 = 0.04 W at 0.5 A/W -> 0.02 A; DC passes the low-pass.
        y = photodiode(_constant_signal(0.2 + 0j), QUIET)
        assert np.allclose(y[-100:], 0.02, rtol=1e-6)
        y_raw = photodiode(_constant_signal(0.2 + 0j), RAW)
        assert np.allclose(y_raw, 0.02, rtol=1e-13)

    def test_zero_in_zero_out(self):
        y = photodiode(_constant_signal(0.0), QUIET)
        assert np.all(y == 0.0)

    def test_phase_blind(self):
        a = _constant_signal(0.1 * np.exp(0.7j))
        b = _constant_signal(0.1 + 0j)
        assert np.allclose(photodiode(a, RAW), photodiode(b, RAW), rtol=1e-12)

    def test_noise_variance_formula(self):
        cfg = DetectorConfig()
        got = noise_variance(0.02, cfg)
        expected = (
            2 * ELEMENTARY_CHARGE * 25e9 * (0.02 + 1e-10)
            + 4 * BOLTZMANN * 300.0 * 25e9 / 1e6
        )
        assert got == expected
        assert np.isclose(got, 1.602e-10, rtol=1e-3)

    @pytest.mark.parametrize(
        "cfg", [DetectorConfig(), DetectorConfig(dark_current_a=0.0, temperature_k=77.0, load_ohm=50.0)]
    )
    def test_noise_variance_array_matches_scalar(self, cfg):
        rng = np.random.default_rng(4)
        means = np.concatenate(
            [[-1.0, -1e-12, -0.0, 0.0, 1e-15, 3.3e-7, 0.02, 0.5, 17.0], 10.0 ** rng.uniform(-15, 1, 200)]
        )
        got = noise_variance(means, cfg)
        want = np.array([noise_variance_scalar(m, cfg) for m in means])
        assert got.tobytes() == want.tobytes()
        for m, v in zip(means, want):
            assert np.float64(noise_variance(m, cfg)).tobytes() == v.tobytes()
        # negative mean currents are clamped to 0
        assert np.all(got[:4] == noise_variance(0.0, cfg))

    def test_noise_variance_empirical(self):
        # Pre-filter noise on a constant signal: sample variance over 1e5
        # samples must sit within 5% of the configured variance.
        cfg = DetectorConfig(noise_enabled=True, filter_enabled=False)
        sig = _constant_signal(0.2 + 0j, n=100_000)
        clean = photodiode(sig, RAW)
        noisy = photodiode(sig, cfg, rng=np.random.default_rng(42))
        measured = np.var(noisy - clean)
        assert np.isclose(measured, noise_variance(0.02, cfg), rtol=0.05)

    def test_noise_reproducible_from_seed(self):
        cfg = DetectorConfig(filter_enabled=False)
        sig = _constant_signal(0.1, n=256)
        a = photodiode(sig, cfg, rng=np.random.default_rng(7))
        b = photodiode(sig, cfg, rng=np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_noise_independent_with_external_rng(self):
        cfg = DetectorConfig(filter_enabled=False)
        sig = _constant_signal(0.1, n=256)
        rng = np.random.default_rng(3)
        a = photodiode(sig, cfg, rng=rng)
        b = photodiode(sig, cfg, rng=rng)
        assert not np.array_equal(a, b)


class TestButterworth:
    def test_cutoff_magnitude(self):
        fs = 24 * 10e9
        cutoff = butterworth_cutoff(DetectorConfig(), fs)
        b, a = butter(4, cutoff, btype="low", fs=fs)
        _, h = freqz(b, a, worN=[cutoff], fs=fs)
        assert np.isclose(abs(h[0]), 1 / np.sqrt(2), rtol=0.01)

    def test_passband_monotone(self):
        fs = 24 * 10e9
        cutoff = butterworth_cutoff(DetectorConfig(), fs)
        b, a = butter(4, cutoff, btype="low", fs=fs)
        freqs = np.linspace(0, cutoff, 200)
        _, h = freqz(b, a, worN=freqs, fs=fs)
        mags = np.abs(h)
        assert np.all(np.diff(mags) <= 1e-9)

    def test_cutoff_capped_below_nyquist(self):
        fs = 24 * 1e9  # 1 Gbps: Nyquist 12 GHz < 25 GHz bandwidth
        cfg = DetectorConfig()
        assert butterworth_cutoff(cfg, fs) == 0.45 * fs
        fs_fast = 24 * 10e9
        assert butterworth_cutoff(cfg, fs_fast) == cfg.bandwidth_hz

    def test_filter_stable_at_low_sample_rate(self):
        sig = OpticalSignal(np.ones(2000, complex) * 0.1, 1.0 / (24 * 1e9))
        y = photodiode(sig, QUIET)
        assert np.isfinite(y).all()
        assert np.allclose(y[-50:], 0.005, rtol=1e-3)


class TestReadoutForward:
    def _states(self, columns):
        return StateMatrix(np.stack(columns, axis=1).astype(complex), 1e-11)

    def test_one_hot_selects_channel(self):
        rng = np.random.default_rng(0)
        x = self._states([rng.normal(size=64) + 1j * rng.normal(size=64) for _ in range(3)])
        w = np.zeros(3, complex)
        w[1] = 1.0
        direct = photodiode(OpticalSignal(x.samples[:, 1], x.sample_period), RAW)
        via_readout = readout_forward(x, w, RAW)
        assert np.allclose(via_readout, direct, rtol=1e-12)

    def test_zero_weights_zero_output(self):
        x = self._states([np.ones(32), np.ones(32)])
        y = readout_forward(x, np.zeros(2, complex), QUIET)
        assert np.all(y == 0.0)

    def test_coherent_cancellation(self):
        x = self._states([np.ones(32), -np.ones(32)])
        y = readout_forward(x, np.array([1.0, 1.0], complex), RAW)
        assert np.allclose(y, 0.0, atol=1e-15)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(1)
        x = self._states([rng.normal(size=128) + 1j * rng.normal(size=128) for _ in range(4)])
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        base = readout_forward(x, w, QUIET)
        for theta in (0.3, 1.7, np.pi):
            rotated = readout_forward(x, np.exp(1j * theta) * w, QUIET)
            assert np.allclose(rotated, base, rtol=1e-12, atol=1e-18)

    def test_per_sample_row_phase_invariance(self):
        rng = np.random.default_rng(2)
        x = self._states([rng.normal(size=128) + 1j * rng.normal(size=128) for _ in range(4)])
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        base = readout_forward(x, w, RAW)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=128))
        rotated = StateMatrix(x.samples * phases[:, None], x.sample_period, x.bias_index)
        assert np.allclose(readout_forward(rotated, w, RAW), base, rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        x = self._states([np.ones(8)])
        with pytest.raises(ValueError):
            readout_forward(x, np.ones(3, complex), QUIET)


def _reference_readout_forward(states, w, cfg, rng):
    """One presentation of one weight vector, computed on its own: the oracle."""
    current = cfg.responsivity * np.abs(states.samples @ w) ** 2
    if cfg.noise_enabled and current.size:
        sigma = np.sqrt(noise_variance(current.mean(), cfg))
        current = current + rng.normal(0.0, sigma, size=current.size)
    if cfg.filter_enabled and current.size:
        sample_rate = 1.0 / states.sample_period
        cutoff = butterworth_cutoff(cfg, sample_rate)
        b, den = butter(4, cutoff, btype="low", fs=sample_rate)
        current = lfilter(b, den, current)
    return current


class TestBatchedPresentation:
    PERIOD = 1.0 / (24 * 10e9)

    def _problem(self, n, k, seed=0, f=5):
        rng = np.random.default_rng(seed)
        x = 0.3 * (rng.normal(size=(n, f)) + 1j * rng.normal(size=(n, f)))
        w = rng.normal(size=(f, k)) + 1j * rng.normal(size=(f, k))
        return StateMatrix(x, self.PERIOD), w

    @pytest.mark.parametrize(
        "n", [_CHUNK_ROWS // 3, _CHUNK_ROWS, 2 * _CHUNK_ROWS + 123, 0], ids=["sub", "one", "ragged", "empty"]
    )
    @pytest.mark.parametrize("cfg", [DetectorConfig(), RAW], ids=["physical", "raw"])
    def test_rows_match_single_vector_oracle(self, n, cfg):
        states, w = self._problem(n, 6)
        got = readout_forward(states, w, cfg, rng=np.random.default_rng(9))
        assert got.shape == (6, n)
        rng = np.random.default_rng(9)
        for k in range(w.shape[1]):
            want = _reference_readout_forward(states, w[:, k], cfg, rng)
            scale = np.max(np.abs(want)) if n else 0.0
            np.testing.assert_allclose(got[k], want, rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("filtered", [True, False], ids=["filter", "no-filter"])
    def test_noise_draw_matches_normal_oracle(self, k, filtered):
        # Each row's noise, drawn as ``rng.normal(0.0, sigma)`` and added
        # before the filter, gives the bytes of the batched presentation.
        cfg = DetectorConfig(filter_enabled=filtered)
        states, w = self._problem(2 * _CHUNK_ROWS + 123, k)
        w = w[:, 0] if k == 1 else w
        current = readout_forward(states, w, RAW).reshape(k, -1)
        rng = np.random.default_rng(11)
        for row in current:
            row += rng.normal(0.0, np.sqrt(noise_variance(row.mean(), cfg)), size=row.size)
            if filtered:
                row[:] = lfilter(*_butterworth(cfg, 1.0 / self.PERIOD), row)
        got = readout_forward(states, w, cfg, rng=np.random.default_rng(11))
        assert got.shape == ((k, current.shape[1]) if k > 1 else (current.shape[1],))
        assert got.tobytes() == current.tobytes()

    def test_single_column_equals_vector(self):
        states, w = self._problem(1000, 1)
        one = SimulatedReadout(states, DetectorConfig(), seed=4)
        vec = SimulatedReadout(states, DetectorConfig(), seed=4)
        block = one.present(w)
        assert block.shape == (1, 1000)
        assert np.array_equal(block[0], vec.present(w[:, 0]))

    def test_presentations_grow_by_columns(self):
        states, w = self._problem(64, 7)
        readout = SimulatedReadout(states, DetectorConfig(), seed=1)
        readout.present(w)
        assert readout.presentations == 7
        readout.present(w[:, 2])
        assert readout.presentations == 8
        readout.present(w[:, 3].tolist())
        assert readout.presentations == 9

    def test_non_finite_weights_rejected(self):
        states, w = self._problem(64, 3)
        w[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            readout_forward(states, w, QUIET)
        with pytest.raises(ValueError, match="finite"):
            SimulatedReadout(states, QUIET).present(w[:, 2])

    def test_bad_weight_shape_rejected(self):
        states, w = self._problem(64, 2)
        with pytest.raises(ValueError):
            readout_forward(states, w[None], QUIET)
        with pytest.raises(ValueError):
            readout_forward(states, w[:-1], QUIET)
        readout = SimulatedReadout(states, QUIET)
        with pytest.raises(ValueError):
            readout.present(w[None])
        assert readout.presentations == 0

    def test_non_finite_output_rejected(self):
        # Finite weights whose square law overflows give an infinite photocurrent.
        states, w = self._problem(64, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="electrical samples must be finite"):
                readout_forward(states, 1e200 * w, RAW)
            with pytest.raises(ValueError, match="electrical samples must be finite"):
                SimulatedReadout(states, RAW).present(1e200 * w[:, 0])


class TestSampledPresentation:
    """The once-per-bit path against the full detector grid it stands for."""

    SPB = 24
    OFFSET = 12
    # ragged: the grid ends inside a bit, and the Gram chunks end inside bits
    N = 3 * _BASIS_ROWS + 7

    def _problem(self, bitrate_gbps=10.0, f=5, k=14, seed=0, spb=SPB):
        rng = np.random.default_rng(seed)
        x = 0.3 * (rng.normal(size=(self.N, f)) + 1j * rng.normal(size=(self.N, f)))
        w = rng.normal(size=(f, k)) + 1j * rng.normal(size=(f, k))
        period = 1.0 / (spb * bitrate_gbps * 1e9)
        return StateMatrix(x, period), w

    def _target(self, spb=SPB, seed=0):
        """A per-bit power target in W with a bit more than the grid holds at ``spb``."""
        return 0.1 * np.random.default_rng(seed).integers(0, 2, self.N // spb + 2).astype(np.float64)

    @pytest.mark.parametrize("k", [1, 14], ids=["vector", "block"])
    @pytest.mark.parametrize("cfg", [QUIET, RAW], ids=["filter", "no-filter"])
    @pytest.mark.parametrize("bitrate_gbps", [1.0, 10.0, 31.0])
    def test_clean_output_equals_full_grid(self, bitrate_gbps, cfg, k):
        states, w = self._problem(bitrate_gbps, k=k)
        w = w[:, 0] if k == 1 else w
        got = readout_sampled(sampled_basis(states, cfg, self.SPB, self.OFFSET), w)
        want = readout_forward(states, w, cfg)[..., self.OFFSET :: self.SPB]
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_mean_current_sets_full_grid_sigma(self):
        states, w = self._problem()
        basis = sampled_basis(states, DetectorConfig(), self.SPB, self.OFFSET)
        rows = readout_forward(states, w, RAW)  # the current _detect adds noise to
        cfg = DetectorConfig()
        for got, row in zip(basis.mean_current(w), rows):
            assert noise_variance(got, cfg) == pytest.approx(noise_variance(row.mean(), cfg), rel=1e-12)

    @pytest.mark.parametrize(
        "cfg", [DetectorConfig(), DetectorConfig(filter_enabled=False)], ids=["filter", "no-filter"]
    )
    def test_noise_is_one_normal_per_bit_through_the_factor(self, cfg):
        states, w = self._problem()
        basis = sampled_basis(states, cfg, self.SPB, self.OFFSET)
        quiet = replace(cfg, noise_enabled=False)
        clean = readout_sampled(sampled_basis(states, quiet, self.SPB, self.OFFSET), w)
        noise = readout_sampled(basis, w, rng=np.random.default_rng(3)) - clean
        draws = np.random.default_rng(3).standard_normal(clean.shape)
        sigma = np.sqrt([noise_variance(r.mean(), cfg) for r in readout_forward(states, w, RAW)])
        if cfg.filter_enabled:
            num, den, gain = _sampled_noise(cfg, 1.0 / states.sample_period, self.SPB)
            draws = gain * lfilter(num, den, draws, axis=1)
        want = sigma[:, None] * draws
        np.testing.assert_allclose(noise, want, rtol=0, atol=1e-9 * np.abs(want).max())

    @pytest.mark.parametrize("spb", [2, 4, 8, 24])
    @pytest.mark.parametrize("bitrate_gbps", [1.0, 10.0, 31.0])
    def test_noise_factor_autocovariance(self, bitrate_gbps, spb):
        # Stationary autocovariance at lags of m bits: the filter's impulse
        # response against itself shifted by m * spb samples, against the
        # same sum over the ARMA factor's impulse response.
        cfg = DetectorConfig()
        rate = bitrate_gbps * 1e9 * spb
        impulse = np.zeros(20000)
        impulse[0] = 1.0
        h = lfilter(*_butterworth(cfg, rate), impulse)
        num, den, gain = _sampled_noise(cfg, rate, spb)
        g = gain * lfilter(num, den, impulse)
        want = np.array([h[: h.size - m * spb] @ h[m * spb :] for m in range(6)])
        got = np.array([g[: g.size - m] @ g[m:] for m in range(6)])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * want[0])
        assert _sampled_noise(cfg, rate, spb)[0] is num and not num.flags.writeable

    @pytest.mark.parametrize("k", [1, 14, 2 * _NOISE_ROWS + 5], ids=["vector", "block", "noise-blocks"])
    @pytest.mark.parametrize("filtered", [True, False], ids=["filter", "no-filter"])
    @pytest.mark.parametrize("noisy", [True, False], ids=["noise", "quiet"])
    def test_bytes_match_loop_oracle(self, noisy, filtered, k):
        states, w = self._problem(f=17, k=k)
        w = w[:, 0] if k == 1 else w
        cfg = DetectorConfig(noise_enabled=noisy, filter_enabled=filtered)
        basis = sampled_basis(states, cfg, self.SPB, self.OFFSET)
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(3):  # one generator across calls, as a training run uses it
            got = readout_sampled(basis, w, rng=rng)
            want = readout_sampled_loop(basis, w, rng=ref_rng)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_noise_off_draws_nothing(self):
        states, w = self._problem()
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        readout_sampled(sampled_basis(states, QUIET, self.SPB, self.OFFSET), w, rng=rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("f, spb", [(2 * SPB + 1, SPB), (5, 1)], ids=["wide", "one-sample"])
    def test_fallback_slices_the_full_grid(self, f, spb, monkeypatch):
        import photonrc.stateest as stateest_mod

        def no_basis(*args):
            raise AssertionError("the fallback builds no basis")

        monkeypatch.setattr(stateest_mod, "sampled_basis", no_basis)
        states, w = self._problem(f=f, k=3, spb=spb)
        d, offset = self._target(spb), spb // 2
        sampled = SimulatedReadout(states, DetectorConfig(), seed=8)
        full = SimulatedReadout(states, DetectorConfig(), seed=8)
        got = sampled.score_sampled(w, d, spb, offset, 2)
        assert got.tobytes() == bit_sse_direct(full.present(w), d, spb, offset, 2).tobytes()
        assert sampled.presentations == 3
        assert type(sampled.score_sampled(w[:, 0], d, spb, offset, 2)) is float
        assert sampled.presentations == 4

    def test_sampled_presentations_count_columns(self):
        states, w = self._problem(k=7)
        readout = SimulatedReadout(states, DetectorConfig(), seed=1)
        d = self._target()
        assert readout.score_sampled(w, d, self.SPB, self.OFFSET, 0).shape == (7,)
        assert readout.presentations == 7
        assert type(readout.score_sampled(w[:, 2], d, self.SPB, self.OFFSET, 0)) is float
        assert readout.presentations == 8
        readout.score_sampled(w[:, 3].tolist(), d, self.SPB, self.OFFSET, 0)
        assert readout.presentations == 9

    def test_bad_weights_rejected(self):
        states, w = self._problem(k=3)
        basis = sampled_basis(states, QUIET, self.SPB, self.OFFSET)
        readout = SimulatedReadout(states, QUIET)
        infinite = w.copy()
        infinite[0, 1] = np.inf
        for weights, match in ((infinite, "weights must be finite"), (w[None], "do not match")):
            with pytest.raises(ValueError, match=match):
                readout_sampled(basis, weights)
            with pytest.raises(ValueError, match=match):
                readout.score_sampled(weights, self._target(), self.SPB, self.OFFSET, 0)
        assert readout.presentations == 0

    def test_non_finite_output_rejected(self):
        states, w = self._problem(k=3)
        basis = sampled_basis(states, QUIET, self.SPB, self.OFFSET)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="electrical samples must be finite"):
                readout_sampled(basis, 1e200 * w)
            with pytest.raises(ValueError, match="electrical samples must be finite"):
                SimulatedReadout(states, QUIET).score_sampled(1e200 * w, self._target(), self.SPB, self.OFFSET, 0)

    def test_basis_built_once_per_sampling_point(self, monkeypatch):
        import photonrc.stateest as stateest_mod

        built = []

        def counting(states, cfg, spb, offset):
            built.append((spb, offset))
            return sampled_basis(states, cfg, spb, offset)

        monkeypatch.setattr(stateest_mod, "sampled_basis", counting)
        states, w = self._problem()
        readout = SimulatedReadout(states, DetectorConfig(), seed=2)
        for offset in (12, 12, 5, 12, 5):
            readout.score_sampled(w, self._target(), self.SPB, offset, 0)
        assert built == [(self.SPB, 12), (self.SPB, 5)]

    def test_bad_sampling_point_rejected(self):
        states, w = self._problem()
        readout = SimulatedReadout(states, DetectorConfig(), seed=2)
        for spb, offset in ((24, 24), (24, -1), (0, 0)):
            with pytest.raises(ValueError, match="offset"):
                readout.score_sampled(w, self._target(), spb, offset, 0)
            with pytest.raises(ValueError, match="offset"):
                sampled_basis(states, DetectorConfig(), spb, offset)
        assert readout.presentations == 0


def _reference_sampled_basis(states, cfg, samples_per_bit, sample_offset, dtype=np.float64):
    """``sampled_basis`` filtered at the full rate: the oracle of the modal form.

    The F^2 channel products of each 256-row chunk go through ``lfilter``
    with the filter state carried over, and the sampled columns are kept;
    the Gram matrix accumulates in the same pass.  With ``dtype`` a long
    double, states, products and filter run in extended precision.
    """
    x = states.samples.astype(np.result_type(dtype, 1j))
    n, f = x.shape
    i, j = np.triu_indices(f, 1)
    products = np.empty((f * f, len(range(sample_offset, n, samples_per_bit))), dtype=dtype)
    gram = np.zeros((f, f), dtype=x.dtype)
    b, a = (c.astype(dtype) for c in _butterworth(cfg, 1.0 / states.sample_period))
    zi = np.zeros((f * f, a.size - 1), dtype=dtype)
    done = 0
    for start in range(0, n, _BASIS_ROWS):
        chunk = x[start : start + _BASIS_ROWS]
        gram += chunk.conj().T @ chunk
        picked = slice((sample_offset - start) % samples_per_bit, None, samples_per_bit)
        if cfg.filter_enabled:
            filtered, zi = lfilter(b, a, _channel_products(chunk, i, j), axis=1, zi=zi)
            part = filtered[:, picked]
        else:
            part = _channel_products(chunk[picked], i, j)
        products[:, done : done + part.shape[1]] = part
        done += part.shape[1]
    gram /= max(n, 1)
    return products, gram


class TestSampledBasisOracle:
    """The modal, once-per-bit basis against the full-rate filter it replaces."""

    WIDE = DetectorConfig(bandwidth_hz=100e9, noise_enabled=False)  # capped at 1 Gbps

    def _states(self, n, bitrate_gbps, spb, f=4, seed=0):
        rng = np.random.default_rng(seed)
        x = 0.3 * (rng.normal(size=(n, f)) + 1j * rng.normal(size=(n, f)))
        return StateMatrix(x, 1.0 / (spb * bitrate_gbps * 1e9))

    @staticmethod
    def _grid_lengths(spb, offset):
        # 0, 1 and 2 sampled bits, ending on an instant and inside a bit, and
        # two bit chunks plus a ragged end
        long = (2 * _BASIS_BITS + 3) * spb + offset + spb // 2 + 1
        return (offset, offset + 1, offset + spb, offset + spb + 1, long)

    @pytest.mark.parametrize("spb", [2, 8, 24])
    @pytest.mark.parametrize("cfg", [QUIET, WIDE], ids=["25GHz", "100GHz"])
    @pytest.mark.parametrize("bitrate_gbps", [1.0, 10.0, 31.0])
    def test_products_match_full_rate_filter(self, bitrate_gbps, cfg, spb):
        for offset in sorted({0, spb // 2, spb - 1}):
            for n in self._grid_lengths(spb, offset):
                states = self._states(n, bitrate_gbps, spb)
                got = sampled_basis(states, cfg, spb, offset)
                want, gram = _reference_sampled_basis(states, cfg, spb, offset)
                assert got.products.shape == want.shape == (16, len(range(offset, n, spb)))
                scale = np.abs(want).max() if want.size else 0.0
                np.testing.assert_allclose(got.products, want, rtol=0, atol=1e-12 * scale)
                assert got.gram.tobytes() == gram.tobytes()

    @pytest.mark.parametrize("spb, offset", [(24, 12), (8, 0), (2, 1)])
    def test_filter_off_and_gram_bytes(self, spb, offset):
        states = self._states((2 * _BASIS_BITS + 3) * spb + 5, 10.0, spb, f=5)
        got = sampled_basis(states, RAW, spb, offset)
        want, gram = _reference_sampled_basis(states, RAW, spb, offset)
        assert got.products.tobytes() == want.tobytes()
        assert got.gram.tobytes() == gram.tobytes()

    def test_modal_form_is_cached_and_read_only(self):
        states = self._states(500, 10.0, 24)
        _sampled_modes.cache_clear()
        sampled_basis(states, QUIET, 24, 0)
        sampled_basis(states, QUIET, 24, 12)
        info = _sampled_modes.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        weights, phi = _sampled_modes(QUIET, 1.0 / states.sample_period, 24)
        assert _sampled_modes(QUIET, 1.0 / states.sample_period, 24)[0] is weights
        assert not weights.flags.writeable and not phi.flags.writeable

    def test_channel_pairs_cached_and_read_only(self):
        i, j = _channel_pairs(17)
        assert _channel_pairs(17)[0] is i
        assert not i.flags.writeable and not j.flags.writeable
        want_i, want_j = np.triu_indices(17, 1)
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps, reason="long double is a double here"
    )
    def test_extended_precision_at_31_gbps(self):
        # Both float64 paths against the full-rate filter in long double:
        # the modal form may lose at most a factor 4 on lfilter's own error.
        states = self._states(4 * _BASIS_BITS * 24 + 7, 31.0, 24, f=5)
        exact, _ = _reference_sampled_basis(states, QUIET, 24, 12, dtype=np.longdouble)
        old, _ = _reference_sampled_basis(states, QUIET, 24, 12)
        new = sampled_basis(states, QUIET, 24, 12).products
        old_error = float(np.abs(old - exact).max())
        new_error = float(np.abs(new - exact).max())
        assert 0 < old_error and new_error <= 4 * old_error

    def test_ci_length_peak_memory(self):
        # Traced peak of one ci-length call (48240 x 17 states, 24 samples a
        # bit at 10 Gbps, filter on): 6,927,988 bytes when the basis was
        # filtered at the full rate in 256-row chunks.  The basis is
        # 4,647,120 of them.
        states = self._states(2010 * 24, 10.0, 24, f=17)
        sampled_basis(states, DetectorConfig(), 24, 12)  # the design caches
        tracemalloc.start()
        try:
            sampled_basis(states, DetectorConfig(), 24, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6_927_988


class TestButterworthCache:
    WIDE = DetectorConfig(bandwidth_hz=100e9)

    @pytest.mark.parametrize("bitrate_gbps", [5.0, 10.0, 31.0])
    @pytest.mark.parametrize("cfg", [DetectorConfig(), WIDE], ids=["25GHz", "100GHz"])
    def test_cached_design_equals_fresh(self, cfg, bitrate_gbps):
        fs = 24 * bitrate_gbps * 1e9
        b, a = _butterworth(cfg, fs)
        b_ref, a_ref = butter(4, butterworth_cutoff(cfg, fs), fs=fs)
        assert np.array_equal(b, b_ref) and np.array_equal(a, a_ref)
        assert _butterworth(cfg, fs)[0] is b
        assert not b.flags.writeable

    def test_capped_cutoff_is_covered(self):
        # At 5 Gbps the 100 GHz detector sits above Nyquist (60 GHz).
        fs = 24 * 5e9
        assert butterworth_cutoff(self.WIDE, fs) == 0.45 * fs


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            DetectorConfig(responsivity=0.0)
        with pytest.raises(ValueError):
            DetectorConfig(bandwidth_hz=-1.0)
        with pytest.raises(ValueError):
            DetectorConfig(dark_current_a=-1e-9)
        with pytest.raises(ValueError):
            DetectorConfig(load_ohm=0.0)
