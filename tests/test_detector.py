import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.signal import butter, freqz, lfilter

from photonrc.config import SAMPLES_PER_BIT
from photonrc.detector import (
    BOLTZMANN,
    DetectorConfig,
    ELEMENTARY_CHARGE,
    _BASIS_BITS,
    _BASIS_ROWS,
    _CHUNK_ROWS,
    _butterworth,
    _probe_support,
    _channel_pairs,
    _channel_products,
    _noise_energy,
    _sampled_modes,
    _sampled_noise,
    butterworth_cutoff,
    noise_variance,
    readout_forward,
    sampled_basis,
    sampled_score,
)
from photonrc.reservoir import StateMatrix
from photonrc.signals import OpticalSignal
from photonrc.stateest import SimulatedReadout, build_probe_schedule, estimate_states

from oracles import bit_sse_direct, noise_variance_scalar, photodiode, readout_forward_dense, readout_sampled

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


def _probe_blocks(f=17, ref=16, seed=0):
    """Weight blocks by support, each an F x K matrix; all but the last two are probe weights."""
    rng = np.random.default_rng(seed)
    schedule = build_probe_schedule(f, ref)
    units = np.array([1.0, -1.0, 1.0j, -1.0j, 1.0 + 1.0j, 1.0 - 1.0j, -1.0 + 1.0j])
    one_channel = np.zeros((f, 9), complex)
    one_channel[rng.integers(0, f, 9), np.arange(9)] = rng.choice(units, 9)
    two_channel = np.zeros((f, 6), complex)
    for k in range(6):
        two_channel[rng.choice(f, 2, replace=False), k] = rng.choice(units[:4], 2)
    mixed = np.concatenate([schedule[:, [0, 5]], schedule[:, f : f + 4], two_channel[:, :2]], axis=1)
    zero_column = mixed.copy()
    zero_column[:, 3] = 0.0
    one_zero_column = one_channel.copy()
    one_zero_column[:, 1] = 0.0
    # Sparse but not probe weights, and a column of three nonzero parts: the full product.
    scaled = one_channel * 0.5
    three_parts = np.zeros((f, 2), complex)
    three_parts[[0, 1, 2], 0] = 1.0
    three_parts[[3, 4], 1] = [1.0 + 1.0j, -1.0j]
    return {
        "one-hots": schedule[:, :f],
        "couples": schedule[:, f : f + 8],
        "couples-past-ref": schedule[:, f + 8 * 3 :],
        "one-channel": one_channel,
        "one-channel-vector": one_channel[:, 4],
        "two-channel": two_channel,
        "mixed": mixed,
        "zero-column": zero_column,
        "one-channel-zero-column": one_zero_column,
        "all-zero": np.zeros((f, 3), complex),
        "scaled": scaled,
        "three-parts": three_parts,
    }


class TestProbePresentation:
    """Probe weights are presented over the channels they weight, with the bytes of the full product."""

    PERIOD = 1.0 / (24 * 15e9)
    BLOCKS = _probe_blocks()

    def _states(self, n, f=17, seed=1):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, f)) + 1j * rng.normal(size=(n, f))
        x *= 10.0 ** rng.uniform(-3.0, 0.0, size=f)  # channels of unequal power
        return StateMatrix(x, self.PERIOD, f - 1)

    @pytest.mark.parametrize("block", list(BLOCKS))
    @pytest.mark.parametrize("cfg", [DetectorConfig(), RAW], ids=["noise-filter", "raw"])
    @pytest.mark.parametrize("n", [2 * _CHUNK_ROWS + 123, 7, 0], ids=["ragged", "short", "empty"])
    def test_bytes_match_full_product(self, block, cfg, n):
        states, w = self._states(n), self.BLOCKS[block]
        got = readout_forward(states, w, cfg, rng=np.random.default_rng(3))
        want = readout_forward_dense(states, w, cfg, rng=np.random.default_rng(3))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_round_blocks_are_probe_weights(self):
        f, ref = 17, 16
        schedule = build_probe_schedule(f, ref)
        assert np.array_equal(_probe_support(schedule[:, :f].T), np.arange(f))
        # each four-couple block weights its four channels and the reference
        for start in range(f, 3 * f - 2, 8):
            block = schedule[:, start : start + 8]
            want = np.flatnonzero(block.any(axis=1))
            assert np.array_equal(_probe_support(block.T), want)
            assert ref in want and want.size == 1 + block.shape[1] // 2

    @pytest.mark.parametrize("block", ["scaled", "three-parts"])
    def test_other_weights_take_the_full_product(self, block):
        assert _probe_support(self.BLOCKS[block].T) is None
        rng = np.random.default_rng(4)
        assert _probe_support((rng.normal(size=(17, 3)) + 1j * rng.normal(size=(17, 3))).T) is None

    def test_round_estimate_keeps_its_bytes(self):
        # The whole probing round through the probe paths, against one through the full product.
        states = self._states(3 * _CHUNK_ROWS + 5)
        states = StateMatrix(
            np.concatenate([states.samples[:, :-1], np.full((states.n_samples, 1), 0.3 + 0j)], axis=1),
            self.PERIOD,
            16,
        )
        got = estimate_states(SimulatedReadout(states, DetectorConfig(), seed=8), 0.5, 16)

        class DenseReadout(SimulatedReadout):
            def present(self, weights):
                return readout_forward_dense(self._states, self._counted(weights), self.detector, self._rng)

        want = estimate_states(DenseReadout(states, DetectorConfig(), seed=8), 0.5, 16)
        assert got.samples.tobytes() == want.samples.tobytes()


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

    @pytest.mark.parametrize("spb", [1, 2, 4, 8, 24])
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
        assert _sampled_noise(cfg, rate, spb)[0] is num
        assert not num.flags.writeable and not den.flags.writeable

    def test_noise_off_draws_nothing(self):
        states, w = self._problem()
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        readout_sampled(sampled_basis(states, QUIET, self.SPB, self.OFFSET), w, rng=rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("f, spb", [(2 * SPB + 1, SPB), (10, 1)], ids=["wide", "one-sample"])
    def test_fallback_slices_the_full_grid(self, f, spb, monkeypatch):
        # F^3 > N = 775 samples: the score's forms would outgrow the states.
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

    @pytest.mark.parametrize("n, sampled", [(729, True), (728, False)])
    @pytest.mark.parametrize("spb", [1, 2, 24])
    def test_score_kept_while_no_larger_than_the_states(self, spb, n, sampled, monkeypatch):
        # Nine channels: the sampled score at N >= 9^3 samples, whether or
        # not F > 2 * spb, and the full-grid slice below.
        import photonrc.stateest as stateest_mod

        built = []
        monkeypatch.setattr(stateest_mod, "sampled_basis", lambda *args: built.append(args) or sampled_basis(*args))
        rng = np.random.default_rng(5)
        states = StateMatrix(0.3 * (rng.normal(size=(n, 9)) + 1j * rng.normal(size=(n, 9))), 1.0 / (spb * 10e9))
        w = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
        d = self._target(spb)[: n // spb]
        got = SimulatedReadout(states, QUIET).score_sampled(w, d, spb, spb - 1, 2)
        assert len(built) == int(sampled)
        want = bit_sse_direct(readout_forward(states, w, QUIET), d, spb, spb - 1, 2)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

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
            for cfg in (QUIET, DetectorConfig()):
                readout = SimulatedReadout(states, cfg, seed=1)
                with pytest.raises(ValueError, match="electrical samples must be finite"):
                    readout.score_sampled(1e200 * w, self._target(), self.SPB, self.OFFSET, 0)
                assert readout.presentations == 0

    def test_model_built_once_per_key(self, monkeypatch):
        # One model per (samples_per_bit, sample_offset, skip_bits) and
        # target, each from one basis.
        import photonrc.stateest as stateest_mod

        built = []

        def counting(basis, target_w, skip_bits):
            built.append((basis.samples_per_bit, skip_bits, float(target_w[0])))
            return sampled_score(basis, target_w, skip_bits)

        monkeypatch.setattr(stateest_mod, "sampled_score", counting)
        states, w = self._problem()
        readout = SimulatedReadout(states, DetectorConfig(), seed=2)
        d, other = self._target(), self._target() + 1.0
        for offset, skip, target in ((12, 0, d), (12, 0, d.copy()), (5, 0, d), (12, 3, d), (12, 0, other), (5, 0, d), (12, 3, d)):
            readout.score_sampled(w, target, self.SPB, offset, skip)
        assert built == [(self.SPB, 0, d[0]), (self.SPB, 0, d[0]), (self.SPB, 3, d[0]), (self.SPB, 0, other[0])]

    @pytest.mark.parametrize("f", [5, 10], ids=["sampled", "full-grid"])
    def test_negative_skip_rejected(self, f):
        # It used to score only the last 5 bits.  Ten channels over 775
        # samples are scored from the full-grid output (F^3 > N).
        states, w = self._problem(f=f)
        readout = SimulatedReadout(states, QUIET)
        with pytest.raises(ValueError, match="skip_bits must be non-negative, got -5"):
            readout.score_sampled(w, self._target(), self.SPB, self.OFFSET, -5)
        assert readout.presentations == 0 and not readout._scores

    @pytest.mark.parametrize("f", [5, 10], ids=["sampled", "full-grid"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "2-D"])
    def test_bad_target_rejected_before_a_score_is_built(self, bad, f, monkeypatch):
        # A NaN target used to build and cache a score, then be reported as
        # a non-finite detector output; the full-grid slice presented first.
        import photonrc.stateest as stateest_mod

        def no_basis(*args):
            raise AssertionError("built a basis for a bad target")

        monkeypatch.setattr(stateest_mod, "sampled_basis", no_basis)
        states, w = self._problem(f=f)
        d = self._target()
        d = d.reshape(2, -1) if bad == "2-D" else np.full(d.size, float(bad))
        readout = SimulatedReadout(states, DetectorConfig(), seed=1)
        with pytest.raises(ValueError, match="target_w must be a one-dimensional array of finite powers"):
            readout.score_sampled(w, d, self.SPB, self.OFFSET, 0)
        assert readout.presentations == 0 and not readout._scores

    def test_bad_sampling_point_rejected(self):
        states, w = self._problem()
        readout = SimulatedReadout(states, DetectorConfig(), seed=2)
        for spb, offset in ((24, 24), (24, -1), (0, 0)):
            with pytest.raises(ValueError, match="offset"):
                readout.score_sampled(w, self._target(), spb, offset, 0)
            with pytest.raises(ValueError, match="offset"):
                sampled_basis(states, DetectorConfig(), spb, offset)
        assert readout.presentations == 0


class _FixedNormals:
    """A stand-in generator whose every standard normal is one of a given row ``(z1, z2)``."""

    def __init__(self, z1, z2):
        self.z = (z1, z2)

    def standard_normal(self, shape):
        return np.broadcast_to(np.array(self.z, dtype=float), shape).copy()


def _dense_noise(cfg, sample_period, spb, n_bits):
    """The noise factor ``L`` as a dense n_bits x n_bits lower triangular Toeplitz matrix."""
    impulse = np.zeros(n_bits)
    impulse[0] = 1.0
    if not cfg.filter_enabled:
        return np.eye(n_bits)
    num, den, gain = _sampled_noise(cfg, 1.0 / sample_period, spb)
    return toeplitz(gain * lfilter(num, den, impulse), np.zeros(n_bits))


def _assert_same_noise(got, want):
    """Seeded noise draws with one mean, within 5 standard errors, and one spread, within 10 %."""
    error = np.sqrt((got.var() + want.var()) / got.size)
    assert abs(got.mean() - want.mean()) <= 5.0 * error
    assert got.std() == pytest.approx(want.std(), rel=0.1)


@pytest.fixture(scope="module")
def ci_ridge_cells():
    """``(cfg, states, target, ridge weights)`` of a ci cell at 10 and 20 Gbps, at both operating points."""
    from photonrc.config import WARMUP_BITS, ci_profile, load_config
    from photonrc.harness import _power_target, _prepare_cell, _targets
    from photonrc.ridge import cv_alpha, ridge_problem

    receiver = load_config(Path(__file__).parent.parent / "configs" / "receiver.yaml", base=ci_profile())
    cells = {}
    for point, cfg in (("default", ci_profile()), ("receiver", receiver)):
        for bitrate in (10.0, 20.0):
            cell = _prepare_cell(cfg, bitrate, 0)
            d = _power_target(cfg, _targets(cell, "101")[0])
            x, target = ridge_problem(cell.states_train, d, cfg.detector.responsivity, SAMPLES_PER_BIT, WARMUP_BITS)
            cells[point, bitrate] = (cfg, cell.states_train, d, cv_alpha(x, target)[1])
    return cells


class TestSampledScore:
    """``SampledScore``, the CMA-ES score, against the sampled output it stands for.

    The oracle is ``bit_sse_direct(readout_sampled(...))``: the output at
    the sampled instants, with one filtered normal per bit, and its SSE.
    The clean score must equal it to rounding; with noise, the model's
    cross term and noise energy must have the oracle's mean and variance.
    """

    SPB = 24
    N_BITS = 60

    def _problem(self, bitrate_gbps, f=5, k=6, seed=0, n_bits=N_BITS, spb=SPB):
        rng = np.random.default_rng(seed)
        n = n_bits * spb + spb // 3  # the grid ends inside a bit
        x = 0.3 * (rng.normal(size=(n, f)) + 1j * rng.normal(size=(n, f)))
        w = rng.normal(size=(f, k)) + 1j * rng.normal(size=(f, k))
        d = 0.05 * rng.integers(0, 2, n_bits - 3).astype(np.float64)  # shorter than the grid
        return StateMatrix(x, 1.0 / (spb * bitrate_gbps * 1e9)), w, d

    @pytest.mark.parametrize("f, spb", [(5, SPB), (13, 6), (3, 1)])
    @pytest.mark.parametrize("scale", [1e-2, 1.0, 1e2])
    @pytest.mark.parametrize("cfg", [QUIET, RAW], ids=["filter", "no-filter"])
    @pytest.mark.parametrize("bitrate_gbps", [5.0, 10.0, 15.0])
    def test_clean_score_equals_oracle(self, bitrate_gbps, cfg, scale, f, spb):
        # Against the sampled output and against the full-grid presentation,
        # also where F > 2 * spb and at one sample per bit.
        states, w, d = self._problem(bitrate_gbps, f=f, spb=spb)
        w = scale * w
        for offset in sorted({0, min(7, spb - 1), spb // 2, spb - 1}):
            for skip in (0, 10):
                want = bit_sse_direct(readout_sampled(sampled_basis(states, cfg, spb, offset), w), d, 1, 0, skip)
                model = sampled_score(sampled_basis(states, cfg, spb, offset), d, skip)
                np.testing.assert_allclose(model.sse(w, None), want, rtol=1e-12, atol=0)
                direct = bit_sse_direct(readout_forward(states, w, cfg), d, spb, offset, skip)
                got = SimulatedReadout(states, cfg).score_sampled(w, d, spb, offset, skip)
                np.testing.assert_allclose(got, direct, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("bitrate", [10.0, 20.0])
    def test_clean_score_near_ridge_weights(self, ci_ridge_cells, bitrate):
        # At the CV ridge weights a ci score sits at 0.57 (10 Gbps) and 0.97
        # (20 Gbps) of |d|^2.  Against a target 90 % of the way to the
        # weights' own output it sits at 0.045 and 0.43 of the target's
        # energy, where the quadratic form subtracts larger terms.  Its
        # error grows as |d|^2 / SSE: 1e-14 relative at 0.045, 1e-12 at 6e-4
        # and 6e-11 at 7e-6 (measured at 10 Gbps).
        cfg, states, d, ridge = ci_ridge_cells["default", bitrate]
        spb, quiet = SAMPLES_PER_BIT, replace(cfg.detector, noise_enabled=False)
        weights = np.stack([ridge, 1.01 * ridge, ridge + 0.01 * np.abs(ridge).max()], axis=1)
        y = readout_sampled(sampled_basis(states, quiet, spb, spb // 2), weights)
        near = 0.1 * d + 0.9 * y[0, : d.size]
        for target in (d, near):
            want = bit_sse_direct(y, target, 1, 0, 10)
            got = sampled_score(sampled_basis(states, quiet, spb, spb // 2), target, 10).sse(weights, None)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        tail = near[10:]
        assert want[0] < 0.5 * (tail @ tail)

    @pytest.mark.parametrize("first", [0, 10, 199, 200])
    @pytest.mark.parametrize("bitrate_gbps, spb", [(1.0, 24), (10.0, 24), (31.0, 24), (31.0, 2)])
    def test_noise_energy_equals_dense_form(self, bitrate_gbps, spb, first):
        # 200 bits, the traces of L^T S L formed from dense matrices.
        cfg = DetectorConfig()
        factor = _dense_noise(cfg, 1.0 / (spb * bitrate_gbps * 1e9), spb, 200)
        scored = np.zeros(200)
        scored[first:] = 1.0
        m = factor.T @ (scored[:, None] * factor)
        trace, square = _noise_energy(factor[:, 0].copy(), first)
        assert trace == pytest.approx(np.trace(m), rel=1e-12, abs=0)
        assert square == pytest.approx(np.trace(m @ m), rel=1e-12, abs=0)
        if first == 200:
            assert (trace, square) == (0.0, 0.0)

    @pytest.mark.parametrize("cfg", [DetectorConfig(load_ohm=1e-6), DetectorConfig(load_ohm=1e-6, filter_enabled=False)], ids=["filter", "no-filter"])
    @pytest.mark.parametrize("skip", [0, 10])
    def test_drawn_terms_equal_dense_forms(self, cfg, skip):
        # With z fixed, the score is clean + 2 sigma |L^T e| z1 + sigma^2
        # (tr(L^T S L) + sqrt(2 tr((L^T S L)^2)) z2), all from dense L.
        states, w, d = self._problem(10.0)
        quiet = replace(cfg, noise_enabled=False)
        basis = sampled_basis(states, quiet, self.SPB, 5)
        y = readout_sampled(basis, w)
        n_bits = y.shape[1]
        error = np.zeros_like(y)
        error[:, skip : d.size] = y[:, skip : d.size] - d[skip:]
        factor = _dense_noise(cfg, states.sample_period, self.SPB, n_bits)
        scored = np.zeros(n_bits)
        scored[skip : d.size] = 1.0
        m = factor.T @ (scored[:, None] * factor)
        var = noise_variance(basis.mean_current(w), cfg)
        clean = bit_sse_direct(y, d, 1, 0, skip)
        model = sampled_score(sampled_basis(states, cfg, self.SPB, 5), d, skip)
        for z1, z2 in ((0.0, 0.0), (1.5, 0.0), (0.0, -2.0)):
            want = clean + 2.0 * np.sqrt(var) * np.linalg.norm(error @ factor, axis=1) * z1
            want += var * (np.trace(m) + np.sqrt(2.0 * np.trace(m @ m)) * z2)
            np.testing.assert_allclose(model.sse(w, _FixedNormals(z1, z2)), want, rtol=1e-11, atol=0)

    @pytest.mark.parametrize("point, bitrate", [("default", 10.0), ("receiver", 10.0), ("receiver", 20.0)])
    def test_monte_carlo_matches_oracle(self, ci_ridge_cells, point, bitrate):
        # 2000 seeded draws at the CV ridge weights, for the model and for
        # the oracle: the noise part of the score (score minus clean score)
        # has the oracle's mean within 5 standard errors of the difference
        # and its standard deviation within 10 % (4.5 standard errors of
        # the ratio for Gaussian draws).  At the default point the noise is
        # about 1e-6 of a score and its spread is the cross term's; at the
        # receiver point the noise energy sets the mean (about 3e-3 of a
        # score at 10 Gbps).
        cfg, states, d, ridge = ci_ridge_cells[point, bitrate]
        spb, draws, block = SAMPLES_PER_BIT, 2000, 250
        quiet = replace(cfg.detector, noise_enabled=False)
        clean = sampled_score(sampled_basis(states, quiet, spb, spb // 2), d, 10).sse(ridge, None)
        weights = np.repeat(ridge[:, None], block, axis=1)
        model = sampled_score(sampled_basis(states, cfg.detector, spb, spb // 2), d, 10)
        basis = sampled_basis(states, cfg.detector, spb, spb // 2)
        rng, oracle_rng = np.random.default_rng(21), np.random.default_rng(22)
        got = np.concatenate([model.sse(weights, rng) for _ in range(draws // block)]) - clean
        want = np.concatenate(
            [bit_sse_direct(readout_sampled(basis, weights, oracle_rng), d, 1, 0, 10) for _ in range(draws // block)]
        ) - clean
        _assert_same_noise(got, want)

    def test_monte_carlo_one_sample_matches_full_grid(self):
        # At one sample per bit the noise factor is the filter itself, so
        # the model's noise part has the law of the full-grid presentation's
        # (2000 seeded draws, the tolerances above).  At the receiver load
        # and a target near the clean output, the noise part is about 6e-3
        # of the score, and its mean, the noise energy, about 20 standard
        # errors.
        cfg = DetectorConfig(load_ohm=50.0)
        quiet = replace(cfg, noise_enabled=False)
        states, w, d = self._problem(10.0, k=1, n_bits=400, spb=1)
        target = 0.999 * readout_forward(states, w[:, 0], quiet)[: d.size] + 0.001 * d
        clean = sampled_score(sampled_basis(states, quiet, 1, 0), target, 10).sse(w, None)
        weights = np.repeat(w, 250, axis=1)
        model = sampled_score(sampled_basis(states, cfg, 1, 0), target, 10)
        rng, oracle_rng = np.random.default_rng(21), np.random.default_rng(22)
        got = np.concatenate([model.sse(weights, rng) for _ in range(8)]) - clean
        want = np.concatenate(
            [bit_sse_direct(readout_forward(states, weights, cfg, oracle_rng), target, 1, 0, 10) for _ in range(8)]
        ) - clean
        _assert_same_noise(got, want)

    def test_keeps_no_array_of_bits_length(self):
        states, w, d = self._problem(10.0, f=3, n_bits=400)
        model = sampled_score(sampled_basis(states, DetectorConfig(), self.SPB, 12), d, 10)
        arrays = [model.forms, model.linear, model.constant, model.gram]
        assert [a.shape for a in arrays] == [(2, 9, 9), (2, 9), (2,), (3, 3)]

    def test_ci_length_adds_no_second_basis(self):
        # ci length: 48240 x 17 states, 24 samples a bit at 10 Gbps, filter
        # and noise on.  The basis is 289 x 2010 floats, 4,647,120 bytes.
        # On top of it the build peaked at 2,028,118 bytes: the model's two
        # 289 x 289 matrices (1,336,336), one partial Gram of that size, and
        # vectors.
        rng = np.random.default_rng(0)
        n = 2010 * 24
        x = 0.3 * (rng.normal(size=(n, 17)) + 1j * rng.normal(size=(n, 17)))
        states = StateMatrix(x, 1.0 / (24 * 10e9))
        d = 0.05 * rng.integers(0, 2, 2010).astype(np.float64)
        sampled_score(sampled_basis(states, DetectorConfig(), 24, 12), d, 10)  # the designs cache
        basis = sampled_basis(states, DetectorConfig(), 24, 12)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            sampled_score(basis, d, 10)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < basis.products.nbytes // 2

    def test_noise_off_draws_nothing(self):
        states, w, d = self._problem(10.0)
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        sampled_score(sampled_basis(states, QUIET, self.SPB, 12), d, 0).sse(w, rng)
        assert rng.bit_generator.state == before

    def test_two_normals_per_column_in_column_order(self):
        states, w, d = self._problem(10.0)
        model = sampled_score(sampled_basis(states, DetectorConfig(), self.SPB, 12), d, 0)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        model.sse(w, rng)
        ref.standard_normal((w.shape[1], 2))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_skip_at_or_past_the_target_scores_zero(self):
        states, w, d = self._problem(10.0, k=4)
        readout = SimulatedReadout(states, DetectorConfig(), seed=3)
        for skip in (d.size, d.size + 5):
            assert np.array_equal(readout.score_sampled(w, d, self.SPB, 12, skip), np.zeros(4))
        assert readout.presentations == 8


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

    @pytest.mark.parametrize("spb", [1, 2, 8, 24])
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

    @pytest.mark.parametrize("spb, offset", [(24, 12), (8, 0), (2, 1), (1, 0)])
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
