import math

import numpy as np
import pytest

from photonrc.config import ci_profile
from photonrc.detector import DetectorConfig, ElectricalSignal, sampled_basis
from photonrc.harness import _prepare_cell  # test-only access to the cell builder
from photonrc.reservoir import StateMatrix, build_swirl, simulate
from photonrc.signals import DesiredSignal, gen_bits, modulate
from photonrc.stateest import (
    SimulatedReadout,
    build_probe_schedule,
    estimate_states,
    probe_count,
    train_nlinv,
)

RAW = DetectorConfig(noise_enabled=False, filter_enabled=False)
NOISY_FILTERED = DetectorConfig(noise_enabled=True, filter_enabled=True)


def _readout_from_columns(columns, detector=RAW, seed=0, period=1e-11):
    arr = np.stack([np.asarray(c, dtype=complex) for c in columns], axis=1)
    roles = tuple(f"ch{i}" for i in range(arr.shape[1]))
    return SimulatedReadout(StateMatrix(arr, period, roles), detector, seed=seed)


class RecordingReadout(SimulatedReadout):
    """A simulated readout that records each ``present`` call's weight columns."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def present(self, weights):
        # a weight matrix presents its columns in order
        w = np.array(weights, copy=True)
        self.calls.append(list(w.T) if w.ndim == 2 else [w])
        return super().present(weights)

    @property
    def seen(self):
        return [w for call in self.calls for w in call]


def _assert_round_calls(readout, n_channels, ref_channel):
    """The round presents its schedule once, in order, in 1 + ceil((F-1)/4) calls."""
    expected = build_probe_schedule(n_channels, ref_channel).weights
    assert len(readout.calls) == 1 + math.ceil((n_channels - 1) / 4)
    assert len(readout.calls[0]) == n_channels
    assert all(len(call) % 2 == 0 and len(call) <= 8 for call in readout.calls[1:])
    assert len(readout.seen) == len(expected) == probe_count(n_channels)
    assert readout.presentations == probe_count(n_channels)
    for got, want in zip(readout.seen, expected):
        assert np.array_equal(got, want)


class ScriptedReadout:
    """An opaque readout that answers each ``present`` call with the next scripted block."""

    def __init__(self, n_channels, blocks):
        self.n_channels = n_channels
        self.presentations = 0
        self._blocks = iter(blocks)

    def present(self, weights):
        self.presentations += np.asarray(weights).shape[1]
        return ElectricalSignal(np.array(next(self._blocks), dtype=float), 1e-11)


def _reference_estimate_states(readout, responsivity, eps, ref_channel=None):
    """The linear probing round on N x F arrays, one probe per ``present`` call.

    Returns samples, defaulted and the reference channel.
    """
    f = readout.n_channels
    powers = np.stack([readout.present(w).samples for w in build_probe_schedule(f).weights[:f]], axis=1)
    moduli = np.sqrt(np.maximum(powers, 0.0) / responsivity)
    if ref_channel is None:
        ref_channel = int(np.argmax(moduli.mean(axis=0)))
    schedule = build_probe_schedule(f, ref_channel)
    p_ref, mod_ref = powers[:, ref_channel], moduli[:, ref_channel]
    dark = mod_ref < eps
    scale = np.zeros_like(mod_ref)
    np.divide(1.0, 2.0 * responsivity * mod_ref, out=scale, where=~dark)
    samples = np.empty(powers.shape, dtype=complex)
    for w, (kind, _, q) in zip(schedule.weights[f:], schedule.kinds[f:]):
        part = samples.real if kind == "pair" else samples.imag
        part[:, q] = (readout.present(w).samples - (p_ref + powers[:, q])) * scale
    samples[:, ref_channel] = mod_ref
    samples[dark] = moduli[dark]
    return samples, np.repeat(dark[:, None], f, axis=1), ref_channel


def _relative_phase(xk, xl):
    """Phase of channel l against reference k, as ``estimate_states`` recovers it."""
    readout = _readout_from_columns([xk, xl])
    return np.angle(estimate_states(readout, RAW.responsivity, eps=1e-9, ref_channel=0).samples[:, 1])


class TestProbeSchedule:
    def test_probe_count_formula(self):
        for f in range(1, 25):
            assert probe_count(f) == 3 * f - 2
        assert probe_count(17) == 49

    def test_schedule_structure(self):
        sched = build_probe_schedule(5, ref_channel=2)
        assert len(sched) == 13
        kinds = [k[0] for k in sched.kinds]
        assert kinds.count("modulus") == 5
        assert kinds.count("pair") == 4
        assert kinds.count("quad") == 4
        for w, kind in zip(sched.weights, sched.kinds):
            nonzero = np.nonzero(w)[0]
            assert 1 <= nonzero.size <= 2
            assert np.allclose(np.abs(w[nonzero]), 1.0)
            if kind[0] == "quad":
                assert w[sched.ref_channel] == 1.0j

    def test_bad_ref_rejected(self):
        with pytest.raises(ValueError):
            build_probe_schedule(4, ref_channel=7)

    @pytest.mark.parametrize("strong", [1, 2])
    def test_estimation_presents_the_schedule(self, strong):
        # The strongest channel becomes the reference, so the pair and quad
        # probes differ from those of the default schedule; each probe is
        # presented once, the one-hot probes in one call and the three
        # couples in a second.
        rng = np.random.default_rng(6)
        arr = 0.1 * (rng.normal(size=(64, 4)) + 1j * rng.normal(size=(64, 4)))
        arr[:, strong] = 0.5
        readout = RecordingReadout(StateMatrix(arr, 1e-11, ("a", "b", "c", "d")), RAW)
        est = estimate_states(readout, RAW.responsivity, eps=1e-9)
        assert est.ref_channel == strong
        assert len(readout.calls) == 2
        _assert_round_calls(readout, 4, strong)


class TestProbeModuli:
    """The one-hot probes' inverted square law, read from the reference column."""

    def test_constant_channel(self):
        x = np.full(128, 0.1 * np.exp(1j * np.pi / 4))
        readout = _readout_from_columns([x])
        est = estimate_states(readout, RAW.responsivity, eps=1e-9)
        # detector sees 0.5 * 0.01 = 0.005 A, inversion recovers 0.1
        assert np.allclose(est.samples[:, 0], 0.1, rtol=1e-12)

    def test_zero_channel(self):
        readout = _readout_from_columns([np.zeros(64)])
        assert np.all(estimate_states(readout, RAW.responsivity, eps=1e-9).samples == 0.0)

    def test_negative_samples_clipped(self):
        est = estimate_states(ScriptedReadout(1, [[[-1e-3, 4e-3]]]), 0.5, eps=1e-9)
        assert est.samples[0, 0] == 0.0
        assert np.isclose(est.samples[1, 0], np.sqrt(8e-3))

    def test_noisy_median_close_to_truth(self):
        # At <I> far above the noise floor the inverted estimates sit
        # within 2% of the true modulus in the median.
        noisy = DetectorConfig(noise_enabled=True, filter_enabled=False)
        x = np.full(200_000, 0.1 + 0j)
        readout = _readout_from_columns([x], detector=noisy, seed=5)
        est = estimate_states(readout, noisy.responsivity, eps=1e-9)
        assert abs(np.median(est.samples[:, 0].real) - 0.1) <= 0.002

    def test_presentation_counting(self):
        readout = _readout_from_columns([np.ones(16), np.ones(16), np.ones(16)])
        estimate_states(readout, 0.5, eps=1e-9)
        assert readout.presentations == 7
        estimate_states(readout, 0.5, eps=1e-9)
        assert readout.presentations == 7 + 7


class TestEstimatePhase:
    """The relative phase of ``z_1`` on a two-channel readout, reference 0."""

    def test_in_phase(self):
        phi = _relative_phase(np.ones(4), np.ones(4))
        assert np.allclose(phi, 0.0, atol=1e-12)

    def test_anti_phase(self):
        phi = _relative_phase(np.ones(4), -np.ones(4))
        assert np.allclose(np.abs(phi), np.pi, atol=1e-12)

    def test_plus_sixty_degrees(self):
        phi = _relative_phase(np.ones(4), np.full(4, np.exp(1j * np.pi / 3)))
        assert np.allclose(phi, np.pi / 3, rtol=1e-12)

    def test_sign_sweep_exhaustive(self):
        # Full-circle sweep in 1-degree steps with random moduli and a
        # random reference phase, which the estimate rotates away.
        rng = np.random.default_rng(1)
        degrees = np.arange(-179.5, 180.0, 1.0)
        angles = np.deg2rad(degrees)
        ref_phase = rng.uniform(-np.pi, np.pi, size=angles.size)
        xk = rng.uniform(0.1, 2.0, size=angles.size) * np.exp(1j * ref_phase)
        xl = rng.uniform(0.1, 2.0, size=angles.size) * np.exp(1j * (ref_phase + angles))
        phi = _relative_phase(xk, xl)
        assert np.max(np.abs(phi - angles)) <= 1e-9

    def test_inconsistent_powers_stay_finite(self):
        # Pair and quad powers past the geometric limit of the one-hot
        # powers, as noise gives them, still make finite estimates.
        one_hot = [[1.0, 1.0], [1.0, 1e-12]]
        couple = [[2.0 + 1e-9, 1e-6], [3.0, 5.0]]
        est = estimate_states(ScriptedReadout(2, [one_hot, couple]), 0.5, eps=1e-9, ref_channel=0)
        assert np.isfinite(est.samples).all()
        assert not est.defaulted.any()


class TestReconstruction:
    def test_two_constant_channels(self):
        xk = np.ones(32, complex)
        xl = np.exp(1j * np.pi / 3) * np.ones(32)
        readout = _readout_from_columns([xk, xl])
        est = estimate_states(readout, RAW.responsivity, eps=1e-9)
        assert np.allclose(est.samples[:, 0], 1.0, rtol=1e-10)
        assert np.allclose(est.samples[:, 1], np.exp(1j * np.pi / 3), rtol=1e-10)

    def test_all_zero_states(self):
        readout = _readout_from_columns([np.zeros(16), np.zeros(16)])
        est = estimate_states(readout, RAW.responsivity, eps=1e-9)
        assert np.all(est.samples == 0.0)
        assert est.defaulted.all()
        assert est.defaulted_fraction == 1.0

    def test_dark_reference_defaults_every_channel(self):
        # A dim channel gives a small z, not an undefined phase, so only a
        # dark reference defaults: there every channel keeps its own
        # modulus with phase 0 (a +0.0 imaginary part).
        x_ref = np.array([1.0, 1.0, 1e-12])
        x_q = np.array([0.5 * np.exp(0.4j), 1e-12 * np.exp(2j), 0.5 * np.exp(0.4j)])
        est = estimate_states(_readout_from_columns([x_ref, x_q]), RAW.responsivity, eps=1e-6, ref_channel=0)
        assert est.defaulted.tolist() == [[False, False], [False, False], [True, True]]
        assert np.isclose(est.samples[0, 1], 0.5 * np.exp(0.4j), rtol=1e-12)
        assert abs(est.samples[1, 1]) < 1e-11
        assert np.allclose(est.samples[2], [1e-12, 0.5], rtol=1e-12)
        assert (est.samples[2].imag == 0.0).all() and not np.signbit(est.samples[2].imag).any()

    def test_nonpositive_eps_rejected(self):
        readout = _readout_from_columns([np.ones(8), np.ones(8)])
        with pytest.raises(ValueError, match="eps"):
            estimate_states(readout, RAW.responsivity, eps=0.0)
        assert readout.presentations == 0

    def test_full_pipeline_global_phase_agreement(self):
        # Noiseless probing of a simulated reservoir recovers each row up
        # to one global phase, which the detector cannot see anyway.
        topo = build_swirl(seed=12)
        sig = modulate(gen_bits(120, 3, 10e9), 24, 0.025)
        states = simulate(topo, sig, 0.02)
        readout = SimulatedReadout(states, RAW, seed=0)
        eps = 1e-6 * np.sqrt(0.1)
        est = estimate_states(readout, RAW.responsivity, eps=eps)
        assert readout.presentations == probe_count(states.n_channels) == 49

        warm = 10 * 24
        true, got = states.samples[warm:], est.samples[warm:]
        assert np.max(np.abs(np.abs(got) - np.abs(true))) <= 1e-9 * np.max(np.abs(true))
        # align each row by the reference channel's true phase
        g = np.exp(-1j * np.angle(true[:, est.ref_channel]))
        aligned = true * g[:, None]
        mask = np.abs(true) > eps
        err = np.abs(got - aligned)[mask]
        assert np.max(err) <= 1e-6 * np.max(np.abs(true))


class TestTrainNlinv:
    def test_synthetic_three_channel_detector_equivalence(self):
        rng = np.random.default_rng(4)
        n_bits, spb = 40, 6
        n = n_bits * spb
        cols = [
            rng.normal(size=n) * 0.2 + 1j * rng.normal(size=n) * 0.2,
            rng.normal(size=n) * 0.2 + 1j * rng.normal(size=n) * 0.2,
            np.full(n, 0.14 + 0j),
        ]
        arr = np.stack(cols, axis=1)
        states = StateMatrix(arr, 1e-11, ("a", "b", "bias"))
        readout = SimulatedReadout(states, RAW, seed=1)
        d = DesiredSignal(rng.integers(0, 2, n_bits), p_total=0.1)
        result = train_nlinv(readout, d, RAW.responsivity, samples_per_bit=spb)
        assert result.presentations == 7

        w = result.weights.values
        est = result.estimated.samples
        true_out = np.abs(arr @ w) ** 2
        est_out = np.abs(est @ w) ** 2
        assert np.max(np.abs(true_out - est_out)) <= 1e-9 * np.max(true_out)

    def test_reference_channel_is_strongest(self):
        xweak = 0.01 * np.ones(48, complex)
        xstrong = 0.5 * np.ones(48, complex)
        readout = _readout_from_columns([xweak, xstrong])
        est = estimate_states(readout, RAW.responsivity, eps=1e-9)
        assert est.ref_channel == 1


class TestEstimationReference:
    """``estimate_states`` returns exactly what the N x F round returns."""

    @pytest.fixture(scope="class")
    def states(self):
        topo = build_swirl(seed=12)
        sig = modulate(gen_bits(120, 3, 10e9), 24, 0.025)
        return simulate(topo, sig, 0.02)

    @pytest.mark.parametrize("seed", [1, 3])
    @pytest.mark.parametrize("ref_channel", [None, 3])
    @pytest.mark.parametrize("dark_quantile", [None, 0.2])
    def test_matches_reference(self, states, seed, ref_channel, dark_quantile):
        # Noise and the Butterworth filter on, for two noise streams.  With a
        # dark quantile, eps sits at that quantile of the true reference
        # modulus, so the reference is dark at some samples.  Reference 3 is
        # a node: its couples straddle it, and the bias line is not dark.
        ref = states.bias_index if ref_channel is None else ref_channel
        eps = 1e-9
        if dark_quantile is not None:
            eps = float(np.quantile(np.abs(states.samples[:, ref]), dark_quantile))
        readout = RecordingReadout(states, NOISY_FILTERED, seed=seed)
        est = estimate_states(readout, NOISY_FILTERED.responsivity, eps=eps, ref_channel=ref_channel)
        ref_readout = SimulatedReadout(states, NOISY_FILTERED, seed=seed)
        samples, defaulted, ref_got = _reference_estimate_states(
            ref_readout, NOISY_FILTERED.responsivity, eps=eps, ref_channel=ref_channel
        )
        assert ref_got == ref == est.ref_channel
        assert est.samples.flags["C_CONTIGUOUS"]
        # bytes, so signed zeros count too
        assert est.samples.tobytes() == samples.tobytes()
        assert np.array_equal(est.defaulted, defaulted)
        assert readout.presentations == ref_readout.presentations == probe_count(17)
        # the one-hot call, then 16 couples four at a time
        assert [len(call) for call in readout.calls] == [17, 8, 8, 8, 8]
        _assert_round_calls(readout, 17, ref)
        if dark_quantile is not None:
            assert 0 < est.defaulted_fraction < 1
        # a dark reference defaults every channel of its samples to its modulus
        assert (est.defaulted == est.defaulted[:, :1]).all()
        assert np.array_equal(est.samples[est.defaulted], np.abs(est.samples[est.defaulted]))

    def test_filtered_cross_terms_match_sampled_basis(self):
        # Noise off, filter on: the couples read the filtered cross terms
        # x_r conj(x_q), the (r, q) rows of the sampled basis, at every
        # sampled instant.
        filtered = DetectorConfig(noise_enabled=False, filter_enabled=True)
        cfg = ci_profile()
        states = _prepare_cell(cfg, 10.0, 0).states_train
        spb, offset = cfg.samples_per_bit, cfg.samples_per_bit // 2
        est = estimate_states(SimulatedReadout(states, filtered), filtered.responsivity, eps=1e-9)
        basis = sampled_basis(states, filtered, spb, offset)
        r, f = est.ref_channel, states.n_channels
        picked = est.samples[offset::spb]
        assert not est.defaulted[offset::spb].any()
        pairs = list(zip(*np.triu_indices(f, 1)))
        for q in range(f):
            if q == r:
                continue
            cross = np.conj(picked[:, q]) * picked[:, r].real
            row = f + pairs.index((min(r, q), max(r, q)))
            want_re = basis.products[row]
            want_im = basis.products[row + len(pairs)] * (-1.0 if r > q else 1.0)
            bound = 1e-12 * max(np.abs(want_re).max(), np.abs(want_im).max())
            assert np.max(np.abs(cross.real - want_re)) <= bound
            assert np.max(np.abs(cross.imag - want_im)) <= bound


class TestRejectedWeightsAreNotCounted:
    def test_present_and_present_sampled(self):
        readout = _readout_from_columns([np.ones(48), 0.5 * np.ones(48)], detector=NOISY_FILTERED)
        readout.present(np.ones((2, 3)))
        assert readout.presentations == 3
        with pytest.raises(ValueError, match="finite"):
            readout.present(np.full((2, 3), np.nan))
        assert readout.presentations == 3
        with pytest.raises(ValueError, match="shape"):
            readout.present(np.ones((3, 2)))
        assert readout.presentations == 3
        with pytest.raises(ValueError, match="finite"):
            readout.present_sampled(np.full((2, 3), np.nan), 4, 1)
        assert readout.presentations == 3
