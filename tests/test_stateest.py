import math

import numpy as np
import pytest

from photonrc.detector import DetectorConfig
from photonrc.reservoir import StateMatrix, build_swirl, simulate
from photonrc.signals import DesiredSignal, gen_bits, modulate
from photonrc.stateest import (
    SimulatedReadout,
    _inverted_modulus,
    _phase_from_powers,
    build_probe_schedule,
    estimate_phase,
    estimate_states,
    probe_count,
    probe_moduli,
    reconstruct_states,
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


def _reference_estimate_states(readout, responsivity, eps, ref_channel=None):
    """The probing round on N x F arrays, assembled through ``np.exp``.

    Returns samples, defaulted, the reference channel and the clamp excess.
    """
    schedule = build_probe_schedule(readout.n_channels)
    columns = [
        _inverted_modulus(readout.present(w).samples, responsivity)
        for w, kind in zip(schedule.weights, schedule.kinds)
        if kind[0] == "modulus"
    ]
    moduli = np.stack(columns, axis=1)
    if ref_channel is None:
        ref_channel = int(np.argmax(moduli.mean(axis=0)))
    schedule = build_probe_schedule(moduli.shape[1], ref_channel)
    phase_probes = [(w, k) for w, k in zip(schedule.weights, schedule.kinds) if k[0] != "modulus"]
    phases = np.zeros_like(moduli)
    worst_excess = 0.0
    p_ref = moduli[:, ref_channel]
    for (pair, (_, _, q)), (quad, _) in zip(phase_probes[::2], phase_probes[1::2]):
        p_pair, p_quad = _inverted_modulus(
            readout.present(np.stack([pair, quad], axis=1)).samples, responsivity
        )
        valid = (p_ref >= eps) & (moduli[:, q] >= eps)
        phases[:, q], excess = _phase_from_powers(p_ref, moduli[:, q], p_pair, p_quad, valid)
        worst_excess = max(worst_excess, excess)
    low = moduli < eps
    defaulted = low | low[:, [ref_channel]]
    defaulted[:, ref_channel] = low[:, ref_channel]
    used_phases = np.where(defaulted, 0.0, phases)
    used_phases[:, ref_channel] = 0.0
    return moduli * np.exp(1j * used_phases), defaulted, ref_channel, worst_excess


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
    def test_constant_channel(self):
        x = np.full(128, 0.1 * np.exp(1j * np.pi / 4))
        readout = _readout_from_columns([x])
        moduli = probe_moduli(readout, RAW.responsivity)
        # detector sees 0.5 * 0.01 = 0.005 A, inversion recovers 0.1
        assert np.allclose(moduli[:, 0], 0.1, rtol=1e-12)

    def test_zero_channel(self):
        readout = _readout_from_columns([np.zeros(64)])
        assert np.all(probe_moduli(readout, RAW.responsivity) == 0.0)

    def test_negative_samples_clipped(self):
        class NegativeReadout:
            n_channels = 1
            presentations = 0

            def present(self, weights):
                from photonrc.detector import ElectricalSignal

                self.presentations += 1
                return ElectricalSignal(np.array([-1e-3, 4e-3]), 1e-11)

        moduli = probe_moduli(NegativeReadout(), 0.5)
        assert moduli[0, 0] == 0.0
        assert np.isclose(moduli[1, 0], np.sqrt(8e-3))

    def test_noisy_median_close_to_truth(self):
        # At <I> far above the noise floor the inverted estimates sit
        # within 2% of the true modulus in the median.
        noisy = DetectorConfig(noise_enabled=True, filter_enabled=False)
        x = np.full(200_000, 0.1 + 0j)
        readout = _readout_from_columns([x], detector=noisy, seed=5)
        moduli = probe_moduli(readout, noisy.responsivity)
        assert abs(np.median(moduli[:, 0]) - 0.1) <= 0.002

    def test_presentation_counting(self):
        readout = _readout_from_columns([np.ones(16), np.ones(16), np.ones(16)])
        probe_moduli(readout, 0.5)
        assert readout.presentations == 3
        probe_moduli(readout, 0.5)
        assert readout.presentations == 3 + 3


class TestEstimatePhase:
    def test_in_phase(self):
        phi = estimate_phase(np.array([1.0]), np.array([1.0]), np.array([2.0]), np.array([np.sqrt(2.0)]))
        assert np.isclose(phi[0], 0.0, atol=1e-12)

    def test_anti_phase(self):
        phi = estimate_phase(np.array([1.0]), np.array([1.0]), np.array([0.0]), np.array([np.sqrt(2.0)]))
        assert np.isclose(abs(phi[0]), np.pi, atol=1e-12)

    def test_plus_sixty_degrees(self):
        # x_k = 1, x_l = e^{j pi/3}: plain sum power 3, quadrature 2 + sqrt(3).
        p_pair = np.sqrt(3.0)
        p_quad = np.sqrt(2.0 + np.sqrt(3.0))
        phi = estimate_phase(np.array([1.0]), np.array([1.0]), np.array([p_pair]), np.array([p_quad]))
        assert np.isclose(phi[0], np.pi / 3, rtol=1e-12)

    def test_sign_sweep_exhaustive(self):
        # Full-circle sweep in 1-degree steps with random moduli.  The
        # exact boundaries {0, +-pi} are excluded: arccos has infinite
        # slope there, so the recovered magnitude cannot beat sqrt(eps).
        rng = np.random.default_rng(1)
        degrees = np.arange(-179.5, 180.0, 1.0)
        angles = np.deg2rad(degrees)
        p_k = rng.uniform(0.1, 2.0, size=angles.size)
        p_l = rng.uniform(0.1, 2.0, size=angles.size)
        xk = p_k.astype(complex)
        xl = p_l * np.exp(1j * angles)
        p_pair = np.abs(xk + xl)
        p_quad = np.abs(1j * xk + xl)
        phi = estimate_phase(p_k, p_l, p_pair, p_quad)
        assert np.max(np.abs(phi - angles)) <= 1e-9

    def test_clamp_handles_noisy_ratio(self):
        # Powers perturbed past the geometric limit must not produce NaN.
        phi = estimate_phase(
            np.array([1.0, 1.0]),
            np.array([1.0, 1.0]),
            np.array([2.0 + 1e-9, 1e-6]),
            np.array([np.sqrt(2.0), np.sqrt(2.0)]),
        )
        assert np.isfinite(phi).all()

    def test_noiseless_clamp_excess_tiny(self):
        rng = np.random.default_rng(2)
        n = 5000
        xk = rng.uniform(0.1, 2.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        xl = rng.uniform(0.1, 2.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        moduli = np.stack([np.abs(xk), np.abs(xl)], axis=1)
        from photonrc.stateest import _phase_from_powers

        _, excess = _phase_from_powers(
            np.abs(xk), np.abs(xl), np.abs(xk + xl), np.abs(1j * xk + xl), np.ones(n, bool)
        )
        assert excess <= 1e-12


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

    def test_reconstruct_defaults_low_modulus_phases(self):
        moduli = np.array([[1.0, 0.5], [1.0, 1e-12]])
        phases = np.array([[0.0, 0.4], [0.0, 2.0]])
        est = reconstruct_states(moduli, phases, ref_channel=0, eps=1e-6)
        assert not est.defaulted[0, 1]
        assert est.defaulted[1, 1]
        assert est.samples[1, 1] == 1e-12  # phase defaulted to 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_states(np.ones((4, 2)), np.ones((3, 2)), 0)

    def test_reconstruct_matches_exp_assembly_bytes(self):
        # Zero phases of either sign, defaulted entries (zero and small
        # moduli, in a channel and in the reference) and the reference
        # column all give the bytes of modulus * exp(1j * phase) with the
        # phase set to 0 there: a +0.0 imaginary part, never -0.0.
        rng = np.random.default_rng(2)
        moduli = rng.uniform(0.1, 1.0, (60, 4))
        phases = rng.uniform(-np.pi, np.pi, (60, 4))
        phases[::3, 1] = -0.0
        phases[1::4, 2] = 0.0
        phases[::5, 0] = -0.0
        moduli[::7, 3] = 0.0
        moduli[2::9, 2] = 1e-9
        moduli[4::11, 0] = 1e-9
        est = reconstruct_states(moduli, phases, ref_channel=0, eps=1e-6)
        used = np.where(est.defaulted, 0.0, phases)
        used[:, 0] = 0.0
        expected = moduli * np.exp(1j * used)
        assert est.defaulted[:, 3].any() and est.defaulted[4::11].all()
        assert est.samples.tobytes() == expected.tobytes()
        assert not np.signbit(est.samples.imag[phases == 0.0]).any()

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
    @pytest.mark.parametrize("eps_quantile", [None, 0.2])
    def test_matches_reference(self, states, seed, ref_channel, eps_quantile):
        # Noise and the Butterworth filter on, for two noise streams: the
        # clamp excess is far from zero and clipped samples give zero moduli.
        eps = 1e-9 if eps_quantile is None else float(np.quantile(np.abs(states.samples), eps_quantile))
        readout = RecordingReadout(states, NOISY_FILTERED, seed=seed)
        est = estimate_states(readout, NOISY_FILTERED.responsivity, eps=eps, ref_channel=ref_channel)
        ref_readout = SimulatedReadout(states, NOISY_FILTERED, seed=seed)
        samples, defaulted, ref, excess = _reference_estimate_states(
            ref_readout, NOISY_FILTERED.responsivity, eps=eps, ref_channel=ref_channel
        )
        assert est.samples.flags["C_CONTIGUOUS"]
        assert np.array_equal(est.samples, samples)
        assert est.samples.tobytes() == samples.tobytes()
        assert np.array_equal(est.defaulted, defaulted)
        assert est.ref_channel == ref
        assert est.clamp_excess == excess
        assert readout.presentations == ref_readout.presentations == probe_count(17)
        # the one-hot call, then 16 couples four at a time
        assert [len(call) for call in readout.calls] == [17, 8, 8, 8, 8]
        _assert_round_calls(readout, 17, ref)
        assert excess > 0
        if eps_quantile is not None:
            assert 0 < est.defaulted_fraction < 1
        if eps_quantile is not None and ref_channel is not None:
            # a weak reference alone defaults some samples of strong channels
            ref_low = defaulted[:, ref]
            assert ref_low.any()
            assert np.any(np.abs(states.samples[ref_low]) > 2 * eps)


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
