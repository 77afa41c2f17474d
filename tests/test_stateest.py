import math
import tracemalloc

import numpy as np
import pytest

from photonrc.config import SAMPLES_PER_BIT, ci_profile
from photonrc.detector import DetectorConfig, sampled_basis
from photonrc.harness import _prepare_cell  # test-only access to the cell builder
from photonrc.reservoir import StateMatrix, build_swirl, simulate
from photonrc.ridge import cv_alpha, ridge_problem
from photonrc.signals import gen_bits, modulate
from photonrc.stateest import (
    SimulatedReadout,
    build_probe_schedule,
    estimate_states,
    probe_count,
)

RAW = DetectorConfig(noise_enabled=False, filter_enabled=False)
NOISY_FILTERED = DetectorConfig(noise_enabled=True, filter_enabled=True)


def _readout_from_columns(columns, detector=RAW, seed=0, period=1e-11):
    arr = np.stack([np.asarray(c, dtype=complex) for c in columns], axis=1)
    return SimulatedReadout(StateMatrix(arr, period), detector, seed=seed)


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
    expected = list(build_probe_schedule(n_channels, ref_channel).T)
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
        self.sample_period = 1e-11
        self.bias_index = None
        self.presentations = 0
        self._blocks = iter(blocks)

    def present(self, weights):
        self.presentations += np.asarray(weights).shape[1]
        return np.array(next(self._blocks), dtype=float)


def _reference_estimate_states(readout, responsivity, ref_channel):
    """The linear probing round on N x F arrays, one probe per ``present`` call."""
    f = readout.n_channels
    schedule = build_probe_schedule(f, ref_channel).T
    powers = np.stack([readout.present(w) for w in schedule[:f]], axis=1)
    p_ref = powers[:, ref_channel]
    mod_ref = np.sqrt(np.maximum(p_ref, 0.0) / responsivity)
    scale = 1.0 / (2.0 * responsivity * mod_ref)
    samples = np.empty(powers.shape, dtype=complex)
    for w in schedule[f:]:
        # a pair probe is 1 on the reference, a quadrature probe j
        (q,) = [j for j in np.flatnonzero(w) if j != ref_channel]
        part = samples.real if w[ref_channel] == 1.0 else samples.imag
        part[:, q] = (readout.present(w) - (p_ref + powers[:, q])) * scale
    samples[:, ref_channel] = mod_ref
    return samples


def _assert_dark_reference_raises(readout, ref_channel, n_dark, n_samples):
    """A dark reference raises right after the F one-hot presentations."""
    message = f"reference channel {ref_channel} is dark at {n_dark} of {n_samples} samples"
    with pytest.raises(ValueError, match=message):
        estimate_states(readout, RAW.responsivity, ref_channel)
    assert readout.presentations == readout.n_channels


def _relative_phase(xk, xl):
    """Phase of channel l against reference k, as ``estimate_states`` recovers it."""
    readout = _readout_from_columns([xk, xl])
    return np.angle(estimate_states(readout, RAW.responsivity, 0).samples[:, 1])


class TestProbeSchedule:
    def test_probe_count_formula(self):
        for f in range(1, 25):
            assert probe_count(f) == 3 * f - 2
        assert probe_count(17) == 49

    def test_schedule_structure(self):
        sched = build_probe_schedule(5, ref_channel=2)
        assert sched.shape == (5, 13)
        assert sched.dtype == np.complex128
        assert np.array_equal(sched[:, :5], np.eye(5))
        for k, q in enumerate([0, 1, 3, 4]):
            pair, quad = sched[:, 5 + 2 * k], sched[:, 6 + 2 * k]
            assert np.flatnonzero(pair).tolist() == np.flatnonzero(quad).tolist() == sorted([2, q])
            assert pair[2] == 1.0 and quad[2] == 1.0j
            assert pair[q] == quad[q] == 1.0

    @pytest.mark.parametrize(
        "n_channels, ref_channel, want",
        [
            (
                3,
                1,
                [
                    [1, 0, 0, 1, 1, 0, 0],
                    [0, 1, 0, 1, 1j, 1, 1j],
                    [0, 0, 1, 0, 0, 1, 1],
                ],
            ),
            (
                4,
                3,
                [
                    [1, 0, 0, 0, 1, 1, 0, 0, 0, 0],
                    [0, 1, 0, 0, 0, 0, 1, 1, 0, 0],
                    [0, 0, 1, 0, 0, 0, 0, 0, 1, 1],
                    [0, 0, 0, 1, 1, 1j, 1, 1j, 1, 1j],
                ],
            ),
        ],
        ids=["3-ref1", "4-ref3"],
    )
    def test_schedule_matrix(self, n_channels, ref_channel, want):
        # one probe per column: the one-hots, then a pair and a quad per channel
        got = build_probe_schedule(n_channels, ref_channel)
        assert got.dtype == np.complex128
        assert np.array_equal(got, np.array(want, dtype=complex))

    def test_single_channel_schedule_is_its_one_hot(self):
        assert np.array_equal(build_probe_schedule(1, 0), np.ones((1, 1), dtype=complex))

    def test_bad_ref_rejected(self):
        with pytest.raises(ValueError):
            build_probe_schedule(4, ref_channel=7)

    def test_missing_ref_rejected(self):
        # the bias_index of states without a bias line
        with pytest.raises(ValueError, match="needs a reference channel"):
            build_probe_schedule(4, ref_channel=None)

    def test_round_without_bias_line_rejected_before_any_presentation(self):
        readout = RecordingReadout(StateMatrix(np.ones((16, 3), dtype=complex), 1e-11), RAW)
        assert readout.bias_index is None
        with pytest.raises(ValueError, match="needs a reference channel"):
            estimate_states(readout, RAW.responsivity, readout.bias_index)
        assert readout.calls == [] and readout.presentations == 0

    @pytest.mark.parametrize("strong", [1, 2])
    def test_estimation_presents_the_schedule(self, strong):
        # The pair and quad probes follow the given reference, so they differ
        # from those of the default schedule; each probe is presented once,
        # the one-hot probes in one call and the three couples in a second.
        rng = np.random.default_rng(6)
        arr = 0.1 * (rng.normal(size=(64, 4)) + 1j * rng.normal(size=(64, 4)))
        arr[:, strong] = 0.5
        readout = RecordingReadout(StateMatrix(arr, 1e-11), RAW)
        estimate_states(readout, RAW.responsivity, strong)
        assert len(readout.calls) == 2
        _assert_round_calls(readout, 4, strong)


class TestProbeModuli:
    """The one-hot probes' inverted square law, read from the reference column."""

    def test_constant_channel(self):
        x = np.full(128, 0.1 * np.exp(1j * np.pi / 4))
        readout = _readout_from_columns([x])
        est = estimate_states(readout, RAW.responsivity, 0)
        # detector sees 0.5 * 0.01 = 0.005 A, inversion recovers 0.1
        assert np.allclose(est.samples[:, 0], 0.1, rtol=1e-12)

    def test_zero_channel(self):
        _assert_dark_reference_raises(_readout_from_columns([np.zeros(64)]), 0, 64, 64)

    def test_negative_samples_clipped(self):
        # A negative power clips to a zero modulus, which makes the reference dark there.
        _assert_dark_reference_raises(ScriptedReadout(1, [[[-1e-3, 4e-3]]]), 0, 1, 2)

    def test_noisy_median_close_to_truth(self):
        # At <I> far above the noise floor the inverted estimates sit
        # within 2% of the true modulus in the median.
        noisy = DetectorConfig(noise_enabled=True, filter_enabled=False)
        x = np.full(200_000, 0.1 + 0j)
        readout = _readout_from_columns([x], detector=noisy, seed=5)
        est = estimate_states(readout, noisy.responsivity, 0)
        assert abs(np.median(est.samples[:, 0].real) - 0.1) <= 0.002

    def test_presentation_counting(self):
        readout = _readout_from_columns([np.ones(16), np.ones(16), np.ones(16)])
        estimate_states(readout, 0.5, 0)
        assert readout.presentations == 7
        estimate_states(readout, 0.5, 0)
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
        est = estimate_states(ScriptedReadout(2, [one_hot, couple]), 0.5, 0)
        assert np.isfinite(est.samples).all()


class TestReconstruction:
    def test_two_constant_channels(self):
        xk = np.ones(32, complex)
        xl = np.exp(1j * np.pi / 3) * np.ones(32)
        readout = _readout_from_columns([xk, xl])
        est = estimate_states(readout, RAW.responsivity, 0)
        assert np.allclose(est.samples[:, 0], 1.0, rtol=1e-10)
        assert np.allclose(est.samples[:, 1], np.exp(1j * np.pi / 3), rtol=1e-10)

    def test_all_zero_states(self):
        readout = _readout_from_columns([np.zeros(16), np.zeros(16)])
        _assert_dark_reference_raises(readout, 0, 16, 16)

    def test_full_pipeline_global_phase_agreement(self):
        # Noiseless probing of a simulated reservoir recovers each row up
        # to one global phase, which the detector cannot see anyway.
        topo = build_swirl(seed=12)
        sig = modulate(gen_bits(120, 3), 10e9, 24, 0.025)
        states = simulate(topo, sig, 0.02)
        readout = SimulatedReadout(states, RAW, seed=0)
        est = estimate_states(readout, RAW.responsivity, states.bias_index)
        assert readout.presentations == probe_count(states.n_channels) == 49

        warm = 10 * 24
        true, got = states.samples[warm:], est.samples[warm:]
        assert np.max(np.abs(np.abs(got) - np.abs(true))) <= 1e-9 * np.max(np.abs(true))
        # align each row by the reference channel's true phase
        g = np.exp(-1j * np.angle(true[:, states.bias_index]))
        aligned = true * g[:, None]
        mask = np.abs(true) > 1e-6 * np.sqrt(0.1)
        err = np.abs(got - aligned)[mask]
        assert np.max(err) <= 1e-6 * np.max(np.abs(true))


class TestTrainNlinv:
    """``nlinv`` training: the ridge fit on the states a probing round recovered."""

    def test_synthetic_three_channel_detector_equivalence(self):
        # weights fitted on the estimate drive the detector as they would
        # the true states: the global phase per sample is invisible to it
        rng = np.random.default_rng(4)
        n_bits, spb = 40, 6
        n = n_bits * spb
        cols = [
            rng.normal(size=n) * 0.2 + 1j * rng.normal(size=n) * 0.2,
            rng.normal(size=n) * 0.2 + 1j * rng.normal(size=n) * 0.2,
            np.full(n, 0.14 + 0j),
        ]
        arr = np.stack(cols, axis=1)
        states = StateMatrix(arr, 1e-11, bias_index=2)
        readout = SimulatedReadout(states, RAW, seed=1)
        d = rng.integers(0, 2, n_bits) * 0.1
        estimated = estimate_states(readout, RAW.responsivity, states.bias_index)
        assert readout.presentations == 7
        _, weights = cv_alpha(*ridge_problem(estimated, d, RAW.responsivity, spb))

        true_out = np.abs(arr @ weights) ** 2
        est_out = np.abs(estimated.samples @ weights) ** 2
        assert np.max(np.abs(true_out - est_out)) <= 1e-9 * np.max(true_out)


class TestEstimationReference:
    """``estimate_states`` returns exactly what the N x F round returns."""

    @pytest.fixture(scope="class")
    def states(self):
        topo = build_swirl(seed=12)
        sig = modulate(gen_bits(120, 3), 10e9, 24, 0.025)
        return simulate(topo, sig, 0.02)

    @pytest.mark.parametrize("seed", [1, 3])
    @pytest.mark.parametrize("bias_at", [None, 3])
    def test_matches_reference(self, states, seed, bias_at):
        # Noise and the Butterworth filter on, for two noise streams.  With
        # the bias column moved to index 3, the first batch of couples
        # straddles the reference.
        if bias_at is not None:
            order = list(range(states.n_channels - 1))
            order.insert(bias_at, states.n_channels - 1)
            states = StateMatrix(states.samples[:, order], states.sample_period, bias_at)
        ref = states.bias_index
        readout = RecordingReadout(states, NOISY_FILTERED, seed=seed)
        est = estimate_states(readout, NOISY_FILTERED.responsivity, ref)
        ref_readout = SimulatedReadout(states, NOISY_FILTERED, seed=seed)
        samples = _reference_estimate_states(ref_readout, NOISY_FILTERED.responsivity, ref)
        assert est.samples.flags["C_CONTIGUOUS"]
        assert est.bias_index == states.bias_index
        # bytes, so signed zeros count too
        assert est.samples.tobytes() == samples.tobytes()
        assert readout.presentations == ref_readout.presentations == probe_count(17)
        # the one-hot call, then 16 couples four at a time
        assert [len(call) for call in readout.calls] == [17, 8, 8, 8, 8]
        _assert_round_calls(readout, 17, ref)

    def test_dark_node_reference_raises(self, states):
        # Node 3 is unlit until light first reaches it, so its noisy power
        # clips to zero at some samples.
        readout = SimulatedReadout(states, NOISY_FILTERED, seed=1)
        message = f"reference channel 3 is dark at [0-9]+ of {states.n_samples} samples"
        with pytest.raises(ValueError, match=message):
            estimate_states(readout, NOISY_FILTERED.responsivity, 3)
        assert readout.presentations == 17

    def test_filtered_cross_terms_match_sampled_basis(self):
        # Noise off, filter on: the couples read the filtered cross terms
        # x_r conj(x_q), the (r, q) rows of the sampled basis, at every
        # sampled instant.
        filtered = DetectorConfig(noise_enabled=False, filter_enabled=True)
        cfg = ci_profile()
        states = _prepare_cell(cfg, 10.0, 0).states_train
        spb, offset = SAMPLES_PER_BIT, SAMPLES_PER_BIT // 2
        r, f = states.bias_index, states.n_channels
        est = estimate_states(SimulatedReadout(states, filtered), filtered.responsivity, r)
        basis = sampled_basis(states, filtered, spb, offset)
        picked = est.samples[offset::spb]
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


def test_round_never_holds_the_one_hot_powers_beside_a_couple_block():
    # The F x N one-hot powers are folded into the estimate and dropped
    # before the first couple call, so the traced peak of a ci-length round
    # is the estimate and the one-hot block, plus small change: 20.2 MB
    # against a bound of 20.7 MB.  Holding the powers through the couples,
    # as the round once did, peaked at 25.1 MB here.
    states = _prepare_cell(ci_profile(), 10.0, 0).states_train
    n, f = states.samples.shape
    readout = SimulatedReadout(states, NOISY_FILTERED, seed=1)
    tracemalloc.start()
    try:
        estimated = estimate_states(readout, NOISY_FILTERED.responsivity, states.bias_index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert estimated.samples.nbytes == 16 * n * f
    assert peak <= 16 * n * f + 8 * f * n + 2**20


class TestRejectedWeightsAreNotCounted:
    def test_present_and_score_sampled(self):
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
            readout.score_sampled(np.full((2, 3), np.nan), np.zeros(12), 4, 1, 0)
        assert readout.presentations == 3
