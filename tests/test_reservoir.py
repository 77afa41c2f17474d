import logging
import math
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import photonrc.reservoir as reservoir_mod
from photonrc.reservoir import (
    Edge,
    InputPort,
    ReservoirTopology,
    SPEED_OF_LIGHT,
    StateMatrix,
    build_swirl,
    central_input_nodes,
    load_topology,
    perturb_phases,
    save_topology,
    simulate,
    _RESAMPLE_ROWS,
    _SPREAD_ROWS,
    _advance,
    _bracket,
    _resample_into,
    _simulation_step,
)
from photonrc.config import ci_profile
from photonrc.signals import OpticalSignal, gen_bits, modulate


def _random_input(n_bits=40, bitrate=10e9, seed=0, p_node=0.025):
    return modulate(gen_bits(n_bits, seed), bitrate, 24, p_node)


def _mixed_delay_swirl(seed):
    """4x4 swirl with every 4th waveguide twice as long (delay and loss)."""
    topo = build_swirl(seed=seed)
    edges = tuple(
        replace(e, delay=2.0 * e.delay, loss_db=2.0 * e.loss_db) if i % 4 == 3 else e
        for i, e in enumerate(topo.edges)
    )
    return replace(topo, edges=edges)


def _three_delay_swirl(seed):
    """4x4 swirl whose waveguides run 1, 2 and 3 times the shortest delay, in turn."""
    topo = build_swirl(seed=seed)
    edges = tuple(
        replace(e, delay=(1 + i % 3) * e.delay, loss_db=(1 + i % 3) * e.loss_db) for i, e in enumerate(topo.edges)
    )
    return replace(topo, edges=edges)


def _interp_complex(t_new, t_old, values):
    """Oracle for ``_resample_into``: ``np.interp`` of the real and imaginary parts."""
    return np.interp(t_new, t_old, values.real) + 1j * np.interp(t_new, t_old, values.imag)


def _reference_block_simulate(topology, sig, bias_power=None):
    """Oracle for ``simulate`` with the same arithmetic, laid out the plain way.

    The block recursion with a fresh product per block and delay, the
    input resampled through ``np.interp`` and fed to every port, every
    node column resampled back on its own through ``np.interp``, and the
    bias line appended by ``np.hstack``.  ``simulate`` must return these
    bytes.
    """
    ports = topology.input_ports
    n_in, period = len(sig), sig.sample_period
    n_nodes = topology.n_nodes
    step, delay_steps = _simulation_step(topology, period)
    same_grid = abs(step - period) <= 1e-9 * period
    n_sim = n_in if same_grid else int(math.ceil((n_in - 1) * period / step - 1e-9)) + 1
    t_sim = np.arange(n_sim) * step

    k_in = topology.in_degree().astype(np.float64)
    k_out = topology.out_degree().astype(np.float64)
    for p in ports:
        k_in[p.node] += 1.0
    combine = 1.0 / np.sqrt(np.maximum(k_in, 1.0))
    transfers = {}
    for e, d in zip(topology.edges, delay_steps):
        gain = 10.0 ** (-e.loss_db / 20.0) * np.exp(1j * e.phase) / np.sqrt(k_out[e.src]) * combine[e.dst]
        transfer = transfers.setdefault(int(d), np.zeros((n_nodes, n_nodes), dtype=np.complex128))
        transfer[e.src, e.dst] += gain
    d_min = min(transfers, default=n_sim)
    pad = max(transfers, default=0)

    buf = np.zeros((pad + n_sim, n_nodes), dtype=np.complex128)
    t_in = np.arange(n_in) * period
    resampled = sig.samples if same_grid else _interp_complex(t_sim, t_in, sig.samples)
    for port in ports:
        buf[pad:, port.node] += resampled * np.exp(1j * port.phase) * combine[port.node]
    for start in range(pad, pad + n_sim, d_min):
        stop = min(start + d_min, pad + n_sim)
        for d, transfer in transfers.items():
            buf[start:stop] += buf[start - d : stop - d] @ transfer
    out = buf[pad:]
    if not same_grid:
        resampled = np.empty((n_in, n_nodes), dtype=np.complex128)
        for ch in range(n_nodes):
            resampled[:, ch] = _interp_complex(t_in, t_sim, out[:, ch])
        out = resampled
    if bias_power is not None:
        out = np.hstack([out, np.full((n_in, 1), np.sqrt(bias_power), dtype=np.complex128)])
    return out


def _reference_simulate(topology, sig, bias_power=None):
    """Per-sample oracle for ``simulate``: one input broadcast to every port.

    Each time step sums every edge's delayed, attenuated and rotated source
    output on its own, so it shares no propagation code with the block
    recursion under test.
    """
    ports = topology.input_ports
    n_nodes, n_in, period = topology.n_nodes, len(sig), sig.sample_period
    step, delay_steps = _simulation_step(topology, period)
    same_grid = abs(step - period) <= 1e-9 * period
    n_sim = n_in if same_grid else int(math.ceil((n_in - 1) * period / step - 1e-9)) + 1
    t_in = np.arange(n_in) * period
    t_sim = np.arange(n_sim) * step

    k_in = topology.in_degree().astype(np.float64)
    k_out = topology.out_degree().astype(np.float64)
    for p in ports:
        k_in[p.node] += 1.0
    combine = 1.0 / np.sqrt(np.maximum(k_in, 1.0))

    drive = np.zeros((n_sim, n_nodes), dtype=np.complex128)
    resampled = sig.samples if same_grid else _interp_complex(t_sim, t_in, sig.samples)
    for port in ports:
        drive[:, port.node] += resampled * np.exp(1j * port.phase) * combine[port.node]
    gains = np.array(
        [
            10.0 ** (-e.loss_db / 20.0) * np.exp(1j * e.phase) / np.sqrt(k_out[e.src]) * combine[e.dst]
            for e in topology.edges
        ],
        dtype=np.complex128,
    )
    src = np.array([e.src for e in topology.edges], dtype=int)
    dst = np.array([e.dst for e in topology.edges], dtype=int)

    out = np.zeros((n_sim, n_nodes), dtype=np.complex128)
    for n in range(n_sim):
        acc = drive[n].copy()
        back = n - delay_steps
        live = back >= 0
        np.add.at(acc, dst[live], gains[live] * out[back[live], src[live]])
        out[n] = acc
    if not same_grid:
        out = np.stack([_interp_complex(t_in, t_sim, out[:, ch]) for ch in range(n_nodes)], axis=1)
    if bias_power is not None:
        out = np.hstack([out, np.full((n_in, 1), np.sqrt(bias_power), dtype=np.complex128)])
    return out


class TestBuildSwirl:
    def test_default_shape(self):
        t = build_swirl(seed=0)
        assert t.n_nodes == 16
        assert len(t.edges) == 24  # 12 horizontal + 12 vertical on a 4x4
        assert tuple(p.node for p in t.input_ports) == (5, 6, 9, 10)

    def test_edge_geometry(self):
        t = build_swirl(seed=0)
        length_cm = 62.5e-12 * SPEED_OF_LIGHT / 4.2 * 100.0
        assert np.isclose(length_cm, 0.4464, rtol=2e-3)
        for e in t.edges:
            assert e.delay == 62.5e-12
            assert np.isclose(e.loss_db, 3.0 * length_cm, rtol=1e-12)
            assert np.isclose(e.loss_db, 1.339, rtol=2e-3)

    def test_determinism(self):
        assert build_swirl(seed=42) == build_swirl(seed=42)
        assert build_swirl(seed=42) != build_swirl(seed=43)

    def test_phases_in_range(self):
        t = build_swirl(seed=9)
        for e in t.edges:
            assert 0.0 <= e.phase < 2 * np.pi
        for p in t.input_ports:
            assert 0.0 <= p.phase < 2 * np.pi

    def test_degrees_match_alternating_grid(self):
        t = build_swirl(seed=1)
        in_deg, out_deg = t.in_degree(), t.out_degree()
        # Every node participates in the circulation.
        assert (in_deg >= 1).all() and (out_deg >= 1).all()
        assert in_deg.sum() == out_deg.sum() == 24
        # Corners of the alternating pattern have exactly one edge each way.
        assert in_deg[0] == out_deg[0] == 1
        # Input nodes are interior: two edges in, two out.
        for node in (5, 6, 9, 10):
            assert in_deg[node] == 2 and out_deg[node] == 2

    def test_central_nodes_other_grids(self):
        assert central_input_nodes(2, 2) == (0, 1, 2, 3)
        assert central_input_nodes(6, 6) == (14, 15, 20, 21)

    def test_bad_input_nodes_rejected(self):
        with pytest.raises(ValueError):
            build_swirl(4, 4, seed=0, input_nodes=(5, 99))

    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError):
            build_swirl(1, 4, seed=0)


class TestPerturbPhases:
    def test_zero_perturbation_is_identity(self):
        t = build_swirl(seed=5)
        assert perturb_phases(t, 0.0, seed=1) == t

    def test_original_unmodified(self):
        t = build_swirl(seed=5)
        phases = [e.phase for e in t.edges]
        perturb_phases(t, np.pi, seed=1)
        assert [e.phase for e in t.edges] == phases

    def test_determinism(self):
        t = build_swirl(seed=5)
        assert perturb_phases(t, 0.3, seed=77) == perturb_phases(t, 0.3, seed=77)

    def test_mean_increment_of_uniform_draws(self):
        # Large grid for enough edges; mean of U(0, pi) is pi/2.
        t = build_swirl(20, 20, seed=2)
        p = perturb_phases(t, np.pi, seed=3)
        delta = np.array(
            [(pe.phase - e.phase) % (2 * np.pi) for e, pe in zip(t.edges, p.edges)]
        )
        assert abs(delta.mean() - np.pi / 2) < 0.05 * np.pi / 2

    def test_wrapped_to_principal_range(self):
        t = build_swirl(seed=5)
        p = perturb_phases(t, 6.0, seed=8)
        for e in p.edges:
            assert 0.0 <= e.phase < 2 * np.pi

    @pytest.mark.parametrize("b", [-0.1, math.nan, math.inf])
    def test_negative_or_non_finite_b_rejected(self, b):
        with pytest.raises(ValueError, match="maximum phase perturbation"):
            perturb_phases(build_swirl(seed=5), b, seed=1)


class TestTopology:
    def test_no_input_ports_rejected(self):
        with pytest.raises(ValueError, match="topology has no input ports"):
            ReservoirTopology(2, (Edge(0, 1, 1e-11, 0.5, 0.1),), ())


class TestStateMatrix:
    @pytest.mark.parametrize("bias_index", [-1, 3])
    def test_bias_index_outside_the_columns_rejected(self, bias_index):
        with pytest.raises(ValueError, match="bias index"):
            StateMatrix(np.ones((4, 3), complex), 1e-11, bias_index)

    def test_bias_index_defaults_to_none(self):
        assert StateMatrix(np.ones((4, 3), complex), 1e-11).bias_index is None
        assert StateMatrix(np.ones((4, 3), complex), 1e-11, 2).bias_index == 2


class TestSimulate:
    def test_zero_input_bias_only(self):
        t = build_swirl(seed=0)
        sig = OpticalSignal(np.zeros(200, complex), 1e-11)
        x = simulate(t, sig, bias_power=0.02)
        assert x.bias_index == 16
        assert np.all(x.samples[:, :16] == 0)
        assert np.allclose(x.samples[:, 16], np.sqrt(0.02))
        assert np.isclose(np.sqrt(0.02), 0.14142, atol=1e-5)

    def test_single_path_impulse(self):
        # One edge 0 -> 1: the impulse must arrive after exactly the edge
        # delay, attenuated and rotated, with unit combine/split factors.
        delay_steps, loss_db, phase = 5, 2.0, 0.8
        period = 1e-11
        t = ReservoirTopology(
            2,
            (Edge(0, 1, delay_steps * period, loss_db, phase),),
            (InputPort(0, 0.0),),
        )
        samples = np.zeros(32, complex)
        samples[0] = 1.0
        x = simulate(t, OpticalSignal(samples, period), None)
        downstream = x.samples[:, 1]
        assert np.all(downstream[:delay_steps] == 0)
        expected = 10 ** (-loss_db / 20) * np.exp(1j * phase)
        assert np.allclose(downstream[delay_steps], expected, rtol=1e-12)

    def test_impulse_with_injection_counting(self):
        # Node 1 receives the edge plus an injection port, so k_in = 2 and
        # arriving amplitudes are combined with 1/sqrt(2).  The impulse
        # reaches node 1 directly at step 0 and through the edge at step 4.
        period = 1e-11
        t = ReservoirTopology(
            2,
            (Edge(0, 1, 4 * period, 0.0, 0.0),),
            (InputPort(0, 0.0), InputPort(1, 0.0)),
        )
        impulse = np.zeros(16, complex)
        impulse[0] = 1.0
        x = simulate(t, OpticalSignal(impulse, period), None)
        assert np.allclose(x.samples[0, 1], 1.0 / np.sqrt(2.0), rtol=1e-12)
        assert np.allclose(x.samples[4, 1], 1.0 / np.sqrt(2.0), rtol=1e-12)

    def test_passivity_random_inputs(self):
        t = build_swirl(seed=4)
        for trial in range(20):
            sig = _random_input(30, seed=trial)
            x = simulate(t, sig, None)
            node_power = np.sum(np.abs(x.samples) ** 2, axis=1)
            injected = 4 * np.cumsum(np.abs(sig.samples) ** 2)
            assert np.all(node_power <= injected * (1 + 1e-9) + 1e-30)

    def test_passivity_strict_with_loss(self):
        t = build_swirl(seed=4)
        sig = _random_input(30, seed=1)
        x = simulate(t, sig, None)
        total_node = np.sum(np.abs(x.samples) ** 2)
        total_in = 4 * np.sum(np.abs(sig.samples) ** 2) * len(x.samples)
        assert total_node < total_in

    def test_linearity_complex_scaling(self):
        t = build_swirl(seed=4)
        sig = _random_input(25, seed=2)
        a = 0.37 - 1.21j
        x1 = simulate(t, sig, None)
        x2 = simulate(t, OpticalSignal(a * sig.samples, sig.sample_period), None)
        scale = np.max(np.abs(x1.samples))
        assert np.max(np.abs(x2.samples - a * x1.samples)) <= 1e-12 * scale

    def test_time_invariance_grid_aligned(self):
        # At 10 Gbps the simulation grid coincides with the input grid, so
        # a whole-bit delay must shift the states exactly.
        t = build_swirl(seed=6)
        sig = _random_input(60, bitrate=10e9, seed=3)
        shift = 24
        delayed = np.concatenate([np.zeros(shift, complex), sig.samples])[: len(sig.samples)]
        x0 = simulate(t, sig, None)
        x1 = simulate(t, OpticalSignal(delayed, sig.sample_period), None)
        warm = 10 * 24
        assert np.array_equal(x1.samples[warm + shift :], x0.samples[warm:-shift])

    def test_determinism(self):
        t = build_swirl(seed=7)
        sig = _random_input(20, seed=4)
        x1 = simulate(t, sig, 0.02)
        x2 = simulate(t, sig, 0.02)
        assert np.array_equal(x1.samples, x2.samples)

    def test_output_on_input_grid(self):
        t = build_swirl(seed=7)
        for bitrate in (3e9, 5e9, 10e9, 31e9):
            sig = _random_input(20, bitrate=bitrate, seed=5)
            x = simulate(t, sig, 0.02)
            assert x.n_samples == len(sig)
            assert x.sample_period == sig.sample_period

    def test_nonpositive_bias_rejected(self):
        t = build_swirl(seed=0)
        sig = OpticalSignal(np.zeros(10, complex), 1e-11)
        with pytest.raises(ValueError):
            simulate(t, sig, bias_power=0.0)

    @pytest.mark.parametrize("bitrate", [5e9, 10e9, 15e9])
    def test_mixed_delay_swirl_matches_oracle(self, bitrate):
        # 10 Gbps runs on the input grid; at 5 and 15 Gbps the simulation
        # grid is finer and the states are resampled.
        t = _mixed_delay_swirl(seed=11)
        assert len({e.delay for e in t.edges}) == 2
        sig = _random_input(30, bitrate=bitrate, seed=6)
        x = simulate(t, sig, None)
        ref = _reference_simulate(t, sig, None)
        assert np.max(np.abs(x.samples - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_chain_matches_oracle(self):
        period = 1e-11
        t = ReservoirTopology(
            3,
            (Edge(0, 1, 3 * period, 1.0, 0.1), Edge(1, 2, 7 * period, 1.0, 0.2)),
            (InputPort(0, 0.4),),
        )
        rng = np.random.default_rng(8)
        sig = OpticalSignal(rng.standard_normal(80) + 1j * rng.standard_normal(80), period)
        x = simulate(t, sig, None)
        ref = _reference_simulate(t, sig, None)
        assert np.max(np.abs(x.samples - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_bias_line_matches_oracle(self):
        t = _mixed_delay_swirl(seed=12)
        sig = _random_input(20, seed=7)
        x = simulate(t, sig, 0.02)
        ref = _reference_simulate(t, sig, 0.02)
        assert x.bias_index == 16
        assert np.max(np.abs(x.samples - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_edgeless_topology_returns_scaled_injection(self, tmp_path):
        # Node 0 has two injection ports (k_in = 2); node 1 has none.
        path = tmp_path / "edgeless.topo"
        path.write_text("nodes 2\ninput 0 0.5\ninput 0 1.0\n")
        t = load_topology(path)
        sig = _random_input(10, bitrate=15e9, seed=9)
        x = simulate(t, sig, None)
        expected = sig.samples * (np.exp(0.5j) + np.exp(1.0j)) / np.sqrt(2.0)
        assert np.allclose(x.samples[:, 0], expected, rtol=1e-12, atol=0.0)
        assert np.all(x.samples[:, 1] == 0)

    def test_heterogeneous_delays_supported(self):
        period = 1e-11
        t = ReservoirTopology(
            3,
            (Edge(0, 1, 3 * period, 1.0, 0.1), Edge(1, 2, 7 * period, 1.0, 0.2)),
            (InputPort(0, 0.0),),
        )
        impulse = np.zeros(40, complex)
        impulse[0] = 1.0
        x = simulate(t, OpticalSignal(impulse, period), None)
        assert np.argmax(np.abs(x.samples[:, 1]) > 0) == 3
        assert np.argmax(np.abs(x.samples[:, 2]) > 0) == 10


def _random_columns(n, width, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))


class TestResampleInto:
    """``_resample_into`` returns the bytes of per-column ``np.interp``."""

    @staticmethod
    def _check(x, xp, width=3, seed=0):
        fp = _random_columns(len(xp), width, seed)
        out = np.empty((len(x), width), dtype=np.complex128)
        _resample_into(out, x, xp, fp, _bracket(x, xp))
        expected = np.stack([_interp_complex(x, xp, fp[:, c]) for c in range(width)], axis=1)
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_in", [1, 2, 3, 25])
    @pytest.mark.parametrize("bitrate", [5e9, 15e9, 31e9])
    def test_simulation_grids_both_ways(self, n_in, bitrate):
        # The grids simulate resamples between: onto the finer simulation
        # grid and back, which ends at or past the last input time.
        t = build_swirl(seed=0)
        period = 1.0 / (bitrate * 24)
        step, _ = _simulation_step(t, period)
        n_sim = int(math.ceil((n_in - 1) * period / step - 1e-9)) + 1
        t_in, t_sim = np.arange(n_in) * period, np.arange(n_sim) * step
        assert t_sim[-1] >= t_in[-1]
        self._check(t_sim, t_in)
        self._check(t_in, t_sim)

    @pytest.mark.parametrize("n_x", [1, 2, 3])
    @pytest.mark.parametrize("n_xp", [1, 2, 3])
    def test_short_grids(self, n_x, n_xp):
        xp = np.arange(n_xp) * 0.75
        for x in (np.arange(n_x) * 0.5, np.arange(n_x) * 0.5 - 0.25, np.arange(n_x) * 2.0):
            self._check(x, xp)
            self._check(xp, x)

    def test_exact_hits_and_both_ends(self):
        # Every fourth point of x lies on a point of xp; x starts below
        # xp[0] and runs past xp[-1], then ends exactly on it.
        xp = np.arange(40) * 1.0
        self._check(np.arange(-2, 180) * 0.25, xp)
        self._check(np.arange(157) * 0.25, xp)
        self._check(xp, np.arange(-2, 180) * 0.25)

    @pytest.mark.parametrize("n_x", [_RESAMPLE_ROWS - 1, _RESAMPLE_ROWS, _RESAMPLE_ROWS + 1])
    def test_chunk_edges(self, n_x):
        xp = np.arange(n_x // 3 + 2) * 3.1
        x = np.linspace(0.0, xp[-1], n_x)
        self._check(x, xp, width=2)
        self._check(xp, x, width=2)

    def test_writes_a_column_slice_of_a_wider_matrix(self):
        xp, x = np.arange(30) * 1.0, np.arange(70) * 0.4
        fp = _random_columns(30, 4, seed=1)
        wide = np.zeros((70, 5), dtype=np.complex128)
        _resample_into(wide[:, :4], x, xp, fp, _bracket(x, xp))
        assert np.all(wide[:, 4] == 0)
        expected = np.stack([_interp_complex(x, xp, fp[:, c]) for c in range(4)], axis=1)
        assert wide[:, :4].tobytes() == expected.tobytes()

    def test_short_input_into_a_strided_destination(self):
        # Fewer rows than one chunk, written into every other row and a
        # column slice of a wider matrix: the chunk buffers shrink to the
        # input, and the rows and columns between stay untouched.
        xp, x = np.arange(50) * 1.0, np.arange(_RESAMPLE_ROWS // 8) * 0.19
        fp = _random_columns(50, 3, seed=2)
        wide = np.zeros((2 * len(x), 5), dtype=np.complex128)
        _resample_into(wide[1::2, 1:4], x, xp, fp, _bracket(x, xp))
        expected = np.stack([_interp_complex(x, xp, fp[:, c]) for c in range(3)], axis=1)
        assert wide[1::2, 1:4].tobytes() == expected.tobytes()
        assert not wide[::2].any() and not wide[:, [0, 4]].any()


class TestSimulateMatchesBlockReference:
    """``simulate`` returns the bytes of ``_reference_block_simulate``."""

    @staticmethod
    def _check(topology, inputs, bias_power):
        x = simulate(topology, inputs, bias_power).samples
        ref = _reference_block_simulate(topology, inputs, bias_power)
        assert x.flags["C_CONTIGUOUS"]
        assert x.shape == ref.shape
        assert x.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("bias_power", [None, 0.02])
    @pytest.mark.parametrize("bitrate", [1e9, 5e9, 10e9, 15e9, 31e9])
    def test_swirl(self, bitrate, bias_power):
        self._check(build_swirl(seed=3), _random_input(30, bitrate=bitrate, seed=1), bias_power)

    @pytest.mark.parametrize("bias_power", [None, 0.02])
    def test_mixed_delay_swirl(self, bias_power):
        self._check(_mixed_delay_swirl(seed=4), _random_input(30, bitrate=5e9, seed=2), bias_power)

    @pytest.mark.parametrize("bitrate", [5e9, 10e9, 15e9])
    def test_strided_input(self, bitrate):
        # every other sample of a signal at 48 samples per bit: a strided view
        fine = modulate(gen_bits(20, 6), bitrate, 48, 0.025)
        sig = OpticalSignal(fine.samples[::2], fine.sample_period * 2)
        assert not sig.samples.flags["C_CONTIGUOUS"]
        self._check(build_swirl(seed=5), sig, 0.02)
        contiguous = OpticalSignal(sig.samples.copy(), sig.sample_period)
        want = simulate(build_swirl(seed=5), contiguous, 0.02).samples
        assert simulate(build_swirl(seed=5), sig, 0.02).samples.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(1, 33))
    def test_every_last_block_length(self, n):
        # The chain advances in blocks of 3 steps and the swirl at 10 Gbps
        # in blocks of 15, so these lengths end on every length of last
        # block, the one-row block included.
        chain = ReservoirTopology(
            3,
            (Edge(0, 1, 3e-11, 1.0, 0.1), Edge(1, 2, 7e-11, 1.0, 0.2)),
            (InputPort(0, 0.4),),
        )
        rng = np.random.default_rng(n)
        for topology, period in ((chain, 1e-11), (build_swirl(seed=8), 1.0 / (10e9 * 24))):
            sig = OpticalSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n), period)
            self._check(topology, sig, 0.02)

    @pytest.mark.parametrize(
        "total_rows",
        [_SPREAD_ROWS - 1, _SPREAD_ROWS, _SPREAD_ROWS + 1, 2 * _SPREAD_ROWS + 1],
    )
    @pytest.mark.parametrize("kind", ["swirl", "chain"])
    def test_spread_on_its_chunk_seams(self, kind, total_rows):
        # On the input grid with a bias line the node-wide recursion rows,
        # dark past included, are spread out to the F + 1 stride a chunk
        # at a time; these lengths end one row before, on and after a seam.
        if kind == "swirl":
            topology, period = build_swirl(seed=13), 1.0 / (10e9 * 24)
        else:
            topology = ReservoirTopology(
                3,
                (Edge(0, 1, 3e-11, 1.0, 0.1), Edge(1, 2, 7e-11, 1.0, 0.2)),
                (InputPort(0, 0.4),),
            )
            period = 1e-11
        step, delay_steps = _simulation_step(topology, period)
        assert abs(step - period) <= 1e-9 * period
        n = total_rows - int(delay_steps.max())
        rng = np.random.default_rng(total_rows)
        sig = OpticalSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n), period)
        self._check(topology, sig, 0.02)

    @pytest.mark.parametrize("mixed", [False, True], ids=["swirl", "mixed-delay"])
    @pytest.mark.parametrize("bitrate", [5e9, 15e9, 31e9])
    def test_resampled_without_bias_ending_on_a_one_row_block(self, bitrate, mixed):
        # Off the input grid without a bias line, with the input length
        # picked so that the last block has one row.
        topology = _mixed_delay_swirl(seed=9) if mixed else build_swirl(seed=9)
        period = 1.0 / (bitrate * 24)
        step, delay_steps = _simulation_step(topology, period)
        assert abs(step - period) > 1e-9 * period
        n_sim = lambda n: int(math.ceil((n - 1) * period / step - 1e-9)) + 1
        n = next(n for n in range(100, 1000) if n_sim(n) % delay_steps.min() == 1)
        rng = np.random.default_rng(n)
        sig = OpticalSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n), period)
        self._check(topology, sig, None)

    @pytest.mark.parametrize("bias_power", [None, 0.02])
    @pytest.mark.parametrize("bitrate", [5e9, 15e9])
    def test_long_resampled_input(self, bitrate, bias_power):
        # 2010 bits run thousands of blocks of each of the two delays
        self._check(_mixed_delay_swirl(seed=10), _random_input(2010, bitrate=bitrate, seed=3), bias_power)

    @pytest.mark.parametrize("bias_power", [None, 0.02])
    @pytest.mark.parametrize("bitrate", [5e9, 15e9])
    def test_three_delay_groups(self, bitrate, bias_power):
        topology = _three_delay_swirl(seed=11)
        assert len({e.delay for e in topology.edges}) == 3
        self._check(topology, _random_input(200, bitrate=bitrate, seed=4), bias_power)


    @pytest.mark.parametrize(
        "steps",
        [(4, 6), (4, 9, 7, 8, 5)],
        ids=["residues-0-2", "residues-0-1-3"],
    )
    @pytest.mark.parametrize("view_blocks", [2, reservoir_mod._VIEW_BLOCKS])
    @pytest.mark.parametrize("n", range(1, 40))
    def test_delays_off_the_shortest_multiple(self, n, steps, view_blocks, monkeypatch):
        # Each delay reads the blocks shifted back by its residue modulo the
        # block length.  The second case has three residues: two delays on
        # residue 0 and two on residue 1, which reach back one and two
        # blocks, the farther one first.
        # These lengths end on every length of last block, against which the
        # residues of the delays change too, on the input grid with and
        # without a bias line and off it.  Views built two blocks at a time
        # put a seam between most pairs of blocks.
        monkeypatch.setattr(reservoir_mod, "_VIEW_BLOCKS", view_blocks)
        period = 1e-11
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]
        topology = ReservoirTopology(
            4,
            tuple(Edge(a, b, d * period, 0.5, 0.3 + i) for i, ((a, b), d) in enumerate(zip(edges, steps))),
            (InputPort(0, 0.4),),
        )
        rng = np.random.default_rng(n)
        samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        self._check(topology, OpticalSignal(samples, period), None)
        self._check(topology, OpticalSignal(samples, period), 0.02)
        # a 1.2x longer input period keeps the 1e-11 s step, 4 steps a block
        m = int(math.ceil(n / 1.2))
        self._check(topology, OpticalSignal(samples[:m], 1.2 * period), 0.02)


class TestAdvanceInPlace:
    """The in-place product either updates its block or raises."""

    def test_strided_node_wide_buffer_rejected(self):
        # zgemm would return a fresh array for each strided block and leave
        # the buffer untouched
        full = np.ones((40, 6), dtype=np.complex128)[:, ::2]
        with pytest.raises(RuntimeError, match="C-contiguous node-wide"):
            _advance(full, 3, {3: np.eye(3, dtype=np.complex128)})

    def test_buffer_wider_than_the_nodes_rejected(self):
        # an F + 1 wide buffer with a bias column is not node wide
        full = np.ones((40, 4), dtype=np.complex128)
        with pytest.raises(RuntimeError, match="C-contiguous node-wide"):
            _advance(full, 3, {3: np.eye(3, dtype=np.complex128)})

    def test_returned_copy_raises(self, monkeypatch):
        monkeypatch.setattr(reservoir_mod, "zgemm", lambda *args: args[4].copy())
        with pytest.raises(RuntimeError, match="copy"):
            simulate(build_swirl(seed=1), _random_input(10, bitrate=5e9), None)


def test_recursion_holds_a_bounded_number_of_views():
    # 60k blocks of two steps and two delays: the node-major views of every
    # block at once held 17.8 MB (traced) beside the buffer
    n_blocks, pad = 60_000, 3
    full = np.zeros((pad + 2 * n_blocks, 2), dtype=np.complex128)
    full[pad] = 1.0
    transfers = {2: np.full((2, 2), 0.3, dtype=np.complex128), 3: np.eye(2, dtype=np.complex128) * 0.2}
    tracemalloc.start()
    try:
        _advance(full, pad, transfers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert full[pad + 2].any()  # the recursion ran


def test_bias_layout_holds_no_second_state_matrix():
    # On the input grid with a bias line the recursion runs in the head of
    # the returned matrix's own memory; a node-wide buffer copied into a
    # fresh F + 1 wide matrix held another 12 MB here.
    cfg = ci_profile()
    sig = _random_input(cfg.n_test_bits, bitrate=10e9, seed=8)
    tracemalloc.start()
    try:
        states = simulate(build_swirl(seed=14), sig, 0.02)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert states.bias_index == 16
    assert peak <= states.samples.nbytes + 2_000_000


class TestSimulateEach:
    """``simulate_each`` yields the bytes of one ``simulate`` per topology."""

    @pytest.mark.parametrize("bias_power", [None, 0.02])
    @pytest.mark.parametrize("bitrate", [5e9, 10e9, 15e9])
    @pytest.mark.parametrize("mixed", [False, True], ids=["swirl", "mixed-delay"])
    def test_matches_simulate_per_topology(self, mixed, bitrate, bias_power):
        # 10 Gbps runs on the input grid, 5 and 15 Gbps off it
        base = _mixed_delay_swirl(seed=12) if mixed else build_swirl(seed=12)
        copies = [perturb_phases(base, b, seed=s) for s, b in enumerate((0.3, 3.0))]
        topologies = [base] + copies
        inputs = _random_input(30, bitrate=bitrate, seed=5)
        got = list(reservoir_mod.simulate_each(topologies, inputs, bias_power))
        assert len(got) == len(topologies)
        for states, topology in zip(got, topologies):
            alone = simulate(topology, inputs, bias_power)
            assert states.samples.flags["C_CONTIGUOUS"]
            assert states.samples.tobytes() == alone.samples.tobytes()
            assert (states.sample_period, states.bias_index) == (alone.sample_period, alone.bias_index)

    @pytest.mark.parametrize(
        "second, n_bits, bias_power, match",
        [
            (_mixed_delay_swirl(seed=1), 10, None, "identical edge delays"),
            (build_swirl(seed=2), 10, 0.0, "bias_power must be positive"),
            (build_swirl(seed=2), 0, None, "input signal is empty"),
        ],
        ids=["delays", "bias", "empty"],
    )
    def test_bad_arguments_rejected_before_any_simulation(self, monkeypatch, second, n_bits, bias_power, match):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the arguments were checked")

        monkeypatch.setattr(reservoir_mod, "_simulation_step", no_simulation)
        sig = _random_input(n_bits, bitrate=5e9)
        with pytest.raises(ValueError, match=match):
            reservoir_mod.simulate_each([build_swirl(seed=1), second], sig, bias_power)

    def test_off_grid_delay_warns_once_per_call(self, caplog, monkeypatch):
        steps = []
        real_step = reservoir_mod._simulation_step

        def counting_step(*args):
            steps.append(1)
            return real_step(*args)

        monkeypatch.setattr(reservoir_mod, "_simulation_step", counting_step)
        base = _chain_with_second_delay(90e-12)
        topologies = [base] + [perturb_phases(base, 1.0, seed=s) for s in range(3)]
        with caplog.at_level(logging.WARNING, logger="photonrc.reservoir"):
            got = list(reservoir_mod.simulate_each(topologies, _random_input(10, bitrate=10e9), None))
        assert len(got) == 4
        assert len(steps) == 1
        [record] = caplog.records
        assert "simulated as 22 steps" in record.getMessage()

    @pytest.mark.parametrize("bitrate", [5e9, 10e9])
    def test_keeps_no_yielded_matrix(self, bitrate):
        # on the input grid the samples are a view of the recursion buffer
        base = _mixed_delay_swirl(seed=3)
        topologies = [base, perturb_phases(base, 1.0, seed=0)]
        sims = reservoir_mod.simulate_each(topologies, _random_input(20, bitrate=bitrate), 0.02)
        first = next(sims)
        owner = first.samples if first.samples.base is None else first.samples.base
        refs = [weakref.ref(first), weakref.ref(owner)]
        del first, owner
        assert all(r() is None for r in refs)
        next(sims)
        assert next(sims, None) is None

    def test_no_topologies_yield_nothing(self):
        assert list(reservoir_mod.simulate_each([], _random_input(10))) == []


def _chain_with_second_delay(delay):
    return ReservoirTopology(
        3,
        (Edge(0, 1, 62.5e-12, 0.1, 0.1), Edge(1, 2, delay, 0.1, 0.2)),
        (InputPort(0, 0.0),),
    )


class TestDelayRounding:
    def test_rounded_delay_warns_once(self, caplog):
        # at 10 Gbps the step is 62.5 ps / 15, so 90 ps spans 21.6 steps
        with caplog.at_level(logging.WARNING, logger="photonrc.reservoir"):
            simulate(_chain_with_second_delay(90e-12), _random_input(10, bitrate=10e9), None)
        [record] = caplog.records
        message = record.getMessage()
        assert "edge 1 (1->2)" in message
        assert "21.6000 steps" in message and "simulated as 22 steps, 9.16667e-11 s" in message

    def test_exact_delays_are_silent(self, caplog):
        # at 10 Gbps 3 x 62.5 ps divides into 45 steps with a float residue
        # of about 1e-14 step, which is not a rounding
        with caplog.at_level(logging.WARNING, logger="photonrc.reservoir"):
            simulate(_chain_with_second_delay(125e-12), _random_input(10, bitrate=10e9), None)
            simulate(_three_delay_swirl(seed=1), _random_input(10, bitrate=10e9), 0.02)
        assert not caplog.records


class TestTopologyFiles:
    def test_round_trip(self, tmp_path):
        t = build_swirl(seed=13)
        path = tmp_path / "reservoir.topo"
        save_topology(t, path)
        loaded = load_topology(path)
        assert loaded.n_nodes == t.n_nodes
        assert loaded.edges == t.edges
        assert loaded.input_ports == t.input_ports

    def test_file_without_inputs_rejected(self, tmp_path):
        # a reservoir that nothing drives would train on all-zero states
        path = tmp_path / "no_input.topo"
        path.write_text("nodes 2\nedge 0 1 1e-11 0.5 0.1\n")
        with pytest.raises(ValueError, match="no input ports"):
            load_topology(path)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.topo"
        path.write_text("nodes 4\nedge 0 zz 1e-12 0.5 0.1\n")
        with pytest.raises(ValueError):
            load_topology(path)

    @pytest.mark.parametrize(
        "text, line, match",
        [
            ("nodes 2\nnodes 3\ninput 0 0.0\n", 2, "a second 'nodes' record"),
            ("nodes 2\nedge 0 1 1e-11 0.5 0.1 junk\ninput 0 0.0\n", 2, "'edge' takes 5 fields, got 6"),
            ("nodes 2\ninput 0 0.0 extra\n", 2, "'input' takes 2 fields, got 3"),
            ("nodes\ninput 0 0.0\n", 1, "'nodes' takes 1 fields, got 0"),
            ("nodes 2\nport 0 0.0\n", 2, "unknown record 'port'"),
        ],
        ids=["second-nodes", "edge-trailing", "input-trailing", "nodes-short", "unknown"],
    )
    def test_record_of_other_field_count_rejected(self, tmp_path, text, line, match):
        # A second nodes record used to replace the first, and trailing
        # fields to be ignored.
        path = tmp_path / "bad.topo"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: bad topology record") + ".*" + re.escape(match)):
            load_topology(path)

    @pytest.mark.parametrize(
        "edge, match",
        [("edge 0 1 inf 0.5 0.1", "edge delays"), ("edge 0 1 1e-12 nan 0.1", "edge loss")],
        ids=["inf-delay", "nan-loss"],
    )
    def test_non_finite_edge_rejected(self, tmp_path, edge, match):
        path = tmp_path / "bad.topo"
        path.write_text(f"nodes 2\n{edge}\ninput 0 0.0\n")
        with pytest.raises(ValueError, match=match):
            load_topology(path)
