import math
from dataclasses import replace

import numpy as np
import pytest

from photonrc.reservoir import (
    Edge,
    InputPort,
    PerturbationSpec,
    ReservoirTopology,
    SPEED_OF_LIGHT,
    build_swirl,
    central_input_nodes,
    default_swirl4x4,
    load_topology,
    perturb_phases,
    save_topology,
    simulate,
    _interp_complex,
    _simulation_step,
)
from photonrc.signals import OpticalSignal, gen_bits, modulate


def _random_input(n_bits=40, bitrate=10e9, seed=0, p_node=0.025):
    return modulate(gen_bits(n_bits, seed, bitrate), 24, p_node)


def _mixed_delay_swirl(seed):
    """4x4 swirl with every 4th waveguide twice as long (delay and loss)."""
    topo = build_swirl(seed=seed)
    edges = tuple(
        replace(e, delay=2.0 * e.delay, loss_db=2.0 * e.loss_db) if i % 4 == 3 else e
        for i, e in enumerate(topo.edges)
    )
    return replace(topo, edges=edges)


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
        assert perturb_phases(t, PerturbationSpec(0.0, seed=1)) == t

    def test_original_unmodified(self):
        t = build_swirl(seed=5)
        phases = [e.phase for e in t.edges]
        perturb_phases(t, PerturbationSpec(np.pi, seed=1))
        assert [e.phase for e in t.edges] == phases

    def test_determinism(self):
        t = build_swirl(seed=5)
        spec = PerturbationSpec(0.3, seed=77)
        assert perturb_phases(t, spec) == perturb_phases(t, spec)

    def test_mean_increment_of_uniform_draws(self):
        # Large grid for enough edges; mean of U(0, pi) is pi/2.
        t = build_swirl(20, 20, seed=2)
        p = perturb_phases(t, PerturbationSpec(np.pi, seed=3))
        delta = np.array(
            [(pe.phase - e.phase) % (2 * np.pi) for e, pe in zip(t.edges, p.edges)]
        )
        assert abs(delta.mean() - np.pi / 2) < 0.05 * np.pi / 2

    def test_wrapped_to_principal_range(self):
        t = build_swirl(seed=5)
        p = perturb_phases(t, PerturbationSpec(6.0, seed=8))
        for e in p.edges:
            assert 0.0 <= e.phase < 2 * np.pi


class TestSimulate:
    def test_zero_input_bias_only(self):
        t = build_swirl(seed=0)
        sig = OpticalSignal(np.zeros(200, complex), 1e-11)
        x = simulate(t, sig, bias_power=0.02)
        assert x.channel_roles[-1] == "bias"
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
        # arriving amplitudes are combined with 1/sqrt(2).
        period = 1e-11
        t = ReservoirTopology(
            2,
            (Edge(0, 1, 4 * period, 0.0, 0.0),),
            (InputPort(0, 0.0), InputPort(1, 0.0)),
        )
        impulse = np.zeros(16, complex)
        impulse[0] = 1.0
        zero = np.zeros(16, complex)
        x = simulate(t, [OpticalSignal(impulse, period), OpticalSignal(zero, period)], None)
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

    def test_mismatched_lengths_rejected(self):
        t = build_swirl(seed=0)
        a = OpticalSignal(np.zeros(10, complex), 1e-11)
        b = OpticalSignal(np.zeros(11, complex), 1e-11)
        with pytest.raises(ValueError):
            simulate(t, [a, b, a, a], None)

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
        assert x.channel_roles[-1] == "bias"
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


class TestTopologyFiles:
    def test_round_trip(self, tmp_path):
        t = build_swirl(seed=13)
        path = tmp_path / "reservoir.topo"
        save_topology(t, path)
        loaded = load_topology(path)
        assert loaded.n_nodes == t.n_nodes
        assert loaded.edges == t.edges
        assert loaded.input_ports == t.input_ports

    def test_bundled_default(self):
        t = default_swirl4x4()
        assert t.n_nodes == 16
        assert len(t.edges) == 24
        assert tuple(p.node for p in t.input_ports) == (5, 6, 9, 10)
        sig = _random_input(12, seed=0)
        x = simulate(t, sig, 0.02)
        assert x.n_channels == 17

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.topo"
        path.write_text("nodes 4\nedge 0 zz 1e-12 0.5 0.1\n")
        with pytest.raises(ValueError):
            load_topology(path)
