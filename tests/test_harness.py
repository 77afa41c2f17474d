import json
import logging
import weakref

import numpy as np
import pytest
from dataclasses import replace

import photonrc.harness as harness_mod

from photonrc.config import SAMPLES_PER_BIT, WARMUP_BITS, ci_profile
from photonrc.detector import DetectorConfig
from photonrc.signals import desired_signal
from photonrc.harness import (
    BER_FLOOR_ERRORS,
    aggregate_records,
    derive_seed,
    format_ber,
    run_bitrate_sweep,
    run_convergence,
    run_perturbation,
    run_single,
    write_records_csv,
    write_summary_json,
)

from oracles import freeze_decision_loop


def tiny_cfg(**overrides):
    base = replace(
        ci_profile(),
        bitrates_gbps=(10.0,),
        n_train_bits=160,
        n_test_bits=160,
        n_reservoirs=1,
        headers=("101",),
        trainers=("ridge",),
    )
    return replace(base, **overrides)


QUIET = DetectorConfig(noise_enabled=False)


class TestFrozenThreshold:
    def _threshold(self, y):
        return harness_mod._freeze_decision(y, np.zeros(8, np.uint8))[0]

    def test_uniform_ramp(self):
        y = np.linspace(0.0, 1.0, 10001)
        assert np.isclose(self._threshold(y), 0.5, atol=1e-12)

    def test_constant(self):
        assert self._threshold(np.full(100, 3.25)) == 3.25

    def test_balanced_binary(self):
        y = np.array([0.0, 1.0] * 500)
        assert self._threshold(y) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            self._threshold(np.array([]))


class TestScore:
    def _score(self, decided, ideal):
        y = np.repeat(np.asarray(decided, float), 24)
        return harness_mod._score(y, np.asarray(ideal), 0, 0.5)

    def test_quarter(self):
        ber, n = self._score([1, 0, 1, 1], [1, 0, 0, 1])
        assert (ber, n) == (0.25, 4) and type(ber) is float

    def test_identical(self):
        assert self._score([1, 0, 1], [1, 0, 1]) == (0.0, 3)

    def test_complemented(self):
        assert self._score([1, 0, 1], [0, 1, 0]) == (1.0, 3)

    def test_scores_the_bits_both_cover(self):
        assert self._score([1, 0], [1, 1, 1]) == (0.5, 2)
        assert self._score([1, 0, 0], [0, 0]) == (0.5, 2)

    def test_no_bit_scored_is_ber_one(self):
        assert harness_mod._score(np.ones(24), np.ones(3, np.uint8), 24, 0.5) == (1.0, 0)


class TestFreezeDecision:
    def _held(self, bits, spb):
        return np.repeat(np.asarray(bits, float), spb)

    def test_aligned_stream(self):
        d = np.array([1, 0, 1, 1, 0, 0, 1, 0])
        y = self._held(d, 24)
        assert harness_mod._freeze_decision(y, d) == (0.5, 0, 0.0, 8)

    def test_seven_sample_delay_recovered(self):
        d = np.array([1, 0, 1, 1, 0, 0, 1, 0])
        y = np.concatenate([np.zeros(7), self._held(d, 24)])[: len(d) * 24]
        assert harness_mod._freeze_decision(y, d)[1:3] == (7, 0.0)

    def test_full_bit_delay_shifts_alignment(self):
        d = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1])
        spb = 24
        y = np.concatenate([np.zeros(spb), self._held(d, spb)])[: len(d) * spb]
        # the delayed stream pairs with the target one bit later: 9 bits scored
        assert harness_mod._freeze_decision(y, d)[1:] == (spb, 0.0, 9)

    def test_tie_breaks_to_smallest_offset(self):
        y = np.ones(8 * 24)  # constant signal: every offset equally bad
        assert harness_mod._freeze_decision(y, np.ones(8, int))[1:3] == (0, 1.0)

    @pytest.mark.parametrize(
        "n_samples, n_bits",
        [(40 * 24, 40), (40 * 24 - 5, 40), (40 * 24, 33), (30 * 24 + 7, 45), (24 + 5, 3), (7, 3)],
        ids=["equal", "ragged", "longer-output", "shorter-output", "offsets-past-the-output", "under-a-bit"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_offset_oracle(self, n_samples, n_bits, seed):
        rng = np.random.default_rng(seed)
        d = rng.integers(0, 2, n_bits).astype(np.uint8)
        y = np.repeat(d.astype(float), 24)[:n_samples]
        y = np.concatenate([np.zeros(rng.integers(0, 30)), y])[:n_samples]
        y = y + rng.normal(0.0, 0.4, y.size)
        assert harness_mod._freeze_decision(y, d) == freeze_decision_loop(y, d, 24)

    def test_ties_match_per_offset_oracle(self):
        # Bits held for whole periods: many offsets share the least BER.
        d = np.array([1, 0, 1, 1, 0, 0, 1, 0] * 3, dtype=np.uint8)
        y = np.repeat(d.astype(float), 24)
        for shift in (0, 5, 23, 24, 30):
            shifted = np.concatenate([np.zeros(shift), y])[: y.size]
            assert harness_mod._freeze_decision(shifted, d) == freeze_decision_loop(shifted, d, 24)


class TestFormatBer:
    def test_at_floor_flagged(self):
        assert format_ber(0.0, 1e-3) == "<1e-3"
        assert format_ber(0.0002, 5e-3) == "<5e-3"

    def test_above_floor_plain(self):
        assert format_ber(0.25, 1e-3) == "0.25"


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        a = derive_seed(1, "topology", 0)
        assert a == derive_seed(1, "topology", 0)
        assert a != derive_seed(1, "topology", 1)
        assert a != derive_seed(2, "topology", 0)
        assert derive_seed(1, "eval", 5.0) != derive_seed(1, "eval", 10.0)


class TestRunSingle:
    def test_trivially_solvable_instance(self):
        # Single-bit header and no noise: the state at an input node is a
        # low-passed copy of the target, settled within each bit.
        cfg = tiny_cfg(headers=("1",), detector=QUIET)
        rec = run_single(cfg, 10.0, "1", "ridge")
        assert rec.train_ber == 0.0
        assert rec.test_ber == 0.0

    def test_deterministic_records(self):
        cfg = tiny_cfg()
        assert run_single(cfg, 10.0, "101", "ridge") == run_single(cfg, 10.0, "101", "ridge")

    def test_floor_reporting(self):
        cfg = tiny_cfg(headers=("1",), detector=QUIET)
        rec = run_single(cfg, 10.0, "1", "ridge")
        # 10 warm-up bits removed, so at most 150 bits are scored
        assert rec.test_ber_floor >= BER_FLOOR_ERRORS / 150
        assert rec.test_ber_report.startswith("<")
        assert rec.test_ber_report != "0"

    def test_int_bitrate_draws_as_float(self):
        # Seeds hash 10 and 10.0 differently; the cell must not see the type.
        cfg = tiny_cfg()
        assert run_single(cfg, 10, "101", "ridge") == run_single(cfg, 10.0, "101", "ridge")

    def test_nlinv_presentation_count(self):
        cfg = tiny_cfg(trainers=("nlinv",))
        rec = run_single(cfg, 10.0, "101", "nlinv")
        assert rec.presentations == 49

    def test_train_test_separation(self):
        # Replacing the test sequence must leave everything derived from
        # training untouched.
        cfg = tiny_cfg()
        base = run_single(cfg, 10.0, "101", "ridge")
        other = replace(cfg, n_test_bits=cfg.n_test_bits + 32)
        moved = run_single(other, 10.0, "101", "ridge")
        assert base.threshold_a == moved.threshold_a
        assert base.sampling_offset == moved.sampling_offset
        assert base.train_ber == moved.train_ber

    def test_cmaes_trainer_wiring(self):
        cfg = tiny_cfg(trainers=("cmaes",))
        cfg = replace(
            cfg,
            cmaes=replace(cfg.cmaes, max_iterations=12, population=6, sigma_sweep=(0.1, 1.0)),
        )
        rec = run_single(cfg, 10.0, "101", "cmaes")
        assert rec.presentations == 2 * 12 * 6  # sweep members x iterations x population
        assert rec.detail in ("sigma0=0.1", "sigma0=1")
        assert 0.0 <= rec.test_ber <= 1.0

    def test_unknown_trainer_rejected(self):
        with pytest.raises(ValueError):
            run_single(tiny_cfg(), 10.0, "101", "perceptron")

    def test_topology_file_override(self, tmp_path):
        # Instance 0 uses the file verbatim; later instances keep its
        # geometry but redraw the fabrication phases.
        from photonrc.harness import _instance_topology
        from photonrc.reservoir import build_swirl, save_topology

        reference = build_swirl(seed=77)
        path = tmp_path / "custom.topo"
        save_topology(reference, path)
        cfg = tiny_cfg()
        cfg = replace(cfg, reservoir=replace(cfg.reservoir, topology_file=str(path)))

        topo0, _ = _instance_topology(cfg, 0)
        assert topo0.edges == reference.edges
        topo1, _ = _instance_topology(cfg, 1)
        assert [e.src for e in topo1.edges] == [e.src for e in reference.edges]
        assert [e.dst for e in topo1.edges] == [e.dst for e in reference.edges]
        assert [e.loss_db for e in topo1.edges] == [e.loss_db for e in reference.edges]
        assert any(e.phase != r.phase for e, r in zip(topo1.edges, reference.edges))

        rec = run_single(cfg, 10.0, "101", "ridge")
        assert 0.0 <= rec.test_ber <= 1.0


class TestSweeps:
    def test_summary_row_count_and_aggregation(self):
        cfg = tiny_cfg(bitrates_gbps=(5.0, 10.0), n_reservoirs=2, trainers=("ridge",))
        records, summary = run_bitrate_sweep(cfg)
        assert len(records) == 2 * 2
        assert len(summary) == 2  # bitrates x trainers
        for row in summary:
            cell = [
                r.test_ber
                for r in records
                if (r.bitrate_gbps, r.header, r.trainer)
                == (row.bitrate_gbps, row.header, row.trainer)
            ]
            assert row.n_instances == len(cell) == 2
            assert np.isclose(row.mean_test_ber, np.mean(cell))
            clamped = np.maximum(cell, 1e-4)
            assert np.isclose(row.geo_mean_test_ber, np.exp(np.mean(np.log(clamped))))

    def test_progress_goes_to_logging(self, caplog, capsys):
        with caplog.at_level(logging.INFO, logger="photonrc.harness"):
            records, _ = run_bitrate_sweep(tiny_cfg(n_reservoirs=2))
        progress = [r for r in caplog.records if "test BER" in r.getMessage()]
        assert len(progress) == len(records) == 2
        assert capsys.readouterr().out == ""

    def test_output_files(self, tmp_path):
        cfg = tiny_cfg()
        run_bitrate_sweep(cfg, out_dir=tmp_path)
        assert (tmp_path / "records.csv").exists()
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "summary.json").exists()

    def test_summary_json_echoes_the_protocol(self, tmp_path):
        # The protocol's values are constants, not keys, so the configuration
        # echo does not name them.
        write_summary_json(tiny_cfg(), tmp_path / "summary.json")
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert "samples_per_bit" not in payload["config"]
        assert payload["protocol"] == {
            "samples_per_bit": SAMPLES_PER_BIT,
            "warmup_bits": WARMUP_BITS,
            "search_bits": harness_mod.SEARCH_BITS,
            "ber_floor_errors": BER_FLOOR_ERRORS,
            "geo_mean_clamp": harness_mod.GEO_MEAN_CLAMP,
            "convergence_bitrate_gbps": harness_mod.CONVERGENCE_BITRATE_GBPS,
            "convergence_sigma0": harness_mod.CONVERGENCE_SIGMA0,
        }

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_cfg()
        run_bitrate_sweep(cfg, out_dir=tmp_path / "a")
        run_bitrate_sweep(cfg, out_dir=tmp_path / "b")
        for name in ("records.csv", "summary.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestCmaesDeterminism:
    def test_cmaes_sweep_byte_identical_and_seeded(self, tmp_path):
        # The black-box trainer's detector noise comes from its readout's
        # generator: reruns must agree byte for byte, another master seed not.
        # A step size this small keeps every candidate's clean output far
        # below the detector noise, so the ranking, and with it the records,
        # follow the noise stream.
        cfg = tiny_cfg(trainers=("cmaes",))
        cfg = replace(
            cfg, cmaes=replace(cfg.cmaes, max_iterations=4, population=6, sigma_sweep=(1e-5,))
        )
        run_bitrate_sweep(cfg, out_dir=tmp_path / "a")
        run_bitrate_sweep(cfg, out_dir=tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert "records.csv" in names
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
        records, _ = run_bitrate_sweep(cfg)
        assert records[0].presentations == 4 * 6
        other, _ = run_bitrate_sweep(replace(cfg, master_seed=cfg.master_seed + 1))
        assert other != records


class TestPerturbation:
    def test_zero_b_equals_baseline(self):
        cfg = tiny_cfg(
            perturbation_b_over_pi=(0.0, 0.5),
            n_perturbation_draws=2,
            perturbation_bitrate_gbps=10.0,
        )
        rows = run_perturbation(cfg)
        baseline = run_single(cfg, 10.0, "101", "ridge")
        assert rows[0].b_over_pi == 0.0
        assert rows[0].mean_ber == baseline.test_ber
        assert rows[1].n_evaluations == 2

    def test_rows_cover_b_list(self):
        cfg = tiny_cfg(
            n_perturbation_draws=1, perturbation_bitrate_gbps=10.0, perturbation_b_over_pi=(0.0, 0.1, 1.0)
        )
        rows = run_perturbation(cfg)
        assert [r.b_rad for r in rows] == [0.0, 0.1 * np.pi, np.pi]
        assert [r.b_over_pi for r in rows] == [0.0, 0.1, 1.0]


@pytest.mark.parametrize("study", [run_perturbation, run_convergence], ids=["perturb", "converge"])
def test_study_rejects_more_than_one_header(study, monkeypatch):
    # Neither study's output names its header, so it takes only one.
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the headers were checked")

    monkeypatch.setattr(harness_mod, "simulate", no_simulation)
    with pytest.raises(ValueError, match="this study trains on one header, got 2: 101, 110"):
        study(tiny_cfg(headers=("101", "110")))


class TestConvergence:
    def test_history_and_presentations(self):
        cfg = tiny_cfg(trainers=("cmaes",))
        cfg = replace(cfg, cmaes=replace(cfg.cmaes, convergence_iterations=8, population=6))
        rows = run_convergence(cfg)
        assert len(rows) == 8
        assert [r.presentations for r in rows] == [6 * (i + 1) for i in range(8)]
        best = [r.best_ber for r in rows]
        assert all(b1 >= b2 for b1, b2 in zip(best, best[1:]))
        sse = [r.best_sse for r in rows]
        assert all(s1 >= s2 for s1, s2 in zip(sse, sse[1:]))

    def test_csv_written(self, tmp_path):
        cfg = tiny_cfg()
        cfg = replace(cfg, cmaes=replace(cfg.cmaes, convergence_iterations=3, population=4))
        run_convergence(cfg, out_dir=tmp_path)
        text = (tmp_path / "convergence.csv").read_text().splitlines()
        assert text[0] == "iteration,presentations,best_sse,ber,best_ber"
        assert len(text) == 4


def _owner(array: np.ndarray) -> np.ndarray:
    """The array that owns a view's memory."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


@pytest.fixture
def live_at_simulate(monkeypatch):
    """Per simulated state matrix, how many earlier state matrices are alive.

    A matrix is simulated by a ``harness.simulate`` call or by each step of
    a ``harness.simulate_each`` iterator; the count is taken before it is
    computed.  The state matrices are those two returned or yielded and the
    estimates of ``nlinv`` probing rounds.  A matrix counts as alive while
    its ``StateMatrix`` or the buffer behind its samples is still
    referenced, for example by a view.
    """
    live: list[int] = []
    refs = []

    def count_live():
        live.append(sum(any(r() is not None for r in pair) for pair in refs))

    def keep_ref(states):
        refs.append((weakref.ref(states), weakref.ref(_owner(states.samples))))
        return states

    def track(fn):
        def tracking(*args, **kwargs):
            return keep_ref(fn(*args, **kwargs))

        return tracking

    real_simulate = harness_mod.simulate
    real_simulate_each = harness_mod.simulate_each

    def tracking_simulate(*args, **kwargs):
        count_live()
        return keep_ref(real_simulate(*args, **kwargs))

    def tracking_simulate_each(*args, **kwargs):
        # counts before each step and holds no yielded matrix while suspended
        sims = real_simulate_each(*args, **kwargs)
        while True:
            count_live()
            try:
                yield keep_ref(next(sims))
            except StopIteration:
                live.pop()
                return

    monkeypatch.setattr(harness_mod, "simulate", tracking_simulate)
    monkeypatch.setattr(harness_mod, "simulate_each", tracking_simulate_each)
    monkeypatch.setattr(harness_mod, "_nlinv_round", track(harness_mod._nlinv_round))
    return live


class TestCellOrder:
    """Every readout is fitted before the test input is simulated."""

    def test_sweep_cell_releases_training_states_before_test(self, live_at_simulate):
        cfg = tiny_cfg(headers=("101", "110"), trainers=("ridge", "nlinv"))
        records, _ = run_bitrate_sweep(cfg)
        assert len(records) == 4
        # training, then test with neither the training states nor the
        # round's estimate alive
        assert live_at_simulate == [0, 0]

    def test_a_kept_estimate_is_live(self, live_at_simulate, monkeypatch):
        # the fixture sees the round's estimate: one kept past the fits
        # is alive when the test input is simulated
        kept = []
        tracked_round = harness_mod._nlinv_round

        def keeping_round(*args):
            kept.append(tracked_round(*args))
            return kept[-1]

        monkeypatch.setattr(harness_mod, "_nlinv_round", keeping_round)
        run_bitrate_sweep(tiny_cfg(trainers=("nlinv",)))
        assert live_at_simulate == [0, 1]

    def test_perturbation_keeps_only_test_states_for_the_draws(self, live_at_simulate):
        cfg = tiny_cfg(
            perturbation_b_over_pi=(0.0, 0.5),
            n_perturbation_draws=2,
            perturbation_bitrate_gbps=10.0,
        )
        run_perturbation(cfg)
        # training, test, then each draw with the test states still alive
        assert live_at_simulate == [0, 0, 1, 1]

    def test_convergence_simulates_the_training_input_only(self, live_at_simulate):
        cfg = tiny_cfg(trainers=("cmaes",))
        cfg = replace(cfg, cmaes=replace(cfg.cmaes, convergence_iterations=2, population=4))
        run_convergence(cfg)
        assert live_at_simulate == [0]

    def test_single_equals_its_sweep_cell(self):
        cfg = tiny_cfg(headers=("101", "110"), trainers=("ridge", "nlinv"), n_reservoirs=2)
        records, _ = run_bitrate_sweep(cfg)
        for trainer in ("ridge", "nlinv"):
            single = run_single(cfg, 10.0, "110", trainer, instance=1)
            (swept,) = [
                r for r in records if (r.header, r.trainer, r.instance) == ("110", trainer, 1)
            ]
            assert single == swept


@pytest.fixture
def readouts(monkeypatch):
    """Every readout the harness builds, with its seed and presented weight columns."""
    made = []

    class RecordingReadout(harness_mod.SimulatedReadout):
        def __init__(self, *args, seed=None, **kwargs):
            super().__init__(*args, seed=seed, **kwargs)
            self.seed = seed
            self.columns = []
            made.append(self)

        def present(self, weights):
            w = np.asarray(weights)
            self.columns += list(w.T) if w.ndim == 2 else [w]
            return super().present(weights)

    monkeypatch.setattr(harness_mod, "SimulatedReadout", RecordingReadout)
    return made


class TestNlinvRound:
    def test_one_round_per_bitrate_and_instance(self, monkeypatch):
        # The probing round never reads the header, so every header of a
        # cell shares one round; without nlinv there is none.
        rounds = []
        real_round = harness_mod._nlinv_round

        def recording_round(cfg, cell):
            rounds.append((cell.bitrate_gbps, cell.instance))
            return real_round(cfg, cell)

        monkeypatch.setattr(harness_mod, "_nlinv_round", recording_round)
        cfg = tiny_cfg(bitrates_gbps=(10.0, 15.0), n_reservoirs=2, headers=("101", "110"))
        run_bitrate_sweep(replace(cfg, trainers=("ridge", "nlinv")))
        assert rounds == [(10.0, 0), (10.0, 1), (15.0, 0), (15.0, 1)]
        run_bitrate_sweep(cfg)
        assert len(rounds) == 4

    def test_headers_share_the_round_and_report_it(self, readouts):
        cfg = tiny_cfg(headers=("101", "110", "011"), trainers=("ridge", "nlinv"))
        records, _ = run_bitrate_sweep(cfg)
        probe_seed = derive_seed(cfg.master_seed, "probe-noise", 10.0, 0)
        probing = [r for r in readouts if r.seed == probe_seed]
        n = 3 * probing[0].n_channels - 2
        assert sum(r.presentations for r in probing) == n
        nlinv = [r for r in records if r.trainer == "nlinv"]
        assert [r.presentations for r in nlinv] == [n] * 3

    def test_reference_is_the_bias_line(self, readouts):
        cfg = tiny_cfg(trainers=("nlinv",))
        run_single(cfg, 10.0, "101", "nlinv")
        (readout,) = readouts
        bias = harness_mod._prepare_cell(cfg, 10.0, 0).states_train.bias_index
        quads = [w for w in readout.columns if np.iscomplex(w).any()]
        assert len(quads) == readout.n_channels - 1
        assert all(w[bias] == 1j for w in quads)

    def test_round_checks_its_presentations(self, monkeypatch):
        # a readout that counts one presentation too many in one call
        class OverCounting(harness_mod.SimulatedReadout):
            def present(self, weights):
                if self.presentations == 0:
                    self.presentations += 1
                return super().present(weights)

        monkeypatch.setattr(harness_mod, "SimulatedReadout", OverCounting)
        cfg = tiny_cfg(trainers=("nlinv",))
        cell = harness_mod._prepare_cell(cfg, 10.0, 0)
        n = 3 * cell.states_train.n_channels - 2
        with pytest.raises(RuntimeError, match=f"used {n + 1} presentations, expected {n}"):
            harness_mod._nlinv_round(cfg, cell)


class TestEvaluationNoiseStreams:
    """Each evaluation's detector noise comes from its own named seed.

    At desk scale the noise moves no test decision, so the records alone
    cannot tell one evaluation stream from another; the generator states
    handed to ``readout_forward`` can.
    """

    @pytest.fixture
    def rng_states(self, monkeypatch):
        states = []
        real_forward = harness_mod.readout_forward

        def recording_forward(*args, rng=None, **kwargs):
            states.append(rng.bit_generator.state)
            return real_forward(*args, rng=rng, **kwargs)

        monkeypatch.setattr(harness_mod, "readout_forward", recording_forward)
        return states

    @staticmethod
    def _expected(cfg, *keys):
        return [np.random.default_rng(derive_seed(cfg.master_seed, *key)).bit_generator.state for key in keys]

    def test_sweep_cell(self, rng_states):
        cfg = tiny_cfg()
        run_bitrate_sweep(cfg)
        key = (10.0, "101", "ridge", 0)
        assert rng_states == self._expected(cfg, ("eval-train", *key), ("eval-test", *key))

    def test_perturbation(self, rng_states):
        cfg = tiny_cfg(perturbation_b_over_pi=(0.0, 0.5), n_perturbation_draws=1, perturbation_bitrate_gbps=10.0)
        run_perturbation(cfg)
        key = (10.0, "101", "ridge", 0)
        assert rng_states == self._expected(
            cfg, ("eval-train", *key), ("eval-test", *key), ("perturb-eval", 0, 1, 0)
        )

    def test_convergence(self, rng_states):
        cfg = tiny_cfg(trainers=("cmaes",))
        cfg = replace(cfg, cmaes=replace(cfg.cmaes, convergence_iterations=2, population=4))
        rows = run_convergence(cfg)
        assert len(rows) == 2
        assert rng_states == self._expected(cfg, *[("conv-eval", 10.0, 0, row.iteration) for row in rows])


def test_power_target_is_the_indicator_times_p_total():
    # the bytes the trainers fit: the 0/1 target per bit as float64 times p_total_w
    got = harness_mod._power_target(tiny_cfg(p_total_w=0.1), desired_signal([1, 0, 1, 1, 0, 1], "101"))
    assert got.dtype == np.float64
    assert got.tolist() == [0.0, 0.0, 0.1, 0.0, 0.0, 0.1]


class TestRecordsCsv:
    def test_columns_and_content(self, tmp_path):
        cfg = tiny_cfg()
        rec = run_single(cfg, 10.0, "101", "ridge")
        path = tmp_path / "records.csv"
        write_records_csv([rec], path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("bitrate_gbps,header,trainer,instance")
        assert len(lines) == 2
        assert "ridge" in lines[1]

    def test_aggregate_empty(self):
        assert aggregate_records([]) == []
