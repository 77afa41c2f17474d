"""Acceptance suite: one test per exit criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria complete.  Every tolerance is fixed here; nothing is calibrated
at run time.
"""

import functools
import time
from dataclasses import replace

import numpy as np

from photonrc.cmaes import cmaes_minimize
from photonrc.config import SAMPLES_PER_BIT, WARMUP_BITS, ci_profile
from photonrc.detector import DetectorConfig, noise_variance
from photonrc.harness import (
    BER_FLOOR_ERRORS,
    CONVERGENCE_BITRATE_GBPS,
    run_bitrate_sweep,
    run_convergence,
    run_perturbation,
    run_single,
)
from photonrc.reservoir import StateMatrix, build_swirl, simulate
from photonrc.ridge import cv_alpha, invert_target
from photonrc.signals import OpticalSignal, gen_bits, modulate
from photonrc.stateest import SimulatedReadout, estimate_states, probe_count
from photonrc.harness import _prepare_cell  # test-only access to the cell builder

from oracles import photodiode

RAW = DetectorConfig(noise_enabled=False, filter_enabled=False)


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {title}")
                raise
            print(f"[PASS] criterion {number}: {title}")

        return run

    return wrap


@criterion(1, "phase estimation recovers signed phases to 1e-9 in under a second")
def test_phase_estimation_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    # 1-degree steps across (-pi, pi), half a degree clear of the +-pi
    # wrap of the angle.  Each trial is one probing round of a two-channel
    # readout, states x_k and x_l, reference 0.
    angles = np.deg2rad(np.arange(-179.5, 180.0, 1.0))
    worst = 0.0
    for _ in range(100):
        p_k = rng.uniform(0.1, 2.0, size=angles.size)
        p_l = rng.uniform(0.1, 2.0, size=angles.size)
        xk = p_k.astype(complex)
        xl = p_l * np.exp(1j * angles)
        readout = SimulatedReadout(StateMatrix(np.stack([xk, xl], axis=1), 1e-11), RAW)
        z = estimate_states(readout, RAW.responsivity, 0).samples[:, 1]
        worst = max(worst, float(np.max(np.abs(np.angle(z) - angles))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"worst signed-phase error {worst:.3e}"
    assert elapsed < 1.0, f"sweep took {elapsed:.2f} s"


@criterion(2, "3F-2 probing reconstructs the state matrix up to per-sample phase")
def test_state_reconstruction_oracle():
    start = time.perf_counter()
    cfg = ci_profile()
    cell = _prepare_cell(cfg, 10.0, 0)
    states = cell.states_train
    readout = SimulatedReadout(states, RAW, seed=0)
    ref = states.bias_index
    est = estimate_states(readout, RAW.responsivity, ref)
    assert readout.presentations == 3 * states.n_channels - 2

    warm = WARMUP_BITS * SAMPLES_PER_BIT
    true = states.samples[warm:]
    got = est.samples[warm:]

    floor = 1e-6 * np.sqrt(cfg.p_total_w)
    moduli_err = np.abs(np.abs(got) - np.abs(true)) / (np.abs(true) + floor)
    assert moduli_err.max() <= 1e-6, f"moduli relative error {moduli_err.max():.3e}"

    # relative phases against the bias line, on samples where the phase is observable
    aligned = true * np.exp(-1j * np.angle(true[:, ref]))[:, None]
    observable = np.abs(true) > floor
    unit_err = np.abs(np.exp(1j * np.angle(got)) - np.exp(1j * np.angle(aligned)))
    phase_err = 2.0 * np.arcsin(np.clip(unit_err[observable] / 2.0, 0.0, 1.0))
    assert phase_err.max() <= 1e-6, f"relative phase error {phase_err.max():.3e} rad"

    # intensity outputs are indistinguishable for arbitrary weights
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        w = rng.normal(size=states.n_channels) + 1j * rng.normal(size=states.n_channels)
        i_true = np.abs(true @ w) ** 2
        i_est = np.abs(got @ w) ** 2
        worst = max(worst, float(np.max(np.abs(i_true - i_est)) / np.max(i_true)))
    assert worst <= 1e-9, f"detector-output mismatch {worst:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"reconstruction oracle took {elapsed:.1f} s"


@criterion(3, "probing a 17-channel readout consumes exactly 49 presentations")
def test_probe_count_is_49():
    assert probe_count(17) == 49
    cfg = replace(ci_profile(), n_train_bits=160, n_test_bits=160)
    cell = _prepare_cell(cfg, 10.0, 0)
    assert cell.states_train.n_channels == 17  # 16 nodes + bias
    readout = SimulatedReadout(cell.states_train, cfg.detector, seed=1)
    estimate_states(readout, cfg.detector.responsivity, cell.states_train.bias_index)
    assert readout.presentations == 49


@criterion(4, "ridge matches an independent solver and the target inversion is exact")
def test_ridge_oracle():
    # The fit both trainers run, checked at the alpha it selects.  The
    # signal fades into the noise trial by trial, so the selection moves
    # from the bottom of the grid to the top; the last trial has a bias
    # line, which the penalty must leave out.
    rng = np.random.default_rng(11)
    for trial in range(11):
        x = rng.normal(size=(50, 5)) + 1j * rng.normal(size=(50, 5))
        w_true = rng.normal(size=5) + 1j * rng.normal(size=5)
        t = np.abs(x @ w_true) * 10.0 ** (-trial / 4) + rng.normal(size=50)
        bias_index = None
        mask = np.ones(5)
        if trial == 10:
            x[:, 4] = 0.14
            bias_index = 4
            mask[4] = 0.0
        alpha, w = cv_alpha(StateMatrix(x, 1e-11, bias_index), t)
        stacked = np.vstack([x, alpha * np.diag(mask)])
        rhs = np.concatenate([t, np.zeros(5)])
        w_oracle, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
        rel = np.linalg.norm(w - w_oracle) / np.linalg.norm(w_oracle)
        assert rel <= 1e-10, f"trial {trial}: relative deviation {rel:.3e}"

    d = np.array([0.0, 0.1, 0.02, 0.1, 0.0])
    amp = invert_target(d, 0.5)
    recovered = photodiode(OpticalSignal(amp.astype(complex), 1e-11), RAW)
    assert np.max(np.abs(recovered - d)) <= 1e-15


@criterion(5, "pre-filter detector noise variance matches the shot+thermal formula")
def test_detector_noise_variance():
    cfg = DetectorConfig(noise_enabled=True, filter_enabled=False)
    expected = noise_variance(0.02, cfg)
    assert np.isclose(expected, 1.602e-10, rtol=1e-3)
    sig = OpticalSignal(np.full(100_000, 0.2 + 0j), 1.0 / (24 * 10e9))
    clean = photodiode(sig, RAW)
    noisy = photodiode(sig, cfg, rng=np.random.default_rng(99))
    measured = float(np.var(noisy - clean))
    assert abs(measured - expected) <= 0.05 * expected, (
        f"measured {measured:.4e} vs expected {expected:.4e}"
    )


@criterion(6, "reservoir is passive on 100 random inputs and linear to 1e-12")
def test_passivity_and_linearity():
    uniform = build_swirl(seed=123)
    # Every 4th waveguide twice as long (delay and loss): unequal delays.
    mixed = replace(
        uniform,
        edges=tuple(
            replace(e, delay=2.0 * e.delay, loss_db=2.0 * e.loss_db) if i % 4 == 3 else e
            for i, e in enumerate(uniform.edges)
        ),
    )
    for name, topo in (("uniform", uniform), ("mixed-delay", mixed)):
        rng = np.random.default_rng(5)
        for trial in range(100):
            bits = gen_bits(30, int(rng.integers(0, 2**31)))
            sig = modulate(bits, 10e9, 24, 0.025)
            x = simulate(topo, sig, None)
            node_power = np.sum(np.abs(x.samples) ** 2, axis=1)
            injected = 4 * np.cumsum(np.abs(sig.samples) ** 2)
            assert np.all(node_power <= injected * (1 + 1e-9) + 1e-30), f"{name} trial {trial}"

        sig = modulate(gen_bits(40, 17), 10e9, 24, 0.025)
        base = simulate(topo, sig, None)
        a = -0.83 + 0.42j
        scaled = simulate(topo, OpticalSignal(a * sig.samples, sig.sample_period), None)
        err = np.max(np.abs(scaled.samples - a * base.samples))
        assert err <= 1e-12 * np.max(np.abs(base.samples)), f"{name} linearity error {err:.3e}"


@criterion(7, "ridge reaches 1e-2 at 5 and 10 Gbps; state estimation is within 10x")
def test_task_performance_ci():
    start = time.perf_counter()
    cfg = replace(ci_profile(), bitrates_gbps=(5.0, 10.0), trainers=("ridge", "nlinv"))
    records, summary = run_bitrate_sweep(cfg)
    by = {(s.bitrate_gbps, s.trainer): s for s in summary}
    test_floor = BER_FLOOR_ERRORS / (cfg.n_test_bits - WARMUP_BITS)
    for bitrate in (5.0, 10.0):
        ridge = by[(bitrate, "ridge")].geo_mean_test_ber
        nlinv = by[(bitrate, "nlinv")].geo_mean_test_ber
        assert ridge <= 1e-2, f"ridge geo-mean at {bitrate} Gbps: {ridge:.3e}"
        # BERs below the measurement floor are indistinguishable from it,
        # so the 10x comparison is taken against max(ridge, floor).
        bound = 10.0 * max(ridge, test_floor)
        assert nlinv <= bound, f"nlinv {nlinv:.3e} vs bound {bound:.3e} at {bitrate} Gbps"
    for r in records:
        if r.trainer == "nlinv":
            assert r.presentations == 49
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"took {elapsed:.0f} s"


@criterion(8, "phase perturbation: baseline at b=0, catastrophic at 0.1 pi, plateau")
def test_perturbation_structure():
    start = time.perf_counter()
    cfg = ci_profile()
    rows = run_perturbation(cfg)
    by_b = {round(r.b_over_pi, 3): r for r in rows}

    baselines = [
        run_single(cfg, cfg.perturbation_bitrate_gbps, cfg.headers[0], "ridge", instance=i).test_ber
        for i in range(cfg.n_reservoirs)
    ]
    assert by_b[0.0].mean_ber == np.mean(baselines), "b=0 must equal the unperturbed baseline"
    assert by_b[0.1].mean_ber >= 0.1, f"b=0.1pi mean BER {by_b[0.1].mean_ber:.3g}"

    bers = [r.mean_ber for r in rows]
    for lo, hi in zip(bers, bers[1:]):
        assert hi >= lo - 0.1, f"BER fell by more than the 0.1 tolerance: {lo:.3g} -> {hi:.3g}"
    plateau = np.mean([r.mean_ber for r in rows if r.b_over_pi >= 0.4])
    assert 0.4 <= plateau <= 0.8, f"plateau {plateau:.3g} outside 0.5-0.7 (+-0.1)"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"took {elapsed:.0f} s"


@criterion(9, "black-box training needs >=100 presentations; probing needs exactly 49")
def test_convergence_presentations():
    sphere = cmaes_minimize(lambda c: np.sum(c**2, axis=1), 10, 1.0, 300, 7, x0=np.full(10, 0.5))
    assert sphere.best_f < 1e-10, f"sphere converged only to {sphere.best_f:.3e}"

    cfg = ci_profile()
    ridge = run_single(cfg, CONVERGENCE_BITRATE_GBPS, cfg.headers[0], "ridge", instance=0)
    target = 10.0 * max(ridge.train_ber, ridge.train_ber_floor)

    rows = run_convergence(cfg)
    best = [r.best_ber for r in rows]
    assert all(a >= b for a, b in zip(best, best[1:])), "best-so-far BER must not increase"
    hits = [r for r in rows if r.best_ber <= target]
    assert hits, f"never reached within 10x of ridge ({target:.3g})"
    first = hits[0]
    assert first.presentations >= 100, (
        f"reached 10x of ridge after only {first.presentations} presentations"
    )

    nlinv = run_single(cfg, CONVERGENCE_BITRATE_GBPS, cfg.headers[0], "nlinv", instance=0)
    assert nlinv.presentations == 49
    assert first.presentations > nlinv.presentations


@criterion(10, "identical configs and seeds reproduce every CSV byte-for-byte")
def test_determinism_byte_for_byte(tmp_path):
    cfg = replace(
        ci_profile(),
        bitrates_gbps=(10.0,),
        n_train_bits=160,
        n_test_bits=160,
        n_reservoirs=2,
        trainers=("ridge", "nlinv"),
        perturbation_b_over_pi=(0.0, 0.5),
        n_perturbation_draws=2,
        perturbation_bitrate_gbps=10.0,
    )
    cfg = replace(cfg, cmaes=replace(cfg.cmaes, convergence_iterations=5, population=6))
    for sub in ("first", "second"):
        out = tmp_path / sub
        run_bitrate_sweep(cfg, out_dir=out)
        run_perturbation(cfg, out_dir=out)
        run_convergence(cfg, out_dir=out)
    first, second = tmp_path / "first", tmp_path / "second"
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert any(n.endswith(".csv") for n in names)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
