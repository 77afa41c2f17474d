"""The benchmark's workloads: what one cell is, its inputs and its output check.

A cell is one call of a public photonrc entry point for one (bitrate,
reservoir instance).  Every cell gets its own ``master_seed``, derived
from the workload seed and the cell index, so cells are distinct
reservoir instances with distinct bit streams.  A round is one cell at
each of the workload's bitrates; round times are what ``cell_s_p50``
takes the median of, so a workload mixing two bitrates of different cost
does not have a two-humped median.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace
from pathlib import Path

from photonrc.config import ExperimentConfig, ci_profile, paper_profile
from photonrc.harness import run_bitrate_sweep, run_perturbation, run_single
from photonrc.reservoir import ReservoirTopology, build_swirl, load_topology, save_topology

# Bit count of every sequence in the self-test size.  Its 200 scored bits
# put the BER floor at 0.05, too coarse for the floor check, which the
# tiny size therefore skips.
TINY_BITS = 210

# The CMA-ES sweep is set explicitly so the expected presentation count
# follows from the benchmark alone: 8 sigmas x 20 generations x 14.
SIGMA_SWEEP = tuple(10.0**k for k in range(-5, 3))
CMAES_POPULATION = 14
CMAES_ITERATIONS = 20


def cell_seed(workload: str, seed: int, key) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{key}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def n_channels(cfg: ExperimentConfig) -> int:
    """Readout channels: every reservoir node plus the bias line."""
    return cfg.reservoir.rows * cfg.reservoir.cols + 1


def expected_presentations(cfg: ExperimentConfig, trainer: str) -> int:
    if trainer == "ridge":
        return 1
    if trainer == "nlinv":
        return 3 * n_channels(cfg) - 2
    return len(cfg.cmaes.sigma_sweep) * cfg.cmaes.max_iterations * cfg.cmaes.population


class Workload:
    name: str
    bitrates: tuple[float, ...]

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.tiny = tiny

    def prepare(self, work_dir: Path) -> ExperimentConfig:
        """Configuration shared by every cell of this run."""
        raise NotImplementedError

    def cell_config(self, base: ExperimentConfig, index: int) -> ExperimentConfig:
        bitrate = self.bitrates[index % len(self.bitrates)]
        return replace(
            base, bitrates_gbps=(bitrate,), master_seed=cell_seed(self.name, self.seed, index)
        )

    def run(self, cfg: ExperimentConfig):
        raise NotImplementedError

    def check(self, cfg: ExperimentConfig, result) -> tuple[list[str], int]:
        """Problems found in one cell's output, and its training presentations."""
        raise NotImplementedError

    def test_bers(self, result) -> list[float]:
        raise NotImplementedError


class _SweepWorkload(Workload):
    """Cells run through ``run_bitrate_sweep``: one record per trainer."""

    floor_bitrate: float | None = None

    def run(self, cfg):
        return run_bitrate_sweep(cfg)

    def check(self, cfg, result):
        records, _ = result
        problems = []
        if sorted(r.trainer for r in records) != sorted(cfg.trainers):
            problems.append(f"records for {[r.trainer for r in records]}, expected {cfg.trainers}")
        for r in records:
            want = expected_presentations(cfg, r.trainer)
            if r.presentations != want:
                problems.append(f"{r.trainer}: {r.presentations} presentations, expected {want}")
            if not (math.isfinite(r.train_ber) and math.isfinite(r.test_ber)):
                problems.append(f"{r.trainer}: non-finite BER")
            elif (
                not self.tiny
                and r.bitrate_gbps == self.floor_bitrate
                and r.test_ber > r.test_ber_floor
            ):
                problems.append(
                    f"{r.trainer} at {r.bitrate_gbps:g} Gbps: test BER {r.test_ber:.3g} "
                    f"above the floor {r.test_ber_floor:.3g}"
                )
        return problems, sum(r.presentations for r in records)

    def test_bers(self, result):
        return [r.test_ber for r in result[0]]


class PaperCell(_SweepWorkload):
    name = "paper_cell"
    bitrates = (10.0, 15.0)
    floor_bitrate = 10.0

    def prepare(self, work_dir):
        cfg = replace(paper_profile(), headers=("101",), trainers=("ridge", "nlinv"), n_reservoirs=1)
        if self.tiny:
            cfg = replace(cfg, n_train_bits=TINY_BITS, n_test_bits=TINY_BITS)
        return cfg


class CmaesBlackbox(_SweepWorkload):
    name = "cmaes_blackbox"
    bitrates = (10.0,)

    def prepare(self, work_dir):
        ci = ci_profile()
        cmaes = replace(
            ci.cmaes,
            max_iterations=1 if self.tiny else CMAES_ITERATIONS,
            population=CMAES_POPULATION,
            sigma_sweep=SIGMA_SWEEP,
        )
        cfg = replace(ci, headers=("101",), trainers=("cmaes",), n_reservoirs=1, cmaes=cmaes)
        if self.tiny:
            cfg = replace(cfg, n_train_bits=TINY_BITS, n_test_bits=TINY_BITS)
        return cfg


def mixed_delay_swirl(seed: int) -> ReservoirTopology:
    """4x4 swirl with every 4th waveguide twice as long (delay and loss)."""
    topo = build_swirl(4, 4, seed=seed)
    edges = tuple(
        replace(e, delay=2.0 * e.delay, loss_db=2.0 * e.loss_db) if i % 4 == 3 else e
        for i, e in enumerate(topo.edges)
    )
    return ReservoirTopology(topo.n_nodes, edges, topo.input_ports, seed=topo.seed)


class PerturbMixedDelay(Workload):
    name = "perturb_mixed_delay"
    bitrates = (5.0,)
    b_over_pi = (0.0, 0.1, 0.5)

    def prepare(self, work_dir):
        path = work_dir / "mixed_delay.topo"
        save_topology(mixed_delay_swirl(cell_seed(self.name, self.seed, "topology")), path)
        # The per-sample propagation path is what this workload measures;
        # equal delays would silently route it to the block path instead.
        if len({e.delay for e in load_topology(path).edges}) < 2:
            raise RuntimeError(f"{path}: edge delays are all equal")
        ci = ci_profile()
        cfg = replace(
            ci,
            headers=("101",),
            trainers=("ridge",),
            n_reservoirs=1,
            perturbation_bitrate_gbps=self.bitrates[0],
            perturbation_b_over_pi=self.b_over_pi,
            n_perturbation_draws=1 if self.tiny else 2,
            reservoir=replace(ci.reservoir, topology_file=str(path)),
        )
        if self.tiny:
            cfg = replace(cfg, n_train_bits=TINY_BITS, n_test_bits=TINY_BITS)
        return cfg

    def run(self, cfg):
        return run_perturbation(cfg)

    def check(self, cfg, rows):
        problems = []
        got = tuple(round(r.b_over_pi, 12) for r in rows)
        if got != self.b_over_pi:
            problems.append(f"rows for b/pi {got}, expected {self.b_over_pi}")
        baseline = run_single(cfg, cfg.perturbation_bitrate_gbps, cfg.headers[0], "ridge")
        for r in rows:
            draws = 1 if r.b_rad == 0.0 else cfg.n_perturbation_draws
            if r.n_evaluations != cfg.n_reservoirs * draws:
                problems.append(f"b={r.b_over_pi:g}pi: {r.n_evaluations} evaluations")
            if not (math.isfinite(r.mean_ber) and math.isfinite(r.geo_mean_ber)):
                problems.append(f"b={r.b_over_pi:g}pi: non-finite BER")
            if r.b_rad == 0.0 and r.mean_ber != baseline.test_ber:
                problems.append(
                    f"b=0 row BER {r.mean_ber!r} differs from the unperturbed "
                    f"baseline {baseline.test_ber!r}"
                )
        return problems, baseline.presentations * cfg.n_reservoirs

    def test_bers(self, rows):
        return [r.mean_ber for r in rows]


WORKLOADS = {w.name: w for w in (PaperCell, CmaesBlackbox, PerturbMixedDelay)}
