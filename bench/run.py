"""photonrc benchmark: one workload per process, end to end or traced.

    python3 bench/run.py --workload paper_cell --seed 1 --seconds 20 --trace 0

Set-up imports the package from ``src/``, builds the workload's
configuration (three times; the median counts) and runs one untimed
warm-up cell, which pays the first-call BLAS/scipy cost.  The timed phase
then runs rounds of cells until ``--seconds`` of cell time have passed,
with a pass of the fixed reference work (reference.py) between cells;
times are reported at reference speed.  Every cell's output is checked; a
cell that raises or fails its check is recorded with its reason and the
run goes on.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
cell twice, untraced and traced in alternating order, requires both runs
to return identical results, and reports the per-layer metrics from the
traced runs.  The last line of standard output is the JSON result; the
details (environment, per-cell times, result digests, spans) are written
to ``.bench_out/`` in the checkout root.
"""

import time

T_START = time.perf_counter()

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: the products here are N x 17, too narrow to gain much
# from a second thread, and a single thread is far steadier on a shared host.
BLAS_THREADS = 1
SETUP_REPEATS = 3
WARMUP_CELL = -1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="cell time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny: the self-test's cells"
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def digest(result) -> str:
    """Fingerprint of a cell's records; repr keeps every float digit."""
    return hashlib.sha256(repr(result).encode()).hexdigest()


class Cell:
    """One call of the workload's entry point; ``check`` validates its output."""

    def __init__(self, workload, base, index, tracer=None):
        self.index = index
        self.cfg = workload.cell_config(base, index)
        self.result = None
        self.digest = None
        self.problems = []
        self.presentations = 0
        self.traceback = None
        self.reference_s = None
        self.reference_seconds = None
        start = time.perf_counter()
        try:
            if tracer is None:
                self.result = workload.run(self.cfg)
            else:
                with tracer.cell(index):
                    self.result = workload.run(self.cfg)
        except Exception as exc:  # a failing cell is recorded and the run goes on
            self._failed(exc)
        self.seconds = time.perf_counter() - start
        if self.result is not None:
            self.digest = digest(self.result)

    def _failed(self, exc: Exception) -> None:
        self.problems = [f"raised {type(exc).__name__}: {exc}"]
        self.traceback = traceback.format_exc()

    def check(self, workload) -> "Cell":
        if self.result is not None:
            try:
                self.problems, self.presentations = workload.check(self.cfg, self.result)
            except Exception as exc:  # a check that cannot run fails its cell
                self._failed(exc)
        return self

    def record(self, **extra) -> dict:
        return {
            "index": self.index,
            "bitrate_gbps": self.cfg.bitrates_gbps[0],
            "seconds": self.seconds,
            "reference_s": self.reference_s,
            "reference_seconds": self.reference_seconds,
            "presentations": self.presentations,
            "digest": self.digest,
            "problems": self.problems,
            "traceback": self.traceback,
            **extra,
        }


def run_untraced(workload, base, seconds, reference):
    """Rounds of cells until ``seconds`` of cell time, with a reference pass
    between consecutive cells; returns the cells in order."""
    cells, spent, index = [], 0.0, 0
    ref_before = reference()
    while spent < seconds:
        for _ in workload.bitrates:
            cell = Cell(workload, base, index)
            ref_after = reference()
            cell.reference_s = (ref_before + ref_after) / 2
            cell.reference_seconds = reference.at_reference_speed(cell.seconds, cell.reference_s)
            cells.append(cell.check(workload))
            spent += cell.seconds
            ref_before = ref_after
            index += 1
    return cells


def run_traced(workload, base, seconds, tracer):
    """Each cell untraced and traced, alternating which goes first.

    Only the traced result is checked; the untraced one must match it
    byte for byte.
    """
    pairs, spent, index = [], 0.0, 0
    while spent < seconds:
        for _ in workload.bitrates:
            if index % 2 == 0:
                plain = Cell(workload, base, index)
                traced = Cell(workload, base, index, tracer)
            else:
                traced = Cell(workload, base, index, tracer)
                plain = Cell(workload, base, index)
            traced.check(workload)
            if plain.digest != traced.digest:
                traced.problems.append("traced result differs from the untraced one")
            pairs.append((plain, traced))
            spent += plain.seconds + traced.seconds
            index += 1
    return pairs


def tail_percentile(values):
    """Highest of p99/p95/p90/p75/p50 with at least 10 samples beyond it."""
    ordered = sorted(values)
    for p in (99, 95, 90, 75, 50):
        if len(ordered) * (100 - p) / 100 >= 10:
            return {"p": p, "value": statistics.quantiles(ordered, n=100)[p - 1]}
    return None


def geometric_mean_ber(bers, clamp=1e-4):
    return math.exp(statistics.fmean(math.log(max(b, clamp)) for b in bers)) if bers else 0.0


def measure_untraced(workload, base, seconds, reference, work_dir, report):
    """End-to-end metrics, with cell times at reference speed; returns checked cells."""
    cells = run_untraced(workload, base, seconds, reference)
    ok = [c for c in cells if not c.problems]
    per_round = len(workload.bitrates)
    rounds = [cells[i : i + per_round] for i in range(0, len(cells), per_round)]
    round_means = [statistics.fmean(c.reference_seconds for c in r) for r in rounds]
    host_round_means = [statistics.fmean(c.seconds for c in r) for r in rounds]
    metrics = {
        "cell_s_p50": (statistics.median(round_means), "s"),
        "cells_per_s": (len(ok) / sum(c.reference_seconds for c in cells), "1/s"),
        "presentations_per_cell": (
            statistics.fmean(c.presentations for c in ok) if ok else 0.0,
            "count",
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (report["setup"]["reference_speed_s"], "s"),
    }
    report["cells"] = [c.record() for c in cells]
    report["cell_s_samples"] = len(round_means)
    report["cell_s_tail"] = tail_percentile(round_means)
    report["host"] = {
        "cell_s_p50": statistics.median(host_round_means),
        "cells_per_s": len(ok) / sum(c.seconds for c in cells),
        "setup_s": report["setup"]["host_s"],
    }
    report["untraced_wall_s"] = sum(c.seconds for c in cells)
    report["traced_wall_s"] = None
    return cells, metrics


def measure_traced(workload, base, seconds, reference, work_dir, report):
    """Per-layer metrics from the traced half of untraced/traced pairs."""
    import tracing

    tracer = tracing.Tracer()
    pairs = run_traced(workload, base, seconds, tracer)
    untraced_s = sum(p.seconds for p, _ in pairs)
    traced_s = sum(t.seconds for _, t in pairs)
    bers = [b for _, t in pairs if t.result is not None for b in workload.test_bers(t.result)]
    layer = tracing.summarize(tracer.spans)
    layer["harness.test_ber_gmean"] = geometric_mean_ber(bers)
    layer["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    tracer.write(work_dir / "spans.jsonl")
    report["cells"] = [t.record(untraced_seconds=p.seconds) for p, t in pairs]
    report["untraced_wall_s"] = untraced_s
    report["traced_wall_s"] = traced_s
    report["unwrapped_boundaries"] = sorted(tracer.missing)
    return [t for _, t in pairs], {name: (v, tracing.unit_of(name)) for name, v in layer.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "photonrc" / "__init__.py").is_file():
        print(f"error: photonrc sources not found under {SRC}", file=sys.stderr)
        return 2

    # BLAS reads its thread count when numpy loads, so set it before importing.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import workloads
    from reference import Reference

    import_s = time.perf_counter() - T_START

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if workload.tiny else "")
    work_dir = OUT_DIR / stem
    work_dir.mkdir(parents=True, exist_ok=True)

    prepare_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        base = workload.prepare(work_dir)
        prepare_s.append(time.perf_counter() - start)
    reference = Reference()
    ref_before = reference()
    warmup = Cell(workload, base, WARMUP_CELL)
    warmup.reference_s = (ref_before + reference()) / 2
    warmup.check(workload)
    setup_host_s = import_s + statistics.median(prepare_s) + warmup.seconds

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS,
        },
        "setup": {
            "import_s": import_s,
            "prepare_s": prepare_s,
            "warmup_cell_s": warmup.seconds,
            "host_s": setup_host_s,
            "reference_s": warmup.reference_s,
            "reference_speed_s": reference.at_reference_speed(setup_host_s, warmup.reference_s),
        },
        "warmup": warmup.record(),
    }

    measure = measure_untraced if args.trace == 0 else measure_traced
    cells, metrics = measure(workload, base, args.seconds, reference, work_dir, report)
    checked = [warmup] + cells
    failed = sum(1 for c in checked if c.problems)
    report["fail_frac"] = failed / len(checked)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["wall_s"] = time.perf_counter() - T_START
    (work_dir / "result.json").write_text(json.dumps(report, indent=1) + "\n")

    for c in checked:
        for problem in c.problems:
            print(f"cell {c.index}: {problem}")
    samples = f", cell_s_p50 over {report['cell_s_samples']} rounds" if args.trace == 0 else ""
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(checked)} cells checked, "
          f"{failed} failed{samples}; details in {(work_dir / 'result.json').relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(checked),
                "failed": failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
