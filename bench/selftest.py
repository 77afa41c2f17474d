"""Self-test of the benchmark: every workload at the tiny size, in both modes.

    python3 bench/selftest.py

Checks that each run exits 0 with a correct result whose metrics are
exactly the ones BENCHMARK.json names, each with its declared unit and a
finite value; that traced layer self times add up to the traced cell
time; and that the benchmark refuses, without printing a result, to run
in a directory holding only BENCHMARK.json and bench/.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    where = f"{workload} trace={trace}"
    proc = run(ROOT, workload, trace, "--size", "tiny")
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} cells failed")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != declared:
        problems.append(f"{where}: emitted {emitted}, declared {declared}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{where}: {name} = {m['value']!r}")
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        layers = sum(v for name, v in values.items() if name.endswith(".self_s"))
        if not math.isclose(layers, values["cell.s"], rel_tol=1e-9):
            problems.append(f"{where}: layer self times sum to {layers}, cell time {values['cell.s']}")
    return problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "paper_cell", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, workload["name"], trace)
    problems += check_bare_directory()
    for p in problems:
        print("FAIL", p)
    print("selftest:", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
