"""Golden outputs: small ci-profile CLI runs compared with committed files.

Each run below goes through ``photonrc.cli.main`` exactly as the command
line would.  Its outputs are compared with the files under
``tests/golden``:

- integers, strings, BERs and presentation counts must match exactly;
- the floats named in ``TOLERANT`` (thresholds, the alpha or sigma0 in
  ``detail``, geometric means, SSEs and estimated states) may differ by a
  relative 1e-9, measured against the larger of the value itself and a
  millionth of the largest magnitude in its column, because the last bit
  of a BLAS or libm result can differ between builds and CPUs.

A change that moves outputs on purpose regenerates the goldens with

    PYTHONPATH=src python tests/test_golden.py

and names the moved files in its change notes.  Regeneration rewrites
only the rows that ``compare_csv`` finds different, so the other rows
and files keep their bytes instead of taking the host's last-bit drift;
it names the files rewritten and the files kept.
"""

from __future__ import annotations

import csv
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from photonrc.cli import main

GOLDEN = Path(__file__).parent / "golden"
SHORT_CMAES = GOLDEN / "short_cmaes.yaml"

# Every this-many-th data row of the 820,080-row estimated_states.csv.
STATE_STRIDE = 1000
STATES_SLICE = "probe/estimated_states_every1000.csv"

# (output subdirectory, CLI arguments after the subcommand's --out)
RUNS = (
    ("sweep", ["sweep", "--profile", "ci", "--config", str(SHORT_CMAES),
               "--trainer", "ridge", "nlinv", "cmaes", "--bitrates", "10", "--seeds", "1"]),
    ("headers", ["headers", "--profile", "ci", "--trainer", "ridge", "nlinv",
                 "--bitrates", "10", "--seeds", "1"]),
    ("perturb", ["perturb", "--profile", "ci", "--seeds", "1"]),
    ("converge", ["converge", "--profile", "ci", "--config", str(SHORT_CMAES)]),
    ("probe", ["probe-dump", "--profile", "ci", "--bitrate", "10"]),
    # the ci profile's full 300 CMA-ES generations, which the short runs above do not reach
    ("cmaes300", ["sweep", "--profile", "ci", "--trainer", "cmaes", "--bitrates", "18", "--seeds", "1"]),
)

GOLDEN_FILES = (
    "sweep/records.csv",
    "sweep/summary.csv",
    "headers/records.csv",
    "perturb/perturbation.csv",
    "converge/convergence.csv",
    "probe/probes.csv",
    STATES_SLICE,
    "cmaes300/records.csv",
)

RTOL = 1e-9
COLUMN_FLOOR = 1e-6

TOLERANT = {
    "threshold_a",
    "detail",
    "geo_mean_test_ber",
    "geo_mean_ber",
    "best_sse",
    "re",
    "im",
}


def run_golden_cli(out: Path) -> None:
    """Run every golden command into ``out`` and decimate the state export."""
    for name, args in RUNS:
        assert main([*args, "--out", str(out / name), "--quiet"]) == 0, name
    full = out / "probe" / "estimated_states.csv"
    with open(full) as src, open(out / STATES_SLICE, "w") as dst:
        dst.write(next(src))
        for i, line in enumerate(src):
            if i % STATE_STRIDE == 0:
                dst.write(line)
    full.unlink()


def _read(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def _float_part(cell: str) -> tuple[str, float]:
    """``"alpha=1.5e-06"`` -> ``("alpha=", 1.5e-06)``; a bare number keeps an empty label."""
    label, _, value = cell.rpartition("=")
    return (label + "=" if label else ""), float(value)


def _moved(got_path: Path, want_path: Path) -> list[tuple[int | None, str]]:
    """Each difference between two CSV files as (row index, message); the row is None for the shape."""
    got_header, got = _read(got_path)
    want_header, want = _read(want_path)
    if got_header != want_header:
        return [(None, f"columns {got_header} != {want_header}")]
    if len(got) != len(want):
        return [(None, f"{len(got)} rows != {len(want)}")]
    problems = []
    for c, column in enumerate(want_header):
        got_col = [row[c] for row in got]
        want_col = [row[c] for row in want]
        if column not in TOLERANT:
            problems += [
                (r, f"row {r} {column}: {g!r} != {w!r}")
                for r, (g, w) in enumerate(zip(got_col, want_col))
                if g != w
            ]
            continue
        got_parts = [_float_part(v) for v in got_col]
        want_parts = [_float_part(v) for v in want_col]
        problems += [
            (r, f"row {r} {column}: {g!r} != {w!r}")
            for r, ((gl, _), (wl, _), g, w) in enumerate(zip(got_parts, want_parts, got_col, want_col))
            if gl != wl
        ]
        g = np.array([v for _, v in got_parts])
        w = np.array([v for _, v in want_parts])
        scale = np.maximum(np.abs(w), COLUMN_FLOOR * np.abs(w).max(initial=0.0))
        bad = np.flatnonzero(~(np.abs(g - w) <= RTOL * scale))
        problems += [(int(r), f"row {r} {column}: {got_col[r]} != {want_col[r]}") for r in bad]
    return problems


def compare_csv(got_path: Path, want_path: Path) -> list[str]:
    """Differences between two CSV files, by the rules of this module."""
    return [message for _, message in _moved(got_path, want_path)]


def _lines(path: Path) -> list[str]:
    """A CSV file's lines with their own line ends: the header, then one per row."""
    with open(path, newline="") as fh:
        return fh.readlines()


def update_goldens(run: Path, golden: Path = GOLDEN, names=GOLDEN_FILES) -> tuple[list[str], list[str]]:
    """Bring each golden to its output in ``run``, row by row.

    A row that ``compare_csv``'s rules pass keeps its committed bytes and
    a moved row takes the run's.  A file whose columns or row count
    changed, or that has no golden yet, is copied whole.  Returns the
    names rewritten and the names kept.
    """
    written, kept = [], []
    for name in names:
        got, want = run / name, golden / name
        moved = {r for r, _ in _moved(got, want)} if want.exists() else {None}
        if not moved:
            kept.append(name)
            continue
        if None in moved:
            want.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(got, want)
        else:
            lines, got_lines = _lines(want), _lines(got)
            # A moved row can shrink its column's scale and so move a kept
            # one: check again until every row passes.
            while moved:
                for r in moved:
                    lines[r + 1] = got_lines[r + 1]
                with open(want, "w", newline="") as fh:
                    fh.writelines(lines)
                moved = {r for r, _ in _moved(got, want)}
        written.append(name)
    return written, kept


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("golden")
    run_golden_cli(out)
    return out


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_matches_golden(golden_run, name):
    problems = compare_csv(golden_run / name, GOLDEN / name)
    assert not problems, f"{name} moved:\n" + "\n".join(problems[:20])


def test_compare_csv_rules(tmp_path):
    # exact columns catch a last-digit change; tolerant ones absorb a
    # last-bit change but not a real one
    want = tmp_path / "want.csv"
    want.write_text("test_ber,threshold_a,detail\n0.25,1.0,alpha=2e-06\n0.5,3.0,alpha=4e-06\n")
    got = tmp_path / "got.csv"
    got.write_text(
        "test_ber,threshold_a,detail\n0.25,1.0000000000000002,alpha=2.0000000000000003e-06\n"
        "0.5,3.0,alpha=4e-06\n"
    )
    assert compare_csv(got, want) == []
    got.write_text("test_ber,threshold_a,detail\n0.2500001,1.0,alpha=2e-06\n0.5,3.0,sigma0=4e-06\n")
    assert len(compare_csv(got, want)) == 2
    got.write_text("test_ber,threshold_a,detail\n0.25,1.001,alpha=2e-06\n0.5,3.0,alpha=4e-06\n")
    assert compare_csv(got, want) == ["row 0 threshold_a: 1.001 != 1.0"]


def test_update_rewrites_only_moved_files(tmp_path):
    run, golden = tmp_path / "run", tmp_path / "golden"
    files = {
        # last-bit drift in a tolerant column: kept
        "drift.csv": ("threshold_a\n1.0\n", "threshold_a\n1.0000000000000002\n"),
        # a moved exact column: rewritten
        "moved/records.csv": ("test_ber\n0.25\n", "test_ber\n0.5\n"),
        # no golden yet: written
        "new.csv": (None, "test_ber\n0.5\n"),
        # one drifted row keeps its bytes, one moved row takes the run's
        "mixed.csv": (
            "test_ber,threshold_a\r\n0.25,1.0\r\n0.5,3.0\r\n",
            "test_ber,threshold_a\r\n0.25,1.0000000000000002\r\n0.75,3.0\r\n",
        ),
        # a row more: copied whole
        "longer.csv": ("test_ber\n0.25\n", "test_ber\n0.25\n0.5\n"),
        # the moved row held the column's scale; without it the second row moves too
        "rescaled.csv": ("threshold_a\n1000.0\n0.0\n", "threshold_a\n1.0\n1e-13\n"),
    }
    for name, (want, got) in files.items():
        (run / name).parent.mkdir(parents=True, exist_ok=True)
        (run / name).write_text(got)
        if want is not None:
            (golden / name).parent.mkdir(parents=True, exist_ok=True)
            (golden / name).write_text(want)
    written, kept = update_goldens(run, golden, names=tuple(files))
    assert written == ["moved/records.csv", "new.csv", "mixed.csv", "longer.csv", "rescaled.csv"]
    assert kept == ["drift.csv"]
    assert (golden / "drift.csv").read_text() == "threshold_a\n1.0\n"
    assert (golden / "moved/records.csv").read_text() == "test_ber\n0.5\n"
    assert (golden / "new.csv").read_text() == "test_ber\n0.5\n"
    assert (golden / "mixed.csv").read_bytes() == b"test_ber,threshold_a\r\n0.25,1.0\r\n0.75,3.0\r\n"
    assert (golden / "longer.csv").read_text() == "test_ber\n0.25\n0.5\n"
    assert (golden / "rescaled.csv").read_text() == "threshold_a\n1.0\n1e-13\n"
    assert all(compare_csv(run / name, golden / name) == [] for name in files)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        run_golden_cli(Path(tmp))
        written, kept = update_goldens(Path(tmp))
    for name in written:
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
    for name in kept:
        print(f"kept {GOLDEN / name} (within the tolerance)", file=sys.stderr)
