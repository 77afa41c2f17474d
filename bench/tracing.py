"""Span tracer that wraps photonrc's public functions from outside the package.

While a traced cell runs, the names listed in ``BOUNDARIES`` are replaced
in the photonrc module namespaces (and on ``SimulatedReadout``) by
wrappers that record one span per call; the originals are put back when
the cell ends.  Untraced cells therefore run the package exactly as
shipped.  Spans stay in memory and are written out when the run ends.

A span is its name (``<layer>.<function>``), start, end, the index of the
span that was open when it started, and the cell id.  A span's self time
is its duration minus the durations of its children; the benchmark is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

LAYERS = ("signals", "reservoir", "detector", "ridge", "stateest", "cmaes", "harness")

CELL_SPAN = "harness.cell"


def _state_megabytes(args, result) -> float:
    """Bytes a presentation reads: the N x F complex128 state matrix."""
    readout = args[0]
    return readout.n_samples * readout.n_channels * 16 / 1e6


def _generations(args, result) -> float:
    return float(result.iterations)


# (module, owner class or None, attribute, span name, value recorded on the span)
BOUNDARIES = (
    ("photonrc.harness", None, "modulate", "signals.modulate", None),
    ("photonrc.harness", None, "simulate", "reservoir.simulate", None),
    ("photonrc.harness", None, "cv_alpha", "ridge.cv_alpha", None),
    ("photonrc.harness", None, "train_cmaes", "cmaes.train_cmaes", None),
    ("photonrc.harness", None, "train_nlinv", "stateest.train_nlinv", None),
    ("photonrc.harness", None, "readout_forward", "harness.evaluate", None),
    ("photonrc.harness", None, "threshold_level", "harness.evaluate", None),
    ("photonrc.harness", None, "best_sampling_point", "harness.evaluate", None),
    ("photonrc.stateest", None, "cv_alpha", "ridge.cv_alpha", None),
    ("photonrc.stateest", "SimulatedReadout", "present", "detector.present", _state_megabytes),
    ("photonrc.cmaes", None, "cmaes_minimize", "cmaes.cmaes_minimize", _generations),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    cell: int
    value: float | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._cell = -1
        self._origin = time.perf_counter()
        self.missing: set[str] = set()

    def _begin(self, name: str) -> Span:
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1, self._cell)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def _wrap(self, fn, name, value_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if value_of is not None:
                span.value = value_of(args, result)
            return result

        return traced

    @contextmanager
    def cell(self, cell_id: int):
        """Trace everything called inside the block as one cell."""
        patched = []
        try:
            for module_name, owner, attr, name, value_of in BOUNDARIES:
                target = importlib.import_module(module_name)
                if owner is not None:
                    target = getattr(target, owner, None)
                original = getattr(target, attr, None)
                if original is None:
                    # a boundary the package no longer has records no spans
                    self.missing.add(".".join(filter(None, (module_name, owner, attr))))
                    continue
                patched.append((target, attr, original))
                setattr(target, attr, self._wrap(original, name, value_of))
            self._cell = cell_id
            span = self._begin(CELL_SPAN)
            try:
                yield
            finally:
                self._end(span)
        finally:
            self._cell = -1
            for target, attr, original in reversed(patched):
                setattr(target, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "start": s.start - self._origin,
                            "end": s.end - self._origin,
                            "parent": s.parent,
                            "cell": s.cell,
                            "value": s.value,
                        }
                    )
                    + "\n"
                )


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when the layer was never called."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of a traced run; seconds and call counts are per cell."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    self_time = [s.duration - c for s, c in zip(spans, covered)]
    cells = [s for s in spans if s.name == CELL_SPAN]
    n_cells = len(cells)
    per_cell = 1.0 / n_cells if n_cells else 0.0

    def named(name):
        # outermost spans only, so a wrapped function calling another
        # wrapped function of the same name is not counted twice
        return [
            s for s in spans if s.name == name and (s.parent < 0 or spans[s.parent].name != name)
        ]

    def under(span: Span, name: str) -> bool:
        while span.parent >= 0:
            span = spans[span.parent]
            if span.name == name:
                return True
        return False

    def layer_self(layer: str) -> float:
        return sum(t for s, t in zip(spans, self_time) if s.layer == layer)

    simulate = [s.duration for s in named("reservoir.simulate")]
    present = named("detector.present")
    present_s = [s.duration for s in present]
    cv = named("ridge.cv_alpha")
    cv_harness = [s.duration for s in cv if spans[s.parent].layer == "harness"]
    cv_stateest = [s.duration for s in cv if spans[s.parent].layer == "stateest"]
    generations = sum(s.value for s in named("cmaes.cmaes_minimize"))
    rounds = named("stateest.train_nlinv")
    round_presentations = sum(1 for s in present if under(s, "stateest.train_nlinv"))
    cell_self = sum(t for s, t in zip(spans, self_time) if s.name == CELL_SPAN)

    metrics = {
        "cell.count": float(n_cells),
        "cell.s": sum(s.duration for s in cells) * per_cell,
        "reservoir.simulate.s": sum(simulate) * per_cell,
        "reservoir.simulate.calls": len(simulate) * per_cell,
        "reservoir.simulate.ms_p50": _percentile(simulate, 50) * 1e3,
        "detector.present.s": sum(present_s) * per_cell,
        "detector.present.calls": len(present_s) * per_cell,
        "detector.present.ms_p50": _percentile(present_s, 50) * 1e3,
        "detector.present.ms_p99": _percentile(present_s, 99) * 1e3,
        "detector.present.mb_computed": statistics.fmean(s.value for s in present) if present else 0.0,
        "cmaes.generation.ms_self": layer_self("cmaes") / generations * 1e3 if generations else 0.0,
        "cmaes.generations": generations * per_cell,
        "ridge.cv_alpha.harness.s": sum(cv_harness) * per_cell,
        "ridge.cv_alpha.harness.calls": len(cv_harness) * per_cell,
        "ridge.cv_alpha.stateest.s": sum(cv_stateest) * per_cell,
        "ridge.cv_alpha.stateest.calls": len(cv_stateest) * per_cell,
        "stateest.probe_round.s_self": layer_self("stateest") / len(rounds) if rounds else 0.0,
        "stateest.probe_round.presentations": round_presentations / len(rounds) if rounds else 0.0,
        "harness.evaluate.s": sum(s.duration for s in named("harness.evaluate")) * per_cell,
        "signals.modulate.s": sum(s.duration for s in named("signals.modulate")) * per_cell,
        "harness.other.s": cell_self * per_cell,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self(layer) * per_cell
    return metrics


def unit_of(metric: str) -> str:
    """Unit of a metric from ``summarize`` or the run's own traced ratios."""
    last = metric.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "s_self"):
        return "s"
    if last.startswith("ms_"):
        return "ms"
    if last == "mb_computed":
        return "MB"
    if last in ("calls", "count", "generations", "presentations"):
        return "count"
    return "ratio"
