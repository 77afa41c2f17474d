"""Delay-line network model of a passive photonic swirl reservoir.

The reservoir is a directed graph of nodes joined by delayed, lossy,
phase-shifted waveguides.  Nodes combine their incoming amplitudes with a
1/sqrt(k_in) factor (an injection port counts toward k_in) and split their
output onto outgoing waveguides with 1/sqrt(k_out).  That scattering rule
is energy-non-increasing for every coherent input, so the network is
passive by construction; the only nonlinearity of the whole system lives
in the detector.

The time-domain update runs on a grid fine enough that every waveguide
delay is an integer number of steps and every bit period spans at least
as many steps as the requested output resolution.  One block recursion
serves every delay set: one transfer matrix per distinct delay, advanced
in blocks as long as the shortest delay, so unequal waveguide lengths run
at block speed.  The recursion always runs in a node-wide buffer, each
block of two or more rows with one in-place zgemm per delay; on the input
grid with a bias line that buffer is the head of the state matrix's own
memory and is spread out to its F + 1 stride afterwards.  When the
simulation grid is finer than the input grid, the input is resampled
onto it and the recorded node signals back onto the input grid, linearly
and to the bit of ``np.interp``.  One input signal drives every
injection port, each with its own feed phase.

``simulate_each`` runs one input through several reservoirs with the same
delays, such as phase-perturbed copies of one chip: the grid, the
resampled input and both resampling brackets are computed once, and only
the transfers and the recursion are each topology's own.  ``simulate`` is
its one-topology case.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.linalg.blas import zgemm

from .signals import OpticalSignal

__all__ = [
    "Edge",
    "InputPort",
    "ReservoirTopology",
    "StateMatrix",
    "build_swirl",
    "perturb_phases",
    "with_phases",
    "simulate",
    "simulate_each",
    "save_topology",
    "load_topology",
]

logger = logging.getLogger(__name__)

SPEED_OF_LIGHT = 299792458.0  # m/s

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Edge:
    """Directed waveguide: src -> dst with delay (s), loss (dB) and phase (rad)."""

    src: int
    dst: int
    delay: float
    loss_db: float
    phase: float


@dataclass(frozen=True)
class InputPort:
    """Injection point: external input enters ``node`` with a feed phase."""

    node: int
    phase: float


@dataclass(frozen=True)
class ReservoirTopology:
    n_nodes: int
    edges: tuple[Edge, ...]
    input_ports: tuple[InputPort, ...]
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("topology needs at least one node")
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "input_ports", tuple(self.input_ports))
        for e in self.edges:
            if not (0 <= e.src < self.n_nodes and 0 <= e.dst < self.n_nodes):
                raise ValueError(f"edge {e.src}->{e.dst} references a missing node")
            if not 0 < e.delay < math.inf:
                raise ValueError(f"edge delays must be positive and finite, got {e.delay!r}")
            if not 0 <= e.loss_db < math.inf:
                raise ValueError(f"edge loss must be non-negative and finite, got {e.loss_db!r}")
            if not (0.0 <= e.phase < TWO_PI):
                raise ValueError("edge phases must lie in [0, 2*pi)")
        for p in self.input_ports:
            if not (0 <= p.node < self.n_nodes):
                raise ValueError(f"input port references missing node {p.node}")
            if not (0.0 <= p.phase < TWO_PI):
                raise ValueError("input port phases must lie in [0, 2*pi)")

    def in_degree(self) -> np.ndarray:
        deg = np.zeros(self.n_nodes, dtype=int)
        for e in self.edges:
            deg[e.dst] += 1
        return deg

    def out_degree(self) -> np.ndarray:
        deg = np.zeros(self.n_nodes, dtype=int)
        for e in self.edges:
            deg[e.src] += 1
        return deg


@dataclass(frozen=True)
class StateMatrix:
    """N samples x F channels of complex node amplitudes plus optional bias.

    ``bias_index`` is the column of the constant power line feeding the
    readout directly, or ``None`` without one.
    """

    samples: np.ndarray
    sample_period: float
    bias_index: int | None = None

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 2:
            raise ValueError("state samples must be a 2-D array")
        if samples.size and not np.isfinite(samples).all():
            raise ValueError("state samples must be finite")
        if not self.sample_period > 0:
            raise ValueError("sample_period must be positive")
        if self.bias_index is not None and not 0 <= self.bias_index < samples.shape[1]:
            raise ValueError(f"bias index {self.bias_index} is not a column of {samples.shape[1]}")
        object.__setattr__(self, "samples", samples)

    @property
    def n_samples(self) -> int:
        return int(self.samples.shape[0])

    @property
    def n_channels(self) -> int:
        return int(self.samples.shape[1])


def _swirl_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    """Nearest-neighbour grid with alternating edge directions.

    Horizontal edges run left-to-right on even rows and right-to-left on
    odd rows; vertical edges run upward on even columns and downward on
    odd columns.  Node indices are ordered row by row, left to right.
    """
    idx = lambda r, c: r * cols + c
    pairs: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols - 1):
            if r % 2 == 0:
                pairs.append((idx(r, c), idx(r, c + 1)))
            else:
                pairs.append((idx(r, c + 1), idx(r, c)))
    for r in range(rows - 1):
        for c in range(cols):
            if c % 2 == 0:
                pairs.append((idx(r + 1, c), idx(r, c)))
            else:
                pairs.append((idx(r, c), idx(r + 1, c)))
    return pairs


def central_input_nodes(rows: int, cols: int) -> tuple[int, ...]:
    """The four central nodes of the grid (5, 6, 9, 10 on a 4x4)."""
    r0, c0 = rows // 2 - 1, cols // 2 - 1
    return tuple(
        r * cols + c for r in (r0, r0 + 1) for c in (c0, c0 + 1)
    )


def build_swirl(
    rows: int = 4,
    cols: int = 4,
    *,
    delay: float = 62.5e-12,
    loss_db_per_cm: float = 3.0,
    group_index: float = 4.2,
    seed: int | None = None,
    input_nodes: tuple[int, ...] | None = None,
) -> ReservoirTopology:
    """Construct a swirl-interconnect reservoir with random waveguide phases.

    Every waveguide gets the same nominal ``delay``; its loss follows from
    the physical length ``delay * c / group_index`` at ``loss_db_per_cm``.
    Phases are drawn independently from U(0, 2*pi), as are the feed phases
    of the injection ports.  Fabrication variation between instances is
    modelled entirely by these phases (different seeds).
    """
    if rows < 2 or cols < 2:
        raise ValueError("swirl grid needs at least 2 rows and 2 columns")
    if not delay > 0:
        raise ValueError("delay must be positive")
    if loss_db_per_cm < 0:
        raise ValueError("loss must be non-negative")
    if not group_index > 0:
        raise ValueError("group index must be positive")

    n_nodes = rows * cols
    if input_nodes is None:
        input_nodes = central_input_nodes(rows, cols)
    input_nodes = tuple(int(v) for v in input_nodes)
    bad = [v for v in input_nodes if not 0 <= v < n_nodes]
    if bad:
        raise ValueError(f"input nodes {bad} do not exist on a {rows}x{cols} grid")

    length_cm = delay * SPEED_OF_LIGHT / group_index * 100.0
    loss_db = loss_db_per_cm * length_cm

    rng = np.random.default_rng(seed)
    pairs = _swirl_edges(rows, cols)
    edge_phases = rng.uniform(0.0, TWO_PI, size=len(pairs))
    port_phases = rng.uniform(0.0, TWO_PI, size=len(input_nodes))

    edges = tuple(
        Edge(src, dst, delay, loss_db, float(ph))
        for (src, dst), ph in zip(pairs, edge_phases)
    )
    ports = tuple(InputPort(node, float(ph)) for node, ph in zip(input_nodes, port_phases))
    return ReservoirTopology(n_nodes, edges, ports, seed=seed)


def with_phases(topology: ReservoirTopology, edge_phases: np.ndarray, port_phases: np.ndarray) -> ReservoirTopology:
    """Return a copy with the given waveguide and feed phases (rad), in edge and port order."""
    edges = tuple(replace(e, phase=float(ph)) for e, ph in zip(topology.edges, edge_phases, strict=True))
    ports = tuple(replace(p, phase=float(ph)) for p, ph in zip(topology.input_ports, port_phases, strict=True))
    return replace(topology, edges=edges, input_ports=ports)


def perturb_phases(topology: ReservoirTopology, b: float, seed: int | None = None) -> ReservoirTopology:
    """Return a copy with every waveguide and feed phase shifted by U(0, b).

    Each phase receives an independent draw from a generator seeded by
    ``seed``; results are wrapped back to [0, 2*pi).  ``b`` must be finite
    and at least 0.  The original topology is left untouched.
    """
    if not 0 <= b < math.inf:
        raise ValueError(f"maximum phase perturbation must be non-negative and finite, got {b!r}")
    rng = np.random.default_rng(seed)
    edge_shift = rng.uniform(0.0, b, size=len(topology.edges))
    port_shift = rng.uniform(0.0, b, size=len(topology.input_ports))
    return with_phases(
        topology,
        (np.array([e.phase for e in topology.edges]) + edge_shift) % TWO_PI,
        (np.array([p.phase for p in topology.input_ports]) + port_shift) % TWO_PI,
    )


_RESAMPLE_ROWS = 2048


def _bracket(x: np.ndarray, xp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each point of ``x`` falls on the strictly rising ``xp``, for ``_resample_into``.

    Returns ``lo``, the left end of each point's interval (the last
    interval for a point at or past ``xp[-1]``), ``exact``, the points
    that take a value of ``fp`` outright (below ``xp[0]``, at or past
    ``xp[-1]``, or on a point of ``xp``), and the index in ``xp`` of each
    of those.  A pair of grids needs this search once, however many
    signals are resampled between them.
    """
    last = len(xp) - 1
    j = np.searchsorted(xp, x, side="right") - 1
    at = np.clip(j, 0, last)
    exact = np.flatnonzero((j < 0) | (j == last) | (x == xp[at]))
    return np.minimum(at, max(last - 1, 0)), exact, at[exact]


def _resample_into(
    out: np.ndarray,
    x: np.ndarray,
    xp: np.ndarray,
    fp: np.ndarray,
    bracket: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """Write ``np.interp(x, xp, column)`` of every part of every column of ``fp`` into ``out``.

    ``fp`` is a len(xp) x C complex matrix and ``out`` a len(x) x C complex
    matrix (a column slice of a wider one will do); ``xp`` rises strictly
    and ``bracket`` is ``_bracket(x, xp)``.  The real and imaginary parts
    of all columns share that one bracket search and are interpolated
    together, ``_RESAMPLE_ROWS`` rows at a time, with numpy's formula
    ``(fp[j+1] - fp[j]) / (xp[j+1] - xp[j]) * (x - xp[j]) + fp[j]`` and
    its edge rules: a point on ``xp[j]`` takes ``fp[j]``, one below
    ``xp[0]`` takes ``fp[0]`` and one at or past ``xp[-1]`` takes
    ``fp[-1]``.  Every output byte equals that of per-part ``np.interp``.

    Each chunk gathers its two bracket rows into two reused contiguous
    buffers of at most ``_RESAMPLE_ROWS`` x 2C floats, does the four
    arithmetic passes there, and is copied into ``out`` once, so the
    passes never walk the strided columns of a wider matrix.
    """
    lo, exact, hits = bracket
    src = fp.view(np.float64)
    dst = out.view(np.float64)
    if len(xp) > 1:  # a single grid point has no interval to interpolate in
        offset = (x - xp[lo])[:, None]
        width = (xp[lo + 1] - xp[lo])[:, None]
        shape = (min(len(x), _RESAMPLE_ROWS), src.shape[1])
        lefts, chunks = np.empty(shape), np.empty(shape)
        for r0 in range(0, len(x), _RESAMPLE_ROWS):
            rows = slice(r0, r0 + _RESAMPLE_ROWS)
            below = lo[rows]
            left, chunk = lefts[: len(below)], chunks[: len(below)]
            # every index is in range, and "clip" spares take a buffered copy
            np.take(src, below, axis=0, out=left, mode="clip")
            np.take(src, below + 1, axis=0, out=chunk, mode="clip")
            chunk -= left
            chunk /= width[rows]
            chunk *= offset[rows]
            chunk += left
            dst[rows] = chunk
    dst[exact] = src[hits]


def _simulation_step(topology: ReservoirTopology, input_period: float) -> tuple[float, np.ndarray]:
    """Pick the step so the shortest delay is an integer number of steps.

    The step never exceeds the input sample period, which keeps at least
    the input resolution (24 samples per bit by default) in the block
    recursion across the whole bitrate sweep.  Remaining delays are
    rounded to whole steps; with the single-delay topologies of
    ``build_swirl`` the rounding is exact.  When a delay lies more than
    1e-6 of a step off the grid, one warning names the edge rounded
    furthest and the delay it is simulated with.  A topology without
    edges runs on the input grid.
    """
    delays = np.array([e.delay for e in topology.edges], dtype=np.float64)
    base = float(delays.min()) if delays.size else input_period
    k = max(1, math.ceil(base / input_period - 1e-9))
    step = base / k
    exact = delays / step
    steps = np.maximum(1, np.rint(exact).astype(np.int64))
    off = np.abs(exact - steps)
    if off.size and off.max() > 1e-6:
        i = int(np.argmax(off))
        e = topology.edges[i]
        simulated = steps[i] * step
        logger.warning(
            "edge %d (%d->%d): delay %.6g s is %.4f steps of %.6g s; simulated as %d steps, %.6g s (%+.2f %%)",
            i, e.src, e.dst, e.delay, exact[i], step, steps[i], simulated, 100.0 * (simulated / e.delay - 1.0),
        )
    return step, steps


# Rows that spread a node-wide recursion buffer out to the F + 1 stride of
# the state matrix at a time: numpy copies each chunk's overlapping source
# aside, 2048 x F complex values (0.5 MB for 16 nodes).
_SPREAD_ROWS = 2048

# Blocks whose node-major views the recursion builds and holds at once.
# The views of every block at once held 24 MB in the recursion of a
# paper-length input at 1 Gbps, about 160k blocks of two steps.
_VIEW_BLOCKS = 1024


def _node_major_tilings(
    buf: np.ndarray, first: int, count: int, rows: int, transfers: dict[int, np.ndarray]
) -> tuple[list[np.ndarray], list[tuple[list[np.ndarray], np.ndarray]]]:
    """The ``count`` blocks of ``rows`` rows from row ``first`` of ``buf``, and each delay's sources.

    Returns the blocks and, per delay in ``transfers`` order, the list of
    the source block each one reads (its block ``k`` is the rows ``d``
    steps before block ``k``) with the transposed transfer, every block
    and source a node-major view.  A delay ``d = q rows + r`` reads block
    ``k - q`` of the blocks shifted back by ``r`` rows, so one list of
    views per distinct residue ``r`` serves every delay with that residue,
    each view built once; residue 0 is the blocks themselves.
    """
    n_nodes = buf.shape[1]
    reach = {0: 0}  # per residue, the most blocks a delay with it reaches back
    for d in transfers:
        q, r = divmod(d, rows)
        reach[r] = max(reach.get(r, 0), q)
    tilings = {
        r: list(
            buf[first - r - q * rows : first - r + count * rows]
            .reshape(count + q, rows, n_nodes)
            .transpose(0, 2, 1)
        )
        for r, q in reach.items()
    }
    sources = [
        (tilings[d % rows][reach[d % rows] - d // rows :], transfer.T) for d, transfer in transfers.items()
    ]
    return tilings[0][reach[0] :], sources


def _advance(full: np.ndarray, pad: int, transfers: dict[int, np.ndarray]) -> None:
    """Add every delayed edge arrival to the rows of ``full`` past ``pad``, in place.

    ``full`` is a C-contiguous node-wide buffer whose row ``pad + n``
    holds time step n; ``transfers`` maps each delay, in steps, to its
    transfer matrix.  Every delay spans at least ``d_min`` steps, so a
    block of ``d_min`` steps reads only rows that earlier blocks have
    completed.  The full blocks, then the shorter last one, and their
    delayed sources are walked as block-shaped views; each block and
    delay gets the bytes of ``block += source @ transfer``.

    A block of two or more rows takes one zgemm per delay,
    ``block.T += transfer.T @ source.T`` on the node-major views with
    ``beta = 1``, and each of those views is built once
    (``_node_major_tilings``, for ``_VIEW_BLOCKS`` blocks at a time).
    zgemm writes in place only into a Fortran-contiguous target and
    otherwise silently returns a fresh array, so a buffer that is not
    C-contiguous and node wide, or a call that does not return its
    target, raises ``RuntimeError``.  A one-row block keeps
    ``row += source @ transfer``, because a one-row ``@`` rounds
    differently from zgemm.
    """
    n_nodes = full.shape[1]
    if not full.flags.c_contiguous or any(t.shape != (n_nodes, n_nodes) for t in transfers.values()):
        raise RuntimeError("the block recursion needs a C-contiguous node-wide buffer")
    n_sim = full.shape[0] - pad
    d_min = min(transfers, default=n_sim)
    n_full, n_last = divmod(n_sim, d_min)
    first = pad
    for count, rows in [(n_full, d_min), (1, n_last)]:
        if rows == 1:
            for row in range(first, first + count):
                for d, transfer in transfers.items():
                    full[row : row + 1] += full[row - d : row - d + 1] @ transfer
        elif rows > 1:
            for done in range(0, count, _VIEW_BLOCKS):
                blocks, node_major = _node_major_tilings(
                    full, first + done * rows, min(_VIEW_BLOCKS, count - done), rows, transfers
                )
                for k, block in enumerate(blocks):
                    for source, transfer in node_major:
                        if zgemm(1.0, transfer, source[k], 1.0, block, 0, 0, 1) is not block:
                            raise RuntimeError("zgemm returned a copy and left its block unchanged")
        first += count * rows


def simulate(
    topology: ReservoirTopology,
    signal: OpticalSignal,
    bias_power: float | None = None,
) -> StateMatrix:
    """Propagate one optical input, fed to every injection port, through the reservoir.

    Each port applies its own feed phase to ``signal``.  Node ``v``
    records the combined amplitude

        s_v[n] = (sum of arriving edge amplitudes + injected input) / sqrt(k_in)

    where edges contribute their source output delayed, attenuated by
    10^(-loss_db/20), rotated by the waveguide phase and scaled by the
    source splitter factor 1/sqrt(k_out).  A constant channel of amplitude
    sqrt(bias_power) is appended when ``bias_power`` is given, modelling
    the bias light fed straight into the readout.

    Off the input grid, the input is resampled onto the simulation grid
    once, and the node signals are resampled back straight into the
    returned C-ordered matrix; both passes give the bytes of per-channel
    ``np.interp``.

    The block recursion (``_advance``) adds each block's arrivals in
    place with one zgemm per block and delay in a node-wide buffer, and a
    one-row block with ``@`` and an add; every product gives the bytes of
    a node-wide ``@``.  On the input grid with a bias line the recursion
    runs in the head of the returned matrix's memory, node wide, and its
    rows are then spread out to the ``F + 1`` stride, so no second
    ``N x F`` matrix is held beside the result.

    This is ``simulate_each`` with one topology.
    """
    [states] = simulate_each([topology], signal, bias_power)
    return states


def simulate_each(
    topologies: Iterable[ReservoirTopology],
    signal: OpticalSignal,
    bias_power: float | None = None,
) -> Iterator[StateMatrix]:
    """``simulate`` of one input through each of several reservoirs with identical edge delays.

    Yields one ``StateMatrix`` per topology, in order, each with the bytes
    of ``simulate(topology, signal, bias_power)``.  Equal delays give the
    topologies, phase-perturbed copies of one chip for instance, one
    simulation grid, so the grid, the input resampled onto it and the
    bracket search of the back-resampling are computed once, and a delay
    off the grid is warned about once.  Each topology's transfers and
    recursion run when its matrix is asked for, and the iterator keeps no
    reference to a matrix it has yielded: a caller that drops each one
    before asking for the next holds one at a time.

    Every argument is checked before the first topology is simulated:
    topologies whose edge delays differ, in edge order, raise
    ``ValueError``, as does any input that ``simulate`` rejects.
    """
    topologies = tuple(topologies)
    delays = [e.delay for e in topologies[0].edges] if topologies else []
    for topology in topologies:
        if not topology.input_ports:
            raise ValueError("topology has no input ports")
        if [e.delay for e in topology.edges] != delays:
            raise ValueError("simulate_each needs topologies with identical edge delays")
    if not topologies:
        return iter(())
    if bias_power is not None and not bias_power > 0:
        raise ValueError("bias_power must be positive when the bias line is enabled")
    if len(signal) == 0:
        raise ValueError("input signal is empty")
    return _simulate_each(topologies, signal, bias_power)


def _simulate_each(
    topologies: tuple[ReservoirTopology, ...],
    signal: OpticalSignal,
    bias_power: float | None,
) -> Iterator[StateMatrix]:
    """The generator behind ``simulate_each``, on checked arguments."""
    n_in, period = len(signal), signal.sample_period
    step, delay_steps = _simulation_step(topologies[0], period)
    if abs(step - period) <= 1e-9 * period:
        n_sim, back = n_in, None
        drive = signal.samples
    else:
        # cover the final input sample time so the back-resampling never
        # extrapolates
        n_sim = int(math.ceil((n_in - 1) * period / step - 1e-9)) + 1
        t_in = np.arange(n_in) * period
        t_sim = np.arange(n_sim) * step
        resampled = np.empty((n_sim, 1), dtype=np.complex128)
        _resample_into(resampled, t_sim, t_in, signal.samples.reshape(n_in, 1), _bracket(t_sim, t_in))
        drive = resampled[:, 0]
        back = (t_in, t_sim, _bracket(t_in, t_sim))
    for topology in topologies:
        yield _propagate(topology, drive, delay_steps, n_sim, back, bias_power, period)


def _propagate(
    topology: ReservoirTopology,
    drive: np.ndarray,
    delay_steps: np.ndarray,
    n_sim: int,
    back: tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]] | None,
    bias_power: float | None,
    period: float,
) -> StateMatrix:
    """One topology's states from ``drive``, the input on the simulation grid.

    ``back`` holds the input grid, the simulation grid and the bracket to
    resample the node signals back onto the former, or ``None`` on the
    input grid.

    ``_advance`` runs in a node-wide buffer in every layout.  On the input
    grid with a bias line that buffer is the head of the flat memory of
    the returned ``F + 1`` wide matrix, and its rows are spread out to
    that stride afterwards, ``_SPREAD_ROWS`` at a time: a node-wide
    buffer copied into a fresh matrix would hold a second ``N x F``
    matrix beside the result.
    """
    n_nodes = topology.n_nodes
    k_in = topology.in_degree().astype(np.float64)
    k_out = topology.out_degree().astype(np.float64)
    for p in topology.input_ports:
        k_in[p.node] += 1.0
    combine = 1.0 / np.sqrt(np.maximum(k_in, 1.0))

    # Edge transfer gains including splitter and combiner factors, summed
    # into one transfer matrix per distinct delay (in steps).
    transfers: dict[int, np.ndarray] = {}
    for e, d in zip(topology.edges, delay_steps):
        gain = 10.0 ** (-e.loss_db / 20.0) * np.exp(1j * e.phase) / np.sqrt(k_out[e.src]) * combine[e.dst]
        transfer = transfers.setdefault(int(d), np.zeros((n_nodes, n_nodes), dtype=np.complex128))
        transfer[e.src, e.dst] += gain
    pad = max(transfers, default=0)

    # Row pad + n holds time step n; the leading pad rows are the dark past.
    # The injection term, already divided by the combiner factor of its
    # node, is written first and the delayed edge arrivals are added to it.
    # On the input grid with a bias line the returned matrix is the rows of
    # an F + 1 wide buffer past the dark past; the recursion runs node wide
    # in its head and is then spread out to that stride.
    n_rows = pad + n_sim
    spread = back is None and bias_power is not None
    flat = np.zeros(n_rows * (n_nodes + spread), dtype=np.complex128)
    buf = flat[: n_rows * n_nodes].reshape(n_rows, n_nodes)
    for port in topology.input_ports:
        buf[pad:, port.node] += drive * np.exp(1j * port.phase) * combine[port.node]

    _advance(buf, pad, transfers)

    # The node columns and the bias line form one C-ordered matrix: the
    # buffer itself on the input grid, or resampled straight back onto it.
    bias = None if bias_power is None else n_nodes
    n_cols = n_nodes if bias is None else n_nodes + 1
    if back is None:
        full = flat.reshape(n_rows, n_cols)
        if spread:
            # A row's destination never lies below its source, so the
            # chunks go last first: the chunks spread before one wrote only
            # past the rows it reads.  numpy buffers the overlap inside it.
            for start in reversed(range(0, n_rows, _SPREAD_ROWS)):
                rows = slice(start, start + _SPREAD_ROWS)
                full[rows, :n_nodes] = buf[rows]
        out = full[pad:]
    else:
        t_in, t_sim, bracket = back
        out = np.empty((len(t_in), n_cols), dtype=np.complex128)
        _resample_into(out[:, :n_nodes], t_in, t_sim, buf[pad:], bracket)
    if bias is not None:
        out[:, bias] = np.sqrt(bias_power)
    return StateMatrix(out, period, bias)


# ---------------------------------------------------------------------------
# Topology file format: plain text, one record per line.
#   nodes <count>
#   edge <src> <dst> <delay_s> <loss_db> <phase_rad>
#   input <node> <phase_rad>


def save_topology(topology: ReservoirTopology, path: str | Path) -> None:
    lines = ["# photonic delay-line network topology", f"nodes {topology.n_nodes}"]
    for e in topology.edges:
        lines.append(f"edge {e.src} {e.dst} {e.delay!r} {e.loss_db!r} {e.phase!r}")
    for p in topology.input_ports:
        lines.append(f"input {p.node} {p.phase!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_topology(path: str | Path) -> ReservoirTopology:
    path = Path(path)
    n_nodes = None
    edges: list[Edge] = []
    ports: list[InputPort] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "nodes":
                n_nodes = int(fields[1])
            elif kind == "edge":
                edges.append(
                    Edge(int(fields[1]), int(fields[2]), float(fields[3]), float(fields[4]), float(fields[5]))
                )
            elif kind == "input":
                ports.append(InputPort(int(fields[1]), float(fields[2])))
            else:
                raise ValueError(f"unknown record {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: bad topology record {raw!r}") from exc
    if n_nodes is None:
        raise ValueError(f"{path}: missing 'nodes' record")
    return ReservoirTopology(n_nodes, tuple(edges), tuple(ports))
