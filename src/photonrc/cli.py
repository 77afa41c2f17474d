"""Command-line interface for the experiment harness."""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ALL_3BIT_HEADERS, TRAINERS, ExperimentConfig, load_config, profile_by_name
from .harness import (
    _study_header,
    run_bitrate_sweep,
    run_convergence,
    run_perturbation,
)
from .reservoir import load_topology
from .stateest import build_probe_schedule


# Flags that overlay one configuration key, offered only by the commands that read it.
_OVERLAYS = {
    "--trainer": dict(nargs="+", choices=TRAINERS, help="trainers to run"),
    "--bitrates": dict(help="comma-separated bitrates in Gbps, e.g. 5,10,15"),
    "--header": dict(help="header bit pattern, e.g. 101"),
    "--seeds": dict(type=int, help="number of reservoir instances"),
}


def _add_common(parser: argparse.ArgumentParser, *overlays: str) -> None:
    """The flags of every command, with the ``overlays`` of :data:`_OVERLAYS` it reads."""
    parser.add_argument("--profile", choices=("paper", "ci"), default="paper",
                        help="base configuration scale (default: paper)")
    parser.add_argument("--config", type=Path, default=None,
                        help="YAML file overlaying the profile")
    for flag in overlays:
        parser.add_argument(flag, **_OVERLAYS[flag])
    parser.add_argument("--noise", choices=("on", "off"), default=None,
                        help="force detector noise on or off")
    parser.add_argument("--master-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=Path("results"),
                        help="output directory (default: results/)")
    parser.add_argument("--quiet", action="store_true")
    # an overlay the command does not offer leaves its key as configured
    parser.set_defaults(parser=parser, trainer=None, bitrates=None, header=None, seeds=None)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _instance_index(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a whole number of at least 0, got {text!r}")
    return value


def _check_topology_file(cfg: ExperimentConfig) -> None:
    """Load ``reservoir.topology_file``, if set, so that a missing or malformed file raises ``ValueError``."""
    path = cfg.reservoir.topology_file
    if not path:
        return
    try:
        load_topology(path)
    except OSError as exc:
        raise ValueError(f"reservoir.topology_file {path!r} cannot be read: {exc.strerror}") from None
    except ValueError as exc:
        raise ValueError(f"reservoir.topology_file {path!r}: {exc}") from None


def _resolve_config(args: argparse.Namespace, *checks) -> ExperimentConfig:
    """The profile with the YAML overlay and the flags applied.

    A configuration that the checks of its construction, the topology file
    check, or the command's own ``checks`` (each called with it), reject
    ends the command as an argparse error, with its message and exit
    status 2.
    """
    try:
        cfg = profile_by_name(args.profile)
        if args.config is not None:
            cfg = load_config(args.config, base=cfg)
        if args.trainer is not None:
            cfg = replace(cfg, trainers=tuple(args.trainer))
        if args.bitrates is not None:
            rates = tuple(float(v) for v in args.bitrates.split(",") if v.strip())
            cfg = replace(cfg, bitrates_gbps=rates)
        if args.header is not None:
            cfg = replace(cfg, headers=(args.header,))
        if args.seeds is not None:
            cfg = replace(cfg, n_reservoirs=args.seeds)
        if args.noise is not None:
            cfg = replace(cfg, detector=replace(cfg.detector, noise_enabled=args.noise == "on"))
        if args.master_seed is not None:
            cfg = replace(cfg, master_seed=args.master_seed)
        for check in (_check_topology_file, *checks):
            check(cfg)
    except ValueError as exc:
        args.parser.error(str(exc))
    return cfg


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    records, summary = run_bitrate_sweep(cfg, out_dir=args.out)
    for s in summary:
        print(
            f"{s.bitrate_gbps:g} Gbps {s.header} {s.trainer}: "
            f"geo-mean test BER {s.geo_mean_test_ber:.3g} over {s.n_instances} instances"
        )
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_headers(args: argparse.Namespace) -> int:
    profile_headers = profile_by_name(args.profile).headers

    def profile_headers_only(cfg: ExperimentConfig) -> None:
        # the command trains all eight headers: configured ones would be replaced in silence
        if cfg.headers != profile_headers:
            raise ValueError(
                f"headers is set by this command to the eight 3-bit headers, "
                f"got headers {', '.join(cfg.headers)} from the configuration"
            )

    cfg = replace(_resolve_config(args, profile_headers_only), headers=ALL_3BIT_HEADERS)
    records, summary = run_bitrate_sweep(cfg, out_dir=args.out)
    print(f"wrote {len(records)} records ({len(summary)} summary rows) to {args.out}")
    return 0


def _cmd_perturb(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args, _study_header)
    rows = run_perturbation(cfg, out_dir=args.out)
    for row in rows:
        print(f"b = {row.b_over_pi:.2f} pi: mean BER {row.mean_ber:.3g} ({row.n_evaluations} evals)")
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args, _study_header)
    rows = run_convergence(cfg, out_dir=args.out)
    last = rows[-1]
    print(
        f"{last.iteration} iterations, {last.presentations} presentations, "
        f"final best BER {last.best_ber:.3g}"
    )
    return 0


# Sample rows per write of ``probe-dump``'s estimated_states.csv.
_DUMP_ROWS = 4096


def _cmd_probe_dump(args: argparse.Namespace) -> int:
    """Export the probe schedule and the states of one cell's ``nlinv`` round."""
    # deliberate: the diagnostic reruns the harness's own cell and nlinv round
    from .harness import _nlinv_round, _prepare_cell

    cfg = _resolve_config(args)
    bitrate = args.bitrate if args.bitrate is not None else cfg.bitrates_gbps[0]
    estimated = _nlinv_round(cfg, _prepare_cell(cfg, bitrate, args.instance))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    probes = build_probe_schedule(estimated.n_channels, estimated.bias_index)
    probe_lines = ["probe,kind,channels,weights"]
    for i, w in enumerate(probes.T):
        nz = np.nonzero(w)[0]
        kind = "modulus" if nz.size == 1 else "quad" if w.imag.any() else "pair"
        weights = ";".join(f"{w[j].real:g}{w[j].imag:+g}j" for j in nz)
        probe_lines.append(f"{i},{kind},{';'.join(str(int(j)) for j in nz)},{weights}")
    (out / "probes.csv").write_text("\n".join(probe_lines) + "\n")

    # One format call per sample row: fields 1..F are the real parts, then
    # the imaginary parts, each as Python floats so the text is repr(float).
    # The rows go out _DUMP_ROWS at a time, so only that many are ever
    # Python floats: the whole matrix as lists peaked at 540 MB RSS at
    # paper length and 10 Gbps.
    samples = estimated.samples
    f = estimated.n_channels
    row = "".join(f"{{0}},{ch},{{{1 + ch}!r}},{{{1 + f + ch}!r}}\n" for ch in range(f))
    with open(out / "estimated_states.csv", "w") as fh:
        fh.write("n,channel,re,im\n")
        for start in range(0, samples.shape[0], _DUMP_ROWS):
            chunk = samples[start : start + _DUMP_ROWS]
            re, im = chunk.real.tolist(), chunk.imag.tolist()
            fh.writelines(row.format(n, *r, *i) for n, (r, i) in enumerate(zip(re, im), start))
    print(f"dumped {probes.shape[1]} probes and {estimated.samples.shape} states to {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="photonrc",
        description="Bit-error-rate studies of passive photonic reservoirs with optical readout",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="BER versus bitrate for the configured trainers")
    _add_common(p, "--trainer", "--bitrates", "--header", "--seeds")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("headers", help="sweep over all eight 3-bit headers")
    _add_common(p, "--trainer", "--bitrates", "--seeds")
    p.set_defaults(func=_cmd_headers)

    p = sub.add_parser("perturb", help="phase-perturbation robustness of frozen ridge weights")
    _add_common(p, "--header", "--seeds")
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("converge", help="per-iteration error rate of black-box training")
    _add_common(p, "--header")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("probe-dump", help="export probe schedule and reconstructed states")
    _add_common(p)
    p.add_argument("--bitrate", type=_positive_float, default=None, help="bitrate in Gbps")
    p.add_argument("--instance", type=_instance_index, default=0,
                   help="reservoir instance index (default: 0)")
    p.set_defaults(func=_cmd_probe_dump)

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING if args.quiet else logging.INFO, format="%(message)s")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
