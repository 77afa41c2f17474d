"""Command-line interface for the experiment harness."""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config, profile_by_name
from .harness import (
    run_all_headers,
    run_bitrate_sweep,
    run_convergence,
    run_perturbation,
)
from .stateest import build_probe_schedule


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", choices=("paper", "ci"), default="paper",
                        help="base configuration scale (default: paper)")
    parser.add_argument("--config", type=Path, default=None,
                        help="YAML file overlaying the profile")
    parser.add_argument("--trainer", nargs="+", choices=("ridge", "cmaes", "nlinv"),
                        default=None, help="trainers to run")
    parser.add_argument("--bitrates", type=str, default=None,
                        help="comma-separated bitrates in Gbps, e.g. 5,10,15")
    parser.add_argument("--header", type=str, default=None, help="header bit pattern, e.g. 101")
    parser.add_argument("--seeds", type=int, default=None,
                        help="number of reservoir instances")
    parser.add_argument("--noise", choices=("on", "off"), default=None,
                        help="force detector noise on or off")
    parser.add_argument("--master-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=Path("results"),
                        help="output directory (default: results/)")
    parser.add_argument("--quiet", action="store_true")
    parser.set_defaults(parser=parser)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
    return value


def _instance_index(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a whole number of at least 0, got {text!r}")
    return value


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """The profile with the YAML overlay and the flags applied.

    A configuration the checks reject ends the command as an argparse
    error, with its message and exit status 2.
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
    cfg = _resolve_config(args)
    records, summary = run_all_headers(cfg, out_dir=args.out)
    print(f"wrote {len(records)} records ({len(summary)} summary rows) to {args.out}")
    return 0


def _cmd_perturb(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    rows = run_perturbation(cfg, out_dir=args.out)
    for row in rows:
        print(f"b = {row.b_over_pi:.2f} pi: mean BER {row.mean_ber:.3g} ({row.n_evaluations} evals)")
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    rows = run_convergence(cfg, out_dir=args.out)
    last = rows[-1]
    print(
        f"{last.iteration} iterations, {last.presentations} presentations, "
        f"final best BER {last.best_ber:.3g}"
    )
    return 0


def _cmd_probe_dump(args: argparse.Namespace) -> int:
    """Export the probe schedule and the states of one cell's ``nlinv`` round."""
    # deliberate: the diagnostic reruns the harness's own cell and nlinv round
    from .harness import _nlinv_round, _prepare_cell, _targets

    cfg = _resolve_config(args)
    bitrate = args.bitrate if args.bitrate is not None else cfg.bitrates_gbps[0]
    header = cfg.headers[0]
    cell = _prepare_cell(cfg, bitrate, args.instance)
    d_train, _ = _targets(cfg, cell, header)
    estimated = _nlinv_round(cfg, cell, d_train).estimated
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    schedule = build_probe_schedule(estimated.n_channels, estimated.bias_index)
    probe_lines = ["probe,kind,channels,weights"]
    for i, (w, kind) in enumerate(zip(schedule.weights, schedule.kinds)):
        nz = np.nonzero(w)[0]
        weights = ";".join(f"{w[j].real:g}{w[j].imag:+g}j" for j in nz)
        probe_lines.append(f"{i},{kind[0]},{';'.join(str(int(j)) for j in nz)},{weights}")
    (out / "probes.csv").write_text("\n".join(probe_lines) + "\n")

    # One format call per sample row: fields 1..F are the real parts, then
    # the imaginary parts, each as Python floats so the text is repr(float).
    f = estimated.n_channels
    row = "".join(f"{{0}},{ch},{{{1 + ch}!r}},{{{1 + f + ch}!r}}\n" for ch in range(f))
    re, im = estimated.samples.real.tolist(), estimated.samples.imag.tolist()
    with open(out / "estimated_states.csv", "w") as fh:
        fh.write("n,channel,re,im\n")
        fh.writelines(row.format(n, *r, *i) for n, (r, i) in enumerate(zip(re, im)))
    print(f"dumped {len(schedule)} probes and {estimated.samples.shape} states to {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="photonrc",
        description="Bit-error-rate studies of passive photonic reservoirs with optical readout",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="BER versus bitrate for the configured trainers")
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("headers", help="sweep over all eight 3-bit headers")
    _add_common(p)
    p.set_defaults(func=_cmd_headers)

    p = sub.add_parser("perturb", help="phase-perturbation robustness of frozen ridge weights")
    _add_common(p)
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("converge", help="per-iteration error rate of black-box training")
    _add_common(p)
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
