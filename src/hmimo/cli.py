"""Benchmark command line.

Three subcommands mirror the three experiments: ``sweep-distance``,
``sweep-elements`` and ``point``.  Each accepts an optional JSON config
file plus flag overrides and exits with 0 on success, 2 on config
validation failure, 3 on degenerate geometry, 4 on I/O failure and 5 on
numerical failure (a channel matrix or spectrum that is not finite, or an
SVD that does not converge).
"""

from __future__ import annotations

import argparse
import os
import sys

from numpy.linalg import LinAlgError

from .errors import ConfigError, DegenerateGeometryError, NumericalError
from .green import MODEL_VARIANTS
from .sweep import (
    SweepSpec,
    _read_config,
    run_distance_sweep,
    run_element_sweep,
    run_single_point,
    spec_from_json_dict,
    write_rows,
)

_EXPERIMENT_OF = {
    "sweep-distance": "distance",
    "sweep-elements": "tx-elements",
    "point": "single-point",
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4
EXIT_NUMERICAL = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmimo-bench",
        description="Line-of-sight holographic MIMO channel-model benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="PATH", help="JSON sweep config file")
        p.add_argument("--output", dest="output_path", metavar="PATH",
                       help="output file, overrides output_path (default: stdout)")
        p.add_argument("--format", dest="output_format", choices=("csv", "json"),
                       help="output format, overrides output_format")
        p.add_argument(
            "--variants",
            type=lambda text: tuple(v.strip() for v in text.split(",") if v.strip()),
            metavar="LIST",
            help=f"comma-separated subset of {','.join(MODEL_VARIANTS)}, overrides variants",
        )
        p.add_argument("--snr-db", type=float, metavar="F",
                       help="transmit SNR in dB, overrides snr_db")

    for name, text in (("sweep-distance", "NMSE/capacity over a d0 grid"),
                       ("sweep-elements", "NMSE/capacity over TX element counts")):
        sweep = sub.add_parser(name, help=text)
        add_common(sweep)
        sweep.add_argument(
            "--workers", type=int, default=1, metavar="N",
            help="accepted for existing command lines (N >= 1, default 1); points run one "
                 "at a time whatever N is, since each point already keeps every core busy "
                 "through the BLAS threads")

    point = sub.add_parser("point", help="single (geometry, d0) evaluation")
    add_common(point)
    point.add_argument("--dump-singular-values", type=int, default=0, metavar="K",
                       help="also emit the top K singular values per variant")
    return parser


def _spec_from_args(args) -> SweepSpec:
    flag_violations = []
    if getattr(args, "workers", 1) < 1:
        flag_violations.append(f"--workers must be at least 1, got {args.workers}")
    if getattr(args, "dump_singular_values", 0) < 0:
        flag_violations.append(
            f"--dump-singular-values must not be negative, got {args.dump_singular_values}"
        )
    if flag_violations:
        raise ConfigError(flag_violations)
    experiment = _EXPERIMENT_OF[args.command]
    data = _read_config(args.config) if args.config else {}
    violations = []
    if isinstance(data, dict):  # spec_from_json_dict reports any other root
        # each override flag's dest is the SweepSpec key it sets
        fields = ("output_path", "output_format", "snr_db", "variants")
        data.update((f, getattr(args, f)) for f in fields if getattr(args, f) is not None)
        if data.get("experiment", experiment) != experiment:
            violations.append(f"config experiment {data['experiment']!r} does not match "
                              f"subcommand {args.command!r}")
    try:
        spec = spec_from_json_dict(data, experiment)
    except ConfigError as exc:
        violations += exc.violations
    if violations:
        raise ConfigError(violations)
    return spec


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _spec_from_args(args)
        # Fail before any point runs; the file itself is written only at the end.
        if spec.output_path and not os.path.isdir(os.path.dirname(spec.output_path) or "."):
            raise FileNotFoundError(f"the directory of {spec.output_path!r} does not exist")
        if spec.output_path and os.path.isdir(spec.output_path):
            raise IsADirectoryError(f"output path {spec.output_path!r} is a directory")
        if args.command == "sweep-distance":
            rows = run_distance_sweep(spec)
        elif args.command == "sweep-elements":
            rows = run_element_sweep(spec)
        else:
            rows = [run_single_point(spec, dump_singular_values=args.dump_singular_values)]
        write_rows(rows, spec)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateGeometryError as exc:
        print(f"degenerate geometry: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericalError, LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
