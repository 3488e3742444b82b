"""Command-line interface.

Subcommands:

* ``simulate``      one trial, per-step detection records as CSV
* ``roc``           ROC data for a scenario as CSV
* ``sweep-snr``     detection rate versus SNR as CSV
* ``sweep-doppler`` detection rate versus normalized Doppler as CSV
* ``selftest``      run the acceptance property suite

Every subcommand but ``selftest`` accepts ``--config FILE`` plus
overrides: any configuration key can be forced with ``--set key=value``,
and each undotted key is also a flag, with hyphens for underscores.
Exit codes: 0 success, 2 usage or configuration error (including too few
steps to calibrate a detector), 3 numerical failure, 4 I/O failure
(selftest returns 1 when a criterion fails).
"""

from __future__ import annotations

import argparse
import re
import sys

from .config import (
    CONFIG_KEYS,
    ScenarioConfig,
    config_from_mapping,
    parse_config_text,
)
from .errors import CalibrationError, ConfigError, NumericalError
from .harness import (
    RocResult,
    derive_trial_seed,
    roc_points,
    run_batch,
    sweep,
    trial_records,
    write_csv,
)

_FLAG_KEYS = [key for key in CONFIG_KEYS if "." not in key]


def _add_common(parser: argparse.ArgumentParser, default_out: str | None) -> None:
    parser.add_argument("--config", help="configuration file (key = value lines)")
    for key in _FLAG_KEYS:
        parser.add_argument("--" + key.replace("_", "-"), dest=key, metavar="VALUE",
                            help=f"same as --set {key}=VALUE")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override any configuration key")
    if default_out is not None:
        parser.add_argument("--out", default=default_out, help="output CSV path")


def _build_config(args: argparse.Namespace) -> ScenarioConfig:
    cfg = ScenarioConfig()
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise OSError(f"cannot read config {args.config}: {exc}") from exc
        cfg = config_from_mapping(parse_config_text(text), cfg)
    overrides: dict[str, str] = {}
    for key in _FLAG_KEYS:
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return config_from_mapping(overrides, cfg)


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    if args.trial_index < 0:
        raise ConfigError(f"--trial-index must be >= 0, got {args.trial_index}")
    seed = derive_trial_seed(cfg.seed, args.trial_index)
    rows = trial_records(cfg, seed)
    write_csv(rows, args.out, cfg)
    print(f"wrote {len(rows)} records to {args.out}")
    return 0


def _cmd_roc(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    if args.num_points < 2:
        raise ConfigError(f"--num-points must be >= 2, got {args.num_points}")
    seeds = [derive_trial_seed(cfg.seed, i) for i in range(cfg.num_trials)]
    batch = run_batch(cfg, seeds)
    points = []
    for det in cfg.detectors:
        stat = batch.statistic(det)[:, batch.test_slice, :]
        h0, h1 = stat[:, :, 0].ravel(), stat[:, :, 1].ravel()
        for thr, fa, dr in roc_points(h0, h1, args.num_points):
            points.append((det, thr, fa, dr))
    write_csv(RocResult(points=points), args.out, cfg)
    print(f"wrote {len(points)} ROC points to {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace, axis: str) -> int:
    cfg = _build_config(args)
    try:
        values = sorted(float(v) for v in args.values.split(","))
    except ValueError as exc:
        raise ConfigError(f"--values: {exc}") from exc
    result = sweep(cfg, axis, values)
    write_csv(result, args.out, cfg)
    print(f"wrote {len(result.points)} sweep rows to {args.out}")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from . import acceptance

    numbers = None
    if args.criteria:
        try:
            numbers = [int(n) for n in args.criteria.split(",")]
        except ValueError as exc:
            raise ConfigError(
                f"--criteria expects comma-separated criterion numbers, got {args.criteria!r}"
            ) from exc
    results = acceptance.run_all(numbers)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csiguard",
        description="Spoofing detection over simulated OFDM channel state information",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one trial and dump per-step records")
    _add_common(p, "records.csv")
    p.add_argument("--trial-index", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("roc", help="ROC curve data for one scenario")
    _add_common(p, "roc.csv")
    p.add_argument("--num-points", type=int, default=101)
    p.set_defaults(func=_cmd_roc)

    p = sub.add_parser("sweep-snr", help="detection rate versus SNR")
    _add_common(p, "sweep_snr.csv")
    p.add_argument("--values", default="0,5,10,15", help="comma-separated dB values")
    p.set_defaults(func=lambda a: _cmd_sweep(a, "snr_db"))

    p = sub.add_parser("sweep-doppler", help="detection rate versus normalized Doppler")
    _add_common(p, "sweep_doppler.csv")
    p.add_argument(
        "--values", default="1e-5,3e-5,1e-4,3e-4,1e-3", help="comma-separated fd*Ts values"
    )
    p.set_defaults(func=lambda a: _cmd_sweep(a, "normalized_doppler"))

    p = sub.add_parser("selftest", help="run the acceptance property suite")
    p.add_argument("--criteria", help="comma-separated criterion numbers (default: all)")
    p.set_defaults(func=_cmd_selftest)

    return parser


def cli_main(argv) -> int:
    parser = build_parser()
    argv = list(argv)
    # argparse reads a value such as "-5,0,5" or "-1e-4" as an option; join it to its flag.
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1].startswith("--") and "=" not in argv[i - 1] and re.match(r"-[\d.]", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ConfigError, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
