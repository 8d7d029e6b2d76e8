"""Command line interface.

    stssc-sim run --scheme stssc --code alamouti --snr 0:2:30 -o out.csv
    stssc-sim compare stssc.csv afost.csv -o table.csv
    stssc-sim dump-design c34

Exit codes: 0 ok, 1 configuration error, 2 I/O error, 3 any other error
(for example one raised in a worker process).  An interrupted run (Ctrl-C)
ends by KeyboardInterrupt, which a shell reports as status 130, and leaves
no CSV, no .tmp file and no worker process.
"""

import argparse
import dataclasses
import math
import sys

from .batch import SCHEMES
from .channel import FADING_MODELS
from .designs import DESIGN_NAMES, build_design, format_design
from .errors import ConfigurationError
from .harness import SimConfig, emit_csv, compare_runs, run_sweep
from .modem import CONSTELLATION_NAMES, KAPPA_MODES

# Most points an 'a:step:b' range may hold.  Each point is a whole Monte Carlo
# run (the paper's sweep has 16), so a longer range is a mistyped step, yet this
# many still parse in milliseconds.  The cap also ends a range whose step is
# too small to move its float at all.
MAX_SNR_POINTS = 100_000


def _parse_snr(text: str) -> tuple:
    """Accept 'a:step:b' (inclusive) or a comma-separated list."""
    try:
        if ":" in text:
            a, step, b = (float(x) for x in text.split(":"))
            if not all(map(math.isfinite, (a, step, b))):
                raise ValueError("start, step and stop must be finite")
            if step <= 0:
                raise ValueError("step must be positive")
            out = []
            v = a
            while v <= b + 1e-9:
                if len(out) == MAX_SNR_POINTS:
                    raise ValueError(f"a range may hold at most {MAX_SNR_POINTS} points")
                out.append(round(v, 10))
                v += step
            return tuple(out)
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"bad --snr value {text!r}: {exc}") from None


def _read_config_file(path: str) -> dict:
    """key=value lines, values kept as strings (# comments skipped); a bad value names file:line."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            try:
                _coerce(key, value)
            except (ValueError, ConfigurationError) as exc:
                raise ConfigurationError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
            out[key] = value
    return out


_INT_KEYS = {"sources", "relays", "packets", "packet_bits", "seed", "workers",
             "phases_override"}
_BOOL_KEYS = {"noiseless", "stderr"}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _coerce(key: str, value: str):
    if key in _INT_KEYS:
        return int(value)
    if key in _BOOL_KEYS:
        if value.lower() not in _BOOL_WORDS:
            raise ValueError(f"expected one of {'/'.join(_BOOL_WORDS)}, got {value!r}")
        return _BOOL_WORDS[value.lower()]
    if key == "snr":
        return _parse_snr(value)
    return value


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors (exit 1), not usage exits."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stssc-sim")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a Monte Carlo SNR sweep")
    run.add_argument("--scheme", choices=SCHEMES)
    run.add_argument("--code", choices=DESIGN_NAMES)
    run.add_argument("--sources", type=int)
    run.add_argument("--relays", type=int)
    run.add_argument("--mod", choices=CONSTELLATION_NAMES)
    run.add_argument("--fading", choices=FADING_MODELS)
    run.add_argument("--normalization", choices=KAPPA_MODES)
    run.add_argument("--snr", help="a:step:b or comma list of dB values")
    run.add_argument("--packets", type=int)
    run.add_argument("--packet-bits", type=int, dest="packet_bits")
    run.add_argument("--seed", type=int)
    run.add_argument("--workers", type=int)
    run.add_argument("--noiseless", action="store_true", default=None)
    run.add_argument("--phases-override", type=int, dest="phases_override",
                     help="charge this many slots per block instead of the scheme rule")
    run.add_argument("--stderr", action="store_true", default=None,
                     help="append standard-error columns")
    run.add_argument("--config", help="key=value config file; flags override")
    run.add_argument("-o", "--output", required=True)

    cmp_ = sub.add_parser("compare", help="overlay run CSVs into one plot-data table")
    cmp_.add_argument("inputs", nargs="+")
    cmp_.add_argument("-o", "--output", required=True)

    dump = sub.add_parser("dump-design", help="print a code's dispersion matrices")
    dump.add_argument("name")
    return parser


# run options: SimConfig's fields (snr_db_list is spelled "snr") and the CLI-only stderr
_DEFAULTS = {
    ("snr" if f.name == "snr_db_list" else f.name): f.default
    for f in dataclasses.fields(SimConfig)
}
_DEFAULTS["stderr"] = False


def _merge_run_options(args: argparse.Namespace) -> dict:
    opts = dict(_DEFAULTS)
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            if key not in opts:
                raise ConfigurationError(f"unknown config key {key!r}")
            opts[key] = _coerce(key, raw)
    for key in opts:
        value = getattr(args, key, None)
        if value is not None:
            opts[key] = _parse_snr(value) if key == "snr" else value
    return opts


def _cmd_run(args) -> int:
    opts = _merge_run_options(args)
    stderr = opts.pop("stderr")
    opts["snr_db_list"] = tuple(opts.pop("snr"))
    config = SimConfig(**opts)
    records = run_sweep(config)
    emit_csv(records, args.output, extra_stderr=stderr)
    for rec in records:
        print(f"snr={rec.snr_db:6.2f} dB  ber={rec.ber:.3e}  per={rec.per:.3e}  "
              f"throughput={rec.throughput_bps / 1e6:.3f} Mb/s")
    return 0


def _cmd_compare(args) -> int:
    compare_runs(args.inputs, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_dump_design(args) -> int:
    print(format_design(build_design(args.name)))
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_dump_design(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
