"""Command-line interface.

Subcommands:

    sweep          run a t-grid sweep and write CSV or JSON records
    estimate       print the switching-estimate table for a model
    schedule-dump  write (s, value, deriv1) samples of a pulse family
    check          run the acceptance suite

sweep and estimate take every key of ``config.PARSERS`` as a flag, spelled
out in full, and read one ``SweepConfig``.  estimate prints what
``sweep.estimates`` computes for it, the numbers a JSON report holds; it
computes everything before it prints, so a numerical failure leaves no
partial table.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.  An
output or cache that cannot be opened or written (an ``OSError``) is a
configuration error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import acceptance
from .config import (
    KNOWN_KEYS,
    PARSERS,
    ConfigError,
    merge_settings,
    parse_config_file,
    sweep_config_from_settings,
)
from .evolution import EvolutionFailure
from .hamiltonians import MODELS, ModelSpec
from .hamiltonians import build  # uncalled here, kept for the benchmark tracer that patches it
from .metrics import DegenerateGapError
from .metrics import reference_scaling_estimate, switching_estimate  # likewise uncalled here
from .schedules import PREFACTOR_MODES, ExponentialPulse, Parabola, PowerRamp, rational_pulse
from .sweep import cache_path, emit_csv, emit_json, estimates, load_or_run, write_output

DEFAULT_CACHE_DIR = ".adiasweep-cache"


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as configuration errors (exit 1, not argparse's 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


# Every settings key is a flag of sweep and estimate, spelled --<key> with - for
# _ except for the grid keys below.  The flags take no type= or choices=: their
# strings go through the parsers of config-file values (config.PARSERS).
# schedule-dump and check read no settings, so argparse types their flags.
_FLAG_SPELLINGS = {"t_min": "--tmin", "t_max": "--tmax", "points_per_decade": "--ppd"}


def _add_settings_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    for key, parse in PARSERS.items():
        flag = _FLAG_SPELLINGS.get(key, "--" + key.replace("_", "-"))
        if key == "no_cache":
            parser.add_argument(flag, dest=key, action="store_true", default=None)
        else:
            names = getattr(parse, "names", None)
            parser.add_argument(flag, dest=key, help=names and " | ".join(names))


# Built once per process: the tree depends only on module constants, and
# parse_args returns a fresh Namespace on every call.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="adiasweep",
        description="Adiabatic state-preparation error scaling: sweeps and estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # No abbreviations: each key has exactly one spelling, and a new key
    # cannot turn a working prefix into an ambiguous one.
    for name, help_text in (
        ("sweep", "run a total-time sweep"),
        ("estimate", "print the switching-estimate table"),
    ):
        _add_settings_flags(sub.add_parser(name, help=help_text, allow_abbrev=False))

    dump = sub.add_parser("schedule-dump", help="write (s, value, deriv1) samples")
    dump.add_argument(
        "--family",
        choices=("parabola", "rational", "exponential", "ramp"),
        default="rational",
    )
    dump.add_argument("--k", type=float, default=1e-3)
    dump.add_argument("--n", type=int, default=ModelSpec.order)
    dump.add_argument("--prefactor", choices=PREFACTOR_MODES, default=ModelSpec.prefactor)
    dump.add_argument("--points", type=int, default=501)
    dump.add_argument("--out", default="schedule.csv")

    check = sub.add_parser("check", help="run the acceptance suite")
    check.add_argument("--only", help="comma-separated criterion numbers (default all)")
    check.add_argument("--cache-dir", dest="cache_dir", default=DEFAULT_CACHE_DIR)
    check.add_argument("--no-cache", action="store_true")

    return parser


def _settings(args: argparse.Namespace) -> dict:
    file_values = parse_config_file(args.config) if args.config else {}
    return merge_settings(file_values, {k: v for k, v in vars(args).items() if k in KNOWN_KEYS})


def _check_paths(out_path: str | None, cache_dir: str | None) -> None:
    """Refuses an output file or cache directory that could not be written, before any work.

    ``None`` skips that check.
    """
    # The file open() would write and its directory: a symlink is resolved,
    # as open() follows it (a symlinked directory above it is followed by
    # isdir already); "" and "dir/" name no file.  Nothing is created or
    # truncated here.
    if out_path is not None:
        target = os.path.realpath(out_path) if os.path.islink(out_path) else out_path
        if (
            not os.path.basename(out_path)
            or os.path.isdir(target)
            or not os.path.isdir(os.path.dirname(target) or os.curdir)
        ):
            via = "" if target == out_path else f" (it resolves to {target!r})"
            raise ConfigError(
                f"cannot write {out_path!r}{via}: not a file in an existing directory"
            )
    if cache_dir is None:
        return
    existing = os.path.abspath(cache_dir)
    while not os.path.exists(existing):  # where load_or_run's makedirs would start
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"cache directory {cache_dir!r}: {existing!r} is not a directory")


def _status_file(out_path: str):
    """Where the line reporting a write to ``out_path`` goes: stderr if it is stdout's own file.

    ``--out /dev/stdout > file`` writes the output through a second open of
    the file, at offset 0, and fd 1's offset stays at 0, so a status line on
    stdout would overwrite the output's head.  Any other output keeps the
    line on stdout.
    """
    try:
        out, own = os.stat(out_path), os.fstat(1)
    except OSError:
        return sys.stdout
    return sys.stderr if (out.st_dev, out.st_ino) == (own.st_dev, own.st_ino) else sys.stdout


def _cmd_sweep(args: argparse.Namespace) -> int:
    settings = _settings(args)
    cfg = sweep_config_from_settings(settings)
    out_path = settings.get("out", "sweep.csv")
    cache_dir = settings.get("cache_dir", DEFAULT_CACHE_DIR)
    use_cache = not settings.get("no_cache", False)
    _check_paths(out_path, cache_dir if use_cache else None)
    # Without the cache every request computes the estimates: once, for the
    # records and for a JSON report alike.
    est = None if use_cache else estimates(cfg)
    records = load_or_run(cfg, cache_dir, use_cache, est=est)
    if settings.get("format") != "json":
        emit_csv(records, out_path)
    elif use_cache:
        # The cache file is the JSON report, and load_or_run has just read or
        # written it; writers replace it atomically, so it is always whole.
        with open(cache_path(cfg, cache_dir), "rb") as fh:
            write_output(out_path, fh.read())
    else:
        emit_json(records, cfg, out_path, est=est)
    failed = [r for r in records if not r.ok]
    print(
        f"wrote {len(records)} records to {out_path} ({len(failed)} failed points)",
        file=_status_file(out_path),
    )
    if failed:
        print(f"numerical failure: T={failed[0].t:g}: {failed[0].error}", file=sys.stderr)
    return 2 if failed else 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    cfg = sweep_config_from_settings(_settings(args))
    spec, est = cfg.model, estimates(cfg)
    order = f" order={spec.order}" if "order" in MODELS[spec.model].reads else ""
    print(f"model={spec.model} k={spec.k:g}{order} energies={spec.energy_values()}")
    print(f"{'n':>3} {'b_n(start)':>14} {'b_n(end)':>14} {'b_n':>14}")
    for order in cfg.estimate_orders:
        b = est.own[order]
        print(
            f"{order:>3} {b.start_coefficient:>14.6e} {b.end_coefficient:>14.6e} "
            f"{b.coefficient:>14.6e}"
        )
    ref = est.reference
    if ref is not None:
        print(
            f"approximate order-{ref['error_order']} reference: "
            f"sqrt-prefactor {ref['sqrt_prefactor_coefficient']:.6e}, "
            f"substituted {ref['substituted_coefficient']:.6e} "
            f"(exact/substituted = {ref['exact_to_substituted_ratio']:.6f})"
        )
    return 0


def _cmd_schedule_dump(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.k) and args.k >= 0.0):
        raise ConfigError(f"--k must be finite and >= 0, got {args.k}")
    if args.points < 2:
        raise ConfigError("need at least 2 sample points")
    _check_paths(args.out, None)
    if args.family == "parabola" or args.k == 0.0:
        sched = Parabola()
    elif args.family == "rational":
        sched = rational_pulse(args.k, args.n, args.prefactor)
    elif args.family == "exponential":
        sched = ExponentialPulse(args.k)
    else:
        sched = PowerRamp(args.k, args.n)
    lines = ["s,value,deriv1"]
    for i in range(args.points):
        s = i / (args.points - 1)
        lines.append(f"{s!r},{sched.value(s)!r},{sched.taylor(s, 1)[1]!r}")
    write_output(args.out, ("\n".join(lines) + "\n").encode("utf-8"))
    print(f"wrote {args.points} samples to {args.out}", file=_status_file(args.out))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    numbers = None
    if args.only is not None:
        numbers = tuple(int(p) for p in args.only.split(",") if p.strip())
        if not numbers:
            raise ConfigError(f"--only {args.only!r} names no criterion")
        unknown = [n for n in numbers if n not in acceptance.CRITERIA]
        if unknown:
            raise ConfigError(f"unknown criterion numbers {unknown}")
    _check_paths(None, None if args.no_cache else args.cache_dir)
    results = acceptance.run_all(
        cache_dir=args.cache_dir, use_cache=not args.no_cache, numbers=numbers
    )
    return 0 if all(r.passed for r in results) else 2


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "sweep": _cmd_sweep,
        "estimate": _cmd_estimate,
        "schedule-dump": _cmd_schedule_dump,
        "check": _cmd_check,
    }
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except (EvolutionFailure, DegenerateGapError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
