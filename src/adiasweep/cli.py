"""Command-line interface.

Subcommands:

    sweep          run a t-grid sweep and write CSV or JSON records
    estimate       print the switching-estimate table for a model
    schedule-dump  write (s, value, deriv1) samples of a pulse family
    check          run the acceptance suite

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import shutil
import sys

from . import acceptance
from .config import (
    KNOWN_KEYS,
    OUTPUT_FORMATS,
    ConfigError,
    merge_settings,
    model_spec_from_settings,
    parse_config_file,
    sweep_config_from_settings,
)
from .evolution import EvolutionFailure
from .hamiltonians import MODEL_NAMES, ModelSpec, build
from .metrics import REDUCTIONS, DegenerateGapError, reference_scaling_estimate, switching_estimate
from .schedules import PREFACTOR_MODES, ExponentialPulse, Parabola, PowerRamp, rational_pulse
from .sweep import (
    SweepConfig,
    cache_path,
    emit_csv,
    emit_json,
    has_reference_shortcut,
    load_or_run,
)

DEFAULT_CACHE_DIR = ".adiasweep-cache"


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as configuration errors (exit 1, not argparse's 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


# The sweep and estimate flags whose dest is a settings key take no type= or
# choices=: their strings go through the parsers of config-file values
# (config.PARSERS).  schedule-dump reads no settings, so argparse types its flags.
def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", help=" | ".join(MODEL_NAMES))
    parser.add_argument("--k", help="endpoint smoothing scale")
    for name in ("k1", "k2", "k3"):
        parser.add_argument(f"--{name}", help="per-coupling smoothing override")
    parser.add_argument("--n", help="smoothing order")
    for name in ("E0", "E1", "E2", "E3"):
        parser.add_argument(f"--{name}", help=f"energy parameter {name}")
    parser.add_argument("--prefactor", help=" | ".join(PREFACTOR_MODES))


# Built once per process: the tree depends only on module constants, and
# parse_args returns a fresh Namespace on every call.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="adiasweep",
        description="Adiabatic state-preparation error scaling: sweeps and estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a total-time sweep")
    sweep.add_argument("--config", help="flat key=value config file")
    _add_model_flags(sweep)
    sweep.add_argument("--tmin", dest="t_min")
    sweep.add_argument("--tmax", dest="t_max")
    sweep.add_argument("--ppd", dest="points_per_decade", help="grid points per decade")
    sweep.add_argument("--tau0", help="averaging window scale")
    sweep.add_argument("--samples", help="window samples per grid point")
    sweep.add_argument("--reduction", help=" | ".join(REDUCTIONS))
    sweep.add_argument("--rtol")
    sweep.add_argument("--atol")
    sweep.add_argument("--s-start", dest="s_start")
    sweep.add_argument("--s-end", dest="s_end")
    sweep.add_argument("--workers")
    sweep.add_argument("--out", help="output file path (default sweep.csv)")
    sweep.add_argument("--format", help=" | ".join(OUTPUT_FORMATS) + " (default csv)")
    sweep.add_argument("--cache-dir", dest="cache_dir")
    sweep.add_argument("--no-cache", action="store_true", default=None, dest="no_cache")

    est = sub.add_parser("estimate", help="print the switching-estimate table")
    est.add_argument("--config", help="flat key=value config file")
    _add_model_flags(est)
    est.add_argument("--orders", help="comma-separated estimate orders")

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


def _check_paths(out_path: str, cache_dir: str, use_cache: bool) -> None:
    """Refuses output and cache paths the sweep could not write, before it runs."""
    if os.path.isdir(out_path) or not os.path.isdir(os.path.dirname(os.path.abspath(out_path))):
        raise ConfigError(f"cannot write {out_path!r}: not a file in an existing directory")
    existing = os.path.abspath(cache_dir)
    while not os.path.exists(existing):  # where load_or_run's makedirs would start
        existing = os.path.dirname(existing)
    if use_cache and not os.path.isdir(existing):
        raise ConfigError(f"cache directory {cache_dir!r}: {existing!r} is not a directory")


def _cmd_sweep(args: argparse.Namespace) -> int:
    settings = _settings(args)
    cfg = sweep_config_from_settings(settings)
    out_path = settings.get("out", "sweep.csv")
    cache_dir = settings.get("cache_dir", DEFAULT_CACHE_DIR)
    use_cache = not settings.get("no_cache", False)
    _check_paths(out_path, cache_dir, use_cache)
    records = load_or_run(cfg, cache_dir, use_cache)
    if settings.get("format") != "json":
        emit_csv(records, out_path)
    elif use_cache:
        # The cache file is the JSON report, and load_or_run has just read or
        # written it; writers replace it atomically, so it is always whole.
        shutil.copyfile(cache_path(cfg, cache_dir), out_path)
    else:
        emit_json(records, cfg, out_path)
    failed = [r for r in records if not r.ok]
    print(f"wrote {len(records)} records to {out_path} ({len(failed)} failed points)")
    if failed:
        print(f"numerical failure: T={failed[0].t:g}: {failed[0].error}", file=sys.stderr)
    return 2 if failed else 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    settings = _settings(args)
    spec = model_spec_from_settings(settings)
    # A dataclass field's default is also its class attribute.
    orders = settings.get("orders", SweepConfig.estimate_orders)
    path = build(spec)
    print(f"model={spec.model} k={spec.k:g} order={spec.order} energies={spec.energy_values()}")
    print(f"{'n':>3} {'b_n(start)':>14} {'b_n(end)':>14} {'b_n':>14}")
    for order in orders:
        est = switching_estimate(path, order)
        print(
            f"{order:>3} {est.start_coefficient:>14.6e} {est.end_coefficient:>14.6e} "
            f"{est.coefficient:>14.6e}"
        )
    if has_reference_shortcut(spec):
        ref = reference_scaling_estimate(build(spec.base()), spec.k, spec.order)
        measured = switching_estimate(path, ref.error_order).coefficient
        print(
            f"approximate order-{ref.error_order} reference: "
            f"sqrt-prefactor {ref.sqrt_prefactor_coefficient:.6e}, "
            f"substituted {ref.substituted_coefficient:.6e} "
            f"(exact/substituted = {measured / ref.substituted_coefficient:.6f})"
        )
    return 0


def _cmd_schedule_dump(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.k) and args.k >= 0.0):
        raise ConfigError(f"--k must be finite and >= 0, got {args.k}")
    if args.points < 2:
        raise ConfigError("need at least 2 sample points")
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
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.points} samples to {args.out}")
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
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
