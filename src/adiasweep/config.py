"""Flat key-value config files and their merge with CLI flags.

Files hold one ``key = value`` pair per line; blank lines and ``#`` comments
are ignored.  CLI flags override file values, which override defaults.
Recognized keys (all optional):

    model, k, k1, k2, k3, n, E0, E1, E2, E3, prefactor,
    t_min, t_max, points_per_decade, tau0, samples, reduction, orders,
    rtol, atol, s_start, s_end, max_steps, workers,
    out, format, cache_dir, no_cache
"""

from __future__ import annotations

from .hamiltonians import ModelSpec
from .metrics import TypicalErrorConfig
from .sweep import SweepConfig


class ConfigError(ValueError):
    """Malformed config file or invalid parameter combination."""


_MODEL_KEYS = ("model", "k", "k1", "k2", "k3", "n", "E0", "E1", "E2", "E3", "prefactor")
_SWEEP_KEYS = (
    "t_min",
    "t_max",
    "points_per_decade",
    "tau0",
    "samples",
    "reduction",
    "orders",
    "rtol",
    "atol",
    "s_start",
    "s_end",
    "max_steps",
    "workers",
)
_OUTPUT_KEYS = ("out", "format", "cache_dir", "no_cache")
KNOWN_KEYS = frozenset(_MODEL_KEYS + _SWEEP_KEYS + _OUTPUT_KEYS)


def parse_config_file(path: str) -> dict[str, str]:
    """Read ``key = value`` lines; unknown keys are rejected."""
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _convert(key: str, value: str):
    try:
        if key in ("model", "prefactor", "reduction", "format", "out", "cache_dir"):
            return value
        if key in ("n", "points_per_decade", "samples", "max_steps", "workers"):
            return int(value)
        if key == "no_cache":
            if value.lower() in ("1", "true", "yes"):
                return True
            if value.lower() in ("0", "false", "no"):
                return False
            raise ValueError(f"expected a boolean, got {value!r}")
        if key == "orders":
            orders = tuple(int(part) for part in value.split(",") if part.strip())
            if not orders:
                raise ValueError("no orders given")
            return orders
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"invalid value for {key}: {value!r} ({exc})") from exc


def merge_settings(file_values: dict[str, str], overrides: dict[str, object]) -> dict[str, object]:
    """Typed settings dict; ``overrides`` (CLI flags) win over file values.

    String overrides are converted like file values; typed ones are kept.
    """
    settings: dict[str, object] = {}
    for key, value in file_values.items():
        settings[key] = _convert(key, value)
    for key, value in overrides.items():
        if value is not None:
            if key not in KNOWN_KEYS:
                raise ConfigError(f"unknown setting {key!r}")
            settings[key] = _convert(key, value) if isinstance(value, str) else value
    return settings


def model_spec_from_settings(settings: dict[str, object]) -> ModelSpec:
    model = settings.get("model")
    if not model:
        raise ConfigError("no model selected; pass --model or set 'model' in the config file")
    energy_keys = ("E0", "E1", "E2", "E3")
    energies = None
    present = [k for k in energy_keys if k in settings]
    if present:
        if model in ("two-level", "two-level-exp"):
            needed = ("E0", "E1")
        else:
            needed = ("E1", "E2", "E3")
        missing = [k for k in needed if k not in settings]
        if missing:
            raise ConfigError(f"model {model} needs all of {needed}; missing {missing}")
        energies = tuple(float(settings[k]) for k in needed)
    try:
        return ModelSpec(
            model=str(model),
            k=float(settings.get("k", 0.0)),
            k1=settings.get("k1"),
            k2=settings.get("k2"),
            k3=settings.get("k3"),
            energies=energies,
            order=int(settings.get("n", 1)),
            prefactor=str(settings.get("prefactor", "midpoint-normalized")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def sweep_config_from_settings(settings: dict[str, object]) -> SweepConfig:
    spec = model_spec_from_settings(settings)
    try:
        typical = TypicalErrorConfig(
            tau0=float(settings.get("tau0", 1.0)),
            samples=int(settings.get("samples", 64)),
            reduction=str(settings.get("reduction", "rms")),
        )
        return SweepConfig(
            model=spec,
            t_min=float(settings.get("t_min", 10.0)),
            t_max=float(settings.get("t_max", 3e4)),
            points_per_decade=int(settings.get("points_per_decade", 8)),
            typical=typical,
            estimate_orders=tuple(settings.get("orders", (1, 2))),
            rtol=float(settings.get("rtol", 1e-10)),
            atol=float(settings.get("atol", 1e-12)),
            s_start=settings.get("s_start"),
            s_end=settings.get("s_end"),
            max_steps=int(settings.get("max_steps", 5_000_000)),
            workers=int(settings.get("workers", 1)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
