"""Flat key-value config files and their merge with CLI flags.

Files hold one ``key = value`` pair per line; blank lines and ``#`` comments
are ignored.  CLI flags override file values.  ``PARSERS`` maps every key to
the function that reads its text, and it is the one list of keys: each key is
also a flag of ``adiasweep sweep`` and ``adiasweep estimate``.  A key that is
set nowhere takes the default of ``ModelSpec``, ``TypicalErrorConfig`` or
``SweepConfig``.
"""

from __future__ import annotations

from dataclasses import fields

from .hamiltonians import MODEL_NAMES, MODELS, PER_MODEL_FIELDS, ModelSpec
from .metrics import REDUCTIONS, TypicalErrorConfig
from .schedules import PREFACTOR_MODES
from .sweep import SweepConfig

OUTPUT_FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """Malformed config file or invalid parameter combination."""


def _choice(names: tuple[str, ...]):
    """Parser of one of ``names``; ``parse.names`` lists them for the CLI's help."""

    def parse(value: str) -> str:
        if value not in names:
            raise ValueError(f"choose from {', '.join(names)}")
        return value

    parse.names = names
    return parse


def _boolean(value: str) -> bool:
    if value.lower() in ("1", "true", "yes"):
        return True
    if value.lower() in ("0", "false", "no"):
        return False
    raise ValueError("expected a boolean")


def _orders(value: str) -> tuple[int, ...]:
    orders = tuple(int(part) for part in value.split(",") if part.strip())
    if not orders:
        raise ValueError("no orders given")
    if min(orders) < 1:
        raise ValueError("orders must be >= 1")
    return orders


# The energy parameters of every model, E0..E3.
ENERGY_KEYS = tuple(dict.fromkeys(name for row in MODELS.values() for name in row.energies))

PARSERS = {
    "model": _choice(MODEL_NAMES),
    **dict.fromkeys(("k", "k1", "k2", "k3"), float),
    **dict.fromkeys(ENERGY_KEYS, float),
    "n": int,
    "prefactor": _choice(PREFACTOR_MODES),
    **dict.fromkeys(("t_min", "t_max", "tau0", "rtol", "atol", "s_start", "s_end"), float),
    **dict.fromkeys(("points_per_decade", "samples", "max_steps", "workers"), int),
    "reduction": _choice(REDUCTIONS),
    "orders": _orders,
    "out": str,
    "format": _choice(OUTPUT_FORMATS),
    "cache_dir": str,
    "no_cache": _boolean,
}
KNOWN_KEYS = frozenset(PARSERS)


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


def _parse(key: str, value: str):
    try:
        return PARSERS[key](value)
    except ValueError as exc:
        raise ConfigError(f"invalid value for {key}: {value!r} ({exc})") from exc


def merge_settings(file_values: dict[str, str], overrides: dict[str, object]) -> dict[str, object]:
    """Typed settings dict; ``overrides`` (CLI flags) win over file values.

    String overrides are parsed like file values; typed ones are kept.
    """
    settings = {key: _parse(key, value) for key, value in file_values.items()}
    for key, value in overrides.items():
        if value is not None:
            if key not in KNOWN_KEYS:
                raise ConfigError(f"unknown setting {key!r}")
            settings[key] = _parse(key, value) if isinstance(value, str) else value
    return settings


# Settings keys whose dataclass field has another name.
_FIELD_NAMES = {"n": "order", "orders": "estimate_orders"}


def _present(settings: dict[str, object], cls, skip: tuple[str, ...] = ()) -> dict[str, object]:
    """Keyword arguments of ``cls`` for the settings that are set; the rest keep their defaults."""
    names = {f.name for f in fields(cls)}.difference(skip)
    renamed = ((_FIELD_NAMES.get(key, key), value) for key, value in settings.items())
    return {name: value for name, value in renamed if name in names}


def model_spec_from_settings(settings: dict[str, object]) -> ModelSpec:
    model = settings.get("model")
    if not model:
        raise ConfigError("no model selected; pass --model or set 'model' in the config file")
    if model not in MODELS:
        raise ConfigError(f"unknown model {model!r}; choose from {MODEL_NAMES}")
    row = MODELS[model]
    needed = tuple(row.energies)
    # Keys the model does not read, refused even when set to their default,
    # which ModelSpec cannot tell from an unset field.
    not_read = {*ENERGY_KEYS, *PER_MODEL_FIELDS} - row.reads
    unread = [key for key in PARSERS if key in settings and _FIELD_NAMES.get(key, key) in not_read]
    if unread:
        raise ConfigError(f"model {model} does not read {', '.join(unread)}")
    energies = None
    if any(key in settings for key in needed):
        missing = [k for k in needed if k not in settings]
        if missing:
            raise ConfigError(f"model {model} needs all of {needed}; missing {missing}")
        energies = tuple(float(settings[k]) for k in needed)
    try:
        return ModelSpec(energies=energies, **_present(settings, ModelSpec))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def sweep_config_from_settings(settings: dict[str, object]) -> SweepConfig:
    spec = model_spec_from_settings(settings)
    try:
        typical = TypicalErrorConfig(**_present(settings, TypicalErrorConfig))
        return SweepConfig(
            model=spec, typical=typical, **_present(settings, SweepConfig, skip=("model",))
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
