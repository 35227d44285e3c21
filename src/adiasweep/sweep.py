"""Config-driven sweeps over total evolution time, with caching and emission.

A sweep walks a log-spaced grid of total times t, measures the single-shot
error and the window-averaged typical error at each t, and tabulates them
against the order-1 and order-2 switching estimates, taken at the ends of
the window [s_start, s_end] that the sweep evolves over.  ``estimates`` is
the one computation of a config's estimates, from one walk over the window's
ends per path (the model's and, where needed, its unsmoothed base): the
records, the JSON report (``sweep_metadata``) and ``adiasweep estimate`` all
read it.  Points are independent pure computations, so worker count changes
wall time but never the records; results are cached keyed by a content hash
of the numeric config.  The cache file is the sweep's JSON report, byte for
byte, so a cached JSON request writes its bytes out unparsed and a cached CSV
request reads its records.  Every output goes through ``write_output``, which
overwrites in place; only the cache file is written atomically.

CSV schema (one row per grid point):

    T,eps,eps_bar_T,eps_bar_1,eps_bar_2,ratio1,ratio2,epsT2,slope,norm_drift

Floats are written as shortest round-trip decimals.  The slope column is the
5-point centered log-log slope of eps_bar_T and is empty at the grid edges
or where it is not computable; failed points carry nan values and an error
note in the JSON form of the records.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import stat
import tempfile
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .evolution import EvolutionConfig, EvolutionFailure
from .hamiltonians import MODELS, ModelSpec, build
from .metrics import (
    SwitchingEstimate,
    TypicalErrorConfig,
    loglog_slope,
    measure_errors,
    reference_from_order1,
    reference_scaling_estimate,  # uncalled here, kept for the benchmark tracer that patches it
    switching_estimate,
    switching_estimates,
)

SCHEMA_VERSION = 1

# Part of every cache key.  Bump it with any change to evolution, schedules
# or metrics that can move the records, so no record computed by older
# numerics is served.  2: the CF4 exponential propagator replaced DOP5(4).
# 3: exact Taylor jets replaced the finite-difference endpoint derivatives.
# 4: the CF4 mesh propagates the half cells of its step-doubling estimate.
# A cache file is the whole JSON report, so the version also covers what a
# stored report holds beyond the records: the switching estimates, the
# reference-scaling block and its note text.  Bump it with any change to
# those as well, so no stored report outlives the code that wrote it.
# 5: LAPACK eigh replaced the 2x2 closed form and the Jacobi iteration, which
# moves ground states inside (0, 1) in the last digit, and the reference
# block's exact_to_substituted_ratio became the measured ratio.
# 6: the CF4 chain takes its phases relative to each exponential's lowest
# level, and the mesh estimate and RK4 multiply term by term, which moves
# records in the last digits.
# 7: CF4 blocks are no longer re-chunked, so basis round trips fall at mesh
# block boundaries, which moves records in the last digits.
# 8: window phases come from a coarse x fine table of exponentials, which
# moves records in the last digits.
# 9: a mirror-symmetric path and window propagate the first half only and
# finish with the transpose, which moves records by up to about 1e-8 relative.
# 10: the switching estimates are taken at the ends of the sweep's window, not
# at s=0 and s=1, which moves eps_bar_1, ratio1 and the order-1 block of
# two-level-exp by about 2e-6 relative and every estimate of a narrowed window.
# 11: each CF4 block is propagated by a blocked scan whose group propagators
# are multiplied pairwise, which moves records by about 1e-13 relative.
# 12: the mesh estimates groups of 256 pairs, not 128, which moves its cells
# and the benchmark sweeps' records by up to 3e-9 relative (2.6e-12 absolute
# on an eps of 8e-4, inside the mesh's tolerance), and criterion 3's eps_bar
# by 7e-8 and 2e-6 relative at t=1e4 and 1e5, inside that tolerance's own
# error there; propagation blocks bounded in bytes and a pairwise sum of each
# block's common phase alone move records by at most 2e-13.
NUMERICS_VERSION = 12

CSV_HEADER = "T,eps,eps_bar_T,eps_bar_1,eps_bar_2,ratio1,ratio2,epsT2,slope,norm_drift"

# Order-1 coefficients below this are treated as structurally zero and fall
# back to the unsmoothed base path, which is what the smoothed path deviates
# from at small t.
_ZERO_COEFFICIENT = 1e-12

REFERENCE_SHORTCUT_NOTE = (
    "The shortcut coefficient treats an order-n endpoint ramp on scale k as a "
    "bare n!/k^n rescaling of the first endpoint derivative.  "
    "exact_to_substituted_ratio is the exact order-(n+1) coefficient of the "
    "model's own path over the substituted one.  A bare ramp^n transform "
    "would give (n+1)/(1+k)^n; the rational pulses also carry a prefactor, "
    "which multiplies that by (1+2k)^(2n) when midpoint-normalized and "
    "divides it by (1+2k)^(2n) when as-printed.  "
    "Estimator curves in the records use exact endpoint derivatives; the "
    "shortcut values are reference only.  The sqrt-prefactor variant combines "
    "squared per-level magnitudes, matching the exact estimator's structure."
)


@dataclass(frozen=True)
class SweepConfig:
    model: ModelSpec
    t_min: float = 10.0
    t_max: float = 3e4
    points_per_decade: int = 8
    typical: TypicalErrorConfig = TypicalErrorConfig()
    estimate_orders: tuple[int, ...] = (1, 2)
    rtol: float = 1e-10
    atol: float = 1e-12
    s_start: float | None = None
    s_end: float | None = None
    max_steps: int = 5_000_000
    workers: int = 1

    def __post_init__(self):
        for name in ("t_min", "t_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.t_min <= 0.0 or self.t_max < self.t_min:
            raise ValueError(f"need 0 < t_min <= t_max, got [{self.t_min}, {self.t_max}]")
        # Tolerances, window and step cap are checked here, before any work.
        self.evolution_config(self.t_min)
        if self.points_per_decade < 1:
            raise ValueError("points_per_decade must be >= 1")
        if self.t_min < 10.0 * math.sqrt(self.typical.tau0):
            raise ValueError(
                f"t_min={self.t_min} too small for tau0={self.typical.tau0}; "
                f"need t_min >= 10*sqrt(tau0) for a valid averaging window"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.estimate_orders or any(n < 1 for n in self.estimate_orders):
            raise ValueError("estimate orders must be positive")

    def window(self) -> tuple[float, float]:
        lo, hi = self.model.evolution_window()
        return (
            lo if self.s_start is None else self.s_start,
            hi if self.s_end is None else self.s_end,
        )

    def evolution_config(self, t: float) -> EvolutionConfig:
        lo, hi = self.window()
        return EvolutionConfig(
            t_total=t,
            rtol=self.rtol,
            atol=self.atol,
            s_start=lo,
            s_end=hi,
            max_steps=self.max_steps,
        )


@dataclass(frozen=True)
class SweepRecord:
    t: float
    eps: float
    eps_bar_t: float
    eps_bar_1: float
    eps_bar_2: float
    ratio1: float
    ratio2: float
    eps_t2: float
    slope: float | None
    norm_drift: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


# JSON records carry every field; CSV rows carry all but the error note, in
# CSV_HEADER's column order.
_RECORD_FIELDS = tuple(f.name for f in fields(SweepRecord))
_CSV_FIELDS = tuple(name for name in _RECORD_FIELDS if name != "error")


def t_grid(cfg: SweepConfig) -> list[float]:
    """Log-spaced grid t_min * 10**(i/ppd), capped at t_max."""
    ts: list[float] = []
    i = 0
    while True:
        t = cfg.t_min * 10.0 ** (i / cfg.points_per_decade)
        if t > cfg.t_max * (1.0 + 1e-9):
            break
        ts.append(t)
        i += 1
    return ts


@dataclass(frozen=True)
class Estimates:
    """A config's switching estimates at the ends of its window.

    ``own`` holds the model's estimate for each order of ``estimate_orders``,
    1, 2 and, when there is a reference block, n+1.  ``order1`` is the
    order-1 estimate the records tabulate and ``source`` the path it comes
    from: smoothed models have a structurally zero order-1 coefficient, and
    the curve their small-t error actually follows is the unsmoothed base
    path's.  ``reference`` is the JSON reference-scaling block, or None where
    the n!/k^n shortcut does not describe the model (k = 0 or the
    exponential pulse).
    """

    own: dict[int, SwitchingEstimate]
    order1: SwitchingEstimate
    source: str
    reference: dict | None


def estimates(cfg: SweepConfig) -> Estimates:
    """Every estimate of ``cfg``, from one walk over the window's ends per path."""
    m, window = cfg.model, cfg.window()
    shortcut = m.k > 0.0 and "order" in MODELS[m.model].reads
    orders = tuple(sorted({1, 2, *cfg.estimate_orders, *((m.order + 1,) if shortcut else ())}))
    own = dict(zip(orders, switching_estimates(build(m), orders, window)))
    fallback = not own[1].coefficient > _ZERO_COEFFICIENT
    base1 = switching_estimate(build(m.base()), 1, window) if fallback or shortcut else None
    order1, source = (base1, "base-k0") if fallback else (own[1], "model")
    reference = None
    if shortcut:
        ref = reference_from_order1(base1, m.k, m.order)
        exact, substituted = own[ref.error_order].coefficient, ref.substituted_coefficient
        reference = {
            "label": "approximate",
            **asdict(ref),
            # nan when the base path's order-1 terms all vanish (a decoupled ground level)
            "exact_to_substituted_ratio": exact / substituted if substituted else math.nan,
            "note": REFERENCE_SHORTCUT_NOTE,
        }
    return Estimates(own, order1, source, reference)


def order1_estimate(cfg: SweepConfig) -> tuple[SwitchingEstimate, str]:
    """The order-1 estimate the records tabulate and its source (see ``Estimates``)."""
    est = estimates(cfg)
    return est.order1, est.source


def compute_sweep_point(
    cfg: SweepConfig, t: float, coeff1: float, coeff2: float
) -> SweepRecord:
    """Measure one grid point; failures are recorded in-row."""
    path = build(cfg.model)
    eps_bar_1 = coeff1 / t
    eps_bar_2 = coeff2 / t**2
    try:
        (m,) = measure_errors(path, t, (cfg.typical,), cfg.evolution_config(t))
    except EvolutionFailure as exc:
        nan = float("nan")
        return SweepRecord(
            t, nan, nan, eps_bar_1, eps_bar_2, nan, nan, nan, None, nan, error=str(exc)
        )
    bar = m.typical
    return SweepRecord(
        t=t,
        eps=m.error,
        eps_bar_t=bar,
        eps_bar_1=eps_bar_1,
        eps_bar_2=eps_bar_2,
        ratio1=eps_bar_1 / bar if bar > 0.0 else float("inf"),
        ratio2=eps_bar_2 / bar if bar > 0.0 else float("inf"),
        eps_t2=bar * t**2,
        slope=None,
        norm_drift=m.norm_drift_max,
    )


def _fill_slopes(records: list[SweepRecord]) -> list[SweepRecord]:
    usable = [
        i
        for i, r in enumerate(records)
        if r.ok and math.isfinite(r.eps_bar_t) and r.eps_bar_t > 0.0
    ]
    out = list(records)
    for pos in range(2, len(usable) - 2):
        window = usable[pos - 2 : pos + 3]
        ts = np.array([records[i].t for i in window])
        vals = np.array([records[i].eps_bar_t for i in window])
        out[usable[pos]] = replace(records[usable[pos]], slope=loglog_slope(ts, vals))
    return out


def run_sweep(cfg: SweepConfig, est: Estimates | None = None) -> list[SweepRecord]:
    """One record per grid point, sorted by t; deterministic for a fixed config.

    ``est``, when given, is ``estimates(cfg)``.
    """
    est = estimates(cfg) if est is None else est
    tasks = [(cfg, t, est.order1.coefficient, est.own[2].coefficient) for t in t_grid(cfg)]
    if cfg.workers == 1:
        records = [compute_sweep_point(*task) for task in tasks]
    else:
        # Imported here: it is about a tenth of the CLI's import time, and a
        # single worker never needs it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            records = list(pool.map(compute_sweep_point, *zip(*tasks)))
    return _fill_slopes(records)


# ---------------------------------------------------------------------------
# caching


def _float(x: float | None) -> float | None:
    return None if x is None else float(x)


def _canonical_config(cfg: SweepConfig) -> dict:
    """Numeric content of a config: everything that can change the records.

    Worker count is excluded on purpose (points are pure, order is fixed).
    Float-typed fields go through float(), so configs that compare equal
    with int or float values share one key.
    """
    lo, hi = cfg.window()
    m = cfg.model
    return {
        "model": {
            "name": m.model,
            "k": float(m.k),
            "k1": _float(m.k1),
            "k2": _float(m.k2),
            "k3": _float(m.k3),
            "energies": [float(e) for e in m.energy_values()],
            "order": m.order,
            "prefactor": m.prefactor,
        },
        "t_min": float(cfg.t_min),
        "t_max": float(cfg.t_max),
        "points_per_decade": cfg.points_per_decade,
        "tau0": float(cfg.typical.tau0),
        "samples": cfg.typical.samples,
        "reduction": cfg.typical.reduction,
        "estimate_orders": list(cfg.estimate_orders),
        "rtol": float(cfg.rtol),
        "atol": float(cfg.atol),
        "s_start": float(lo),
        "s_end": float(hi),
        "max_steps": cfg.max_steps,
    }


def cache_key(cfg: SweepConfig) -> str:
    """Stable hash of the canonicalized numeric config."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "numerics_version": NUMERICS_VERSION,
        "config": _canonical_config(cfg),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _record_to_dict(r: SweepRecord) -> dict:
    return {name: getattr(r, name) for name in _RECORD_FIELDS}


_CSV_VALUES = operator.itemgetter(*_CSV_FIELDS)


def _record_from_dict(d: dict) -> SweepRecord:
    return SweepRecord(*_CSV_VALUES(d), error=d.get("error"))


# Types of the fields of a stored record: numbers (NaN in a failed point) and
# an optional slope and error note.  bool is no number here, though it
# subclasses int.
_FLOATS = operator.itemgetter(*(name for name in _CSV_FIELDS if name != "slope"))
_NUMBER = {float, int}
_OPTIONAL_NUMBER = {float, int, type(None)}
_OPTIONAL_STR = {str, type(None)}


def _well_typed(d: dict) -> bool:
    """Whether every field of the stored record ``d`` has the type SweepRecord declares."""
    return (
        set(map(type, _FLOATS(d))) <= _NUMBER
        and type(d["slope"]) in _OPTIONAL_NUMBER
        and type(d.get("error")) in _OPTIONAL_STR
    )


def cache_path(cfg: SweepConfig, cache_dir: str) -> str:
    """Where the report of ``cfg`` is stored in ``cache_dir``."""
    return os.path.join(cache_dir, f"{cache_key(cfg)}.json")


def _load_cached(cfg: SweepConfig, path: str, key: str) -> list[SweepRecord] | None:
    """Records of a stored report, or None when the file is not a usable report.

    Missing, stale, corrupt and truncated files are unusable, and so are files
    in the older records-only layout (no estimates), reports stored under a
    key other than ``key``, reports whose records are not one per point of
    ``t_grid(cfg)`` at exactly that point's t, and records with a field of
    the wrong type.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if (
            data.get("schema_version") != SCHEMA_VERSION
            or data.get("key") != key
            or "estimates" not in data
        ):
            return None
        stored = data["records"]
        if [d["t"] for d in stored] != t_grid(cfg) or not all(map(_well_typed, stored)):
            return None
        return [_record_from_dict(d) for d in stored]
    except (FileNotFoundError, ValueError, KeyError, TypeError, AttributeError):
        return None


def load_or_run(
    cfg: SweepConfig, cache_dir: str, use_cache: bool = True, est: Estimates | None = None
) -> list[SweepRecord]:
    """Return cached records when the config hash matches, else compute and store.

    What is stored is the JSON report of the sweep (see ``emit_json``).  On
    a miss the estimates, ``est`` when given, else computed once, serve both
    the records and the stored report; a hit computes none.  A cache file
    that cannot be read back as a report counts as a miss and is rewritten.
    Each writer goes through its own temporary file, so concurrent writers
    of one key never interleave.
    """
    key = cache_key(cfg)
    path = os.path.join(cache_dir, f"{key}.json")
    if use_cache:
        cached = _load_cached(cfg, path, key)
        if cached is not None:
            return cached
    est = estimates(cfg) if est is None else est
    records = run_sweep(cfg, est)
    if use_cache:
        os.makedirs(cache_dir, exist_ok=True)
        text = _render_report(records, cfg, key, est)
        fd, tmp = tempfile.mkstemp(prefix=f"{key}.", suffix=".tmp", dir=cache_dir)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    return records


# ---------------------------------------------------------------------------
# emission


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return repr(float(x))


def write_output(path: str, data: bytes) -> None:
    """Make ``path`` hold exactly ``data``, overwriting an existing file in place.

    The file is opened without truncation and cut to ``len(data)`` after the
    write: truncating first makes a file system such as ext4 free the old
    blocks and allocate new ones, which costs several times the write.  Only
    regular files are cut, so devices and pipes (``/dev/stdout``,
    ``/dev/null``) work.  The overwrite is not atomic: a reader can see a mix
    of old and new bytes, and a failed write leaves one.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def emit_csv(records: list[SweepRecord], path: str) -> None:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([_fmt(getattr(r, name)) for name in _CSV_FIELDS]))
    write_output(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _estimate_to_dict(est: SwitchingEstimate, source: str) -> dict:
    return {
        "order": est.order,
        "source": source,
        "coefficient": est.coefficient,
        "start_coefficient": est.start_coefficient,
        "end_coefficient": est.end_coefficient,
        "level_terms": [
            {
                "endpoint": lt.endpoint,
                "level": lt.level,
                "gap": lt.gap,
                "element": [lt.element.real, lt.element.imag],
                "term": [lt.term.real, lt.term.imag],
            }
            for lt in est.level_terms
        ],
    }


def sweep_metadata(cfg: SweepConfig, est: Estimates | None = None) -> dict:
    """The estimates of ``cfg`` (``est`` when given) and their notes, as echoed into JSON output."""
    est = estimates(cfg) if est is None else est
    blocks = {"order-1": _estimate_to_dict(est.order1, est.source)}
    for order in sorted(set(cfg.estimate_orders) | {2}):
        if order != 1:
            blocks[f"order-{order}"] = _estimate_to_dict(est.own[order], "model")
    meta = {"estimates": blocks}
    if est.reference is not None:
        meta["reference_scaling"] = est.reference
    return meta


def _render_report(records: list[SweepRecord], cfg: SweepConfig, key: str, est: Estimates) -> str:
    """The JSON report: the text of both a cache file and ``emit_json``'s output."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "key": key,
        "config": _canonical_config(cfg),
        **sweep_metadata(cfg, est),
        "records": [_record_to_dict(r) for r in records],
    }
    return json.dumps(doc, indent=2) + "\n"


def emit_json(
    records: list[SweepRecord], cfg: SweepConfig, path: str, est: Estimates | None = None
) -> None:
    """Write the JSON report of ``records``; ``est``, when given, is ``estimates(cfg)``."""
    est = estimates(cfg) if est is None else est
    write_output(path, _render_report(records, cfg, cache_key(cfg), est).encode("utf-8"))
