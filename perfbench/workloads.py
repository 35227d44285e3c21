"""The benchmark's four workloads: set-up, one timed pass, and the output checks.

Every workload is a closed loop with one client and ``workers=1``.  A pass is
a fixed amount of work; ``run.py`` repeats passes for the measured seconds and
reports medians.  Cold workloads give every pass its own empty cache
directory, so a pass can never be served a cached record.

* ``sweep-2level``  -- ``CROSSOVER_SWEEPS[1e-2]`` (two-level, k=1e-2, 48 window
  samples, rtol 1.5e-12) cut to T 50..500 so that several passes fit in a run;
  ``load_or_run`` then ``emit_csv``.
* ``sweep-3level``  -- three-level-case1, k=1e-3, criterion 5's tolerances
  (rtol 2.5e-13, atol 1e-15) on the grid T 100..316 at 4 points per decade.
* ``check-oracles`` -- ``acceptance.run_all(numbers=(1, 2, 8))``.
* ``warm-report``   -- set-up fills a cache with 24 small configs; a pass sends
  240 seeded ``adiasweep sweep`` requests (each config in CSV and in JSON, five
  times each, in seeded order), all cache hits.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace

from adiasweep import acceptance, cli, sweep
from adiasweep.hamiltonians import ModelSpec
from adiasweep.metrics import TypicalErrorConfig

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# Integrator gate of the project: records may move by this much, relative.
REFERENCE_RTOL = 1e-6
# Estimator columns are eps_bar_n = b_n / T**n with b_n from the same code.
ESTIMATE_RTOL = 1e-12
NORM_DRIFT_BUDGET = 1e-9

SWEEP_2LEVEL = replace(acceptance.CROSSOVER_SWEEPS[1e-2], t_max=500.0)
SWEEP_3LEVEL = sweep.SweepConfig(
    model=ModelSpec("three-level-case1", k=1e-3),
    t_min=100.0,
    t_max=320.0,
    points_per_decade=4,
    typical=TypicalErrorConfig(tau0=1.0, samples=48, reduction="rms"),
    rtol=2.5e-13,
    atol=1e-15,
)


@dataclass
class PassResult:
    wall_s: float
    latencies_s: list[float]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


@contextlib.contextmanager
def _timed_calls(module, attr: str, sink: list[float]):
    """Append the duration of every call to module.attr while active."""
    fn = getattr(module, attr)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - start)

    setattr(module, attr, timed)
    try:
        yield
    finally:
        setattr(module, attr, fn)


def check_sweep_records(records, reference: list[dict], coeffs: tuple[float, float]) -> list[str]:
    """One problem string per failed grid point; attempted points = max of both lengths."""
    b1, b2 = coeffs
    problems = []
    for i in range(max(len(records), len(reference))):
        if i >= len(records) or i >= len(reference):
            problems.append(f"point {i}: record count {len(records)} != reference {len(reference)}")
            continue
        r, ref = records[i], reference[i]
        bad = []
        if not _close(r.t, ref["t"], ESTIMATE_RTOL):
            bad.append(f"t={r.t!r} vs {ref['t']!r}")
        if r.error is not None:
            bad.append(f"error {r.error!r}")
        if not r.norm_drift < NORM_DRIFT_BUDGET:
            bad.append(f"norm_drift {r.norm_drift:.3e}")
        for name in ("eps", "eps_bar_t"):
            if not _close(getattr(r, name), ref[name], REFERENCE_RTOL):
                bad.append(f"{name} {getattr(r, name)!r} vs reference {ref[name]!r}")
        for name, want in (("eps_bar_1", b1 / r.t), ("eps_bar_2", b2 / r.t**2)):
            if not _close(getattr(r, name), want, ESTIMATE_RTOL):
                bad.append(f"{name} {getattr(r, name)!r} vs estimate {want!r}")
        if bad:
            problems.append(f"point {i} (T={ref['t']:g}): " + "; ".join(bad))
    return problems


def check_csv(text: str, records) -> list[str]:
    """The CSV must carry the schema header and one row per record, t and eps intact."""
    lines = text.splitlines()
    if not lines or lines[0] != sweep.CSV_HEADER:
        return [f"CSV header {lines[:1]!r} != {sweep.CSV_HEADER!r}"]
    rows = lines[1:]
    if len(rows) != len(records):
        return [f"CSV has {len(rows)} rows for {len(records)} records"]
    problems = []
    for row, r in zip(rows, records):
        fields = row.split(",")
        if float(fields[0]) != r.t or float(fields[1]) != r.eps:
            problems.append(f"CSV row {row!r} does not match record T={r.t!r}")
    return problems


class ColdSweep:
    """One cold ``load_or_run`` of a sweep config, then ``emit_csv``."""

    sweeps_per_pass = 1

    def __init__(self, name: str, cfg: sweep.SweepConfig):
        self.name = name
        self.cfg = cfg

    def setup(self, work_dir: str) -> None:
        self.work_dir = _fresh_dir(work_dir)
        with open(os.path.join(REFERENCE_DIR, f"{self.name}.json"), encoding="utf-8") as fh:
            self.reference = json.load(fh)["records"]
        est1, _ = sweep.order1_estimate(self.cfg)
        est2 = sweep.switching_estimate(sweep.build(self.cfg.model), 2)
        self.coeffs = (est1.coefficient, est2.coefficient)
        self.passes = 0

    def run_pass(self, tracer=None) -> PassResult:
        self.passes += 1
        if tracer:
            tracer.request_id = self.passes
        cache_dir = tempfile.mkdtemp(dir=self.work_dir)
        csv_path = os.path.join(cache_dir, "sweep.csv")
        latencies: list[float] = []
        with _timed_calls(sweep, "compute_sweep_point", latencies):
            start = time.perf_counter()
            records = sweep.load_or_run(self.cfg, cache_dir)
            sweep.emit_csv(records, csv_path)
            wall = time.perf_counter() - start
        with open(csv_path, encoding="utf-8") as fh:
            csv_problems = check_csv(fh.read(), records)
        shutil.rmtree(cache_dir)
        problems = check_sweep_records(records, self.reference, self.coeffs)
        attempted = max(len(records), len(self.reference))
        failed = attempted if csv_problems else len(problems)
        return PassResult(wall, latencies, attempted, failed, csv_problems + problems)


class CheckOracles:
    """``acceptance.run_all`` on criteria 1, 2 and 8; each criterion is one operation."""

    name = "check-oracles"
    numbers = (1, 2, 8)
    sweeps_per_pass = 0

    def setup(self, work_dir: str) -> None:
        self.cache_dir = _fresh_dir(work_dir)
        self.passes = 0

    def run_pass(self, tracer=None) -> PassResult:
        self.passes += 1
        if tracer:
            tracer.request_id = self.passes
        stamps: list[float] = []
        start = time.perf_counter()
        results = acceptance.run_all(
            self.cache_dir,
            numbers=self.numbers,
            printer=lambda line: stamps.append(time.perf_counter()),
        )
        wall = time.perf_counter() - start
        latencies = [b - a for a, b in zip([start] + stamps, stamps)]
        problems = [f"FAIL {r.number}. {r.name}: {r.details}" for r in results if not r.passed]
        ran = tuple(r.number for r in results)
        if ran != self.numbers:
            problems.append(f"criteria {ran} ran, expected {self.numbers}")
        passed = sum(r.passed for r in results if r.number in self.numbers)
        attempted = len(self.numbers)
        return PassResult(wall, latencies, attempted, attempted - passed, problems)


WARM_MODELS = ("two-level", "two-level-exp", "three-level-case1", "three-level-case2")
WARM_KS = (1e-3, 1e-2, 5e-2)
WARM_REDUCTIONS = ("rms", "mean")
WARM_FORMATS = ("csv", "json")
WARM_REPEATS = 5
# Small grids keep the fill short; orders 1..3 make every JSON request derive
# order-3 endpoint derivatives by finite differences.
WARM_GRID = (
    "t_min = 10\nt_max = 20\npoints_per_decade = 4\nsamples = 16\n"
    "rtol = 1e-8\natol = 1e-10\norders = 1,2,3\n"
)


class WarmReport:
    """Seeded ``adiasweep sweep`` requests that are all served from a filled cache."""

    name = "warm-report"
    sweeps_per_pass = 0

    def __init__(self, seed: int):
        self.seed = seed

    def _request(self, conf: str, fmt: str) -> tuple[list[str], str]:
        out = os.path.join(self.out_dir, f"out.{fmt}")
        argv = ["sweep", "--config", conf, "--format", fmt, "--out", out, "--cache-dir", self.cache_dir]
        return argv, out

    def setup(self, work_dir: str) -> None:
        root = _fresh_dir(work_dir)
        self.cache_dir = os.path.join(root, "cache")
        self.out_dir = _fresh_dir(os.path.join(root, "out"))
        conf_dir = _fresh_dir(os.path.join(root, "configs"))
        self.configs = []
        for model, k, reduction in itertools.product(WARM_MODELS, WARM_KS, WARM_REDUCTIONS):
            conf = os.path.join(conf_dir, f"{model}-k{k:g}-{reduction}.conf")
            with open(conf, "w", encoding="utf-8") as fh:
                fh.write(f"model = {model}\nk = {k!r}\nreduction = {reduction}\n{WARM_GRID}")
            self.configs.append(conf)
        # The fill is the only miss: its JSON output holds freshly computed
        # records, which every later (cached) JSON request must reproduce.
        self.expected = []
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for conf in self.configs:
                argv, out = self._request(conf, "json")
                rc = cli.main(argv)
                if rc != 0:
                    raise RuntimeError(f"cache fill for {conf} exited {rc}")
                with open(out, encoding="utf-8") as fh:
                    self.expected.append(json.load(fh)["records"])
        pairs = [
            (i, fmt)
            for i in range(len(self.configs))
            for fmt in WARM_FORMATS
            for _ in range(WARM_REPEATS)
        ]
        random.Random(self.seed).shuffle(pairs)
        self.requests = [(i, *self._request(self.configs[i], fmt)) for i, fmt in pairs]

    def _check(self, rc: int, i: int, out: str) -> str | None:
        if rc != 0:
            return f"{self.configs[i]}: exit code {rc}"
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        expected = self.expected[i]
        if out.endswith(".json"):
            if json.loads(text)["records"] != expected:
                return f"{self.configs[i]}: JSON records differ from the computed ones"
            return None
        lines = text.splitlines()
        if not lines or lines[0] != sweep.CSV_HEADER:
            return f"{self.configs[i]}: CSV header {lines[:1]!r}"
        rows = [row.split(",") for row in lines[1:]]
        if [float(row[0]) for row in rows] != [r["t"] for r in expected]:
            return f"{self.configs[i]}: CSV T column differs from the {len(expected)} grid points"
        return None

    def run_pass(self, tracer=None) -> PassResult:
        latencies = []
        problems = []
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for n, (i, argv, out) in enumerate(self.requests):
                if tracer:
                    tracer.request_id = n
                start = time.perf_counter()
                rc = cli.main(argv)
                latencies.append(time.perf_counter() - start)
                problem = self._check(rc, i, out)
                if problem:
                    problems.append(problem)
        return PassResult(math.fsum(latencies), latencies, len(self.requests), len(problems), problems)


def make(name: str, seed: int):
    """The workload called ``name``; only warm-report uses the seed."""
    if name == "sweep-2level":
        return ColdSweep(name, SWEEP_2LEVEL)
    if name == "sweep-3level":
        return ColdSweep(name, SWEEP_3LEVEL)
    if name == "check-oracles":
        return CheckOracles()
    if name == "warm-report":
        return WarmReport(seed)
    raise ValueError(f"unknown workload {name!r}")
