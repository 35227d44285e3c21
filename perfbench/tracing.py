"""In-memory spans and per-layer counters around calls into adiasweep's modules.

Nothing under ``src/`` is edited: ``instrument`` replaces each public function
at the name its caller looks up at call time (for example
``adiasweep.metrics.evolve_many``, which ``measure_errors`` resolves on every
call), replaces the scalar methods of schedules and paths on their classes,
and wraps the closures ``adiasweep.evolution.fast_value`` hands the stepper.
``restore`` puts every original back.

Every traced call pushes a frame, so a layer's self time is its duration minus
the time covered by its traced children.  Calls into the hot leaf evaluators
(schedule closures, ``Schedule.value``, ``HamiltonianPath.evaluate``) are only
counted and timed; every other call is also kept as a span
``(id, name, start, end, parent id, request id)`` and written out at the end
of the run.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "request")


@dataclass
class Stat:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class _Frame:
    layer: str
    span_id: int | None  # nearest kept span at or above this frame
    child_s: float = 0.0


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    stats: dict[str, Stat] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    spans: list[tuple] = field(default_factory=list)
    request_id: object = None
    _stack: list[_Frame] = field(default_factory=list)
    _next_id: int = 0

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        keep_span: bool = True,
        boundary_only: bool = False,
        pre: Callable | None = None,
        post: Callable | None = None,
    ) -> Callable:
        """Trace fn as ``name`` ("<layer>.<what>").

        ``boundary_only`` calls made while the innermost traced frame is in the
        same layer run untraced, so a layer's count is calls made into it from
        outside.  ``pre(args, kwargs)`` returns a token that is passed to
        ``post(token, args, kwargs, result, self_s)`` after the call.
        """
        layer = name.split(".", 1)[0]
        stat = self.stat(name)
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            if boundary_only and stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            parent_id = parent.span_id if parent else None
            if keep_span:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent_id
            token = pre(args, kwargs) if pre else None
            frame = _Frame(layer, span_id)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_s = elapsed - frame.child_s
                stat.count += 1
                stat.total_s += elapsed
                stat.self_s += self_s
                if parent:
                    parent.child_s += elapsed
                if keep_span:
                    self.spans.append((span_id, name, start, end, parent_id, self.request_id))
            if post:
                post(token, args, kwargs, result, self_s)
            return result

        return traced

    def wrap_leaf(self, name: str, fn: Callable) -> Callable:
        """Count and time a function that makes no traced calls; no span is kept."""
        stat = self.stat(name)
        stack = self._stack
        clock = self.clock

        def leaf(*args):
            start = clock()
            result = fn(*args)
            elapsed = clock() - start
            stat.count += 1
            stat.total_s += elapsed
            stat.self_s += elapsed
            if stack:
                stack[-1].child_s += elapsed
            return result

        return leaf

    def snapshot(self) -> dict[str, float]:
        """Every call count and counter, for comparing two passes or two runs."""
        out = {f"{name}.calls": s.count for name, s in self.stats.items()}
        out.update(self.counters)
        return out

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# where adiasweep is wrapped

# (module, attribute, span name): each public function at the module-level
# name its caller resolves when it runs.
FUNCTION_SITES = (
    ("adiasweep.sweep", "build", "hamiltonians.build"),
    ("adiasweep.acceptance", "build", "hamiltonians.build"),
    ("adiasweep.cli", "build", "hamiltonians.build"),
    ("adiasweep.evolution", "hermitian_eigensystem", "linalg.eig"),
    ("adiasweep.metrics", "hermitian_eigensystem", "linalg.eig"),
    ("adiasweep.acceptance", "hermitian_eigensystem", "linalg.eig"),
    ("adiasweep.acceptance", "jacobi_eigensystem", "linalg.eig"),
    ("adiasweep.metrics", "evolve_many", "evolution.adaptive"),
    ("adiasweep.acceptance", "evolve", "evolution.adaptive"),
    ("adiasweep.acceptance", "evolve_fixed_step", "evolution.rk4"),
    ("adiasweep.sweep", "measure_errors", "metrics.measure"),
    ("adiasweep.acceptance", "measure_errors", "metrics.measure"),
    ("adiasweep.sweep", "switching_estimate", "metrics.estimate"),
    ("adiasweep.acceptance", "switching_estimate", "metrics.estimate"),
    ("adiasweep.cli", "switching_estimate", "metrics.estimate"),
    ("adiasweep.sweep", "reference_scaling_estimate", "metrics.estimate"),
    ("adiasweep.cli", "reference_scaling_estimate", "metrics.estimate"),
    ("adiasweep.sweep", "load_or_run", "sweep.load_or_run"),
    ("adiasweep.acceptance", "load_or_run", "sweep.load_or_run"),
    ("adiasweep.cli", "load_or_run", "sweep.load_or_run"),
    ("adiasweep.sweep", "run_sweep", "sweep.run_sweep"),
    ("adiasweep.sweep", "compute_sweep_point", "sweep.point"),
    ("adiasweep.sweep", "emit_csv", "sweep.emit_csv"),
    ("adiasweep.cli", "emit_csv", "sweep.emit_csv"),
    ("adiasweep.cli", "emit_json", "sweep.emit_json"),
    ("adiasweep.sweep", "sweep_metadata", "sweep.metadata"),
    ("adiasweep.acceptance", "run_all", "acceptance.run_all"),
    ("adiasweep.cli", "parse_config_file", "config.settings"),
    ("adiasweep.cli", "merge_settings", "config.settings"),
    ("adiasweep.cli", "sweep_config_from_settings", "config.settings"),
    ("adiasweep.cli", "main", "cli.main"),
)

CRITERIA_TRACED = (1, 2, 8)


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap every site; returns a function that restores the originals."""
    from adiasweep import acceptance, evolution, hamiltonians, schedules, sweep

    undo: list[Callable[[], None]] = []

    def patch(owner, attr, new):
        old = owner.__dict__[attr]
        setattr(owner, attr, new)
        undo.append(lambda: setattr(owner, attr, old))

    keys: dict = {}

    def cache_size(cfg, cache_dir) -> int:
        if cfg not in keys:
            keys[cfg] = sweep.cache_key(cfg)
        return os.path.getsize(os.path.join(cache_dir, keys[cfg] + ".json"))

    def load_post(misses_before, args, kwargs, result, self_s):
        cfg, cache_dir = args[0], args[1]
        use_cache = args[2] if len(args) > 2 else kwargs.get("use_cache", True)
        hit = tracer.stat("sweep.run_sweep").count == misses_before
        tracer.add("sweep.cache_read_s" if hit else "sweep.cache_write_s", self_s)
        if use_cache:
            key = "sweep.cache_bytes_read" if hit else "sweep.cache_bytes_written"
            tracer.add(key, cache_size(cfg, cache_dir))

    def evolve_post(many: bool):
        def post(token, args, kwargs, result, self_s):
            if many:  # evolve_many(path, cfg, t_values, psi0)
                ts = args[2] if len(args) > 2 else kwargs["t_values"]
                members, t_max = len(ts), float(max(ts))
            else:  # evolve(path, cfg, psi0)
                cfg = args[1] if len(args) > 1 else kwargs["cfg"]
                members, t_max = 1, cfg.t_total
            tracer.add("evolution.batch_members", members)
            tracer.add("evolution.t_max_sum", t_max)
            tracer.add("evolution.steps", result.steps_taken)
            tracer.add("evolution.rejected", result.rejected_steps)

        return post

    def eig_post(token, args, kwargs, result, self_s):
        if len(args[0]) == 3:
            tracer.add("linalg.eig_dim3")

    def rk4_post(token, args, kwargs, result, self_s):
        tracer.add("evolution.rk4_steps", result.steps_taken)

    def run_all_post(token, args, kwargs, result, self_s):
        tracer.add("acceptance.criteria_passed", sum(r.passed for r in result))

    hooks = {
        "sweep.load_or_run": dict(
            pre=lambda args, kwargs: tracer.stat("sweep.run_sweep").count, post=load_post
        ),
        "linalg.eig": dict(post=eig_post),
        "evolution.rk4": dict(post=rk4_post),
        "acceptance.run_all": dict(post=run_all_post),
    }
    for module_name, attr, name in FUNCTION_SITES:
        module = importlib.import_module(module_name)
        extra = hooks.get(name, {})
        if name == "evolution.adaptive":
            extra = dict(post=evolve_post(many=attr == "evolve_many"))
        patch(module, attr, tracer.wrap(name, getattr(module, attr), **extra))

    # Methods reached through an instance: patch the class that defines them.
    methods = [
        (cls, "value", "schedules.value", False)
        for cls in (
            schedules.Constant,
            schedules.Parabola,
            schedules.PowerRamp,
            schedules.ExponentialPulse,
            schedules.Product,
        )
    ]
    methods += [
        (schedules.Schedule, "endpoint_deriv", "schedules.endpoint_deriv", True),
        (schedules.ExponentialPulse, "endpoint_deriv", "schedules.endpoint_deriv", True),
        (hamiltonians.HamiltonianPath, "evaluate", "hamiltonians.evaluate", False),
        (hamiltonians.HamiltonianPath, "endpoint_deriv", "hamiltonians.endpoint_deriv", True),
    ]
    for cls, attr, name, keep_span in methods:
        traced = tracer.wrap(name, cls.__dict__[attr], keep_span=keep_span, boundary_only=True)
        patch(cls, attr, traced)

    fast_value = evolution.fast_value
    patch(
        evolution,
        "fast_value",
        lambda sched: tracer.wrap_leaf("schedules.hot_eval", fast_value(sched)),
    )

    for n in CRITERIA_TRACED:
        old = acceptance.CRITERIA[n]
        acceptance.CRITERIA[n] = tracer.wrap(f"acceptance.c{n}", old)
        undo.append(lambda n=n, old=old: acceptance.CRITERIA.__setitem__(n, old))

    def restore() -> None:
        while undo:
            undo.pop()()

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics

# (name, unit, better): the names BENCHMARK.json lists under per_layer.
PER_LAYER = (
    ("schedules.hot_evals", "count", "lower"),
    ("schedules.hot_eval_s", "s", "lower"),
    ("schedules.value_calls", "count", "lower"),
    ("schedules.value_s", "s", "lower"),
    ("schedules.endpoint_deriv_calls", "count", "lower"),
    ("schedules.endpoint_deriv_s", "s", "lower"),
    ("hamiltonians.build_calls", "count", "lower"),
    ("hamiltonians.build_s", "s", "lower"),
    ("hamiltonians.endpoint_deriv_s", "s", "lower"),
    ("hamiltonians.evaluate_calls", "count", "lower"),
    ("hamiltonians.evaluate_self_s", "s", "lower"),
    ("linalg.eig_calls", "count", "lower"),
    ("linalg.eig_dim3_calls", "count", "lower"),
    ("linalg.eig_s", "s", "lower"),
    ("evolution.propagations", "count", "lower"),
    ("evolution.batch_members", "count", "lower"),
    ("evolution.steps", "count", "lower"),
    ("evolution.rejected", "count", "lower"),
    ("evolution.accept_ratio", "ratio", "higher"),
    ("evolution.rhs_evals", "count", "lower"),
    ("evolution.steps_per_T", "steps/T", "lower"),
    ("evolution.adaptive_s", "s", "lower"),
    ("evolution.us_per_step", "us", "lower"),
    ("evolution.rk4_steps", "count", "lower"),
    ("evolution.rk4_s", "s", "lower"),
    ("metrics.measure_calls", "count", "lower"),
    ("metrics.measure_self_s", "s", "lower"),
    ("metrics.estimate_calls", "count", "lower"),
    ("metrics.estimate_s", "s", "lower"),
    ("sweep.points", "count", "lower"),
    ("sweep.point_s", "s", "lower"),
    ("sweep.cache_misses", "count", "lower"),
    ("sweep.cache_write_s", "s", "lower"),
    ("sweep.cache_bytes_written", "B", "lower"),
    ("sweep.cache_hits", "count", "higher"),
    ("sweep.hit_ratio", "ratio", "higher"),
    ("sweep.cache_read_s", "s", "lower"),
    ("sweep.cache_bytes_read", "B", "lower"),
    ("sweep.emit_csv_s", "s", "lower"),
    ("sweep.emit_json_s", "s", "lower"),
    ("sweep.metadata_s", "s", "lower"),
    ("acceptance.c1_s", "s", "lower"),
    ("acceptance.c2_s", "s", "lower"),
    ("acceptance.c8_s", "s", "lower"),
    ("acceptance.self_s", "s", "lower"),
    ("acceptance.criteria_passed", "count", "higher"),
    ("config.settings_s", "s", "lower"),
    ("cli.main_self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass value of every PER_LAYER metric except the trace.* overhead pair.

    Counts and times are totals over the traced passes divided by ``passes``;
    ratios are taken between totals.
    """
    st = tracer.stats.get
    zero = Stat()

    def calls(name):
        return (st(name) or zero).count

    def total(name):
        return (st(name) or zero).total_s

    def self_time(name):
        return (st(name) or zero).self_s

    c = tracer.counters.get
    steps, rejected = c("evolution.steps", 0), c("evolution.rejected", 0)
    propagations = calls("evolution.adaptive")
    loads, misses = calls("sweep.load_or_run"), calls("sweep.run_sweep")
    totals = {
        "schedules.hot_evals": calls("schedules.hot_eval"),
        "schedules.hot_eval_s": total("schedules.hot_eval"),
        "schedules.value_calls": calls("schedules.value"),
        "schedules.value_s": total("schedules.value"),
        "schedules.endpoint_deriv_calls": calls("schedules.endpoint_deriv"),
        "schedules.endpoint_deriv_s": total("schedules.endpoint_deriv"),
        "hamiltonians.build_calls": calls("hamiltonians.build"),
        "hamiltonians.build_s": total("hamiltonians.build"),
        "hamiltonians.endpoint_deriv_s": total("hamiltonians.endpoint_deriv"),
        "hamiltonians.evaluate_calls": calls("hamiltonians.evaluate"),
        "hamiltonians.evaluate_self_s": self_time("hamiltonians.evaluate"),
        "linalg.eig_calls": calls("linalg.eig"),
        "linalg.eig_dim3_calls": c("linalg.eig_dim3", 0),
        "linalg.eig_s": total("linalg.eig"),
        "evolution.propagations": propagations,
        "evolution.batch_members": c("evolution.batch_members", 0),
        "evolution.steps": steps,
        "evolution.rejected": rejected,
        # Computed, not counted: 6 stages per attempt plus the initial FSAL stage.
        "evolution.rhs_evals": 6 * (steps + rejected) + propagations,
        "evolution.adaptive_s": total("evolution.adaptive"),
        "evolution.rk4_steps": c("evolution.rk4_steps", 0),
        "evolution.rk4_s": total("evolution.rk4"),
        "metrics.measure_calls": calls("metrics.measure"),
        "metrics.measure_self_s": self_time("metrics.measure"),
        "metrics.estimate_calls": calls("metrics.estimate"),
        "metrics.estimate_s": total("metrics.estimate"),
        "sweep.points": calls("sweep.point"),
        "sweep.point_s": total("sweep.point"),
        "sweep.cache_misses": misses,
        "sweep.cache_write_s": c("sweep.cache_write_s", 0.0),
        "sweep.cache_bytes_written": c("sweep.cache_bytes_written", 0),
        "sweep.cache_hits": loads - misses,
        "sweep.cache_read_s": c("sweep.cache_read_s", 0.0),
        "sweep.cache_bytes_read": c("sweep.cache_bytes_read", 0),
        "sweep.emit_csv_s": total("sweep.emit_csv"),
        "sweep.emit_json_s": total("sweep.emit_json"),
        "sweep.metadata_s": total("sweep.metadata"),
        "acceptance.c1_s": total("acceptance.c1"),
        "acceptance.c2_s": total("acceptance.c2"),
        "acceptance.c8_s": total("acceptance.c8"),
        "acceptance.self_s": sum(
            s.self_s for name, s in tracer.stats.items() if name.startswith("acceptance.")
        ),
        "acceptance.criteria_passed": c("acceptance.criteria_passed", 0),
        "config.settings_s": total("config.settings"),
        "cli.main_self_s": self_time("cli.main"),
    }
    out = {name: value / passes for name, value in totals.items()}
    out["evolution.accept_ratio"] = _ratio(steps, steps + rejected)
    out["evolution.steps_per_T"] = _ratio(steps, c("evolution.t_max_sum", 0.0))
    out["evolution.us_per_step"] = 1e6 * _ratio(total("evolution.adaptive"), steps + rejected)
    out["sweep.hit_ratio"] = _ratio(loads - misses, loads)
    return out
