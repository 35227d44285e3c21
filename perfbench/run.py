"""adiasweep benchmark: one workload per run, in one process pinned to one CPU.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-2level --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Set-up time is the median wall time of IMPORT_PROBES fresh interpreters that
import the package, plus the median of SETUP_REPEATS set-ups of the workload
in this process.  The run then repeats the workload's fixed pass until the
next pass would end after ``--seconds`` (at least MIN_PASSES passes).  It checks every
output, prints each metric by name with its unit, and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends the first
half of the time on untraced passes and the rest on passes traced by
``tracing.instrument``; it reports the per-layer metrics per traced pass, the
tracing overhead against the untraced passes, and writes the spans to
``.perfbench-out/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

import stats
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench-out"
SETUP_REPEATS = 3
IMPORT_PROBES = 5
# Two passes at least, so that every percentile of an end-to-end run is taken
# over the same operations whether or not a third pass fits.
MIN_PASSES = 2
IMPORT_PROBE = "import adiasweep, adiasweep.acceptance, adiasweep.cli, adiasweep.config"
WORKLOADS = ("sweep-2level", "sweep-3level", "check-oracles", "warm-report")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _pin_process() -> int:
    """Pin to the highest-numbered CPU this process may use; steadier than floating."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _import_times(src: str) -> list[float]:
    """Wall time of fresh interpreters importing the package; they inherit the pinning."""
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def _measure(workload, seconds: float, tracer=None, min_passes: int = 1):
    """Repeat passes until the next one would end past ``seconds``, at least ``min_passes``."""
    passes, snapshots = [], []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        before = tracer.snapshot() if tracer else None
        result = workload.run_pass(tracer)
        if tracer:
            after = tracer.snapshot()
            # Integer counts only: float sums (times, T totals) round differently per pass.
            snapshots.append(
                {k: v - before.get(k, 0) for k, v in after.items() if isinstance(v, int)}
            )
        passes.append(result)
        now = time.perf_counter()
        if len(passes) >= min_passes and now - begin + (now - start) > seconds:
            return passes, snapshots


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<32} {_fmt(value):>14} {unit:<8} {note}".rstrip())


def _run_workload(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # A cold run must never be served records from a shared acceptance cache.
    os.environ.pop("ADIASWEEP_ACCEPTANCE_CACHE", None)
    cpu = _pin_process()
    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)

    import numpy

    import workloads

    import_times = _import_times(src)
    workload = workloads.make(args.workload, args.seed)
    out_root = os.path.join(root, OUT_DIR)
    work_dir = os.path.join(out_root, f"{args.workload}-{os.getpid()}")
    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work_dir, ignore_errors=True)
        start = time.perf_counter()
        workload.setup(work_dir)
        setup_times.append(time.perf_counter() - start)
    setup_s = stats.median(import_times) + stats.median(setup_times)

    print(
        f"workload {args.workload}  seed {args.seed} ({'used' if args.workload == 'warm-report' else 'unused'})"
        f"  trace {args.trace}  seconds {args.seconds:g}"
    )
    print(
        f"  machine: nproc {os.cpu_count()}, {_cpu_model()}; pinned to cpu {cpu}; "
        f"python {platform.python_version()}; numpy {numpy.__version__}"
    )

    problems: list[str] = []
    try:
        if args.trace == 0:
            passes, _ = _measure(workload, args.seconds, min_passes=MIN_PASSES)
            metrics = _end_to_end(passes, setup_s)
        else:
            untraced, _ = _measure(workload, args.seconds / 2)
            tracer = tracing.Tracer()
            restore = tracing.instrument(tracer)
            try:
                passes, snapshots = _measure(workload, args.seconds / 2, tracer)
            finally:
                restore()
            metrics = _per_layer(tracer, untraced, passes)
            problems += _prediction_problems(workload, metrics, snapshots)
            spans_path = os.path.join(out_root, f"spans-{args.workload}-seed{args.seed}.json")
            tracer.write_spans(spans_path)
            print(f"  {len(tracer.spans)} spans written to {os.path.relpath(spans_path, root)}")
            passes = untraced + passes
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        problems += p.problems
    print(
        f"  failed_frac {_fmt(stats.failed_frac(attempted, failed))} ratio "
        f"({failed} of {attempted} operations failed)"
    )
    for problem in dict.fromkeys(problems):
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _end_to_end(passes, setup_s: float) -> dict:
    latencies = [x for p in passes for x in p.latencies_s]
    n = len(latencies)
    tail_note = f"(n={n})" if stats.tail_supported(n, 90) else (
        f"(n={n}: fewer than {stats.MIN_TAIL_SAMPLES} samples beyond p90, a near-maximum)"
    )
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (stats.median([p.wall_s for p in passes]), "s"),
        "request_ms_p50": (1e3 * stats.percentile(latencies, 50), "ms"),
        "request_ms_p90": (1e3 * stats.percentile(latencies, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"(median of {IMPORT_PROBES} fresh imports + median of {SETUP_REPEATS} set-ups)",
        "run_s": f"(median of {len(passes)} passes)",
        "request_ms_p50": f"(n={n})",
        "request_ms_p90": tail_note,
    }
    for name, (value, unit) in metrics.items():
        _print_metric(name, value, unit, notes.get(name, ""))
    return metrics


def _per_layer(tracer, untraced, traced) -> dict:
    values = tracing.layer_metrics(tracer, len(traced))
    base = stats.median([p.wall_s for p in untraced])
    overhead = stats.median([p.wall_s for p in traced]) - base
    values["trace.overhead_s"] = overhead
    values["trace.overhead_frac"] = overhead / base
    print(
        f"  per traced pass ({len(traced)} traced, {len(untraced)} untraced passes); "
        f"untraced run_s {_fmt(base)} s"
    )
    metrics = {}
    for name, unit, _ in tracing.PER_LAYER:
        value = values[name]
        if unit in ("count", "B") and float(value).is_integer():
            value = int(value)
        metrics[name] = (value, unit)
        _print_metric(name, value, unit)
    return metrics


def _prediction_problems(workload, metrics: dict, snapshots: list[dict]) -> list[str]:
    """The layer -> workload map assumes these; a violation is a defect, not noise."""
    problems = []
    value = {name: v for name, (v, _) in metrics.items()}
    if workload.name == "warm-report":
        if value["evolution.propagations"] != 0:
            problems.append(f"warm-report propagated {value['evolution.propagations']} times")
        if value["sweep.hit_ratio"] != 1:
            problems.append(f"warm-report hit ratio {value['sweep.hit_ratio']} != 1")
    elif value["sweep.cache_misses"] != workload.sweeps_per_pass:
        problems.append(
            f"{value['sweep.cache_misses']} cache misses per pass, expected {workload.sweeps_per_pass}"
        )
    for i, snap in enumerate(snapshots[1:], start=2):
        diff = sorted(k for k in snap.keys() | snapshots[0].keys() if snap.get(k) != snapshots[0].get(k))
        if diff:
            problems.append(f"traced pass {i} counts differ from pass 1 in {diff}")
    return problems


def _run_all(args) -> int:
    """Every workload, one fresh pinned process after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join("src", "adiasweep", "__init__.py")):
        print(
            "error: src/adiasweep not found; run from the root of an adiasweep checkout",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
