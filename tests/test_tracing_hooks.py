"""The benchmark's tracer patches adiasweep names; renaming one must fail here."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from adiasweep import acceptance, evolution, hamiltonians, schedules
from adiasweep.schedules import Parabola, rational_pulse

ROOT = Path(__file__).resolve().parents[1]
TRACING_PY = ROOT / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _snapshot(tracing):
    owners = {importlib.import_module(name) for name, _, _ in tracing.FUNCTION_SITES}
    owners |= {evolution, schedules.Schedule, hamiltonians.HamiltonianPath}
    owners |= {
        schedules.Constant,
        schedules.Parabola,
        schedules.PowerRamp,
        schedules.ExponentialPulse,
        schedules.Product,
    }
    state = {owner: dict(vars(owner)) for owner in owners}
    return state, dict(acceptance.CRITERIA)


def test_instrument_then_restore_puts_originals_back(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    before, criteria = _snapshot(tracing)
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        assert evolution.fast_value is not before[evolution]["fast_value"]
        sched = rational_pulse(1e-3)
        assert evolution.fast_value(sched)(np.array([0.25, 0.5]))[1] == 0.25
        assert Parabola().endpoint_deriv(0, 1) == 1.0
        counts = tracer.snapshot()
        assert counts["schedules.hot_eval.calls"] == 1
        assert counts["schedules.endpoint_deriv.calls"] == 1
    finally:
        restore()
    after, criteria_after = _snapshot(tracing)
    for owner, attrs in before.items():
        changed = [k for k in attrs.keys() | after[owner].keys() if attrs.get(k) is not after[owner].get(k)]
        assert not changed, (owner, changed)
    assert criteria_after == criteria


def _unread_imports(source: str) -> set[str]:
    """Names a module binds by a module-level import and never reads."""
    tree = ast.parse(source)
    bound = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_every_unread_import_is_a_tracer_site(monkeypatch):
    # An import its module never reads is dead code unless the tracer patches
    # it there.  These four go with their tracer sites; no other may land.
    # The package's __init__ imports are its public names.
    tracing = _load_tracing(monkeypatch)
    patched = {(module, attr) for module, attr, _ in tracing.FUNCTION_SITES}
    unread = {
        (f"adiasweep.{path.stem}", name)
        for path in sorted((ROOT / "src" / "adiasweep").glob("*.py"))
        if path.stem != "__init__"
        for name in _unread_imports(path.read_text(encoding="utf-8"))
    }
    assert unread <= patched, sorted(unread - patched)
    assert unread == {
        ("adiasweep.cli", "build"),
        ("adiasweep.cli", "switching_estimate"),
        ("adiasweep.cli", "reference_scaling_estimate"),
        ("adiasweep.sweep", "reference_scaling_estimate"),
    }
