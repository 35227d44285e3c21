import dataclasses
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from adiasweep.hamiltonians import MODELS, ModelSpec, build
from adiasweep.metrics import TypicalErrorConfig, switching_estimate
from adiasweep import sweep
from adiasweep.sweep import (
    CSV_HEADER,
    SweepConfig,
    SweepRecord,
    cache_key,
    emit_csv,
    emit_json,
    load_or_run,
    run_sweep,
    t_grid,
)


def small_config(**overrides):
    base = dict(
        model=ModelSpec("two-level", k=0.0),
        t_min=15.0,
        t_max=22.0,
        points_per_decade=12,
        typical=TypicalErrorConfig(tau0=1.0, samples=16, reduction="rms"),
        rtol=1e-9,
        atol=1e-11,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_t_grid_log_spacing():
    cfg = small_config(t_min=10.0, t_max=1000.0, points_per_decade=4)
    ts = t_grid(cfg)
    assert ts[0] == 10.0
    assert len(ts) == 9
    assert ts[-1] == pytest.approx(1000.0, rel=1e-12)
    assert np.all(np.diff(ts) > 0)
    ratios = np.diff(np.log10(ts))
    assert np.allclose(ratios, 0.25)


def test_config_validation():
    with pytest.raises(ValueError, match="t_min"):
        small_config(t_min=5.0)  # below 10*sqrt(tau0)
    with pytest.raises(ValueError, match="t_min"):
        small_config(t_min=50.0, t_max=20.0)
    with pytest.raises(ValueError, match="workers"):
        small_config(workers=0)
    for field in ("t_min", "t_max", "rtol", "atol", "s_start", "s_end"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                small_config(**{field: bad})
    # Checked when the config is made, not when the first point propagates.
    for overrides, message in (
        (dict(rtol=0.0), "positive"),
        (dict(atol=-1e-12), "positive"),
        (dict(s_start=0.9, s_end=0.1), "invalid window"),
        (dict(s_end=1.5), "invalid window"),
        (dict(max_steps=0), "max_steps"),
    ):
        with pytest.raises(ValueError, match=message):
            small_config(**overrides)


def test_cache_key_stability():
    a = small_config()
    b = small_config()
    assert cache_key(a) == cache_key(b)
    assert cache_key(small_config(model=ModelSpec("two-level", k=1e-3))) != cache_key(a)
    assert cache_key(small_config(rtol=2e-9)) != cache_key(a)
    # worker count cannot change records, so it is not part of the key
    assert cache_key(small_config(workers=4)) == cache_key(a)


def test_cache_key_covers_every_field():
    # One changed value per field of the three config dataclasses: each must
    # move the key, except the worker count, which cannot move the records.
    # A field added without an entry here fails, so it cannot be left out of
    # the key and let the cache serve records of another config.
    base = small_config(model=ModelSpec("three-level-case1", k=1e-3))
    changed = {
        (ModelSpec, "model"): "three-level-case2",
        (ModelSpec, "k"): 2e-3,
        (ModelSpec, "k1"): 5e-3,
        (ModelSpec, "k2"): 5e-3,
        (ModelSpec, "k3"): 5e-3,
        (ModelSpec, "energies"): (1.0, 2.0, 1.0),
        (ModelSpec, "order"): 2,
        (ModelSpec, "prefactor"): "as-printed",
        (TypicalErrorConfig, "tau0"): 2.0,
        (TypicalErrorConfig, "samples"): 24,
        (TypicalErrorConfig, "reduction"): "mean",
        (SweepConfig, "model"): ModelSpec("two-level"),
        (SweepConfig, "t_min"): 16.0,
        (SweepConfig, "t_max"): 30.0,
        (SweepConfig, "points_per_decade"): 5,
        (SweepConfig, "typical"): TypicalErrorConfig(samples=32),
        (SweepConfig, "estimate_orders"): (1, 3),
        (SweepConfig, "rtol"): 1e-8,
        (SweepConfig, "atol"): 1e-10,
        (SweepConfig, "s_start"): 0.125,
        (SweepConfig, "s_end"): 0.875,
        (SweepConfig, "max_steps"): 12345,
        (SweepConfig, "workers"): 3,
    }
    for cls in (ModelSpec, TypicalErrorConfig, SweepConfig):
        for f in dataclasses.fields(cls):
            assert (cls, f.name) in changed, f"{cls.__name__}.{f.name} has no changed value"
    for (cls, name), value in changed.items():
        if cls is ModelSpec:
            cfg = replace(base, model=replace(base.model, **{name: value}))
        elif cls is TypicalErrorConfig:
            cfg = replace(base, typical=replace(base.typical, **{name: value}))
        else:
            cfg = replace(base, **{name: value})
        assert cfg != base
        same = cache_key(cfg) == cache_key(base)
        assert same == (name == "workers"), f"{cls.__name__}.{name}"


def test_a_model_without_a_rational_pulse_refuses_order_and_prefactor():
    # Only the rational pulse reads the smoothing order and prefactor.  Any
    # other pulse would build the default spec's path under another cache
    # key, so a non-default value is refused; the default spec's key stays.
    others = [name for name, row in MODELS.items() if row.pulse != "rational"]
    assert others
    for name in others:
        for field, value in (("order", 3), ("prefactor", "as-printed")):
            with pytest.raises(ValueError, match=f"does not read {field}"):
                ModelSpec(name, k=1e-2, **{field: value})
        ModelSpec(name, k=1e-2, order=1, prefactor="midpoint-normalized")  # the defaults pass
    for name, row in MODELS.items():
        if row.pulse == "rational":
            ModelSpec(name, k=1e-2, order=3, prefactor="as-printed")
    pinned = {
        "two-level-exp": "02c2dcedda8d4bf05d8acddfbd6e234f16ddbd3a3099465e88d7d5e628175d60",
        "two-level": "d365c4092e1c3b829702f6261a2e2eac7007a6ccfce35661c61130837074a988",
    }
    for name, key in pinned.items():
        assert cache_key(SweepConfig(ModelSpec(name, k=1e-2))) == key


def test_cache_key_ignores_int_versus_float():
    m = ModelSpec("two-level")
    pairs = [
        (SweepConfig(m, t_max=60), SweepConfig(m, t_max=60.0)),
        (small_config(model=ModelSpec("two-level", k=0)), small_config(model=m)),
        (
            small_config(
                model=ModelSpec("three-level-case1", k=1, k1=2, k3=3, energies=(1, 2, 3)),
                t_min=15, t_max=22, typical=TypicalErrorConfig(tau0=1), rtol=1, atol=1,
                s_start=0, s_end=1,
            ),
            small_config(
                model=ModelSpec(
                    "three-level-case1", k=1.0, k1=2.0, k3=3.0, energies=(1.0, 2.0, 3.0)
                ),
                t_min=15.0, t_max=22.0, typical=TypicalErrorConfig(tau0=1.0), rtol=1.0,
                atol=1.0, s_start=0.0, s_end=1.0,
            ),
        ),
    ]
    for ints, floats in pairs:
        assert ints == floats
        assert cache_key(ints) == cache_key(floats)


def test_cache_key_changes_with_numerics_version(monkeypatch):
    cfg = small_config()
    before = cache_key(cfg)
    monkeypatch.setattr(sweep, "NUMERICS_VERSION", sweep.NUMERICS_VERSION + 1)
    assert cache_key(cfg) != before


def test_run_sweep_deterministic_and_parallel_equivalent():
    cfg = small_config()
    first = run_sweep(cfg)
    second = run_sweep(cfg)
    assert first == second
    parallel = run_sweep(small_config(workers=2))
    assert parallel == first


def test_whole_pipeline_against_order1_coefficient():
    # single-point sweep at t=100: the measured typical error times t must
    # land near the analytic order-1 coefficient sqrt(2)
    cfg = small_config(t_min=100.0, t_max=100.0, rtol=1e-10, atol=1e-12)
    (record,) = load_records = run_sweep(cfg)
    assert record.ok
    assert abs(record.eps_bar_t * record.t / math.sqrt(2.0) - 1.0) < 0.15
    assert 0.0 <= record.eps <= 1.0
    assert record.norm_drift < 1e-9


def test_smoothed_model_small_t_prefers_order1():
    cfg = small_config(
        model=ModelSpec("two-level", k=1e-3),
        t_min=30.0,
        t_max=50.0,
        points_per_decade=10,
        rtol=1e-10,
        atol=1e-12,
    )
    records = run_sweep(cfg)
    assert len(records) >= 2
    for r in records:
        assert abs(r.ratio1 - 1.0) < abs(r.ratio2 - 1.0)
        # eps_bar_1 falls back to the unsmoothed base path
        assert r.eps_bar_1 == pytest.approx(math.sqrt(2.0) / r.t, rel=1e-12)


def test_estimates_are_taken_at_the_ends_of_the_window():
    # On [0.2, 1] the order-1 coefficient is 1.1264, not the sqrt(2) of [0, 1],
    # and the measured eps_bar * t is 1.137 at t=1000.
    cfg = small_config(
        t_min=1000.0,
        t_max=1000.0,
        typical=TypicalErrorConfig(samples=64),
        rtol=1e-12,
        atol=1e-14,
        s_start=0.2,
    )
    (record,) = run_sweep(cfg)
    assert record.ok
    assert abs(record.ratio1 - 1.0) < 0.02
    # The base path of the exponential model is taken at its clipped ends too,
    # 2e-6 relative below sqrt(2).
    est, source = sweep.order1_estimate(small_config(model=ModelSpec("two-level-exp", k=1e-2)))
    assert source == "base-k0"
    assert est.coefficient == pytest.approx(1.4142107, rel=1e-7)


@pytest.mark.parametrize("model", ["two-level", "three-level-case1"])
@pytest.mark.parametrize("window", [{}, {"s_start": 0.2, "s_end": 0.9}])
def test_estimates_equal_the_one_order_estimate(model, window):
    # One walk for all orders gives each order exactly what a walk of its own
    # gives; dataclass equality compares every field, level terms included.
    cfg = small_config(model=ModelSpec(model, k=1e-2), estimate_orders=(1, 2, 3, 4), **window)
    path = build(cfg.model)
    own = sweep.estimates(cfg).own
    for n in (1, 2, 3, 4):
        assert own[n] == switching_estimate(path, n, cfg.window())


def test_load_or_run_round_trip(tmp_path):
    cfg = small_config()
    cache_dir = str(tmp_path / "cache")
    first = load_or_run(cfg, cache_dir, use_cache=True)
    second = load_or_run(cfg, cache_dir, use_cache=True)
    assert first == second  # bit-identical via JSON float round-trip


def test_cache_schema_version_mismatch_recomputes(tmp_path):
    cfg = small_config()
    cache_dir = str(tmp_path / "cache")
    key = cache_key(cfg)
    path = tmp_path / "cache" / f"{key}.json"
    load_or_run(cfg, cache_dir, use_cache=True)
    doc = json.loads(path.read_text())
    doc["schema_version"] = -1
    doc["records"] = []
    path.write_text(json.dumps(doc))
    records = load_or_run(cfg, cache_dir, use_cache=True)
    assert records  # stale cache was ignored and recomputed


@pytest.mark.parametrize(
    "damage",
    [
        lambda text: text[: len(text) // 2],  # truncated write
        lambda text: "not json at all",
        lambda text: "",
        lambda text: json.dumps({"schema_version": 1, "records": [{"t": 1.0}]}),
        lambda text: json.dumps([1, 2, 3]),
    ],
)
def test_corrupt_cache_file_is_a_miss_and_rewritten(tmp_path, damage):
    cfg = small_config()
    cache_dir = str(tmp_path / "cache")
    path = tmp_path / "cache" / f"{cache_key(cfg)}.json"
    first = load_or_run(cfg, cache_dir, use_cache=True)
    path.write_text(damage(path.read_text()))
    assert load_or_run(cfg, cache_dir, use_cache=True) == first
    assert json.loads(path.read_text())["key"] == cache_key(cfg)


def _edit_cached_records(cfg, cache_dir, edit):
    """Fill the cache for ``cfg``, apply ``edit`` to its stored records, and
    return the fresh records and report text that a miss must reproduce."""
    records = load_or_run(cfg, str(cache_dir))
    path = cache_dir / f"{cache_key(cfg)}.json"
    report = path.read_text()
    doc = json.loads(report)
    edit(doc["records"])
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return records, report


@pytest.mark.parametrize(
    "edit",
    [
        lambda records: records.pop(),
        lambda records: records.append(dict(records[-1])),
        lambda records: records.clear(),
        lambda records: records.reverse(),
        lambda records: records[1].update(t=math.nextafter(records[1]["t"], math.inf)),
    ],
    ids=["one-missing", "one-extra", "empty", "out-of-order", "t-off-grid"],
)
def test_report_without_one_record_per_grid_point_is_a_miss_and_rewritten(tmp_path, edit):
    cfg = small_config()
    cache_dir = tmp_path / "cache"
    fresh, report = _edit_cached_records(cfg, cache_dir, edit)
    assert len(fresh) == len(t_grid(cfg)) == 2
    assert load_or_run(cfg, str(cache_dir)) == fresh
    assert (cache_dir / f"{cache_key(cfg)}.json").read_text() == report


@pytest.mark.parametrize(
    "name, value",
    [
        ("eps_bar_t", None),
        ("eps", "oops"),
        ("ratio2", True),
        ("norm_drift", [1e-15]),
        ("slope", "steep"),
        ("slope", False),
        ("error", 5),
    ],
)
def test_record_with_a_wrong_typed_field_is_a_miss_and_rewritten(tmp_path, name, value):
    cfg = small_config()
    cache_dir = tmp_path / "cache"
    fresh, report = _edit_cached_records(
        cfg, cache_dir, lambda records: records[0].update({name: value})
    )
    assert load_or_run(cfg, str(cache_dir)) == fresh
    assert (cache_dir / f"{cache_key(cfg)}.json").read_text() == report


def test_cached_failed_points_with_nan_fields_are_served(tmp_path, monkeypatch):
    cfg = small_config(max_steps=25)
    first = load_or_run(cfg, str(tmp_path))
    assert all(not r.ok and math.isnan(r.eps) for r in first)
    monkeypatch.setattr(sweep, "run_sweep", None)
    again = load_or_run(cfg, str(tmp_path))
    # NaN != NaN, so compare the records' JSON text
    as_json = lambda records: json.dumps([sweep._record_to_dict(r) for r in records])  # noqa: E731
    assert as_json(again) == as_json(first)


def test_records_only_cache_file_is_a_miss_and_rewritten_as_report(tmp_path):
    # The layout cache files had before they held the whole JSON report.
    cfg = small_config()
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    key = cache_key(cfg)
    path = cache_dir / f"{key}.json"
    computed = run_sweep(cfg)
    stale = [replace(r, eps=0.5) for r in computed]
    path.write_text(json.dumps({
        "schema_version": sweep.SCHEMA_VERSION,
        "key": key,
        "config": sweep._canonical_config(cfg),
        "records": [sweep._record_to_dict(r) for r in stale],
    }))
    assert load_or_run(cfg, str(cache_dir)) == computed
    report = tmp_path / "report.json"
    emit_json(computed, cfg, str(report))
    assert path.read_bytes() == report.read_bytes()


def test_a_miss_computes_the_estimates_once(tmp_path, monkeypatch):
    cfg = small_config(model=ModelSpec("two-level", k=1e-2))
    report = tmp_path / "report.json"
    emit_json(run_sweep(cfg), cfg, str(report))
    calls = []
    estimates = sweep.estimates
    monkeypatch.setattr(sweep, "estimates", lambda c: calls.append(c) or estimates(c))
    cache_dir = tmp_path / "cache"
    load_or_run(cfg, str(cache_dir))
    assert calls == [cfg]
    assert (cache_dir / f"{cache_key(cfg)}.json").read_bytes() == report.read_bytes()
    load_or_run(cfg, str(cache_dir))
    assert calls == [cfg]


def test_report_stored_under_another_key_is_a_miss(tmp_path):
    cfg, other = small_config(), small_config(t_max=20.0)
    cache_dir = tmp_path / "cache"
    load_or_run(other, str(cache_dir))
    misplaced = cache_dir / f"{cache_key(other)}.json"
    path = cache_dir / f"{cache_key(cfg)}.json"
    path.write_bytes(misplaced.read_bytes())
    assert load_or_run(cfg, str(cache_dir)) == run_sweep(cfg)
    assert json.loads(path.read_text())["key"] == cache_key(cfg)


def test_cache_writer_uses_its_own_temporary_file(tmp_path):
    cfg = small_config()
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    # a leftover from a writer that died mid-write must not get in the way
    (cache_dir / f"{cache_key(cfg)}.json.tmp").write_text("{")
    load_or_run(cfg, str(cache_dir), use_cache=True)
    names = sorted(p.name for p in cache_dir.iterdir())
    assert names == [f"{cache_key(cfg)}.json", f"{cache_key(cfg)}.json.tmp"]


def synthetic_record(**overrides):
    base = dict(
        t=100.0,
        eps=0.01,
        eps_bar_t=0.012,
        eps_bar_1=0.014,
        eps_bar_2=0.4,
        ratio1=1.1666,
        ratio2=33.0,
        eps_t2=120.0,
        slope=None,
        norm_drift=1e-11,
    )
    base.update(overrides)
    return SweepRecord(**base)


def test_emit_csv_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    emit_csv([], str(out))
    assert out.read_text() == CSV_HEADER + "\n"


def test_emit_csv_row_layout(tmp_path):
    out = tmp_path / "one.csv"
    emit_csv([synthetic_record()], str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "100.0"
    assert fields[1] == "0.01"
    assert fields[8] == ""  # slope not computable
    assert float(fields[9]) == 1e-11
    emit_csv([synthetic_record(slope=-1.25)], str(out))
    assert out.read_text().splitlines()[1].split(",")[8] == "-1.25"


def test_record_fields_map_onto_csv_header():
    # CSV column names spell the total time T; the fields spell it t
    names = [f.name for f in dataclasses.fields(SweepRecord) if f.name != "error"]
    header = [c.replace("T", "t").replace("epst2", "eps_t2") for c in CSV_HEADER.split(",")]
    assert names == header


def test_record_serializer_round_trip():
    records = [
        synthetic_record(),
        synthetic_record(slope=-1.25, eps=0.1 + 0.2),
        synthetic_record(error="step limit exceeded"),
    ]
    for r in records:
        d = sweep._record_to_dict(r)
        assert list(d) == [f.name for f in dataclasses.fields(SweepRecord)]
        assert sweep._record_from_dict(json.loads(json.dumps(d))) == r
    # a record without an error key loads with error None
    legacy = sweep._record_to_dict(records[0])
    del legacy["error"]
    assert sweep._record_from_dict(legacy) == records[0]


def test_emit_csv_shortest_round_trip_floats(tmp_path):
    value = 0.1 + 0.2  # 0.30000000000000004
    out = tmp_path / "rt.csv"
    emit_csv([synthetic_record(eps=value)], str(out))
    text = out.read_text().splitlines()[1].split(",")[1]
    assert float(text) == value


def test_emit_json_metadata(tmp_path):
    cfg = small_config(model=ModelSpec("two-level", k=1e-3), t_min=30.0, t_max=40.0)
    records = [synthetic_record()]
    out = tmp_path / "out.json"
    emit_json(records, cfg, str(out))
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["config"]["model"]["k"] == 1e-3
    est1 = doc["estimates"]["order-1"]
    assert est1["source"] == "base-k0"
    assert est1["coefficient"] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert doc["estimates"]["order-2"]["level_terms"]
    ref = doc["reference_scaling"]
    assert ref["label"] == "approximate"
    assert ref["sqrt_prefactor_coefficient"] == pytest.approx(
        math.sqrt(1000.0 * 2.0), rel=1e-12
    )
    assert "note" in ref
    assert doc["records"][0]["eps"] == 0.01


def test_csv_bytes_deterministic(tmp_path):
    cfg = small_config()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_sweep(cfg), str(a))
    emit_csv(run_sweep(cfg), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_failed_points_recorded_in_row():
    cfg = small_config(max_steps=25)
    records = run_sweep(cfg)
    assert records
    for r in records:
        assert not r.ok
        assert "step limit" in r.error
        assert math.isnan(r.eps)
        assert r.slope is None
    # analytic estimate columns survive a failed evolution
    assert records[0].eps_bar_1 == pytest.approx(math.sqrt(2.0) / records[0].t, rel=1e-12)


def test_slope_column_filled_in_interior():
    ts = np.geomspace(20.0, 200.0, 9)
    records = [synthetic_record(t=t, eps_bar_t=5.0 / t**2) for t in ts]
    from adiasweep.sweep import _fill_slopes

    filled = _fill_slopes(records)
    assert filled[0].slope is None
    assert filled[1].slope is None
    for r in filled[2:-2]:
        assert r.slope == pytest.approx(-2.0, abs=1e-9)
    assert filled[-1].slope is None
