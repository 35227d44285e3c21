import inspect
import json
import os
import subprocess
import sys

import pytest

from adiasweep import acceptance, cli, hamiltonians, metrics, sweep
from adiasweep.cli import main
from adiasweep.config import (
    PARSERS,
    ConfigError,
    merge_settings,
    parse_config_file,
    sweep_config_from_settings,
)
from adiasweep.hamiltonians import MODELS, ModelSpec
from adiasweep.sweep import CSV_HEADER, cache_key, emit_json, load_or_run

SMALL_SWEEP = [
    "sweep",
    "--model", "two-level",
    "--k", "0",
    "--tmin", "15",
    "--tmax", "20",
    "--ppd", "10",
    "--samples", "16",
    "--rtol", "1e-9",
    "--atol", "1e-11",
]


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        """
        # comment line
        model = two-level
        k = 1e-3   # trailing comment
        t_min = 30
        samples = 32
        """
    )
    values = parse_config_file(str(cfg))
    assert values["model"] == "two-level"
    assert values["k"] == "1e-3"
    settings = merge_settings(values, {"samples": 64, "t_max": 60.0})
    assert settings["samples"] == 64  # CLI override wins
    assert settings["k"] == 1e-3
    sweep_cfg = sweep_config_from_settings(settings)
    assert sweep_cfg.model.k == 1e-3
    assert sweep_cfg.typical.samples == 64


def test_cache_key_of_a_file_plus_flags_is_pinned(tmp_path):
    # Every sweep key differs from its default; the hex digest must not move
    # when the parsing of settings changes, or every cached record goes stale.
    cfg = tmp_path / "pin.cfg"
    cfg.write_text(
        "model = three-level-case1\nk = 2e-3\nk1 = 1e-3\nk2 = 3e-3\nn = 2\n"
        "E1 = 1.5\nE2 = 0.75\nE3 = 2\nprefactor = as-printed\n"
        "t_min = 40\nt_max = 900\npoints_per_decade = 5\n"
        "tau0 = 2\nsamples = 24\nreduction = mean\norders = 1,3\n"
        "rtol = 1e-9\natol = 1e-11\ns_start = 0.125\nmax_steps = 12345\n"
    )
    flags = {"k3": "4e-3", "s_end": "0.875", "workers": "3", "t_max": "1000"}
    flags["orders"] = "2,1,3"
    sweep_cfg = sweep_config_from_settings(merge_settings(parse_config_file(str(cfg)), flags))
    assert sweep_cfg.model.energies == (1.5, 0.75, 2.0)
    assert sweep_cfg.estimate_orders == (2, 1, 3)
    assert sweep_cfg.workers == 3
    assert cache_key(sweep_cfg) == "162f8e36fbff646a0e0c79419cf3ef95faaf4859b460135a5efd1ba6b61e6272"


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode = two-level\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_file(str(cfg))


def test_config_file_rejects_bad_value(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model = two-level\nk = abc\n")
    with pytest.raises(ConfigError, match="invalid value"):
        merge_settings(parse_config_file(str(cfg)), {})


# A value for every settings key, other than its default.
KEY_TEXTS = {
    "model": "three-level-case2", "k": "2e-3", "k1": "1e-3", "k2": "3e-3", "k3": "4e-3",
    "E0": "0.5", "E1": "1.5", "E2": "0.75", "E3": "2", "n": "2", "prefactor": "as-printed",
    "t_min": "40", "t_max": "900", "tau0": "2", "rtol": "1e-9", "atol": "1e-11",
    "s_start": "0.125", "s_end": "0.875", "points_per_decade": "5", "samples": "24",
    "max_steps": "12345", "workers": "3", "reduction": "mean", "orders": "1,3",
    "out": "x.csv", "format": "json", "cache_dir": "elsewhere", "no_cache": "true",
}
GRID_FLAGS = {"t_min": "--tmin", "t_max": "--tmax", "points_per_decade": "--ppd"}


@pytest.mark.parametrize("command", ["sweep", "estimate"])
@pytest.mark.parametrize("key", sorted(PARSERS))
def test_every_key_is_a_flag_of_sweep_and_estimate(command, key, tmp_path):
    # The flag and the same text in a config file give the same settings.
    assert set(KEY_TEXTS) == set(PARSERS)
    text = KEY_TEXTS[key]
    flag = GRID_FLAGS.get(key, "--" + key.replace("_", "-"))
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{key} = {text}\n")
    parse = cli._build_parser().parse_args
    from_flag = cli._settings(parse([command, flag] + ([] if key == "no_cache" else [text])))
    from_file = cli._settings(parse([command, "--config", str(cfg)]))
    assert from_flag == from_file == {key: PARSERS[key](text)}


def test_estimate_takes_the_window_of_the_sweep(capsys):
    argv = ["--model", "two-level", "--k", "1e-2", "--s-start", "0.2", "--orders", "2"]
    assert main(["estimate"] + argv) == 0
    out = capsys.readouterr().out
    (row,) = [line.split() for line in out.splitlines() if line.startswith("  2 ")]
    cfg = sweep_config_from_settings(cli._settings(cli._build_parser().parse_args(["sweep"] + argv)))
    coefficient = sweep.sweep_metadata(cfg)["estimates"]["order-2"]["coefficient"]
    assert row[3] == f"{coefficient:.6e}"


def test_sweep_csv_end_to_end(tmp_path, capsys):
    out = tmp_path / "records.csv"
    cache = tmp_path / "cache"
    argv = SMALL_SWEEP + ["--out", str(out), "--cache-dir", str(cache)]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "T,eps,eps_bar_T,eps_bar_1,eps_bar_2,ratio1,ratio2,epsT2,slope,norm_drift"
    assert len(lines) >= 3
    # second run hits the cache and produces the identical file
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_csv_request_rewrites_a_cached_record_with_a_wrong_typed_field(tmp_path, capsys):
    cache = tmp_path / "cache"
    fresh, served = tmp_path / "fresh.csv", tmp_path / "served.csv"
    assert main(SMALL_SWEEP + ["--out", str(fresh), "--cache-dir", str(cache)]) == 0
    (stored,) = cache.glob("*.json")
    report = stored.read_text()
    doc = json.loads(report)
    doc["records"][0]["eps"] = "oops"
    stored.write_text(json.dumps(doc))
    assert main(SMALL_SWEEP + ["--out", str(served), "--cache-dir", str(cache)]) == 0
    assert served.read_bytes() == fresh.read_bytes()
    assert stored.read_text() == report


def test_sweep_json_output(tmp_path):
    out = tmp_path / "records.json"
    argv = SMALL_SWEEP + [
        "--out", str(out), "--format", "json", "--cache-dir", str(tmp_path / "c"),
    ]
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["records"]
    assert doc["estimates"]["order-1"]["source"] == "model"


def test_sweep_json_is_the_cache_file_byte_for_byte(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache"
    argv = SMALL_SWEEP + ["--format", "json", "--cache-dir", str(cache)]
    miss, hit, uncached = (tmp_path / f"{name}.json" for name in ("miss", "hit", "uncached"))
    assert main(argv + ["--out", str(miss)]) == 0
    (stored,) = cache.glob("*.json")
    # A hit writes out the stored report: no estimate is computed again.
    with monkeypatch.context() as m:
        m.setattr(sweep, "sweep_metadata", None)
        assert main(argv + ["--out", str(hit)]) == 0
    assert main(argv + ["--no-cache", "--out", str(uncached)]) == 0
    text = stored.read_bytes()
    assert miss.read_bytes() == text
    assert hit.read_bytes() == text
    assert uncached.read_bytes() == text
    cfg = sweep_config_from_settings(cli._settings(cli._build_parser().parse_args(argv)))
    assert stored.name == f"{cache_key(cfg)}.json"
    emitted = tmp_path / "emitted.json"
    emit_json(load_or_run(cfg, str(cache)), cfg, str(emitted))
    assert emitted.read_bytes() == text


OUTPUT_REQUESTS = {
    "csv": SMALL_SWEEP + ["--format", "csv"],
    "uncached-json": SMALL_SWEEP + ["--format", "json", "--no-cache"],
    "cached-json": SMALL_SWEEP + ["--format", "json"],
    "schedule-dump": ["schedule-dump", "--points", "41"],
}


@pytest.mark.parametrize("prefill", ["longer", "shorter"])
@pytest.mark.parametrize("name", OUTPUT_REQUESTS)
def test_an_existing_output_is_overwritten_byte_for_byte(name, prefill, tmp_path, monkeypatch, capsys):
    # Outputs are overwritten in place: a writer that did not cut the file to
    # the new length would leave the tail of a longer old file behind.
    argv = OUTPUT_REQUESTS[name]
    if argv[0] == "sweep":
        argv = argv + ["--cache-dir", str(tmp_path / "cache")]
    fresh, existing = tmp_path / "fresh", tmp_path / "existing"
    assert main(argv + ["--out", str(fresh)]) == 0
    expected = fresh.read_bytes()
    size = 2 * len(expected) if prefill == "longer" else len(expected) // 2
    existing.write_bytes(b"x" * size)
    if "--no-cache" not in argv:
        monkeypatch.setattr(sweep, "run_sweep", None)  # served from the cache
    assert main(argv + ["--out", str(existing)]) == 0
    assert existing.read_bytes() == expected


@pytest.mark.parametrize("name", OUTPUT_REQUESTS)
def test_output_to_a_device_exits_zero(name, tmp_path, capsys):
    # /dev/null is no regular file: it is written but not cut to length.  A
    # cached request runs twice, so both the miss and the hit write to it.
    argv = OUTPUT_REQUESTS[name]
    if argv[0] == "sweep":
        argv = argv + ["--cache-dir", str(tmp_path / "cache")]
    assert main(argv + ["--out", os.devnull]) == 0
    assert main(argv + ["--out", os.devnull]) == 0


def test_uncached_json_sweep_computes_the_estimates_once(tmp_path, monkeypatch, capsys):
    calls = []
    estimates = sweep.estimates

    def counted(cfg):
        calls.append(cfg)
        return estimates(cfg)

    monkeypatch.setattr(sweep, "estimates", counted)
    monkeypatch.setattr(cli, "estimates", counted)
    out = tmp_path / "uncached.json"
    assert main(SMALL_SWEEP + ["--format", "json", "--no-cache", "--out", str(out)]) == 0
    assert len(calls) == 1
    assert json.loads(out.read_text())["estimates"]["order-1"]["source"] == "model"


def test_sweep_config_file_with_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "r.csv"
    cfg.write_text(
        "model = two-level\nk = 0\nt_min = 15\nt_max = 20\npoints_per_decade = 10\n"
        f"samples = 16\nrtol = 1e-9\natol = 1e-11\nout = {out}\nno_cache = true\n"
    )
    assert main(["sweep", "--config", str(cfg), "--tmax", "18"]) == 0
    assert out.exists()


def test_sweep_exit_code_on_config_error(capsys):
    assert main(["sweep", "--model", "two-level", "--tmin", "2", "--tmax", "50"]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_sweep_exit_code_on_numerical_failure(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "model = two-level\nk = 0\nt_min = 15\nt_max = 16\nsamples = 16\n"
        f"max_steps = 20\nout = {tmp_path/'x.csv'}\nno_cache = true\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: T=15: step limit exceeded")
    assert "s_reached=" in err
    assert "steps_taken=20" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--k", "nan"],
        ["--tmax", "inf"],
        ["--tmin", "nan"],
        ["--rtol", "nan"],
        ["--tau0", "inf"],
        ["--E0", "1", "--E1", "nan"],
    ],
)
def test_sweep_rejects_non_finite_input(flags, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("rejected input must not reach the sweep")

    monkeypatch.setattr("adiasweep.cli.load_or_run", no_run)
    argv = ["sweep", "--model", "two-level", "--tmin", "15", "--tmax", "20"] + flags
    assert main(argv) == 1
    assert "configuration error" in capsys.readouterr().err


def _forbid_run_sweep(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("rejected input must not reach the sweep")

    monkeypatch.setattr(sweep, "run_sweep", no_run)


@pytest.mark.parametrize("out", ["missing/x.csv", ""], ids=["missing-directory", "directory"])
def test_sweep_rejects_unwritable_output_path(out, tmp_path, monkeypatch, capsys):
    _forbid_run_sweep(monkeypatch)
    argv = SMALL_SWEEP + ["--out", str(tmp_path / out), "--cache-dir", str(tmp_path / "c")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "not a file in an existing directory" in err
    assert "Traceback" not in err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("out", ["", "newdir/"], ids=["empty", "trailing-slash"])
@pytest.mark.parametrize("command", ["sweep", "schedule-dump"])
def test_an_output_path_that_names_no_file_is_refused_before_any_work(
    command, out, tmp_path, monkeypatch, capsys
):
    _forbid_run_sweep(monkeypatch)
    monkeypatch.chdir(tmp_path)
    argv = SMALL_SWEEP + ["--no-cache"] if command == "sweep" else ["schedule-dump"]
    assert main(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "not a file in an existing directory" in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("below", ["", "sub"], ids=["is-a-file", "under-a-file"])
def test_sweep_rejects_cache_dir_that_is_a_file(below, tmp_path, monkeypatch, capsys):
    _forbid_run_sweep(monkeypatch)
    blocker = tmp_path / "cache"
    blocker.write_text("not a directory\n")
    cache_dir = blocker / below if below else blocker
    argv = SMALL_SWEEP + ["--out", str(tmp_path / "x.csv"), "--cache-dir", str(cache_dir)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "is not a directory" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "flags, file_text",
    [
        (["--k", "abc"], ""),
        (["--samples", "1.5"], ""),
        (["--model", "six-level"], ""),
        (["--reduction", "median"], ""),
        (["--prefactor", "bogus"], ""),
        ([], "format = xml\n"),
        ([], "prefactor = bogus\n"),
        ([], "orders = 0\n"),
        (["--rtol", "0"], ""),
        (["--atol=-1e-12"], ""),
        (["--s-start", "0.9", "--s-end", "0.1"], ""),
        ([], "max_steps = 0\n"),
    ],
    ids=[
        "k", "samples", "model", "reduction", "prefactor",
        "file-format", "file-prefactor", "file-orders",
        "rtol-zero", "atol-negative", "inverted-window", "file-max-steps",
    ],
)
def test_sweep_rejects_malformed_values(flags, file_text, tmp_path, monkeypatch, capsys):
    # Flags and config files share one parser per key, so both are refused
    # with the configuration exit code before anything runs.
    def no_run(*args, **kwargs):
        raise AssertionError("rejected input must not reach the sweep")

    monkeypatch.setattr("adiasweep.cli.load_or_run", no_run)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = two-level-exp\nk = 1e-2\nt_min = 15\nt_max = 20\n" + file_text)
    assert main(["sweep", "--config", str(cfg)] + flags) == 1
    assert "configuration error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "estimate"])
@pytest.mark.parametrize(
    "flags, key",
    [
        (["--model", "three-level-case1", "--k", "1e-3", "--E0", "5", "--E1", "1", "--E2", "1",
          "--E3", "1"], "E0"),
        (["--model", "two-level", "--k", "1e-3", "--E0", "1", "--E1", "1", "--E3", "7"], "E3"),
        (["--model", "two-level", "--k", "1e-3", "--k2", "0.5"], "k2"),
        (["--model", "two-level-exp", "--k", "1e-2", "--n", "3"], "n"),
        (["--model", "two-level-exp", "--k", "1e-2", "--prefactor", "as-printed"], "prefactor"),
        (["--model", "two-level-exp", "--k", "1e-3", "--n", "1"], "n"),
        (["--model", "two-level-exp", "--k", "1e-3", "--prefactor", "midpoint-normalized"],
         "prefactor"),
    ],
    ids=[
        "E0-three-level", "E3-two-level", "k2-two-level", "n-exponential", "prefactor-exponential",
        "default-n-exponential", "default-prefactor-exponential",
    ],
)
def test_model_keys_the_model_does_not_read_are_refused(
    command, flags, key, tmp_path, monkeypatch, capsys
):
    # Each key would otherwise be ignored; a set k2 would also move the cache key.
    # A key set to its default reaches ModelSpec as an unset field, so only
    # the config layer can refuse it.
    def no_run(*args, **kwargs):
        raise AssertionError("rejected input must not reach the sweep")

    monkeypatch.setattr("adiasweep.cli.load_or_run", no_run)
    argv = [command] + flags + (["--out", str(tmp_path / "x.csv")] if command == "sweep" else [])
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("configuration error:") and f"does not read {key}" in err
    assert out == ""


@pytest.mark.parametrize("model", MODELS)
def test_every_model_refuses_exactly_the_fields_it_does_not_read(model):
    # One rule, the row's read set, for ModelSpec and the config alike, so a
    # row added later is covered here.  k1..k3 are read by a model with
    # several couplings, one per coupling; order and prefactor by a pulse
    # whose builder takes them.
    row = MODELS[model]
    pulse_builder = hamiltonians.PULSES[row.pulse][0]
    builder_params = inspect.signature(pulse_builder).parameters
    overrides = len(row.couplings) if len(row.couplings) > 1 else 0
    cases = {
        # field: (read?, non-default value, settings key, value set in the config)
        "k1": (overrides >= 1, 1e-3, "k1", 1e-3),
        "k2": (overrides >= 2, 1e-3, "k2", 1e-3),
        "k3": (overrides >= 3, 1e-3, "k3", 1e-3),
        "order": ("order" in builder_params, 3, "n", 1),
        "prefactor": ("prefactor" in builder_params, "as-printed", "prefactor",
                      "midpoint-normalized"),
    }
    assert set(cases) == set(hamiltonians.PER_MODEL_FIELDS)
    for field, (read, value, key, setting) in cases.items():
        assert (field in row.reads) == read, field
        settings = {"model": model, "k": 1e-3, key: setting}
        if read:
            ModelSpec(model, k=1e-3, **{field: value})
            sweep_config_from_settings(settings)
            continue
        with pytest.raises(ValueError, match=f"model {model} does not read {field}$"):
            ModelSpec(model, k=1e-3, **{field: value})
        with pytest.raises(ConfigError, match=f"model {model} does not read {key}$"):
            sweep_config_from_settings(settings)


def test_settings_with_an_unknown_model_are_a_configuration_error():
    # Settings built without the parsers reach the model table unchecked.
    with pytest.raises(ConfigError, match="unknown model 'five-level'"):
        sweep_config_from_settings({"model": "five-level"})


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--model", "two-level", "--bogus-flag"],
        ["schedule-dump", "--points", "abc"],
        [],
    ],
    ids=["unknown-flag", "points-abc", "no-subcommand"],
)
def test_usage_errors_exit_with_configuration_code(argv, capsys):
    assert main(argv) == 1
    assert "configuration error:" in capsys.readouterr().err


def test_one_parser_serves_successive_calls(tmp_path, capsys):
    # The parser is built once per process; no flag value may carry over.
    assert cli._build_parser() is cli._build_parser()
    cache = tmp_path / "cache"
    first, last = tmp_path / "a.json", tmp_path / "b.csv"
    argv = SMALL_SWEEP + ["--cache-dir", str(cache)]
    assert main(argv + ["--format", "json", "--no-cache", "--out", str(first)]) == 0
    assert json.loads(first.read_text())["records"]
    assert not cache.exists()
    assert main(argv + ["--bogus-flag"]) == 1
    assert main(argv + ["--out", str(last)]) == 0
    assert last.read_text().splitlines()[0] == CSV_HEADER
    assert len(list(cache.glob("*.json"))) == 1


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    assert "--tmax" in capsys.readouterr().out


def test_estimate_output(capsys):
    assert main(["estimate", "--model", "three-level-case2", "--k", "1e-3"]) == 0
    out = capsys.readouterr().out
    assert "b_n" in out
    assert "0.000000e+00" in out  # order-1 coefficient vanishes
    assert "approximate order-2 reference" in out


@pytest.mark.parametrize(
    "prefactor, printed", [("midpoint-normalized", "2.060198"), ("as-printed", "1.903305")]
)
def test_estimate_ratio_is_the_json_reports_ratio(capsys, prefactor, printed):
    # (n+1)/(1+k)^n = 1.980198, times or divided by the prefactor's (1+2k)^(2n)
    argv = ["--model", "two-level", "--k", "1e-2", "--prefactor", prefactor]
    assert main(["estimate"] + argv) == 0
    assert f"(exact/substituted = {printed})" in capsys.readouterr().out
    cfg = sweep_config_from_settings(cli._settings(cli._build_parser().parse_args(["sweep"] + argv)))
    ratio = sweep.sweep_metadata(cfg)["reference_scaling"]["exact_to_substituted_ratio"]
    assert f"{ratio:.6f}" == printed


def test_exponential_pulse_has_no_reference_shortcut(capsys):
    argv = ["--model", "two-level-exp", "--k", "1e-2"]
    assert main(["estimate"] + argv) == 0
    assert "reference" not in capsys.readouterr().out
    cfg = sweep_config_from_settings(cli._settings(cli._build_parser().parse_args(["sweep"] + argv)))
    assert "reference_scaling" not in sweep.sweep_metadata(cfg)


def test_estimate_header_names_an_order_only_for_a_rational_pulse(capsys):
    for name, row in MODELS.items():
        assert main(["estimate", "--model", name, "--k", "1e-2"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith(f"model={name} k=0.01 ")
        assert (" order=1 " in header) == (row.pulse == "rational"), header


def test_estimate_prints_nothing_before_a_numerical_failure(capsys):
    # E0 = 0 is a zero level splitting, so the gap vanishes at s=0 (where the
    # coupling is off): no model line or table header is printed first.
    assert main(["estimate", "--model", "two-level", "--E0", "0", "--E1", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure: vanishing gap at s=0.0" in captured.err


def test_one_endpoint_walk_per_path(monkeypatch, capsys):
    # Two-level k=1e-2 needs the model path (orders 1, 2, 3) and its base path
    # (the order-1 fallback and the reference bracket): two ends each.
    calls = []
    eigensystem = metrics.hermitian_eigensystem
    monkeypatch.setattr(metrics, "hermitian_eigensystem", lambda h: calls.append(h) or eigensystem(h))
    argv = ["--model", "two-level", "--k", "1e-2", "--orders", "1,2,3"]
    cfg = sweep_config_from_settings(cli._settings(cli._build_parser().parse_args(["sweep"] + argv)))
    sweep.sweep_metadata(cfg)
    assert len(calls) == 4
    calls.clear()
    assert main(["estimate"] + argv) == 0
    assert len(calls) == 4
    assert "approximate order-2 reference" in capsys.readouterr().out


TINY_RUN = {"--model": "two-level", "--out": "x.csv", "--tmin": "15", "--tmax": "15", "--samples": "16"}


@pytest.mark.parametrize("command", ["sweep", "estimate"])
@pytest.mark.parametrize("prefix, flag", [("--ou", "--out"), ("--mod", "--model")])
def test_abbreviated_flags_are_unknown(command, prefix, flag, tmp_path, monkeypatch, capsys):
    # Each key has one spelling: a prefix of a flag does not stand for it.
    monkeypatch.chdir(tmp_path)
    argv = [command, "--no-cache"]
    for name, value in TINY_RUN.items():
        argv += [prefix if name == flag else name, value]
    assert main(argv) == 1
    assert f"unrecognized arguments: {prefix} " in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_reference_ratio_is_nan_when_the_shortcut_vanishes(capsys):
    # E1 = 0 decouples the ground level: every coefficient, the substituted
    # one included, is 0, and the ratio is undefined rather than a crash.
    argv = ["--model", "three-level-case1", "--k", "1e-2", "--E1", "0", "--E2", "0", "--E3", "1"]
    assert main(["estimate"] + argv) == 0
    assert "(exact/substituted = nan)" in capsys.readouterr().out


def _estimate_orders(out):
    return [int(line.split()[0]) for line in out.splitlines() if line.split()[0].isdigit()]


def test_estimate_orders_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "est.cfg"
    cfg.write_text("model = two-level\nk = 1e-3\nn = 3\norders = 3\n")
    assert main(["estimate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert _estimate_orders(out) == [3]
    assert "  3   0.000000e+00   0.000000e+00   0.000000e+00" in out
    # the flag still wins over the file, and the default stays 1,2
    assert main(["estimate", "--config", str(cfg), "--orders", "2,4"]) == 0
    assert _estimate_orders(capsys.readouterr().out) == [2, 4]
    assert main(["estimate", "--model", "two-level"]) == 0
    assert _estimate_orders(capsys.readouterr().out) == [1, 2]
    assert main(["estimate", "--model", "two-level", "--orders", "1,x"]) == 1
    assert "invalid value for orders" in capsys.readouterr().err


def test_estimate_rejects_unknown_model(capsys):
    assert main(["estimate", "--model", "six-level"]) == 1
    assert "configuration error:" in capsys.readouterr().err


def test_schedule_dump(tmp_path):
    out = tmp_path / "sched.csv"
    assert main([
        "schedule-dump", "--family", "rational", "--k", "1e-3",
        "--points", "11", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "s,value,deriv1"
    assert len(lines) == 12
    s, value, d1 = (float(x) for x in lines[6].split(","))
    assert s == 0.5
    assert value == 0.25
    assert abs(d1) < 1e-12


def test_schedule_dump_exponential(tmp_path):
    out = tmp_path / "exp.csv"
    assert main([
        "schedule-dump", "--family", "exponential", "--k", "1e-2",
        "--points", "5", "--out", str(out),
    ]) == 0
    rows = out.read_text().splitlines()[1:]
    assert float(rows[0].split(",")[1]) == 0.0
    assert float(rows[-1].split(",")[1]) == 0.0


@pytest.mark.parametrize("k", ["nan", "inf", "-1"])
def test_schedule_dump_rejects_bad_k(k, tmp_path, capsys):
    out = tmp_path / "sched.csv"
    for family in ("rational", "exponential", "ramp", "parabola"):
        argv = ["schedule-dump", "--family", family, "--k", k, "--out", str(out)]
        assert main(argv) == 1
        assert "configuration error:" in capsys.readouterr().err
    assert not out.exists()


def test_schedule_dump_k_zero_is_the_parabola(tmp_path):
    out = tmp_path / "sched.csv"
    for family in ("rational", "exponential", "ramp"):
        argv = ["schedule-dump", "--family", family, "--k", "0", "--points", "5", "--out", str(out)]
        assert main(argv) == 0
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        assert [float(value) for _, value, _ in rows] == [0.0, 0.1875, 0.25, 0.1875, 0.0]


def test_schedule_dump_rejects_too_few_points(tmp_path, monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("the point count is checked before the schedule is built")

    monkeypatch.setattr("adiasweep.cli.rational_pulse", no_build)
    out = tmp_path / "sched.csv"
    assert main(["schedule-dump", "--points", "1", "--out", str(out)]) == 1
    assert "at least 2 sample points" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out", ["missing/x.csv", ""], ids=["missing-directory", "directory"])
def test_schedule_dump_rejects_unwritable_output_path(out, tmp_path, capsys):
    assert main(["schedule-dump", "--points", "5", "--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "not a file in an existing directory" in err
    assert "Traceback" not in err


def test_check_rejects_cache_dir_under_a_file(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("an unusable cache directory must not run the suite")

    monkeypatch.setattr(acceptance, "run_all", no_run)
    blocker = tmp_path / "cache"
    blocker.write_text("not a directory\n")
    assert main(["check", "--only", "6", "--cache-dir", str(blocker / "sub")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "is not a directory" in err
    assert "Traceback" not in err


def test_check_single_fast_criterion(tmp_path, capsys):
    assert main(["check", "--only", "1", "--cache-dir", str(tmp_path / "c")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    assert "analytic estimator" in out


def test_check_rejects_unknown_criterion(tmp_path, capsys):
    assert main(["check", "--only", "42", "--cache-dir", str(tmp_path / "c")]) == 1


def test_check_rejects_empty_selection(monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("an empty selection must not run the suite")

    monkeypatch.setattr(acceptance, "run_all", no_run)
    for only in (",", "", " , "):
        assert main(["check", "--only", only, "--no-cache"]) == 1
        assert "configuration error:" in capsys.readouterr().err


def test_estimate_rejects_empty_orders(tmp_path, capsys):
    # Orders are checked while the settings are read, before the table starts.
    cfg = tmp_path / "est.cfg"
    for orders in (",", "0", "1,-2"):
        cfg.write_text(f"model = two-level\norders = {orders}\n")
        flag = ["estimate", "--model", "two-level", "--orders", orders]
        for argv in (flag, ["estimate", "--config", str(cfg)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert "invalid value for orders" in captured.err
            assert captured.out == ""


def test_importing_the_cli_leaves_the_process_pool_unimported():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, adiasweep.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv, status",
    [
        (["schedule-dump", "--points", "3"], "wrote 3 samples to "),
        (SMALL_SWEEP + ["--tmax", "15", "--no-cache"], "wrote 1 records to "),
    ],
    ids=["schedule-dump", "sweep"],
)
def test_output_to_a_redirected_stdout_is_whole(argv, status, tmp_path):
    # --out /dev/stdout > f opens f a second time at offset 0; the status line
    # goes to stderr then, or it would overwrite the head of the output
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}

    def run(out, stdout):
        with open(stdout, "wb") as fh:
            done = subprocess.run(
                [sys.executable, "-m", "adiasweep.cli", *argv, "--out", out],
                env=env, cwd=tmp_path, stdout=fh, stderr=subprocess.PIPE, timeout=120,
            )
        assert done.returncode == 0
        return done.stderr.decode()

    assert run(str(tmp_path / "regular"), tmp_path / "regular.log") == ""
    assert (tmp_path / "regular.log").read_text().startswith(status + str(tmp_path / "regular"))
    err = run("/dev/stdout", tmp_path / "redirected")
    assert err.startswith(status + "/dev/stdout")
    expected = (tmp_path / "regular").read_bytes()
    assert expected.count(b"\n") >= 2
    assert (tmp_path / "redirected").read_bytes() == expected
