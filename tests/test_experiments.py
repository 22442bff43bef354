import json
import math
from pathlib import Path

import numpy as np
import pytest

from bandsim.cli import main
from bandsim.experiments import (OUTPUT_DIR_ENV, PRESET_NAMES, TRACE_HEADER,
                                 ConfigError, config_hash, dumps_canonical,
                                 load_config, parse_config, preset,
                                 resolve_out_dir, run_experiment,
                                 validate_config, _jsonable)
from bandsim.interference import worst_case_interference
from bandsim.topology import make_uniform_linear_array


def _tiny_doc(**over):
    doc = {
        "experiment": "converge",
        "topology": {"kind": "ula", "n": 6, "d": 1.0},
        "bands": 2,
        "base_seed": 7,
        "scheduler": {"kind": "permutation", "delta_t": 1.0},
    }
    doc.update(over)
    return doc


def _errors(doc):
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    return exc.value.errors


# ---------------------------------------------------------------------------
# config parsing


def test_parse_minimal_converge_defaults():
    cfg = parse_config(_tiny_doc())
    assert cfg.experiment == "converge"
    assert cfg.eta == 2.0
    assert cfg.p0 == 1.0
    assert cfg.initial_assignment == "all_band_one"
    assert cfg.replicas == 1
    assert cfg.rho == 3.0
    assert cfg.alpha == 1.0
    assert cfg.out_dir == "results"
    assert cfg.prefix == "converge"
    assert cfg.write_trace is True
    assert cfg.write_capacity_series is False
    assert cfg.warnings == []
    assert cfg.resolved["topology"] == {"kind": "ula", "n": 6, "d": 1.0}


def test_parse_rejects_unknown_keys():
    errs = _errors(_tiny_doc(bogus=1))
    assert any("config.bogus" in e and "unknown key" in e for e in errs)
    errs = _errors(_tiny_doc(topology={"kind": "ula", "n": 6, "d": 1.0,
                                       "extra": 2}))
    assert any("topology.extra" in e for e in errs)


def test_parse_forbids_irrelevant_sections():
    errs = _errors(_tiny_doc(alpha=0.9))
    assert errs == ["alpha: not allowed for experiment 'converge'"]
    errs = _errors(_tiny_doc(rates=[0.1]))
    assert "rates: not allowed for experiment 'converge'" in errs


def test_parse_collects_all_errors_at_once():
    doc = _tiny_doc()
    del doc["bands"]
    del doc["base_seed"]
    errs = _errors(doc)
    assert "config.bands: required" in errs
    assert "config.base_seed: required" in errs


def test_parse_validates_model_params():
    assert any("eta" in e for e in _errors(_tiny_doc(eta=0.5)))
    assert any("p0" in e for e in _errors(_tiny_doc(p0=0.0)))
    assert any("bands" in e for e in _errors(_tiny_doc(bands=0)))
    assert any("bands" in e for e in _errors(_tiny_doc(bands=1.5)))
    assert any("base_seed" in e for e in _errors(_tiny_doc(base_seed=-1)))


def test_parse_topology_rules():
    errs = _errors(_tiny_doc(topology={"kind": "ula", "d": 1.0}))
    assert "topology.n: required" in errs
    errs = _errors(_tiny_doc(topology={"kind": "random_linear", "n": 6,
                                       "d": 1.0, "min_sep": 2.0}))
    assert any("min_sep" in e and "<= d" in e for e in errs)
    errs = _errors(_tiny_doc(topology={"kind": "nowhere"}))
    assert any("topology.kind" in e for e in errs)
    errs = _errors(_tiny_doc(topology={"kind": "file", "path": "x.json"},
                             eta=2.0))
    assert any("comes from the topology file" in e for e in errs)


def test_parse_scheduler_rules():
    doc = _tiny_doc()
    del doc["scheduler"]
    assert "scheduler: required object" in _errors(doc)
    errs = _errors(_tiny_doc(scheduler={"kind": "poisson", "delta_t": 0.0}))
    assert any("delta_t" in e for e in errs)


def test_parse_sweep_rules():
    doc = _tiny_doc(experiment="sweep",
                    topology={"kind": "ula", "d": 1.0},
                    sweep={"sizes": [4, 8]})
    doc["replicas"] = 2
    cfg = parse_config(doc)
    assert cfg.sweep_sizes == [4, 8]
    # fixed n clashes with a sweep
    errs = _errors(_tiny_doc(experiment="sweep",
                             sweep={"sizes": [4, 8]}))
    assert any("fixed size not allowed" in e for e in errs)
    # lattice sweeps take [rows, cols] pairs
    doc = _tiny_doc(experiment="sweep",
                    topology={"kind": "rect", "d": 1.0},
                    sweep={"sizes": [[2, 2], [3, 3]]})
    assert parse_config(doc).sweep_sizes == [[2, 2], [3, 3]]
    errs = _errors(_tiny_doc(experiment="sweep",
                             topology={"kind": "rect", "d": 1.0},
                             sweep={"sizes": [4]}))
    assert any("sweep.sizes[0]" in e for e in errs)
    errs = _errors(_tiny_doc(experiment="sweep",
                             topology={"kind": "ula", "d": 1.0},
                             sweep={"sizes": [1]}))
    assert any("integer >= 2" in e for e in errs)


def test_parse_relaxation_rules():
    doc = _tiny_doc(experiment="relaxation", horizon=4.0,
                    scheduler={"kind": "poisson", "delta_t": 0.05})
    cfg = parse_config(doc)
    assert cfg.horizon == 4.0 and cfg.alpha == 1.0
    errs = _errors(_tiny_doc(experiment="relaxation", horizon=4.0))
    assert any("dynamics experiments need 'poisson'" in e for e in errs)
    errs = _errors(_tiny_doc(experiment="relaxation",
                             scheduler={"kind": "poisson", "delta_t": 0.05}))
    assert "config.horizon: required" in errs
    errs = _errors(_tiny_doc(experiment="relaxation", horizon=4.0,
                             alpha=0.9,
                             scheduler={"kind": "poisson", "delta_t": 0.05}))
    assert any("requires alpha = 1" in e for e in errs)
    errs = _errors(_tiny_doc(experiment="relaxation", horizon=4.0,
                             initial_assignment="uniform_random",
                             scheduler={"kind": "poisson", "delta_t": 0.05}))
    assert any("worst case" in e for e in errs)


def test_parse_variance_rules():
    doc = _tiny_doc(experiment="variance", horizon=1.0, rates=[0.01],
                    scheduler={"kind": "poisson", "delta_t": 0.05})
    doc["replicas"] = 4
    cfg = parse_config(doc)
    assert cfg.rates == [0.01]
    errs = _errors(_tiny_doc(experiment="variance", horizon=1.0,
                             rates=[0.01],
                             scheduler={"kind": "poisson", "delta_t": 0.05}))
    assert any("needs >= 2 replicas" in e for e in errs)
    doc = _tiny_doc(experiment="variance", horizon=1.0, rates=[1.5],
                    scheduler={"kind": "poisson", "delta_t": 0.05})
    doc["replicas"] = 4
    assert any("rates[0]" in e for e in _errors(doc))
    doc = _tiny_doc(experiment="variance", horizon=1.0, rates=[],
                    scheduler={"kind": "poisson", "delta_t": 0.05})
    doc["replicas"] = 4
    assert any("rates" in e for e in _errors(doc))


def test_parse_variance_warns_on_strained_rates():
    doc = _tiny_doc(experiment="variance", horizon=1.0,
                    rates=[0.01, 0.2, 0.375],
                    scheduler={"kind": "poisson", "delta_t": 0.05})
    doc["replicas"] = 4
    cfg = parse_config(doc)
    assert any("0.2" in w and "near-equilibrium" in w for w in cfg.warnings)
    assert any("0.375" in w and "divergent" in w for w in cfg.warnings)
    assert not any("0.01" in w.split(":")[1] for w in cfg.warnings
                   if "0.01," not in w)


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


# ---------------------------------------------------------------------------
# presets and validation reports


def test_all_presets_parse_clean():
    assert len(PRESET_NAMES) == 8
    for name in PRESET_NAMES:
        cfg = parse_config(preset(name))
        assert cfg.prefix == name
        assert cfg.base_seed >= 20260815
    with pytest.raises(KeyError):
        preset("fig99")


def test_preset_fig2a_shape():
    doc = preset("fig2a")
    cfg = parse_config(doc)
    assert cfg.experiment == "converge"
    assert cfg.topology_kind == "ula"
    assert cfg.topology_params["n"] == 100
    assert cfg.bands == 2
    assert cfg.write_trace and cfg.write_capacity_series


def test_validate_config_report(tmp_path):
    path = tmp_path / "fig6.json"
    path.write_text(dumps_canonical(preset("fig6")) + "\n", encoding="utf-8")
    report = validate_config(path)
    assert report["valid"] is True
    assert report["errors"] == []
    assert report["derived"]["n"] == 100
    assert report["derived"]["tau"] == pytest.approx(1.0)
    # variance runs default to the near-equilibrium warmup 0.6*tau/rho
    assert report["derived"]["warmup_default"] == pytest.approx(0.2)
    margins = {p["alpha"]: p["stability_margin"]
               for p in report["derived"]["points"]}
    assert margins[1.0 - 0.375] == pytest.approx(1.0)
    assert any("divergent" in w for w in report["warnings"])


def test_validate_config_default_warmup_for_dynamics(tmp_path):
    path = tmp_path / "fig5.json"
    path.write_text(dumps_canonical(preset("fig5")) + "\n", encoding="utf-8")
    report = validate_config(path)
    # only variance runs have a warmup
    assert report["derived"]["warmup_default"] is None


def test_validate_config_invalid(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_tiny_doc(bands=0)), encoding="utf-8")
    report = validate_config(path)
    assert report["valid"] is False
    assert report["errors"]
    assert report["derived"] is None


# ---------------------------------------------------------------------------
# canonical serialization


def test_dumps_canonical_exact_text():
    assert dumps_canonical({}) == "{}"
    assert dumps_canonical([]) == "[]"
    assert dumps_canonical({"b": 0.1, "a": [1, None, True]}) == (
        '{\n  "a": [\n    1,\n    null,\n    true\n  ],'
        '\n  "b": 0.10000000000000001\n}')


def test_dumps_canonical_is_key_order_independent():
    a = {"x": 1, "y": {"p": 2.5, "q": "s"}}
    b = {"y": {"q": "s", "p": 2.5}, "x": 1}
    assert dumps_canonical(a) == dumps_canonical(b)
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 64
    assert config_hash({"x": 2}) != config_hash({"x": 1})


def test_dumps_canonical_numpy_values():
    doc = {"i": np.int64(3), "f": np.float64(0.5), "b": np.bool_(True),
           "v": np.array([1.0, 2.0])}
    text = dumps_canonical(_jsonable(doc))
    assert json.loads(text) == {"i": 3, "f": 0.5, "b": True, "v": [1.0, 2.0]}


def test_dumps_canonical_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps_canonical(float("nan"))
    with pytest.raises(ValueError):
        dumps_canonical({"x": math.inf})


def test_jsonable_scrubs_non_finite():
    doc = {"x": float("nan"), "y": [np.float64(2.0), np.inf, -np.inf]}
    assert _jsonable(doc) == {"x": None, "y": [2.0, None, None]}


# ---------------------------------------------------------------------------
# runners and output files


def _run_tiny_converge(tmp_path, sub="a", replicas=2):
    doc = _tiny_doc(output={"dir": "ignored", "prefix": "t"})
    doc["replicas"] = replicas
    cfg = parse_config(doc)
    result = run_experiment(cfg, out_dir=str(tmp_path / sub))
    return cfg, result


def test_converge_run_outputs(tmp_path):
    cfg, result = _run_tiny_converge(tmp_path)
    names = sorted(p.name for p in result.files)
    assert names == ["t_config.json", "t_summary.json", "t_trace.csv"]
    for p in result.files:
        assert p.exists()
    summary = result.summary
    assert summary["experiment"] == "converge"
    assert summary["n"] == 6
    assert summary["replicas"] == 2
    assert summary["config_hash"] == config_hash(cfg.resolved)
    assert summary["bounds"]["upper_ok_all"] is True
    assert summary["update_counts"]["le_50n"] is True
    assert len(summary["replicas_detail"]) == 2
    for entry in summary["replicas_detail"]:
        assert entry["final_aggregate"] <= summary["i_w_over_r"] + 1e-9
        assert 0.0 < entry["capacity_fraction"] <= 1.5


def test_converge_trace_csv_layout(tmp_path):
    _, result = _run_tiny_converge(tmp_path)
    trace = next(p for p in result.files if p.name.endswith("trace.csv"))
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(TRACE_HEADER)
    a0 = worst_case_interference(make_uniform_linear_array(6, 1.0))
    # replica 0 snapshot row: t=0, no cluster, aggregate at the initial state
    assert lines[1] == f"0,0,0,-1,0,0,{format(a0, '.17g')},6"
    first = [line.split(",") for line in lines[1:]]
    assert {row[0] for row in first} == {"0", "1"}
    assert all(len(row) == len(TRACE_HEADER) for row in first)


def test_converge_config_json_round_trips(tmp_path):
    cfg, result = _run_tiny_converge(tmp_path)
    cfg_file = next(p for p in result.files if p.name.endswith("config.json"))
    text = cfg_file.read_text(encoding="utf-8")
    assert text == dumps_canonical(cfg.resolved) + "\n"
    assert parse_config(json.loads(text)).resolved == cfg.resolved


def test_runs_are_byte_identical(tmp_path):
    _, r1 = _run_tiny_converge(tmp_path, "one")
    _, r2 = _run_tiny_converge(tmp_path, "two")
    for p1, p2 in zip(sorted(r1.files), sorted(r2.files)):
        assert p1.read_bytes() == p2.read_bytes()


def test_sweep_run_outputs(tmp_path):
    doc = _tiny_doc(experiment="sweep",
                    topology={"kind": "ula", "d": 1.0},
                    sweep={"sizes": [4, 6]},
                    output={"dir": "x", "prefix": "sw"})
    doc["replicas"] = 2
    cfg = parse_config(doc)
    result = run_experiment(cfg, out_dir=str(tmp_path))
    names = sorted(p.name for p in result.files)
    assert names == ["sw_config.json", "sw_summary.json", "sw_sweep.csv"]
    sizes = result.summary["sizes"]
    assert [s["n"] for s in sizes] == [4, 6]
    for s in sizes:
        assert s["ia_mean_norm"] <= s["upper_norm"] + 1e-9
        assert len(s["finals"]) == 2
    lines = (tmp_path / "sw_sweep.csv").read_text().splitlines()
    assert lines[0].startswith("n,rows,cols,i_w_norm,upper_norm")
    assert len(lines) == 3
    echoed = json.loads((tmp_path / "sw_config.json").read_text())
    assert parse_config(echoed).resolved == cfg.resolved


def test_relaxation_run_outputs(tmp_path):
    doc = _tiny_doc(experiment="relaxation", horizon=4.0,
                    topology={"kind": "ula", "n": 10, "d": 1.0},
                    scheduler={"kind": "poisson", "delta_t": 0.05},
                    output={"dir": "x", "prefix": "rx"})
    doc["replicas"] = 10
    cfg = parse_config(doc)
    result = run_experiment(cfg, out_dir=str(tmp_path))
    names = sorted(p.name for p in result.files)
    assert names == ["rx_config.json", "rx_decay.csv", "rx_summary.json"]
    summary = result.summary
    assert summary["tau"] == pytest.approx(0.5)
    assert summary["i_a_mean_final"] < summary["i_w"]
    # the fitted relaxation rate lands near the modeled one
    assert 1.0 < summary["rho_fitted"] < 6.0
    lines = (tmp_path / "rx_decay.csv").read_text().splitlines()
    assert lines[0] == "time,mean_aggregate,mean_normalized,bracket,model_bracket"
    echoed = json.loads((tmp_path / "rx_config.json").read_text())
    assert parse_config(echoed).resolved == cfg.resolved


def test_variance_run_outputs(tmp_path):
    doc = _tiny_doc(experiment="variance", horizon=1.0, rates=[0.005],
                    topology={"kind": "ula", "n": 10, "d": 1.0},
                    scheduler={"kind": "poisson", "delta_t": 0.05},
                    output={"dir": "x", "prefix": "vr"})
    doc["replicas"] = 6
    cfg = parse_config(doc)
    result = run_experiment(cfg, out_dir=str(tmp_path))
    names = sorted(p.name for p in result.files)
    assert names == ["vr_config.json", "vr_summary.json", "vr_variance.csv"]
    summary = result.summary
    # default near-equilibrium warmup: 0.6 * tau / rho
    assert summary["warmup"] == pytest.approx(0.6 * 0.5 / 3.0)
    report = validate_config(_write_config(tmp_path, doc))
    assert report["derived"]["warmup_default"] == summary["warmup"]
    assert summary["initial_aggregate"] > 0.0
    point = summary["points"][0]
    assert point["alpha"] == pytest.approx(0.995)
    assert point["divergent"] is False
    assert point["sigma_sq_predicted"] > 0.0
    assert point["sigma_sq_empirical"] >= 0.0
    lines = (tmp_path / "vr_variance.csv").read_text().splitlines()
    assert lines[0] == ("one_minus_alpha,alpha,lambda,margin,divergent,"
                        "sigma_sq_predicted,sigma_sq_empirical,"
                        "ratio_emp_over_pred,mean_level,within")
    assert len(lines) == 2
    echoed = json.loads((tmp_path / "vr_config.json").read_text())
    assert parse_config(echoed).resolved == cfg.resolved


def test_variance_run_rejects_late_warmup(tmp_path):
    doc = _tiny_doc(experiment="variance", horizon=1.0, rates=[0.005],
                    warmup=2.0,
                    topology={"kind": "ula", "n": 10, "d": 1.0},
                    scheduler={"kind": "poisson", "delta_t": 0.05})
    doc["replicas"] = 4
    cfg = parse_config(doc)
    with pytest.raises(ConfigError, match="warmup"):
        run_experiment(cfg, out_dir=str(tmp_path))


@pytest.mark.parametrize("over", [
    # default warmup 0.6 * tau / rho = 0.2 lies past the horizon 0.1
    {"horizon": 0.1, "topology": {"kind": "ula", "n": 20, "d": 1.0}},
    {"horizon": 1.0, "warmup": 2.0,
     "topology": {"kind": "ula", "n": 10, "d": 1.0}},
], ids=["default", "explicit"])
def test_validate_rejects_late_variance_warmup(tmp_path, over):
    doc = _tiny_doc(experiment="variance", rates=[0.005],
                    scheduler={"kind": "poisson", "delta_t": 0.05}, **over)
    doc["replicas"] = 4
    report = validate_config(_write_config(tmp_path, doc))
    assert report["valid"] is False
    with pytest.raises(ConfigError) as exc:
        run_experiment(parse_config(doc), out_dir=str(tmp_path))
    assert report["errors"] == exc.value.errors
    assert report["errors"][0].startswith("warmup: effective value")


def test_resolve_out_dir_precedence(tmp_path, monkeypatch):
    cfg = parse_config(_tiny_doc(output={"dir": "cfgdir", "prefix": "t"}))
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    assert resolve_out_dir(cfg) == Path("cfgdir")
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "envdir"))
    assert resolve_out_dir(cfg) == tmp_path / "envdir"
    assert resolve_out_dir(cfg, str(tmp_path / "flag")) == tmp_path / "flag"


# ---------------------------------------------------------------------------
# command-line interface


def _write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_cli_preset_stdout(capsys):
    assert main(["preset", "fig3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["experiment"] == "sweep"


def test_cli_preset_write(tmp_path, capsys):
    target = tmp_path / "p.json"
    assert main(["preset", "fig2a", "--write", str(target)]) == 0
    assert json.loads(target.read_text())["experiment"] == "converge"
    assert capsys.readouterr().out.strip() == str(target)


def test_cli_validate_ok(tmp_path, capsys):
    path = _write_config(tmp_path, _tiny_doc())
    assert main(["validate", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is True


def test_cli_validate_invalid(tmp_path, capsys):
    path = _write_config(tmp_path, _tiny_doc(bands=0))
    assert main(["validate", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is False


def test_cli_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_cli_run_ok(tmp_path, capsys):
    doc = _tiny_doc(output={"dir": "unused", "prefix": "c"})
    path = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert sorted(Path(p).name for p in printed) == [
        "c_config.json", "c_summary.json", "c_trace.csv"]
    for p in printed:
        assert Path(p).exists()
        assert Path(p).parent == out


def test_cli_run_honors_env_dir(tmp_path, capsys, monkeypatch):
    doc = _tiny_doc(output={"dir": "unused", "prefix": "c"})
    path = _write_config(tmp_path, doc)
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "fromenv"))
    assert main(["run", path]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert all(Path(p).parent == tmp_path / "fromenv" for p in printed)


def test_cli_run_invalid_config(tmp_path, capsys):
    path = _write_config(tmp_path, _tiny_doc(bands=0))
    assert main(["run", path]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_run_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 3
    assert "i/o error" in capsys.readouterr().err
