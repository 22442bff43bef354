import copy
import dataclasses
import importlib.util
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from bandsim import allocation, experiments, oracle
from bandsim.cli import main
from bandsim.dynamics import replica_streams, replica_trace, stability_margin
from bandsim.experiments import (EXPERIMENTS, OUTPUT_DIR_ENV, PRESET_NAMES,
                                 SCHEDULER_KINDS, TRACE_HEADER,
                                 BoundViolationError, ConfigError,
                                 config_hash, dumps_canonical, load_config,
                                 parse_config, preset, resolve_out_dir,
                                 run_experiment, validate_config,
                                 _block_cells, _build_topology,
                                 _capacity_series, _converge_one, _csv_cell,
                                 _emit, _write_csv)
from bandsim.interference import (Assignment, InterferenceCache,
                                  worst_case_interference)
from bandsim.metrics import link_capacity, link_powers
from bandsim.topology import (make_random_linear_array,
                              make_uniform_linear_array)


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
    assert cfg.resolved["rho"] is None  # converge does not read rho
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


@pytest.mark.parametrize("value", [[], 0, False, ""], ids=repr)
@pytest.mark.parametrize("key", ["link", "output"])
def test_parse_rejects_a_falsy_section_that_is_no_object(key, value):
    assert _errors(_tiny_doc(**{key: value})) == [f"{key}: expected an object"]
    # only a missing key or null counts as an absent section
    assert parse_config(_tiny_doc(**{key: None})).resolved \
        == parse_config(_tiny_doc()).resolved


def test_parse_forbids_irrelevant_sections():
    errs = _errors(_tiny_doc(rho=3.0))
    assert errs == ["rho: not allowed for experiment 'converge'"]
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
    assert cfg.horizon == 4.0
    errs = _errors(_tiny_doc(experiment="relaxation", horizon=4.0))
    assert any("dynamics experiments need 'poisson'" in e for e in errs)
    errs = _errors(_tiny_doc(experiment="relaxation",
                             scheduler={"kind": "poisson", "delta_t": 0.05}))
    assert "config.horizon: required" in errs
    # relaxation always starts from the worst case (all_band_one)
    errs = _errors(_tiny_doc(experiment="relaxation", horizon=4.0,
                             initial_assignment="uniform_random",
                             scheduler={"kind": "poisson", "delta_t": 0.05}))
    assert errs == ["initial_assignment: not allowed for experiment "
                    "'relaxation'"]


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


def test_parse_sweep_rejects_boolean_lattice_sizes():
    errs = _errors(_tiny_doc(experiment="sweep",
                             topology={"kind": "rect", "d": 1.0},
                             sweep={"sizes": [[True, 2], [2, 2]]}))
    assert errs == ["sweep.sizes[0]: expected [rows, cols] with "
                    "rows*cols >= 2, got [True, 2]"]


_POISSON = {"kind": "poisson", "delta_t": 0.05}
# one valid document per group of numeric fields
_NUMERIC_BASES = {
    "converge": _tiny_doc(),
    "random_linear": _tiny_doc(topology={"kind": "random_linear", "n": 6,
                                         "d": 1.0, "min_sep": 0.5}),
    "rect": _tiny_doc(topology={"kind": "rect", "rows": 2, "cols": 3,
                                "d": 1.0}),
    "relaxation": _tiny_doc(experiment="relaxation", horizon=4.0,
                            scheduler=_POISSON),
    "variance": _tiny_doc(experiment="variance", horizon=1.0, warmup=0.2,
                          rates=[0.01], replicas=4, scheduler=_POISSON),
}
_NUMERIC_FIELDS = [
    ("converge", f) for f in (
        "eta", "p0", "bands", "replicas", "base_seed", "rho",
        "scheduler.delta_t", "topology.d", "topology.n",
        "link.signal_power", "link.noise_power")
] + [("random_linear", "topology.min_sep"), ("rect", "topology.rows"),
     ("rect", "topology.cols"), ("relaxation", "rho"),
     ("relaxation", "horizon"), ("variance", "horizon"),
     ("variance", "warmup")]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("base,field", _NUMERIC_FIELDS)
def test_non_finite_numbers_are_rejected(tmp_path, base, field, value):
    doc = json.loads(json.dumps(_NUMERIC_BASES[base]))
    section, _, key = field.rpartition(".")
    (doc.setdefault(section, {}) if section else doc)[key] = value
    line = (f"{section or 'config'}.{key}: expected a finite number, "
            f"got {value!r}")
    assert line in _errors(doc)
    report = validate_config(_write_config(tmp_path, doc))
    assert report["valid"] is False
    assert line in report["errors"]


# one valid document of each experiment
_VALID = {
    "converge": _tiny_doc(),
    "sweep": _tiny_doc(experiment="sweep", topology={"kind": "ula", "d": 1.0},
                       sweep={"sizes": [4]}),
    "relaxation": _NUMERIC_BASES["relaxation"],
    "variance": _NUMERIC_BASES["variance"],
}
# a valid value of each setting that only some experiments read
_SETTINGS = {"rho": 3.0, "link": {"signal_power": 1.0},
             "initial_assignment": "all_band_one",
             "output.write_trace": True, "output.write_capacity_series": True}
# the (experiment, setting) pairs where the experiment does not read it
_UNREAD = [("converge", "rho"), ("sweep", "rho"),
           ("relaxation", "link"), ("variance", "link"),
           ("relaxation", "initial_assignment"),
           ("sweep", "output.write_trace"),
           ("sweep", "output.write_capacity_series"),
           ("relaxation", "output.write_capacity_series"),
           ("variance", "output.write_capacity_series")]


def _with_setting(experiment, path):
    doc = json.loads(json.dumps(_VALID[experiment]))
    section, _, key = path.rpartition(".")
    (doc.setdefault(section, {}) if section else doc)[key] = _SETTINGS[path]
    return doc


@pytest.mark.parametrize("experiment,path", _UNREAD)
def test_setting_an_experiment_does_not_read_is_rejected(experiment, path):
    assert _errors(_with_setting(experiment, path)) == [
        f"{path}: not allowed for experiment '{experiment}'"]


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_settings_an_experiment_reads_are_accepted(experiment):
    for path in _SETTINGS:
        if (experiment, path) not in _UNREAD:
            parse_config(_with_setting(experiment, path))


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_alpha_is_no_config_key(experiment):
    # the persistence alpha of a variance run comes from its rates
    doc = dict(_VALID[experiment], alpha=1.0)
    assert _errors(doc) == ["config.alpha: unknown key"]


_PREFIX_ERROR = "output.prefix: must be a file name, without '/', '\\' or NUL"


@pytest.mark.parametrize("prefix", ["../escaped", "a/b", "a\\b", "a\0b"],
                         ids=["parent", "slash", "backslash", "nul"])
def test_prefix_must_name_a_file_in_the_output_dir(tmp_path, capsys, prefix):
    doc = _tiny_doc(output={"prefix": prefix})
    assert _errors(doc) == [_PREFIX_ERROR]
    path = _write_config(tmp_path, doc)
    report = validate_config(path)
    assert report["valid"] is False and report["errors"] == [_PREFIX_ERROR]
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    assert (f"config error: {_PREFIX_ERROR}"
            in capsys.readouterr().err.splitlines())
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_output_dir_with_nul_is_a_config_error(tmp_path, capsys,
                                                monkeypatch):
    error = "output.dir: must be a path without NUL"
    doc = _tiny_doc(output={"dir": "out\0put"})
    assert _errors(doc) == [error]
    path = _write_config(tmp_path, doc)
    report = validate_config(path)
    assert report["valid"] is False and report["errors"] == [error]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    assert main(["run", path]) == 1
    assert f"config error: {error}" in capsys.readouterr().err.splitlines()
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_null_output_dir_and_prefix_read_as_absent(tmp_path, capsys):
    doc = _tiny_doc(output={"dir": None, "prefix": None})
    cfg = parse_config(doc)
    assert (cfg.out_dir, cfg.prefix) == ("results", "converge")
    assert cfg.resolved == parse_config(_tiny_doc()).resolved
    echo = _emit(cfg, tmp_path, {}, [])[0]
    assert echo.name == "converge_config.json"
    output = json.loads(echo.read_text(encoding="utf-8"))["output"]
    assert (output["dir"], output["prefix"]) == ("results", "converge")
    assert main(["validate", _write_config(tmp_path, doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is True and report["errors"] == []


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


# the churn alphas validate reports; converge and sweep runs have no churn
# and do not read rho
_CHURN_ALPHAS = {"fig2a": [], "fig2c": [], "fig3": [], "fig4a": [],
                 "fig5": [1.0],
                 "fig6": [1.0 - q for q in preset("fig6")["rates"]]}


@pytest.mark.parametrize("name", sorted(_CHURN_ALPHAS))
def test_validate_reports_churn_points_only_where_rho_is_read(tmp_path, name):
    path = _write_config(tmp_path, preset(name))
    derived = validate_config(path)["derived"]
    assert [p["alpha"] for p in derived["points"]] == _CHURN_ALPHAS[name]
    if name.startswith("fig2"):
        assert derived["n"] == 100 and derived["tau"] == pytest.approx(1.0)


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
           "c": np.bool_(False), "g": np.float32(0.25), "u": np.uint8(7),
           "v": np.array([1.0, 2.0]), "m": np.array([[1, 2], [3, 4]]),
           "t": (np.int32(-1), "x")}
    text = dumps_canonical(doc)
    assert json.loads(text) == {"i": 3, "f": 0.5, "b": True, "c": False,
                                "g": 0.25, "u": 7, "v": [1.0, 2.0],
                                "m": [[1, 2], [3, 4]], "t": [-1, "x"]}
    assert '"b": true' in text and '"c": false' in text
    with pytest.raises(TypeError, match="cannot serialize set"):
        dumps_canonical({"x": [{1, 2}]})


def test_dumps_canonical_writes_non_finite_as_null():
    assert dumps_canonical(float("nan")) == "null"
    assert dumps_canonical(np.float64("-inf")) == "null"
    doc = {"x": float("nan"), "y": [np.float64(2.0), np.inf, -np.inf],
           "z": {"a": np.array([np.nan, 1.5, -np.inf]),
                 "b": [[math.inf]]}}
    assert json.loads(dumps_canonical(doc)) == {
        "x": None, "y": [2.0, None, None],
        "z": {"a": [None, 1.5, None], "b": [[None]]}}


def test_undefined_summary_value_writes_null(tmp_path):
    # log2(1 + S/(N0 + I)) rounds to 0 when S is far below N0, so every
    # capacity fraction against the reference is undefined (NaN)
    cfg = parse_config(_tiny_doc(
        link={"signal_power": 1e-300, "noise_power": 1.0}))
    result = run_experiment(cfg, out_dir=str(tmp_path))
    text = (tmp_path / "converge_summary.json").read_text(encoding="utf-8")
    summary = json.loads(text)
    assert summary["reference"]["normalized_capacity"] == 0.0
    assert [d["capacity_fraction"] for d in summary["replicas_detail"]] \
        == [None]
    assert '"capacity_fraction": null,' in text
    assert math.isnan(result.summary["replicas_detail"][0]
                      ["capacity_fraction"])


@pytest.mark.parametrize("value,text", [
    (7, "7"), (-0, "0"), (10 ** 30, "1" + "0" * 30),
    (0.1, "0.10000000000000001"), (-0.0, "-0"), (2.0, "2"),
    (5e-324, "4.9406564584124654e-324"), (1e308, "1e+308"),
    (-1e308, "-1e+308"), (math.nan, ""),
    (True, "1"), (False, "0"), (np.bool_(True), "1"), (None, ""),
    ("hex", "hex"), (np.int64(-3), "-3"), (np.float64(0.5), "0.5"),
    (np.float64("nan"), "")])
def test_csv_cell_rules(value, text):
    assert _csv_cell(value) == text


@pytest.mark.parametrize("value", [math.inf, -math.inf, np.float64("inf")])
def test_csv_cell_rejects_infinity(value):
    with pytest.raises(ValueError):
        _csv_cell(value)


@pytest.mark.parametrize("values", [
    np.array([-1, 0, -1, 3, 0]), np.zeros(4, dtype=np.int64),
    np.array([-1] * 3), np.array([0, 10 ** 12, 7, 0]),
    np.array([5, 3, 4, 3], dtype=np.uint8),
    np.array([0, 255, 1], dtype=np.uint8),
    np.array([2 ** 64 - 1, 2 ** 64 - 2], dtype=np.uint64),
    np.array([2 ** 64 - 1, 0], dtype=np.uint64),
    np.arange(-100, 100, dtype=np.int8)])
def test_block_cells_of_int_blocks_match_csv_cell(values):
    # narrow value ranges go through a table of texts, wide ones per value
    assert _block_cells(values) == [_csv_cell(v) for v in values]


@pytest.mark.parametrize("values", [
    # runs that start on the block's first cell and end on its last
    np.array([0.25] * 3 + [0.5] * 2), np.array([1.5] * 4), np.array([7.0]),
    # -0.0 and 0.0 are equal but are distinct runs
    np.array([0.0, -0.0, -0.0, 0.0, 0.0, -0.0]),
    # the exponent forms and the smallest subnormals
    np.array([5e-324, 5e-324, -5e-324, 1e-5, 1e-5, 1e17, 1e17, -1e17]),
    np.array([1e-5, 1e-4, 0.1, 1e16, 1e17, 1e308, -2.5e-310]),
    # no repeats, and every value repeated
    np.linspace(-1.0, 1.0, 9), np.repeat(np.linspace(0.0, 1.0, 5), 3),
    np.array([0.1, 0.2, 0.1, 0.2], dtype=np.float32)])
def test_block_cells_of_float_blocks_match_csv_cell(values):
    # the head of each run of equal bits is formatted and repeated
    assert _block_cells(values) == [_csv_cell(v) for v in values]


_SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                   1e308, -1e308, 1.7976931348623157e308, math.nan,
                   math.inf, -math.inf]
_CELLS = {
    "int": st.integers(),
    "float": st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from(_SPECIAL_FLOATS)),
    "bool": st.booleans(),
    "none": st.none(),
    "str": st.text(st.characters(exclude_categories=["Cs"]), max_size=4),
    "np_int64": st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    "np_float64": st.floats().map(np.float64),
}
_ARRAY_CELLS = {np.int64: st.integers(-2 ** 63, 2 ** 63 - 1),
                np.float64: _CELLS["float"]}


@st.composite
def _column(draw, size):
    """An int64 or float64 array (NaN and +-inf among the floats) or a list
    of mixed cells, of `size` cells in runs of equal values."""
    dtype = draw(st.sampled_from([np.int64, np.float64, list]))
    cells = (st.one_of(*_CELLS.values()) if dtype is list
             else _ARRAY_CELLS[dtype])
    values = []
    while len(values) < size:
        values += [draw(cells)] * draw(st.integers(1, 4))
    return values[:size] if dtype is list else np.array(values[:size], dtype)


@st.composite
def _csv_tables(draw):
    """Up to three tables of up to four columns each, drawn from pools of
    equal-length columns (one pool per table length), so that tables share
    column objects."""
    pools = [[draw(_column(size)) for _ in range(draw(st.integers(1, 4)))]
             for size in draw(st.lists(st.integers(0, 12), min_size=1,
                                       max_size=2))]
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        pool = draw(st.sampled_from(pools))
        tables.append([pool[draw(st.integers(0, len(pool) - 1))]
                       for _ in range(draw(st.integers(1, 4)))])
    return tables


def _per_cell_text(header, columns):
    return ",".join(header) + "\n" + "".join(
        ",".join(_csv_cell(c) for c in row) + "\n" for row in zip(*columns))


_SHARED = np.array([0.0, -0.0, -0.0, math.nan, math.nan, 0.0, 0.0, 0.0])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tables=_csv_tables(), block=st.integers(1, 5))
@example(tables=[[_SHARED, np.arange(8)], [np.arange(8), _SHARED]],
         block=2)
@example(tables=[[_SHARED], [np.array([1.0, math.inf])]], block=1)
@example(tables=[[np.array([0.5, 0.5, 0.5, -0.0, -0.0, 0.0, 1e17])]],
         block=2)
def test_write_csv_matches_a_per_cell_join(tmp_path, monkeypatch, tables,
                                           block):
    # small blocks split the tables, so bulk and per-cell blocks mix and
    # runs of equal cells cross block boundaries
    monkeypatch.setattr(experiments, "_CSV_BLOCK", block)
    paths = [tmp_path / f"t{k}.csv" for k in range(len(tables))]
    headers = [[f"h{j}" for j in range(len(columns))] for columns in tables]
    try:
        expected = [_per_cell_text(header, columns)
                    for header, columns in zip(headers, tables)]
    except ValueError:
        with pytest.raises(ValueError):
            _write_csv(list(zip(paths, headers, tables)))
        return
    _write_csv(list(zip(paths, headers, tables)))
    for path, text in zip(paths, expected):
        assert path.read_bytes() == text.encode("utf-8")


def test_write_csv_non_finite_in_a_uniform_run(tmp_path):
    # a NaN leaves its cell empty inside an all-array block
    path = tmp_path / "t.csv"
    _write_csv([(path, ["a", "b"], [np.array([1, 2, 3]),
                                    np.array([0.5, math.nan, 1.5])])])
    assert path.read_text(encoding="utf-8") == "a,b\n1,0.5\n2,\n3,1.5\n"
    with pytest.raises(ValueError):
        _write_csv([(path, ["a", "b"], [np.array([1, 2]),
                                        np.array([0.5, -math.inf])])])


def test_write_csv_memory_does_not_grow_with_the_table(tmp_path):
    def peak(size):
        shared = [np.arange(size), np.linspace(0.0, 1.0, size)]
        tables = [(tmp_path / "t.csv", ["a", "b", "c", "d"],
                   [*shared, np.full(size, -1), np.linspace(1.0, 2.0, size)]),
                  (tmp_path / "u.csv", ["a", "b", "e"],
                   [*shared, np.repeat(np.linspace(0.0, 1.0, size // 8), 8)])]
        tracemalloc.start()
        try:
            _write_csv(tables)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(200_000) < 1.5 * peak(20_000)


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


def test_converge_honours_write_trace_false(tmp_path):
    doc = _tiny_doc(output={"prefix": "t", "write_trace": False})
    result = run_experiment(parse_config(doc), out_dir=str(tmp_path))
    assert sorted(p.name for p in result.files) == [
        "t_config.json", "t_summary.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "t_config.json", "t_summary.json"]


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


def _start_of(cache, records):
    """The assignment a run started from: its converged bands with every
    switch undone, the last first."""
    bands = cache.bands.copy()
    for rec in reversed(records):
        bands[rec.cluster] = rec.old_band
    return Assignment(bands, cache.r)


def _capacity_series_per_switch(cfg):
    """capacity.csv text of a converge run, one capacity computed after
    each switch."""
    top, _ = _build_topology(cfg)
    s, n0 = link_powers(top, cfg.signal_power, cfg.noise_power)
    rows = []
    for k in range(cfg.replicas):
        records, cache, _ = _converge_one(cfg, top, cfg.base_seed + k)
        cache = InterferenceCache(top, _start_of(cache, records))
        cap = float(np.mean(link_capacity(
            cache.own_band_interference(), s, n0)))
        rows.append((k, 0, 0.0, cap))
        for e, rec in enumerate(records, 1):
            if rec.switched:
                cache.set_band(rec.cluster, rec.new_band)
                cap = float(np.mean(link_capacity(
                    cache.own_band_interference(), s, n0)))
            rows.append((k, e, rec.time, cap))
    return "replica,event_index,time,normalized_capacity\n" + "".join(
        ",".join(_csv_cell(c) for c in row) + "\n" for row in rows)


@st.composite
def _small_converge_docs(draw):
    kind = draw(st.sampled_from(["ula", "rect", "hex"]))
    if kind == "ula":
        topology = {"kind": kind, "n": draw(st.integers(2, 10)), "d": 1.0}
    else:
        topology = {"kind": kind, "rows": draw(st.integers(1, 3)),
                    "cols": draw(st.integers(2, 3)), "d": 1.0}
    return _tiny_doc(
        topology=topology, bands=draw(st.integers(2, 3)),
        eta=draw(st.sampled_from([2.0, 3.0, 4.0])),
        base_seed=draw(st.integers(0, 2 ** 32 - 1)), replicas=2,
        initial_assignment=draw(st.sampled_from(
            ["all_band_one", "uniform_random"])),
        scheduler={"kind": draw(st.sampled_from(["permutation", "poisson"])),
                   "delta_t": 0.05},
        link={"noise_power": draw(st.sampled_from([0.01, 0.1, 1.0]))},
        output={"prefix": "t", "write_trace": False,
                "write_capacity_series": True})


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_small_converge_docs())
def test_capacity_series_matches_a_per_switch_loop(tmp_path, doc):
    cfg = parse_config(doc)
    run_experiment(cfg, out_dir=str(tmp_path))
    text = (tmp_path / "t_capacity.csv").read_text(encoding="utf-8")
    assert text == _capacity_series_per_switch(cfg)


def _replayed_capacity_series(top, initial, tr, s, n0):
    """Mean link capacity after each row of the trace `tr`, from a fresh
    cache that replays the trace's switches from `initial`."""
    cache = InterferenceCache(top, initial)
    switched = tr.new_bands != tr.old_bands
    levels = [cache.own_band_interference()]
    for i, band in zip(tr.clusters[switched].tolist(),
                       tr.new_bands[switched].tolist()):
        cache.set_band(i, band)
        levels.append(cache.own_band_interference())
    caps = link_capacity(np.array(levels), s, n0).mean(axis=1)
    return caps[np.cumsum(switched)]


@pytest.mark.parametrize("initial", ["all_band_one", "uniform_random"])
@pytest.mark.parametrize("topology", [
    {"kind": "ula", "n": 30, "d": 1.0},
    {"kind": "rect", "rows": 5, "cols": 6, "d": 1.0},
    {"kind": "hex", "rows": 5, "cols": 6, "d": 1.0}])
def test_recorded_capacity_series_matches_a_replay(topology, initial):
    for kind in SCHEDULER_KINDS:
        cfg = parse_config(_tiny_doc(
            topology=topology, bands=3, initial_assignment=initial,
            scheduler={"kind": kind, "delta_t": 0.01},
            link={"signal_power": 1.0, "noise_power": 0.1}))
        top, _ = _build_topology(cfg)
        s, n0 = link_powers(top, cfg.signal_power, cfg.noise_power)
        for seed in (1, 2, 3):
            levels = []
            records, cache, a0 = _converge_one(cfg, top, seed, levels)
            assert len(levels) == 1 + sum(rec.switched for rec in records) > 1
            tr = replica_trace(records, a0, [top.n] * (len(records) + 1),
                               top.n, cfg.delta_t)
            got = _capacity_series(levels, tr, s, n0)
            want = _replayed_capacity_series(
                top, _start_of(cache, records), tr, s, n0)
            assert got.tobytes() == want.tobytes()


def _trace_per_record(cfg):
    """trace.csv text of a converge run, one row written per record."""
    top, _ = _build_topology(cfg)
    rows = []
    for k in range(cfg.replicas):
        records, _, a0 = _converge_one(cfg, top, cfg.base_seed + k)
        rows.append((k, 0, 0.0, -1, 0, 0, a0, top.n))
        for e, rec in enumerate(records, 1):
            rows.append((k, e, rec.time, rec.cluster, rec.old_band,
                         rec.new_band, rec.aggregate_after, top.n))
    return ",".join(TRACE_HEADER) + "\n" + "".join(
        ",".join(_csv_cell(c) for c in row) + "\n" for row in rows)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_small_converge_docs())
def test_converge_trace_matches_a_per_record_writer(tmp_path, doc):
    doc["output"].update(write_trace=True, write_capacity_series=False)
    cfg = parse_config(doc)
    run_experiment(cfg, out_dir=str(tmp_path))
    text = (tmp_path / "t_trace.csv").read_text(encoding="utf-8")
    assert text == _trace_per_record(cfg)


def test_variance_trace_numbers_replicas_across_rates(tmp_path):
    doc = _tiny_doc(experiment="variance", horizon=1.0, warmup=0.2,
                    rates=[0.001, 0.01, 0.05],
                    topology={"kind": "ula", "n": 6, "d": 1.0},
                    scheduler={"kind": "poisson", "delta_t": 0.05},
                    output={"prefix": "v", "write_trace": True})
    doc["replicas"] = 3
    cfg = parse_config(doc)
    result = run_experiment(cfg, out_dir=str(tmp_path))
    lines = (tmp_path / "v_trace.csv").read_text().splitlines()[1:]
    rows = [line.split(",") for line in lines]
    keys = [(int(row[0]), int(row[1])) for row in rows]
    assert len(set(keys)) == len(keys)
    assert sorted({rid for rid, _ in keys}) == list(range(9))
    first_time = {int(row[0]): float(row[2]) for row in rows
                  if row[1] == "1"}
    for rid in range(9):
        point = result.summary["points"][rid // 3]
        seed = point["base_seed"] + rid % 3
        assert seed == cfg.base_seed + rid
        # the replica's first event time is the first gap of its own stream
        sched, _ = replica_streams(seed)
        assert first_time[rid] == float(sched.exponential(0.05))


def test_random_linear_placement_has_a_stream_of_its_own(tmp_path,
                                                         monkeypatch):
    placed = []

    def capture(n, d, min_sep, rng, *args):
        placed.append(copy.deepcopy(rng))
        return make_random_linear_array(n, d, min_sep, rng, *args)

    monkeypatch.setattr(experiments, "make_random_linear_array", capture)
    topology = {"kind": "random_linear", "n": 8, "d": 1.0, "min_sep": 0.2}
    converge = _tiny_doc(topology=topology, replicas=3,
                         output={"prefix": "c"})
    sweep = _tiny_doc(experiment="sweep", replicas=3,
                      topology={k: v for k, v in topology.items()
                                if k != "n"},
                      sweep={"sizes": [6, 8]}, output={"prefix": "s"})
    for doc, seeds in ((converge, range(7, 10)), (sweep, range(7, 13))):
        placed.clear()
        run_experiment(parse_config(doc), out_dir=str(tmp_path))
        assert placed
        replica_draws = {np.random.default_rng(np.random.SeedSequence(s))
                         .random() for s in seeds}
        for rng in placed:
            assert rng.random() not in replica_draws


def _workload_configs():
    """The benchmark's four workload documents, at base seed 1."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "perfbench"
        / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {w: workloads.build_config(w, 1) for w in workloads.WORKLOADS}


_ECHOED = {**{name: preset(name) for name in PRESET_NAMES},
           **_workload_configs()}


@pytest.mark.parametrize("name", sorted(_ECHOED))
def test_config_echo_reloads_to_the_same_config(tmp_path, name):
    cfg = parse_config(_ECHOED[name])
    echo = _emit(cfg, tmp_path, {}, [])[0]
    doc = json.loads(echo.read_text(encoding="utf-8"))
    assert parse_config(doc).resolved == cfg.resolved
    # the echo holds null for each setting the experiment does not read
    for experiment, path in _UNREAD:
        if experiment == cfg.experiment:
            section, _, key = path.rpartition(".")
            assert (doc[section] if section else doc)[key] is None


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


@pytest.mark.parametrize("n,rho,rate,divergent", [
    # 8*(1-alpha)/rho is exactly 1 at rate 0.375 and rho 3, whatever n
    (35, 3.0, 0.375, True), (57, 3.0, 0.375, True), (70, 3.0, 0.375, True),
    # and a rounding step below 1 at rate 0.1 and rho 0.8
    (115, 0.8, 0.1, False)])
def test_run_validate_and_warning_share_one_margin(tmp_path, n, rho, rate,
                                                   divergent):
    doc = preset("fig6")
    doc["topology"]["n"] = n
    doc.update(rho=rho, rates=[rate], replicas=2, horizon=0.6)
    path = _write_config(tmp_path, doc)
    cfg = load_config(path)
    point = run_experiment(cfg, out_dir=str(tmp_path)).summary["points"][0]
    [derived] = validate_config(path)["derived"]["points"]
    assert point["divergent"] is divergent
    assert (stability_margin(1.0 - rate, rho) >= 1.0) is divergent
    assert point["margin"] == derived["stability_margin"]
    assert (derived["stability_margin"] >= 1.0) is divergent
    assert any("divergent" in w for w in cfg.warnings) is divergent
    header, row = [line.split(",") for line in
                   (tmp_path / "fig6_variance.csv").read_text().splitlines()]
    cells = dict(zip(header, row))
    assert cells["divergent"] == ("1" if divergent else "0")
    for name in ("sigma_sq_predicted", "ratio_emp_over_pred"):
        assert (cells[name] == "") is divergent
        assert (point[name] is None) is divergent
    if not divergent:
        assert point["sigma_sq_predicted"] > 0.0


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


def _break_upper_bound(monkeypatch, call):
    """Make call number `call` (from 0) of experiments.bound_report report
    a converged aggregate over i_w/r."""
    reports = []

    def bound_report(*args):
        reports.append(oracle.bound_report(*args))
        if len(reports) == call + 1:
            return dataclasses.replace(reports[-1], upper_bound_ok=False)
        return reports[-1]

    monkeypatch.setattr(experiments, "bound_report", bound_report)


@pytest.mark.parametrize("over,call", [
    ({"replicas": 3}, 1),
    # the second size's replica 1, numbered within its size
    ({"experiment": "sweep", "topology": {"kind": "ula", "d": 1.0},
      "sweep": {"sizes": [4, 6]}, "replicas": 2}, 3),
], ids=["converge", "sweep"])
def test_bound_violation_fails_the_run_before_any_file(tmp_path, capsys,
                                                       monkeypatch, over,
                                                       call):
    doc = _tiny_doc(**over)
    cfg = parse_config(doc)
    out = tmp_path / "out"
    _break_upper_bound(monkeypatch, call)
    with pytest.raises(BoundViolationError) as exc:
        run_experiment(cfg, out_dir=str(out))
    record = exc.value.record
    assert record["failure"] == "upper_bound_violation"
    assert record["replica"] == 1
    assert record["config_hash"] == config_hash(cfg.resolved)
    assert not out.exists()
    path = _write_config(tmp_path, doc)
    _break_upper_bound(monkeypatch, call)
    assert main(["run", path, "--out", str(out)]) == 2
    assert dumps_canonical(record) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.xfail(strict=True, reason="the Poisson stop after 2*n_active "
                   "quiet events does not certify a fixed point")
def test_poisson_converge_run_passes_the_upper_bound(tmp_path, capsys):
    # replica 1 stops after 7 events at bands [1, 1, 2], where clusters 0
    # and 1 can still improve, and its aggregate 2.0 exceeds i_w/r = 1.5
    doc = _tiny_doc(topology={"kind": "ula", "n": 3, "d": 1.0}, bands=3,
                    base_seed=3122766, replicas=2,
                    scheduler={"kind": "poisson", "delta_t": 0.05})
    path = _write_config(tmp_path, doc)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0


def test_cli_preset_stdout(capsys):
    assert main(["preset", "fig3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["experiment"] == "sweep"


def test_cli_preset_write(tmp_path, capsys):
    target = tmp_path / "p.json"
    assert main(["preset", "fig2a", "--write", str(target)]) == 0
    assert json.loads(target.read_text())["experiment"] == "converge"
    assert capsys.readouterr().out.strip() == str(target)


def test_cli_preset_write_to_a_directory(tmp_path, capsys):
    assert main(["preset", "fig2a", "--write", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("i/o error:")
    assert captured.out == ""


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


def test_cli_run_rejects_non_finite_number(tmp_path, capsys):
    path = _write_config(tmp_path, _tiny_doc(rho=math.nan))
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    assert ("config error: config.rho: expected a finite number, got nan"
            in capsys.readouterr().err.splitlines())
    assert not (tmp_path / "out").exists()


# an integer literal one digit past Python's int-to-string limit
_DIGIT_LIMIT = sys.get_int_max_str_digits()
_TOO_MANY_DIGITS = (
    f"topology.path: invalid topology JSON: Exceeds the limit "
    f"({_DIGIT_LIMIT} digits) for integer string conversion: value has "
    f"{_DIGIT_LIMIT + 1} digits")


@pytest.mark.parametrize("saved,line", [
    ({"positions": [[0.0], [1.0], [1.0]], "p0": 1.0, "eta": 2.0},
     "topology.path: coincident clusters (zero pairwise distance)"),
    ({"positions": [[0.0], [1.0]], "p0": 1.0, "eta": math.inf},
     "topology.path: eta must be finite and >= 1, got inf"),
    ({"positions": [[0.0], [1.0]], "p0": "x", "eta": 2.0},
     "topology.path: 'p0' must be a number, got 'x'"),
    ({"positions": [[0.0], [1.0]], "p0": 1.0, "eta": True},
     "topology.path: 'eta' must be a number, got True"),
    ({"positions": [[0.0], ["1"]], "p0": 1.0, "eta": 2.0},
     "topology.path: positions must hold numbers"),
    (b'\xff\xfe{"positions": [[0.0], [1.0]]}',
     "topology.path: not UTF-8 (invalid start byte)"),
    ({"positions": [[0.0], [1.0]], "p0": 10 ** 400, "eta": 2.0},
     "topology.path: 'p0' must lie within the float range"),
    ({"positions": [[0.0], [-10 ** 400]], "p0": 1.0, "eta": 2.0},
     "topology.path: positions must lie within the float range"),
    pytest.param(b'{"positions": [[0.0], [1.0]], "p0": 1'
                 + b"0" * _DIGIT_LIMIT + b', "eta": 2.0}',
                 _TOO_MANY_DIGITS, id="p0_too_many_digits"),
    pytest.param(b'{"positions": [[0.0], [1' + b"0" * _DIGIT_LIMIT
                 + b']], "p0": 1.0, "eta": 2.0}',
                 _TOO_MANY_DIGITS, id="positions_too_many_digits")])
def test_file_topology_that_fails_to_load_is_a_config_error(
        tmp_path, capsys, saved, line):
    top = tmp_path / "top.json"
    top.write_bytes(saved if isinstance(saved, bytes)
                    else json.dumps(saved).encode("utf-8"))
    path = _write_config(tmp_path, _tiny_doc(
        topology={"kind": "file", "path": str(top)}))
    report = validate_config(path)
    assert report["valid"] is False
    assert report["errors"] == [line]
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    assert f"config error: {line}" in capsys.readouterr().err.splitlines()


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'\xff\xfe{')
    line = "config: not UTF-8 (invalid start byte)"
    report = validate_config(path)
    assert report["valid"] is False
    assert report["errors"] == [line]
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"config error: {line}" in capsys.readouterr().err.splitlines()
    assert not (tmp_path / "out").exists()


def test_random_array_without_a_placement_is_a_config_error(tmp_path,
                                                            capsys):
    # min_sep <= d passes parsing, but no random draw of 60 clusters fits
    path = _write_config(tmp_path, _tiny_doc(topology={
        "kind": "random_linear", "n": 60, "d": 1.0, "min_sep": 0.99}))
    line = ("topology: no feasible placement found in 10000 attempts "
            "(n=60, d=1.0, min_sep=0.99)")
    report = validate_config(path)
    assert report["valid"] is False
    assert report["errors"] == [line]
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    assert f"config error: {line}" in capsys.readouterr().err.splitlines()
    assert not (tmp_path / "out").exists()


def test_sweep_runs_the_oracle_once_per_size(tmp_path, monkeypatch):
    # the optimum depends only on the instance, not on the replica
    sizes = []
    exhaustive = oracle.brute_force_optimal

    def counted(top, act, r, **kw):
        sizes.append(top.n)
        return exhaustive(top, act, r, **kw)

    monkeypatch.setattr(oracle, "brute_force_optimal", counted)
    doc = _tiny_doc(experiment="sweep", topology={"kind": "ula", "d": 1.0},
                    sweep={"sizes": [4, 6]}, replicas=3)
    result = run_experiment(parse_config(doc), out_dir=str(tmp_path))
    assert sizes == [4, 6]
    assert [row["i_o_kind"] for row in result.summary["sizes"]] == [
        "oracle", "oracle"]


def test_sweep_reports_each_sizes_own_bounds(tmp_path):
    # 2^21 assignments at n=21 exceed the oracle cap of 2^20
    doc = _tiny_doc(experiment="sweep", topology={"kind": "ula", "d": 1.0},
                    sweep={"sizes": [4, 21]}, replicas=2)
    result = run_experiment(parse_config(doc), out_dir=str(tmp_path))
    rows = result.summary["sizes"]
    assert [row["i_o_kind"] for row in rows] == ["oracle", "reference"]
    assert [row["reference_kind"] for row in rows] == ["alternating"] * 2
    for row in rows:
        assert row["analytic_ratio_cap"] == pytest.approx(2.0)
        assert row["gap_convention"] == "adjacent"
    assert sorted(result.summary["bounds"]) == [
        "max_ratio_aw", "ratio_cap_ok_all", "upper_ok_all"]
    header = result.files[-1].read_text().splitlines()[0]
    assert "limit_norm" in header.split(",")


@pytest.mark.parametrize("over,guard,failure,line", [
    # no event falls inside the horizon, so nothing relaxes
    ({"experiment": "relaxation", "horizon": 0.005}, None, "FitError",
     "runtime failure: need i_w > i_a, got i_w=25.137418115394304, "
     "i_a=25.137418115394304"),
    # the last event comes before the warmup ends
    ({"experiment": "variance", "horizon": 1.0, "warmup": 0.995,
      "rates": [0.01], "replicas": 2}, None, "StatisticsError",
     "runtime failure: warmup 0.995 leaves no samples before t_end "
     "0.9693793577975722"),
    # one grid point, 0.965, lies between the warmup and the last event
    ({"experiment": "variance", "horizon": 1.0, "warmup": 0.965,
      "rates": [0.01], "replicas": 2}, None, "StatisticsError",
     "runtime failure: fewer than 2 post-warmup samples per replica"),
    # a budget of one update ends the run long before it converges
    ({}, 1, "ConvergenceError",
     "runtime failure: no convergence within 1 updates (n=10, eta=2.0)")],
    ids=["relaxation", "variance", "variance_one_sample", "converge"])
def test_cli_run_reports_dynamics_failures(tmp_path, capsys, monkeypatch,
                                           over, guard, failure, line):
    if guard is not None:
        monkeypatch.setattr(allocation, "default_update_guard",
                            lambda n, eta: guard)
    path = _write_config(tmp_path, _tiny_doc(
        topology={"kind": "ula", "n": 10, "d": 1.0},
        scheduler={"kind": "poisson", "delta_t": 0.01}, **over))
    assert validate_config(path)["valid"] is True
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f'"failure": "{failure}"' in err
    assert err.splitlines()[-1] == line
    assert not (tmp_path / "out").exists()


def test_cli_validate_missing_topology_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    path = _write_config(tmp_path, _tiny_doc(
        topology={"kind": "file", "path": str(missing)}))
    line = f"i/o error: [Errno 2] No such file or directory: '{missing}'"
    assert main(["validate", path]) == 3
    assert capsys.readouterr().err.splitlines() == [line]
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.splitlines() == [line]


@pytest.mark.parametrize("over", [
    {"topology": {"kind": "ula", "n": 6, "d": 1e-200}},
    {"topology": {"kind": "ula", "n": 6, "d": 1e200}},
    {"topology": {"kind": "rect", "rows": 3, "cols": 3, "d": 1.0},
     "p0": 1e308},
    {"experiment": "relaxation", "horizon": 1.0,
     "scheduler": {"kind": "poisson", "delta_t": 0.1},
     "topology": {"kind": "ula", "n": 6, "d": 1e-200}},
], ids=["ula_near", "ula_far", "rect_loud", "relaxation_near"])
def test_weights_beyond_the_float_range_are_a_config_error(tmp_path, capsys,
                                                           over):
    # each passes parsing, but some p0/dist**eta overflows or underflows
    path = _write_config(tmp_path, _tiny_doc(**over))
    report = validate_config(path)
    assert report["valid"] is False
    [line] = report["errors"]
    assert line.startswith("topology: path-loss weight")
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    assert f"config error: {line}" in capsys.readouterr().err.splitlines()
