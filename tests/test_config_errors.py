"""Exact error lists of malformed config documents.

Together the documents reach every message that `parse_config` and its
sweep-size parser can report, so any rewrite of the parser must keep each
message, its field path and the set of lines it reports.  Lists are
compared sorted: the order in which checks run is not part of the contract.
"""

import json
import sys
import warnings

import pytest

from bandsim import experiments
from bandsim.cli import main
from bandsim.experiments import ConfigError, parse_config

P = {"kind": "poisson", "delta_t": 0.05}

CASES = {
    "not_object": (
        [1, 2],
        ['config: must be a JSON object']),
    "empty": (
        {},
        ['config.bands: required',
         'config.base_seed: required',
         'config.experiment: required',
         'scheduler: required object',
         'topology: required object']),
    "bad_kinds": (
        {"experiment": "nope", "topology": {"kind": "nowhere"},
         "bands": "two", "base_seed": 1.5, "scheduler": [],
         "initial_assignment": "zeros", "bogus": 1},
        ["config.bands: expected a number, got 'two'",
         'config.base_seed: expected an integer, got 1.5',
         'config.bogus: unknown key',
         "config.experiment: must be one of ['converge', 'relaxation', "
         "'sweep', 'variance'], got 'nope'",
         "config.initial_assignment: must be one of ['all_band_one', "
         "'uniform_random'], got 'zeros'",
         'scheduler: required object',
         "topology.kind: must be one of ['file', 'hex', 'random_linear', "
         "'rect', 'ula'], got 'nowhere'"]),
    "ula_bad": (
        {"experiment": "converge",
         "topology": {"kind": "ula", "n": 1.5, "d": 0, "x": 1},
         "bands": 0, "base_seed": -1, "eta": 0.5, "p0": 0,
         "replicas": 0,
         "scheduler": {"kind": "round_robin", "delta_t": 0, "y": 2},
         "link": {"signal_power": 0, "noise_power": "x", "z": 3},
         "output": {"dir": "", "prefix": "", "write_trace": 1,
                    "write_capacity_series": "no", "w": 4}},
        ['config.bands: must be >= 1, got 0',
         'config.base_seed: must be >= 0, got -1',
         'config.eta: must be >= 1.0, got 0.5',
         'config.p0: must be > 0.0, got 0',
         'config.replicas: must be >= 1, got 0',
         "link.noise_power: expected a number, got 'x'",
         'link.signal_power: must be > 0.0, got 0',
         'link.z: unknown key',
         'output.dir: expected a non-empty string',
         'output.prefix: expected a non-empty string',
         'output.w: unknown key',
         "output.write_capacity_series: expected true/false, got 'no'",
         'output.write_trace: expected true/false, got 1',
         'scheduler.delta_t: must be > 0.0, got 0',
         "scheduler.kind: must be one of ['permutation', 'poisson'], got "
         "'round_robin'",
         'scheduler.y: unknown key',
         'topology.d: must be > 0.0, got 0',
         'topology.n: expected an integer, got 1.5',
         'topology.x: unknown key']),
    "ula_missing": (
        {"experiment": "converge", "topology": {"kind": "ula"},
         "bands": 2, "base_seed": 1, "scheduler": {},
         "link": [1], "output": [2],
         "rho": 3.0, "horizon": 1.0, "warmup": 0.1,
         "sweep": {"sizes": [4]}, "rates": [0.1]},
        ["horizon: not allowed for experiment 'converge'",
         'link: expected an object',
         'output: expected an object',
         "rates: not allowed for experiment 'converge'",
         "rho: not allowed for experiment 'converge'",
         'scheduler.delta_t: required',
         'scheduler.kind: required',
         "sweep: not allowed for experiment 'converge'",
         'topology.d: required',
         'topology.n: required',
         "warmup: not allowed for experiment 'converge'"]),
    "random_linear": (
        {"experiment": "converge",
         "topology": {"kind": "random_linear", "n": 1,
                      "d": 1.0, "min_sep": 2.0},
         "bands": 2, "base_seed": 1, "scheduler": P},
        ['topology.min_sep: must be <= d (1.0), got 2.0',
         'topology.n: must be >= 2, got 1']),
    "no_kind": (
        {"experiment": "converge", "topology": {"rows": 2},
         "bands": 2, "base_seed": 1,
         "scheduler": {"kind": "poisson"}},
        ['scheduler.delta_t: required', 'topology.kind: required']),
    "random_linear_missing": (
        {"experiment": "converge",
         "topology": {"kind": "random_linear", "n": 4},
         "bands": 2, "base_seed": 1, "scheduler": P},
        ['topology.d: required', 'topology.min_sep: required']),
    "rect_small": (
        {"experiment": "converge",
         "topology": {"kind": "rect", "rows": 1, "cols": 1,
                      "d": 1.0},
         "bands": 2, "base_seed": 1, "scheduler": P},
        ['topology.rows: lattice needs at least 2 clusters']),
    "hex_bad": (
        {"experiment": "converge",
         "topology": {"kind": "hex", "rows": 0, "cols": "3",
                      "n": 4},
         "bands": 2, "base_seed": 1, "scheduler": P},
        ["topology.cols: expected a number, got '3'",
         'topology.d: required',
         'topology.n: unknown key',
         'topology.rows: must be >= 1, got 0']),
    "file": (
        {"experiment": "converge",
         "topology": {"kind": "file", "path": "", "d": 1.0},
         "eta": 2.0, "p0": 1.0, "bands": 2, "base_seed": 1,
         "scheduler": P},
        ['eta: comes from the topology file; remove it',
         'p0: comes from the topology file; remove it',
         'topology.d: unknown key',
         'topology.path: required string']),
    "sweep_ula": (
        {"experiment": "sweep",
         "topology": {"kind": "ula", "n": 4, "d": 1.0},
         "bands": 2, "base_seed": 1, "scheduler": P,
         "rho": 3.0, "horizon": 1.0, "warmup": 0.1,
         "rates": [0.1],
         "output": {"write_trace": True, "write_capacity_series": True},
         "sweep": {"sizes": [1, 2.5, "3", True, 8], "step": 1}},
        ["horizon: not allowed for experiment 'sweep'",
         "output.write_capacity_series: not allowed for experiment 'sweep'",
         "output.write_trace: not allowed for experiment 'sweep'",
         "rates: not allowed for experiment 'sweep'",
         "rho: not allowed for experiment 'sweep'",
         'sweep.sizes[0]: expected an integer >= 2, got 1',
         'sweep.sizes[1]: expected an integer >= 2, got 2.5',
         "sweep.sizes[2]: expected an integer >= 2, got '3'",
         'sweep.sizes[3]: expected an integer >= 2, got True',
         'sweep.step: unknown key',
         'topology.n: fixed size not allowed in a sweep',
         "warmup: not allowed for experiment 'sweep'"]),
    "sweep_rect": (
        {"experiment": "sweep",
         "topology": {"kind": "rect", "rows": 2, "cols": 3,
                      "d": 1.0},
         "bands": 2, "base_seed": 1, "scheduler": P,
         "sweep": {"sizes": [4, [1, 1], [2, 0], [2, 2, 2],
                             [2.0, 2], [3, 3]]}},
        ['sweep.sizes[0]: expected [rows, cols] with rows*cols >= 2, got 4',
         'sweep.sizes[1]: expected [rows, cols] with rows*cols >= 2, got '
         '[1, 1]',
         'sweep.sizes[2]: expected [rows, cols] with rows*cols >= 2, got '
         '[2, 0]',
         'sweep.sizes[3]: expected [rows, cols] with rows*cols >= 2, got '
         '[2, 2, 2]',
         'sweep.sizes[4]: expected [rows, cols] with rows*cols >= 2, got '
         '[2.0, 2]',
         'topology.rows: fixed size not allowed in a sweep']),
    "sweep_hex_empty": (
        {"experiment": "sweep",
         "topology": {"kind": "hex", "cols": 3, "d": 1.0},
         "bands": 2, "base_seed": 1, "scheduler": P,
         "sweep": {"sizes": []}},
        ['sweep.sizes: required non-empty list',
         'topology.rows: fixed size not allowed in a sweep']),
    "sweep_misc": (
        {"experiment": "sweep",
         "topology": {"kind": "random_linear", "n": 5, "d": 1.0,
                      "min_sep": 0.5},
         "bands": 2, "base_seed": 1, "scheduler": P,
         "sweep": [4, 8]},
        ["sweep: required object with a 'sizes' list",
         'topology.n: fixed size not allowed in a sweep']),
    "sweep_file": (
        {"experiment": "sweep",
         "topology": {"kind": "file", "path": 3},
         "p0": 1.0, "bands": 2, "base_seed": 1, "scheduler": P,
         "sweep": {"sizes": "4"}},
        ['p0: comes from the topology file; remove it',
         'sweep.sizes: required non-empty list',
         "topology.kind: 'file' cannot drive a sweep",
         'topology.path: required string']),
    "relaxation": (
        {"experiment": "relaxation",
         "topology": {"kind": "ula", "n": 6, "d": 1.0},
         "bands": 2, "base_seed": 1,
         "scheduler": {"kind": "permutation", "delta_t": 1.0},
         "initial_assignment": "uniform_random", "rho": 0,
         "link": {"signal_power": 1.0},
         "output": {"write_capacity_series": False},
         "warmup": 0.1, "sweep": {"sizes": [4]}, "rates": [0.1]},
        ['config.horizon: required',
         'config.rho: must be > 0.0, got 0',
         "initial_assignment: not allowed for experiment 'relaxation'",
         "link: not allowed for experiment 'relaxation'",
         "output.write_capacity_series: not allowed for experiment "
         "'relaxation'",
         "rates: not allowed for experiment 'relaxation'",
         "scheduler.kind: dynamics experiments need 'poisson'",
         "sweep: not allowed for experiment 'relaxation'",
         "warmup: not allowed for experiment 'relaxation'"]),
    "relaxation_range": (
        {"experiment": "relaxation",
         "topology": {"kind": "ula", "n": 6, "d": 1.0},
         "bands": 2, "base_seed": 1, "scheduler": P,
         "alpha": 1.0, "horizon": 0},
        ['config.alpha: unknown key',
         'config.horizon: must be > 0.0, got 0']),
    "relaxation_one_band": (
        {"experiment": "relaxation",
         "topology": {"kind": "ula", "n": 6, "d": 1.0},
         "bands": 1, "base_seed": 1, "scheduler": P, "horizon": 1.0},
        ['bands: a relaxation run needs at least 2 bands']),
    "variance": (
        {"experiment": "variance",
         "topology": {"kind": "ula", "n": 6, "d": 1.0},
         "bands": 2, "base_seed": 1, "replicas": 1,
         "scheduler": {"kind": "permutation", "delta_t": 1.0},
         "link": {}, "sweep": {"sizes": [4]}, "warmup": -1,
         "output": {"write_trace": False, "write_capacity_series": True},
         "rates": [0.5, 1.5, True, "x", -0.1]},
        ['config.horizon: required',
         'config.warmup: must be >= 0.0, got -1',
         "link: not allowed for experiment 'variance'",
         "output.write_capacity_series: not allowed for experiment "
         "'variance'",
         'rates[1]: must be a number in [0, 1], got 1.5',
         'rates[2]: must be a number in [0, 1], got True',
         "rates[3]: must be a number in [0, 1], got 'x'",
         'rates[4]: must be a number in [0, 1], got -0.1',
         'replicas: variance estimation needs >= 2 replicas',
         "scheduler.kind: dynamics experiments need 'poisson'",
         "sweep: not allowed for experiment 'variance'"]),
    "prefix_path": (
        {"experiment": "converge",
         "topology": {"kind": "ula", "n": 4, "d": 1.0},
         "bands": 2, "base_seed": 1, "scheduler": P,
         "output": {"prefix": "../escaped"}},
        ["output.prefix: must be a file name, without '/', '\\' or NUL"]),
    "dir_nul": (
        {"experiment": "converge",
         "topology": {"kind": "ula", "n": 4, "d": 1.0},
         "bands": 2, "base_seed": 1, "scheduler": P,
         "output": {"dir": "out\0put"}},
        ["output.dir: must be a path without NUL"]),
    "beyond_float": (
        {"experiment": "variance",
         "topology": {"kind": "ula", "n": 4, "d": 10 ** 400},
         "bands": 2, "base_seed": 1, "replicas": 4, "scheduler": P,
         "horizon": -10 ** 400, "rates": [0.1]},
        ['config.horizon: expected a number within the float range',
         'topology.d: expected a number within the float range']),
    "variance_no_rates": (
        {"experiment": "variance",
         "topology": {"kind": "ula", "n": 6, "d": 1.0},
         "bands": 2, "base_seed": 1, "replicas": 4,
         "scheduler": P, "horizon": 1.0, "rates": []},
        ['rates: required non-empty list of switching rates']),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_parse_error_list_is_pinned(name):
    doc, expected = CASES[name]
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert sorted(exc.value.errors) == expected


# topology.d literals that Python cannot hold as a float, and one longer
# than its int-to-string digit limit, which cannot be read at all
_LIMIT = sys.get_int_max_str_digits()
_OVERSIZED = {
    "beyond_float": (
        "1" + "0" * 400,
        'topology.d: expected a number within the float range'),
    "too_many_digits": (
        "1" + "0" * _LIMIT,
        f'config: invalid JSON: Exceeds the limit ({_LIMIT} digits) for '
        f'integer string conversion: value has {_LIMIT + 1} digits'),
}


@pytest.mark.parametrize("name", sorted(_OVERSIZED))
def test_oversized_integer_is_a_config_error(tmp_path, capsys, name):
    d, line = _OVERSIZED[name]
    path = tmp_path / "cfg.json"
    path.write_text(
        '{"experiment": "converge", "bands": 2, "base_seed": 1, '
        '"scheduler": {"kind": "poisson", "delta_t": 0.05}, '
        '"topology": {"kind": "ula", "n": 4, "d": %s}}' % d,
        encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is False
    assert report["errors"] == [line]
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"config error: {line}" in capsys.readouterr().err.splitlines()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("topology", [
    {"kind": "ula", "n": 10 ** 400, "d": 1.0},
    {"kind": "random_linear", "n": 10 ** 400, "d": 1.0, "min_sep": 0.5},
    {"kind": "rect", "rows": 2, "cols": 10 ** 400, "d": 1.0},
    {"kind": "hex", "rows": 10 ** 400, "cols": 2, "d": 1.0}])
def test_topology_beyond_numpy_array_size_is_a_config_error(
        tmp_path, capsys, topology):
    line = ("topology: too many clusters: an n x n float64 matrix exceeds "
            "the largest array numpy can hold")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {"experiment": "converge", "bands": 2, "base_seed": 1,
         "scheduler": P, "topology": topology}), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is False
    assert report["errors"] == [line]
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"config error: {line}" in capsys.readouterr().err.splitlines()
    assert not (tmp_path / "out").exists()


def _ula(experiment, n, delta_t, **settings):
    return {"experiment": experiment, "bands": 2, "base_seed": 1,
            "topology": {"kind": "ula", "n": n, "d": 1.0},
            "scheduler": {"kind": "poisson", "delta_t": delta_t},
            **settings}


def _check_line(path, what):
    return f"{path}: {what} lies beyond the float range"


_QUIET = _check_line(
    "scheduler.delta_t", "2*N*delta_t (the span of 2*N events, about the "
    "fewest a run to convergence takes)")
_COUNT = _check_line("scheduler.delta_t",
                     "horizon/delta_t (the expected event count)")
_BANDS = ("bands: too many bands: a 2N x bands float64 table exceeds the "
          "largest array numpy can hold")
# configs whose time scales or sizes leave the float range or numpy's
# largest array; each is a config error of both commands, and no file is
# written
_BEYOND = {
    "converge_delta_t_1e306": (_ula("converge", 100, 1e306), [_QUIET]),
    "converge_delta_t_1e307": (_ula("converge", 100, 1e307), [_QUIET]),
    "relaxation_delta_t_1e-320": (
        _ula("relaxation", 20, 1e-320, horizon=1.0), [_COUNT]),
    "variance_delta_t_1e-320": (
        _ula("variance", 20, 1e-320, horizon=1.0, rates=[0.5], warmup=0.5,
             replicas=2),
        [_COUNT, _check_line("scheduler.delta_t",
                             "lambda at switching rate 0.5")]),
    "variance_rho_1e-320": (
        _ula("variance", 20, 0.05, horizon=1.0, rates=[0.01], warmup=0.5,
             replicas=2, rho=1e-320),
        [_check_line("rho", "the stability margin at switching rate 0.01")]),
    "bands_1e20": (_ula("converge", 10, 0.05, bands=10 ** 20), [_BANDS]),
    "bands_2_62": (_ula("converge", 10, 0.05, bands=2 ** 62), [_BANDS]),
}


def _validate_and_run(tmp_path, capsys, doc):
    """(validate's exit code, its report, run's exit code, run's stderr
    lines) of doc; asserts that run wrote no output directory."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["validate", str(path)])
    report = json.loads(capsys.readouterr().out)
    run_code = main(["run", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert not (tmp_path / "out").exists()
    return code, report, run_code, err


@pytest.mark.parametrize("name", sorted(_BEYOND))
def test_scale_beyond_float_or_numpy_is_a_config_error(tmp_path, capsys,
                                                       name):
    doc, lines = _BEYOND[name]
    code, report, run_code, err = _validate_and_run(tmp_path, capsys, doc)
    assert code == 1
    assert report["valid"] is False
    assert report["errors"] == lines
    assert run_code == 1
    assert [f"config error: {line}" for line in lines] \
        == [e for e in err if e.startswith("config error:")]


def test_event_times_beyond_float_range_fail_the_converge_run(tmp_path,
                                                             capsys):
    # 2*tau = 1e308 is finite, but replica 0 (seed 1) runs to about
    # 6.8*tau, and its event times overflow before it converges: the run
    # says so in its config error alone, with no numpy warning
    doc = _ula("converge", 100, 5e305)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, report, run_code, err = _validate_and_run(tmp_path, capsys,
                                                        doc)
    assert [str(w.message) for w in caught] == []
    assert code == 0 and report["valid"] is True
    assert run_code == 1
    assert err == ["config error: scheduler.delta_t: the event times of "
                   "seed 1 run beyond the float range"]


# builders that stand in for an allocation beyond the host's memory
_NO_MEMORY = "Unable to allocate 74.5 GiB for an array with shape (100000, "\
             "100000) and data type int64"


def _out_of_memory(*args, **kwargs):
    raise MemoryError(_NO_MEMORY)


@pytest.mark.parametrize("experiment,settings", [
    ("converge", {}), ("relaxation", {"horizon": 1.0}),
    ("variance", {"horizon": 1.0, "rates": [0.01], "replicas": 2})])
def test_topology_beyond_memory_is_a_config_error(tmp_path, capsys,
                                                   monkeypatch, experiment,
                                                   settings):
    monkeypatch.setattr(experiments, "make_uniform_linear_array",
                        _out_of_memory)
    line = f"topology: does not fit in memory: {_NO_MEMORY}"
    code, report, run_code, err = _validate_and_run(
        tmp_path, capsys, _ula(experiment, 10, 0.05, **settings))
    assert (code, report["errors"]) == (1, [line])
    assert run_code == 1 and err == [f"config error: {line}"]


@pytest.mark.parametrize("experiment,settings", [
    ("converge", {}), ("relaxation", {"horizon": 1.0}),
    ("variance", {"horizon": 1.0, "rates": [0.01], "replicas": 2})])
def test_cache_beyond_memory_is_a_config_error(tmp_path, capsys,
                                               monkeypatch, experiment,
                                               settings):
    monkeypatch.setattr(experiments, "InterferenceCache", _out_of_memory)
    line = ("bands: the interference cache does not fit in memory: "
            + _NO_MEMORY)
    code, report, run_code, err = _validate_and_run(
        tmp_path, capsys, _ula(experiment, 10, 0.05, **settings))
    # validate builds no cache
    assert (code, report["valid"]) == (0, True)
    assert run_code == 1 and err == [f"config error: {line}"]


def _one_cluster_file(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"positions": [[0.0]], "p0": 1.0,
                                "eta": 2.0}), encoding="utf-8")
    return {"kind": "file", "path": str(path)}


# relaxation configs whose worst case is already converged, so the decay
# has nothing to fit: one band, or one cluster
_NO_DECAY = {
    "one_band": (
        lambda tmp_path: _ula("relaxation", 10, 0.05, bands=1, replicas=3,
                              horizon=0.5),
        "bands: a relaxation run needs at least 2 bands"),
    "one_cluster": (
        lambda tmp_path: {**_ula("relaxation", 10, 0.05, replicas=3,
                                 horizon=0.5),
                          "topology": _one_cluster_file(tmp_path)},
        "topology: a relaxation run needs at least 2 clusters, got 1"),
}


@pytest.mark.parametrize("name", sorted(_NO_DECAY))
def test_relaxation_without_decay_is_a_config_error(tmp_path, capsys, name):
    make, line = _NO_DECAY[name]
    code, report, run_code, err = _validate_and_run(tmp_path, capsys,
                                                    make(tmp_path))
    assert (code, report["valid"], report["errors"]) == (1, False, [line])
    assert run_code == 1 and err == [f"config error: {line}"]
