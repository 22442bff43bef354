import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bandsim.topology import (Topology, TopologyError, load_topology,
                              make_hexagonal_lattice,
                              make_random_linear_array,
                              make_rectangular_lattice,
                              make_uniform_linear_array,
                              topology_from_json, topology_from_positions)

from reference import nearest_pair_distance, path_loss_weights


def _to_json(top) -> str:
    """The topology file document of top."""
    return json.dumps({"positions": top.positions.tolist(), "p0": top.p0,
                       "eta": top.eta})


def test_ula_positions_and_distances():
    top = make_uniform_linear_array(5, 2.0)
    assert top.n == 5
    assert top.dim == 1
    assert np.allclose(top.positions[:, 0], [0.0, 2.0, 4.0, 6.0, 8.0])
    # w_ij = p0/(|i-j| * d)**eta with |i-j| * d exact, and a zero diagonal
    for i in range(5):
        for j in range(5):
            assert top.weights[i, j] == (
                0.0 if i == j else 1.0 / (abs(i - j) * 2.0) ** 2.0)
    assert nearest_pair_distance(top) == 2.0


def test_ula_defaults_and_overrides():
    top = make_uniform_linear_array(3, 1.0)
    assert top.p0 == 1.0
    assert top.eta == 2.0
    top = make_uniform_linear_array(3, 1.0, p0=4.0, eta=3.5)
    assert top.p0 == 4.0
    assert top.eta == 3.5


def test_topology_holds_one_matrix():
    assert [f.name for f in dataclasses.fields(Topology)] == [
        "positions", "weights", "p0", "eta"]


def test_positions_are_frozen():
    top = make_uniform_linear_array(3, 1.0)
    with pytest.raises(ValueError):
        top.positions[0, 0] = 5.0
    with pytest.raises(ValueError):
        top.weights[0, 1] = 5.0


def test_positions_do_not_alias_the_callers_array():
    base = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    top = topology_from_positions(base[:, :])
    assert base.flags.writeable
    base[2, 0] = 1.0000001
    assert top.positions[2, 0] == 2.0
    assert top.weights[1, 2] == 1.0


def test_topology_validation_errors():
    with pytest.raises(TopologyError):
        topology_from_positions(np.zeros((0, 2)))
    with pytest.raises(TopologyError):
        topology_from_positions(np.zeros((2, 3)))
    with pytest.raises(TopologyError):
        make_uniform_linear_array(3, 1.0, p0=0.0)
    with pytest.raises(TopologyError):
        make_uniform_linear_array(3, 1.0, p0=-1.0)
    with pytest.raises(TopologyError):
        make_uniform_linear_array(3, 1.0, eta=0.5)
    # coincident clusters give a zero pairwise distance
    with pytest.raises(TopologyError, match="coincident"):
        topology_from_positions([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("positions,p0,eta", [
    ([[0.0], [math.inf]], 1.0, 2.0), ([[0.0], [math.nan]], 1.0, 2.0),
    ([[0.0], [1.0]], math.inf, 2.0), ([[0.0], [1.0]], 1.0, math.inf)])
def test_topology_rejects_non_finite_values(positions, p0, eta):
    with pytest.raises(TopologyError, match="finite"):
        topology_from_positions(positions, p0, eta)


@pytest.mark.parametrize("positions,p0,eta,match", [
    ([[0.0], [1e-200]], 1.0, 2.0, "sum beyond the float range"),
    ([[0.0], [1.0], [2.0]], 1e308, 2.0, "sum beyond the float range"),
    ([[0.0], [1e200]], 1.0, 2.0, "underflows to 0"),
    ([[0.0], [1e3]], 1.0, 200.0, "underflows to 0")])
def test_topology_rejects_weights_beyond_the_float_range(positions, p0, eta,
                                                         match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TopologyError, match=match):
            topology_from_positions(positions, p0, eta)


def test_ula_bad_args():
    with pytest.raises(TopologyError):
        make_uniform_linear_array(1, 1.0)
    with pytest.raises(TopologyError):
        make_uniform_linear_array(5, 0.0)
    with pytest.raises(TopologyError):
        make_uniform_linear_array(5, -1.0)


def test_random_linear_array_basic():
    rng = np.random.default_rng(7)
    top = make_random_linear_array(10, 1.0, 0.25, rng)
    assert top.n == 10
    # endpoints pinned to the nominal span
    xs = np.sort(top.positions[:, 0])
    assert xs[0] == 0.0
    assert xs[-1] == pytest.approx(9.0)
    assert nearest_pair_distance(top) >= 0.25


def test_random_linear_array_two_clusters():
    rng = np.random.default_rng(0)
    top = make_random_linear_array(2, 3.0, 0.5, rng)
    xs = np.sort(top.positions[:, 0])
    assert np.allclose(xs, [0.0, 3.0])


def test_random_linear_array_reproducible():
    a = make_random_linear_array(8, 1.0, 0.2, np.random.default_rng(42))
    b = make_random_linear_array(8, 1.0, 0.2, np.random.default_rng(42))
    assert np.array_equal(a.positions, b.positions)


def test_random_linear_array_infeasible_packing():
    rng = np.random.default_rng(1)
    # n * min_sep > span + min_sep cannot fit
    with pytest.raises(TopologyError, match="infeasible"):
        make_random_linear_array(10, 1.0, 2.0, rng)


def test_random_linear_array_bad_args():
    rng = np.random.default_rng(1)
    with pytest.raises(TopologyError):
        make_random_linear_array(1, 1.0, 0.1, rng)
    with pytest.raises(TopologyError):
        make_random_linear_array(5, 1.0, 0.0, rng)
    for d in (0.0, -1.0):
        with pytest.raises(TopologyError, match="mean spacing d must be > 0"):
            make_random_linear_array(5, d, 0.1, rng)


def test_rect_lattice_geometry():
    top = make_rectangular_lattice(3, 4, 1.5)
    assert top.n == 12
    assert top.dim == 2
    assert nearest_pair_distance(top) == pytest.approx(1.5)
    # row-major: next cluster in a row steps d in x, next row steps d in y
    assert np.allclose(top.positions[1] - top.positions[0], [1.5, 0.0])
    assert np.allclose(top.positions[4] - top.positions[0], [0.0, 1.5])


def test_hex_lattice_geometry():
    top = make_hexagonal_lattice(3, 3, 2.0)
    assert top.n == 9
    # equilateral packing: nearest-neighbour distance equals d everywhere
    assert nearest_pair_distance(top) == pytest.approx(2.0)
    # odd rows shifted d/2, row pitch d*sqrt(3)/2
    assert np.allclose(top.positions[3] - top.positions[0],
                       [1.0, 2.0 * np.sqrt(3.0) / 2.0])
    # the offset neighbour is exactly at distance d
    assert np.hypot(*(top.positions[3] - top.positions[0])) \
        == pytest.approx(2.0)


def test_lattice_bad_args():
    with pytest.raises(TopologyError):
        make_rectangular_lattice(0, 3, 1.0)
    with pytest.raises(TopologyError):
        make_rectangular_lattice(1, 1, 1.0)
    with pytest.raises(TopologyError):
        make_hexagonal_lattice(2, 2, 0.0)


def test_json_round_trip(tmp_path):
    top = make_hexagonal_lattice(2, 3, 1.25)
    path = tmp_path / "top.json"
    path.write_text(_to_json(top), encoding="utf-8")
    back = load_topology(path)
    assert np.array_equal(back.positions, top.positions)
    assert back.p0 == top.p0
    assert back.eta == top.eta
    assert np.array_equal(back.weights, top.weights)


# (maker, the spacing of a uniform linear array or None)
_MAKERS = {
    "ula": (lambda: make_uniform_linear_array(17, 1.3, eta=3.0), 1.3),
    "random_linear": (lambda: make_random_linear_array(
        23, 1.0, 0.05, np.random.default_rng(5), eta=2.5), None),
    "rect": (lambda: make_rectangular_lattice(5, 7, 0.9), None),
    "hex": (lambda: make_hexagonal_lattice(6, 5, 1.1, eta=4.0), None),
    "positions": (lambda: topology_from_positions(
        np.random.default_rng(9).uniform(-3.0, 3.0, size=(31, 2))), None),
    "json": (lambda: topology_from_json(_to_json(
        make_hexagonal_lattice(4, 6, 0.7))), None),
    # a single cluster is valid, with the one weight [[0.0]]
    "one_cluster": (lambda: topology_from_positions([[0.3, 0.7]], 1.7, 2.5),
                    None),
}


@pytest.mark.parametrize("name", list(_MAKERS))
def test_weights_are_exactly_symmetric(name):
    # InterferenceCache reads weight rows where it means weight columns
    w = _MAKERS[name][0]().weights
    assert np.array_equal(w, w.T)
    assert np.array_equal(w.view(np.int64), w.T.view(np.int64))


def _assert_reference_weights(top, ula_spacing):
    ref = path_loss_weights(top, ula_spacing)
    assert top.weights.shape == ref.shape
    assert np.array_equal(top.weights.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("name", list(_MAKERS))
def test_weights_match_the_reference_bit_for_bit(name):
    make, ula_spacing = _MAKERS[name]
    _assert_reference_weights(make(), ula_spacing)


_LATTICES = {
    "ula": lambda d, eta: make_uniform_linear_array(19, d, 1.7, eta),
    "rect": lambda d, eta: make_rectangular_lattice(4, 5, d, 1.7, eta),
    "hex": lambda d, eta: make_hexagonal_lattice(5, 4, d, 1.7, eta),
}


@pytest.mark.parametrize("eta", [2.0, 2.5, 3.0, 4.0])
@pytest.mark.parametrize("d", [0.1, 1.3])
@pytest.mark.parametrize("kind", list(_LATTICES))
def test_weights_match_the_reference_at_non_dyadic_spacings(kind, d, eta):
    _assert_reference_weights(_LATTICES[kind](d, eta),
                              d if kind == "ula" else None)


@pytest.mark.parametrize("make,bound", [
    (lambda: make_uniform_linear_array(1500, 1.0), 1.5),
    (lambda: make_hexagonal_lattice(40, 40, 1.0), 2.5)], ids=["ula", "hex"])
def test_build_peak_memory_is_about_one_matrix(make, bound):
    # the distances become the weights in place: a ULA needs one N x N
    # float64 array, a 2-D geometry one more for a coordinate pass
    tracemalloc.start()
    try:
        top = make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * top.n ** 2


def test_topology_from_json_malformed():
    with pytest.raises(TopologyError):
        topology_from_json("[1, 2, 3]")
    with pytest.raises(TopologyError):
        topology_from_json(json.dumps({"p0": 1.0, "eta": 2.0}))
    with pytest.raises(TopologyError):
        topology_from_json(json.dumps(
            {"p0": 1.0, "eta": 2.0, "positions": [[0.0], [1.0, 0.0]]}))
    with pytest.raises(TopologyError):
        topology_from_json("not json")
    with pytest.raises(TopologyError, match="'positions' must be a non-empty"):
        topology_from_json(json.dumps({"p0": 1.0, "eta": 2.0,
                                       "positions": []}))
