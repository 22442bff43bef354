"""Rules for comparing and flipping the state of `InterferenceCache`
objects in tests."""

import numpy as np


def cache_state(cache) -> dict:
    """Every attribute of cache in a form that compares by value: arrays as
    dtype, shape and bytes (sign bits of zeros included), each stream (rng,
    and _pick_rng once spawned) as its bit generator's state, the topology
    by identity, the shared weight matrix by identity and bytes, anything
    else with its type."""
    state = {}
    for name, value in vars(cache).items():
        if isinstance(value, np.random.Generator):
            state[name] = value.bit_generator.state
        elif name == "topology":
            state[name] = id(value)
        elif name == "weights":
            state[name] = (id(value), value.tobytes())
        elif isinstance(value, np.ndarray):
            state[name] = (value.dtype, value.shape, value.tobytes())
        else:
            state[name] = (type(value), value)
    return state


def assert_same_state(got, want):
    """Caches got and want hold the same attributes with equal states."""
    got, want = cache_state(got), cache_state(want)
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert got[name] == value, name


def toggle_active(cache, idx) -> None:
    """Flip the activity of cache's clusters at the indices idx (distinct)
    as one apply_flips update."""
    if idx.size == 0:
        return
    mask = cache.active.copy()
    mask[idx] = ~mask[idx]
    cache.apply_flips(idx, np.where(mask[idx], idx, idx + cache.n), mask)
