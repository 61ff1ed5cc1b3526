"""Shared fixtures: tiny deterministic datasets and parameter stores."""

import tracemalloc

import numpy as np
import pytest

from hiersum.data import generate_synthetic, load_dataset
from hiersum.policy import init_policy
from hiersum.seeding import substream


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """Six separable videos, T=40, D=6."""
    out = tmp_path_factory.mktemp("tiny")
    manifest = generate_synthetic(out, seed=11, videos=6, frames=40, dims=6, users=3)
    return load_dataset(manifest)


@pytest.fixture()
def small_store():
    """Policy parameters for D=5, H=4 on a fixed stream."""
    return init_policy(5, 4, substream(99, "init"))


def zero_store(feature_dim, hidden):
    store = init_policy(feature_dim, hidden, substream(0, "init"))
    for name in store.names():
        store.params[name].fill(0.0)
    return store


@pytest.fixture()
def rng():
    return np.random.default_rng(20240814)


class traced_peak:
    """Trace allocations inside a with block; .peak is the highest traced total, in bytes."""

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        _, self.peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
