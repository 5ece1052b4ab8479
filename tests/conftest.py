"""Hypothesis runs derandomized and without an example database, so every
run of one commit draws the same examples and a fuzz failure reproduces.

``float64_layers`` builds every layer of a test in float64, the reference
dtype its tolerances were set for; ``layer_dtype(d)`` sets the dtype of the
layers built after the call, for tests that build one model in each.
``sgns_batch(n)`` sets the pairs of an SGNS step, for tests whose corpora
are too small to fill many batches of ``embeddings.BATCH_PAIRS``.

Every test must leave no child process behind, running or unreaped: a
pipeline run that forks a store builder reaps it before it returns."""

import os

import numpy as np
import pytest
from hypothesis import settings

from mulr import embeddings, nn

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


@pytest.fixture
def layer_dtype(monkeypatch):
    def set_dtype(dtype):
        monkeypatch.setattr(nn, "DTYPE", dtype)
    return set_dtype


@pytest.fixture
def float64_layers(layer_dtype):
    layer_dtype(np.float64)


@pytest.fixture
def sgns_batch(monkeypatch):
    def set_batch(pairs):
        monkeypatch.setattr(embeddings, "BATCH_PAIRS", pairs)
    return set_batch


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left a child process "
                f"({pid or 'still running'})")
