"""The mulr API that ``perfbench/`` relies on, checked without running it.

The benchmark traces functions by name (``perfbench/spans.py``) and calls
layer kernels directly (``perfbench/kernels.py``). A rename or a dropped
parameter fails here in well under a second, instead of in the benchmark's
own smoke test.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from mulr.corpus import build_vocabulary
from mulr.dataset import TypeSystem
from mulr.embeddings import (SgnsConfig, save_embeddings, train_sgns,
                             train_subword_sgns)
from mulr.levels import Assembler, RepresentationSpec, Resources
from mulr.nn import AdaGrad, ConvMaxPool, Dense, Lstm
from mulr.typer import (TyperModel, calibrate_from_scores, save_model,
                        train)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names() -> dict[str, tuple[str, ...]]:
    """``TRACED`` from spans.py, read from its source, not imported."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED table in perfbench/spans.py")


@pytest.mark.parametrize("module,name", [
    (module, name) for module, names in traced_names().items()
    for name in names])
def test_traced_name_exists(module, name):
    assert callable(getattr(importlib.import_module(f"mulr.{module}"), name))


# (callable, positional arguments, keyword arguments) as the benchmark
# passes them; ``None`` stands in for ``self``
CALLS = [
    (TyperModel.frozen_matrix, (None, []), {}),
    (SgnsConfig, (), dict(dim=50, epochs=1, positional=True, seed=1,
                          threads=2)),
    (calibrate_from_scores, (None, None), {}),
    (ConvMaxPool, ([(1, 2)], 3, None), {}),
    (ConvMaxPool.forward, (None, None), {}),
    (ConvMaxPool.backward, (None, None), {}),
    (Lstm.initialize, (3, 3, None), {}),
    (Lstm.forward, (None, None), {}),
    (Lstm.backward, (None, None), {}),
    (Dense.initialize, (3, 3, None), {}),
    (Dense.forward, (None, None), {}),
    (Dense.backward, (None, None), {}),
    (AdaGrad, (), dict(learning_rate=0.01)),
    (AdaGrad.step, (None, None, None), {}),
    (build_vocabulary, (None, 1), {}),
    (train_sgns, (None, None, None), {}),
]


@pytest.mark.parametrize("fn,args,kwargs", CALLS,
                         ids=[c[0].__qualname__ for c in CALLS])
def test_benchmark_call_binds(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


# parameters the tracer reads or injects by name
READ_BY_NAME = [
    (TyperModel.frozen_matrix, ("self", "instances")),
    (train_sgns, ("stream", "vocab", "on_epoch_end")),
    (train_subword_sgns, ("stream", "vocab", "on_epoch_end")),
    (train, ("on_epoch_end",)),
    (save_embeddings, ("path",)),
    (save_model, ("path",)),
]


@pytest.mark.parametrize("fn,names", READ_BY_NAME,
                         ids=[fn.__qualname__ for fn, _ in READ_BY_NAME])
def test_traced_parameter_names(fn, names):
    assert set(names) <= set(inspect.signature(fn).parameters)


def test_input_dim_counts_sparse_levels():
    """The tracer's ``levels.input_dim`` reads ``TyperModel.input_dim``, and
    the ``nn.dense_*`` and ``nn.adagrad_step_ms`` kernels size their Dense
    from it: it stays the full layout width, sparse levels included, though
    their columns live in the feature table."""
    res = Resources(type_system=TypeSystem(types=("t",), parent={}))
    spec = RepresentationSpec.parse("nsl")
    assembler = Assembler(spec, res).fit(["Alpha beta", "gamma"])
    model = TyperModel(spec, res, assembler, None, 4,
                       np.random.default_rng(0))
    assert model.input_dim == sum(d for _, d in model.layout)
    assert model.input_dim == len(assembler.indexers["nsl"]) > 0
