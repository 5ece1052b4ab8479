"""The mulr API that ``perfbench/`` relies on, checked in well under a
second each.

The benchmark traces functions by name (``perfbench/spans.py``), calls
layer kernels directly (``perfbench/kernels.py``), and loads, edits and
runs its workload configs through ``pipeline`` (``perfbench/workloads.py``,
``perfbench/run.py``). A rename or a dropped parameter fails here instead
of in the benchmark's own smoke test.
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
from mulr.metrics import EvalReport
from mulr.nn import AdaGrad, ConvMaxPool, Dense, Lstm
from mulr.pipeline import PipelineRun, load_config, run_pipeline
from mulr.typer import (TyperModel, calibrate_from_scores, save_model,
                        train)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_table(module: str, name: str):
    """The literal ``name`` assigned in ``perfbench/<module>.py``, read from
    its source, not imported."""
    path = PERFBENCH / f"{module}.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} table in {path.name}")


def traced_names() -> dict[str, tuple[str, ...]]:
    return perfbench_table("spans", "TRACED")


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


def test_kernel_calls_run():
    """The layer calls of ``perfbench/kernels.py`` at tiny sizes: each
    kernel forwards and then backpropagates repeatedly on one input, and
    AdaGrad steps on the dense layer's parameters and ``.grads``."""
    rng = np.random.default_rng(0)
    conv = ConvMaxPool([(w, 2) for w in range(1, 4)], 3, rng)
    chars = rng.uniform(-0.05, 0.05, (4, 6, 3))
    dconv = rng.standard_normal(conv.forward(chars).shape)
    lstm = Lstm.initialize(3, 3, rng)
    seq = rng.uniform(-0.05, 0.05, (4, 6, 3))
    lstm.forward(seq)
    dh = rng.standard_normal((4, 3))
    dense = Dense.initialize(8, 3, rng)
    x = (rng.random((4, 8)) < 0.5).astype(float)
    dense.forward(x)
    dy = rng.standard_normal((4, 3))
    for _ in range(2):
        conv.forward(chars)
        lstm.forward(seq)
        dense.forward(x)
    for _ in range(2):
        assert conv.backward(dconv).shape == chars.shape
        assert lstm.backward(dh)[0].shape == seq.shape
        assert dense.backward(dy).shape == x.shape
    before = {k: v.copy() for k, v in dense.params().items()}
    AdaGrad(learning_rate=0.01).step(dense.params(), dense.grads)
    for name, p in dense.params().items():
        assert np.all(np.isfinite(p)) and not np.array_equal(p, before[name])


def test_input_dim_counts_sparse_levels():
    """The tracer's ``levels.input_dim`` reads ``TyperModel.input_dim``, and
    the ``nn.dense_*`` and ``nn.adagrad_step_ms`` kernels size their Dense
    from it: it stays the full layout width, sparse levels included, though
    their columns live in the feature table."""
    res = Resources(type_system=TypeSystem(types=("t",), parent={}))
    spec = RepresentationSpec.parse("nsl")
    assembler = Assembler(spec, res)
    assembler.fit_rows(["Alpha beta", "gamma"])
    model = TyperModel(spec, res, assembler, None, 4,
                       np.random.default_rng(0))
    assert model.input_dim == sum(d for _, d in model.layout)
    assert model.input_dim == len(assembler.indexers["nsl"]) > 0


# fixed inputs: the cache keys hash their bytes, not what they mean
INPUTS = {
    "corpus": ("corpus.txt",
               "[[m.1|alpha one]] x y\n[[m.2|beta two]] y z\n"),
    "dataset": ("dataset.tsv", "#train\nm.1\talpha one\tt\t5\n"
                "#dev\nm.2\tbeta two\tt\t5\n#test\nm.3\tgamma\tt\t5\n"),
    "hierarchy": ("hierarchy.tsv", "t\n"),
    "notable": ("notable.tsv", "m.1\tt\n"),
}


def workload_config(root: Path, body: str) -> Path:
    """``INPUTS`` and a config laid out as ``workloads.setup`` writes it."""
    paths = "".join(f"{key} = {name}\n" for key, (name, _) in INPUTS.items())
    for name, text in INPUTS.values():
        (root / name).write_text(text, encoding="utf-8")
    path = root / "experiment.ini"
    path.write_text(f"[paths]\n{paths}out_dir = cache\n{body}"
                    f"[run]\nseed = 1\nthreads = 1\n", encoding="utf-8")
    return path


# tokens, main store, subword store and model key of each workload config
# over ``INPUTS``; the tokens key is that of the string-keyed config the
# model key replaced, and the store and model keys hash the float32 formats
# ``MULR-STORE 2`` and ``MULR-MODEL 4``
WORKLOAD_KEYS = {
    "embed": ("f1fafb30bc70", "d37241aaeedf", "e0db4ec56780",
              "0bd4fbe25bc8"),
    "infer": ("f1fafb30bc70", "a877ce3346fb", "62be27249a08",
              "10a554f4f1af"),
    "typer": ("f1fafb30bc70", "d43589b41aa6", "7ded400faa69",
              "5a5abd64a9c1"),
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_KEYS))
def test_workload_cache_keys(tmp_path, workload):
    body = perfbench_table("workloads", "CONFIG")[workload]
    run = PipelineRun(load_config(workload_config(tmp_path, body)))
    assert (run.tokens_key(), run.main_store_key(), run.subword_store_key(),
            run.model_key()) == WORKLOAD_KEYS[workload]


def test_pipeline_use(tmp_path):
    """``load_config`` with the path alone, an assigned ``out_dir``, and
    ``run_pipeline`` returning (report, artifacts) that name the
    predictions, the report TSV with its ``.txt`` beside it, and the
    model."""
    config = workload_config(tmp_path, "[representation]\nlevels = nsl\n"
                             "[train]\nepochs = 1\n")
    cfg = load_config(config)
    cfg.out_dir = tmp_path / "elsewhere"
    report, artifacts = run_pipeline(cfg)
    assert isinstance(report, EvalReport)
    for name in ("predictions", "report_tsv", "model"):
        assert artifacts[name].parent == cfg.out_dir
        assert artifacts[name].exists()
    assert artifacts["report_tsv"].with_suffix(".txt").exists()
