"""The served path scores without the character CNN's training pass:
``mulr calibrate`` and ``mulr predict`` on an ``elr,clr-cnn,tc`` model call
``ConvMaxPool.forward`` and ``ClrEncoder.forward`` only with
``train=False``, and they write the bytes they write unguarded."""

import inspect

import pytest

from mulr import cli
from mulr.levels import ClrEncoder
from mulr.nn import ConvMaxPool

CONFIG = """[paths]
corpus = corpus.txt
dataset = dataset.tsv
hierarchy = hierarchy.tsv
notable = notable.tsv
out_dir = cache
[representation]
levels = elr,clr-cnn,tc
padded_len = 12
char_dim = 4
widths = 1-3
feature_maps = 5
[embeddings]
dim = 8
epochs = 1
min_count = 1
[train]
epochs = 2
batch_size = 16
"""


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A tiny ``mixed`` set, its config, and a trained model file."""
    root = tmp_path_factory.mktemp("served")
    assert cli.main(["gen-synthetic", "--out", str(root), "--types", "4",
                     "--entities-per-type", "12", "--seed", "1"]) == 0
    config = root / "exp.ini"
    config.write_text(CONFIG, encoding="utf-8")
    model = root / "model.bin"
    assert cli.main(["train", "--config", str(config),
                     "--out", str(model)]) == 0
    return root, config, model


def serve(root, config, model, out) -> dict[str, bytes]:
    """Run ``mulr calibrate`` and then ``mulr predict`` on its output;
    the bytes of the two files they write."""
    out.mkdir()
    calibrated, preds = out / "calibrated.bin", out / "preds.tsv"
    assert cli.main(["calibrate", "--config", str(config),
                     "--model", str(model), "--out", str(calibrated)]) == 0
    assert cli.main(["predict", "--model", str(calibrated),
                     "--entities", str(root / "dataset.tsv"),
                     "--out", str(preds)]) == 0
    return {"model": calibrated.read_bytes(), "preds": preds.read_bytes()}


def scoring_only(forward, calls: list):
    """``forward``, recording each call in ``calls`` and failing on a
    training pass."""
    signature = inspect.signature(forward)

    def guarded(self, *args, **kwargs):
        bound = signature.bind(self, *args, **kwargs)
        bound.apply_defaults()
        if bound.arguments["train"]:
            raise AssertionError("the served path ran a training pass")
        calls.append(forward.__qualname__)
        return forward(self, *args, **kwargs)

    return guarded


def test_serving_never_runs_the_training_pass(served, tmp_path, monkeypatch,
                                              capsys):
    plain = serve(*served, tmp_path / "plain")
    calls = []
    for cls in (ConvMaxPool, ClrEncoder):
        monkeypatch.setattr(cls, "forward", scoring_only(cls.forward, calls))
    guarded = serve(*served, tmp_path / "guarded")
    assert "Traceback" not in capsys.readouterr().err
    assert set(calls) == {"ConvMaxPool.forward", "ClrEncoder.forward"}
    assert guarded == plain
