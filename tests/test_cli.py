import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mulr
from mulr import cli, pipeline
from mulr.corpus import load_corpus
from mulr.dataset import load_dataset, load_type_system
from mulr.embeddings import load_embeddings
from mulr.pipeline import PipelineRun, load_config, run_pipeline
from mulr.typer import load_model

CONFIG = """[paths]
corpus = corpus.txt
dataset = dataset.tsv
hierarchy = hierarchy.tsv
notable = notable.tsv
out_dir = cache
[representation]
levels = elr,swlr,tc
[embeddings]
dim = {dim}
epochs = 1
min_count = 1
[subword]
ngram_min_count = 1
n_max = 4
[train]
epochs = 3
batch_size = 16
[run]
seed = {seed}
threads = {threads}
"""

# (config text replaced, replacement), and the error it gives
OUT_OF_RANGE = [
    (("epochs = 3", "epochs = 0"), "epochs and batch_size must be positive"),
    (("dim = 8", "dim = 0"), "dim must be positive"),
    *[(("[representation]\n", f"[representation]\n{line}\n"), message)
      for line, message in [
          ("widths = 0", "widths: (0,) is not"),
          ("widths = 12", "widths: (12,) is not"),
          ("widths = 3-1", "widths: () is not"),
          ("feature_maps = 0", "feature_maps: 0 is below 1"),
          ("char_dim = 0", "char_dim: 0 is below 1"),
          ("top_k = 0", "top_k: 0 is below 1"),
          ("padded_len = 2", "padded_len: 2 is below 3"),
          ("hidden_units = 0", "hidden_units: 0 is below 1")]],
    (("levels = elr,swlr,tc", "levels = clr-lstm\nhidden_dim = 0"),
     "hidden_dim: 0 is below 1"),
    (("levels = elr,swlr,tc", "levels = clr-cnn\npadded_len = 5"),
     "padded_len: 5 is shorter than the widest filter, 8"),
    *[(("threads = 1", f"threads = {threads}"),
       f"run.threads: {threads} is above {pipeline.MAX_THREADS}")
      for threads in (pipeline.MAX_THREADS + 1, 1_000_000_000)],
    (("seed = 1", "seed = -1"), "run.seed: -1 is below 0"),
    *[((old, f"{old}\nlearning_rate = {value}"),
       f"learning_rate: {read} is not positive and finite")
      for old, value, read in [("epochs = 3", "nan", "nan"),
                               ("epochs = 1", "inf", "inf"),
                               ("[subword]", "1e999", "inf")]],
]

# the vocabulary and ngram counts, each bounded when the config loads:
# (config text replaced, replacement), and the error it gives
COUNT_BOUNDS = {
    "embeddings-min_count": (("min_count = 1\n[subword]",
                              "min_count = 0\n[subword]"),
                             "embeddings.min_count: 0 is below 1"),
    "subword-min_count": (("[subword]\n", "[subword]\nmin_count = 0\n"),
                          "subword.min_count: 0 is below 1"),
    "n_min": (("[subword]\n", "[subword]\nn_min = 0\n"),
              "subword.n_min: 0 is below 1"),
    "n_min-above-n_max": (("[subword]\n", "[subword]\nn_min = 5\n"),
                          "subword.n_max: 4 is below 5"),
    "ngram_min_count": (("ngram_min_count = 1", "ngram_min_count = 0"),
                        "subword.ngram_min_count: 0 is below 1"),
}


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    """A tiny ``mixed`` set written by ``mulr gen-synthetic`` and a config
    over it."""
    root = tmp_path_factory.mktemp("synth")
    assert cli.main(["gen-synthetic", "--out", str(root), "--types", "4",
                     "--entities-per-type", "12", "--seed", "1"]) == 0
    write_config(root, "exp.ini")
    return root


@pytest.fixture(scope="module")
def pipeline_run(synth):
    cfg = load_config(synth / "exp.ini")
    _, artifacts = run_pipeline(cfg)
    return PipelineRun(cfg), artifacts


def write_config(root, name, dim=8, seed=1, threads=1, extra=None):
    """``CONFIG`` under ``root``; ``extra`` maps a section header to a line
    added under it, a header ``CONFIG`` lacks starting a new section."""
    text = CONFIG.format(dim=dim, seed=seed, threads=threads)
    for header, line in (extra or {}).items():
        if f"{header}\n" in text:
            text = text.replace(f"{header}\n", f"{header}\n{line}\n")
        else:
            text += f"{header}\n{line}\n"
    (root / name).write_text(text, encoding="utf-8")
    return root / name


def copy_inputs(synth, root, names=("corpus.txt", "dataset.tsv",
                                     "notable.tsv", "hierarchy.tsv")):
    for name in names:
        (root / name).write_bytes((synth / name).read_bytes())


@pytest.fixture(scope="module")
def noted_model(synth, tmp_path_factory):
    """The tiny set with its first dev entity renamed to words the corpus
    never has, and a ``wwlr,elr`` model file trained on it: ``wwlr`` has
    no vector for that one name, which ``mulr train`` notes once."""
    root = tmp_path_factory.mktemp("noted")
    copy_inputs(synth, root, ("corpus.txt", "notable.tsv", "hierarchy.tsv"))
    lines = (synth / "dataset.tsv").read_text().splitlines()
    row = lines.index("#dev") + 1
    fields = lines[row].split("\t")
    fields[1] = "zzqx qxzz"
    lines[row] = "\t".join(fields)
    (root / "dataset.tsv").write_text("\n".join(lines) + "\n")
    config = write_config(root, "exp.ini")
    config.write_text(config.read_text().replace("elr,swlr,tc", "wwlr,elr"))
    model = root / "model.bin"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(["train", "--config", str(config),
                         "--out", str(model)]) == 0
    split = load_dataset(root / "dataset.tsv",
                         load_type_system(root / "hierarchy.tsv"))
    names = sum(len(e.names) for e in split.train) + len(split.dev)
    note = f"wwlr: no vector for 1 of {names} names"
    assert load_model(model).flags == [note]
    assert err.getvalue() == f"mulr: note: {note}\n"
    return config, model


def test_train_is_bit_deterministic_with_blas_pinned(synth, tmp_path):
    """Two ``mulr train`` processes with one BLAS thread each write
    byte-identical model files from one config. Each run has its own copy
    of the inputs and its own cache, so neither reads the other's stores,
    and its own hash seed, so no result may follow set or dict order of
    hashed strings."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src = str(Path(mulr.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    models = []
    for run, hash_seed in (("a", "1"), ("b", "2")):
        root = tmp_path / run
        root.mkdir()
        copy_inputs(synth, root)
        config = write_config(root, "exp.ini", extra={
            "[representation]": "feature_maps = 5\nwidths = 1-3"})
        config.write_text(config.read_text().replace(
            "elr,swlr,tc", "elr,swlr,clr-cnn,nsl,tc"))
        model = root / "model.bin"
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; from mulr.cli import main; sys.exit(main())",
             "train", "--config", str(config), "--out", str(model)],
            env={**env, "PYTHONHASHSEED": hash_seed}, capture_output=True,
            text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        models.append(model.read_bytes())
    assert models[0] == models[1]


class TestStages:
    def test_gen_synthetic_order_preset(self, tmp_path):
        assert cli.main(["gen-synthetic", "--preset", "order",
                         "--out", str(tmp_path)]) == 0
        assert (tmp_path / "order-corpus.txt").exists()
        assert (tmp_path / "order-classes.tsv").exists()

    def test_build_corpus_matches_pipeline_tokens(self, synth, pipeline_run,
                                                  tmp_path, capsys):
        """On a fresh cache, ``build-corpus`` writes the token files the
        pipeline wrote for the same inputs, under the same names, and
        prints their paths."""
        run, _ = pipeline_run
        tokens, protected = run.build_tokens()
        copy_inputs(synth, tmp_path)
        config = write_config(tmp_path, "exp.ini")
        capsys.readouterr()
        assert cli.main(["build-corpus", "--config", str(config)]) == 0
        cached = tmp_path / "cache"
        assert capsys.readouterr().out == (
            f"tokens cached at {cached / tokens.name}\n"
            f"protected tokens cached at {cached / protected.name}\n")
        assert (cached / tokens.name).read_bytes() == tokens.read_bytes()
        assert (cached / protected.name).read_bytes() \
            == protected.read_bytes()

    @pytest.mark.parametrize("mode", ["skip", "sskip", "subword"])
    def test_embed_each_mode(self, synth, tmp_path, monkeypatch, capsys,
                             mode):
        """``embed --out`` writes exactly the store the pipeline caches for
        the config, and a second call loads that store, training nothing."""
        copy_inputs(synth, tmp_path)
        extra = {} if mode == "subword" else {"[embeddings]": f"mode = {mode}"}
        config = write_config(tmp_path, "exp.ini", extra=extra)
        flags = ["--subword"] if mode == "subword" else []
        out = tmp_path / f"{mode}.vec"
        assert cli.main(["embed", "--config", str(config), *flags,
                         "--out", str(out)]) == 0

        trained = []
        for name in ("train_sgns", "train_subword_sgns"):
            monkeypatch.setattr(pipeline, name,
                                lambda *a, **k: trained.append(a))
        run = PipelineRun(load_config(config))
        store = (run.build_subword_store() if mode == "subword"
                 else run.build_main_store())
        label = "subword_embeddings" if mode == "subword" else "embeddings"
        assert run.artifacts[label].name.startswith(f"{mode}-")
        written = load_embeddings(out)
        assert written.tokens == store.tokens
        assert np.array_equal(written.matrix, store.matrix)
        capsys.readouterr()
        assert cli.main(["embed", "--config", str(config), *flags]) == 0
        assert capsys.readouterr().out \
            == f"store cached at {run.artifacts[label]}\n"
        assert trained == []

    def test_train_calibrate_predict_evaluate(self, synth, pipeline_run,
                                              tmp_path, capsys):
        run, artifacts = pipeline_run
        model = tmp_path / "model.bin"
        assert cli.main(["train", "--config", str(synth / "exp.ini"),
                         "--out", str(model)]) == 0
        assert model.read_bytes() == artifacts["model"].read_bytes()

        # calibrating under a config with another seed keeps the model's
        # identity: its config hash and seed
        other = write_config(synth, "exp-seed5.ini", seed=5)
        calibrated = tmp_path / "calibrated.bin"
        assert cli.main(["calibrate", "--config", str(other),
                         "--model", str(model),
                         "--out", str(calibrated)]) == 0
        loaded = load_model(calibrated)
        assert (loaded.config_hash, loaded.seed) == (run.model_key(), 1)

        preds = tmp_path / "preds.tsv"
        assert cli.main(["predict", "--model", str(calibrated),
                         "--entities", str(synth / "dataset.tsv"),
                         "--out", str(preds)]) == 0
        report = tmp_path / "report.tsv"
        capsys.readouterr()
        assert cli.main(["evaluate", "--preds", str(preds),
                         "--dataset", str(synth / "dataset.tsv"),
                         "--hierarchy", str(synth / "hierarchy.tsv"),
                         "--out", str(report)]) == 0
        assert "slice" in capsys.readouterr().out
        rows = report.read_text().splitlines()
        assert "all\tcorrect_count\t" in "\n".join(rows)

    def test_predict_matches_pipeline_predictions(self, synth, pipeline_run,
                                                  tmp_path):
        _, artifacts = pipeline_run
        preds = tmp_path / "preds.tsv"
        assert cli.main(["predict", "--model", str(artifacts["model"]),
                         "--entities", str(synth / "dataset.tsv"),
                         "--out", str(preds)]) == 0
        body = [line for line in
                artifacts["predictions"].read_text().splitlines()
                if not line.startswith("#")]
        ts = load_type_system(synth / "hierarchy.tsv")
        n_test = len(load_dataset(synth / "dataset.tsv", ts).test)
        assert len(body) == n_test
        # mulr predict writes train, dev, then test entities
        assert preds.read_text().splitlines()[-n_test:] == body

    def test_pipeline_and_report(self, synth, capsys):
        second = write_config(synth, "exp-tc.ini")
        second.write_text(second.read_text().replace("elr,swlr,tc", "elr,tc"))
        capsys.readouterr()
        assert cli.main(["pipeline", str(synth / "exp.ini"),
                         str(second)]) == 0
        out = capsys.readouterr().out
        assert "== exp ==" in out and "== exp-tc ==" in out
        assert "significance" in out
        reports = sorted(str(p) for p in (synth / "cache").glob("report-*.tsv"))
        assert len(reports) == 2
        assert cli.main(["report", *reports]) == 0
        assert "acc=" in capsys.readouterr().out


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        [],
        ["no-such-command"],
        ["train"],
        ["embed"],
        ["embed", "--config", "exp.ini", "--mode", "subword"],
        ["build-corpus", "--corpus", "corpus.txt"],
        ["predict", "--model", "m.bin"],
    ])
    def test_usage_error_exits_1(self, argv, capsys):
        assert cli.main(argv) == 1

    @pytest.mark.parametrize("argv", [
        ["train", "--config", "{missing}"],
        ["calibrate", "--config", "{missing}", "--model", "{missing}"],
        ["predict", "--model", "{missing}", "--entities", "{missing}",
         "--out", "{tmp}/p.tsv"],
        ["evaluate", "--preds", "{missing}", "--dataset", "{missing}",
         "--hierarchy", "{missing}"],
        ["embed", "--config", "{missing}", "--out", "{tmp}/out.vec"],
        ["embed", "--config", "{missing}", "--subword"],
        ["build-corpus", "--config", "{missing}"],
        ["pipeline", "{missing}"],
        ["report", "{missing}"],
    ])
    def test_missing_file_exits_2(self, argv, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        argv = [a.format(missing=missing, tmp=tmp_path) for a in argv]
        assert cli.main(argv) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("preset", ["mixed", "order"])
    def test_negative_synthetic_seed_exits_2(self, preset, tmp_path, capsys):
        assert cli.main(["gen-synthetic", "--preset", preset, "--seed", "-1",
                         "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "mulr: seed -1 is below 0\n"

    @pytest.mark.parametrize("fields,where", [
        ({"dim": "ten"}, "exp-bad.ini: embeddings.dim"),
        ({"threads": "one"}, "exp-bad.ini: run.threads"),
        *[({"extra": {header: line}}, f"exp-bad.ini: {where}")
          for header, line, where in [
              ("[embeddings]", "bogus = 1", "embeddings.bogus"),
              ("[embeddings]", "seed = 2", "embeddings.seed"),
              ("[embeddings]", "threads = 2", "embeddings.threads"),
              ("[embeddings]", "mode = foo", "embeddings.mode"),
              *[(f"[{section}]", f"{key} = 8",
                 f"{section}.{key}: not a config key")
                for section in ("embeddings", "subword")
                for key in ("table_size", "batch_pairs", "dynamic_window")],
              ("[subword]", "positional = true", "subword.positional"),
              ("[subword]", "bogus = 1", "subword.bogus"),
              ("[train]", "seed = 2", "train.seed"),
              ("[train]", "hidden_units = 7", "train.hidden_units"),
              ("[representation]", "top_kk = 5", "representation.top_kk"),
              ("[run]", "bogus = 1", "run.bogus"),
              ("[paths]", "descripitons = d.tsv", "paths.descripitons"),
              ("[embedding]", "dim = 9", "embedding.dim")]],
        ({"threads": "0"}, "exp-bad.ini: run.threads: 0 is below 1"),
        ({"threads": "-2"}, "exp-bad.ini: run.threads: -2 is below 1"),
    ])
    def test_bad_config_value_exits_2(self, synth, capsys, fields, where):
        config = write_config(synth, "exp-bad.ini", **fields)
        for argv in (["train", "--config", str(config)],
                     ["pipeline", str(config)],
                     ["build-corpus", "--config", str(config)],
                     ["embed", "--config", str(config), "--subword"]):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert where in err and "Traceback" not in err

    @pytest.mark.parametrize("edit,message",
                             OUT_OF_RANGE + list(COUNT_BOUNDS.values()),
                             ids=[new.strip().split("\n")[-1]
                                  for (_, new), _ in OUT_OF_RANGE]
                             + list(COUNT_BOUNDS))
    def test_out_of_range_config_value_exits_2(self, synth, capsys,
                                               monkeypatch, edit, message):
        """A value out of range, a vocabulary or ngram count or a thread
        count included, fails when the config loads, naming the file,
        before any store trains (the trainers are stubbed, so a thread
        count that passed would start no thread)."""
        trained = []
        for name in ("train_sgns", "train_subword_sgns"):
            monkeypatch.setattr(pipeline, name,
                                lambda *a, **k: trained.append(a))
        config = write_config(synth, "exp-bad.ini")
        config.write_text(config.read_text().replace(*edit))
        for argv in (["train", "--config", str(config)],
                     ["pipeline", str(config)],
                     ["embed", "--config", str(config), "--subword"]):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"mulr: {config}: {message}")
            assert "Traceback" not in err
        assert trained == []

    def test_no_dev_entities_exit_2_before_any_store_trains(
            self, synth, tmp_path, capsys):
        """The typer chooses its checkpoint on dev, so on a dataset without
        dev rows ``mulr train`` and ``mulr pipeline`` fail before they cache
        the tokens or train a store; ``build-corpus`` and ``embed`` need no
        dev entities and still run."""
        copy_inputs(synth, tmp_path)
        lines = (tmp_path / "dataset.tsv").read_text().splitlines()
        dev, test = lines.index("#dev"), lines.index("#test")
        (tmp_path / "dataset.tsv").write_text(
            "\n".join(lines[:dev + 1] + lines[test:]) + "\n")
        config = write_config(tmp_path, "exp.ini")
        cache = tmp_path / "cache"
        for argv in (["train", "--config", str(config)],
                     ["pipeline", str(config)]):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err == (
                "mulr: stage train: no dev entities to choose the "
                "checkpoint on\n")
            assert sorted(p.name for p in cache.iterdir()) == []
        assert cli.main(["build-corpus", "--config", str(config)]) == 0
        assert cli.main(["embed", "--config", str(config)]) == 0
        assert list(cache.glob("tokens-*")) and list(cache.glob("*.store"))

    def test_unknown_override_level_exits_2_before_any_stage(
            self, synth, capsys, monkeypatch):
        stages = []
        monkeypatch.setattr(PipelineRun, "_run_stage",
                            lambda self, name, fn: stages.append(name))
        assert cli.main(["train", "--config", str(synth / "exp.ini"),
                         "--levels", "none"]) == 2
        err = capsys.readouterr().err
        assert "unknown representation level 'none'" in err
        assert stages == []

    @pytest.mark.parametrize("levels,message", [
        ("none", "unknown representation level 'none'"),
        ("elr,elr", "duplicate representation level"),
        ("clr-cnn,clr-lstm", "at most one character-level encoder per spec"),
    ])
    def test_bad_override_levels_name_the_flag(self, synth, capsys, levels,
                                               message):
        """The bad value came from the command line, so the message names
        ``--levels`` and not the config file."""
        config = synth / "exp.ini"
        assert cli.main(["train", "--config", str(config),
                         "--levels", levels]) == 2
        err = capsys.readouterr().err
        assert err == f"mulr: --levels: {message}\n"
        assert str(config) not in err

    @pytest.mark.parametrize("body,where", [
        ("m.1\tA:0.900000\nm.2\t\nm.1\t\n",
         "preds.tsv:3: duplicate entity id 'm.1'"),
        ("m.1\tA:0.900000\n\tA:0.800000\n", "preds.tsv:2: empty entity id"),
    ], ids=["duplicate-id", "empty-id"])
    def test_malformed_predictions_exit_2(self, synth, tmp_path, capsys,
                                          body, where):
        preds = tmp_path / "preds.tsv"
        preds.write_text(body, encoding="utf-8")
        assert cli.main(["evaluate", "--preds", str(preds),
                         "--dataset", str(synth / "dataset.tsv"),
                         "--hierarchy", str(synth / "hierarchy.tsv")]) == 2
        err = capsys.readouterr().err
        assert where in err and "Traceback" not in err

    @pytest.mark.parametrize("name", ["notable.tsv", "descriptions.tsv"])
    def test_duplicate_entity_id_exits_2(self, synth, tmp_path, capsys,
                                         name):
        """A second line for one entity id fails the load, rather than
        silently replacing the first."""
        for part in ("corpus.txt", "notable.tsv", "dataset.tsv",
                     "hierarchy.tsv"):
            (tmp_path / part).write_bytes((synth / part).read_bytes())
        first = (synth / "notable.tsv").read_text().splitlines()[0]
        eid = first.split("\t")[0]
        config = write_config(tmp_path, "exp.ini")
        if name == "notable.tsv":
            lines = (synth / "notable.tsv").read_text().splitlines()
            (tmp_path / name).write_text("\n".join(lines + [first]) + "\n")
            line_no = len(lines) + 1
        else:
            (tmp_path / name).write_text(f"{eid}\tone text\n"
                                         f"{eid}\tanother text\n")
            line_no = 2
            config.write_text(config.read_text().replace(
                "[paths]\n", "[paths]\ndescriptions = descriptions.tsv\n"))
        assert cli.main(["train", "--config", str(config),
                         "--out", str(tmp_path / "model.bin")]) == 2
        err = capsys.readouterr().err
        assert f"{name}:{line_no}: duplicate entity id {eid!r}" in err
        assert "Traceback" not in err

    def test_entity_without_notable_type_exits_2(self, synth, tmp_path,
                                                 capsys):
        """A mentioned train entity missing from the notable file fails
        ``build-corpus`` naming that file and the corpus, and the pipeline
        names the build-corpus stage once."""
        for part in ("corpus.txt", "dataset.tsv", "hierarchy.tsv"):
            (tmp_path / part).write_bytes((synth / part).read_bytes())
        test_ids = {e.id for e in load_dataset(
            synth / "dataset.tsv",
            load_type_system(synth / "hierarchy.tsv")).test}
        eid = min(load_corpus(synth / "corpus.txt").entity_ids() - test_ids)
        notable = tmp_path / "notable.tsv"
        notable.write_text("".join(
            line + "\n" for line in
            (synth / "notable.tsv").read_text().splitlines()
            if line.split("\t")[0] != eid))
        where = f"{notable}: mention references entity {eid!r}"
        corpus = f"(in {tmp_path / 'corpus.txt'})"
        config = write_config(tmp_path, "exp.ini")
        for argv in (["build-corpus", "--config", str(config)],
                     ["pipeline", str(config)]):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert where in err and corpus in err and "Traceback" not in err
            assert err.count("stage ") == 1
            assert "stage build-corpus: " in err

    def test_entity_id_in_two_sections_exits_2(self, synth, tmp_path,
                                               capsys):
        """A train entity's id repeated under ``#test`` fails the load at
        the repeat, naming the dataset file and line."""
        for part in ("corpus.txt", "notable.tsv", "hierarchy.tsv"):
            (tmp_path / part).write_bytes((synth / part).read_bytes())
        lines = (synth / "dataset.tsv").read_text().splitlines()
        train_row = lines[lines.index("#train") + 1]
        lines.insert(lines.index("#test") + 1, train_row)
        (tmp_path / "dataset.tsv").write_text("\n".join(lines) + "\n")
        line_no = lines.index("#test") + 2
        config = write_config(tmp_path, "exp.ini")
        assert cli.main(["train", "--config", str(config),
                         "--out", str(tmp_path / "model.bin")]) == 2
        err = capsys.readouterr().err
        eid = train_row.split("\t")[0]
        assert f"dataset.tsv:{line_no}: duplicate entity id {eid!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("row,where", [
        ("all\taccuracy", "report.tsv:2: 2 tab-separated fields"),
        ("all\taccuracy\thigh", "report.tsv:2: non-numeric value 'high'"),
    ])
    def test_malformed_report_row_exits_2(self, tmp_path, capsys, row,
                                          where):
        report = tmp_path / "report.tsv"
        report.write_text(f"all\tcount\t3\n{row}\n", encoding="utf-8")
        assert cli.main(["report", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mulr: ") and where in err
        assert "Traceback" not in err


class TestStageFailures:
    """A failure inside a stage names that stage once, exits 2 and leaves
    neither its keyed outputs nor a temporary file, so the next run
    rebuilds it."""

    # stage -> (pipeline function that fails after doing its work, prefix
    # of the outputs it writes)
    STAGES = {
        "build-corpus": ("write_tokens", "tokens-"),
        "embed": ("save_store", "sskip-"),
        "embed-subword": ("save_store", "subword-"),
        "train": ("save_model", "model-"),
        "calibrate": ("calibrate_thresholds", "model-"),
        "predict": ("write_predictions", "preds-"),
        "evaluate": ("build_report", "report-"),
    }

    @pytest.mark.parametrize("stage", sorted(STAGES))
    def test_failed_stage_is_rebuilt(self, synth, tmp_path, capsys,
                                     monkeypatch, stage):
        name, prefix = self.STAGES[stage]
        real = getattr(pipeline, name)
        calls = []

        def patched(fail):
            def wrapper(*args, **kwargs):
                result = real(*args, **kwargs)
                if name != "save_store" or args[1].name.startswith(prefix):
                    calls.append(stage)
                    if fail:
                        raise RuntimeError("injected failure")
                return result
            return wrapper

        for part in ("corpus.txt", "notable.tsv", "dataset.tsv",
                     "hierarchy.tsv"):
            (tmp_path / part).write_bytes((synth / part).read_bytes())
        config = str(write_config(tmp_path, "exp.ini"))
        cache = tmp_path / "cache"
        monkeypatch.setattr(pipeline, name, patched(fail=True))
        assert cli.main(["pipeline", config]) == 2
        err = capsys.readouterr().err
        assert err.count("stage ") == 1
        assert f"stage {stage}: injected failure" in err
        assert "Traceback" not in err
        assert calls == [stage]
        assert not list(cache.glob(f"{prefix}*"))
        assert not list(cache.glob("*.part"))
        monkeypatch.setattr(pipeline, name, patched(fail=False))
        assert cli.main(["pipeline", config]) == 0
        assert calls == [stage, stage]
        assert list(cache.glob(f"{prefix}*"))
        assert not list(cache.glob("*.part"))


def _array_at(meta: dict, name: str) -> tuple[int, int, int]:
    """(manifest index, byte offset, byte size) of one array's payload."""
    offset = 0
    for i, (entry, shape, dtype) in enumerate(meta["arrays"]):
        size = np.dtype(dtype).itemsize * math.prod(shape)
        if entry == name:
            return i, offset, size
        offset += size
    raise AssertionError(f"no array {name!r}")


def _corrupt(case: str, data: bytes) -> bytes:
    magic, line, payload = data.split(b"\n", 2)
    meta = json.loads(line)
    if case == "not-utf8":
        line = b"\xff\xfe" + line
    elif case == "bad-json":
        line = line[:-1]
    elif case == "missing-key":
        del meta["hidden_units"]
    elif case in ("missing-array", "missing-store"):
        name = "w_in.b" if case == "missing-array" else "store.main"
        i, offset, size = _array_at(meta, name)
        del meta["arrays"][i]
        payload = payload[:offset] + payload[offset + size:]
    elif case == "repeated-token":
        tokens = meta["stores"]["main"]["tokens"]
        tokens[1] = tokens[0]
    elif case == "store-kind":
        meta["stores"]["main"]["kind"] = "subword"
    elif case == "shape":
        meta["hidden_units"] += 1
    elif case == "trailing":
        payload += bytes(8)
    elif case == "nan":
        _, offset, _ = _array_at(meta, "w_in.W")
        payload = (payload[:offset] + struct.pack("<f", math.nan)
                   + payload[offset + 4:])
    elif case == "overflow":  # w_in.W as float64, one value past float32
        i, offset, size = _array_at(meta, "w_in.W")
        wide = np.frombuffer(payload, "<f4", size // 4, offset).astype("<f8")
        wide[0] = 1e300
        meta["arrays"][i][2] = "<f8"
        payload = payload[:offset] + wide.tobytes() + payload[offset + size:]
    elif case == "dtype":
        meta["arrays"][0][2] = "<i8"
    elif case == "truncated":
        payload = payload[:-2]
    elif case == "old-format":
        magic = b"MULR-MODEL 3"
    if case not in ("not-utf8", "bad-json"):
        line = json.dumps(meta).encode()
    return b"\n".join([magic, line, payload])


class TestModelFileErrors:
    """``mulr predict`` on a damaged model file: exit 2, one ``mulr:``
    line naming the file, no traceback."""

    @pytest.mark.parametrize("case,message", [
        ("not-utf8", "utf-8"),
        ("bad-json", "Expecting"),
        ("missing-key", "missing model field 'hidden_units'"),
        ("missing-array", "no array 'w_in.b' in the manifest"),
        ("missing-store", "no array 'store.main' in the manifest"),
        ("repeated-token", "duplicate token"),
        ("store-kind", "a 'subword' store, expected 'skip' or 'sskip'"),
        ("shape", "array 'w_in.W' has shape"),
        ("trailing", "8 bytes after the last array"),
        ("nan", "non-finite values in array 'w_in.W'"),
        ("overflow", "non-finite values in array 'w_in.W' as float32"),
        ("dtype", "bad dtype '<i8' for array"),
        ("truncated", "truncated array"),
        ("old-format", "first line is not 'MULR-MODEL 4'"),
    ])
    def test_damaged_model_exits_2(self, synth, pipeline_run, tmp_path,
                                   capsys, case, message):
        _, artifacts = pipeline_run
        bad = tmp_path / "bad.bin"
        bad.write_bytes(_corrupt(case, artifacts["model"].read_bytes()))
        assert cli.main(["predict", "--model", str(bad),
                         "--entities", str(synth / "dataset.tsv"),
                         "--out", str(tmp_path / "p.tsv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"mulr: {bad}: ") and message in err
        assert "Traceback" not in err


class TestModelOptions:
    def test_model_without_options_loads_them_resolved(self, synth,
                                                       tmp_path):
        """A model file whose levels hold no options, as files written
        before options were resolved do, loads with the options the spec
        resolves, scores as the file with them does, and is calibrated
        into that file."""
        model = tmp_path / "model.bin"
        assert cli.main(["train", "--config", str(synth / "exp.ini"),
                         "--levels", "elr,clr-cnn", "--out", str(model)]) == 0
        magic, line, payload = model.read_bytes().split(b"\n", 2)
        meta = json.loads(line)
        assert [lv["options"] for lv in meta["levels"]] == [
            {}, {"char_dim": 10, "feature_maps": 100, "padded_len": 40,
                 "widths": list(range(1, 8))}]
        for lv in meta["levels"]:
            lv["options"] = {}
        bare = tmp_path / "bare.bin"
        bare.write_bytes(b"\n".join([magic, json.dumps(meta).encode(),
                                     payload]))

        full, loaded = load_model(model), load_model(bare)
        assert [lv.options for lv in loaded.spec.levels] \
            == [lv.options for lv in full.spec.levels]
        split = load_dataset(synth / "dataset.tsv",
                             load_type_system(synth / "hierarchy.tsv"))
        pairs = [(e.id, e.names[0]) for e in split.all_entities()]
        assert loaded.scores_for(pairs).tobytes() \
            == full.scores_for(pairs).tobytes()
        calibrated = tmp_path / "calibrated.bin"
        assert cli.main(["calibrate", "--config", str(synth / "exp.ini"),
                         "--model", str(bare),
                         "--out", str(calibrated)]) == 0
        assert calibrated.read_bytes() == model.read_bytes()


class TestModelFlags:
    def test_level_zero_for_every_training_name_exits_2(self, synth,
                                                        tmp_path, capsys):
        """At a ``min_count`` that drops every name word, ``wwlr`` is zero
        on every training name: an error naming the count to lower."""
        copy_inputs(synth, tmp_path)
        config = write_config(tmp_path, "exp.ini")
        config.write_text(config.read_text().replace(
            "elr,swlr,tc", "wwlr").replace(
            "min_count = 1\n[subword]", "min_count = 1000000\n[subword]"))
        split = load_dataset(tmp_path / "dataset.tsv",
                             load_type_system(tmp_path / "hierarchy.tsv"))
        names = sum(len(e.names) for e in split.train)
        assert cli.main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err == (f"mulr: stage train: wwlr: no vector for any of the "
                       f"{names} training names; lower [embeddings] "
                       f"min_count\n")

    def test_calibrate_rewrites_its_own_output_unchanged(self, noted_model,
                                                         tmp_path):
        config, model = noted_model
        once, twice = tmp_path / "once.bin", tmp_path / "twice.bin"
        for source, out in ((model, once), (once, twice)):
            assert cli.main(["calibrate", "--config", str(config),
                             "--model", str(source),
                             "--out", str(out)]) == 0
        assert once.read_bytes() == model.read_bytes()
        assert twice.read_bytes() == once.read_bytes()

    def test_predict_leaves_model_flags(self, synth, noted_model, tmp_path,
                                        monkeypatch):
        _, model = noted_model
        loaded = []

        def load(path):
            loaded.append(load_model(path))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_model", load)
        assert cli.main(["predict", "--model", str(model),
                         "--entities", str(synth / "dataset.tsv"),
                         "--out", str(tmp_path / "p.tsv")]) == 0
        assert loaded[0].flags == load_model(model).flags


@pytest.fixture(scope="module")
def report_file(pipeline_run, tmp_path_factory):
    """The pipeline's report bytes and a scratch path to write variants."""
    _, artifacts = pipeline_run
    return (artifacts["report_tsv"].read_bytes(),
            tmp_path_factory.mktemp("fuzz") / "report.tsv")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_report_reader_fuzz(report_file, data):
    """A truncated or byte-flipped report exits 0 or 2, never raises."""
    original, path = report_file
    cut = data.draw(st.one_of(st.just(len(original)),
                              st.integers(0, len(original))), label="cut")
    damaged = bytearray(original[:cut])
    flips = data.draw(st.lists(st.tuples(st.integers(0, max(cut - 1, 0)),
                                         st.integers(1, 255)), max_size=4),
                      label="flips")
    for pos, mask in flips:
        if pos < len(damaged):
            damaged[pos] ^= mask
    path.write_bytes(bytes(damaged))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["report", str(path)]) in (0, 2)


BUILD = "build-corpus --config {r}/exp.ini"
EVALUATE = ("evaluate --preds {r}/preds.tsv --dataset {r}/dataset.tsv "
            "--hierarchy {r}/hierarchy.tsv")
# file each property damages, and a command that reads it
UTF8_CASES = {
    "corpus": ("corpus.txt", BUILD),
    "notable": ("notable.tsv", BUILD),
    "hierarchy": ("hierarchy.tsv", EVALUATE),
    "dataset": ("dataset.tsv", EVALUATE),
    "predictions": ("preds.tsv", EVALUATE),
    # an avg-des model reads every description; the main store it needs is
    # cached after the first run
    "descriptions": ("descriptions.tsv",
                     "train --config {r}/des.ini --levels avg-des"),
    "config": ("exp.ini", "calibrate --config {r}/exp.ini "
               "--model {r}/model.bin --out {r}/out.bin"),
}


@pytest.fixture(scope="module")
def text_inputs(synth, pipeline_run, tmp_path_factory):
    """A copy of the tiny set with predictions, a model, descriptions and
    a config naming them: every text file a command reads."""
    root = tmp_path_factory.mktemp("text")
    for name in ("corpus.txt", "dataset.tsv", "hierarchy.tsv", "notable.tsv"):
        (root / name).write_bytes((synth / name).read_bytes())
    _, artifacts = pipeline_run
    (root / "preds.tsv").write_bytes(artifacts["predictions"].read_bytes())
    (root / "model.bin").write_bytes(artifacts["model"].read_bytes())
    ids = [line.split("\t")[0] for line in
           (synth / "dataset.tsv").read_text().splitlines()
           if line and not line.startswith("#")]
    (root / "descriptions.tsv").write_text(
        "".join(f"{eid}\ta described entity\n" for eid in ids))
    write_config(root, "exp.ini")
    config = write_config(root, "des.ini").read_text()
    (root / "des.ini").write_text(config.replace(
        "out_dir = cache", "descriptions = descriptions.tsv\nout_dir = cache"))
    return root


@pytest.mark.parametrize("loader", sorted(UTF8_CASES))
def test_undecodable_line_is_named(text_inputs, loader, capsys):
    name, command = UTF8_CASES[loader]
    path = text_inputs / name
    original = path.read_bytes()
    lines = original.split(b"\n")
    lines[2] = b"\xff" + lines[2]
    path.write_bytes(b"\n".join(lines))
    try:
        assert cli.main([a.format(r=text_inputs)
                         for a in command.split()]) == 2
    finally:
        path.write_bytes(original)
    assert f"{path}:3: not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("loader", sorted(UTF8_CASES))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_damaged_text_exits_0_or_2(text_inputs, loader, data):
    """A truncated or byte-flipped input file exits 0 or 2 and never
    raises; one that is not valid UTF-8 exits 2 naming the file."""
    name, command = UTF8_CASES[loader]
    path = text_inputs / name
    original = path.read_bytes()
    cut = data.draw(st.one_of(st.just(len(original)),
                              st.integers(0, len(original))), label="cut")
    damaged = bytearray(original[:cut])
    flips = data.draw(st.lists(st.tuples(st.integers(0, max(cut - 1, 0)),
                                         st.integers(1, 255)), max_size=4),
                      label="flips")
    for pos, mask in flips:
        if pos < len(damaged):
            damaged[pos] ^= mask
    try:
        damaged.decode("utf-8")
        undecodable = False
    except UnicodeDecodeError:
        undecodable = True
    path.write_bytes(bytes(damaged))
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = cli.main([a.format(r=text_inputs) for a in command.split()])
    finally:
        path.write_bytes(original)
    assert rc in (0, 2)
    assert "Traceback" not in err.getvalue()
    if undecodable:
        assert rc == 2 and str(path) in err.getvalue()
