import pytest

from mulr import cli
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

EMBED = ["--dim", "8", "--epochs", "1", "--min-count", "1", "--neg", "2",
         "--n-max", "4", "--ngram-min-count", "1"]


@pytest.fixture(autouse=True)
def _no_thread_override(monkeypatch):
    monkeypatch.delenv("MULR_THREADS", raising=False)


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


def write_config(root, name, dim=8, seed=1, threads=1):
    (root / name).write_text(CONFIG.format(dim=dim, seed=seed,
                                           threads=threads), encoding="utf-8")
    return root / name


def build_corpus(synth, out):
    return cli.main(["build-corpus", "--corpus", str(synth / "corpus.txt"),
                     "--notable", str(synth / "notable.tsv"),
                     "--dataset", str(synth / "dataset.tsv"),
                     "--hierarchy", str(synth / "hierarchy.tsv"),
                     "--out", str(out)])


class TestStages:
    def test_gen_synthetic_order_preset(self, tmp_path):
        assert cli.main(["gen-synthetic", "--preset", "order",
                         "--out", str(tmp_path)]) == 0
        assert (tmp_path / "order-corpus.txt").exists()
        assert (tmp_path / "order-classes.tsv").exists()

    def test_build_corpus_matches_pipeline_tokens(self, synth, pipeline_run,
                                                  tmp_path):
        run, _ = pipeline_run
        tokens, protected = run.build_tokens()
        out = tmp_path / "tokens.txt"
        assert build_corpus(synth, out) == 0
        assert out.read_bytes() == tokens.read_bytes()
        assert (tmp_path / "tokens.txt.protected.txt").read_bytes() \
            == protected.read_bytes()

    @pytest.mark.parametrize("mode", ["skip", "sskip", "subword"])
    def test_embed_each_mode(self, synth, tmp_path, monkeypatch, mode):
        tokens = tmp_path / "tokens.txt"
        assert build_corpus(synth, tokens) == 0
        monkeypatch.setenv("MULR_THREADS", "")  # empty means unset
        out = tmp_path / f"{mode}.vec"
        assert cli.main(["embed", "--mode", mode, *EMBED, "--protected",
                         str(tokens) + ".protected.txt", str(tokens),
                         str(out)]) == 0
        store = load_embeddings(out)
        assert store.dim == 8
        if mode != "subword":
            protected = (tmp_path / "tokens.txt.protected.txt").read_text()
            assert set(protected.split()) <= set(store.tokens)

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
        ["embed", "--mode", "bogus", "a", "b"],
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
        ["embed", "{missing}", "{tmp}/out.vec"],
        ["build-corpus", "--corpus", "{missing}", "--notable", "{missing}",
         "--dataset", "{missing}", "--hierarchy", "{missing}",
         "--out", "{tmp}/t.txt"],
        ["pipeline", "{missing}"],
        ["report", "{missing}"],
    ])
    def test_missing_file_exits_2(self, argv, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        argv = [a.format(missing=missing, tmp=tmp_path) for a in argv]
        assert cli.main(argv) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("fields,where", [
        ({"dim": "ten"}, "exp-bad.ini: embeddings.dim"),
        ({"threads": "one"}, "exp-bad.ini: run.threads"),
    ])
    def test_bad_config_value_exits_2(self, synth, capsys, fields, where):
        config = write_config(synth, "exp-bad.ini", **fields)
        assert cli.main(["train", "--config", str(config)]) == 2
        assert where in capsys.readouterr().err

    def test_bad_mulr_threads_exits_2(self, synth, monkeypatch, capsys):
        monkeypatch.setenv("MULR_THREADS", "x")
        assert cli.main(["train", "--config", str(synth / "exp.ini")]) == 2
        assert "MULR_THREADS" in capsys.readouterr().err

    def test_embed_bad_mulr_threads_exits_2(self, synth, tmp_path,
                                            monkeypatch, capsys):
        tokens = tmp_path / "tokens.txt"
        assert build_corpus(synth, tokens) == 0
        monkeypatch.setenv("MULR_THREADS", "x")
        assert cli.main(["embed", *EMBED, str(tokens),
                         str(tmp_path / "out.vec")]) == 2
        assert "MULR_THREADS" in capsys.readouterr().err
