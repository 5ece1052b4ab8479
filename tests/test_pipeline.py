import math
import os
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mulr import cli, embeddings, pipeline, synthetic
from mulr.corpus import save_corpus, save_notable
from mulr.dataset import save_dataset, save_type_system
from mulr.errors import DataError
from mulr.levels import (CLR_KINDS, LEVEL_KINDS, LEVEL_OPTIONS,
                         default_hidden_units)
from mulr.pipeline import PipelineRun, load_config, run_pipeline

INPUTS = {"corpus": "corpus.txt", "dataset": "dataset.tsv",
          "hierarchy": "hierarchy.tsv", "notable": "notable.tsv",
          "descriptions": "descriptions.tsv"}

SECTIONS = {
    "embeddings": {"dim": "8", "epochs": "1", "min_count": "1"},
    "subword": {"ngram_min_count": "1"},
    "train": {"epochs": "3", "batch_size": "16"},
    "run": {"seed": "1"},
}


def write_experiment(root, seed=1, n_types=4, per_type=12):
    """Write a tiny ``mixed`` set with descriptions under ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    spec = synthetic.preset_spec("mixed", seed=seed, n_types=n_types,
                                 entities_per_type=per_type)
    spec.sentence_cap = 2
    spec.suffix_signal = 1.0
    spec.with_descriptions = True
    data = synthetic.generate(spec)
    save_corpus(data.corpus, root / INPUTS["corpus"])
    save_dataset(data.split, root / INPUTS["dataset"])
    save_type_system(data.type_system, root / INPUTS["hierarchy"])
    save_notable(data.notable, root / INPUTS["notable"])
    pipeline.save_descriptions(data.descriptions,
                               root / INPUTS["descriptions"])


def write_config(root, levels="elr,swlr,tc,avg-des", name="exp.ini",
                 **overrides):
    """Config over the files of ``write_experiment``; ``overrides`` maps a
    section name to the keys it replaces or adds, or drops with ``None``."""
    sections = {"paths": {**INPUTS, "out_dir": "cache"}}
    sections.update({k: dict(v) for k, v in SECTIONS.items()})
    sections["representation"] = {"levels": levels}
    for section, values in overrides.items():
        sections.setdefault(section, {}).update(values)
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in values.items() if v is not None]
    path = root / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def experiment(tmp_path):
    write_experiment(tmp_path)
    return tmp_path


def model_key(config_path) -> str:
    return PipelineRun(load_config(config_path)).model_key()


class TestModelKey:
    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_changes_with_each_input_file(self, experiment, name):
        config = write_config(experiment)
        before = model_key(config)
        with (experiment / INPUTS[name]).open("a", encoding="utf-8") as fh:
            fh.write("\n")
        assert model_key(config) != before

    @pytest.mark.parametrize("section,key,value", [
        ("embeddings", "dim", "9"),
        ("embeddings", "mode", "skip"),
        ("embeddings", "min_count", "2"),
        ("subword", "n_max", "5"),
        ("representation", "hidden_units", "7"),
        ("representation", "levels", "elr,swlr,tc"),
        ("train", "epochs", "4"),
        ("run", "seed", "2"),
        ("run", "threads", "2"),
    ])
    def test_changes_with_each_config_section(self, experiment, section, key,
                                              value):
        before = model_key(write_config(experiment))
        after = model_key(write_config(experiment, **{section: {key: value}}))
        assert after != before

    @pytest.mark.parametrize("levels,section,values", [
        ("elr, tc", "train", {}),
        ("elr,tc", "train", {"epochs": "200"}),
        ("elr,tc", "train", {"learning_rate": "0.01"}),
        ("elr,tc", "representation",
         {"hidden_units": str(default_hidden_units(("elr", "tc")))}),
        ("elr,tc", "representation", {"widths": "2-3"}),
        ("clr-cnn", "representation", {"padded_len": "40"}),
        ("elr,clr-cnn,tc", "representation",
         {"widths": "1-7", "feature_maps": "50"}),
        ("avg-des", "representation", {"top_k": "20"}),
        ("clr-cnn", "representation", {"hidden_units": "800"}),
    ], ids=["spaced-levels", "default-epochs", "default-learning-rate",
            "default-hidden-units", "option-no-level-reads",
            "default-padded-len", "default-cnn-bank", "default-top-k",
            "table-hidden-units"])
    def test_equal_settings_share_the_key(self, experiment, levels, section,
                                          values):
        """The key hashes the typed settings, not the text: spacing in the
        level list, a [train] value equal to its default, a level option or
        hidden units equal to the spec's default and an option no level
        reads change nothing."""
        plain = model_key(write_config(experiment,
                                       levels=levels.replace(" ", ""),
                                       train={"epochs": None}))
        overrides = {"train": {"epochs": None}}
        overrides.setdefault(section, {}).update(values)
        same = model_key(write_config(experiment, levels=levels,
                                      **overrides))
        assert same == plain

    @pytest.mark.parametrize("levels,values", [
        ("clr-cnn", {"padded_len": "41"}),
        ("elr,clr-cnn,tc", {"feature_maps": "100"}),
        ("clr-cnn", {"widths": "1-7"}),
        ("avg-des", {"top_k": "19"}),
        ("clr-cnn", {"hidden_units": "799"}),
    ])
    def test_option_off_its_default_changes_the_key(self, experiment, levels,
                                                    values):
        plain = model_key(write_config(experiment, levels=levels))
        assert model_key(write_config(experiment, levels=levels,
                                      representation=values)) != plain

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_resolved_options_written_out_keep_the_key(self, experiment,
                                                       data):
        """A config with its spec's resolved options and hidden units
        written out keys the model it keys without them."""
        clr = data.draw(st.sampled_from((None,) + CLR_KINDS))
        others = data.draw(st.lists(st.sampled_from(
            [k for k in LEVEL_KINDS if k not in CLR_KINDS]), unique=True,
            min_size=0 if clr else 1))
        kinds = data.draw(st.permutations(others + ([clr] if clr else [])))
        values = {name: st.integers(1, 30) for name in LEVEL_OPTIONS}
        values.update(padded_len=st.integers(10, 60), widths=st.lists(
            st.integers(1, 10), min_size=1, max_size=4, unique=True))
        names = data.draw(st.lists(st.sampled_from(sorted(values)),
                                   unique=True, max_size=3))

        def text(value):
            return ",".join(map(str, value)) \
                if isinstance(value, (list, tuple)) else str(value)

        rep = {name: text(data.draw(values[name])) for name in names}
        cfg = load_config(write_config(experiment, levels=",".join(kinds),
                                       representation=rep))
        written = dict(rep, hidden_units=str(cfg.train.hidden_units))
        for lv in cfg.spec.levels:
            written.update({k: text(v) for k, v in lv.options.items()})
        resolved = write_config(experiment, levels=",".join(kinds),
                                name="resolved.ini", representation=written)
        assert PipelineRun(load_config(resolved)).model_key() \
            == PipelineRun(cfg).model_key()

    def test_changes_with_the_model_format(self, experiment, monkeypatch):
        """A cache written in another model format is never read as this
        one: the run retrains instead."""
        config = write_config(experiment)
        before = model_key(config)
        monkeypatch.setattr(pipeline, "MODEL_MAGIC", "MULR-MODEL 0")
        assert model_key(config) != before

    def test_subword_section_ignored_without_swlr(self, experiment):
        before = model_key(write_config(experiment, levels="elr"))
        after = model_key(write_config(experiment, levels="elr",
                                       subword={"n_max": "5", "dim": "9"}))
        assert after == before

    def test_embedding_sections_ignored_without_stores(self, experiment):
        before = model_key(write_config(experiment, levels="clr-cnn"))
        after = model_key(write_config(experiment, levels="clr-cnn",
                                       embeddings={"dim": "9"},
                                       run={"threads": "2"}))
        assert after == before

    def test_store_keys_chain_the_tokens_key(self, experiment):
        run = PipelineRun(load_config(write_config(experiment)))
        main, sub = run.main_store_key(), run.subword_store_key()
        with (experiment / INPUTS["notable"]).open("a") as fh:
            fh.write("\n")
        rerun = PipelineRun(load_config(write_config(experiment)))
        assert rerun.tokens_key() != run.tokens_key()
        assert rerun.main_store_key() != main
        assert rerun.subword_store_key() != sub

    def test_store_keys_change_with_the_store_format(self, experiment,
                                                     monkeypatch):
        """A store cached in another store format, such as a subword store
        without ``ngram_bounds``, is never read as this one."""
        run = PipelineRun(load_config(write_config(experiment)))
        main, sub = run.main_store_key(), run.subword_store_key()
        monkeypatch.setattr(pipeline, "STORE_MAGIC", "MULR-STORE 0")
        assert run.main_store_key() != main
        assert run.subword_store_key() != sub


class TestRunPipeline:
    def test_rewritten_descriptions_retrain_the_model(self, experiment):
        cfg = load_config(write_config(experiment))
        _, first = run_pipeline(cfg)
        path = experiment / INPUTS["descriptions"]
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("".join(f"{ln} nothing here\n" for ln in lines),
                        encoding="utf-8")
        _, second = run_pipeline(cfg)
        assert second["model"] != first["model"]
        assert second["model"].exists()

    def test_warm_rerun_retrains_nothing(self, experiment, monkeypatch):
        cfg = load_config(write_config(experiment))
        _, cold = run_pipeline(cfg)
        report = cold["report_tsv"].read_bytes()

        def _fail(*args, **kwargs):
            raise AssertionError("warm rerun recomputed an artifact")

        for name in ("train", "train_sgns", "train_subword_sgns",
                     "predict_with_scores"):
            monkeypatch.setattr(pipeline, name, _fail)
        monkeypatch.setattr(pipeline.corpus_mod, "build_three_copy_corpus",
                            _fail)
        _, warm = run_pipeline(cfg)
        assert warm["model"] == cold["model"]
        assert warm["predictions"] == cold["predictions"]
        assert warm["report_tsv"].read_bytes() == report

    def test_changed_train_section_reuses_cached_stores(self, experiment,
                                                        monkeypatch):
        run_pipeline(load_config(write_config(experiment)))
        stores = sorted((experiment / "cache").glob("*.store"))
        assert len(stores) == 2
        assert all(p.read_bytes().startswith(b"MULR-STORE 2\n")
                   for p in stores)
        changed = write_config(experiment, name="changed.ini",
                               train={"epochs": "2"})
        cold_cfg = load_config(changed)
        cold_cfg.out_dir = experiment / "cold"
        _, cold = run_pipeline(cold_cfg)

        def _fail(*args, **kwargs):
            raise AssertionError("a cached store was retrained")

        for name in ("train_sgns", "train_subword_sgns"):
            monkeypatch.setattr(pipeline, name, _fail)
        _, warm = run_pipeline(load_config(changed))
        assert sorted((experiment / "cache").glob("*.store")) == stores
        assert warm["predictions"].read_bytes() \
            == cold["predictions"].read_bytes()

    def test_store_hits_read_no_token_file(self, experiment, monkeypatch):
        """After a [train] change both stores hit: no token file is read,
        the subword index comes from the store file, and the artifacts name
        both cached stores."""
        run_pipeline(load_config(write_config(experiment)))
        stores = sorted((experiment / "cache").glob("*.store"))
        called = []
        for name in ("read_vocabulary", "build_subword_index"):
            monkeypatch.setattr(pipeline, name, lambda *a, _name=name, **k:
                                called.append(_name))
        _, artifacts = run_pipeline(load_config(
            write_config(experiment, train={"epochs": "2"})))
        assert called == []
        assert sorted([artifacts["embeddings"],
                       artifacts["subword_embeddings"]]) == stores

    def test_artifact_names(self, experiment):
        _, artifacts = run_pipeline(load_config(write_config(experiment)))
        for name in ("model", "predictions", "report_tsv"):
            assert artifacts[name].exists()

    def test_out_dir_holds_only_the_artifacts(self, experiment):
        """The keyed files are the whole cache: after a cold and a warm run
        the output directory holds the files the cold run named, no
        sidecar and no temporary file. A warm run names a subset, since
        the token files are not read when both stores hit."""
        cfg = load_config(write_config(experiment))
        _, cold = run_pipeline(cfg)
        _, warm = run_pipeline(cfg)
        files = set((experiment / "cache").iterdir())
        assert files == set(cold.values())
        assert set(warm.values()) <= files

    def test_avg_des_without_descriptions_is_data_error(self, experiment):
        cfg = load_config(write_config(experiment, levels="elr,avg-des"))
        cfg.descriptions_path = None
        with pytest.raises(DataError, match="descriptions"):
            run_pipeline(cfg)


def _forks_counted(monkeypatch) -> list:
    """``os.fork`` that records each call made by this process."""
    forks, real = [], os.fork

    def fork():
        forks.append(os.getpid())
        return real()
    monkeypatch.setattr(os, "fork", fork)
    return forks


def _one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
    or len(os.sched_getaffinity(0)) < 2,
    reason="the subword worker needs os.fork and at least 2 CPUs")


class TestConcurrentStores:
    """A cold run that reads both stores builds the subword store in one
    forked worker while it builds the main store."""

    @needs_fork
    def test_artifacts_match_a_sequential_run(self, experiment, monkeypatch):
        """The worker, not this process, trains the subword store, and the
        artifacts are those of a run held to one CPU."""
        trainers = experiment / "trainers.txt"
        real = pipeline.train_subword_sgns

        def train_subword_sgns(*args, **kwargs):
            with trainers.open("a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(*args, **kwargs)
        monkeypatch.setattr(pipeline, "train_subword_sgns",
                            train_subword_sgns)
        cfg = load_config(write_config(experiment))
        forks = _forks_counted(monkeypatch)
        run_pipeline(cfg)
        assert forks == [os.getpid()]
        _one_cpu(monkeypatch)
        cfg.out_dir = experiment / "sequential"
        run_pipeline(cfg)
        assert len(forks) == 1
        first, second = trainers.read_text(encoding="utf-8").split()
        assert first != str(os.getpid()) and second == str(os.getpid())

        def files(out):
            return {p.name: p.read_bytes() for p in out.iterdir()}
        forked = files(experiment / "cache")
        assert sum(name.endswith(".store") for name in forked) == 2
        assert forked == files(experiment / "sequential")

    @needs_fork
    def test_failed_worker_fails_the_run_as_a_sequential_run(
            self, experiment, monkeypatch, capsys):
        """The worker inherits the patched trainer and fails; the run
        rebuilds the store in-process and raises the sequential error."""
        def no_vectors(*args, **kwargs):
            raise DataError("no subword vectors")
        monkeypatch.setattr(pipeline, "train_subword_sgns", no_vectors)
        config = write_config(experiment)
        forks = _forks_counted(monkeypatch)
        with pytest.raises(DataError) as forked:
            run_pipeline(load_config(config))
        assert len(forks) == 1
        assert forked.value.stage == "embed-subword"
        assert str(forked.value) == "stage embed-subword: no subword vectors"
        cache = experiment / "cache"
        assert not list(cache.glob("subword-*")) and not list(
            cache.glob("*.part"))
        for store in cache.glob("*.store"):  # the main store, committed
            store.unlink()
        assert cli.main(["train", "--config", str(config)]) == 2
        forked_err = capsys.readouterr().err
        assert len(forks) == 2
        _one_cpu(monkeypatch)
        for store in cache.glob("*.store"):
            store.unlink()
        assert cli.main(["train", "--config", str(config)]) == 2
        assert capsys.readouterr().err == forked_err == (
            "mulr: stage embed-subword: no subword vectors\n")
        assert len(forks) == 2
        assert not list(cache.glob("*.part"))

    @needs_fork
    def test_non_finite_worker_loss_fails_the_run_as_a_sequential_run(
            self, experiment, monkeypatch, capsys):
        """An SGNS epoch with a NaN loss stops the worker's training; the
        in-process rebuild stops the same way and ``mulr train`` exits 3."""
        real = pipeline.train_subword_sgns

        def nan_losses(*args, **kwargs):
            errors = embeddings._errors
            embeddings._errors = lambda s, mask: (errors(s, mask)[0],
                                                  math.nan)
            try:
                return real(*args, **kwargs)
            finally:
                embeddings._errors = errors
        monkeypatch.setattr(pipeline, "train_subword_sgns", nan_losses)
        config = write_config(experiment)
        forks = _forks_counted(monkeypatch)
        assert cli.main(["train", "--config", str(config)]) == 3
        forked_err = capsys.readouterr().err
        assert len(forks) == 1
        cache = experiment / "cache"
        for store in cache.glob("*.store"):
            store.unlink()
        _one_cpu(monkeypatch)
        assert cli.main(["train", "--config", str(config)]) == 3
        assert capsys.readouterr().err == forked_err == (
            "mulr: numeric failure: stage embed-subword: SGNS epoch 1: "
            "loss nan is not finite\n")
        assert len(forks) == 1
        assert not list(cache.glob("subword-*")) and not list(
            cache.glob("*.part"))

    @needs_fork
    def test_failed_main_build_stops_the_worker(self, experiment,
                                                monkeypatch):
        """The main store's build raises while the worker is saving the
        subword store: the worker is killed, its temporary file removed,
        and the run fails at once with the sequential error."""
        cache = experiment / "cache"
        real_save, seen = pipeline.save_store, []

        def slow_save(store, path):
            real_save(store, path)
            if path.name.startswith("subword-"):
                time.sleep(60)  # the worker would commit after this
        monkeypatch.setattr(pipeline, "save_store", slow_save)

        def no_vectors(*args, **kwargs):
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not seen:
                seen.extend(cache.glob("subword-*.part"))
                time.sleep(0.01)
            raise DataError("no main vectors")
        monkeypatch.setattr(pipeline, "train_sgns", no_vectors)
        start = time.monotonic()
        with pytest.raises(DataError) as failed:
            run_pipeline(load_config(write_config(experiment)))
        assert time.monotonic() - start < 30
        assert seen, "the worker never began to save"
        assert failed.value.stage == "embed"
        assert str(failed.value) == "stage embed: no main vectors"
        assert not list(cache.glob("*.store")) and not list(
            cache.glob("*.part"))

    @needs_fork
    def test_failed_fork_builds_both_stores_here(self, experiment,
                                                 monkeypatch):
        def no_process():
            raise OSError(11, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", no_process)
        _, artifacts = run_pipeline(load_config(write_config(experiment)))
        assert artifacts["embeddings"].exists()
        assert artifacts["subword_embeddings"].exists()

    def test_warm_and_one_store_runs_do_not_fork(self, experiment,
                                                 monkeypatch):
        """No worker for a warm run, a spec that reads one store or a run
        that finds the main store cached."""
        config = write_config(experiment)
        run_pipeline(load_config(config))

        def no_fork():
            raise AssertionError("forked a store builder")
        monkeypatch.setattr(os, "fork", no_fork)
        run_pipeline(load_config(config))
        for out, levels in (("main", "elr,tc"), ("main", "elr,swlr,tc"),
                            ("subword", "swlr")):
            cfg = load_config(write_config(experiment, levels=levels,
                                           name="one.ini"))
            cfg.out_dir = experiment / out
            run_pipeline(cfg)


class TestLoadConfig:
    @pytest.mark.parametrize("section,key,value", [
        ("embeddings", "dim", "ten"),
        ("run", "threads", "one"),
        ("run", "threads", "0"),
        ("run", "threads", "-2"),
        ("run", "threads", str(pipeline.MAX_THREADS + 1)),
        ("run", "threads", "1000000000"),
        ("run", "seed", "1.5"),
        ("run", "seed", "-1"),
        ("representation", "hidden_units", "x"),
        ("representation", "widths", "2-x"),
        ("train", "learning_rate", "fast"),
        ("embeddings", "bogus", "1"),
        ("embeddings", "seed", "2"),
        ("embeddings", "threads", "2"),
        ("embeddings", "mode", "foo"),
        ("subword", "positional", "true"),
        ("subword", "bogus", "1"),
        ("train", "seed", "2"),
        ("train", "hidden_units", "7"),
        ("representation", "top_kk", "5"),
        ("run", "bogus", "1"),
        ("paths", "descripitons", "descriptions.tsv"),
        ("embedding", "dim", "9"),
    ])
    def test_bad_value_names_file_and_key(self, experiment, section, key,
                                          value):
        config = write_config(experiment, **{section: {key: value}})
        with pytest.raises(DataError, match=rf"exp\.ini: {section}\.{key}"):
            load_config(config)

    @pytest.mark.parametrize("section", ["embeddings", "subword"])
    @pytest.mark.parametrize("key,value", [("table_size", "1000"),
                                           ("batch_pairs", "8"),
                                           ("dynamic_window", "false")])
    def test_trainer_constants_are_not_keys(self, experiment, section, key,
                                            value):
        """Each SGNS section takes the five hyperparameters; the negative
        table, the batch and the window draw are the trainer's own."""
        config = write_config(experiment, **{section: {key: value}})
        with pytest.raises(DataError, match=rf"exp\.ini: {section}\.{key}: "
                                            "not a config key"):
            load_config(config)

    def test_bad_interpolation_is_data_error(self, experiment):
        config = write_config(experiment, train={"epochs": "3%x"})
        with pytest.raises(DataError, match=r"exp\.ini: '%' must be"):
            load_config(config)

    def test_duplicate_section_is_data_error(self, experiment):
        config = write_config(experiment)
        config.write_text(config.read_text() + "[run]\nseed = 2\n")
        with pytest.raises(DataError, match="exp.ini"):
            load_config(config)

    def test_values_take_their_schema_types(self, experiment):
        cfg = load_config(write_config(
            experiment, levels="clr-cnn,avg-des",
            representation={"widths": "2-4", "top_k": "5"},
            embeddings={"learning_rate": "1", "mode": "skip"},
            subword={"n_min": "2"}))
        assert [lv.options for lv in cfg.spec.levels] \
            == [{"padded_len": 40, "char_dim": 10, "widths": (2, 3, 4),
                 "feature_maps": 50}, {"top_k": 5}]
        assert cfg.train.hidden_units == 400
        assert cfg.main.positional is False
        assert cfg.main.learning_rate == 1.0
        assert cfg.subword_counts[1] == 2

    def test_threads_from_run_section(self, experiment):
        for threads in (3, pipeline.MAX_THREADS):
            cfg = load_config(write_config(experiment,
                                           run={"threads": str(threads)}))
            assert cfg.main.threads == cfg.subword.threads == threads
