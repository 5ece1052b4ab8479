"""End-to-end experiment pipeline with per-stage disk caching.

Stages: three-copy corpus -> embeddings -> typer training -> threshold
calibration -> prediction -> evaluation report. Each artifact's cache key
hashes its stage's configuration slice and the keys of the artifacts it
reads, so a change upstream reaches every key below it:

    input   SHA-256 of the corpus, dataset, hierarchy and notable files
    tokens  input key                          tokens-*.txt, protected-*.txt
    stores  store format (``embeddings.STORE_MAGIC``; ``MULR-STORE 2``
            is float32-trained, so no float64-trained store cached by an
            earlier format is reused), tokens key, the store's vocabulary
            counts and typed ``SgnsConfig`` (seed and threads included)
                                               <mode>-*.store, subword-*.store
    model   model format (``typer.MODEL_MAGIC``; ``MULR-MODEL 4`` keeps
            float32 arrays as float32 and holds float32-trained stores),
            input key, keys of the stores the levels read
            (``levels.stores_read``: main, subword), SHA-256 of the
            descriptions file, the typed spec (each level's kind and
            resolved options) and ``TrainConfig`` (seed and hidden
            units included, hidden units resolved)
                                               model-*.bin
    preds   model key                          preds-*.tsv

``PipelineRun._cached_stage`` runs each of these stages. The key is in
each output's file name, so a stage is cached when all of its keyed files
exist: it loads them on a hit, before it reads any input. On a miss the
build writes each output under a name of its own process
(``<name>.<pid>.part``), and each is renamed to its keyed name only once the
build has returned, so a keyed file is always complete and a build that
raises leaves no file behind. Configurations sharing an output directory
share their token and store caches. The report (report-*.tsv and .txt, by
model key) is rebuilt on every run. Free-form artifacts carry the config
hash and seed in a header line. ``mulr build-corpus``, ``mulr embed`` and
``mulr train`` run their stages through ``PipelineRun`` from the same
config.

A run whose levels read both stores, neither cached, builds them at the
same time: SGNS is most of a cold run, and its small numpy steps hold the
GIL, so threads cannot overlap the two. ``build_resources`` does so where
``os.fork`` exists, the process may use at least 2 CPUs and no other thread
is alive. It builds the tokens, forks one worker that calls
``build_subword_store`` and always leaves through ``os._exit``, builds the
main store itself and then reaps the worker. If its own build raises, it
first sends the worker SIGTERM, which the worker raises as
``KeyboardInterrupt``, so its stage removes its temporary file and the
failed run leaves no subword store. The worker commits the store through
``_cached_stage`` under its own pid's temporary name, so the run's own
``build_subword_store`` call that follows is a cache hit. A worker that
fails commits nothing and reports nothing: that call is then a miss,
rebuilds the store in-process and raises the error a sequential run
raises, with the same stage name. A fork that fails leaves the run
sequential. Each store is seeded by its own ``SgnsConfig``, so both ways
write the same bytes. Two costs come with the overlap: both trainings are
resident at once, in two processes, and a caller that wraps
``train_subword_sgns`` to observe it sees no call when the worker made it.

Stores are cached as ``embeddings.save_store`` array files, from which a
subword store rebuilds its ngram index (``ngram_bounds``) on a cache hit.
``mulr embed --out`` also writes the store it built or loaded as word2vec
text; the text of a subword store holds one row per indexed ngram.

Configuration files are flat ``key = value`` INI text. ``SCHEMA`` types
each key of the sections ``[paths]``, ``[representation]``, ``[embeddings]``,
``[subword]``, ``[train]`` and ``[run]``; any other key is an error.
``load_config`` builds the typed settings once, so the keys hash values,
not text: ``levels = elr, tc`` and ``[train] epochs = 200`` (the default)
share a model with ``levels = elr,tc`` and no ``[train]`` section, as a
level option or ``hidden_units`` at its default does with none.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
import signal
import threading
from dataclasses import dataclass, fields
from pathlib import Path

from . import corpus as corpus_mod
from . import dataset as dataset_mod
from .embeddings import (EmbeddingStore, SgnsConfig, KIND_SKIP, KIND_SSKIP,
                         KIND_SUBWORD, STORE_MAGIC, load_store, save_store,
                         train_sgns, train_subword_sgns)
from .errors import DataError, MulrError, ParseError
from .fileio import text_lines
from .corpus import Vocabulary, build_subword_index, build_vocabulary
from .levels import (LEVEL_OPTIONS, RepresentationSpec, Resources,
                     default_hidden_units, stores_read)
from .metrics import EvalReport, build_report
from .typer import (MODEL_MAGIC, TrainConfig, TyperModel,
                    calibrate_thresholds, check_split, load_model,
                    predict_with_scores, save_model, train)


# Fields set by another section: [run] seed and threads, [embeddings] mode
# (``positional``) and [representation] hidden_units.
SGNS_SET_ELSEWHERE = ("seed", "threads", "positional")
TRAIN_SET_ELSEWHERE = ("seed", "hidden_units")
SGNS_KEYS = {f.name: type(f.default) for f in fields(SgnsConfig)
             if f.name not in SGNS_SET_ELSEWHERE}
# [run] threads: SGNS starts one thread per sentence chunk
MAX_THREADS = 64

# section -> key -> type: ``tuple`` reads widths ``a-b`` or ``a,b,...``,
# and a tuple of strings lists the values a key allows.
SCHEMA = {
    "paths": dict.fromkeys(("corpus", "dataset", "hierarchy", "notable",
                            "out_dir", "descriptions"), str),
    "representation": {"levels": str, "hidden_units": int, **LEVEL_OPTIONS},
    "embeddings": {"mode": (KIND_SKIP, KIND_SSKIP), "min_count": int,
                   **SGNS_KEYS},
    "subword": {"min_count": int, "n_min": int, "n_max": int,
                "ngram_min_count": int, **SGNS_KEYS},
    "train": {f.name: type(f.default) for f in fields(TrainConfig)
              if f.name not in TRAIN_SET_ELSEWHERE},
    "run": {"seed": int, "threads": int},
}


@dataclass
class ExperimentConfig:
    """The settings ``load_config`` types and checks, each built once: the
    paths, the level spec, ``TrainConfig`` (seed and hidden units), each
    store's ``SgnsConfig`` (``main.positional`` picks sskip over skip) and
    vocabulary counts, ``(min_count, n_min, n_max, ngram_min_count)`` for
    the subword store."""

    corpus_path: Path
    dataset_path: Path
    hierarchy_path: Path
    notable_path: Path
    out_dir: Path
    descriptions_path: Path | None
    spec: RepresentationSpec
    train: TrainConfig
    main: SgnsConfig
    subword: SgnsConfig
    main_min_count: int
    subword_counts: tuple[int, int, int, int]


def _coerce(typ, value: str, where: str):
    """``value`` read as ``typ``, its key's ``SCHEMA`` type (None: no key)."""
    if typ is None:
        raise DataError(f"{where}: not a config key")
    if isinstance(typ, tuple) and value not in typ:
        raise DataError(f"{where}: {value!r} is not one of {', '.join(typ)}")
    try:
        if typ is tuple:
            lo, _, hi = value.partition("-")
            if hi:
                return tuple(range(int(lo), int(hi) + 1))
            return tuple(int(x) for x in value.split(","))
        return value if isinstance(typ, tuple) else typ(value)
    except ValueError:
        raise DataError(f"{where}: bad value {value!r}") from None


def load_config(path, levels: str | None = None) -> ExperimentConfig:
    """The config file at ``path``; ``levels``, when given, replaces its
    ``[representation] levels``. Every value is typed and range-checked
    here, and an error is a ``DataError`` that names the file, or
    ``--levels`` for a bad level list in ``levels`` (the ``mulr train``
    flag that passes it)."""
    path = Path(path)
    parser = configparser.ConfigParser()
    try:
        text = "\n".join(line for _, line in text_lines(path))
    except OSError:
        raise DataError(f"cannot read config {path}") from None
    try:
        parser.read_string(text, source=str(path))
        # values interpolate when read, so read them all here
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:
        raise DataError(f"{path}: {exc}") from None
    for name, items in sections.items():
        for key, value in items.items():
            items[key] = _coerce(SCHEMA.get(name, {}).get(key), value,
                                 f"{path}: {name}.{key}")
    if "paths" not in sections:
        raise DataError(f"{path}: missing [paths] section")
    paths = sections["paths"]
    for key in ("corpus", "dataset", "hierarchy", "notable", "out_dir"):
        if key not in paths:
            raise DataError(f"{path}: missing paths.{key}")
    base = path.parent

    def _p(value):
        p = Path(value)
        return p if p.is_absolute() else base / p

    def _within(section, key, default, least=1, most=None):
        value = sections.get(section, {}).get(key, default)
        if value < least:
            raise DataError(f"{path}: {section}.{key}: {value} is below "
                            f"{least}")
        if most is not None and value > most:
            raise DataError(f"{path}: {section}.{key}: {value} is above "
                            f"{most}")
        return value

    seed = _within("run", "seed", 1, least=0)
    threads = _within("run", "threads", 1, most=MAX_THREADS)
    main_min_count = _within("embeddings", "min_count", 100)
    n_min = _within("subword", "n_min", 3)
    subword_counts = (_within("subword", "min_count", main_min_count), n_min,
                      _within("subword", "n_max", 6, least=n_min),
                      _within("subword", "ngram_min_count", 5))
    sgns = sections.get("embeddings", {})
    sub = {**sgns, **sections.get("subword", {})}
    rep = sections.get("representation", {})
    file_levels = rep.pop("levels", "elr")
    hidden_units = rep.pop("hidden_units", None)
    if levels is not None:  # the override's own errors name the flag
        try:
            RepresentationSpec.parse(levels)
        except DataError as exc:
            raise DataError(f"--levels: {exc}") from None
    try:  # each settings class checks its own values
        main = SgnsConfig(
            seed=seed, threads=threads,
            positional=sgns.get("mode", KIND_SSKIP) == KIND_SSKIP,
            **{k: v for k, v in sgns.items() if k in SGNS_KEYS})
        subword = SgnsConfig(
            seed=seed + 1, threads=threads, positional=False,
            **{k: v for k, v in sub.items() if k in SGNS_KEYS})
        spec = RepresentationSpec.parse(levels or file_levels, rep)
        if hidden_units is None:
            hidden_units = default_hidden_units(spec.kinds)
        train = TrainConfig(seed=seed, hidden_units=hidden_units,
                            **sections.get("train", {}))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return ExperimentConfig(
        corpus_path=_p(paths["corpus"]),
        dataset_path=_p(paths["dataset"]),
        hierarchy_path=_p(paths["hierarchy"]),
        notable_path=_p(paths["notable"]),
        out_dir=_p(paths["out_dir"]),
        descriptions_path=_p(paths["descriptions"])
        if "descriptions" in paths else None,
        spec=spec, train=train, main=main, subword=subword,
        main_min_count=main_min_count, subword_counts=subword_counts)


# ---------------------------------------------------------------------------
# hashing and cache helpers


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(path: Path) -> str:
    return _sha(Path(path).read_bytes())


def _key(*parts) -> str:
    return _sha(json.dumps(parts, sort_keys=True,
                           default=str).encode("utf-8"))[:12]


def load_descriptions(path) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for line_no, line in text_lines(path, rows=True):
        ent_id, _, text = line.partition("\t")
        if ent_id in out:
            raise ParseError(path, line_no, f"duplicate entity id {ent_id!r}")
        out[ent_id] = corpus_mod.tokenize(text)
    return out


def save_descriptions(descriptions: dict[str, list[str]], path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for eid in sorted(descriptions):
            fh.write(f"{eid}\t{' '.join(descriptions[eid])}\n")


# ---------------------------------------------------------------------------
# stages


class PipelineRun:
    """Executes the stages for one configuration, caching into out_dir."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.out = Path(cfg.out_dir)
        self.main_kind = KIND_SSKIP if cfg.main.positional else KIND_SKIP
        self.out.mkdir(parents=True, exist_ok=True)
        self.artifacts: dict[str, Path] = {}

        def _setup():
            self.type_system = dataset_mod.load_type_system(cfg.hierarchy_path)
            raw_split = dataset_mod.load_dataset(cfg.dataset_path,
                                                 self.type_system)
            self.split = dataset_mod.refine(raw_split, self.type_system)
            self.descriptions = (load_descriptions(cfg.descriptions_path)
                                 if cfg.descriptions_path else None)
        self._run_stage("setup", _setup)
        self._input_key = _key(
            _file_sha(cfg.corpus_path), _file_sha(cfg.dataset_path),
            _file_sha(cfg.hierarchy_path), _file_sha(cfg.notable_path))
        self._descriptions_sha = (_file_sha(cfg.descriptions_path)
                                  if cfg.descriptions_path else None)

    def _run_stage(self, name: str, fn):
        try:
            return fn()
        except MulrError as exc:
            if getattr(exc, "stage", None) is None:  # innermost stage only
                exc.stage, exc.args = name, (f"stage {name}: {exc}",)
            raise
        except Exception as exc:
            err = MulrError(f"stage {name}: {exc}")
            err.stage = name
            raise err from exc

    def _cached_stage(self, name: str, outputs: dict, build, load):
        """Stage ``name``: ``load()`` if every output (a keyed path) exists,
        else ``build(*parts)`` with one temporary path per output, each
        renamed to its output once ``build`` returns. The temporary files
        are removed if it raises. The outputs are named in ``artifacts`` on
        a hit and on a miss."""
        self.artifacts.update(outputs)
        paths = list(outputs.values())
        if all(path.exists() for path in paths):
            return self._run_stage(name, load)
        parts = [path.with_name(f"{path.name}.{os.getpid()}.part")
                 for path in paths]

        def build_and_commit():
            result = build(*parts)
            for part, path in zip(parts, paths):
                os.replace(part, path)
            return result
        try:
            return self._run_stage(name, build_and_commit)
        finally:
            for part in parts:
                part.unlink(missing_ok=True)

    # corpus ---------------------------------------------------------------

    def tokens_key(self) -> str:
        return _key("tokens", self._input_key)

    def build_tokens(self) -> tuple[Path, Path]:
        """Three-copy token stream plus the protected-token inventory."""
        key = self.tokens_key()
        outputs = {name: self.out / f"{name}-{key}.txt"
                   for name in ("tokens", "protected")}
        paths = tuple(outputs.values())

        def build(*parts):
            write_tokens(corpus_mod.load_corpus(self.cfg.corpus_path),
                         self.cfg.notable_path, self.split, *parts)
            return paths
        return self._cached_stage("build-corpus", outputs, build,
                                  lambda: paths)

    # embeddings -----------------------------------------------------------

    def main_store_key(self) -> str:
        cfg = self.cfg
        return _key("embed", STORE_MAGIC, self.tokens_key(), self.main_kind,
                    cfg.main_min_count, vars(cfg.main))

    def subword_store_key(self) -> str:
        return _key("subword", STORE_MAGIC, self.tokens_key(),
                    *self.cfg.subword_counts, vars(self.cfg.subword))

    def main_store_path(self) -> Path:
        return self.out / f"{self.main_kind}-{self.main_store_key()}.store"

    def subword_store_path(self) -> Path:
        return self.out / f"subword-{self.subword_store_key()}.store"

    def build_main_store(self) -> EmbeddingStore:
        cfg, kind, path = self.cfg, self.main_kind, self.main_store_path()

        def build(part):
            stream, vocab = read_vocabulary(*self.build_tokens(),
                                            cfg.main_min_count)
            store = train_sgns(stream, vocab, cfg.main)
            save_store(store, part)
            return store
        return self._cached_stage("embed", {"embeddings": path}, build,
                                  lambda: load_store(path, kind))

    def build_subword_store(self) -> EmbeddingStore:
        cfg, path = self.cfg, self.subword_store_path()

        def build(part):
            min_count, n_min, n_max, ngram_min = cfg.subword_counts
            stream, vocab = read_vocabulary(*self.build_tokens(), min_count)
            index = build_subword_index(vocab, n_min=n_min, n_max=n_max,
                                        min_count=ngram_min)
            store = train_subword_sgns(stream, vocab, index, cfg.subword)
            save_store(store, part)
            return store
        return self._cached_stage(
            "embed-subword", {"subword_embeddings": path}, build,
            lambda: load_store(path, KIND_SUBWORD))

    # resources ------------------------------------------------------------

    def build_resources(self, spec: RepresentationSpec) -> Resources:
        labels = stores_read(spec)
        worker = self._fork_subword_build(labels)
        try:
            stores = ({"main_store": self.build_main_store()}
                      if "main" in labels else {})
        except BaseException:
            if worker is not None:  # the run fails: its store goes unused
                os.kill(worker, signal.SIGTERM)
            raise
        finally:
            if worker is not None:
                os.waitpid(worker, 0)
        if "subword" in labels:  # a hit once the worker has committed it
            stores["subword_store"] = self.build_subword_store()
        if "avg-des" in spec.kinds and self.descriptions is None:
            raise DataError("avg-des level needs a descriptions file")
        return Resources(type_system=self.type_system,
                         descriptions=self.descriptions, **stores)

    def _fork_subword_build(self, labels) -> int | None:
        """The pid of a forked worker that builds and commits the subword
        store while this process builds the main one, or None to build both
        here: when ``labels`` lacks a store, either store is cached, the
        process may use one CPU only, or another thread is alive (a fork
        copies no thread but the caller's)."""
        if (labels != ("main", "subword")
                or not hasattr(os, "fork")
                or not hasattr(os, "sched_getaffinity")
                or len(os.sched_getaffinity(0)) < 2
                or threading.active_count() > 1
                or self.main_store_path().exists()
                or self.subword_store_path().exists()):
            return None
        self.build_tokens()  # once, before both builders read it
        try:
            pid = os.fork()
        except OSError:  # no process to spare: build both here
            return None
        if pid:
            return pid
        status = 1
        try:
            # SIGTERM unwinds the build, whose stage removes its temporary
            # file; before this line the worker has no file to remove
            signal.signal(signal.SIGTERM, signal.default_int_handler)
            self.build_subword_store()
            status = 0
        finally:  # never return into the caller's stack
            os._exit(status)

    # model ----------------------------------------------------------------

    def model_key(self) -> str:
        cfg = self.cfg
        store_keys = {"main": self.main_store_key,
                      "subword": self.subword_store_key}
        stores = {label: store_keys[label]()
                  for label in stores_read(cfg.spec)}
        levels = [[lv.kind, sorted(lv.options.items())]
                  for lv in cfg.spec.levels]
        return _key("model", MODEL_MAGIC, self._input_key, stores,
                    self._descriptions_sha, levels, vars(cfg.train))

    def model_path(self) -> Path:
        return self.out / f"model-{self.model_key()}.bin"

    def train_model(self):
        key, path = self.model_key(), self.model_path()

        def build(part):
            cfg = self.cfg
            check_split(self.split)  # before any store trains
            model = train(self.split, cfg.spec, self.build_resources(cfg.spec),
                          cfg.train)
            self._run_stage("calibrate", lambda: calibrate_thresholds(
                model, list(self.split.dev)))
            model.config_hash, model.seed = key, cfg.train.seed
            save_model(model, part)
            return model
        return self._cached_stage("train", {"model": path}, build,
                                  lambda: load_model(path))

    # predictions ----------------------------------------------------------

    def predict_test(self) -> Path:
        key = _key("preds", self.model_key())
        path = self.out / f"preds-{key}.tsv"
        # named, not loaded: a warm run needs only the predictions
        self.artifacts["model"] = self.model_path()

        def build(part):
            write_predictions(self.train_model(), self.split.test, part,
                              header=f"# config={key} "
                              f"seed={self.cfg.train.seed}\n")
            return path
        return self._cached_stage("predict", {"predictions": path}, build,
                                  lambda: path)

    # report ---------------------------------------------------------------

    def evaluate(self) -> EvalReport:
        # Not a cached stage: the TSV lacks the notes and per-type F1 and
        # rounds to 6 decimals, so a hit could not return the report that
        # ``mulr pipeline`` prints. A rebuild from the predictions is cheap.
        preds_path = self.predict_test()
        key = _key("report", self.model_key())
        tsv_path = self.out / f"report-{key}.tsv"
        txt_path = self.out / f"report-{key}.txt"
        report = self._run_stage("evaluate", lambda: build_report(
            read_predictions(preds_path), self.split, self.type_system))
        header = f"# config={key} seed={self.cfg.train.seed}\n"
        tsv_path.write_text(
            header + "\n".join(report.to_tsv_rows()) + "\n", encoding="utf-8")
        txt_path.write_text(header + report.to_text_table() + "\n",
                            encoding="utf-8")
        self.artifacts.update(report_tsv=tsv_path, report_txt=txt_path)
        return report


# ---------------------------------------------------------------------------
# stage functions shared with the CLI


def write_tokens(corpus: corpus_mod.AnnotatedCorpus, notable_path,
                 split: dataset_mod.DatasetSplit,
                 tokens_path, protected_path) -> None:
    """Write the three-copy stream (test entities keep their surface words
    in the type copy) and the protected tokens: notable entities and types
    and every dataset entity."""
    notable = corpus_mod.load_notable(notable_path)
    exclude = frozenset(e.id for e in split.test)
    try:
        stream = corpus_mod.build_three_copy_corpus(corpus, notable, exclude)
    except DataError as exc:  # a mentioned entity the file lacks
        raise DataError(f"{notable_path}: {exc}") from None
    with Path(tokens_path).open("w", encoding="utf-8") as fh:
        for sent in stream:
            fh.write(" ".join(sent) + "\n")
    protected = sorted(set(notable) | set(notable.values())
                       | {e.id for e in split.all_entities()})
    Path(protected_path).write_text("\n".join(protected) + "\n",
                                    encoding="utf-8")


def read_vocabulary(tokens_path, protected_path,
                    min_count: int) -> tuple[list[list[str]], Vocabulary]:
    """A token file's sentences and their vocabulary; the tokens listed in
    ``protected_path`` are kept below ``min_count``."""
    stream = [line.split() for _, line in text_lines(tokens_path)
              if line.strip()]
    protected = frozenset(tok for _, line in text_lines(protected_path)
                          for tok in line.split())
    return stream, build_vocabulary(stream, min_count, protected)


def write_predictions(model: TyperModel, entities, path,
                      header: str = "") -> None:
    """One ``id<TAB>type:score,...`` line per entity after ``header``: the
    types scoring above their thresholds, by descending score."""
    entities = list(entities)
    scored = predict_with_scores(model, entities)
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(header)
        for e, chosen in zip(entities, scored):
            cell = ",".join(f"{t}:{s:.6f}" for t, s in chosen)
            fh.write(f"{e.id}\t{cell}\n")


def read_predictions(path) -> dict[str, set]:
    """Entity id to predicted type set, from a ``write_predictions`` file."""
    out: dict[str, set] = {}
    for line_no, line in text_lines(path, rows=True):
        ent_id, _, cell = line.partition("\t")
        if not ent_id:
            raise ParseError(path, line_no, "empty entity id")
        if ent_id in out:
            raise ParseError(path, line_no, f"duplicate entity id {ent_id!r}")
        types = set()
        if cell:
            for item in cell.split(","):
                t, _, _score = item.partition(":")
                if t:
                    types.add(t)
        out[ent_id] = types
    return out


def run_pipeline(cfg: ExperimentConfig) -> tuple[EvalReport, dict[str, Path]]:
    """Run all stages for one configuration; aborts with the stage name."""
    run = PipelineRun(cfg)
    report = run.evaluate()
    return report, dict(run.artifacts)
