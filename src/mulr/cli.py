"""Command-line front end.

Subcommands: gen-synthetic, build-corpus, embed, train, calibrate,
predict, evaluate, pipeline, report. Exit codes: 0 success, 1 usage,
2 data error, 3 numeric failure.

The stage commands build-corpus, embed and train read an experiment
config (``--config``) and run the pipeline's own stage for it, so they
share its settings, cache keys, cached artifacts and stage-named errors:
a stage already cached for the config is loaded, not rebuilt.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import corpus as corpus_mod
from . import dataset as dataset_mod
from .embeddings import save_embeddings
from .errors import DataError, MulrError, NumericError, ParseError
from .fileio import text_lines
from .metrics import build_report, significance_matrix
from .pipeline import (PipelineRun, load_config, read_predictions,
                       run_pipeline, save_descriptions, write_predictions)
from .synthetic import generate, generate_order_corpus, preset_spec
from .typer import calibrate_thresholds, load_model, save_model


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _cmd_gen_synthetic(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.preset == "order":
        sentences, a_ids, b_ids = generate_order_corpus(seed=args.seed)
        corpus_path = out / "order-corpus.txt"
        with corpus_path.open("w", encoding="utf-8") as fh:
            for sent in sentences:
                fh.write(" ".join(sent) + "\n")
        classes_path = out / "order-classes.tsv"
        with classes_path.open("w", encoding="utf-8") as fh:
            for eid in a_ids:
                fh.write(f"{eid}\ta\n")
            for eid in b_ids:
                fh.write(f"{eid}\tb\n")
        print(f"wrote {corpus_path} and {classes_path}")
        return 0
    spec = preset_spec(args.preset, seed=args.seed,
                       entities_per_type=args.entities_per_type,
                       n_types=args.types)
    data = generate(spec)
    corpus_mod.save_corpus(data.corpus, out / "corpus.txt")
    dataset_mod.save_dataset(data.split, out / "dataset.tsv")
    dataset_mod.save_type_system(data.type_system, out / "hierarchy.tsv")
    corpus_mod.save_notable(data.notable, out / "notable.tsv")
    written = ["corpus.txt", "dataset.tsv", "hierarchy.tsv", "notable.tsv"]
    if data.descriptions is not None:
        save_descriptions(data.descriptions, out / "descriptions.tsv")
        written.append("descriptions.tsv")
    print(f"wrote {', '.join(written)} to {out}")
    return 0


def _cmd_build_corpus(args) -> int:
    tokens, protected = PipelineRun(load_config(args.config)).build_tokens()
    print(f"tokens cached at {tokens}")
    print(f"protected tokens cached at {protected}")
    return 0


def _cmd_embed(args) -> int:
    run = PipelineRun(load_config(args.config))
    if args.subword:
        store, name = run.build_subword_store(), "subword_embeddings"
    else:
        store, name = run.build_main_store(), "embeddings"
    if args.out:
        save_embeddings(store, args.out)
        print(f"wrote {args.out} ({len(store)} vectors, dim {store.dim})")
    else:
        print(f"store cached at {run.artifacts[name]}")
    return 0


def _cmd_train(args) -> int:
    run = PipelineRun(load_config(args.config, levels=args.levels))
    model = run.train_model()
    for note in model.flags:
        print(f"mulr: note: {note}", file=sys.stderr)
    if args.out:
        save_model(model, args.out)
        print(f"wrote {args.out}")
    else:
        print(f"model cached at {run.artifacts['model']}")
    return 0


def _cmd_calibrate(args) -> int:
    cfg = load_config(args.config)
    model = load_model(args.model)
    ts = model.type_system
    split = dataset_mod.refine(dataset_mod.load_dataset(cfg.dataset_path, ts),
                               ts)
    calibrate_thresholds(model, list(split.dev))
    out = args.out or args.model
    save_model(model, out)
    print(f"wrote {out}")
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    split = dataset_mod.load_dataset(args.entities, model.type_system)
    write_predictions(model, split.all_entities(), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    ts = dataset_mod.load_type_system(args.hierarchy)
    split = dataset_mod.refine(dataset_mod.load_dataset(args.dataset, ts), ts)
    predictions = read_predictions(args.preds)
    report = build_report(predictions, split, ts)
    print(report.to_text_table())
    if args.out:
        Path(args.out).write_text("\n".join(report.to_tsv_rows()) + "\n",
                                  encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


def _cmd_pipeline(args) -> int:
    results = []
    for config_path in args.configs:
        cfg = load_config(config_path)
        report, artifacts = run_pipeline(cfg)
        name = Path(config_path).stem
        print(f"== {name} ==")
        print(report.to_text_table())
        print(f"report: {artifacts['report_tsv']}")
        results.append((name, report.correct_count, report.total))
    if len(results) > 1:
        matrix = significance_matrix(results, alpha=args.alpha)
        print("significance (row better than column -> *):")
        print(matrix)
    return 0


def _read_report(path) -> tuple[dict, dict]:
    """(metric values, counts) from a report TSV of ``mulr evaluate``."""
    rows = {}
    counts = {}
    for line_no, raw in text_lines(path, rows=True):
        fields = raw.split("\t")
        if len(fields) != 3:
            raise ParseError(path, line_no,
                             f"{len(fields)} tab-separated fields, expected 3")
        sl, metric, value = fields
        try:
            if metric == "count":
                counts[sl] = int(value)
            elif metric == "correct_count":
                counts["__correct"] = int(value)
            else:
                rows[(sl, metric)] = float(value)
        except ValueError:
            raise ParseError(path, line_no,
                             f"non-numeric value {value!r}") from None
    return rows, counts


def _cmd_report(args) -> int:
    results = []
    for path in args.reports:
        rows, counts = _read_report(path)
        name = Path(path).stem
        print(f"== {name} ==")
        for sl in ("all", "head", "tail", "known", "unknown"):
            present = [(sl, m) in rows
                       for m in ("accuracy", "micro_f1", "entity_macro_f1")]
            if not any(present):
                continue
            if not all(present):
                raise DataError(f"{path}: slice {sl!r} lacks a metric row")
            print(f"{sl:10s} n={counts.get(sl, 0):6d} "
                  f"acc={rows[(sl, 'accuracy')]:.3f} "
                  f"mic={rows[(sl, 'micro_f1')]:.3f} "
                  f"mac={rows[(sl, 'entity_macro_f1')]:.3f}")
        if "__correct" in counts and "all" in counts:
            results.append((name, counts["__correct"], counts["all"]))
    if len(results) > 1:
        print("significance (row better than column -> *):")
        print(significance_matrix(results, alpha=args.alpha))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mulr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="write a synthetic experiment")
    p.add_argument("--preset", default="mixed",
                   choices=["mixed", "context", "suffix", "subword", "order"])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--entities-per-type", type=int, default=200)
    p.add_argument("--types", type=int, default=10)
    p.set_defaults(func=_cmd_gen_synthetic)

    p = sub.add_parser("build-corpus", help="cache the three-copy token "
                       "stream and the protected tokens of a config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_build_corpus)

    p = sub.add_parser("embed", help="train or load the embedding store of "
                       "a config ([embeddings] mode: skip or sskip)")
    p.add_argument("--config", required=True)
    p.add_argument("--subword", action="store_true",
                   help="the [subword] store instead of the main one")
    p.add_argument("--out", help="also write the store as word2vec text "
                   "(a subword store's rows are its ngrams)")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("train", help="train the typer per a config file")
    p.add_argument("--levels", help="level list that replaces the "
                   "config's [representation] levels; checked with the "
                   "config, before any stage runs")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("calibrate", help="recalibrate thresholds on dev")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("predict", help="write type predictions")
    p.add_argument("--model", required=True)
    p.add_argument("--entities", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against a dataset")
    p.add_argument("--preds", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pipeline", help="run configs end to end")
    p.add_argument("configs", nargs="+")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("report", help="render saved report files")
    p.add_argument("reports", nargs="+")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"mulr: numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, MulrError) as exc:
        print(f"mulr: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"mulr: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
