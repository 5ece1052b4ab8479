"""The benchmark's declared contract: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this module by
``python3 perfbench/run.py --write-benchmark-json``; the smoke test checks
that the two agree.
"""

from __future__ import annotations

RUN_SECONDS = 25

# A second seed, fixed here, on which a later change confirms a claim it
# developed against other seeds.
CONFIRM_SEED = 7919

WORKLOADS = {
    "embed": "SGNS (sskip plus subword) does most of the work of a cold "
             "run_pipeline on levels elr,swlr,tc; the typer takes a small share",
    "typer": "levels clr-cnn,nsl need no embedding store, so SGNS does no work "
             "and typer training (char CNN, dense NSL rows, AdaGrad) dominates",
    "infer": "served-model path: mulr calibrate, predict and evaluate on a model "
             "trained in set-up, scoring one entity per forward pass",
}

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("entities_per_s", "entities/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("test_micro_f1", "ratio", "higher", 0.15),
    ("test_strict_acc", "ratio", "higher", 0.25),
    ("success_rate", "ratio", "higher", 0.01),
]

# (name, unit, better)
PER_LAYER = [
    ("synthetic.generate_s", "s", "lower"),
    ("dataset.load_s", "s", "lower"),
    ("corpus.load_s", "s", "lower"),
    ("corpus.three_copy_s", "s", "lower"),
    ("corpus.three_copy_sentences", "count", "lower"),
    ("corpus.vocab_s", "s", "lower"),
    ("corpus.vocab_size", "count", "lower"),
    ("corpus.subword_index_s", "s", "lower"),
    ("corpus.ngrams", "count", "lower"),
    ("embeddings.sskip_s", "s", "lower"),
    ("embeddings.sskip_tokens_per_s", "1/s", "higher"),
    ("embeddings.sskip_epoch_s", "s", "lower"),
    ("embeddings.sskip_loss_last", "nats", "lower"),
    ("embeddings.subword_s", "s", "lower"),
    ("embeddings.subword_tokens_per_s", "1/s", "higher"),
    ("embeddings.subword_epoch_s", "s", "lower"),
    ("embeddings.subword_loss_last", "nats", "lower"),
    ("embeddings.save_s", "s", "lower"),
    ("embeddings.file_bytes", "bytes", "lower"),
    ("embeddings.sgns_t1_s", "s", "lower"),
    ("embeddings.sgns_t2_s", "s", "lower"),
    ("embeddings.sgns_t2_speedup", "ratio", "higher"),
    ("levels.frozen_matrix_s", "s", "lower"),
    ("levels.frozen_rows", "count", "lower"),
    ("levels.input_dim", "count", "lower"),
    ("nn.conv_fwd_ms", "ms", "lower"),
    ("nn.conv_bwd_ms", "ms", "lower"),
    ("nn.dense_fwd_ms", "ms", "lower"),
    ("nn.dense_bwd_ms", "ms", "lower"),
    ("nn.adagrad_step_ms", "ms", "lower"),
    ("nn.lstm_fwd_ms", "ms", "lower"),
    ("nn.lstm_bwd_ms", "ms", "lower"),
    ("typer.train_s", "s", "lower"),
    ("typer.epochs", "count", "lower"),
    ("typer.epoch_s", "s", "lower"),
    ("typer.best_dev_f1", "ratio", "higher"),
    ("typer.calibrate_s", "s", "lower"),
    ("typer.calibrate_ms_per_type", "ms", "lower"),
    ("typer.calibrate_1k_ms", "ms", "lower"),
    ("typer.calibrate_4k_ms", "ms", "lower"),
    ("typer.predict_ms_per_entity", "ms", "lower"),
    ("typer.load_s", "s", "lower"),
    ("typer.save_s", "s", "lower"),
    ("typer.model_bytes", "bytes", "lower"),
    ("metrics.report_s", "s", "lower"),
    ("cli.calibrate_s", "s", "lower"),
    ("cli.predict_s", "s", "lower"),
    ("cli.evaluate_s", "s", "lower"),
    ("pipeline.warm_rerun_s", "s", "lower"),
    ("pipeline.warm_recomputed", "count", "lower"),
    ("pipeline.warm_report_builds", "count", "lower"),
    ("pipeline.artifact_bytes", "bytes", "lower"),
    ("share.sgns", "ratio", "lower"),
    ("share.typer_train", "ratio", "lower"),
    ("share.cli_predict_calibrate", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("error_rate", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
