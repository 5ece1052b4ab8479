"""Kernel microbenchmarks for the traced run, at the workloads' shapes.

Inputs are drawn from the workload seed. Each kernel runs once to warm up
and then ``REPEATS`` times; the median is reported.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 5
BATCH = 128
NAME_LEN = 40            # levels.DEFAULT_PADDED_LENGTH
CNN_WIDTHS = range(1, 8)  # default_cnn_bank for clr-cnn next to other levels
CNN_MAPS = 50
CNN_CHAR_DIM = 10        # CLR_CHAR_DIMS["clr-cnn"]
LSTM_DIM = 70            # CLR_CHAR_DIMS and CLR_HIDDEN_DIMS of clr-lstm
TYPER_HIDDEN = 400       # default hidden units for clr-cnn,nsl
CALIBRATE_SIZES = (1000, 4000)
SGNS_SENTENCES = 1500
TYPER_INPUT_DIM = 14500   # levels.input_dim of the typer workload


def _median_ms(fn, repeats: int = REPEATS) -> float:
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000.0


def _sgns_stream(rng):
    """Zipf-like token stream with a few hundred types."""
    words = [f"w{i}" for i in range(400)]
    p = 1.0 / np.arange(1, len(words) + 1)
    p /= p.sum()
    return [[words[i] for i in rng.choice(len(words), size=8, p=p)]
            for _ in range(SGNS_SENTENCES)]


def run(seed: int, typer_input_dim: int) -> dict[str, float]:
    from mulr.corpus import build_vocabulary
    from mulr.embeddings import SgnsConfig, train_sgns
    from mulr.nn import AdaGrad, ConvMaxPool, Dense, Lstm
    from mulr.typer import calibrate_from_scores

    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}

    conv = ConvMaxPool([(w, CNN_MAPS) for w in CNN_WIDTHS], CNN_CHAR_DIM, rng)
    chars = rng.uniform(-0.05, 0.05, (BATCH, NAME_LEN, CNN_CHAR_DIM))
    conv_out = conv.forward(chars)
    dconv = rng.standard_normal(conv_out.shape)
    out["nn.conv_fwd_ms"] = _median_ms(lambda: conv.forward(chars))
    out["nn.conv_bwd_ms"] = _median_ms(lambda: conv.backward(dconv))

    lstm = Lstm.initialize(LSTM_DIM, LSTM_DIM, rng)
    seq = rng.uniform(-0.05, 0.05, (BATCH, NAME_LEN, LSTM_DIM))
    lstm.forward(seq)
    dh = rng.standard_normal((BATCH, LSTM_DIM))
    out["nn.lstm_fwd_ms"] = _median_ms(lambda: lstm.forward(seq))
    out["nn.lstm_bwd_ms"] = _median_ms(lambda: lstm.backward(dh))

    dense = Dense.initialize(typer_input_dim, TYPER_HIDDEN, rng)
    x = (rng.random((BATCH, typer_input_dim)) < 0.01).astype(float)
    dense.forward(x)
    dy = rng.standard_normal((BATCH, TYPER_HIDDEN))
    out["nn.dense_fwd_ms"] = _median_ms(lambda: dense.forward(x))
    out["nn.dense_bwd_ms"] = _median_ms(lambda: dense.backward(dy))
    opt = AdaGrad(learning_rate=0.01)
    out["nn.adagrad_step_ms"] = _median_ms(
        lambda: opt.step(dense.params(), dense.grads))

    for n in CALIBRATE_SIZES:
        scores = rng.random((n, 1))
        gold = (rng.random((n, 1)) < 0.3).astype(float)
        out[f"typer.calibrate_{n // 1000}k_ms"] = _median_ms(
            lambda: calibrate_from_scores(scores, gold), repeats=3)

    stream = _sgns_stream(rng)
    vocab = build_vocabulary(stream, 1)
    times = {1: [], 2: []}
    for _ in range(3):
        for threads in (1, 2):
            cfg = SgnsConfig(dim=50, epochs=1, positional=True, seed=seed,
                             threads=threads)
            t0 = time.perf_counter()
            train_sgns(stream, vocab, cfg)
            times[threads].append(time.perf_counter() - t0)
    out["embeddings.sgns_t1_s"] = statistics.median(times[1])
    out["embeddings.sgns_t2_s"] = statistics.median(times[2])
    out["embeddings.sgns_t2_speedup"] = (out["embeddings.sgns_t1_s"]
                                         / out["embeddings.sgns_t2_s"])
    return out
