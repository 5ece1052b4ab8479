"""Skip-gram embeddings with negative sampling over the three-copy stream.

Three trainers share one update loop:

* skip: classic skip-gram, a single output block for all context offsets.
* sskip: order-aware skip-gram with ``2 * window`` position-specific output
  blocks, selected by the signed offset of the context token.
* subword: the center token's input vector is the average of its character
  ngram vectors, so vectors can be composed for words never indexed.

Pairs come ordered by center position, so within a minibatch a center's
pairs form runs. A batch step composes one input vector per run and
gathers each pair's output rows (its context and its negatives), so its
scores and its input gradients cost one product per pair row; the pairs'
input gradients are summed per run. Only the output update sums the
pairs' gradients into one coefficient per (distinct output row, run), as
a row repeated in the batch must get one update. The whole batch scores
against the parameters as they stood at its start.

The loss is taken from the sigmoid the gradient needs: a pair row with
error ``label - sigmoid(s)`` adds ``-log1p(-|error|)``, and where the
error is within 2^-5 of 1 (the wrong side of ``|s| > 3.4``) the exact
softplus of the score. It is summed in float64 and reported per epoch;
an epoch whose loss is not finite stops training with a ``NumericError``.

Parameters and stores are ``nn.DTYPE`` (float32, as in word2vec.c and
fastText), read when training starts; the initial draws are float64
rounded to it. An ``EmbeddingStore`` holds its matrix in ``nn.DTYPE``
however it was made: trained, read from a store or model file, or read
from text.

The settings are the five of word2vec.c, wang2vec and fastText: dimension,
window, negatives, epochs and learning rate. As in those, each center's
window shrinks to a uniform draw in [1, window]. Negative samples are drawn
from the unigram distribution raised to 0.75 via a table of
``TABLE_SLOTS_PER_TOKEN`` int32 slots per vocabulary token, at most
``NEGATIVE_TABLE_SIZE``, and a batch step takes ``BATCH_PAIRS`` pairs.
The learning rate decays linearly to 1e-4 of its initial value over all
epochs. Single-threaded training is bit deterministic under a fixed seed;
with more threads, sentence chunks update the shared parameters without
synchronization and only statistical properties are reproducible.

Embedding text format (``save_embeddings``, ``mulr embed --out``): first
line ``count dim``, then one ``token v1 .. vd`` row per token; a subword
store's rows are its ngrams, and ``load_embeddings`` reads them back as a
plain store without the ngram index. The pipeline caches stores as array
files instead (``save_store``, see ``fileio``): magic line
``MULR-STORE 2``, a JSON line with ``kind``, ``dim`` and ``tokens``
(``store_meta``) and the array manifest, then the matrix as raw
little-endian bytes of its dtype (``<f4`` for float32). The model file
keeps its stores with the same metadata. A ``MULR-STORE 1`` file, which
held a float64-trained matrix, does not load.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import SubwordIndex, Vocabulary
from .dataset import TypeSystem
from .errors import DataError, NumericError
from .fileio import data_errors, read_array_file, text_lines, write_array_file
from . import nn
from .nn import csr_take, scatter_add, sigmoid

KIND_SKIP = "skip"
KIND_SSKIP = "sskip"
KIND_SUBWORD = "subword"

NEGATIVE_TABLE_SIZE = 1_000_000
# table slots per vocabulary token, up to NEGATIVE_TABLE_SIZE: the
# resolution word2vec.c's 1e8 slots give a vocabulary of about 1e6 words
TABLE_SLOTS_PER_TOKEN = 100
# an error |label - sigmoid(s)| above this keeps under 19 bits of its
# distance from 1 in float32, so its loss is taken from the score
SOFTPLUS_ABOVE = 1.0 - 2.0 ** -5
# pairs vectorized per update; within a batch updates use the same stale
# parameters and the updates of a row repeated in the batch are summed, so
# keep it small relative to the vocabulary; the output update's (distinct
# output rows x center runs) coefficient matrix grows about with its square
BATCH_PAIRS = 256
UNIGRAM_POWER = 0.75
MIN_LR_FRACTION = 1e-4
STORE_MAGIC = "MULR-STORE 2"


@dataclass
class SgnsConfig:
    dim: int = 200
    negatives: int = 10
    window: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    seed: int = 1
    positional: bool = False    # True selects the order-aware variant
    threads: int = 1

    def __post_init__(self):
        if self.dim <= 0 or self.negatives < 1 or self.window < 1:
            raise DataError("dim must be positive, negatives and window >= 1")
        if self.epochs < 1:
            raise DataError("epochs must be positive")
        if not 0 < self.learning_rate < math.inf:
            raise DataError(f"learning_rate: {self.learning_rate} is not "
                            f"positive and finite")


@dataclass
class EmbeddingStore:
    """Fixed-dimension vectors for a set of tokens, all finite, in an
    ``nn.DTYPE`` matrix."""

    kind: str
    dim: int
    tokens: list[str]
    matrix: np.ndarray
    subwords: SubwordIndex | None = None
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        # one dtype however the store was made: 1e300 from a float64 file
        # becomes inf in float32 and fails the finiteness check below
        with np.errstate(over="ignore"):
            self.matrix = np.asarray(self.matrix, dtype=nn.DTYPE)
        if self.matrix.shape != (len(self.tokens), self.dim):
            raise NumericError(f"matrix shape {self.matrix.shape} does not "
                               f"match {len(self.tokens)} tokens of dim {self.dim}")
        if not np.all(np.isfinite(self.matrix)):
            raise NumericError("non-finite entries in embedding matrix")
        if self.kind == KIND_SUBWORD and self.subwords is None:
            raise DataError("subword store needs its ngram index")
        self.index = {t: i for i, t in enumerate(self.tokens)}

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def __len__(self) -> int:
        return len(self.tokens)

    def get(self, token: str) -> np.ndarray | None:
        i = self.index.get(token)
        return None if i is None else self.matrix[i]

    def rows(self, tokens, label: str) -> np.ndarray:
        """Matrix row of each token; a missing one is a ``DataError`` that
        names it as a ``label``."""
        for token in tokens:
            if token not in self.index:
                raise DataError(f"no {label} embedding for {token!r}")
        return np.array([self.index[t] for t in tokens], dtype=np.int64)

    def word_vector(self, word: str) -> np.ndarray | None:
        """Vector for a word; subword stores compose it from ngram pieces.

        Returns None for a plain store that does not know the word. For a
        subword store a word whose every ngram is unindexed yields the zero
        vector.
        """
        if self.kind != KIND_SUBWORD:
            return self.get(word)
        ids = self.subwords.ngram_ids(word)
        if not ids:
            return np.zeros(self.dim, dtype=self.matrix.dtype)
        return self.matrix[ids].mean(axis=0)


def save_embeddings(store: EmbeddingStore, path) -> None:
    """The store as word2vec text: each value is the shortest decimal that
    reads back to it in the store's dtype."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"{len(store.tokens)} {store.dim}\n")
        for tok, row in zip(store.tokens, store.matrix):
            fh.write(tok + " " + " ".join(map(str, row)) + "\n")


def load_embeddings(path) -> EmbeddingStore:
    path = Path(path)
    with closing(text_lines(path)) as lines:
        header = next(lines, (1, ""))[1].split()
        try:
            count, dim = (int(x) for x in header)
        except ValueError:
            raise DataError(f"{path}: line 1: bad embedding header "
                            f"{' '.join(header)!r}") from None
        if count < 0 or dim < 1:
            raise DataError(f"{path}: line 1: bad embedding header "
                            f"{count} {dim}")
        tokens: list[str] = []
        seen: set[str] = set()
        matrix = np.empty((count, dim))
        for i in range(count):
            parts = next(lines, (i + 2, ""))[1].split(" ")
            if len(parts) != dim + 1:
                raise DataError(f"{path}: line {i + 2}: {len(parts) - 1} "
                                f"values, expected {dim}")
            if parts[0] in seen:
                raise DataError(f"{path}: line {i + 2}: duplicate token "
                                f"{parts[0]!r}")
            seen.add(parts[0])
            tokens.append(parts[0])
            try:
                matrix[i] = [float(x) for x in parts[1:]]
            except ValueError as exc:
                raise DataError(f"{path}: line {i + 2}: {exc}") from None
        for line_no, extra in lines:
            if extra.strip():
                raise DataError(f"{path}: line {line_no}: row past the "
                                f"header's count of {count}")
    return EmbeddingStore(kind=KIND_SKIP, dim=dim, tokens=tokens,
                          matrix=matrix)


def store_meta(store: EmbeddingStore) -> dict:
    """The JSON metadata of a store in an array file: ``kind``, ``dim``,
    ``tokens`` and, for a subword store, ``ngram_bounds``."""
    meta = {"kind": store.kind, "dim": store.dim, "tokens": store.tokens}
    if store.subwords is not None:
        meta["ngram_bounds"] = [store.subwords.n_min, store.subwords.n_max]
    return meta


def store_from_meta(meta: dict, matrix: np.ndarray, kinds) -> EmbeddingStore:
    """The store ``meta`` describes, over ``matrix``, of one of ``kinds``;
    a subword store rebuilds its ngram index from ``tokens`` (in index
    order) and ``ngram_bounds``. Call it inside ``data_errors``."""
    kind, tokens, dim = meta["kind"], meta["tokens"], meta["dim"]
    if kind not in kinds:
        raise DataError(f"a {kind!r} store, expected "
                        f"{' or '.join(map(repr, kinds))}")
    if not (isinstance(tokens, list) and isinstance(dim, int)
            and all(isinstance(t, str) for t in tokens)):
        raise DataError("tokens must be a list of strings and dim an "
                        "integer")
    if len(set(tokens)) != len(tokens):
        dup = next(t for t, n in Counter(tokens).items() if n > 1)
        raise DataError(f"duplicate token {dup!r}")
    subwords = None
    if kind == KIND_SUBWORD:
        n_min, n_max = meta["ngram_bounds"]
        if not (isinstance(n_min, int) and isinstance(n_max, int)):
            raise DataError("ngram_bounds must be two integers")
        subwords = SubwordIndex(index={g: i for i, g in enumerate(tokens)},
                                n_min=n_min, n_max=n_max)
    return EmbeddingStore(kind=kind, dim=dim, tokens=tokens, matrix=matrix,
                          subwords=subwords)


def save_store(store: EmbeddingStore, path) -> None:
    """Write ``store`` as an array file, its matrix as array ``matrix``."""
    write_array_file(path, STORE_MAGIC, store_meta(store),
                     {"matrix": store.matrix})


def load_store(path, kind: str) -> EmbeddingStore:
    """Read a ``save_store`` file holding a ``kind`` store (a subword one
    with its ngram index). Any malformed content, including a duplicate
    token or a non-finite value, is a ``DataError`` that names the path."""
    with data_errors(path, "store"):
        meta, arrays = read_array_file(path, STORE_MAGIC)
        return store_from_meta(meta, arrays["matrix"], (kind,))


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; zero vectors map to 0 by convention."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise NumericError(f"cosine dim mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def type_cosine_matrix(entity_ids, store: EmbeddingStore,
                       ts: TypeSystem) -> np.ndarray:
    """Cosine of each entity vector against every type vector: one row per
    entity, one column per type in type order. Zero vectors give 0."""
    entities = _unit_rows(store.matrix[store.rows(entity_ids, "entity")])
    types = _unit_rows(store.matrix[store.rows(ts.types, "type")])
    return np.clip(entities @ types.T, -1.0, 1.0)


def _unit_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return np.divide(m, norms, out=np.zeros_like(m), where=norms > 0.0)


def _unigram_table(vocab: Vocabulary) -> np.ndarray:
    """The negative-sampling table: ``min(NEGATIVE_TABLE_SIZE,
    TABLE_SLOTS_PER_TOKEN * |V|)`` int32 token ids, each token in about
    its unigram^0.75 share of the slots."""
    tokens = vocab.tokens
    weights = np.array([vocab.counts[t] for t in tokens], dtype=float)
    weights **= UNIGRAM_POWER
    cumulative = np.cumsum(weights)
    cumulative /= cumulative[-1]
    size = min(NEGATIVE_TABLE_SIZE, TABLE_SLOTS_PER_TOKEN * len(tokens))
    targets = np.arange(size, dtype=float)
    targets += 0.5
    targets /= size
    return np.searchsorted(cumulative, targets).astype(np.int32)


def _errors(s: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, float]:
    """The errors ``mask * (label - sigmoid(s))`` of a batch's scores, the
    positive context in column 0, and the batch's loss: the masked sum of
    ``-log sigmoid(s)`` over positives and ``-log sigmoid(-s)`` over
    negatives, summed in float64.

    Each entry's loss is ``-log1p(-|error|)``. Where ``|error|`` exceeds
    ``SOFTPLUS_ABOVE`` its distance from 1 keeps too few bits of a float32
    sigmoid, and the loss is the softplus of the wrong-side score.
    """
    err = sigmoid(s)
    np.negative(err, out=err)
    err[:, 0] += 1.0
    err *= mask
    q = np.abs(err)
    far = q > SOFTPLUS_ABOVE
    q[far] = 0.0
    loss = -np.log1p(-q).sum(dtype=np.float64)
    if far.any():
        # the wrong-side score: s of a negative, -s of a positive
        wrong = s[far].astype(np.float64)
        wrong *= -np.sign(err[far])
        loss += np.logaddexp(0.0, wrong).sum()
    return err, float(loss)


class _Composer:
    """Maps center-token ids to input vectors, plain or ngram-averaged.

    The trainer passes the center of each run of equal centers in a batch,
    so an ngram-averaged vector is composed once per run, and ``backward``
    takes one gradient per run and spreads it over the run's ngram rows:
    one product of a (distinct ngrams x runs) weight matrix, 1/len per
    occurrence of an ngram in a run's word, with the runs' gradients.
    Ngram ids are in CSR layout: token ``t`` averages the ``w_in`` rows
    ``indices[indptr[t]:indptr[t + 1]]``. Callers pass only centers that
    have at least one ngram.
    """

    def __init__(self, n_inputs: int, dim: int, rng: np.random.Generator,
                 indptr: np.ndarray | None = None,
                 indices: np.ndarray | None = None):
        # float64 draws rounded to the parameter dtype, as ``init_uniform``
        self.w_in = ((rng.random((n_inputs, dim)) - 0.5) / dim).astype(
            nn.DTYPE)
        self.indptr = indptr
        self.indices = indices

    def forward(self, centers: np.ndarray):
        if self.indptr is None:
            return self.w_in[centers], None
        flat_ptr, flat = csr_take(self.indptr, self.indices, centers)
        lengths = np.diff(flat_ptr)
        v = np.add.reduceat(self.w_in[flat], flat_ptr[:-1], axis=0)
        v /= lengths[:, None]
        return v, (flat, lengths)

    def backward(self, centers: np.ndarray, dv: np.ndarray, cache) -> None:
        if self.indptr is None:
            scatter_add(self.w_in, centers, dv)
            return
        flat, lengths = cache
        # m[u, j]: the weight of run j's gradient on ngram row uniq[u], 1/len
        # per occurrence of the ngram in the run's word
        uniq, inv = np.unique(flat, return_inverse=True)
        runs = lengths.size
        m = np.bincount(inv * runs + np.repeat(np.arange(runs), lengths),
                        weights=np.repeat(1.0 / lengths, lengths),
                        minlength=uniq.size * runs)
        self.w_in[uniq] += m.reshape(uniq.size, runs).astype(dv.dtype) @ dv


class _SgnsState:
    def __init__(self, vocab: Vocabulary, cfg: SgnsConfig,
                 subwords: SubwordIndex | None):
        self.vocab_size = len(vocab)
        self.blocks = 2 * cfg.window if cfg.positional else 1
        rng = np.random.default_rng(cfg.seed)
        if subwords is None:
            self.composer = _Composer(self.vocab_size, cfg.dim, rng)
        else:
            ids = [subwords.ngram_ids(t) for t in vocab.tokens]
            indptr = np.zeros(len(ids) + 1, dtype=np.int64)
            np.cumsum([len(x) for x in ids], out=indptr[1:])
            indices = np.fromiter((i for x in ids for i in x),
                                  dtype=np.int64, count=indptr[-1])
            self.composer = _Composer(len(subwords), cfg.dim, rng,
                                      indptr, indices)
        self.w_out = np.zeros((self.blocks * self.vocab_size, cfg.dim),
                              dtype=nn.DTYPE)
        self.table = _unigram_table(vocab)


def _block_of(offset: int, window: int, positional: bool) -> int:
    if not positional:
        return 0
    return offset + window if offset < 0 else offset + window - 1


def iter_context_pairs(ids: list[int], spans, window: int,
                       positional: bool):
    """Yield (center, context, output block) triples for one sentence.

    The ``i``-th center sees the tokens up to ``spans[i]`` positions away,
    a span in [1, window]. The block index is 0 for the bag-of-words
    variant and selected by the signed offset of the context token for the
    order-aware one.
    """
    n = len(ids)
    for i, (center, b) in enumerate(zip(ids, spans)):
        for j in range(max(0, i - b), min(n, i + b + 1)):
            if j != i:
                yield center, ids[j], _block_of(j - i, window, positional)


def _epoch_pairs(tok: np.ndarray, sent: np.ndarray, spans: np.ndarray,
                 cfg: SgnsConfig):
    """Vectorized (center, context, block) arrays for one epoch, each
    center ``tok[i]`` seeing ``spans[i]`` positions away.

    Produces the same pair multiset as iter_context_pairs over every
    sentence, ordered by center position so updates keep corpus locality.
    """
    n = tok.size
    centers, contexts, blocks, order = [], [], [], []
    for delta in range(1, min(cfg.window + 1, n)):
        same = sent[:n - delta] == sent[delta:]
        # the centers with a context at +delta, then those with one at -delta
        for i, offset in ((np.nonzero(same & (spans[:n - delta] >= delta))[0],
                           delta),
                          (np.nonzero(same & (spans[delta:] >= delta))[0]
                           + delta, -delta)):
            centers.append(tok[i])
            contexts.append(tok[i + offset])
            blocks.append(np.full(i.size, _block_of(offset, cfg.window,
                                                    cfg.positional)))
            order.append(i)
    if not centers:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    centers = np.concatenate(centers)
    contexts = np.concatenate(contexts)
    blocks = np.concatenate(blocks)
    rank = np.argsort(np.concatenate(order), kind="stable")
    return centers[rank], contexts[rank], blocks[rank]


def _train_chunk(tok: np.ndarray, sent: np.ndarray, state: _SgnsState,
                 cfg: SgnsConfig, seed: int, lr_span: tuple[float, float],
                 losses: list[float], trainable_mask: np.ndarray) -> None:
    """One epoch over the flattened chunk, updating parameters in place.

    ``lr_span`` is (fraction of all training done at epoch start, fraction
    done at epoch end); the learning rate decays linearly inside it.
    """
    rng = np.random.default_rng(seed)
    lr0 = cfg.learning_rate
    table = state.table
    w_out = state.w_out
    vocab_size = state.vocab_size

    # each center's window, drawn before the negatives and not held past
    # the pairs it selects
    centers, contexts, blocks = _epoch_pairs(
        tok, sent, rng.integers(1, cfg.window + 1, size=tok.size), cfg)
    if trainable_mask is not None:
        keep = trainable_mask[centers]
        centers, contexts, blocks = centers[keep], contexts[keep], blocks[keep]
    total = centers.size
    loss_sum = 0.0
    frac0, frac1 = lr_span

    for start in range(0, total, BATCH_PAIRS):
        c = centers[start:start + BATCH_PAIRS]
        t = contexts[start:start + BATCH_PAIRS]
        blk = blocks[start:start + BATCH_PAIRS]
        progress = frac0 + (frac1 - frac0) * (start / total)
        lr = lr0 * max(MIN_LR_FRACTION, 1.0 - progress)
        batch = c.size
        neg = table[rng.integers(0, table.size, size=(batch, cfg.negatives))]

        # one input vector per run of equal centers
        head = np.empty(batch, dtype=bool)
        head[0] = True
        np.not_equal(c[1:], c[:-1], out=head[1:])
        run_of = np.cumsum(head) - 1
        runs = c[head]
        v, cache = state.composer.forward(runs)

        # each pair's output rows, the positive context in column 0
        rows = blk[:, None] * vocab_size + np.column_stack([t, neg])
        wr = w_out.take(rows, axis=0)
        s = np.matmul(wr, v[run_of][:, :, None])[:, :, 0]
        # a negative that hits the positive context does not count
        mask = rows != rows[:, :1]
        mask[:, 0] = True
        g, loss = _errors(s, mask)
        loss_sum += loss
        g *= lr
        dv = np.add.reduceat(np.matmul(g[:, None, :], wr)[:, 0],
                             np.flatnonzero(head), axis=0)
        # coef[u, j]: summed gradient of output row uniq[u] against run j
        uniq, inv = np.unique(rows, return_inverse=True)
        coef = np.bincount((inv.reshape(rows.shape) * runs.size
                            + run_of[:, None]).reshape(-1),
                           weights=g.reshape(-1),
                           minlength=uniq.size * runs.size)
        w_out[uniq] += coef.reshape(uniq.size, runs.size).astype(
            w_out.dtype) @ v
        state.composer.backward(runs, dv, cache)
    losses.append(loss_sum)


def _flatten(stream, vocab_index) -> tuple[np.ndarray, np.ndarray]:
    toks: list[int] = []
    sent_ids: list[int] = []
    for si, sentence in enumerate(stream):
        for token in sentence:
            idx = vocab_index.get(token)
            if idx is not None:  # out-of-vocabulary tokens are skipped
                toks.append(idx)
                sent_ids.append(si)
    return (np.asarray(toks, dtype=np.int64),
            np.asarray(sent_ids, dtype=np.int64))


def _run_training(stream, vocab: Vocabulary, cfg: SgnsConfig,
                  subwords: SubwordIndex | None, on_epoch_end):
    if not stream or not any(stream):
        raise DataError("empty token stream")
    state = _SgnsState(vocab, cfg, subwords)
    tok, sent = _flatten(stream, vocab.index)
    indptr = state.composer.indptr
    # centers without indexed ngrams have no input vector to train
    trainable_mask = None if indptr is None else np.diff(indptr) > 0

    for epoch in range(cfg.epochs):
        losses: list[float] = []
        span = (epoch / cfg.epochs, (epoch + 1) / cfg.epochs)
        if cfg.threads <= 1:
            _train_chunk(tok, sent, state, cfg, cfg.seed + 31 * epoch, span,
                         losses, trainable_mask)
        else:
            bounds = np.linspace(0, tok.size, cfg.threads + 1, dtype=int)
            # align chunk edges with sentence boundaries
            for k in range(1, cfg.threads):
                while bounds[k] < tok.size and bounds[k] > 0 \
                        and sent[bounds[k]] == sent[bounds[k] - 1]:
                    bounds[k] += 1
            workers = []
            for tid in range(cfg.threads):
                lo, hi = bounds[tid], bounds[tid + 1]
                if lo >= hi:
                    continue
                workers.append(threading.Thread(
                    target=_train_chunk,
                    args=(tok[lo:hi], sent[lo:hi], state, cfg,
                          cfg.seed + 31 * epoch + 7919 * (tid + 1),
                          span, losses, trainable_mask)))
            for w in workers:
                w.start()
            for w in workers:
                w.join()
        loss = float(sum(losses))
        if on_epoch_end is not None:
            on_epoch_end(epoch, loss)
        if not math.isfinite(loss):
            raise NumericError(f"SGNS epoch {epoch + 1}: loss {loss} is not "
                               f"finite")
    return state


def train_sgns(stream: list[list[str]], vocab: Vocabulary, cfg: SgnsConfig,
               on_epoch_end=None) -> EmbeddingStore:
    """Train token embeddings; returns input-side vectors for every token."""
    state = _run_training(stream, vocab, cfg, None, on_epoch_end)
    kind = KIND_SSKIP if cfg.positional else KIND_SKIP
    return EmbeddingStore(kind=kind, dim=cfg.dim, tokens=vocab.tokens,
                          matrix=state.composer.w_in)


def train_subword_sgns(stream: list[list[str]], vocab: Vocabulary,
                       subwords: SubwordIndex, cfg: SgnsConfig,
                       on_epoch_end=None) -> EmbeddingStore:
    """Train ngram embeddings; word vectors are averages of their ngrams.

    The returned store holds one vector per indexed ngram. Use
    ``word_vector`` to compose a word, including words never seen during
    training, as long as at least one of their ngrams is indexed.
    """
    if len(subwords) == 0:
        raise DataError("empty subword index")
    state = _run_training(stream, vocab, cfg, subwords, on_epoch_end)
    grams = [""] * len(subwords)
    for g, i in subwords.index.items():
        grams[i] = g
    return EmbeddingStore(kind=KIND_SUBWORD, dim=cfg.dim, tokens=grams,
                          matrix=state.composer.w_in, subwords=subwords)
