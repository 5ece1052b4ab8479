"""Multi-label entity typer: one-hidden-layer MLP over the representation.

The probability vector for an entity is ``sigmoid(W_out relu(W_in v(e)))``
with one output unit per type. ``W_in`` is held in two parts: a dense layer
over the dense levels (with the character encoder's output in its hole),
and a feature table with one row per ``bow``/``nsl`` feature, summed over
the features a name has. Training minimizes binary cross entropy summed
over types and averaged over the minibatch, with AdaGrad updates. The
table's forward sums each name's rows (``nn.SparseLinear``), and each step
updates only the table rows its batch touched, in cache-sized blocks of
rows (``AdaGrad.step_rows``), which AdaGrad makes exact. Word-, entity-
and type-level inputs stay frozen; only the MLP and the character-level
encoder receive gradients. After each epoch the dev micro F1 at
threshold 0.5 decides the checkpoint to keep; training stops once
``patience`` epochs pass without a new best. Dev entities are required, for
the checkpoint and for calibration: ``train`` without them is a
``DataError`` before the first epoch.

Decision thresholds are calibrated per type on dev scores and applied with
a strict greater-than, so an uninformative all-0.5 model predicts nothing.

Model notes (``TyperModel.flags``) come from the results they describe:
``train`` notes ``<kind>: no vector for <n> of <m> names`` once per dense
level from the zero rows it built (zero on every training name is a
``DataError``), and ``calibrate_thresholds`` each type without dev
positives. Scoring notes nothing.

Every pass through the network is one ``TyperModel.forward``, which puts
the character encoder's output into the layout's hole itself. The training
step calls it with ``train=True``, the default, and each layer keeps what
its backward pass reads; the per-epoch dev pass and ``scores_for`` call it
with ``train=False``, which gives the same bits and leaves no layer cache
behind. Scoring is batch-first: ``scores_for`` builds the frozen levels and
the character id rows (one array per chunk) and scores ``SCORE_BATCH``
instances at a time, and calibration and prediction both score all their
entities through it in one call; the CNN computes only each name's
distinct windows, not those inside its padding. ``predict_with_scores``
then picks every entity's types with one comparison of the score matrix
against the thresholds, and orders them with one sort.

The typer trains and scores in ``nn.DTYPE`` (float32): its parameters,
the frozen level rows (cast once by ``frozen_matrix``) and every layer's
gradients and optimizer state. The logits go up to float64 before the
sigmoid, so scores, the BCE, dev F1, calibration and prediction files keep
float64 resolution; float32 would round confident scores to ties at 1.0.

Model files are self-contained: layout, MLP and encoder parameters, sparse
feature indexes, thresholds, and the frozen embedding stores the spec
reads. A file's levels carry resolved options, so it does not depend on
the code's defaults; options absent from a level (``{}`` in earlier files)
load resolved. Layout: magic line ``MULR-MODEL 4``, a JSON metadata line
(ints and strings only), then the named arrays in manifest order, each in
the dtype its manifest entry names (``fileio``): the parameters and stores
in ``nn.DTYPE``, the thresholds in float64. A float64 parameter array loads
narrowed to the parameter's dtype, and a value that overflows float32 is
a ``DataError``. Each store the levels read (``stores_read``) is written
once, as array ``store.main`` or ``store.subword`` and its ``store_meta``
under that label in ``stores``. Files of earlier formats do not load:
``MULR-MODEL 1`` held the main store twice, ``MULR-MODEL 2`` held
float64-trained parameters, and ``MULR-MODEL 3`` held every array as
float64 bytes and float64-trained stores. A spec with ``bow`` or ``nsl``
stores the feature table as ``features.W``, of shape (features, hidden
units), and ``w_in.W`` then covers the dense levels only; other specs have
no ``features.W``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dataset import DatasetSplit, EntityRecord, TypeSystem
from .embeddings import store_from_meta, store_meta
from .errors import DataError
from .fileio import data_errors, read_array_file, write_array_file
from .levels import (LEVEL_STORES, SPARSE_KINDS, STORE_KINDS, Assembler,
                     CharVocab, ClrEncoder, LevelSpec, RepresentationSpec,
                     Resources, build_char_vocab, default_hidden_units,
                     feature_index, stores_read)
from .metrics import f1_from_counts
from .nn import (AdaGrad, Dense, SparseLinear, bce_loss, csr_take,
                 init_uniform, relu, sigmoid)

PROVISIONAL_THRESHOLD = 0.5
# instances per scoring pass: it bounds the memory of a chunk's dense level
# rows, and scoring time is flat (within 15%) for chunks of 64 to 512
SCORE_BATCH = 256
FEATURE_TABLE = "features.W"
# the settings whose counts decide which words each store keeps
COUNT_SETTINGS = {"main": "[embeddings] min_count",
                  "subword": "[subword] min_count or ngram_min_count"}


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 128
    learning_rate: float = 0.01
    seed: int = 1
    patience: int = 5
    hidden_units: int | None = None  # None resolves from the level table

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise DataError("epochs and batch_size must be positive")
        if not 0 < self.learning_rate < math.inf:
            raise DataError(f"learning_rate: {self.learning_rate} is not "
                            f"positive and finite")
        if self.patience < 0:
            raise DataError(f"patience: {self.patience} is below 0")
        if self.hidden_units is not None and self.hidden_units < 1:
            raise DataError(f"hidden_units: {self.hidden_units} is below 1")


class TyperModel:
    """MLP with a frozen multi-level input and a trainable character slice.

    ``input_dim`` is the full layout width, sparse levels included; the
    dense layer ``w_in`` takes the dense levels and ``features`` (None
    without ``bow``/``nsl``) holds the sparse levels' columns as table rows.
    """

    def __init__(self, spec: RepresentationSpec, resources: Resources,
                 assembler: Assembler, clr: ClrEncoder | None,
                 hidden_units: int, rng: np.random.Generator):
        self.spec = spec
        self.resources = resources
        self.assembler = assembler
        self.clr = clr
        self.type_system = resources.type_system
        clr_dim = clr.out_dim if clr is not None else None
        self.layout = assembler.layout(clr_dim)
        self.input_dim = sum(d for _, d in self.layout)
        self.clr_offset = 0
        for lv, (_, dim) in zip(spec.levels, self.layout):
            if lv is spec.clr_level:
                break
            if lv.kind not in SPARSE_KINDS:
                self.clr_offset += dim
        n_types = len(self.type_system)
        # one draw over the full layout width, as one dense first layer
        # takes it; the sparse levels' columns become the table's rows
        sparse = np.repeat([k in SPARSE_KINDS for k, _ in self.layout],
                           [d for _, d in self.layout])
        W = init_uniform(rng, (hidden_units, self.input_dim))
        self.w_in = Dense(np.ascontiguousarray(W[:, ~sparse]),
                          init_uniform(rng, (hidden_units,)))
        self.features = SparseLinear(W.T[sparse]) if sparse.any() else None
        self.w_out = Dense.initialize(hidden_units, n_types, rng)
        self.thresholds = np.full(n_types, PROVISIONAL_THRESHOLD)
        self.flags: list[str] = []
        self.dev_metric: float | None = None
        # identity written into the model file by ``save_model``
        self.config_hash = ""
        self.seed = 0
        self._h_pre = None

    # -- parameter plumbing ------------------------------------------------

    def params(self) -> dict[str, np.ndarray]:
        """Every trained parameter, by its array name in the model file."""
        out = {"w_in.W": self.w_in.W, "w_in.b": self.w_in.b,
               "w_out.W": self.w_out.W, "w_out.b": self.w_out.b}
        if self.features is not None:
            out[FEATURE_TABLE] = self.features.W
        if self.clr is not None:
            out.update({f"clr.{k}": v for k, v in self.clr.params().items()})
        return out

    def grad_dict(self) -> dict[str, np.ndarray]:
        """Full gradients of every parameter but the feature table, whose
        gradient covers only the rows the last batch touched
        (``features.rows`` and ``features.grad``)."""
        out = {"w_in.W": self.w_in.grads["W"], "w_in.b": self.w_in.grads["b"],
               "w_out.W": self.w_out.grads["W"], "w_out.b": self.w_out.grads["b"]}
        if self.clr is not None:
            out.update({f"clr.{k}": v for k, v in self.clr.grad_dict().items()})
        return out

    def step(self, opt: AdaGrad) -> None:
        """One optimizer step from the last backward pass: the feature
        table on its touched rows, everything else in full."""
        grads = self.grad_dict()
        params = self.params()
        opt.step({k: params[k] for k in grads}, grads)
        if self.features is not None:
            opt.step_rows(FEATURE_TABLE, self.features.W, self.features.rows,
                          self.features.grad)

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params().items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for k, v in self.params().items():
            v[...] = snap[k]

    # -- forward -----------------------------------------------------------

    def forward(self, frozen: np.ndarray, char_ids: np.ndarray | None = None,
                feats=None, train: bool = True) -> np.ndarray:
        """One float64 probability row per row of frozen dense levels
        ``frozen``; ``char_ids`` holds the same rows' character ids, whose
        encoding fills the layout hole, and ``feats`` their feature ids
        from ``feature_rows``. Training, every layer keeps what
        ``backward_from_probs`` reads; scoring (``train=False``) gives the
        same bits and keeps nothing. The logits go up to float64 before the
        sigmoid, so a confident float32 score does not round to a tie at
        1.0."""
        if self.clr is not None:
            pos = self.clr_offset
            frozen = np.concatenate([frozen[:, :pos],
                                     self.clr.forward(char_ids, train),
                                     frozen[:, pos:]], axis=1)
        h_pre = self.w_in.forward(frozen, train)
        if self.features is not None:
            h_pre += self.features.forward(*feats, train)
        self._h_pre = h_pre if train else None
        logits = self.w_out.forward(relu(h_pre), train)
        return sigmoid(logits.astype(np.float64))

    def backward_from_probs(self, p: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Gradient pass for mean-over-batch summed-over-types BCE."""
        batch = p.shape[0]
        dz = ((p - m) / batch).astype(self.w_out.W.dtype)
        dh = self.w_out.backward(dz)
        dh = dh * (self._h_pre > 0.0)
        dv = self.w_in.backward(dh)
        if self.features is not None:
            self.features.backward(dh)
        if self.clr is not None:
            pos = self.clr_offset
            self.clr.backward(dv[:, pos:pos + self.clr.out_dim])
        return dv

    # -- inference ---------------------------------------------------------

    def frozen_matrix(self, instances: list[tuple[str, str]]) -> np.ndarray:
        """Frozen level rows for (entity id, name) instances, cast once to
        the dtype of the layer they feed."""
        return self.assembler.frozen_matrix(instances).astype(
            self.w_in.W.dtype, copy=False)

    def feature_rows(self, instances) -> tuple[np.ndarray, np.ndarray] | None:
        """CSR ``bow``/``nsl`` feature ids (indptr, indices) of the
        instances' names, or None when the model has no feature table."""
        if self.features is None:
            return None
        return self.assembler.feature_rows(instances)

    def char_matrix(self, instances) -> np.ndarray | None:
        if self.clr is None:
            return None
        return self.clr.ids_for([name for _, name in instances])

    def scores_for(self, instances: list[tuple[str, str]]) -> np.ndarray:
        """Probability rows for (entity id, name) instances, scored
        ``SCORE_BATCH`` instances at a time."""
        out = np.empty((len(instances), len(self.type_system)))
        for start in range(0, len(instances), SCORE_BATCH):
            chunk = instances[start:start + SCORE_BATCH]
            out[start:start + len(chunk)] = self.forward(
                self.frozen_matrix(chunk), self.char_matrix(chunk),
                self.feature_rows(chunk), train=False)
        return out

    def label_matrix(self, entities: Sequence[EntityRecord]) -> np.ndarray:
        index = self.type_system.index
        out = np.zeros((len(entities), len(self.type_system)))
        for row, e in enumerate(entities):
            for t in e.gold_types:
                out[row, index[t]] = 1.0
        return out


def predict_with_scores(model: TyperModel, entities: Sequence[EntityRecord]
                        ) -> list[list[tuple[str, float]]]:
    """Per entity, scored by its first name, the (type, probability) pairs
    above the type's threshold, by descending probability and then by type
    name. One comparison picks the pairs of every entity, and one sort
    orders them."""
    scores = model.scores_for([(e.id, e.names[0]) for e in entities])
    types = model.type_system.types
    rows, cols = np.nonzero(scores > model.thresholds)
    picked = scores[rows, cols]
    # each type's place in name order: the inverse of the sorting order
    name_rank = np.argsort(sorted(range(len(types)), key=types.__getitem__))
    # lexsort's last key sorts first: entity, then -probability, then name
    order = np.lexsort((name_rank[cols], -picked, rows))
    out = [[] for _ in entities]
    for row, col, p in zip(rows[order].tolist(), cols[order].tolist(),
                           picked[order].tolist()):
        out[row].append((types[col], p))
    return out


def train_instances(split: DatasetSplit) -> list[tuple[EntityRecord, str]]:
    """One instance per (train entity, name) pair, types shared."""
    out = []
    for e in split.train:
        for name in e.names:
            out.append((e, name))
    return out


def check_split(split: DatasetSplit) -> None:
    """``train``'s ``DataError`` for a split without training or dev
    entities, for callers to raise before they build its resources."""
    if not split.train:
        raise DataError("no training instances")
    if not split.dev:
        raise DataError("no dev entities to choose the checkpoint on")


def train(split: DatasetSplit, spec: RepresentationSpec, resources: Resources,
          cfg: TrainConfig, on_epoch_end=None) -> TyperModel:
    """Fit the typer; returns the best-on-dev checkpoint."""
    check_split(split)
    insts = train_instances(split)
    rng = np.random.default_rng(cfg.seed)
    train_names = [name for _, name in insts]
    assembler = Assembler(spec, resources)
    train_rows = assembler.fit_rows(train_names)
    clr = None
    clr_level = spec.clr_level
    if clr_level is not None:
        char_vocab = build_char_vocab(train_names)
        clr = ClrEncoder(clr_level, char_vocab, rng)
    hidden = cfg.hidden_units or default_hidden_units(spec.kinds)
    model = TyperModel(spec, resources, assembler, clr, hidden, rng)

    pairs = [(e.id, name) for e, name in insts]
    frozen = model.frozen_matrix(pairs)
    feats = train_rows if model.features is not None else None
    char_ids = model.char_matrix(pairs)
    labels = model.label_matrix([e for e, _ in insts])

    dev_pairs = [(e.id, e.names[0]) for e in split.dev]
    dev_frozen = model.frozen_matrix(dev_pairs)
    dev_feats = model.feature_rows(dev_pairs)
    dev_ids = model.char_matrix(dev_pairs)
    dev_gold = model.label_matrix(list(split.dev))

    # one note per dense level with zero rows among the rows built above
    built = [frozen, dev_frozen]
    for lv, lo, hi in assembler.frozen_slices():
        zero = [np.count_nonzero(~x[:, lo:hi].any(axis=1)) for x in built]
        if zero[0] == len(frozen):
            raise DataError(f"{lv.kind}: no vector for any of the "
                            f"{len(frozen)} training names; lower "
                            f"{COUNT_SETTINGS[LEVEL_STORES[lv.kind]]}")
        if sum(zero):
            model.flags.append(f"{lv.kind}: no vector for {sum(zero)} of "
                               f"{sum(map(len, built))} names")

    opt = AdaGrad(learning_rate=cfg.learning_rate)
    n = len(insts)
    best_metric = -math.inf
    best_epoch = 0
    best_snap = model.snapshot()
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            rows = perm[start:start + cfg.batch_size]
            p = model.forward(
                frozen[rows], None if char_ids is None else char_ids[rows],
                None if feats is None else csr_take(*feats, rows))
            m = labels[rows]
            epoch_loss += bce_loss(p, m)
            model.backward_from_probs(p, m)
            model.step(opt)
        dev_p = model.forward(dev_frozen, dev_ids, dev_feats, train=False)
        metric = threshold_f1(dev_p, dev_gold, PROVISIONAL_THRESHOLD)
        if on_epoch_end is not None:
            on_epoch_end(epoch, epoch_loss, metric)
        if metric > best_metric:
            best_metric = metric
            best_epoch = epoch
            best_snap = model.snapshot()
        if epoch - best_epoch >= cfg.patience:
            break
    model.restore(best_snap)
    model.dev_metric = best_metric
    return model


def threshold_f1(scores: np.ndarray, labels: np.ndarray,
                 theta: float) -> float:
    """F1 of the strict-greater-than decision at ``theta``, pooled over
    every score (one type's column, or a whole entity-by-type matrix)."""
    pred = scores > theta
    return f1_from_counts(float(np.sum(pred * labels)),
                          float(np.sum(pred * (1 - labels))),
                          float(np.sum((~pred) * labels)))


def calibrate_from_scores(scores: np.ndarray,
                          gold: np.ndarray) -> np.ndarray:
    """Per-type thresholds maximizing that type's F1 on dev scores.

    Candidates are the midpoints between consecutive distinct scores,
    bracketed by sentinels at 0 and 1, evaluated in ascending order with
    0.5 appended as the final fallback; the first maximizer wins. A type
    with no dev positives keeps 0.5. ``gold`` is 0/1; one sort and a
    cumulative count give every candidate's F1.
    """
    n_types = scores.shape[1]
    thresholds = np.full(n_types, PROVISIONAL_THRESHOLD)
    for t in range(n_types):
        positive = gold[:, t] > 0
        n_pos = int(positive.sum())
        if n_pos == 0:
            continue
        s = scores[:, t]
        distinct = np.unique(s)
        edges = np.concatenate([[0.0], distinct, [1.0]])
        candidates = np.append((edges[:-1] + edges[1:]) / 2.0,
                               PROVISIONAL_THRESHOLD)
        # sweep: the scores at or below each candidate are a sorted prefix
        order = np.argsort(s, kind="stable")
        below = np.searchsorted(s[order], candidates, side="right")
        pos_below = np.concatenate([[0], np.cumsum(positive[order])])[below]
        tp = n_pos - pos_below
        fp = (len(s) - below) - tp
        f1 = f1_from_counts(tp, fp, n_pos - tp)
        thresholds[t] = candidates[np.argmax(f1)]  # first maximizer
    return thresholds


def calibrate_thresholds(model: TyperModel,
                         dev: list[EntityRecord]) -> np.ndarray:
    """Calibrate the model's per-type thresholds on the dev entities, and
    note each type without dev positives, which keeps 0.5.

    Notes the model already records are not added again, so calibrating
    twice on the same entities leaves the model as one call does.
    """
    if not dev:
        raise DataError("no dev entities to calibrate on")
    pairs = [(e.id, e.names[0]) for e in dev]
    scores = model.scores_for(pairs)
    gold = model.label_matrix(list(dev))
    model.thresholds = calibrate_from_scores(scores, gold)
    types = model.type_system.types
    for t in np.flatnonzero(~gold.any(axis=0)):
        note = f"no dev positives for type {types[t]!r}; threshold 0.5"
        if note not in model.flags:
            model.flags.append(note)
    return model.thresholds


# ---------------------------------------------------------------------------
# serialization

MODEL_MAGIC = "MULR-MODEL 4"


def save_model(model: TyperModel, path, config_hash: str | None = None,
               seed: int | None = None) -> None:
    """Write the model file; ``config_hash`` and ``seed`` default to the
    model's own (those of the file it was loaded from, if any)."""
    res = model.resources
    arrays: dict[str, np.ndarray] = {"thresholds": model.thresholds}
    arrays.update(model.params())
    stores = {label: res.store(label) for label in stores_read(model.spec)}
    arrays.update({f"store.{k}": store.matrix for k, store in stores.items()})
    meta = {
        "config_hash": model.config_hash if config_hash is None
        else config_hash,
        "seed": model.seed if seed is None else seed,
        "levels": [{"kind": lv.kind, "options": lv.options}
                   for lv in model.spec.levels],
        "layout": [[k, d] for k, d in model.layout],
        "types": list(model.type_system.types),
        "parent": dict(sorted(model.type_system.parent.items())),
        "hidden_units": model.w_in.out_dim,
        "char_vocab": list(model.clr.char_vocab.chars) if model.clr else None,
        "clr_kind": model.clr.kind if model.clr else None,
        "indexers": {k: sorted(ix, key=ix.get)
                     for k, ix in model.assembler.indexers.items()},
        "stores": {k: store_meta(store) for k, store in stores.items()},
        "descriptions": {k: v for k, v in
                         sorted((res.descriptions or {}).items())}
        if res.descriptions is not None else None,
        "flags": list(model.flags),
    }
    write_array_file(path, MODEL_MAGIC, meta, arrays)


def load_model(path) -> TyperModel:
    """Read a model file. Any malformed content, including a truncated or
    overlong file and arrays that do not fit the spec, is a ``DataError``
    that names the path."""
    with data_errors(path, "model"):
        return _model_from_meta(*read_array_file(path, MODEL_MAGIC))


def _model_from_meta(meta: dict, arrays: dict[str, np.ndarray]) -> TyperModel:
    ts = TypeSystem(types=tuple(meta["types"]), parent=dict(meta["parent"]))
    spec = RepresentationSpec(levels=tuple(
        LevelSpec(kind=lv["kind"], options=lv["options"])
        for lv in meta["levels"]))
    stores = {}
    for label in stores_read(spec):
        name = f"store.{label}"
        if name not in arrays:
            raise DataError(f"no array {name!r} in the manifest")
        stores[f"{label}_store"] = store_from_meta(
            meta["stores"][label], arrays[name], STORE_KINDS[label])
    resources = Resources(type_system=ts, descriptions=meta["descriptions"],
                          **stores)
    assembler = Assembler(spec, resources, {
        kind: feature_index(names)
        for kind, names in meta["indexers"].items()})

    rng = np.random.default_rng(0)
    clr = None
    if meta["clr_kind"] is not None:
        char_vocab = CharVocab(chars=tuple(meta["char_vocab"]))
        clr = ClrEncoder(spec.clr_level, char_vocab, rng)
    model = TyperModel(spec, resources, assembler, clr,
                       meta["hidden_units"], rng)
    targets = {"thresholds": model.thresholds, **model.params()}
    for name, arr in targets.items():
        if name not in arrays:
            raise DataError(f"no array {name!r} in the manifest")
        if arrays[name].shape != arr.shape:
            raise DataError(f"array {name!r} has shape "
                            f"{arrays[name].shape}, the spec builds "
                            f"{arr.shape}")
        # finite in float64 is not enough: 1e300 becomes inf in float32
        with np.errstate(over="ignore"):
            value = arrays[name].astype(arr.dtype)
        if not np.all(np.isfinite(value)):
            raise DataError(f"non-finite values in array {name!r} as "
                            f"{arr.dtype}")
        arr[...] = value
    model.flags = list(meta["flags"])
    model.config_hash = meta["config_hash"]
    model.seed = meta["seed"]
    return model
