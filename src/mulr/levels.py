"""Representation levels for an entity and their concatenation.

Levels
------
* ``clr-forward`` / ``clr-cnn`` / ``clr-lstm`` / ``clr-bilstm``: neural
  encoders over the character matrix of the entity name; trained with the
  typer, everything else below stays frozen.
* ``wwlr`` / ``swlr``: average of name-word embeddings, whole-word lookup
  vs subword composition for out-of-vocabulary words.
* ``elr``: the entity-id token's embedding.
* ``tc``: cosine of the entity embedding against every type embedding.
* ``avg-des``: average embedding of the top-k tf-idf words of the entity's
  KB description.
* ``bow`` / ``nsl``: sparse binary name features (words; ngram/shape/length),
  carried as CSR feature-id lists, not dense rows.

Each level carries resolved options: ``RepresentationSpec`` gives every
level each option its kind reads (``KIND_DEFAULTS``), the default where
none is given, and drops the rest.

A representation is the concatenation of the requested levels in the given
order; the layout (level, dimension) pairs are recorded so a classifier is
never applied across layouts. ``Assembler.frozen_matrix`` builds the dense
levels; the sparse levels' ids come from ``Assembler.feature_rows``, and
``Assembler.fit_rows`` computes each training name's features once, for
both the feature indexes and the training rows.

The character encoders have one pass, ``ClrEncoder.forward(ids, train)``:
with ``train`` set it keeps the ids and its networks' caches for
``backward``; with ``train=False`` it computes the same bits and keeps
nothing.

Levels make no notes: a level with nothing to average returns the zero
vector, and ``typer.train`` counts those rows per level (``frozen_slices``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from .corpus import _PUNCT
from .dataset import TypeSystem, name_words
from .embeddings import (KIND_SKIP, KIND_SSKIP, KIND_SUBWORD, EmbeddingStore,
                         type_cosine_matrix)
from .errors import DataError, NumericError
from .nn import ConvMaxPool, Lstm, init_uniform, scatter_add

CHAR_MIN_COUNT = 5

# the options each kind reads, with their published defaults (``clr-cnn``
# has its own filter banks alone and next to ``elr``); a kind not named
# reads none
KIND_DEFAULTS = {
    "clr-forward": {"padded_len": 40, "char_dim": 15},
    "clr-cnn": {"padded_len": 40, "char_dim": 10,
                "widths": tuple(range(1, 8)), "feature_maps": 50},
    "clr-lstm": {"padded_len": 40, "char_dim": 70, "hidden_dim": 70},
    "clr-bilstm": {"padded_len": 40, "char_dim": 50, "hidden_dim": 50},
    "avg-des": {"top_k": 20},
}
# each option's type
LEVEL_OPTIONS = {name: type(value) for defaults in KIND_DEFAULTS.values()
                 for name, value in defaults.items()}
# the least value of each integer option; each of ``widths`` is 1..MAX_WIDTH
OPTION_MINIMA = {"padded_len": 3, "char_dim": 1, "feature_maps": 1,
                 "hidden_dim": 1, "top_k": 1}
MAX_WIDTH = 10

CLR_KINDS = ("clr-forward", "clr-cnn", "clr-lstm", "clr-bilstm")
SPARSE_KINDS = ("bow", "nsl")
LEVEL_KINDS = CLR_KINDS + SPARSE_KINDS + ("wwlr", "swlr", "elr", "tc", "avg-des")

# The store each embedding level reads. The three-copy corpus trains words,
# entity ids and type ids into one skip-gram space, the main store; subword
# vectors have a store of their own. Each store holds one of its kinds.
LEVEL_STORES = {"wwlr": "main", "avg-des": "main", "elr": "main",
                "tc": "main", "swlr": "subword"}
STORE_KINDS = {"main": (KIND_SKIP, KIND_SSKIP), "subword": (KIND_SUBWORD,)}

# published MLP hidden sizes for known level combinations
_HIDDEN_UNITS = {
    frozenset({"clr-forward"}): 600,
    frozenset({"clr-lstm"}): 300,
    frozenset({"clr-bilstm"}): 200,
    frozenset({"clr-cnn"}): 800,
    frozenset({"nsl"}): 800,
    frozenset({"bow"}): 200,
    frozenset({"bow", "nsl"}): 300,
    frozenset({"wwlr"}): 400,
    frozenset({"swlr"}): 400,
    frozenset({"wwlr", "clr-cnn"}): 700,
    frozenset({"swlr", "clr-cnn"}): 700,
    frozenset({"elr"}): 400,
    frozenset({"elr", "clr-cnn"}): 700,
    frozenset({"elr", "wwlr"}): 600,
    frozenset({"elr", "swlr"}): 600,
    frozenset({"elr", "wwlr", "clr-cnn"}): 700,
    frozenset({"elr", "swlr", "clr-cnn"}): 700,
    frozenset({"elr", "wwlr", "clr-cnn", "tc"}): 900,
    frozenset({"elr", "swlr", "clr-cnn", "tc"}): 900,
    frozenset({"avg-des"}): 400,
    frozenset({"elr", "swlr", "clr-cnn", "tc", "avg-des"}): 1000,
}
DEFAULT_HIDDEN_UNITS = 400


def stores_read(spec: "RepresentationSpec") -> tuple[str, ...]:
    """The stores the spec's levels read, ``main`` before ``subword``."""
    read = {LEVEL_STORES.get(kind) for kind in spec.kinds}
    return tuple(label for label in STORE_KINDS if label in read)


def default_hidden_units(kinds) -> int:
    return _HIDDEN_UNITS.get(frozenset(kinds), DEFAULT_HIDDEN_UNITS)


def _check_options(options: dict) -> None:
    """A ``DataError`` for the first level option out of its range."""
    for name, least in OPTION_MINIMA.items():
        if options.get(name, least) < least:
            raise DataError(f"{name}: {options[name]} is below {least}")
    widths = options.get("widths", (1,))
    if not widths or not all(1 <= w <= MAX_WIDTH for w in widths):
        raise DataError(f"widths: {widths} is not one or more widths "
                        f"in 1..{MAX_WIDTH}")


@dataclass
class LevelSpec:
    """One requested level with its hyperparameters."""

    kind: str
    options: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in LEVEL_KINDS:
            raise DataError(f"unknown representation level {self.kind!r}")
        _check_options(self.options)


@dataclass
class RepresentationSpec:
    """Ordered levels to concatenate into the entity vector, each holding
    every option its kind reads: the given value, else the default."""

    levels: tuple[LevelSpec, ...]

    def __post_init__(self):
        if not self.levels:
            raise DataError("representation needs at least one level")
        kinds = [lv.kind for lv in self.levels]
        if len(set(kinds)) != len(kinds):
            raise DataError("duplicate representation level")
        if sum(k in CLR_KINDS for k in kinds) > 1:
            raise DataError("at most one character-level encoder per spec")
        self.levels = tuple(_resolve(lv, frozenset(kinds))
                            for lv in self.levels)

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(lv.kind for lv in self.levels)

    @property
    def clr_level(self) -> LevelSpec | None:
        for lv in self.levels:
            if lv.kind in CLR_KINDS:
                return lv
        return None

    @classmethod
    def parse(cls, text: str, options: dict | None = None) -> "RepresentationSpec":
        """Parse a comma-separated level list such as ``elr,swlr,clr-cnn,tc``;
        every option is range-checked, and each level keeps the ones its
        kind reads."""
        kinds = [k.strip() for k in text.split(",") if k.strip()]
        return cls(levels=tuple(LevelSpec(kind=k, options=options or {})
                                for k in kinds))


def _resolve(level: LevelSpec, kinds: frozenset) -> LevelSpec:
    """``level`` with each option its kind reads, as its default's type (a
    model file's lists become tuples), the default where none is given; a
    ``clr-cnn`` filter wider than the padded name is an error."""
    defaults = KIND_DEFAULTS.get(level.kind, {})
    if level.kind == "clr-cnn" and kinds <= {"elr", "clr-cnn"}:
        # the published banks: 100 maps, widths 1-8 alone and 1-7 next to elr
        defaults = {**defaults, "feature_maps": 100}
        if kinds == {"clr-cnn"}:
            defaults["widths"] = tuple(range(1, 9))
    options = {name: type(value)(level.options.get(name, value))
               for name, value in defaults.items()}
    if level.kind == "clr-cnn" and options["padded_len"] < max(
            options["widths"]):
        raise DataError(f"padded_len: {options['padded_len']} is shorter "
                        f"than the widest filter, {max(options['widths'])}")
    return LevelSpec(kind=level.kind, options=options)


# ---------------------------------------------------------------------------
# character matrices


@dataclass
class CharVocab:
    """Character inventory with reserved pad/unknown/start/end slots."""

    chars: tuple[str, ...]
    PAD = 0
    UNK = 1
    START = 2
    END = 3

    def __post_init__(self):
        self.index = {c: 4 + i for i, c in enumerate(self.chars)}

    @property
    def size(self) -> int:
        return 4 + len(self.chars)

    def id_rows(self, names: list[str], padded_len: int) -> np.ndarray:
        """Bracketed, right-truncated, padded character id rows, one per
        name, filled into one (names, ``padded_len``) array.

        Empty names yield just the bracket markers plus padding, which is
        valid but carries no signal.
        """
        bodies = [name[:padded_len - 2] for name in names]
        lengths = np.array([len(b) for b in bodies], dtype=np.intp)
        rows = np.full((len(bodies), padded_len), self.PAD, dtype=np.int64)
        rows[:, 0] = self.START
        # row-major, the mask's cells take the bodies' characters in order
        body = np.arange(1, padded_len) <= lengths[:, None]
        rows[:, 1:][body] = np.fromiter(
            (self.index.get(c, self.UNK) for b in bodies for c in b),
            dtype=np.int64, count=int(lengths.sum()))
        rows[np.arange(len(bodies)), lengths + 1] = self.END
        return rows


def build_char_vocab(names, min_count: int = CHAR_MIN_COUNT) -> CharVocab:
    """Printable characters seen at least ``min_count`` times in the names."""
    counts: dict[str, int] = {}
    for name in names:
        for ch in name:
            if ch.isprintable():
                counts[ch] = counts.get(ch, 0) + 1
    kept = sorted(c for c, n in counts.items() if n >= min_count)
    return CharVocab(chars=tuple(kept))


class ClrEncoder:
    """Trainable character-level sub-network: embedding table plus encoder.

    The table rows and all encoder parameters are tuned during typer
    training; two entities with the same name always get the same output.
    """

    def __init__(self, level: LevelSpec, char_vocab: CharVocab,
                 rng: np.random.Generator):
        self.kind = level.kind
        self.char_vocab = char_vocab
        self.padded_len = level.options["padded_len"]
        self.char_dim = level.options["char_dim"]
        self.table = init_uniform(rng, (char_vocab.size, self.char_dim))
        self.grads = {"char_table": np.zeros_like(self.table)}
        self._ids = None
        if self.kind == "clr-forward":
            self.net = None
            self.out_dim = self.padded_len * self.char_dim
        elif self.kind == "clr-cnn":
            maps = level.options["feature_maps"]
            self.net = ConvMaxPool(
                [(w, maps) for w in level.options["widths"]], self.char_dim,
                rng)
            self.out_dim = self.net.out_dim
        elif self.kind in ("clr-lstm", "clr-bilstm"):
            self.hidden = hidden = level.options["hidden_dim"]
            self.net = Lstm.initialize(self.char_dim, hidden, rng)
            if self.kind == "clr-bilstm":
                self.net_back = Lstm.initialize(self.char_dim, hidden, rng)
                self.out_dim = 2 * hidden
            else:
                self.out_dim = hidden
        else:  # pragma: no cover - guarded by LevelSpec
            raise DataError(f"not a character level: {self.kind}")

    def ids_for(self, names: list[str]) -> np.ndarray:
        return self.char_vocab.id_rows(names, self.padded_len)

    def params(self) -> dict[str, np.ndarray]:
        out = {"char_table": self.table}
        if self.net is not None:
            out.update({f"enc.{k}": v for k, v in self.net.params().items()})
        if self.kind == "clr-bilstm":
            out.update({f"back.{k}": v
                        for k, v in self.net_back.params().items()})
        return out

    def grad_dict(self) -> dict[str, np.ndarray]:
        out = {"char_table": self.grads["char_table"]}
        if self.net is not None:
            out.update({f"enc.{k}": v for k, v in self.net.grads.items()})
        if self.kind == "clr-bilstm":
            out.update({f"back.{k}": v for k, v in self.net_back.grads.items()})
        return out

    def forward(self, ids: np.ndarray, train: bool = True) -> np.ndarray:
        """Encode a batch of character id rows to (batch, out_dim); training,
        the ids and each network's cache are kept for ``backward``."""
        self._ids = ids if train else None
        E = self.table[ids]  # (B, l, d_c)
        if self.kind == "clr-forward":
            return E.reshape(E.shape[0], -1)
        if self.kind == "clr-cnn":
            return self.net.forward(E, train)
        h_fwd = self.net.forward(E, train=train)
        if self.kind == "clr-lstm":
            return h_fwd
        # bilstm: backward pass starts from the forward chain's last state
        h_bwd = self.net_back.forward(E[:, ::-1], h0=h_fwd, train=train)
        return np.concatenate([h_fwd, h_bwd], axis=1)

    def backward(self, dout: np.ndarray) -> None:
        ids = self._ids
        B, l = ids.shape
        if self.kind == "clr-forward":
            dE = dout.reshape(B, l, self.char_dim)
        elif self.kind == "clr-cnn":
            dE = self.net.backward(dout)
        elif self.kind == "clr-lstm":
            dE, _ = self.net.backward(dout)
        else:
            h = self.hidden
            dxs_rev, dh0 = self.net_back.backward(dout[:, h:])
            dE = dxs_rev[:, ::-1]
            dE_fwd, _ = self.net.backward(dout[:, :h] + dh0)
            dE = dE + dE_fwd
        table_grad = self.grads["char_table"]
        table_grad[...] = 0.0
        scatter_add(table_grad, ids.reshape(-1),
                    dE.reshape(-1, self.char_dim))


# ---------------------------------------------------------------------------
# word level


def _usable_vector(word: str, store: EmbeddingStore) -> np.ndarray | None:
    """The vector of ``word``, looked up verbatim and then lowercased, or
    None if it has neither or its vector is zero."""
    v = store.word_vector(word)
    if v is None:
        v = store.word_vector(word.lower())
    return v if v is not None and np.any(v) else None


def _usable_vectors(words, store: EmbeddingStore):
    """The usable vectors of ``words`` in order; words without one are
    skipped."""
    for w in words:
        v = _usable_vector(w, store)
        if v is not None:
            yield v


def wlr(name: str, store: EmbeddingStore,
        memo: dict[str, np.ndarray | None] | None = None) -> np.ndarray:
    """Mean of the available name-word vectors.

    Plain stores look words up verbatim with a lowercase fallback; subword
    stores compose out-of-vocabulary words from their ngrams. If no word
    contributes, the zero vector is returned. ``memo`` maps words of
    ``store`` to their usable vector or None; words missing from it are
    looked up and added.
    """
    memo = {} if memo is None else memo
    vecs = []
    for w in name_words(name):
        if w not in memo:
            memo[w] = _usable_vector(w, store)
        if memo[w] is not None:
            vecs.append(memo[w])
    if not vecs:
        return np.zeros(store.dim)
    return np.mean(vecs, axis=0)


# ---------------------------------------------------------------------------
# sparse name features


def bow_features(name: str) -> dict[str, int]:
    """Name words, verbatim and lowercased, as binary features."""
    feats: dict[str, int] = {}
    for tok in name_words(name):
        feats[f"w={tok}"] = 1
        feats[f"wl={tok.lower()}"] = 1
    return feats


def _shape_char(ch: str) -> str:
    if ch.isupper():
        return "A"
    if ch.islower():
        return "a"
    if ch.isdigit():
        return "7"
    return "."


def _token_shape(tok: str) -> str:
    out = []
    for ch in tok:
        s = _shape_char(ch)
        if not out or out[-1] != s:
            out.append(s)
    return "".join(out)


def _normalize_char(ch: str) -> str:
    if ch.isdigit():
        return "7"
    if ch in _PUNCT:
        return "."
    return ch.lower()


def _length_bucket(n: int) -> str:
    if n <= 5:
        return "1-5"
    if n <= 10:
        return "6-10"
    if n <= 20:
        return "11-20"
    return "21+"


def nsl_features(name: str, n_max: int = 5) -> dict[str, int]:
    """Ngram, shape and length features of the entity name.

    Shape collapses runs of the character classes A/a/7/. per token; raw
    and normalized (lowercased, digits to 7, punctuation to .) character
    ngrams run over the marker-bracketed name so they can cross word
    boundaries.
    """
    if not name:
        return {}
    feats: dict[str, int] = {}
    toks = name_words(name)
    feats[f"shape={' '.join(_token_shape(t) for t in toks)}"] = 1
    feats[f"len={_length_bucket(len(name))}"] = 1
    feats[f"ntok={len(toks)}"] = 1
    bracketed = "^" + name + "$"
    normalized = "^" + "".join(_normalize_char(c) for c in name) + "$"
    for n in range(1, n_max + 1):
        for i in range(len(bracketed) - n + 1):
            feats[f"ng={bracketed[i:i + n]}"] = 1
        for i in range(len(normalized) - n + 1):
            feats[f"nng={normalized[i:i + n]}"] = 1
    return feats


SPARSE_FEATURES = {"bow": bow_features, "nsl": nsl_features}


def feature_index(names) -> dict[str, int]:
    """Column of each sparse feature name, numbered in the order given."""
    return {n: i for i, n in enumerate(names)}


# ---------------------------------------------------------------------------
# description level


def build_idf(descriptions: dict[str, list[str]]) -> dict[str, float]:
    """Inverse document frequency over the description collection."""
    df: dict[str, int] = {}
    for toks in descriptions.values():
        for w in set(toks):
            df[w] = df.get(w, 0) + 1
    n = max(1, len(descriptions))
    return {w: math.log(n / c) for w, c in df.items()}


def avg_des(description: list[str], idf: dict[str, float],
            store: EmbeddingStore, k: int) -> np.ndarray:
    """Mean embedding of the top-k description words by tf-idf.

    Words are ranked by in-description term frequency times idf, ties
    broken lexicographically; the first k ranked words with a usable
    vector contribute. With nothing usable the zero vector is returned.
    """
    if k < 1:
        raise DataError("k must be at least 1")
    tf: dict[str, int] = {}
    for w in description:
        tf[w] = tf.get(w, 0) + 1
    ranked = sorted(tf, key=lambda w: (-tf[w] * idf.get(w, 0.0), w))
    vecs = list(itertools.islice(_usable_vectors(ranked, store), k))
    if not vecs:
        return np.zeros(store.dim)
    return np.mean(vecs, axis=0)


# ---------------------------------------------------------------------------
# assembly


@dataclass
class Resources:
    """Everything frozen that levels may need.

    ``main_store`` (skip or sskip) holds words, entity ids and type ids in
    one space and serves ``wwlr``, ``avg-des``, ``elr`` and ``tc``;
    ``subword_store`` serves ``swlr`` (``LEVEL_STORES``). A store no
    level reads may be None. ``idf`` is derived from ``descriptions``.
    """

    type_system: TypeSystem
    main_store: EmbeddingStore | None = None
    subword_store: EmbeddingStore | None = None
    descriptions: dict[str, list[str]] | None = None

    @cached_property
    def idf(self) -> dict[str, float]:
        return build_idf(self.descriptions or {})

    def store(self, label: str) -> EmbeddingStore:
        """The ``main`` or ``subword`` store; a missing one is a
        ``DataError``."""
        store = getattr(self, f"{label}_store")
        if store is None:
            raise DataError(f"representation needs the {label} embedding "
                            f"store")
        return store


class Assembler:
    """Computes the frozen part of the representation, in spec order.

    The character level, if present, is a hole in the layout filled by the
    typer's trainable encoder. ``indexers`` maps each sparse level to its
    ``feature_index``: ``fit_rows`` builds them from the training names, in
    sorted feature order, and returns those names' rows; ``feature_rows``
    maps names through them. The assembler is fitted once every sparse
    level has one.
    """

    def __init__(self, spec: RepresentationSpec, resources: Resources,
                 indexers: dict[str, dict[str, int]] | None = None):
        self.spec = spec
        self.resources = resources
        self.indexers = dict(indexers or {})

    def fit_rows(self, train_names: list[str]
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Fit the sparse levels on the training names and return their
        ``feature_rows``, computing each name's features once."""
        named = self._sparse_features(train_names)
        for kind, per_name in named.items():
            self.indexers[kind] = feature_index(sorted(set().union(*per_name)))
        return self._rows(named, len(train_names))

    def _check_fitted(self) -> None:
        if any(k in SPARSE_KINDS and k not in self.indexers
               for k in self.spec.kinds):
            raise DataError("assembler not fitted on training names")

    def level_dim(self, level: LevelSpec, clr_dim: int | None = None) -> int:
        kind = level.kind
        if kind in CLR_KINDS:
            if clr_dim is None:
                raise NumericError("character level dimension not supplied")
            return clr_dim
        if kind == "tc":
            return len(self.resources.type_system)
        if kind in SPARSE_KINDS:
            return len(self.indexers[kind])
        return self._store(kind).dim

    def layout(self, clr_dim: int | None = None) -> list[tuple[str, int]]:
        return [(lv.kind, self.level_dim(lv, clr_dim)) for lv in self.spec.levels]

    def _store(self, kind: str) -> EmbeddingStore:
        return self.resources.store(LEVEL_STORES[kind])

    def frozen_slices(self) -> list[tuple[LevelSpec, int, int]]:
        """(level, first column, end column) of each dense frozen level in
        the rows of ``frozen_matrix``, in spec order."""
        dense = [lv for lv in self.spec.levels
                 if lv.kind not in CLR_KINDS + SPARSE_KINDS]
        ends = list(itertools.accumulate(self.level_dim(lv) for lv in dense))
        return list(zip(dense, [0] + ends[:-1], ends))

    def frozen_matrix(self, instances) -> np.ndarray:
        """Concatenation of the dense frozen levels, one row per (entity id,
        name) instance; character levels take no columns, the typer inserts
        the encoder output there, and sparse levels take none either.

        ``elr`` and ``tc`` are built as blocks over all instances; the
        per-name levels run in one instance-major loop.
        """
        self._check_fitted()
        slices = self.frozen_slices()
        out = np.empty((len(instances), slices[-1][2] if slices else 0))
        ids = [eid for eid, _ in instances]
        per_name = []
        for lv, lo, hi in slices:
            if lv.kind in ("elr", "tc"):
                out[:, lo:hi] = self._entity_block(lv.kind, ids)
            else:
                # each level composes a distinct name word once per call
                per_name.append((lv, lo, hi, {}))
        for row, (eid, name) in enumerate(instances):
            for lv, lo, hi, memo in per_name:
                out[row, lo:hi] = self._level_vector(lv, eid, name, memo)
        return out

    def feature_rows(self, instances) -> tuple[np.ndarray, np.ndarray]:
        """The ``bow``/``nsl`` feature ids of each instance's name, as CSR
        rows (indptr, indices); features unseen in fitting are dropped.

        The sparse levels share one id space, in spec order: a level's ids
        are offset by the sizes of the sparse levels before it, so ids
        number the sparse columns of the layout in order.
        """
        self._check_fitted()
        names = [name for _, name in instances]
        return self._rows(self._sparse_features(names), len(names))

    def _sparse_features(self, names: list[str]) -> dict[str, list[dict]]:
        """Per sparse level, in spec order, the features of each name."""
        return {kind: [SPARSE_FEATURES[kind](n) for n in names]
                for kind in self.spec.kinds if kind in SPARSE_KINDS}

    def _rows(self, named: dict[str, list[dict]],
              n: int) -> tuple[np.ndarray, np.ndarray]:
        """``feature_rows`` of ``n`` names from their features ``named``."""
        levels, offset = [], 0
        for kind, per_name in named.items():
            index = self.indexers[kind]
            levels.append((per_name, index, offset))
            offset += len(index)
        indptr, indices = [0], []
        for row in range(n):
            for per_name, index, base in levels:
                indices.extend(base + index[f] for f in per_name[row]
                               if f in index)
            indptr.append(len(indices))
        return (np.array(indptr, dtype=np.int64),
                np.array(indices, dtype=np.int64))

    def _entity_block(self, kind: str, entity_ids: list[str]) -> np.ndarray:
        store = self._store(kind)
        if kind == "elr":
            return store.matrix[store.rows(entity_ids, "entity")]
        return type_cosine_matrix(entity_ids, store,
                                  self.resources.type_system)

    def _level_vector(self, lv: LevelSpec, entity_id: str, name: str,
                      memo: dict) -> np.ndarray:
        store = self._store(lv.kind)
        if lv.kind != "avg-des":
            return wlr(name, store, memo)
        res = self.resources
        desc = (res.descriptions or {}).get(entity_id)
        if desc is None:
            return np.zeros(store.dim)
        return avg_des(desc, res.idf, store, k=lv.options["top_k"])
