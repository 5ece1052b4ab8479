"""Deterministic synthetic corpora and entity datasets for desk-scale runs.

Each type carries three independently switchable signals so individual
representation levels can be ablated:

* characteristic context words around mentions (drives the entity level),
* characteristic words inside entity names (drives the word level),
* a characteristic name suffix at varying positions (drives the character
  level; think of type-indicative endings such as "-ish" or "-en").

Head/tail structure comes from a frequency mixture; the recorded mention
frequency drives dataset slicing while the number of generated sentences
per entity is capped to keep corpora small. Everything is a pure function
of the spec and its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import AnnotatedCorpus, Mention
from .dataset import DatasetSplit, EntityRecord, TypeSystem
from .errors import DataError

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class TypePattern:
    """Name and context generators for one type."""

    type_id: str
    suffix: str
    name_words: tuple[str, ...]
    context_words: tuple[str, ...]
    description_words: tuple[str, ...] = ()
    parent: str | None = None


@dataclass
class SyntheticSpec:
    n_types: int = 10
    entities_per_type: int = 200
    sentence_cap: int = 20          # generated sentences per entity at most
    sentence_len: tuple[int, int] = (6, 10)
    context_pool_size: int = 12
    name_pool_size: int = 8
    noise_vocab_size: int = 300
    shared_name_vocab_size: int = 60
    context_signal: float = 0.8
    name_word_signal: float = 0.8
    suffix_signal: float = 0.8
    head_fraction: float = 0.15
    tail_fraction: float = 0.3
    unknown_name_fraction: float = 0.0  # test entities renamed with novel words
    multi_name_fraction: float = 0.3    # train entities with up to 3 names
    with_parents: bool = False
    with_descriptions: bool = False
    seed: int = 0
    patterns: tuple[TypePattern, ...] | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """``DataError`` unless every size, fraction and the seed is in
        range."""
        if self.seed < 0:
            raise DataError(f"seed {self.seed} is below 0")
        if self.n_types < 1 or self.entities_per_type < 1:
            raise DataError("need at least one type and one entity per type")
        if self.sentence_cap < 1:
            raise DataError("sentence_cap must be positive")
        for frac in (self.context_signal, self.name_word_signal,
                     self.suffix_signal, self.head_fraction,
                     self.tail_fraction, self.unknown_name_fraction,
                     self.multi_name_fraction):
            if not 0.0 <= frac <= 1.0:
                raise DataError("signal strengths and fractions must be in [0, 1]")
        if self.head_fraction + self.tail_fraction > 1.0:
            raise DataError("head and tail fractions exceed the dataset")


@dataclass
class SyntheticData:
    corpus: AnnotatedCorpus
    split: DatasetSplit
    type_system: TypeSystem
    notable: dict[str, str]
    descriptions: dict[str, list[str]] | None = None


def _stem(rng: np.random.Generator, lo: int = 4, hi: int = 8) -> str:
    n = int(rng.integers(lo, hi))
    return "".join(_LETTERS[i] for i in rng.integers(0, len(_LETTERS), n))


def _fresh_stems(rng, count, used: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        s = _stem(rng)
        if s not in used:
            used.add(s)
            out.append(s)
    return out


def _default_patterns(spec: SyntheticSpec,
                      rng: np.random.Generator) -> tuple[TypePattern, ...]:
    used: set[str] = set()
    suffixes: list[str] = []
    while len(suffixes) < spec.n_types:
        s = _stem(rng, 3, 5)
        if s not in suffixes:
            suffixes.append(s)
    patterns = []
    for i in range(spec.n_types):
        parent = None
        if spec.with_parents:
            parent = f"group{(2 * i) // spec.n_types}"
        patterns.append(TypePattern(
            type_id=f"type{i:02d}",
            suffix=suffixes[i],
            name_words=tuple(_fresh_stems(rng, spec.name_pool_size, used)),
            context_words=tuple(_fresh_stems(rng, spec.context_pool_size, used)),
            description_words=tuple(_fresh_stems(rng, 6, used))
            if spec.with_descriptions else (),
            parent=parent,
        ))
    return tuple(patterns)


def _validate_patterns(patterns) -> None:
    suffixes = [p.suffix for p in patterns]
    if len(set(suffixes)) != len(suffixes):
        raise DataError("contradictory patterns: duplicate suffix across types")
    seen: set[str] = set()
    for p in patterns:
        pool = set(p.name_words) | set(p.context_words)
        if pool & seen:
            raise DataError(f"contradictory patterns: shared words for "
                            f"{p.type_id!r}")
        seen |= pool


def generate(spec: SyntheticSpec) -> SyntheticData:
    """Build corpus, dataset split, type system and notable-type mapping."""
    spec.validate()  # fields may have been set after construction
    rng = np.random.default_rng(spec.seed)
    patterns = spec.patterns or _default_patterns(spec, rng)
    if len(patterns) != spec.n_types:
        raise DataError("pattern count does not match n_types")
    _validate_patterns(patterns)

    used_words: set[str] = set()
    for p in patterns:
        used_words.update(p.name_words)
        used_words.update(p.context_words)
    shared_names = _fresh_stems(rng, spec.shared_name_vocab_size, used_words)
    noise = _fresh_stems(rng, spec.noise_vocab_size, used_words)

    types: list[str] = [p.type_id for p in patterns]
    parent_map: dict[str, str] = {}
    parent_ids: list[str] = []
    for p in patterns:
        if p.parent is not None:
            parent_map[p.type_id] = p.parent
            if p.parent not in parent_ids:
                parent_ids.append(p.parent)
    ts = TypeSystem(types=tuple(types + parent_ids), parent=parent_map)

    def make_name(pattern: TypePattern, novel_words: bool) -> str:
        n_words = int(rng.integers(1, 4))
        words = []
        for _ in range(n_words):
            if novel_words:
                words.append(_fresh_stems(rng, 1, used_words)[0])
            elif rng.random() < spec.name_word_signal:
                words.append(pattern.name_words[
                    int(rng.integers(0, len(pattern.name_words)))])
            else:
                words.append(shared_names[
                    int(rng.integers(0, len(shared_names)))])
        if rng.random() < spec.suffix_signal:
            words[-1] = words[-1] + pattern.suffix
        return " ".join(words)

    # entities; a few extra entities carry each parent type so every type
    # occurs as a notable type in the corpus
    entities: list[tuple[str, TypePattern, frozenset[str], str]] = []
    serial = 0
    for p in patterns:
        gold = frozenset({p.type_id} | ({p.parent} if p.parent else set()))
        for _ in range(spec.entities_per_type):
            entities.append((f"m.{serial:05d}", p, gold, p.type_id))
            serial += 1
    if parent_ids:
        per_parent = max(3, spec.entities_per_type // 10)
        for parent in parent_ids:
            children = [p for p in patterns if p.parent == parent]
            for k in range(per_parent):
                donor = children[k % len(children)]
                entities.append((f"m.{serial:05d}", donor,
                                 frozenset({parent}), parent))
                serial += 1

    order = rng.permutation(len(entities))
    entities = [entities[i] for i in order]
    n = len(entities)

    n_head = round(spec.head_fraction * n)
    n_tail = round(spec.tail_fraction * n)
    freqs = np.empty(n, dtype=int)
    for i in range(n):
        if i < n_head:
            freqs[i] = int(rng.integers(101, 151))
        elif i < n_head + n_tail:
            freqs[i] = int(rng.integers(1, 5))
        else:
            freqs[i] = int(rng.integers(5, 61))
    bucket_order = rng.permutation(n)
    freq_of = {entities[bucket_order[i]][0]: int(freqs[i]) for i in range(n)}

    n_train = round(0.5 * n)
    n_dev = round(0.2 * n)
    split_order = rng.permutation(n)
    part_of: dict[str, str] = {}
    for rank, idx in enumerate(split_order):
        eid = entities[idx][0]
        part_of[eid] = ("train" if rank < n_train
                        else "dev" if rank < n_train + n_dev else "test")

    records: dict[str, EntityRecord] = {}
    notable: dict[str, str] = {}
    test_ids = [e[0] for e in entities if part_of[e[0]] == "test"]
    n_unknown = round(spec.unknown_name_fraction * len(test_ids))
    unknown_pick = {test_ids[i]
                    for i in rng.permutation(len(test_ids))[:n_unknown]}

    for eid, pattern, gold, notable_type in entities:
        part = part_of[eid]
        novel = eid in unknown_pick
        names = [make_name(pattern, novel)]
        if part == "train" and rng.random() < spec.multi_name_fraction:
            for _ in range(int(rng.integers(1, 3))):
                names.append(make_name(pattern, False))
        freq = freq_of[eid]
        if novel:
            freq = min(freq, 4)  # keep novel words below word thresholds
        records[eid] = EntityRecord(id=eid, names=tuple(names),
                                    gold_types=gold, corpus_frequency=freq)
        notable[eid] = notable_type

    split = DatasetSplit(*(tuple(records[eid] for eid, *_ in entities
                                 if part_of[eid] == part)
                           for part in ("train", "dev", "test")))

    lo, hi = spec.sentence_len
    sentences: list[list[str]] = []
    mentions: list[list[Mention]] = []
    for eid, pattern, _, _ in entities:
        rec = records[eid]
        count = min(rec.corpus_frequency, spec.sentence_cap)
        name_idx = 0
        for _ in range(count):
            name = rec.names[name_idx % len(rec.names)]
            name_idx += 1
            length = int(rng.integers(lo, hi + 1))
            slots = []
            for _ in range(length):
                if rng.random() < spec.context_signal:
                    slots.append(pattern.context_words[
                        int(rng.integers(0, len(pattern.context_words)))])
                else:
                    slots.append(noise[int(rng.integers(0, len(noise)))])
            pos = int(rng.integers(0, length + 1))
            name_tokens = name.split()
            toks = slots[:pos] + name_tokens + slots[pos:]
            sentences.append(toks)
            mentions.append([Mention(pos, pos + len(name_tokens), eid)])

    shuffle = rng.permutation(len(sentences))
    corpus = AnnotatedCorpus(
        sentences=[sentences[i] for i in shuffle],
        mentions=[mentions[i] for i in shuffle],
    )

    descriptions = None
    if spec.with_descriptions:
        descriptions = {}
        for eid, pattern, _, _ in entities:
            toks = []
            for _ in range(12):
                if rng.random() < 0.6 and pattern.description_words:
                    toks.append(pattern.description_words[
                        int(rng.integers(0, len(pattern.description_words)))])
                else:
                    toks.append(noise[int(rng.integers(0, len(noise)))])
            descriptions[eid] = toks

    return SyntheticData(corpus=corpus, split=split, type_system=ts,
                         notable=notable, descriptions=descriptions)


# ---------------------------------------------------------------------------
# presets used by the demos, the CLI and the acceptance suite


def preset_spec(name: str, seed: int = 0, entities_per_type: int = 200,
                n_types: int = 10) -> SyntheticSpec:
    """Named generator configurations exercising individual levels."""
    base = dict(n_types=n_types, entities_per_type=entities_per_type,
                seed=seed)
    if name == "mixed":
        return SyntheticSpec(context_signal=0.75, name_word_signal=0.6,
                             suffix_signal=0.7, head_fraction=0.15,
                             tail_fraction=0.3, with_parents=True, **base)
    if name == "context":
        return SyntheticSpec(context_signal=0.95, name_word_signal=0.0,
                             suffix_signal=0.0, **base)
    if name == "suffix":
        return SyntheticSpec(context_signal=0.0, name_word_signal=0.0,
                             suffix_signal=1.0, head_fraction=0.0,
                             tail_fraction=0.0, **base)
    if name == "subword":
        return SyntheticSpec(context_signal=0.85, name_word_signal=0.9,
                             suffix_signal=1.0, unknown_name_fraction=0.3,
                             head_fraction=0.1, tail_fraction=0.3, **base)
    raise DataError(f"unknown synthetic preset {name!r}")


def generate_order_corpus(n_per_class: int = 120, occurrences: int = 30,
                          n_fillers: int = 40, seed: int = 0):
    """Corpus where two entity classes share context bags but mirror order.

    Class-a entities only occur as ``entity rel filler``; class-b entities
    only as ``filler rel entity``. A bag-of-context model sees identical
    evidence for both classes; only context order separates them.

    Returns (sentences, class-a ids, class-b ids).
    """
    if seed < 0:
        raise DataError(f"seed {seed} is below 0")
    rng = np.random.default_rng(seed)
    fillers = [f"f{i:03d}" for i in range(n_fillers)]
    a_ids = [f"ea{i:04d}" for i in range(n_per_class)]
    b_ids = [f"eb{i:04d}" for i in range(n_per_class)]
    sentences: list[list[str]] = []
    for eid in a_ids:
        for _ in range(occurrences):
            f = fillers[int(rng.integers(0, n_fillers))]
            sentences.append([eid, "rel", f])
    for eid in b_ids:
        for _ in range(occurrences):
            f = fillers[int(rng.integers(0, n_fillers))]
            sentences.append([f, "rel", eid])
    shuffle = rng.permutation(len(sentences))
    return [sentences[i] for i in shuffle], a_ids, b_ids

