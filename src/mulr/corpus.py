"""Annotated corpus handling and the three-copy training stream.

The three-copy construction puts words, entity ids and type ids into one
embedding space: every sentence is emitted three times, once verbatim, once
with each mention span collapsed to the entity-id token, and once with each
mention collapsed to the notable-type token. Mentions of held-out entities
keep their surface words in the third copy.

Corpus file format: one sentence per line, mentions written inline as
``[[entity_id|surface words]]``. Notable-type file: ``entity_id<TAB>type_id``.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataError, ParseError
from .fileio import text_lines

_MENTION_RE = re.compile(r"\[\[([^|\[\]]+)\|([^\[\]]*)\]\]")
_PUNCT = set(string.punctuation)


def tokenize(text: str) -> list[str]:
    """Whitespace tokenization with trailing punctuation split off."""
    out: list[str] = []
    for tok in text.split():
        trailing: list[str] = []
        while len(tok) > 1 and tok[-1] in _PUNCT:
            trailing.append(tok[-1])
            tok = tok[:-1]
        out.append(tok)
        out.extend(reversed(trailing))
    return out


@dataclass(frozen=True)
class Mention:
    start: int
    end: int  # exclusive
    entity_id: str


@dataclass
class AnnotatedCorpus:
    """Tokenized sentences with entity-mention spans; ``path`` is the file
    they were read from, if any, and errors about them name it."""

    sentences: list[list[str]]
    mentions: list[list[Mention]]
    path: Path | None = field(default=None, compare=False)

    def __post_init__(self):
        where = "" if self.path is None else f"{self.path}: "
        if len(self.sentences) != len(self.mentions):
            raise DataError(f"{where}sentence/mention list length mismatch")
        for sent, ms in zip(self.sentences, self.mentions):
            last_end = 0
            for m in sorted(ms, key=lambda m: m.start):
                if not (0 <= m.start < m.end <= len(sent)):
                    raise DataError(f"{where}mention span {m} out of bounds")
                if m.start < last_end:
                    raise DataError(f"{where}overlapping mention at {m}")
                last_end = m.end

    def __len__(self) -> int:
        return len(self.sentences)

    def entity_ids(self) -> set[str]:
        return {m.entity_id for ms in self.mentions for m in ms}


def parse_corpus_line(line: str) -> tuple[list[str], list[Mention]]:
    tokens: list[str] = []
    mentions: list[Mention] = []
    pos = 0
    for match in _MENTION_RE.finditer(line):
        tokens.extend(tokenize(line[pos:match.start()]))
        surface = match.group(2).split()
        if not surface:
            raise DataError(f"mention of {match.group(1)!r} has empty surface")
        start = len(tokens)
        tokens.extend(surface)  # name tokens kept verbatim
        mentions.append(Mention(start, len(tokens), match.group(1)))
        pos = match.end()
    tokens.extend(tokenize(line[pos:]))
    return tokens, mentions


def load_corpus(path) -> AnnotatedCorpus:
    path = Path(path)
    sentences, mentions = [], []
    for line_no, line in text_lines(path):
        if not line.strip():
            continue
        try:
            toks, ms = parse_corpus_line(line)
        except DataError as exc:
            raise ParseError(path, line_no, str(exc)) from None
        if toks:
            sentences.append(toks)
            mentions.append(ms)
    return AnnotatedCorpus(sentences=sentences, mentions=mentions, path=path)


def _spans(sent: list[str], mentions: list[Mention]):
    """(mention, its tokens) for each mention of the sentence and
    (None, [token]) for each token outside them, in sentence order."""
    by_start = {m.start: m for m in mentions}
    i = 0
    while i < len(sent):
        m = by_start.get(i)
        end = i + 1 if m is None else m.end
        yield m, sent[i:end]
        i = end


def save_corpus(corpus: AnnotatedCorpus, path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for sent, ms in zip(corpus.sentences, corpus.mentions):
            fh.write(" ".join(
                toks[0] if m is None else f"[[{m.entity_id}|{' '.join(toks)}]]"
                for m, toks in _spans(sent, ms)) + "\n")


def build_three_copy_corpus(
    corpus: AnnotatedCorpus,
    notable: dict[str, str],
    exclude: frozenset[str] | set[str] = frozenset(),
) -> list[list[str]]:
    """Emit surface, entity-id and notable-type copies of each sentence.

    A multi-token mention collapses to a single replacement token in copies
    two and three. Mentions of entities in ``exclude`` keep their surface
    words in copy three. Output length is three times the sentence count,
    copies grouped per sentence.
    """
    for ent_id in sorted(corpus.entity_ids()):
        if ent_id not in notable and ent_id not in exclude:
            source = "" if corpus.path is None else f" (in {corpus.path})"
            raise DataError(f"mention references entity {ent_id!r} with no "
                            f"notable type and not excluded{source}")
    out: list[list[str]] = []
    for sent, ms in zip(corpus.sentences, corpus.mentions):
        entity_copy: list[str] = []
        type_copy: list[str] = []
        for m, toks in _spans(sent, ms):
            if m is None:
                entity_copy += toks
                type_copy += toks
            else:
                entity_copy.append(m.entity_id)
                type_copy += (toks if m.entity_id in exclude
                              else [notable[m.entity_id]])
        out += [list(sent), entity_copy, type_copy]
    return out


def load_notable(path) -> dict[str, str]:
    path = Path(path)
    notable: dict[str, str] = {}
    for line_no, line in text_lines(path, rows=True):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(path, line_no, "expected entity_id<TAB>type_id")
        if fields[0] in notable:
            raise ParseError(path, line_no,
                             f"duplicate entity id {fields[0]!r}")
        notable[fields[0]] = fields[1]
    return notable


def save_notable(notable: dict[str, str], path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for ent_id in sorted(notable):
            fh.write(f"{ent_id}\t{notable[ent_id]}\n")


@dataclass
class Vocabulary:
    """Token index with counts; protected tokens skip the count threshold."""

    index: dict[str, int]
    counts: dict[str, int]
    protected: frozenset[str] = frozenset()

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    @property
    def tokens(self) -> list[str]:
        return sorted(self.index, key=self.index.get)


def build_vocabulary(
    stream: list[list[str]],
    min_count: int,
    protected: frozenset[str] | set[str] = frozenset(),
) -> Vocabulary:
    """Count tokens and assign dense indices.

    Word tokens below ``min_count`` are dropped; tokens in ``protected``
    (entity and type ids) are always kept. Indices are assigned by
    descending count with lexicographic tie-break, so the assignment is a
    pure function of the stream.
    """
    if min_count < 1:
        raise DataError("min_count must be at least 1")
    counts: dict[str, int] = {}
    for sent in stream:
        for tok in sent:
            counts[tok] = counts.get(tok, 0) + 1
    if not counts:
        raise DataError("empty token stream")
    kept = {t: c for t, c in counts.items()
            if c >= min_count or t in protected}
    ordered = sorted(kept, key=lambda t: (-kept[t], t))
    return Vocabulary(index={t: i for i, t in enumerate(ordered)},
                      counts=kept, protected=frozenset(protected))


BOUNDARY_START = "<"
BOUNDARY_END = ">"


def extract_subwords(word: str, n_min: int, n_max: int) -> list[str]:
    """Character ngrams of the boundary-bracketed word, plus the whole unit.

    Ngrams are enumerated per length in occurrence order, duplicates kept.
    The bracketed word itself is appended as one extra unit whenever its
    length falls outside [n_min, n_max] (otherwise it already appears among
    the ngrams).
    """
    if not (1 <= n_min <= n_max):
        raise DataError(f"bad ngram bounds [{n_min}, {n_max}]")
    if not word:
        return []
    bracketed = BOUNDARY_START + word + BOUNDARY_END
    out: list[str] = []
    for n in range(n_min, n_max + 1):
        for i in range(len(bracketed) - n + 1):
            out.append(bracketed[i:i + n])
    if not (n_min <= len(bracketed) <= n_max):
        out.append(bracketed)
    return out


@dataclass
class SubwordIndex:
    """Ngram inventory used to compose word vectors from pieces."""

    index: dict[str, int]
    n_min: int
    n_max: int

    def __len__(self) -> int:
        return len(self.index)

    def ngram_ids(self, word: str) -> list[int]:
        """Indexed ngram ids for ``word``; unindexed ngrams are skipped."""
        return [self.index[g]
                for g in extract_subwords(word, self.n_min, self.n_max)
                if g in self.index]


def build_subword_index(vocab: Vocabulary, n_min: int, n_max: int,
                        min_count: int) -> SubwordIndex:
    """Ngram inventory over the vocabulary's word tokens.

    Ngram occurrences are weighted by token frequency; ngrams below
    ``min_count`` are dropped. Protected tokens (entity and type ids) do
    not contribute ngrams.
    """
    counts: dict[str, int] = {}
    for tok, c in vocab.counts.items():
        if tok in vocab.protected:
            continue
        for gram in extract_subwords(tok, n_min, n_max):
            counts[gram] = counts.get(gram, 0) + c
    kept = sorted((g for g, c in counts.items() if c >= min_count),
                  key=lambda g: (-counts[g], g))
    return SubwordIndex(index={g: i for i, g in enumerate(kept)},
                        n_min=n_min, n_max=n_max)
