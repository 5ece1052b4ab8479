"""Entity dataset handling: type hierarchy, splits, refinement, slicing.

File formats
------------
Type hierarchy (TSV, UTF-8): one type per row, in the order that fixes the
type indexing. Rows are either ``child<TAB>parent`` or a bare ``type`` with
no parent. Every type must appear as a row of its own; parents referenced
before their own row are an error.

Entity dataset (TSV, UTF-8): section markers ``#train``, ``#dev``, ``#test``
followed by rows ``id<TAB>name1|name2|name3<TAB>t1,t2,...<TAB>frequency``.
Train rows may carry up to three names (most frequent first; ties among
equally frequent names are broken lexicographically upstream), dev and test
rows exactly one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import DataError, ParseError
from .fileio import text_lines

HEAD_MIN_FREQUENCY = 100  # head: frequency strictly greater
TAIL_MAX_FREQUENCY = 5    # tail: frequency strictly smaller
MAX_TRAIN_NAMES = 3


def name_words(name: str) -> list[str]:
    """Whitespace tokens of an entity name, kept verbatim."""
    return name.split()


@dataclass(frozen=True)
class TypeSystem:
    """Ordered type inventory plus a parent forest over it."""

    types: tuple[str, ...]
    parent: dict[str, str]

    def __post_init__(self):
        seen = set(self.types)
        if len(seen) != len(self.types):
            raise DataError("duplicate type in type system")
        for child, par in self.parent.items():
            if child not in seen:
                raise DataError(f"parent relation names unknown type {child!r}")
            if par not in seen:
                raise DataError(f"unknown parent type {par!r} for {child!r}")
        for t in self.types:
            self.ancestors(t)  # raises on cycles

    @cached_property
    def index(self) -> dict[str, int]:
        """Position of each type; built once, so treat it as read-only."""
        return {t: i for i, t in enumerate(self.types)}

    def __len__(self) -> int:
        return len(self.types)

    def __contains__(self, t: str) -> bool:
        return t in self.index

    def ancestors(self, t: str) -> list[str]:
        """Proper ancestors of ``t``, nearest first. Raises on a cycle."""
        out = []
        seen = {t}
        cur = t
        while cur in self.parent:
            cur = self.parent[cur]
            if cur in seen:
                raise DataError(f"cycle in parent relation at {cur!r}")
            seen.add(cur)
            out.append(cur)
        return out


@dataclass(frozen=True)
class EntityRecord:
    """A KB entity: identifier, surface names, gold types, mention count."""

    id: str
    names: tuple[str, ...]
    gold_types: frozenset[str]
    corpus_frequency: int = 0

    def __post_init__(self):
        if not self.names:
            raise DataError(f"entity {self.id!r} has no names")
        if any(not n.strip() for n in self.names):
            raise DataError(f"entity {self.id!r} has an empty name")
        if self.corpus_frequency < 0:
            raise DataError(f"entity {self.id!r} has negative frequency")

    def with_gold_types(self, gold_types: frozenset[str]) -> EntityRecord:
        """This record with other gold types. Its other fields were checked
        when it was made, and gold types have no check here, so the copy
        skips ``__post_init__``."""
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__, gold_types=gold_types)
        return copy


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[EntityRecord, ...]
    dev: tuple[EntityRecord, ...]
    test: tuple[EntityRecord, ...]

    def __post_init__(self):
        ids = [e.id for part in (self.train, self.dev, self.test) for e in part]
        if len(ids) != len(set(ids)):
            raise DataError("duplicate entity id across splits")
        for e in self.train:
            if len(e.names) > MAX_TRAIN_NAMES:
                raise DataError(f"train entity {e.id!r} has more than "
                                f"{MAX_TRAIN_NAMES} names")
        for part_name, part in (("dev", self.dev), ("test", self.test)):
            for e in part:
                if len(e.names) != 1:
                    raise DataError(f"{part_name} entity {e.id!r} must have "
                                    f"exactly one name")

    def all_entities(self) -> list[EntityRecord]:
        return list(self.train) + list(self.dev) + list(self.test)


def _closure(e: EntityRecord, ts: TypeSystem) -> frozenset[str]:
    """Smallest superset of the gold types closed under the parent relation."""
    closed = set()
    for t in e.gold_types:
        if t not in ts:
            raise DataError(f"entity {e.id!r} has unknown type {t!r}")
        closed.add(t)
        closed.update(ts.ancestors(t))
    return frozenset(closed)


def refine(split: DatasetSplit, ts: TypeSystem) -> DatasetSplit:
    """Close every record's gold types under the parent relation, each
    distinct gold-type set once."""
    closures: dict[frozenset[str], frozenset[str]] = {}

    def close(e: EntityRecord) -> EntityRecord:
        closed = closures.get(e.gold_types)
        if closed is None:
            closed = closures[e.gold_types] = _closure(e, ts)
        return e.with_gold_types(closed)

    return DatasetSplit(*(tuple(map(close, part))
                          for part in (split.train, split.dev, split.test)))


def slice_entities(split: DatasetSplit) -> dict[str, list[EntityRecord]]:
    """Test-set slices: all, head, tail, known, unknown.

    Head and tail use strict frequency bounds; entities with frequency in
    between belong to "all" only. Known means at least one case-folded name
    word also occurs in some train-entity name.
    """
    train_words = set()
    for e in split.train:
        for name in e.names:
            train_words.update(w.casefold() for w in name_words(name))
    slices: dict[str, list[EntityRecord]] = {
        "all": [], "head": [], "tail": [], "known": [], "unknown": [],
    }
    for e in split.test:
        slices["all"].append(e)
        if e.corpus_frequency > HEAD_MIN_FREQUENCY:
            slices["head"].append(e)
        if e.corpus_frequency < TAIL_MAX_FREQUENCY:
            slices["tail"].append(e)
        words = {w.casefold() for w in name_words(e.names[0])}
        if words & train_words:
            slices["known"].append(e)
        else:
            slices["unknown"].append(e)
    return slices


def load_type_system(path) -> TypeSystem:
    """Read the ordered type inventory with optional parent column."""
    path = Path(path)
    types: list[str] = []
    parent: dict[str, str] = {}
    for line_no, line in text_lines(path, rows=True):
        fields = line.split("\t")
        if len(fields) > 2:
            raise ParseError(path, line_no, "expected at most two columns")
        child = fields[0].strip()
        if not child:
            raise ParseError(path, line_no, "empty type name")
        if child in types:
            raise ParseError(path, line_no, f"duplicate type {child!r}")
        types.append(child)
        if len(fields) == 2 and fields[1].strip():
            parent[child] = fields[1].strip()
    if not types:
        raise DataError(f"{path}: no types")
    return TypeSystem(types=tuple(types), parent=parent)


def save_type_system(ts: TypeSystem, path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for t in ts.types:
            if t in ts.parent:
                fh.write(f"{t}\t{ts.parent[t]}\n")
            else:
                fh.write(f"{t}\n")


_SECTIONS = ("#train", "#dev", "#test")


def load_dataset(path, types: TypeSystem) -> DatasetSplit:
    """Parse the sectioned entity TSV; every named type must exist."""
    path = Path(path)
    parts: dict[str, list[EntityRecord]] = {"#train": [], "#dev": [], "#test": []}
    seen: set[str] = set()
    section = None
    for line_no, line in text_lines(path):
        if not line.strip():
            continue
        if line.strip() in _SECTIONS:
            section = line.strip()
            continue
        if line.startswith("#"):
            continue
        if section is None:
            raise ParseError(path, line_no, "row before any section marker")
        fields = line.split("\t")
        if len(fields) != 4:
            raise ParseError(path, line_no,
                             f"expected 4 tab-separated fields, got {len(fields)}")
        ent_id, names_field, types_field, freq_field = fields
        if not ent_id.strip():
            raise ParseError(path, line_no, "empty entity id")
        if ent_id in seen:
            raise ParseError(path, line_no, f"duplicate entity id {ent_id!r}")
        seen.add(ent_id)
        names = tuple(n for n in names_field.split("|") if n.strip())
        if not names:
            raise ParseError(path, line_no, "no names")
        gold = frozenset(t.strip() for t in types_field.split(",") if t.strip())
        for t in gold:
            if t not in types:
                raise ParseError(path, line_no, f"unknown type {t!r}")
        try:
            freq = int(freq_field)
        except ValueError:
            raise ParseError(path, line_no,
                             f"bad frequency {freq_field!r}") from None
        try:
            rec = EntityRecord(id=ent_id, names=names, gold_types=gold,
                               corpus_frequency=freq)
        except DataError as exc:
            raise ParseError(path, line_no, str(exc)) from None
        parts[section].append(rec)
    if not any(parts.values()):
        raise DataError(f"{path}: no entities")
    return DatasetSplit(train=tuple(parts["#train"]),
                        dev=tuple(parts["#dev"]),
                        test=tuple(parts["#test"]))


def save_dataset(split: DatasetSplit, path) -> None:
    """Write the sectioned TSV; load_dataset(save_dataset(x)) == x."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for marker, part in (("#train", split.train), ("#dev", split.dev),
                             ("#test", split.test)):
            fh.write(marker + "\n")
            for e in part:
                names = "|".join(e.names)
                golds = ",".join(sorted(e.gold_types))
                fh.write(f"{e.id}\t{names}\t{golds}\t{e.corpus_frequency}\n")
