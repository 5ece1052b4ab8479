import numpy as np
import pytest

from mulr.dataset import (DatasetSplit, EntityRecord, TypeSystem,
                          load_dataset, load_type_system, refine, save_dataset,
                          save_type_system, slice_entities)
from mulr.errors import DataError, ParseError


def make_ts(types, parent=None):
    return TypeSystem(types=tuple(types), parent=dict(parent or {}))


@pytest.fixture
def ts():
    return make_ts(["person", "politician", "building", "hospital", "foo2"],
                   {"politician": "person", "hospital": "building"})


def write_dataset(tmp_path, text, name="data.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestTypeSystem:
    def test_cycle_detected(self):
        with pytest.raises(DataError, match="cycle"):
            make_ts(["a", "b"], {"a": "b", "b": "a"})

    def test_unknown_parent(self):
        with pytest.raises(DataError, match="unknown parent"):
            make_ts(["a"], {"a": "b"})

    def test_ancestors_order(self, ts):
        assert ts.ancestors("politician") == ["person"]
        assert ts.ancestors("person") == []

    def test_index_is_built_once(self, ts):
        assert ts.index is ts.index
        assert ts.index == {t: i for i, t in enumerate(ts.types)}
        assert "hospital" in ts and "nope" not in ts
        assert make_ts(ts.types, ts.parent) == ts

    def test_hierarchy_file_round_trip(self, tmp_path, ts):
        path = tmp_path / "hier.tsv"
        save_type_system(ts, path)
        loaded = load_type_system(path)
        assert loaded == ts

    def test_hierarchy_file_bare_rows(self, tmp_path):
        path = write_dataset(tmp_path, "person\nhospital\tbuilding\nbuilding\n",
                             "h.tsv")
        ts = load_type_system(path)
        assert ts.types == ("person", "hospital", "building")
        assert ts.parent == {"hospital": "building"}


class TestLoadDataset:
    def test_basic_row(self, tmp_path, ts):
        path = write_dataset(tmp_path, "#train\n"
                             "m.01\tBarack Obama\tperson,politician\t523\n")
        split = load_dataset(path, ts)
        e = split.train[0]
        assert e.id == "m.01"
        assert e.names == ("Barack Obama",)
        assert e.gold_types == {"person", "politician"}
        assert e.corpus_frequency == 523

    def test_unknown_type_named(self, tmp_path, ts):
        path = write_dataset(tmp_path, "#train\nm.01\tX\tfoo\t3\n")
        with pytest.raises(ParseError, match="foo"):
            load_dataset(path, ts)

    def test_empty_file(self, tmp_path, ts):
        path = write_dataset(tmp_path, "")
        with pytest.raises(DataError, match="no entities"):
            load_dataset(path, ts)

    def test_malformed_row_reports_line(self, tmp_path, ts):
        path = write_dataset(tmp_path, "#train\nm.01\tX\tperson\t3\n"
                                       "m.02\tonly two fields\n")
        with pytest.raises(ParseError, match=":3:"):
            load_dataset(path, ts)

    def test_duplicate_id_across_splits(self, tmp_path, ts):
        path = write_dataset(tmp_path, "#train\nm.01\tX\tperson\t3\n"
                                       "#test\nm.01\tX\tperson\t3\n")
        with pytest.raises(DataError, match="duplicate"):
            load_dataset(path, ts)

    def test_train_name_cap_and_eval_single_name(self, tmp_path, ts):
        path = write_dataset(tmp_path, "#train\nm.01\ta|b|c|d\tperson\t3\n")
        with pytest.raises(DataError):
            load_dataset(path, ts)
        path = write_dataset(tmp_path, "#dev\nm.01\ta|b\tperson\t3\n")
        with pytest.raises(DataError):
            load_dataset(path, ts)

    def test_round_trip(self, tmp_path, ts):
        path = write_dataset(tmp_path, "#train\n"
                             "m.01\tBarack Obama|Obama\tperson,politician\t523\n"
                             "m.02\tGeneral Hospital\thospital\t12\n"
                             "#dev\nm.03\tWhite House\tbuilding\t99\n"
                             "#test\nm.04\tAngela Merkel\tperson\t101\n")
        split = load_dataset(path, ts)
        out = tmp_path / "again.tsv"
        save_dataset(split, out)
        assert load_dataset(out, ts) == split


def refined(gold, ts) -> EntityRecord:
    """A record of gold types ``gold`` after ``refine``."""
    e = EntityRecord(id="m.1", names=("X",), gold_types=frozenset(gold))
    return refine(DatasetSplit(train=(e,), dev=(), test=()), ts).train[0]


class TestParentClosure:
    def test_hospital_gains_building(self, ts):
        assert refined({"hospital"}, ts).gold_types == {"hospital",
                                                        "building"}

    def test_fixed_point(self, ts):
        assert refined({"building"}, ts).gold_types == {"building"}

    def test_empty_set(self, ts):
        assert refined((), ts).gold_types == set()

    def test_idempotent_and_monotone_on_random_forests(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 15))
            types = [f"t{i}" for i in range(n)]
            parent = {}
            for i in range(1, n):
                if rng.random() < 0.7:
                    parent[types[i]] = types[int(rng.integers(0, i))]
            ts = make_ts(types, parent)
            k = int(rng.integers(0, n + 1))
            gold = frozenset(rng.choice(types, size=k, replace=False))
            once = refined(gold, ts)
            twice = refined(once.gold_types, ts)
            assert once.gold_types == twice.gold_types
            assert gold <= once.gold_types
            # oracle: expand by one parent step until nothing changes
            expected = set(gold)
            while True:
                grown = expected | {parent[t] for t in expected if t in parent}
                if grown == expected:
                    break
                expected = grown
            assert once.gold_types == expected


class TestSlices:
    def _split(self, test_records, train_records=()):
        return DatasetSplit(train=tuple(train_records), dev=(),
                            test=tuple(test_records))

    def test_head_tail_boundaries(self):
        recs = [EntityRecord(id=f"m.{i}", names=(n,), gold_types=frozenset(),
                             corpus_frequency=f)
                for i, (n, f) in enumerate([("a", 101), ("b", 100),
                                            ("c", 5), ("d", 4)])]
        slices = slice_entities(self._split(recs))
        assert [e.corpus_frequency for e in slices["head"]] == [101]
        assert [e.corpus_frequency for e in slices["tail"]] == [4]
        assert len(slices["all"]) == 4

    def test_known_by_shared_word(self):
        train = [EntityRecord(id="m.t", names=("Lake Tahoe",),
                              gold_types=frozenset())]
        test = [EntityRecord(id="m.1", names=("Lake Kasumigaura",),
                             gold_types=frozenset()),
                EntityRecord(id="m.2", names=("Zumpango",),
                             gold_types=frozenset())]
        slices = slice_entities(self._split(test, train))
        assert [e.id for e in slices["known"]] == ["m.1"]
        assert [e.id for e in slices["unknown"]] == ["m.2"]

    def test_known_is_casefolded(self):
        train = [EntityRecord(id="m.t", names=("lake michigan",),
                              gold_types=frozenset())]
        test = [EntityRecord(id="m.1", names=("LAKE Baikal",),
                             gold_types=frozenset())]
        slices = slice_entities(self._split(test, train))
        assert [e.id for e in slices["known"]] == ["m.1"]

    def test_partition_property_random(self):
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(30)]
        for _ in range(50):
            def rand_name():
                k = int(rng.integers(1, 4))
                return " ".join(rng.choice(words, size=k, replace=True))
            train = [EntityRecord(id=f"m.tr{i}", names=(rand_name(),),
                                  gold_types=frozenset())
                     for i in range(int(rng.integers(1, 8)))]
            test = [EntityRecord(id=f"m.te{i}", names=(rand_name(),),
                                 gold_types=frozenset(),
                                 corpus_frequency=int(rng.integers(0, 200)))
                    for i in range(int(rng.integers(1, 12)))]
            slices = slice_entities(self._split(test, train))
            known = {e.id for e in slices["known"]}
            unknown = {e.id for e in slices["unknown"]}
            assert known & unknown == set()
            assert known | unknown == {e.id for e in slices["all"]}
            head = {e.id for e in slices["head"]}
            tail = {e.id for e in slices["tail"]}
            assert head <= {e.id for e in slices["all"]}
            assert head & tail == set()


def test_refine_closes_all_parts(ts, tmp_path):
    split = DatasetSplit(
        train=(EntityRecord(id="m.1", names=("A",),
                            gold_types=frozenset({"hospital"})),),
        dev=(EntityRecord(id="m.2", names=("B",),
                          gold_types=frozenset({"politician"})),),
        test=(EntityRecord(id="m.3", names=("C",),
                           gold_types=frozenset({"person"})),))
    refined = refine(split, ts)
    assert refined.train[0].gold_types == {"hospital", "building"}
    assert refined.dev[0].gold_types == {"politician", "person"}
    assert refined.test[0].gold_types == {"person"}


def test_refine_checks_no_record_again(ts, monkeypatch):
    """The records were checked when they were made: ``refine`` copies
    them with closed types, fields otherwise equal, without running
    ``EntityRecord.__post_init__`` again."""
    records = [EntityRecord(id=f"m.{i}", names=("A", "B"),
                            gold_types=frozenset({t}), corpus_frequency=i)
               for i, t in enumerate(["hospital", "person", "hospital"])]
    split = DatasetSplit(train=tuple(records), dev=(), test=())
    checked = []
    monkeypatch.setattr(EntityRecord, "__post_init__",
                        lambda self: checked.append(self.id))
    refined = refine(split, ts)
    assert checked == []
    assert refined.train == tuple(
        EntityRecord(id=e.id, names=e.names, gold_types=closed,
                     corpus_frequency=e.corpus_frequency)
        for e, closed in zip(records, [{"hospital", "building"}, {"person"},
                                       {"hospital", "building"}]))
