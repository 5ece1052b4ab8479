from collections import Counter

import pytest

from mulr.errors import DataError
from mulr.synthetic import SyntheticSpec, TypePattern, generate, preset_spec


def small_spec(**kw):
    base = dict(n_types=3, entities_per_type=20, sentence_cap=4,
                noise_vocab_size=40, shared_name_vocab_size=10, seed=3)
    base.update(kw)
    return SyntheticSpec(**base)


class TestGenerate:
    def test_same_seed_same_output(self):
        spec = preset_spec("mixed", seed=5, entities_per_type=15, n_types=4)
        assert generate(spec) == generate(spec)

    def test_other_seed_other_output(self):
        a = generate(small_spec(seed=1))
        b = generate(small_spec(seed=2))
        assert a != b
        assert a.corpus.sentences != b.corpus.sentences

    def test_entities_per_type_honoured(self):
        data = generate(small_spec(entities_per_type=17))
        per_type = Counter(t for e in data.split.all_entities()
                           for t in e.gold_types)
        assert per_type == {t: 17 for t in data.type_system.types}

    def test_sentence_cap_honoured(self):
        data = generate(small_spec(sentence_cap=2))
        per_entity = Counter(m.entity_id for ms in data.corpus.mentions
                             for m in ms)
        by_id = {e.id: e for e in data.split.all_entities()}
        assert max(per_entity.values()) <= 2
        for eid, count in per_entity.items():
            assert count == min(by_id[eid].corpus_frequency, 2)

    def test_full_suffix_signal_marks_every_name(self):
        patterns = tuple(
            TypePattern(type_id=f"t{i}", suffix=suffix,
                        name_words=(f"nw{i}a", f"nw{i}b"),
                        context_words=(f"cw{i}a", f"cw{i}b"))
            for i, suffix in enumerate(("qzx", "vvk", "jjy")))
        data = generate(small_spec(patterns=patterns, suffix_signal=1.0))
        suffix = {p.type_id: p.suffix for p in patterns}
        names = [(e, name) for e in data.split.all_entities()
                 for name in e.names]
        assert len(names) >= 60
        for e, name in names:
            (t,) = e.gold_types
            assert name.endswith(suffix[t])

    @pytest.mark.parametrize("field", ["n_types", "sentence_cap"])
    def test_zero_size_is_data_error(self, field):
        with pytest.raises(DataError):
            small_spec(**{field: 0})
        spec = small_spec()
        setattr(spec, field, 0)  # set after construction
        with pytest.raises(DataError):
            generate(spec)
