import random

import pytest

from praggen.core import (
    KIND_CATEGORICAL,
    NAME_PLACEHOLDER,
    NEAR_PLACEHOLDER,
    MeaningRepresentation,
    normalize_words,
)
from praggen.data import (
    CorpusRecord,
    SyntheticGrammar,
    build_corpus_vocabulary,
    default_grammar,
    delexicalize,
    generate_corpus,
    read_jsonl,
    relexicalize,
    write_jsonl,
)

from test_core import small_schema


def tiny_grammar(**overrides):
    schema = small_schema()
    parts = dict(
        schema=schema,
        templates={
            "name": ("{v} is", "{v} stands as"),
            "area": ("in the {v}", "found {v}"),
            "priceRange": ("a {v} venue", "priced {v}"),
        },
        boolean_templates={
            "familyFriendly": {
                "yes": ("family friendly", "good for kids"),
                "no": ("not family friendly", "adults only"),
            }
        },
        value_weights={
            "area": (0.7, 0.3),
            "priceRange": (0.5, 0.5),
            "familyFriendly": (0.6, 0.4),
        },
        surface_pools={"name": ("Aromi", "The Mill")},
        presence={"area": 0.8, "priceRange": 0.8, "familyFriendly": 0.8},
        omission_rate=0.1,
    )
    parts.update(overrides)
    return SyntheticGrammar(**parts)


# ── grammar validation ───────────────────────────────────────────────────────


def test_grammar_accepts_a_well_formed_spec():
    tiny_grammar()


def test_grammar_rejects_bad_omission_rate():
    with pytest.raises(ValueError, match="omission_rate"):
        tiny_grammar(omission_rate=1.5)


# ── sampling ─────────────────────────────────────────────────────────────────


def test_corpus_generation_is_seed_deterministic():
    grammar = default_grammar()
    first = generate_corpus(grammar, 50, 7)
    second = generate_corpus(grammar, 50, 7)
    assert first == second
    shifted = generate_corpus(grammar, 50, 8)
    assert shifted != first


def test_corpus_ids_are_zero_padded_and_prefixed():
    records = generate_corpus(tiny_grammar(), 3, 1, id_prefix="dev")
    assert [r.id for r in records] == ["dev-00000", "dev-00001", "dev-00002"]
    assert generate_corpus(tiny_grammar(), 0, 1) == []
    with pytest.raises(ValueError, match="non-negative"):
        generate_corpus(tiny_grammar(), -1, 1)


def test_head_attribute_is_always_sampled():
    for record in generate_corpus(tiny_grammar(), 40, 3):
        assert record.mr.get("name") is not None


def test_zero_omission_realizes_every_categorical_value():
    for grammar in (tiny_grammar(omission_rate=0.0), default_grammar(0.0)):
        categorical = [s.name for s in grammar.schema if s.kind == KIND_CATEGORICAL]
        rng = random.Random(5)
        for _ in range(60):
            mr = grammar.sample_mr(rng)
            text = grammar.realize(mr, rng).lower()
            for attr in categorical:
                value = mr.get(attr)
                if value is not None:
                    assert value.lower() in text, (attr, text)


def test_full_omission_leaves_only_the_head_clause():
    grammar = tiny_grammar(omission_rate=1.0)
    rng = random.Random(6)
    for _ in range(20):
        mr = grammar.sample_mr(rng)
        assert grammar.realize(mr, rng).endswith("a place to eat .")


def test_realize_requires_the_head():
    grammar = tiny_grammar()
    with pytest.raises(ValueError, match="head attribute"):
        grammar.realize(MeaningRepresentation({"area": "riverside"}), random.Random(0))


def test_default_grammar_matches_the_default_schema():
    grammar = default_grammar(omission_rate=0.25)
    assert grammar.omission_rate == 0.25
    assert grammar.schema.names() == (
        "name", "eatType", "food", "priceRange",
        "customerRating", "area", "familyFriendly", "near",
    )



# ── delexicalization ─────────────────────────────────────────────────────────


def test_delexicalize_rewrites_value_and_text():
    schema = small_schema()
    record = CorpusRecord(
        id="r1",
        mr=MeaningRepresentation({"name": "The Mill", "area": "riverside"}),
        reference="The Mill sits in riverside and the mill is cheap .",
    )
    got = delexicalize(record, schema)
    assert got.mr.get("name") == NAME_PLACEHOLDER
    assert got.mr.get("area") == "riverside"
    assert (
        got.reference
        == f"{NAME_PLACEHOLDER} sits in riverside and {NAME_PLACEHOLDER} is cheap ."
    )
    assert got.delex_map == {NAME_PLACEHOLDER: "The Mill"}


def test_delexicalize_respects_word_boundaries():
    schema = small_schema()
    record = CorpusRecord(
        id="r1",
        mr=MeaningRepresentation({"name": "Mill"}),
        reference="Mill overlooks Millbrook .",
    )
    got = delexicalize(record, schema)
    assert got.reference == f"{NAME_PLACEHOLDER} overlooks Millbrook ."


def test_delexicalize_handles_both_placeholders():
    schema = default_grammar().schema
    record = CorpusRecord(
        id="r1",
        mr=MeaningRepresentation({"name": "Aromi", "near": "The Bakers"}),
        reference="Aromi is near The Bakers .",
    )
    got = delexicalize(record, schema)
    assert got.reference == f"{NAME_PLACEHOLDER} is near {NEAR_PLACEHOLDER} ."
    assert got.delex_map == {
        NAME_PLACEHOLDER: "Aromi",
        NEAR_PLACEHOLDER: "The Bakers",
    }


def test_delexicalize_leaves_placeholder_values_alone():
    schema = small_schema()
    record = CorpusRecord(
        id="r1",
        mr=MeaningRepresentation({"name": NAME_PLACEHOLDER}),
        reference=f"{NAME_PLACEHOLDER} is cheap .",
        delex_map={NAME_PLACEHOLDER: "Aromi"},
    )
    got = delexicalize(record, schema)
    assert got == record


def test_relexicalize_round_trip():
    schema = default_grammar().schema
    record = CorpusRecord(
        id="r1",
        mr=MeaningRepresentation({"name": "Aromi", "near": "The Bakers"}),
        reference="Aromi is near The Bakers .",
    )
    delexed = delexicalize(record, schema)
    assert relexicalize(delexed.reference, delexed.delex_map) == record.reference


def test_relexicalize_inserts_surfaces_literally():
    delex_map = {NAME_PLACEHOLDER: "AC\\DC bar", NEAR_PLACEHOLDER: "the \\g<0> inn"}
    text = f"{NAME_PLACEHOLDER} is near {NEAR_PLACEHOLDER} ."
    assert relexicalize(text, delex_map) == "AC\\DC bar is near the \\g<0> inn ."


# ── JSONL round trips ────────────────────────────────────────────────────────


def sample_records():
    return [
        CorpusRecord(
            id="a-1",
            mr=MeaningRepresentation({"name": NAME_PLACEHOLDER, "area": "riverside"}),
            reference=f"{NAME_PLACEHOLDER} by the river .",
            delex_map={NAME_PLACEHOLDER: "Aromi"},
        ),
        CorpusRecord(
            id="a-2",
            mr=MeaningRepresentation({"priceRange": "cheap"}),
            reference="a cheap venue .",
        ),
    ]


def test_jsonl_round_trip_is_lossless(tmp_path):
    path = tmp_path / "corpus.jsonl"
    records = sample_records()
    write_jsonl(records, path)
    assert read_jsonl(path, schema=small_schema()) == records


def test_jsonl_writing_is_byte_deterministic(tmp_path):
    p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    write_jsonl(sample_records(), p1)
    write_jsonl(sample_records(), p2)
    content = p1.read_bytes()
    assert content == p2.read_bytes()
    assert content.endswith(b"\n")
    assert content.count(b"\n") == 2


def test_jsonl_empty_corpus_is_an_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_jsonl([], path)
    assert path.read_bytes() == b""
    assert read_jsonl(path) == []


def test_jsonl_write_rejects_duplicate_ids(tmp_path):
    records = sample_records()
    records[1] = CorpusRecord(id="a-1", mr=records[1].mr, reference="x .")
    with pytest.raises(ValueError, match="duplicate record id"):
        write_jsonl(records, tmp_path / "dup.jsonl")


def test_jsonl_read_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = '{"delex":{},"id":"a-1","mr":{},"ref":"x ."}'
    path.write_text(good + "\n{oops\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: invalid JSON"):
        read_jsonl(path)

    path.write_text('{"id":"a-1","ref":"x ."}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 1: record must have exactly"):
        read_jsonl(path)

    path.write_text(good + "\n" + good + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: duplicate record id"):
        read_jsonl(path)

    path.write_text('{"delex":{},"id":"","mr":{},"ref":"x ."}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="non-empty string"):
        read_jsonl(path)


def test_jsonl_read_validates_against_a_schema(tmp_path):
    path = tmp_path / "invalid.jsonl"
    path.write_text(
        '{"delex":{},"id":"a-1","mr":{"cuisine":"thai"},"ref":"x ."}\n',
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="line 1"):
        read_jsonl(path, schema=small_schema())
    # without a schema the same record loads fine
    assert read_jsonl(path)[0].mr.get("cuisine") == "thai"


def test_jsonl_read_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.jsonl"
    path.write_text(
        '\n{"delex":{},"id":"a-1","mr":{},"ref":"x ."}\n\n', encoding="utf-8"
    )
    assert len(read_jsonl(path)) == 1


# ── vocabulary assembly ──────────────────────────────────────────────────────


def test_corpus_vocabulary_covers_schema_and_references():
    schema = small_schema()
    records = [
        CorpusRecord(
            id="a-1",
            mr=MeaningRepresentation({"area": "riverside"}),
            reference="a zebra friendly venue .",
        )
    ]
    vocab = build_corpus_vocabulary([normalize_words(r.reference) for r in records], schema)
    for word in ("zebra", "venue", ".", "riverside", "familyfriendly", NAME_PLACEHOLDER):
        assert word in vocab
