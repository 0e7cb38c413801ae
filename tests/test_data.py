import re

import pytest
from hypothesis import example, given, strategies as st

from praggen.core import (
    KIND_CATEGORICAL,
    NAME_PLACEHOLDER,
    NEAR_PLACEHOLDER,
    MeaningRepresentation,
    normalize_words,
)
from praggen.data import (
    RESTAURANT_SCHEMA,
    CorpusRecord,
    build_corpus_vocabulary,
    delexicalize,
    generate_corpus,
    read_jsonl,
    relexicalize,
    write_jsonl,
)

from test_core import small_schema


# ── sampling ─────────────────────────────────────────────────────────────────


def test_grammar_rejects_bad_omission_rate():
    for rate in (1.5, -0.1):
        with pytest.raises(ValueError, match="omission_rate"):
            generate_corpus(1, 0, rate)


def test_corpus_generation_is_seed_deterministic():
    first = generate_corpus(50, 7, 0.1)
    second = generate_corpus(50, 7, 0.1)
    assert first == second
    shifted = generate_corpus(50, 8, 0.1)
    assert shifted != first


def test_corpus_ids_are_zero_padded_and_prefixed():
    records = generate_corpus(3, 1, 0.1, id_prefix="dev")
    assert [r.id for r in records] == ["dev-00000", "dev-00001", "dev-00002"]
    assert generate_corpus(0, 1, 0.1) == []
    with pytest.raises(ValueError, match="non-negative"):
        generate_corpus(-1, 1, 0.1)


def test_head_attribute_is_always_sampled():
    for record in generate_corpus(40, 3, 0.1):
        assert record.mr.get("name") is not None


def test_zero_omission_realizes_every_categorical_value():
    categorical = [s.name for s in RESTAURANT_SCHEMA if s.kind == KIND_CATEGORICAL]
    for record in generate_corpus(60, 5, 0.0):
        text = record.reference.lower()
        for attr in categorical:
            value = record.mr.get(attr)
            if value is not None:
                assert value.lower() in text, (attr, text)


def test_full_omission_leaves_only_the_head_clause():
    for record in generate_corpus(20, 6, 1.0):
        assert record.reference.endswith(" is a place to eat .")


def test_restaurant_schema_names_the_eight_attributes():
    assert tuple(a.name for a in RESTAURANT_SCHEMA) == (
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
    schema = RESTAURANT_SCHEMA
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
    schema = RESTAURANT_SCHEMA
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


def regex_replace_surface(text, surface, replacement):
    """Whole-word, case-insensitive replacement by the surface's pattern at
    every position, kept as the reference for the surface replacement."""
    pattern = re.compile(r"(?<!\w)" + re.escape(surface) + r"(?!\w)", re.IGNORECASE)
    return pattern.sub(lambda _: replacement, text)


# ASCII text takes the search for the lowercased surface, any other text the
# pattern alone; the letters outside ASCII match ASCII ones case-insensitively.
@example("ba a a", "a a", "X")  # a refused match overlaps a match
@example("s K", "ſ \u212a", "X")
@given(
    st.text(alphabet="aAbBkKsSi_1 .-ıſİ\u212aé", max_size=14),
    st.text(alphabet="aAbBkKsSi_1 .-ſ\u212a", max_size=3),
    st.sampled_from(["NAME_PLH", "", "x\\1y", "a\\g<0>"]),
)
def test_surface_replacement_equals_the_whole_pattern(text, surface, replacement):
    assert relexicalize(text, {surface: replacement}) == regex_replace_surface(
        text, surface, replacement
    )


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
