import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import praggen
from praggen.core import (
    BOS_ID,
    EOS_ID,
    SEP_ID,
    UNK_ID,
    KIND_BOOLEAN,
    KIND_CATEGORICAL,
    KIND_DELEXICALIZED,
    NAME_PLACEHOLDER,
    NEAR_PLACEHOLDER,
    RESERVED_TOKENS,
    AttributeSchema,
    AttributeSpec,
    DegenerateDistributionError,
    MeaningRepresentation,
    TokenSequence,
    UnbuildableContextError,
    Vocabulary,
    detokenize,
    linearize_mr,
    log_softmax,
    map_jobs,
    normalize_words,
    pool_size,
    schema_from_dict,
    schema_to_dict,
    tokenize,
    validate_mr,
)
from praggen.data import RESTAURANT_SCHEMA

WORDS = ["area", "riverside", "cheap", "pub", "food", "the", "a", "is"]


def small_vocab():
    return Vocabulary.build(WORDS)


def small_schema():
    return AttributeSchema(
        attributes=(
            AttributeSpec("name", KIND_DELEXICALIZED, (NAME_PLACEHOLDER,)),
            AttributeSpec("area", KIND_CATEGORICAL, ("riverside", "city centre")),
            AttributeSpec("priceRange", KIND_CATEGORICAL, ("cheap", "high")),
            AttributeSpec(
                "familyFriendly", KIND_BOOLEAN, ("yes", "no"), lexicon=("family friendly",)
            ),
        )
    )


# ── canonicalization ─────────────────────────────────────────────────────────


def test_normalize_words_lowercases_and_splits_punctuation():
    assert normalize_words("Hello, World.") == ["hello", ",", "world", "."]
    assert normalize_words("what?! yes") == ["what", "?", "!", "yes"]


def test_normalize_words_preserves_placeholders_case_insensitively():
    assert normalize_words("near Name_Plh today") == ["near", "NAME_PLH", "today"]
    assert normalize_words("NEAR_PLH!") == ["NEAR_PLH", "!"]


def regex_normalize_words(text):
    """The regex formulation of ``normalize_words``, kept as its reference."""
    words = re.sub(r"([.,!?])", r" \1 ", text).split()
    return [w.upper() if w.upper() in (NAME_PLACEHOLDER, NEAR_PLACEHOLDER) else w.lower()
            for w in words]


def mixed_case(word):
    flips = st.lists(st.booleans(), min_size=len(word), max_size=len(word))
    return flips.map(lambda fs: "".join(c.swapcase() if f else c for c, f in zip(word, fs)))


TEXT_PIECES = st.one_of(
    st.text(alphabet="aZ .,!?\t\n\u00a0éßÅçΣİ_", max_size=12),
    st.sampled_from([NAME_PLACEHOLDER, NEAR_PLACEHOLDER]).flatmap(mixed_case),
)


@given(st.lists(TEXT_PIECES, max_size=8).map("".join))
def test_normalize_words_equals_the_regex_formulation(text):
    assert normalize_words(text) == regex_normalize_words(text)


# ── token sequences ──────────────────────────────────────────────────────────


def test_token_sequence_terminated_flag():
    assert TokenSequence([7, EOS_ID]).terminated
    assert not TokenSequence([7, 8]).terminated
    assert not TokenSequence([]).terminated


def test_token_sequence_rejects_interior_eos():
    with pytest.raises(ValueError):
        TokenSequence([EOS_ID, 7])


def test_token_sequence_rejects_negative_ids():
    with pytest.raises(ValueError):
        TokenSequence([3, -1])


def test_token_sequence_is_immutable():
    seq = TokenSequence([7])
    with pytest.raises(AttributeError):
        seq.ids = (8,)


def test_token_sequence_core_ids_strips_terminator():
    assert TokenSequence([7, 8, EOS_ID]).core_ids() == (7, 8)
    assert TokenSequence([7, 8]).core_ids() == (7, 8)
    assert TokenSequence([EOS_ID]).core_ids() == ()


def test_token_sequence_equality_and_hash():
    assert TokenSequence([7, EOS_ID]) == TokenSequence([7, EOS_ID])
    assert TokenSequence([7]) != TokenSequence([8])
    assert hash(TokenSequence([7])) == hash(TokenSequence([7]))


@given(st.lists(st.integers(min_value=2, max_value=50), max_size=8))
def test_token_sequence_round_trips_ids(ids):
    # ids avoid EOS entirely, so construction always succeeds
    assert TokenSequence(ids).ids == tuple(ids)


# ── vocabulary ───────────────────────────────────────────────────────────────


def test_vocabulary_reserves_low_ids():
    vocab = small_vocab()
    assert vocab.tokens[: len(RESERVED_TOKENS)] == RESERVED_TOKENS
    assert vocab.id("<bos>") == BOS_ID
    assert vocab.id("<eos>") == EOS_ID
    assert vocab.id("<sep>") == SEP_ID
    assert vocab.id("<unk>") == UNK_ID


def test_vocabulary_build_sorts_and_dedupes_extras():
    vocab = Vocabulary.build(["b", "a", "b", NAME_PLACEHOLDER])
    extras = vocab.tokens[len(RESERVED_TOKENS):]
    assert extras == ("a", "b")


def test_vocabulary_bijection():
    vocab = small_vocab()
    for token in vocab.tokens:
        assert vocab.token(vocab.id(token)) == token
    for i in range(len(vocab)):
        assert vocab.id(vocab.token(i)) == i


def test_vocabulary_rejects_duplicates_and_empty_tokens():
    with pytest.raises(ValueError):
        Vocabulary(list(RESERVED_TOKENS) + ["x", "x"])
    with pytest.raises(ValueError):
        Vocabulary(list(RESERVED_TOKENS) + [""])
    with pytest.raises(ValueError):
        Vocabulary(["<eos>", "<bos>"])  # reserved block out of order


def test_vocabulary_unknown_token_handling():
    vocab = small_vocab()
    with pytest.raises(KeyError):
        vocab.id("zebra")
    assert vocab.id_or_unk("zebra") == UNK_ID
    assert "zebra" not in vocab
    assert "area" in vocab


# ── tokenize / detokenize ────────────────────────────────────────────────────


def test_tokenize_maps_unknowns_to_unk():
    vocab = small_vocab()
    seq = tokenize("the unknown pub", vocab)
    assert seq.ids == (vocab.id("the"), UNK_ID, vocab.id("pub"))


def test_detokenize_drops_structural_ids():
    vocab = small_vocab()
    seq = TokenSequence([BOS_ID, vocab.id("cheap"), EOS_ID])
    assert detokenize(seq, vocab) == "cheap"
    assert detokenize(TokenSequence([]), vocab) == ""


def test_detokenize_keeps_placeholders():
    vocab = small_vocab()
    seq = TokenSequence([vocab.id(NAME_PLACEHOLDER), vocab.id("is"), vocab.id("a"), vocab.id("pub")])
    assert detokenize(seq, vocab) == "NAME_PLH is a pub"


@given(st.lists(st.sampled_from(WORDS), min_size=1, max_size=12))
def test_tokenize_detokenize_round_trip(words):
    vocab = small_vocab()
    text = " ".join(words)
    assert detokenize(tokenize(text, vocab), vocab) == " ".join(normalize_words(text))


# ── log_softmax ──────────────────────────────────────────────────────────────


def test_log_normalize_matches_direct_ratios():
    out = log_softmax(np.array([[math.log(2), math.log(6)], [math.log(1), math.log(3)]]))
    assert np.exp(out).tolist() == [
        pytest.approx([0.25, 0.75], abs=1e-12),
        pytest.approx([0.25, 0.75], abs=1e-12),
    ]


def test_log_normalize_handles_minus_inf_entries():
    assert log_softmax(np.array([-math.inf, 0.0])).tolist() == [-math.inf, 0.0]
    assert log_softmax(np.array([[-math.inf, 0.0], [0.0, 0.0]]))[0].tolist() == [-math.inf, 0.0]


def test_log_normalize_rejects_degenerate_input():
    with pytest.raises(DegenerateDistributionError):
        log_softmax(np.array([-math.inf, -math.inf]))
    with pytest.raises(DegenerateDistributionError):
        log_softmax(np.array([[0.0, 1.0], [-math.inf, -math.inf]]))
    with pytest.raises(ValueError):
        log_softmax(np.array([]))


# ── worker pool ──────────────────────────────────────────────────────────────


def test_pool_size_caps_workers_by_cpus_and_jobs():
    assert pool_size(1, 500, 2) == 1
    assert pool_size(8, 1, 2) == 1
    assert pool_size(10_000, 500, 2) == 2
    assert pool_size(10_000, 3, 64) == 3
    assert pool_size(4, 0, 2) == 1
    assert pool_size(4, 10, None) == 1


def test_map_jobs_keeps_index_order_and_raises_the_first_failure(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    assert map_jobs(lambda i: i * i, 20, 2) == [i * i for i in range(20)]

    def job(i):
        if i in (5, 13, 14):
            raise ValueError(f"job {i} failed")
        return i

    with pytest.raises(ValueError, match="^job 5 failed$"):
        map_jobs(job, 20, 2)
    # 40 jobs on 2 processes go in chunks of 5: job 7 fails in the middle of
    # the second chunk, after its chunk's first jobs succeeded.
    assert map_jobs(lambda i: i * i, 40, 2) == [i * i for i in range(40)]

    def chunked_job(i):
        if i in (7, 8, 21):
            raise ValueError(f"job {i} failed")
        return i

    with pytest.raises(ValueError, match="^job 7 failed$"):
        map_jobs(chunked_job, 40, 2)


# ── schemas ──────────────────────────────────────────────────────────────────


def test_attribute_spec_validation():
    with pytest.raises(ValueError):
        AttributeSpec("x", "weird", ("a",))
    with pytest.raises(ValueError):
        AttributeSpec("x", KIND_CATEGORICAL, ())
    with pytest.raises(ValueError):
        AttributeSpec("x", KIND_CATEGORICAL, ("a", "a"))
    with pytest.raises(ValueError):
        AttributeSpec("x", KIND_DELEXICALIZED, ("not a placeholder",))


def test_delexicalized_placeholder_property():
    spec = AttributeSpec("near", KIND_DELEXICALIZED, (NEAR_PLACEHOLDER,))
    assert spec.placeholder == NEAR_PLACEHOLDER
    with pytest.raises(ValueError):
        AttributeSpec("area", KIND_CATEGORICAL, ("riverside",)).placeholder


def test_schema_rejects_duplicate_names():
    spec = AttributeSpec("area", KIND_CATEGORICAL, ("riverside",))
    with pytest.raises(ValueError):
        AttributeSchema(attributes=(spec, spec))


def test_schema_lookup_and_iteration():
    schema = small_schema()
    assert tuple(a.name for a in schema) == ("name", "area", "priceRange", "familyFriendly")
    assert schema.attribute("area").values == ("riverside", "city centre")
    assert schema.has("area") and not schema.has("food")
    with pytest.raises(KeyError):
        schema.attribute("food")


def test_schema_tokens_cover_names_and_values():
    toks = small_schema().tokens()
    for expected in ("area", "riverside", "city", "centre", "pricerange", NAME_PLACEHOLDER):
        assert expected in toks


def test_schema_dict_round_trip():
    schema = small_schema()
    assert schema_from_dict(schema_to_dict(schema)) == schema
    with pytest.raises(ValueError):
        schema_from_dict({"nope": []})


def test_default_schema_shape():
    schema = RESTAURANT_SCHEMA
    assert len(schema) == 8
    assert schema.attribute("name").kind == KIND_DELEXICALIZED
    assert schema.attribute("familyFriendly").lexicon


# ── meaning representations ──────────────────────────────────────────────────


def test_validate_mr_accepts_valid_assignments():
    schema = small_schema()
    validate_mr(MeaningRepresentation({"area": "riverside", "name": "rose cottage"}), schema)
    validate_mr(MeaningRepresentation({}), schema)


def test_validate_mr_rejects_unknown_attribute_and_value():
    schema = small_schema()
    with pytest.raises(ValueError):
        validate_mr(MeaningRepresentation({"food": "english"}), schema)
    with pytest.raises(ValueError):
        validate_mr(MeaningRepresentation({"area": "desert"}), schema)
    with pytest.raises(ValueError):
        validate_mr(MeaningRepresentation({"name": ""}), schema)


def test_mr_without_and_contains():
    mr = MeaningRepresentation({"area": "riverside", "priceRange": "cheap"})
    reduced = mr.without("area")
    assert "area" not in reduced and "priceRange" in reduced
    assert mr == MeaningRepresentation({"priceRange": "cheap", "area": "riverside"})
    assert mr.get("area") == "riverside"
    assert mr.get("food") is None


# ── linearization ────────────────────────────────────────────────────────────


def test_linearize_single_attribute():
    schema = small_schema()
    vocab = Vocabulary.build(schema.tokens())
    seq = linearize_mr(MeaningRepresentation({"area": "riverside"}), schema, vocab)
    assert seq.ids == (vocab.id("area"), vocab.id("riverside"), SEP_ID)


def test_linearize_empty_mr_is_just_sep():
    schema = small_schema()
    vocab = Vocabulary.build(schema.tokens())
    assert linearize_mr(MeaningRepresentation({}), schema, vocab).ids == (SEP_ID,)


def test_linearize_follows_schema_order_not_assignment_order():
    schema = small_schema()
    vocab = Vocabulary.build(schema.tokens())
    a = linearize_mr(
        MeaningRepresentation({"priceRange": "cheap", "area": "riverside"}), schema, vocab
    )
    b = linearize_mr(
        MeaningRepresentation({"area": "riverside", "priceRange": "cheap"}), schema, vocab
    )
    assert a == b
    assert a.ids.index(vocab.id("area")) < a.ids.index(vocab.id("pricerange"))


def test_linearize_is_injective_over_distinct_mrs():
    schema = small_schema()
    vocab = Vocabulary.build(schema.tokens())
    mrs = [
        MeaningRepresentation({}),
        MeaningRepresentation({"area": "riverside"}),
        MeaningRepresentation({"area": "city centre"}),
        MeaningRepresentation({"priceRange": "cheap"}),
        MeaningRepresentation({"area": "riverside", "priceRange": "cheap"}),
        MeaningRepresentation({"familyFriendly": "yes"}),
    ]
    seen = {linearize_mr(mr, schema, vocab).ids for mr in mrs}
    assert len(seen) == len(mrs)


def test_linearize_maps_one_mr_through_each_vocabularys_own_ids():
    schema = small_schema()
    plain = Vocabulary.build(schema.tokens())
    shifted = Vocabulary.build(schema.tokens() + ["aardvark", "abacus"])
    mr = MeaningRepresentation({"area": "city centre", "priceRange": "cheap"})
    words = ["area", "city", "centre", "pricerange", "cheap"]
    for vocab in (plain, shifted, plain):
        expected = tuple(vocab.id(w) for w in words) + (SEP_ID,)
        assert linearize_mr(mr, schema, vocab).ids == expected
    assert linearize_mr(mr, schema, plain) != linearize_mr(mr, schema, shifted)


def test_linearize_unknown_token_is_unbuildable():
    schema = small_schema()
    vocab = Vocabulary.build(schema.tokens())
    with pytest.raises(UnbuildableContextError, match="unbuildable context"):
        linearize_mr(MeaningRepresentation({"name": "rose cottage"}), schema, vocab)


# ── package surface ──────────────────────────────────────────────────────────


def test_every_exported_name_resolves_and_the_list_is_sorted():
    assert [name for name in praggen.__all__ if not hasattr(praggen, name)] == []
    assert praggen.__all__ == sorted(praggen.__all__)


def test_no_module_imports_an_unused_name():
    """Every name a module imports is read somewhere in that module; the
    package ``__init__`` only re-exports, so it is left out."""
    unused = []
    for path in sorted(Path(praggen.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []
