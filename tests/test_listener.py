import json
import math
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from praggen.core import (
    EOS_ID,
    KIND_CATEGORICAL,
    KIND_DELEXICALIZED,
    NAME_PLACEHOLDER,
    AttributeSchema,
    AttributeSpec,
    MeaningRepresentation,
    TokenSequence,
    Vocabulary,
    normalize_words,
    tokenize,
)
from praggen.listener import (
    ABSENT_CLASS,
    AttributeClassifierListener,
    load_listener,
    save_listener,
    train_attribute_listener,
)
from praggen.data import (
    RESTAURANT_SCHEMA,
    build_corpus_vocabulary,
    delexicalize,
    generate_corpus,
)
from support import (
    listener_count_dicts,
    logsumexp,
    meaning_representations,
    reference_listener_counts,
    reference_reconstruction_logprob,
    token_sequences,
)


def area_price_schema():
    return AttributeSchema(
        attributes=(
            AttributeSpec("area", KIND_CATEGORICAL, ("riverside", "city centre")),
            AttributeSpec("priceRange", KIND_CATEGORICAL, ("cheap", "high")),
        )
    )


def toy_setup():
    """Two training pairs whose counts fit on the back of an envelope."""
    schema = area_price_schema()
    vocab = Vocabulary.build(schema.tokens() + ["spot", "nice"])
    pairs = [
        (
            MeaningRepresentation({"area": "riverside", "priceRange": "cheap"}),
            tokenize("riverside cheap", vocab),
        ),
        (
            MeaningRepresentation({"area": "city centre"}),
            tokenize("city cheap", vocab),
        ),
    ]
    listener = train_attribute_listener(pairs, schema, k=0.5, vocab=vocab)
    return schema, vocab, pairs, listener


def hand_posterior(listener, attribute, bag):
    """Closed-form naive Bayes over the listener's raw counts."""
    classes = listener.classes[attribute]
    k = listener.k
    v = len(listener.vocab)
    class_counts, token_counts = listener_count_dicts(listener)
    n = sum(class_counts[attribute].values())
    scores = []
    for cls in classes:
        row = token_counts[attribute][cls]
        total = sum(row.values())
        s = math.log((class_counts[attribute][cls] + k) / (n + k * len(classes)))
        for tok in bag:
            s += math.log((row.get(tok, 0) + k) / (total + k * v))
        scores.append(s)
    z = logsumexp(scores)
    return [s - z for s in scores]


# ── classifier listener ──────────────────────────────────────────────────────


def test_posteriors_match_closed_form_for_every_class():
    schema, vocab, pairs, listener = toy_setup()
    for text in ("riverside cheap", "city cheap", "nice spot", "high"):
        bag = list(tokenize(text, vocab).ids)
        for spec in schema:
            got = listener.class_log_posteriors(spec.name, tokenize(text, vocab))
            want = hand_posterior(listener, spec.name, bag)
            assert np.allclose(got, want, atol=1e-12)


def test_joint_matches_hand_computed_product():
    schema, vocab, pairs, listener = toy_setup()
    output = tokenize("riverside cheap", vocab)
    mr = MeaningRepresentation({"area": "riverside", "priceRange": "cheap"})
    bag = list(output.ids)
    want = (
        hand_posterior(listener, "area", bag)[0]
        + hand_posterior(listener, "priceRange", bag)[0]
    )
    assert listener.reconstruction_logprob(mr, output) == pytest.approx(want, abs=1e-12)


def test_discriminative_token_raises_its_class_posterior():
    schema, vocab, pairs, listener = toy_setup()
    with_token = listener.class_log_posteriors("area", tokenize("riverside spot", vocab))
    without = listener.class_log_posteriors("area", tokenize("nice spot", vocab))
    assert with_token[0] > without[0]


def test_prior_dominance_on_degenerate_corpus():
    schema = area_price_schema()
    vocab = Vocabulary.build(schema.tokens() + ["spot"])
    pairs = [
        (MeaningRepresentation({"area": "riverside"}), tokenize("spot", vocab))
        for _ in range(4)
    ]
    listener = train_attribute_listener(pairs, schema, k=0.5, vocab=vocab)
    for text in ("spot", "city centre", "high cheap"):
        post = np.exp(listener.class_log_posteriors("area", tokenize(text, vocab)))
        assert post[0] >= post[1] and post[0] >= post[2]


def test_unseen_token_preserves_ratio_between_equal_mass_classes():
    # both area values saw exactly two tokens, so a never-seen token has the
    # same smoothed likelihood under each and cannot move their odds
    schema, vocab, pairs, listener = toy_setup()
    base = listener.class_log_posteriors("area", tokenize("riverside cheap", vocab))
    extended = listener.class_log_posteriors("area", tokenize("riverside cheap nice", vocab))
    assert extended[0] - extended[1] == pytest.approx(base[0] - base[1], abs=1e-12)


def test_untrained_single_attribute_posterior_is_uniform():
    schema = AttributeSchema(
        attributes=(AttributeSpec("area", KIND_CATEGORICAL, ("riverside", "city centre")),)
    )
    vocab = Vocabulary.build(schema.tokens())
    listener = AttributeClassifierListener(schema, vocab, k=0.5)
    mr = MeaningRepresentation({"area": "riverside"})
    # classes: two values plus absent
    got = listener.reconstruction_logprob(mr, tokenize("riverside", vocab))
    assert got == pytest.approx(math.log(1.0 / 3.0), abs=1e-12)


def test_joint_is_additive_over_attributes():
    schema, vocab, pairs, listener = toy_setup()
    output = tokenize("city cheap", vocab)
    mr = MeaningRepresentation({"area": "city centre"})
    per_attr = {
        "area": listener.class_log_posteriors("area", output)[1],
        "priceRange": listener.class_log_posteriors("priceRange", output)[2],
    }
    assert listener.reconstruction_logprob(mr, output) == pytest.approx(
        sum(per_attr.values()), abs=1e-12
    )


def test_joint_normalizes_over_all_complete_mrs():
    schema, vocab, pairs, listener = toy_setup()
    output = tokenize("riverside nice", vocab)
    total = 0.0
    options = [tuple(spec.values) + (None,) for spec in schema]
    for combo in product(*options):
        assignments = {
            spec.name: value
            for spec, value in zip(schema, combo)
            if value is not None
        }
        total += math.exp(
            listener.reconstruction_logprob(MeaningRepresentation(assignments), output)
        )
    assert abs(total - 1.0) < 1e-6


def test_bag_ignores_structural_tokens():
    schema, vocab, pairs, listener = toy_setup()
    plain = tokenize("riverside cheap", vocab)
    wrapped = TokenSequence(tuple(plain.ids) + (EOS_ID,))
    mr = MeaningRepresentation({"area": "riverside"})
    assert listener.reconstruction_logprob(mr, plain) == listener.reconstruction_logprob(
        mr, wrapped
    )


def synth_listener_cases():
    """A listener trained on a synth corpus, and (MR, output) cases for it:
    every record's MR against its own and two other references, then random
    bags of every length, structural ids included, against random MRs of
    the corpus."""
    schema = RESTAURANT_SCHEMA
    records = [delexicalize(r, schema) for r in generate_corpus(300, 17, 0.1)]
    vocab = build_corpus_vocabulary([normalize_words(r.reference) for r in records], schema)
    pairs = [(r.mr, tokenize(r.reference, vocab)) for r in records]
    listener = train_attribute_listener(pairs, schema, k=0.5, vocab=vocab)
    rng = random.Random(3)
    cases = [(pairs[i][0], pairs[j][1]) for i in range(60) for j in (i, i + 1, i + 7)]
    others = [i for i in range(len(vocab)) if i != EOS_ID]
    for length in range(41):
        ids = [rng.choice(others) for _ in range(length)] + [EOS_ID] * (length % 2)
        cases.append((rng.choice(pairs)[0], TokenSequence(ids)))
    return listener, cases


def test_scores_match_the_per_attribute_reference_bit_for_bit():
    listener, cases = synth_listener_cases()
    for mr, output in cases:
        got = listener.reconstruction_logprob(mr, output)
        want = reference_reconstruction_logprob(listener, mr, output)
        assert got.hex() == want.hex()


def test_score_is_the_schema_order_sum_of_class_posteriors_bit_for_bit():
    listener, cases = synth_listener_cases()
    for mr, output in cases:
        total = 0.0
        for spec in listener.schema:
            classes = listener.classes[spec.name]
            value = mr.get(spec.name)
            at = classes.index(ABSENT_CLASS if value is None else value)
            total += float(listener.class_log_posteriors(spec.name, output)[at])
        assert listener.reconstruction_logprob(mr, output).hex() == total.hex()


TRAINING_SCHEMA = AttributeSchema(
    attributes=(
        AttributeSpec("name", KIND_DELEXICALIZED, (NAME_PLACEHOLDER,)),
        *area_price_schema().attributes,
    )
)
TRAINING_VOCAB = Vocabulary.build(TRAINING_SCHEMA.tokens() + ["spot"])


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.tuples(meaning_representations(TRAINING_SCHEMA), token_sequences(len(TRAINING_VOCAB))),
    min_size=1, max_size=8,
))
def test_training_counts_equal_the_per_pair_walk(pairs):
    # Outputs hold structural ids too, which stay out of the bags.
    listener = train_attribute_listener(pairs, TRAINING_SCHEMA, k=0.5, vocab=TRAINING_VOCAB)
    assert listener_count_dicts(listener) == reference_listener_counts(listener, pairs)


def test_reconstruction_scores_are_nonpositive():
    schema, vocab, pairs, listener = toy_setup()
    for mr, output in pairs:
        assert listener.reconstruction_logprob(mr, output) <= 0.0


def test_listener_validation_errors():
    schema, vocab, pairs, listener = toy_setup()
    with pytest.raises(ValueError, match="not a listener class"):
        listener.reconstruction_logprob(
            MeaningRepresentation({"area": "moon"}), tokenize("spot", vocab)
        )
    with pytest.raises(TypeError):
        listener.reconstruction_logprob((1, 2), tokenize("spot", vocab))
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            AttributeClassifierListener(schema, vocab, k=bad)
    with pytest.raises(ValueError, match="empty"):
        train_attribute_listener([], schema, k=0.5, vocab=vocab)
    outside = [(pairs[0][0], TokenSequence([len(vocab)]))]
    with pytest.raises(ValueError, match="outside the vocabulary"):
        train_attribute_listener(outside, schema, k=0.5, vocab=vocab)


def test_delexicalized_attribute_uses_placeholder_class():
    schema = AttributeSchema(
        attributes=(
            AttributeSpec("name", KIND_DELEXICALIZED, (NAME_PLACEHOLDER,)),
            AttributeSpec("area", KIND_CATEGORICAL, ("riverside", "city centre")),
        )
    )
    vocab = Vocabulary.build(schema.tokens() + ["spot"])
    pairs = [
        (
            MeaningRepresentation({"name": NAME_PLACEHOLDER, "area": "riverside"}),
            tokenize("NAME_PLH riverside spot", vocab),
        ),
        (MeaningRepresentation({}), tokenize("spot", vocab)),
    ]
    listener = train_attribute_listener(pairs, schema, k=0.5, vocab=vocab)
    assert listener.classes["name"] == (NAME_PLACEHOLDER, ABSENT_CLASS)
    present = listener.class_log_posteriors("name", tokenize("NAME_PLH spot", vocab))
    absent = listener.class_log_posteriors("name", tokenize("spot", vocab))
    assert present[0] > absent[0]


# ── serialization ────────────────────────────────────────────────────────────


def test_attribute_listener_round_trip(tmp_path):
    schema, vocab, pairs, listener = toy_setup()
    path = tmp_path / "listener.json"
    save_listener(listener, path)
    loaded = load_listener(path)
    output = tokenize("riverside cheap", vocab)
    for spec in schema:
        assert np.array_equal(
            loaded.class_log_posteriors(spec.name, output),
            listener.class_log_posteriors(spec.name, output),
        )
    trained = path.read_bytes()
    save_listener(loaded, path)
    assert path.read_bytes() == trained
    # An explicit zero token count in a hand-written file scores as an
    # absent one, and the listener saves it absent.
    payload = json.loads(trained)
    payload["token_counts"]["area"]["riverside"][str(vocab.id("nice"))] = 0
    path.write_text(json.dumps(payload), encoding="utf-8")
    zeroed = load_listener(path)
    for spec in schema:
        assert np.array_equal(
            zeroed.class_log_posteriors(spec.name, output),
            listener.class_log_posteriors(spec.name, output),
        )
    save_listener(zeroed, path)
    assert path.read_bytes() == trained


def test_attribute_listener_serialization_is_deterministic(tmp_path):
    schema, vocab, pairs, listener = toy_setup()
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    save_listener(listener, p1)
    save_listener(listener, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_listener_load_refuses_another_schema(tmp_path):
    schema, vocab, pairs, listener = toy_setup()
    save_listener(listener, tmp_path / "l.json")
    reordered = AttributeSchema(attributes=tuple(reversed(schema.attributes)))
    with pytest.raises(ValueError, match="listener schema differs from the given schema"):
        load_listener(tmp_path / "l.json", schema=reordered)


def test_load_rejects_unknown_listener_type(tmp_path):
    path = tmp_path / "weird.json"
    path.write_text('{"type":"neural"}', encoding="utf-8")
    with pytest.raises(ValueError, match="unknown listener"):
        load_listener(path)
