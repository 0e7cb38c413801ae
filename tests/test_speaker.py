import math
import random

import numpy as np
import pytest

from praggen.core import (
    BOS_ID,
    EOS_ID,
    SEP_ID,
    UNK_ID,
    MeaningRepresentation,
    TokenSequence,
    Vocabulary,
    linearize_mr,
    log_softmax,
)
import praggen.speaker as speaker_module
from praggen.speaker import (
    NGramSpeaker,
    load_speaker,
    save_speaker,
    train_ngram_speaker,
)

from support import reference_ngram_row
from test_core import small_schema


def tiny_vocab():
    return Vocabulary.build(["a", "b"])


def two_pair_model(k=0.1, order=2, copy_bonus=0.0):
    """Two pairs over {a, b}; counts are small enough to enumerate by hand."""
    vocab = tiny_vocab()
    a, b = vocab.id("a"), vocab.id("b")
    pairs = [
        ((a,), TokenSequence([a, b])),
        ((b,), TokenSequence([b])),
    ]
    model = train_ngram_speaker(pairs, order, k, vocab=vocab, copy_bonus=copy_bonus)
    return model, vocab, a, b


# ── training counts ──────────────────────────────────────────────────────────


def test_bigram_counts_match_hand_enumeration():
    """Every (history, next) pair from [ctx; BOS; output; EOS], output side only.

    Pair 1 trains over [a BOS a b EOS], pair 2 over [b BOS b EOS]; walking
    the output positions by hand gives exactly four transitions.
    """
    model, vocab, a, b = two_pair_model()
    assert model.counts == {
        (BOS_ID,): {a: 1, b: 1},
        (a,): {b: 1},
        (b,): {EOS_ID: 2},
    }


def test_bigram_conditional_cells_match_smoothing_formula():
    # cell = (c + k) / (total + k|V|), checked for every (history, token)
    k = 0.1
    model, vocab, a, b = two_pair_model(k=k)
    v = len(vocab)
    hand_counts = {
        (BOS_ID,): {a: 1, b: 1},
        (a,): {b: 1},
        (b,): {EOS_ID: 2},
    }
    for history, row in hand_counts.items():
        prefix = () if history == (BOS_ID,) else history
        probs = np.exp(model.step_logprobs_ctx((), prefix))
        total = sum(row.values())
        for tok in range(v):
            expected = (row.get(tok, 0) + k) / (total + k * v)
            assert probs[tok] == pytest.approx(expected, abs=1e-12)


def test_single_pair_seen_history_smoothing():
    vocab = tiny_vocab()
    a = vocab.id("a")
    model = train_ngram_speaker([((), TokenSequence([a]))], 2, 0.5, vocab=vocab)
    # history (a,) saw exactly one continuation (EOS): c = total = 1
    probs = np.exp(model.step_logprobs_ctx((), (a,)))
    v = len(vocab)
    assert probs[EOS_ID] == pytest.approx((1 + 0.5) / (1 + 0.5 * v), abs=1e-12)
    assert probs[a] == pytest.approx(0.5 / (1 + 0.5 * v), abs=1e-12)


def test_unseen_history_is_uniform():
    model, vocab, a, b = two_pair_model()
    probs = np.exp(model.step_logprobs_ctx((), (UNK_ID,)))
    assert np.allclose(probs, 1.0 / len(vocab), atol=1e-12)


def test_observe_skips_transitions_inside_the_context():
    """Only output positions contribute counts; the context is never a target."""
    vocab = Vocabulary.build(["a", "b", "x", "y", "z"])
    x, y, z = vocab.id("x"), vocab.id("y"), vocab.id("z")
    model = train_ngram_speaker(
        [((x, y, SEP_ID), TokenSequence([z]))], 3, 0.1, vocab=vocab
    )
    assert set(model.counts) == {(SEP_ID, BOS_ID), (BOS_ID, z)}
    assert (x, y) not in model.counts


def test_context_reaches_across_bos_into_the_input_tail():
    vocab = Vocabulary.build(["a", "b", "x", "y", "z"])
    x, z = vocab.id("x"), vocab.id("z")
    model = train_ngram_speaker([((x,), TokenSequence([z]))], 3, 0.1, vocab=vocab)
    # scoring the first output token uses the window (input-tail, BOS)
    assert model.counts[(x, BOS_ID)] == {z: 1}


def test_training_validation_errors():
    vocab = tiny_vocab()
    with pytest.raises(ValueError, match="empty"):
        train_ngram_speaker([], 2, 0.1, vocab=vocab)
    with pytest.raises(ValueError):
        NGramSpeaker(order=1, k=0.1, vocab=vocab)
    with pytest.raises(ValueError):
        NGramSpeaker(order=2, k=0.0, vocab=vocab)
    with pytest.raises(ValueError):
        NGramSpeaker(order=2, k=0.1, vocab=vocab, copy_bonus=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            NGramSpeaker(order=2, k=bad, vocab=vocab)
        with pytest.raises(ValueError, match="finite"):
            NGramSpeaker(order=2, k=0.1, vocab=vocab, copy_bonus=bad)


# ── context resolution ───────────────────────────────────────────────────────


def test_context_ids_accepts_mr_sequence_and_tuple():
    schema = small_schema()
    vocab = Vocabulary.build(schema.tokens() + ["hello"])
    model = NGramSpeaker(order=2, k=0.1, vocab=vocab, schema=schema)
    mr = MeaningRepresentation({"area": "riverside"})
    assert model.context_ids(mr) == linearize_mr(mr, schema, vocab).ids
    assert model.context_ids((3, 4)) == (3, 4)
    assert model.context_ids([3, 4]) == (3, 4)
    for unsupported in ("raw text", TokenSequence([7, EOS_ID])):
        with pytest.raises(TypeError):
            model.context_ids(unsupported)


def test_mr_context_requires_schema():
    model = NGramSpeaker(order=2, k=0.1, vocab=tiny_vocab())
    with pytest.raises(ValueError, match="schema"):
        model.context_ids(MeaningRepresentation({"area": "riverside"}))


# ── scoring invariants ───────────────────────────────────────────────────────


def test_step_vectors_normalize_and_repeat_bitwise():
    model, vocab, a, b = two_pair_model()
    rng = random.Random(5)
    for _ in range(50):
        prefix = tuple(rng.choices([a, b], k=rng.randrange(4)))
        first = model.step_logprobs_ctx((a,), prefix)
        again = model.step_logprobs_ctx((a,), prefix)
        assert np.array_equal(first, again)
        assert abs(np.exp(first).sum() - 1.0) < 1e-9


def test_step_vectors_are_immutable():
    model, vocab, a, b = two_pair_model()
    vec = model.step_logprobs_ctx((a,), ())
    with pytest.raises(ValueError):
        vec[0] = 0.0


def test_increasing_k_drives_conditionals_toward_uniform():
    vocab = tiny_vocab()
    a, b = vocab.id("a"), vocab.id("b")
    pairs = [((a,), TokenSequence([a, a, b]))]
    uniform = np.full(len(vocab), 1.0 / len(vocab))
    divergences = []
    for k in (0.01, 0.1, 1.0, 10.0, 100.0):
        model = train_ngram_speaker(pairs, 2, k, vocab=vocab)
        probs = np.exp(model.step_logprobs_ctx((a,), (a,)))
        divergences.append(float(np.sum(probs * np.log(probs / uniform))))
    assert all(x > y for x, y in zip(divergences, divergences[1:]))


# ── sequence scoring ─────────────────────────────────────────────────────────


def test_sequence_logprob_of_empty_output():
    k = 0.1
    model, vocab, a, b = two_pair_model(k=k)
    v = len(vocab)
    got = model.step_logprobs_ctx(model.context_ids(()), ())[EOS_ID]
    # history (BOS,) has total 2 and no EOS observations
    assert got == pytest.approx(math.log(k / (2 + k * v)), abs=1e-12)


def test_sequence_logprob_matches_hand_product():
    k = 0.1
    model, vocab, a, b = two_pair_model(k=k)
    v = len(vocab)
    ctx = model.context_ids(())
    got = [model.step_logprobs_ctx(ctx, prefix)[tok]
           for prefix, tok in (((), a), ((a,), b), ((a, b), EOS_ID))]
    hand = [
        math.log((1 + k) / (2 + k * v)),  # a after (BOS,)
        math.log((1 + k) / (1 + k * v)),  # b after (a,)
        math.log((2 + k) / (2 + k * v)),  # EOS after (b,)
    ]
    assert got == pytest.approx(hand, abs=1e-12)


# ── copy bonus ───────────────────────────────────────────────────────────────


def test_copy_bonus_zero_is_the_plain_model():
    plain, vocab, a, b = two_pair_model(copy_bonus=0.0)
    bonused, _, _, _ = two_pair_model(copy_bonus=1.0)
    prefix = (a,)
    assert not np.array_equal(
        plain.step_logprobs_ctx((a,), prefix),
        bonused.step_logprobs_ctx((a,), prefix),
    )
    rebuilt, _, _, _ = two_pair_model(copy_bonus=0.0)
    assert np.array_equal(
        plain.step_logprobs_ctx((a,), prefix),
        rebuilt.step_logprobs_ctx((a,), prefix),
    )


def test_copy_bonus_rows_still_normalize():
    model, vocab, a, b = two_pair_model(copy_bonus=2.0)
    for prefix in ((), (a,), (b, a)):
        vec = model.step_logprobs_ctx((a, b), prefix)
        assert abs(np.exp(vec).sum() - 1.0) < 1e-9


def test_copy_bonus_lifts_exactly_the_context_tokens():
    beta = 1.5
    plain, vocab, a, b = two_pair_model(copy_bonus=0.0)
    bonused, _, _, _ = two_pair_model(copy_bonus=beta)
    prefix = ()
    base = np.exp(plain.step_logprobs_ctx((a,), prefix))
    lifted = np.exp(bonused.step_logprobs_ctx((a,), prefix))
    ratios = lifted / base
    assert ratios[a] == pytest.approx(math.exp(beta) * ratios[b], rel=1e-9)
    assert ratios[EOS_ID] == pytest.approx(ratios[b], rel=1e-9)


def test_copy_bonus_never_boosts_sep():
    beta = 1.5
    plain, vocab, a, b = two_pair_model(copy_bonus=0.0)
    bonused, _, _, _ = two_pair_model(copy_bonus=beta)
    ctx = (a, SEP_ID)
    base = np.exp(plain.step_logprobs_ctx(ctx, ()))
    lifted = np.exp(bonused.step_logprobs_ctx(ctx, ()))
    ratios = lifted / base
    assert ratios[SEP_ID] == pytest.approx(ratios[b], rel=1e-9)
    assert ratios[a] == pytest.approx(math.exp(beta) * ratios[b], rel=1e-9)


# ── block rows ───────────────────────────────────────────────────────────────


@pytest.mark.parametrize("copy_bonus", [0.0, 1.0])
@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_block_rows_equal_single_rows_bit_for_bit(order, copy_bonus, monkeypatch):
    rng = random.Random(order)
    vocab = Vocabulary.build([f"w{i}" for i in range(8)])
    words = [vocab.id(f"w{i}") for i in range(8)]
    # The last two words never occur in training, so windows holding them
    # are unseen histories.
    pairs = [
        (
            tuple(rng.choices(words[:6], k=rng.randint(1, 4))),
            TokenSequence(rng.choices(words[:6], k=rng.randint(0, 5))),
        )
        for _ in range(60)
    ]
    model = train_ngram_speaker(pairs, order, 0.3, vocab=vocab, copy_bonus=copy_bonus)
    contexts = [pairs[0][0], pairs[1][0], (words[6], SEP_ID, words[7])]
    # Prefixes from empty to longer than the window, seen and unseen.
    prefixes = [()] + [
        tuple(rng.choices(words, k=n)) for n in range(1, 7) for _ in range(4)
    ] + [o.ids[:n] for _, o in pairs[:6] for n in range(len(o.ids) + 1)]
    # The stack normalized up front and the one normalized row by row give
    # the same rows, and base rows that are their first column normalized.
    for eager_size in (math.inf, 0):
        monkeypatch.setattr(speaker_module, "EAGER_STACK_SIZE", eager_size)
        block, base = model.row_source(contexts)(prefixes)
        assert block.shape == (len(prefixes), len(contexts), len(vocab))
        assert base.tobytes() == log_softmax(block[:, 0]).tobytes()
        seen = set()
        for prefix, rows in zip(prefixes, block):
            for ctx, row in zip(contexts, rows):
                want = reference_ngram_row(model, ctx, prefix)
                assert row.tobytes() == want.tobytes()
                assert model.step_logprobs_ctx(ctx, prefix).tobytes() == want.tobytes()
                seen.add((ctx + (BOS_ID,) + prefix)[-(order - 1):] in model.counts)
        assert seen == {True, False}


def test_training_after_scoring_rebuilds_the_rows():
    model, vocab, a, b = two_pair_model()
    before = model.step_logprobs_ctx((a,), (a,))
    model.observe((a,), TokenSequence([a, a]))
    after = model.step_logprobs_ctx((a,), (a,))
    assert after.tobytes() == reference_ngram_row(model, (a,), (a,)).tobytes()
    assert after.tobytes() != before.tobytes()


# ── serialization ────────────────────────────────────────────────────────────


def test_ngram_round_trip_preserves_scores(tmp_path):
    model, vocab, a, b = two_pair_model(k=0.25, copy_bonus=1.0)
    path = tmp_path / "speaker.json"
    save_speaker(model, path)
    loaded = load_speaker(path)
    assert loaded.order == model.order
    assert loaded.k == model.k
    assert loaded.copy_bonus == model.copy_bonus
    assert loaded.counts == model.counts
    assert loaded.vocab.tokens == vocab.tokens
    for prefix in ((), (a, b)):
        assert np.array_equal(
            loaded.step_logprobs_ctx((a,), prefix),
            model.step_logprobs_ctx((a,), prefix),
        )


def test_retraining_writes_identical_bytes(tmp_path):
    first, _, _, _ = two_pair_model()
    second, _, _, _ = two_pair_model()
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    save_speaker(first, p1)
    save_speaker(second, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_unknown_type(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"type":"transformer"}', encoding="utf-8")
    with pytest.raises(ValueError, match="unknown speaker"):
        load_speaker(path)
