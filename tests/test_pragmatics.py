import copy
import math
import random
from collections import Counter
from functools import partial
from itertools import product

import numpy as np
import pytest

from praggen.cli import main as cli_main
from praggen.core import BOS_ID, TokenSequence, load_schema, log_softmax
from praggen.data import delexicalize, read_jsonl
from praggen.pragmatics import (
    MODE_BASE,
    MODE_DISTRACTOR,
    MODE_RECONSTRUCTOR,
    BeliefCollapseError,
    BeliefState,
    DecodeConfig,
    ScoredCandidate,
    beam_search,
    belief_update,
    distractor_step_scores,
    generate,
    pragmatic_decode_distractor,
    rerank_reconstructor,
    _beam_decode,
    _pragmatic_block,
)
import praggen.speaker as speaker_module
from praggen.speaker import SpeakerModel, load_speaker

from support import (
    TabularListener,
    TabularSpeaker,
    all_prefixes,
    best_base_sequence,
    best_distractor_sequence,
    candidate_universe,
    distractor_sequence_score,
    log_softmax_row,
    logsumexp,
    random_speaker,
    reference_beam_decode,
    reference_ngram_row,
    reference_pragmatic_block,
    stationary_tables,
)

# micro geometry: content tokens {0, 1}, terminator 2, short horizon
V = 3
EOS = 2
MAXLEN = 3
EXHAUSTIVE = DecodeConfig(beam_size=27, max_len=MAXLEN, mode=MODE_BASE)


def seq(*ids):
    return TokenSequence(ids, eos_id=EOS)


def two_sided_speaker(seed):
    rng = random.Random(seed)
    return random_speaker(rng, [(0,), (1,)], V, EOS, MAXLEN)


def contrast_speaker():
    """Stationary two-input speaker with the hand-checked 3/7, 4/7 geometry."""
    dists = {(0,): [0.6, 0.4], (1,): [0.9, 0.1]}
    tables = stationary_tables(dists, 2, 9, 2)
    return TabularSpeaker(tables, 2, 9)


# ── configuration objects ────────────────────────────────────────────────────


def test_decode_config_validation():
    with pytest.raises(ValueError, match="beam_size"):
        DecodeConfig(beam_size=0)
    with pytest.raises(ValueError, match="max_len"):
        DecodeConfig(max_len=0)
    with pytest.raises(ValueError, match="lambda_"):
        DecodeConfig(lambda_=-0.1)
    with pytest.raises(ValueError, match="lambda_"):
        DecodeConfig(lambda_=1.1)
    for alpha in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="alpha"):
            DecodeConfig(alpha=alpha)
    with pytest.raises(ValueError, match="mode"):
        DecodeConfig(mode="oracle")


def test_scored_candidate_requires_paired_scores():
    out = seq(0, EOS)
    ScoredCandidate(output=out, base_logprob=-1.0)
    ScoredCandidate(output=out, base_logprob=-1.0, listener_logprob=-2.0, combined_score=-1.5)
    with pytest.raises(ValueError, match="together"):
        ScoredCandidate(output=out, base_logprob=-1.0, listener_logprob=-2.0)
    with pytest.raises(ValueError, match="together"):
        ScoredCandidate(output=out, base_logprob=-1.0, combined_score=-1.5)


def test_belief_state_validation():
    with pytest.raises(ValueError, match="two inputs"):
        BeliefState(((0,),), (0.0,))
    with pytest.raises(ValueError, match="lengths"):
        BeliefState(((0,), (1,)), (math.log(0.5),))
    with pytest.raises(ValueError, match="normalized"):
        BeliefState(((0,), (1,)), (math.log(0.5), math.log(0.9)))
    uniform = BeliefState.uniform(((0,), (1,), (2,)))
    assert uniform.log_beliefs == (-math.log(3),) * 3


# ── closed forms ─────────────────────────────────────────────────────────────


def test_first_step_pragmatic_distribution_is_three_sevenths():
    speaker = contrast_speaker()
    belief = BeliefState.uniform(((0,), (1,)))
    scores = distractor_step_scores(speaker, belief, 0, seq(), 1.0)
    probs = np.exp(scores)
    assert abs(probs[0] - 3.0 / 7.0) < 1e-9
    assert abs(probs[1] - 4.0 / 7.0) < 1e-9


def test_belief_after_first_token_is_two_fifths():
    speaker = contrast_speaker()
    belief = BeliefState.uniform(((0,), (1,)))
    updated = belief_update(belief, speaker, seq(), 0)
    probs = [math.exp(b) for b in updated.log_beliefs]
    assert abs(probs[0] - 0.4) < 1e-9
    assert abs(probs[1] - 0.6) < 1e-9


def test_pragmatic_weight_monotonically_favors_the_discriminative_token():
    speaker = contrast_speaker()
    belief = BeliefState.uniform(((0,), (1,)))
    masses = []
    for alpha in (0.0, 0.5, 1.0, 2.0, 4.0):
        scores = distractor_step_scores(speaker, belief, 0, seq(), alpha)
        masses.append(math.exp(scores[1]))
    assert all(b > a for a, b in zip(masses, masses[1:]))
    assert abs(masses[0] - 0.4) < 1e-12


# ── belief machinery ─────────────────────────────────────────────────────────


def test_folded_beliefs_match_direct_product():
    speaker = two_sided_speaker(31)
    inputs = [(0,), (1,)]
    prefix_ids = (0, 1)
    belief = BeliefState.uniform(inputs)
    for t, tok in enumerate(prefix_ids):
        belief = belief_update(belief, speaker, seq(*prefix_ids[:t]), tok)
    direct = []
    for inp in inputs:
        total = -math.log(len(inputs))
        for t, tok in enumerate(prefix_ids):
            total += speaker.tables[inp][prefix_ids[:t]][tok]
        direct.append(total)
    z = logsumexp(direct)
    for got, want in zip(belief.log_beliefs, direct):
        assert got == pytest.approx(want - z, abs=1e-12)


def test_identical_inputs_leave_the_belief_uniform():
    speaker = two_sided_speaker(32)
    speaker.tables[(1,)] = speaker.tables[(0,)]
    belief = BeliefState.uniform([(0,), (1,)])
    for t, tok in enumerate((1, 0)):
        belief = belief_update(belief, speaker, seq(*(1, 0)[:t]), tok)
        assert belief.log_beliefs[0] == pytest.approx(-math.log(2), abs=1e-12)


def test_belief_collapse_raises():
    row = [math.log(0.7), -math.inf, math.log(0.3)]
    tables = {
        (0,): {p: row for p in all_prefixes(V, EOS, MAXLEN)},
        (1,): {p: row for p in all_prefixes(V, EOS, MAXLEN)},
    }
    speaker = TabularSpeaker(tables, V, EOS)
    belief = BeliefState.uniform([(0,), (1,)])
    with pytest.raises(BeliefCollapseError, match="belief collapse"):
        belief_update(belief, speaker, seq(), 1)


def test_belief_update_rejects_terminated_prefix():
    speaker = two_sided_speaker(33)
    belief = BeliefState.uniform([(0,), (1,)])
    with pytest.raises(ValueError, match="terminated"):
        belief_update(belief, speaker, seq(0, EOS), 0)


def test_step_score_validation():
    speaker = two_sided_speaker(34)
    belief = BeliefState.uniform([(0,), (1,)])
    for alpha in (-0.5, math.nan):
        with pytest.raises(ValueError, match="alpha"):
            distractor_step_scores(speaker, belief, 0, seq(), alpha)
    with pytest.raises(ValueError, match="input_index"):
        distractor_step_scores(speaker, belief, 2, seq(), 1.0)
    with pytest.raises(ValueError, match="terminated"):
        distractor_step_scores(speaker, belief, 0, seq(EOS), 1.0)


def test_zero_alpha_steps_equal_the_renormalized_base_row():
    speaker = two_sided_speaker(35)
    belief = BeliefState.uniform([(0,), (1,)])
    for prefix in ((), (0,), (1, 1)):
        got = distractor_step_scores(speaker, belief, 0, seq(*prefix), 0.0)
        want = log_softmax_row(list(speaker.tables[(0,)][prefix]))
        assert np.allclose(got, want, atol=1e-12)


def test_identical_distractor_reproduces_the_base_row_at_any_alpha():
    speaker = two_sided_speaker(36)
    speaker.tables[(1,)] = speaker.tables[(0,)]
    belief = BeliefState.uniform([(0,), (1,)])
    for alpha in (0.3, 1.0, 5.0):
        got = distractor_step_scores(speaker, belief, 0, seq(0), alpha)
        want = log_softmax_row(list(speaker.tables[(0,)][(0,)]))
        assert np.allclose(got, want, atol=1e-12)


def test_step_scores_and_updates_normalize():
    rng = random.Random(37)
    for trial in range(200):
        speaker = random_speaker(rng, [(0,), (1,)], V, EOS, MAXLEN)
        prefix = rng.choice(all_prefixes(V, EOS, MAXLEN))
        belief = BeliefState.uniform([(0,), (1,)])
        for t, tok in enumerate(prefix):
            belief = belief_update(belief, speaker, seq(*prefix[:t]), tok)
        assert abs(sum(math.exp(b) for b in belief.log_beliefs) - 1.0) < 1e-9
        scores = distractor_step_scores(
            speaker, belief, 0, seq(*prefix), rng.choice([0.0, 0.5, 2.0])
        )
        assert abs(np.exp(scores).sum() - 1.0) < 1e-9


# ── beam search ──────────────────────────────────────────────────────────────


def test_beam_search_is_deterministic():
    speaker = two_sided_speaker(40)
    first = beam_search(speaker, (0,), EXHAUSTIVE)
    second = beam_search(speaker, (0,), EXHAUSTIVE)
    assert [c.output for c in first] == [c.output for c in second]
    assert [c.base_logprob for c in first] == [c.base_logprob for c in second]


def test_beam_candidates_are_sorted_and_well_formed():
    speaker = two_sided_speaker(41)
    candidates = beam_search(speaker, (1,), EXHAUSTIVE)
    assert 0 < len(candidates) <= EXHAUSTIVE.beam_size
    keys = [(-c.base_logprob, c.output.ids) for c in candidates]
    assert keys == sorted(keys)
    for cand in candidates:
        assert cand.listener_logprob is None and cand.combined_score is None
        assert cand.output.terminated or len(cand.output) == MAXLEN
        assert EOS not in cand.output.ids[:-1]


def test_exhaustive_beam_matches_brute_force_ranking():
    for seed in range(30):
        speaker = two_sided_speaker(100 + seed)
        top = beam_search(speaker, (0,), EXHAUSTIVE)[0]
        assert top.output.ids == best_base_sequence(speaker, (0,), MAXLEN)


def test_exhaustive_beam_covers_the_whole_universe():
    speaker = two_sided_speaker(42)
    candidates = beam_search(speaker, (0,), EXHAUSTIVE)
    got = {c.output.ids for c in candidates}
    assert got == set(candidate_universe(V, EOS, MAXLEN))


def test_greedy_beam_is_stepwise_argmax():
    for seed in range(10):
        speaker = two_sided_speaker(200 + seed)
        cfg = DecodeConfig(beam_size=1, max_len=MAXLEN)
        got = beam_search(speaker, (1,), cfg)[0].output.ids
        prefix = ()
        while len(prefix) < MAXLEN:
            row = log_softmax_row(list(speaker.tables[(1,)][prefix]))
            tok = min(range(V), key=lambda t: (-row[t], t))
            prefix += (tok,)
            if tok == EOS:
                break
        assert got == prefix


def test_score_ties_break_lexicographically():
    uniform_row = [math.log(1.0 / 3.0)] * 3
    tables = {(9,): {p: uniform_row for p in all_prefixes(V, EOS, 2)}}
    speaker = TabularSpeaker(tables, V, EOS)
    cfg = DecodeConfig(beam_size=16, max_len=2)
    got = [c.output.ids for c in beam_search(speaker, (9,), cfg)]
    assert got == [(2,), (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_impossible_tokens_are_never_emitted():
    row = [math.log(0.7), -math.inf, math.log(0.3)]
    tables = {(0,): {p: row for p in all_prefixes(V, EOS, MAXLEN)}}
    speaker = TabularSpeaker(tables, V, EOS)
    candidates = beam_search(speaker, (0,), EXHAUSTIVE)
    got = {c.output.ids for c in candidates}
    assert got == {(2,), (0, 2), (0, 0, 2), (0, 0, 0)}
    assert all(math.isfinite(c.base_logprob) for c in candidates)


# ── reranking ────────────────────────────────────────────────────────────────


def test_rerank_validates_lambda():
    speaker = two_sided_speaker(50)
    candidates = beam_search(speaker, (0,), EXHAUSTIVE)
    with pytest.raises(ValueError, match="lambda_"):
        rerank_reconstructor((0,), candidates, TabularListener({}), 1.5)


def test_rerank_blends_scores_linearly():
    cand = ScoredCandidate(output=seq(0, EOS), base_logprob=-2.0)
    listener = TabularListener({((7,), (0, EOS)): -1.0})
    top = rerank_reconstructor((7,), [cand], listener, 0.4)[0]
    assert top.listener_logprob == -1.0
    assert top.combined_score == pytest.approx(-1.6, abs=1e-12)


def test_rerank_at_lambda_zero_preserves_the_base_ranking_bitwise():
    speaker = two_sided_speaker(51)
    candidates = beam_search(speaker, (0,), EXHAUSTIVE)
    rng = random.Random(0)
    listener = TabularListener(
        {((0,), c.output.ids): rng.uniform(-5, 0) for c in candidates}
    )
    reranked = rerank_reconstructor((0,), candidates, listener, 0.0)
    assert [c.output.ids for c in reranked] == [c.output.ids for c in candidates]
    for before, after in zip(candidates, reranked):
        assert after.combined_score == before.base_logprob


def test_rerank_at_lambda_one_orders_by_listener_alone():
    speaker = two_sided_speaker(52)
    candidates = beam_search(speaker, (0,), EXHAUSTIVE)
    # listener prefers exactly the reverse of the base ranking
    listener = TabularListener(
        {((0,), c.output.ids): -float(i) for i, c in enumerate(reversed(candidates))}
    )
    reranked = rerank_reconstructor((0,), candidates, listener, 1.0)
    assert [c.output.ids for c in reranked] == [
        c.output.ids for c in reversed(candidates)
    ]


def test_rerank_matches_brute_force_argmax():
    for seed in range(20):
        speaker = two_sided_speaker(300 + seed)
        candidates = beam_search(speaker, (0,), EXHAUSTIVE)
        rng = random.Random(seed)
        scores = {((0,), c.output.ids): rng.uniform(-5, 0) for c in candidates}
        listener = TabularListener(scores)
        lam = rng.choice([0.3, 0.5, 0.9])
        top = rerank_reconstructor((0,), candidates, listener, lam)[0]
        want = min(
            candidates,
            key=lambda c: (
                -(lam * scores[((0,), c.output.ids)] + (1 - lam) * c.base_logprob),
                -c.base_logprob,
                c.output.ids,
            ),
        )
        assert top.output.ids == want.output.ids


# ── distractor decoding ──────────────────────────────────────────────────────


def test_distractor_decode_requires_a_distractor():
    speaker = two_sided_speaker(60)
    with pytest.raises(ValueError, match="base mode"):
        pragmatic_decode_distractor(speaker, (0,), [], EXHAUSTIVE)


def test_distractor_decode_matches_brute_force_argmax():
    for seed in range(30):
        speaker = two_sided_speaker(400 + seed)
        alpha = random.Random(seed).choice([0.5, 1.0, 2.0])
        cfg = DecodeConfig(
            beam_size=27, max_len=MAXLEN, alpha=alpha, mode=MODE_DISTRACTOR
        )
        got = pragmatic_decode_distractor(speaker, (0,), [(1,)], cfg)
        want = best_distractor_sequence(speaker, [(0,), (1,)], alpha, MAXLEN)
        assert got.output.ids == want
        prag, base = distractor_sequence_score(speaker, [(0,), (1,)], alpha, want)
        assert got.combined_score == pytest.approx(prag, abs=1e-9)
        assert got.base_logprob == pytest.approx(base, abs=1e-9)


def test_distractor_decode_reports_the_final_belief():
    speaker = two_sided_speaker(61)
    cfg = DecodeConfig(beam_size=27, max_len=MAXLEN, alpha=1.0, mode=MODE_DISTRACTOR)
    got = pragmatic_decode_distractor(speaker, (0,), [(1,)], cfg)
    beliefs = [-math.log(2.0)] * 2
    for t, tok in enumerate(got.output.ids):
        rows = [speaker.tables[c][got.output.ids[:t]] for c in ((0,), (1,))]
        extended = [rows[j][tok] + beliefs[j] for j in range(2)]
        z = logsumexp(extended)
        beliefs = [e - z for e in extended]
    assert got.listener_logprob == pytest.approx(beliefs[0], abs=1e-9)


def test_zero_alpha_distractor_decode_equals_the_base_beam():
    for seed in range(30):
        speaker = two_sided_speaker(500 + seed)
        cfg = DecodeConfig(
            beam_size=27, max_len=MAXLEN, alpha=0.0, mode=MODE_DISTRACTOR
        )
        got = pragmatic_decode_distractor(speaker, (0,), [(1,)], cfg)
        base_top = beam_search(speaker, (0,), EXHAUSTIVE)[0]
        assert got.output.ids == base_top.output.ids
        assert got.base_logprob == base_top.base_logprob


def test_distractor_decode_avoids_impossible_tokens():
    rng = random.Random(62)
    tables = {}
    for inp in ((0,), (1,)):
        rows = {}
        for prefix in all_prefixes(V, EOS, MAXLEN):
            w0, w2 = rng.random() + 0.05, rng.random() + 0.05
            rows[prefix] = [math.log(w0 / (w0 + w2)), -math.inf, math.log(w2 / (w0 + w2))]
        tables[inp] = rows
    speaker = TabularSpeaker(tables, V, EOS)
    cfg = DecodeConfig(beam_size=27, max_len=MAXLEN, alpha=1.0, mode=MODE_DISTRACTOR)
    got = pragmatic_decode_distractor(speaker, (0,), [(1,)], cfg)
    assert 1 not in got.output.ids
    assert math.isfinite(got.combined_score)


# ── batched engine against the loop reference ───────────────────────────────


def bits(values):
    return [float(x).hex() for x in values]


def assert_same_beam(speaker, input, config, distractors=None, n_best=None):
    """The engine's best ``n_best`` hypotheses (all by default) equal those
    of the reference engine's full beam, bit for bit."""
    got = _beam_decode(speaker, input, config, distractors, n_best)
    want = reference_beam_decode(speaker, input, config, distractors)[:n_best]
    assert [h.ids for h in got] == [h.ids for h in want]
    assert bits(h.score for h in got) == bits(h.score for h in want)
    assert bits(h.base for h in got) == bits(h.base for h in want)
    assert [h.finished for h in got] == [h.finished for h in want]
    for g, w in zip(got, want):
        if distractors is None:
            assert g.beliefs is None
        else:
            assert bits(g.beliefs) == bits(w.beliefs)


@pytest.mark.parametrize("inputs", range(2, 10))
def test_pragmatic_block_matches_the_transposed_sum_bit_for_bit(inputs):
    # Below 8 inputs the block adds each token's mass left to right, the
    # order in which numpy sums a short contiguous run; a numpy that sums
    # such a run in another order fails here instead of moving the last
    # bits of written scores. Rows with tokens that every input rules out
    # take the masked path, the others the unmasked one.
    rng = np.random.default_rng(inputs)
    for rows_inf, beliefs_inf, alpha in product((False, True), (False, True), (0.0, 1.0)):
        rows = rng.normal(scale=3.0, size=(6, inputs, 40))
        beliefs = np.log(rng.dirichlet(np.ones(inputs), size=6))
        if rows_inf:
            rows[rng.random(rows.shape) < 0.3] = -math.inf
            rows[:, :, :3] = -math.inf
            rows[:, 0, 3] = 0.0
        if beliefs_inf:
            beliefs[::2, -1] = -math.inf
        got = _pragmatic_block(rows, beliefs, alpha)
        want = reference_pragmatic_block(rows, beliefs, alpha)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


def rough_speaker(rng, inputs, vocab_size, eos_id, max_len):
    """Unnormalized tables drawn from four levels, one of them -inf.

    Few distinct values make exact score ties common; every row keeps at
    least one finite entry.
    """
    levels = [math.log(0.1), math.log(0.2), math.log(0.3), -math.inf]
    tables = {}
    for inp in inputs:
        rows = {}
        for prefix in all_prefixes(vocab_size, eos_id, max_len):
            row = [rng.choice(levels) for _ in range(vocab_size)]
            if max(row) == -math.inf:
                row[rng.randrange(vocab_size)] = 0.0
            rows[prefix] = row
        tables[tuple(inp)] = rows
    return TabularSpeaker(tables, vocab_size, eos_id)


def test_engine_matches_the_reference_on_tabular_speakers():
    rng = random.Random(80)
    for trial in range(300):
        vocab_size = rng.choice([3, 4, 5])
        eos_id = rng.randrange(vocab_size)
        max_len = rng.choice([2, 3, 4])
        # Up to ten inputs, so the belief sums also run past eight terms.
        inputs = [(i,) for i in range(rng.choice([2, 3, 10]))]
        make = rough_speaker if trial % 3 else random_speaker
        speaker = make(rng, inputs, vocab_size, eos_id, max_len)
        config = DecodeConfig(
            beam_size=rng.choice([1, 2, 3, 7, 200]),
            max_len=max_len,
            alpha=rng.choice([0.0, 0.5, 1.0, 3.0]),
        )
        for n_best in (1, config.beam_size):
            assert_same_beam(speaker, inputs[0], config, n_best=n_best)
            assert_same_beam(speaker, inputs[0], config, inputs[1:], n_best)


ORDERS = (2, 3, 4, 5)


@pytest.fixture(scope="module")
def synth_models(tmp_path_factory):
    """N-gram speakers of each order in ``ORDERS``, with copy bonus, trained
    on a small synth corpus, keyed by order; and the test MRs."""
    root = tmp_path_factory.mktemp("engine")
    data = root / "data"
    sizes = ("--train-size", "400", "--dev-size", "1", "--test-size", "8")
    assert cli_main(["synth", "--out", str(data), "--seed", "17", *sizes]) == 0
    schema_path = data / "schema.json"
    for order in ORDERS:
        argv = ["train", "--data", str(data / "train.jsonl"), "--schema",
                str(schema_path), "--out", str(root / f"order{order}.json"),
                "--order", str(order), "--copy-bonus", "1.0"]
        assert cli_main(argv) == 0
    schema = load_schema(schema_path)
    speakers = {
        n: load_speaker(root / f"order{n}.json", schema=schema) for n in ORDERS
    }
    records = [delexicalize(r, schema) for r in read_jsonl(data / "test.jsonl", schema)]
    return speakers, [r.mr for r in records]


def test_row_memo_returns_the_speakers_own_rows(synth_models, monkeypatch):
    # The rows of every stretch of the best base outputs and of random
    # prefixes, whose windows were mostly never seen in training, under the
    # true input and a distractor, with and without the copy bonus, from a
    # stack normalized up front and from one normalized row by row. Each
    # length is gathered as one block, as in a decode, and all of them as
    # one mixed block, which only reuses rows normalized before. Each
    # block's base rows are its rows under the true input normalized again.
    # A source for the true input alone, the speaker's own and the
    # SpeakerModel default, gathers only those base rows.
    speakers, mrs = synth_models
    mr = mrs[0]
    rng = random.Random(0)
    for order, trained in speakers.items():
        plain = copy.copy(trained)
        plain.copy_bonus = 0.0
        config = DecodeConfig(beam_size=10, max_len=30)
        outputs = [c.output.ids for c in beam_search(trained, mr, config)]
        stretches = {o[i:j] for o in outputs for j in range(len(o)) for i in range(j + 1)}
        stretches |= {
            tuple(rng.choices(range(trained.vocab_size), k=n)) for n in range(8) for _ in range(4)
        }
        prefixes = sorted(stretches, key=lambda p: (len(p), p))
        blocks = [[p for p in prefixes if len(p) == n] for n in range(len(prefixes[-1]) + 1)]
        for speaker, eager_size in product((trained, plain), (math.inf, 0)):
            monkeypatch.setattr(speaker_module, "EAGER_STACK_SIZE", eager_size)
            contexts = [speaker.context_ids(m) for m in (mr, mr.without("eatType"))]
            rows = speaker.row_source(contexts)
            true_only = contexts[:1]
            alone = speaker.row_source(true_only), SpeakerModel.row_source(speaker, true_only)
            seen = set()
            for block in blocks + [prefixes]:
                stacks, base = rows(block)
                assert base.tobytes() == log_softmax(stacks[:, 0]).tobytes()
                own = log_softmax(np.array([speaker.step_logprobs_ctx(true_only[0], p) for p in block]))
                for source in alone:
                    none, single = source(block)
                    assert none is None
                    assert single.tobytes() == own.tobytes() == base.tobytes()
                for prefix, stacked in zip(block, stacks):
                    for ctx, row in zip(contexts, stacked):
                        want = speaker.step_logprobs_ctx(ctx, prefix).tobytes()
                        assert row.tobytes() == want
                        assert reference_ngram_row(speaker, ctx, prefix).tobytes() == want
                        seen.add((ctx + (BOS_ID,) + prefix)[-(order - 1):] in speaker.counts)
            assert seen == {True, False}


def test_engine_matches_the_reference_on_trained_speakers(synth_models):
    speakers, mrs = synth_models
    for speaker in speakers.values():
        for alpha in (0.0, 1.0):
            config = DecodeConfig(beam_size=10, max_len=30, alpha=alpha)
            for mr in mrs[:4]:
                distractors = [mr.without(a) for a, _ in list(mr.items())[1:3]]
                for n_best in (1, config.beam_size):
                    assert_same_beam(speaker, mr, config, n_best=n_best)
                    assert_same_beam(speaker, mr, config, distractors, n_best)


def speaker_requests(speaker, decode):
    """What ``decode()`` asks of the speaker: the prefixes whose rows it
    gathers through row sources, and how often it calls ``row_source`` and
    ``step_logprobs_ctx``."""
    names = ("row_source", "step_logprobs_ctx")
    methods = {name: getattr(speaker, name) for name in names}
    calls = Counter()
    gathered = []

    def counting(name):
        def call(*args):
            calls[name] += 1
            return methods[name](*args)

        return call

    def counting_source(contexts):
        calls["row_source"] += 1
        rows = methods["row_source"](contexts)

        def gather(prefixes):
            gathered.extend(prefixes)
            return rows(prefixes)

        return gather

    for name in names[1:]:
        setattr(speaker, name, counting(name))
    speaker.row_source = counting_source
    try:
        decode()
    finally:
        for name in names:
            delattr(speaker, name)
    return gathered, calls


@pytest.mark.parametrize("order", [3, 5])
def test_engine_asks_for_each_windowed_row_once(synth_models, order):
    # The n-gram row source builds every windowed row once per decode, so
    # the decode makes no per-step speaker call.
    speakers, mrs = synth_models
    speaker = speakers[order]
    mr = mrs[0]
    config = DecodeConfig(beam_size=10, max_len=30, alpha=1.0)
    gathered, calls = speaker_requests(
        speaker, partial(_beam_decode, speaker, mr, config, [mr.without("eatType")])
    )
    assert gathered
    assert calls == {"row_source": 1}


def test_a_settled_top_stops_the_decode_early(synth_models):
    speakers, mrs = synth_models
    speaker = speakers[3]
    mr = mrs[4]
    config = DecodeConfig(beam_size=10, max_len=30, alpha=1.0)
    for distractors in (None, [mr.without("eatType")]):
        full, settled = (
            speaker_requests(speaker, partial(_beam_decode, speaker, mr, config, distractors, n))[0]
            for n in (config.beam_size, 1)
        )
        assert len(settled) < len(full)


def test_returned_hypotheses_are_finished_exactly_when_they_end_in_eos():
    # The exhaustive micro beam runs to max_len, so it returns
    # length-capped hypotheses beside finished ones.
    speaker = two_sided_speaker(72)
    config = DecodeConfig(beam_size=27, max_len=MAXLEN, alpha=1.0)
    for distractors in (None, [(1,)]):
        beam = _beam_decode(speaker, (0,), config, distractors)
        assert [h.finished for h in beam] == [h.ids[-1] == EOS for h in beam]
        assert {h.finished for h in beam} == {True, False}
        assert all(h.finished or len(h.ids) == MAXLEN for h in beam)


# ── dispatch ─────────────────────────────────────────────────────────────────


def test_generate_dispatches_by_mode():
    speaker = two_sided_speaker(70)
    base_cfg = DecodeConfig(beam_size=27, max_len=MAXLEN, mode=MODE_BASE)
    base = generate(speaker, (0,), base_cfg)
    assert base.output.ids == beam_search(speaker, (0,), base_cfg)[0].output.ids

    candidates = beam_search(speaker, (0,), base_cfg)
    listener = TabularListener(
        {((0,), c.output.ids): -float(i) for i, c in enumerate(candidates)}
    )
    rec_cfg = DecodeConfig(
        beam_size=27, max_len=MAXLEN, lambda_=0.8, mode=MODE_RECONSTRUCTOR
    )
    rec = generate(speaker, (0,), rec_cfg, listener=listener)
    want = rerank_reconstructor((0,), candidates, listener, 0.8)[0]
    assert rec.output.ids == want.output.ids

    dist_cfg = DecodeConfig(
        beam_size=27, max_len=MAXLEN, alpha=1.0, mode=MODE_DISTRACTOR
    )
    dist = generate(speaker, (0,), dist_cfg, distractors=[(1,)])
    want = pragmatic_decode_distractor(speaker, (0,), [(1,)], dist_cfg)
    assert dist.output.ids == want.output.ids


def test_generate_requires_a_listener_for_reranking():
    speaker = two_sided_speaker(71)
    cfg = DecodeConfig(beam_size=4, max_len=MAXLEN, mode=MODE_RECONSTRUCTOR)
    with pytest.raises(ValueError, match="listener"):
        generate(speaker, (0,), cfg)


def test_generate_falls_back_to_the_base_beam_without_distractors():
    speaker = two_sided_speaker(72)
    cfg = DecodeConfig(beam_size=27, max_len=MAXLEN, alpha=2.0, mode=MODE_DISTRACTOR)
    base_top = beam_search(speaker, (0,), EXHAUSTIVE)[0]
    for distractors in (None, []):
        got = generate(speaker, (0,), cfg, distractors=distractors)
        assert got.output.ids == base_top.output.ids
        assert got.listener_logprob is None
