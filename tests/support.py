"""Micro models, brute-force rankings, a reference engine and reference
training counters for the tests.

Oracle scores here are accumulated with plain ``math`` calls over Python
lists, independent of the package's numpy helpers, so an agreement test
cannot inherit a bug from the code under test. The reference beam engine
keeps the package's numpy arithmetic, logs taken with ``np.log``, but runs it
one hypothesis at a time, so the batched engine can be held to it bit for
bit; the reference n-gram row and listener score do the same one row and one
attribute at a time.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import product

import numpy as np
from hypothesis import strategies as st

from praggen.core import (
    BOS_ID,
    EOS_ID,
    SEP_ID,
    DegenerateDistributionError,
    MeaningRepresentation,
    TokenSequence,
    log_softmax,
)
from praggen.listener import ABSENT_CLASS
from praggen.speaker import SpeakerModel


class TabularSpeaker(SpeakerModel):
    """Speaker backed by an explicit per-(input, prefix) log-prob table.

    Inputs are plain id tuples; ``tables[input][prefix]`` holds the next
    token log-probability row. No BOS bookkeeping, no smoothing: what the
    table says is what the model believes.
    """

    def __init__(self, tables: dict, vocab_size: int, eos_id: int) -> None:
        self.tables = tables
        self.vocab_size = vocab_size
        self.eos_id = eos_id

    def context_ids(self, input: object) -> tuple[int, ...]:
        return tuple(input)

    def step_logprobs_ctx(self, ctx, prefix_ids) -> np.ndarray:
        return np.array(self.tables[tuple(ctx)][tuple(prefix_ids)])


class TabularListener:
    """Listener with one pinned score per (input, output) pair."""

    def __init__(self, scores: dict) -> None:
        self.scores = scores

    def reconstruction_logprob(self, input: object, output) -> float:
        return self.scores[(tuple(input), tuple(output.ids))]


def all_prefixes(vocab_size: int, eos_id: int, max_len: int) -> list[tuple[int, ...]]:
    """Every prefix a decoder can query: EOS-free, length < max_len."""
    others = [t for t in range(vocab_size) if t != eos_id]
    out: list[tuple[int, ...]] = []
    for length in range(max_len):
        out.extend(product(others, repeat=length))
    return out


def candidate_universe(vocab_size: int, eos_id: int, max_len: int) -> list[tuple[int, ...]]:
    """Every sequence a beam of that geometry can finish with.

    Terminated sequences carry at most max_len - 1 content tokens plus
    EOS; unterminated ones are exactly max_len content tokens.
    """
    others = [t for t in range(vocab_size) if t != eos_id]
    seqs: list[tuple[int, ...]] = []
    for length in range(max_len):
        for core in product(others, repeat=length):
            seqs.append(core + (eos_id,))
    seqs.extend(product(others, repeat=max_len))
    return seqs


def stationary_tables(dists: dict, vocab_size: int, eos_id: int, max_len: int) -> dict:
    """Tables that reuse one probability row at every prefix."""
    prefixes = all_prefixes(vocab_size, eos_id, max_len)
    return {
        tuple(ctx): {p: [math.log(x) for x in row] for p in prefixes}
        for ctx, row in dists.items()
    }


def random_speaker(
    rng: random.Random,
    inputs: list[tuple[int, ...]],
    vocab_size: int,
    eos_id: int,
    max_len: int,
) -> TabularSpeaker:
    """Random dense conditional tables; every row is a proper distribution."""
    tables: dict = {}
    for inp in inputs:
        rows = {}
        for prefix in all_prefixes(vocab_size, eos_id, max_len):
            weights = [rng.random() + 0.05 for _ in range(vocab_size)]
            total = sum(weights)
            rows[prefix] = [math.log(w / total) for w in weights]
        tables[tuple(inp)] = rows
    return TabularSpeaker(tables, vocab_size, eos_id)


# ── independent arithmetic ──────────────────────────────────────────────────


def log_softmax_row(row: list[float]) -> list[float]:
    m = max(row)
    z = m + math.log(sum(math.exp(x - m) for x in row))
    return [x - z for x in row]


def logsumexp(values: list[float]) -> float:
    m = max(values)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(v - m) for v in values))


def base_sequence_score(speaker: TabularSpeaker, input: tuple, seq: tuple) -> float:
    """Sum of renormalized step log-probabilities along ``seq``."""
    ctx = tuple(input)
    total = 0.0
    for t, tok in enumerate(seq):
        step = log_softmax_row(list(speaker.tables[ctx][seq[:t]]))
        total += step[tok]
    return total


def distractor_sequence_score(
    speaker: TabularSpeaker, inputs: list[tuple], alpha: float, seq: tuple
) -> tuple[float, float]:
    """(pragmatic total, base total) for ``seq`` decoded against ``inputs``.

    Replays the incremental objective by hand: uniform initial belief,
    candidate-extended listener term, per-step vocabulary renormalization,
    belief conditioned on the emitted token.
    """
    ctxs = [tuple(i) for i in inputs]
    v = speaker.vocab_size
    beliefs = [-math.log(len(ctxs))] * len(ctxs)
    prag_total = 0.0
    base_total = 0.0
    for t, tok in enumerate(seq):
        rows = [list(speaker.tables[c][seq[:t]]) for c in ctxs]
        base_total += log_softmax_row(rows[0])[tok]
        extended = [[rows[j][w] + beliefs[j] for w in range(v)] for j in range(len(ctxs))]
        denom = [logsumexp([extended[j][w] for j in range(len(ctxs))]) for w in range(v)]
        listener = [extended[0][w] - denom[w] for w in range(v)]
        prag = log_softmax_row([alpha * listener[w] + rows[0][w] for w in range(v)])
        prag_total += prag[tok]
        beliefs = [extended[j][tok] - denom[tok] for j in range(len(ctxs))]
    return prag_total, base_total


def best_base_sequence(speaker: TabularSpeaker, input: tuple, max_len: int) -> tuple:
    universe = candidate_universe(speaker.vocab_size, speaker.eos_id, max_len)
    return min(
        universe,
        key=lambda s: (-base_sequence_score(speaker, input, s), s),
    )


def best_distractor_sequence(
    speaker: TabularSpeaker, inputs: list[tuple], alpha: float, max_len: int
) -> tuple:
    universe = candidate_universe(speaker.vocab_size, speaker.eos_id, max_len)

    def key(s: tuple) -> tuple:
        prag, base = distractor_sequence_score(speaker, inputs, alpha, s)
        return (-prag, -base, s)

    return min(universe, key=key)


# ── reference beam engine ───────────────────────────────────────────────────


@dataclass
class ReferenceHypothesis:
    ids: tuple[int, ...]
    score: float
    base: float
    beliefs: np.ndarray | None = None
    finished: bool = False
    sort_key: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.sort_key = (-self.score, -self.base, self.ids)


def _reference_log_softmax(scores: np.ndarray) -> np.ndarray:
    m = scores.max()
    if m == -math.inf:
        raise DegenerateDistributionError("degenerate distribution: no finite mass")
    return scores - (m + np.log(np.exp(scores - m).sum()))


def _sum_left_to_right(terms) -> np.ndarray:
    """The sum of ``terms`` along their first axis, added one at a time."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _reference_logsumexp_rows(stacked: np.ndarray) -> np.ndarray:
    """Log-sum-exp over axis 0, each column's terms added left to right,
    mapping all -inf columns to -inf."""
    m = stacked.max(axis=0)
    out = np.full(stacked.shape[-1], -math.inf)
    finite = m > -math.inf
    if finite.any():
        shifted = stacked[:, finite] - m[finite]
        out[finite] = m[finite] + np.log(_sum_left_to_right(np.exp(shifted)))
    return out


def reference_beam_decode(speaker, input, config, distractors=None):
    """The beam engine written one hypothesis at a time.

    Every live hypothesis scores its own step row (one per input in
    distractor mode), proposes its top ``beam_size`` finite tokens, and the
    pooled proposals plus the finished hypotheses are sorted by
    (score, base score, ids) and cut back to the beam. The package's engine
    must return the same hypotheses with the same bits.
    """
    ctx = speaker.context_ids(input)
    pragmatic = distractors is not None
    if pragmatic:
        contexts = [ctx] + [speaker.context_ids(d) for d in distractors]
        init_beliefs = np.full(len(contexts), -math.log(len(contexts)))
    beam = [
        ReferenceHypothesis(
            ids=(), score=0.0, base=0.0, beliefs=init_beliefs if pragmatic else None
        )
    ]
    for _ in range(config.max_len):
        live = [h for h in beam if not h.finished]
        if not live:
            break
        pool = [h for h in beam if h.finished]
        for hyp in live:
            if pragmatic:
                stacked = np.stack(
                    [speaker.step_logprobs_ctx(c, hyp.ids) for c in contexts]
                )
                base_steps = _reference_log_softmax(stacked[0])
                extended = stacked + hyp.beliefs[:, None]
                denom = _reference_logsumexp_rows(extended)
                if config.alpha == 0.0:
                    prag_steps = base_steps
                else:
                    with np.errstate(invalid="ignore"):
                        listener_term = extended[0] - denom
                    listener_term[denom == -math.inf] = -math.inf
                    prag_steps = _reference_log_softmax(
                        config.alpha * listener_term + stacked[0]
                    )
            else:
                base_steps = _reference_log_softmax(speaker.step_logprobs_ctx(ctx, hyp.ids))
                prag_steps = base_steps
            score_keys = hyp.score + prag_steps
            base_keys = hyp.base + base_steps
            order = np.lexsort((-base_keys, -score_keys))
            for v in order[: config.beam_size]:
                tok = int(v)
                if score_keys[tok] == -math.inf:
                    break
                pool.append(
                    ReferenceHypothesis(
                        ids=hyp.ids + (tok,),
                        score=float(score_keys[tok]),
                        base=float(base_keys[tok]),
                        beliefs=extended[:, tok] - denom[tok] if pragmatic else None,
                        finished=tok == speaker.eos_id,
                    )
                )
        pool.sort(key=lambda h: h.sort_key)
        beam = pool[: config.beam_size]
    beam.sort(key=lambda h: h.sort_key)
    return beam


def reference_pragmatic_block(rows, beliefs, alpha, true_index=0):
    """``_pragmatic_block`` with each token's mass added over the inputs
    one input at a time, left to right, and every block sent through the
    ``-inf`` mask."""
    extended = rows + beliefs[:, :, None]
    m = extended.max(axis=1)
    finite = m > -math.inf
    shift = np.where(finite, m, 0.0)
    mass = np.exp(extended - shift[:, None, :])
    sums = _sum_left_to_right([mass[:, j] for j in range(mass.shape[1])])
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = shift + np.log(sums)
        posterior = np.where(finite[:, None, :], extended - denom[:, None, :], -math.inf)
    true_rows = rows[:, true_index]
    if alpha == 0.0:
        return log_softmax(true_rows), posterior
    return log_softmax(alpha * posterior[:, true_index] + true_rows), posterior


def reference_ngram_row(speaker, ctx, prefix_ids) -> np.ndarray:
    """The n-gram speaker's step row computed on its own.

    The add-k row of the prefix's history, the last ``order - 1`` ids of
    ``[BOS ; prefix]``, over the counts of the windows that extend it
    (uniform for an unseen history), plus the copy bonus of the context's
    tokens, log-normalized. The speaker, which gathers its rows from one
    matrix and normalizes a whole block at once, must return the same bits.
    """
    k, size = speaker.k, speaker.vocab_size
    history = ((BOS_ID,) + prefix_ids)[-(speaker.order - 1):]
    counts = {t: n for t in range(size) if (n := speaker.windows.get((*history, t)))}
    denom = np.log(sum(counts.values()) + k * size)
    row = np.full(size, np.log(k) - denom)
    for tok, cnt in counts.items():
        row[tok] = np.log(cnt + k) - denom
    feat = np.zeros(size)
    for tok in ctx:
        if tok != SEP_ID:
            feat[tok] = 1.0
    return log_softmax(row + speaker.copy_bonus * feat)


def reference_reconstruction_logprob(listener, mr, output) -> float:
    """The attribute listener's score computed one attribute at a time.

    Each attribute gets its own smoothed tables, adds the output's token
    columns to its prior one token at a time and log-normalizes; the
    attributes' entries for the input's classes are added in schema order.
    The listener, which scores all attributes' classes at once, must return
    the same bits.
    """
    k = listener.k
    v = len(listener.vocab)
    bag = [t for t in output.ids if t not in (BOS_ID, EOS_ID, SEP_ID)]
    class_counts, token_counts = listener_count_dicts(listener)
    total = 0.0
    for spec in listener.schema:
        classes = listener.classes[spec.name]
        counts = np.array([class_counts[spec.name][c] for c in classes], dtype=float)
        scores = np.log(counts + k) - np.log(counts.sum() + k * len(classes))
        tok = np.zeros((len(classes), v))
        for ci, c in enumerate(classes):
            row = token_counts[spec.name][c]
            denom = np.log(sum(row.values()) + k * v)
            tok[ci, :] = np.log(k) - denom
            for t, cnt in row.items():
                tok[ci, t] = np.log(cnt + k) - denom
        for t in bag:
            scores += tok[:, t]
        value = mr.get(spec.name)
        idx = classes.index(value if value is not None else ABSENT_CLASS)
        top = scores.max()
        shifted = np.exp(scores - top)
        # The listener adds an attribute's mass as ``np.add.reduceat`` adds a
        # segment: its first class plus the sum of the others.
        total += float(scores[idx] - (top + np.log(shifted[0] + shifted[1:].sum())))
    return total


def meaning_representations(schema):
    """MRs that give each attribute of ``schema`` one of its values or none."""
    choices = [st.sampled_from((None, *spec.values)) for spec in schema]
    return st.tuples(*choices).map(lambda values: MeaningRepresentation(
        {spec.name: v for spec, v in zip(schema, values) if v is not None}))


def token_sequences(size: int, max_len: int = 5):
    """Sequences of up to ``max_len`` ids below ``size``, any id but EOS,
    terminated or not."""
    ids = st.lists(st.integers(0, size - 1).filter(lambda i: i != EOS_ID), max_size=max_len)
    return st.tuples(ids, st.booleans()).map(lambda t: TokenSequence(t[0] + [EOS_ID] * t[1]))


def reference_ngram_windows(speaker, pairs) -> Counter:
    """The n-gram speaker's training windows, walked one output position at
    a time over ``[BOS ; output ; EOS]``: each position from the first
    output token through EOS counts the window of its token after the
    history reaching back to BOS at most. The inputs play no part."""
    span = speaker.order - 1
    windows: Counter = Counter()
    for _, output in pairs:
        seq = (BOS_ID, *output.core_ids(), EOS_ID)
        for t in range(1, len(seq)):
            windows[seq[max(0, t - span) : t + 1]] += 1
    return windows


def reference_listener_counts(listener, pairs) -> tuple[dict, dict]:
    """The attribute listener's class and token counts, walked one pair and
    one attribute at a time, each token count as a plain dict."""
    class_counts = {name: dict.fromkeys(classes, 0) for name, classes in listener.classes.items()}
    token_counts = {name: {c: Counter() for c in classes}
                    for name, classes in listener.classes.items()}
    for mr, output in pairs:
        bag = [t for t in output.ids if t not in (BOS_ID, EOS_ID, SEP_ID)]
        for spec in listener.schema:
            value = mr.get(spec.name)
            cls = ABSENT_CLASS if value is None else value
            class_counts[spec.name][cls] += 1
            token_counts[spec.name][cls].update(bag)
    return class_counts, {name: {c: dict(row) for c, row in by_class.items()}
                          for name, by_class in token_counts.items()}


def listener_count_dicts(listener) -> tuple[dict, dict]:
    """The attribute listener's count matrix read back as ``{attribute:
    {class: pair count}}`` and ``{attribute: {class: {token: count}}}``
    dicts, zero token counts left out. Its rows run over the attributes in
    schema order and each one's classes in order; each row holds the V
    token counts, then the pair count."""
    rows = iter(listener.counts.tolist())
    class_counts: dict = {}
    token_counts: dict = {}
    for name, classes in listener.classes.items():
        for c, row in zip(classes, rows):
            class_counts.setdefault(name, {})[c] = row[-1]
            token_counts.setdefault(name, {})[c] = {t: n for t, n in enumerate(row[:-1]) if n}
    return class_counts, token_counts
