"""Pragmatic decoding: beam search, candidate reranking, belief tracking.

Three decode modes share one beam engine:

* ``base``: rank hypotheses by the cumulative base speaker score.
* ``reconstructor``: run the base beam, then rerank the finished candidates
  by ``lambda * listener + (1 - lambda) * speaker``.
* ``distractor``: decode incrementally against alternative inputs. Each
  hypothesis carries a belief state over the true input and its
  distractors; every candidate token is scored by how strongly it shifts
  that belief toward the true input, blended with the base score and
  renormalized over the vocabulary, and hypotheses are ranked by the
  cumulative sum of those per-step pragmatic log-probabilities.

All rankings break ties the same way: score, then base score, then
lexicographic token ids. Step scores are renormalized in log space before
accumulation so that the degenerate settings (``alpha = 0``,
``lambda = 0``, or a distractor identical to the input) reproduce the base
ranking bit for bit.

The engine advances the whole beam per step and holds it as parallel
state, not as one object per hypothesis: the live ids in lexicographic
order beside arrays of their scores, base scores and beliefs, and the
finished entries as rank-ordered ``(-score, -base, ids, beliefs)``
tuples. Its K live hypotheses are scored as one (K, V) block of base step
rows from the speaker's ``row_source`` for the decode, which normalizes
them once per decode; distractor mode also gathers the (K, L, V) block of
rows, one per hypothesis, input and token. One function turns that block
into pragmatic step scores and updated beliefs, as the public
``distractor_step_scores`` and ``belief_update`` do. A partition finds the
``beam_size``-th best score, and a stable sort orders only the finite
entries that reach it, ties included; the best merge with the finished
entries. Only the returned entries become objects.

Step scores are log-softmax outputs, so they are at most 0 and cumulative
scores never rise. A decode that returns only its top hypothesis (base
mode, the distractor fallback and ``pragmatic_decode_distractor``)
therefore stops as soon as that hypothesis is finished and scores strictly
above every live one: the returned result is the one the full beam would
rank first, bit for bit. ``beam_search``, and so reconstructor reranking,
still runs the whole beam and returns all of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from operator import itemgetter
from typing import NamedTuple, Sequence

import numpy as np

from .core import TokenSequence, log_softmax
from .speaker import SpeakerModel

MODE_BASE = "base"
MODE_RECONSTRUCTOR = "reconstructor"
MODE_DISTRACTOR = "distractor"

MODES = (MODE_BASE, MODE_RECONSTRUCTOR, MODE_DISTRACTOR)


class BeliefCollapseError(ValueError):
    """Raised when every candidate input assigns zero mass to a token."""


# ── configuration ───────────────────────────────────────────────────────────


@dataclass(frozen=True)
class DecodeConfig:
    """Decoding knobs shared by all modes.

    ``lambda_`` weights the listener in reconstructor reranking;
    ``alpha`` scales the belief term in distractor decoding.
    """

    beam_size: int = 10
    max_len: int = 60
    lambda_: float = 0.4
    alpha: float = 0.2
    mode: str = MODE_BASE

    def __post_init__(self) -> None:
        if self.beam_size < 1:
            raise ValueError("beam_size must be at least 1")
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")
        if not 0.0 <= self.lambda_ <= 1.0:
            raise ValueError("lambda_ must lie in [0, 1]")
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and non-negative")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {', '.join(MODES)}")


@dataclass(frozen=True)
class ScoredCandidate:
    """One finished (or length-capped) output with its scores.

    ``listener_logprob`` holds the reconstruction score in reconstructor
    mode and the final log-belief of the true input in distractor mode.
    ``combined_score`` is the mode's ranking objective. Both are present or
    absent together.
    """

    output: TokenSequence
    base_logprob: float
    listener_logprob: float | None = None
    combined_score: float | None = None

    def __post_init__(self) -> None:
        if (self.listener_logprob is None) != (self.combined_score is None):
            raise ValueError(
                "listener_logprob and combined_score must be set together"
            )


@dataclass(frozen=True)
class BeliefState:
    """Distribution over candidate inputs, true input first."""

    support: tuple[object, ...]
    log_beliefs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.support) < 2:
            raise ValueError("belief support needs at least two inputs")
        if len(self.support) != len(self.log_beliefs):
            raise ValueError("support and log_beliefs lengths differ")
        mass = sum(math.exp(b) for b in self.log_beliefs)
        if not math.isfinite(mass) or abs(mass - 1.0) > 1e-6:
            raise ValueError("belief state is not normalized")

    @classmethod
    def uniform(cls, support: Sequence[object]) -> "BeliefState":
        n = len(support)
        return cls(tuple(support), tuple([-math.log(n)] * n))


# ── step scoring ────────────────────────────────────────────────────────────


def _pragmatic_block(
    rows: np.ndarray, beliefs: np.ndarray, alpha: float, true_index: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Score one decoding step of K hypotheses against L inputs at once.

    ``rows[k, j]`` is the speaker's step row for hypothesis ``k`` under
    input ``j``, and ``beliefs[k, j]`` the hypothesis's log-belief in that
    input; ``true_index`` marks the true input. Returns ``(steps,
    posterior)``: the (K, V) pragmatic step log-probabilities, and the
    (K, L, V) log-beliefs each hypothesis would hold after emitting each
    token, -inf where every input rules the token out.
    """
    extended = rows + beliefs[:, :, None]
    m = extended.max(axis=1)
    finite = m > -math.inf
    masked = not finite.all()
    shift = np.where(finite, m, 0.0) if masked else m
    mass = np.exp(extended - shift[:, None, :])
    # Each token's mass is summed over the inputs left to right.
    sums = reduce(np.add, mass.swapaxes(0, 1))
    if masked:
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = shift + np.log(sums)
            posterior = np.where(finite[:, None, :], extended - denom[:, None, :], -math.inf)
    else:
        posterior = extended - (shift + np.log(sums))[:, None, :]
    true_rows = rows[:, true_index]
    if alpha == 0.0:
        # Short-circuit keeps the reduction identity exact and avoids
        # 0 * -inf where a token is impossible under every input.
        return log_softmax(true_rows), posterior
    return log_softmax(alpha * posterior[:, true_index] + true_rows), posterior


def _support_rows(
    speaker: SpeakerModel, belief: BeliefState, prefix: TokenSequence
) -> tuple[np.ndarray, np.ndarray]:
    """One-hypothesis (1, L, V) step block, one ``step_logprobs_ctx`` row per
    input of the support, and (1, L) beliefs."""
    if prefix.terminated:
        raise ValueError("prefix is terminated; no further tokens can be scored")
    rows = [speaker.step_logprobs_ctx(speaker.context_ids(s), prefix.ids) for s in belief.support]
    return np.stack(rows)[None], np.array([belief.log_beliefs])


# ── belief machinery ────────────────────────────────────────────────────────


def belief_update(
    belief: BeliefState, speaker: SpeakerModel, prefix: TokenSequence, token: int
) -> BeliefState:
    """Condition the belief on one more emitted token.

    The new log-belief of each candidate input is its step log-probability
    of ``token`` plus its old log-belief, renormalized over the support, so
    folding updates along a prefix reproduces the direct product of step
    likelihoods with the initial belief.
    """
    rows, beliefs = _support_rows(speaker, belief, prefix)
    _, posterior = _pragmatic_block(rows, beliefs, 0.0)
    updated = posterior[0, :, token]
    if updated.max() == -math.inf:
        raise BeliefCollapseError(
            "belief collapse: every candidate input rules out the token"
        )
    return BeliefState(belief.support, tuple(updated.tolist()))


def distractor_step_scores(
    speaker: SpeakerModel,
    belief: BeliefState,
    input_index: int,
    prefix: TokenSequence,
    alpha: float,
) -> np.ndarray:
    """Pragmatic next-token log-probabilities against the belief state.

    Each vocabulary token is scored by ``alpha`` times the log-belief the
    true input would hold after emitting it, plus the base speaker's step
    score, then renormalized over the vocabulary.
    """
    if not 0.0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and non-negative")
    if not 0 <= input_index < len(belief.support):
        raise ValueError("input_index is outside the belief support")
    rows, beliefs = _support_rows(speaker, belief, prefix)
    steps, _ = _pragmatic_block(rows, beliefs, alpha, input_index)
    return steps[0]


# ── beam engine ─────────────────────────────────────────────────────────────


class _Hypothesis(NamedTuple):
    """One returned beam entry."""

    ids: tuple[int, ...]
    score: float
    base: float
    beliefs: np.ndarray | None
    finished: bool


def _beam_decode(
    speaker: SpeakerModel,
    input: object,
    config: DecodeConfig,
    distractors: Sequence[object] | None = None,
    n_best: int | None = None,
) -> list[_Hypothesis]:
    """Shared beam loop for base and distractor decoding.

    Returns the ``n_best`` best hypotheses (the whole beam by default),
    best first.

    The live beam is held as parallel state: its ids in lexicographic
    order, and arrays of their scores, base scores and (distractor mode
    only) (K, L) beliefs in the same order. Because the live ids share one length, that is also the
    order of each expansion's flat index (parent * V + token) in the (K, V)
    block of step scores. Each step selects the ``beam_size`` best finite
    expansions by a stable sort on (score, base score) of only the entries
    at or above the ``beam_size``-th best score, so the block's row-major
    order breaks the remaining ties by ids. These are exactly the
    expansions a per-hypothesis top ``beam_size`` would pool: a candidate
    among the global best is among its parent's best.

    Beam entries are ``(-score, -base, ids, beliefs)`` tuples, which sort
    in rank order. Finished entries stay in the beam and compete on their
    frozen scores; the new expansions, already in rank order, are merged
    with them and cut back to ``beam_size``. With a beam at least as large
    as the number of possible sequences nothing is ever pruned, so the
    ranking is exhaustive.

    Every step score is a ``log_softmax`` output, so it is at most 0 and a
    hypothesis never scores above its parent, in floating point too. The
    loop therefore stops once the best live score falls strictly below the
    ``n_best``-th beam entry's: the best ``n_best`` are then finished and no
    later step can change them. At ``n_best = beam_size`` that is the end
    of the live beam.
    """
    n_best = config.beam_size if n_best is None else n_best
    width, eos = config.beam_size, speaker.eos_id
    contexts = [speaker.context_ids(input)]
    pragmatic = distractors is not None
    if pragmatic:
        contexts += [speaker.context_ids(d) for d in distractors]
        bases = np.zeros(1)
        beliefs = np.full((1, len(contexts)), -math.log(len(contexts)))
    step_rows = speaker.row_source(contexts)
    ids, scores = [()], np.zeros(1)
    finished: list[tuple] = []
    for _ in range(config.max_len):
        rows, base_steps = step_rows(ids)
        if pragmatic:
            prag_steps, posterior = _pragmatic_block(rows, beliefs, config.alpha)
        else:
            prag_steps = base_steps
        keys = (scores[:, None] + prag_steps).ravel()
        # A -inf step means the token is impossible here; such expansions
        # can never outrank a finite one and their belief updates are
        # undefined, so they are not expanded.
        cut, kth = keys.size - width, -math.inf
        if cut > 0:
            ranked = keys.copy()
            ranked.partition(cut)
            kth = ranked[cut]
        keep = (keys >= kth if kth > -math.inf else keys > kth).nonzero()[0]
        neg_cand, size = -keys[keep], base_steps.shape[1]
        if pragmatic:
            parent, token = keep // size, keep % size
            neg_cand_bases = -(bases[parent] + base_steps[parent, token])
            chosen = np.lexsort((neg_cand_bases, neg_cand))[:width]
            new_beliefs = posterior[parent[chosen], :, token[chosen]]
        else:  # every score is its base score, bit for bit
            chosen = neg_cand.argsort(kind="stable")[:width]
            new_beliefs = [None] * len(chosen)
        neg_scores = neg_cand[chosen].tolist()
        neg_bases = neg_cand_bases[chosen].tolist() if pragmatic else neg_scores
        new = [
            (neg_score, neg_base, ids[flat // size] + (flat % size,), belief)
            for neg_score, neg_base, flat, belief in zip(
                neg_scores, neg_bases, keep[chosen].tolist(), new_beliefs
            )
        ]
        beam = sorted(finished + new)[:width] if finished else new
        live = [e for e in beam if e[2][-1] != eos]
        # The first live entry is the best. One among the best n_best fails
        # this test itself, so passing it means those n_best are finished.
        if not live or live[0][0] > beam[min(n_best, len(beam)) - 1][0]:
            break
        finished = [e for e in beam if e[2][-1] == eos]
        live.sort(key=itemgetter(2))  # by ids
        neg_scores, neg_bases, ids, live_beliefs = zip(*live)
        scores = -np.array(neg_scores)
        if pragmatic:
            # np.array copies a tuple of equal rows into one array, as
            # np.stack does, at a third of the call overhead.
            bases, beliefs = -np.array(neg_bases), np.array(live_beliefs)
    return [
        _Hypothesis(seq, -neg_score, -neg_base, belief, seq[-1] == eos)
        for neg_score, neg_base, seq, belief in beam[:n_best]
    ]


# ── public decoding operations ──────────────────────────────────────────────


def _candidate(speaker: SpeakerModel, h: _Hypothesis) -> ScoredCandidate:
    """The candidate of one engine hypothesis; one that tracked beliefs also
    reports the true input's final log-belief and its pragmatic score."""
    tracked = h.beliefs is not None
    return ScoredCandidate(
        output=TokenSequence(h.ids, eos_id=speaker.eos_id),
        base_logprob=h.base,
        listener_logprob=float(h.beliefs[0]) if tracked else None,
        combined_score=h.score if tracked else None,
    )


def beam_search(
    speaker: SpeakerModel, input: object, config: DecodeConfig
) -> list[ScoredCandidate]:
    """Deterministic beam search under the base speaker.

    Returns up to ``beam_size`` candidates, each EOS-terminated or exactly
    ``max_len`` tokens long, sorted by base score with ties broken by
    lexicographic token ids.
    """
    return [_candidate(speaker, h) for h in _beam_decode(speaker, input, config)]


def rerank_reconstructor(
    input: object,
    candidates: Sequence[ScoredCandidate],
    listener: object,
    lambda_: float,
) -> list[ScoredCandidate]:
    """Re-sort candidates by the blended reconstruction objective.

    ``combined = lambda * listener + (1 - lambda) * base``; at
    ``lambda = 0`` the combined score equals the base score exactly, so the
    incoming ranking is preserved.
    """
    if not 0.0 <= lambda_ <= 1.0:
        raise ValueError("lambda_ must lie in [0, 1]")
    rescored = []
    for cand in candidates:
        listener_lp = float(listener.reconstruction_logprob(input, cand.output))
        combined = lambda_ * listener_lp + (1.0 - lambda_) * cand.base_logprob
        rescored.append(replace(cand, listener_logprob=listener_lp, combined_score=combined))
    rescored.sort(
        key=lambda c: (-c.combined_score, -c.base_logprob, c.output.ids)
    )
    return rescored


def pragmatic_decode_distractor(
    speaker: SpeakerModel,
    input: object,
    distractors: Sequence[object],
    config: DecodeConfig,
) -> ScoredCandidate:
    """Belief-tracking incremental decode against explicit distractors.

    Hypotheses are ranked by their cumulative pragmatic step scores;
    ``combined_score`` reports that total and ``listener_logprob`` the
    final log-belief assigned to the true input.
    """
    if not distractors:
        raise ValueError(
            "distractor decoding needs at least one distractor; "
            "use base mode when the policy yields none"
        )
    top = _beam_decode(speaker, input, config, distractors=list(distractors), n_best=1)[0]
    return _candidate(speaker, top)


def generate(
    speaker: SpeakerModel,
    input: object,
    config: DecodeConfig,
    listener: object | None = None,
    distractors: Sequence[object] | None = None,
) -> ScoredCandidate:
    """Dispatch one decode according to ``config.mode``.

    Distractor mode falls back to the plain beam output when no distractor
    is supplied (the ``none`` policy, an input that does not assign the
    masked attribute).
    Only reconstructor mode needs the whole beam; the others decode until
    their top hypothesis is settled.
    """
    if config.mode == MODE_RECONSTRUCTOR:
        if listener is None:
            raise ValueError("reconstructor mode requires a listener")
        candidates = beam_search(speaker, input, config)
        return rerank_reconstructor(input, candidates, listener, config.lambda_)[0]
    if config.mode == MODE_DISTRACTOR and distractors:
        return pragmatic_decode_distractor(speaker, input, distractors, config)
    return _candidate(speaker, _beam_decode(speaker, input, config, n_best=1)[0])
