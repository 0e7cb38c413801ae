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

The engine advances the whole beam per step. Its K live hypotheses are
scored as one (K, L, V) block of speaker rows, one per hypothesis, input
and token (L = 1 outside distractor mode), and one function turns that
block into pragmatic step scores and updated beliefs; the public
``distractor_step_scores`` and ``belief_update`` call the same function.
One stable lexsort over the block's finite entries then picks the
``beam_size`` best expansions, which merge with the finished hypotheses.
Within one decode, a memo fetches each speaker row once per (context,
window) key, where the window is the last ``prefix_window`` prefix ids the
speaker declares its rows depend on (the whole prefix when it is shorter
than that or the speaker declares none; see ``speaker.prefix_key``), and
keeps the log-softmaxed row of the true input beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import TokenSequence, log_softmax
from .speaker import SpeakerModel, prefix_key

MODE_BASE = "base"
MODE_RECONSTRUCTOR = "reconstructor"
MODE_DISTRACTOR = "distractor"

_MODES = (MODE_BASE, MODE_RECONSTRUCTOR, MODE_DISTRACTOR)


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
        if self.alpha < 0.0:
            raise ValueError("alpha must be non-negative")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")

    @classmethod
    def mr_preset(cls, **overrides: object) -> "DecodeConfig":
        """Defaults tuned for attribute-value inputs."""
        cfg = cls(beam_size=10, max_len=60, lambda_=0.4, alpha=0.2)
        return replace(cfg, **overrides) if overrides else cfg

    @classmethod
    def summarization_preset(cls, **overrides: object) -> "DecodeConfig":
        """Defaults tuned for sentence inputs with document context."""
        cfg = cls(beam_size=20, max_len=80, lambda_=0.9, alpha=1.0)
        return replace(cfg, **overrides) if overrides else cfg


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
    shift = np.where(finite, m, 0.0)
    # Each token's mass is summed over the inputs as one contiguous run, so
    # numpy adds it pairwise, as it did when hypotheses were scored one at
    # a time; summing across the block's rows would add in another order.
    mass = np.exp(extended - shift[:, None, :]).transpose(0, 2, 1).copy()
    sums = mass.sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = shift + np.log(sums)
        posterior = np.where(
            finite[:, None, :], extended - denom[:, None, :], -math.inf
        )
    true_rows = rows[:, true_index]
    if alpha == 0.0:
        # Short-circuit keeps the reduction identity exact and avoids
        # 0 * -inf where a token is impossible under every input.
        return log_softmax(true_rows), posterior
    return log_softmax(alpha * posterior[:, true_index] + true_rows), posterior


def _support_rows(
    speaker: SpeakerModel, belief: BeliefState, prefix: TokenSequence
) -> tuple[np.ndarray, np.ndarray]:
    """One-hypothesis (1, L, V) step block and (1, L) beliefs."""
    if prefix.terminated:
        raise ValueError("prefix is terminated; no further tokens can be scored")
    rows = np.stack(
        [
            speaker.step_logprobs_ctx(speaker.context_ids(s), prefix.ids)
            for s in belief.support
        ]
    )
    return rows[None], np.array([belief.log_beliefs])


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
    if alpha < 0.0:
        raise ValueError("alpha must be non-negative")
    if not 0 <= input_index < len(belief.support):
        raise ValueError("input_index is outside the belief support")
    rows, beliefs = _support_rows(speaker, belief, prefix)
    steps, _ = _pragmatic_block(rows, beliefs, alpha, input_index)
    return steps[0]


# ── beam engine ─────────────────────────────────────────────────────────────


@dataclass
class _Hypothesis:
    ids: tuple[int, ...]
    score: float
    base: float
    beliefs: np.ndarray | None = None
    finished: bool = False
    sort_key: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.sort_key = (-self.score, -self.base, self.ids)


class _RowMemo:
    """The speaker step rows of one decode, each fetched once.

    A row is keyed by (context index, ``prefix_key`` of the prefix under
    the speaker's ``prefix_window``). One entry holds the rows of every
    context for a key, since each hypothesis needs all of them, together
    with the log-softmaxed row of the true input.
    """

    def __init__(self, speaker: SpeakerModel, contexts: list[tuple[int, ...]]) -> None:
        self.speaker = speaker
        self.contexts = contexts
        self.window = speaker.prefix_window
        self.entries: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}

    def block(
        self, prefixes: list[tuple[int, ...]]
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The K (L, V) row stacks and K normalized true-input rows."""
        rows, base = [], []
        for ids in prefixes:
            key = prefix_key(ids, self.window)
            entry = self.entries.get(key)
            if entry is None:
                stacked = np.array(
                    [self.speaker.step_logprobs_ctx(c, ids) for c in self.contexts]
                )
                entry = (stacked, log_softmax(stacked[0]))
                self.entries[key] = entry
            rows.append(entry[0])
            base.append(entry[1])
        return rows, base


def _beam_decode(
    speaker: SpeakerModel,
    input: object,
    config: DecodeConfig,
    distractors: Sequence[object] | None = None,
) -> list[_Hypothesis]:
    """Shared beam loop for base and distractor decoding.

    The live hypotheses are kept in lexicographic order of their ids. Each
    step gathers their scores, base scores and beliefs into arrays, scores
    all of them at once as one (K, L, V) block and selects the
    ``beam_size`` best finite expansions with one stable lexsort on
    (score, base score); the block's row-major order breaks the remaining
    ties by ids, because live hypotheses share one length. These are
    exactly the expansions a per-hypothesis top ``beam_size`` would pool:
    a candidate among the global best is among its parent's best.

    Finished hypotheses stay in the beam and compete on their frozen
    scores. With a beam at least as large as the number of possible
    sequences nothing is ever pruned, so the ranking is exhaustive.
    """
    contexts = [speaker.context_ids(input)]
    pragmatic = distractors is not None
    if pragmatic:
        contexts += [speaker.context_ids(d) for d in distractors]
    memo = _RowMemo(speaker, contexts)
    live: list[_Hypothesis] = [
        _Hypothesis(
            ids=(),
            score=0.0,
            base=0.0,
            beliefs=np.full(len(contexts), -math.log(len(contexts)))
            if pragmatic
            else None,
        )
    ]
    finished: list[_Hypothesis] = []
    beam = live
    for _ in range(config.max_len):
        if not live:
            break
        rows, base_rows = memo.block([h.ids for h in live])
        # np.array copies a list of equal rows into one array, as np.stack
        # does, at a third of the call overhead.
        base_steps = np.array(base_rows)
        if pragmatic:
            beliefs = np.array([h.beliefs for h in live])
            prag_steps, posterior = _pragmatic_block(
                np.array(rows), beliefs, config.alpha
            )
        else:
            prag_steps = base_steps
        score_keys = np.array([h.score for h in live])[:, None] + prag_steps
        base_keys = np.array([h.base for h in live])[:, None] + base_steps
        # A -inf step means the token is impossible here; such expansions
        # can never outrank a finite one and their belief updates are
        # undefined, so they are not expanded.
        parent, token = np.nonzero(score_keys > -math.inf)
        scores = score_keys[parent, token]
        bases = base_keys[parent, token]
        chosen = np.lexsort((-bases, -scores))[: config.beam_size]
        pool = list(finished)
        for i in chosen.tolist():
            k, tok = int(parent[i]), int(token[i])
            pool.append(
                _Hypothesis(
                    ids=live[k].ids + (tok,),
                    score=float(scores[i]),
                    base=float(bases[i]),
                    beliefs=posterior[k, :, tok] if pragmatic else None,
                    finished=tok == speaker.eos_id,
                )
            )
        pool.sort(key=lambda h: h.sort_key)
        beam = pool[: config.beam_size]
        finished = [h for h in beam if h.finished]
        live = sorted((h for h in beam if not h.finished), key=lambda h: h.ids)
    beam.sort(key=lambda h: h.sort_key)
    return beam


# ── public decoding operations ──────────────────────────────────────────────


def beam_search(
    speaker: SpeakerModel, input: object, config: DecodeConfig
) -> list[ScoredCandidate]:
    """Deterministic beam search under the base speaker.

    Returns up to ``beam_size`` candidates, each EOS-terminated or exactly
    ``max_len`` tokens long, sorted by base score with ties broken by
    lexicographic token ids.
    """
    hyps = _beam_decode(speaker, input, config)
    return [
        ScoredCandidate(
            output=TokenSequence(h.ids, eos_id=speaker.eos_id),
            base_logprob=h.base,
        )
        for h in hyps
    ]


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
        rescored.append(
            ScoredCandidate(
                output=cand.output,
                base_logprob=cand.base_logprob,
                listener_logprob=listener_lp,
                combined_score=combined,
            )
        )
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
    hyps = _beam_decode(speaker, input, config, distractors=list(distractors))
    top = hyps[0]
    return ScoredCandidate(
        output=TokenSequence(top.ids, eos_id=speaker.eos_id),
        base_logprob=top.base,
        listener_logprob=float(top.beliefs[0]),
        combined_score=top.score,
    )


def generate(
    speaker: SpeakerModel,
    input: object,
    config: DecodeConfig,
    listener: object | None = None,
    distractors: Sequence[object] | None = None,
) -> ScoredCandidate:
    """Dispatch one decode according to ``config.mode``.

    Distractor mode falls back to the plain beam output when no distractor
    is supplied (the first unit of a document, a fully unmaskable input).
    """
    if config.mode == MODE_BASE:
        return beam_search(speaker, input, config)[0]
    if config.mode == MODE_RECONSTRUCTOR:
        if listener is None:
            raise ValueError("reconstructor mode requires a listener")
        candidates = beam_search(speaker, input, config)
        return rerank_reconstructor(input, candidates, listener, config.lambda_)[0]
    if config.mode == MODE_DISTRACTOR:
        if not distractors:
            return beam_search(speaker, input, config)[0]
        return pragmatic_decode_distractor(speaker, input, distractors, config)
    raise ValueError(f"unknown decode mode {config.mode!r}")
