"""Base speaker models: smoothed n-gram scorers and their ensembles.

A speaker assigns a log-probability vector over the whole vocabulary to the
next output token, conditioned on an input (a meaning representation or a
token sequence) and the generated prefix. The n-gram speaker scores through
a single sliding window over ``[linearized input ; BOS ; prefix]``, so the
input acts as pre-context for the first steps and the model falls back to a
plain language model once the window has moved past it.

That window design is deliberately underinformative. To keep the speaker
weakly aware of its input at every step (without which downstream pragmatic
decoding has nothing to amplify), an optional log-linear copy bonus can add
``copy_bonus`` to the logit of every token that appears in the linearized
input. The bonus defaults to zero, which recovers the plain add-k formula.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import (
    BOS_ID,
    EOS_ID,
    SEP_ID,
    AttributeSchema,
    MeaningRepresentation,
    TokenSequence,
    Vocabulary,
    linearize_mr,
    log_softmax,
)

SpeakerInput = "MeaningRepresentation | TokenSequence | tuple[int, ...]"


class SpeakerModel(ABC):
    """Contract shared by every base speaker.

    Implementations expose a dense next-token log-probability vector for
    any (input, prefix) pair; the exponentiated vector sums to one.

    ``prefix_window`` declares how many trailing prefix ids a step row
    depends on, given the context: two prefixes with the same
    ``prefix_key`` get the same row, which lets a decoder reuse it. A
    prefix shorter than the window is its own key, since its row also
    depends on the context. ``None`` (the default) declares that a row may
    depend on the whole prefix.
    """

    vocab_size: int
    eos_id: int
    prefix_window: int | None = None

    @abstractmethod
    def context_ids(self, input: object) -> tuple[int, ...]:
        """Resolve ``input`` into the id sequence used as pre-context."""

    @abstractmethod
    def step_logprobs_ctx(
        self, ctx: tuple[int, ...], prefix_ids: tuple[int, ...]
    ) -> np.ndarray:
        """Log-probability vector over the vocabulary for the next token."""


def prefix_key(prefix_ids: tuple[int, ...], window: int | None) -> tuple[int, ...]:
    """The part of ``prefix_ids`` a step row depends on, given the context.

    That is the last ``window`` ids, or the whole prefix when it is shorter
    than the window or ``window`` is ``None``.
    """
    if window is None:
        return prefix_ids
    return prefix_ids[-window:] if window else ()


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class NGramSpeaker(SpeakerModel):
    """Add-k smoothed n-gram model scored through an input-prefixed window.

    ``counts`` maps a history tuple (up to ``order - 1`` ids) to the counts
    of tokens observed after it; ``totals`` caches each history's mass.
    """

    def __init__(
        self,
        order: int,
        k: float,
        vocab: Vocabulary,
        schema: AttributeSchema | None = None,
        copy_bonus: float = 0.0,
    ) -> None:
        if order < 2:
            raise ValueError("n-gram order must be at least 2")
        if k <= 0:
            raise ValueError("smoothing constant k must be positive")
        if copy_bonus < 0:
            raise ValueError("copy_bonus must be non-negative")
        self.order = order
        self.k = float(k)
        self.vocab = vocab
        self.schema = schema
        self.copy_bonus = float(copy_bonus)
        self.vocab_size = len(vocab)
        self.eos_id = EOS_ID
        self.prefix_window = order - 1
        self.counts: dict[tuple[int, ...], dict[int, int]] = {}
        self.totals: dict[tuple[int, ...], int] = {}
        self._window_cache: dict[tuple[int, ...], np.ndarray] = {}
        self._bonus_cache: dict[tuple[int, ...], np.ndarray] = {}
        self._uniform: np.ndarray | None = None

    # ── training ────────────────────────────────────────────────────────

    def observe(self, input: object, output: TokenSequence) -> None:
        """Accumulate window counts over ``[ctx ; BOS ; output ; EOS]``.

        Only output positions (first output token through EOS) contribute
        (history, next) pairs; their histories reach back across BOS into
        the context tail, exactly the windows scoring later queries.
        Counting transitions inside the context itself would bleed input
        linearization statistics into the output distribution wherever the
        two streams share tokens.
        """
        ctx = self.context_ids(input)
        seq = list(ctx) + [BOS_ID] + list(output.core_ids()) + [EOS_ID]
        span = self.order - 1
        for t in range(len(ctx) + 1, len(seq)):
            history = tuple(seq[max(0, t - span) : t])
            nxt = seq[t]
            row = self.counts.setdefault(history, {})
            row[nxt] = row.get(nxt, 0) + 1
            self.totals[history] = self.totals.get(history, 0) + 1
        self._window_cache.clear()

    # ── scoring ─────────────────────────────────────

    def context_ids(self, input: object) -> tuple[int, ...]:
        if isinstance(input, MeaningRepresentation):
            if self.schema is None:
                raise ValueError("a schema is required to linearize MR inputs")
            return linearize_mr(input, self.schema, self.vocab).ids
        if isinstance(input, TokenSequence):
            return input.core_ids(self.eos_id)
        if isinstance(input, (tuple, list)):
            return tuple(int(i) for i in input)
        raise TypeError(f"unsupported speaker input type {type(input).__name__}")

    def _window_vector(self, history: tuple[int, ...]) -> np.ndarray:
        cached = self._window_cache.get(history)
        if cached is not None:
            return cached
        total = self.totals.get(history)
        if total is None:
            if self._uniform is None:
                floor = math.log(self.k) - math.log(self.k * self.vocab_size)
                self._uniform = _freeze(np.full(self.vocab_size, floor))
            vec = self._uniform
        else:
            denom = math.log(total + self.k * self.vocab_size)
            arr = np.full(self.vocab_size, math.log(self.k) - denom)
            for tok, cnt in self.counts[history].items():
                arr[tok] = math.log(cnt + self.k) - denom
            vec = _freeze(arr)
        self._window_cache[history] = vec
        return vec

    def _bonus_vector(self, ctx: tuple[int, ...]) -> np.ndarray:
        cached = self._bonus_cache.get(ctx)
        if cached is not None:
            return cached
        feat = np.zeros(self.vocab_size)
        for tok in ctx:
            if tok != SEP_ID:
                feat[tok] = 1.0
        vec = _freeze(feat)
        self._bonus_cache[ctx] = vec
        return vec

    def step_logprobs_ctx(
        self, ctx: tuple[int, ...], prefix_ids: tuple[int, ...]
    ) -> np.ndarray:
        span = self.order - 1
        window = (ctx + (BOS_ID,) + prefix_ids)[-span:]
        base = self._window_vector(window)
        if self.copy_bonus == 0.0:
            return base
        return log_softmax(base + self.copy_bonus * self._bonus_vector(ctx))


class EnsembleSpeaker(SpeakerModel):
    """Per-step log-linear interpolation of two speakers over one vocabulary."""

    def __init__(self, member_a: SpeakerModel, member_b: SpeakerModel, weight: float) -> None:
        if not 0.0 <= weight <= 1.0:
            raise ValueError("ensemble weight must lie in [0, 1]")
        if member_a.vocab_size != member_b.vocab_size:
            raise ValueError("ensemble members must share one vocabulary")
        if member_a.eos_id != member_b.eos_id:
            raise ValueError("ensemble members disagree on the EOS id")
        self.member_a = member_a
        self.member_b = member_b
        self.weight = float(weight)
        self.vocab_size = member_a.vocab_size
        self.eos_id = member_a.eos_id

    def context_ids(self, input: object) -> tuple[int, ...]:
        return self.member_a.context_ids(input)

    def step_logprobs_ctx(
        self, ctx: tuple[int, ...], prefix_ids: tuple[int, ...]
    ) -> np.ndarray:
        a = self.member_a.step_logprobs_ctx(ctx, prefix_ids)
        b = self.member_b.step_logprobs_ctx(ctx, prefix_ids)
        return log_softmax(self.weight * a + (1.0 - self.weight) * b)


# ── module-level operations ─────────────────────────────────────────────────


def train_ngram_speaker(
    corpus: Iterable[tuple[object, TokenSequence]],
    order: int,
    k: float,
    *,
    vocab: Vocabulary,
    schema: AttributeSchema | None = None,
    copy_bonus: float = 0.0,
) -> NGramSpeaker:
    """Count-train an :class:`NGramSpeaker` on (input, output) pairs."""
    model = NGramSpeaker(order, k, vocab, schema=schema, copy_bonus=copy_bonus)
    n = 0
    for input, output in corpus:
        model.observe(input, output)
        n += 1
    if n == 0:
        raise ValueError("training corpus is empty")
    return model


def next_token_logprobs(
    model: SpeakerModel, input: object, prefix: TokenSequence
) -> np.ndarray:
    """Next-token log-probability vector after ``prefix``.

    ``prefix`` must be unterminated: nothing follows EOS.
    """
    if prefix.terminated:
        raise ValueError("prefix is terminated; no next token exists")
    return model.step_logprobs_ctx(model.context_ids(input), prefix.ids)


def sequence_logprob(model: SpeakerModel, input: object, output: TokenSequence) -> float:
    """Chain-rule log-probability of a terminated output, EOS step included."""
    if not output.terminated:
        raise ValueError("sequence_logprob requires an EOS-terminated output")
    ctx = model.context_ids(input)
    total = 0.0
    for t, tok in enumerate(output.ids):
        vec = model.step_logprobs_ctx(ctx, output.ids[:t])
        total += float(vec[tok])
    return total


def ensemble_logprob(score_a: float, score_b: float, weight: float) -> float:
    """Weighted combination ``w * a + (1 - w) * b`` of two log scores."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError("ensemble weight must lie in [0, 1]")
    return weight * score_a + (1.0 - weight) * score_b


# ── serialization ───────────────────────────────────────────────────────────


def _dump_json(payload: dict, path: Path) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )


def save_speaker(
    model: SpeakerModel,
    path: str | Path,
    member_paths: Sequence[str | Path] | None = None,
) -> None:
    """Serialize a speaker to deterministic JSON.

    Ensembles are stored as references: both members are written to
    ``member_paths`` (required) and the ensemble file records those paths.
    """
    path = Path(path)
    if isinstance(model, NGramSpeaker):
        counts = {
            ",".join(str(i) for i in history): {
                str(tok): cnt for tok, cnt in sorted(row.items())
            }
            for history, row in model.counts.items()
        }
        _dump_json(
            {
                "type": "ngram",
                "order": model.order,
                "k": model.k,
                "copy_bonus": model.copy_bonus,
                "vocab": list(model.vocab.tokens),
                "counts": counts,
            },
            path,
        )
        return
    if isinstance(model, EnsembleSpeaker):
        if member_paths is None or len(member_paths) != 2:
            raise ValueError("saving an ensemble requires exactly two member paths")
        for member, mp in zip((model.member_a, model.member_b), member_paths):
            save_speaker(member, mp)
        _dump_json(
            {
                "type": "ensemble",
                "w": model.weight,
                "members": [str(Path(p)) for p in member_paths],
            },
            path,
        )
        return
    raise TypeError(f"cannot serialize speaker of type {type(model).__name__}")


def load_speaker(path: str | Path, schema: AttributeSchema | None = None) -> SpeakerModel:
    """Load a serialized speaker; ensemble member paths resolve relative to it."""
    path = Path(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    kind = payload.get("type")
    if kind == "ngram":
        vocab = Vocabulary(payload["vocab"])
        model = NGramSpeaker(
            order=int(payload["order"]),
            k=float(payload["k"]),
            vocab=vocab,
            schema=schema,
            copy_bonus=float(payload.get("copy_bonus", 0.0)),
        )
        for key, row in payload["counts"].items():
            history = tuple(int(i) for i in key.split(","))
            parsed = {int(tok): int(cnt) for tok, cnt in row.items()}
            model.counts[history] = parsed
            model.totals[history] = sum(parsed.values())
        return model
    if kind == "ensemble":
        member_a, member_b = (
            load_speaker(_resolve(path, p), schema=schema) for p in payload["members"]
        )
        return EnsembleSpeaker(member_a, member_b, float(payload["w"]))
    raise ValueError(f"unknown speaker serialization type {kind!r}")


def _resolve(anchor: Path, member: str) -> Path:
    candidate = Path(member)
    if candidate.is_absolute():
        return candidate
    return anchor.parent / candidate
