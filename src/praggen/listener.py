"""Reconstruction listeners: given text, how recoverable is the input?

Two flavors share one contract (``reconstruction_logprob``):

* :class:`AttributeClassifierListener` factorizes the input into one
  multinomial naive Bayes classifier per schema attribute over the output's
  bag of words. Each attribute's class set is its value set plus an
  explicit absent class, so the scored joint over complete meaning
  representations is a proper distribution.
* :class:`ReverseSpeakerListener` reuses the speaker machinery in the
  opposite direction, scoring the linearized input as a "translation" of
  the output text.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Iterable

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
    schema_from_dict,
    schema_to_dict,
)
from .speaker import NGramSpeaker, SpeakerModel, load_speaker, save_speaker, sequence_logprob

ABSENT_CLASS = "__absent__"

_EXCLUDED_BAG_IDS = frozenset({BOS_ID, EOS_ID, SEP_ID})


class ListenerModel(ABC):
    """Anything that can score how well an output identifies its input."""

    @abstractmethod
    def reconstruction_logprob(self, input: object, output: TokenSequence) -> float:
        """Log-probability of recovering ``input`` from ``output``."""


def _bag_ids(output: TokenSequence) -> list[int]:
    return [i for i in output.ids if i not in _EXCLUDED_BAG_IDS]


class AttributeClassifierListener(ListenerModel):
    """Per-attribute bag-of-words naive Bayes with add-k smoothing.

    ``class_counts`` and ``token_counts`` hold raw training counts; the
    smoothed log matrices are materialized once and reused. A freshly
    constructed listener (all counts zero) yields uniform posteriors.
    """

    def __init__(
        self, schema: AttributeSchema, vocab: Vocabulary, k: float = 0.5
    ) -> None:
        if k <= 0:
            raise ValueError("smoothing constant k must be positive")
        self.schema = schema
        self.vocab = vocab
        self.k = float(k)
        self.classes: dict[str, tuple[str, ...]] = {
            spec.name: tuple(spec.values) + (ABSENT_CLASS,) for spec in schema
        }
        self.class_counts: dict[str, dict[str, int]] = {
            name: {c: 0 for c in classes} for name, classes in self.classes.items()
        }
        self.token_counts: dict[str, dict[str, dict[int, int]]] = {
            name: {c: {} for c in classes} for name, classes in self.classes.items()
        }
        self._log_priors: dict[str, np.ndarray] = {}
        self._log_token: dict[str, np.ndarray] = {}

    # ── training ────────────────────────────────────────────────────────

    def observe(self, mr: MeaningRepresentation, output: TokenSequence) -> None:
        bag = _bag_ids(output)
        for spec in self.schema:
            label = mr.get(spec.name)
            cls = label if label is not None else ABSENT_CLASS
            if cls not in self.class_counts[spec.name]:
                raise ValueError(
                    f"value {label!r} for attribute {spec.name!r} is not a listener class"
                )
            self.class_counts[spec.name][cls] += 1
            row = self.token_counts[spec.name][cls]
            for tok in bag:
                row[tok] = row.get(tok, 0) + 1
        self._log_priors.clear()
        self._log_token.clear()

    # ── smoothed tables ─────────────────────────────────────────────────

    def _tables(self, attribute: str) -> tuple[np.ndarray, np.ndarray]:
        if attribute not in self._log_priors:
            classes = self.classes[attribute]
            counts = np.array(
                [self.class_counts[attribute][c] for c in classes], dtype=float
            )
            prior = np.log(counts + self.k) - math.log(
                counts.sum() + self.k * len(classes)
            )
            v = len(self.vocab)
            tok = np.zeros((len(classes), v))
            for ci, c in enumerate(classes):
                row = self.token_counts[attribute][c]
                total = sum(row.values())
                denom = math.log(total + self.k * v)
                tok[ci, :] = math.log(self.k) - denom
                for t, cnt in row.items():
                    tok[ci, t] = math.log(cnt + self.k) - denom
            prior.setflags(write=False)
            tok.setflags(write=False)
            self._log_priors[attribute] = prior
            self._log_token[attribute] = tok
        return self._log_priors[attribute], self._log_token[attribute]

    def class_log_posteriors(self, attribute: str, output: TokenSequence) -> np.ndarray:
        """Log posterior over ``attribute``'s classes given the output bag."""
        prior, tok = self._tables(attribute)
        scores = prior.copy()
        for t in _bag_ids(output):
            scores += tok[:, t]
        return log_softmax(scores)

    # ── listener contract ───────────────────────────────────────────────

    def reconstruction_logprob(self, input: object, output: TokenSequence) -> float:
        if not isinstance(input, MeaningRepresentation):
            raise TypeError("the attribute listener scores meaning representations")
        total = 0.0
        for spec in self.schema:
            value = input.get(spec.name)
            cls = value if value is not None else ABSENT_CLASS
            classes = self.classes[spec.name]
            try:
                idx = classes.index(cls)
            except ValueError:
                raise ValueError(
                    f"value {value!r} for attribute {spec.name!r} is not a listener class"
                ) from None
            total += float(self.class_log_posteriors(spec.name, output)[idx])
        return total


class ReverseSpeakerListener(ListenerModel):
    """Reconstruction score from a speaker trained on swapped pairs.

    The score of input ``i`` given output ``o`` is the reverse model's
    sequence log-probability of the linearized ``i`` (EOS-terminated) with
    ``o`` as its pre-context.
    """

    def __init__(
        self, model: SpeakerModel, schema: AttributeSchema, vocab: Vocabulary
    ) -> None:
        self.model = model
        self.schema = schema
        self.vocab = vocab

    def _target(self, input: object) -> TokenSequence:
        if isinstance(input, MeaningRepresentation):
            ids = linearize_mr(input, self.schema, self.vocab).ids
        elif isinstance(input, TokenSequence):
            ids = input.core_ids(self.model.eos_id)
        else:
            raise TypeError(f"unsupported listener input type {type(input).__name__}")
        return TokenSequence(ids + (EOS_ID,))

    def reconstruction_logprob(self, input: object, output: TokenSequence) -> float:
        return sequence_logprob(self.model, output, self._target(input))


# ── module-level operations ─────────────────────────────────────────────────


def train_attribute_listener(
    corpus: Iterable[tuple[MeaningRepresentation, TokenSequence]],
    schema: AttributeSchema,
    k: float = 0.5,
    *,
    vocab: Vocabulary,
) -> AttributeClassifierListener:
    listener = AttributeClassifierListener(schema, vocab, k=k)
    n = 0
    for mr, output in corpus:
        listener.observe(mr, output)
        n += 1
    if n == 0:
        raise ValueError("training corpus is empty")
    return listener


def train_reverse_listener(
    corpus: Iterable[tuple[MeaningRepresentation, TokenSequence]],
    order: int,
    k: float,
    *,
    schema: AttributeSchema,
    vocab: Vocabulary,
) -> ReverseSpeakerListener:
    """Train the swapped-pair speaker behind a reverse listener."""
    model = NGramSpeaker(order, k, vocab, schema=None)
    n = 0
    for mr, output in corpus:
        target = TokenSequence(linearize_mr(mr, schema, vocab).ids)
        model.observe(output, target)
        n += 1
    if n == 0:
        raise ValueError("training corpus is empty")
    return ReverseSpeakerListener(model, schema, vocab)


def attribute_posteriors(
    listener: AttributeClassifierListener, output: TokenSequence
) -> dict[str, np.ndarray]:
    """Per-attribute posterior probability vectors for ``output``."""
    return {
        spec.name: np.exp(listener.class_log_posteriors(spec.name, output))
        for spec in listener.schema
    }


def reconstruction_logprob(
    listener: ListenerModel, input: object, output: TokenSequence
) -> float:
    return listener.reconstruction_logprob(input, output)


# ── serialization ───────────────────────────────────────────────────────────


def save_listener(
    listener: ListenerModel, path: str | Path, model_path: str | Path | None = None
) -> None:
    """Serialize a listener; reverse listeners also write their inner speaker."""
    path = Path(path)
    if isinstance(listener, AttributeClassifierListener):
        payload = {
            "type": "attribute-nb",
            "k": listener.k,
            "schema": schema_to_dict(listener.schema),
            "vocab": list(listener.vocab.tokens),
            "priors": {
                attr: dict(sorted(row.items()))
                for attr, row in listener.class_counts.items()
            },
            "token_counts": {
                attr: {
                    cls: {str(t): c for t, c in sorted(row.items())}
                    for cls, row in by_class.items()
                }
                for attr, by_class in listener.token_counts.items()
            },
        }
        path.write_text(
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
        return
    if isinstance(listener, ReverseSpeakerListener):
        if model_path is None:
            raise ValueError("saving a reverse listener requires a model path")
        save_speaker(listener.model, model_path)
        # Stored relative to the listener file when possible, so the pair
        # stays loadable after the directory moves.
        model_ref = Path(model_path).resolve()
        try:
            model_ref = model_ref.relative_to(path.resolve().parent)
        except ValueError:
            pass
        payload = {"type": "reverse", "model": str(model_ref)}
        path.write_text(
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
        return
    raise TypeError(f"cannot serialize listener of type {type(listener).__name__}")


def load_listener(
    path: str | Path, schema: AttributeSchema | None = None
) -> ListenerModel:
    path = Path(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    kind = payload.get("type")
    if kind == "attribute-nb":
        loaded_schema = schema_from_dict(payload["schema"])
        vocab = Vocabulary(payload["vocab"])
        listener = AttributeClassifierListener(loaded_schema, vocab, k=float(payload["k"]))
        for attr, row in payload["priors"].items():
            for cls, cnt in row.items():
                listener.class_counts[attr][cls] = int(cnt)
        for attr, by_class in payload["token_counts"].items():
            for cls, row in by_class.items():
                listener.token_counts[attr][cls] = {
                    int(t): int(c) for t, c in row.items()
                }
        return listener
    if kind == "reverse":
        if schema is None:
            raise ValueError("loading a reverse listener requires a schema")
        member = Path(payload["model"])
        if not member.is_absolute():
            member = path.parent / member
        model = load_speaker(member)
        if not isinstance(model, NGramSpeaker):
            raise ValueError("reverse listener model must be an n-gram speaker")
        return ReverseSpeakerListener(model, schema, model.vocab)
    raise ValueError(f"unknown listener serialization type {kind!r}")
