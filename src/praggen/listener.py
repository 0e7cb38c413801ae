"""Reconstruction listener: given text, how recoverable is the input?

:class:`AttributeClassifierListener` factorizes the input into one
multinomial naive Bayes classifier per schema attribute over the output's
bag of words. Each attribute's class set is its value set plus an explicit
absent class, so the scored joint over complete meaning representations is
a proper distribution. ``reconstruction_logprob`` is the contract the
reconstructor reranker calls.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import accumulate
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import (
    STRUCTURAL_IDS,
    AttributeSchema,
    MeaningRepresentation,
    TokenSequence,
    Vocabulary,
    dump_json,
    log_softmax,
    schema_from_dict,
    schema_to_dict,
)
from .speaker import add_k_rows, check_counts, read_counts, read_number

ABSENT_CLASS = "__absent__"


def _bag_ids(output: TokenSequence) -> list[int]:
    return [i for i in output.ids if i not in STRUCTURAL_IDS]


class AttributeClassifierListener:
    """Per-attribute bag-of-words naive Bayes with add-k smoothing.

    ``class_counts`` and ``token_counts`` hold raw training counts; the
    smoothed log matrices are materialized once and reused. A freshly
    constructed listener (all counts zero) yields uniform posteriors.
    """

    def __init__(
        self, schema: AttributeSchema, vocab: Vocabulary, k: float = 0.5
    ) -> None:
        if not 0.0 < k < math.inf:
            raise ValueError("smoothing constant k must be finite and positive")
        self.schema = schema
        self.vocab = vocab
        self.k = float(k)
        self.classes: dict[str, tuple[str, ...]] = {
            spec.name: tuple(spec.values) + (ABSENT_CLASS,) for spec in schema
        }
        self.class_counts: dict[str, dict[str, int]] = {
            name: {c: 0 for c in classes} for name, classes in self.classes.items()
        }
        self.token_counts: dict[str, dict[str, Counter[int]]] = {
            name: {c: Counter() for c in classes} for name, classes in self.classes.items()
        }
        # Each attribute's rows in the tables, which stack all classes.
        ends = accumulate(len(c) for c in self.classes.values())
        self._rows = {n: slice(e - len(c), e) for (n, c), e in zip(self.classes.items(), ends)}
        self._starts = np.array([r.start for r in self._rows.values()])
        self._sizes = np.array([len(c) for c in self.classes.values()])
        self._log_tables: tuple[np.ndarray, np.ndarray] | None = None

    # ── training ────────────────────────────────────────────────────────

    def _class_index(self, mr: MeaningRepresentation, attribute: str) -> int:
        """The index of the class that ``mr`` gives ``attribute``."""
        value = mr.get(attribute)
        try:
            return self.classes[attribute].index(value if value is not None else ABSENT_CLASS)
        except ValueError:
            raise ValueError(
                f"value {value!r} for attribute {attribute!r} is not a listener class"
            ) from None

    def observe(self, mr: MeaningRepresentation, output: TokenSequence) -> None:
        bag = _bag_ids(output)
        for spec in self.schema:
            cls = self.classes[spec.name][self._class_index(mr, spec.name)]
            self.class_counts[spec.name][cls] += 1
            self.token_counts[spec.name][cls].update(bag)
        self._log_tables = None

    # ── smoothed tables ─────────────────────────────────────────────────

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Log priors (classes,) and token log-likelihoods (V, classes)."""
        if self._log_tables is None:
            priors = []
            for name, classes in self.classes.items():
                counts = np.array([self.class_counts[name][c] for c in classes], dtype=float)
                priors.append(
                    np.log(counts + self.k) - math.log(counts.sum() + self.k * len(classes))
                )
            rows = [row for by_class in self.token_counts.values() for row in by_class.values()]
            prior = np.concatenate(priors)
            tok = np.ascontiguousarray(add_k_rows(rows, self.k, len(self.vocab)).T)
            prior.setflags(write=False)
            tok.setflags(write=False)
            self._log_tables = (prior, tok)
        return self._log_tables

    def _class_scores(self, output: TokenSequence) -> np.ndarray:
        """Every class's prior plus the bag's token rows, added row by row in bag order."""
        prior, tok = self._tables()
        return np.add.reduce(np.concatenate((prior[None, :], tok[_bag_ids(output)])), 0)

    def class_log_posteriors(self, attribute: str, output: TokenSequence) -> np.ndarray:
        """Log posterior over ``attribute``'s classes given the output bag."""
        return log_softmax(self._class_scores(output)[self._rows[attribute]])

    # ── listener contract ───────────────────────────────────────────────

    def reconstruction_logprob(self, input: object, output: TokenSequence) -> float:
        """Each attribute's ``log_softmax`` entry for the input's class, added
        in schema order from 0.0; only those entries are formed, bit for bit."""
        if not isinstance(input, MeaningRepresentation):
            raise TypeError("the attribute listener scores meaning representations")
        scores = self._class_scores(output)
        tops = np.maximum.reduceat(scores, self._starts)
        shifted = np.exp(scores - tops.repeat(self._sizes))
        values = scores.tolist()
        total = 0.0
        for spec, top in zip(self.schema, tops.tolist()):
            rows = self._rows[spec.name]
            idx = rows.start + self._class_index(input, spec.name)
            total += values[idx] - (top + math.log(np.add.reduce(shifted[rows])))
        return total


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


# ── serialization ───────────────────────────────────────────────────────────


def save_listener(listener: AttributeClassifierListener, path: str | Path) -> None:
    """Serialize a listener, with its schema, to one deterministic JSON file."""
    if not isinstance(listener, AttributeClassifierListener):
        raise TypeError(f"cannot serialize listener of type {type(listener).__name__}")
    payload = {
        "type": "attribute-nb",
        "k": listener.k,
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
        "schema": schema_to_dict(listener.schema),
    }
    dump_json(payload, Path(path))


def load_listener(
    path: str | Path, schema: AttributeSchema | None = None
) -> AttributeClassifierListener:
    """Load a serialized listener; its schema must equal ``schema`` if given."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    kind = payload.get("type")
    if kind != "attribute-nb":
        raise ValueError(f"unknown listener serialization type {kind!r}")
    loaded_schema = schema_from_dict(payload["schema"])
    if schema is not None and loaded_schema != schema:
        raise ValueError("listener schema differs from the given schema")
    vocab = Vocabulary(payload["vocab"])
    k = read_number("k", payload["k"])
    listener = AttributeClassifierListener(loaded_schema, vocab, k=k)
    for table in ("priors", "token_counts"):
        for attr, by_class in payload[table].items():
            if undeclared := set(by_class).difference(listener.classes[attr]):
                raise ValueError(f"class {min(undeclared)!r} of {attr!r} is not in the schema")
    for attr, row in payload["priors"].items():
        check_counts(row.values())
        listener.class_counts[attr].update(row)
    for attr, by_class in payload["token_counts"].items():
        for cls, row in by_class.items():
            listener.token_counts[attr][cls].update(read_counts(row, len(vocab)))
    return listener
