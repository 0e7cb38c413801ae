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
    schema_from_dict,
    schema_to_dict,
)
from .speaker import add_k_rows, check_counts, read_counts, read_number

ABSENT_CLASS = "__absent__"


def _bag_ids(output: TokenSequence) -> list[int]:
    return [i for i in output.ids if i not in STRUCTURAL_IDS]


class AttributeClassifierListener:
    """Per-attribute bag-of-words naive Bayes with add-k smoothing.

    ``counts`` holds the raw training counts as one (classes, V + 1) integer
    matrix: a row per class, attributes in schema order and each one's
    classes in ``classes`` order, of its bag-token counts and then its pair
    count. The smoothed log matrices are materialized once and reused. A
    freshly constructed listener (all counts zero) yields uniform posteriors.
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
        # Each attribute's rows in the tables, which stack all classes, and
        # the row of each of its classes.
        ends = accumulate(len(c) for c in self.classes.values())
        self._rows = {n: slice(e - len(c), e) for (n, c), e in zip(self.classes.items(), ends)}
        self._class_rows = {
            name: {c: row for row, c in enumerate(classes, self._rows[name].start)}
            for name, classes in self.classes.items()
        }
        self._starts = np.array([r.start for r in self._rows.values()])
        self._sizes = np.array([len(c) for c in self.classes.values()])
        self.counts = np.zeros((int(self._sizes.sum()), len(vocab) + 1), dtype=np.int64)
        self._log_tables: tuple[np.ndarray, np.ndarray] | None = None

    def _input_rows(self, mr: MeaningRepresentation) -> list[int]:
        """The table row of the class that ``mr`` gives each attribute, in
        schema order."""
        rows, get = [], mr.assignments.get
        for attribute, by_class in self._class_rows.items():
            value = get(attribute)
            row = by_class.get(ABSENT_CLASS if value is None else value)
            if row is None:
                raise ValueError(
                    f"value {value!r} for attribute {attribute!r} is not a listener class"
                )
            rows.append(row)
        return rows

    # ── smoothed tables ─────────────────────────────────────────────────

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Log priors (classes,) and token log-likelihoods (V, classes)."""
        if self._log_tables is None:
            pairs = self.counts[:, -1].astype(float)
            totals = np.add.reduceat(pairs, self._starts) + self.k * self._sizes
            prior = np.log(pairs + self.k) - np.log(totals).repeat(self._sizes)
            tok = np.ascontiguousarray(add_k_rows(self.counts[:, :-1], self.k).T)
            prior.setflags(write=False)
            tok.setflags(write=False)
            self._log_tables = (prior, tok)
        return self._log_tables

    def _log_posteriors(self, output: TokenSequence) -> np.ndarray:
        """Every class's log posterior given the output bag, normalized within
        its attribute: the prior plus the bag's token rows, added row by row in
        bag order, less the log of each attribute's shifted mass."""
        prior, tok = self._tables()
        scores = np.add.reduce(np.concatenate((prior[None, :], tok[_bag_ids(output)])), 0)
        tops = np.maximum.reduceat(scores, self._starts)
        mass = np.add.reduceat(np.exp(scores - tops.repeat(self._sizes)), self._starts)
        return scores - (tops + np.log(mass)).repeat(self._sizes)

    def class_log_posteriors(self, attribute: str, output: TokenSequence) -> np.ndarray:
        """Log posterior over ``attribute``'s classes given the output bag."""
        return self._log_posteriors(output)[self._rows[attribute]]

    # ── listener contract ───────────────────────────────────────────────

    def reconstruction_logprob(self, input: object, output: TokenSequence) -> float:
        """The log posterior of the class that ``input`` gives each attribute,
        added in schema order from 0.0."""
        if not isinstance(input, MeaningRepresentation):
            raise TypeError("the attribute listener scores meaning representations")
        rows = self._input_rows(input)
        total = 0.0
        for value in self._log_posteriors(output)[rows].tolist():
            total += value
        return total


# ── module-level operations ─────────────────────────────────────────────────


def train_attribute_listener(
    corpus: Iterable[tuple[MeaningRepresentation, TokenSequence]],
    schema: AttributeSchema,
    k: float = 0.5,
    *,
    vocab: Vocabulary,
) -> AttributeClassifierListener:
    """Count-train an :class:`AttributeClassifierListener` on (MR, output)
    pairs: each pair adds one to its MR's class of every attribute, and its
    output's bag of words to each of those classes' token counts.

    Each distinct MR's class rows are resolved once, one integer count fills
    every distinct MR's pair and token counts, and each class row then adds
    up the counts of the MRs that give its class.
    """
    listener = AttributeClassifierListener(schema, vocab, k=k)
    size = len(vocab)
    index: dict[MeaningRepresentation, int] = {}  # an MR -> its place
    rows, owners, ids, lengths = [], [], [], []
    for mr, output in corpus:
        if (owner := index.get(mr)) is None:
            owner = index[mr] = len(rows)
            rows.append(listener._input_rows(mr))
        owners.append(owner)
        ids += output.ids
        lengths.append(len(output.ids))
    if not owners:
        raise ValueError("training corpus is empty")
    ids = np.array(ids, dtype=np.intp)
    if ids.size and ids.max() >= size:
        raise ValueError(f"token id {ids.max()} is outside the vocabulary")
    # Row d holds distinct MR d's bag token counts, then its pair count.
    bag = ~np.isin(ids, list(STRUCTURAL_IDS))
    cells = np.concatenate((
        np.repeat(owners, lengths)[bag] * (size + 1) + ids[bag],
        np.array(owners, dtype=np.intp) * (size + 1) + size,
    ))
    counts = np.bincount(cells, minlength=len(rows) * (size + 1)).reshape(len(rows), size + 1)
    # A 0/1 product, so the float sums are exact integers below 2**53.
    gives = np.zeros((int(listener._sizes.sum()), len(rows)))
    gives[np.array(rows, dtype=np.intp).T, np.arange(len(rows))] = 1.0
    listener.counts = (gives @ counts).astype(np.int64)
    return listener


# ── serialization ───────────────────────────────────────────────────────────


def save_listener(listener: AttributeClassifierListener, path: str | Path) -> None:
    """Serialize a listener, with its schema, to one deterministic JSON file."""
    if not isinstance(listener, AttributeClassifierListener):
        raise TypeError(f"cannot serialize listener of type {type(listener).__name__}")
    counts, rows = listener.counts.tolist(), listener._class_rows
    payload = {
        "type": "attribute-nb",
        "k": listener.k,
        "vocab": list(listener.vocab.tokens),
        "priors": {attr: {cls: counts[row][-1] for cls, row in by_class.items()}
                   for attr, by_class in rows.items()},
        "token_counts": {
            attr: {cls: {str(t): c for t, c in enumerate(counts[row][:-1]) if c}
                   for cls, row in by_class.items()}
            for attr, by_class in rows.items()
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
            if attr not in listener.classes:
                raise ValueError(f"attribute {attr!r} is not in the listener's schema")
            if undeclared := set(by_class).difference(listener.classes[attr]):
                raise ValueError(f"class {min(undeclared)!r} of {attr!r} is not in the schema")
    rows, size = listener._class_rows, len(vocab)
    for attr, by_class in payload["priors"].items():
        check_counts(by_class.values())
        listener.counts[[rows[attr][c] for c in by_class], size] = list(by_class.values())
    for attr, by_class in payload["token_counts"].items():
        for cls, row in by_class.items():
            parsed = read_counts(row, size)
            listener.counts[rows[attr][cls], list(parsed)] = list(parsed.values())
    return listener
