"""Base speaker models: smoothed n-gram scorers.

A speaker assigns a log-probability vector over the whole vocabulary to the
next output token, conditioned on an input (a meaning representation or a
tuple of context ids) and the generated prefix. The n-gram speaker scores
through a single sliding window over ``[linearized input ; BOS ; prefix]``,
so the input acts as pre-context for the first steps and the model falls
back to a plain language model once the window has moved past it.

That window design is deliberately underinformative. To keep the speaker
weakly aware of its input at every step (without which downstream pragmatic
decoding has nothing to amplify), an optional log-linear copy bonus can add
``copy_bonus`` to the logit of every token that appears in the linearized
input. Every row is the log-normalized sum of the history's add-k row and the
bonus; at the default bonus of zero that is the add-k row normalized again.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from collections import Counter
from itertools import chain, compress
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (
    BOS_ID,
    EOS_ID,
    SEP_ID,
    AttributeSchema,
    MeaningRepresentation,
    TokenSequence,
    Vocabulary,
    dump_json,
    linearize_mr,
    log_softmax,
)

RowSource = Callable[[Sequence[tuple[int, ...]]], tuple[np.ndarray | None, np.ndarray]]

# NGramSpeaker.row_source normalizes a stack of up to this many entries whole,
# at 10-20 ns an entry; a larger one, row by row at 15-30 us a call.
EAGER_STACK_SIZE = 1 << 16

# Fills a training window that reaches back past the start of its context.
_PAD = None


class SpeakerModel(ABC):
    """Contract shared by every base speaker.

    An implementation resolves an input into its context ids and gives
    ``step_logprobs_ctx``, a dense next-token log-probability row for any
    (context, prefix) pair; the exponentiated row sums to one.

    A decoder gets its step rows from ``row_source(contexts)``, asked once
    per decode: a function from ``n`` prefixes to their (n, L, V) rows
    under the decode's ``L`` contexts, equal bit for bit to
    ``step_logprobs_ctx``, and their (n, V) base rows, equal bit for bit to
    ``log_softmax(rows[:, 0])``. A decode with one context reads only the
    base rows, so there the rows are ``None``. The default stacks
    ``step_logprobs_ctx`` calls; a speaker whose rows come from a fixed
    table can build each row and base row once per decode instead.
    """

    vocab_size: int
    eos_id: int

    @abstractmethod
    def context_ids(self, input: object) -> tuple[int, ...]:
        """Resolve ``input`` into the id sequence used as pre-context."""

    @abstractmethod
    def step_logprobs_ctx(
        self, ctx: tuple[int, ...], prefix_ids: tuple[int, ...]
    ) -> np.ndarray:
        """Log-probability vector over the vocabulary for the next token."""

    def row_source(self, contexts: Sequence[tuple[int, ...]]) -> RowSource:
        """The step rows of one decode under ``contexts``: a function from
        ``n`` prefixes to ``(rows, base)``, whose (n, L, V) row ``[i, j]`` is
        ``step_logprobs_ctx(contexts[j], prefixes[i])`` and whose (n, V)
        ``base`` is ``log_softmax(rows[:, 0])``; ``rows`` is ``None`` when
        there is one context."""

        def rows(prefixes: Sequence[tuple[int, ...]]) -> tuple[np.ndarray | None, np.ndarray]:
            block = np.array([[self.step_logprobs_ctx(c, p) for c in contexts] for p in prefixes])
            return (block if len(contexts) > 1 else None), log_softmax(block[:, 0])

        return rows


class NGramSpeaker(SpeakerModel):
    """Add-k smoothed n-gram model scored through an input-prefixed window.

    ``counts`` maps a history tuple (up to ``order - 1`` ids) to the counts
    of tokens observed after it.
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
        if not 0.0 < k < math.inf:
            raise ValueError("smoothing constant k must be finite and positive")
        if not 0.0 <= copy_bonus < math.inf:
            raise ValueError("copy_bonus must be finite and non-negative")
        self.order = order
        self.k = float(k)
        self.vocab = vocab
        self.schema = schema
        self.copy_bonus = float(copy_bonus)
        self.vocab_size = len(vocab)
        self.eos_id = EOS_ID
        self.counts: dict[tuple[int, ...], dict[int, int]] = {}
        self._table: tuple[dict[tuple[int, ...], int], np.ndarray] | None = None

    # ── scoring ─────────────────────────────────────

    def context_ids(self, input: object) -> tuple[int, ...]:
        if isinstance(input, MeaningRepresentation):
            if self.schema is None:
                raise ValueError("a schema is required to linearize MR inputs")
            return linearize_mr(input, self.schema, self.vocab)
        if isinstance(input, (tuple, list)):
            return tuple(int(i) for i in input)
        raise TypeError(f"unsupported speaker input type {type(input).__name__}")

    def _window_table(self) -> tuple[dict[tuple[int, ...], int], np.ndarray]:
        """Each seen history's row index, and the frozen (histories + 1, V)
        matrix of add-k rows whose last row serves every unseen history."""
        if self._table is None:
            index = {history: i for i, history in enumerate(self.counts)}
            counts = np.zeros((len(index) + 1, self.vocab_size), dtype=np.int64)
            for i, row in enumerate(self.counts.values()):
                counts[i, list(row)] = list(row.values())
            table = add_k_rows(counts, self.k)
            table.setflags(write=False)
            self._table = (index, table)
        return self._table

    def _bonus(self, contexts: Sequence[tuple[int, ...]]) -> np.ndarray:
        """The (L, V) copy bonus: ``copy_bonus`` on each context's tokens,
        SEP excepted, and zero elsewhere."""
        bonus = np.zeros((len(contexts), self.vocab_size))
        for j, ctx in enumerate(contexts):
            bonus[j, [tok for tok in ctx if tok != SEP_ID]] = self.copy_bonus
        return bonus

    def step_logprobs_ctx(self, ctx: tuple[int, ...], prefix_ids: tuple[int, ...]) -> np.ndarray:
        index, table = self._window_table()
        row = table[self._history_rows(index, (ctx,), (prefix_ids,))[0][0]]
        return log_softmax(row + self._bonus((ctx,))[0])

    def _history_rows(self, index, contexts, prefixes) -> list[list[int]]:
        """The table row of each prefix's window under each context."""
        span, unseen = self.order - 1, len(index)
        return [[index.get((c + (BOS_ID,) + p)[-span:], unseen) for c in contexts] for p in prefixes]

    def row_source(self, contexts: Sequence[tuple[int, ...]]) -> RowSource:
        """Gather each step's rows from one (H+1, L, V) stack per decode: each
        table row under each context, copy bonus added and log-normalized as
        in ``step_logprobs_ctx``, up front or, past ``EAGER_STACK_SIZE``
        entries, on its first gather. The base rows come from an (H+1, V)
        stack of the first context's rows normalized again, built along with
        the stack; with one context only they are gathered. Once a prefix
        holds ``order - 1`` ids one lookup finds its row under every context
        (the state-based query of KenLM; Heafield 2011)."""
        index, table = self._window_table()
        span, unseen, columns = self.order - 1, len(index), np.arange(len(contexts))
        shape = (len(table), len(contexts), table.shape[1])
        bonus = self._bonus(contexts)
        done = None
        if math.prod(shape) <= EAGER_STACK_SIZE:
            stack = log_softmax(table[:, None] + bonus)
            base = log_softmax(stack[:, 0])
        else:
            stack, base, done = np.empty(shape), np.empty(table.shape), set()

        def rows(prefixes: Sequence[tuple[int, ...]]) -> tuple[np.ndarray | None, np.ndarray]:
            if min(map(len, prefixes)) >= span:
                visited = [index.get(p[-span:], unseen) for p in prefixes]
                at = first = np.array(visited)
            else:
                visited = self._history_rows(index, contexts, prefixes)
                first = np.array([v[0] for v in visited])
                at, visited = (visited, columns), chain.from_iterable(visited)
            if done is not None and (fresh := list(set(visited) - done)):
                stack[fresh] = log_softmax(table[fresh][:, None] + bonus)
                base[fresh] = log_softmax(stack[fresh, 0])
                done.update(fresh)
            # An index array gathers at a fraction of a list's cost.
            return (stack[at] if len(contexts) > 1 else None), base.take(first, 0)

        return rows


# ── module-level operations ─────────────────────────────────────────────────


def add_k_rows(counts: np.ndarray, k: float) -> np.ndarray:
    """The add-k log-probability rows of a (rows, V) token-count matrix:
    ``log((count + k) / (total + k * V))``, where a row of zeros gives the
    uniform row. The totals are float sums, exact below 2**53, so that a row
    of large loaded counts cannot wrap around an int64."""
    totals = counts.sum(axis=1, dtype=float) + k * counts.shape[1]
    return np.log(counts + k) - np.log(totals)[:, None]


def train_ngram_speaker(
    corpus: Iterable[tuple[object, TokenSequence]],
    order: int,
    k: float,
    *,
    vocab: Vocabulary,
    schema: AttributeSchema | None = None,
    copy_bonus: float = 0.0,
) -> NGramSpeaker:
    """Count-train an :class:`NGramSpeaker` on (input, output) pairs.

    Each pair contributes the windows over ``[ctx ; BOS ; output ; EOS]``
    whose next token is an output position (first output token through
    EOS). Their histories reach back across BOS into the context tail,
    exactly the windows scoring later queries, and are cut short at the
    start of the context. Counting transitions inside the context itself
    would bleed input linearization statistics into the output
    distribution wherever the two streams share tokens.

    All windows are counted in one pass: each pair adds its context's last
    ``order - 1`` ids (padded at the front) and its output to one stream,
    and the windows that end in an output position are counted together.
    An MR's context is resolved once however often it recurs.
    """
    model = NGramSpeaker(order, k, vocab, schema=schema, copy_bonus=copy_bonus)
    span = order - 1
    heads: dict[MeaningRepresentation, tuple] = {}  # an MR -> its window head

    def head(input: object) -> tuple:
        return ((_PAD,) * span + model.context_ids(input) + (BOS_ID,))[-span:]

    stream: list = []
    ends = bytearray()  # 1 where a window starting there ends in an output position
    tail = bytes(span)
    for input, output in corpus:
        if isinstance(input, MeaningRepresentation):
            stream += heads.get(input) or heads.setdefault(input, head(input))
        else:
            stream += head(input)
        stream += output.core_ids()
        stream.append(EOS_ID)
        ends += b"\1" * (len(stream) - len(ends) - span) + tail
    if not stream:
        raise ValueError("training corpus is empty")
    windows = Counter(compress(zip(*(stream[i:] for i in range(order))), ends))
    for window, n in windows.items():
        history = window[window.count(_PAD) : -1]
        row = model.counts.get(history)
        if row is None:
            row = model.counts[history] = {}
        row[window[-1]] = n
    return model


# ── serialization ───────────────────────────────────────────────────────────


def check_counts(counts: Iterable[object]) -> None:
    """Refuse a serialized count that is not an integer in ``[0, 2**53)``:
    such a count is exactly a float and fits an int64, and a row of them
    totals far below a float's range. A long refused count is named by its size."""
    if bad := [c for c in counts if type(c) is not int or not 0 <= c < 2**53]:
        text = repr(bad[0])
        what = text if len(text) <= 20 else f"of {len(text)} characters"
        raise ValueError(f"count {what} is not a non-negative integer below 2**53")


def read_number(name: str, value: object) -> float:
    """The serialized setting ``name``; refuses anything but a JSON number."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} {value!r} is not a number")
    return float(value)


def read_counts(row: dict, size: int) -> dict[int, int]:
    """A serialized ``{token id: count}`` row with its ids parsed; refuses a
    count that ``check_counts`` refuses and an id outside ``range(size)``."""
    check_counts(row.values())
    parsed = {int(tok): count for tok, count in row.items()}
    if outside := set(parsed).difference(range(size)):
        raise ValueError(f"token id {min(outside)} is outside the vocabulary")
    return parsed


def save_speaker(model: SpeakerModel, path: str | Path) -> None:
    """Serialize a speaker to deterministic JSON."""
    if not isinstance(model, NGramSpeaker):
        raise TypeError(f"cannot serialize speaker of type {type(model).__name__}")
    payload = {
        "type": "ngram",
        "order": model.order,
        "k": model.k,
        "copy_bonus": model.copy_bonus,
        "vocab": list(model.vocab.tokens),
        "counts": {
            ",".join(str(i) for i in history): {
                str(tok): cnt for tok, cnt in sorted(row.items())
            }
            for history, row in model.counts.items()
        },
    }
    dump_json(payload, Path(path))


def load_speaker(path: str | Path, schema: AttributeSchema | None = None) -> NGramSpeaker:
    """Load a serialized speaker."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    kind = payload.get("type")
    if kind != "ngram":
        raise ValueError(f"unknown speaker serialization type {kind!r}")
    order = payload["order"]
    if type(order) is not int:
        raise ValueError(f"order {order!r} is not an integer")
    model = NGramSpeaker(
        order=order,
        k=read_number("k", payload["k"]),
        vocab=Vocabulary(payload["vocab"]),
        schema=schema,
        copy_bonus=read_number("copy_bonus", payload.get("copy_bonus", 0.0)),
    )
    for key, row in payload["counts"].items():
        history = tuple(int(i) for i in key.split(","))
        read_counts(dict.fromkeys(history, 0), model.vocab_size)  # checks the ids
        # A trained window is short only where it reaches back across BOS
        # to the start of the context.
        if len(history) >= order or (len(history) < order - 1 and BOS_ID not in history):
            raise ValueError(f"history {key!r} does not fit order {order}")
        model.counts[history] = read_counts(row, model.vocab_size)
    return model
