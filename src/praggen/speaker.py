"""Base speaker models: smoothed n-gram scorers.

A speaker assigns a log-probability vector over the whole vocabulary to the
next output token, conditioned on an input (a meaning representation or a
tuple of context ids) and the generated prefix. The n-gram speaker is an
add-k n-gram over ``[BOS ; output ; EOS]``: a prefix's history is its last
``order - 1`` ids after BOS, and no window holds the input. The input enters
only through a log-linear copy bonus, which adds ``copy_bonus`` to the logit
of every token of the linearized input, SEP excepted; without it, downstream
pragmatic decoding would have nothing to amplify. Every row is the
log-normalized sum of the history's add-k row and the bonus; at a bonus of
zero that is the add-k row normalized again.
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from collections import Counter
from itertools import compress
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
    read_model_payload,
)

RowSource = Callable[[Sequence[tuple[int, ...]]], tuple[np.ndarray | None, np.ndarray]]

# NGramSpeaker.row_source normalizes a stack of up to this many entries whole,
# at 10-20 ns an entry; a larger one, row by row at 15-30 us a call.
EAGER_STACK_SIZE = 1 << 16

# Fills a training window that reaches back past BOS.
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
        """Resolve ``input`` into the context ids the speaker conditions on."""

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
    """Add-k smoothed n-gram model over outputs plus the input's copy bonus.

    ``windows`` maps each window seen in training, its history and then the
    next token, to its count. A prefix's history is the last ``order - 1``
    ids of ``[BOS ; prefix]``, so a shorter history starts at BOS. Every
    context shares a prefix's history; only the copy bonus reads the context.
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
        self.windows: dict[tuple[int, ...], int] = {}
        self._table: tuple[dict[tuple[int, ...], int], np.ndarray] | None = None

    # ── scoring ─────────────────────────────────────

    def context_ids(self, input: object) -> tuple[int, ...]:
        if isinstance(input, MeaningRepresentation):
            if self.schema is None:
                raise ValueError("a schema is required to linearize MR inputs")
            return linearize_mr(input, self.schema, self.vocab)
        if isinstance(input, (tuple, list)):
            ids = tuple(map(operator.index, input))  # refuses a non-integer
            if outside := [i for i in ids if not 0 <= i < self.vocab_size]:
                raise ValueError(f"context token id {outside[0]} is outside the vocabulary")
            return ids
        raise TypeError(f"unsupported speaker input type {type(input).__name__}")

    def _window_table(self) -> tuple[dict[tuple[int, ...], int], np.ndarray]:
        """Each seen history's row index, and the frozen (histories + 1, V)
        matrix of add-k rows whose last row serves every unseen history."""
        if self._table is None:
            index: dict[tuple[int, ...], int] = {}
            rows = [index.setdefault(window[:-1], len(index)) for window in self.windows]
            counts = np.zeros((len(index) + 1, self.vocab_size), dtype=np.int64)
            counts[rows, [window[-1] for window in self.windows]] = list(self.windows.values())
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
        row = table[index.get(_history(prefix_ids, self.order - 1), len(index))]
        return log_softmax(row + self._bonus((ctx,))[0])

    def row_source(self, contexts: Sequence[tuple[int, ...]]) -> RowSource:
        """Gather each step's rows from one (H+1, L, V) stack per decode: each
        table row under each context, copy bonus added and log-normalized as
        in ``step_logprobs_ctx``, up front or, past ``EAGER_STACK_SIZE``
        entries, on its first gather. The base rows come from an (H+1, V)
        stack of the first context's rows normalized again, built along with
        the stack; with one context only they are gathered. The contexts
        differ only in their copy bonus, so one history lookup per prefix
        finds its row under every context."""
        index, table = self._window_table()
        span, unseen = self.order - 1, len(index)
        shape = (len(table), len(contexts), table.shape[1])
        bonus = self._bonus(contexts)
        done = None
        if math.prod(shape) <= EAGER_STACK_SIZE:
            stack = log_softmax(table[:, None] + bonus)
            base = log_softmax(stack[:, 0])
        else:
            stack, base, done = np.empty(shape), np.empty(table.shape), set()

        def rows(prefixes: Sequence[tuple[int, ...]]) -> tuple[np.ndarray | None, np.ndarray]:
            visited = [index.get(_history(p, span), unseen) for p in prefixes]
            if done is not None and (fresh := list(set(visited) - done)):
                stack[fresh] = log_softmax(table[fresh][:, None] + bonus)
                base[fresh] = log_softmax(stack[fresh, 0])
                done.update(fresh)
            # An index array gathers at a fraction of a list's cost.
            at = np.array(visited)
            return (stack[at] if len(contexts) > 1 else None), base.take(at, 0)

        return rows


def _history(prefix: tuple[int, ...], span: int) -> tuple[int, ...]:
    """The n-gram history of ``prefix``: the last ``span`` ids of
    ``[BOS ; prefix]``, built without copying the whole prefix."""
    return prefix[-span:] if len(prefix) >= span else (BOS_ID, *prefix)


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

    Each pair contributes the windows over ``[BOS ; output ; EOS]`` whose
    next token is an output position (first output token through EOS), cut
    short at BOS: exactly the histories scoring later queries. No window
    holds the input, which the speaker reads only through its copy bonus;
    each input is still resolved, so one it cannot resolve is refused, as
    is an output that holds BOS, whose histories no speaker file may hold.

    All windows are counted in one pass: each pair adds BOS, padded at the
    front to ``order - 1`` ids, and its output to one stream, and the
    windows that end in an output position are counted together.
    """
    model = NGramSpeaker(order, k, vocab, schema=schema, copy_bonus=copy_bonus)
    span = order - 1
    head = (_PAD,) * (span - 1) + (BOS_ID,)
    stream: list = []
    ends = bytearray()  # 1 where a window starting there ends in an output position
    tail = bytes(span)
    for input, output in corpus:
        model.context_ids(input)  # refuses an input it cannot resolve
        if BOS_ID in output.ids:
            raise ValueError("a training output holds BOS")
        stream += head
        stream += output.core_ids()
        stream.append(EOS_ID)
        ends += b"\1" * (len(stream) - len(ends) - span) + tail
    if not stream:
        raise ValueError("training corpus is empty")
    windows = Counter(compress(zip(*(stream[i:] for i in range(order))), ends))
    model.windows = {window[window.count(_PAD) :]: n for window, n in windows.items()}
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


def _joined(ids: tuple[int, ...]) -> str:
    """``ids`` comma-joined and quoted, as a refusal names a history."""
    return repr(",".join(map(str, ids)))


def save_speaker(model: SpeakerModel, path: str | Path) -> None:
    """Serialize a speaker to deterministic JSON, its windows as sorted
    ``[history..., token, count]`` rows."""
    if not isinstance(model, NGramSpeaker):
        raise TypeError(f"cannot serialize speaker of type {type(model).__name__}")
    payload = {
        "type": "ngram",
        "order": model.order,
        "k": model.k,
        "copy_bonus": model.copy_bonus,
        "vocab": list(model.vocab.tokens),
        "windows": sorted([*window, count] for window, count in model.windows.items()),
    }
    dump_json(payload, Path(path))


def load_speaker(path: str | Path, schema: AttributeSchema | None = None) -> NGramSpeaker:
    """Load a serialized speaker; refuses a window row that training could
    not have written, and a window written twice."""
    payload = read_model_payload(path, "ngram", "speaker")
    order = payload["order"]
    if type(order) is not int:
        raise ValueError(f"order {order!r} is not an integer")
    model = NGramSpeaker(
        order=order,
        k=read_number("k", payload["k"]),
        vocab=Vocabulary(payload["vocab"]),
        schema=schema,
        copy_bonus=read_number("copy_bonus", payload["copy_bonus"]),
    )
    rows = payload["windows"]
    if not isinstance(rows, list):
        raise ValueError("windows is not a list")
    for n, row in enumerate(rows):
        if not (isinstance(row, list) and 3 <= len(row) <= order + 1
                and all(type(i) is int for i in row[:-1])):
            raise ValueError(f"window row {n} is not 2 to {order} token ids and a count")
        window = tuple(row[:-1])
        if outside := [i for i in window if not 0 <= i < model.vocab_size]:
            raise ValueError(f"token id {outside[0]} is outside the vocabulary")
        # A history is the last ``order - 1`` ids of [BOS ; prefix]: a shorter
        # one starts at BOS, and none holds BOS after its start.
        if BOS_ID in window[1:-1]:
            raise ValueError(
                f"history {_joined(window[:-1])} reaches back before BOS; retrain the speaker")
        if len(window) < order and window[0] != BOS_ID:
            raise ValueError(f"history {_joined(window[:-1])} does not fit order {order}")
        if window in model.windows:
            raise ValueError(f"window row {n} repeats an earlier row")
        model.windows[window] = row[-1]
    check_counts(model.windows.values())
    return model
