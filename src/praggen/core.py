"""Shared vocabulary, token, and meaning-representation primitives.

Everything downstream (speakers, listeners, decoders, metrics) speaks in
terms of the types defined here: a fixed-id :class:`Vocabulary`, immutable
:class:`TokenSequence` values, attribute schemas, and meaning
representations (attribute -> value maps). The module also owns the two
deterministic text conventions the whole package relies on:

* canonicalization: lowercase, with ``. , ! ?`` split into standalone
  tokens (placeholder tokens are recognized case-insensitively and kept in
  their canonical uppercase form);
* linearization: a meaning representation becomes ``attr value-tokens ...``
  clauses in schema order, closed by a single ``<sep>``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

# ── reserved token ids ──────────────────────────────────────────────────────

BOS_ID = 0
EOS_ID = 1
SEP_ID = 2
UNK_ID = 3
NAME_PLH_ID = 4
NEAR_PLH_ID = 5

BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
SEP_TOKEN = "<sep>"
UNK_TOKEN = "<unk>"
NAME_PLACEHOLDER = "NAME_PLH"
NEAR_PLACEHOLDER = "NEAR_PLH"

RESERVED_TOKENS: tuple[str, ...] = (
    BOS_TOKEN,
    EOS_TOKEN,
    SEP_TOKEN,
    UNK_TOKEN,
    NAME_PLACEHOLDER,
    NEAR_PLACEHOLDER,
)

PLACEHOLDER_TOKENS = frozenset({NAME_PLACEHOLDER, NEAR_PLACEHOLDER})

# Structural ids, left out of rendered text and listener bags; placeholders stay.
STRUCTURAL_IDS = frozenset({BOS_ID, EOS_ID, SEP_ID})


class DegenerateDistributionError(ValueError):
    """Raised when a weight vector has no finite mass to normalize."""


class UnbuildableContextError(ValueError):
    """Raised when a meaning representation cannot be linearized."""


# ── text canonicalization ───────────────────────────────────────────────────


def normalize_words(text: str) -> list[str]:
    """Split ``text`` into canonical word tokens.

    Lowercases everything except the reserved placeholder tokens, which are
    recognized case-insensitively and emitted in canonical uppercase form.
    The punctuation marks ``. , ! ?`` become standalone tokens.
    """
    for mark in ".,!?":  # a pass adds only spaces, so no mark is spaced twice
        text = text.replace(mark, f" {mark} ")
    # Lowercasing looks past a "." to place a final sigma but never past a
    # space, so once the marks are spaced each word lowers on its own.
    lowered = text.lower()
    words = lowered.split()
    if "_plh" in lowered:
        return list(map(_PLACEHOLDER_WORDS.get, words, words))
    return words


# No letter outside ASCII lowers or uppercases into a placeholder's letters,
# so a word is a placeholder exactly when its lowercase form is one's.
_PLACEHOLDER_WORDS = {token.lower(): token for token in PLACEHOLDER_TOKENS}


# ── token sequences ─────────────────────────────────────────────────────────


class TokenSequence:
    """Immutable sequence of vocabulary ids.

    The terminator id may appear at most once and only in final position;
    ``terminated`` records whether it does. Construction validates that
    constraint, everything else (id range checks) is the caller's business
    because micro-scale tests run against tiny synthetic vocabularies.
    """

    __slots__ = ("ids", "terminated")

    def __init__(self, ids: Iterable[int], eos_id: int = EOS_ID) -> None:
        id_tuple = tuple(map(int, ids))
        terminated = bool(id_tuple) and id_tuple[-1] == eos_id
        if id_tuple and min(id_tuple) < 0:
            raise ValueError("token ids must be non-negative")
        if id_tuple.count(eos_id) > terminated:
            raise ValueError("EOS may only appear in final position")
        object.__setattr__(self, "ids", id_tuple)
        object.__setattr__(self, "terminated", terminated)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TokenSequence is immutable")

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TokenSequence):
            return NotImplemented
        return self.ids == other.ids and self.terminated == other.terminated

    def __hash__(self) -> int:
        return hash((self.ids, self.terminated))

    def __repr__(self) -> str:
        suffix = ", terminated" if self.terminated else ""
        return f"TokenSequence({list(self.ids)}{suffix})"

    def core_ids(self) -> tuple[int, ...]:
        """Ids without the trailing terminator, if present."""
        if self.terminated:
            return self.ids[:-1]
        return self.ids


# ── vocabulary ──────────────────────────────────────────────────────────────


class Vocabulary:
    """Bijection between token strings and dense ids.

    Ids 0..5 are reserved for BOS, EOS, SEP, UNK and the two delexicalization
    placeholders, in that order. All other tokens follow.
    """

    __slots__ = ("_tokens", "_ids", "id")

    def __init__(self, tokens: Sequence[str]) -> None:
        tokens = list(tokens)
        if tuple(tokens[: len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise ValueError("vocabulary must start with the reserved token block")
        ids: dict[str, int] = {}
        for idx, tok in enumerate(tokens):
            if not tok:
                raise ValueError("token strings must be non-empty")
            if tok in ids:
                raise ValueError(f"duplicate token {tok!r}")
            ids[tok] = idx
        self._tokens = tuple(tokens)
        self._ids = ids
        # Id of a token; raises ``KeyError`` for unknown tokens. Bound to the
        # dict, so mapping a corpus's words costs no Python call per word.
        self.id = ids.__getitem__

    @classmethod
    def build(cls, extra_tokens: Iterable[str]) -> "Vocabulary":
        """Vocabulary over the reserved block plus sorted unique extras."""
        extras = sorted(set(extra_tokens) - set(RESERVED_TOKENS))
        return cls(list(RESERVED_TOKENS) + extras)

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    def id_or_unk(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def token(self, token_id: int) -> str:
        return self._tokens[token_id]


def tokenize(text: str, vocab: Vocabulary) -> TokenSequence:
    """Canonicalize ``text`` and map words to ids, unknowns to UNK.

    No BOS or EOS is inserted; models add their own boundary markers.
    """
    return TokenSequence(vocab.id_or_unk(w) for w in normalize_words(text))


def detokenize(seq: TokenSequence, vocab: Vocabulary) -> str:
    """Render ids back to text, dropping BOS/EOS/SEP.

    Placeholder tokens are kept verbatim so relexicalization can find them.
    """
    return " ".join(vocab.token(i) for i in seq.ids if i not in STRUCTURAL_IDS)


# ── numeric helpers ─────────────────────────────────────────────────────────


def log_softmax(scores: np.ndarray) -> np.ndarray:
    """Log-normalize a row, or each row of a block, over the last axis.

    Each row's log partition sum is its maximum plus the log of its shifted
    mass, one ``np.log`` over all rows. Every step is elementwise or a sum
    along a row, so a row gets the same bits whether it is normalized alone
    or inside a block. The result is read-only. Raises
    :class:`DegenerateDistributionError` when a row has no finite mass.
    """
    m = scores.max(axis=-1, keepdims=True)
    if -math.inf in m.ravel().tolist():
        raise DegenerateDistributionError("degenerate distribution: no finite mass")
    out = scores - (m + np.log(np.exp(scores - m).sum(axis=-1, keepdims=True)))
    out.setflags(write=False)
    return out


# ── per-record worker pool ──────────────────────────────────────────────────

_forked_job: Callable[[int], object] | None = None  # set in each forked process


def pool_size(workers: int, jobs: int, cpus: int | None) -> int:
    """Processes for ``jobs`` jobs: ``workers``, capped by ``cpus`` and ``jobs``."""
    return max(1, min(workers, cpus or 1, jobs))


def _adopt_job(job: Callable[[int], object]) -> None:
    global _forked_job
    _forked_job = job


def _run_forked_job(index: int) -> object:
    return _forked_job(index)


def map_jobs(job: Callable[[int], object], jobs: int, workers: int) -> list:
    """``[job(i) for i in range(jobs)]`` on up to ``workers`` forked processes.

    The processes inherit ``job`` and all it reads through fork, so only
    indices and results cross a pipe, in chunks of about a quarter of each
    process's share. Results keep index order, and the first job to fail in
    index order raises, as in a plain loop. With one process that loop runs
    and no pool starts.
    """
    size = pool_size(workers, jobs, os.cpu_count())
    if size == 1:
        return [job(i) for i in range(jobs)]
    import multiprocessing  # here, so that serial runs do not pay for the import

    with multiprocessing.get_context("fork").Pool(size, _adopt_job, (job,)) as pool:
        return list(pool.imap(_run_forked_job, range(jobs), max(1, jobs // (4 * size))))


# ── attribute schemas ───────────────────────────────────────────────────────

KIND_CATEGORICAL = "categorical"
KIND_BOOLEAN = "boolean"
KIND_DELEXICALIZED = "delexicalized"

_KINDS = (KIND_CATEGORICAL, KIND_BOOLEAN, KIND_DELEXICALIZED)


@dataclass(frozen=True)
class AttributeSpec:
    """One schema attribute: a name, a kind, and its closed value set.

    ``lexicon`` lists surface phrases that count as mentions of a boolean
    attribute, since its yes/no value never appears verbatim in text.
    """

    name: str
    kind: str
    values: tuple[str, ...]
    lexicon: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown attribute kind {self.kind!r}")
        if not self.values:
            raise ValueError(f"attribute {self.name!r} has an empty value set")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"attribute {self.name!r} repeats values")
        if self.kind == KIND_DELEXICALIZED:
            if len(self.values) != 1 or self.values[0] not in PLACEHOLDER_TOKENS:
                raise ValueError(
                    f"delexicalized attribute {self.name!r} must carry exactly one "
                    f"placeholder value from {sorted(PLACEHOLDER_TOKENS)}"
                )

    @property
    def placeholder(self) -> str:
        if self.kind != KIND_DELEXICALIZED:
            raise ValueError(f"attribute {self.name!r} is not delexicalized")
        return self.values[0]


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered collection of attributes; order drives linearization."""

    attributes: tuple[AttributeSpec, ...]
    _by_name: dict[str, AttributeSpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique")
        object.__setattr__(self, "_by_name", {a.name: a for a in self.attributes})

    def __iter__(self) -> Iterator[AttributeSpec]:
        return iter(self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def attribute(self, name: str) -> AttributeSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown attribute {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._by_name

    def tokens(self) -> list[str]:
        """Every canonical token a valid MR linearization can contain."""
        toks: list[str] = []
        for a in self.attributes:
            toks.extend(normalize_words(a.name))
            for v in a.values:
                toks.extend(normalize_words(v))
        return toks


def schema_to_dict(schema: AttributeSchema) -> dict:
    return {
        "attributes": [
            {
                "name": a.name,
                "kind": a.kind,
                "values": list(a.values),
                **({"lexicon": list(a.lexicon)} if a.lexicon else {}),
            }
            for a in schema.attributes
        ]
    }


def schema_from_dict(payload: Mapping) -> AttributeSchema:
    try:
        raw_attrs = payload["attributes"]
    except (KeyError, TypeError):
        raise ValueError("schema payload must contain an 'attributes' list") from None
    attrs = []
    for entry in raw_attrs:
        name, values, lexicon = entry["name"], entry["values"], entry.get("lexicon", [])
        if not isinstance(name, str):
            raise ValueError(f"attribute name {name!r} is not a string")
        for key, items in (("values", values), ("lexicon", lexicon)):
            if not isinstance(items, list) or not all(isinstance(v, str) for v in items):
                raise ValueError(f"attribute {name!r}: {key} must be a list of strings")
        attrs.append(
            AttributeSpec(
                name=name, kind=entry["kind"], values=tuple(values), lexicon=tuple(lexicon)
            )
        )
    return AttributeSchema(attributes=tuple(attrs))


def load_schema(path: str | Path) -> AttributeSchema:
    with open(path, encoding="utf-8") as fh:
        return schema_from_dict(json.load(fh))


def dump_json(payload: dict, path: Path) -> None:
    """Write ``payload`` as compact key-sorted JSON plus a newline, so equal
    payloads give equal bytes."""
    path.write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )


# ── meaning representations ─────────────────────────────────────────────────


@dataclass(frozen=True)
class MeaningRepresentation:
    """Partial attribute -> value assignment. Empty is legal."""

    assignments: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignments", dict(self.assignments))

    def __contains__(self, attribute: str) -> bool:
        return attribute in self.assignments

    def get(self, attribute: str) -> str | None:
        return self.assignments.get(attribute)

    def items(self) -> Iterable[tuple[str, str]]:
        return self.assignments.items()

    def without(self, attribute: str) -> "MeaningRepresentation":
        reduced = {k: v for k, v in self.assignments.items() if k != attribute}
        return MeaningRepresentation(reduced)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MeaningRepresentation):
            return NotImplemented
        return self.assignments == other.assignments

    def __hash__(self) -> int:
        return hash(frozenset(self.assignments.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.assignments.items())
        return f"MR({inner})"


def validate_mr(mr: MeaningRepresentation, schema: AttributeSchema) -> None:
    """Check ``mr`` against ``schema``.

    Categorical and boolean values must come from the declared value set.
    Delexicalized attributes accept any non-empty surface string, because
    parsed corpora carry raw names until the delexicalization pass replaces
    them with their placeholder.
    """
    for attr, value in mr.items():
        spec = schema._by_name.get(attr)
        if spec is None:
            raise ValueError(f"MR assigns unknown attribute {attr!r}")
        if spec.kind == KIND_DELEXICALIZED:
            if not value:
                raise ValueError(f"attribute {attr!r} has an empty value")
        elif value not in spec.values:
            raise ValueError(
                f"attribute {attr!r} has value {value!r} outside its value set"
            )


@lru_cache(maxsize=4096)
def _clause_ids(vocab: Vocabulary, attribute: str, value: str) -> tuple[int, ...]:
    """The ids of one ``attribute value`` clause; the few schema strings
    recur in every MR, so each pair is normalized and looked up once per
    vocabulary."""
    words = normalize_words(attribute) + normalize_words(value)
    if missing := [word for word in words if word not in vocab]:
        raise UnbuildableContextError(
            f"unbuildable context: token {missing[0]!r} "
            f"(attribute {attribute!r}) is not in the vocabulary"
        )
    return tuple(map(vocab.id, words))


def linearize_mr(
    mr: MeaningRepresentation, schema: AttributeSchema, vocab: Vocabulary
) -> tuple[int, ...]:
    """Flatten an MR to the ids of ``attr value-tokens ...`` clauses plus a
    final SEP.

    Clauses follow schema order, so the mapping is injective over valid MRs.
    The empty MR linearizes to ``[<sep>]``. ``mr`` is checked in the same
    pass over the schema, and refused with ``validate_mr``'s message.
    """
    ids: list[int] = []
    clauses = 0
    get = mr.assignments.get
    for spec in schema:
        value = get(spec.name)
        if value is None:
            continue
        if not (value if spec.kind == KIND_DELEXICALIZED else value in spec.values):
            break
        clauses += 1
        try:
            ids.extend(_clause_ids(vocab, spec.name, value))
        except UnbuildableContextError:
            validate_mr(mr, schema)  # an invalid MR is refused as invalid first
            raise
    if clauses != len(mr.assignments):
        validate_mr(mr, schema)  # an assignment is bad, so this raises
    ids.append(SEP_ID)
    return tuple(ids)
