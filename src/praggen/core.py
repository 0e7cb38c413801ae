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
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

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

# Structural ids stripped when rendering text. Placeholders stay verbatim.
_STRUCTURAL_IDS = frozenset({BOS_ID, EOS_ID, SEP_ID})

_PUNCT_RE = re.compile(r"([.,!?])")


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
    spaced = _PUNCT_RE.sub(r" \1 ", text)
    words: list[str] = []
    for raw in spaced.split():
        upper = raw.upper()
        if upper in PLACEHOLDER_TOKENS:
            words.append(upper)
        else:
            words.append(raw.lower())
    return words


def canonical_text(text: str) -> str:
    """Canonicalized form of ``text`` as a single space-joined string."""
    return " ".join(normalize_words(text))


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
        id_tuple = tuple(int(i) for i in ids)
        if any(i < 0 for i in id_tuple):
            raise ValueError("token ids must be non-negative")
        if eos_id in id_tuple[:-1]:
            raise ValueError("EOS may only appear in final position")
        object.__setattr__(self, "ids", id_tuple)
        object.__setattr__(self, "terminated", bool(id_tuple) and id_tuple[-1] == eos_id)

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

    def core_ids(self, eos_id: int = EOS_ID) -> tuple[int, ...]:
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

    __slots__ = ("_tokens", "_ids")

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

    def id(self, token: str) -> int:
        """Id of ``token``; raises ``KeyError`` for unknown tokens."""
        return self._ids[token]

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
    return " ".join(vocab.token(i) for i in seq.ids if i not in _STRUCTURAL_IDS)


# ── numeric helpers ─────────────────────────────────────────────────────────


def log_normalize(log_weights: Sequence[float]) -> list[float]:
    """Normalize log weights into a probability vector.

    Uses max-shifted exponentiation so widely scaled inputs stay stable.
    Raises :class:`DegenerateDistributionError` when every weight is -inf.
    """
    if len(log_weights) == 0:
        raise ValueError("log_normalize requires a non-empty vector")
    m = max(log_weights)
    if m == -math.inf:
        raise DegenerateDistributionError("degenerate distribution: no finite mass")
    shifted = [math.exp(w - m) for w in log_weights]
    total = sum(shifted)
    return [s / total for s in shifted]


def log_softmax(scores: np.ndarray) -> np.ndarray:
    """Log-normalize a row, or each row of a block, over the last axis.

    Each row's log partition sum is taken with ``math.log`` on the scalar:
    ``np.log`` can differ from it in the last ulp, and a row must get the
    same bits whether it is normalized alone or inside a block. The result
    is read-only. Raises :class:`DegenerateDistributionError` when a row has
    no finite mass.
    """
    m = scores.max(axis=-1, keepdims=True)
    tops = m.ravel().tolist()
    if -math.inf in tops:
        raise DegenerateDistributionError("degenerate distribution: no finite mass")
    sums = np.exp(scores - m).sum(axis=-1).ravel().tolist()
    log_z = [top + math.log(s) for top, s in zip(tops, sums)]
    out = scores - np.array(log_z).reshape(m.shape)
    out.setflags(write=False)
    return out


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

    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def resolve_name(self, raw: str) -> str:
        """Map a case-insensitive attribute spelling to its schema name."""
        lowered = raw.strip().lower()
        for a in self.attributes:
            if a.name.lower() == lowered:
                return a.name
        raise KeyError(f"unknown attribute {raw!r}")

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
        attrs.append(
            AttributeSpec(
                name=entry["name"],
                kind=entry["kind"],
                values=tuple(entry["values"]),
                lexicon=tuple(entry.get("lexicon", ())),
            )
        )
    return AttributeSchema(attributes=tuple(attrs))


def load_schema(path: str | Path) -> AttributeSchema:
    with open(path, encoding="utf-8") as fh:
        return schema_from_dict(json.load(fh))


def default_schema() -> AttributeSchema:
    """The shipped restaurant-domain schema (8 attributes)."""
    resource = Path(__file__).parent / "resources" / "e2e_schema.json"
    return load_schema(resource)


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
        return dict(self.assignments) == dict(other.assignments)

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
        if not schema.has(attr):
            raise ValueError(f"MR assigns unknown attribute {attr!r}")
        spec = schema.attribute(attr)
        if spec.kind == KIND_DELEXICALIZED:
            if not value:
                raise ValueError(f"attribute {attr!r} has an empty value")
        elif value not in spec.values:
            raise ValueError(
                f"attribute {attr!r} has value {value!r} outside its value set"
            )


def linearize_mr(
    mr: MeaningRepresentation, schema: AttributeSchema, vocab: Vocabulary
) -> TokenSequence:
    """Flatten an MR to ``attr value-tokens ...`` clauses plus a final SEP.

    Clauses follow schema order, so the mapping is injective over valid MRs.
    The empty MR linearizes to ``[<sep>]``.
    """
    validate_mr(mr, schema)
    ids: list[int] = []
    for spec in schema:
        value = mr.get(spec.name)
        if value is None:
            continue
        for word in normalize_words(spec.name) + normalize_words(value):
            try:
                ids.append(vocab.id(word))
            except KeyError:
                raise UnbuildableContextError(
                    f"unbuildable context: token {word!r} "
                    f"(attribute {spec.name!r}) is not in the vocabulary"
                ) from None
    ids.append(SEP_ID)
    return TokenSequence(ids)


# ── documents ───────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class Document:
    """Ordered units of one kind: all MRs or all token sequences."""

    units: tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.units:
            raise ValueError("a document needs at least one unit")
        kinds = {type(u) for u in self.units}
        if len(kinds) > 1:
            raise ValueError("document units must be homogeneous")
        if not isinstance(self.units[0], (MeaningRepresentation, TokenSequence)):
            raise ValueError("units must be MeaningRepresentation or TokenSequence")

    def __len__(self) -> int:
        return len(self.units)

    def __getitem__(self, index: int) -> object:
        return self.units[index]
