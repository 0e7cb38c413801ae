"""Corpus machinery: synthetic generation, delexicalization, JSONL records.

Randomness comes exclusively from ``random.Random`` (the stdlib Mersenne
Twister), seeded per call, so generated corpora are reproducible across
runs and platforms.

The synthetic grammar exists to manufacture a controllable version of the
restaurant-description task: attribute presence is sampled per input,
values are sampled with a mild frequency skew, and the written reference
independently drops each non-name clause with a small probability. That
omission knob is what makes trained base speakers underinformative in a
measurable way.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .core import (
    KIND_BOOLEAN,
    KIND_CATEGORICAL,
    KIND_DELEXICALIZED,
    AttributeSchema,
    AttributeSpec,
    MeaningRepresentation,
    NAME_PLACEHOLDER,
    NEAR_PLACEHOLDER,
    PLACEHOLDER_TOKENS,
    Vocabulary,
    parse_json,
    validate_mr,
)

# ── records ─────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class CorpusRecord:
    """One aligned (input, reference) pair with delexicalization state."""

    id: str
    mr: MeaningRepresentation
    reference: str
    delex_map: dict[str, str] = field(default_factory=dict)


# ── synthetic grammar ───────────────────────────────────────────────────────

# The shipped restaurant schema: eight attributes, ``name`` first.
RESTAURANT_SCHEMA = AttributeSchema(
    attributes=(
        AttributeSpec("name", KIND_DELEXICALIZED, (NAME_PLACEHOLDER,)),
        AttributeSpec(
            "eatType", KIND_CATEGORICAL, ("restaurant", "pub", "coffee shop")
        ),
        AttributeSpec(
            "food",
            KIND_CATEGORICAL,
            ("english", "french", "italian", "japanese", "indian", "chinese"),
        ),
        AttributeSpec("priceRange", KIND_CATEGORICAL, ("cheap", "moderate", "high")),
        AttributeSpec(
            "customerRating",
            KIND_CATEGORICAL,
            ("1 out of 5", "3 out of 5", "5 out of 5"),
        ),
        AttributeSpec("area", KIND_CATEGORICAL, ("riverside", "city centre")),
        AttributeSpec(
            "familyFriendly",
            KIND_BOOLEAN,
            ("yes", "no"),
            lexicon=("family friendly", "family-friendly", "child friendly", "kid friendly"),
        ),
        AttributeSpec("near", KIND_DELEXICALIZED, (NEAR_PLACEHOLDER,)),
    )
)

# Clause templates per attribute. A ``{v}`` template realizes the value
# verbatim; a boolean attribute instead maps each value to phrases from its
# mention lexicon, since the literal yes/no never appears in text.
_CLAUSES: Mapping[str, tuple[str, ...] | Mapping[str, tuple[str, ...]]] = {
    "name": ("{v} is", "you will find that {v} is"),
    "eatType": ("a {v}", "a lovely {v}"),
    "food": ("serving {v} food", "offering {v} dishes"),
    "priceRange": ("with {v} prices", "in the {v} price bracket"),
    "customerRating": ("rated {v}", "with a rating of {v}"),
    "area": ("in the {v} area", "found in the {v} part of town"),
    "familyFriendly": {
        "yes": ("family friendly", "child friendly"),
        "no": ("not family friendly", "not child friendly"),
    },
    "near": ("near {v}", "close to {v}"),
}

_SURFACES: Mapping[str, tuple[str, ...]] = {
    "name": (
        "the copper kettle",
        "rose cottage",
        "the red lion",
        "marble arch diner",
        "willow house",
        "the green door",
        "sunset grill",
        "harbor lights",
    ),
    "near": (
        "the old mill",
        "city gallery",
        "union station",
        "maple square",
        "the corner market",
        "king street bakery",
    ),
}

# Each attribute but ``name`` is assigned at this rate; the i-th declared
# value of an attribute weighs ``_VALUE_DECAY**i``.
_PRESENCE = 0.8
_VALUE_DECAY = 0.7


def _sample_mr(rng: random.Random) -> MeaningRepresentation:
    """Sample surface-valued assignments; ``name`` is always present."""
    assigned: dict[str, str] = {}
    for spec in RESTAURANT_SCHEMA:
        if spec.name != "name" and rng.random() >= _PRESENCE:
            continue
        if spec.kind == KIND_DELEXICALIZED:
            assigned[spec.name] = rng.choice(_SURFACES[spec.name])
        else:
            weights = [_VALUE_DECAY**i for i in range(len(spec.values))]
            assigned[spec.name] = rng.choices(spec.values, weights=weights)[0]
    return MeaningRepresentation(assigned)


def _realize(mr: MeaningRepresentation, omission_rate: float, rng: random.Random) -> str:
    """Write a reference for ``mr``, dropping non-name clauses at
    ``omission_rate``."""
    head = rng.choice(_CLAUSES["name"]).format(v=mr.get("name"))
    clauses: list[str] = []
    for spec in RESTAURANT_SCHEMA:
        value = mr.get(spec.name)
        if spec.name == "name" or value is None or rng.random() < omission_rate:
            continue
        templates = _CLAUSES[spec.name]
        if spec.kind == KIND_BOOLEAN:
            templates = templates[value]
        clauses.append(rng.choice(templates).format(v=value))
    *rest, last = clauses or ["a place to eat"]
    body = f"{', '.join(rest)} and {last}" if rest else last
    return f"{head} {body} ."


def generate_corpus(
    n: int, seed: int, omission_rate: float, id_prefix: str = "syn"
) -> list[CorpusRecord]:
    """Sample ``n`` aligned records of the restaurant grammar with a Mersenne
    Twister seeded at ``seed``; each reference drops each non-name clause at
    ``omission_rate``."""
    if n < 0:
        raise ValueError("corpus size must be non-negative")
    if not 0.0 <= omission_rate <= 1.0:
        raise ValueError("omission_rate must lie in [0, 1]")
    rng = random.Random(seed)
    records = []
    for i in range(n):
        mr = _sample_mr(rng)
        records.append(
            CorpusRecord(
                id=f"{id_prefix}-{i:05d}",
                mr=mr,
                reference=_realize(mr, omission_rate, rng),
            )
        )
    return records


# ── delexicalization ────────────────────────────────────────────────────────


@lru_cache(maxsize=1024)
def _surface_pattern(surface: str) -> re.Pattern:
    return re.compile(r"(?<!\w)" + re.escape(surface) + r"(?!\w)", re.IGNORECASE)


def _replace_surface(text: str, surface: str, replacement: str) -> str:
    """``text`` with each whole-word ``surface`` replaced by ``replacement``,
    inserted literally: a backslash in a name is not a regex escape."""
    pattern = _surface_pattern(surface)
    if not (surface and text.isascii() and surface.isascii()):
        return pattern.sub(replacement.replace("\\", r"\\"), text)
    # In ASCII text a case-insensitive match can start only where the
    # lowercased surface occurs in the lowercased text, so the pattern is
    # tried there alone instead of at every position.
    folded, key = text.lower(), surface.lower()
    pieces, end, at = [], 0, folded.find(key)
    while at >= 0:
        if match := pattern.match(text, at):
            pieces += (text[end:at], replacement)
            end = match.end()
            at = folded.find(key, end)
        else:
            at = folded.find(key, at + 1)
    return "".join(pieces) + text[end:]


def delexicalize(record: CorpusRecord, schema: AttributeSchema) -> CorpusRecord:
    """Replace delexicalized attributes' surfaces with their placeholders.

    Both the MR value and its occurrences in the reference are rewritten;
    the original surfaces are kept in ``delex_map`` for relexicalization.
    Attributes already carrying their placeholder are left alone.
    """
    assignments = dict(record.mr.assignments)
    text = record.reference
    mapping = dict(record.delex_map)
    for spec in schema:
        if spec.kind != KIND_DELEXICALIZED:
            continue
        value, placeholder = assignments.get(spec.name), spec.placeholder
        if value is None or value == placeholder:
            continue
        text = _replace_surface(text, value, placeholder)
        mapping[placeholder] = value
        assignments[spec.name] = placeholder
    return CorpusRecord(
        id=record.id,
        mr=MeaningRepresentation(assignments),
        reference=text,
        delex_map=mapping,
    )


def relexicalize(text: str, delex_map: Mapping[str, str]) -> str:
    """Substitute original surfaces back for placeholder tokens.

    Placeholders without a mapping are left verbatim; see
    :func:`has_unmapped_placeholder`.
    """
    out = text
    for placeholder in sorted(delex_map):
        out = _replace_surface(out, placeholder, delex_map[placeholder])
    return out


def has_unmapped_placeholder(text: str) -> bool:
    """Whether a relexicalized text still holds a placeholder token."""
    return any(
        re.search(r"(?<!\w)" + placeholder + r"(?!\w)", text)
        for placeholder in PLACEHOLDER_TOKENS
    )


# ── JSONL records ───────────────────────────────────────────────────────────

_RECORD_KEYS = {"id", "mr", "ref", "delex"}


def write_jsonl(records: Iterable[CorpusRecord], path: str | Path) -> None:
    lines = []
    seen: set[str] = set()
    for rec in records:
        if rec.id in seen:
            raise ValueError(f"duplicate record id {rec.id!r}")
        seen.add(rec.id)
        lines.append(
            json.dumps(
                {
                    "id": rec.id,
                    "mr": dict(rec.mr.assignments),
                    "ref": rec.reference,
                    "delex": dict(rec.delex_map),
                },
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, object]]:
    """Each non-blank line of a JSONL file, parsed by ``parse_json``, with its
    line number; a line that does not parse, or writes an object key twice,
    raises ``ValueError`` naming its number."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = parse_json(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: invalid JSON ({exc.msg})") from None
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            yield lineno, payload


def iter_records(
    path: str | Path, schema: AttributeSchema | None = None
) -> Iterator[tuple[int, CorpusRecord]]:
    """Each record of a JSONL file with its line number, its shape (and its
    MR against ``schema`` if given) validated as it is read."""
    seen: set[str] = set()
    for lineno, payload in iter_jsonl(path):
        if not isinstance(payload, dict) or payload.keys() != _RECORD_KEYS:
            raise ValueError(
                f"line {lineno}: record must have exactly the keys "
                f"{sorted(_RECORD_KEYS)}"
            )
        rec_id = payload["id"]
        if not isinstance(rec_id, str) or not rec_id:
            raise ValueError(f"line {lineno}: id must be a non-empty string")
        if rec_id in seen:
            raise ValueError(f"line {lineno}: duplicate record id {rec_id!r}")
        seen.add(rec_id)
        for key in ("mr", "delex"):
            obj = payload[key]
            if not isinstance(obj, dict) or not all(map(isinstance, obj.values(), repeat(str))):
                raise ValueError(f"line {lineno}: {key} must be an object of strings")
        if not isinstance(payload["ref"], str):
            raise ValueError(f"line {lineno}: ref must be a string")
        mr = MeaningRepresentation(payload["mr"])
        if schema is not None:
            try:
                validate_mr(mr, schema)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        yield lineno, CorpusRecord(
            id=rec_id, mr=mr, reference=payload["ref"], delex_map=payload["delex"]
        )


def read_jsonl(path: str | Path, schema: AttributeSchema | None = None) -> list[CorpusRecord]:
    """Load records, validating shape (and the MR against ``schema`` if given)."""
    return [record for _, record in iter_records(path, schema)]


# ── vocabulary assembly ─────────────────────────────────────────────────────


def build_corpus_vocabulary(
    references: Iterable[Sequence[str]], schema: AttributeSchema
) -> Vocabulary:
    """Vocabulary over schema tokens plus every word of the references, each
    given as its ``normalize_words`` list.

    The references should come from delexicalized records so proper nouns
    stay out of the vocabulary and placeholders stay in it.
    """
    tokens: list[str] = schema.tokens()
    for words in references:
        tokens.extend(words)
    return Vocabulary.build(tokens)
