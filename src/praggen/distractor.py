"""Distractor construction policies for pragmatic decoding.

A distractor is an alternative input the decoder should steer away from.
For attribute-value inputs the useful alternatives come from masking:
``mask_all`` inverts the input (present attributes dropped, absent ones
filled with their most frequent training value), ``mask_single`` removes
one attribute so decoding is maximally pressured to realize it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import AttributeSchema, MeaningRepresentation


@dataclass(frozen=True)
class ValueFrequencyTable:
    """Observed value counts per attribute, with deterministic argmax."""

    schema: AttributeSchema
    counts: dict[str, dict[str, int]]

    def most_frequent(self, attribute: str) -> str:
        """Highest-count value; ties prefer the schema's declared order.

        An attribute never observed in training falls back to its first
        declared value.
        """
        spec = self.schema.attribute(attribute)
        observed = self.counts.get(attribute, {})
        declared = {v: i for i, v in enumerate(spec.values)}
        candidates = list(spec.values) + sorted(
            v for v in observed if v not in declared
        )
        return min(
            candidates,
            key=lambda v: (
                -observed.get(v, 0),
                declared.get(v, len(declared)),
                v,
            ),
        )


def value_frequencies(
    mrs: Iterable[MeaningRepresentation], schema: AttributeSchema
) -> ValueFrequencyTable:
    """Tally how often each attribute value occurs across ``mrs``."""
    counts: dict[str, dict[str, int]] = {spec.name: {} for spec in schema}
    for mr in mrs:
        for attr, value in mr.items():
            if not schema.has(attr):
                raise ValueError(f"MR assigns unknown attribute {attr!r}")
            row = counts[attr]
            row[value] = row.get(value, 0) + 1
    return ValueFrequencyTable(schema=schema, counts=counts)


def mask_all_distractor(
    mr: MeaningRepresentation, freqs: ValueFrequencyTable
) -> MeaningRepresentation:
    """Complement of ``mr``: absent attributes filled with frequent values.

    Attributes the input assigns are left out entirely, so a fully
    specified input yields the empty distractor.
    """
    filled = {
        spec.name: freqs.most_frequent(spec.name)
        for spec in freqs.schema
        if spec.name not in mr
    }
    return MeaningRepresentation(filled)


def mask_single_distractor(
    mr: MeaningRepresentation, attribute: str
) -> MeaningRepresentation:
    """Copy of ``mr`` with one assigned attribute removed."""
    if attribute not in mr:
        raise ValueError(f"nothing to mask: attribute {attribute!r} is not assigned")
    return mr.without(attribute)


# ── policy objects ──────────────────────────────────────────────────────────

POLICY_MASK_ALL = "mask-all"
POLICY_MASK_SINGLE = "mask-single"
POLICY_NONE = "none"


@dataclass(frozen=True)
class DistractorPolicy:
    """Named recipe turning one input into its distractor list.

    Policies may legitimately produce no distractor (``none``, or
    mask-single on an input that does not assign the attribute); callers
    then decode in base mode.
    """

    kind: str
    attribute: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in (POLICY_MASK_ALL, POLICY_MASK_SINGLE, POLICY_NONE):
            raise ValueError(f"unknown distractor policy {self.kind!r}")
        if self.kind == POLICY_MASK_SINGLE and not self.attribute:
            raise ValueError("mask-single requires an attribute name")
        if self.kind != POLICY_MASK_SINGLE and self.attribute is not None:
            raise ValueError(f"policy {self.kind!r} takes no attribute")

    @classmethod
    def parse(cls, text: str) -> "DistractorPolicy":
        """Parse CLI syntax: ``mask-all``, ``mask-single:<attr>`` or
        ``none``."""
        if text.startswith(POLICY_MASK_SINGLE + ":"):
            attr = text[len(POLICY_MASK_SINGLE) + 1 :]
            return cls(POLICY_MASK_SINGLE, attribute=attr)
        return cls(text)

    def distractors(
        self, input: object, *, freqs: ValueFrequencyTable | None = None
    ) -> list[object]:
        """Distractor list for ``input``; may be empty."""
        if self.kind == POLICY_NONE:
            return []
        if not isinstance(input, MeaningRepresentation):
            raise TypeError("masking policies need a meaning representation input")
        if self.kind == POLICY_MASK_ALL:
            if freqs is None:
                raise ValueError("mask-all needs a value frequency table")
            return [mask_all_distractor(input, freqs)]
        if self.attribute not in input:
            return []
        return [mask_single_distractor(input, self.attribute)]
