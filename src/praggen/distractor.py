"""Distractor construction policies for pragmatic decoding.

A distractor is an alternative input the decoder should steer away from.
For attribute-value inputs the useful alternatives come from masking:
``mask_all`` inverts the input (present attributes dropped, absent ones
filled with their most frequent value among the inputs being decoded),
``mask_single`` removes one attribute so decoding is maximally pressured to
realize it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import AttributeSchema, MeaningRepresentation


def value_frequencies(
    mrs: Iterable[MeaningRepresentation], schema: AttributeSchema
) -> dict[str, str]:
    """Each attribute's most frequent value across ``mrs``, in schema order.

    Ties prefer the schema's declared order, then other observed values in
    sorted order; an attribute never observed gets its first declared value.
    """
    counts: dict[str, Counter] = {spec.name: Counter() for spec in schema}
    for mr in mrs:
        for attr, value in mr.items():
            if not schema.has(attr):
                raise ValueError(f"MR assigns unknown attribute {attr!r}")
            counts[attr][value] += 1
    fill = {}
    for spec in schema:
        observed = counts[spec.name]
        candidates = [*spec.values, *sorted(set(observed) - set(spec.values))]
        fill[spec.name] = max(candidates, key=lambda v: observed[v])
    return fill


def mask_all_distractor(
    mr: MeaningRepresentation, fill: Mapping[str, str]
) -> MeaningRepresentation:
    """Complement of ``mr``: the attributes it lacks, set to their ``fill``
    values (see ``value_frequencies``).

    Attributes the input assigns are left out entirely, so a fully
    specified input yields the empty distractor.
    """
    return MeaningRepresentation({a: v for a, v in fill.items() if a not in mr})


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
        self, input: object, *, freqs: Mapping[str, str] | None = None
    ) -> list[object]:
        """Distractor list for ``input``; may be empty. ``freqs`` is
        mask-all's fill map from ``value_frequencies``."""
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
