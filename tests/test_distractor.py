import pytest

from praggen.core import MeaningRepresentation, NAME_PLACEHOLDER
from praggen.distractor import (
    DistractorPolicy,
    mask_all_distractor,
    mask_single_distractor,
    value_frequencies,
)

from test_core import small_schema


def mr(**assignments):
    return MeaningRepresentation(assignments)


def tallied():
    schema = small_schema()
    mrs = [
        mr(area="riverside", priceRange="cheap"),
        mr(area="riverside"),
        mr(area="city centre", familyFriendly="no"),
    ]
    return schema, value_frequencies(mrs, schema)


# ── fill map ─────────────────────────────────────────────────────────────────


def test_value_frequencies_hand_tally():
    schema, freqs = tallied()
    assert freqs == {
        "name": NAME_PLACEHOLDER,
        "area": "riverside",
        "priceRange": "cheap",
        "familyFriendly": "no",
    }
    assert list(freqs) == [spec.name for spec in schema]


def test_value_frequencies_rejects_unknown_attributes():
    schema = small_schema()
    with pytest.raises(ValueError, match="unknown attribute"):
        value_frequencies([mr(cuisine="thai")], schema)


def test_most_frequent_picks_the_highest_count():
    schema, freqs = tallied()
    assert freqs["area"] == "riverside"
    assert freqs["familyFriendly"] == "no"


def test_most_frequent_breaks_ties_by_declared_order():
    schema = small_schema()
    freqs = value_frequencies(
        [mr(area="city centre"), mr(area="riverside")], schema
    )
    assert freqs["area"] == "riverside"


def test_most_frequent_falls_back_to_the_first_declared_value():
    schema = small_schema()
    freqs = value_frequencies([mr(area="riverside")], schema)
    # priceRange never observed
    assert freqs["priceRange"] == "cheap"


def test_most_frequent_counts_raw_delexicalized_values():
    schema = small_schema()
    freqs = value_frequencies(
        [mr(name="Fitzbillies"), mr(name="Fitzbillies"), mr(name="Aromi")], schema
    )
    assert freqs["name"] == "Fitzbillies"
    # undeclared values that tie are taken in sorted order
    freqs = value_frequencies([mr(name="Fitzbillies"), mr(name="Aromi")], schema)
    assert freqs["name"] == "Aromi"


# ── masking ──────────────────────────────────────────────────────────────────


def test_mask_all_complements_the_input():
    schema, freqs = tallied()
    original = mr(area="city centre", priceRange="high")
    masked = mask_all_distractor(original, freqs)
    got = dict(masked.items())
    assert got == {"name": NAME_PLACEHOLDER, "familyFriendly": "no"}
    assert all(attr not in original for attr in got)


def test_mask_all_of_a_full_input_is_empty():
    schema, freqs = tallied()
    full = mr(
        name=NAME_PLACEHOLDER,
        area="riverside",
        priceRange="cheap",
        familyFriendly="yes",
    )
    assert dict(mask_all_distractor(full, freqs).items()) == {}


def test_mask_all_of_an_empty_input_fills_every_attribute():
    schema, freqs = tallied()
    masked = mask_all_distractor(mr(), freqs)
    assert dict(masked.items()) == {
        "name": NAME_PLACEHOLDER,
        "area": "riverside",
        "priceRange": "cheap",
        "familyFriendly": "no",
    }


def test_mask_single_drops_exactly_one_attribute():
    original = mr(area="riverside", priceRange="high")
    masked = mask_single_distractor(original, "priceRange")
    assert dict(masked.items()) == {"area": "riverside"}
    assert dict(original.items()) == {"area": "riverside", "priceRange": "high"}


def test_mask_single_of_a_singleton_is_empty():
    assert dict(mask_single_distractor(mr(area="riverside"), "area").items()) == {}


def test_mask_single_requires_the_attribute_to_be_assigned():
    with pytest.raises(ValueError, match="nothing to mask"):
        mask_single_distractor(mr(area="riverside"), "priceRange")


# ── policies ─────────────────────────────────────────────────────────────────


def test_policy_parse_round_trip():
    assert DistractorPolicy.parse("mask-all") == DistractorPolicy("mask-all")
    assert DistractorPolicy.parse("mask-single:near") == DistractorPolicy(
        "mask-single", attribute="near"
    )
    assert DistractorPolicy.parse("none") == DistractorPolicy("none")


def test_policy_parse_rejects_malformed_text():
    with pytest.raises(ValueError, match="unknown distractor policy"):
        DistractorPolicy.parse("invert")
    with pytest.raises(ValueError, match="requires an attribute"):
        DistractorPolicy.parse("mask-single:")


def test_policy_validation():
    with pytest.raises(ValueError, match="requires an attribute"):
        DistractorPolicy("mask-single")
    with pytest.raises(ValueError, match="takes no attribute"):
        DistractorPolicy("mask-all", attribute="area")


def test_none_policy_yields_nothing():
    assert DistractorPolicy("none").distractors(mr(area="riverside")) == []


def test_masking_policies_require_meaning_representations():
    with pytest.raises(TypeError, match="meaning representation"):
        DistractorPolicy("mask-all").distractors((1, 2, 3))


def test_mask_all_policy_needs_frequencies():
    with pytest.raises(ValueError, match="frequency table"):
        DistractorPolicy("mask-all").distractors(mr(area="riverside"))


def test_mask_all_policy_produces_the_complement():
    schema, freqs = tallied()
    got = DistractorPolicy("mask-all").distractors(mr(area="riverside"), freqs=freqs)
    assert got == [mask_all_distractor(mr(area="riverside"), freqs)]


def test_mask_single_policy_skips_unassigned_inputs():
    policy = DistractorPolicy("mask-single", attribute="priceRange")
    assert policy.distractors(mr(area="riverside")) == []
    got = policy.distractors(mr(area="riverside", priceRange="cheap"))
    assert got == [mr(area="riverside")]
