import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from praggen.core import (
    KIND_BOOLEAN,
    NAME_PLACEHOLDER,
    MeaningRepresentation,
    normalize_words,
    tokenize,
)
from praggen.data import _CLAUSES, RESTAURANT_SCHEMA, CorpusRecord, build_corpus_vocabulary
from praggen.evaluation import (
    ablation_matrix,
    bleu,
    coverage_ratio,
    coverage_report,
    measured_attributes,
    mentions,
    rouge_l,
    write_ablation_csv,
)
from praggen.pragmatics import DecodeConfig
from praggen.speaker import train_ngram_speaker

from test_core import small_schema


# ── independent scorers ──────────────────────────────────────────────────────


def fraction_bleu(references, hypotheses, max_n=4):
    """Corpus BLEU recomputed with exact rational precisions."""
    matched = [0] * max_n
    total = [0] * max_n
    ref_len = 0
    hyp_len = 0
    for ref, hyp in zip(references, hypotheses):
        ref_toks = normalize_words(ref)
        hyp_toks = normalize_words(hyp)
        ref_len += len(ref_toks)
        hyp_len += len(hyp_toks)
        for n in range(1, max_n + 1):
            hyp_counts = Counter(
                tuple(hyp_toks[i : i + n]) for i in range(len(hyp_toks) - n + 1)
            )
            ref_counts = Counter(
                tuple(ref_toks[i : i + n]) for i in range(len(ref_toks) - n + 1)
            )
            matched[n - 1] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
            total[n - 1] += sum(hyp_counts.values())
    if any(m == 0 or t == 0 for m, t in zip(matched, total)):
        return 0.0
    product = Fraction(1)
    for m, t in zip(matched, total):
        product *= Fraction(m, t)
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * float(product) ** (1.0 / max_n)


def subsequence_lcs(a, b):
    """Longest common subsequence by enumerating subsequences of ``a``."""
    best = 0
    for mask in range(1 << len(a)):
        picked = [a[i] for i in range(len(a)) if mask >> i & 1]
        it = iter(b)
        if all(tok in it for tok in picked):
            best = max(best, len(picked))
    return best


WORDLIST = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "by", "river"]


def noisy_corpus(seed, n_pairs, flip=0.2):
    rng = random.Random(seed)
    refs, hyps = [], []
    for _ in range(n_pairs):
        length = rng.randint(5, 12)
        ref = [rng.choice(WORDLIST) for _ in range(length)]
        hyp = [w if rng.random() > flip else rng.choice(WORDLIST) for w in ref]
        refs.append(" ".join(ref) + " .")
        hyps.append(" ".join(hyp) + " .")
    return refs, hyps


# ── BLEU ─────────────────────────────────────────────────────────────────────


def test_bleu_of_identical_corpora_is_exactly_one_hundred():
    refs = ["the cat sat on the mat .", "a dog ran by the river ."]
    assert bleu(refs, list(refs)) == 100.0


def test_bleu_of_disjoint_corpora_is_zero():
    assert bleu(["the cat sat on the mat ."], ["a dog ran by some river ."]) == 0.0
    # a single missing order also zeroes the score
    assert bleu(["the cat sat on the mat ."], ["the mat sat on the mat ."]) != 0.0


def test_bleu_matches_the_rational_reference_scorer():
    cases = [
        (["the cat sat on the mat ."], ["the cat is on the mat ."]),
        (
            ["the cat sat on the mat .", "a dog ran by the river ."],
            ["the cat sat on a mat .", "the dog ran by the river ."],
        ),
    ]
    for refs, hyps in cases:
        assert bleu(refs, hyps) == pytest.approx(fraction_bleu(refs, hyps), abs=1e-9)
    refs, hyps = noisy_corpus(11, 20)
    assert bleu(refs, hyps) == pytest.approx(fraction_bleu(refs, hyps), abs=1e-9)


def test_bleu_penalizes_short_hypotheses():
    refs = ["the cat sat on the mat by the river ."]
    short = ["the cat sat on the mat ."]
    assert 0.0 < bleu(refs, short) < bleu(refs, list(refs))


def test_bleu_does_not_reward_padding():
    refs = ["the cat sat on the mat ."]
    longer = ["the cat sat on the mat by the mat ."]
    got = bleu(refs, longer)
    assert got == pytest.approx(fraction_bleu(refs, longer), abs=1e-9)
    assert got < 100.0


def test_bleu_is_invariant_to_pair_order():
    refs, hyps = noisy_corpus(12, 10)
    direct = bleu(refs, hyps)
    order = random.Random(0).sample(range(10), 10)
    assert bleu([refs[i] for i in order], [hyps[i] for i in order]) == direct


def test_bleu_validates_its_inputs():
    with pytest.raises(ValueError, match="pair up"):
        bleu(["a ."], ["a .", "b ."])
    with pytest.raises(ValueError, match="empty"):
        bleu([], [])


# ── ROUGE-L ──────────────────────────────────────────────────────────────────


def test_rouge_of_identical_pairs_is_one():
    refs = ["the cat sat on the mat ."]
    assert rouge_l(refs, list(refs)) == 1.0


def test_rouge_of_disjoint_pairs_is_zero():
    assert rouge_l(["the cat"], ["a dog"]) == 0.0


def test_rouge_four_token_overlap_is_three_quarters():
    assert rouge_l(["a b c d"], ["a c d e"]) == 0.75


def test_rouge_averages_over_pairs():
    got = rouge_l(["the cat", "a b c d"], ["the cat", "a c d e"])
    assert got == pytest.approx((1.0 + 0.75) / 2.0, abs=1e-12)


def test_rouge_matches_brute_force_lcs():
    rng = random.Random(13)
    for _ in range(25):
        ref = [rng.choice(WORDLIST[:6]) for _ in range(rng.randint(1, 7))]
        hyp = [rng.choice(WORDLIST[:6]) for _ in range(rng.randint(1, 7))]
        lcs = subsequence_lcs(ref, hyp)
        if lcs == 0:
            want = 0.0
        else:
            p, r = lcs / len(hyp), lcs / len(ref)
            want = 2 * p * r / (p + r)
        assert rouge_l([" ".join(ref)], [" ".join(hyp)]) == pytest.approx(
            want, abs=1e-12
        )


def test_rouge_validates_its_inputs():
    with pytest.raises(ValueError, match="pair up"):
        rouge_l(["a"], [])
    with pytest.raises(ValueError, match="empty"):
        rouge_l([], [])


# ── coverage ─────────────────────────────────────────────────────────────────


def test_matcher_requires_contiguous_mentions():
    area = small_schema().attribute("area")
    assert mentions(area, "city centre", "right in the city centre .")
    assert not mentions(area, "city centre", "the centre of the city .")


def test_matcher_matches_whole_words_only():
    schema = small_schema()
    area, price = schema.attribute("area"), schema.attribute("priceRange")
    assert not mentions(price, "cheap", "cheaper .")
    assert not mentions(area, "city centre", "the city centres .")
    assert mentions(area, "city centre", "city centre is near")
    assert mentions(area, "riverside", "it is by the riverside")


def test_matcher_is_case_and_punctuation_insensitive():
    schema = small_schema()
    assert mentions(schema.attribute("area"), "riverside", "Riverside, naturally!")
    assert mentions(schema.attribute("priceRange"), "cheap", "Cheap.")


def test_matcher_uses_the_boolean_lexicon_not_the_value():
    family = small_schema().attribute("familyFriendly")
    assert mentions(family, "yes", "a family friendly spot .")
    assert not mentions(family, "yes", "they said yes .")


def test_matcher_ignores_boolean_polarity():
    family = small_schema().attribute("familyFriendly")
    assert mentions(family, "no", "not family friendly at all .")


def test_matcher_knows_hyphenated_lexicon_entries():
    family = RESTAURANT_SCHEMA.attribute("familyFriendly")
    assert mentions(family, "yes", "a family-friendly cafe .")


def test_mentions_sees_every_clause_the_grammar_writes():
    # Coverage scores the synthetic corpus, so each clause a template writes
    # for a value must count as mentioning that value.
    checked = 0
    for name in measured_attributes(RESTAURANT_SCHEMA):
        spec = RESTAURANT_SCHEMA.attribute(name)
        for value in spec.values:
            templates = _CLAUSES[name]
            if spec.kind == KIND_BOOLEAN:
                templates = templates[value]
            for template in templates:
                clause = template.format(v=value)
                assert mentions(spec, value, clause), (name, value, clause)
                checked += 1
    assert checked == 38


def record(idx, text="", **assignments):
    return CorpusRecord(
        id=f"r-{idx}", mr=MeaningRepresentation(assignments), reference=text
    )


def test_coverage_ratio_counts_only_assigning_records():
    schema = small_schema()
    records = [
        record(0, area="riverside"),
        record(1, area="city centre"),
        record(2, area="riverside"),
        record(3, priceRange="cheap"),
    ]
    outputs = [
        "down by the riverside .",
        "a lovely spot .",
        "riverside views .",
        "whatever this says .",
    ]
    got = coverage_ratio(records, outputs, "area", schema)
    assert got == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_coverage_ratio_is_vacuously_one_with_a_warning():
    schema = small_schema()
    records = [record(0, area="riverside")]
    with pytest.warns(UserWarning, match="vacuous"):
        assert coverage_ratio(records, ["anything ."], "priceRange", schema) == 1.0


def test_coverage_ratio_validates_alignment():
    schema = small_schema()
    with pytest.raises(ValueError, match="pair up"):
        coverage_ratio([record(0, area="riverside")], [], "area", schema)


def test_measured_attributes_drop_delexicalized_ones():
    assert measured_attributes(small_schema()) == ["area", "priceRange", "familyFriendly"]


def test_coverage_report_includes_the_macro_average():
    schema = small_schema()
    records = [
        record(0, area="riverside", priceRange="cheap"),
        record(1, area="city centre", familyFriendly="yes"),
    ]
    outputs = ["riverside and cheap .", "city centre for families ."]
    got = coverage_report(records, outputs, schema)
    assert got["area"] == 1.0
    assert got["priceRange"] == 1.0
    assert got["familyFriendly"] == 0.0
    assert got["macro"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert list(got) == ["area", "priceRange", "familyFriendly", "macro"]


# ── ablation grid ────────────────────────────────────────────────────────────


def ablation_fixture():
    schema = small_schema()
    texts = {
        "riverside": f"{NAME_PLACEHOLDER} is in riverside .",
        "city centre": f"{NAME_PLACEHOLDER} is in city centre .",
        "cheap": f"{NAME_PLACEHOLDER} is cheap .",
        "yes": f"{NAME_PLACEHOLDER} is family friendly .",
    }
    records = [
        record(0, texts["riverside"], name=NAME_PLACEHOLDER, area="riverside"),
        record(1, texts["city centre"], name=NAME_PLACEHOLDER, area="city centre"),
        record(2, texts["cheap"], name=NAME_PLACEHOLDER, priceRange="cheap"),
        record(3, texts["yes"], name=NAME_PLACEHOLDER, familyFriendly="yes"),
        record(4, texts["riverside"], name=NAME_PLACEHOLDER, area="riverside"),
    ]
    vocab = build_corpus_vocabulary([normalize_words(r.reference) for r in records], schema)
    pairs = [(r.mr, tokenize(r.reference, vocab)) for r in records]
    speaker = train_ngram_speaker(pairs, 3, 0.1, vocab=vocab, schema=schema)
    return schema, vocab, records, speaker


def test_ablation_matrix_shape_and_zero_alpha_reduction():
    schema, vocab, records, speaker = ablation_fixture()
    config = DecodeConfig(beam_size=4, max_len=12, alpha=0.0)
    matrix = ablation_matrix(speaker, records, schema, vocab, config)
    assert list(matrix) == ["BASE", "area", "priceRange", "familyFriendly"]
    for row in matrix.values():
        assert list(row) == ["area", "priceRange", "familyFriendly"]
        assert all(0.0 <= v <= 1.0 for v in row.values())
    # with no pragmatic weight every masking row decodes exactly like BASE
    for attribute in ("area", "priceRange", "familyFriendly"):
        assert matrix[attribute] == matrix["BASE"]


def test_write_ablation_csv_format(tmp_path):
    matrix = {
        "BASE": {"area": 1.0, "priceRange": 0.5},
        "area": {"area": 0.25, "priceRange": 1.0 / 3.0},
    }
    path = tmp_path / "grid.csv"
    write_ablation_csv(matrix, path)
    assert path.read_bytes() == (
        b"condition,area,priceRange\r\n"
        b"BASE,1.0000,0.5000\r\n"
        b"area,0.2500,0.3333\r\n"
    )
    with pytest.raises(ValueError, match="empty"):
        write_ablation_csv({}, tmp_path / "empty.csv")
