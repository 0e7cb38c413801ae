"""Surface metrics and the attribute-masking ablation grid.

Scales follow the usual reporting conventions: ``bleu`` returns a corpus
score on 0..100, ``rouge_l`` a mean per-pair F1 on 0..1, and coverage a
fraction on 0..1. All three tokenize through ``normalize_words`` so
casing and terminal punctuation never affect a score.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Mapping, Sequence

from .core import (
    KIND_BOOLEAN,
    KIND_DELEXICALIZED,
    AttributeSchema,
    Vocabulary,
    detokenize,
    map_jobs,
    normalize_words,
)
from .data import CorpusRecord
from .distractor import POLICY_MASK_SINGLE, DistractorPolicy
from .pragmatics import MODE_DISTRACTOR, DecodeConfig, generate
from .speaker import SpeakerModel

# ── BLEU ─────────────────────────────────────────────────────────────────────


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(references: Sequence[str], hypotheses: Sequence[str], max_n: int = 4) -> float:
    """Corpus BLEU with clipped precisions, no smoothing, brevity penalty.

    Any order with zero matches zeroes the whole score, so short corpora
    of unrelated sentences legitimately land at 0.0.
    """
    if len(references) != len(hypotheses):
        raise ValueError("references and hypotheses must pair up one to one")
    if not references:
        raise ValueError("cannot score an empty corpus")
    matched = [0] * max_n
    total = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for ref, hyp in zip(references, hypotheses):
        ref_toks = normalize_words(ref)
        hyp_toks = normalize_words(hyp)
        hyp_len += len(hyp_toks)
        ref_len += len(ref_toks)
        for n in range(1, max_n + 1):
            hyp_counts = _ngrams(hyp_toks, n)
            if not hyp_counts:
                continue
            ref_counts = _ngrams(ref_toks, n)
            matched[n - 1] += sum(
                min(c, ref_counts[g]) for g, c in hyp_counts.items()
            )
            total[n - 1] += sum(hyp_counts.values())
    if any(t == 0 or m == 0 for m, t in zip(matched, total)):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in zip(matched, total)) / max_n
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / max(hyp_len, 1))
    return 100.0 * brevity * math.exp(log_precision)


# ── ROUGE-L ──────────────────────────────────────────────────────────────────


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(references: Sequence[str], hypotheses: Sequence[str]) -> float:
    """Mean per-pair longest-common-subsequence F1 (equal weight to P and R)."""
    if len(references) != len(hypotheses):
        raise ValueError("references and hypotheses must pair up one to one")
    if not references:
        raise ValueError("cannot score an empty corpus")
    scores = []
    for ref, hyp in zip(references, hypotheses):
        ref_toks = normalize_words(ref)
        hyp_toks = normalize_words(hyp)
        lcs = _lcs_length(ref_toks, hyp_toks)
        if lcs == 0:
            scores.append(0.0)
            continue
        precision = lcs / len(hyp_toks)
        recall = lcs / len(ref_toks)
        scores.append(2.0 * precision * recall / (precision + recall))
    return sum(scores) / len(scores)


# ── attribute coverage ──────────────────────────────────────────────────────


class CoverageMatcher:
    """Decides whether generated text mentions an attribute's value.

    Matching is contiguous-token containment over canonicalized text.
    Boolean attributes match through their mention lexicon instead of the
    literal yes/no value, and deliberately ignore polarity: "not family
    friendly" still counts as mentioning familyFriendly.
    """

    def __init__(self, schema: AttributeSchema) -> None:
        self.schema = schema

    def _phrases(self, attribute: str, value: str) -> list[list[str]]:
        spec = self.schema.attribute(attribute)
        if spec.kind == KIND_BOOLEAN:
            return [normalize_words(p) for p in spec.lexicon] or [normalize_words(value)]
        return [normalize_words(value)]

    def mentions(self, attribute: str, value: str, text: str) -> bool:
        # Words never hold whitespace, so padded substring tests match whole words.
        padded = f" {' '.join(normalize_words(text))} "
        return any(
            bool(p) and f" {' '.join(p)} " in padded for p in self._phrases(attribute, value)
        )


def coverage_ratio(
    records: Sequence[CorpusRecord],
    outputs: Sequence[str],
    attribute: str,
    matcher: CoverageMatcher,
) -> float:
    """Fraction of outputs mentioning ``attribute`` among records assigning it.

    With no assigning records the ratio is vacuously 1.0 (with a warning),
    so downstream aggregation never divides by zero.
    """
    if len(records) != len(outputs):
        raise ValueError("records and outputs must pair up one to one")
    assigned = 0
    mentioned = 0
    for rec, out in zip(records, outputs):
        value = rec.mr.get(attribute)
        if value is None:
            continue
        assigned += 1
        if matcher.mentions(attribute, value, out):
            mentioned += 1
    if assigned == 0:
        warnings.warn(f"no record assigns attribute {attribute!r}; coverage is vacuous")
        return 1.0
    return mentioned / assigned


def measured_attributes(schema: AttributeSchema) -> list[str]:
    """Attributes whose coverage is meaningful: everything not delexicalized."""
    return [a.name for a in schema if a.kind != KIND_DELEXICALIZED]


def coverage_report(
    records: Sequence[CorpusRecord],
    outputs: Sequence[str],
    schema: AttributeSchema,
) -> dict[str, float]:
    """Per-attribute coverage plus a macro average under key ``macro``."""
    matcher = CoverageMatcher(schema)
    report: dict[str, float] = {}
    for name in measured_attributes(schema):
        report[name] = coverage_ratio(records, outputs, name, matcher)
    report["macro"] = sum(report.values()) / len(report) if report else 1.0
    return report


# ── masking ablation ────────────────────────────────────────────────────────


def ablation_matrix(
    speaker: SpeakerModel,
    records: Sequence[CorpusRecord],
    schema: AttributeSchema,
    vocab: Vocabulary,
    config: DecodeConfig,
    workers: int = 1,
) -> dict[str, dict[str, float]]:
    """Coverage grid: one base row, then one row per masked attribute.

    Every row covers every record. The base row is distractor mode's
    fallback to the plain beam decode. A masking row pairs each input with a
    single distractor that drops the masked attribute; a record that never
    assigns it has no distractor, would fall back too, and so reuses the base
    row's output. Row-to-row differences therefore isolate the masked
    attribute's effect. ``workers``: see ``map_jobs``.
    """
    cols = measured_attributes(schema)
    matcher = CoverageMatcher(schema)
    config = replace(config, mode=MODE_DISTRACTOR)

    def row(texts: list[str]) -> dict[str, float]:
        return {c: coverage_ratio(records, texts, c, matcher) for c in cols}

    def record_texts(i: int) -> list[str]:
        """Record ``i``'s BASE text, then its text under each mask."""
        mr = records[i].mr
        base_text = detokenize(generate(speaker, mr, config).output, vocab)
        texts = [base_text]
        for attribute in cols:
            policy = DistractorPolicy(POLICY_MASK_SINGLE, attribute=attribute)
            distractors = policy.distractors(mr)
            if not distractors:
                texts.append(base_text)
                continue
            cand = generate(speaker, mr, config, distractors=distractors)
            texts.append(detokenize(cand.output, vocab))
        return texts

    per_record = map_jobs(record_texts, len(records), workers)
    return {name: row([t[r] for t in per_record]) for r, name in enumerate(["BASE", *cols])}


def write_ablation_csv(matrix: Mapping[str, Mapping[str, float]], path: str | Path) -> None:
    """Write the grid with a leading ``condition`` column, 4 decimals."""
    rows = list(matrix)
    if not rows:
        raise ValueError("empty ablation matrix")
    cols = list(matrix[rows[0]])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["condition", *cols])
        for row in rows:
            writer.writerow([row, *(f"{matrix[row][c]:.4f}" for c in cols)])


__all__ = [
    "CoverageMatcher",
    "ablation_matrix",
    "bleu",
    "coverage_ratio",
    "coverage_report",
    "measured_attributes",
    "rouge_l",
    "write_ablation_csv",
]
