"""Pragmatically informative conditional text generation.

A base speaker proposes text for a structured input; a listener tries to
reconstruct the input from that text. Decoding can stay with the base
speaker, rerank its candidates by reconstructability, or steer each token
against explicit distractor inputs while tracking a listener belief over
which input is being described.
"""

from .core import (
    AttributeSchema,
    AttributeSpec,
    DegenerateDistributionError,
    MeaningRepresentation,
    TokenSequence,
    UnbuildableContextError,
    Vocabulary,
    detokenize,
    linearize_mr,
    load_schema,
    tokenize,
    validate_mr,
)
from .data import (
    RESTAURANT_SCHEMA,
    CorpusRecord,
    build_corpus_vocabulary,
    delexicalize,
    generate_corpus,
    read_jsonl,
    relexicalize,
    write_jsonl,
)
from .distractor import (
    DistractorPolicy,
    mask_all_distractor,
    mask_single_distractor,
    value_frequencies,
)
from .evaluation import (
    CoverageMatcher,
    ablation_matrix,
    bleu,
    coverage_ratio,
    rouge_l,
)
from .listener import (
    AttributeClassifierListener,
    load_listener,
    save_listener,
    train_attribute_listener,
)
from .pragmatics import (
    BeliefCollapseError,
    BeliefState,
    DecodeConfig,
    ScoredCandidate,
    beam_search,
    belief_update,
    distractor_step_scores,
    generate,
    pragmatic_decode_distractor,
    rerank_reconstructor,
)
from .speaker import (
    NGramSpeaker,
    SpeakerModel,
    load_speaker,
    save_speaker,
    train_ngram_speaker,
)

__version__ = "0.1.0"

__all__ = [
    "AttributeClassifierListener",
    "AttributeSchema",
    "AttributeSpec",
    "BeliefCollapseError",
    "BeliefState",
    "CorpusRecord",
    "CoverageMatcher",
    "DecodeConfig",
    "DegenerateDistributionError",
    "DistractorPolicy",
    "MeaningRepresentation",
    "NGramSpeaker",
    "RESTAURANT_SCHEMA",
    "ScoredCandidate",
    "SpeakerModel",
    "TokenSequence",
    "UnbuildableContextError",
    "Vocabulary",
    "ablation_matrix",
    "beam_search",
    "belief_update",
    "bleu",
    "build_corpus_vocabulary",
    "coverage_ratio",
    "delexicalize",
    "detokenize",
    "distractor_step_scores",
    "generate",
    "generate_corpus",
    "linearize_mr",
    "load_listener",
    "load_schema",
    "load_speaker",
    "mask_all_distractor",
    "mask_single_distractor",
    "pragmatic_decode_distractor",
    "read_jsonl",
    "relexicalize",
    "rerank_reconstructor",
    "rouge_l",
    "save_listener",
    "save_speaker",
    "tokenize",
    "train_attribute_listener",
    "train_ngram_speaker",
    "validate_mr",
    "value_frequencies",
    "write_jsonl",
]
