"""Command line pipeline: synth, train, generate, evaluate, ablate.

Every setting is a flag, and each flag refuses a bad value as it parses. A
model or corpus flag declares its default; a decode flag left out keeps
``DecodeConfig``'s default.
Exit codes are 0 for success, 2 for usage or validation problems, and 3
for runtime or data errors. All outputs are written deterministically, so
a rerun with the same inputs is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, NoReturn, Sequence

from .core import (
    AttributeSchema,
    TokenSequence,
    detokenize,
    load_schema,
    map_jobs,
    normalize_words,
    schema_to_dict,
)
from .data import (
    RESTAURANT_SCHEMA,
    CorpusRecord,
    build_corpus_vocabulary,
    delexicalize,
    generate_corpus,
    has_unmapped_placeholder,
    iter_jsonl,
    read_jsonl,
    relexicalize,
    write_jsonl,
)
from .distractor import (
    POLICY_MASK_ALL,
    POLICY_MASK_SINGLE,
    POLICY_NONE,
    DistractorPolicy,
    value_frequencies,
)
from .evaluation import (
    ablation_matrix,
    bleu,
    coverage_report,
    rouge_l,
    write_ablation_csv,
)
from .listener import load_listener, save_listener, train_attribute_listener
from .pragmatics import MODE_DISTRACTOR, MODE_RECONSTRUCTOR, MODES, DecodeConfig, generate
from .speaker import load_speaker, save_speaker, train_ngram_speaker


class UsageError(Exception):
    """Bad arguments or settings; exit code 2."""


class DataError(Exception):
    """Unreadable or inconsistent data; exit code 3."""


# ── flag values ─────────────────────────────────────────────────────────────


def _checked(kind: type, ok: Callable[[float], bool], rule: str) -> Callable[[str], object]:
    """An argparse ``type=`` that parses a ``kind`` and refuses a value not ``ok``."""

    def parse(text: str):
        try:
            if ok(value := kind(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")

    return parse


_COUNT = _checked(int, lambda n: n >= 0, "a non-negative integer")
_POSITIVE_INT = _checked(int, lambda n: n >= 1, "a positive integer")
_POSITIVE = _checked(float, lambda x: 0.0 < x < math.inf, "positive and finite")
_NON_NEGATIVE = _checked(float, lambda x: 0.0 <= x < math.inf, "non-negative and finite")
_UNIT = _checked(float, lambda x: 0.0 <= x <= 1.0, "in [0, 1]")


def _decode_config(args: argparse.Namespace, mode: str) -> DecodeConfig:
    """The decode flags given; ``DecodeConfig`` owns the defaults."""
    keys = ("beam_size", "max_len", "lambda_", "alpha")
    given = {key: value for key in keys if (value := getattr(args, key, None)) is not None}
    return DecodeConfig(mode=mode, **given)


# ── shared loading helpers ──────────────────────────────────────────────────


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {path}")
    return p


def _load(what: str, path: str, load: Callable, *args):
    """``load(path, *args)``; the loaders only parse, so each error caught means a bad file."""
    _require_file(path, f"{what} file")
    try:
        return load(path, *args)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"{path}: invalid {what} ({exc})") from None


def _read_records(path: str, schema: AttributeSchema | None = None) -> list[CorpusRecord]:
    _require_file(path, "data file")
    try:
        return read_jsonl(path, schema)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def _output_path(path: str) -> Path:
    """``path``, after creating its parent directory."""
    out = Path(path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _write_lines(lines: Sequence[str], path: str) -> None:
    _output_path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


# ── commands ────────────────────────────────────────────────────────────────


def cmd_synth(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    splits = (
        ("train", args.train_size, args.seed),
        ("dev", args.dev_size, args.seed + 1),
        ("test", args.test_size, args.seed + 2),
    )
    for split, size, seed in splits:
        records = generate_corpus(size, seed, args.omission_rate, id_prefix=split)
        target = out_dir / f"{split}.jsonl"
        write_jsonl(records, target)
        print(f"wrote {len(records)} records to {target}")
    schema_path = out_dir / "schema.json"
    schema_path.write_text(
        json.dumps(schema_to_dict(RESTAURANT_SCHEMA), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"wrote schema to {schema_path}")
    return 0


def _training_pairs(records: list[CorpusRecord], schema: AttributeSchema):
    if not records:
        raise UsageError("training data is empty")
    delexed = [delexicalize(r, schema) for r in records]
    references = [normalize_words(r.reference) for r in delexed]
    vocab = build_corpus_vocabulary(references, schema)
    pairs = [(r.mr, TokenSequence(map(vocab.id, words)))
             for r, words in zip(delexed, references)]
    return pairs, vocab


def cmd_train(args: argparse.Namespace) -> int:
    if args.listener_out and Path(args.listener_out).resolve() == Path(args.out).resolve():
        raise UsageError("--out and --listener-out must be different files")
    schema = _load("schema", args.schema, load_schema)
    records = _read_records(args.data, schema)
    pairs, vocab = _training_pairs(records, schema)
    speaker = train_ngram_speaker(
        pairs,
        args.order,
        args.k,
        vocab=vocab,
        schema=schema,
        copy_bonus=args.copy_bonus,
    )
    out = _output_path(args.out)
    save_speaker(speaker, out)
    print(f"trained order-{args.order} speaker on {len(pairs)} pairs "
          f"(vocab {len(vocab.tokens)}), saved to {out}")
    if args.listener_out is not None:
        listener = train_attribute_listener(pairs, schema, k=args.listener_k, vocab=vocab)
        save_listener(listener, _output_path(args.listener_out))
        print(f"trained attribute-nb listener, saved to {args.listener_out}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    config = _decode_config(args, args.mode)
    schema = _load("schema", args.schema, load_schema)
    speaker = _load("speaker", args.speaker, load_speaker, schema)
    listener = (None if args.listener is None
                else _load("listener", args.listener, load_listener, schema))
    if config.mode == MODE_RECONSTRUCTOR and listener is None:
        raise UsageError("reconstructor mode requires --listener")
    if listener is not None and listener.vocab.tokens != speaker.vocab.tokens:
        raise DataError(f"{args.listener}: listener vocabulary differs from the speaker's")
    try:
        policy = DistractorPolicy.parse(args.distractor_policy)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if policy.kind == POLICY_MASK_SINGLE and not schema.has(policy.attribute):
        raise UsageError(f"mask-single names unknown attribute {policy.attribute!r}")
    if config.mode != MODE_DISTRACTOR and policy.kind != POLICY_NONE:
        raise UsageError("--distractor-policy only applies to --mode distractor")

    records = _read_records(args.data, schema)
    delexed = [delexicalize(r, schema) for r in records]
    # Outside distractor mode the policy is ``none``, which yields no distractor.
    freqs = None
    if policy.kind == POLICY_MASK_ALL:
        freqs = value_frequencies([r.mr for r in delexed], schema)
    jobs = [(rec, policy.distractors(rec.mr, freqs=freqs)) for rec in delexed]

    def decode(i: int) -> dict:
        rec, distractors = jobs[i]
        cand = generate(speaker, rec.mr, config, listener=listener, distractors=distractors)
        text = relexicalize(detokenize(cand.output, speaker.vocab), rec.delex_map)
        payload: dict[str, object] = {
            "id": rec.id,
            "output": text,
            "base_logprob": cand.base_logprob,
        }
        if cand.listener_logprob is not None:
            payload["listener_logprob"] = cand.listener_logprob
            payload["combined_score"] = cand.combined_score
        return payload

    payloads = map_jobs(decode, len(jobs), args.workers)
    _write_lines(
        [json.dumps(p, sort_keys=True, separators=(",", ":")) for p in payloads],
        args.out,
    )
    print(f"decoded {len(payloads)} records ({config.mode} mode) to {args.out}")
    leaks = sum(has_unmapped_placeholder(p["output"]) for p in payloads)
    print(f"placeholders: {leaks} of {len(payloads)} outputs keep an unmapped "
          "*_PLH token", file=sys.stderr)
    return 0


def _read_predictions(path: str) -> dict[str, dict]:
    _require_file(path, "predictions file")
    out: dict[str, dict] = {}
    try:
        for lineno, payload in iter_jsonl(path):
            if not isinstance(payload, dict) or "id" not in payload or "output" not in payload:
                raise DataError(f"{path}: line {lineno}: prediction needs id and output")
            if not isinstance(payload["id"], str):
                raise DataError(f"{path}: line {lineno}: prediction id must be a string")
            if not isinstance(payload["output"], str):
                raise DataError(f"{path}: line {lineno}: prediction output must be a string")
            if payload["id"] in out:
                raise DataError(f"{path}: line {lineno}: duplicate id {payload['id']!r}")
            out[payload["id"]] = payload
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    return out


def cmd_evaluate(args: argparse.Namespace) -> int:
    schema = _load("schema", args.schema, load_schema)
    records = _read_records(args.data, schema)
    predictions = _read_predictions(args.predictions)
    if not records:
        raise UsageError("no records to evaluate")
    record_ids = {r.id for r in records}
    pred_ids = set(predictions)
    if record_ids != pred_ids:
        missing = sorted(record_ids - pred_ids)[:5]
        extra = sorted(pred_ids - record_ids)[:5]
        parts = []
        if missing:
            parts.append(f"ids without predictions: {', '.join(missing)}")
        if extra:
            parts.append(f"predictions without records: {', '.join(extra)}")
        raise UsageError("data and predictions do not match; " + "; ".join(parts))
    hyps = [predictions[r.id]["output"] for r in records]
    refs = [r.reference for r in records]
    report = {
        "bleu": bleu(refs, hyps),
        "rouge_l": rouge_l(refs, hyps),
        "coverage": coverage_report(records, hyps, schema),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        _write_lines([text], args.out)
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    config = _decode_config(args, MODE_DISTRACTOR)
    schema = _load("schema", args.schema, load_schema)
    speaker = _load("speaker", args.speaker, load_speaker, schema)
    records = _read_records(args.data, schema)
    if not records:
        raise UsageError("no records to ablate over")
    delexed = [delexicalize(r, schema) for r in records]
    matrix = ablation_matrix(
        speaker, delexed, schema, speaker.vocab, config, workers=args.workers
    )
    out = _output_path(args.out)
    write_ablation_csv(matrix, out)
    print(f"wrote {len(matrix)}x{len(next(iter(matrix.values())))} "
          f"coverage matrix to {out}")
    return 0


# ── parser ──────────────────────────────────────────────────────────────────


class _Parser(argparse.ArgumentParser):
    """Refuses bad arguments with ``UsageError``, so they print as one line."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="praggen",
        description="Pragmatic text generation: synthesize data, train "
        "speaker and listener models, decode, and evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="write a synthetic corpus")
    synth.set_defaults(run=cmd_synth)
    synth.add_argument("--seed", type=int, default=13, help="random seed")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--train-size", type=_COUNT, default=5000)
    synth.add_argument("--dev-size", type=_COUNT, default=500)
    synth.add_argument("--test-size", type=_COUNT, default=500)
    synth.add_argument("--omission-rate", type=_UNIT, default=0.1,
                       help="chance a reference drops an assigned clause")

    train = sub.add_parser("train", help="train speaker (and optional listener)")
    train.set_defaults(run=cmd_train)
    train.add_argument("--data", required=True, help="training records (JSONL)")
    train.add_argument("--schema", required=True, help="attribute schema (JSON)")
    train.add_argument("--out", required=True, help="speaker model output path")
    train.add_argument("--order", type=_checked(int, lambda n: n >= 2, "an integer >= 2"),
                       default=3, help="n-gram order")
    train.add_argument("--k", type=_POSITIVE, default=0.1, help="add-k smoothing constant")
    train.add_argument("--copy-bonus", type=_NON_NEGATIVE, default=1.0,
                       help="log-linear bonus for tokens present in the input")
    train.add_argument("--listener-out", help="also train a listener and save it here")
    train.add_argument("--listener-k", type=_POSITIVE, default=0.5)

    # Flags shared by the decoding commands; a decode flag left out keeps
    # DecodeConfig's default.
    decoding = argparse.ArgumentParser(add_help=False)
    decoding.add_argument("--data", required=True, help="records to decode (JSONL)")
    decoding.add_argument("--speaker", required=True, help="speaker model path")
    decoding.add_argument("--schema", required=True, help="attribute schema (JSON)")
    decoding.add_argument("--beam-size", type=_POSITIVE_INT)
    decoding.add_argument("--max-len", type=_POSITIVE_INT)
    decoding.add_argument("--alpha", type=_NON_NEGATIVE,
                          help="belief weight in distractor decoding")
    decoding.add_argument("--workers", type=_POSITIVE_INT, default=1,
                          help="decode processes, at most one per CPU")

    gen = sub.add_parser("generate", parents=[decoding], help="decode inputs to text")
    gen.set_defaults(run=cmd_generate)
    gen.add_argument("--out", required=True, help="predictions output path (JSONL)")
    gen.add_argument("--mode", choices=list(MODES), default=DecodeConfig.mode)
    gen.add_argument("--listener", help="listener model (reconstructor mode)")
    gen.add_argument("--lambda", type=_UNIT, dest="lambda_",
                     help="listener weight when reranking")
    gen.add_argument("--distractor-policy", default=POLICY_NONE,
                     help="mask-all | mask-single:<attr> | none")

    ev = sub.add_parser("evaluate", help="score predictions against references")
    ev.set_defaults(run=cmd_evaluate)
    ev.add_argument("--data", required=True, help="gold records (JSONL)")
    ev.add_argument("--predictions", required=True, help="predictions (JSONL)")
    ev.add_argument("--schema", required=True, help="attribute schema (JSON)")
    ev.add_argument("--out", help="also write the JSON report here")

    ab = sub.add_parser("ablate", parents=[decoding], help="attribute-masking coverage matrix")
    ab.set_defaults(run=cmd_ablate)
    ab.add_argument("--out", required=True, help="matrix output path (CSV)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # --help; argparse's refusals raise UsageError
        return exc.code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
