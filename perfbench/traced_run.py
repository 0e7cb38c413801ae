"""Run one praggen command in this process with its layer calls traced.

Usage: ``python3 perfbench/traced_run.py TRACE_OUT COMMAND ARGS...``, where
``COMMAND ARGS...`` is what would follow ``praggen`` on the command line.
The script wraps the calls into each layer so that each records a span,
runs ``praggen.cli.main`` on the arguments, then writes the spans and
counters to ``TRACE_OUT`` and prints the seconds that writing took. The
command writes the same output file it writes when run as ``praggen``.
"""

from __future__ import annotations

import json
import pathlib
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import has_placeholder

SRC = Path(__file__).resolve().parents[1] / "src"

# (module, function, layer) of every module-level function traced.
_FUNCTIONS = (
    ("data", "read_jsonl", "data"),
    ("data", "delexicalize", "data"),
    ("data", "relexicalize", "data"),
    ("core", "detokenize", "core"),
    ("distractor", "value_frequencies", "distractor"),
    ("pragmatics", "beam_search", "pragmatics"),
    ("pragmatics", "rerank_reconstructor", "pragmatics"),
    ("pragmatics", "pragmatic_decode_distractor", "pragmatics"),
    ("evaluation", "ablation_matrix", "evaluation"),
    ("evaluation", "write_ablation_csv", "data"),
)


def _replace_everywhere(original, replacement) -> None:
    """Point every praggen module's reference to ``original`` at ``replacement``.

    Modules import each other's functions by name, so a call from
    ``cli.cmd_generate`` to ``generate`` goes through ``praggen.cli``'s own
    reference.
    """
    for name, module in list(sys.modules.items()):
        if name == "praggen" or name.startswith("praggen."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions and methods of every praggen layer."""
    import praggen.cli
    import praggen.core
    import praggen.data
    import praggen.distractor
    import praggen.evaluation
    import praggen.listener
    import praggen.pragmatics
    import praggen.speaker

    modules = {
        "data": praggen.data,
        "core": praggen.core,
        "distractor": praggen.distractor,
        "pragmatics": praggen.pragmatics,
        "evaluation": praggen.evaluation,
    }
    for module, name, layer in _FUNCTIONS:
        original = getattr(modules[module], name)
        _replace_everywhere(original, tracer.wrap(layer, name, original))

    counters = tracer.counters
    relexicalize = praggen.data.relexicalize

    def counting_relexicalize(text, delex_map):
        out = relexicalize(text, delex_map)
        counters["placeholder_leaks"] += has_placeholder(out)
        return out

    _replace_everywhere(relexicalize, counting_relexicalize)

    rerank = praggen.pragmatics.rerank_reconstructor

    def counting_rerank(input, candidates, listener, lambda_):
        ranked = rerank(input, candidates, listener, lambda_)
        counters["rank_changes"] += ranked[0].output.ids != candidates[0].output.ids
        return ranked

    _replace_everywhere(rerank, counting_rerank)

    generate = praggen.pragmatics.generate
    traced_generate = tracer.wrap("pragmatics", "generate", generate)

    def decode(speaker, input, config, listener=None, distractors=None):
        tracer.begin_decode()
        try:
            cand = traced_generate(
                speaker, input, config, listener=listener, distractors=distractors
            )
        finally:
            tracer.end_decode()
        counters["length_capped"] += not cand.output.terminated
        counters["fallbacks"] += config.mode == "distractor" and not distractors
        return cand

    _replace_everywhere(generate, decode)

    load_speaker = praggen.speaker.load_speaker

    def traced_load_speaker(*args, **kwargs):
        model = load_speaker(*args, **kwargs)
        trace_speaker(tracer, model)
        return model

    _replace_everywhere(load_speaker, traced_load_speaker)

    load_listener = praggen.listener.load_listener

    def traced_load_listener(*args, **kwargs):
        model = load_listener(*args, **kwargs)
        trace_listener(tracer, model)
        return model

    _replace_everywhere(load_listener, traced_load_listener)

    policy = praggen.distractor.DistractorPolicy
    policy.distractors = tracer.wrap("distractor", "distractors", policy.distractors)
    # The predictions file is written with Path.write_text.
    pathlib.Path.write_text = tracer.wrap("data", "write_text", pathlib.Path.write_text)


def trace_speaker(tracer: Tracer, speaker) -> None:
    """Trace ``step_logprobs_ctx`` on the loaded speaker and count repeats.

    A call repeats when its (context, last ``order - 1`` prefix ids) key
    was seen before in this run; such a call could reuse an earlier row.
    """
    step = tracer.wrap("speaker", "step_logprobs_ctx", speaker.step_logprobs_ctx)
    span = getattr(speaker, "order", 0) - 1
    seen: set = set()
    counters = tracer.counters

    def counting_step(ctx, prefix_ids):
        key = (ctx, prefix_ids[-span:] if span > 0 else prefix_ids)
        counters["speaker_calls"] += 1
        if key in seen:
            counters["speaker_repeats"] += 1
        else:
            seen.add(key)
        return step(ctx, prefix_ids)

    speaker.step_logprobs_ctx = counting_step


def trace_listener(tracer: Tracer, listener) -> None:
    score = tracer.wrap("listener", "reconstruction_logprob", listener.reconstruction_logprob)

    def counting_score(input, output):
        tracer.counters["listener_calls"] += 1
        return score(input, output)

    listener.reconstruction_logprob = counting_score


def main(argv: list[str]) -> int:
    trace_out, command = Path(argv[0]), argv[1:]
    import praggen
    import praggen.cli

    if SRC not in Path(praggen.__file__).resolve().parents:
        print(f"error: praggen imported from {praggen.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    code = tracer.wrap("cli", "main", praggen.cli.main)(command)
    if code != 0:
        return code
    start = perf_counter()
    tracer.dump(trace_out)
    print(json.dumps({"dump_s": perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
