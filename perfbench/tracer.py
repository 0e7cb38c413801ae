"""In-memory spans and counters for the traced run, and the per-layer split.

A span is ``(name, layer, start, end, parent, decode)``: ``parent`` is the
index of the enclosing span (``-1`` for the root) and ``decode`` the index
of the decode it belongs to (``None`` outside a decode). Spans are kept in
a list while the run goes and written once, when it ends.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

DECODE_SPAN = "generate"
LOAD_SPANS = ("read_jsonl", "delexicalize")
RELEX_SPANS = ("detokenize", "relexicalize")
WRITE_SPANS = ("write_text", "write_ablation_csv")

# The tail percentile reported for decode times. Every workload's traced
# run makes between 100 and 999 decodes, so p90 is the highest of the
# usual p50/p90/p99 with at least ten decodes beyond it.
TAIL_PERCENTILE = 90
MIN_TRACED_DECODES = 100
MAX_TRACED_DECODES = 999


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counters: Counter = Counter()
        self.decode: int | None = None
        self.decodes = 0
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, layer, start, end, parent, self.decode)

        return traced

    def begin_decode(self) -> None:
        self.decode = self.decodes
        self.decodes += 1

    def end_decode(self) -> None:
        self.decode = None

    def dump(self, path: Path) -> None:
        if self._stack or any(s is None for s in self.spans):
            raise RuntimeError("trace written while a span is still open")
        payload = {"spans": self.spans, "counters": dict(self.counters)}
        # open(), not Path.write_text: the traced run wraps the latter.
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def self_times(spans: list) -> dict[str, float]:
    """Seconds of each layer not covered by its spans' direct children.

    Raises ``ValueError`` when the spans do not nest: a child outside its
    parent, two children of one parent that overlap, or more than one root.
    Spans that nest have no negative self time, and the per-layer self
    times add up to the root span's duration. Spans recorded from several
    threads at once fail these checks.
    """
    covered = [0.0] * len(spans)
    children: dict[int, list[tuple[float, float, str]]] = defaultdict(list)
    roots = 0
    for name, _layer, start, end, parent, _decode in spans:
        if end < start:
            raise ValueError(f"span {name} ends before it starts")
        if parent < 0:
            roots += 1
            continue
        p = spans[parent]
        if start < p[2] or end > p[3]:
            raise ValueError(f"span {name} lies outside its parent {p[0]}")
        covered[parent] += end - start
        children[parent].append((start, end, name))
    if roots != 1:
        raise ValueError(f"a trace needs exactly one root span, found {roots}")
    for parent, kids in children.items():
        kids.sort()
        for (_, end, first), (start, _, second) in zip(kids, kids[1:]):
            if start < end:
                raise ValueError(
                    f"spans {first} and {second} under {spans[parent][0]} overlap"
                )
    per_layer: dict[str, float] = defaultdict(float)
    for i, (_name, layer, start, end, _parent, _decode) in enumerate(spans):
        per_layer[layer] += (end - start) - covered[i]
    return dict(per_layer)


def nearest_rank(sorted_values: list[float], percentile: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no values")
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def layer_metrics(trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run, from its spans and counters.

    ``wall_s`` is the traced process's wall time as its parent measured it,
    less the time the process took to write the trace. The per-layer busy
    times must not add up to more than that.
    """
    spans = trace["spans"]
    counters = Counter(trace["counters"])
    selfs = self_times(spans)
    busy = sum(selfs.values())
    if busy > wall_s:
        raise ValueError(
            f"per-layer busy time {busy:.4f} s exceeds the traced run's wall time {wall_s:.4f} s"
        )
    durations = defaultdict(float)
    for name, _layer, start, end, _parent, _decode in spans:
        durations[name] += end - start
    decode_ms = sorted(
        (s[3] - s[2]) * 1e3 for s in spans if s[0] == DECODE_SPAN
    )
    n = len(decode_ms)
    if not MIN_TRACED_DECODES <= n <= MAX_TRACED_DECODES:
        raise ValueError(
            f"traced run made {n} decodes; the p{TAIL_PERCENTILE} tail needs "
            f"{MIN_TRACED_DECODES} to {MAX_TRACED_DECODES}"
        )
    speaker_calls = counters["speaker_calls"]
    return {
        "speaker.calls_per_decode": speaker_calls / n,
        "speaker.busy_s": selfs.get("speaker", 0.0),
        "speaker.repeat_share": counters["speaker_repeats"] / max(speaker_calls, 1),
        "pragmatics.self_s": selfs.get("pragmatics", 0.0),
        "pragmatics.decode_ms_p50": nearest_rank(decode_ms, 50),
        f"pragmatics.decode_ms_p{TAIL_PERCENTILE}": nearest_rank(decode_ms, TAIL_PERCENTILE),
        "pragmatics.length_capped_share": counters["length_capped"] / n,
        "pragmatics.fallback_share": counters["fallbacks"] / n,
        "listener.calls_per_decode": counters["listener_calls"] / n,
        "listener.busy_s": selfs.get("listener", 0.0),
        "listener.rank_change_share": counters["rank_changes"] / n,
        "distractor.busy_s": selfs.get("distractor", 0.0),
        "data.load_s": sum(durations[k] for k in LOAD_SPANS),
        "data.relex_s": sum(durations[k] for k in RELEX_SPANS),
        "data.write_s": sum(durations[k] for k in WRITE_SPANS),
        "data.placeholder_leaks": counters["placeholder_leaks"],
    }


# Metrics of a traced run that are counts: they must repeat exactly.
COUNT_METRICS = (
    "speaker.calls_per_decode",
    "speaker.repeat_share",
    "pragmatics.length_capped_share",
    "pragmatics.fallback_share",
    "listener.calls_per_decode",
    "listener.rank_change_share",
    "data.placeholder_leaks",
)
