"""The benchmark's workloads, the praggen commands that run them, and the
checks on what those commands write.

Every workload decodes a fixed prefix of the test split of the corpus that
``praggen synth --seed <seed>`` writes, with beam 10, ``max_len`` 60 and a
model from ``praggen train`` with default settings.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

# Decodes of the test prefix that each workload's traced run makes must lie
# between 100 and 999 (see tracer.TAIL_PERCENTILE), which fixes the
# prefixes below: 200 and 100 generate records, 30 ablate records x 7 rows.


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    records: int
    flags: Mapping[str, str]
    why: str


def uses_listener(flags: Mapping[str, str]) -> bool:
    return flags.get("--mode") == "reconstructor"


_DECODE = {"--beam-size": "10", "--max-len": "60"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mr-reconstructor",
            "generate",
            200,
            {**_DECODE, "--mode": "reconstructor", "--lambda": "0.9", "--workers": "1"},
            "plain beam plus listener rerank; no belief term, so it is the "
            "bypass case for belief-term work",
        ),
        Workload(
            "mr-distractor",
            "generate",
            100,
            {**_DECODE, "--mode": "distractor", "--distractor-policy": "mask-all",
             "--alpha": "1.0", "--workers": "1"},
            "twice the speaker calls per decode and the belief term at every "
            "step; never calls the listener",
        ),
        Workload(
            "ablate-grid",
            "ablate",
            30,
            {**_DECODE, "--alpha": "1.0", "--workers": "2"},
            "7 decodes per record with most speaker calls repeated across "
            "decodes; shows reuse across decodes and a worker pool",
        ),
    )
}


@dataclass(frozen=True)
class Files:
    """Paths a workload's commands read and write, all inside the checkout."""

    schema: Path
    train: Path
    inputs: Path
    speaker: Path
    listener: Path


def praggen_argv(*args: object) -> list[str]:
    return [sys.executable, "-m", "praggen.cli", *(str(a) for a in args)]


def synth_argv(seed: int, out: Path) -> list[str]:
    return praggen_argv("synth", "--seed", seed, "--out", out)


def train_argv(files: Files) -> list[str]:
    return praggen_argv(
        "train", "--data", files.train, "--schema", files.schema,
        "--out", files.speaker, "--listener-out", files.listener,
    )


def command_args(
    w: Workload, files: Files, out: Path, flags: Mapping[str, str] | None = None
) -> list[str]:
    """Arguments of the workload's decode command, after ``praggen``."""
    args = [
        w.command, "--data", str(files.inputs), "--speaker", str(files.speaker),
        "--schema", str(files.schema), "--out", str(out),
    ]
    flags = w.flags if flags is None else flags
    if uses_listener(flags):
        args += ["--listener", str(files.listener)]
    for flag, value in flags.items():
        args += [flag, value]
    return args


def decode_argv(
    w: Workload, files: Files, out: Path, flags: Mapping[str, str] | None = None
) -> list[str]:
    return praggen_argv(*command_args(w, files, out, flags))


def evaluate_argv(files: Files, predictions: Path) -> list[str]:
    return praggen_argv(
        "evaluate", "--data", files.inputs, "--predictions", predictions,
        "--schema", files.schema,
    )


def write_prefix(test_split: Path, records: int, out: Path) -> list[str]:
    """Copy the first ``records`` lines of the test split; return their ids."""
    lines = test_split.read_text(encoding="utf-8").splitlines()[:records]
    if len(lines) < records:
        raise ValueError(f"{test_split} holds {len(lines)} records, need {records}")
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [json.loads(line)["id"] for line in lines]


def measured_attributes(schema: Path) -> list[str]:
    """Attributes the ablation grid has rows and columns for."""
    payload = json.loads(schema.read_text(encoding="utf-8"))
    return [a["name"] for a in payload["attributes"] if a["kind"] != "delexicalized"]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


_PLACEHOLDER = re.compile(r"(?<!\w)[A-Z]+_PLH(?!\w)")


def has_placeholder(text: str) -> bool:
    return _PLACEHOLDER.search(text) is not None


def check_predictions(path: Path, ids: list[str]) -> tuple[int, list[str]]:
    """Failed decodes in a predictions file, and its outputs in input order.

    Line ``i`` must hold the prediction for ``ids[i]`` with a non-empty
    ``output``; a missing, misplaced or empty one is a failed decode, and
    so is every decode when the file holds more lines than inputs.
    """
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return len(ids), []
    if len(lines) > len(ids):
        return len(ids), []
    failed = len(ids) - len(lines)
    outputs = []
    for expected, line in zip(ids, lines):
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            payload = None
        output = payload.get("output") if isinstance(payload, dict) else None
        if payload is None or payload.get("id") != expected or not isinstance(output, str) \
                or not output.strip():
            failed += 1
            outputs.append("")
        else:
            outputs.append(output)
    return failed, outputs


def check_ablation(
    path: Path, records: int, attributes: list[str]
) -> tuple[int, dict[str, dict[str, float]]]:
    """Failed decodes in an ablation CSV, and its coverage grid.

    The grid must hold a BASE row and one row per attribute, in that order,
    with one column per attribute and every value in [0, 1]. Each missing
    or malformed row counts its ``records`` decodes as failed.
    """
    rows = ["BASE", *attributes]
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
    except OSError:
        return records * len(rows), {}
    if not table or table[0] != ["condition", *attributes]:
        return records * len(rows), {}
    grid: dict[str, dict[str, float]] = {}
    for expected, row in zip(rows, table[1:]):
        try:
            values = [float(v) for v in row[1:]]
        except ValueError:
            continue
        if row[0] == expected and len(values) == len(attributes) \
                and all(0.0 <= v <= 1.0 for v in values):
            grid[expected] = dict(zip(attributes, values))
    if len(table) - 1 > len(rows):
        return records * len(rows), {}
    return records * (len(rows) - len(grid)), grid


def ablation_quality(grid: dict[str, dict[str, float]]) -> dict[str, float]:
    """Macro coverage of the BASE row and the mean diagonal gain."""
    attributes = list(grid["BASE"])
    base = grid["BASE"]
    return {
        "coverage_macro": sum(base.values()) / len(base),
        "ablation_diagonal_gain": sum(grid[a][a] - base[a] for a in attributes)
        / len(attributes),
    }
