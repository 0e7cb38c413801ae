"""End-to-end checks of the benchmark: each runs praggen commands (about
a minute in all on two cores)."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from run import END_TO_END_UNITS, PER_LAYER_UNITS, ROOT, run_child, setup, train
from workloads import WORKLOADS, decode_argv

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_benchmark(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180,
    )


def test_benchmark_json_names_what_run_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER_UNITS


def test_zero_weights_reduce_to_base(tmp_path):
    """reconstructor at lambda 0 and distractor at alpha 0 decode like base."""
    rec = replace(WORKLOADS["mr-reconstructor"], records=8)
    dist = WORKLOADS["mr-distractor"]
    files, ids = setup(rec, 17, tmp_path)
    train(files, tmp_path)
    runs = {
        "base": (rec, {**rec.flags, "--mode": "base"}),
        "reconstructor": (rec, {**rec.flags, "--lambda": "0"}),
        "distractor": (dist, {**dist.flags, "--alpha": "0"}),
    }
    decoded = {}
    for name, (w, flags) in runs.items():
        out = tmp_path / f"{name}.jsonl"
        child = run_child(decode_argv(w, files, out, flags), tmp_path / name)
        assert child.returncode == 0, name
        lines = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [p["id"] for p in lines] == ids
        decoded[name] = [(p["output"], p["base_logprob"]) for p in lines]
    assert decoded["reconstructor"] == decoded["base"]
    assert decoded["distractor"] == decoded["base"]


def test_second_seed_runs_without_failures():
    done = _run_benchmark("--workload", "mr-distractor", "--seed", "29", "--seconds", "1",
                          "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END_UNITS)
    assert result["metrics"]["ok_share"]["value"] == 1.0


def test_traced_run_reports_every_layer_metric():
    done = _run_benchmark("--workload", "mr-reconstructor", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stdout
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(PER_LAYER_UNITS)
    assert metrics["listener.calls_per_decode"] == 10.0
    assert metrics["pragmatics.fallback_share"] == 0.0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_benchmark("--workload", "mr-reconstructor", "--seconds", "1", "--trace", "0",
                          cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert not (tmp_path / ".perfbench_work").exists()
