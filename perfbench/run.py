"""praggen benchmark: run one workload and print its metrics.

Usage, from the root of a praggen checkout::

    python3 perfbench/run.py --workload mr-reconstructor --seed 17 --seconds 20 --trace 0

The run writes a corpus with ``praggen synth --seed <seed>``, trains on it
with ``praggen train`` and then, for ``--seconds`` seconds, runs the
workload's decode command in child processes started one at a time from
this single-threaded harness, checking every output. With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates the
command with a traced in-process run of the same work (``traced_run.py``)
and reports the per-layer metrics. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record of the run, with every measurement, the
output digests and the environment, goes to
``.perfbench_work/results/<workload>-seed<seed>-trace<trace>.json``.

Only the benchmark's own processes are measured: there is no system-wide
tracing and no cache dropping.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

from tracer import COUNT_METRICS, TAIL_PERCENTILE, layer_metrics
from workloads import (
    WORKLOADS,
    Files,
    Workload,
    ablation_quality,
    check_ablation,
    check_predictions,
    command_args,
    decode_argv,
    evaluate_argv,
    has_placeholder,
    measured_attributes,
    sha256,
    synth_argv,
    train_argv,
    write_prefix,
)

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
SRC = ROOT / "src"
# Reference digests of each workload's outputs, by workload and seed.
EXPECTED = Path(__file__).with_name("expected_outputs.json")

SETUP_REPEATS = 3
MIN_DECODE_REPEATS = 3
CHILD_TIMEOUT_S = 120.0
# Start no further command once the run could then pass this many seconds;
# every run must end within 180.
RUN_BUDGET_S = 150.0
# Machine speed on a shared host swings by up to a factor of two over seconds
# to minutes, in CPU time as much as in wall time. So a fixed pure-Python
# kernel shaped like a beam step runs before and after every timed command,
# and the command's time is divided by the mean of those two kernel times
# over CAL_REFERENCE_S, about the kernel's time on a quiet core of the 2-core
# x86 VM the benchmark was defined on. The unscaled figures are recorded too.
CAL_STEPS = 35_000
CAL_REFERENCE_S = 0.35

END_TO_END_UNITS = {
    "decodes_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}
PER_LAYER_UNITS = {
    "speaker.calls_per_decode": "calls/decode",
    "speaker.busy_s": "s",
    "speaker.repeat_share": "ratio",
    "pragmatics.self_s": "s",
    "pragmatics.decode_ms_p50": "ms",
    f"pragmatics.decode_ms_p{TAIL_PERCENTILE}": "ms",
    "pragmatics.length_capped_share": "ratio",
    "pragmatics.fallback_share": "ratio",
    "listener.calls_per_decode": "calls/decode",
    "listener.busy_s": "s",
    "listener.rank_change_share": "ratio",
    "distractor.busy_s": "s",
    "data.load_s": "s",
    "data.relex_s": "s",
    "data.write_s": "s",
    "data.placeholder_leaks": "count",
    "cli.cpu_per_wall": "ratio",
    "trace_overhead_share": "ratio",
}
# Reported in the run's record and on standard output, but not in the last
# line. Output quality is fixed by the seed, and a speed change must leave
# the outputs byte-identical, which the digests check; bleu, rouge_l,
# placeholder_leak_share and ablation_diagonal_gain are defined on some
# workloads only.
EXTRA_UNITS = {
    "decodes_per_wall_s": "1/s",
    "setup_wall_s": "s",
    "calibration_s": "s",
    "coverage_macro": "ratio",
    "bleu": "0-100",
    "rouge_l": "ratio",
    "placeholder_leak_share": "ratio",
    "ablation_diagonal_gain": "ratio",
    "failed_share": "ratio",
    "cli.cpu_per_wall": "ratio",
}


class SetupError(Exception):
    """A command the benchmark needs before measuring failed."""


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: Path


@dataclass
class Decode:
    """One run of a workload's decode command, or of its traced twin."""

    child: Child
    decodes: int
    failed: int
    digest: str | None
    outputs: list[str] | dict
    slowdown: float | None = None

    def record(self) -> dict:
        c = self.child
        return {
            "wall_s": c.wall_s, "cpu_s": c.cpu_s, "rss_mb": c.rss_mb,
            "returncode": c.returncode, "decodes": self.decodes,
            "failed": self.failed, "digest": self.digest, "slowdown": self.slowdown,
        }


def run_child(argv: list[str], log: Path) -> Child:
    """Run ``argv`` to completion and measure it with ``wait4``.

    ``wait4`` reports the resources of the child together with the
    children it waited for, so a command that starts workers is measured
    whole. A child still running after ``CHILD_TIMEOUT_S`` is killed.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = log.with_suffix(".out")
    with open(out, "wb") as stdout, open(log.with_suffix(".err"), "wb") as stderr:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=out,
    )


def run_setup_child(argv: list[str], log: Path) -> Child:
    child = run_child(argv, log)
    if child.returncode != 0:
        err = log.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
        raise SetupError(f"{' '.join(argv[3:5])} exited {child.returncode}: {err[-400:]}")
    return child


def own_peak_rss_mb() -> float:
    """Peak RSS of this process's own memory, which its children inherit."""
    for line in Path("/proc/self/status").read_text(encoding="utf-8").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "note": "only the benchmark's own processes are measured; "
                "no system-wide tracing and no cache dropping",
    }


def calibrate() -> float:
    """Seconds this process takes for the calibration kernel now."""
    scores = [math.sin(i) for i in range(70)]
    beam: list[tuple] = []
    start = perf_counter()
    for i in range(CAL_STEPS):
        shift = i % 5
        m = max(scores) + shift
        log_z = m + math.log(sum(math.exp(s + shift - m) for s in scores))
        beam.append((log_z, -i))
        if len(beam) > 40:
            beam.sort()
            del beam[10:]
    return perf_counter() - start


def slowdown(calibrations: list[float]) -> float:
    """Calibrate after a command; return the machine's slowdown around it."""
    calibrations.append(calibrate())
    return (calibrations[-2] + calibrations[-1]) / (2 * CAL_REFERENCE_S)


def setup(w: Workload, seed: int, work: Path) -> tuple[Files, list[str]]:
    """Write the corpus and the input prefix."""
    corpus = work / "corpus"
    run_setup_child(synth_argv(seed, corpus), work / "synth")
    files = Files(
        schema=corpus / "schema.json",
        train=corpus / "train.jsonl",
        inputs=work / "inputs.jsonl",
        speaker=work / "model" / "speaker.json",
        listener=work / "model" / "listener.json",
    )
    ids = write_prefix(corpus / "test.jsonl", w.records, files.inputs)
    return files, ids


def train(files: Files, work: Path) -> Child:
    return run_setup_child(train_argv(files), work / "train")


def check(w: Workload, files: Files, ids: list[str], child: Child, out: Path) -> Decode:
    if w.command == "ablate":
        attributes = measured_attributes(files.schema)
        decodes = len(ids) * (1 + len(attributes))
        failed, outputs = check_ablation(out, len(ids), attributes)
    else:
        decodes = len(ids)
        failed, outputs = check_predictions(out, ids)
    if child.returncode != 0:
        failed = decodes
    digest = sha256(out) if out.is_file() else None
    return Decode(child, decodes, failed, digest, outputs)


def output_path(w: Workload, work: Path, name: str) -> Path:
    out = work / (name + (".csv" if w.command == "ablate" else ".jsonl"))
    out.unlink(missing_ok=True)
    return out


def decode_once(w: Workload, files: Files, ids: list[str], work: Path) -> Decode:
    out = output_path(w, work, "out")
    return check(w, files, ids, run_child(decode_argv(w, files, out), work / "decode"), out)


def traced_once(w: Workload, files: Files, ids: list[str], work: Path) -> tuple[Decode, dict | None, float]:
    """Run the traced twin; return it, its trace (or None) and its dump time.

    The twin runs the same command in one process. Its wrappers count only
    calls made in their own thread, so it decodes with ``--workers 1``.
    """
    out = output_path(w, work, "traced")
    trace_out = work / "trace.json"
    trace_out.unlink(missing_ok=True)
    args = command_args(w, files, out, {**w.flags, "--workers": "1"})
    argv = [sys.executable, str(Path(__file__).with_name("traced_run.py")), str(trace_out), *args]
    decode = check(w, files, ids, run_child(argv, work / "traced"), out)
    if decode.child.returncode != 0 or not trace_out.is_file():
        return decode, None, 0.0
    dump_s = json.loads(decode.child.stdout.read_text(encoding="utf-8").splitlines()[-1])["dump_s"]
    return decode, json.loads(trace_out.read_text(encoding="utf-8")), dump_s


def keep_going(runs: list, started: float, seconds: float, minimum: int, run_start: float) -> bool:
    if runs:
        longest = max(r.child.wall_s for r in runs)
        if perf_counter() + 2 * longest - run_start > RUN_BUDGET_S:
            return False
    return len(runs) < minimum or perf_counter() - started < seconds


def quality(w: Workload, files: Files, decode: Decode, work: Path) -> dict[str, float]:
    """Quality of one decode's outputs, through ``praggen evaluate``."""
    if w.command == "ablate":
        return ablation_quality(decode.outputs)
    out = work / "out.jsonl"
    child = run_child(evaluate_argv(files, out), work / "evaluate")
    if child.returncode != 0:
        return {}
    report = json.loads(child.stdout.read_text(encoding="utf-8"))
    return {
        "bleu": report["bleu"],
        "rouge_l": report["rouge_l"],
        "coverage_macro": report["coverage"]["macro"],
        "placeholder_leak_share": sum(map(has_placeholder, decode.outputs)) / len(decode.outputs),
    }


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def run_untraced(w: Workload, seed: int, seconds: float, work: Path, run_start: float) -> dict:
    files, ids = setup(w, seed, work)
    calibrations = [calibrate()]
    setup_s = []
    for _ in range(SETUP_REPEATS):
        wall = train(files, work).wall_s
        setup_s.append((wall, slowdown(calibrations)))
    runs: list[Decode] = []
    started = perf_counter()
    while keep_going(runs, started, seconds, MIN_DECODE_REPEATS, run_start):
        decode = decode_once(w, files, ids, work)
        decode.slowdown = slowdown(calibrations)
        runs.append(decode)
    measured = quality(w, files, runs[-1], work) if runs[-1].failed == 0 else {}
    attempted = sum(r.decodes for r in runs)
    failed = sum(r.failed for r in runs)
    metrics = {
        "decodes_per_s": median([r.decodes * r.slowdown / r.child.wall_s for r in runs]),
        "setup_s": median([wall / factor for wall, factor in setup_s]),
        "peak_rss_mb": median([r.child.rss_mb for r in runs]),
        "ok_share": 1.0 - failed / attempted,
    }
    extra = {
        "decodes_per_wall_s": median([r.decodes / r.child.wall_s for r in runs]),
        "setup_wall_s": median([wall for wall, _ in setup_s]),
        "calibration_s": median(calibrations),
        "failed_share": failed / attempted,
        "cli.cpu_per_wall": median([r.child.cpu_s / r.child.wall_s for r in runs]),
        **measured,
    }
    problems = []
    if failed:
        problems.append(f"{failed} of {attempted} decodes failed")
    if "coverage_macro" not in measured:
        problems.append("outputs could not be evaluated")
    # A child's peak RSS counts the peak of the memory it was started from,
    # so the figure is only praggen's while this harness stays the smaller one.
    own_rss_mb = own_peak_rss_mb()
    if metrics["peak_rss_mb"] <= own_rss_mb:
        problems.append(f"peak RSS {metrics['peak_rss_mb']:.1f} MB is not above this "
                        f"harness's {own_rss_mb:.1f} MB, which it counts")
    return {
        "runs": runs, "ids": ids, "setup_s": setup_s, "attempted": attempted, "failed": failed,
        "metrics": metrics, "extra": extra, "problems": problems,
    }


def run_traced(w: Workload, seed: int, seconds: float, work: Path, run_start: float) -> dict:
    files, ids = setup(w, seed, work)
    setup_s = [(train(files, work).wall_s, None)]
    runs: list[Decode] = []
    traced: list[Decode] = []
    traces: list[dict] = []
    dump_s: list[float] = []
    problems: list[str] = []
    started = perf_counter()
    while keep_going(traced, started, seconds, 1, run_start):
        # Alternate which side goes first, so neither always runs warm.
        order = ("traced", "plain") if len(traced) % 2 else ("plain", "traced")
        for side in order:
            if side == "plain":
                runs.append(decode_once(w, files, ids, work))
                continue
            decode, trace, dump = traced_once(w, files, ids, work)
            traced.append(decode)
            dump_s.append(dump)
            if trace is None:
                problems.append("traced run failed")
                continue
            try:
                traces.append(layer_metrics(trace, decode.child.wall_s - dump))
            except ValueError as exc:
                problems.append(f"trace rejected: {exc}")
    all_runs = runs + traced
    attempted = sum(r.decodes for r in all_runs)
    failed = sum(r.failed for r in all_runs)
    if failed:
        problems.append(f"{failed} of {attempted} decodes failed")
    metrics: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        values = [t[name] for t in traces if name in t]
        metrics[name] = median(values)
        if name in COUNT_METRICS and len(set(values)) > 1:
            problems.append(f"count {name} differs between traced runs: {sorted(set(values))}")
    metrics["cli.cpu_per_wall"] = median([r.child.cpu_s / r.child.wall_s for r in runs])
    traced_wall = median([r.child.wall_s - d for r, d in zip(traced, dump_s)])
    metrics["trace_overhead_share"] = traced_wall / median([r.child.wall_s for r in runs]) - 1.0
    return {
        "runs": all_runs, "ids": ids, "setup_s": setup_s, "attempted": attempted,
        "failed": failed, "metrics": metrics, "extra": {}, "problems": problems,
    }


def output_digest(w: Workload, decode: Decode, ids: list[str]) -> str:
    """Digest of what a user reads in one decode command's output.

    For ``generate`` it covers the id and text of every prediction, in input
    order; the scores are left out, because their last digits may depend on
    the CPU's floating-point paths. For ``ablate`` it is the digest of the
    whole CSV, whose coverage values have four decimals.
    """
    if w.command == "ablate":
        return decode.digest
    text = "".join(f"{i}\t{o}\n" for i, o in zip(ids, decode.outputs))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected_digest(w: Workload, seed: int) -> str | None:
    recorded = json.loads(EXPECTED.read_text(encoding="utf-8"))
    return recorded.get(w.name, {}).get(str(seed))


def check_digests(w: Workload, seed: int, ids: list[str], result: dict) -> dict:
    """All outputs of the run must be byte-identical and match the recorded ones.

    Outputs of a seed that ``expected_outputs.json`` records must have its
    digest: a change that makes praggen faster must not change what it writes.
    """
    ok = [r for r in result["runs"] if r.failed == 0]
    digests = sorted({r.digest for r in ok})
    if len(digests) > 1:
        result["problems"].append(f"determinism failure: outputs differ between repeats {digests}")
    if not ok:
        return {"outputs_sha256": digests, "reference_sha256": None, "reference": None}
    got = output_digest(w, ok[0], ids)
    expected = expected_digest(w, seed)
    if expected is not None and got != expected:
        result["problems"].append(
            f"outputs {got} differ from {expected}, recorded in {EXPECTED.name} for seed {seed}"
        )
    return {
        "outputs_sha256": digests,
        "reference_sha256": got,
        "reference": "not recorded" if expected is None else "checked",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_start = perf_counter()
    if not (SRC / "praggen" / "cli.py").is_file():
        print(f"error: no praggen sources under {SRC}; run from a praggen checkout",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(args.seed)
    runner = run_traced if args.trace else run_untraced
    try:
        result = runner(w, args.seed, args.seconds, work, run_start)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    digests = check_digests(w, args.seed, result["ids"], result)
    env["loadavg_end"] = os.getloadavg()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {k: {"value": result["metrics"][k], "unit": units[k]} for k in units}
    correct = not result["problems"]
    record = {
        "workload": w.name, "why": w.why, "command": w.command, "flags": dict(w.flags),
        "records": w.records, "trace": args.trace, "seconds": args.seconds,
        "environment": env, "correct": correct, "problems": result["problems"],
        "attempted": result["attempted"], "failed": result["failed"],
        "setup_runs": [{"wall_s": wall, "slowdown": factor}
                       for wall, factor in result["setup_s"]],
        "runs": [r.record() for r in result["runs"]],
        **digests,
        "metrics": metrics,
        "extra": {k: {"value": v, "unit": EXTRA_UNITS[k]} for k, v in result["extra"].items()},
        "wall_s": perf_counter() - run_start,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{work.name}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    for name, m in {**metrics, **record["extra"]}.items():
        print(f"{w.name} {name} = {m['value']:.6g} {m['unit']}")
    for digest in digests["outputs_sha256"]:
        print(f"{w.name} output sha256 {digest}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
