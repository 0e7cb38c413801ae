"""Fast checks of the output checks and of the trace's per-layer split."""

import json

import pytest

import run
from tracer import Tracer, layer_metrics, nearest_rank, self_times
from workloads import WORKLOADS, check_ablation, check_predictions, has_placeholder


def _write(path, payloads):
    path.write_text("".join(json.dumps(p) + "\n" for p in payloads), encoding="utf-8")


def test_predictions_count_missing_misplaced_and_empty(tmp_path):
    out = tmp_path / "p.jsonl"
    ids = ["a", "b", "c", "d"]
    _write(out, [
        {"id": "a", "output": "x"},
        {"id": "c", "output": "y"},
        {"id": "b", "output": " "},
    ])
    failed, outputs = check_predictions(out, ids)
    assert failed == 3  # c out of order, b empty, d missing
    assert outputs == ["x", "", ""]


def test_predictions_with_extra_lines_fail_whole(tmp_path):
    out = tmp_path / "p.jsonl"
    _write(out, [{"id": "a", "output": "x"}, {"id": "b", "output": "y"}])
    assert check_predictions(out, ["a"])[0] == 1
    assert check_predictions(tmp_path / "missing.jsonl", ["a", "b"])[0] == 2


def test_ablation_rows_fail_by_record_count(tmp_path):
    out = tmp_path / "m.csv"
    out.write_text(
        "condition,food,area\nBASE,0.5000,1.0000\nfood,1.5000,1.0000\narea,0.5,0.25\n",
        encoding="utf-8",
    )
    failed, grid = check_ablation(out, 10, ["food", "area"])
    assert failed == 10  # the food row holds a value above 1
    assert set(grid) == {"BASE", "area"}


def test_placeholder_tokens_are_whole_words():
    assert has_placeholder("near NEAR_PLH .")
    assert not has_placeholder("near the NEAR_PLHX bridge")


def _span(name, layer, start, end, parent, decode=None):
    return (name, layer, start, end, parent, decode)


def test_self_times_subtract_direct_children():
    spans = [
        _span("run", "cli", 0.0, 10.0, -1),
        _span("generate", "pragmatics", 1.0, 9.0, 0, 0),
        _span("step_logprobs_ctx", "speaker", 2.0, 5.0, 1, 0),
        _span("reconstruction_logprob", "listener", 6.0, 7.0, 1, 0),
    ]
    selfs = self_times(spans)
    assert selfs == {"cli": 2.0, "pragmatics": 4.0, "speaker": 3.0, "listener": 1.0}
    assert sum(selfs.values()) == 10.0


def test_self_times_reject_spans_that_do_not_nest():
    with pytest.raises(ValueError, match="outside its parent"):
        self_times([_span("run", "cli", 0.0, 1.0, -1), _span("x", "data", 0.5, 2.0, 0)])
    with pytest.raises(ValueError, match="one root"):
        self_times([_span("run", "cli", 0.0, 1.0, -1), _span("x", "data", 2.0, 3.0, -1)])


def test_self_times_reject_overlapping_siblings():
    """Two threads decoding at once record siblings that overlap; their
    parent would get a negative self time."""
    spans = [
        _span("run", "cli", 0.0, 10.0, -1),
        _span("generate", "pragmatics", 1.0, 6.0, 0, 0),
        _span("generate", "pragmatics", 4.0, 9.0, 0, 1),
    ]
    with pytest.raises(ValueError, match="overlap"):
        self_times(spans)


def _decodes(n):
    tracer = Tracer()
    decode = tracer.wrap("pragmatics", "generate", lambda: None)

    def run_all():
        for _ in range(n):
            tracer.begin_decode()
            decode()
            tracer.end_decode()

    tracer.wrap("cli", "main", run_all)()
    return tracer


def test_busy_time_must_fit_in_the_measured_wall_time():
    tracer = _decodes(100)
    trace = {"spans": tracer.spans, "counters": {}}
    root = tracer.spans[0]
    layer_metrics(trace, wall_s=root[3] - root[2] + 1e-6)
    with pytest.raises(ValueError, match="exceeds the traced run's wall time"):
        layer_metrics(trace, wall_s=(root[3] - root[2]) / 2)


def test_tracer_records_nested_spans_per_decode():
    tracer = Tracer()
    leaf = tracer.wrap("speaker", "step", lambda x: x + 1)
    decode = tracer.wrap("pragmatics", "generate", lambda: leaf(leaf(1)))

    def run():
        for _ in range(100):
            tracer.begin_decode()
            decode()
            tracer.end_decode()

    tracer.wrap("cli", "run", run)()
    metrics = layer_metrics({"spans": tracer.spans, "counters": {"speaker_calls": 200}}, 60.0)
    assert metrics["speaker.calls_per_decode"] == 2.0
    assert [s[5] for s in tracer.spans[1:4]] == [0, 0, 0]
    assert tracer.spans[0][4] == -1 and tracer.spans[2][4] == 1


def test_tail_percentile_needs_ten_decodes_beyond_it():
    values = list(range(1, 101))
    assert nearest_rank(values, 90) == 90
    assert nearest_rank(values, 50) == 50
    with pytest.raises(ValueError, match="decodes"):
        layer_metrics({"spans": _decodes(99).spans, "counters": {}}, 60.0)


def _result(decode):
    return {"runs": [decode], "problems": []}


def test_outputs_must_match_the_recorded_digest(tmp_path, monkeypatch):
    w = WORKLOADS["mr-reconstructor"]
    ids = ["test-0", "test-1"]
    decode = run.Decode(child=None, decodes=2, failed=0, digest="file",
                        outputs=["a red fox .", "the blue NEAR_PLH ."])
    digest = run.output_digest(w, decode, ids)
    recorded = tmp_path / "expected_outputs.json"
    recorded.write_text(json.dumps({w.name: {"17": digest}}), encoding="utf-8")
    monkeypatch.setattr(run, "EXPECTED", recorded)

    result = _result(decode)
    assert run.check_digests(w, 17, ids, result)["reference"] == "checked"
    assert result["problems"] == []

    changed = run.Decode(child=None, decodes=2, failed=0, digest="file",
                         outputs=["a red fox .", "the blue bridge ."])
    result = _result(changed)
    run.check_digests(w, 17, ids, result)
    assert "recorded in expected_outputs.json for seed 17" in result["problems"][0]

    result = _result(changed)
    assert run.check_digests(w, 18, ids, result)["reference"] == "not recorded"
    assert result["problems"] == []
