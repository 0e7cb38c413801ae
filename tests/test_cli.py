import argparse
import concurrent.futures
import hashlib
import importlib
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import praggen
from praggen.cli import _decode_config, build_parser, main
from praggen.core import detokenize, load_schema
from praggen.data import delexicalize, read_jsonl, relexicalize, write_jsonl
from praggen.listener import load_listener
from praggen.pragmatics import DecodeConfig, beam_search, rerank_reconstructor
from praggen.speaker import load_speaker


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A small synthetic corpus with a trained speaker and listener."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert (
        run(
            "synth", "--out", data,
            "--train-size", 60, "--dev-size", 12, "--test-size", 8, "--seed", 5,
        )
        == 0
    )
    assert (
        run(
            "train",
            "--data", data / "train.jsonl",
            "--schema", data / "schema.json",
            "--out", root / "model" / "speaker.json",
            "--listener-out", root / "model" / "listener.json",
        )
        == 0
    )
    return {
        "root": root,
        "schema": data / "schema.json",
        "train": data / "train.jsonl",
        "dev": data / "dev.jsonl",
        "speaker": root / "model" / "speaker.json",
        "listener": root / "model" / "listener.json",
    }


def subcommands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def outputs_of(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line)["output"] for line in fh]


# ── argument plumbing ────────────────────────────────────────────────────────


def test_no_command_is_a_usage_error():
    assert main([]) == 2


@pytest.mark.parametrize("command", [None, "synth", "train", "generate", "evaluate", "ablate"],
                         ids=lambda command: command or "praggen")
def test_help_exits_cleanly(capsys, command):
    assert main([command, "--help"] if command else ["--help"]) == 0
    out = capsys.readouterr().out
    assert "synth" in out if command is None else f"praggen {command}" in out


def test_readme_commands_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    parser = build_parser()
    flags = {flag for sub in subcommands(parser).values() for flag in sub._option_string_actions}
    prose = re.sub(r"```.*?```", "", readme, flags=re.DOTALL)
    assert set(re.findall(r"`(--[\w-]+)", prose)) <= flags
    commands = [
        line.strip()
        for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.DOTALL)
        for line in block.replace("\\\n", " ").splitlines()
        if line.strip().startswith("praggen ")
    ]
    assert commands
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])


def test_readme_python_blocks_run():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_unknown_mode_is_rejected_by_the_parser(ws, tmp_path):
    rc = run(
        "generate", "--data", ws["dev"], "--speaker", ws["speaker"],
        "--schema", ws["schema"], "--out", tmp_path / "p.jsonl",
        "--mode", "telepathy",
    )
    assert rc == 2


# ── synth ────────────────────────────────────────────────────────────────────


def test_synth_writes_all_splits(ws):
    for split, size in (("train", 60), ("dev", 12), ("test", 8)):
        records = read_jsonl(ws["root"] / "data" / f"{split}.jsonl")
        assert len(records) == size
        assert records[0].id == f"{split}-00000"
    schema_payload = json.loads(ws["schema"].read_text(encoding="utf-8"))
    assert {a["name"] for a in schema_payload["attributes"]} >= {"name", "food"}


def test_synth_reruns_are_byte_identical(ws, tmp_path):
    args = ["--train-size", 60, "--dev-size", 12, "--test-size", 8, "--seed", 5]
    assert run("synth", "--out", tmp_path / "again", *args) == 0
    for name in ("train.jsonl", "dev.jsonl", "test.jsonl", "schema.json"):
        assert (tmp_path / "again" / name).read_bytes() == (
            ws["root"] / "data" / name
        ).read_bytes()


def test_synth_seed_changes_the_corpus(ws, tmp_path):
    assert (
        run(
            "synth", "--out", tmp_path / "other",
            "--train-size", 60, "--dev-size", 12, "--test-size", 8, "--seed", 6,
        )
        == 0
    )
    assert (tmp_path / "other" / "train.jsonl").read_bytes() != (
        ws["train"]
    ).read_bytes()


def test_synth_validates_settings(tmp_path, capsys):
    out = tmp_path / "data"
    for flag, value in (("--omission-rate", 1.5), ("--train-size", -3), ("--dev-size", -1)):
        assert run("synth", "--out", out, flag, value) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: argument {flag}: ")
        assert not out.exists()
    assert run("synth", "--out", out, "--grammar", tmp_path / "x.json") == 2


SCHEMA_SHA = "c3662b8314cd4fd0b44bb33ec8c3cd2b30a827e176513148a5b375b9cd1b0243"


@pytest.mark.parametrize("omission_rate, train_sha, dev_sha, test_sha", [
    (0, "1b00e54b6e8f134f073ebcfc6935bfd69368080fe47cfca72aaed54e6133f9f3",
     "8ce67bc826588cadacaa1c83f8c42b2d205d18d1d3237f6114a3cdbb43f3fa4e",
     "30c9beb52af4632e2195373dd3645e307e4c1639d661c9bc94890cd72f63c852"),
    (0.1, "c5f6241be9ed1352f94a7c45d6c43f25c5a62d4c5116ccc66a040292c85c3981",
     "dd234b478f273e5800fb059c7d11b6b4dd868f7cfb2661e69bb0d5e166ad6405",
     "c63577697840c3ad05b530a5164432eb948e23c1433c2aa4902d8a0eca28759b"),
    (1, "300926b5178e265740c797fd14cada0d8d719daf2469794ebec846a7c37d58ae",
     "1e014e121584dbcb5d7cd74ea7579c04d8bed107b16466a947b8e24edaf4447a",
     "3009bac92e02840b29a92d608a0685ba2ab1fd44cffcaff7f7068a86439fe6e4"),
], ids=["omit0", "omit0.1", "omit1"])
def test_synth_writes_the_recorded_corpus_bytes(tmp_path, omission_rate, train_sha,
                                                dev_sha, test_sha):
    # The digests pin the corpus to the bytes synth wrote when they were
    # recorded, so a rewrite of the grammar must draw from the random stream
    # in exactly the same order.
    data = tmp_path / "data"
    assert run("synth", "--out", data, "--seed", 17, "--train-size", 200, "--dev-size", 20,
               "--test-size", 20, "--omission-rate", omission_rate) == 0
    expected = {"train.jsonl": train_sha, "dev.jsonl": dev_sha, "test.jsonl": test_sha,
                "schema.json": SCHEMA_SHA}
    assert {name: hashlib.sha256((data / name).read_bytes()).hexdigest()
            for name in expected} == expected


@pytest.mark.parametrize("command, flag, value", [
    ("generate", "--alpha", "inf"), ("generate", "--alpha", "nan"),
    ("train", "--copy-bonus", "inf"), ("train", "--copy-bonus", "nan"),
    ("train", "--k", "inf"), ("train", "--k", "nan"),
    ("train", "--listener-k", "inf"), ("train", "--listener-k", "nan"),
    ("train", "--order", "1"), ("generate", "--workers", "0"), ("train", "--k", "0"),
    ("train", "--listener-k", "0"), ("train", "--copy-bonus", "-1"),
    ("generate", "--lambda", "1.5"), ("generate", "--beam-size", "0"),
    ("generate", "--max-len", "0"),
])
def test_non_finite_float_settings_are_usage_errors(ws, tmp_path, capsys, command, flag, value):
    # Every flag value, decode flags included, is refused as it parses, and
    # the one-line message names the flag.
    out = tmp_path / "out.json"
    args = {
        "train": ["--data", ws["train"], "--listener-out", tmp_path / "listener.json"],
        "generate": ["--data", ws["dev"], "--speaker", ws["speaker"], "--mode", "distractor"],
    }[command]
    assert run(command, *args, "--schema", ws["schema"], "--out", out, flag, value) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: argument {flag}: ")
    assert not out.exists() and not (tmp_path / "listener.json").exists()


def test_decode_flags_left_out_keep_the_decode_config_defaults():
    parser = build_parser()
    files = ["--data", "d.jsonl", "--speaker", "s.json", "--schema", "x.json", "--out", "o"]
    generate = parser.parse_args(["generate", *files])
    assert _decode_config(generate, generate.mode) == DecodeConfig()
    ablate = parser.parse_args(["ablate", *files])
    assert _decode_config(ablate, "distractor") == DecodeConfig(mode="distractor")


def test_lambda_is_a_flag_of_generate_only(ws, tmp_path):
    assert [name for name, sub in subcommands(build_parser()).items()
            if "--lambda" in sub._option_string_actions] == ["generate"]
    out = tmp_path / "m.csv"
    assert run(*decode_args(ws, "ablate"), "--out", out, "--lambda", 0.5) == 2
    assert not out.exists()


# ── train ────────────────────────────────────────────────────────────────────


def test_train_is_deterministic(ws, tmp_path):
    rc = run(
        "train", "--data", ws["train"], "--schema", ws["schema"],
        "--out", tmp_path / "speaker.json",
        "--listener-out", tmp_path / "listener.json",
    )
    assert rc == 0
    assert (tmp_path / "speaker.json").read_bytes() == ws["speaker"].read_bytes()
    assert (tmp_path / "listener.json").read_bytes() == ws["listener"].read_bytes()


@pytest.mark.parametrize("flags, speaker_sha, listener_sha", [
    ([], "e7a6464c7d4670f99ec2b9e209c9414b719fe266428141c12b38568a13591242",
     "a34fd63c6374a37efc661e900d843c6efc8c25ba7aa5dcb0c78f450918431752"),
    (["--order", 5], "233bd69accb0dd9256ecc77377d4b81a2dd95df2b3e6b10c79a0f3736aa0a0a1",
     "a34fd63c6374a37efc661e900d843c6efc8c25ba7aa5dcb0c78f450918431752"),
    (["--order", 2], "a53eb048a7064e095195eba09960665e3602d0ef0f99519f677a6e8d51deeef1",
     "a34fd63c6374a37efc661e900d843c6efc8c25ba7aa5dcb0c78f450918431752"),
    (["--order", 12], "30fd242c1fa00230af4fcc90149023f5ba51a958d7cc94d33d5b4a7041fe53c6",
     "a34fd63c6374a37efc661e900d843c6efc8c25ba7aa5dcb0c78f450918431752"),
    (["--k", 0.5, "--copy-bonus", 0, "--listener-k", 2],
     "45284aa35a61d37dca89a0597f5682572bff877c55a013709e9b703aab92d441",
     "5c7fb514886b1bc937818508efad770924972c14a94b46128ba382c279782d5b"),
], ids=["defaults", "order5", "order2", "order12", "smoothing"])
def test_train_writes_the_recorded_model_bytes(tmp_path, flags, speaker_sha, listener_sha):
    # The digests pin the model files to the bytes training wrote when they
    # were recorded, so a faster training path must count exactly the same.
    # At order 12 each record's first windows reach back past BOS and are
    # cut short there.
    data = tmp_path / "data"
    assert run("synth", "--out", data, "--seed", 3, "--train-size", 300,
               "--dev-size", 10, "--test-size", 10) == 0
    speaker, listener = tmp_path / "speaker.json", tmp_path / "listener.json"
    assert run("train", "--data", data / "train.jsonl", "--schema", data / "schema.json",
               "--out", speaker, "--listener-out", listener, *flags) == 0
    assert hashlib.sha256(speaker.read_bytes()).hexdigest() == speaker_sha
    assert hashlib.sha256(listener.read_bytes()).hexdigest() == listener_sha


def test_train_creates_missing_directories(ws, tmp_path):
    speaker, listener = tmp_path / "a" / "b" / "s.json", tmp_path / "c" / "d" / "l.json"
    rc = run(
        "train", "--data", ws["train"], "--schema", ws["schema"], "--out", speaker,
        "--listener-out", listener,
    )
    assert rc == 0
    assert speaker.is_file()
    assert list(listener.parent.iterdir()) == [listener]


def test_train_refuses_one_file_for_speaker_and_listener(ws, tmp_path, capsys):
    for listener in (tmp_path / "m.json", tmp_path / "sub" / ".." / "m.json"):
        rc = run("train", "--data", ws["train"], "--schema", ws["schema"],
                 "--out", tmp_path / "m.json", "--listener-out", listener)
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []


def test_train_input_errors(ws, tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    assert run("train", "--data", missing, "--schema", ws["schema"],
               "--out", tmp_path / "m.json") == 2

    malformed = tmp_path / "malformed.jsonl"
    malformed.write_text("{not json\n", encoding="utf-8")
    assert run("train", "--data", malformed, "--schema", ws["schema"],
               "--out", tmp_path / "m.json") == 3

    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert run("train", "--data", empty, "--schema", ws["schema"],
               "--out", tmp_path / "m.json") == 2

    assert run("train", "--data", ws["train"], "--schema", ws["schema"],
               "--out", tmp_path / "m.json", "--order", 1) == 2
    capsys.readouterr()

    # A bad second record is refused with its line and no model is written:
    # a reference holding a structural token, or an MR the schema refuses.
    first = ws["train"].read_text(encoding="utf-8").splitlines()[0]
    second = json.loads(first) | {"id": "second"}
    bad_seconds = {
        "<eos>": {"ref": "the <EOS> place ."},
        "<bos>": {"ref": "the <bos> <sep> place ."},
        "<sep>": {"ref": "the place <sep>"},
        "'martian'": {"mr": second["mr"] | {"food": "martian"}},
        "'moon'": {"mr": second["mr"] | {"moon": "full"}},
    }
    for shown, edit in bad_seconds.items():
        data = tmp_path / "bad.jsonl"
        data.write_text(first + "\n" + json.dumps(second | edit) + "\n", encoding="utf-8")
        out, listener = tmp_path / "bad" / "s.json", tmp_path / "bad" / "l.json"
        assert run("train", "--data", data, "--schema", ws["schema"],
                   "--out", out, "--listener-out", listener) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {data}: line 2: "), err
        assert shown in err[0]
        assert not out.exists() and not listener.exists()


# ── generate ─────────────────────────────────────────────────────────────────


def test_generate_base_decode(ws, tmp_path):
    out = tmp_path / "base.jsonl"
    rc = run("generate", "--data", ws["dev"], "--speaker", ws["speaker"],
             "--schema", ws["schema"], "--out", out)
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 12
    payloads = [json.loads(line) for line in lines]
    assert [p["id"] for p in payloads] == [r.id for r in read_jsonl(ws["dev"])]
    for p in payloads:
        assert set(p) == {"id", "output", "base_logprob"}
        assert p["output"].strip()


def test_generate_writes_a_backslashed_name_verbatim(ws, tmp_path):
    record = json.loads(ws["dev"].read_text(encoding="utf-8").splitlines()[0])
    name = "AC\\DC bar"
    record["ref"] = record["ref"].replace(record["mr"]["name"], name)
    record["mr"]["name"] = name
    data, out = tmp_path / "acdc.jsonl", tmp_path / "p.jsonl"
    data.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert run("generate", "--data", data, "--speaker", ws["speaker"],
               "--schema", ws["schema"], "--out", out) == 0
    assert name in outputs_of(out)[0]


def test_generate_reruns_and_worker_counts_agree(ws, tmp_path):
    args = ["generate", "--data", ws["dev"], "--speaker", ws["speaker"],
            "--schema", ws["schema"]]
    one, again, par = (tmp_path / n for n in ("w1.jsonl", "w1b.jsonl", "w8.jsonl"))
    assert run(*args, "--out", one, "--workers", 1) == 0
    assert run(*args, "--out", again, "--workers", 1) == 0
    assert run(*args, "--out", par, "--workers", 8) == 0
    assert one.read_bytes() == again.read_bytes() == par.read_bytes()


def test_generate_reduction_identities(ws, tmp_path):
    common = ["generate", "--data", ws["dev"], "--speaker", ws["speaker"],
              "--schema", ws["schema"]]
    base, rec, dist = (tmp_path / n for n in ("b.jsonl", "r.jsonl", "d.jsonl"))
    assert run(*common, "--out", base) == 0
    assert run(*common, "--out", rec, "--mode", "reconstructor",
               "--listener", ws["listener"], "--lambda", 0.0) == 0
    assert run(*common, "--out", dist, "--mode", "distractor", "--alpha", 0.0,
               "--distractor-policy", "mask-all") == 0
    assert outputs_of(base) == outputs_of(rec) == outputs_of(dist)


def test_generate_distractor_modes_run(ws, tmp_path):
    common = ["generate", "--data", ws["dev"], "--speaker", ws["speaker"],
              "--schema", ws["schema"], "--mode", "distractor", "--alpha", 1.0]
    for policy in ("mask-all", "mask-single:food", "none"):
        assert run(*common, "--out", tmp_path / f"{policy.split(':')[0]}.jsonl",
                   "--distractor-policy", policy) == 0


def test_generate_usage_errors(ws, tmp_path):
    out = tmp_path / "p.jsonl"
    common = ["generate", "--data", ws["dev"], "--speaker", ws["speaker"],
              "--schema", ws["schema"], "--out", out]
    assert run(*common, "--mode", "reconstructor") == 2
    assert run(*common, "--mode", "distractor",
               "--distractor-policy", "mask-single:cuisine") == 2
    assert run(*common, "--distractor-policy", "mask-all") == 2
    assert run(*common, "--mode", "distractor",
               "--distractor-policy", "previous-unit") == 2
    assert run(*common, "--beam-size", 0) == 2
    assert run("generate", "--data", ws["dev"], "--speaker", tmp_path / "no.json",
               "--schema", ws["schema"], "--out", out) == 2


@pytest.mark.parametrize("command, flags", [
    ("generate", ["--max-len", 0]),
    ("generate", ["--lambda", 1.5]),
    ("generate", ["--alpha", -1]),
    ("generate", ["--alpha", "nan"]),
    ("ablate", ["--max-len", 0]),
    ("generate", ["--mode", "greedy"]),
    ("generate", ["--frobnicate"]),
    ("generate", ["--beam-size", "x"]),
], ids=["max-len", "lambda", "alpha-negative", "alpha-nan", "ablate-max-len", "mode",
        "unknown-flag", "beam-size-not-int"])
def test_decode_setting_refusals_are_usage_errors(ws, tmp_path, capsys, command, flags):
    out = tmp_path / "out"
    assert run(command, "--data", ws["dev"], "--speaker", ws["speaker"],
               "--schema", ws["schema"], "--out", out, *flags) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


# ── evaluate ─────────────────────────────────────────────────────────────────


def echo_predictions(records, path):
    lines = [
        json.dumps({"id": r.id, "output": r.reference}, sort_keys=True)
        for r in records
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_evaluate_self_scores_perfectly(ws, tmp_path, capsys):
    preds = tmp_path / "echo.jsonl"
    echo_predictions(read_jsonl(ws["dev"]), preds)
    rc = run("evaluate", "--data", ws["dev"], "--predictions", preds,
             "--schema", ws["schema"], "--out", tmp_path / "report.json")
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bleu"] == 100.0
    assert report["rouge_l"] == 1.0
    assert set(report) == {"bleu", "rouge_l", "coverage"}
    assert "macro" in report["coverage"]
    on_disk = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert on_disk == report


def test_evaluate_requires_matching_ids(ws, tmp_path, capsys):
    records = read_jsonl(ws["dev"])
    short = tmp_path / "short.jsonl"
    echo_predictions(records[:-1], short)
    assert run("evaluate", "--data", ws["dev"], "--predictions", short,
               "--schema", ws["schema"]) == 2
    assert "ids without predictions" in capsys.readouterr().err

    renamed = tmp_path / "renamed.jsonl"
    lines = [json.dumps({"id": "ghost-1", "output": "x ."})]
    lines += [json.dumps({"id": r.id, "output": r.reference}) for r in records[1:]]
    renamed.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run("evaluate", "--data", ws["dev"], "--predictions", renamed,
               "--schema", ws["schema"]) == 2


def test_evaluate_rejects_bad_prediction_files(ws, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{oops\n", encoding="utf-8")
    assert run("evaluate", "--data", ws["dev"], "--predictions", bad,
               "--schema", ws["schema"]) == 3

    wrong = tmp_path / "wrong.jsonl"
    wrong.write_text('{"id": "dev-00000"}\n', encoding="utf-8")
    assert run("evaluate", "--data", ws["dev"], "--predictions", wrong,
               "--schema", ws["schema"]) == 3

    dupe = tmp_path / "dupe.jsonl"
    line = json.dumps({"id": "dev-00000", "output": "x ."})
    dupe.write_text(line + "\n" + line + "\n", encoding="utf-8")
    assert run("evaluate", "--data", ws["dev"], "--predictions", dupe,
               "--schema", ws["schema"]) == 3


def test_evaluate_rejects_empty_data(ws, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert run("evaluate", "--data", empty, "--predictions", empty,
               "--schema", ws["schema"]) == 2


# ── ablate ───────────────────────────────────────────────────────────────────


def test_ablate_writes_a_deterministic_matrix(ws, tmp_path):
    sample = tmp_path / "sample.jsonl"
    write_jsonl(read_jsonl(ws["dev"])[:5], sample)
    first, second = tmp_path / "m1.csv", tmp_path / "m2.csv"
    args = ["ablate", "--data", sample, "--speaker", ws["speaker"],
            "--schema", ws["schema"], "--alpha", 1.0, "--beam-size", 5]
    assert run(*args, "--out", first) == 0
    assert run(*args, "--out", second) == 0
    content = first.read_text(encoding="utf-8")
    assert content == second.read_text(encoding="utf-8")
    lines = content.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "condition"
    measured = header[1:]
    assert len(measured) == 6
    assert [line.split(",")[0] for line in lines[1:]] == ["BASE", *measured]


def test_ablate_rejects_empty_data(ws, tmp_path):
    empty = tmp_path / "none.jsonl"
    empty.write_text("", encoding="utf-8")
    assert run("ablate", "--data", empty, "--speaker", ws["speaker"],
               "--schema", ws["schema"], "--out", tmp_path / "m.csv") == 2


# ── workers ──────────────────────────────────────────────────────────────────


@pytest.fixture
def two_cpus(monkeypatch):
    """Let ``--workers 2`` start two processes whatever the host's CPU count."""
    monkeypatch.setattr("os.cpu_count", lambda: 2)


def decode_args(ws, command):
    args = [command, "--data", ws["dev"], "--speaker", ws["speaker"],
            "--schema", ws["schema"], "--alpha", 1.0]
    return args + ["--beam-size", 5] if command == "ablate" else args


@pytest.mark.parametrize("mode", ["base", "reconstructor", "distractor"])
def test_generate_pooled_output_equals_serial_output(ws, tmp_path, two_cpus, mode):
    flags = {
        "base": [],
        "reconstructor": ["--listener", ws["listener"], "--lambda", 0.9],
        "distractor": ["--distractor-policy", "mask-all"],
    }[mode]
    args = [*decode_args(ws, "generate"), "--mode", mode, *flags]
    serial, pooled = tmp_path / "w1.jsonl", tmp_path / "w2.jsonl"
    assert run(*args, "--out", serial, "--workers", 1) == 0
    assert run(*args, "--out", pooled, "--workers", 2) == 0
    assert pooled.read_bytes() == serial.read_bytes()


def test_ablate_pooled_csv_equals_serial_csv(ws, tmp_path, two_cpus):
    serial, pooled = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert run(*decode_args(ws, "ablate"), "--out", serial, "--workers", 1) == 0
    assert run(*decode_args(ws, "ablate"), "--out", pooled, "--workers", 2) == 0
    assert pooled.read_bytes() == serial.read_bytes()


@pytest.mark.parametrize("command, module", [("generate", "praggen.cli"),
                                             ("ablate", "praggen.evaluation")])
def test_a_failing_worker_exits_like_a_serial_run(
    ws, tmp_path, two_cpus, monkeypatch, capsys, command, module
):
    # The patch is made before the pool forks, so the workers inherit it.
    schema = load_schema(ws["schema"])
    poisoned = delexicalize(read_jsonl(ws["dev"], schema)[5], schema).mr
    real_generate = importlib.import_module(module).generate

    def generate(speaker, input, config, **kwargs):
        if input == poisoned:
            raise ValueError("cannot decode the sixth record")
        return real_generate(speaker, input, config, **kwargs)

    monkeypatch.setattr(f"{module}.generate", generate)
    errors = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}" / "out"
        assert run(*decode_args(ws, command), "--out", out, "--workers", workers) == 3
        assert not out.exists()
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "error: cannot decode the sixth record\n"


# Runs the CLI with ``generate`` in ``sys.argv[2]`` replaced by one that kills
# any forked worker process that calls it.
DYING_DECODE = """
import importlib, os, sys
sys.path.insert(0, sys.argv[1])
from praggen.cli import main

module = importlib.import_module(sys.argv[2])
real_generate = module.generate
os.cpu_count = lambda: 2
parent = os.getpid()


def generate(*args, **kwargs):
    if os.getpid() != parent:
        os._exit(7)
    return real_generate(*args, **kwargs)


module.generate = generate
sys.exit(main(sys.argv[3:]))
"""


@pytest.mark.parametrize("command, module", [("generate", "praggen.cli"),
                                             ("ablate", "praggen.evaluation")])
def test_a_dying_worker_ends_the_command_with_exit_3(ws, tmp_path, command, module):
    src = str(Path(praggen.__file__).parents[1])
    out = tmp_path / "out"
    argv = [str(a) for a in [*decode_args(ws, command), "--out", out, "--workers", 2]]
    done = subprocess.run([sys.executable, "-c", DYING_DECODE, src, module, *argv],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (3, "error: a worker process died\n")
    assert not out.exists()


def test_serial_runs_start_no_pool(ws, tmp_path, two_cpus, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    for command in ("generate", "ablate"):
        args = [*decode_args(ws, command), "--out", tmp_path / command]
        assert run(*args, "--workers", 1) == 0
        with pytest.raises(AssertionError, match="a pool was started"):
            run(*args, "--workers", 2)


def test_workers_is_a_flag_of_the_decode_commands_only(ws, tmp_path):
    assert run("synth", "--out", tmp_path / "data", "--workers", 2) == 2
    assert run("train", "--data", ws["train"], "--schema", ws["schema"],
               "--out", tmp_path / "m.json", "--workers", 2) == 2
    preds = tmp_path / "echo.jsonl"
    echo_predictions(read_jsonl(ws["dev"]), preds)
    evaluate = ["evaluate", "--data", ws["dev"], "--predictions", preds,
                "--schema", ws["schema"]]
    assert run(*evaluate, "--workers", 2) == 2


def test_seed_is_a_flag_of_synth_only(ws, tmp_path):
    preds = tmp_path / "echo.jsonl"
    echo_predictions(read_jsonl(ws["dev"]), preds)
    evaluate = ["evaluate", "--data", ws["dev"], "--predictions", preds,
                "--schema", ws["schema"]]
    for argv in (
        ["train", "--data", ws["train"], "--schema", ws["schema"], "--out", tmp_path / "m.json"],
        [*decode_args(ws, "generate"), "--out", tmp_path / "p.jsonl"],
        evaluate,
        [*decode_args(ws, "ablate"), "--out", tmp_path / "m.csv"],
    ):
        assert run(*argv, "--seed", 3) == 2


def test_preset_is_not_a_flag(ws, tmp_path, capsys):
    out = tmp_path / "p.jsonl"
    assert run(*decode_args(ws, "generate"), "--out", out, "--preset", "mr") == 2
    settings = tmp_path / "settings.json"
    settings.write_text("{}", encoding="utf-8")
    assert run(*decode_args(ws, "generate"), "--out", out, "--config", settings) == 2
    preds = tmp_path / "echo.jsonl"
    echo_predictions(read_jsonl(ws["dev"]), preds)
    assert run("evaluate", "--data", ws["dev"], "--predictions", preds,
               "--schema", ws["schema"], "--out", out, "--metrics", "bleu") == 2
    assert not out.exists()
    speaker, listener = tmp_path / "s.json", tmp_path / "l.json"
    capsys.readouterr()
    assert run("train", "--data", ws["train"], "--schema", ws["schema"], "--out", speaker,
               "--listener-out", listener, "--listener-type", "reverse") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not speaker.exists() and not listener.exists()


def test_generate_refuses_an_ensemble_speaker_file(ws, tmp_path, capsys):
    ensemble = tmp_path / "ensemble.json"
    ensemble.write_text(
        json.dumps({"type": "ensemble", "w": 0.5,
                    "members": [str(ws["speaker"]), str(ws["speaker"])]}),
        encoding="utf-8",
    )
    out = tmp_path / "p.jsonl"
    assert run("generate", "--data", ws["dev"], "--speaker", ensemble,
               "--schema", ws["schema"], "--out", out) == 3
    assert "unknown speaker serialization type 'ensemble'" in capsys.readouterr().err
    assert not out.exists()


def assert_refused(ws, tmp_path, capsys, listener, message):
    out = tmp_path / "p.jsonl"
    rc = run(*decode_args(ws, "generate"), "--out", out, "--mode", "reconstructor",
             "--listener", listener)
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_generate_refuses_a_listener_of_another_vocabulary(ws, tmp_path, capsys):
    payload = json.loads(ws["listener"].read_text(encoding="utf-8"))
    payload["vocab"][-1] += "x"
    listener = tmp_path / "listener.json"
    listener.write_text(json.dumps(payload), encoding="utf-8")
    assert_refused(ws, tmp_path, capsys, listener,
                   "listener vocabulary differs from the speaker's")


def test_generate_refuses_a_listener_of_another_schema(ws, tmp_path, capsys):
    payload = json.loads(ws["listener"].read_text(encoding="utf-8"))
    payload["schema"]["attributes"].reverse()
    listener = tmp_path / "listener.json"
    listener.write_text(json.dumps(payload), encoding="utf-8")
    assert_refused(ws, tmp_path, capsys, listener,
                   "listener schema differs from the given schema")


def test_generate_decodes_through_a_listener_file(ws, tmp_path):
    out = tmp_path / "p.jsonl"
    assert run(*decode_args(ws, "generate"), "--out", out, "--mode", "reconstructor",
               "--listener", ws["listener"], "--lambda", 0.9) == 0
    schema = load_schema(ws["schema"])
    speaker, listener = load_speaker(ws["speaker"], schema), load_listener(ws["listener"])
    config = DecodeConfig(mode="reconstructor", lambda_=0.9)
    want = []
    for rec in (delexicalize(r, schema) for r in read_jsonl(ws["dev"])):
        top = rerank_reconstructor(rec.mr, beam_search(speaker, rec.mr, config), listener, 0.9)[0]
        want.append({
            "id": rec.id,
            "output": relexicalize(detokenize(top.output, speaker.vocab), rec.delex_map),
            "base_logprob": top.base_logprob,
            "listener_logprob": top.listener_logprob,
            "combined_score": top.combined_score,
        })
    assert [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()] == want


def test_generate_counts_unmapped_placeholders_once(ws, tmp_path, two_cpus, capfd):
    reports, files = [], []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}.jsonl"
        assert run(*decode_args(ws, "generate"), "--out", out, "--workers", workers) == 0
        reports.append(capfd.readouterr().err)
        files.append(out.read_bytes())
    leaks = sum(bool(re.search(r"\b[A-Z]+_PLH\b", o)) for o in outputs_of(out))
    assert 0 < leaks < 12
    want = f"placeholders: {leaks} of 12 outputs keep an unmapped *_PLH token\n"
    assert reports == [want, want]
    assert files[0] == files[1]


def put(*path, value):
    """An edit of a JSON payload that sets ``value`` at ``path``."""
    def edit(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return payload
    return edit


def drop(key):
    """An edit of a JSON payload that deletes its top-level ``key``."""
    def edit(payload):
        del payload[key]
        return payload
    return edit


def repeat(key):
    """An edit of a JSON payload that writes its top-level ``key`` twice,
    which a ``dict`` cannot hold, so it returns the edited JSON text."""
    def edit(payload):
        return f"{{{json.dumps(key)}:{json.dumps(payload[key])},{json.dumps(payload)[1:]}"
    return edit


def add_window(row):
    """An edit of a speaker payload that appends the window row ``row``."""
    return lambda payload: payload | {"windows": payload["windows"] + [row]}


def nested_speaker(payload):
    """The same speaker in the nested format of earlier versions, which kept
    its windows as ``{history: {token: count}}`` maps keyed by comma-joined
    ids; praggen reads the window rows only."""
    counts: dict = {}
    for *window, count in payload.pop("windows"):
        counts.setdefault(",".join(map(str, window[:-1])), {})[str(window[-1])] = count
    return payload | {"counts": counts}


def reverse_model_listener(payload):
    """A well-formed file of the reverse-model listener kind, which embedded an
    n-gram speaker; praggen reads naive Bayes listener files only."""
    model = {"type": "ngram", "order": 2, "k": 0.1, "vocab": payload["vocab"], "counts": {}}
    return {"type": "reverse", "schema": payload["schema"], "model": model}


def nested_listener(payload):
    """The same listener in the nested format of earlier versions, which spelled
    its count matrix out as ``priors`` and ``token_counts`` maps keyed by
    attribute, class and token id; praggen reads the count matrix only."""
    rows = iter(payload.pop("counts"))
    payload["priors"], payload["token_counts"] = {}, {}
    for spec in payload["schema"]["attributes"]:
        for cls in [*spec["values"], "__absent__"]:
            *tokens, pairs = next(rows)
            payload["priors"].setdefault(spec["name"], {})[cls] = pairs
            payload["token_counts"].setdefault(spec["name"], {})[cls] = {
                str(t): n for t, n in enumerate(tokens) if n}
    return payload


# What the error line of a case must say; a count is named by its size, so
# a huge one's line stays short.
ERROR_SAYS = {
    "speaker-counts-int": "invalid speaker (windows is not a list)",
    "speaker-token-negative": "token id -1 is outside the vocabulary",
    "speaker-token-too-big": "token id 99999 is outside the vocabulary",
    "speaker-history-negative": "token id -1 is outside the vocabulary",
    "speaker-count-negative": "count -5 is not a non-negative integer",
    "speaker-count-fractional": "count 2513.7 is not a non-negative integer",
    "speaker-count-huge": "count of 401 characters is not",
    "speaker-window-int": "window row 0 is not 2 to 3 token ids and a count",
    "speaker-window-too-long": "window row 0 is not 2 to 3 token ids and a count",
    "speaker-window-bool": "window row 0 is not 2 to 3 token ids and a count",
    "speaker-window-twice": "repeats an earlier row",
    "speaker-nested-format": "invalid speaker (missing key 'windows')",
    "speaker-repeated-key": "invalid speaker (repeated key 'k')",
    "listener-repeated-key": "invalid listener (repeated key 'k')",
    "schema-repeated-key": "invalid schema (repeated key 'attributes')",
    "record-repeated-key": "line 1: repeated key 'mr'",
    "prediction-repeated-key": "line 1: repeated key 'output'",
    "listener-prior-huge": "count of 401 characters is not",
    "listener-token-count-huge": "count of 401 characters is not",
    "listener-count-fractional": "count 2.5 is not a non-negative integer",
    "listener-count-bool": "count True is not a non-negative integer",
    "listener-class-undeclared": "counts is not 29 rows of 68 entries, one row per class",
    "listener-class-missing": "counts is not 29 rows of 68 entries, one row per class",
    "listener-token-too-big": "counts is not 29 rows of 68 entries, one row per class",
    "listener-token-missing": "counts is not 29 rows of 68 entries, one row per class",
    "listener-counts-dict": "counts is not 29 rows of 68 entries, one row per class",
    "listener-nested-format": "invalid listener (missing key 'counts')",
    "speaker-list": "invalid speaker (the top level is not a JSON object)",
    "speaker-k-missing": "invalid speaker (missing key 'k')",
    "speaker-copy-bonus-missing": "invalid speaker (missing key 'copy_bonus')",
    "listener-schema-missing": "invalid listener (missing key 'schema')",
    "listener-list": "invalid listener (the top level is not a JSON object)",
    "speaker-vocab-number": "invalid speaker (token id 6 is not a string)",
    "speaker-history-before-bos": "history '2,0' reaches back before BOS; retrain the speaker",
    "speaker-history-short": "history '7' does not fit order 3",
}


@pytest.mark.parametrize("kind, edit", [
    pytest.param("schema", put("attributes", value=5), id="schema-attributes-int"),
    pytest.param("schema", put("attributes", value=[5]), id="schema-attribute-int"),
    pytest.param("schema", put("attributes", 1, "values", value="pub"),
                 id="schema-values-string"),
    pytest.param("schema", lambda p: p["attributes"][1]["values"].append(5) or p,
                 id="schema-value-int"),
    pytest.param("schema", put("attributes", 6, "lexicon", value="kid friendly"),
                 id="schema-lexicon-string"),
    pytest.param("schema", repeat("attributes"), id="schema-repeated-key"),
    pytest.param("speaker", put("windows", value=5), id="speaker-counts-int"),
    pytest.param("speaker", lambda p: [p], id="speaker-list"),
    pytest.param("speaker", put("windows", 0, -2, value=-1), id="speaker-token-negative"),
    pytest.param("speaker", put("windows", 0, -2, value=99999), id="speaker-token-too-big"),
    pytest.param("speaker", add_window([-1, 6, 7, 1]), id="speaker-history-negative"),
    pytest.param("speaker", add_window([2, 0, 7, 1]), id="speaker-history-before-bos"),
    pytest.param("speaker", add_window([7, 8, 1]), id="speaker-history-short"),
    pytest.param("speaker", put("windows", 0, -1, value=-5), id="speaker-count-negative"),
    pytest.param("speaker", put("windows", 0, -1, value=2513.7), id="speaker-count-fractional"),
    pytest.param("speaker", put("windows", 0, -1, value=10**400), id="speaker-count-huge"),
    pytest.param("speaker", put("windows", 0, value=5), id="speaker-window-int"),
    pytest.param("speaker", put("windows", 0, value=[0, 7, 8, 9, 1]),
                 id="speaker-window-too-long"),
    pytest.param("speaker", put("windows", 0, 0, value=True), id="speaker-window-bool"),
    pytest.param("speaker", lambda p: p | {"windows": p["windows"] + p["windows"][:1]},
                 id="speaker-window-twice"),
    pytest.param("speaker", nested_speaker, id="speaker-nested-format"),
    pytest.param("speaker", repeat("k"), id="speaker-repeated-key"),
    pytest.param("speaker", put("order", value=2.5), id="speaker-order-fractional"),
    pytest.param("speaker", put("order", value="3"), id="speaker-order-string"),
    pytest.param("speaker", put("order", value=2), id="speaker-order-too-small"),
    pytest.param("speaker", put("order", value=4), id="speaker-order-too-big"),
    pytest.param("speaker", put("order", value=5), id="speaker-order-much-too-big"),
    pytest.param("speaker", put("k", value=True), id="speaker-k-bool"),
    pytest.param("speaker", drop("k"), id="speaker-k-missing"),
    pytest.param("speaker", put("copy_bonus", value="1"), id="speaker-copy-bonus-string"),
    pytest.param("speaker", drop("copy_bonus"), id="speaker-copy-bonus-missing"),
    pytest.param("speaker", put("vocab", 6, value=7), id="speaker-vocab-number"),
    pytest.param("listener", put("counts", 0, -1, value=-3), id="listener-prior-negative"),
    pytest.param("listener", put("counts", 0, -1, value=10**400), id="listener-prior-huge"),
    pytest.param("listener", put("counts", 0, 7, value=-1), id="listener-token-count-negative"),
    pytest.param("listener", put("counts", 0, 7, value=10**400),
                 id="listener-token-count-huge"),
    pytest.param("listener", put("counts", 0, 7, value=2.5), id="listener-count-fractional"),
    pytest.param("listener", put("counts", 0, -1, value=True), id="listener-count-bool"),
    pytest.param("listener", lambda p: p | {"counts": p["counts"] + p["counts"][-1:]},
                 id="listener-class-undeclared"),
    pytest.param("listener", lambda p: p | {"counts": p["counts"][:-1]},
                 id="listener-class-missing"),
    pytest.param("listener", lambda p: put("counts", 3, value=p["counts"][3] + [0])(p),
                 id="listener-token-too-big"),
    pytest.param("listener", lambda p: put("counts", 3, value=p["counts"][3][1:])(p),
                 id="listener-token-missing"),
    pytest.param("listener", lambda p: p | {"counts": dict(enumerate(p["counts"]))},
                 id="listener-counts-dict"),
    pytest.param("listener", nested_listener, id="listener-nested-format"),
    pytest.param("listener", put("k", value="0.5"), id="listener-k-string"),
    pytest.param("listener", drop("schema"), id="listener-schema-missing"),
    pytest.param("listener", lambda p: [p], id="listener-list"),
    pytest.param("listener", reverse_model_listener, id="listener-type-reverse"),
    pytest.param("listener", repeat("k"), id="listener-repeated-key"),
    pytest.param("data", put("mr", value=5), id="record-mr-int"),
    pytest.param("data", put("delex", value=5), id="record-delex-int"),
    pytest.param("data", put("delex", "NAME_PLH", value=5), id="record-delex-value-int"),
    pytest.param("data", put("ref", value=5), id="record-ref-int"),
    pytest.param("data", repeat("mr"), id="record-repeated-key"),
    pytest.param("predictions", put("id", value=["a"]), id="prediction-id-list"),
    pytest.param("predictions", put("output", value=None), id="prediction-output-null"),
    pytest.param("predictions", put("output", value=5), id="prediction-output-int"),
    pytest.param("predictions", repeat("output"), id="prediction-repeated-key"),
])
def test_malformed_files_are_data_errors(ws, tmp_path, capsys, request, kind, edit):
    sources = {"schema": ws["schema"], "speaker": ws["speaker"],
               "listener": ws["listener"], "data": ws["dev"],
               "predictions": tmp_path / "echo.jsonl"}
    echo_predictions(read_jsonl(ws["dev"]), sources["predictions"])
    source = sources[kind]

    def edited(text):
        payload = edit(json.loads(text))
        return payload if isinstance(payload, str) else json.dumps(payload)

    bad = tmp_path / f"bad{source.suffix}"
    if source.suffix == ".jsonl":
        lines = source.read_text(encoding="utf-8").splitlines()
        lines[0] = edited(lines[0])
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        bad.write_text(edited(source.read_text(encoding="utf-8")), encoding="utf-8")
    files = {**sources, kind: bad}
    out = tmp_path / "out.json"
    command = {
        "schema": ["train", "--data", ws["train"]],
        "predictions": ["evaluate", "--data", ws["dev"],
                        "--predictions", files["predictions"]],
    }.get(kind, ["generate", "--data", files["data"], "--speaker", files["speaker"],
                 "--mode", "reconstructor",
                 "--listener", files["listener"]])
    assert run(*command, "--schema", files["schema"], "--out", out) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: ")
    assert ERROR_SAYS.get(request.node.callspec.id, "") in err[0]
    assert len(err[0]) < len(f"error: {bad}: ") + 160
    assert not out.exists()
