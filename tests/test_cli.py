import argparse
import hashlib
import importlib
import json
import multiprocessing.pool
import re
import shlex
from pathlib import Path

import pytest

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
    ([], "ad737e4818488d49fc5d52b8649a99e5448a4f40f2a5e9f4bc8241cc3a0d556e",
     "b90ffa9b133f6325e1ded4f6d3eb59e51d7c5e63c770495279b4442c7f26d457"),
    (["--order", 5], "8c5716672a7b59c11750b42c67a14e3c1998bbd9fa6728bdadf0d342821930f8",
     "b90ffa9b133f6325e1ded4f6d3eb59e51d7c5e63c770495279b4442c7f26d457"),
    (["--order", 2], "b80fdaf043e71956038655039a09a834f17e2f7fea6670be57ad69182ac77435",
     "b90ffa9b133f6325e1ded4f6d3eb59e51d7c5e63c770495279b4442c7f26d457"),
    (["--order", 12], "7bfff010288a19285cfeea77388497b7e726cad60d11f0e558123e21871795b1",
     "b90ffa9b133f6325e1ded4f6d3eb59e51d7c5e63c770495279b4442c7f26d457"),
    (["--k", 0.5, "--copy-bonus", 0, "--listener-k", 2],
     "f05990e6d1f7391cb2a8a2bae39084cb31ad141a27b884d6c5a75e944902a8c7",
     "11f1952f15a95ed04b6b7b2a282e36b198e49e8de1cc041fc11877e0d79e5567"),
], ids=["defaults", "order5", "order2", "order12", "smoothing"])
def test_train_writes_the_recorded_model_bytes(tmp_path, flags, speaker_sha, listener_sha):
    # The digests pin the model files to the bytes training wrote when they
    # were recorded, so a faster training path must count exactly the same.
    # At order 12 each record's first windows reach back past the start of
    # its context and are cut short there.
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


def test_serial_runs_start_no_pool(ws, tmp_path, two_cpus, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(multiprocessing.pool, "Pool", no_pool)
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


FIRST = object()


def put(*path, value):
    """An edit of a JSON payload that sets ``value`` at ``path``; ``FIRST``
    stands for an object's first key."""
    def edit(payload):
        node = payload
        for key in path[:-1]:
            node = node[next(iter(node)) if key is FIRST else key]
        node[path[-1]] = value
        return payload
    return edit


def reverse_model_listener(payload):
    """A well-formed file of the reverse-model listener kind, which embedded an
    n-gram speaker; praggen reads naive Bayes listener files only."""
    model = {"type": "ngram", "order": 2, "k": 0.1, "vocab": payload["vocab"], "counts": {}}
    return {"type": "reverse", "schema": payload["schema"], "model": model}


# What the error line of a case must say; a count is named by its size, so
# a huge one's line stays short.
ERROR_SAYS = {
    "speaker-count-huge": "count of 401 characters is not",
    "listener-prior-huge": "count of 401 characters is not",
    "listener-token-count-huge": "count of 401 characters is not",
    "listener-attribute-undeclared": "'bogusattr' is not in the listener's schema",
    "listener-token-attribute-undeclared": "'bogusattr' is not in the listener's schema",
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
    pytest.param("speaker", put("counts", value=5), id="speaker-counts-int"),
    pytest.param("speaker", lambda p: [p], id="speaker-list"),
    pytest.param("speaker", put("counts", FIRST, "-1", value=1), id="speaker-token-negative"),
    pytest.param("speaker", put("counts", FIRST, "99999", value=1), id="speaker-token-too-big"),
    pytest.param("speaker", put("counts", "-1,6", value={"7": 1}), id="speaker-history-negative"),
    pytest.param("speaker", put("counts", FIRST, "7", value=-5), id="speaker-count-negative"),
    pytest.param("speaker", put("counts", FIRST, "7", value=2513.7),
                 id="speaker-count-fractional"),
    pytest.param("speaker", put("counts", FIRST, "7", value=10**400), id="speaker-count-huge"),
    pytest.param("speaker", put("order", value=2.5), id="speaker-order-fractional"),
    pytest.param("speaker", put("order", value="3"), id="speaker-order-string"),
    pytest.param("speaker", put("order", value=2), id="speaker-order-too-small"),
    pytest.param("speaker", put("order", value=4), id="speaker-order-too-big"),
    pytest.param("speaker", put("order", value=5), id="speaker-order-much-too-big"),
    pytest.param("speaker", put("k", value=True), id="speaker-k-bool"),
    pytest.param("speaker", put("copy_bonus", value="1"), id="speaker-copy-bonus-string"),
    pytest.param("listener", put("priors", FIRST, "__absent__", value=-3),
                 id="listener-prior-negative"),
    pytest.param("listener", put("priors", FIRST, "__absent__", value=10**400),
                 id="listener-prior-huge"),
    pytest.param("listener", put("token_counts", FIRST, FIRST, "7", value=-1),
                 id="listener-token-count-negative"),
    pytest.param("listener", put("token_counts", FIRST, FIRST, "7", value=10**400),
                 id="listener-token-count-huge"),
    pytest.param("listener", put("priors", FIRST, "bogus", value=7),
                 id="listener-class-undeclared"),
    pytest.param("listener", put("token_counts", FIRST, "bogus", value={}),
                 id="listener-token-class-undeclared"),
    pytest.param("listener", put("priors", "bogusattr", value={"x": 1}),
                 id="listener-attribute-undeclared"),
    pytest.param("listener", put("token_counts", "bogusattr", value={}),
                 id="listener-token-attribute-undeclared"),
    pytest.param("listener", put("token_counts", FIRST, FIRST, "-2", value=1),
                 id="listener-token-negative"),
    pytest.param("listener", put("token_counts", FIRST, FIRST, "5000", value=1),
                 id="listener-token-too-big"),
    pytest.param("listener", put("k", value="0.5"), id="listener-k-string"),
    pytest.param("listener", reverse_model_listener, id="listener-type-reverse"),
    pytest.param("data", put("mr", value=5), id="record-mr-int"),
    pytest.param("data", put("delex", value=5), id="record-delex-int"),
    pytest.param("data", put("delex", "NAME_PLH", value=5), id="record-delex-value-int"),
    pytest.param("data", put("ref", value=5), id="record-ref-int"),
    pytest.param("predictions", put("id", value=["a"]), id="prediction-id-list"),
    pytest.param("predictions", put("output", value=None), id="prediction-output-null"),
    pytest.param("predictions", put("output", value=5), id="prediction-output-int"),
])
def test_malformed_files_are_data_errors(ws, tmp_path, capsys, request, kind, edit):
    sources = {"schema": ws["schema"], "speaker": ws["speaker"],
               "listener": ws["listener"], "data": ws["dev"],
               "predictions": tmp_path / "echo.jsonl"}
    echo_predictions(read_jsonl(ws["dev"]), sources["predictions"])
    source = sources[kind]
    bad = tmp_path / f"bad{source.suffix}"
    if source.suffix == ".jsonl":
        lines = source.read_text(encoding="utf-8").splitlines()
        lines[0] = json.dumps(edit(json.loads(lines[0])))
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        bad.write_text(json.dumps(edit(json.loads(source.read_text(encoding="utf-8")))),
                       encoding="utf-8")
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
