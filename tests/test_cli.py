import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyponli import cli, corpus, model, stats, synth, text, train
from hyponli.cli import main
from hyponli.model import load_checkpoint, predict_batch, save_checkpoint

import reference
from helpers import make_corpus
from strategies import (
    CHECKPOINT_FIELDS, DROP, KEYS, ODD_CELLS, ODD_JSON, ODD_VALUES, SPEC_KEYS, TSV_COLUMNS,
    VALID_SPECS, checkpoint_damage, config_lines, jsonl_lines, specs, stats_flag_values,
    tsv_lines, vector_lines,
)


DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def one_error_line(capsys) -> str:
    """The single stderr line of a failed command."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def write_corpus(path, data, scheme=corpus.THREE_WAY):
    corpus.write_jsonl(data, path, scheme)
    return str(path)


def as_flag(option):
    return f"--{option.replace('_', '-')}"


@pytest.mark.parametrize("source", ["flag", "config", "env"])
@pytest.mark.parametrize("command", ["stats", "train-eval"])
def test_out_dir_under_a_file_fails_before_any_input_is_read(tmp_path, capsys, monkeypatch,
                                                              command, source):
    """The error names where the directory came from: the flag, the --config
    file's line, or HYPONLI_OUT_DIR when neither gave one."""
    data = write_corpus(tmp_path / "d.jsonl", make_corpus([("a b", "neutral")] * 3))
    blocker = tmp_path / "file"
    blocker.write_text("x")
    out = str(blocker / "sub")
    reads = []
    monkeypatch.setattr(corpus, "read_jsonl", lambda *a, **k: reads.append(a))
    inputs = (["--data", data] if command == "stats"
              else ["--train", data, "--dev", data, "--test", data])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out-dir = {out}\n")
    monkeypatch.setenv("HYPONLI_OUT_DIR", out if source == "env" else "")
    given = {"flag": ["--out-dir", out], "config": ["--config", str(cfg)], "env": []}[source]
    assert main([command, *inputs, *given]) == 1
    where = {"flag": "--out-dir", "config": f"{cfg}: --out-dir", "env": "HYPONLI_OUT_DIR"}[source]
    assert one_error_line(capsys) == f"error: {where} {out}: {blocker} is not a directory"
    assert reads == []


def test_hyponli_out_dir_is_the_default_output_directory(tmp_path, monkeypatch):
    """With no --out-dir, outputs land in HYPONLI_OUT_DIR, read at each
    run; an --out-dir flag or an out-dir line of a --config file wins."""
    data = write_corpus(tmp_path / "d.jsonl", make_corpus([("a b", "neutral")] * 3))
    for name in ("env1", "env2"):  # set after import, and changed between runs
        monkeypatch.setenv("HYPONLI_OUT_DIR", str(tmp_path / name))
        assert main(["stats", "--data", data]) == 0
        assert (tmp_path / name / "stats_digest.md").exists()
    assert main(["stats", "--data", data, "--out-dir", str(tmp_path / "flag")]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out-dir = {tmp_path / 'file'}\n")
    assert main(["stats", "--data", data, "--config", str(cfg)]) == 0
    for name in ("flag", "file"):
        assert (tmp_path / name / "stats_digest.md").exists()


def test_each_subcommand_has_exactly_these_options():
    """Every option of every subcommand, by dest, so that a new knob is a
    visible change here."""
    _, subcommands = cli.build_parser()
    data, common = ["format", "scheme", "remap_ordinal"], ["seed", "out_dir", "config"]
    assert {name: [a.dest for a in sub._actions if a.dest != "help"]
            for name, sub in subcommands.items()} == {
        "stats": ["data", *data, *common, "split_name", "min_freq", "top_k", "grid_step",
                  "per_label_threshold"],
        "train-eval": ["train", "dev", *data, "test", *common, "encoder", "embeddings",
                       "embedding_dim", "hidden_dim", "mlp_hidden", "finetune_embeddings",
                       "lr0", "decay", "divide_on_decline", "lr_floor", "max_epochs",
                       "batch_size"],
        "synth": ["out_dir", "config", "spec_file", "n"],
        "audit-sample": ["data", "format", "remap_ordinal", *common, "checkpoint",
                         "n_per_cell"],
        "split": ["data", *data, *common, "ratios"],
    }


def test_each_flag_says_what_it_sets_and_shows_its_default():
    """Every flag has a help text, which ends in its row's default unless the option is
    required, a switch or has no default; the default shown reads back as that default."""
    _, subcommands = cli.build_parser()
    options = {option.dest: option for option in cli._OPTIONS}
    for name, sub in subcommands.items():
        for action in (a for a in sub._actions if a.dest != "help"):
            option = options[action.dest]
            assert action.help, (name, action.dest)
            shown = f" (default: {option.default})"
            if option.default in (cli._REQUIRED, None) or option.type is bool:
                assert not action.help.endswith(shown), action.help
            else:
                assert action.help.endswith(shown), action.help
                assert option.from_text(str(option.default)) == option.default, action.help


def test_a_resolved_run_is_frozen():
    run = cli._resolve("split", {"data": "d.jsonl"})
    with pytest.raises(AttributeError, match="^a Run is frozen: cannot set 'seed'$"):
        run.seed = 1
    assert run.seed == 0


FORMAT_REFUSAL = ("is not native, snli, tsv or role=column, with each role among premise, "
                  "hypothesis, label, group, ordinal, id once and a non-negative integer column")
SCHEME_REFUSAL = "schemes are 3way, 2way or 2-3 distinct label names; labels"
RATIOS_REFUSAL = "are not three non-negative train, dev and test shares that sum to 1"
SWITCH_REFUSAL = "is not one of 1, 0, true, false, yes, no, on, off"
READERS = ("stats", "train-eval", "split", "audit-sample")
ALL = (*READERS, "synth")
TRAIN_EVAL = ("train-eval",)
# one row per refused value: the subcommands that take the option, the
# option, the value and the whole refusal
BAD_VALUES = [
    (READERS, "format", "xml", f"--format 'xml': 'xml' {FORMAT_REFUSAL}"),
    (READERS, "format", "premise=0,hypothesis=one",
     f"--format 'premise=0,hypothesis=one': 'hypothesis=one' {FORMAT_REFUSAL}"),
    (("stats",), "format", "premise=x", f"--format 'premise=x': 'premise=x' {FORMAT_REFUSAL}"),
    (("stats",), "format", "premise=0,hyp=1,label=2",
     f"--format 'premise=0,hyp=1,label=2': 'hyp=1' {FORMAT_REFUSAL}"),
    (("stats",), "format", "premise=0,hypothesis=-1,label=2",
     f"--format 'premise=0,hypothesis=-1,label=2': 'hypothesis=-1' {FORMAT_REFUSAL}"),
    (("stats",), "format", "premise=0,hypothesis=1,label=",
     f"--format 'premise=0,hypothesis=1,label=': 'label=' {FORMAT_REFUSAL}"),
    (("stats",), "format", "premise=0,hypothesis=1,label=2,label=3",
     f"--format 'premise=0,hypothesis=1,label=2,label=3': 'label=3' {FORMAT_REFUSAL}"),
    (("stats", "train-eval", "split"), "scheme", "a,a",
     f"--scheme 'a,a': {SCHEME_REFUSAL} ['a', 'a'] repeat 'a'"),
    (("stats",), "scheme", "4way",
     f"--scheme '4way': {SCHEME_REFUSAL} ['4way'] are not 2 or 3 names"),
    (("stats",), "scheme", "a", f"--scheme 'a': {SCHEME_REFUSAL} ['a'] are not 2 or 3 names"),
    (("stats",), "scheme", "a,b,c,d",
     f"--scheme 'a,b,c,d': {SCHEME_REFUSAL} ['a', 'b', 'c', 'd'] are not 2 or 3 names"),
    (("stats",), "scheme", ",", f"--scheme ',': {SCHEME_REFUSAL} [] are not 2 or 3 names"),
    (("stats",), "min_freq", "0", "min_freq must be >= 1"),
    (("stats",), "min_freq", "-1", "min_freq must be >= 1"),
    (("stats",), "top_k", "0", "top_k must be >= 1, got 0"),
    (("stats",), "top_k", "-1", "top_k must be >= 1, got -1"),
    # steps below 0.0001, the resolution of coverage.csv's x column, are
    # refused before a grid of 1/step points is built
    (("stats",), "grid_step", "0", "grid_step must lie in [0.0001, 0.5], got 0.0"),
    (("stats",), "grid_step", "0.6", "grid_step must lie in [0.0001, 0.5], got 0.6"),
    (("stats",), "grid_step", "nan", "grid_step must lie in [0.0001, 0.5], got nan"),
    (("stats",), "grid_step", "1e-7", "grid_step must lie in [0.0001, 0.5], got 1e-07"),
    (("audit-sample",), "n_per_cell", "0", "n_per_cell must be >= 1"),
    (("split",), "ratios", "0.5,0.5", f"ratios (0.5, 0.5) {RATIOS_REFUSAL}"),
    (("split",), "ratios", "0.5,0.5,0.5,-0.5", f"ratios (0.5, 0.5, 0.5, -0.5) {RATIOS_REFUSAL}"),
    (("split",), "ratios", "1.2,-0.1,-0.1", f"ratios (1.2, -0.1, -0.1) {RATIOS_REFUSAL}"),
    (("split",), "ratios", "0.8,0.1,nan", f"ratios (0.8, 0.1, nan) {RATIOS_REFUSAL}"),
    (("split",), "ratios", "a,b,c", "--ratios 'a,b,c' is not a comma-separated list of numbers"),
    (READERS, "seed", "-1", "--seed -1 is below 0"),
    (("synth",), "n", "0", "--n 0 is below 1"),
    (("synth",), "n", "-5", "--n -5 is below 1"),
    (TRAIN_EVAL, "embedding_dim", "0", "embedding_dim must be >= 1"),
    (TRAIN_EVAL, "hidden_dim", "0", "hidden_dim must be >= 1"),
    (TRAIN_EVAL, "mlp_hidden", "0", "mlp_hidden must be >= 1"),
    (TRAIN_EVAL, "mlp_hidden", "-1", "mlp_hidden must be >= 1"),
    (TRAIN_EVAL, "lr0", "nan", "lr0 must be positive and finite, got nan"),
    (TRAIN_EVAL, "lr0", "inf", "lr0 must be positive and finite, got inf"),
    (TRAIN_EVAL, "lr0", "0", "lr0 must be positive and finite, got 0.0"),
    (TRAIN_EVAL, "lr0", "-0.1", "lr0 must be positive and finite, got -0.1"),
    (TRAIN_EVAL, "lr0", "-1", "lr0 must be positive and finite, got -1.0"),
    (TRAIN_EVAL, "decay", "0", "decay must lie in (0, 1]"),
    (TRAIN_EVAL, "divide_on_decline", "1", "divide_on_decline must be > 1 and finite, got 1.0"),
    (TRAIN_EVAL, "divide_on_decline", "inf", "divide_on_decline must be > 1 and finite, got inf"),
    (TRAIN_EVAL, "divide_on_decline", "nan", "divide_on_decline must be > 1 and finite, got nan"),
    (TRAIN_EVAL, "lr_floor", "0", "lr_floor must be positive and finite, got 0.0"),
    (TRAIN_EVAL, "lr_floor", "inf", "lr_floor must be positive and finite, got inf"),
    (TRAIN_EVAL, "lr_floor", "nan", "lr_floor must be positive and finite, got nan"),
    (TRAIN_EVAL, "max_epochs", "0", "max_epochs must be >= 1"),
    (TRAIN_EVAL, "batch_size", "0", "batch_size must be >= 1"),
    # text that is no value of the option: refused alike as a flag and as a
    # --config line, where argparse once refused the flag with a usage block
    (READERS, "seed", "x", "seed='x' is not of type int"),
    (("stats",), "min_freq", "1.5", "min_freq='1.5' is not of type int"),
    (("stats",), "top_k", "x", "top_k='x' is not of type int"),
    (("stats",), "top_k", "2.5", "top_k='2.5' is not of type int"),
    (("stats",), "grid_step", "x", "grid_step='x' is not of type float"),
    (("audit-sample",), "n_per_cell", "", "n_per_cell='' is not of type int"),
    (TRAIN_EVAL, "embedding_dim", "5e1", "embedding_dim='5e1' is not of type int"),
    (TRAIN_EVAL, "hidden_dim", "x", "hidden_dim='x' is not of type int"),
    (TRAIN_EVAL, "mlp_hidden", "0x40", "mlp_hidden='0x40' is not of type int"),
    (TRAIN_EVAL, "max_epochs", "abc", "max_epochs='abc' is not of type int"),
    (TRAIN_EVAL, "batch_size", "6 4", "batch_size='6 4' is not of type int"),
    (("synth",), "n", "ten", "n='ten' is not of type int"),
    (TRAIN_EVAL, "lr0", "x", "lr0='x' is not of type float"),
    (TRAIN_EVAL, "decay", "1,0", "decay='1,0' is not of type float"),
    (TRAIN_EVAL, "divide_on_decline", "five", "divide_on_decline='five' is not of type float"),
    (TRAIN_EVAL, "lr_floor", "1e", "lr_floor='1e' is not of type float"),
    (TRAIN_EVAL, "encoder", "lstm", "encoder='lstm' is not one of bag, birnn-maxpool"),
    # a switch flag takes no value, so these are --config lines only
    (READERS, "remap_ordinal", "maybe", f"remap_ordinal='maybe' {SWITCH_REFUSAL}"),
    (("stats",), "per_label_threshold", "maybe", f"per_label_threshold='maybe' {SWITCH_REFUSAL}"),
    (TRAIN_EVAL, "finetune_embeddings", "2", f"finetune_embeddings='2' {SWITCH_REFUSAL}"),
    # an empty path names no file; a --config file cannot name another, so
    # config's row is a flag only
    (("stats", "split", "audit-sample"), "data", "", "data='' is not of type path"),
    (TRAIN_EVAL, "train", "", "train='' is not of type path"),
    (TRAIN_EVAL, "dev", "", "dev='' is not of type path"),
    (TRAIN_EVAL, "test", "", "test='' is not of type path"),
    (TRAIN_EVAL, "embeddings", "", "embeddings='' is not of type path"),
    (("synth",), "spec_file", "", "spec_file='' is not of type path"),
    (("audit-sample",), "checkpoint", "", "checkpoint='' is not of type path"),
    (ALL, "config", "", "config='' is not of type path"),
    (ALL, "out_dir", "", "--out-dir '' names no directory"),
]
SWITCHES = {row.dest for row in cli._OPTIONS if row.type is bool}
BAD_SETTINGS = [(command, option, value, refusal, from_file)
                for commands, option, value, refusal in BAD_VALUES for command in commands
                for from_file in (False, True)
                if not (from_file and option == "config" or not from_file and option in SWITCHES)]


@pytest.mark.parametrize("command, option, value, refusal, from_file", BAD_SETTINGS,
                         ids=[f"{c}-{o}={v}-{'config' if f else 'flag'}"
                              for c, o, v, _, f in BAD_SETTINGS])
def test_a_bad_value_is_one_line_before_any_input_is_read(
        tmp_path, capsys, monkeypatch, command, option, value, refusal, from_file):
    """Every checked option refuses a bad value alike, whether a flag or a
    --config line set it: exit 1 and one line with the whole refusal,
    prefixed by the --config file exactly when that set the value, before
    any input (corpus, checkpoint, spec or word vectors) is read and before
    any output is written or the output directory is made."""
    monkeypatch.chdir(tmp_path)  # where an empty --out-dir would write
    monkeypatch.delenv("HYPONLI_OUT_DIR", raising=False)
    data = write_corpus(tmp_path / "d.jsonl", make_corpus([("a b", "neutral")] * 3))
    reads = []
    for module, name in ((corpus, "read_jsonl"), (corpus, "read_tsv"),
                         (model, "load_checkpoint"), (synth, "read_spec"),
                         (text, "load_embeddings")):
        monkeypatch.setattr(module, name, lambda *a, **k: reads.append(a))
    inputs = {"stats": {"data": data}, "split": {"data": data},
              "train-eval": {"train": data, "dev": data, "test": data, "embeddings": data},
              "audit-sample": {"data": data, "checkpoint": data},
              "synth": {"spec_file": data, "n": "5"}}[command]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{option.replace('_', '-')} = {value}\n")
    flags = {**inputs, "out_dir": str(tmp_path / "out")}
    flags.pop(option, None)  # a flag wins over the --config line
    setting = ["--config", str(cfg)] if from_file else [as_flag(option), value]
    assert main([command, *(arg for dest, v in flags.items() for arg in (as_flag(dest), v)),
                 *setting]) == 1
    where = f"{cfg}: " if from_file else ""
    assert one_error_line(capsys) == f"error: {where}{refusal}"
    assert reads == [] and sorted(os.listdir(tmp_path)) == ["d.jsonl", "run.cfg"]


def test_each_option_that_can_refuse_a_value_has_a_bad_value():
    """Under each subcommand, every option row that can refuse a value has a
    BAD_VALUES row: one of a type other than str (a switch refuses --config
    words), with a resolver or a lower bound, or that a config checks."""
    config_fields = {"encoder"} | {f.name for config in (model.ModelConfig, train.TrainConfig)
                                   for f in dataclasses.fields(config)}
    refusing = {(command, row.dest) for row in cli._OPTIONS for command in row.commands.split()
                if row.type is not str or row.resolve or row.low is not None
                or row.dest in config_fields}
    assert refusing - {(command, option) for command, option, *_ in BAD_SETTINGS} == set()


# each option that has no default, by the subcommands that require it
REQUIRED = {"stats": ("data",), "split": ("data",), "audit-sample": ("data", "checkpoint"),
            "train-eval": ("train", "dev"), "synth": ("spec_file", "n")}
MISSING = [(command, option) for command, options in REQUIRED.items() for option in options]


@pytest.mark.parametrize("command, missing", MISSING, ids=[f"{c}-{o}" for c, o in MISSING])
@pytest.mark.parametrize("from_file", [False, True], ids=["flags", "config"])
def test_a_required_option_given_neither_way_is_one_line(tmp_path, capsys, monkeypatch,
                                                         command, missing, from_file):
    """A required option that neither a flag nor a --config line gives is
    one line naming its flag, whichever way the others came, before any
    input is read or the output directory is made."""
    data = write_corpus(tmp_path / "d.jsonl", make_corpus([("a b", "neutral")] * 3))
    reads = []
    for module, name in ((corpus, "read_jsonl"), (corpus, "read_tsv"),
                         (model, "load_checkpoint"), (synth, "read_spec")):
        monkeypatch.setattr(module, name, lambda *a, **k: reads.append(a))
    given = {option: "5" if option == "n" else data
             for option in REQUIRED[command] if option != missing}
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in given.items()))
    setting = (["--config", str(cfg)] if from_file else
               [arg for key, value in given.items() for arg in (as_flag(key), value)])
    assert main([command, *setting, "--out-dir", str(out)]) == 1
    assert one_error_line(capsys) == f"error: {as_flag(missing)} is required"
    assert reads == [] and not out.exists()


def test_a_config_file_may_give_a_required_option(tmp_path, monkeypatch):
    """A --config line gives --data as it gives any option, and a flag wins
    over it."""
    monkeypatch.chdir(tmp_path)
    write_corpus(tmp_path / "a.jsonl", make_corpus([("a b", "neutral")] * 3))
    write_corpus(tmp_path / "b.jsonl", make_corpus([("a b", "neutral")] * 5))
    (tmp_path / "c.cfg").write_text("data = b.jsonl\n")
    for flags, name, n in (([], "b.jsonl", 5), (["--data", "a.jsonl"], "a.jsonl", 3)):
        assert main(["stats", "--config", "c.cfg", *flags, "--out-dir", f"out-{name}"]) == 0
        digest = (tmp_path / f"out-{name}" / "stats_digest.md").read_text().splitlines()
        assert f"    data={name}" in digest and f"- sentences: {n} (skipped at ingest: 0)" in digest


NESTED = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize("command, flag, content", [
    ("synth", "--spec-file", NESTED),
    ("audit-sample", "--checkpoint", NESTED + b"\n"),
    ("synth", "--spec-file", b"n_labels = 3\n"),
    ("synth", "--spec-file", b'{"seed": "\xff"}'),
    ("train-eval", "--embeddings", b"a 0.5\n\xff 0.5\n"),
    ("stats", "--config", b"top-k = 3\n\xff\n"),
], ids=["deep-spec", "deep-checkpoint-header", "spec-not-json", "spec-not-utf8",
        "vectors-not-utf8", "config-not-utf8"])
def test_malformed_input_is_one_line_naming_it(tmp_path, capsys, command, flag, content):
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    data = write_corpus(tmp_path / "d.jsonl",
                        make_corpus([("a b", "neutral"), ("b c", "entailment")]))
    inputs = {"synth": ["--n", "5"], "audit-sample": ["--data", data],
              "train-eval": ["--train", data, "--dev", data, "--embedding-dim", "1"],
              "stats": ["--data", data]}[command]
    assert main([command, flag, str(bad), *inputs, "--out-dir", str(tmp_path / "out")]) == 1
    assert one_error_line(capsys).startswith(f"error: {bad}: ")


LONE_SURROGATE = "\\ud800 escapes a lone surrogate, which is not a character"


def corpus_after(path, first_line):
    """small_corpus's records after first_line, as the file at path."""
    records = open(small_corpus(path.with_suffix(".ok.jsonl")), encoding="utf-8").read()
    path.write_text(first_line + "\n" + records, encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["stats", "train-eval", "split"])
def test_an_escaped_lone_surrogate_is_refused_at_its_line(tmp_path, capsys, command):
    """A JSON escape of a lone surrogate cannot be written as UTF-8, so ingest refuses it,
    naming the file and the line, before any training and before any output is written."""
    data = str(corpus_after(tmp_path / "d.jsonl", '{"premise": "p", "hypothesis": '
                                                  '"a b \\ud800x", "label": "entailment"}'))
    inputs = {"stats": ["--data", data, "--min-freq", "1"], "split": ["--data", data],
              "train-eval": ["--train", data, "--dev", data, "--max-epochs", "2"]}[command]
    assert main([command, *inputs, "--out-dir", str(tmp_path / "out")]) == 1
    assert one_error_line(capsys) == f"error: {data}: line 1: {LONE_SURROGATE}"
    assert not (tmp_path / "out").exists()


def test_an_escaped_surrogate_pair_is_one_character(tmp_path):
    data = str(corpus_after(tmp_path / "d.jsonl", '{"premise": "p", "hypothesis": '
                                                  '"a b \\ud83d\\ude00x", "label": "neutral"}'))
    out = tmp_path / "out"
    assert main(["split", "--data", data, "--out-dir", str(out)]) == 0
    hypotheses = [h for name in ("train", "dev", "test")
                  for h in corpus.read_jsonl(out / f"{name}.jsonl",
                                             corpus.FIELD_MAP_PRESETS["native"],
                                             corpus.THREE_WAY)[0].hypotheses]
    assert len(hypotheses) == 10 and "a b \U0001f600x" in hypotheses


def test_an_escaped_lone_surrogate_in_a_spec_is_one_line_naming_it(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_labels": 2, "label_prior": [0.5, 0.5], "vocab_size": 10,
                                "sentence_length": [1, 2], "giveaway": [["x\ud800", 0, 0.5]],
                                "seed": 0}), encoding="utf-8")
    assert main(["synth", "--spec-file", str(spec), "--n", "5",
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert one_error_line(capsys) == f"error: {spec}: {LONE_SURROGATE}"
    assert not (tmp_path / "out").exists()


def run_strictly(argv):
    """cli.main's exit code and stderr lines, under numpy warnings and
    floating-point errors, underflow included, raised as errors."""
    err = io.StringIO()
    with (warnings.catch_warnings(), np.errstate(all="raise"),
          contextlib.redirect_stderr(err),
          contextlib.redirect_stdout(io.StringIO())):
        warnings.simplefilter("error")
        code = main(argv)
    return code, err.getvalue().splitlines()


def assert_read_or_one_line(argv, *prefixes):
    """cli.main(argv) does not raise, and it returns 0, or 1 with one
    stderr line that starts with one of the prefixes."""
    code, errors = run_strictly(argv)
    assert code == 0 and errors == [] or (
        code == 1 and len(errors) == 1 and errors[0].startswith(prefixes)), (code, errors)


@given(kind=st.sampled_from(["native", "snli", "tsv"]), data=st.data(),
       remap=st.booleans())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_a_mutated_corpus_is_read_or_one_line_naming_it(tmp_path_factory, kind, data, remap):
    """stats on valid records and rows with fields dropped or replaced by
    null, bools, containers, NaN, 2**63, "" and more, with blank and
    malformed lines, under numpy warnings raised as errors: cli.main never
    raises, and it returns 0, or 1 with one error line naming the file."""
    lines = data.draw(tsv_lines if kind == "tsv" else jsonl_lines)
    work = tmp_path_factory.mktemp("mutated")
    path = work / f"d.{kind}"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert_read_or_one_line(
        ["stats", "--data", str(path), "--out-dir", str(work / "out"),
         "--format", TSV_COLUMNS if kind == "tsv" else kind, "--min-freq", "1",
         *(["--remap-ordinal"] if remap else [])],
        f"error: {path}:")


# A valid record with every role set. The derandomized property tests above need not draw
# the rarer values, such as a lone surrogate, so the cases below name each value of
# tests/strategies.py in each role, column and spec key, one at a time.
VALID_RECORD = {"premise": "p", "hypothesis": "a b", "label": "neutral", "group": "g",
                "ordinal": 3, "id": "x7"}


@pytest.mark.parametrize("value", ODD_VALUES, ids=json.dumps)
@pytest.mark.parametrize("role", KEYS)
def test_each_odd_value_in_each_role_is_read_or_one_line_naming_it(tmp_path, role, value):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps({**VALID_RECORD, role: value}) + "\n", encoding="utf-8")
    assert_read_or_one_line(["stats", "--data", str(path), "--out-dir", str(tmp_path / "stats"),
                             "--min-freq", "1"], f"error: {path}:")
    # split writes every role back out, so a value that reads but cannot be written shows
    assert_read_or_one_line(["split", "--data", str(path), "--out-dir", str(tmp_path / "split")],
                            f"error: {path}:")


@pytest.mark.parametrize("cell", ODD_CELLS, ids=repr)
@pytest.mark.parametrize("column", range(len(KEYS)), ids=KEYS.__getitem__)
def test_each_odd_cell_in_each_column_is_read_or_one_line_naming_it(tmp_path, column, cell):
    row = [str(value) for value in VALID_RECORD.values()]
    row[column] = cell
    path = tmp_path / "d.tsv"
    path.write_text("\t".join(row) + "\n", encoding="utf-8")
    assert_read_or_one_line(["stats", "--data", str(path), "--out-dir", str(tmp_path / "out"),
                             "--format", TSV_COLUMNS, "--min-freq", "1"], f"error: {path}:")


@pytest.mark.parametrize("value", ODD_JSON, ids=json.dumps)
@pytest.mark.parametrize("key", SPEC_KEYS)
def test_each_odd_value_under_each_spec_key_is_read_or_one_line_naming_it(tmp_path, key, value):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**VALID_SPECS[0], key: value}), encoding="utf-8")
    # 50 rows: in 5, a give-away at rate 0.5 on one label may never be written
    assert_read_or_one_line(["synth", "--spec-file", str(path), "--n", "50",
                             "--out-dir", str(tmp_path / "out")], f"error: {path}:")


def small_corpus(path):
    """Nine native records over the words a, b and c, with ordinals."""
    pairs = [(" ".join("abc"[(i + k) % 3] for k in range(1 + i % 3)),
              corpus.THREE_WAY.names[i % 3]) for i in range(9)]
    return write_corpus(path, make_corpus(pairs, ordinals=[1 + i % 5 for i in range(9)]))


@given(spec=specs)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_a_mutated_spec_is_read_or_one_line_naming_it(tmp_path_factory, spec):
    work = tmp_path_factory.mktemp("spec")
    path = work / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert_read_or_one_line(["synth", "--spec-file", str(path), "--n", "50",
                             "--out-dir", str(work / "out")], f"error: {path}:")


@given(lines=config_lines)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_a_mutated_config_is_read_or_one_line_naming_it(tmp_path_factory, lines):
    """A --config value is refused naming the config file, or, when the
    data cannot be read under it (another format, a scheme that skips
    every record), naming the data file."""
    work = tmp_path_factory.mktemp("config")
    data, cfg = small_corpus(work / "d.jsonl"), work / "run.cfg"
    cfg.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert_read_or_one_line(["stats", "--data", data, "--config", str(cfg),
                             "--out-dir", str(work / "out")],
                            f"error: {cfg}:", f"error: {data}:")


@given(flags=stats_flag_values)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_a_mutated_flag_is_read_or_one_line(tmp_path_factory, flags):
    """The values of the mutated-config test, given as stats' own flags:
    cli.main returns 0, or 1 with one error line and no usage block."""
    work = tmp_path_factory.mktemp("flags")
    data = small_corpus(work / "d.jsonl")
    assert_read_or_one_line(["stats", "--data", data, *(arg for flag in flags for arg in flag),
                             "--out-dir", str(work / "out")], "error: ")


@given(lines=vector_lines)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_a_mutated_vector_file_is_read_or_one_line_naming_it(tmp_path_factory, lines):
    work = tmp_path_factory.mktemp("vectors")
    data, vectors = small_corpus(work / "d.jsonl"), work / "vectors.txt"
    vectors.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert_read_or_one_line(["train-eval", "--train", data, "--dev", data,
                             "--embeddings", str(vectors), "--embedding-dim", "4",
                             "--mlp-hidden", "4", "--max-epochs", "1", "--finetune-embeddings",
                             "--out-dir", str(work / "out")],
                            f"error: {vectors}:", "training aborted:")


@pytest.fixture(scope="module")
def small_checkpoints(tmp_path_factory):
    """{encoder: checkpoint bytes} of one-epoch runs on small_corpus, and its path."""
    work = tmp_path_factory.mktemp("checkpoints")
    data, blobs = small_corpus(work / "d.jsonl"), {}
    for encoder in model.ENCODER_KINDS:
        out = work / encoder
        assert main(["train-eval", "--train", data, "--dev", data, "--encoder", encoder,
                     "--embedding-dim", "3", "--hidden-dim", "2", "--mlp-hidden", "3",
                     "--max-epochs", "1", "--out-dir", str(out)]) == 0
        blobs[encoder] = (out / "model.ckpt").read_bytes()
    return blobs, data


def damaged(blob, damage):
    """blob with a checkpoint_damage edit made."""
    fields, writes, resize = damage
    head, _, body = blob.partition(b"\n")
    header = json.loads(head)
    for path, value in fields:
        owner = header
        for key in path[:-1]:
            owner = owner.get(key) if isinstance(owner, dict) else None
        key = path[-1]
        if isinstance(owner, list) and isinstance(key, int) and key < len(owner):
            owner[key:key + 1] = [] if value is DROP else [value]  # a label entry
        elif isinstance(owner, dict) and value is DROP:
            owner.pop(key, None)
        elif isinstance(owner, dict):
            owner[key] = value
        # otherwise an earlier edit replaced the field's parent
    body = bytearray(body)
    for at, data in writes:
        start = int(at * len(body))
        body[start:start + len(data)] = data
    body = body[:-1] if resize < 0 else body + b"\0" * resize
    return json.dumps(header).encode("utf-8") + b"\n" + bytes(body)


@given(encoder=st.sampled_from(model.ENCODER_KINDS), damage=checkpoint_damage())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_a_damaged_checkpoint_is_read_or_one_line_naming_it(tmp_path_factory,
                                                           small_checkpoints, encoder,
                                                           damage):
    blobs, data = small_checkpoints
    work = tmp_path_factory.mktemp("checkpoint")
    ckpt = work / "model.ckpt"
    ckpt.write_bytes(damaged(blobs[encoder], damage))
    assert_read_or_one_line(["audit-sample", "--checkpoint", str(ckpt), "--data", data,
                             "--out-dir", str(work / "out")], f"error: {ckpt}:")


@pytest.mark.parametrize("path", CHECKPOINT_FIELDS, ids=lambda path: ".".join(map(str, path)))
def test_each_damaged_checkpoint_field_is_read_or_one_line(tmp_path_factory, small_checkpoints,
                                                          path):
    """The property test above draws only some of the fields; each one is
    dropped or set to a value of each kind here, in both encoders'
    checkpoints."""
    blobs, data = small_checkpoints
    work = tmp_path_factory.mktemp("field")
    ckpt = work / "model.ckpt"
    for blob in blobs.values():
        for value in (DROP, None, True, "x", "neutral", -1, 2, 2 ** 63, 2.5, [0, 1], {}):
            ckpt.write_bytes(damaged(blob, ([(path, value)], [], 0)))
            assert_read_or_one_line(["audit-sample", "--checkpoint", str(ckpt), "--data",
                                     data, "--out-dir", str(work / "out")], f"error: {ckpt}:")


def test_an_escaped_lone_surrogate_in_a_checkpoint_header_is_one_line(tmp_path, capsys,
                                                                      small_checkpoints):
    blobs, data = small_checkpoints
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(damaged(blobs["bag"], ([(("labels", 0), "x\ud800")], [], 0)))
    assert main(["audit-sample", "--checkpoint", str(ckpt), "--data", data,
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert one_error_line(capsys) == f"error: {ckpt}: checkpoint header: {LONE_SURROGATE}"
    assert not (tmp_path / "out").exists()


@pytest.fixture
def synth_spec_file(tmp_path):
    spec = {
        "n_labels": 3,
        "label_prior": [0.4, 0.35, 0.25],
        "vocab_size": 12,
        "sentence_length": [3, 6],
        "giveaway": [["give0", 0, 1.0], ["give1", 1, 1.0], ["give2", 2, 1.0]],
        "seed": 5,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def synth_corpus_files(tmp_path, n_train=300, n_dev=60, n_test=60, rate=1.0, seed=11):
    import dataclasses
    spec = synth.SynthSpec(
        n_labels=3, label_prior=(0.4, 0.35, 0.25), vocab_size=12,
        sentence_length=(3, 6),
        giveaway=(("give0", 0, rate), ("give1", 1, rate), ("give2", 2, rate)),
        seed=seed)
    paths = {}
    for name, n, s in (("train", n_train, seed), ("dev", n_dev, seed + 1),
                       ("test", n_test, seed + 2)):
        paths[name] = write_corpus(tmp_path / f"{name}.jsonl",
                                   synth.generate(dataclasses.replace(spec, seed=s), n))
    return paths


class TestSynthCommand:
    def test_writes_corpus_and_sidecar(self, tmp_path, synth_spec_file):
        out = tmp_path / "out"
        rc = main(["synth", "--spec-file", synth_spec_file, "--n", "50",
                   "--out-dir", str(out)])
        assert rc == 0
        corpus_path = out / "corpus.jsonl"
        meta = json.loads((out / "corpus.meta.json").read_text())
        data, skipped = corpus.read_jsonl(
            corpus_path, corpus.FIELD_MAP_PRESETS["native"], corpus.THREE_WAY)
        assert skipped == 0 and len(data) == 50
        # the sidecar's spec reads back, and its bayes matches a direct library call
        spec_path = tmp_path / "spec_back.json"
        spec_path.write_text(json.dumps(meta["spec"]), encoding="utf-8")
        spec = synth.read_spec(spec_path)
        assert spec == synth.read_spec(synth_spec_file)
        assert meta["bayes_accuracy"] == synth.bayes_accuracy(spec)
        assert meta["bayes_accuracy"] == 100.0  # r=1, unique giveaways

    def test_invalid_spec_exits_nonzero(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_labels": 3, "label_prior": [0.9, 0.3, 0.3],
                                   "vocab_size": 5, "sentence_length": [1, 3],
                                   "giveaway": [], "seed": 0}))
        rc = main(["synth", "--spec-file", str(bad), "--n", "10",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize("change, named", [
        ({"seed": DROP}, "seed"),
        ({"giveaway": [["give0", "entail", 1.0]]}, "entail"),
        ({"giveaway": [5]}, "5"),
        ({"sentence_length": 5}, "sentence_length"),
        ({"n_labels": None}, "n_labels"),
        ({"giveaway": 5}, "giveaway"),
        ({"giveaway": [["give0", 0, None]]}, "give0"),
        ({"giveaways": [["give0", 0, 1.0]]}, "'giveaways'"),
        ({"giveaway": [[["x"], 0, 1.0]]}, "'giveaway'"),
        ({"label_prior": [float("nan"), 0.5, 0.5]}, "'label_prior'"),
        ({"label_prior": [10**400, 0, 0]}, "'label_prior'"),
        ({"sentence_length": [3, 4, 5]}, "'sentence_length'"),
        ({"seed": -1}, "'seed'"),
        # found by the mutated-spec test: numpy's bare "high is out of bounds"
        ({"sentence_length": [1, 2 ** 63]}, "'sentence_length': must satisfy 1 <= min <= max"),
    ])
    def test_spec_error_is_one_line(self, tmp_path, synth_spec_file, capsys, change, named):
        with open(synth_spec_file, encoding="utf-8") as fh:
            spec = json.load(fh)
        spec.update(change)
        spec = {key: value for key, value in spec.items() if value is not DROP}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec), encoding="utf-8")
        rc = main(["synth", "--spec-file", str(bad), "--n", "10",
                   "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: ") and named in err[0]

    @pytest.mark.parametrize("change, named", [
        ({"vocab_size": 12.9}, "'vocab_size'"),
        ({"sentence_length": [True, 3.7]}, "'sentence_length'"),
        ({"sentence_length": [3, 3.7]}, "'sentence_length'"),
        ({"giveaway": [["give0", 0.9, 1.0]]}, "'giveaway'"),
        ({"seed": 5.5}, "'seed'"),
    ])
    def test_non_integral_value_is_one_line(self, tmp_path, synth_spec_file, capsys,
                                            change, named):
        """A count, seed or label index that is not a whole number is an
        error naming its key, not truncated."""
        with open(synth_spec_file, encoding="utf-8") as fh:
            spec = json.load(fh)
        spec.update(change)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "o"
        rc = main(["synth", "--spec-file", str(bad), "--n", "10", "--out-dir", str(out)])
        assert rc == 1
        assert named in one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("vocab_size", [2**63, 10**20])
    def test_vocab_size_above_int64_is_one_line_naming_it(self, tmp_path, synth_spec_file,
                                                          capsys, vocab_size):
        """generate draws token indices as int64, so a larger vocab_size
        is refused by the spec check, not by numpy mid-generation."""
        with open(synth_spec_file, encoding="utf-8") as fh:
            spec = json.load(fh)
        spec["vocab_size"] = vocab_size
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "o"
        rc = main(["synth", "--spec-file", str(bad), "--n", "10", "--out-dir", str(out)])
        assert rc == 1
        line = one_error_line(capsys)
        assert line.startswith(f"error: {bad}: ") and "'vocab_size'" in line
        assert "int64" in line and not out.exists()

    def test_largest_int64_vocab_size_generates(self, tmp_path, synth_spec_file):
        with open(synth_spec_file, encoding="utf-8") as fh:
            spec = json.load(fh)
        spec["vocab_size"] = 2**63 - 1
        path = tmp_path / "largest.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["synth", "--spec-file", str(path), "--n", "3",
                     "--out-dir", str(tmp_path / "o")]) == 0

    def test_more_than_twenty_giveaways_generate(self, tmp_path, synth_spec_file):
        """25 give-aways of rate 0.2, 9, 8 and 8 per label: a label-l
        sentence holds none with probability q_l = 0.8^k_l."""
        with open(synth_spec_file, encoding="utf-8") as fh:
            spec = json.load(fh)
        spec["giveaway"] = [[f"give{i}", i % 3, 0.2] for i in range(25)]
        path, out = tmp_path / "many.json", tmp_path / "o"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["synth", "--spec-file", str(path), "--n", "30",
                     "--out-dir", str(out)]) == 0
        assert (out / "corpus.jsonl").read_text().count("\n") == 30
        meta = json.loads((out / "corpus.meta.json").read_text())
        assert meta["bayes_accuracy"] == synth.bayes_accuracy(synth.read_spec(path))
        none = [p * 0.8 ** k for p, k in zip(spec["label_prior"], (9, 8, 8))]
        assert meta["bayes_accuracy"] == pytest.approx(100 * (1 - sum(none) + max(none)),
                                                       abs=1e-12)

    def test_a_corpus_too_large_for_memory_is_one_line(self, tmp_path, synth_spec_file,
                                                       capsys, monkeypatch):
        """A huge sentence_length or --n ends in one line naming the spec;
        generate is patched to fail, so that nothing large is allocated."""
        def generate(spec, n):
            raise MemoryError("Unable to allocate 2.16 TiB")

        monkeypatch.setattr(synth, "generate", generate)
        out = tmp_path / "out"
        assert main(["synth", "--spec-file", synth_spec_file, "--n", "1000000000",
                     "--out-dir", str(out)]) == 1
        assert one_error_line(capsys) == (
            f"error: {synth_spec_file}: 1000000000 instances do not fit in memory")
        assert not out.exists()

    def test_seed_flag_is_rejected(self, tmp_path, synth_spec_file, capsys):
        """The spec's seed governs synth, so the parser refuses --seed."""
        with pytest.raises(SystemExit) as info:
            main(["synth", "--spec-file", synth_spec_file, "--n", "10", "--seed", "1",
                  "--out-dir", str(tmp_path / "o")])
        assert info.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rerun_byte_identical(self, tmp_path, synth_spec_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["synth", "--spec-file", synth_spec_file, "--n", "40",
                         "--out-dir", str(out)]) == 0
        assert (out_a / "corpus.jsonl").read_bytes() == (out_b / "corpus.jsonl").read_bytes()
        assert (out_a / "corpus.meta.json").read_bytes() == (out_b / "corpus.meta.json").read_bytes()


class TestSplitCommand:
    def test_split_sizes_and_partition(self, tmp_path):
        data = write_corpus(tmp_path / "all.jsonl",
                            make_corpus([(f"hyp {i}", "neutral") for i in range(103)]))
        out = tmp_path / "out"
        rc = main(["split", "--data", data, "--out-dir", str(out), "--seed", "3"])
        assert rc == 0
        sizes = {}
        ids = set()
        for name in ("train", "dev", "test"):
            part, _ = corpus.read_jsonl(out / f"{name}.jsonl",
                                        corpus.FIELD_MAP_PRESETS["native"],
                                        corpus.THREE_WAY)
            sizes[name] = len(part)
            ids.update(part.ids)
        assert (sizes["train"], sizes["dev"], sizes["test"]) == (83, 10, 10)
        assert len(ids) == 103

    def test_empty_data_file_is_one_line_naming_it(self, tmp_path, capsys):
        empty, out = tmp_path / "empty.jsonl", tmp_path / "out"
        empty.write_text("")
        assert main(["split", "--data", str(empty), "--out-dir", str(out)]) == 1
        assert one_error_line(capsys) == (
            f"error: {empty}: the data split is empty (0 records skipped at ingest)")
        assert not out.exists()


class TestStatsCommand:
    def test_outputs_and_library_equivalence(self, tmp_path):
        pairs = (
            [("sleeping cat here", "contradiction")] * 6
            + [("a tall person", "neutral")] * 5
            + [("some words", "entailment")] * 4
        )
        data = write_corpus(tmp_path / "d.jsonl", make_corpus(pairs))
        out = tmp_path / "out"
        rc = main(["stats", "--data", data, "--out-dir", str(out), "--min-freq", "2"])
        assert rc == 0
        for name in ("giveaways.csv", "coverage.csv", "counts_summary.csv",
                     "stats_digest.md"):
            assert (out / name).exists()
        read, _ = corpus.read_jsonl(data, corpus.FIELD_MAP_PRESETS["native"],
                                    corpus.THREE_WAY)
        counts = stats.count_corpus(read.hypotheses, read.labels, corpus.THREE_WAY)
        expected = stats.giveaways_to_csv(stats.giveaway_words(counts, min_freq=2, top_k=10),
                                          corpus.THREE_WAY)
        assert (out / "giveaways.csv").read_text() == expected

    def test_rerun_byte_identical(self, tmp_path):
        data = write_corpus(tmp_path / "d.jsonl",
                            make_corpus([("a b c", "neutral")] * 8))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["stats", "--data", data, "--out-dir", str(out)]) == 0
        for name in ("giveaways.csv", "coverage.csv", "counts_summary.csv",
                     "stats_digest.md"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_missing_file_exits_nonzero(self, tmp_path):
        rc = main(["stats", "--data", str(tmp_path / "nope.jsonl"),
                   "--out-dir", str(tmp_path)])
        assert rc == 1

    def test_tsv_ingestion(self, tmp_path, capsys):
        path = tmp_path / "d.tsv"
        path.write_text("p1\tthe hyp\tneutral\np2\tother hyp\tentailment\n")
        out = tmp_path / "out"
        rc = main(["stats", "--data", str(path), "--format", "tsv",
                   "--out-dir", str(out)])
        assert rc == 0
        summary = (out / "counts_summary.csv").read_text()
        assert "TOTAL,2," in summary
        # a role map without a label column is the reader's refusal, since
        # --remap-ordinal would take the label from an ordinal column
        assert main(["stats", "--data", str(path), "--format", "premise=0,hypothesis=1",
                     "--out-dir", str(tmp_path / "out2")]) == 1
        assert one_error_line(capsys) == (
            f"error: {path}: the role map has no field or column for label")

    def test_non_string_hypothesis_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"premise": "p", "hypothesis": "a b",
                                    "label": "neutral", "id": "ok"}) + "\n"
                        + json.dumps({"premise": "p", "hypothesis": ["a", "b"],
                                      "label": "neutral", "id": "bad"}) + "\n")
        out = tmp_path / "out"
        rc = main(["stats", "--data", str(path), "--out-dir", str(out)])
        assert rc == 1
        assert one_error_line(capsys) == (
            f"error: {path}: line 2: instance 'bad': hypothesis is not a string")
        assert not out.exists()

    def test_every_config_line_is_checked(self, tmp_path, capsys):
        """A later line for the same option does not hide a bad earlier one."""
        data = write_corpus(tmp_path / "d.jsonl", make_corpus([("a b c", "neutral")] * 8))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("top-k = x\ntop-k = 3\n")
        assert main(["stats", "--data", data, "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert one_error_line(capsys) == f"error: {cfg}: top_k='x' is not of type int"

    @pytest.mark.parametrize("line", ["top-k = 3", "top-k = 0"])
    def test_a_flag_the_command_refuses_does_not_name_the_config_file(self, tmp_path, capsys,
                                                                     line):
        """The flag overrides the file's value, even an equal one."""
        data = write_corpus(tmp_path / "d.jsonl", make_corpus([("a b c", "neutral")] * 8))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(["stats", "--data", data, "--config", str(cfg), "--top-k", "0",
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert one_error_line(capsys) == "error: top_k must be >= 1, got 0"

    @pytest.mark.parametrize("value, expected", [("Off", False), ("yes", True)])
    def test_boolean_config_words(self, tmp_path, value, expected):
        data = write_corpus(tmp_path / "d.jsonl", make_corpus([("a b c", "neutral")] * 8))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"per-label-threshold = {value}\n")
        out = tmp_path / "out"
        assert main(["stats", "--data", data, "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert f"per_label_threshold={expected}" in (out / "stats_digest.md").read_text()

    @pytest.mark.parametrize("per_label", [False, True])
    def test_coverage_in_each_mode_matches_the_reference(self, tmp_path, per_label):
        """coverage.csv and the digest's coverage table, with and without
        --per-label-threshold, against tests/reference.py's maxima. The
        contradiction sentence "b c" scores 2/3 over all labels but 1/3 per
        label, so the two modes differ at 0.5."""
        scheme = corpus.THREE_WAY
        data = make_corpus([("a b", "neutral"), ("b", "neutral"), ("b c", "contradiction"),
                            ("c", "entailment"), ("c d", "entailment"), (" ", "contradiction")])
        out = tmp_path / "out"
        flags = ["--per-label-threshold"] if per_label else []
        assert main(["stats", "--data", write_corpus(tmp_path / "d.jsonl", data), *flags,
                     "--grid-step", "0.125", "--out-dir", str(out)]) == 0  # x exact in binary
        maxima = [reference.sentence_maxima(data.hypotheses, data.labels, scheme, label, per_label)
                  for label in range(len(scheme))]
        covered = lambda label, x: int(np.count_nonzero(maxima[label] >= x))
        assert covered(scheme.index["contradiction"], 0.5) == (0 if per_label else 1)
        with open(out / "coverage.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9 * len(scheme)
        for row in rows:
            assert int(row["y"]) == covered(scheme.index[row["label"]], float(row["x"]))
        digest = (out / "stats_digest.md").read_text().splitlines()
        start = digest.index("## Coverage at selected thresholds") + 4  # past header and rule
        assert digest[start:start + len(scheme)] == [
            f"| {name} | {' | '.join(str(covered(label, x)) for x in (0.5, 0.75, 1.0))} |"
            for label, name in enumerate(scheme.names)]

    def test_a_score_on_a_tie_rounds_as_the_report_does(self, tmp_path):
        """A word seen 8 times, 5 of them under one label, scores 5/8 = 0.625:
        the digest shows 0.63, as evaluate.fmt2 rounds report.md's figures,
        where format(0.625, ".2f") rounds half to even, to 0.62."""
        pairs = [("w", "neutral")] * 5 + [("w", "entailment")] * 3
        data = write_corpus(tmp_path / "d.jsonl", make_corpus(pairs))
        out = tmp_path / "out"
        assert main(["stats", "--data", data, "--out-dir", str(out)]) == 0
        assert "| w | 0.63 | 8 |" in (out / "stats_digest.md").read_text().splitlines()

    def test_a_pipe_token_keeps_its_digest_row(self, tmp_path):
        data = write_corpus(tmp_path / "d.jsonl", make_corpus([("| x", "neutral")] * 3))
        out = tmp_path / "out"
        assert main(["stats", "--data", data, "--out-dir", str(out), "--min-freq", "1"]) == 0
        assert "| \\| | 1.00 | 3 |" in (out / "stats_digest.md").read_text().splitlines()

    def test_golden_outputs(self, tmp_path, monkeypatch):
        """Outputs on a fixed corpus, byte for byte. The corpus has a
        whitespace-only and a punctuation-only hypothesis, and a skipped
        line; the expected files were written by the string-token
        implementation that preceded the interned one."""
        golden = os.path.join(DATA_DIR, "stats_golden")
        monkeypatch.chdir(DATA_DIR)  # the digest names the --data path
        rc = main(["stats", "--data", "stats_golden/corpus.jsonl", "--out-dir", str(tmp_path),
                   "--min-freq", "2", "--top-k", "5", "--grid-step", "0.05"])
        assert rc == 0
        for name in ("giveaways.csv", "coverage.csv", "counts_summary.csv",
                     "stats_digest.md"):
            with open(os.path.join(golden, name), "rb") as fh:
                assert (tmp_path / name).read_bytes() == fh.read(), name


    def test_golden_outputs_from_tsv(self, tmp_path, monkeypatch):
        """The golden corpus rewritten as TSV gives the golden files; the
        digest's run configuration differs only in naming the format."""
        golden = os.path.join(DATA_DIR, "stats_golden")
        (tmp_path / "stats_golden").mkdir()
        with open(os.path.join(golden, "corpus.jsonl"), encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        # the same relative path as the golden run, so the digest names the same source
        (tmp_path / "stats_golden" / "corpus.jsonl").write_text(
            "".join(f"{r['premise']}\t{r['hypothesis']}\t{r['label']}\n" for r in records),
            encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        rc = main(["stats", "--data", "stats_golden/corpus.jsonl", "--format", "tsv",
                   "--out-dir", "out", "--min-freq", "2", "--top-k", "5", "--grid-step", "0.05"])
        assert rc == 0
        for name in ("giveaways.csv", "coverage.csv", "counts_summary.csv",
                     "stats_digest.md"):
            with open(os.path.join(golden, name), "rb") as fh:
                expected = fh.read()
            if name == "stats_digest.md":
                expected = expected.replace(b"\n    format=native\n", b"\n    format=tsv\n")
            assert (tmp_path / "out" / name).read_bytes() == expected, name


    def test_tsv_is_its_default_columns(self, tmp_path):
        """--format tsv and the role=column pairs it stands for give the same
        files; the digest differs only in the format line."""
        path = tmp_path / "d.tsv"
        path.write_text("".join(f"p\tw{i % 4} w{i % 3}\t{corpus.THREE_WAY.names[i % 3]}\n"
                                for i in range(30)), encoding="utf-8")
        outs = []
        for fmt in ("tsv", "premise=0,hypothesis=1,label=2"):
            outs.append(tmp_path / f"out{len(outs)}")
            assert main(["stats", "--data", str(path), "--format", fmt, "--min-freq", "1",
                         "--out-dir", str(outs[-1])]) == 0
        for name in ("giveaways.csv", "coverage.csv", "counts_summary.csv",
                     "stats_digest.md"):
            expected = (outs[0] / name).read_text()
            if name == "stats_digest.md":
                expected = expected.replace("\n    format=tsv\n",
                                            "\n    format=premise=0,hypothesis=1,label=2\n")
            assert (outs[1] / name).read_text() == expected, name


class TestTrainEvalCommand:
    def run_train(self, tmp_path, out, seed="0", extra=()):
        paths = synth_corpus_files(tmp_path)
        args = ["train-eval", "--train", paths["train"], "--dev", paths["dev"],
                "--test", paths["test"], "--out-dir", str(out), "--seed", seed,
                "--encoder", "bag", "--embedding-dim", "8", "--mlp-hidden", "16",
                "--max-epochs", "20", "--batch-size", "8", "--lr0", "0.3",
                "--finetune-embeddings"]
        args.extend(extra)
        return main(args)

    def test_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert self.run_train(tmp_path, out) == 0
        for name in ("train_log.csv", "model.ckpt", "report.md", "report.csv"):
            assert (out / name).exists()
        report = (out / "report.md").read_text()
        assert "Hyp-Only" in report and "MAJ" in report
        assert "constant prediction" in report
        # fully separable corpus: hyp-only accuracy near 100 on dev
        csv_text = (out / "report.csv").read_text()
        dev_row = next(line for line in csv_text.splitlines()
                       if line.startswith("dev,overall"))
        hyp_acc = float(dev_row.split(",")[3])
        assert hyp_acc >= 95.0

    @pytest.mark.parametrize("flags", [[], ["--finetune-embeddings"], ["--embeddings", "v.txt"]],
                             ids=["default", "finetune", "vectors"])
    def test_frozen_random_vectors_are_noted_after_the_outputs(self, tmp_path, capsys,
                                                               monkeypatch, flags):
        """Only a run on frozen, seeded random vectors, which no run of the paper used, ends
        in one stderr note naming both flags, after its outputs are written."""
        monkeypatch.chdir(tmp_path)
        data = small_corpus(tmp_path / "d.jsonl")
        (tmp_path / "v.txt").write_text("a 0.1 0.2\nb 0.3 0.4\n", encoding="utf-8")
        assert main(["train-eval", "--train", data, "--dev", data, "--embedding-dim", "2",
                     "--max-epochs", "1", "--out-dir", "out", *flags]) == 0
        assert (tmp_path / "out" / "report.csv").exists()
        assert capsys.readouterr().err.splitlines() == ([
            "note: trained on frozen, seeded random word vectors, which no run of the paper "
            "used; give --embeddings or --finetune-embeddings"] if not flags else [])

    def test_checkpoint_loads_and_predicts(self, tmp_path):
        out = tmp_path / "out"
        assert self.run_train(tmp_path, out) == 0
        params = load_checkpoint(out / "model.ckpt")
        assert params.config.encoder_kind == "bag"
        pred = predict_batch(np.arange(1), params.vocab.encode(["give0 w001 w002"]), params)
        assert params.scheme.names[pred[0]] == "entailment"

    def test_rerun_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert self.run_train(tmp_path, out_a) == 0
        assert self.run_train(tmp_path, out_b) == 0
        for name in ("train_log.csv", "model.ckpt", "report.md", "report.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("with_test", [False, True])
    def test_report_names_each_file_read_and_its_skipped_records(self, tmp_path, with_test):
        """report.md opens with one line per split file read, train, dev and test if given,
        like stats_digest.md's: its records and the records skipped at ingest."""
        data = small_corpus(tmp_path / "d.jsonl")
        skipping = tmp_path / "s.jsonl"
        skipped = [{"premise": "p", "hypothesis": "a", "label": label} for label in ("-", "x")]
        skipping.write_text((tmp_path / "d.jsonl").read_text(encoding="utf-8")
                            + "".join(json.dumps(record) + "\n" for record in skipped),
                            encoding="utf-8")
        test = ["--test", str(skipping)] if with_test else []
        assert main(["train-eval", "--train", str(skipping), "--dev", data, *test,
                     "--embedding-dim", "2", "--max-epochs", "1",
                     "--out-dir", str(tmp_path / "out")]) == 0
        report = (tmp_path / "out" / "report.md").read_text(encoding="utf-8").splitlines()
        inputs = ["- train: 9 records (skipped at ingest: 2)",
                  "- dev: 9 records (skipped at ingest: 0)"]
        inputs += ["- test: 9 records (skipped at ingest: 2)"] if with_test else []
        assert report[:len(inputs) + 4] == ["# Hypothesis-only evaluation", "", *inputs, "",
                                            "| Split | Hyp-Only | MAJ | abs delta | pct delta |"]

    def test_run_configuration_of_a_default_run(self, tmp_path, monkeypatch):
        """report.md's run-configuration block of a run with every option at
        its default, line for line, so that a key drifting in or out shows."""
        synth_corpus_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["train-eval", "--train", "train.jsonl", "--dev", "dev.jsonl",
                     "--out-dir", "out"]) == 0
        report = (tmp_path / "out" / "report.md").read_text()
        block = report[report.index("## Run configuration\n\n"):].splitlines()[2:]
        assert block == [f"    {line}" for line in [
            "batch_size=64", "command=train-eval", "decay=0.99", "dev=dev.jsonl",
            "divide_on_decline=5.0", "embedding_dim=50", "embeddings=None", "encoder=bag",
            "finetune_embeddings=False", "format=native", "hidden_dim=64", "lr0=0.1",
            "lr_floor=1e-05", "max_epochs=20", "mlp_hidden=64", "remap_ordinal=False",
            "scheme=3way", "seed=0", "test=None", "train=train.jsonl"]]

    def test_config_file_presets_flags(self, tmp_path):
        paths = synth_corpus_files(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max-epochs = 2\nbatch-size = 16\nembedding-dim = 8\n"
                       "mlp-hidden = 16\nencoder = bag\n")
        out = tmp_path / "out"
        rc = main(["train-eval", "--train", paths["train"], "--dev", paths["dev"],
                   "--out-dir", str(out), "--config", str(cfg)])
        assert rc == 0
        log = (out / "train_log.csv").read_text().strip().splitlines()
        assert len(log) == 3  # header + 2 epochs

    def test_flags_override_config_file(self, tmp_path):
        paths = synth_corpus_files(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max-epochs = 4\nembedding-dim = 8\nmlp-hidden = 16\n")
        out = tmp_path / "out"
        rc = main(["train-eval", "--train", paths["train"], "--dev", paths["dev"],
                   "--out-dir", str(out), "--config", str(cfg),
                   "--max-epochs", "1", "--batch-size", "32"])
        assert rc == 0
        log = (out / "train_log.csv").read_text().strip().splitlines()
        assert len(log) == 2  # header + 1 epoch

    def test_tokenizes_each_hypothesis_once(self, tmp_path, monkeypatch):
        paths = synth_corpus_files(tmp_path)
        hypotheses = []
        for name in ("train", "dev", "test"):
            data, _ = corpus.read_jsonl(paths[name], corpus.FIELD_MAP_PRESETS["native"],
                                        corpus.THREE_WAY)
            hypotheses += data.hypotheses
        calls = []
        original = text.tokenize

        def counted(sentence):
            calls.append(sentence)
            return original(sentence)

        for module in (cli, stats, text, train):  # train-eval's own copies too
            if hasattr(module, "tokenize"):
                monkeypatch.setattr(module, "tokenize", counted)
        assert self.run_train(tmp_path, tmp_path / "out", extra=["--max-epochs", "2"]) == 0
        assert sorted(calls) == sorted(hypotheses)

    @pytest.mark.parametrize("encoder", ["bag", "birnn-maxpool"])
    @pytest.mark.parametrize("lr0, trains", [("100", True), ("1e300", False)])
    def test_large_lr0_trains_or_aborts_in_one_line(self, tmp_path, capsys, encoder, lr0,
                                                    trains):
        """A large but finite rate either trains or ends in one stderr line;
        numpy warnings are errors here, so none may be printed on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = self.run_train(tmp_path, tmp_path / "out",
                                extra=["--encoder", encoder, "--max-epochs", "2",
                                       "--lr0", lr0])
        err = capsys.readouterr().err.splitlines()
        if trains:
            assert rc == 0 and err == []
        else:
            assert rc == 1
            assert len(err) == 1 and err[0].startswith("training aborted: epoch 1: "), err

    @pytest.mark.parametrize("encoder", ["bag", "birnn-maxpool"])
    def test_whitespace_only_dev_split_trains(self, tmp_path, capsys, encoder):
        paths = synth_corpus_files(tmp_path)
        dev = make_corpus([(" " * (1 + i % 3), corpus.THREE_WAY.names[i % 3])
                           for i in range(9)])
        paths["dev"] = write_corpus(tmp_path / "blank_dev.jsonl", dev)
        out = tmp_path / "out"
        rc = main(["train-eval", "--train", paths["train"], "--dev", paths["dev"],
                   "--out-dir", str(out), "--encoder", encoder, "--embedding-dim", "8",
                   "--mlp-hidden", "16", "--max-epochs", "2", "--finetune-embeddings"])
        assert rc == 0 and capsys.readouterr().err == ""
        log = (out / "train_log.csv").read_text().strip().splitlines()
        assert len(log) == 3  # header + 2 epochs

    @pytest.mark.parametrize("value", ["nan", "-inf", "1e999"])
    def test_non_finite_embedding_is_one_line(self, tmp_path, capsys, value):
        vecs = tmp_path / "vecs.txt"
        vecs.write_text("give0 " + " 0.5" * 8 + "\nw001 " + " 0.5" * 7 + f" {value}\n")
        rc = self.run_train(tmp_path, tmp_path / "out", extra=["--embeddings", str(vecs)])
        assert rc == 1
        assert one_error_line(capsys) == f"error: {vecs}: line 2: non-finite value"

    def test_words_holding_spaces_train_as_if_absent(self, tmp_path, capsys):
        """GloVe has words such as ". . ."; such a line loads and matches no
        token, so the checkpoint is that of the file without it."""
        give0 = "give0" + " 0.5" * 8 + "\n"
        for name, text in (("spaces", f". . .{' 0.3' * 8}\n{give0}a\u00a0b{' 0.4' * 8}\n"),
                           ("plain", give0)):
            vecs = tmp_path / f"{name}.txt"
            vecs.write_text(text, encoding="utf-8")
            assert self.run_train(tmp_path, tmp_path / name,
                                  extra=["--embeddings", str(vecs), "--max-epochs", "2"]) == 0
        assert capsys.readouterr().err == ""
        assert ((tmp_path / "spaces" / "model.ckpt").read_bytes()
                == (tmp_path / "plain" / "model.ckpt").read_bytes())

    def test_one_value_too_many_is_refused_at_the_first_line(self, tmp_path, capsys):
        vecs = tmp_path / "vecs.txt"
        vecs.write_text("".join(f"{word}{' 0.5' * 9}\n" for word in ("give0", "w001")))
        rc = self.run_train(tmp_path, tmp_path / "out", extra=["--embeddings", str(vecs)])
        assert rc == 1
        assert one_error_line(capsys) == f"error: {vecs}: line 1: expected 8 values, got 9"

    def test_overflowing_oov_mean_is_one_line(self, tmp_path, capsys):
        """Without an <unk> line the OOV vector is the mean of the loaded
        vectors; a mean that overflows is a file error, with no warning."""
        vecs = tmp_path / "vecs.txt"
        vecs.write_text("give0" + " 1.7e308" * 8 + "\nw001" + " 1.7e308" * 8 + "\n")
        rc = self.run_train(tmp_path, tmp_path / "out", extra=["--embeddings", str(vecs)])
        assert rc == 1
        line = one_error_line(capsys)
        assert line.startswith(f"error: {vecs}: ") and "'<unk>'" in line

    def test_untrained_model_overflow_is_one_line(self, tmp_path, capsys):
        """An overflow in the untrained model's dev evaluation aborts at
        epoch 0 in one stderr line, with a header-only state dump."""
        vecs = tmp_path / "vecs.txt"
        vecs.write_text("<unk>" + " 0" * 8 + "\n" + "".join(
            f"w{i:03d}" + " 1.7e308" * 8 + "\n" for i in range(1, 13)))
        out = tmp_path / "out"
        rc = self.run_train(tmp_path, out, extra=["--embeddings", str(vecs)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("training aborted: epoch 0: "), err
        assert (out / "train_abort.csv").read_text() == "epoch,lr,train_loss,dev_acc\n"

    @pytest.mark.parametrize("encoder", ["bag", "birnn-maxpool"])
    def test_report_prediction_overflow_is_one_line(self, tmp_path, capsys, encoder):
        """A word only the test split has, with a vector near the float
        maximum, overflows the report's prediction: one line naming the test
        file, and no artifact."""
        paths = synth_corpus_files(tmp_path)
        test = write_corpus(tmp_path / "zz_test.jsonl", make_corpus(
            [("zz", "neutral"), ("zz give0", "entailment"), ("w001 zz", "contradiction")]))
        vecs = tmp_path / "vecs.txt"
        vecs.write_text("<unk> 0 0 0 0\nzz 1.7e308 -1.7e308 -1.7e308 1.7e308\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["train-eval", "--train", paths["train"], "--dev", paths["dev"],
                       "--test", test, "--embeddings", str(vecs), "--embedding-dim", "4",
                       "--encoder", encoder, "--max-epochs", "1", "--out-dir", str(out)])
        assert rc == 1
        assert one_error_line(capsys) == (
            f"error: {test}: predicting the test split overflows "
            f"(overflow encountered in matmul)")
        assert not out.exists()

    def test_all_skipped_test_file_is_one_line(self, tmp_path, capsys):
        paths = synth_corpus_files(tmp_path)
        test = tmp_path / "dash_test.jsonl"
        test.write_text("".join(json.dumps({"premise": "p", "hypothesis": f"w00{i % 9}",
                                            "label": "-"}) + "\n" for i in range(20)),
                        encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["train-eval", "--train", paths["train"], "--dev", paths["dev"],
                   "--test", str(test), "--out-dir", str(out), "--embedding-dim", "4",
                   "--mlp-hidden", "4", "--max-epochs", "1"])
        assert rc == 1
        assert one_error_line(capsys) == (
            f"error: {test}: the test split is empty (20 records skipped at ingest)")
        assert not out.exists()

    @pytest.mark.parametrize("split", ["train", "dev"])
    def test_all_skipped_train_or_dev_file_is_one_line(self, tmp_path, capsys, split):
        paths = synth_corpus_files(tmp_path)
        dashes = tmp_path / f"dash_{split}.jsonl"
        dashes.write_text("".join(json.dumps({"premise": "p", "hypothesis": f"w00{i % 9}",
                                              "label": "-"}) + "\n" for i in range(7)),
                          encoding="utf-8")
        paths[split] = str(dashes)
        out = tmp_path / "out"
        rc = main(["train-eval", "--train", paths["train"], "--dev", paths["dev"],
                   "--out-dir", str(out), "--embedding-dim", "4", "--mlp-hidden", "4",
                   "--max-epochs", "1"])
        assert rc == 1
        assert one_error_line(capsys) == (
            f"error: {dashes}: the {split} split is empty (7 records skipped at ingest)")
        assert not out.exists()

    def test_scheme_of_label_names(self, tmp_path):
        """--scheme takes 2-3 comma-separated label names as well as a preset."""
        path = tmp_path / "d.jsonl"
        path.write_text("".join(json.dumps({"premise": "p", "hypothesis": f"w{i % 3}",
                                            "label": "ab"[i % 2]}) + "\n" for i in range(7))
                        + json.dumps({"premise": "p", "hypothesis": "x", "label": "neutral"})
                        + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["stats", "--data", str(path), "--scheme", " a, b", "--out-dir",
                     str(out)]) == 0
        digest = (out / "stats_digest.md").read_text()
        assert "- sentences: 7 (skipped at ingest: 1)" in digest
        assert "- a: 4 sentences" in digest and "- b: 3 sentences" in digest
        assert "    scheme= a, b" in digest and "labels=" not in digest

    def test_all_skipped_stats_file_is_one_line(self, tmp_path, capsys):
        # 3-way labels read under the 2-way scheme are all skipped
        data = write_corpus(tmp_path / "d.jsonl",
                            make_corpus([("a b", "neutral"), ("c", "entailment")] * 3))
        out = tmp_path / "out"
        rc = main(["stats", "--data", data, "--scheme", "2way", "--out-dir", str(out)])
        assert rc == 1
        assert one_error_line(capsys) == (
            f"error: {data}: the data split is empty (6 records skipped at ingest)")
        assert not out.exists()

    def test_compare_to_is_an_unknown_config_option(self, tmp_path, capsys):
        paths = synth_corpus_files(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("compare-to = previous\n")
        rc = main(["train-eval", "--train", paths["train"], "--dev", paths["dev"],
                   "--out-dir", str(tmp_path / "o"), "--config", str(cfg)])
        assert rc == 1
        assert one_error_line(capsys) == f"error: {cfg}: unknown option 'compare_to'"

    @pytest.mark.parametrize("encoder, dims", [
        ("bag", ["--embedding-dim", "128", "--mlp-hidden", "128", "--batch-size", "64"]),
        ("birnn-maxpool", ["--embedding-dim", "50", "--hidden-dim", "64", "--batch-size", "16"]),
    ])
    def test_blas_thread_count_does_not_change_the_checkpoint(self, tmp_path, encoder, dims):
        """One OpenBLAS thread and the default pool give the same bytes. The
        sizes (about 70 tokens x 50 x 256 for the BiLSTM's batch products,
        64 x 128 x 128 for the bag's) are above the size from which
        OpenBLAS splits a product across threads on a multi-core machine.

        It holds for one numpy build and one BLAS kernel, and at these
        sizes only: at the default dimensions and batch 64, one and two
        OpenBLAS threads gave different bytes in every array of a BiLSTM
        checkpoint (by up to 2e-16 of each array's largest value), since
        the weight-gradient products reduce over a batch's tokens and
        OpenBLAS splits that reduction by thread count."""
        paths = synth_corpus_files(tmp_path)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = src
        checkpoints = []
        for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
            out = tmp_path / f"out{len(checkpoints)}"
            subprocess.run([sys.executable, "-m", "hyponli.cli", "train-eval",
                            "--train", paths["train"], "--dev", paths["dev"],
                            "--out-dir", str(out), "--encoder", encoder, *dims,
                            "--max-epochs", "1", "--finetune-embeddings"],
                           env={**env, **threads}, check=True, capture_output=True,
                           timeout=120)
            checkpoints.append((out / "model.ckpt").read_bytes())
        assert checkpoints[0] == checkpoints[1]

    def test_unknown_config_key_errors(self, tmp_path, capsys):
        """help and config are actions of the subcommand, but not options a
        config file can set."""
        paths = synth_corpus_files(tmp_path)
        cfg = tmp_path / "run.cfg"
        for key, value in (("no-such-flag", "1"), ("help", "yes"), ("config", "other.cfg")):
            cfg.write_text(f"{key} = {value}\n")
            rc = main(["train-eval", "--train", paths["train"], "--dev", paths["dev"],
                       "--out-dir", str(tmp_path / "o"), "--config", str(cfg)])
            assert rc == 1
            assert one_error_line(capsys) == (
                f"error: {cfg}: unknown option {key.replace('-', '_')!r}")
        assert not (tmp_path / "o").exists()

    @staticmethod
    def allocation_error(embedding_dim=8, hidden_dim=64, mlp_hidden=16):
        """The error line's prefix for run_train's dimensions."""
        return (f"error: --embedding-dim {embedding_dim}, --hidden-dim {hidden_dim}, "
                f"--mlp-hidden {mlp_hidden}: the model's arrays cannot be allocated (")

    @pytest.mark.parametrize("flag, vectors", [
        ("--embedding-dim", False), ("--embedding-dim", True), ("--hidden-dim", False),
        ("--mlp-hidden", False), ("--hidden-dim", "config")])
    def test_a_dimension_numpy_refuses_is_one_line(self, tmp_path, capsys, flag, vectors):
        """numpy refuses a 10**30 dimension with a bare ValueError before it
        allocates anything; the line names the dimension flags instead, and
        the --config file when that set one of them (vectors "config": a
        BiLSTM of default sizes whose hidden-dim comes from the file)."""
        out = tmp_path / "out"
        if vectors == "config":
            paths = synth_corpus_files(tmp_path)
            cfg = tmp_path / "dim.cfg"
            cfg.write_text(f"hidden-dim = {10 ** 30}\nencoder = birnn-maxpool\n")
            assert main(["train-eval", "--train", paths["train"], "--dev", paths["dev"],
                         "--config", str(cfg), "--out-dir", str(out)]) == 1
            dims = self.allocation_error(50, 10 ** 30, 64).removeprefix("error: ")
            assert one_error_line(capsys).startswith(f"error: {cfg}: {dims}")
            assert not out.exists()
            return
        extra = [flag, str(10 ** 30), "--encoder", "birnn-maxpool"]
        if vectors:
            (tmp_path / "vecs.txt").write_text("give0 0.5 0.5\n")
            extra += ["--embeddings", str(tmp_path / "vecs.txt")]
        assert self.run_train(tmp_path, out, extra=extra) == 1
        dims = {"embedding_dim": 8, "hidden_dim": 64, "mlp_hidden": 16,
                flag[2:].replace("-", "_"): 10 ** 30}
        assert one_error_line(capsys).startswith(self.allocation_error(**dims))
        assert not out.exists()

    @pytest.mark.parametrize("allocator", ["seeded_random_embeddings", "load_embeddings",
                                           "init"])
    def test_an_allocation_that_fails_is_one_line(self, tmp_path, capsys, monkeypatch,
                                                  allocator):
        """A MemoryError from the embedding matrix or the parameter arrays,
        as numpy raises for a shape that fits its limits but not the
        machine; raised here by a stand-in, as a real one could succeed."""
        reason = "Unable to allocate 14.9 GiB for an array with shape (40000000, 50)"

        def fail(*args, **kwargs):
            raise MemoryError(reason)

        owner = model.ModelParameters if allocator == "init" else text
        monkeypatch.setattr(owner, allocator, fail)
        vecs = tmp_path / "vecs.txt"
        vecs.write_text("give0" + " 0.5" * 8 + "\n")
        extra = ["--embeddings", str(vecs)] if allocator == "load_embeddings" else []
        out = tmp_path / "out"
        assert self.run_train(tmp_path, out, extra=extra) == 1
        assert one_error_line(capsys) == self.allocation_error() + reason + ")"
        assert not out.exists()


class TestAuditSampleCommand:
    def test_audit_rows_match_recomputation(self, tmp_path):
        out = tmp_path / "out"
        paths = synth_corpus_files(tmp_path)
        rc = main(["train-eval", "--train", paths["train"], "--dev", paths["dev"],
                   "--out-dir", str(out), "--encoder", "bag",
                   "--embedding-dim", "8", "--mlp-hidden", "16",
                   "--max-epochs", "3", "--batch-size", "16",
                   "--finetune-embeddings"])
        assert rc == 0
        audit_out = tmp_path / "audit"
        rc = main(["audit-sample", "--checkpoint", str(out / "model.ckpt"),
                   "--data", paths["dev"], "--n-per-cell", "5",
                   "--out-dir", str(audit_out), "--seed", "2"])
        assert rc == 0
        text_out = (audit_out / "audit_sample.txt").read_text()
        # recheck every row's cell key against a fresh prediction
        params = load_checkpoint(out / "model.ckpt")
        data, _ = corpus.read_jsonl(paths["dev"], corpus.FIELD_MAP_PRESETS["native"],
                                    params.scheme)
        pred = predict_batch(np.arange(len(data)), params.vocab.encode(data.hypotheses), params)
        by_id = {iid: k for k, iid in enumerate(data.ids)}
        rows = [line for line in text_out.splitlines() if line and not line.startswith("#")]
        assert rows
        for row in rows:
            iid, gold_name, pred_name, hyp = row.split("\t")
            k = by_id[iid]
            assert params.scheme.names[data.labels[k]] == gold_name
            assert data.hypotheses[k] == hyp
            assert params.scheme.names[pred[k]] == pred_name

    def test_repeated_ids_keep_their_own_hypotheses(self, tmp_path):
        out = tmp_path / "out"
        paths = synth_corpus_files(tmp_path)
        assert main(["train-eval", "--train", paths["train"], "--dev", paths["dev"],
                     "--out-dir", str(out), "--encoder", "bag",
                     "--embedding-dim", "8", "--mlp-hidden", "16",
                     "--max-epochs", "2", "--batch-size", "16"]) == 0
        data = tmp_path / "dup.jsonl"
        data.write_text(
            json.dumps({"premise": "p", "hypothesis": "FIRST give0 text",
                        "label": "entailment", "id": "dup"}) + "\n"
            + json.dumps({"premise": "p", "hypothesis": "SECOND give2 text",
                          "label": "contradiction", "id": "dup"}) + "\n",
            encoding="utf-8")
        audit_out = tmp_path / "audit"
        assert main(["audit-sample", "--checkpoint", str(out / "model.ckpt"),
                     "--data", str(data), "--out-dir", str(audit_out)]) == 0
        rows = [line.split("\t") for line in
                (audit_out / "audit_sample.txt").read_text().splitlines()
                if not line.startswith("#")]
        assert sorted((iid, gold, hyp) for iid, gold, _, hyp in rows) == [
            ("dup", "contradiction", "SECOND give2 text"),
            ("dup", "entailment", "FIRST give0 text"),
        ]

    def test_deterministic(self, tmp_path):
        out = tmp_path / "out"
        paths = synth_corpus_files(tmp_path)
        assert main(["train-eval", "--train", paths["train"], "--dev", paths["dev"],
                     "--out-dir", str(out), "--encoder", "bag",
                     "--embedding-dim", "8", "--mlp-hidden", "16",
                     "--max-epochs", "2", "--batch-size", "16"]) == 0
        outs = []
        for sub in ("s1", "s2"):
            audit_out = tmp_path / sub
            assert main(["audit-sample", "--checkpoint", str(out / "model.ckpt"),
                         "--data", paths["dev"], "--n-per-cell", "3",
                         "--out-dir", str(audit_out), "--seed", "4"]) == 0
            outs.append((audit_out / "audit_sample.txt").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("encoder", ["bag", "birnn-maxpool"])
    def test_empty_data_file(self, tmp_path, capsys, encoder):
        out = tmp_path / "out"
        paths = synth_corpus_files(tmp_path)
        assert main(["train-eval", "--train", paths["train"], "--dev", paths["dev"],
                     "--out-dir", str(out), "--encoder", encoder,
                     "--embedding-dim", "8", "--mlp-hidden", "16",
                     "--max-epochs", "1"]) == 0
        empty, audit_out = tmp_path / "empty.jsonl", tmp_path / "audit"
        empty.write_text("")
        capsys.readouterr()
        rc = main(["audit-sample", "--checkpoint", str(out / "model.ckpt"),
                   "--data", str(empty), "--out-dir", str(audit_out)])
        assert rc == 1
        assert one_error_line(capsys) == (
            f"error: {empty}: the data split is empty (0 records skipped at ingest)")
        assert not audit_out.exists()

    def test_a_data_file_of_other_labels_is_empty(self, tmp_path, capsys):
        """A 2-way checkpoint skips every record of a 3-way file."""
        self.train_small(self.ordinal_corpus(tmp_path, corpus.TWO_WAY), tmp_path / "out",
                         "--scheme", "2way")
        data = self.ordinal_corpus(tmp_path, corpus.THREE_WAY)
        capsys.readouterr()
        audit_out = tmp_path / "audit"
        assert main(["audit-sample", "--checkpoint", str(tmp_path / "out" / "model.ckpt"),
                     "--data", data, "--out-dir", str(audit_out)]) == 1
        assert one_error_line(capsys) == (
            f"error: {data}: the data split is empty (30 records skipped at ingest)")
        assert not audit_out.exists()

    @pytest.mark.parametrize("flag, value", [("--scheme", "2way"), ("--scheme", "a,b")])
    def test_scheme_flags_are_refused(self, tmp_path, capsys, flag, value):
        paths = synth_corpus_files(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["audit-sample", "--checkpoint", str(tmp_path / "model.ckpt"),
                  "--data", paths["dev"], "--out-dir", str(tmp_path / "audit"), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @staticmethod
    def ordinal_corpus(tmp_path, scheme):
        pairs = [(f"w{i % 4} x", scheme.names[i % len(scheme)]) for i in range(30)]
        data = make_corpus(pairs, scheme, ordinals=[1 + i % 5 for i in range(30)])
        return write_corpus(tmp_path / f"{len(scheme)}way.jsonl", data, scheme)

    def train_small(self, data, out, *flags):
        assert main(["train-eval", "--train", data, "--dev", data, "--out-dir", str(out),
                     "--embedding-dim", "4", "--mlp-hidden", "4", "--max-epochs", "1",
                     *flags]) == 0

    def test_remap_ordinal_needs_a_three_way_checkpoint(self, tmp_path, capsys):
        data = self.ordinal_corpus(tmp_path, corpus.TWO_WAY)
        self.train_small(data, tmp_path / "out", "--scheme", "2way")
        capsys.readouterr()
        ckpt, audit_out = tmp_path / "out" / "model.ckpt", tmp_path / "audit"
        rc = main(["audit-sample", "--checkpoint", str(ckpt), "--data", data,
                   "--remap-ordinal", "--out-dir", str(audit_out)])
        assert rc == 1
        assert one_error_line(capsys) == (
            f"error: {data}: 1-5 ordinals remap onto the 3-way labels ['entailment', "
            f"'neutral', 'contradiction'], not ['entailed', 'not-entailed']")
        assert not audit_out.exists()

    def test_remap_ordinal_gold_follows_the_ordinals(self, tmp_path):
        data = self.ordinal_corpus(tmp_path, corpus.THREE_WAY)
        self.train_small(data, tmp_path / "out", "--remap-ordinal")
        audit_out = tmp_path / "audit"
        assert main(["audit-sample", "--checkpoint", str(tmp_path / "out" / "model.ckpt"),
                     "--data", data, "--remap-ordinal", "--out-dir", str(audit_out)]) == 0
        rows = [line.split("\t") for line in
                (audit_out / "audit_sample.txt").read_text().splitlines()
                if not line.startswith("#")]
        assert sorted(iid for iid, _, _, _ in rows) == sorted(f"i{k}" for k in range(30))
        for iid, gold, _, _ in rows:
            assert gold == corpus.JOCI_ORDINAL_TO_LABEL[1 + int(iid[1:]) % 5]

    def test_a_custom_scheme_round_trips_through_the_checkpoint(self, tmp_path, capsys):
        """The checkpoint keeps the label names and nothing else of the
        scheme: audit-sample names its cells by them, and --remap-ordinal
        on it is refused naming them."""
        scheme = corpus.LabelScheme(("a", "b"))
        data = self.ordinal_corpus(tmp_path, scheme)
        self.train_small(data, tmp_path / "out", "--scheme", "a,b")
        ckpt, audit_out = tmp_path / "out" / "model.ckpt", tmp_path / "audit"
        assert json.loads(ckpt.read_bytes().partition(b"\n")[0])["labels"] == ["a", "b"]
        assert load_checkpoint(ckpt).scheme == scheme
        assert main(["audit-sample", "--checkpoint", str(ckpt), "--data", data,
                     "--out-dir", str(audit_out)]) == 0
        text_out = (audit_out / "audit_sample.txt").read_text()
        cells = [line.split() for line in text_out.splitlines() if line.startswith("# cell")]
        assert cells and {gold for _, _, gold, _, _ in cells} == {"gold=a", "gold=b"}
        assert {pred for *_, pred, _ in cells} <= {"predicted=a", "predicted=b"}
        capsys.readouterr()
        audit_out = tmp_path / "audit-remap"
        assert main(["audit-sample", "--checkpoint", str(ckpt), "--data", data,
                     "--remap-ordinal", "--out-dir", str(audit_out)]) == 1
        assert one_error_line(capsys) == (
            f"error: {data}: 1-5 ordinals remap onto the 3-way labels ['entailment', "
            f"'neutral', 'contradiction'], not ['a', 'b']")
        assert not audit_out.exists()

    def test_a_version_1_checkpoint_is_one_line_naming_it(self, tmp_path, capsys):
        """The layout before the label names replaced the scheme id and
        config.n_labels."""
        def to_version_1(header):
            header["version"] = 1
            header["config"]["n_labels"] = len(header["labels"])
            header["scheme"] = {"id": "3way", "labels": header.pop("labels")}

        ckpt, data = self.damaged_checkpoint(tmp_path, to_version_1)
        capsys.readouterr()
        audit_out = tmp_path / "audit"
        assert main(["audit-sample", "--checkpoint", str(ckpt), "--data", data,
                     "--out-dir", str(audit_out)]) == 1
        assert one_error_line(capsys) == f"error: {ckpt}: checkpoint version 1 is not 2"
        assert not audit_out.exists()

    @staticmethod
    def damaged_checkpoint(tmp_path, damage):
        """(checkpoint, data) after a small bag train-eval; damage(header)
        edits the checkpoint's header in place."""
        paths = synth_corpus_files(tmp_path)
        out = tmp_path / "out"
        assert main(["train-eval", "--train", paths["train"], "--dev", paths["dev"],
                     "--out-dir", str(out), "--encoder", "bag", "--embedding-dim", "4",
                     "--mlp-hidden", "4", "--max-epochs", "1"]) == 0
        ckpt = out / "model.ckpt"
        head, _, body = ckpt.read_bytes().partition(b"\n")
        header = json.loads(head)
        damage(header)
        ckpt.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
        return ckpt, paths["dev"]

    def test_wrongly_typed_config_is_one_line(self, tmp_path, capsys):
        # a bag model has no hidden layer to shape, so this loaded silently
        ckpt, data = self.damaged_checkpoint(
            tmp_path, lambda header: header["config"].update(hidden_dim=True))
        capsys.readouterr()
        audit_out = tmp_path / "audit"
        rc = main(["audit-sample", "--checkpoint", str(ckpt), "--data", data,
                   "--out-dir", str(audit_out)])
        assert rc == 1
        assert one_error_line(capsys) == (
            f"error: {ckpt}: malformed checkpoint header (ValueError('dimensions "
            f"and seed must be integers'))")
        assert not audit_out.exists()

    def test_manifest_larger_than_the_file_is_one_line(self, tmp_path, capsys):
        """An embedding dimension of 10**14 asks for 8.8e15 bytes; it is
        refused before any read asks for them."""
        def damage(header):
            header["config"]["embedding_dim"] = 10 ** 14
            for spec in header["arrays"]:
                if spec["name"] in ("emb", "mlp_w1"):
                    spec["shape"][1] = 10 ** 14

        ckpt, data = self.damaged_checkpoint(tmp_path, damage)
        capsys.readouterr()
        rc = main(["audit-sample", "--checkpoint", str(ckpt), "--data", data,
                   "--out-dir", str(tmp_path / "audit")])
        assert rc == 1
        assert one_error_line(capsys).startswith(
            f"error: {ckpt}: array 'emb' is truncated (")

    def test_weights_that_overflow_are_one_line(self, tmp_path, capsys):
        """Found by the damaged-checkpoint test: finite weights of 1e308
        overflowed in the MLP head, a traceback under numpy warnings raised
        as errors and a RuntimeWarning on stderr without."""
        paths = synth_corpus_files(tmp_path)
        out = tmp_path / "out"
        assert main(["train-eval", "--train", paths["train"], "--dev", paths["dev"],
                     "--out-dir", str(out), "--embedding-dim", "4", "--mlp-hidden", "4",
                     "--max-epochs", "1"]) == 0
        ckpt = out / "model.ckpt"
        params = load_checkpoint(ckpt)
        params.arrays["emb"][:] = 1.0
        params.arrays["mlp_w1"][:] = 1e308
        save_checkpoint(params, ckpt)
        capsys.readouterr()
        audit_out = tmp_path / "audit"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["audit-sample", "--checkpoint", str(ckpt), "--data", paths["dev"],
                       "--out-dir", str(audit_out)])
        assert rc == 1
        assert one_error_line(capsys) == (f"error: {ckpt}: predicting {paths['dev']} overflows "
                                          f"(overflow encountered in matmul)")
        assert not audit_out.exists()

    def test_missing_checkpoint_errors(self, tmp_path):
        paths = synth_corpus_files(tmp_path)
        rc = main(["audit-sample", "--checkpoint", str(tmp_path / "nope.ckpt"),
                   "--data", paths["dev"], "--out-dir", str(tmp_path / "o")])
        assert rc == 1


class TestRemapOrdinal:
    """With --remap-ordinal every command takes its labels from the 1-5
    ordinals: a record labelled "-" is kept when it carries one, and a
    record without one is skipped and counted."""

    N = 30  # records; every third is labelled "-", has the word "dash" and ordinal 5

    @classmethod
    def dash_corpus(cls, tmp_path, n_missing=0):
        """The N records, the last n_missing of them without an ordinal."""
        lines = []
        for i in range(cls.N):
            dash = i % 3 == 0
            record = {"premise": "p", "hypothesis": f"w{i % 4} x{i % 7}" + " dash" * dash,
                      "label": "-" if dash else corpus.THREE_WAY.names[i % 3],
                      "id": f"r{i}"}
            if i < cls.N - n_missing:
                record["ordinal"] = cls.ordinal(i)
            lines.append(json.dumps(record) + "\n")
        path = tmp_path / "dash.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        return str(path)

    @staticmethod
    def ordinal(i):
        return 5 if i % 3 == 0 else 1 + i % 4

    @classmethod
    def gold(cls, instance_id):
        return corpus.JOCI_ORDINAL_TO_LABEL[cls.ordinal(int(instance_id[1:]))]

    @pytest.mark.parametrize("n_missing", [0, 1])
    def test_stats(self, tmp_path, n_missing):
        data, out = self.dash_corpus(tmp_path, n_missing), tmp_path / "out"
        assert main(["stats", "--data", data, "--remap-ordinal", "--out-dir", str(out)]) == 0
        digest = (out / "stats_digest.md").read_text()
        n = self.N - n_missing
        assert f"- sentences: {n} (skipped at ingest: {n_missing})" in digest
        expected = [self.gold(f"r{i}") for i in range(n)]
        for name in corpus.THREE_WAY.names:
            assert f"- {name}: {expected.count(name)} sentences" in digest

    def test_records_need_no_label_field(self, tmp_path):
        path = tmp_path / "unlabelled.jsonl"
        records = [{"premise": "p", "hypothesis": "a b", "ordinal": 1},
                   {"premise": "p", "hypothesis": "b c", "ordinal": 5}]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["stats", "--data", str(path), "--remap-ordinal",
                     "--out-dir", str(out)]) == 0
        digest = (out / "stats_digest.md").read_text()
        assert "- sentences: 2 (skipped at ingest: 0)" in digest
        assert "- entailment: 1 sentences" in digest
        assert "- contradiction: 1 sentences" in digest

    def test_tsv_columns_need_no_label(self, tmp_path):
        path = tmp_path / "ordinals.tsv"
        path.write_text("p\ta b\t1\np\tb c\t5\np\tc d\t3\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["stats", "--data", str(path), "--format",
                     "premise=0,hypothesis=1,ordinal=2", "--remap-ordinal",
                     "--out-dir", str(out)]) == 0
        digest = (out / "stats_digest.md").read_text()
        assert "- sentences: 3 (skipped at ingest: 0)" in digest
        for name in corpus.THREE_WAY.names:
            assert f"- {name}: 1 sentences" in digest

    @pytest.mark.parametrize("fmt, line", [("tsv", "p\ta b\t1\n"),
                                           ("snli", '{"sentence1": "p", "sentence2": "a b", '
                                                    '"gold_label": "-", "ordinal": 1}\n')])
    def test_role_map_without_an_ordinal_is_one_line(self, tmp_path, capsys, fmt, line):
        """--format tsv and --format snli map no ordinal, so they
        are refused before any line is read."""
        path = tmp_path / f"ordinals.{fmt}"
        path.write_text(line, encoding="utf-8")
        assert main(["stats", "--data", str(path), "--format", fmt, "--remap-ordinal",
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert one_error_line(capsys) == (f"error: {path}: the role map has no field or "
                                          f"column for ordinal")

    @pytest.mark.parametrize("scheme", ["2way", "a,b"])
    @pytest.mark.parametrize("command", ["stats", "train-eval", "split"])
    def test_a_scheme_without_the_three_way_labels_is_one_line(self, tmp_path, capsys,
                                                              command, scheme):
        """--remap-ordinal no longer overrides --scheme: the reader refuses
        the pair before any line is read, naming the file."""
        path, out = tmp_path / "bad.jsonl", tmp_path / "out"
        path.write_text("{\n", encoding="utf-8")  # any line read would fail as JSON
        inputs = ["--train", str(path), "--dev", str(path)] if command == "train-eval" \
            else ["--data", str(path)]
        assert main([command, *inputs, "--remap-ordinal", "--scheme", scheme,
                     "--out-dir", str(out)]) == 1
        names = ["entailed", "not-entailed"] if scheme == "2way" else ["a", "b"]
        assert one_error_line(capsys) == (
            f"error: {path}: 1-5 ordinals remap onto the 3-way labels ['entailment', "
            f"'neutral', 'contradiction'], not {names}")
        assert not out.exists()

    def test_the_three_way_names_are_the_three_way_scheme(self, tmp_path):
        data = self.dash_corpus(tmp_path)
        digests = []
        for flags in ([], ["--scheme", "entailment,neutral,contradiction"]):
            out = tmp_path / f"out{len(digests)}"
            assert main(["stats", "--data", data, "--remap-ordinal", *flags,
                         "--out-dir", str(out)]) == 0
            digest = (out / "stats_digest.md").read_text()
            digests.append(digest.partition("## Run configuration")[0])
        assert digests[0] == digests[1]

    def test_train_eval(self, tmp_path):
        data, out = self.dash_corpus(tmp_path), tmp_path / "out"
        assert main(["train-eval", "--train", data, "--dev", data, "--test", data,
                     "--remap-ordinal", "--out-dir", str(out), "--embedding-dim", "4",
                     "--mlp-hidden", "4", "--max-epochs", "1"]) == 0
        # MAJ is the share of the most frequent ordinal label
        gold = [self.gold(f"r{i}") for i in range(self.N)]
        maj_acc = max(gold.count(name) for name in corpus.THREE_WAY.names) / len(gold)
        rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()]
        assert {row[0]: row[4] for row in rows if row[1] == "overall"} == {
            "dev": f"{100 * maj_acc:.2f}", "test": f"{100 * maj_acc:.2f}"}
        assert "dash" in load_checkpoint(out / "model.ckpt").vocab.tokens

    def test_split(self, tmp_path):
        data, out = self.dash_corpus(tmp_path), tmp_path / "out"
        assert main(["split", "--data", data, "--remap-ordinal", "--out-dir", str(out)]) == 0
        kept = []
        for name in ("train", "dev", "test"):
            part, skipped = corpus.read_jsonl(out / f"{name}.jsonl",
                                              corpus.FIELD_MAP_PRESETS["native"],
                                              corpus.THREE_WAY)
            assert skipped == 0
            kept += [(iid, corpus.THREE_WAY.names[label])
                     for iid, label in zip(part.ids, part.labels.tolist())]
        assert sorted(kept) == sorted((f"r{i}", self.gold(f"r{i}")) for i in range(self.N))

    def test_audit_sample(self, tmp_path):
        data = self.dash_corpus(tmp_path)
        clean = make_corpus([(f"w{i % 4} x", corpus.THREE_WAY.names[i % 3]) for i in range(30)],
                            ordinals=[1 + i % 5 for i in range(30)])
        train_path = write_corpus(tmp_path / "clean.jsonl", clean)
        assert main(["train-eval", "--train", train_path, "--dev", train_path,
                     "--out-dir", str(tmp_path / "out"), "--embedding-dim", "4",
                     "--mlp-hidden", "4", "--max-epochs", "1"]) == 0
        audit_out = tmp_path / "audit"
        assert main(["audit-sample", "--checkpoint", str(tmp_path / "out" / "model.ckpt"),
                     "--data", data, "--remap-ordinal", "--out-dir", str(audit_out)]) == 0
        rows = [line.split("\t") for line in
                (audit_out / "audit_sample.txt").read_text().splitlines()
                if not line.startswith("#")]
        assert sorted(iid for iid, _, _, _ in rows) == sorted(f"r{i}" for i in range(self.N))
        for iid, gold, _, _ in rows:
            assert gold == self.gold(iid)


class TestCsvQuoting:
    KEY = 'x,"y'  # tokenize keeps it one token: the comma and quote are inside it

    def test_inner_comma_and_quote_round_trip(self, tmp_path):
        """A give-away token and a group key holding the CSV delimiter and
        quote read back whole from giveaways.csv and report.csv."""
        names = corpus.THREE_WAY.names
        data = make_corpus([(f"{self.KEY} a", names[0])] * 6
                           + [("b", names[1])] * 6 + [("c", names[2])] * 6,
                           groups=[self.KEY] * 18)
        path = write_corpus(tmp_path / "data.jsonl", data)
        out = tmp_path / "out"
        assert main(["stats", "--data", path, "--out-dir", str(out)]) == 0
        assert main(["train-eval", "--train", path, "--dev", path, "--out-dir", str(out),
                     "--embedding-dim", "4", "--mlp-hidden", "4", "--max-epochs", "1"]) == 0

        def rows(name):
            with open(out / name, encoding="utf-8", newline="") as fh:
                return list(csv.reader(fh))

        giveaways = rows("giveaways.csv")
        assert all(len(row) == 4 for row in giveaways)
        assert [names[0], self.KEY, "1.000000", "6"] in giveaways
        report = rows("report.csv")
        assert all(len(row) == 8 for row in report)
        assert [row[2] for row in report if row[1] == "group"] == [self.KEY]
