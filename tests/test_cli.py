import csv
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hyponli import cli, corpus, stats, synth, text, train
from hyponli.cli import main
from hyponli.model import load_checkpoint, predict_batch

from helpers import make_corpus


DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


DROP = object()  # a spec change that deletes the key


def one_error_line(capsys) -> str:
    """The single stderr line of a failed command."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def write_corpus(path, data, scheme=corpus.THREE_WAY):
    corpus.write_jsonl(data, path, scheme)
    return str(path)


@pytest.mark.parametrize("command", ["stats", "train-eval"])
def test_out_dir_under_a_file_fails_before_any_input_is_read(tmp_path, capsys, monkeypatch,
                                                              command):
    data = write_corpus(tmp_path / "d.jsonl", make_corpus([("a b", "neutral")] * 3))
    blocker = tmp_path / "file"
    blocker.write_text("x")
    out = str(blocker / "sub")
    reads = []
    monkeypatch.setattr(corpus, "read_jsonl", lambda *a, **k: reads.append(a))
    inputs = (["--data", data] if command == "stats"
              else ["--train", data, "--dev", data, "--test", data])
    assert main([command, *inputs, "--out-dir", out]) == 1
    assert one_error_line(capsys) == f"error: --out-dir {out}: {blocker} is not a directory"
    assert reads == []


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

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_n_below_one_is_one_line_naming_the_flag(self, tmp_path, synth_spec_file,
                                                     capsys, n):
        out = tmp_path / "o"
        rc = main(["synth", "--spec-file", synth_spec_file, "--n", n, "--out-dir", str(out)])
        assert rc == 1
        assert one_error_line(capsys) == f"error: --n {n} is below 1"
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

    @pytest.mark.parametrize("ratios", ["0.5,0.5", "0.5,0.5,0.5,-0.5", "1.2,-0.1,-0.1",
                                        "0.8,0.1,nan"])
    def test_bad_ratios_are_one_line(self, tmp_path, capsys, ratios):
        data = write_corpus(tmp_path / "all.jsonl",
                            make_corpus([(f"hyp {i}", "neutral") for i in range(10)]))
        out = tmp_path / "out"
        rc = main(["split", "--data", data, "--out-dir", str(out), "--ratios", ratios])
        assert rc == 1
        one_error_line(capsys)
        assert not out.exists()

    def test_ratios_that_are_not_numbers_are_one_line(self, tmp_path, capsys):
        """--ratios is parsed before the corpus is read; the data file is absent."""
        rc = main(["split", "--data", str(tmp_path / "absent.jsonl"), "--ratios", "a,b,c",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert one_error_line(capsys) == ("error: --ratios 'a,b,c' is not a comma-separated "
                                          "list of numbers")


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
        expected = stats.giveaways_to_csv(stats.giveaway_words(counts, min_freq=2),
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

    def test_tsv_ingestion(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("p1\tthe hyp\tneutral\np2\tother hyp\tentailment\n")
        out = tmp_path / "out"
        rc = main(["stats", "--data", str(path), "--format", "tsv",
                   "--out-dir", str(out)])
        assert rc == 0
        summary = (out / "counts_summary.csv").read_text()
        assert "TOTAL,2," in summary


    @pytest.mark.parametrize("columns, named", [
        ("premise=0,hyp=1,label=2", "hyp=1"),
        ("premise=0,hypothesis=1", "label"),
        ("premise=0,hypothesis=one,label=2", "hypothesis=one"),
        ("premise=0,hypothesis=-1,label=2", "hypothesis=-1"),
        ("premise=0,hypothesis=1,label=", "label="),
    ])
    def test_bad_tsv_columns_is_one_line(self, tmp_path, capsys, columns, named):
        path = tmp_path / "d.tsv"
        path.write_text("p1\tthe hyp\tneutral\n")
        rc = main(["stats", "--data", str(path), "--format", "tsv",
                   "--tsv-columns", columns, "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert named in one_error_line(capsys)

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

    @pytest.mark.parametrize("top_k", ["0", "-1"])
    def test_bad_top_k_is_one_line(self, tmp_path, capsys, top_k):
        data = write_corpus(tmp_path / "d.jsonl", make_corpus([("a b c", "neutral")] * 8))
        rc = main(["stats", "--data", data, "--top-k", top_k,
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "top_k" in one_error_line(capsys)

    @pytest.mark.parametrize("step", ["0", "0.6", "nan", "1e-7"])
    def test_bad_grid_step_is_one_line(self, tmp_path, capsys, step):
        # steps below 0.0001, the resolution of coverage.csv's x column, are
        # refused before a grid of 1/step points is built
        data = write_corpus(tmp_path / "d.jsonl", make_corpus([("a b c", "neutral")] * 8))
        out = tmp_path / "out"
        rc = main(["stats", "--data", data, "--grid-step", step, "--out-dir", str(out)])
        assert rc == 1
        assert one_error_line(capsys) == (
            f"error: grid_step must lie in [0.0001, 0.5], got {float(step)}")
        assert not out.exists()

    @pytest.mark.parametrize("line, named", [
        ("format = xml", "format='xml'"),
        ("scheme = 4way", "scheme='4way'"),
        ("per-label-threshold = maybe", "per_label_threshold='maybe'"),
        ("top-k = 2.5", "top_k='2.5'"),
    ])
    def test_bad_config_value_is_one_line(self, tmp_path, capsys, line, named):
        data = write_corpus(tmp_path / "d.jsonl", make_corpus([("a b c", "neutral")] * 8))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        rc = main(["stats", "--data", data, "--config", str(cfg),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = one_error_line(capsys)
        assert err.startswith(f"error: {cfg}: ") and named in err

    @pytest.mark.parametrize("value, expected", [("Off", False), ("yes", True)])
    def test_boolean_config_words(self, tmp_path, value, expected):
        data = write_corpus(tmp_path / "d.jsonl", make_corpus([("a b c", "neutral")] * 8))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"per-label-threshold = {value}\n")
        out = tmp_path / "out"
        assert main(["stats", "--data", data, "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert f"per_label_threshold={expected}" in (out / "stats_digest.md").read_text()

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
    @pytest.mark.parametrize("flag, value", [
        ("--lr0", "inf"), ("--lr0", "nan"), ("--lr0", "0"), ("--lr0", "-0.1"),
        ("--divide-on-decline", "inf"), ("--divide-on-decline", "nan"),
        ("--lr-floor", "inf"), ("--lr-floor", "nan"),
    ])
    def test_bad_training_setting_is_one_line(self, tmp_path, capsys, encoder, flag, value):
        rc = self.run_train(tmp_path, tmp_path / "out",
                            extra=["--encoder", encoder, "--max-epochs", "1", flag, value])
        assert rc == 1
        assert flag[2:].replace("-", "_") in one_error_line(capsys)

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
        OpenBLAS splits a product across threads on a multi-core machine."""
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

    def test_config_value_of_the_wrong_type_names_the_key(self, tmp_path, capsys):
        paths = synth_corpus_files(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max-epochs = abc\n")
        rc = main(["train-eval", "--train", paths["train"], "--dev", paths["dev"],
                   "--out-dir", str(tmp_path / "o"), "--config", str(cfg)])
        assert rc == 1
        assert one_error_line(capsys) == (
            f"error: {cfg}: max_epochs='abc' is not of type int")

    def test_unknown_config_key_errors(self, tmp_path):
        paths = synth_corpus_files(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no-such-flag = 1\n")
        rc = main(["train-eval", "--train", paths["train"], "--dev", paths["dev"],
                   "--out-dir", str(tmp_path / "o"), "--config", str(cfg)])
        assert rc == 1


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
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        capsys.readouterr()
        rc = main(["audit-sample", "--checkpoint", str(out / "model.ckpt"),
                   "--data", str(empty), "--out-dir", str(tmp_path / "audit")])
        assert rc == 0
        assert "0 rows across 0 cells" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [("--scheme", "2way"), ("--labels", "a,b")])
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
        return write_corpus(tmp_path / f"{scheme.scheme_id}.jsonl", data, scheme)

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
            f"error: --remap-ordinal needs a checkpoint with the 3-way labels entailment, "
            f"neutral, contradiction; {ckpt} has entailed, not-entailed")
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
            f"error: {ckpt}: malformed checkpoint header (ValueError('dimensions, "
            f"n_labels and seed must be integers'))")
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
        assert main(["stats", "--data", str(path), "--format", "tsv",
                     "--tsv-columns", "premise=0,hypothesis=1,ordinal=2", "--remap-ordinal",
                     "--out-dir", str(out)]) == 0
        digest = (out / "stats_digest.md").read_text()
        assert "- sentences: 3 (skipped at ingest: 0)" in digest
        for name in corpus.THREE_WAY.names:
            assert f"- {name}: 1 sentences" in digest

    @pytest.mark.parametrize("fmt, line", [("tsv", "p\ta b\t1\n"),
                                           ("snli", '{"sentence1": "p", "sentence2": "a b", '
                                                    '"gold_label": "-", "ordinal": 1}\n')])
    def test_role_map_without_an_ordinal_is_one_line(self, tmp_path, capsys, fmt, line):
        """The default --tsv-columns and --format snli map no ordinal, so they
        are refused before any line is read."""
        path = tmp_path / f"ordinals.{fmt}"
        path.write_text(line, encoding="utf-8")
        assert main(["stats", "--data", str(path), "--format", fmt, "--remap-ordinal",
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert one_error_line(capsys) == (f"error: {path}: the role map has no field or "
                                          f"column for ordinal")

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
