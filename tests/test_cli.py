import json
import os
import warnings

import pytest

from hyponli import cli, corpus, stats, synth, text, train
from hyponli.cli import main
from hyponli.model import load_checkpoint
from hyponli.text import tokenize

from conftest import make_instances


DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def one_error_line(capsys) -> str:
    """The single stderr line of a failed command."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def write_corpus(path, instances):
    corpus.write_jsonl(instances, path)
    return str(path)


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
        ds = synth.generate(dataclasses.replace(spec, seed=s), n)
        paths[name] = write_corpus(tmp_path / f"{name}.jsonl", ds.split("train"))
    return paths


class TestSynthCommand:
    def test_writes_corpus_and_sidecar(self, tmp_path, synth_spec_file):
        out = tmp_path / "out"
        rc = main(["synth", "--spec-file", synth_spec_file, "--n", "50",
                   "--out-dir", str(out)])
        assert rc == 0
        corpus_path = out / "corpus.jsonl"
        meta = json.loads((out / "corpus.meta.json").read_text())
        instances, skipped = corpus.read_jsonl(
            corpus_path, corpus.FIELD_MAP_PRESETS["native"], corpus.THREE_WAY)
        assert skipped == 0 and len(instances) == 50
        # sidecar bayes matches a direct library call
        spec = synth.spec_from_dict(meta["spec"])
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
        ({"seed": None}, "seed"),
        ({"giveaway": [["give0", "entail", 1.0]]}, "entail"),
        ({"giveaway": [5]}, "5"),
    ])
    def test_spec_error_is_one_line(self, tmp_path, synth_spec_file, capsys, change, named):
        with open(synth_spec_file, encoding="utf-8") as fh:
            spec = json.load(fh)
        spec.update(change)
        spec = {key: value for key, value in spec.items() if value is not None}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec), encoding="utf-8")
        rc = main(["synth", "--spec-file", str(bad), "--n", "10",
                   "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]

    def test_rerun_byte_identical(self, tmp_path, synth_spec_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["synth", "--spec-file", synth_spec_file, "--n", "40",
                         "--out-dir", str(out)]) == 0
        assert (out_a / "corpus.jsonl").read_bytes() == (out_b / "corpus.jsonl").read_bytes()
        assert (out_a / "corpus.meta.json").read_bytes() == (out_b / "corpus.meta.json").read_bytes()


class TestSplitCommand:
    def test_split_sizes_and_partition(self, tmp_path):
        instances = make_instances([(f"hyp {i}", "neutral") for i in range(103)])
        data = write_corpus(tmp_path / "all.jsonl", instances)
        out = tmp_path / "out"
        rc = main(["split", "--data", data, "--out-dir", str(out), "--seed", "3"])
        assert rc == 0
        sizes = {}
        ids = set()
        for name in ("train", "dev", "test"):
            insts, _ = corpus.read_jsonl(out / f"{name}.jsonl",
                                         corpus.FIELD_MAP_PRESETS["native"],
                                         corpus.THREE_WAY)
            sizes[name] = len(insts)
            ids.update(i.instance_id for i in insts)
        assert (sizes["train"], sizes["dev"], sizes["test"]) == (83, 10, 10)
        assert len(ids) == 103

    @pytest.mark.parametrize("ratios", ["0.5,0.5", "0.5,0.5,0.5,-0.5", "1.2,-0.1,-0.1",
                                        "0.8,0.1,nan"])
    def test_bad_ratios_are_one_line(self, tmp_path, capsys, ratios):
        data = write_corpus(tmp_path / "all.jsonl",
                            make_instances([(f"hyp {i}", "neutral") for i in range(10)]))
        out = tmp_path / "out"
        rc = main(["split", "--data", data, "--out-dir", str(out), "--ratios", ratios])
        assert rc == 1
        one_error_line(capsys)
        assert not out.exists()


class TestStatsCommand:
    def test_outputs_and_library_equivalence(self, tmp_path):
        pairs = (
            [("sleeping cat here", "contradiction")] * 6
            + [("a tall person", "neutral")] * 5
            + [("some words", "entailment")] * 4
        )
        data = write_corpus(tmp_path / "d.jsonl", make_instances(pairs))
        out = tmp_path / "out"
        rc = main(["stats", "--data", data, "--out-dir", str(out), "--min-freq", "2"])
        assert rc == 0
        for name in ("giveaways.csv", "coverage.csv", "counts_summary.csv",
                     "stats_digest.md"):
            assert (out / name).exists()
        instances, _ = corpus.read_jsonl(data, corpus.FIELD_MAP_PRESETS["native"],
                                         corpus.THREE_WAY)
        counts = stats.count_corpus(instances, scheme=corpus.THREE_WAY)
        expected = stats.giveaways_to_csv(stats.giveaway_words(counts, min_freq=2))
        assert (out / "giveaways.csv").read_text() == expected

    def test_rerun_byte_identical(self, tmp_path):
        data = write_corpus(tmp_path / "d.jsonl",
                            make_instances([("a b c", "neutral")] * 8))
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

    @pytest.mark.parametrize("top_k", ["0", "-1"])
    def test_bad_top_k_is_one_line(self, tmp_path, capsys, top_k):
        data = write_corpus(tmp_path / "d.jsonl", make_instances([("a b c", "neutral")] * 8))
        rc = main(["stats", "--data", data, "--top-k", top_k,
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "top_k" in one_error_line(capsys)

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
        from hyponli.model import predict
        pred = predict(params.vocab.encode(tokenize("give0 w001 w002")), params)
        assert params.scheme.by_index(pred).name == "entailment"

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
            insts, _ = corpus.read_jsonl(paths[name], corpus.FIELD_MAP_PRESETS["native"],
                                         corpus.THREE_WAY)
            hypotheses += [inst.hypothesis for inst in insts]
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
        dev = make_instances([(" " * (1 + i % 3), corpus.THREE_WAY.names[i % 3])
                              for i in range(9)])
        paths["dev"] = write_corpus(tmp_path / "blank_dev.jsonl", dev)
        out = tmp_path / "out"
        rc = main(["train-eval", "--train", paths["train"], "--dev", paths["dev"],
                   "--out-dir", str(out), "--encoder", encoder, "--embedding-dim", "8",
                   "--mlp-hidden", "16", "--max-epochs", "2", "--finetune-embeddings"])
        assert rc == 0 and capsys.readouterr().err == ""
        log = (out / "train_log.csv").read_text().strip().splitlines()
        assert len(log) == 3  # header + 2 epochs

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
        from hyponli.model import predict
        params = load_checkpoint(out / "model.ckpt")
        instances, _ = corpus.read_jsonl(paths["dev"],
                                         corpus.FIELD_MAP_PRESETS["native"],
                                         params.scheme)
        by_id = {i.instance_id: i for i in instances}
        rows = [line for line in text_out.splitlines() if line and not line.startswith("#")]
        assert rows
        for row in rows:
            iid, gold_name, pred_name, hyp = row.split("\t")
            inst = by_id[iid]
            assert inst.label.name == gold_name
            assert inst.hypothesis == hyp
            rows = params.vocab.encode(tokenize(inst.hypothesis))
            assert params.scheme.by_index(predict(rows, params)).name == pred_name

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

    def test_missing_checkpoint_errors(self, tmp_path):
        paths = synth_corpus_files(tmp_path)
        rc = main(["audit-sample", "--checkpoint", str(tmp_path / "nope.ckpt"),
                   "--data", paths["dev"], "--out-dir", str(tmp_path / "o")])
        assert rc == 1
