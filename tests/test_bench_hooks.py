"""The benchmark's hook points, read from bench/launch.py without changing it.

The traced benchmark wraps each hyponli function its LAYERS table names and
skips names that do not resolve, so a rename would silently drop a layer;
the untraced benchmark times setup up to the first corpus.read_jsonl call,
so a command that stopped calling it would fail every operation. The
benchmark's commands (stats, and train-eval with a test split) and
audit-sample read every input file through that module attribute, once
each, in argument order. Every command line bench/run.py builds must
parse, so each flag it passes (--seed to stats included) must stay. A
traced stats run, a traced bag run and a traced BiLSTM run must keep the
count rules bench/run.py checks, and the step count launch.py reads from
lstm_forward's first argument. bench/checks.py reads each model.ckpt
without hyponli, so the checkpoint's layout must stay what it parses, and
bounds accuracy with bench/gen.py's own Bayes ceiling, which synth's
closed form must give for the same prior and give-aways.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from hyponli import cli, corpus, model, synth, text

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
LAUNCH = os.path.join(BENCH, "launch.py")

# entries naming functions that hyponli no longer has
STALE = {("text", "build_vocabulary"), ("text", "EmbeddingTable.matrix_for"),
         ("evaluate", "premise_invariance_audit"), ("model", "predict")}


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_launch", LAUNCH)
    launch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launch)
    return launch.LAYERS


def resolves(module, attr):
    owner = importlib.import_module(f"hyponli.{module}")
    for name in attr.split("."):
        owner = getattr(owner, name, None)
    return callable(owner)


def test_only_the_known_stale_layers_do_not_resolve(layers):
    unresolved = {(module, attr) for _, module, attr, _ in layers
                  if not resolves(module, attr)}
    assert unresolved == STALE


def test_every_benchmark_command_line_parses(monkeypatch):
    """Bench.argv, run on each workload of bench/run.py's WORKLOADS with
    stand-in input paths, gives a command line cli's parser accepts and
    its option table resolves: every value converts and passes its check."""
    monkeypatch.syspath_prepend(BENCH)  # run.py imports its sibling modules by name
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(BENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    parser, _ = cli.build_parser()
    for name, workload in run.WORKLOADS.items():
        bench = types.SimpleNamespace(spec=workload, seed=7,
                                      paths={split: f"{split}.jsonl" for split in workload.sizes})
        given = vars(parser.parse_args(run.Bench.argv(bench, "out")))
        command = given.pop("command")
        resolved = cli._resolve(command, given)
        assert (command, resolved.seed, resolved.out_dir) == (workload.command, 7, "out"), name
        assert type(resolved.seed) is int, name


def write_records(path, labels):
    path.write_text("".join(json.dumps({"premise": "p", "hypothesis": f"a b{i % 3}",
                                        "label": label}) + "\n"
                            for i, label in enumerate(labels)), encoding="utf-8")
    return str(path)


@pytest.fixture
def read_calls(monkeypatch):
    """The path of each call into the patched corpus.read_jsonl, in order."""
    calls = []
    original = corpus.read_jsonl

    def stamped(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(corpus, "read_jsonl", stamped)
    return calls


def test_stats_calls_the_patched_read_jsonl(tmp_path, read_calls):
    data = write_records(tmp_path / "d.jsonl", ["neutral"])
    assert cli.main(["stats", "--data", data, "--out-dir", str(tmp_path / "out")]) == 0
    assert read_calls == [data]


def test_train_eval_and_audit_sample_call_it_once_per_file_in_order(tmp_path, read_calls):
    names = ("entailment", "neutral", "contradiction")
    files = {split: write_records(tmp_path / f"{split}.jsonl", [names[i % 3] for i in range(9)])
             for split in ("train", "dev", "test")}
    out = tmp_path / "out"
    assert cli.main(["train-eval", "--train", files["train"], "--dev", files["dev"],
                     "--test", files["test"], "--out-dir", str(out), "--max-epochs", "1",
                     "--embedding-dim", "4", "--mlp-hidden", "4"]) == 0
    assert read_calls == [files["train"], files["dev"], files["test"]]
    del read_calls[:]
    assert cli.main(["audit-sample", "--checkpoint", str(out / "model.ckpt"),
                     "--data", files["dev"], "--out-dir", str(tmp_path / "audit")]) == 0
    assert read_calls == [files["dev"]]


def traced_layers(tmp_path, argv):
    """The layers bench/launch.py records for one traced run of argv, in a
    subprocess because tracing rebinds module globals."""
    stamp = tmp_path / "stamp.json"
    subprocess.run([sys.executable, LAUNCH, str(stamp), "1", "--", *argv], check=True,
                   env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                   capture_output=True, timeout=120)
    return json.loads(stamp.read_text(encoding="utf-8"))["layers"]


@pytest.mark.parametrize("flags", [[], ["--per-label-threshold"]], ids=["max", "per-label"])
def test_traced_stats_run_keeps_the_benchmark_count_rules(tmp_path, flags):
    """bench/run.py checks text.tokenize.calls = sentences and
    stats.coverage.calls = 4 x labels (3 coverage_curve and 9
    coverage_count calls over 3 labels), so tokenize must run once per
    hypothesis through the module attribute, and cmd_stats must keep
    calling both coverage functions through the stats module, in either
    coverage mode."""
    names = ("entailment", "neutral", "contradiction")
    data = write_records(tmp_path / "d.jsonl", [names[i % 3] for i in range(11)]
                         + ["-"])  # a skipped record is never tokenized
    layers = traced_layers(tmp_path, ["stats", "--data", data, "--out-dir",
                                      str(tmp_path / "out"), "--min-freq", "1", *flags])
    assert layers["text.tokenize"][2] == 11
    assert layers["stats.coverage"][2] == 4 * len(names)
    assert layers["corpus.read_jsonl"][2] == layers["stats.count_corpus"][2] == 1


def test_traced_bag_run_keeps_the_benchmark_count_rules(tmp_path):
    """bench/run.py checks model.loss_and_gradients examples = epochs x
    train rows on bag-finetune, and the bag must never reach the LSTM
    kernels, whose count rule holds for the BiLSTM alone."""
    names = ("entailment", "neutral", "contradiction")
    sizes = {"train": 10, "dev": 6, "test": 5}
    files = {split: write_records(tmp_path / f"{split}.jsonl",
                                  [names[i % 3] for i in range(n)])
             for split, n in sizes.items()}
    out = tmp_path / "out"
    layers = traced_layers(tmp_path, [
        "train-eval", "--train", files["train"], "--dev", files["dev"], "--test",
        files["test"], "--out-dir", str(out), "--encoder", "bag", "--embedding-dim", "4",
        "--mlp-hidden", "4", "--max-epochs", "2", "--batch-size", "4",
        "--finetune-embeddings"])
    epochs = len((out / "train_log.csv").read_text().splitlines()) - 1
    assert layers["model.loss_and_gradients"][3] == epochs * sizes["train"]
    calls = lambda layer: layers.get(layer, [0, 0, 0, 0])[2]
    assert calls("model.loss_and_gradients") > 0
    assert calls("kernels.lstm_forward") == calls("kernels.lstm_backward") == 0


def test_traced_birnn_run_keeps_the_benchmark_count_rules(tmp_path):
    """bench/run.py counts examples as len(args[0]) of loss_and_gradients
    and checks kernels.lstm_forward.calls = 2 x (examples +
    model.predict.calls) and lstm_backward.calls = 2 x examples, so the
    batch's rows must come first. model.predict is gone and prediction
    runs the time-major recurrence, which calls neither kernel, so both
    sides of the first rule count training alone."""
    names = ("entailment", "neutral", "contradiction")
    sizes = {"train": 10, "dev": 6, "test": 5}
    files = {split: write_records(tmp_path / f"{split}.jsonl",
                                  [names[i % 3] for i in range(n)])
             for split, n in sizes.items()}
    out = tmp_path / "out"
    layers = traced_layers(tmp_path, [
        "train-eval", "--train", files["train"], "--dev", files["dev"], "--test",
        files["test"], "--out-dir", str(out), "--encoder", "birnn-maxpool", "--embedding-dim",
        "4", "--hidden-dim", "3", "--mlp-hidden", "4", "--max-epochs", "2", "--batch-size",
        "4", "--finetune-embeddings"])
    calls = lambda layer: layers.get(layer, [0, 0, 0, 0])[2]
    epochs = len((out / "train_log.csv").read_text().splitlines()) - 1
    examples = epochs * sizes["train"]
    assert layers["model.loss_and_gradients"][3] == examples
    # the rule as bench/run.py writes it, then the exact counts
    assert calls("kernels.lstm_forward") == 2 * (examples + calls("model.predict"))
    assert calls("model.predict") == 0
    assert calls("kernels.lstm_forward") == 2 * examples
    assert calls("kernels.lstm_backward") == 2 * examples
    # launch.py counts a call's steps as len(args[0]), so z must stay the
    # first argument; each hypothesis "a b{i}" is 2 tokens
    assert layers["kernels.lstm_forward"][3] == 2 * 2 * examples


@pytest.mark.parametrize("encoder", model.ENCODER_KINDS)
def test_the_benchmark_reads_a_checkpoint_as_hyponli_does(tmp_path, monkeypatch, encoder):
    """bench/checks.py parses model.ckpt on its own and recomputes every
    prediction from it: read_checkpoint's arrays must be load_checkpoint's
    bit for bit, and predict_labels reads config.encoder_kind and the vocab
    from the header. Were that layout to break, every benchmark operation
    would fail its output check."""
    monkeypatch.syspath_prepend(BENCH)  # checks.py imports gen by name
    spec = importlib.util.spec_from_file_location("bench_checks",
                                                  os.path.join(BENCH, "checks.py"))
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    names = ("entailment", "neutral", "contradiction")
    data = write_records(tmp_path / "d.jsonl", [names[i % 3] for i in range(9)])
    out = tmp_path / "out"
    assert cli.main(["train-eval", "--train", data, "--dev", data, "--out-dir", str(out),
                     "--encoder", encoder, "--embedding-dim", "4", "--hidden-dim", "3",
                     "--mlp-hidden", "4", "--max-epochs", "1"]) == 0
    header, arrays = checks.read_checkpoint(out / "model.ckpt")
    params = model.load_checkpoint(out / "model.ckpt")
    assert header["config"]["encoder_kind"] == params.config.encoder_kind == encoder
    assert header["vocab"] == params.vocab.tokens
    assert list(arrays) == params.array_names()
    for name, array in arrays.items():
        assert array.dtype == params.array(name).dtype
        assert array.shape == params.array(name).shape
        assert array.tobytes() == params.array(name).tobytes(), name
    # predict_labels runs on what it read, and agrees with hyponli
    dev, _ = corpus.read_jsonl(data, corpus.FIELD_MAP_PRESETS["native"], params.scheme)
    vocab, ids, indptr = text.intern(dev.hypotheses)
    recomputed = checks.predict_labels(header, arrays, checks.Split("dev", indptr, ids,
                                                                    dev.labels), vocab.tokens)
    rows = np.arange(len(dev))
    assert recomputed.tolist() == model.predict_batch(
        rows, params.vocab.encode(dev.hypotheses), params).tolist()


def test_the_closed_form_bayes_ceiling_matches_the_benchmark_enumeration(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_gen", os.path.join(BENCH, "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_gen", gen)  # its dataclasses look it up
    spec.loader.exec_module(gen)
    synth_spec = synth.SynthSpec(
        n_labels=len(gen.PRIOR), label_prior=gen.PRIOR, vocab_size=10, sentence_length=(1, 3),
        giveaway=[(f"g{i}", target, rate) for i, (target, rate) in enumerate(gen.GIVEAWAYS)],
        seed=0)
    assert gen.bayes_accuracy() == pytest.approx(87.825, abs=1e-12)
    assert abs(synth.bayes_accuracy(synth_spec) - gen.bayes_accuracy()) <= 1e-12
