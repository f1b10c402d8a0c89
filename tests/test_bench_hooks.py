"""The benchmark's hook points, read from bench/launch.py without changing it.

The traced benchmark wraps each hyponli function its LAYERS table names and
skips names that do not resolve, so a rename would silently drop a layer;
the untraced benchmark times setup up to the first corpus.read_jsonl call,
so a command that stopped calling it would fail every operation. The
benchmark's commands (stats, and train-eval with a test split) and
audit-sample read every input file through that module attribute, once
each, in argument order. A traced BiLSTM run must keep the count rules
bench/run.py checks.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from hyponli import cli, corpus

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAUNCH = os.path.join(ROOT, "bench", "launch.py")

# entries naming functions that hyponli no longer has
STALE = {("text", "build_vocabulary"), ("text", "EmbeddingTable.matrix_for"),
         ("evaluate", "premise_invariance_audit")}


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


def test_traced_birnn_run_keeps_the_benchmark_count_rules(tmp_path):
    """bench/run.py counts examples as len(args[0]) of loss_and_gradients
    and checks kernels.lstm_forward.calls = 2 x (examples +
    model.predict.calls), so the batch's rows must come first and the
    BiLSTM must predict through model.predict, once per sentence. The run
    is a subprocess because tracing rebinds module globals."""
    names = ("entailment", "neutral", "contradiction")
    sizes = {"train": 10, "dev": 6, "test": 5}
    files = {split: write_records(tmp_path / f"{split}.jsonl",
                                  [names[i % 3] for i in range(n)])
             for split, n in sizes.items()}
    stamp, out = tmp_path / "stamp.json", tmp_path / "out"
    argv = ["train-eval", "--train", files["train"], "--dev", files["dev"],
            "--test", files["test"], "--out-dir", str(out), "--encoder", "birnn-maxpool",
            "--embedding-dim", "4", "--hidden-dim", "3", "--mlp-hidden", "4",
            "--max-epochs", "2", "--batch-size", "4", "--finetune-embeddings"]
    subprocess.run([sys.executable, LAUNCH, str(stamp), "1", "--", *argv], check=True,
                   env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                   capture_output=True, timeout=120)
    layers = json.loads(stamp.read_text(encoding="utf-8"))["layers"]
    calls = lambda layer: layers.get(layer, [0, 0, 0, 0])[2]
    epochs = len((out / "train_log.csv").read_text().splitlines()) - 1
    examples = epochs * sizes["train"]
    assert layers["model.loss_and_gradients"][3] == examples
    # dev before training and after each epoch, then dev and test for the report
    predicted = (epochs + 2) * sizes["dev"] + sizes["test"]
    assert calls("model.predict") == predicted
    assert calls("kernels.lstm_forward") == 2 * (examples + predicted)
    assert calls("kernels.lstm_backward") == 2 * examples
