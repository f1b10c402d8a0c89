"""The benchmark's hook points, read from bench/launch.py without changing it.

The traced benchmark wraps each hyponli function its LAYERS table names and
skips names that do not resolve, so a rename would silently drop a layer;
the untraced benchmark times setup up to the first corpus.read_jsonl call,
so a command that stopped calling it would fail every operation. The
benchmark's commands (stats, and train-eval with a test split) and
audit-sample read every input file through that module attribute, once
each, in argument order.
"""

import importlib
import importlib.util
import json
import os

import pytest

from hyponli import cli, corpus

LAUNCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "launch.py")

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
