"""The benchmark's hook points, read from bench/launch.py without changing it.

The traced benchmark wraps each hyponli function its LAYERS table names and
skips names that do not resolve, so a rename would silently drop a layer;
the untraced benchmark times setup up to the first corpus.read_jsonl call,
so a command that stopped calling it would fail every operation.
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


def test_stats_calls_the_patched_read_jsonl(tmp_path, monkeypatch):
    data = tmp_path / "d.jsonl"
    data.write_text(json.dumps({"premise": "p", "hypothesis": "a b",
                                "label": "neutral"}) + "\n", encoding="utf-8")
    calls = []
    original = corpus.read_jsonl

    def stamped(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(corpus, "read_jsonl", stamped)
    assert cli.main(["stats", "--data", str(data), "--out-dir", str(tmp_path / "out")]) == 0
    assert calls == [str(data)]
