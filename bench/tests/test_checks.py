"""Each output check passes on real hyponli output and catches a corrupted one.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import checks
import gen
from hyponli import cli, model
from hyponli.text import tokenize

SMALL = gen.CorpusSpec(vocab=300, zipf=1.05, length=(2, 6))
STATS_FLAGS = {"min_freq": 5, "top_k": 10, "grid_step": 0.01}
BAG_FLAGS = {"lr0": 0.5, "decay": 0.99, "divide": 5.0, "floor": 1e-5, "epochs": 3}


def make_splits(tmp_path, sizes, seed=0):
    rng = np.random.default_rng(seed)
    strings = gen.token_strings(SMALL)
    splits, paths = {}, {}
    for name, n in sizes.items():
        splits[name] = gen.generate(SMALL, n, rng, name)
        paths[name] = str(tmp_path / f"{name}.jsonl")
        gen.write_jsonl(splits[name], strings, paths[name])
    return splits, paths, strings


def edit_csv(path, row, col, fn):
    lines = open(path, encoding="utf-8").read().splitlines()
    cells = lines[row].split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_generator_is_seeded_and_its_text_tokenizes_back(tmp_path):
    a = gen.generate(SMALL, 200, np.random.default_rng(3), "x")
    b = gen.generate(SMALL, 200, np.random.default_rng(3), "x")
    assert np.array_equal(a.ids, b.ids) and np.array_equal(a.labels, b.labels)
    strings = gen.token_strings(SMALL)
    for toks in gen.sentence_tokens(a, strings):
        assert tokenize(gen.hypothesis_text(toks)) == toks
    assert 100 * max(gen.PRIOR) < gen.bayes_accuracy() < 100


@pytest.fixture(scope="module")
def stats_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("stats")
    splits, paths, strings = make_splits(tmp, {"data": 3000})
    out = tmp / "out"
    assert cli.main(["stats", "--data", paths["data"], "--out-dir", str(out),
                     "--min-freq", "5", "--top-k", "10", "--grid-step", "0.01"]) == 0
    expected = checks.expected_stats(splits["data"], strings, **STATS_FLAGS)
    return out, expected


def copy_dir(src, dst):
    dst.mkdir()
    for name in os.listdir(src):
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


def test_stats_outputs_pass(stats_run):
    out, expected = stats_run
    assert checks.check_stats(out, expected) == []


@pytest.mark.parametrize("name,row,col", [
    ("coverage.csv", 40, 2),          # one coverage y(x) off by one
    ("counts_summary.csv", 2, 2),     # one label's token occurrences
    ("giveaways.csv", 3, 3),          # one give-away frequency
])
def test_stats_check_catches_an_off_by_one(stats_run, tmp_path, name, row, col):
    out, expected = stats_run
    bad = copy_dir(out, tmp_path / "bad")
    edit_csv(bad / name, row, col, lambda v: str(int(v) + 1))
    assert checks.check_stats(bad, expected)


def test_stats_check_catches_swapped_giveaways(stats_run, tmp_path):
    out, expected = stats_run
    bad = copy_dir(out, tmp_path / "bad")
    lines = (bad / "giveaways.csv").read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    (bad / "giveaways.csv").write_text("\n".join(lines) + "\n")
    assert checks.check_stats(bad, expected)


def test_stats_check_catches_a_wrong_digest_column(stats_run, tmp_path):
    out, expected = stats_run
    bad = copy_dir(out, tmp_path / "bad")
    digest = (bad / "stats_digest.md").read_text()
    row = expected["digest"][1]
    cells = row.split(" | ")
    cells[2] = str(int(cells[2]) + 1)
    (bad / "stats_digest.md").write_text(digest.replace(row, " | ".join(cells)))
    assert checks.check_stats(bad, expected)


def test_coverage_invariants_catch_a_rising_curve():
    rows = [["label", "x", "y"], ["entailment", "0.0000", "5"],
            ["entailment", "0.0100", "6"], ["neutral", "0.0000", "3"],
            ["contradiction", "0.0000", "2"]]
    assert checks._coverage_invariants(rows, [5, 3, 2])
    rows[2][2] = "4"
    assert checks._coverage_invariants(rows, [5, 3, 2]) == []


def train_eval(tmp_path, encoder, sizes, extra):
    splits, paths, strings = make_splits(tmp_path, sizes, seed=5)
    out = tmp_path / "out"
    argv = ["train-eval", "--train", paths["train"], "--dev", paths["dev"],
            "--test", paths["test"], "--out-dir", str(out), "--encoder", encoder,
            "--finetune-embeddings", *extra]
    assert cli.main(argv) == 0
    return out, splits, strings


@pytest.fixture(scope="module")
def bag_run(tmp_path_factory):
    return train_eval(tmp_path_factory.mktemp("bag"), "bag",
                      {"train": 1500, "dev": 300, "test": 300},
                      ["--lr0", "0.5", "--max-epochs", "3"])


def check_bag(out, splits, strings, bayes=None):
    return checks.check_train_eval(out, splits, strings, BAG_FLAGS,
                                   gen.bayes_accuracy() if bayes is None else bayes)


def test_train_eval_outputs_pass(bag_run):
    assert check_bag(*bag_run) == []


@pytest.mark.parametrize("row,col", [(1, 3), (1, 4), (2, 4)])
def test_train_eval_check_catches_a_wrong_report_value(bag_run, tmp_path, row, col):
    out, splits, strings = bag_run
    bad = copy_dir(out, tmp_path / "bad")
    edit_csv(bad / "report.csv", row, col, lambda v: f"{float(v) + 0.2:.2f}")
    assert check_bag(bad, splits, strings)


def test_train_eval_check_catches_a_wrong_learning_rate(bag_run, tmp_path):
    out, splits, strings = bag_run
    bad = copy_dir(out, tmp_path / "bad")
    edit_csv(bad / "train_log.csv", 3, 1, lambda v: repr(float(v) / 5))
    assert check_bag(bad, splits, strings)


@pytest.mark.parametrize("mangle", [lambda b: b[:-8], lambda b: b + b"\0"])
def test_train_eval_check_rejects_a_malformed_checkpoint(bag_run, tmp_path, mangle):
    out, splits, strings = bag_run
    bad = copy_dir(out, tmp_path / "bad")
    (bad / "model.ckpt").write_bytes(mangle((bad / "model.ckpt").read_bytes()))
    assert check_bag(bad, splits, strings)


def test_train_eval_check_flags_accuracy_above_the_bayes_ceiling(bag_run):
    # As if the premises, which name the gold label, had leaked into the model.
    problems = check_bag(*bag_run, bayes=50.0)
    assert any("Bayes ceiling" in p for p in problems)


def test_train_eval_check_flags_a_model_at_the_majority_class(bag_run, tmp_path):
    out, splits, strings = bag_run
    bad = copy_dir(out, tmp_path / "bad")
    header_line, _, body = (bad / "model.ckpt").read_bytes().partition(b"\n")
    header = json.loads(header_line)
    arrays = np.frombuffer(body, "<f8").copy()
    # zero the output layer except a large bias on one label
    sizes = [int(np.prod(a["shape"])) for a in header["arrays"]]
    ends = np.cumsum(sizes)
    names = [a["name"] for a in header["arrays"]]
    w2 = names.index("mlp_w2")
    arrays[ends[w2] - sizes[w2]:ends[w2]] = 0.0
    b2 = names.index("mlp_b2")
    arrays[ends[b2] - sizes[b2]:ends[b2]] = [10.0, 0.0, 0.0]
    (bad / "model.ckpt").write_bytes(header_line + b"\n" + arrays.astype("<f8").tobytes())
    assert any("does not beat MAJ" in p for p in check_bag(bad, splits, strings))


def test_lr_schedule_rule():
    log = [["1", "0.5", "1.0", "40.0"], ["2", "0.495", "0.9", "60.0"],
           ["3", "0.49005", "0.8", "55.0"]]
    assert checks.check_lr_schedule(log, 0.5, 0.99, 5.0, 1e-5, 3) == []
    # epoch 3 declined, so epoch 4 must divide
    log.append(["4", "0.4851495", "0.8", "70.0"])
    assert checks.check_lr_schedule(log, 0.5, 0.99, 5.0, 1e-5, 4)
    log[3][1] = repr(0.49005 * 0.99 / 5)
    assert checks.check_lr_schedule(log, 0.5, 0.99, 5.0, 1e-5, 4) == []


def test_birnn_forward_matches_hyponli(tmp_path):
    out, splits, strings = train_eval(tmp_path, "birnn-maxpool",
                                      {"train": 60, "dev": 40, "test": 10},
                                      ["--max-epochs", "1", "--hidden-dim", "8"])
    header, arrays = checks.read_checkpoint(out / "model.ckpt")
    ours = checks.predict_labels(header, arrays, splits["dev"], strings)
    params = model.load_checkpoint(out / "model.ckpt")
    theirs = [model.predict(toks, params).label.index
              for toks in gen.sentence_tokens(splits["dev"], strings)]
    assert ours.tolist() == theirs


def test_traced_launch_counts_and_adds_up(tmp_path):
    splits, paths, _ = make_splits(tmp_path, {"data": 500})
    stamp = tmp_path / "stamp.json"
    bench = os.path.dirname(os.path.abspath(checks.__file__))
    src = os.path.join(os.path.dirname(bench), "src")
    subprocess.run([sys.executable, os.path.join(bench, "launch.py"),
                    str(stamp), "1", "--", "stats", "--data", paths["data"],
                    "--out-dir", str(tmp_path / "out")],
                   env=dict(os.environ, PYTHONPATH=src), check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    layers = json.loads(stamp.read_text())["layers"]
    assert layers["text.tokenize"][2] == 500
    assert layers["stats.coverage"][2] == 12
    assert layers["stats.count_corpus"][1] >= layers["text.tokenize"][1]
    for self_s, total_s, _, _ in layers.values():
        assert 0 <= self_s <= total_s
