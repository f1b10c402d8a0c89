"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 9 is dataset-dependent and skips unless HYPONLI_SNLI_DIR
points at a directory containing snli_1.0_train.jsonl and
snli_1.0_dev.jsonl.
"""

import dataclasses
import json
import math
import os
from contextlib import contextmanager

import numpy as np
import pytest

from hyponli import cli, corpus, evaluate, kernels, model, stats, synth, text, train

from helpers import (
    SCRIPTED_DEV, BestEpoch, as_csr, clone, discard, make_corpus, scripted_predictions,
)
from reference import dense, lookup, trainable_names
from test_stats import brute_coverage, brute_giveaways, brute_p, brute_counts, count_corpus


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] criterion {num}: FAIL - {title}")
        raise
    print(f"\n[ACCEPTANCE] criterion {num}: PASS - {title}")


# --------------------------------------------------------------------------
# Criterion 1: delta arithmetic reproduces every published (Hyp-Only, MAJ,
# |delta|, delta%) row within +-0.01.
# --------------------------------------------------------------------------

# (row, hyp_only, maj, printed_abs, printed_pct)
PUBLISHED_ROWS = [
    ("DPR dev", 50.21, 50.21, 0.00, 0.00),
    ("DPR test", 49.95, 49.95, 0.00, 0.00),
    ("SPR dev", 86.21, 65.27, 20.94, 32.08),
    ("SPR test", 86.57, 65.44, 21.13, 32.29),
    ("FN+ dev abs", 62.43, 56.79, 5.64, None),  # pct handled separately below
    ("FN+ test", 61.11, 57.48, 3.63, 6.32),
    ("ADD-1 dev", 75.10, 75.10, 0.00, 0.00),
    ("ADD-1 test", 85.27, 85.27, 0.00, 0.00),
    ("SciTail dev", 66.56, 50.38, 16.18, 32.12),
    ("SciTail test", 66.56, 60.04, 6.52, 10.86),
    ("SICK dev", 56.76, 56.76, 0.00, 0.00),
    ("SICK test", 56.87, 56.87, 0.00, 0.00),
    ("MPE dev", 40.20, 40.20, 0.00, 0.00),
    ("MPE test", 42.40, 42.40, 0.00, 0.00),
    ("JOCI dev", 61.64, 57.74, 3.90, 6.75),
    ("JOCI test", 62.61, 57.26, 5.35, 9.34),
    ("SNLI dev", 69.17, 33.82, 35.35, 104.52),
    ("SNLI test", 69.00, 34.28, 34.72, 101.28),
    ("MNLI-1 dev", 55.52, 35.45, 20.07, 56.61),
    ("MNLI-2 dev", 55.18, 35.22, 19.96, 56.67),
]


def test_criterion_1_delta_arithmetic():
    with criterion(1, "delta arithmetic reproduces the published table"):
        for row, hyp, maj, printed_abs, printed_pct in PUBLISHED_ROWS:
            abs_delta, pct_delta = evaluate.delta_report(hyp, maj)
            assert abs(abs(abs_delta) - printed_abs) <= 0.01, row
            if printed_pct is not None:
                assert abs(pct_delta - printed_pct) <= 0.01, row


@pytest.mark.xfail(
    strict=True,
    reason="published FN+ dev delta% (9.31) contradicts the row's own printed "
           "|delta| 5.64 and MAJ 56.79, which give 9.93; a transposition "
           "misprint in the source table",
)
def test_criterion_1_fnplus_dev_pct_misprint():
    _, pct_delta = evaluate.delta_report(62.43, 56.79)
    assert abs(pct_delta - 9.31) <= 0.01


def test_criterion_1_fnplus_dev_pct_self_consistent():
    # the recomputed value is consistent with the row's own |delta| column
    abs_delta, pct_delta = evaluate.delta_report(62.43, 56.79)
    assert abs(pct_delta - 100.0 * abs_delta / 56.79) < 1e-12
    assert abs(pct_delta - 9.93) <= 0.01


# --------------------------------------------------------------------------
# Criteria 2 and 3: equivalence with a brute-force recount/rescan and the
# coverage-curve invariants, over 100 random corpora.
# --------------------------------------------------------------------------

def _random_corpora():
    corpora = []
    rng = np.random.default_rng(2024)
    for k in range(100):
        scheme = corpus.THREE_WAY if k % 2 == 0 else corpus.TWO_WAY
        n_sentences = int(rng.integers(1, 51))
        vocab_size = int(rng.integers(2, 21))
        words = [f"t{i}" for i in range(vocab_size)]
        pairs = []
        for _ in range(n_sentences):
            length = int(rng.integers(1, 9))
            sent = " ".join(words[int(i)] for i in rng.integers(0, vocab_size, length))
            label = scheme.names[int(rng.integers(0, len(scheme)))]
            pairs.append((sent, label))
        corpora.append((make_corpus(pairs, scheme), scheme))
    return corpora


@pytest.fixture(scope="module")
def corpora_100():
    return _random_corpora()


def test_criterion_2_brute_force_equivalence(corpora_100):
    with criterion(2, "p(l|w), give-aways, and coverage match brute force exactly"):
        for data, scheme in corpora_100:
            counts = count_corpus(data, scheme)
            occ, _ = brute_counts(data)
            for tok in counts.vocab.tokens:
                row = counts.occ[counts.vocab.index[tok]]
                for label in range(len(scheme)):
                    expected = brute_p(occ, tok, label, len(scheme))
                    assert int(row[label]) / int(row.sum()) == expected
            got = stats.giveaway_words(counts, min_freq=2, top_k=10)
            expected = brute_giveaways(data, scheme, min_freq=2, top_k=10)
            for label in range(len(scheme)):
                assert [(e.token, e.score, e.frequency) for e in got[label]] \
                    == expected[label]
            for label in range(len(scheme)):
                curve = stats.coverage_curve(counts, label, grid_step=0.1)
                assert curve.y == brute_coverage(data, scheme, label, curve.grid)


def test_criterion_3_coverage_invariants(corpora_100):
    with criterion(3, "coverage curves: non-increasing, y(0)=count_l, 0 beyond 1"):
        for data, scheme in corpora_100:
            counts = count_corpus(data, scheme)
            for label in range(len(scheme)):
                curve = stats.coverage_curve(counts, label, grid_step=0.05)
                assert all(a >= b for a, b in zip(curve.y, curve.y[1:]))
                assert curve.y[0] == counts.label_sentences[label]
                assert stats.coverage_count(counts, label, 1.0 + 1e-9) == 0


# --------------------------------------------------------------------------
# Criterion 4: backprop gradients match central finite differences within
# relative error 1e-4 at 5 random parameter draws, for both encoders.
# --------------------------------------------------------------------------

def _desk_scale_params(encoder, seed):
    vocab = text.Vocabulary(f"t{i}" for i in range(10))
    table = text.seeded_random_embeddings(vocab, 8, seed=seed)
    cfg = model.ModelConfig(encoder, embedding_dim=8, hidden_dim=4, mlp_hidden=8,
                            seed=seed, finetune_embeddings=True)
    return model.ModelParameters.init(cfg, table, vocab, corpus.THREE_WAY)


def test_criterion_4_gradient_correctness():
    with criterion(4, "gradients match central finite differences (rel err < 1e-4)"):
        step = 1e-4
        for encoder in ("bag", "birnn-maxpool"):
            for draw in range(5):
                params = _desk_scale_params(encoder, seed=1000 + draw)
                rng = np.random.default_rng(500 + draw)
                sentences, y = [], []
                for _ in range(3):
                    n = int(rng.integers(1, 7))
                    sentences.append(lookup(params.vocab, [f"t{int(i)}"
                                                           for i in rng.integers(0, 10, n)]))
                    y.append(int(rng.integers(0, 3)))
                rows, tokens = as_csr(sentences)
                y = np.array(y)
                _, grads = model.loss_and_gradients(rows, tokens, y, params)
                for name in trainable_names(params):
                    flat = params.arrays[name].reshape(-1)
                    gflat = dense(grads[name], params.arrays[name]).reshape(-1)
                    for i in range(flat.size):
                        orig = flat[i]
                        flat[i] = orig + step
                        lp, _ = model.loss_and_gradients(rows, tokens, y, params)
                        flat[i] = orig - step
                        lm, _ = model.loss_and_gradients(rows, tokens, y, params)
                        flat[i] = orig
                        fd = (lp - lm) / (2 * step)
                        denom = max(abs(fd), abs(gflat[i]), 1e-6)
                        assert abs(fd - gflat[i]) / denom < 1e-4, \
                            (encoder, draw, name, i)


# --------------------------------------------------------------------------
# Criterion 5: exact learning-rate trajectories from scripted dev accuracies.
# --------------------------------------------------------------------------

def _examples(vocab, *splits):
    """The CSR token corpus of the splits' hypotheses, encoded with vocab,
    and the (rows, label indices) pair of each split, as train.fit takes
    them."""
    tokens = vocab.encode([h for data in splits for h in data.hypotheses])
    ends = np.cumsum([len(data) for data in splits])
    return tokens, [(np.arange(end - len(data), end), data.labels)
                    for data, end in zip(splits, ends)]


def test_criterion_5_schedule_trace():
    with criterion(5, "scripted schedules give the exact lr trajectories"):
        params_proto = _desk_scale_params("bag", seed=0)
        tokens, (tr,) = _examples(
            params_proto.vocab,
            make_corpus([("a b", corpus.THREE_WAY.names[i % 3]) for i in range(12)]))
        config = train.TrainConfig(max_epochs=20, batch_size=4, seed=0)

        # strictly increasing: all 20 epochs, lr after epoch e = 0.1 * 0.99^e
        state = train.fit(tr, SCRIPTED_DEV, tokens, clone(params_proto), config, discard,
                          predict=scripted_predictions(
                              SCRIPTED_DEV[1], [float(i) for i in range(21)]))
        assert len(state.history) == 20
        assert state.stop_reason == "max_epochs"
        lr = 0.1
        for epoch, lr_used, _, _ in state.history:
            assert lr_used == lr
            lr *= 0.99
        assert state.lr == lr

        # strictly decreasing: stops at epoch 6 with lr < 1e-5
        state = train.fit(tr, SCRIPTED_DEV, tokens, clone(params_proto), config, discard,
                          predict=scripted_predictions(
                              SCRIPTED_DEV[1], [float(100 - i) for i in range(21)]))
        assert len(state.history) == 6
        assert state.stop_reason == "lr_floor"
        assert state.lr < 1e-5
        lr = 0.1
        for _ in range(6):
            lr = lr * 0.99 / 5.0
        assert state.lr == lr


# --------------------------------------------------------------------------
# Criterion 6: end-to-end synthetic recovery.
# --------------------------------------------------------------------------

RECOVERY_SPEC = synth.SynthSpec(
    n_labels=3, label_prior=(0.4, 0.35, 0.25), vocab_size=20,
    sentence_length=(3, 5),
    giveaway=(("give0", 0, 0.6), ("give1", 1, 0.6), ("give2", 2, 0.6)),
    seed=100)


def _generate_splits(spec):
    tr = synth.generate(spec, 10_000)
    dv = synth.generate(dataclasses.replace(spec, seed=spec.seed + 1), 1_000)
    te = synth.generate(dataclasses.replace(spec, seed=spec.seed + 2), 1_000)
    return tr, dv, te


def _train_bag(tr, dv, scheme):
    vocab = text.intern(tr.hypotheses + dv.hypotheses)[0]
    table = text.seeded_random_embeddings(vocab, 16, seed=7)
    cfg = model.ModelConfig("bag", embedding_dim=16, hidden_dim=4, mlp_hidden=64,
                            seed=8, finetune_embeddings=True)
    params = model.ModelParameters.init(cfg, table, vocab, scheme)
    tcfg = train.TrainConfig(lr0=0.1, batch_size=64, seed=9)
    tokens, (tr_examples, dv_examples) = _examples(vocab, tr, dv)
    best = BestEpoch()
    state = train.fit(tr_examples, dv_examples, tokens, params, tcfg, best)
    return best.params, state


@pytest.fixture(scope="module")
def recovery_run():
    tr, dv, te = _generate_splits(RECOVERY_SPEC)
    best, state = _train_bag(tr, dv, RECOVERY_SPEC.scheme)
    return tr, dv, te, best, state


def test_criterion_6_synthetic_recovery(recovery_run):
    with criterion(6, "synthetic recovery: ranking, near-optimal accuracy, collapse"):
        tr, dv, te, best, _ = recovery_run
        scheme = RECOVERY_SPEC.scheme

        # (a) each injected token ranks first in its target label's list
        counts = count_corpus(tr, scheme)
        lists = stats.giveaway_words(counts, min_freq=5, top_k=10)
        for i in range(3):
            assert lists[i][0].token == f"give{i}"

        # (b) test accuracy beats majority and is within 2.0 of the oracle
        bayes = synth.bayes_accuracy(RECOVERY_SPEC)
        tokens, [(te_rows, te_y)] = _examples(best.vocab, te)
        preds = model.predict_batch(te_rows, tokens, best)
        acc = evaluate.accuracy(preds, te_y)
        maj = corpus.majority_label(tr.labels)
        maj_acc = evaluate.build_report("test", preds, te.labels, te.groups, scheme,
                                        maj).maj_acc
        assert acc > maj_acc
        assert bayes - acc <= 2.0, (acc, bayes)

        # (c) with r = 0 the model collapses to the majority class
        spec0 = dataclasses.replace(
            RECOVERY_SPEC,
            giveaway=tuple((t, lab, 0.0) for t, lab, _ in RECOVERY_SPEC.giveaway))
        tr0, dv0, te0 = _generate_splits(spec0)
        best0, _ = _train_bag(tr0, dv0, spec0.scheme)
        tokens0, [(te0_rows, te0_y)] = _examples(best0.vocab, te0)
        preds0 = model.predict_batch(te0_rows, tokens0, best0)
        report0 = evaluate.build_report("test", preds0, te0.labels, te0.groups, spec0.scheme,
                                        corpus.majority_label(tr0.labels))
        assert report0.constant_prediction is True
        acc0 = evaluate.accuracy(preds0, te0_y)
        assert abs(acc0 - report0.maj_acc) <= 1.5


def _birnn_recovery(tmp_path, *schedule):
    """(test hyp-only, test MAJ) from report.csv of a BiLSTM-max train-eval
    run through cli.main on RECOVERY_SPEC splits of 2,000 train, 400 dev
    and 400 test rows (spec seeds 100, 101, 102), 3 epochs at seed 0."""
    paths = {}
    for name, n, seed in (("train", 2000, 100), ("dev", 400, 101), ("test", 400, 102)):
        paths[name] = str(tmp_path / f"{name}.jsonl")
        corpus.write_jsonl(synth.generate(dataclasses.replace(RECOVERY_SPEC, seed=seed), n),
                           paths[name], RECOVERY_SPEC.scheme)
    out = tmp_path / "out"
    assert cli.main([
        "train-eval", "--train", paths["train"], "--dev", paths["dev"], "--test", paths["test"],
        "--out-dir", str(out), "--encoder", "birnn-maxpool", "--embedding-dim", "16",
        "--hidden-dim", "16", "--mlp-hidden", "32", "--finetune-embeddings",
        "--max-epochs", "3", "--seed", "0", *schedule]) == 0
    rows = (line.split(",") for line in (out / "report.csv").read_text().splitlines())
    hyp, maj = next(row[3:5] for row in rows if row[:2] == ["test", "overall"])
    return float(hyp), float(maj)


def _assert_recovers(hyp, maj):
    """Hyp-only beats MAJ by over 10 points and stays within 3 standard
    errors of the Bayes accuracy on the 400 test rows."""
    bayes = synth.bayes_accuracy(RECOVERY_SPEC)
    se = math.sqrt(bayes * (100.0 - bayes) / 400)
    assert hyp > maj + 10.0, (hyp, maj)
    assert hyp <= bayes + 3 * se, (hyp, bayes, se)


def test_criterion_6_birnn_recovery(tmp_path):
    with criterion(6, "synthetic recovery: the BiLSTM-max at lr0 1.0, batch 8, 3 epochs"):
        _assert_recovers(*_birnn_recovery(tmp_path, "--lr0", "1.0", "--batch-size", "8"))


@pytest.mark.xfail(strict=True, reason="undertrained: 3 epochs of 32 SGD steps at "
                                       "lr <= 0.1 leave the BiLSTM-max at MAJ")
def test_criterion_6_birnn_default_schedule(tmp_path):
    _assert_recovers(*_birnn_recovery(tmp_path))


# --------------------------------------------------------------------------
# Criterion 7: premise invariance, end to end. train-eval on corpora whose
# premises are replaced by random text writes the same bytes as on the
# originals, with a 1,000-instance test split.
# --------------------------------------------------------------------------

def _random_sentence(rng) -> str:
    """3-8 random lowercase words of 2-7 letters."""
    lengths = rng.integers(2, 8, int(rng.integers(3, 9)))
    return " ".join("".join(chr(ord("a") + int(c)) for c in rng.integers(0, 26, n))
                    for n in lengths)


def test_criterion_7_premise_invariance(tmp_path, monkeypatch):
    with criterion(7, "train-eval artifacts byte-identical under premise replacement"):
        spec = dataclasses.replace(RECOVERY_SPEC, seed=700)
        splits = {}
        for name, n, s in (("train", 2000, 700), ("dev", 400, 701), ("test", 1000, 702)):
            splits[name] = synth.generate(dataclasses.replace(spec, seed=s), n)
        assert len(splits["test"]) >= 1000
        rng = np.random.default_rng(77)
        perturbed = {name: dataclasses.replace(
                         data, premises=[_random_sentence(rng) for _ in data.premises])
                     for name, data in splits.items()}
        assert all(a != b for name in splits
                   for a, b in zip(splits[name].premises, perturbed[name].premises))
        artifacts = ("train_log.csv", "model.ckpt", "report.md", "report.csv")
        contents = []
        for run, corpora in (("original", splits), ("perturbed", perturbed)):
            run_dir = tmp_path / run
            for name, data in corpora.items():
                corpus.write_jsonl(data, run_dir / f"{name}.jsonl", spec.scheme)
            monkeypatch.chdir(run_dir)
            rc = cli.main([
                "train-eval", "--train", "train.jsonl", "--dev", "dev.jsonl",
                "--test", "test.jsonl", "--out-dir", "out", "--seed", "7",
                "--encoder", "bag", "--embedding-dim", "16", "--mlp-hidden", "32",
                "--max-epochs", "5", "--batch-size", "64", "--finetune-embeddings",
            ])
            assert rc == 0
            contents.append({name: (run_dir / "out" / name).read_bytes()
                             for name in artifacts})
        for name in artifacts:
            assert contents[0][name] == contents[1][name], name


# --------------------------------------------------------------------------
# Criterion 8: byte-identical artifacts from two identical train-eval runs.
# --------------------------------------------------------------------------

def test_criterion_8_cli_determinism(tmp_path):
    """Byte-identical checkpoints hold for one numpy build, one BLAS kernel
    and one thread count, as both runs here share them. Across thread
    counts they need not: at the default dimensions and batch 64, one and
    two OpenBLAS threads gave different bytes in every array of a BiLSTM
    checkpoint."""
    with criterion(8, "two identical train-eval runs are byte-identical"):
        spec = dataclasses.replace(RECOVERY_SPEC, seed=900)
        files = {}
        for name, n, s in (("train", 2000, 900), ("dev", 400, 901), ("test", 400, 902)):
            path = tmp_path / f"{name}.jsonl"
            corpus.write_jsonl(synth.generate(dataclasses.replace(spec, seed=s), n), path,
                               spec.scheme)
            files[name] = str(path)
        artifacts = ("train_log.csv", "model.ckpt", "report.md", "report.csv")
        contents = []
        for run in ("runA", "runB"):
            out = tmp_path / run
            rc = cli.main([
                "train-eval", "--train", files["train"], "--dev", files["dev"],
                "--test", files["test"], "--out-dir", str(out), "--seed", "5",
                "--encoder", "bag", "--embedding-dim", "16", "--mlp-hidden", "32",
                "--max-epochs", "8", "--batch-size", "64", "--finetune-embeddings",
            ])
            assert rc == 0
            contents.append({name: (out / name).read_bytes() for name in artifacts})
        for name in artifacts:
            assert contents[0][name] == contents[1][name], name


@pytest.mark.parametrize("vectors", ["seeded", "file"])
def test_reruns_on_frozen_vectors_are_byte_identical(tmp_path, vectors):
    """Criterion 8's rerun on the frozen runs, whose best-epoch snapshot
    shares the embedding matrix with the trained parameters: the default
    seeded random vectors, and --embeddings from a file of every other
    corpus token and no "<unk>" line, so its OOV row is the loaded rows'
    mean."""
    spec = dataclasses.replace(RECOVERY_SPEC, seed=900)
    files, hypotheses = {}, []
    for name, n, s in (("train", 2000, 900), ("dev", 400, 901), ("test", 400, 902)):
        data = synth.generate(dataclasses.replace(spec, seed=s), n)
        hypotheses += data.hypotheses
        files[name] = tmp_path / f"{name}.jsonl"
        corpus.write_jsonl(data, files[name], spec.scheme)
    args = ["train-eval", "--train", str(files["train"]), "--dev", str(files["dev"]),
            "--test", str(files["test"]), "--seed", "5", "--encoder", "bag",
            "--embedding-dim", "16", "--mlp-hidden", "32", "--max-epochs", "8",
            "--batch-size", "64"]
    if vectors == "file":
        tokens = text.intern(hypotheses)[0].tokens[::2]
        values = np.random.default_rng(903).standard_normal((len(tokens), 16)).tolist()
        path = tmp_path / "vectors.txt"
        path.write_text("".join(f"{token} {' '.join(map(repr, row))}\n"
                                for token, row in zip(tokens, values)), encoding="utf-8")
        args += ["--embeddings", str(path)]
    artifacts = ("train_log.csv", "model.ckpt", "report.md", "report.csv")
    contents = []
    for run in ("runA", "runB"):
        out = tmp_path / run
        assert cli.main([*args, "--out-dir", str(out)]) == 0
        contents.append({name: (out / name).read_bytes() for name in artifacts})
    for name in artifacts:
        assert contents[0][name] == contents[1][name], name


# --------------------------------------------------------------------------
# Criterion 9 (optional, dataset-dependent): checks against supplied
# SNLI-format files; skipped when the files are absent.
# --------------------------------------------------------------------------

def _snli_paths():
    root = os.environ.get("HYPONLI_SNLI_DIR")
    if not root:
        pytest.skip("HYPONLI_SNLI_DIR not set; dataset-dependent checks skipped")
    train_path = os.path.join(root, "snli_1.0_train.jsonl")
    dev_path = os.path.join(root, "snli_1.0_dev.jsonl")
    if not (os.path.exists(train_path) and os.path.exists(dev_path)):
        pytest.skip("SNLI files not found under HYPONLI_SNLI_DIR")
    return train_path, dev_path


def test_criterion_9_snli_checks():
    train_path, dev_path = _snli_paths()
    with criterion(9, "SNLI dev majority, hypothesis-only accuracy, give-aways"):
        scheme = corpus.THREE_WAY
        snli_map = corpus.FIELD_MAP_PRESETS["snli"]
        train_data, _ = corpus.read_jsonl(train_path, snli_map, scheme)
        dev_data, _ = corpus.read_jsonl(dev_path, snli_map, scheme)

        maj = corpus.majority_label(train_data.labels)
        maj_acc = evaluate.build_report("dev", dev_data.labels, dev_data.labels,
                                        dev_data.groups, scheme, maj).maj_acc
        assert abs(maj_acc - 33.82) <= 0.05

        counts = count_corpus(dev_data, scheme)
        contra = scheme.index["contradiction"]
        lists = stats.giveaway_words(counts, min_freq=5, top_k=50)
        by_token = {e.token: e for e in lists[contra]}
        for token in ("sleeping", "Nobody"):
            assert token in by_token, token
            assert by_token[token].score >= 0.8

        subset = train_data.take(np.arange(min(50_000, len(train_data))))
        vocab = text.intern(subset.hypotheses + dev_data.hypotheses)[0]
        table = text.seeded_random_embeddings(vocab, 50, seed=1)
        cfg = model.ModelConfig("bag", embedding_dim=50, hidden_dim=4,
                                mlp_hidden=64, seed=2,
                                finetune_embeddings=True)
        params = model.ModelParameters.init(cfg, table, vocab, scheme)
        tcfg = train.TrainConfig(batch_size=64, seed=3)
        tokens, (train_examples, dev_examples) = _examples(vocab, subset, dev_data)
        best = BestEpoch()
        train.fit(train_examples, dev_examples, tokens, params, tcfg, best)
        preds = model.predict_batch(dev_examples[0], tokens, best.params)
        acc = evaluate.accuracy(preds, dev_examples[1])
        assert acc >= 55.0
