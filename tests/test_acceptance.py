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

from conftest import make_instances
from reference import dense
from test_stats import brute_coverage, brute_giveaways, brute_p, brute_counts


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
            label = scheme.by_index(int(rng.integers(0, len(scheme)))).name
            pairs.append((sent, label))
        corpora.append((make_instances(pairs, scheme), scheme))
    return corpora


@pytest.fixture(scope="module")
def corpora_100():
    return _random_corpora()


def test_criterion_2_brute_force_equivalence(corpora_100):
    with criterion(2, "p(l|w), give-aways, and coverage match brute force exactly"):
        for instances, scheme in corpora_100:
            counts = stats.count_corpus(instances, scheme=scheme)
            occ, _, _ = brute_counts(instances)
            for tok in counts.tokens():
                for label in scheme.labels:
                    expected = brute_p(occ, tok, label.index, len(scheme))
                    assert stats.p_label_given_word(counts, tok, label) == expected
            got = stats.giveaway_words(counts, min_freq=2, top_k=10)
            expected = brute_giveaways(instances, scheme, min_freq=2, top_k=10)
            for label in scheme.labels:
                assert [(e.token, e.score, e.frequency) for e in got[label]] \
                    == expected[label]
            for label in scheme.labels:
                curve = stats.coverage_curve(counts, label, grid_step=0.1)
                assert curve.y == brute_coverage(instances, scheme, label, curve.grid)


def test_criterion_3_coverage_invariants(corpora_100):
    with criterion(3, "coverage curves: non-increasing, y(0)=count_l, 0 beyond 1"):
        for instances, scheme in corpora_100:
            counts = stats.count_corpus(instances, scheme=scheme)
            for label in scheme.labels:
                curve = stats.coverage_curve(counts, label, grid_step=0.05)
                assert all(a >= b for a, b in zip(curve.y, curve.y[1:]))
                assert curve.y[0] == counts.count_l(label)
                assert stats.coverage_count(counts, label, 1.0 + 1e-9) == 0


# --------------------------------------------------------------------------
# Criterion 4: backprop gradients match central finite differences within
# relative error 1e-4 at 5 random parameter draws, for both encoders.
# --------------------------------------------------------------------------

def _desk_scale_params(encoder, seed):
    vocab = text.Vocabulary()
    for i in range(10):
        vocab.add(f"t{i}")
    vocab.freeze()
    table = text.seeded_random_embeddings(vocab, 8, seed=seed)
    cfg = model.ModelConfig(encoder, embedding_dim=8, hidden_dim=4, mlp_hidden=8,
                            n_labels=3, seed=seed, finetune_embeddings=True)
    return model.ModelParameters.init(cfg, table, vocab, corpus.THREE_WAY)


def test_criterion_4_gradient_correctness():
    with criterion(4, "gradients match central finite differences (rel err < 1e-4)"):
        step = 1e-4
        for encoder in ("bag", "birnn-maxpool"):
            for draw in range(5):
                params = _desk_scale_params(encoder, seed=1000 + draw)
                rng = np.random.default_rng(500 + draw)
                rows, y = [], []
                for _ in range(3):
                    n = int(rng.integers(1, 7))
                    rows.append(params.vocab.encode([f"t{int(i)}"
                                                     for i in rng.integers(0, 10, n)]))
                    y.append(int(rng.integers(0, 3)))
                y = np.array(y)
                _, grads = model.loss_and_gradients(rows, y, params)
                for name in params.trainable_names():
                    flat = params.array(name).reshape(-1)
                    gflat = dense(grads[name], params.array(name)).reshape(-1)
                    for i in range(flat.size):
                        orig = flat[i]
                        flat[i] = orig + step
                        lp, _ = model.loss_and_gradients(rows, y, params)
                        flat[i] = orig - step
                        lm, _ = model.loss_and_gradients(rows, y, params)
                        flat[i] = orig
                        fd = (lp - lm) / (2 * step)
                        denom = max(abs(fd), abs(gflat[i]), 1e-6)
                        assert abs(fd - gflat[i]) / denom < 1e-4, \
                            (encoder, draw, name, i)


# --------------------------------------------------------------------------
# Criterion 5: exact learning-rate trajectories from scripted dev accuracies.
# --------------------------------------------------------------------------

def _examples(instances, vocab):
    """The (token-id arrays, label indices) pair train.fit takes."""
    return ([vocab.encode(text.tokenize(x.hypothesis)) for x in instances],
            np.array([x.label.index for x in instances], dtype=np.int64))


def _scripted(values):
    it = iter(values)
    return lambda params: next(it)


def test_criterion_5_schedule_trace():
    with criterion(5, "scripted schedules give the exact lr trajectories"):
        params_proto = _desk_scale_params("bag", seed=0)
        tr = _examples(make_instances([("a b", corpus.THREE_WAY.names[i % 3])
                                       for i in range(12)]), params_proto.vocab)
        dv = _examples(make_instances([("b a", corpus.THREE_WAY.names[i % 3])
                                       for i in range(6)]), params_proto.vocab)
        config = train.TrainConfig(max_epochs=20, batch_size=4, seed=0)

        # strictly increasing: all 20 epochs, lr after epoch e = 0.1 * 0.99^e
        _, state = train.fit(tr, dv, params_proto.clone(), config,
                             dev_eval=_scripted([float(i) for i in range(21)]))
        assert state.epoch == 20
        assert state.stop_reason == "max_epochs"
        lr = 0.1
        for epoch, lr_used, _, _ in state.history:
            assert lr_used == lr
            lr *= 0.99
        assert state.lr == lr

        # strictly decreasing: stops at epoch 6 with lr < 1e-5
        _, state = train.fit(tr, dv, params_proto.clone(), config,
                             dev_eval=_scripted([float(100 - i) for i in range(21)]))
        assert state.epoch == 6
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
    tr = synth.generate(spec, 10_000).split("train")
    dv = synth.generate(dataclasses.replace(spec, seed=spec.seed + 1), 1_000).split("train")
    te = synth.generate(dataclasses.replace(spec, seed=spec.seed + 2), 1_000).split("train")
    return tr, dv, te


def _train_bag(tr, dv, scheme):
    vocab, _ = text.intern([x.hypothesis for x in tr + dv])
    table = text.seeded_random_embeddings(vocab, 16, seed=7)
    cfg = model.ModelConfig("bag", embedding_dim=16, hidden_dim=4, mlp_hidden=64,
                            n_labels=3, seed=8, finetune_embeddings=True)
    params = model.ModelParameters.init(cfg, table, vocab, scheme)
    tcfg = train.TrainConfig(lr0=0.1, batch_size=64, seed=9)
    best, state = train.fit(_examples(tr, vocab), _examples(dv, vocab), params, tcfg)
    return best, state


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
        counts = stats.count_corpus(tr, scheme=scheme)
        lists = stats.giveaway_words(counts, min_freq=5, top_k=10)
        for i in range(3):
            assert lists[scheme.by_index(i)][0].token == f"give{i}"

        # (b) test accuracy beats majority and is within 2.0 of the oracle
        bayes = synth.bayes_accuracy(RECOVERY_SPEC)
        te_rows, te_y = _examples(te, best.vocab)
        preds = model.predict_batch(te_rows, best)
        acc = evaluate.accuracy(preds, te_y)
        maj = corpus.majority_label([x.label for x in tr])
        maj_acc = stats.majority_accuracy(te, maj)
        assert acc > maj_acc
        assert bayes - acc <= 2.0, (acc, bayes)

        # (c) with r = 0 the model collapses to the majority class
        spec0 = dataclasses.replace(
            RECOVERY_SPEC,
            giveaway=tuple((t, lab, 0.0) for t, lab, _ in RECOVERY_SPEC.giveaway))
        tr0, dv0, te0 = _generate_splits(spec0)
        best0, _ = _train_bag(tr0, dv0, spec0.scheme)
        te0_rows, te0_y = _examples(te0, best0.vocab)
        preds0 = model.predict_batch(te0_rows, best0)
        assert evaluate.constant_prediction_check(preds0) is True
        acc0 = evaluate.accuracy(preds0, te0_y)
        maj0_acc = stats.majority_accuracy(te0, corpus.majority_label([x.label for x in tr0]))
        assert abs(acc0 - maj0_acc) <= 1.5


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
            splits[name] = synth.generate(dataclasses.replace(spec, seed=s), n).split("train")
        assert len(splits["test"]) >= 1000
        rng = np.random.default_rng(77)
        perturbed = {name: [dataclasses.replace(inst, premise=_random_sentence(rng))
                            for inst in insts]
                     for name, insts in splits.items()}
        assert all(a.premise != b.premise
                   for name in splits for a, b in zip(splits[name], perturbed[name]))
        artifacts = ("train_log.csv", "model.ckpt", "report.md", "report.csv")
        contents = []
        for run, data in (("original", splits), ("perturbed", perturbed)):
            run_dir = tmp_path / run
            for name, insts in data.items():
                corpus.write_jsonl(insts, run_dir / f"{name}.jsonl")
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
    with criterion(8, "two identical train-eval runs are byte-identical"):
        spec = dataclasses.replace(RECOVERY_SPEC, seed=900)
        files = {}
        for name, n, s in (("train", 2000, 900), ("dev", 400, 901), ("test", 400, 902)):
            ds = synth.generate(dataclasses.replace(spec, seed=s), n)
            path = tmp_path / f"{name}.jsonl"
            corpus.write_jsonl(ds.split("train"), path)
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
        train_insts, _ = corpus.read_jsonl(train_path, snli_map, scheme)
        dev_insts, _ = corpus.read_jsonl(dev_path, snli_map, scheme)

        maj = corpus.majority_label([x.label for x in train_insts])
        maj_acc = stats.majority_accuracy(dev_insts, maj)
        assert abs(maj_acc - 33.82) <= 0.05

        counts = stats.count_corpus(dev_insts, scheme=scheme)
        contra = scheme.by_name("contradiction")
        lists = stats.giveaway_words(counts, min_freq=5, top_k=50)
        by_token = {e.token: e for e in lists[contra]}
        for token in ("sleeping", "Nobody"):
            assert token in by_token, token
            assert by_token[token].score >= 0.8

        subset = train_insts[:50_000]
        vocab, _ = text.intern([x.hypothesis for x in subset + dev_insts])
        table = text.seeded_random_embeddings(vocab, 50, seed=1)
        cfg = model.ModelConfig("bag", embedding_dim=50, hidden_dim=4,
                                mlp_hidden=64, n_labels=3, seed=2,
                                finetune_embeddings=True)
        params = model.ModelParameters.init(cfg, table, vocab, scheme)
        tcfg = train.TrainConfig(batch_size=64, seed=3)
        dev_examples = _examples(dev_insts, vocab)
        best, _ = train.fit(_examples(subset, vocab), dev_examples, params, tcfg)
        preds = model.predict_batch(dev_examples[0], best)
        acc = evaluate.accuracy(preds, dev_examples[1])
        assert acc >= 55.0
