import os

import numpy as np
import pytest

from hyponli import corpus, evaluate
from hyponli.corpus import THREE_WAY, NLIInstance, majority_label
from hyponli.evaluate import (
    accuracy, build_report, confusion_sample, confusion_sample_text,
    constant_prediction_check, delta_report, fmt2, per_class_accuracy,
    per_group_accuracy, report_csv, report_markdown,
)
from hyponli.model import ModelConfig, ModelParameters, loss_and_gradients
from hyponli.text import intern, seeded_random_embeddings, tokenize

from conftest import make_instances

E, N, C = 0, 1, 2  # label indices in THREE_WAY


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([E, N, C], [E, N, C]) == 100.0

    def test_two_of_three(self):
        assert accuracy([E, N, C], [E, N, N]) == pytest.approx(66.6667, abs=1e-3)

    def test_counting_oracle_on_1000(self):
        rng = np.random.default_rng(0)
        gold = rng.integers(0, 3, 1000)
        preds = rng.integers(0, 3, 1000)
        expected = 100.0 * sum(p == g for p, g in zip(preds, gold)) / 1000
        assert accuracy(preds, gold) == expected

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([E], [E, N])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])


class TestDeltaReport:
    @pytest.mark.parametrize("hyp,maj,abs_exp,pct_exp", [
        (86.21, 65.27, 20.94, 32.08),   # recast proto-role dev row
        (69.17, 33.82, 35.35, 104.52),  # elicited 3-way dev row
        (50.21, 50.21, 0.00, 0.00),     # pronoun-recast dev row
    ])
    def test_published_rows(self, hyp, maj, abs_exp, pct_exp):
        abs_delta, pct_delta = delta_report(hyp, maj)
        assert abs_delta == pytest.approx(abs_exp, abs=0.005)
        assert pct_delta == pytest.approx(pct_exp, abs=0.005)

    def test_zero_majority_flags_pct(self):
        abs_delta, pct_delta = delta_report(42.0, 0.0)
        assert abs_delta == 42.0
        assert pct_delta is None

    def test_negative_majority_rejected(self):
        with pytest.raises(ValueError):
            delta_report(10.0, -1.0)


class TestPerClass:
    def test_perfect_single_class(self):
        assert per_class_accuracy([E, E], [E, E]) == {E: 100.0}

    def test_hand_tally_two_class(self):
        gold = [E, E, E, N, N]
        preds = [E, N, E, N, E]
        out = per_class_accuracy(preds, gold)
        assert out[E] == pytest.approx(100.0 * 2 / 3)
        assert out[N] == pytest.approx(50.0)

    def test_weighted_mean_equals_global(self):
        rng = np.random.default_rng(3)
        gold = rng.integers(0, 3, 200)
        preds = rng.integers(0, 3, 200)
        per = per_class_accuracy(preds, gold)
        weights = {lab: sum(1 for g in gold if g == lab) for lab in per}
        weighted = sum(per[lab] * weights[lab] for lab in per) / len(gold)
        assert weighted == pytest.approx(accuracy(preds, gold), abs=1e-9)


class TestPerGroup:
    def test_single_group_matches_global(self):
        gold = [E, N, E, C]
        preds = [E, N, N, C]
        out = per_group_accuracy(preds, gold, ["g"] * 4)
        hyp, maj, pct = out["g"]
        assert hyp == accuracy(preds, gold)
        assert maj == 50.0  # E is the within-group majority (tie with lower index)

    def test_two_known_groups(self):
        gold = [E, E, N, N, N, E]
        preds = [E, N, N, N, E, E]
        groups = ["a", "a", "a", "b", "b", "b"]
        out = per_group_accuracy(preds, gold, groups)
        hyp_a, maj_a, pct_a = out["a"]
        assert hyp_a == pytest.approx(100.0 * 2 / 3)
        assert maj_a == pytest.approx(100.0 * 2 / 3)  # E majority in group a
        assert pct_a == pytest.approx(0.0)
        hyp_b, maj_b, _ = out["b"]
        assert hyp_b == pytest.approx(100.0 * 2 / 3)
        assert maj_b == pytest.approx(100.0 * 2 / 3)  # N majority in group b


class TestConstantPrediction:
    def test_all_same(self):
        assert constant_prediction_check([E, E, E]) is True

    def test_mixed(self):
        assert constant_prediction_check([E, N]) is False

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            constant_prediction_check([])


def trained_params(seed=0):
    vocab, _ = intern(["alpha beta gamma delta epsilon"])
    table = seeded_random_embeddings(vocab, 6, seed=seed)
    cfg = ModelConfig("bag", embedding_dim=6, hidden_dim=2, mlp_hidden=4,
                      n_labels=3, seed=seed)
    return ModelParameters.init(cfg, table, vocab, THREE_WAY)


class TestPremiseInvariance:
    def test_hypothesis_perturbation_changes_predictions(self):
        # witness: changing the hypothesis does change the prediction
        # (the loss of one example is a function of its logits)
        params = trained_params()
        y = np.array([0])
        a, _ = loss_and_gradients([params.vocab.encode(tokenize("alpha beta"))], y, params)
        b, _ = loss_and_gradients([params.vocab.encode(tokenize("gamma delta epsilon"))], y,
                                  params)
        assert a != b


class TestConfusionSample:
    def big_inputs(self):
        rng = np.random.default_rng(7)
        gold = rng.integers(0, 2, 600)
        preds = rng.integers(0, 2, 600)
        ids = [f"x{i}" for i in range(600)]
        return preds, gold, ids

    def test_four_cells_times_fifty(self):
        preds, gold, ids = self.big_inputs()
        sample = confusion_sample(preds, gold, ids, n_per_cell=50, seed=1)
        assert len(sample.cells) == 4
        assert all(len(v) == 50 for v in sample.cells.values())
        total = sum(len(v) for v in sample.cells.values())
        assert total == 200

    def test_small_cell_capped(self):
        gold = [E, E, E, N]
        preds = [E, E, N, N]
        ids = ["a", "b", "c", "d"]
        sample = confusion_sample(preds, gold, ids, n_per_cell=50, seed=0)
        assert sample.cells[(E, E)] == ["a", "b"]
        assert sample.cells[(E, N)] == ["c"]
        assert sample.cells[(N, N)] == ["d"]

    def test_deterministic(self):
        preds, gold, ids = self.big_inputs()
        a = confusion_sample(preds, gold, ids, n_per_cell=10, seed=9)
        b = confusion_sample(preds, gold, ids, n_per_cell=10, seed=9)
        assert a.cells == b.cells

    def test_cells_partition_correctly(self):
        preds, gold, ids = self.big_inputs()
        truth = {iid: (g, p) for iid, g, p in zip(ids, gold, preds)}
        sample = confusion_sample(preds, gold, ids, n_per_cell=25, seed=3)
        for (g, p), members in sample.cells.items():
            assert len(set(members)) == len(members)  # without replacement
            for iid in members:
                assert truth[iid] == (g, p)


class TestFmt2:
    @pytest.mark.parametrize("value,expected", [
        (0.005, "0.01"), (-0.005, "-0.01"), (2.675, "2.68"),
        (32.081, "32.08"), (104.524, "104.52"), (None, "n/a"), (0.0, "0.00"),
    ])
    def test_round_half_away_from_zero(self, value, expected):
        assert fmt2(value) == expected


class TestReports:
    def setup_report(self):
        instances = make_instances([
            ("a", "entailment"), ("b", "entailment"), ("c", "neutral"),
            ("d", "contradiction"),
        ])
        preds = [E, E, N, N]
        maj = majority_label([inst.label for inst in instances]).index
        return build_report("dev", preds, instances, THREE_WAY, maj)

    def test_delta_invariant(self):
        rep = self.setup_report()
        assert rep.abs_delta == pytest.approx(rep.hyp_only_acc - rep.maj_acc, abs=1e-9)
        assert rep.hyp_only_acc == 75.0
        assert rep.maj_acc == 50.0
        assert rep.pct_delta == pytest.approx(50.0)

    def test_per_class_contents(self):
        rep = self.setup_report()
        by = THREE_WAY.by_index
        assert rep.per_class[by(E)] == (100.0, 50.0)
        assert rep.per_class[by(N)] == (100.0, 25.0)
        assert rep.per_class[by(C)] == (0.0, 25.0)

    def test_majority_mode_note_when_differs(self):
        # train majority differs from the split's own mode
        instances = make_instances([("a", "neutral"), ("b", "neutral"),
                                    ("c", "entailment")])
        rep = build_report("dev", [N, N, E], instances, THREE_WAY, train_majority=E)
        assert rep.maj_acc == pytest.approx(100.0 / 3)
        assert rep.split_mode_acc == pytest.approx(200.0 / 3)
        assert rep.notes

    def test_markdown_and_csv_render(self):
        rep = self.setup_report()
        md = report_markdown([rep], config_lines=["seed=0"])
        assert "| dev | 75.00 | 50.00 | 25.00 | 50.00 |" in md
        assert "seed=0" in md
        csv_text = report_csv([rep])
        assert csv_text.startswith("split,scope,key,")
        assert "dev,overall,,75.00,50.00,25.00,50.00,false" in csv_text

    def test_group_report(self):
        ent, neu = THREE_WAY.by_index(E), THREE_WAY.by_index(N)
        instances = [
            NLIInstance("p", "h1", ent, "1", group_key="aware"),
            NLIInstance("p", "h2", ent, "2", group_key="aware"),
            NLIInstance("p", "h3", neu, "3", group_key="moved"),
            NLIInstance("p", "h4", neu, "4", group_key="moved"),
        ]
        rep = build_report("dev", [E, N, N, N], instances, THREE_WAY, train_majority=E)
        assert rep.per_group is not None
        hyp, maj, _ = rep.per_group["aware"]
        assert hyp == 50.0 and maj == 100.0
        hyp, maj, pct = rep.per_group["moved"]
        assert hyp == 100.0 and maj == 100.0 and pct == 0.0


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "report_golden")


def test_report_golden():
    """report.md, report.csv and the audit sample of 40 grouped instances
    and fixed predictions, byte for byte. The expected files were written by
    the Label-object implementation that preceded the label-index one. The
    data has a split mode (neutral) unlike the train majority (entailment),
    a class that is never predicted (contradiction), a tie inside a group
    (theme), ungrouped instances, and cells both over and under
    n_per_cell."""
    instances, _ = corpus.read_jsonl(os.path.join(GOLDEN_DIR, "corpus.jsonl"),
                                     corpus.FIELD_MAP_PRESETS["native"], THREE_WAY)
    with open(os.path.join(GOLDEN_DIR, "predictions.txt"), encoding="utf-8") as fh:
        pred = np.array([THREE_WAY.by_name(line.strip()).index for line in fh])
    gold = np.array([inst.label.index for inst in instances])
    rep = build_report("dev", pred, instances, THREE_WAY,
                       THREE_WAY.by_name("entailment").index)
    sample = confusion_sample(pred, gold, [inst.instance_id for inst in instances],
                              n_per_cell=5, seed=3)
    written = {
        "report.md": report_markdown([rep], ["train_majority=entailment"]),
        "report.csv": report_csv([rep]),
        "audit_sample.txt": confusion_sample_text(
            sample, THREE_WAY, {inst.instance_id: inst for inst in instances}),
    }
    for name, text_out in written.items():
        with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
            assert text_out.encode("utf-8") == fh.read(), name
