import os
import re

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from hyponli import corpus
from hyponli.corpus import THREE_WAY, TWO_WAY, majority_label
from hyponli.evaluate import (
    accuracy, build_report, confusion_sample, confusion_sample_text, delta_report, fmt2,
    report_csv, report_markdown,
)
from hyponli.model import ModelConfig, ModelParameters, loss_and_gradients
from hyponli.text import intern, seeded_random_embeddings

from helpers import make_corpus
from reference import report_tally

E, N, C = 0, 1, 2  # label indices in THREE_WAY


def report(pred, gold, groups=None, train_majority=E):
    """build_report on a dev split, every row ungrouped unless groups is given."""
    if groups is None:
        groups = [None] * len(gold)
    return build_report("dev", pred, np.asarray(gold, dtype=np.int64), groups, THREE_WAY,
                        train_majority)


def per_class_accuracy(pred, gold):
    return {c: hyp for c, (hyp, _) in report(pred, gold).per_class.items()}


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
        hyp, maj, pct = report(preds, gold, ["g"] * 4).per_group["g"]
        assert hyp == accuracy(preds, gold)
        assert maj == 50.0  # E is the within-group majority (tie with lower index)

    def test_two_known_groups(self):
        gold = [E, E, N, N, N, E]
        preds = [E, N, N, N, E, E]
        groups = ["a", "a", "a", "b", "b", "b"]
        out = report(preds, gold, groups).per_group
        hyp_a, maj_a, pct_a = out["a"]
        assert hyp_a == pytest.approx(100.0 * 2 / 3)
        assert maj_a == pytest.approx(100.0 * 2 / 3)  # E majority in group a
        assert pct_a == pytest.approx(0.0)
        hyp_b, maj_b, _ = out["b"]
        assert hyp_b == pytest.approx(100.0 * 2 / 3)
        assert maj_b == pytest.approx(100.0 * 2 / 3)  # N majority in group b


class TestConstantPrediction:
    def test_all_same(self):
        assert report([E, E, E], [E, N, C]).constant_prediction is True

    def test_mixed(self):
        assert report([E, N], [E, E]).constant_prediction is False

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            report([], [])


class TestReportTally:
    """Every build_report field equals a per-row tally of the same rows."""

    @given(data=st.data(), n_labels=st.sampled_from([2, 3]))
    @settings(max_examples=150, deadline=None)
    def test_matches_row_tally(self, data, n_labels):
        n = data.draw(st.integers(1, 40))
        label = st.integers(0, n_labels - 1)
        gold = data.draw(st.lists(label, min_size=n, max_size=n))
        pred = data.draw(st.lists(label, min_size=n, max_size=n))
        groups = data.draw(st.lists(st.sampled_from([None, "a", "b", "c"]),
                                    min_size=n, max_size=n))
        train_majority = data.draw(label)
        scheme = THREE_WAY if n_labels == 3 else TWO_WAY
        rep = build_report("dev", pred, np.array(gold, dtype=np.int64), groups, scheme,
                           train_majority)
        expected = report_tally(pred, gold, groups, train_majority)
        fields = {name: getattr(rep, name) for name in expected}
        fields["per_class"] = list(rep.per_class.items())
        fields["notes"] = len(rep.notes)
        assert fields == expected

    def test_label_outside_scheme_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            report([E, 3], [E, N])


def trained_params(seed=0):
    vocab = intern(["alpha beta gamma delta epsilon"])[0]
    table = seeded_random_embeddings(vocab, 6, seed=seed)
    cfg = ModelConfig("bag", embedding_dim=6, hidden_dim=2, mlp_hidden=4,
                      seed=seed)
    return ModelParameters.init(cfg, table, vocab, THREE_WAY)


class TestPremiseInvariance:
    def test_hypothesis_perturbation_changes_predictions(self):
        # witness: changing the hypothesis does change the prediction
        # (the loss of one example is a function of its logits)
        params = trained_params()
        y = np.array([0])
        rows = np.zeros(1, dtype=np.int64)
        a, _ = loss_and_gradients(rows, params.vocab.encode(["alpha beta"]), y, params)
        b, _ = loss_and_gradients(rows, params.vocab.encode(["gamma delta epsilon"]), y, params)
        assert a != b


class TestConfusionSample:
    def big_inputs(self):
        rng = np.random.default_rng(7)
        gold = rng.integers(0, 2, 600)
        preds = rng.integers(0, 2, 600)
        return preds, gold

    def test_four_cells_times_fifty(self):
        preds, gold = self.big_inputs()
        cells = confusion_sample(preds, gold, n_per_cell=50, seed=1)
        assert len(cells) == 4
        assert all(len(v) == 50 for v in cells.values())
        total = sum(len(v) for v in cells.values())
        assert total == 200

    def test_small_cell_capped(self):
        gold = [E, E, E, N]
        preds = [E, E, N, N]
        cells = confusion_sample(preds, gold, n_per_cell=50, seed=0)
        assert cells[(E, E)] == [0, 1]
        assert cells[(E, N)] == [2]
        assert cells[(N, N)] == [3]

    def test_deterministic(self):
        preds, gold = self.big_inputs()
        a = confusion_sample(preds, gold, n_per_cell=10, seed=9)
        b = confusion_sample(preds, gold, n_per_cell=10, seed=9)
        assert a == b

    def test_n_per_cell_below_one_rejected(self):
        with pytest.raises(corpus.ConfigError) as err:
            confusion_sample([E], [E], n_per_cell=0, seed=0)
        assert (str(err.value), err.value.options) == ("n_per_cell must be >= 1", ("n_per_cell",))

    def test_cells_partition_correctly(self):
        preds, gold = self.big_inputs()
        cells = confusion_sample(preds, gold, n_per_cell=25, seed=3)
        for (g, p), members in cells.items():
            assert len(set(members)) == len(members)  # without replacement
            for i in members:
                assert (gold[i], preds[i]) == (g, p)

    @given(rows=st.lists(st.tuples(st.text(alphabet="a \\\t\n\r", max_size=5),
                                   st.text(alphabet="b \\\t\n\r", max_size=5)),
                         min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_each_row_is_one_line_of_four_fields(self, rows):
        """A backslash, tab or line break in an id or a hypothesis is
        escaped, so each row splits into the four fields it was written from."""
        rows = [*rows, ("i", "a b\tc"), ("j", "line\nbreak")]
        ids, hypotheses = [i for i, _ in rows], [h for _, h in rows]
        gold = np.array([E, N] * len(rows))[:len(rows)]
        cells = confusion_sample(gold, gold, n_per_cell=len(rows), seed=0)
        lines = confusion_sample_text(cells, THREE_WAY, ids, hypotheses).split("\n")
        assert lines.pop() == "" and not any("\r" in line for line in lines)
        written = [line.split("\t") for line in lines if not line.startswith("# cell")]
        unescape = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
        assert [[re.sub(r"\\(.)", lambda m: unescape[m[1]], field) for field in fields]
                for fields in written] == [
            [ids[i], THREE_WAY.names[g], THREE_WAY.names[g], hypotheses[i]]
            for (g, _), members in cells.items() for i in members]


class TestFmt2:
    @pytest.mark.parametrize("value,expected", [
        (0.005, "0.01"), (-0.005, "-0.01"), (2.675, "2.68"),
        (32.081, "32.08"), (104.524, "104.52"), (None, "n/a"), (0.0, "0.00"),
        (np.float64(2.675), "2.68"), (np.float64(-0.005), "-0.01"),
    ])
    def test_round_half_away_from_zero(self, value, expected):
        assert fmt2(value) == expected


class TestReports:
    def setup_report(self):
        data = make_corpus([
            ("a", "entailment"), ("b", "entailment"), ("c", "neutral"),
            ("d", "contradiction"),
        ])
        preds = [E, E, N, N]
        maj = majority_label(data.labels)
        return build_report("dev", preds, data.labels, data.groups, THREE_WAY, maj)

    def test_delta_invariant(self):
        rep = self.setup_report()
        assert rep.abs_delta == pytest.approx(rep.hyp_only_acc - rep.maj_acc, abs=1e-9)
        assert rep.hyp_only_acc == 75.0
        assert rep.maj_acc == 50.0
        assert rep.pct_delta == pytest.approx(50.0)

    def test_per_class_contents(self):
        rep = self.setup_report()
        assert rep.per_class[E] == (100.0, 50.0)
        assert rep.per_class[N] == (100.0, 25.0)
        assert rep.per_class[C] == (0.0, 25.0)

    def test_majority_mode_note_when_differs(self):
        # train majority differs from the split's own mode
        data = make_corpus([("a", "neutral"), ("b", "neutral"), ("c", "entailment")])
        rep = build_report("dev", [N, N, E], data.labels, data.groups, THREE_WAY,
                           train_majority=E)
        assert rep.maj_acc == pytest.approx(100.0 / 3)
        assert len(rep.notes) == 1 and "('neutral', 66.67)" in rep.notes[0]

    def test_markdown_and_csv_render(self):
        rep = self.setup_report()
        md = report_markdown([rep], config_lines=["seed=0"])
        assert "| dev | 75.00 | 50.00 | 25.00 | 50.00 |" in md
        assert "seed=0" in md
        csv_text = report_csv([rep])
        assert csv_text.startswith("split,scope,key,")
        assert "dev,overall,,75.00,50.00,25.00,50.00,false" in csv_text

    def test_group_report(self):
        gold = np.array([E, E, N, N], dtype=np.int64)
        groups = ["aware", "aware", "moved", "moved"]
        rep = build_report("dev", [E, N, N, N], gold, groups, THREE_WAY, train_majority=E)
        assert rep.per_group is not None
        hyp, maj, _ = rep.per_group["aware"]
        assert hyp == 50.0 and maj == 100.0
        hyp, maj, pct = rep.per_group["moved"]
        assert hyp == 100.0 and maj == 100.0 and pct == 0.0

    def test_a_group_key_with_a_pipe_or_a_line_break_keeps_its_row(self):
        rep = build_report("dev", [E, N, N, N], np.array([E, E, N, N]),
                           ["a|b", "a|b", "c\nd", "c\nd"], THREE_WAY, train_majority=E)
        lines = report_markdown([rep], []).splitlines()
        assert lines[-2:] == ["| c<br>d | 100.00 | 100.00 | 0.00 |",
                              "| a\\|b | 50.00 | 100.00 | -50.00 |"]


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "report_golden")


def test_report_golden():
    """report.md, report.csv and the audit sample of 40 grouped instances
    and fixed predictions, byte for byte. The expected files were written by
    the Label-object implementation that preceded the label-index one. The
    data has a split mode (neutral) unlike the train majority (entailment),
    a class that is never predicted (contradiction), a tie inside a group
    (theme), ungrouped instances, and cells both over and under
    n_per_cell."""
    data, _ = corpus.read_jsonl(os.path.join(GOLDEN_DIR, "corpus.jsonl"),
                                corpus.FIELD_MAP_PRESETS["native"], THREE_WAY)
    with open(os.path.join(GOLDEN_DIR, "predictions.txt"), encoding="utf-8") as fh:
        pred = np.array([THREE_WAY.index[line.strip()] for line in fh])
    rep = build_report("dev", pred, data.labels, data.groups, THREE_WAY,
                       THREE_WAY.index["entailment"])
    cells = confusion_sample(pred, data.labels, n_per_cell=5, seed=3)
    written = {
        "report.md": report_markdown([rep], ["train_majority=entailment"]),
        "report.csv": report_csv([rep]),
        "audit_sample.txt": confusion_sample_text(cells, THREE_WAY, data.ids,
                                                  data.hypotheses),
    }
    for name, text_out in written.items():
        with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
            assert text_out.encode("utf-8") == fh.read(), name
