import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyponli import stats
from hyponli.corpus import THREE_WAY, TWO_WAY
from hyponli.evaluate import build_report
from hyponli.stats import coverage_count, coverage_curve, giveaway_words
from hyponli.text import tokenize

from helpers import make_corpus, random_corpus


def count_corpus(data, scheme=THREE_WAY):
    return stats.count_corpus(data.hypotheses, data.labels, scheme)


def occ_wl(counts, token, label):
    return int(counts.occ[counts.vocab.get(token), label])


def p_label_given_word(counts, token, label):
    row = counts.occ[counts.vocab.get(token)]
    return int(row[label]) / int(row.sum())


# --- independent brute-force oracle, no LabelWordCounts involved ---

def rows_of(data):
    return zip(data.hypotheses, data.labels.tolist())


def brute_counts(data):
    occ = {}
    label_sent = {}
    for hypothesis, li in rows_of(data):
        label_sent[li] = label_sent.get(li, 0) + 1
        for tok in tokenize(hypothesis):
            occ[(tok, li)] = occ.get((tok, li), 0) + 1
    return occ, label_sent


def brute_p(occ, token, label_index, n_labels):
    cw = sum(occ.get((token, li), 0) for li in range(n_labels))
    return occ.get((token, label_index), 0) / cw


def brute_giveaways(data, scheme, min_freq, top_k):
    occ, _ = brute_counts(data)
    tokens = []
    seen = set()
    for hypothesis in data.hypotheses:
        for tok in tokenize(hypothesis):
            if tok not in seen:
                seen.add(tok)
                tokens.append(tok)
    result = {label: [] for label in range(len(scheme))}
    for tok in tokens:
        freq = sum(occ.get((tok, li), 0) for li in range(len(scheme)))
        if freq < min_freq:
            continue
        scores = [brute_p(occ, tok, li, len(scheme)) for li in range(len(scheme))]
        best = scores.index(max(scores))
        result[best].append((tok, scores[best], freq))
    out = {}
    for label, entries in result.items():
        entries.sort(key=lambda e: (-e[2], -e[1], e[0]))
        out[label] = entries[:top_k]
    return out


def brute_coverage(data, scheme, label, grid):
    """Rescan every sentence at every threshold."""
    occ, _ = brute_counts(data)
    n_labels = len(scheme)
    ys = []
    for x in grid:
        count = 0
        for hypothesis, gold in rows_of(data):
            if gold != label:
                continue
            covered = False
            for tok in set(tokenize(hypothesis)):
                if max(brute_p(occ, tok, li, n_labels) for li in range(n_labels)) >= x:
                    covered = True
                    break
            if covered:
                count += 1
        ys.append(count)
    return ys


class TestCountCorpus:
    def test_single_sentence_definitions(self):
        counts = count_corpus(make_corpus([("a a b", "entailment")]))
        e = THREE_WAY.index("entailment")
        assert occ_wl(counts, "a", e) == 2
        assert occ_wl(counts, "b", e) == 1
        assert counts.occ[counts.vocab.get("a")].sum() == 2
        assert counts.count_l(e) == 1
        assert counts.n_sentences == 1

    def test_empty_corpus(self):
        counts = stats.count_corpus([], [], THREE_WAY)
        assert counts.n_sentences == 0
        assert all(counts.count_l(lab) == 0 for lab in range(len(THREE_WAY)))

    def test_six_sentence_fixture_matches_tally(self):
        pairs = [
            ("a b c", "entailment"), ("a a", "neutral"), ("b c c d", "contradiction"),
            ("d", "entailment"), ("a c", "neutral"), ("b b a", "contradiction"),
        ]
        data = make_corpus(pairs)
        counts = count_corpus(data)
        occ, label_sent = brute_counts(data)
        for (tok, li), n in occ.items():
            assert occ_wl(counts, tok, li) == n
        for li, n in label_sent.items():
            assert counts.count_l(li) == n

    def test_premises_untouched(self):
        counts = count_corpus(make_corpus([("hyp only", "neutral")],
                                          premise="premise words here"))
        assert counts.vocab.get("premise") is None
        assert counts.occ[counts.vocab.get("hyp")].sum() == 1

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        data = random_corpus(rng, 30)
        a = count_corpus(data)
        b = count_corpus(data.take(np.random.default_rng(1).permutation(len(data))))
        assert set(a.vocab.tokens) == set(b.vocab.tokens)
        for tok in a.vocab.tokens:
            for lab in range(len(THREE_WAY)):
                assert occ_wl(a, tok, lab) == occ_wl(b, tok, lab)


class TestPLabelGivenWord:
    def test_degenerate_distribution(self):
        counts = count_corpus(make_corpus([("w", "contradiction")] * 4))
        assert p_label_given_word(counts, "w", THREE_WAY.index("contradiction")) == 1.0

    def test_hand_arithmetic(self):
        pairs = [("w", "contradiction")] * 3 + [("w", "neutral")]
        counts = count_corpus(make_corpus(pairs))
        assert p_label_given_word(counts, "w", THREE_WAY.index("contradiction")) == 0.75
        assert p_label_given_word(counts, "w", THREE_WAY.index("neutral")) == 0.25
        assert p_label_given_word(counts, "w", THREE_WAY.index("entailment")) == 0.0

    def test_unseen_token_has_no_row(self):
        counts = count_corpus(make_corpus([("a", "neutral")]))
        assert counts.vocab.get("zzz") is None
        assert counts.occ.shape == (1, len(THREE_WAY))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        counts = count_corpus(random_corpus(rng, 15))
        for tok in counts.vocab.tokens:
            ps = [p_label_given_word(counts, tok, lab) for lab in range(len(THREE_WAY))]
            assert all(0.0 <= p <= 1.0 for p in ps)
            assert abs(sum(ps) - 1.0) < 1e-12


class TestGiveawayWords:
    def test_fixture_score_and_freq(self):
        pairs = [("sleep x", "contradiction")] * 9 + [("sleep x", "neutral")]
        counts = count_corpus(make_corpus(pairs))
        result = giveaway_words(counts, min_freq=5, top_k=10)
        contra = result[THREE_WAY.index("contradiction")]
        entry = next(e for e in contra if e.token == "sleep")
        assert entry.score == 0.9
        assert entry.frequency == 10

    def test_below_min_freq_excluded(self):
        pairs = [("rare common", "neutral")] * 4 + [("common", "neutral")] * 6
        counts = count_corpus(make_corpus(pairs))
        result = giveaway_words(counts, min_freq=5, top_k=10)
        tokens = {e.token for entries in result.values() for e in entries}
        assert "rare" not in tokens
        assert "common" in tokens

    def test_token_in_at_most_one_list(self):
        rng = np.random.default_rng(11)
        counts = count_corpus(random_corpus(rng, 50))
        result = giveaway_words(counts, min_freq=2, top_k=50)
        seen = [e.token for entries in result.values() for e in entries]
        assert len(seen) == len(set(seen))

    @given(seed=st.integers(0, 10_000), min_freq=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_never_below_min_freq(self, seed, min_freq):
        rng = np.random.default_rng(seed)
        counts = count_corpus(random_corpus(rng, 25))
        result = giveaway_words(counts, min_freq=min_freq, top_k=10)
        for entries in result.values():
            assert all(e.frequency >= min_freq for e in entries)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        data = random_corpus(rng, 40)
        counts = count_corpus(data)
        got = giveaway_words(counts, min_freq=3, top_k=8)
        expected = brute_giveaways(data, THREE_WAY, min_freq=3, top_k=8)
        for label in range(len(THREE_WAY)):
            assert [(e.token, e.score, e.frequency) for e in got[label]] == expected[label]


class TestCoverageCurve:
    def test_y0_equals_label_count(self):
        rng = np.random.default_rng(2)
        data = random_corpus(rng, 25)
        counts = count_corpus(data)
        for label in range(len(THREE_WAY)):
            curve = coverage_curve(counts, label, grid_step=0.1)
            assert curve.grid[0] == 0.0
            assert curve.y[0] == counts.count_l(label)

    def test_zero_beyond_one(self):
        counts = count_corpus(make_corpus([("a", "neutral")]))
        assert coverage_count(counts, THREE_WAY.index("neutral"), 1.0 + 1e-9) == 0

    def test_non_increasing(self):
        rng = np.random.default_rng(3)
        counts = count_corpus(random_corpus(rng, 30))
        for label in range(len(THREE_WAY)):
            curve = coverage_curve(counts, label)
            assert all(a >= b for a, b in zip(curve.y, curve.y[1:]))

    def test_matches_brute_force_rescan(self):
        rng = np.random.default_rng(4)
        data = random_corpus(rng, 20)
        counts = count_corpus(data)
        for label in range(len(THREE_WAY)):
            curve = coverage_curve(counts, label, grid_step=0.05)
            assert curve.y == brute_coverage(data, THREE_WAY, label, curve.grid)

    def test_empty_sentences_match_brute_force_rescan(self):
        # sentences without tokens, of every label, between non-empty ones
        rng = np.random.default_rng(6)
        blanks = [("   ", name) for name in THREE_WAY.names]
        pairs = []
        for k, (hyp, li) in enumerate(rows_of(random_corpus(rng, 24))):
            pair = (hyp, THREE_WAY.names[li])
            pairs += [pair, blanks[k % 3]] if k % 4 else [blanks[k % 3], pair]
        data = make_corpus(pairs)
        counts = count_corpus(data)
        for label in range(len(THREE_WAY)):
            curve = coverage_curve(counts, label, grid_step=0.05)
            # an empty sentence scores 0.0: covered at threshold 0 only,
            # where the oracle, which needs a token, does not count it
            assert curve.y[0] == counts.count_l(label)
            assert curve.y[1:] == brute_coverage(data, THREE_WAY, label,
                                                 curve.grid)[1:]

    def test_grid_ends_at_one(self):
        counts = count_corpus(make_corpus([("a", "neutral")]))
        curve = coverage_curve(counts, THREE_WAY.index("neutral"), grid_step=0.3)
        assert curve.grid[-1] == 1.0
        assert curve.y[-1] == 1  # "a" occurs only under neutral, max p = 1.0

    def test_bad_step_rejected(self):
        counts = count_corpus(make_corpus([("a", "neutral")]))
        with pytest.raises(ValueError):
            coverage_curve(counts, 0, grid_step=0.6)

    def test_per_label_variant(self):
        # "a" always neutral; "b" is 2/3 neutral, 1/3 contradiction
        pairs = [("a b", "neutral"), ("b", "neutral"), ("b", "contradiction")]
        counts = count_corpus(make_corpus(pairs))
        contra = THREE_WAY.index("contradiction")
        # max-over-labels: the contradiction sentence contains b with max p = 2/3
        assert coverage_count(counts, contra, 0.5) == 1
        # per-label threshold: p(contradiction|b) = 1/3 < 0.5
        assert coverage_count(counts, contra, 0.5, per_label=True) == 0


def majority_accuracy(data, maj, scheme=THREE_WAY):
    """MAJ as train-eval reports it: build_report's rate of label maj."""
    return build_report("dev", data.labels, data.labels, data.groups, scheme, maj).maj_acc


class TestMajorityAccuracy:
    def test_simple(self):
        data = make_corpus([("a", "entailment"), ("b", "entailment"), ("c", "neutral")])
        acc = majority_accuracy(data, THREE_WAY.index("entailment"))
        assert acc == pytest.approx(66.6667, abs=1e-3)

    def test_counted_on_synthetic_prior(self):
        rng = np.random.default_rng(8)
        draws = rng.choice(2, size=10_000, p=[0.6, 0.4])
        names = ["entailed", "not-entailed"]
        data = make_corpus([(f"h{i}", names[d]) for i, d in enumerate(draws)],
                           scheme=TWO_WAY)
        maj = TWO_WAY.index("entailed")
        expected = 100.0 * int(np.sum(draws == 0)) / 10_000
        assert majority_accuracy(data, maj, TWO_WAY) == expected
        assert abs(expected - 60.0) < 2.0  # sanity: near the prior

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            majority_accuracy(make_corpus([]), 0)


class TestSerialization:
    def test_giveaways_csv(self):
        pairs = [("sleep", "contradiction")] * 6
        counts = count_corpus(make_corpus(pairs))
        text = stats.giveaways_to_csv(giveaway_words(counts), THREE_WAY)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["label", "token", "score", "freq"]
        assert ["contradiction", "sleep", "1.000000", "6"] in rows

    def test_curves_csv(self):
        counts = count_corpus(make_corpus([("a", "neutral")]))
        curve = coverage_curve(counts, THREE_WAY.index("neutral"), grid_step=0.5)
        text = stats.curves_to_csv([curve], THREE_WAY)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["label", "x", "y"]
        assert rows[1] == ["neutral", "0.0000", "1"]
        assert rows[-1] == ["neutral", "1.0000", "1"]

    def test_counts_summary(self):
        counts = count_corpus(make_corpus([("a b", "neutral"), ("a", "entailment")]))
        text = stats.counts_summary_csv(counts)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["label", "sentences", "token_occurrences", "distinct_tokens"]
        assert rows[-1][0] == "TOTAL"
        assert rows[-1][1] == "2"
