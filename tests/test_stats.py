import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyponli import stats
from hyponli.corpus import THREE_WAY, TWO_WAY
from hyponli.stats import (
    count_corpus, coverage_count, coverage_curve, giveaway_words,
    majority_accuracy, p_label_given_word,
)
from hyponli.text import tokenize

from conftest import make_instances, random_corpus


# --- independent brute-force oracle, no LabelWordCounts involved ---

def brute_counts(instances):
    occ = {}
    presence = {}
    label_sent = {}
    for inst in instances:
        toks = tokenize(inst.hypothesis)
        li = inst.label
        label_sent[li] = label_sent.get(li, 0) + 1
        for tok in toks:
            occ[(tok, li)] = occ.get((tok, li), 0) + 1
        for tok in set(toks):
            presence[(tok, li)] = presence.get((tok, li), 0) + 1
    return occ, presence, label_sent


def brute_p(occ, token, label_index, n_labels):
    cw = sum(occ.get((token, li), 0) for li in range(n_labels))
    return occ.get((token, label_index), 0) / cw


def brute_giveaways(instances, scheme, min_freq, top_k):
    occ, _, _ = brute_counts(instances)
    tokens = []
    seen = set()
    for inst in instances:
        for tok in tokenize(inst.hypothesis):
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


def brute_coverage(instances, scheme, label, grid):
    """Rescan every sentence at every threshold."""
    occ, _, _ = brute_counts(instances)
    n_labels = len(scheme)
    ys = []
    for x in grid:
        count = 0
        for inst in instances:
            if inst.label != label:
                continue
            covered = False
            for tok in set(tokenize(inst.hypothesis)):
                if max(brute_p(occ, tok, li, n_labels) for li in range(n_labels)) >= x:
                    covered = True
                    break
            if covered:
                count += 1
        ys.append(count)
    return ys


class TestCountCorpus:
    def test_single_sentence_definitions(self):
        instances = make_instances([("a a b", "entailment")])
        counts = count_corpus(instances, scheme=THREE_WAY)
        e = THREE_WAY.index("entailment")
        assert counts.count_wl("a", e) == 2
        assert counts.presence_wl("a", e) == 1
        assert counts.count_wl("b", e) == 1
        assert counts.count_w("a") == 2
        assert counts.count_l(e) == 1
        assert counts.n_sentences == 1

    def test_empty_corpus(self):
        counts = count_corpus([], scheme=THREE_WAY)
        assert counts.n_sentences == 0
        assert all(counts.count_l(lab) == 0 for lab in range(len(THREE_WAY)))

    def test_six_sentence_fixture_matches_tally(self):
        pairs = [
            ("a b c", "entailment"), ("a a", "neutral"), ("b c c d", "contradiction"),
            ("d", "entailment"), ("a c", "neutral"), ("b b a", "contradiction"),
        ]
        instances = make_instances(pairs)
        counts = count_corpus(instances, scheme=THREE_WAY)
        occ, presence, label_sent = brute_counts(instances)
        for (tok, li), n in occ.items():
            assert counts.count_wl(tok, li) == n
        for (tok, li), n in presence.items():
            assert counts.presence_wl(tok, li) == n
        for li, n in label_sent.items():
            assert counts.count_l(li) == n

    def test_premises_untouched(self):
        instances = make_instances([("hyp only", "neutral")], premise="premise words here")
        counts = count_corpus(instances, scheme=THREE_WAY)
        assert counts.count_w("premise") == 0
        assert counts.count_w("hyp") == 1

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        instances = random_corpus(rng, 30)
        shuffled = list(instances)
        np.random.default_rng(1).shuffle(shuffled)
        a = count_corpus(instances, scheme=THREE_WAY)
        b = count_corpus(shuffled, scheme=THREE_WAY)
        assert set(a.tokens()) == set(b.tokens())
        for tok in a.tokens():
            for lab in range(len(THREE_WAY)):
                assert a.count_wl(tok, lab) == b.count_wl(tok, lab)
                assert a.presence_wl(tok, lab) == b.presence_wl(tok, lab)


class TestPLabelGivenWord:
    def test_degenerate_distribution(self):
        instances = make_instances([("w", "contradiction")] * 4)
        counts = count_corpus(instances, scheme=THREE_WAY)
        assert p_label_given_word(counts, "w", THREE_WAY.index("contradiction")) == 1.0

    def test_hand_arithmetic(self):
        pairs = [("w", "contradiction")] * 3 + [("w", "neutral")]
        counts = count_corpus(make_instances(pairs), scheme=THREE_WAY)
        assert p_label_given_word(counts, "w", THREE_WAY.index("contradiction")) == 0.75
        assert p_label_given_word(counts, "w", THREE_WAY.index("neutral")) == 0.25
        assert p_label_given_word(counts, "w", THREE_WAY.index("entailment")) == 0.0

    def test_unseen_token_raises(self):
        counts = count_corpus(make_instances([("a", "neutral")]), scheme=THREE_WAY)
        with pytest.raises(KeyError):
            p_label_given_word(counts, "zzz", 0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        instances = random_corpus(rng, 15)
        counts = count_corpus(instances, scheme=THREE_WAY)
        for tok in counts.tokens():
            ps = [p_label_given_word(counts, tok, lab) for lab in range(len(THREE_WAY))]
            assert all(0.0 <= p <= 1.0 for p in ps)
            assert abs(sum(ps) - 1.0) < 1e-12


class TestGiveawayWords:
    def test_fixture_score_and_freq(self):
        pairs = [("sleep x", "contradiction")] * 9 + [("sleep x", "neutral")]
        counts = count_corpus(make_instances(pairs), scheme=THREE_WAY)
        result = giveaway_words(counts, min_freq=5, top_k=10)
        contra = result[THREE_WAY.index("contradiction")]
        entry = next(e for e in contra if e.token == "sleep")
        assert entry.score == 0.9
        assert entry.frequency == 10

    def test_below_min_freq_excluded(self):
        pairs = [("rare common", "neutral")] * 4 + [("common", "neutral")] * 6
        counts = count_corpus(make_instances(pairs), scheme=THREE_WAY)
        result = giveaway_words(counts, min_freq=5, top_k=10)
        tokens = {e.token for entries in result.values() for e in entries}
        assert "rare" not in tokens
        assert "common" in tokens

    def test_token_in_at_most_one_list(self):
        rng = np.random.default_rng(11)
        counts = count_corpus(random_corpus(rng, 50), scheme=THREE_WAY)
        result = giveaway_words(counts, min_freq=2, top_k=50)
        seen = [e.token for entries in result.values() for e in entries]
        assert len(seen) == len(set(seen))

    @given(seed=st.integers(0, 10_000), min_freq=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_never_below_min_freq(self, seed, min_freq):
        rng = np.random.default_rng(seed)
        counts = count_corpus(random_corpus(rng, 25), scheme=THREE_WAY)
        result = giveaway_words(counts, min_freq=min_freq, top_k=10)
        for entries in result.values():
            assert all(e.frequency >= min_freq for e in entries)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        instances = random_corpus(rng, 40)
        counts = count_corpus(instances, scheme=THREE_WAY)
        got = giveaway_words(counts, min_freq=3, top_k=8)
        expected = brute_giveaways(instances, THREE_WAY, min_freq=3, top_k=8)
        for label in range(len(THREE_WAY)):
            assert [(e.token, e.score, e.frequency) for e in got[label]] == expected[label]


class TestCoverageCurve:
    def test_y0_equals_label_count(self):
        rng = np.random.default_rng(2)
        instances = random_corpus(rng, 25)
        counts = count_corpus(instances, scheme=THREE_WAY)
        for label in range(len(THREE_WAY)):
            curve = coverage_curve(counts, label, grid_step=0.1)
            assert curve.grid[0] == 0.0
            assert curve.y[0] == counts.count_l(label)

    def test_zero_beyond_one(self):
        counts = count_corpus(make_instances([("a", "neutral")]), scheme=THREE_WAY)
        assert coverage_count(counts, THREE_WAY.index("neutral"), 1.0 + 1e-9) == 0

    def test_non_increasing(self):
        rng = np.random.default_rng(3)
        counts = count_corpus(random_corpus(rng, 30), scheme=THREE_WAY)
        for label in range(len(THREE_WAY)):
            curve = coverage_curve(counts, label)
            assert all(a >= b for a, b in zip(curve.y, curve.y[1:]))

    def test_matches_brute_force_rescan(self):
        rng = np.random.default_rng(4)
        instances = random_corpus(rng, 20)
        counts = count_corpus(instances, scheme=THREE_WAY)
        for label in range(len(THREE_WAY)):
            curve = coverage_curve(counts, label, grid_step=0.05)
            assert curve.y == brute_coverage(instances, THREE_WAY, label, curve.grid)

    def test_empty_sentences_match_brute_force_rescan(self):
        # sentences without tokens, of every label, between non-empty ones
        rng = np.random.default_rng(6)
        blanks = make_instances([("   ", name) for name in THREE_WAY.names])
        instances = []
        for k, inst in enumerate(random_corpus(rng, 24)):
            instances += [inst, blanks[k % 3]] if k % 4 else [blanks[k % 3], inst]
        counts = count_corpus(instances, scheme=THREE_WAY)
        for label in range(len(THREE_WAY)):
            curve = coverage_curve(counts, label, grid_step=0.05)
            # an empty sentence scores 0.0: covered at threshold 0 only,
            # where the oracle, which needs a token, does not count it
            assert curve.y[0] == counts.count_l(label)
            assert curve.y[1:] == brute_coverage(instances, THREE_WAY, label,
                                                 curve.grid)[1:]

    def test_grid_ends_at_one(self):
        counts = count_corpus(make_instances([("a", "neutral")]), scheme=THREE_WAY)
        curve = coverage_curve(counts, THREE_WAY.index("neutral"), grid_step=0.3)
        assert curve.grid[-1] == 1.0
        assert curve.y[-1] == 1  # "a" occurs only under neutral, max p = 1.0

    def test_bad_step_rejected(self):
        counts = count_corpus(make_instances([("a", "neutral")]), scheme=THREE_WAY)
        with pytest.raises(ValueError):
            coverage_curve(counts, 0, grid_step=0.6)

    def test_per_label_variant(self):
        # "a" always neutral; "b" is 2/3 neutral, 1/3 contradiction
        pairs = [("a b", "neutral"), ("b", "neutral"), ("b", "contradiction")]
        counts = count_corpus(make_instances(pairs), scheme=THREE_WAY)
        contra = THREE_WAY.index("contradiction")
        # max-over-labels: the contradiction sentence contains b with max p = 2/3
        assert coverage_count(counts, contra, 0.5) == 1
        # per-label threshold: p(contradiction|b) = 1/3 < 0.5
        assert coverage_count(counts, contra, 0.5, per_label=True) == 0


class TestMajorityAccuracy:
    def test_simple(self):
        instances = make_instances([("a", "entailment"), ("b", "entailment"),
                                    ("c", "neutral")])
        acc = majority_accuracy(instances, THREE_WAY.index("entailment"))
        assert acc == pytest.approx(66.6667, abs=1e-3)

    def test_counted_on_synthetic_prior(self):
        rng = np.random.default_rng(8)
        draws = rng.choice(2, size=10_000, p=[0.6, 0.4])
        names = ["entailed", "not-entailed"]
        instances = make_instances([(f"h{i}", names[d]) for i, d in enumerate(draws)],
                                   scheme=TWO_WAY)
        maj = TWO_WAY.index("entailed")
        expected = 100.0 * int(np.sum(draws == 0)) / 10_000
        assert majority_accuracy(instances, maj) == expected
        assert abs(expected - 60.0) < 2.0  # sanity: near the prior

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            majority_accuracy([], 0)


class TestSerialization:
    def test_giveaways_csv(self):
        pairs = [("sleep", "contradiction")] * 6
        counts = count_corpus(make_instances(pairs), scheme=THREE_WAY)
        text = stats.giveaways_to_csv(giveaway_words(counts), THREE_WAY)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["label", "token", "score", "freq"]
        assert ["contradiction", "sleep", "1.000000", "6"] in rows

    def test_curves_csv(self):
        counts = count_corpus(make_instances([("a", "neutral")]), scheme=THREE_WAY)
        curve = coverage_curve(counts, THREE_WAY.index("neutral"), grid_step=0.5)
        text = stats.curves_to_csv([curve], THREE_WAY)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["label", "x", "y"]
        assert rows[1] == ["neutral", "0.0000", "1"]
        assert rows[-1] == ["neutral", "1.0000", "1"]

    def test_counts_summary(self):
        counts = count_corpus(make_instances([("a b", "neutral"), ("a", "entailment")]),
                              scheme=THREE_WAY)
        text = stats.counts_summary_csv(counts)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["label", "sentences", "token_occurrences", "distinct_tokens"]
        assert rows[-1][0] == "TOTAL"
        assert rows[-1][1] == "2"
