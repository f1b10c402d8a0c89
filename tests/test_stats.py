import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyponli import stats
from hyponli.corpus import THREE_WAY, TWO_WAY, ConfigError
from hyponli.evaluate import build_report
from hyponli.stats import coverage_count, coverage_curve, giveaway_words
from hyponli.text import tokenize

import reference
from helpers import make_corpus, random_corpus


def count_corpus(data, scheme=THREE_WAY, per_label=False):
    return stats.count_corpus(data.hypotheses, data.labels, scheme, per_label)


def occ_wl(counts, token, label):
    return int(counts.occ[counts.vocab.index[token], label])


def p_label_given_word(counts, token, label):
    row = counts.occ[counts.vocab.index[token]]
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
        e = THREE_WAY.index["entailment"]
        assert occ_wl(counts, "a", e) == 2
        assert occ_wl(counts, "b", e) == 1
        assert counts.occ[counts.vocab.index["a"]].sum() == 2
        assert counts.label_sentences[e] == 1
        assert counts.n_sentences == 1

    def test_empty_corpus(self):
        counts = stats.count_corpus([], [], THREE_WAY)
        assert counts.n_sentences == 0
        assert all(counts.label_sentences[lab] == 0 for lab in range(len(THREE_WAY)))

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
            assert counts.label_sentences[li] == n

    def test_premises_untouched(self):
        counts = count_corpus(make_corpus([("hyp only", "neutral")],
                                          premise="premise words here"))
        assert "premise" not in counts.vocab.index
        assert counts.occ[counts.vocab.index["hyp"]].sum() == 1

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
        assert p_label_given_word(counts, "w", THREE_WAY.index["contradiction"]) == 1.0

    def test_hand_arithmetic(self):
        pairs = [("w", "contradiction")] * 3 + [("w", "neutral")]
        counts = count_corpus(make_corpus(pairs))
        assert p_label_given_word(counts, "w", THREE_WAY.index["contradiction"]) == 0.75
        assert p_label_given_word(counts, "w", THREE_WAY.index["neutral"]) == 0.25
        assert p_label_given_word(counts, "w", THREE_WAY.index["entailment"]) == 0.0

    def test_unseen_token_has_no_row(self):
        counts = count_corpus(make_corpus([("a", "neutral")]))
        assert "zzz" not in counts.vocab.index
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
        contra = result[THREE_WAY.index["contradiction"]]
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

    @pytest.mark.parametrize("option, refusal", [
        ({"min_freq": 0}, "min_freq must be >= 1"), ({"top_k": 0}, "top_k must be >= 1, got 0")])
    def test_bad_option_rejected(self, option, refusal):
        counts = count_corpus(make_corpus([("a", "neutral")]))
        with pytest.raises(ConfigError) as err:
            giveaway_words(counts, **{"min_freq": 5, "top_k": 10, **option})
        assert (str(err.value), err.value.options) == (refusal, tuple(option))

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
            assert curve.y[0] == counts.label_sentences[label]

    def test_zero_beyond_one(self):
        counts = count_corpus(make_corpus([("a", "neutral")]))
        assert coverage_count(counts, THREE_WAY.index["neutral"], 1.0 + 1e-9) == 0

    def test_non_increasing(self):
        rng = np.random.default_rng(3)
        counts = count_corpus(random_corpus(rng, 30))
        for label in range(len(THREE_WAY)):
            curve = coverage_curve(counts, label, grid_step=0.01)
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
            assert curve.y[0] == counts.label_sentences[label]
            assert curve.y[1:] == brute_coverage(data, THREE_WAY, label,
                                                 curve.grid)[1:]

    def test_grid_ends_at_one(self):
        counts = count_corpus(make_corpus([("a", "neutral")]))
        curve = coverage_curve(counts, THREE_WAY.index["neutral"], grid_step=0.3)
        assert curve.grid[-1] == 1.0
        assert curve.y[-1] == 1  # "a" occurs only under neutral, max p = 1.0

    def test_bad_step_rejected(self):
        counts = count_corpus(make_corpus([("a", "neutral")]))
        with pytest.raises(ValueError):
            coverage_curve(counts, 0, grid_step=0.6)

    def test_per_label_variant(self):
        # "a" always neutral; "b" is 2/3 neutral, 1/3 contradiction
        pairs = [("a b", "neutral"), ("b", "neutral"), ("b", "contradiction")]
        data = make_corpus(pairs)
        contra = THREE_WAY.index["contradiction"]
        # max-over-labels: the contradiction sentence contains b with max p = 2/3
        assert coverage_count(count_corpus(data), contra, 0.5) == 1
        # per-label threshold: p(contradiction|b) = 1/3 < 0.5
        assert coverage_count(count_corpus(data, per_label=True), contra, 0.5) == 0


# Hypotheses over a few types, so that frequencies and scores tie often;
# " " and "." tokenize to nothing and to one mark.
hypotheses = st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "."]),
                      max_size=5).map(" ".join) | st.sampled_from(["", " ", "."])


@st.composite
def labelled(draw, n_labels=3):
    """(hypotheses, label indices), any label possibly absent."""
    rows = draw(st.lists(st.tuples(hypotheses, st.integers(0, n_labels - 1)), max_size=30))
    return [h for h, _ in rows], np.array([lab for _, lab in rows], dtype=np.int64)


class TestAgainstReference:
    """The array code against the loops it replaced, in tests/reference.py."""

    @given(data=labelled(), min_freq=st.integers(1, 4), top_k=st.integers(1, 4))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_giveaway_lists(self, data, min_freq, top_k):
        counts = stats.count_corpus(*data, THREE_WAY)
        assert (giveaway_words(counts, min_freq, top_k)
                == reference.giveaway_words(counts, min_freq, top_k))

    def test_giveaway_ties_at_the_cut_and_an_empty_bucket(self):
        # under entailment, b..g tie with a on frequency 2 and score 1.0, and
        # "x y" ties x and y on frequency 3 and score 2/3; neutral gets nothing
        pairs = ([("a", "entailment")] * 2 + [(w, "entailment") for w in "gfedcb" * 2]
                 + [("x y", "entailment")] * 2 + [("x y", "contradiction")])
        counts = count_corpus(make_corpus(pairs))
        for min_freq in (1, 2, 3, 4):
            for top_k in (1, 2, 3, 4, 8, 9):
                got = giveaway_words(counts, min_freq, top_k)
                assert got == reference.giveaway_words(counts, min_freq, top_k)
                assert got[THREE_WAY.index["neutral"]] == []
        top = giveaway_words(counts, min_freq=2, top_k=3)[THREE_WAY.index["entailment"]]
        assert [e.token for e in top] == ["x", "y", "a"]

    @given(data=labelled(), grid_step=st.sampled_from([0.3, 0.05, 0.5, 0.01]),
           extra=st.lists(st.floats(-0.5, 1.5), max_size=4))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_every_curve_and_count(self, data, grid_step, extra):
        """Each mode on its own counts object, so that the maxima of one
        mode can never answer for the other; thresholds on and off the grid
        (0.75 is off the 0.3 grid)."""
        for per_label in (False, True):
            counts = stats.count_corpus(*data, THREE_WAY, per_label)
            for label in range(len(THREE_WAY)):
                maxima = reference.sentence_maxima(*data, THREE_WAY, label, per_label)
                curve = coverage_curve(counts, label, grid_step)
                assert curve.y == [int(np.count_nonzero(maxima >= x)) for x in curve.grid]
                for x in [0.0, 0.5, 0.75, 1.0, 1.0 + 1e-9, *curve.grid[::7], *extra]:
                    assert coverage_count(counts, label, x) == np.count_nonzero(maxima >= x)

    @pytest.mark.parametrize("per_label", [False, True])
    def test_maxima_are_kept_and_read_only(self, per_label):
        counts = count_corpus(make_corpus([("a b", "neutral"), ("b", "entailment")]),
                              per_label=per_label)
        attributes = set(vars(counts))
        for label in range(len(THREE_WAY)):
            kept = counts.sorted_maxima(label)
            assert counts.sorted_maxima(label) is kept and not kept.flags.writeable
        # counting computed everything: reading the maxima sets nothing, and the
        # corpus (ids, indptr, sentence labels) is not kept
        assert set(vars(counts)) == attributes
        assert attributes == {"scheme", "vocab", "label_sentences", "occ", "freq", "_maxima"}

    @pytest.mark.parametrize("per_label", [False, True])
    @pytest.mark.parametrize("label", [-1, 3])
    def test_a_label_outside_the_scheme_is_refused(self, label, per_label):
        counts = count_corpus(make_corpus([("a", "neutral")]), per_label=per_label)
        with pytest.raises(ValueError, match="not a label index"):
            coverage_count(counts, label, 0.5)


def majority_accuracy(data, maj, scheme=THREE_WAY):
    """MAJ as train-eval reports it: build_report's rate of label maj."""
    return build_report("dev", data.labels, data.labels, data.groups, scheme, maj).maj_acc


class TestMajorityAccuracy:
    def test_simple(self):
        data = make_corpus([("a", "entailment"), ("b", "entailment"), ("c", "neutral")])
        acc = majority_accuracy(data, THREE_WAY.index["entailment"])
        assert acc == pytest.approx(66.6667, abs=1e-3)

    def test_counted_on_synthetic_prior(self):
        rng = np.random.default_rng(8)
        draws = rng.choice(2, size=10_000, p=[0.6, 0.4])
        names = ["entailed", "not-entailed"]
        data = make_corpus([(f"h{i}", names[d]) for i, d in enumerate(draws)],
                           scheme=TWO_WAY)
        maj = TWO_WAY.index["entailed"]
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
        text = stats.giveaways_to_csv(giveaway_words(counts, min_freq=5, top_k=10), THREE_WAY)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["label", "token", "score", "freq"]
        assert ["contradiction", "sleep", "1.000000", "6"] in rows

    def test_curves_csv(self):
        counts = count_corpus(make_corpus([("a", "neutral")]))
        curve = coverage_curve(counts, THREE_WAY.index["neutral"], grid_step=0.5)
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
