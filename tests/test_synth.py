import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyponli import corpus, stats
from hyponli.synth import SynthSpec, bayes_accuracy, generate, read_spec
from hyponli.text import tokenize

import reference
from helpers import columns


def basic_spec(**overrides):
    kwargs = dict(
        n_labels=3,
        label_prior=(0.4, 0.35, 0.25),
        vocab_size=30,
        sentence_length=(4, 9),
        giveaway=(("give0", 0, 0.6), ("give1", 1, 0.6), ("give2", 2, 0.6)),
        seed=0,
    )
    kwargs.update(overrides)
    return SynthSpec(**kwargs)


class TestSpecValidation:
    def test_prior_must_sum_to_one(self):
        with pytest.raises(ValueError):
            basic_spec(label_prior=(0.5, 0.3, 0.3))

    def test_giveaway_tokens_distinct(self):
        with pytest.raises(ValueError):
            basic_spec(giveaway=(("x", 0, 0.5), ("x", 1, 0.5), ("y", 2, 0.5)))

    def test_giveaway_outside_background(self):
        with pytest.raises(ValueError):
            basic_spec(giveaway=(("w003", 0, 0.5),))

    def test_giveaway_survives_tokenizer(self):
        with pytest.raises(ValueError):
            basic_spec(giveaway=(("bad.", 0, 0.5),))

    def test_length_bounds(self):
        with pytest.raises(ValueError):
            basic_spec(sentence_length=(0, 3))
        with pytest.raises(ValueError):
            basic_spec(sentence_length=(5, 3))

    @pytest.mark.parametrize("overrides, refusal", [
        ({"n_labels": 4}, "synth spec key 'n_labels': 4 is not 2 or 3"),
        ({"label_prior": (0.5, 0.5)}, "synth spec key 'label_prior': has 2 entries for 3 labels"),
        ({"vocab_size": 0}, "synth spec key 'vocab_size': 0 is below 1"),
        ({"giveaway": (("g", 3, 0.5),)},
         "synth spec key 'giveaway': entry ('g', 3, 0.5): label 3 outside label range"),
    ], ids=["four-labels", "prior-length", "empty-vocabulary", "giveaway-label-range"])
    def test_refusal_names_the_key(self, overrides, refusal):
        with pytest.raises(ValueError) as err:
            basic_spec(**overrides)
        assert str(err.value) == refusal

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            basic_spec(giveaway=(("g", 0, 1.5),))

    @pytest.mark.parametrize("vocab_size, token, collides", [
        (10, "w009", True), (10, "w010", False), (10, "w0010", False),
        (1001, "w1000", True),
    ])
    def test_background_collision_at_the_edges(self, vocab_size, token, collides):
        """A token collides exactly when it is one of w000 .. w{vocab_size - 1:03d}."""
        def build():
            return basic_spec(vocab_size=vocab_size, giveaway=((token, 0, 0.5),))

        if collides:
            with pytest.raises(ValueError, match="collides with background"):
                build()
        else:
            assert build().giveaway == ((token, 0, 0.5),)

    def test_large_vocabulary_is_not_built(self):
        """Checking a spec does not materialise its background vocabulary."""
        tracemalloc.start()
        try:
            basic_spec(vocab_size=10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestGenerate:
    def test_rate_one_every_hypothesis_marked(self):
        spec = basic_spec(giveaway=(("g0", 0, 1.0), ("g1", 1, 1.0), ("g2", 2, 1.0)))
        data = generate(spec, 500)
        for hypothesis, label in zip(data.hypotheses, data.labels):
            assert f"g{label}" in tokenize(hypothesis)

    def test_rate_zero_never_appears(self):
        spec = basic_spec(giveaway=(("g0", 0, 0.0),))
        assert all("g0" not in tokenize(h) for h in generate(spec, 500).hypotheses)

    def test_injection_frequency_within_3_sigma(self):
        spec = basic_spec(n_labels=2, label_prior=(0.5, 0.5),
                          giveaway=(("g0", 0, 0.5),), seed=5)
        data = generate(spec, 10_000)
        label0 = data.take(np.flatnonzero(data.labels == 0)).hypotheses
        injected = sum(1 for h in label0 if "g0" in tokenize(h))
        n = len(label0)
        mean, sigma = 0.5 * n, np.sqrt(n * 0.25)
        assert abs(injected - mean) <= 3 * sigma

    def test_deterministic(self):
        a = generate(basic_spec(), 50)
        b = generate(basic_spec(), 50)
        assert columns(a) == columns(b)

    def test_round_trip_through_corpus_io(self, tmp_path):
        spec = basic_spec()
        data = generate(spec, 40)
        path = tmp_path / "synth.jsonl"
        corpus.write_jsonl(data, path, spec.scheme)
        back, skipped = corpus.read_jsonl(path, corpus.FIELD_MAP_PRESETS["native"],
                                          spec.scheme)
        assert skipped == 0
        assert columns(back) == columns(data)


class TestBayesAccuracy:
    def test_no_giveaways_is_max_prior(self):
        spec = basic_spec(giveaway=())
        assert bayes_accuracy(spec) == pytest.approx(40.0, abs=1e-12)

    def test_perfect_separability(self):
        spec = basic_spec(giveaway=(("g0", 0, 1.0), ("g1", 1, 1.0), ("g2", 2, 1.0)))
        assert bayes_accuracy(spec) == pytest.approx(100.0, abs=1e-12)

    def test_two_label_enumeration_and_monte_carlo(self):
        spec = SynthSpec(n_labels=2, label_prior=(0.5, 0.5), vocab_size=10,
                         sentence_length=(3, 5), giveaway=(("g0", 0, 0.4),), seed=1)
        bayes = bayes_accuracy(spec)
        # pattern enumeration by hand: {g0} -> 0.5*0.4; {} -> max(0.5*0.6, 0.5)
        assert bayes == pytest.approx(70.0, abs=1e-12)
        # Monte Carlo cross-check on 10^6 samples of the generative story
        rng = np.random.default_rng(0)
        labels = rng.random(1_000_000) < 0.5  # True = label 1
        present = (~labels) & (rng.random(1_000_000) < 0.4)
        # optimal rule: predict 0 if g0 present else 1 (tie at 0.5*0.6 vs 0.5 -> 1)
        correct = np.where(present, ~labels, labels)
        mc = 100.0 * correct.mean()
        assert abs(mc - bayes) < 0.1

    def test_never_below_max_prior(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            prior = rng.dirichlet(np.ones(3))
            prior = tuple(float(p) for p in prior / prior.sum())
            rates = rng.random(3)
            spec = SynthSpec(
                n_labels=3,
                label_prior=(prior[0], prior[1], 1.0 - prior[0] - prior[1]),
                vocab_size=10, sentence_length=(2, 4),
                giveaway=tuple((f"g{i}", i, float(rates[i])) for i in range(3)),
                seed=0)
            assert bayes_accuracy(spec) >= 100.0 * max(spec.label_prior) - 1e-9

    def test_monotone_in_rate(self):
        values = []
        for rate in np.linspace(0.0, 1.0, 11):
            spec = basic_spec(giveaway=(("g0", 0, float(rate)),))
            values.append(bayes_accuracy(spec))
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


@st.composite
def bayes_specs(draw):
    """2- and 3-label specs with 0-12 give-aways; rates 0 and 1 come often."""
    n_labels = draw(st.sampled_from((2, 3)))
    weights = draw(st.lists(st.integers(0, 9), min_size=n_labels, max_size=n_labels)
                   .filter(any))
    rates = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))
    giveaway = draw(st.lists(st.tuples(st.integers(0, n_labels - 1), rates), max_size=12))
    return SynthSpec(n_labels=n_labels, label_prior=[w / sum(weights) for w in weights],
                     vocab_size=10, sentence_length=(1, 3),
                     giveaway=[(f"g{i}", target, rate)
                               for i, (target, rate) in enumerate(giveaway)], seed=0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bayes_specs())
def test_closed_form_matches_pattern_enumeration(spec):
    assert abs(bayes_accuracy(spec) - reference.bayes_accuracy(spec)) <= 1e-12


class TestGiveawayRecovery:
    def test_rate_one_tokens_rank_first_with_score_one(self):
        spec = basic_spec(giveaway=(("g0", 0, 1.0), ("g1", 1, 1.0), ("g2", 2, 1.0)),
                          seed=9)
        data = generate(spec, 2000)
        counts = stats.count_corpus(data.hypotheses, data.labels, spec.scheme)
        lists = stats.giveaway_words(counts, min_freq=5, top_k=10)
        for i in range(3):
            top = lists[i][0]
            assert top.token == f"g{i}"
            assert top.score == 1.0


def write_spec(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestSpecSerialization:
    def test_dict_round_trip(self, tmp_path):
        spec = basic_spec()
        assert read_spec(write_spec(tmp_path / "s.json", dataclasses.asdict(spec))) == spec

    def test_label_names_accepted(self, tmp_path):
        data = dataclasses.asdict(basic_spec(n_labels=2, label_prior=(0.6, 0.4),
                                             giveaway=(("g0", 0, 0.5),)))
        data["giveaway"] = [["g0", "entailed", 0.5]]
        spec = read_spec(write_spec(tmp_path / "s.json", data))
        assert spec.giveaway == (("g0", 0, 0.5),)

    def test_a_spec_that_is_not_an_object_is_refused(self, tmp_path):
        path = write_spec(tmp_path / "s.json", [])
        with pytest.raises(corpus.ConfigError) as err:
            read_spec(path)
        assert str(err.value) == f"{path}: synth spec must be a JSON object"

    def test_giveaway_key_is_optional(self, tmp_path):
        data = dataclasses.asdict(basic_spec())
        del data["giveaway"]
        assert read_spec(write_spec(tmp_path / "s.json", data)) == basic_spec(giveaway=())
