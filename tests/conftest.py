import numpy as np
import pytest

from hyponli.corpus import THREE_WAY, TWO_WAY, NLIInstance


@pytest.fixture
def three_way():
    return THREE_WAY


@pytest.fixture
def two_way():
    return TWO_WAY


def make_instances(pairs, scheme=THREE_WAY, premise="p"):
    """Build instances from (hypothesis, label_name) pairs."""
    return [
        NLIInstance(premise=premise, hypothesis=hyp, label=scheme.index(name),
                    instance_id=f"i{k}")
        for k, (hyp, name) in enumerate(pairs)
    ]


def random_corpus(rng, n_sentences, vocab_size=20, scheme=THREE_WAY, max_len=8):
    """Small random corpus for oracle comparisons."""
    words = [f"t{i}" for i in range(vocab_size)]
    pairs = []
    for _ in range(n_sentences):
        length = int(rng.integers(1, max_len + 1))
        sent = " ".join(words[int(i)] for i in rng.integers(0, vocab_size, length))
        label = scheme.names[int(rng.integers(0, len(scheme)))]
        pairs.append((sent, label))
    return make_instances(pairs, scheme)
