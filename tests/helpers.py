"""Plain helpers the test files import: corpora built from pairs or at
random, a corpus's columns, CSR token corpora, arrays equal to rounding,
and labels checked against reference logits away from near-ties. The
fixtures stay in conftest.py."""

import numpy as np

from hyponli.corpus import THREE_WAY, Corpus


def make_corpus(pairs, scheme=THREE_WAY, premise="p", groups=None, ordinals=None):
    """Build a corpus from (hypothesis, label_name) pairs; row k has id ik."""
    n = len(pairs)
    return Corpus(premises=[premise] * n, hypotheses=[hyp for hyp, _ in pairs],
                  labels=np.array([scheme.index[name] for _, name in pairs], dtype=np.int64),
                  ids=[f"i{k}" for k in range(n)], groups=groups or [None] * n,
                  ordinals=ordinals or [None] * n)


def columns(data):
    """The six columns of a corpus as lists, for comparing corpora."""
    return (data.premises, data.hypotheses, data.labels.tolist(), data.ids, data.groups,
            data.ordinals)


def random_corpus(rng, n_sentences, vocab_size=20, scheme=THREE_WAY, max_len=8):
    """Small random corpus for oracle comparisons."""
    words = [f"t{i}" for i in range(vocab_size)]
    pairs = []
    for _ in range(n_sentences):
        length = int(rng.integers(1, max_len + 1))
        sent = " ".join(words[int(i)] for i in rng.integers(0, vocab_size, length))
        label = scheme.names[int(rng.integers(0, len(scheme)))]
        pairs.append((sent, label))
    return make_corpus(pairs, scheme)


def as_csr(sentences):
    """(rows, tokens) of a list of token-id arrays: the CSR token corpus
    (ids, indptr) that holds them end to end, and its rows 0..n-1 in order."""
    indptr = np.zeros(len(sentences) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in sentences], out=indptr[1:])
    ids = np.concatenate([np.empty(0, np.int64), *sentences]).astype(np.int64)
    return np.arange(len(sentences)), (ids, indptr)


def close(a, b):
    """Equal to rtol 1e-12, with elements that cancel to near zero held to
    1e-12 of the array's largest magnitude."""
    return a.shape == b.shape and np.allclose(a, b, rtol=1e-12,
                                               atol=1e-12 * np.abs(b).max(initial=0.0))


# Batched and one-at-a-time products round differently, by about 1e-15
# relative, so two logits closer than this may swap places between them.
TIE_MARGIN = 1e-9


def assert_labels_away_from_ties(labels, logits):
    """labels equal the argmax of logits (B, L) on every row whose top two
    logits differ by more than TIE_MARGIN; returns how many rows were
    checked."""
    top = np.sort(logits, axis=1)
    decided = top[:, -1] - top[:, -2] > TIE_MARGIN
    assert np.array_equal(np.asarray(labels)[decided], np.argmax(logits, axis=1)[decided])
    return int(decided.sum())
