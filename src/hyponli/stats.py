"""Label-conditional word statistics over hypotheses.

Every statistic reads one (word, label) table of token occurrences,
counted with a single np.bincount over the joint key word * L + label.
It gives p(l|w) = count(w,l) / count(w), the give-away words, and the
coverage curves: a sentence is covered at threshold x when its best
token score reaches x, that is, when it contains at least one
sufficiently label-specific word. The table is computed from two columns
of a corpus, its hypotheses and its label array, interned once into
text.intern's vocabulary and CSR token corpus: the token ids of all
hypotheses end to end, and each sentence's offset into them. Labels are
label indices in and out; the CSV writers alone look up their names in
the scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import LabelScheme
from .text import Vocabulary, intern
from .util import csv_text


class LabelWordCounts:
    """Co-occurrence counts between hypothesis tokens and labels, as arrays.

    The corpus itself is kept in CSR form: sentence i has the token ids
    ids[indptr[i]:indptr[i + 1]] and the label index sentence_labels[i].
    occ[w, l] counts occurrences of token id w in sentences of label l,
    and label_sentences[l] the sentences of label l. Rows of occ follow
    vocab, which holds exactly the tokens of the corpus.
    """

    def __init__(self, scheme: LabelScheme, vocab: Vocabulary, indptr: np.ndarray,
                 ids: np.ndarray, sentence_labels: np.ndarray):
        self.scheme = scheme
        self.vocab = vocab
        self.indptr = indptr
        self.ids = ids
        self.sentence_labels = sentence_labels
        n_labels, n_vocab = len(scheme), len(vocab)
        self.label_sentences = np.bincount(sentence_labels, minlength=n_labels)
        token_labels = np.repeat(sentence_labels, np.diff(indptr))
        self.occ = np.bincount(ids * n_labels + token_labels,
                               minlength=n_vocab * n_labels).reshape(n_vocab, n_labels)

    @property
    def n_sentences(self) -> int:
        return len(self.sentence_labels)

    def count_l(self, label: int) -> int:
        return int(self.label_sentences[label])


def count_corpus(hypotheses, labels, scheme: LabelScheme) -> LabelWordCounts:
    """Count over hypothesis tokens only: hypotheses is a sequence of
    strings and labels their label indices."""
    vocab, ids, indptr = intern(hypotheses)
    return LabelWordCounts(scheme, vocab, indptr, ids, np.asarray(labels, dtype=np.int64))


@dataclass(frozen=True)
class GiveawayEntry:
    token: str
    label: int
    score: float
    frequency: int


def giveaway_words(counts: LabelWordCounts, min_freq: int = 5,
                   top_k: int = 10) -> dict[int, list[GiveawayEntry]]:
    """Most label-specific words per label index.

    A token with count_w >= min_freq is a candidate for its argmax label
    only, scored by p(label|token). Each label's list is sorted by
    frequency descending (ties: score descending, then token), cut to
    top_k.
    """
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    buckets: dict[int, list[GiveawayEntry]] = {i: [] for i in range(len(counts.scheme))}
    freq = counts.occ.sum(axis=1)
    best = counts.occ.argmax(axis=1)  # ties resolve to the lowest label index
    for w in np.flatnonzero(freq >= min_freq):
        idx, cw = int(best[w]), int(freq[w])
        buckets[idx].append(GiveawayEntry(counts.vocab.token(w), idx,
                                          int(counts.occ[w, idx]) / cw, cw))
    for entries in buckets.values():
        entries.sort(key=lambda e: (-e.frequency, -e.score, e.token))
        del entries[top_k:]
    return buckets


@dataclass(frozen=True)
class CoverageCurve:
    label: int
    grid: list[float]
    y: list[int]


def _threshold_grid(step: float) -> list[float]:
    grid = []
    k = 0
    while True:
        x = k * step
        if x >= 1.0 - 1e-12:
            break
        grid.append(x)
        k += 1
    grid.append(1.0)
    return grid


def _sentence_maxima(counts: LabelWordCounts, label: int, per_label: bool) -> np.ndarray:
    """Per sentence of the given gold label, the best token score.

    Score of a token is max_l p(l|w), or p(label|w) when per_label is set.
    Sentences with no tokens get 0.0 so they count only at threshold 0.
    """
    occ = counts.occ
    score = (occ[:, label] if per_label else occ.max(axis=1)) / occ.sum(axis=1)
    maxima = np.zeros(counts.n_sentences)
    # reduceat over the starts of the non-empty sentences only: each then
    # spans exactly its own tokens, as the empty ones between hold none
    nonempty = np.flatnonzero(np.diff(counts.indptr))
    if nonempty.size:
        maxima[nonempty] = np.maximum.reduceat(score[counts.ids], counts.indptr[nonempty])
    return maxima[counts.sentence_labels == label]


def coverage_count(counts: LabelWordCounts, label: int, x: float,
                   per_label: bool = False) -> int:
    """Sentences of the gold label containing >= 1 token scoring >= x."""
    maxima = _sentence_maxima(counts, label, per_label)
    return int(np.count_nonzero(maxima >= x))


def coverage_curve(counts: LabelWordCounts, label: int, grid_step: float = 0.01,
                   per_label: bool = False) -> CoverageCurve:
    """Coverage per threshold on the grid {0, step, ..., 1}.

    y(x) counts the label's sentences containing at least one token w with
    max_l p(l|w) >= x (or p(label|w) >= x with per_label). y(0) equals the
    label's sentence count and y is non-increasing in x.
    """
    if not 1e-4 <= grid_step <= 0.5:  # 1e-4: the resolution of curves_to_csv's x column
        raise ValueError(f"grid_step must lie in [0.0001, 0.5], got {grid_step}")
    grid = _threshold_grid(grid_step)
    maxima = np.sort(_sentence_maxima(counts, label, per_label))
    n = maxima.size
    y = [int(n - np.searchsorted(maxima, x, side="left")) for x in grid]
    return CoverageCurve(label, grid, y)


def giveaways_to_csv(giveaways: dict[int, list[GiveawayEntry]], scheme: LabelScheme) -> str:
    """CSV rows (label, token, score, freq), labels in scheme order."""
    return csv_text(["label", "token", "score", "freq"],
                    ([scheme.names[label], entry.token, f"{entry.score:.6f}", entry.frequency]
                     for label in sorted(giveaways) for entry in giveaways[label]))


def curves_to_csv(curves: list[CoverageCurve], scheme: LabelScheme) -> str:
    """CSV rows (label, x, y); the plot input for coverage figures."""
    return csv_text(["label", "x", "y"],
                    ([scheme.names[curve.label], f"{x:.4f}", y]
                     for curve in curves for x, y in zip(curve.grid, curve.y)))


def counts_summary_csv(counts: LabelWordCounts) -> str:
    """Per-label sentence and token-occurrence totals."""
    occ_totals = counts.occ.sum(axis=0)
    rows = [[name, counts.count_l(label), int(occ_totals[label]),
             np.count_nonzero(counts.occ[:, label])]
            for label, name in enumerate(counts.scheme.names)]
    rows.append(["TOTAL", counts.n_sentences, int(occ_totals.sum()), len(counts.vocab)])
    return csv_text(["label", "sentences", "token_occurrences", "distinct_tokens"], rows)
