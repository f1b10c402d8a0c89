"""Label-conditional word statistics over hypotheses.

Word/label counts give p(l|w) = count(w,l) / count(w); token-occurrence
counts back the probabilities while sentence-level presence counts back
the coverage curves (a sentence is covered when it contains at least one
sufficiently label-specific word). Every statistic is computed from one
interned corpus: a vocabulary, the token ids of all hypotheses end to
end, and each sentence's offset into them.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .corpus import Label, LabelScheme
from .text import Vocabulary, intern


class LabelWordCounts:
    """Co-occurrence counts between hypothesis tokens and labels, as arrays.

    The corpus itself is kept in CSR form: sentence i has the token ids
    ids[indptr[i]:indptr[i + 1]] and the label index sentence_labels[i].
    occ[w, l] counts occurrences of token id w in sentences of label l,
    presence[w, l] the sentences of label l that contain w at least once,
    and label_sentences[l] the sentences of label l. Rows of occ and
    presence follow vocab, which holds exactly the tokens of the corpus.
    """

    def __init__(self, scheme: LabelScheme, vocab: Vocabulary, indptr: np.ndarray,
                 ids: np.ndarray, sentence_labels: np.ndarray):
        self.scheme = scheme
        self.vocab = vocab
        self.indptr = indptr
        self.ids = ids
        self.sentence_labels = sentence_labels
        n_labels, n_vocab = len(scheme), len(vocab)
        lengths = np.diff(indptr)
        sentence_of_token = np.repeat(np.arange(len(sentence_labels)), lengths)
        self.label_sentences = np.bincount(sentence_labels, minlength=n_labels)
        self.occ = self._by_label(ids, sentence_labels[sentence_of_token])
        # one (sentence, token) pair per distinct token of a sentence; a
        # sort is much faster than np.unique, which hashes integer keys
        pairs = np.sort(sentence_of_token * n_vocab + ids)
        pairs = pairs[np.diff(pairs, prepend=-1) != 0]
        self.presence = self._by_label(pairs % n_vocab, sentence_labels[pairs // n_vocab])

    def _by_label(self, ids: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """A (V, L) table counting each (id, label) pair."""
        table = np.zeros((len(self.vocab), len(self.scheme)), dtype=np.int64)
        for li in range(len(self.scheme)):
            table[:, li] = np.bincount(ids[labels == li], minlength=len(self.vocab))
        return table

    @property
    def n_sentences(self) -> int:
        return len(self.sentence_labels)

    def tokens(self) -> list[str]:
        return self.vocab.tokens

    def count_wl(self, token: str, label: Label) -> int:
        idx = self.vocab.get(token)
        return int(self.occ[idx, label.index]) if idx is not None else 0

    def count_w(self, token: str) -> int:
        idx = self.vocab.get(token)
        return int(self.occ[idx].sum()) if idx is not None else 0

    def count_l(self, label: Label) -> int:
        return int(self.label_sentences[label.index])

    def presence_wl(self, token: str, label: Label) -> int:
        idx = self.vocab.get(token)
        return int(self.presence[idx, label.index]) if idx is not None else 0


def count_corpus(instances, scheme: LabelScheme) -> LabelWordCounts:
    """Count over hypothesis tokens only; premises untouched. Takes a
    sequence of instances."""
    vocab, ids = intern([inst.hypothesis for inst in instances])
    lengths = np.fromiter(map(len, ids), dtype=np.int64, count=len(ids))
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    flat = np.concatenate(ids) if ids else np.zeros(0, dtype=np.int64)
    labels = np.array([inst.label.index for inst in instances], dtype=np.int64)
    return LabelWordCounts(scheme, vocab, indptr, flat, labels)


def p_label_given_word(counts: LabelWordCounts, token: str, label: Label) -> float:
    """count(w,l) / count(w); the caller must filter unseen tokens."""
    cw = counts.count_w(token)
    if cw == 0:
        raise KeyError(f"token {token!r} unseen in corpus")
    return counts.count_wl(token, label) / cw


@dataclass(frozen=True)
class GiveawayEntry:
    token: str
    label: Label
    score: float
    frequency: int


def giveaway_words(counts: LabelWordCounts, min_freq: int = 5,
                   top_k: int = 10) -> dict[Label, list[GiveawayEntry]]:
    """Most label-specific words per label.

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
        buckets[idx].append(GiveawayEntry(counts.vocab.token(w), counts.scheme.by_index(idx),
                                          int(counts.occ[w, idx]) / cw, cw))
    out: dict[Label, list[GiveawayEntry]] = {}
    for idx, entries in buckets.items():
        entries.sort(key=lambda e: (-e.frequency, -e.score, e.token))
        out[counts.scheme.by_index(idx)] = entries[:top_k]
    return out


@dataclass(frozen=True)
class CoverageCurve:
    label: Label
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


def _sentence_maxima(counts: LabelWordCounts, label: Label, per_label: bool) -> np.ndarray:
    """Per sentence of the given gold label, the best token score.

    Score of a token is max_l p(l|w), or p(label|w) when per_label is set.
    Sentences with no tokens get 0.0 so they count only at threshold 0.
    """
    occ = counts.occ
    score = (occ[:, label.index] if per_label else occ.max(axis=1)) / occ.sum(axis=1)
    maxima = np.zeros(counts.n_sentences)
    # reduceat over the starts of the non-empty sentences only: each then
    # spans exactly its own tokens, as the empty ones between hold none
    nonempty = np.flatnonzero(np.diff(counts.indptr))
    if nonempty.size:
        maxima[nonempty] = np.maximum.reduceat(score[counts.ids], counts.indptr[nonempty])
    return maxima[counts.sentence_labels == label.index]


def coverage_count(counts: LabelWordCounts, label: Label, x: float,
                   per_label: bool = False) -> int:
    """Sentences of the gold label containing >= 1 token scoring >= x."""
    maxima = _sentence_maxima(counts, label, per_label)
    return int(np.count_nonzero(maxima >= x))


def coverage_curve(counts: LabelWordCounts, label: Label, grid_step: float = 0.01,
                   per_label: bool = False) -> CoverageCurve:
    """Coverage per threshold on the grid {0, step, ..., 1}.

    y(x) counts the label's sentences containing at least one token w with
    max_l p(l|w) >= x (or p(label|w) >= x with per_label). y(0) equals the
    label's sentence count and y is non-increasing in x.
    """
    if not 0.0 < grid_step <= 0.5:
        raise ValueError("grid_step must lie in (0, 0.5]")
    grid = _threshold_grid(grid_step)
    maxima = np.sort(_sentence_maxima(counts, label, per_label))
    n = maxima.size
    y = [int(n - np.searchsorted(maxima, x, side="left")) for x in grid]
    return CoverageCurve(label, grid, y)


def majority_accuracy(eval_split, maj: Label) -> float:
    """Accuracy (0-100) of always predicting maj on the split."""
    if not eval_split:
        raise ValueError("cannot score an empty split")
    hits = sum(1 for inst in eval_split if inst.label == maj)
    return 100.0 * hits / len(eval_split)


def giveaways_to_csv(giveaways: dict[Label, list[GiveawayEntry]]) -> str:
    """CSV rows (label, token, score, freq), labels in scheme order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "token", "score", "freq"])
    for label in sorted(giveaways, key=lambda lab: lab.index):
        for entry in giveaways[label]:
            writer.writerow([label.name, entry.token, f"{entry.score:.6f}", entry.frequency])
    return buf.getvalue()


def curves_to_csv(curves: list[CoverageCurve]) -> str:
    """CSV rows (label, x, y); the plot input for coverage figures."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "x", "y"])
    for curve in curves:
        for x, y in zip(curve.grid, curve.y):
            writer.writerow([curve.label.name, f"{x:.4f}", y])
    return buf.getvalue()


def counts_summary_csv(counts: LabelWordCounts) -> str:
    """Per-label sentence and token-occurrence totals."""
    occ_totals = counts.occ.sum(axis=0)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "sentences", "token_occurrences", "distinct_tokens"])
    for label in counts.scheme.labels:
        distinct = np.count_nonzero(counts.occ[:, label.index])
        writer.writerow([label.name, counts.count_l(label),
                         int(occ_totals[label.index]), distinct])
    writer.writerow(["TOTAL", counts.n_sentences, int(occ_totals.sum()), len(counts.vocab)])
    return buf.getvalue()
