"""Label-conditional word statistics over hypotheses.

Every statistic reads one (word, label) table of token occurrences,
counted with a single np.bincount over the joint key word * L + label.
It gives p(l|w) = count(w,l) / count(w), the give-away words, and the
coverage curves: a sentence is covered at threshold x when its best
token score reaches x, that is, when it contains at least one
sufficiently label-specific word. The table is computed from two columns
of a corpus, its hypotheses and its label array, interned once into
text.intern's vocabulary and CSR token corpus: the token ids of all
hypotheses end to end, and each sentence's offset into them. Each
sentence's best token score is computed once, at counting, in the one
coverage mode count_corpus is given, by one np.maximum.reduceat over all
sentences, and kept on the counts sorted by gold label, so every curve
and every coverage count is a binary search; the CSR corpus is not kept.
The give-away words are picked with array operations; only the few
candidates at a label's top_k cut are sorted in Python. Labels are label
indices in and out; the CSV writers alone look up their names in the
scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, takewhile

import numpy as np

from .corpus import LabelScheme
from .text import Vocabulary, intern
from .util import ConfigError, csv_text


class LabelWordCounts:
    """Co-occurrence counts between hypothesis tokens and labels, as arrays.

    occ[w, l] counts occurrences of token id w in sentences of label l,
    freq[w] all occurrences of w, and label_sentences[l] the sentences of
    label l. Rows of occ follow vocab, which holds exactly the tokens of
    the corpus. Each sentence's best token score is computed here, once,
    in the one coverage mode of per_label, and kept per gold label, sorted
    and read-only; the corpus itself is not kept.
    """

    def __init__(self, scheme: LabelScheme, vocab: Vocabulary, indptr: np.ndarray,
                 ids: np.ndarray, sentence_labels: np.ndarray, per_label: bool = False):
        self.scheme = scheme
        self.vocab = vocab
        n_labels, n_vocab = len(scheme), len(vocab)
        self.label_sentences = np.bincount(sentence_labels, minlength=n_labels)
        # the joint key word * L + label, with the labels repeated per token as
        # bytes and added in place, so that counting holds one int64 copy of ids
        token_labels = np.repeat(sentence_labels.astype(np.uint8), np.diff(indptr))
        key = ids * n_labels
        key += token_labels
        self.occ = np.bincount(key, minlength=n_vocab * n_labels).reshape(n_vocab, n_labels)
        del key
        self.freq = self.occ.sum(axis=1)
        # a token scores p(l|w) for the gold label l of its sentence with per_label, else
        # max_l p(l|w); reduceat over the starts of the non-empty sentences only: each then
        # spans exactly its own tokens, and one with none keeps 0.0, counted only at 0
        p = self.occ / self.freq[:, None]
        score = p[ids, token_labels] if per_label else p.max(axis=1)[ids]
        nonempty = np.flatnonzero(np.diff(indptr))
        best = np.zeros(len(sentence_labels))
        if nonempty.size:
            best[nonempty] = np.maximum.reduceat(score, indptr[nonempty])
        self._maxima = [best[sentence_labels == gold] for gold in range(n_labels)]
        for gold_maxima in self._maxima:
            gold_maxima.sort()
            gold_maxima.flags.writeable = False  # shared by every coverage call

    @property
    def n_sentences(self) -> int:
        return int(self.label_sentences.sum())

    def count_l(self, label: int) -> int:
        return int(self.label_sentences[label])

    def sorted_maxima(self, label: int) -> np.ndarray:
        """The best token score of each sentence of the gold label, ascending."""
        if not 0 <= label < len(self.scheme):
            raise ValueError(f"label {label} is not a label index of {list(self.scheme.names)}")
        return self._maxima[label]


def count_corpus(hypotheses, labels, scheme: LabelScheme,
                 per_label: bool = False) -> LabelWordCounts:
    """Count over hypothesis tokens only: hypotheses is a sequence of
    strings and labels their label indices; per_label picks the coverage
    mode, p(label|w) instead of max_l p(l|w)."""
    vocab, ids, indptr = intern(hypotheses)
    return LabelWordCounts(scheme, vocab, indptr, ids, np.asarray(labels, dtype=np.int64),
                           per_label)


@dataclass(frozen=True)
class GiveawayEntry:
    token: str
    score: float
    frequency: int


def check_min_freq(min_freq: int) -> int:
    """min_freq, when giveaway_words takes it; ConfigError otherwise."""
    if min_freq < 1:
        raise ConfigError("min_freq must be >= 1", "min_freq")
    return min_freq


def check_top_k(top_k: int) -> int:
    """top_k, when giveaway_words takes it; ConfigError otherwise."""
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}", "top_k")
    return top_k


def giveaway_words(counts: LabelWordCounts, min_freq: int,
                   top_k: int) -> dict[int, list[GiveawayEntry]]:
    """Most label-specific words per label index.

    A token with count_w >= min_freq is a candidate for its argmax label
    only, scored by p(label|token). Each label's list is sorted by
    frequency descending (ties: score descending, then token), cut to
    top_k.
    """
    check_min_freq(min_freq)
    check_top_k(top_k)
    occ, freq = counts.occ, counts.freq
    candidates = np.flatnonzero(freq >= min_freq)
    best = occ[candidates].argmax(axis=1)  # ties resolve to the lowest label index
    freq = freq[candidates]
    score = occ[candidates, best] / freq
    buckets: dict[int, list[GiveawayEntry]] = {}
    for label in range(len(counts.scheme)):
        mine = np.flatnonzero(best == label)
        if mine.size > top_k:
            # keep each candidate whose (freq, score) ties or beats the top_k-th
            order = np.lexsort((score[mine], freq[mine]))
            cut = mine[order[-top_k]]
            mine = mine[(freq[mine] > freq[cut])
                        | ((freq[mine] == freq[cut]) & (score[mine] >= score[cut]))]
        entries = [GiveawayEntry(counts.vocab.token(w), s, f) for w, s, f in
                   zip(candidates[mine].tolist(), score[mine].tolist(), freq[mine].tolist())]
        entries.sort(key=lambda e: (-e.frequency, -e.score, e.token))
        buckets[label] = entries[:top_k]
    return buckets


@dataclass(frozen=True)
class CoverageCurve:
    label: int
    grid: list[float]
    y: list[int]


def _threshold_grid(step: float) -> list[float]:
    """k * step for k = 0, 1, ... while below 1 - 1e-12, then 1.0."""
    return [*takewhile(lambda x: x < 1.0 - 1e-12, (k * step for k in count())), 1.0]


def coverage_count(counts: LabelWordCounts, label: int, x: float) -> int:
    """Sentences of the gold label containing >= 1 token scoring >= x."""
    maxima = counts.sorted_maxima(label)
    return int(maxima.size - np.searchsorted(maxima, x, side="left"))


def check_grid_step(grid_step: float) -> float:
    """grid_step, when coverage_curve takes it; ConfigError otherwise."""
    if not 1e-4 <= grid_step <= 0.5:  # 1e-4: the resolution of curves_to_csv's x column
        raise ConfigError(f"grid_step must lie in [0.0001, 0.5], got {grid_step}", "grid_step")
    return grid_step


def coverage_curve(counts: LabelWordCounts, label: int, grid_step: float) -> CoverageCurve:
    """Coverage per threshold on the grid {0, step, ..., 1}.

    y(x) counts the label's sentences containing at least one token w with
    max_l p(l|w) >= x (or p(label|w) >= x when counted per_label). y(0)
    equals the label's sentence count and y is non-increasing in x.
    """
    grid = _threshold_grid(check_grid_step(grid_step))
    maxima = counts.sorted_maxima(label)
    y = maxima.size - np.searchsorted(maxima, grid, side="left")
    return CoverageCurve(label, grid, y.tolist())


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
