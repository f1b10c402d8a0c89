"""Label-conditional word statistics over hypotheses.

Word/label counts give p(l|w) = count(w,l) / count(w); token-occurrence
counts back the probabilities while sentence-level presence counts back
the coverage curves (a sentence is covered when it contains at least one
sufficiently label-specific word).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .corpus import Label, LabelScheme
from .text import tokenize


class LabelWordCounts:
    """Co-occurrence counts between hypothesis tokens and labels.

    count_wl / count_w count token occurrences; count_l counts sentences
    per label; presence_wl counts sentences of a label containing a token
    at least once. Per-sentence unique-token sets are retained so coverage
    can be recomputed at any threshold.
    """

    def __init__(self, scheme: LabelScheme):
        self.scheme = scheme
        self._occ: dict[str, np.ndarray] = {}
        self._presence: dict[str, np.ndarray] = {}
        self._label_sentences = np.zeros(len(scheme), dtype=np.int64)
        self._sentences: list[tuple[int, tuple[str, ...]]] = []

    @property
    def n_sentences(self) -> int:
        return len(self._sentences)

    def tokens(self):
        return self._occ.keys()

    def count_wl(self, token: str, label: Label) -> int:
        vec = self._occ.get(token)
        return int(vec[label.index]) if vec is not None else 0

    def count_w(self, token: str) -> int:
        vec = self._occ.get(token)
        return int(vec.sum()) if vec is not None else 0

    def count_l(self, label: Label) -> int:
        return int(self._label_sentences[label.index])

    def presence_wl(self, token: str, label: Label) -> int:
        vec = self._presence.get(token)
        return int(vec[label.index]) if vec is not None else 0

    def add_sentence(self, tokens: list[str], label: Label) -> None:
        n = len(self.scheme)
        for tok in tokens:
            vec = self._occ.get(tok)
            if vec is None:
                vec = self._occ[tok] = np.zeros(n, dtype=np.int64)
            vec[label.index] += 1
        uniq = tuple(sorted(set(tokens)))
        for tok in uniq:
            vec = self._presence.get(tok)
            if vec is None:
                vec = self._presence[tok] = np.zeros(n, dtype=np.int64)
            vec[label.index] += 1
        self._label_sentences[label.index] += 1
        self._sentences.append((label.index, uniq))

    def merge(self, other: "LabelWordCounts") -> "LabelWordCounts":
        """Elementwise-additive merge; merging shards equals sequential
        counting exactly."""
        if other.scheme is not self.scheme and other.scheme != self.scheme:
            raise ValueError("cannot merge counts over different schemes")
        out = LabelWordCounts(self.scheme)
        for src in (self, other):
            for tok, vec in src._occ.items():
                if tok in out._occ:
                    out._occ[tok] = out._occ[tok] + vec
                else:
                    out._occ[tok] = vec.copy()
            for tok, vec in src._presence.items():
                if tok in out._presence:
                    out._presence[tok] = out._presence[tok] + vec
                else:
                    out._presence[tok] = vec.copy()
        out._label_sentences = self._label_sentences + other._label_sentences
        out._sentences = self._sentences + other._sentences
        return out


def count_corpus(instances, scheme: LabelScheme) -> LabelWordCounts:
    """Accumulate counts over hypothesis tokens only; premises untouched."""
    counts = LabelWordCounts(scheme)
    for inst in instances:
        counts.add_sentence(tokenize(inst.hypothesis), inst.label)
    return counts


def p_label_given_word(counts: LabelWordCounts, token: str, label: Label) -> float:
    """count(w,l) / count(w); the caller must filter unseen tokens."""
    cw = counts.count_w(token)
    if cw == 0:
        raise KeyError(f"token {token!r} unseen in corpus")
    return counts.count_wl(token, label) / cw


def _argmax_label_and_score(counts: LabelWordCounts, token: str) -> tuple[int, float]:
    vec = counts._occ[token]
    cw = int(vec.sum())
    idx = int(np.argmax(vec))  # ties resolve to the lowest label index
    return idx, int(vec[idx]) / cw


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
    buckets: dict[int, list[GiveawayEntry]] = {i: [] for i in range(len(counts.scheme))}
    for token in counts.tokens():
        freq = counts.count_w(token)
        if freq < min_freq:
            continue
        idx, score = _argmax_label_and_score(counts, token)
        buckets[idx].append(GiveawayEntry(token, counts.scheme.by_index(idx), score, freq))
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
    score: dict[str, float] = {}
    maxima = []
    for li, toks in counts._sentences:
        if li != label.index:
            continue
        best = 0.0
        for tok in toks:
            s = score.get(tok)
            if s is None:
                if per_label:
                    s = p_label_given_word(counts, tok, label)
                else:
                    _, s = _argmax_label_and_score(counts, tok)
                score[tok] = s
            if s > best:
                best = s
        maxima.append(best)
    return np.array(maxima, dtype=np.float64)


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
    occ_totals = np.zeros(len(counts.scheme), dtype=np.int64)
    for vec in counts._occ.values():
        occ_totals += vec
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "sentences", "token_occurrences", "distinct_tokens"])
    for label in counts.scheme.labels:
        distinct = sum(1 for vec in counts._occ.values() if vec[label.index] > 0)
        writer.writerow([label.name, counts.count_l(label),
                         int(occ_totals[label.index]), distinct])
    writer.writerow(["TOTAL", counts.n_sentences, int(occ_totals.sum()), len(counts._occ)])
    return buf.getvalue()
