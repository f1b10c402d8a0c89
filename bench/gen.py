"""Seeded synthetic NLI corpora for the benchmark, with exact oracles.

Independent of hyponli (in particular of hyponli.synth): the generator
draws token ids itself, so it knows every token of every hypothesis and
every label, and the expected outputs are counted from those ids.

A hypothesis is a run of label-independent background words drawn from a
Zipfian distribution over `vocab` types, plus per-label give-away tokens,
each inserted at a uniform position with its own rate when the sentence
has that token's target label. A comma follows a word with a small rate
and every hypothesis ends in a full stop; both are written attached to the
preceding word ("w3 w17, w2.") so the tokenizer must peel them. Every
premise names its gold label, so a model that read premises would beat the
hypothesis-only Bayes ceiling.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

LABELS = ("entailment", "neutral", "contradiction")
PRIOR = (0.4, 0.35, 0.25)
# (target label index, rate), two give-away tokens per label.
GIVEAWAYS = ((0, 0.7), (0, 0.35), (1, 0.65), (1, 0.35), (2, 0.75), (2, 0.3))
COMMA_RATE = 0.08
PUNCT = (",", ".")


@dataclass(frozen=True)
class CorpusSpec:
    vocab: int            # background types
    zipf: float           # Zipf exponent of the background
    length: tuple[int, int]  # background words per hypothesis, inclusive


@dataclass
class Split:
    """One generated split in CSR form: sentence k has token ids
    ids[indptr[k]:indptr[k+1]] and label index labels[k]."""

    name: str
    indptr: np.ndarray
    ids: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.labels.size


def token_strings(spec: CorpusSpec) -> list[str]:
    """Id -> token text: background, give-aways, then punctuation."""
    background = [f"w{r}" for r in range(spec.vocab)]
    giveaways = [f"cue{LABELS[t][:3]}{j}" for j, (t, _) in enumerate(GIVEAWAYS)]
    return background + giveaways + list(PUNCT)


def generate(spec: CorpusSpec, n: int, rng: np.random.Generator, name: str) -> Split:
    V, G = spec.vocab, len(GIVEAWAYS)
    comma, stop = V + G, V + G + 1
    labels = rng.choice(len(LABELS), size=n, p=PRIOR)
    lengths = rng.integers(spec.length[0], spec.length[1] + 1, size=n)
    zipf = 1.0 / np.arange(1, V + 1) ** spec.zipf
    background = rng.choice(V, size=int(lengths.sum()), p=zipf / zipf.sum())
    bg_ptr = np.concatenate([[0], np.cumsum(lengths)])
    present = np.array([(labels == t) & (rng.random(n) < rate) for t, rate in GIVEAWAYS])
    place = rng.random((G, n))
    commas = rng.random((n, spec.length[1] + G)) < COMMA_RATE

    sentences = []
    for k in range(n):
        words = background[bg_ptr[k]:bg_ptr[k + 1]].tolist()
        for g in np.flatnonzero(present[:, k]):
            words.insert(int(place[g, k] * (len(words) + 1)), V + int(g))
        toks = []
        for i, w in enumerate(words):
            toks.append(w)
            if i < len(words) - 1 and commas[k, i]:
                toks.append(comma)
        toks.append(stop)
        sentences.append(toks)
    indptr = np.concatenate([[0], np.cumsum([len(s) for s in sentences])])
    ids = np.fromiter(itertools.chain.from_iterable(sentences), dtype=np.int64,
                      count=int(indptr[-1]))
    return Split(name, indptr, ids, labels.astype(np.int64))


def hypothesis_text(toks: list[str]) -> str:
    words: list[str] = []
    for tok in toks:
        if tok in PUNCT:
            words[-1] += tok
        else:
            words.append(tok)
    return " ".join(words)


def sentence_tokens(split: Split, strings: list[str]):
    ids = split.ids.tolist()
    ptr = split.indptr.tolist()
    for k in range(len(split)):
        yield [strings[i] for i in ids[ptr[k]:ptr[k + 1]]]


def write_jsonl(split: Split, strings: list[str], path) -> None:
    """Native hyponli JSONL; the premise names the gold label."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, toks in enumerate(sentence_tokens(split, strings)):
            label = LABELS[split.labels[k]]
            record = {"premise": f"A scene of {label}, case {k}.",
                      "hypothesis": hypothesis_text(toks),
                      "label": label, "id": f"{split.name}-{k}"}
            fh.write(json.dumps(record) + "\n")


def bayes_accuracy() -> float:
    """Exact accuracy (0-100) of the best hypothesis-only classifier.

    Background words, commas and the full stop are label-independent, so
    only the set of give-away tokens present informs the label. Sum, over
    every presence pattern, the largest joint probability p(pattern, label).
    """
    total = 0.0
    for pattern in itertools.product((False, True), repeat=len(GIVEAWAYS)):
        best = 0.0
        for label, prior in enumerate(PRIOR):
            p = prior
            for on, (target, rate) in zip(pattern, GIVEAWAYS):
                if target == label:
                    p *= rate if on else 1.0 - rate
                elif on:
                    p = 0.0
            best = max(best, p)
        total += best
    return 100.0 * total
