"""Synthetic NLI-like corpora with controllable give-away bias.

Background tokens are drawn independently of the label, so the injected
give-away tokens are the only signal and the optimal hypothesis-only
accuracy has a closed, exactly enumerable form. That makes generated
corpora ground-truth oracles for the diagnostics and the trainers. A
generated corpus is a corpus.Corpus whose labels are label indices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .corpus import THREE_WAY, TWO_WAY, ConfigError, Corpus
from .text import tokenize
from .util import as_integer


@dataclass(frozen=True)
class SynthSpec:
    n_labels: int
    label_prior: tuple[float, ...]
    vocab_size: int
    sentence_length: tuple[int, int]
    giveaway: tuple[tuple[str, int, float], ...]  # (token, target label index, rate)
    seed: int

    def __post_init__(self):
        if self.n_labels not in (2, 3):
            raise ValueError("n_labels must be 2 or 3")
        if len(self.label_prior) != self.n_labels:
            raise ValueError("label_prior length must equal n_labels")
        if abs(sum(self.label_prior) - 1.0) > 1e-9:
            raise ValueError("label_prior must sum to 1")
        if any(p < 0 for p in self.label_prior):
            raise ValueError("label_prior entries must be nonnegative")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        lo, hi = self.sentence_length
        if not 1 <= lo <= hi:
            raise ValueError("sentence_length must satisfy 1 <= min <= max")
        tokens = [g[0] for g in self.giveaway]
        if len(set(tokens)) != len(tokens):
            raise ValueError("giveaway tokens must be pairwise distinct")
        background = set(_background_vocab(self.vocab_size))
        for token, target, rate in self.giveaway:
            if token in background:
                raise ValueError(f"giveaway token {token!r} collides with background vocabulary")
            if tokenize(token) != [token]:
                raise ValueError(f"giveaway token {token!r} does not survive tokenization")
            if not 0 <= target < self.n_labels:
                raise ValueError(f"giveaway target {target} outside label range")
            if not 0.0 <= rate <= 1.0:
                raise ValueError("giveaway rates must lie in [0, 1]")

    @property
    def scheme(self):
        return TWO_WAY if self.n_labels == 2 else THREE_WAY


def _background_vocab(size: int) -> list[str]:
    return [f"w{i:03d}" for i in range(size)]


def generate(spec: SynthSpec, n: int) -> Corpus:
    """Draw an n-row corpus; deterministic given spec.seed.

    Each row draws its label from the prior and a hypothesis of uniform
    background tokens; each giveaway targeting that label is inserted at a
    random position with its own rate. Premises are filler text; rows have
    no group or ordinal. Split the corpus with corpus.random_split as
    needed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(spec.seed)
    background = _background_vocab(spec.vocab_size)
    prior = np.array(spec.label_prior)
    lo, hi = spec.sentence_length
    hypotheses, labels = [], []
    for _ in range(n):
        label_idx = int(rng.choice(spec.n_labels, p=prior))
        length = int(rng.integers(lo, hi + 1))
        tokens = [background[int(i)] for i in rng.integers(0, spec.vocab_size, length)]
        for token, target, rate in spec.giveaway:
            if target == label_idx and rng.random() < rate:
                pos = int(rng.integers(0, len(tokens) + 1))
                tokens.insert(pos, token)
        hypotheses.append(" ".join(tokens))
        labels.append(label_idx)
    return Corpus(premises=[f"filler premise {k}" for k in range(n)], hypotheses=hypotheses,
                  labels=np.array(labels, dtype=np.int64),
                  ids=[f"synth-{k:06d}" for k in range(n)], groups=[None] * n,
                  ordinals=[None] * n)


def bayes_accuracy(spec: SynthSpec) -> float:
    """Exact accuracy (0-100) of the optimal hypothesis-only classifier.

    Enumerates every giveaway presence pattern, applies the posterior
    argmax for the pattern, and sums the probability mass of correct
    decisions. Only giveaway presence is informative: background tokens
    are label-independent by construction.
    """
    if len(spec.giveaway) > 20:
        raise ValueError("pattern enumeration capped at 20 giveaway tokens")
    prior = spec.label_prior
    total = 0.0
    for pattern in itertools.product((False, True), repeat=len(spec.giveaway)):
        best = 0.0
        for label_idx in range(spec.n_labels):
            p = prior[label_idx]
            for present, (token, target, rate) in zip(pattern, spec.giveaway):
                if target == label_idx:
                    p *= rate if present else (1.0 - rate)
                elif present:
                    p = 0.0
                    break
            if p > best:
                best = p
        total += best
    return 100.0 * total


_REQUIRED_SPEC_KEYS = ("n_labels", "label_prior", "vocab_size", "sentence_length", "seed")


def spec_from_dict(data: dict) -> SynthSpec:
    """Build a spec from parsed JSON; label names in giveaways may be given
    instead of indices. A missing key, a value of the wrong type, a
    non-integral count, seed or label index, a giveaway entry that is not
    [token, label, rate] or an unknown label name raises ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError("synth spec must be a JSON object")
    missing = [key for key in _REQUIRED_SPEC_KEYS if key not in data]
    if missing:
        raise ConfigError(f"synth spec lacks key(s): {', '.join(missing)}")
    n_labels = _convert(data, "n_labels")
    scheme = TWO_WAY if n_labels == 2 else THREE_WAY
    entries = data.get("giveaway", [])
    if not isinstance(entries, (list, tuple)):
        raise ConfigError(f"synth spec key 'giveaway': {entries!r} is not a list")
    giveaway = []
    for entry in entries:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ConfigError(f"giveaway entry {entry!r} is not [token, label, rate]")
        token, target, rate = entry
        try:
            target = scheme.index(target) if isinstance(target, str) else as_integer(target)
        except KeyError:
            raise ConfigError(f"giveaway entry {entry!r}: label {target!r} is not "
                              f"one of {', '.join(scheme.names)}") from None
        except ValueError as exc:
            raise ConfigError(f"synth spec key 'giveaway': entry {entry!r}: bad label "
                              f"({exc})") from None
        try:
            giveaway.append((str(token), target, float(rate)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"giveaway entry {entry!r} is not [token, label, rate] "
                              f"({exc})") from exc
    return SynthSpec(
        n_labels=n_labels,
        label_prior=_convert(data, "label_prior", float, sequence=True),
        vocab_size=_convert(data, "vocab_size"),
        sentence_length=_convert(data, "sentence_length", sequence=True),
        giveaway=tuple(giveaway),
        seed=_convert(data, "seed"),
    )


def _convert(data: dict, key: str, convert=as_integer, sequence=False):
    """convert(data[key]), or a tuple of convert over its items when
    sequence; a value of the wrong type, or not integral where an integer
    is expected, raises ConfigError naming key."""
    value = data[key]
    try:
        if not sequence:
            return convert(value)
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"{type(value).__name__} is not a list")
        return tuple(convert(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"synth spec key {key!r}: bad value {value!r} ({exc})") from exc


def spec_to_dict(spec: SynthSpec) -> dict:
    return {
        "n_labels": spec.n_labels,
        "label_prior": list(spec.label_prior),
        "vocab_size": spec.vocab_size,
        "sentence_length": list(spec.sentence_length),
        "giveaway": [[t, target, rate] for t, target, rate in spec.giveaway],
        "seed": spec.seed,
    }
