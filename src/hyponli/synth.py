"""Synthetic NLI-like corpora with controllable give-away bias.

Background tokens w000, w001, ... are drawn independently of the label,
so the injected give-away tokens are the only signal and the optimal
hypothesis-only accuracy has a closed form (bayes_accuracy). That
makes generated corpora ground-truth oracles for the diagnostics and the
trainers. A generated corpus is a corpus.Corpus whose labels are label
indices; SynthSpec checks a spec, and read_spec reads one from a file.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .corpus import THREE_WAY, TWO_WAY, Corpus
from .text import tokenize
from .util import ConfigError, as_integer, numbered_lines, parse_json


def _finite(value) -> float:
    """float(value) if finite; a bool, or what float() refuses, raises ValueError."""
    try:
        if not isinstance(value, bool) and math.isfinite(number := float(value)):
            return number
    except (TypeError, ValueError, OverflowError):  # None, "x", 10**400
        pass
    raise ValueError(f"{value!r} is not a finite number")


def _items(value, convert, length=None) -> tuple:
    """convert over the items of a list (of length items, when given)."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        raise ValueError(f"{value!r} is not a list" + (f" of {length}" if length else ""))
    return tuple(map(convert, value))


@dataclass(frozen=True)
class SynthSpec:
    """A generator spec, each value converted and checked here: a bad one
    raises ValueError naming its key. A give-away label may be its index
    (util.as_integer, as are the counts and seed) or its name."""

    n_labels: int
    label_prior: tuple[float, ...]
    vocab_size: int
    sentence_length: tuple[int, int]
    # (token, target label index, rate) triples
    giveaway: tuple[tuple[str, int, float], ...] = field(default=(), kw_only=True)
    seed: int

    def __post_init__(self):
        def fail(key, why):
            raise ValueError(f"synth spec key {key!r}: {why}")

        def converted(key, convert):
            try:
                object.__setattr__(self, key, convert(getattr(self, key)))  # frozen
            except ValueError as exc:
                fail(key, exc)
            return getattr(self, key)

        if converted("n_labels", as_integer) not in (2, 3):
            fail("n_labels", f"{self.n_labels} is not 2 or 3")
        prior = converted("label_prior", lambda value: _items(value, _finite))
        if len(prior) != self.n_labels:
            fail("label_prior", f"has {len(prior)} entries for {self.n_labels} labels")
        if any(p < 0 for p in prior) or abs(sum(prior) - 1.0) > 1e-9:
            fail("label_prior", "entries must be nonnegative and sum to 1")
        if converted("vocab_size", as_integer) < 1:
            fail("vocab_size", f"{self.vocab_size} is below 1")
        if self.vocab_size > np.iinfo(np.int64).max:  # generate draws int64 token indices
            fail("vocab_size", f"{self.vocab_size} is above the int64 range")
        lo, hi = converted("sentence_length", lambda value: _items(value, as_integer, 2))
        if not 1 <= lo <= hi <= np.iinfo(np.int64).max:  # generate draws int64 lengths
            fail("sentence_length", "must satisfy 1 <= min <= max < 2**63")
        giveaway = converted("giveaway", lambda value: _items(value, self._giveaway_entry))
        if len({token for token, _, _ in giveaway}) != len(giveaway):
            fail("giveaway", "tokens must be pairwise distinct")
        if converted("seed", as_integer) < 0:
            fail("seed", f"{self.seed} is negative")

    def _giveaway_entry(self, entry) -> tuple[str, int, float]:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ValueError(f"entry {entry!r} is not [token, label, rate]")
        token, target, rate = entry
        names = self.scheme.names
        try:
            if not isinstance(token, str) or tokenize(token) != [token]:
                raise ValueError(f"token {token!r} is not a string that survives tokenization")
            if _is_background(token, self.vocab_size):
                raise ValueError(f"token {token!r} collides with background vocabulary")
            if isinstance(target, str) and target not in names:
                raise ValueError(f"label {target!r} is not one of {', '.join(names)}")
            index = self.scheme.index[target] if isinstance(target, str) else as_integer(target)
            if not 0 <= index < self.n_labels:
                raise ValueError(f"label {target!r} outside label range")
            if not 0.0 <= (rate := _finite(rate)) <= 1.0:
                raise ValueError(f"rate {rate!r} outside [0, 1]")
        except ValueError as exc:
            raise ValueError(f"entry {entry!r}: {exc}") from None
        return token, index, rate

    @property
    def scheme(self):
        return TWO_WAY if self.n_labels == 2 else THREE_WAY


def _is_background(token: str, vocab_size: int) -> bool:
    """Whether generate can draw token, one of w000 .. w{vocab_size - 1:03d};
    none has more digits than f"{vocab_size:03d}", and none is built."""
    digits = re.fullmatch(r"w([0-9]+)", token)
    return (digits is not None and len(digits[1]) <= len(f"{vocab_size:03d}")
            and int(digits[1]) < vocab_size and token == f"w{int(digits[1]):03d}")


def generate(spec: SynthSpec, n: int) -> Corpus:
    """Draw an n-row corpus (empty for n below 1); deterministic given
    spec.seed.

    Each row draws its label from the prior and a hypothesis of uniform
    background tokens; each giveaway targeting that label is inserted at a
    random position with its own rate. Premises are filler text; rows have
    no group or ordinal. Split the corpus with corpus.random_split as
    needed.
    """
    rng = np.random.default_rng(spec.seed)
    prior = np.array(spec.label_prior)
    lo, hi = spec.sentence_length
    hypotheses, labels = [], []
    for _ in range(n):
        label_idx = int(rng.choice(spec.n_labels, p=prior))
        length = int(rng.integers(lo, hi + 1))
        tokens = [f"w{i:03d}" for i in rng.integers(0, spec.vocab_size, length).tolist()]
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

    Only giveaway presence is informative: background tokens are
    label-independent by construction. A giveaway appears only under its
    target label, so a sentence that holds one is always classified right.
    A sentence of label l holds none with probability
    q_l = prod over l's giveaways of (1 - rate), and all such sentences
    look alike, so the classifier gets right the largest share of them:
    100 * (sum_l prior_l * (1 - q_l) + max_l prior_l * q_l).
    """
    none = [math.prod(1.0 - rate for _, target, rate in spec.giveaway if target == label)
            for label in range(spec.n_labels)]
    return 100.0 * (sum(p * (1.0 - q) for p, q in zip(spec.label_prior, none))
                    + max(p * q for p, q in zip(spec.label_prior, none)))


def read_spec(path) -> SynthSpec:
    """The spec in the JSON file at path, an object with one key per
    SynthSpec field ("giveaway" may be left out). Each error names path:
    IngestError for a file that is not UTF-8 JSON, else ConfigError."""
    data = parse_json("".join(line for _, line in numbered_lines(path)), path)
    try:
        if not isinstance(data, dict):
            raise ValueError("synth spec must be a JSON object")
        required = {f.name: f.default is MISSING for f in fields(SynthSpec)}
        if unknown := [repr(key) for key in data if key not in required]:
            raise ValueError(f"unknown synth spec key(s): {', '.join(unknown)}")
        if missing := [key for key in required if required[key] and key not in data]:
            raise ValueError(f"synth spec lacks key(s): {', '.join(missing)}")
        return SynthSpec(**data)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
