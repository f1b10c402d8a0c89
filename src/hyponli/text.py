"""Tokenization, integer interning of token streams, and embedding lookup."""

from __future__ import annotations

import numpy as np


class EmbeddingFormatError(ValueError):
    """A word-vector file line that does not match the declared dimension."""


# Marks detached from the ends of whitespace chunks. Case is preserved;
# word-internal marks (don't, U.S.) stay attached.
_PUNCT = frozenset(".,!?;:\"'()")

OOV_TOKEN = "<unk>"


def tokenize(text: str) -> list[str]:
    """Split on whitespace and peel leading/trailing punctuation marks.

    Deterministic and pure; never emits empty tokens. "Nobody is sleeping."
    tokenizes to [Nobody, is, sleeping, .].
    """
    tokens: list[str] = []
    for chunk in text.split():
        prefix = []
        while chunk and chunk[0] in _PUNCT:
            prefix.append(chunk[0])
            chunk = chunk[1:]
        suffix = []
        while chunk and chunk[-1] in _PUNCT:
            suffix.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(prefix)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(suffix))
    return tokens


class Vocabulary:
    """Bijective token/index map with contiguous indices from 0."""

    def __init__(self):
        self._index: dict[str, int] = {}
        self._tokens: list[str] = []
        self.frozen = False

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def add(self, token: str) -> int:
        if token in self._index:
            return self._index[token]
        if self.frozen:
            raise ValueError(f"vocabulary is frozen; cannot add {token!r}")
        idx = len(self._tokens)
        self._index[token] = idx
        self._tokens.append(token)
        return idx

    def index(self, token: str) -> int:
        return self._index[token]

    def get(self, token: str, default: int | None = None) -> int | None:
        return self._index.get(token, default)

    def token(self, index: int) -> str:
        return self._tokens[index]

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)

    def freeze(self) -> "Vocabulary":
        self.frozen = True
        return self

    def encode(self, tokens) -> np.ndarray:
        """Ids of tokens, with len(self) (the OOV row) for unknown ones."""
        oov = len(self._tokens)
        return np.array([self._index.get(tok, oov) for tok in tokens], dtype=np.int64)


def intern(texts) -> tuple[Vocabulary, list[np.ndarray]]:
    """Tokenize each text once and give every token an integer id.

    Ids are assigned in order of first occurrence, so the vocabulary of
    train + dev + test texts, passed in that order, lists train tokens
    first. Returns the frozen vocabulary and one int64 id array per text.
    """
    vocab = Vocabulary()
    add = vocab.add
    ids = [np.array([add(tok) for tok in tokenize(text)], dtype=np.int64) for text in texts]
    return vocab.freeze(), ids


class EmbeddingTable:
    """Token vectors of one dimension plus an out-of-vocabulary fallback."""

    def __init__(self, dimension: int, vectors: dict[str, np.ndarray],
                 oov_vector: np.ndarray, source: str):
        if oov_vector.shape != (dimension,):
            raise ValueError("oov vector length does not match dimension")
        for tok, vec in vectors.items():
            if vec.shape != (dimension,):
                raise ValueError(f"vector for {tok!r} does not match dimension")
        self.dimension = dimension
        self.vectors = vectors
        self.oov_vector = oov_vector
        self.source = source

    def __contains__(self, token: str) -> bool:
        return token in self.vectors

    def vector(self, token: str) -> np.ndarray:
        """Lookup never fails: unknown tokens get the OOV vector."""
        return self.vectors.get(token, self.oov_vector)

    def matrix_for(self, vocab: Vocabulary) -> np.ndarray:
        """Rows aligned to vocab indices, with the OOV vector as a final
        extra row (index len(vocab))."""
        mat = np.empty((len(vocab) + 1, self.dimension), dtype=np.float64)
        for idx in range(len(vocab)):
            mat[idx] = self.vector(vocab.token(idx))
        mat[len(vocab)] = self.oov_vector
        return mat


def load_embeddings(path, vocab: Vocabulary, dimension: int) -> EmbeddingTable:
    """Load a word-vector text file ("word v1 ... vd" per line).

    Only vocab words are retained. A row named "<unk>" is taken as the
    designated OOV vector; otherwise the OOV vector is the mean of the
    loaded vectors (zeros if nothing loaded). A line with the wrong number
    of values raises EmbeddingFormatError with its line number.
    """
    vectors: dict[str, np.ndarray] = {}
    designated_oov = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            word, values = parts[0], parts[1:]
            if len(values) != dimension:
                raise EmbeddingFormatError(
                    f"{path}: line {lineno}: expected {dimension} values, got {len(values)}"
                )
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                raise EmbeddingFormatError(
                    f"{path}: line {lineno}: non-numeric value"
                ) from exc
            if word == OOV_TOKEN:
                designated_oov = vec
            elif word in vocab:
                vectors[word] = vec
    if designated_oov is not None:
        oov = designated_oov
    elif vectors:
        oov = np.mean(np.stack(list(vectors.values())), axis=0)
    else:
        oov = np.zeros(dimension, dtype=np.float64)
    return EmbeddingTable(dimension, vectors, oov, source="file")


def seeded_random_embeddings(vocab: Vocabulary, dimension: int, seed: int) -> EmbeddingTable:
    """Deterministic uniform [-0.1, 0.1] vectors, a desk-scale substitute
    for pretrained files."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    vectors = {tok: rng.uniform(-0.1, 0.1, dimension) for tok in vocab.tokens}
    oov = rng.uniform(-0.1, 0.1, dimension)
    return EmbeddingTable(dimension, vectors, oov, source="seeded-random")
