"""Tokenization, integer interning of token streams, and the embedding matrix.

tokenize is one regular expression. intern tokenizes each text once and
numbers its tokens in order of first occurrence, into an immutable
Vocabulary and a CSR token corpus (ids, indptr): the ids of all texts end
to end, text i at ids[indptr[i]:indptr[i + 1]]. The numbering runs in C,
through a counter-backed dict, and no Python int is kept per token.
Vocabulary.encode gives new texts the same form. The embedding matrix has
one row per vocabulary id plus a final out-of-vocabulary row at index
len(vocab): seeded_random_embeddings draws it in one call, and
load_embeddings fills it from a word-vector file read through
util.numbered_lines.
"""

from __future__ import annotations

import re
from array import array
from collections import defaultdict
from itertools import count

import numpy as np

from .util import IngestError, numbered_lines


# Marks detached from the ends of whitespace chunks. Case is preserved;
# word-internal marks (don't, U.S.) stay attached.
_PUNCT = ".,!?;:\"'()"
_P = re.escape(_PUNCT)
# one mark, or a run of non-space characters that starts and ends with a non-mark
_TOKEN = re.compile(rf"[{_P}]|[^\s{_P}](?:\S*[^\s{_P}])?")

OOV_TOKEN = "<unk>"


def tokenize(text: str) -> list[str]:
    """Split on whitespace and peel leading/trailing punctuation marks.

    Deterministic and pure; never emits empty tokens. "Nobody is sleeping."
    tokenizes to [Nobody, is, sleeping, .].
    """
    return _TOKEN.findall(text)


class Vocabulary:
    """A bijective token/index map, built once and read by its fields: tokens,
    the tuple of tokens, token i at tokens[i], and index, each token's position."""

    def __init__(self, tokens):
        self.tokens = tuple(tokens)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            dup = next(tok for i, tok in enumerate(self.tokens) if self.index[tok] != i)
            raise ValueError(f"vocabulary repeats token {dup!r}")

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, texts) -> tuple[np.ndarray, np.ndarray]:
        """The CSR token corpus (ids, indptr) of texts, as intern gives it,
        with len(self) (the OOV row) for tokens outside the vocabulary."""
        local, ids, indptr = intern(texts)
        oov = len(self.tokens)
        known = np.array([self.index.get(tok, oov) for tok in local.tokens], dtype=np.int64)
        return known[ids], indptr


def intern(texts) -> tuple[Vocabulary, np.ndarray, np.ndarray]:
    """Tokenize each text once and give every token an integer id.

    Ids are assigned in order of first occurrence, so the vocabulary of
    train + dev + test texts, passed in that order, lists train tokens
    first. Returns the vocabulary and the CSR token corpus: int64 ids
    and int64 offsets indptr, text i having ids[indptr[i]:indptr[i + 1]].
    A token's first lookup in the index numbers it from a counter; the
    ids accumulate in an array('q') of machine integers, which the
    returned ids view without a copy.
    """
    index = defaultdict(count().__next__)
    ids = array("q")
    lengths = array("q", [0])
    for text in texts:
        words = tokenize(text)
        lengths.append(len(words))
        ids.extend(map(index.__getitem__, words))
    tokens = tuple(index)
    del index  # so that peak memory holds one token map, not two
    return (Vocabulary(tokens), np.frombuffer(ids, dtype=np.int64),
            np.cumsum(lengths, dtype=np.int64))


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def load_embeddings(path, vocab: Vocabulary, dimension: int) -> np.ndarray:
    """The (len(vocab) + 1, dimension) embedding matrix from a word-vector
    text file: per line, a word (GloVe's may hold spaces) and its values,
    the last d whitespace-separated fields. Only vocab words are kept; a
    word given twice keeps its last vector. The final row, and the row of
    every vocab word the file lacks, is the OOV vector: the row named
    "<unk>" if there is one, else the mean of the loaded vectors in
    first-seen file order, else zeros. A line of d fields or fewer or of
    more than d values (a number before the last d), a value that is not
    a finite number and a byte that is not UTF-8 raise util.IngestError
    naming the path and line; so does a mean that overflows, naming the path.
    """
    matrix = np.zeros((len(vocab) + 1, dimension), dtype=np.float64)
    loaded: dict[int, None] = {}  # vocab ids in first-seen file order
    oov = None  # the vector of the "<unk>" line, if there is one
    for lineno, line in numbered_lines(path):
        parts = line.split()
        if not parts:
            continue
        if len(parts) <= dimension or (len(parts) > dimension + 1
                                       and _is_number(parts[-dimension - 1])):
            raise IngestError(
                f"{path}: line {lineno}: expected {dimension} values, got {len(parts) - 1}")
        try:
            vec = np.array([float(v) for v in parts[-dimension:]], dtype=np.float64)
        except ValueError as exc:
            raise IngestError(f"{path}: line {lineno}: non-numeric value") from exc
        if not np.isfinite(vec).all():
            raise IngestError(f"{path}: line {lineno}: non-finite value")
        word = parts[0] if len(parts) == dimension + 1 else line.rsplit(None, dimension)[0].strip()
        if word == OOV_TOKEN:
            oov = vec
            continue
        idx = vocab.index.get(word)
        if idx is not None:
            matrix[idx] = vec
            loaded.setdefault(idx)
    if oov is None and loaded:
        with np.errstate(over="ignore", invalid="ignore"):
            oov = matrix[list(loaded)].mean(axis=0)
        if not np.isfinite(oov).all():
            raise IngestError(f"{path}: the mean of the loaded vectors, the default "
                              f"OOV vector, is not finite; add a {OOV_TOKEN!r} line")
    if oov is not None:  # else the rows the file did not fill keep their zeros
        missing = np.ones(len(matrix), dtype=bool)
        missing[list(loaded)] = False
        matrix[missing] = oov
    return matrix


def seeded_random_embeddings(vocab: Vocabulary, dimension: int, seed: int) -> np.ndarray:
    """The (len(vocab) + 1, dimension) embedding matrix of deterministic
    uniform [-0.1, 0.1] draws, a desk-scale substitute for pretrained files."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.1, 0.1, (len(vocab) + 1, dimension))
