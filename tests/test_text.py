import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyponli.text import (
    EmbeddingFormatError, EmbeddingTable, Vocabulary, intern, load_embeddings,
    seeded_random_embeddings, tokenize,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

words = st.text(alphabet=st.sampled_from("abcdefgXYZ0123"), min_size=1, max_size=6)


class TestTokenize:
    def test_trailing_period_detached(self):
        assert tokenize("Nobody is sleeping.") == ["Nobody", "is", "sleeping", "."]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_case_preserved(self):
        assert tokenize("An an Nobody") == ["An", "an", "Nobody"]

    def test_no_empty_tokens(self):
        for text in ("...", "a  b", " x ", "()", "'"):
            assert all(tok for tok in tokenize(text))

    def test_frozen_fixture(self):
        # 50 sentences reviewed once and frozen as regression data
        with open(os.path.join(DATA_DIR, "tokenize_cases.jsonl"), encoding="utf-8") as fh:
            cases = [json.loads(line) for line in fh]
        assert len(cases) == 50
        for case in cases:
            assert tokenize(case["text"]) == case["tokens"], case["text"]

    @given(st.lists(words, min_size=0, max_size=6), st.lists(words, min_size=0, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_concatenation(self, left, right):
        # boundary tokens here never touch punctuation, so token lists concatenate
        a = " ".join(left)
        b = " ".join(right)
        joined = (a + " " + b) if a and b else a + b
        assert tokenize(joined) == tokenize(a) + tokenize(b)

    @given(st.text(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_deterministic_and_nonempty(self, text):
        toks = tokenize(text)
        assert toks == tokenize(text)
        assert all(toks)


def small_vocab(tokens):
    vocab = Vocabulary()
    for tok in tokens:
        vocab.add(tok)
    return vocab.freeze()


class TestVocabulary:
    def test_bijective_and_contiguous(self):
        vocab = small_vocab(["a", "b", "c"])
        assert [vocab.index(t) for t in ("a", "b", "c")] == [0, 1, 2]
        assert [vocab.token(i) for i in range(3)] == ["a", "b", "c"]

    def test_frozen_rejects_new(self):
        vocab = small_vocab(["a"])
        with pytest.raises(ValueError):
            vocab.add("b")

    def test_add_existing_after_freeze_ok(self):
        vocab = small_vocab(["a"])
        assert vocab.add("a") == 0


class TestIntern:
    def test_first_occurrence_order(self):
        vocab, ids = intern(["b a.", "", "a c b"])
        assert vocab.tokens == ["b", "a", ".", "c"]
        assert [row.tolist() for row in ids] == [[0, 1, 2], [], [1, 3, 0]]
        assert all(row.dtype == np.int64 for row in ids)
        assert vocab.frozen

    @given(st.lists(st.lists(words, max_size=5), max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_ids_decode_to_tokens(self, sentences):
        texts = [" ".join(s) for s in sentences]
        vocab, ids = intern(texts)
        for sentence, row in zip(texts, ids):
            assert [vocab.token(i) for i in row] == tokenize(sentence)

    def test_encode_maps_unknown_to_oov_row(self):
        vocab = small_vocab(["a", "b"])
        assert vocab.encode(["b", "zzz", "a"]).tolist() == [1, 2, 0]
        assert vocab.encode([]).dtype == np.int64


class TestLoadEmbeddings:
    def write(self, tmp_path, lines):
        path = tmp_path / "vecs.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_loaded_and_oov_assignment(self, tmp_path):
        path = self.write(tmp_path, ["a 1 2", "b 3 4", "c 5 6"])
        vocab = small_vocab(["a", "b", "zzz"])
        table = load_embeddings(path, vocab, 2)
        assert np.array_equal(table.vector("a"), [1, 2])
        assert np.array_equal(table.vector("b"), [3, 4])
        assert "zzz" not in table
        # mean of loaded vectors: ((1,2)+(3,4))/2
        assert np.array_equal(table.vector("zzz"), [2, 3])

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = self.write(tmp_path, ["a 1 2 3", "b 1 2"])
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            load_embeddings(path, small_vocab(["a", "b"]), 3)

    def test_mean_oov_hand_computed(self, tmp_path):
        path = self.write(tmp_path, ["a 1 0 -1", "b 2 2 2", "c 3 4 -7"])
        vocab = small_vocab(["a", "b", "c"])
        table = load_embeddings(path, vocab, 3)
        assert np.allclose(table.oov_vector, [2.0, 2.0, -2.0])

    def test_designated_unk_vector(self, tmp_path):
        path = self.write(tmp_path, ["a 1 1", "<unk> 9 9"])
        table = load_embeddings(path, small_vocab(["a"]), 2)
        assert np.array_equal(table.oov_vector, [9, 9])
        assert np.array_equal(table.vector("never-seen"), [9, 9])

    def test_empty_file_zero_oov(self, tmp_path):
        path = self.write(tmp_path, [])
        table = load_embeddings(path, small_vocab(["a"]), 4)
        assert np.array_equal(table.oov_vector, np.zeros(4))


class TestSeededRandomEmbeddings:
    def test_same_seed_identical(self):
        vocab = small_vocab([f"t{i}" for i in range(10)])
        a = seeded_random_embeddings(vocab, 8, seed=5)
        b = seeded_random_embeddings(vocab, 8, seed=5)
        for tok in vocab.tokens:
            assert np.array_equal(a.vector(tok), b.vector(tok))
        assert np.array_equal(a.oov_vector, b.oov_vector)

    def test_shapes(self):
        vocab = small_vocab([f"t{i}" for i in range(5)])
        table = seeded_random_embeddings(vocab, 8, seed=0)
        assert len(table.vectors) == 5
        assert all(v.shape == (8,) for v in table.vectors.values())

    def test_value_range_over_10k_draws(self):
        vocab = small_vocab([f"t{i}" for i in range(1000)])
        table = seeded_random_embeddings(vocab, 10, seed=3)
        mat = np.stack(list(table.vectors.values()) + [table.oov_vector])
        assert mat.size >= 10_000
        assert mat.min() >= -0.1
        assert mat.max() <= 0.1


class TestLookupNeverFails:
    @given(st.lists(words, min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_every_token_maps(self, tokens):
        vocab = small_vocab(["known"])
        table = seeded_random_embeddings(vocab, 6, seed=1)
        for tok in tokens:
            assert table.vector(tok).shape == (6,)

    def test_matrix_rows_align_with_vocab(self):
        vocab = small_vocab(["x", "y"])
        table = seeded_random_embeddings(vocab, 4, seed=2)
        mat = table.matrix_for(vocab)
        assert mat.shape == (3, 4)
        assert np.array_equal(mat[0], table.vector("x"))
        assert np.array_equal(mat[1], table.vector("y"))
        assert np.array_equal(mat[2], table.oov_vector)
