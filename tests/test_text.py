import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyponli.text import (
    Vocabulary, intern, load_embeddings, seeded_random_embeddings, tokenize,
)
from hyponli.util import IngestError

import reference

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

    # text drawn mostly from marks, whitespace of every kind and a few letters
    marked_text = st.text(alphabet=st.sampled_from(
        ".,!?;:\"'()" + "ab-<>" + " \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u1680\u2000\u2028\u3000"
        + "\u200b\ufeff"), max_size=40) | st.text(max_size=40)

    @given(marked_text)
    @settings(max_examples=1000, deadline=None)
    def test_matches_reference_loop(self, text):
        assert tokenize(text) == reference.tokenize(text)

    def test_every_whitespace_character_splits(self):
        spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
        assert len(spaces) > 20
        for ch in spaces:
            text = f"(a{ch}b.{ch}{ch}'c')"
            assert tokenize(text) == reference.tokenize(text) == \
                ["(", "a", "b", ".", "'", "c", "'", ")"], repr(ch)


class TestVocabulary:
    def test_bijective_and_contiguous(self):
        vocab = Vocabulary(["a", "b", "c"])
        assert [vocab.index[t] for t in ("a", "b", "c")] == [0, 1, 2]
        assert [vocab.tokens[i] for i in range(3)] == ["a", "b", "c"]
        assert len(vocab) == 3 and vocab.tokens == ("a", "b", "c")

    def test_repeated_token_rejected(self):
        with pytest.raises(ValueError, match="repeats token 'a'"):
            Vocabulary(["a", "b", "c", "b", "a"])


class TestIntern:
    def test_first_occurrence_order(self):
        vocab, ids, indptr = intern(["b a.", "", "a c b"])
        assert vocab.tokens == ("b", "a", ".", "c")
        assert ids.tolist() == [0, 1, 2, 1, 3, 0]
        assert indptr.tolist() == [0, 3, 3, 6]
        assert ids.dtype == indptr.dtype == np.int64

    def test_no_texts(self):
        vocab, ids, indptr = intern([])
        assert len(vocab) == 0 and ids.size == 0 and indptr.tolist() == [0]
        assert ids.dtype == indptr.dtype == np.int64

    @given(st.lists(st.lists(words, max_size=5), max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_ids_decode_to_tokens(self, sentences):
        texts = [" ".join(s) for s in sentences]
        vocab, ids, indptr = intern(texts)
        assert vocab.tokens == tuple(dict.fromkeys(tok for text in texts for tok in tokenize(text)))
        assert len(indptr) == len(texts) + 1 and indptr[-1] == ids.size
        for sentence, row in zip(texts, reference.sentences(range(len(texts)), (ids, indptr))):
            assert [vocab.tokens[i] for i in row] == tokenize(sentence)

    def test_encode_maps_unknown_to_oov_row(self):
        vocab = Vocabulary(["a", "b"])
        ids, indptr = vocab.encode(["b zzz a", "", "zzz"])
        assert ids.tolist() == [1, 2, 0, 2] and indptr.tolist() == [0, 3, 3, 4]
        ids, indptr = vocab.encode([])
        assert ids.dtype == indptr.dtype == np.int64 and indptr.tolist() == [0]

    @given(st.lists(st.text(alphabet=st.sampled_from("abX.,'! \t"), max_size=12), max_size=6),
           st.lists(st.text(alphabet=st.sampled_from("abX.,"), min_size=1, max_size=3),
                    max_size=8, unique=True))
    @settings(max_examples=200, deadline=None)
    def test_encode_equals_per_token_lookup(self, texts, known):
        vocab = Vocabulary(known)
        ids, indptr = vocab.encode(texts)
        assert ids.dtype == indptr.dtype == np.int64
        assert len(indptr) == len(texts) + 1 and indptr[-1] == ids.size
        got = reference.sentences(range(len(texts)), (ids, indptr))
        for row, text in zip(got, texts):
            assert row.tolist() == reference.lookup(vocab, tokenize(text)).tolist()


class TestLoadEmbeddings:
    def write(self, tmp_path, lines):
        path = tmp_path / "vecs.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_loaded_and_oov_assignment(self, tmp_path):
        path = self.write(tmp_path, ["a 1 2", "b 3 4", "c 5 6"])
        vocab = Vocabulary(["a", "b", "zzz"])
        emb = load_embeddings(path, vocab, 2)
        # rows a, b as loaded; zzz (absent from the file) and the OOV row
        # get the mean of the loaded vectors: ((1,2)+(3,4))/2
        assert np.array_equal(emb, [[1, 2], [3, 4], [2, 3], [2, 3]])
        assert emb.dtype == np.float64

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = self.write(tmp_path, ["a 1 2 3", "b 1 2"])
        with pytest.raises(IngestError, match="line 2"):
            load_embeddings(path, Vocabulary(["a", "b"]), 3)

    def test_words_holding_spaces_load_and_match_no_token(self, tmp_path):
        # GloVe has words such as ". . ."; U+00A0 is whitespace to str.split
        lines = ["a 1 2", ". . . 0.3 0.4", "a\u00a0b 0.3 0.4", "  b 3 4"]
        vocab = Vocabulary(["a", "b", ".", "c"])
        emb = load_embeddings(self.write(tmp_path, lines), vocab, 2)
        without = load_embeddings(self.write(tmp_path, [lines[0], lines[3]]), vocab, 2)
        assert emb.tobytes() == without.tobytes()
        assert np.array_equal(emb, [[1, 2], [3, 4], [2, 3], [2, 3], [2, 3]])

    @pytest.mark.parametrize("line, got", [("a 0.1 0.2 0.3", 3), ("a b 1 0.2 0.3", 4),
                                           ("a 0.1", 1), ("0.1 0.2", 1)],
                             ids=["one-too-many", "two-too-many", "one-too-few", "no-word"])
    def test_a_line_of_too_many_or_too_few_values_is_refused(self, tmp_path, line, got):
        """More than d values when the field before the last d reads as a
        number, fewer when the line has d fields or fewer."""
        path = self.write(tmp_path, ["b 1 2", line])
        with pytest.raises(IngestError, match=f"^{path}: line 2: expected 2 values, got {got}$"):
            load_embeddings(path, Vocabulary(["a", "b"]), 2)

    def test_a_numeric_word_is_a_word(self, tmp_path):
        path = self.write(tmp_path, ["1 0.5 0.25", "nan 0.1 0.2"])
        emb = load_embeddings(path, Vocabulary(["1", "nan"]), 2)
        assert emb[:2].tolist() == [[0.5, 0.25], [0.1, 0.2]]

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        path = self.write(tmp_path, ["a 1 2", f"zzz 1 {value}"])
        with pytest.raises(IngestError, match=f"{path}: line 2: non-finite"):
            load_embeddings(path, Vocabulary(["a"]), 2)

    def test_mean_oov_hand_computed(self, tmp_path):
        path = self.write(tmp_path, ["a 1 0 -1", "b 2 2 2", "c 3 4 -7"])
        vocab = Vocabulary(["a", "b", "c"])
        emb = load_embeddings(path, vocab, 3)
        assert np.allclose(emb[3], [2.0, 2.0, -2.0])

    def test_repeated_word_keeps_last_vector_in_first_seen_order(self, tmp_path):
        # c is seen first and keeps its last vector; the OOV mean adds the
        # rows in first-seen file order (c, b, a), which rounds differently
        # from vocabulary order (a, b, c) and last-seen order (b, a, c)
        path = self.write(tmp_path, ["c 0.5", "b 0.2", "a 0.3", "c 0.1"])
        emb = load_embeddings(path, Vocabulary(["a", "b", "c", "d"]), 1)
        assert emb[:3, 0].tolist() == [0.3, 0.2, 0.1]
        assert (0.1 + 0.2 + 0.3) / 3 != (0.3 + 0.2 + 0.1) / 3 == (0.2 + 0.3 + 0.1) / 3
        assert emb[3:, 0].tolist() == [(0.1 + 0.2 + 0.3) / 3] * 2

    @given(st.integers(2, 300), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_oov_row_is_numpys_mean_of_the_loaded_rows_in_first_seen_order(
            self, tmp_path_factory, dimension, seed):
        """For d >= 2 the sequential sum is numpy's own order for the mean
        over axis 0: random files of vocabulary and other words, repeats
        included, give the OOV row bit for bit."""
        rng = np.random.default_rng(seed)
        vocab = Vocabulary(f"v{i}" for i in range(int(rng.integers(1, 30))))
        words = [*vocab.tokens, "x0", "x1"]
        lines = [vocab.tokens[0], *rng.choice(words, int(rng.integers(0, 60)))]
        vectors = rng.standard_normal((len(lines), dimension))
        vectors *= 10.0 ** rng.integers(-3, 4, vectors.shape)
        vectors[rng.random(vectors.shape) < 0.05] = -0.0
        path = tmp_path_factory.mktemp("vecs") / "vecs.txt"
        path.write_text("".join(f"{word} {' '.join(map(repr, vec))}\n"
                                for word, vec in zip(lines, vectors.tolist())), encoding="utf-8")
        emb = load_embeddings(path, vocab, dimension)
        rows = dict(zip(lines, vectors))  # each word's last vector, in first-seen order
        loaded = [vocab.index[word] for word in rows if word in vocab.index]
        assert np.array_equal(emb[loaded], [rows[vocab.tokens[i]] for i in loaded])
        assert emb[-1].tobytes() == emb[loaded].mean(axis=0).tobytes()
        missing = sorted(set(range(len(vocab))) - set(loaded))
        assert (emb[missing] == emb[-1]).all()

    def test_one_dimensional_oov_row_is_the_sequential_sum(self, tmp_path):
        """At d = 1 numpy's mean sums pairwise; the OOV row adds the 100
        loaded values one by one in first-seen file order, as Python's
        floats do, which here differs in its last bits."""
        values = np.random.default_rng(3).standard_normal(100).tolist()
        path = self.write(tmp_path, [f"w{i} {value!r}" for i, value in enumerate(values)])
        emb = load_embeddings(path, Vocabulary(f"w{i}" for i in range(100)), 1)
        total = 0.0
        for value in values:
            total += value
        assert emb[-1, 0] == total / 100
        assert emb[-1, 0] != np.mean(values)

    def test_designated_unk_vector(self, tmp_path):
        path = self.write(tmp_path, ["a 1 1", "<unk> 9 9"])
        vocab = Vocabulary(["a", "<unk>", "b"])
        emb = load_embeddings(path, vocab, 2)
        # "<unk>" names the OOV vector, even when it is also a vocabulary token
        assert np.array_equal(emb, [[1, 1], [9, 9], [9, 9], [9, 9]])
        assert np.array_equal(emb[vocab.encode(["never-seen"])[0]], [[9, 9]])

    def test_empty_file_zero_oov(self, tmp_path):
        path = self.write(tmp_path, [])
        emb = load_embeddings(path, Vocabulary(["a"]), 4)
        assert np.array_equal(emb, np.zeros((2, 4)))


class TestSeededRandomEmbeddings:
    def test_same_seed_identical(self):
        vocab = Vocabulary(f"t{i}" for i in range(10))
        a = seeded_random_embeddings(vocab, 8, seed=5)
        b = seeded_random_embeddings(vocab, 8, seed=5)
        assert np.array_equal(a, b)

    def test_shapes(self):
        emb = seeded_random_embeddings(Vocabulary(f"t{i}" for i in range(5)), 8, seed=0)
        assert emb.shape == (6, 8) and emb.dtype == np.float64

    def test_value_range_over_10k_draws(self):
        vocab = Vocabulary(f"t{i}" for i in range(1000))
        mat = seeded_random_embeddings(vocab, 10, seed=3)
        assert mat.size >= 10_000
        assert mat.min() >= -0.1
        assert mat.max() <= 0.1


class TestLookupNeverFails:
    @given(st.lists(words, min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_every_token_maps(self, tokens):
        vocab = Vocabulary(["known"])
        emb = seeded_random_embeddings(vocab, 6, seed=1)
        ids, _ = vocab.encode([" ".join(tokens)])
        assert emb[ids].shape == (len(tokens), 6)

    def test_matrix_rows_align_with_vocab(self):
        # row i holds the i-th vector of the seeded stream and the last row
        # the OOV vector, bit for bit as drawn one vector at a time
        vocab = Vocabulary(f"t{i}" for i in range(300))
        for dimension in (1, 7, 50):
            for seed in (3, 11):
                mat = seeded_random_embeddings(vocab, dimension, seed)
                expected = reference.seeded_random_rows(vocab, dimension, seed)
                assert mat.tobytes() == expected.tobytes(), (dimension, seed)
