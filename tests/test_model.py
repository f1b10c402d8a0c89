import contextlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyponli import kernels, model
from hyponli.corpus import THREE_WAY, TWO_WAY
from hyponli.model import (
    ModelConfig, ModelParameters, load_checkpoint, loss_and_gradients, predict_batch,
    save_checkpoint,
)
from hyponli.text import Vocabulary, intern, seeded_random_embeddings

import reference
from helpers import as_csr, assert_labels_away_from_ties, clone, close
from reference import dense, encode_bag_rows, lookup, trainable_names


def small_vocab(n=10):
    return Vocabulary(f"t{i}" for i in range(n))


def make_params(encoder, seed=3, finetune=False, dim=8, hidden=4, mlp=8,
                n_labels=3, vocab=None):
    vocab = vocab or small_vocab()
    table = seeded_random_embeddings(vocab, dim, seed=seed)
    scheme = THREE_WAY if n_labels == 3 else TWO_WAY
    cfg = ModelConfig(encoder, embedding_dim=dim, hidden_dim=hidden, mlp_hidden=mlp,
                      seed=seed, finetune_embeddings=finetune)
    return ModelParameters.init(cfg, table, vocab, scheme)


def random_batch(params, rng, size=4, max_len=6):
    """(rows, tokens, label indices) of a random batch."""
    toks = params.vocab.tokens
    sentences, y = [], []
    for _ in range(size):
        n = int(rng.integers(1, max_len + 1))
        sent = [toks[int(i)] for i in rng.integers(0, len(toks), n)]
        y.append(int(rng.integers(0, len(params.scheme))))
        sentences.append(lookup(params.vocab, sent))
    return (*as_csr(sentences), np.array(y, dtype=np.int64))


def bag_mean(tokens, vocab, emb):
    """The bag encoding of tokens through the model's row-index path."""
    return model._encode_bag(*model._gather(*as_csr([lookup(vocab, tokens)])), emb)[0]


def encode_birnn_maxpool(rows, params, per_sentence=False):
    """The encoding of one sentence's token ids, through the time-major
    recurrence that predict_batch runs or the per-sentence one of
    loss_and_gradients."""
    return model._encode(rows, np.array([rows.size]), params, per_sentence)[0][0]


def predict_one(rows, params):
    """predict_batch's label of one sentence's token ids."""
    return int(predict_batch(*as_csr([rows]), params)[0])


class TestInit:
    def test_an_embedding_matrix_of_the_wrong_shape_is_refused(self):
        cfg = ModelConfig("bag", embedding_dim=8)
        with pytest.raises(ValueError,
                           match=r"^embedding matrix shape \(10, 8\) is not \(11, 8\)$"):
            ModelParameters.init(cfg, np.zeros((10, 8)), small_vocab(), THREE_WAY)


NON_FINITE = pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                                     ids=["nan", "inf", "-inf"])
ERROR_STATES = pytest.mark.parametrize("state", [contextlib.nullcontext,
                                                 lambda: np.errstate(all="raise")],
                                       ids=["plain", "errstate-raise"])


def spoiled_at(arr, value):
    """Copies of arr with value at its first, a middle and its last element."""
    for k in (0, arr.size // 2, arr.size - 1):
        bad = arr.copy()
        bad.flat[k] = value
        yield bad


class TestNonFiniteParameters:
    """Construction refuses a NaN or an infinity anywhere in any array, with the same text
    whether floating-point errors are ignored or raised; an empty array passes."""

    @NON_FINITE
    @ERROR_STATES
    def test_each_array_is_refused_by_name(self, value, state):
        params = make_params("birnn-maxpool", seed=6)
        assert len(params.arrays) == 11
        for name, arr in params.arrays.items():
            for bad in spoiled_at(arr, value):
                with state(), pytest.raises(model.NumericalError,
                                            match=rf"^parameter array {name!r} is not finite$"):
                    ModelParameters(params.config, params.scheme, params.vocab,
                                    {**params.arrays, name: bad})

    @NON_FINITE
    def test_load_checkpoint_names_the_path_and_the_array(self, tmp_path, value):
        path, header, body = valid_checkpoint(tmp_path, "birnn-maxpool")
        offset = 0
        for spec in header["arrays"]:
            size = math.prod(spec["shape"])
            arr = np.frombuffer(body, dtype="<f8", count=size, offset=offset)
            for bad in spoiled_at(arr, value):
                rewrite(path, header, body[:offset] + bad.tobytes() + body[offset + 8 * size:])
                message = f"{path}: parameter array {spec['name']!r} is not finite"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    load_checkpoint(path)
            offset += 8 * size

    def test_an_empty_array_passes(self):
        params = make_params("bag")
        back = ModelParameters(params.config, params.scheme, params.vocab,
                               {**params.arrays, "emb": np.empty((0, 8))})
        assert back.arrays["emb"].size == 0


class TestEncodeBag:
    def test_single_token_is_its_vector(self):
        vocab = small_vocab(3)
        emb = seeded_random_embeddings(vocab, 5, seed=0)
        assert np.array_equal(bag_mean(["t1"], vocab, emb), emb[vocab.index["t1"]])

    def test_permutation_invariant(self):
        vocab = small_vocab(4)
        emb = seeded_random_embeddings(vocab, 5, seed=0)
        a = bag_mean(["t0", "t1", "t2"], vocab, emb)
        b = bag_mean(["t2", "t0", "t1"], vocab, emb)
        assert np.allclose(a, b)

    def test_hand_computed_mean(self):
        vocab = intern(["x y z"])[0]
        emb = np.array([[1.0, 4.0], [2.0, -2.0], [3.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(bag_mean(["x", "y", "z"], vocab, emb), [2.0, 1.0])

    def test_empty_sentence_is_zero(self):
        vocab = small_vocab(1)
        emb = seeded_random_embeddings(vocab, 7, seed=0)
        assert np.array_equal(bag_mean([], vocab, emb), np.zeros(7))


class TestEncodeBirnn:
    def test_output_length_is_2h(self):
        params = make_params("birnn-maxpool", hidden=4)
        for length in (1, 2, 5, 9):
            enc = encode_birnn_maxpool(
                lookup(params.vocab, [f"t{i % 10}" for i in range(length)]), params)
            assert enc.shape == (8,)

    def test_length_one_equals_single_state(self):
        params = make_params("birnn-maxpool")
        rows = lookup(params.vocab, ["t3"])
        x = params.arrays["emb"][rows]
        states = []
        for wx, wh, b in (("wf_x", "wf_h", "wf_b"), ("wb_x", "wb_h", "wb_b")):
            z = x @ params.arrays[wx].T + params.arrays[b]
            h, c, tc = np.empty((3, 1, params.config.hidden_dim))
            kernels.lstm_forward(z, kernels.halve_ifo(z, params.arrays[wh]), h, c, tc)
            states.append(h[0])
        assert np.array_equal(encode_birnn_maxpool(rows, params), np.concatenate(states))

    def test_not_permutation_invariant_witness(self):
        params = make_params("birnn-maxpool")
        a = encode_birnn_maxpool(lookup(params.vocab, ["t0", "t1", "t2", "t3"]), params)
        b = encode_birnn_maxpool(lookup(params.vocab, ["t3", "t2", "t1", "t0"]), params)
        assert not np.allclose(a, b)

    def test_empty_sentence_is_zero(self):
        params = make_params("birnn-maxpool", hidden=4)
        assert np.array_equal(encode_birnn_maxpool(lookup(params.vocab, []), params),
                              np.zeros(8))

    def test_regression_fixture_seed7(self):
        # validated against the step-by-step scalar recurrence below; it
        # holds through both forms of the recurrence
        vocab = intern(["a b c d e f g h"])[0]
        table = seeded_random_embeddings(vocab, 8, seed=7)
        cfg = ModelConfig("birnn-maxpool", embedding_dim=8, hidden_dim=4,
                          mlp_hidden=8, seed=7)
        params = ModelParameters.init(cfg, table, vocab, THREE_WAY)
        frozen = [0.11353481818256901, 0.057677768133489946, 0.04989002135308302,
                  -0.10362806349718062, -0.05830379844380692, 0.19277986991794227,
                  0.1096879140550221, 0.08297201621042435]
        for per_sentence in (False, True):
            enc = encode_birnn_maxpool(lookup(vocab, ["a", "b", "c", "d"]), params, per_sentence)
            assert np.allclose(enc, frozen, rtol=0, atol=1e-15), per_sentence

    def test_matches_scalar_recurrence(self):
        """Independent recomputation: per-scalar loops with math.exp/tanh."""
        params = make_params("birnn-maxpool", seed=11)
        tokens = ["t1", "t4", "t2", "t7", "t0"]
        H, d = 4, 8

        def scalar_lstm(xs, wx, wh, b):
            h = [0.0] * H
            c = [0.0] * H
            states = []
            for x in xs:
                z = []
                for r in range(4 * H):
                    acc = b[r]
                    for k in range(d):
                        acc += wx[r][k] * x[k]
                    for k in range(H):
                        acc += wh[r][k] * h[k]
                    z.append(acc)
                sig = lambda v: 1.0 / (1.0 + math.exp(-v))
                i = [sig(z[r]) for r in range(H)]
                f = [sig(z[H + r]) for r in range(H)]
                g = [math.tanh(z[2 * H + r]) for r in range(H)]
                o = [sig(z[3 * H + r]) for r in range(H)]
                c = [f[r] * c[r] + i[r] * g[r] for r in range(H)]
                h = [o[r] * math.tanh(c[r]) for r in range(H)]
                states.append(list(h))
            return states

        emb = params.arrays["emb"]
        rows = lookup(params.vocab, tokens)
        xs = [emb[r].tolist() for r in rows]
        fwd = scalar_lstm(xs, params.arrays["wf_x"].tolist(),
                          params.arrays["wf_h"].tolist(), params.arrays["wf_b"].tolist())
        bwd = scalar_lstm(xs[::-1], params.arrays["wb_x"].tolist(),
                          params.arrays["wb_h"].tolist(), params.arrays["wb_b"].tolist())
        bwd_aligned = bwd[::-1]
        cat = [fwd[t] + bwd_aligned[t] for t in range(len(tokens))]
        expected = [max(cat[t][j] for t in range(len(tokens))) for j in range(2 * H)]
        enc = encode_birnn_maxpool(rows, params)
        assert np.allclose(enc, expected, rtol=1e-12, atol=1e-14)


class TestClassify:
    def zero_params(self):
        params = make_params("bag", dim=2, mlp=2)
        for name in ("mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2"):
            params.arrays[name][...] = 0.0
        return params

    def tiny_params(self):
        params = make_params("bag", dim=2, mlp=2, n_labels=2)
        params.arrays["mlp_w1"][...] = [[1.0, 0.0], [0.0, 1.0]]
        params.arrays["mlp_b1"][...] = 0.0
        params.arrays["mlp_w2"][...] = [[1.0, 0.0], [0.0, 1.0]]
        params.arrays["mlp_b2"][...] = 0.0
        # token t0 embeds to (0.5, -0.5), so the logits are tanh(0.5), tanh(-0.5)
        params.arrays["emb"][0] = [0.5, -0.5]
        return params

    def test_zero_weights_uniform(self):
        # d loss / d mlp_b2 of one example is softmax(logits) - onehot(y)
        params = self.zero_params()
        _, grads = loss_and_gradients(*as_csr([lookup(params.vocab, ["t3"])]), np.array([1]),
                                      params)
        assert np.allclose(grads["mlp_b2"], [1 / 3, 1 / 3 - 1, 1 / 3])

    def test_softmax_shift_invariance(self):
        params = make_params("bag", dim=2, mlp=4)
        (rows, tokens), y = as_csr([lookup(params.vocab, ["t0", "t4"])]), np.array([2])
        loss, grads = loss_and_gradients(rows, tokens, y, params)
        params.arrays["mlp_b2"][...] += 17.0
        shifted_loss, shifted_grads = loss_and_gradients(rows, tokens, y, params)
        assert shifted_loss == pytest.approx(loss, abs=1e-12)
        assert np.allclose(shifted_grads["mlp_b2"], grads["mlp_b2"])

    def test_hand_computed_tiny_case(self):
        params = self.tiny_params()
        assert predict_one(lookup(params.vocab, ["t0"]), params) == 0

    def test_hand_computed_tiny_loss(self):
        params = self.tiny_params()
        l0, l1 = math.tanh(0.5), math.tanh(-0.5)
        loss, _ = loss_and_gradients(*as_csr([lookup(params.vocab, ["t0"])]), np.array([0]),
                                     params)
        assert loss == pytest.approx(math.log(math.exp(l0) + math.exp(l1)) - l0, abs=1e-12)

    def test_argmax_tie_takes_lowest_index(self):
        params = self.zero_params()
        assert predict_one(lookup(params.vocab, ["t0", "t1"]), params) == 0

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=1000, deadline=None)
    def test_softmax_sums_to_one(self, seed):
        # softmax(logits) - onehot(y) sums to 0; logits up to ~1e3 stay finite
        rng = np.random.default_rng(seed)
        params = make_params("bag", dim=2, mlp=2)
        params.arrays["mlp_b2"][...] = rng.normal(scale=10 ** rng.integers(0, 4), size=3)
        loss, grads = loss_and_gradients(*as_csr([lookup(params.vocab, ["t1"])]),
                                         rng.integers(0, 3, 1), params)
        assert np.isfinite(loss) and loss >= 0.0
        assert abs(grads["mlp_b2"].sum()) < 1e-9


class TestLossAndGradients:
    def test_uniform_model_loss_is_ln3(self):
        params = make_params("bag")
        for name in ("mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2"):
            params.arrays[name][...] = 0.0
        rows, tokens = as_csr([lookup(params.vocab, ["t0"]), lookup(params.vocab, ["t1"])])
        loss, _ = loss_and_gradients(rows, tokens, np.array([0, 2]), params)
        assert loss == pytest.approx(math.log(3), abs=1e-12)

    def test_duplicated_batch_same_mean_loss(self):
        params = make_params("birnn-maxpool")
        rng = np.random.default_rng(5)
        rows, tokens, y = random_batch(params, rng)
        loss_once, _ = loss_and_gradients(rows, tokens, y, params)
        loss_twice, _ = loss_and_gradients(np.concatenate([rows, rows]), tokens,
                                           np.concatenate([y, y]), params)
        assert loss_twice == pytest.approx(loss_once, abs=1e-12)

    def test_empty_batch_rejected(self):
        params = make_params("bag")
        with pytest.raises(ValueError):
            loss_and_gradients(*as_csr([]), np.array([], dtype=np.int64), params)

    @pytest.mark.parametrize("encoder", ["bag", "birnn-maxpool"])
    def test_gradients_match_finite_differences(self, encoder):
        params = make_params(encoder, seed=21, finetune=True)
        rng = np.random.default_rng(21)
        rows, tokens, y = random_batch(params, rng)
        _, grads = loss_and_gradients(rows, tokens, y, params)
        step = 1e-4
        for name in trainable_names(params):
            flat = params.arrays[name].reshape(-1)
            gflat = dense(grads[name], params.arrays[name]).reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                lp, _ = loss_and_gradients(rows, tokens, y, params)
                flat[i] = orig - step
                lm, _ = loss_and_gradients(rows, tokens, y, params)
                flat[i] = orig
                fd = (lp - lm) / (2 * step)
                denom = max(abs(fd), abs(gflat[i]), 1e-6)
                assert abs(fd - gflat[i]) / denom < 1e-4, (name, i)

    def test_a_non_finite_loss_is_a_numerical_error(self):
        params = make_params("bag")
        params.arrays["mlp_b2"][0] = np.nan  # after the constructor's finiteness check
        with pytest.raises(model.NumericalError, match="^non-finite loss$"):
            loss_and_gradients(*as_csr([lookup(params.vocab, ["t0"])]), np.array([1]), params)

    def test_frozen_embeddings_have_no_gradient(self):
        params = make_params("bag", finetune=False)
        rng = np.random.default_rng(2)
        _, grads = loss_and_gradients(*random_batch(params, rng), params)
        assert "emb" not in grads


class TestNonFiniteHiddenState:
    """A NaN embedding row turns the forward states from its token on, and
    the backward states up to it, into NaN; the error names that token."""

    def params_with_nan(self):
        params = make_params("birnn-maxpool", seed=9, finetune=True)
        params.arrays["emb"][params.vocab.index["t4"]] = np.nan
        return params

    def test_loss_and_predict_name_the_first_bad_token(self):
        params = self.params_with_nan()
        rows = lookup(params.vocab, ["t1", "t2", "t4", "t3", "t4"])
        message = r"^non-finite hidden state at token index 2$"
        with pytest.raises(model.NumericalError, match=message):
            loss_and_gradients(*as_csr([lookup(params.vocab, ["t0"]), rows]),
                               np.array([0, 1]), params)
        with pytest.raises(model.NumericalError, match=message):
            predict_batch(*as_csr([lookup(params.vocab, ["t0"]), rows]), params)

    def test_fit_turns_it_into_train_abort(self):
        from hyponli.train import TrainAbort, TrainConfig, fit

        params = self.params_with_nan()
        sentences = [lookup(params.vocab, s) for s in (["t0", "t4"], ["t1"], ["t2"], ["t3"])]
        rows, tokens = as_csr(sentences)
        train, dev = (rows[:2], np.array([0, 1])), (rows[2:], np.array([1, 2]))
        with pytest.raises(TrainAbort,
                           match=r"^epoch 1: non-finite hidden state at token index 1$"):
            fit(train, dev, tokens, params, TrainConfig(max_epochs=1, batch_size=4))


class TestPredict:
    def test_prediction_consistency(self):
        for encoder in ("bag", "birnn-maxpool"):
            params = make_params(encoder)
            sentences = [lookup(params.vocab, s) for s in (["t0", "t5"], ["t3"], [])]
            batch = predict_batch(*as_csr(sentences), params)
            assert batch.dtype == np.int64
            assert assert_labels_away_from_ties(
                batch, reference.logits(sentences, params)) == len(sentences)


def ragged_batches(params):
    """Batches with empty sentences, ids repeated within and across
    sentences, the OOV row, and a batch of only empty sentences."""
    oov = len(params.vocab)
    ids = lambda *values: np.array(values, dtype=np.int64)
    return [
        [ids(0, 3, 3, 0), ids(), ids(oov, 3), ids(5), ids(), ids(3, oov, oov, 9, 1, 0, 3)],
        [ids(), ids(), ids()],
        [ids(oov)],
        [ids(2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2), ids(2)],
    ]


def same_bits(a, b) -> bool:
    """Equal shapes and bytes; unlike ==, this tells 0.0 from -0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_matches_reference(rows, tokens, y, params):
    """Loss, every dense gradient and the scattered embedding gradient
    equal the per-sentence reference: bitwise for the bag, and to rtol
    1e-12 for the BiLSTM, whose kernels sum in another order than the
    reference's per-step ones. A BiLSTM gradient element that cancels to
    near zero is held to 1e-12 of its array's largest magnitude instead."""
    batch = reference.sentences(rows, tokens)
    loss, grads = loss_and_gradients(rows, tokens, y, params)
    ref_loss, ref_grads = reference.loss_and_gradients(batch, y, params)
    if params.config.encoder_kind == "bag":
        same = same_bits
    else:
        same = lambda a, b: np.allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())
    assert same(loss, ref_loss)
    assert sorted(grads) == sorted(ref_grads)
    for name, grad in grads.items():
        if name == "emb":
            assert isinstance(grad, model.RowGradient)
            assert (np.diff(grad.rows) > 0).all()
            assert np.array_equal(grad.rows, np.unique(np.concatenate(batch)))
            assert grad.size == grad.values.size == grad.rows.size * params.config.embedding_dim
        assert same(dense(grad, params.arrays[name]), ref_grads[name]), name


@st.composite
def ragged_corpus(draw, n_ids):
    """(rows, tokens, label indices): a CSR token corpus of 1-8 sentences
    of lengths 0-7 over n_ids ids, and 1-10 rows of it in any order, with
    repeats, as a strided (non-contiguous) array."""
    sentences = draw(st.lists(st.lists(st.integers(0, n_ids - 1), max_size=7),
                              min_size=1, max_size=8))
    _, tokens = as_csr([np.array(s, dtype=np.int64) for s in sentences])
    picked = draw(st.lists(st.integers(0, len(sentences) - 1), min_size=1, max_size=10))
    rows = np.repeat(np.array(picked, dtype=np.int64), 2)[::2]
    y = draw(st.lists(st.integers(0, 2), min_size=rows.size, max_size=rows.size))
    return rows, tokens, np.array(y, dtype=np.int64)


class TestBatchedMatchesReference:
    @pytest.mark.parametrize("encoder", ["bag", "birnn-maxpool"])
    def test_ragged_batches(self, encoder):
        params = make_params(encoder, seed=31, finetune=True)
        cases = [params]
        if encoder == "birnn-maxpool":
            # zero LSTM weights make every hidden state exactly 0, so every
            # unit ties at every step: the pool must pick the earliest step
            # in token order, as the reference's np.add.at routing does
            ties = clone(params)
            for name in model._LSTM_ARRAYS:
                ties.arrays[name][...] = 0.0
            cases.append(ties)
        rng = np.random.default_rng(31)
        for case in cases:
            for batch in ragged_batches(case):
                assert_matches_reference(*as_csr(batch), rng.integers(0, 3, len(batch)), case)

    @pytest.mark.parametrize("encoder", ["bag", "birnn-maxpool"])
    def test_frozen_embeddings(self, encoder):
        params = make_params(encoder, seed=32)
        rng = np.random.default_rng(32)
        for batch in ragged_batches(params):
            assert_matches_reference(*as_csr(batch), rng.integers(0, 3, len(batch)), params)

    @given(data=st.data(), seed=st.integers(0, 10**6),
           encoder=st.sampled_from(["bag", "birnn-maxpool"]))
    @settings(max_examples=200, deadline=None)
    def test_property(self, data, seed, encoder):
        params = make_params(encoder, seed=seed, finetune=True)
        assert_matches_reference(*data.draw(ragged_corpus(len(params.vocab) + 1)), params)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_gather_equals_slices(self, data):
        rows, tokens, _ = data.draw(ragged_corpus(12))
        batch = reference.sentences(rows, tokens)
        ids, lengths = model._gather(rows, tokens)
        assert same_bits(ids, np.concatenate([np.empty(0, np.int64), *batch]))
        assert same_bits(lengths, np.array([s.size for s in batch], dtype=np.int64))

    @pytest.mark.parametrize("negative_zeros", [False, True])
    def test_bag_encoding_equals_per_sentence_mean(self, negative_zeros):
        params = make_params("bag", seed=33, dim=50, finetune=True)
        emb = params.arrays["emb"]
        if negative_zeros:  # numpy's mean sums from 0.0, so -0.0 alone gives 0.0
            emb[[2, len(params.vocab)], ::2] = -0.0
        rng = np.random.default_rng(33)
        for batch in ragged_batches(params):
            enc = model._encode_bag(*model._gather(*as_csr(batch)), emb)
            for k, rows in enumerate(batch):
                assert same_bits(enc[k], reference.encode_bag_rows(rows, emb))
            assert_matches_reference(*as_csr(batch), rng.integers(0, 3, len(batch)), params)

    def test_one_dimensional_embeddings_agree_to_rounding(self):
        # With one column, emb[rows].mean(axis=0) reduces a contiguous axis,
        # which numpy sums pairwise; the batched encoder always sums in
        # token order. Equality is bitwise from two columns on.
        params = make_params("bag", seed=34, dim=1)
        emb = params.arrays["emb"]
        batch = ragged_batches(params)[0] + [np.arange(11).repeat(3)]
        enc = model._encode_bag(*model._gather(*as_csr(batch)), emb)
        for k, rows in enumerate(batch):
            assert np.allclose(enc[k], reference.encode_bag_rows(rows, emb),
                               rtol=1e-14, atol=0)


def assert_recurrences_agree(rows, tokens, params):
    """The time-major and the per-sentence recurrence of _encode give the
    same encodings and token-order h, c, tc and gates of both directions,
    to rounding: each step's recurrent product is one (n_t, H) @ (H, 4H)
    in the first and a matrix-vector product in the second."""
    ids, lengths = model._gather(rows, tokens)
    enc, cache = model._encode(ids, lengths, params)
    ref_enc, ref_cache = model._encode(ids, lengths, params, per_sentence=True)
    assert close(enc, ref_enc)
    for name, got, want in zip(("gates", "h", "c", "tc"), cache[3:7], ref_cache[3:7]):
        assert close(np.asarray(got), np.asarray(want)), name


class TestTimeMajorMatchesPerSentence:
    def test_ragged_batches(self):
        """Empty and length-1 sentences, repeats, the OOV row, an all-empty
        batch, and zero LSTM weights, under which every state is 0 and
        every unit ties at every step."""
        params = make_params("birnn-maxpool", seed=37)
        ties = clone(params)
        for name in model._LSTM_ARRAYS:
            ties.arrays[name][...] = 0.0
        for case in (params, ties):
            for batch in ragged_batches(case) + [[np.array([3]), np.array([3, 3, 3])]]:
                assert_recurrences_agree(*as_csr(batch), case)

    @given(data=st.data(), seed=st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_property(self, data, seed):
        params = make_params("birnn-maxpool", seed=seed)
        rows, tokens, _ = data.draw(ragged_corpus(len(params.vocab) + 1))
        assert_recurrences_agree(rows, tokens, params)

    def test_packed_order(self):
        """Sentences of lengths 2, 0, 3, 1 at token rows 0-1, 2-4 and 5:
        step 0 holds the three non-empty ones longest first, step 1 the two
        longer than 1, step 2 the one of length 3."""
        lengths = np.array([2, 0, 3, 1])
        ends = np.cumsum(lengths)
        forward, backward, batch_sizes = model._packed_rows(lengths, ends - lengths, ends)
        assert batch_sizes == [3, 2, 1]
        assert forward.tolist() == [2, 0, 5, 3, 1, 4]
        assert backward.tolist() == [4, 1, 5, 3, 0, 2]


def bag_labels(batch, params) -> list[int]:
    """The bag's labels of a batch, exactly: the head over the stacked
    per-sentence means (the batched head's rows depend, in the last bits,
    on the batch size)."""
    enc = np.stack([encode_bag_rows(s, params.arrays["emb"]) for s in batch])
    return np.argmax(model._mlp_head(enc, params)[1], axis=1).tolist()


class TestPredictBatch:
    @pytest.mark.parametrize("encoder", ["bag", "birnn-maxpool"])
    def test_equals_per_sentence_predict(self, encoder):
        """Labels equal those of the per-sentence reference: exactly for the
        bag, and on every row for the BiLSTM, none of whose rows here lies
        within the tie margin."""
        params = make_params(encoder, seed=35)
        for batch in ragged_batches(params):
            got = predict_batch(*as_csr(batch), params)
            assert got.dtype == np.int64
            if encoder == "bag":
                assert got.tolist() == bag_labels(batch, params)
            else:
                assert assert_labels_away_from_ties(
                    got, reference.logits(batch, params)) == len(batch)

    @given(data=st.data(), seed=st.integers(0, 10**6),
           encoder=st.sampled_from(["bag", "birnn-maxpool"]))
    @settings(max_examples=100, deadline=None)
    def test_property(self, data, seed, encoder):
        """Labels of any rows equal the per-sentence reference: exactly for
        the bag, and for the BiLSTM away from near-ties, which leave at
        least one row checked."""
        params = make_params(encoder, seed=seed)
        rows, tokens, _ = data.draw(ragged_corpus(len(params.vocab) + 1))
        batch = reference.sentences(rows, tokens)
        got = predict_batch(rows, tokens, params)
        if encoder == "bag":
            assert got.tolist() == bag_labels(batch, params)
        else:
            assert assert_labels_away_from_ties(got, reference.logits(batch, params)) > 0

    def test_labels_do_not_depend_on_the_chunking(self, monkeypatch):
        """A split's BiLSTM labels are those of chunkings of 1, 2, 7 and all
        its rows, away from near-ties. The split is 90 rows in shuffled
        order over 60 sentences of lengths 0-9, so rows repeat and empty
        sentences and the OOV row occur; almost no row is a near-tie."""
        params = make_params("birnn-maxpool", seed=36)
        rng = np.random.default_rng(36)
        sentences = [rng.integers(0, len(params.vocab) + 1, n) for n in rng.integers(0, 10, 60)]
        _, tokens = as_csr(sentences)
        rows = rng.permutation(np.repeat(np.arange(60), 2))[:90]
        logits = reference.logits(reference.sentences(rows, tokens), params)
        labels = predict_batch(rows, tokens, params)
        assert assert_labels_away_from_ties(labels, logits) > 80
        for chunk in (1, 2, 7, rows.size):
            monkeypatch.setattr(model, "PREDICT_CHUNK", chunk)
            chunked = predict_batch(rows, tokens, params)
            assert chunked.dtype == np.int64
            assert_labels_away_from_ties(chunked, logits)

    @pytest.mark.parametrize("encoder", ["bag", "birnn-maxpool"])
    def test_empty_split(self, encoder):
        got = model.predict_batch(*as_csr([]), make_params(encoder))
        assert got.dtype == np.int64 and got.shape == (0,)


class TestDeterminism:
    def test_bit_identical_updates(self):
        from hyponli.train import sgd_step

        def run():
            params = make_params("birnn-maxpool", seed=13, finetune=True)
            rng = np.random.default_rng(13)
            for _ in range(5):
                _, grads = loss_and_gradients(*random_batch(params, rng), params)
                sgd_step(params, grads, 0.05)
            return params

        a, b = run(), run()
        for name in a.arrays:
            assert np.array_equal(a.arrays[name], b.arrays[name])


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = make_params("birnn-maxpool", seed=17, finetune=True)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        back = load_checkpoint(path)
        assert back.config == params.config
        assert back.scheme == params.scheme
        assert back.vocab.tokens == params.vocab.tokens
        for name in params.arrays:
            assert np.array_equal(back.arrays[name], params.arrays[name])

    def test_resave_byte_identical(self, tmp_path):
        params = make_params("bag", seed=4)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_prediction_survives_round_trip(self, tmp_path):
        params = make_params("birnn-maxpool", seed=29)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        back = load_checkpoint(path)
        tokens = lookup(params.vocab, ["t2", "t9", "t1"])
        assert np.array_equal(encode_birnn_maxpool(tokens, params),
                              encode_birnn_maxpool(tokens, back))
        assert predict_one(tokens, params) == predict_one(tokens, back)


def valid_checkpoint(tmp_path, encoder="bag"):
    """(path, header dict, array bytes) of a freshly saved checkpoint."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_params(encoder, seed=5), path)
    head, _, body = path.read_bytes().partition(b"\n")
    return path, json.loads(head), body


def rewrite(path, header, body):
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)


class TestCheckpointValidation:
    def expect_error(self, path, reason):
        with pytest.raises(ValueError, match=reason) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_header_not_an_object(self, tmp_path):
        path, header, body = valid_checkpoint(tmp_path)
        rewrite(path, list(header), body)
        self.expect_error(path, "not an object")

    def test_header_missing_arrays(self, tmp_path):
        path, header, body = valid_checkpoint(tmp_path)
        del header["arrays"]
        rewrite(path, header, body)
        self.expect_error(path, "not an object with keys")

    def test_unknown_version(self, tmp_path):
        path, header, body = valid_checkpoint(tmp_path)
        header["version"] = 99
        rewrite(path, header, body)
        self.expect_error(path, "version 99")

    def test_renamed_arrays(self, tmp_path):
        path, header, body = valid_checkpoint(tmp_path)
        for spec in header["arrays"]:
            spec["name"] = "x_" + spec["name"]
        rewrite(path, header, body)
        self.expect_error(path, "manifest does not match")

    def test_shape_disagrees_with_config(self, tmp_path):
        path, header, body = valid_checkpoint(tmp_path, "birnn-maxpool")
        header["config"]["hidden_dim"] += 1
        rewrite(path, header, body)
        self.expect_error(path, "manifest does not match")

    def test_truncated_array_is_named(self, tmp_path):
        path, _, _ = valid_checkpoint(tmp_path)
        path.write_bytes(path.read_bytes()[:-5])
        self.expect_error(path, "array 'mlp_b2' is truncated")

    def test_repeated_vocabulary_token(self, tmp_path):
        path, header, body = valid_checkpoint(tmp_path)
        header["vocab"][3] = header["vocab"][1]
        rewrite(path, header, body)
        self.expect_error(path, r"^[^\n]*repeats token 't1'[^\n]*$")

    @pytest.mark.parametrize("field, value", [
        ("vocab", lambda vocab: "".join(chr(ord("a") + i) for i in range(len(vocab)))),
        ("vocab", lambda vocab: list(range(len(vocab)))),
        ("labels", lambda labels: "xyz"),
    ], ids=["vocab-string", "vocab-integers", "labels-string"])
    def test_labels_and_vocab_must_be_lists_of_strings(self, tmp_path, field, value):
        """A string would be split into characters and integer tokens would
        map every real token to the OOV row; both keep the shapes, so only
        the type check stops them."""
        path, header, body = valid_checkpoint(tmp_path)
        header[field] = value(header[field])
        rewrite(path, header, body)
        self.expect_error(path, "lists of strings")

    @pytest.mark.parametrize("encoder, key, value", [
        ("bag", "embedding_dim", True),
        ("birnn-maxpool", "embedding_dim", True),
        ("birnn-maxpool", "hidden_dim", True),
        ("bag", "hidden_dim", True),
        ("bag", "mlp_hidden", True),
        ("bag", "seed", True),
        ("bag", "seed", [1]),
        ("bag", "finetune_embeddings", "no"),
        ("bag", "finetune_embeddings", 0),
    ], ids=["bag-embedding_dim-true", "birnn-embedding_dim-true", "birnn-hidden_dim-true",
            "bag-hidden_dim-true", "bag-mlp_hidden-true", "bag-seed-true", "bag-seed-list",
            "bag-finetune-string", "bag-finetune-int"])
    def test_config_values_must_have_their_types(self, tmp_path, encoder, key, value):
        """Every dimension is 1 and the seed is 1, so True (an int to
        Python) would pass where 1 does: the manifest check compares
        [11, True] == [11, 1] as true."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(make_params(encoder, seed=1, dim=1, hidden=1, mlp=1), path)
        head, _, body = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["config"][key] = value
        rewrite(path, header, body)
        self.expect_error(path, r"^[^\n]*malformed checkpoint header[^\n]*"
                                r"(must be integers|must be true or false)[^\n]*$")

    def test_manifest_larger_than_the_file_is_truncation(self, tmp_path):
        """The emb array's 8.8e15 bytes are refused before any read asks
        for them."""
        path, header, body = valid_checkpoint(tmp_path)
        dim = 10 ** 14
        header["config"]["embedding_dim"] = dim
        for spec in header["arrays"]:
            if spec["name"] in ("emb", "mlp_w1"):
                spec["shape"][1] = dim
        rewrite(path, header, body)
        n_rows = len(header["vocab"]) + 1
        self.expect_error(path, rf"array 'emb' is truncated \({len(body)} of "
                                rf"{8 * n_rows * dim} bytes\)")

    def test_trailing_bytes(self, tmp_path):
        path, _, _ = valid_checkpoint(tmp_path)
        path.write_bytes(path.read_bytes() + b"junk")
        self.expect_error(path, "trailing bytes")

    @given(data=st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_damaged_files_load_or_raise_value_error(self, tmp_path, data):
        encoder = data.draw(st.sampled_from(["bag", "birnn-maxpool"]))
        path, _, _ = valid_checkpoint(tmp_path, encoder)
        blob = bytearray(path.read_bytes())
        pos = data.draw(st.integers(0, len(blob) - 1))
        if data.draw(st.booleans()):
            del blob[pos:]
        else:
            blob[pos] ^= data.draw(st.integers(1, 255))
        path.write_bytes(bytes(blob))
        try:
            load_checkpoint(path)
        except ValueError:
            pass
