import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyponli import model
from hyponli.corpus import THREE_WAY, TWO_WAY
from hyponli.model import (
    ModelConfig, ModelParameters, _encode_bag_rows, classify, encode_birnn_maxpool,
    load_checkpoint, loss_and_gradients, predict, save_checkpoint,
)
from hyponli.text import EmbeddingTable, Vocabulary, intern, seeded_random_embeddings


def small_vocab(n=10):
    vocab = Vocabulary()
    for i in range(n):
        vocab.add(f"t{i}")
    return vocab.freeze()


def make_params(encoder, seed=3, finetune=False, dim=8, hidden=4, mlp=8,
                n_labels=3, vocab=None):
    vocab = vocab or small_vocab()
    table = seeded_random_embeddings(vocab, dim, seed=seed)
    scheme = THREE_WAY if n_labels == 3 else TWO_WAY
    cfg = ModelConfig(encoder, embedding_dim=dim, hidden_dim=hidden, mlp_hidden=mlp,
                      n_labels=n_labels, seed=seed, finetune_embeddings=finetune)
    return ModelParameters.init(cfg, table, vocab, scheme)


def random_batch(params, rng, size=4, max_len=6):
    toks = params.vocab.tokens
    batch = []
    for _ in range(size):
        n = int(rng.integers(1, max_len + 1))
        sent = [toks[int(i)] for i in rng.integers(0, len(toks), n)]
        label = params.scheme.by_index(int(rng.integers(0, len(params.scheme))))
        batch.append((params.vocab.encode(sent), label))
    return batch


def bag_mean(tokens, vocab, table):
    """The bag encoding of tokens through the model's row-index path."""
    rows = vocab.encode(tokens)
    return _encode_bag_rows(rows, table.matrix_for(vocab))


class TestEncodeBag:
    def test_single_token_is_its_vector(self):
        vocab = small_vocab(3)
        table = seeded_random_embeddings(vocab, 5, seed=0)
        assert np.array_equal(bag_mean(["t1"], vocab, table), table.vector("t1"))

    def test_permutation_invariant(self):
        vocab = small_vocab(4)
        table = seeded_random_embeddings(vocab, 5, seed=0)
        a = bag_mean(["t0", "t1", "t2"], vocab, table)
        b = bag_mean(["t2", "t0", "t1"], vocab, table)
        assert np.allclose(a, b)

    def test_hand_computed_mean(self):
        vocab = intern(["x y z"])[0]
        table = EmbeddingTable(
            2,
            {"x": np.array([1.0, 4.0]), "y": np.array([2.0, -2.0]),
             "z": np.array([3.0, 1.0])},
            np.zeros(2), source="file")
        assert np.array_equal(bag_mean(["x", "y", "z"], vocab, table), [2.0, 1.0])

    def test_empty_sentence_is_zero(self):
        vocab = small_vocab(1)
        table = seeded_random_embeddings(vocab, 7, seed=0)
        assert np.array_equal(bag_mean([], vocab, table), np.zeros(7))


class TestEncodeBirnn:
    def test_output_length_is_2h(self):
        params = make_params("birnn-maxpool", hidden=4)
        for length in (1, 2, 5, 9):
            enc = encode_birnn_maxpool(
                params.vocab.encode([f"t{i % 10}" for i in range(length)]), params)
            assert enc.shape == (8,)

    def test_length_one_equals_single_state(self):
        params = make_params("birnn-maxpool")
        rows = params.vocab.encode(["t3"])
        enc = encode_birnn_maxpool(rows, params)
        _, fwd, bwd, h_cat = model._birnn_states(rows, params)
        assert h_cat.shape == (1, 8)
        assert np.array_equal(enc, h_cat[0])

    def test_not_permutation_invariant_witness(self):
        params = make_params("birnn-maxpool")
        a = encode_birnn_maxpool(params.vocab.encode(["t0", "t1", "t2", "t3"]), params)
        b = encode_birnn_maxpool(params.vocab.encode(["t3", "t2", "t1", "t0"]), params)
        assert not np.allclose(a, b)

    def test_empty_sentence_is_zero(self):
        params = make_params("birnn-maxpool", hidden=4)
        assert np.array_equal(encode_birnn_maxpool(params.vocab.encode([]), params),
                              np.zeros(8))

    def test_regression_fixture_seed7(self):
        # validated against the step-by-step scalar recurrence below
        vocab = intern(["a b c d e f g h"])[0]
        table = seeded_random_embeddings(vocab, 8, seed=7)
        cfg = ModelConfig("birnn-maxpool", embedding_dim=8, hidden_dim=4,
                          mlp_hidden=8, n_labels=3, seed=7)
        params = ModelParameters.init(cfg, table, vocab, THREE_WAY)
        enc = encode_birnn_maxpool(vocab.encode(["a", "b", "c", "d"]), params)
        frozen = [0.11353481818256901, 0.057677768133489946, 0.04989002135308302,
                  -0.10362806349718062, -0.05830379844380692, 0.19277986991794227,
                  0.1096879140550221, 0.08297201621042435]
        assert np.allclose(enc, frozen, rtol=0, atol=1e-15)

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

        emb = params.array("emb")
        rows = params.vocab.encode(tokens)
        xs = [emb[r].tolist() for r in rows]
        fwd = scalar_lstm(xs, params.array("wf_x").tolist(),
                          params.array("wf_h").tolist(), params.array("wf_b").tolist())
        bwd = scalar_lstm(xs[::-1], params.array("wb_x").tolist(),
                          params.array("wb_h").tolist(), params.array("wb_b").tolist())
        bwd_aligned = bwd[::-1]
        cat = [fwd[t] + bwd_aligned[t] for t in range(len(tokens))]
        expected = [max(cat[t][j] for t in range(len(tokens))) for j in range(2 * H)]
        enc = encode_birnn_maxpool(rows, params)
        assert np.allclose(enc, expected, rtol=1e-12, atol=1e-14)


class TestClassify:
    def zero_params(self, enc_dim=2, n_labels=3):
        params = make_params("bag", dim=enc_dim, mlp=2, n_labels=n_labels)
        for name in ("mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2"):
            params.array(name)[...] = 0.0
        return params

    def test_zero_weights_uniform(self):
        params = self.zero_params()
        pred = classify(np.array([0.3, -0.4]), params)
        assert np.allclose(pred.probabilities, [1 / 3] * 3)

    def test_softmax_shift_invariance(self):
        params = make_params("bag", dim=2, mlp=4)
        pred = classify(np.array([0.5, -0.2]), params)
        shifted = model._softmax(pred.logits + 17.0)
        assert np.allclose(shifted, pred.probabilities)

    def test_hand_computed_tiny_case(self):
        params = make_params("bag", dim=2, mlp=2, n_labels=2)
        params.array("mlp_w1")[...] = [[1.0, 0.0], [0.0, 1.0]]
        params.array("mlp_b1")[...] = 0.0
        params.array("mlp_w2")[...] = [[1.0, 0.0], [0.0, 1.0]]
        params.array("mlp_b2")[...] = 0.0
        enc = np.array([0.5, -0.5])
        pred = classify(enc, params)
        l0, l1 = math.tanh(0.5), math.tanh(-0.5)
        p0 = math.exp(l0) / (math.exp(l0) + math.exp(l1))
        assert np.allclose(pred.logits, [l0, l1])
        assert pred.probabilities[0] == pytest.approx(p0, abs=1e-12)
        assert pred.label == TWO_WAY.by_index(0)

    def test_shape_mismatch_rejected(self):
        params = make_params("bag", dim=4)
        with pytest.raises(ValueError):
            classify(np.zeros(5), params)

    def test_argmax_tie_takes_lowest_index(self):
        params = self.zero_params()
        pred = classify(np.array([1.0, 1.0]), params)
        assert pred.label.index == 0

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=1000, deadline=None)
    def test_softmax_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        probs = model._softmax(rng.normal(scale=10, size=3))
        assert abs(probs.sum() - 1.0) < 1e-9


class TestLossAndGradients:
    def test_uniform_model_loss_is_ln3(self):
        params = make_params("bag")
        for name in ("mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2"):
            params.array(name)[...] = 0.0
        batch = [(params.vocab.encode(["t0"]), THREE_WAY.by_index(0)),
                 (params.vocab.encode(["t1"]), THREE_WAY.by_index(2))]
        loss, _ = loss_and_gradients(batch, params)
        assert loss == pytest.approx(math.log(3), abs=1e-12)

    def test_duplicated_batch_same_mean_loss(self):
        params = make_params("birnn-maxpool")
        rng = np.random.default_rng(5)
        batch = random_batch(params, rng)
        loss_once, _ = loss_and_gradients(batch, params)
        loss_twice, _ = loss_and_gradients(batch + batch, params)
        assert loss_twice == pytest.approx(loss_once, abs=1e-12)

    def test_empty_batch_rejected(self):
        params = make_params("bag")
        with pytest.raises(ValueError):
            loss_and_gradients([], params)

    @pytest.mark.parametrize("encoder", ["bag", "birnn-maxpool"])
    def test_gradients_match_finite_differences(self, encoder):
        params = make_params(encoder, seed=21, finetune=True)
        rng = np.random.default_rng(21)
        batch = random_batch(params, rng)
        _, grads = loss_and_gradients(batch, params)
        step = 1e-4
        for name in params.trainable_names():
            flat = params.array(name).reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                lp, _ = loss_and_gradients(batch, params)
                flat[i] = orig - step
                lm, _ = loss_and_gradients(batch, params)
                flat[i] = orig
                fd = (lp - lm) / (2 * step)
                denom = max(abs(fd), abs(gflat[i]), 1e-6)
                assert abs(fd - gflat[i]) / denom < 1e-4, (name, i)

    def test_frozen_embeddings_have_no_gradient(self):
        params = make_params("bag", finetune=False)
        rng = np.random.default_rng(2)
        _, grads = loss_and_gradients(random_batch(params, rng), params)
        assert "emb" not in grads


class TestPredict:
    def test_prediction_consistency(self):
        for encoder in ("bag", "birnn-maxpool"):
            params = make_params(encoder)
            pred = predict(params.vocab.encode(["t0", "t5"]), params)
            assert pred.label == params.scheme.by_index(int(np.argmax(pred.logits)))
            assert abs(pred.probabilities.sum() - 1.0) < 1e-9


class TestDeterminism:
    def test_bit_identical_updates(self):
        from hyponli.train import sgd_step

        def run():
            params = make_params("birnn-maxpool", seed=13, finetune=True)
            rng = np.random.default_rng(13)
            for _ in range(5):
                batch = random_batch(params, rng)
                _, grads = loss_and_gradients(batch, params)
                sgd_step(params, grads, 0.05)
            return params

        a, b = run(), run()
        for name in a.array_names():
            assert np.array_equal(a.array(name), b.array(name))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = make_params("birnn-maxpool", seed=17, finetune=True)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        back = load_checkpoint(path)
        assert back.config == params.config
        assert back.scheme == params.scheme
        assert back.vocab.tokens == params.vocab.tokens
        for name in params.array_names():
            assert np.array_equal(back.array(name), params.array(name))

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
        tokens = params.vocab.encode(["t2", "t9", "t1"])
        assert np.array_equal(predict(tokens, params).logits,
                              predict(tokens, back).logits)


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
