import numpy as np
import pytest

from hyponli.corpus import THREE_WAY
from hyponli.evaluate import accuracy
from hyponli.model import (
    ModelConfig, ModelParameters, RowGradient, loss_and_gradients, predict_batch,
)
from hyponli.text import intern, seeded_random_embeddings
from hyponli.train import TrainAbort, TrainConfig, TrainState, fit, sgd_step

from reference import trainable_names
from helpers import clone, make_corpus


TINY_VOCAB = intern(["a b c d"])[0]


def tiny_params(seed=0):
    vocab = TINY_VOCAB
    table = seeded_random_embeddings(vocab, 4, seed=seed)
    cfg = ModelConfig("bag", embedding_dim=4, hidden_dim=2, mlp_hidden=4,
                      seed=seed)
    return ModelParameters.init(cfg, table, vocab, THREE_WAY)


def tiny_splits(n_train=12, n_dev=6):
    names = THREE_WAY.names
    train = make_corpus([(f"a b c", names[i % 3]) for i in range(n_train)])
    dev = make_corpus([(f"b d", names[i % 3]) for i in range(n_dev)])
    tokens = TINY_VOCAB.encode(train.hypotheses + dev.hypotheses)
    return ((np.arange(n_train), train.labels),
            (np.arange(n_train, n_train + n_dev), dev.labels), tokens)


def scripted(values):
    """Dev-eval stub yielding a fixed sequence (first call = epoch 0)."""
    it = iter(values)

    def evaluate(params):
        return next(it)

    return evaluate


class TestSgdStep:
    def test_zero_gradients_unchanged(self):
        params = tiny_params()
        before = {n: params.arrays[n].copy() for n in params.arrays}
        grads = {n: np.zeros_like(params.arrays[n]) for n in trainable_names(params)}
        sgd_step(params, grads, 0.1)
        for name in params.arrays:
            assert np.array_equal(params.arrays[name], before[name])

    def test_lr_one_gradient_equals_params(self):
        params = tiny_params()
        grads = {n: params.arrays[n].copy() for n in trainable_names(params)}
        sgd_step(params, grads, 1.0)
        for name in trainable_names(params):
            assert np.array_equal(params.arrays[name], np.zeros_like(params.arrays[name]))

    def test_scalar_case(self):
        params = tiny_params()
        params.arrays["mlp_b2"][...] = 0.5
        grads = {n: np.zeros_like(params.arrays[n]) for n in trainable_names(params)}
        grads["mlp_b2"][...] = 0.2
        sgd_step(params, grads, 0.1)
        assert np.allclose(params.arrays["mlp_b2"], 0.48)

    def test_shape_mismatch_rejected(self):
        params = tiny_params()
        with pytest.raises(ValueError):
            sgd_step(params, {"mlp_b2": np.zeros(99)}, 0.1)

    def test_nonpositive_lr_rejected(self):
        params = tiny_params()
        with pytest.raises(ValueError):
            sgd_step(params, {}, 0.0)


class TestSgdStepRowGradient:
    def params_and_gradient(self, rows):
        params = tiny_params(seed=4)
        rng = np.random.default_rng(4)
        values = rng.normal(size=(len(rows), params.arrays["emb"].shape[1]))
        return params, RowGradient(np.array(rows, dtype=np.int64), values)

    def test_equals_dense_update_bitwise(self):
        params, grad = self.params_and_gradient([0, 2, 4])
        emb = params.arrays["emb"]
        dense = np.zeros_like(emb)
        dense[grad.rows] = grad.values
        expected = emb.copy()
        expected -= 0.37 * dense
        untouched = emb[[1, 3]].copy()
        sgd_step(params, {"emb": grad}, 0.37)
        assert np.array_equal(emb, expected)
        assert np.array_equal(emb[[1, 3]], untouched)

    def test_no_rows_is_no_update(self):
        params, grad = self.params_and_gradient([])
        before = params.arrays["emb"].copy()
        sgd_step(params, {"emb": grad}, 0.5)
        assert np.array_equal(params.arrays["emb"], before)

    @pytest.mark.parametrize("shape", [(2, 4), (4, 4), (3, 3), (3,), (3, 4, 1)])
    def test_values_shape_mismatch_rejected(self, shape):
        params, grad = self.params_and_gradient([0, 2, 4])
        with pytest.raises(ValueError, match="shape mismatch"):
            sgd_step(params, {"emb": RowGradient(grad.rows, np.zeros(shape))}, 0.1)

    @pytest.mark.parametrize("rows", [[2, 2, 4], [4, 2, 0]])
    def test_rows_not_strictly_increasing_rejected(self, rows):
        params, grad = self.params_and_gradient(rows)
        before = params.arrays["emb"].copy()
        with pytest.raises(ValueError, match="strictly increasing"):
            sgd_step(params, {"emb": grad}, 0.1)
        assert np.array_equal(params.arrays["emb"], before)


class TestConfigValidation:
    def test_defaults_match_protocol(self):
        cfg = TrainConfig()
        assert (cfg.lr0, cfg.decay, cfg.divide_on_decline,
                cfg.lr_floor, cfg.max_epochs) == (0.1, 0.99, 5.0, 1e-5, 20)

    @pytest.mark.parametrize("kwargs", [
        {"decay": 0.0}, {"decay": 1.5}, {"divide_on_decline": 1.0},
        {"lr_floor": 0.0}, {"max_epochs": 0}, {"batch_size": 0},
        {"decay": float("nan")},
        {"lr0": 0.0}, {"lr0": float("inf")}, {"lr0": float("nan")},
        {"divide_on_decline": float("inf")}, {"divide_on_decline": float("nan")},
        {"lr_floor": float("inf")}, {"lr_floor": float("nan")},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestSchedule:
    def test_increasing_accuracies_run_all_epochs(self):
        train, dev, tokens = tiny_splits()
        config = TrainConfig(max_epochs=20, batch_size=4, seed=1)
        # epoch 0 baseline plus 20 epoch evaluations, strictly increasing
        accs = [10.0 + e for e in range(21)]
        _, state = fit(train, dev, tokens, tiny_params(), config, dev_eval=scripted(accs))
        assert len(state.history) == 20
        assert state.stop_reason == "max_epochs"
        # lr used during epoch e is lr0 * decay^(e-1); after epoch e it is lr0 * decay^e
        expected = 0.1
        for epoch, lr_used, _, _ in state.history:
            assert lr_used == expected
            expected *= 0.99
        assert state.lr == expected

    def test_decreasing_accuracies_stop_at_epoch_6(self):
        train, dev, tokens = tiny_splits()
        config = TrainConfig(max_epochs=20, batch_size=4, seed=1)
        accs = [90.0 - 2 * e for e in range(21)]
        _, state = fit(train, dev, tokens, tiny_params(), config, dev_eval=scripted(accs))
        assert len(state.history) == 6
        assert state.stop_reason == "lr_floor"
        assert state.lr < 1e-5
        # every epoch declined: lr after epoch e is lr0 * (decay/5)^e
        expected = 0.1
        trace = []
        for _ in range(6):
            expected = expected * 0.99 / 5.0
            trace.append(expected)
        assert trace[-2] >= 1e-5 > trace[-1]
        assert state.lr == trace[-1]

    def test_max_epochs_one(self):
        train, dev, tokens = tiny_splits()
        config = TrainConfig(max_epochs=1, batch_size=4, seed=1)
        _, state = fit(train, dev, tokens, tiny_params(), config,
                       dev_eval=scripted([50.0, 10.0]))
        assert len(state.history) == 1

    def test_constant_accuracy_never_divides(self):
        train, dev, tokens = tiny_splits()
        config = TrainConfig(max_epochs=5, batch_size=4, seed=1)
        _, state = fit(train, dev, tokens, tiny_params(), config,
                       dev_eval=scripted([50.0] * 6))
        assert len(state.history) == 5
        assert state.lr == pytest.approx(0.1 * 0.99**5, rel=0, abs=0)

    def test_single_decline_divides_once(self):
        train, dev, tokens = tiny_splits()
        config = TrainConfig(max_epochs=3, batch_size=4, seed=1)
        _, state = fit(train, dev, tokens, tiny_params(), config,
                       dev_eval=scripted([50.0, 60.0, 55.0, 70.0]))
        # declines only at epoch 2
        lr = 0.1 * 0.99            # after epoch 1
        lr = lr * 0.99 / 5.0       # after epoch 2 (decline)
        lr = lr * 0.99             # after epoch 3
        assert state.lr == lr

    def test_decline_is_against_the_previous_epoch(self):
        train, dev, tokens = tiny_splits()
        config = TrainConfig(max_epochs=3, batch_size=4, seed=1)
        # epoch 3 (62) is below the best (70) but above epoch 2 (55): no division
        _, state = fit(train, dev, tokens, tiny_params(), config,
                       dev_eval=scripted([50.0, 70.0, 55.0, 62.0]))
        lr = 0.1 * 0.99
        lr = lr * 0.99 / 5.0
        lr = lr * 0.99
        assert state.lr == lr

    def test_lr_positive_and_non_increasing(self):
        train, dev, tokens = tiny_splits()
        config = TrainConfig(max_epochs=10, batch_size=4, seed=2)
        accs = [50.0, 60.0, 55.0, 58.0, 40.0, 39.0, 70.0, 71.0, 20.0, 30.0, 31.0]
        _, state = fit(train, dev, tokens, tiny_params(), config, dev_eval=scripted(accs))
        lrs = [lr for _, lr, _, _ in state.history]
        assert all(lr > 0 for lr in lrs)
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))


class TestBestParams:
    def test_best_dev_acc_is_history_max(self):
        train, dev, tokens = tiny_splits()
        config = TrainConfig(max_epochs=4, batch_size=4, seed=3)
        accs = [10.0, 50.0, 80.0, 30.0, 40.0]
        scores, snapshots = scripted(accs), []

        def dev_eval(params):  # epoch e's parameters are snapshots[e]
            snapshots.append(clone(params))
            return scores(params)

        best, state = fit(train, dev, tokens, tiny_params(), config, dev_eval=dev_eval)
        assert max(acc for _, _, _, acc in state.history) == 80.0
        for name in best.arrays:
            assert np.array_equal(best.arrays[name], snapshots[2].arrays[name])

    def test_returned_params_achieve_history_max(self):
        train, dev, tokens = tiny_splits(n_train=30, n_dev=12)
        config = TrainConfig(max_epochs=6, batch_size=8, seed=4, lr0=0.2)
        best, state = fit(train, dev, tokens, tiny_params(seed=4), config)
        acc = accuracy(predict_batch(dev[0], tokens, best), dev[1])
        assert acc == max(a for _, _, _, a in state.history)


class TestDeterminism:
    def test_identical_runs_bit_identical(self):
        train, dev, tokens = tiny_splits(n_train=24, n_dev=9)
        config = TrainConfig(max_epochs=4, batch_size=8, seed=5)
        best_a, state_a = fit(train, dev, tokens, tiny_params(seed=5), config)
        best_b, state_b = fit(train, dev, tokens, tiny_params(seed=5), config)
        assert state_a.history == state_b.history
        for name in best_a.arrays:
            assert np.array_equal(best_a.arrays[name], best_b.arrays[name])


class TestValidationAndLog:
    def test_empty_splits_rejected(self):
        train, dev, tokens = tiny_splits()
        empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            fit(empty, dev, tokens, tiny_params(), TrainConfig())
        with pytest.raises(ValueError):
            fit(train, empty, tokens, tiny_params(), TrainConfig())

    def test_log_csv_shape(self):
        train, dev, tokens = tiny_splits()
        config = TrainConfig(max_epochs=2, batch_size=4, seed=6)
        _, state = fit(train, dev, tokens, tiny_params(), config)
        lines = state.log_csv().strip().split("\n")
        assert lines[0] == "epoch,lr,train_loss,dev_acc"
        assert len(lines) == 3

    def test_untrained_model_overflow_aborts_at_epoch_0(self):
        """The untrained model's dev evaluation runs under the same raised
        numpy errors as the epochs: an overflow there aborts with no
        warning printed and an empty history."""
        train, dev, tokens = tiny_splits()
        params = tiny_params()
        params.arrays["emb"][[TINY_VOCAB.index["b"], TINY_VOCAB.index["d"]]] = 1.7e308  # dev: "b d"
        with pytest.raises(TrainAbort, match=r"^epoch 0: overflow") as info:
            fit(train, dev, tokens, params, TrainConfig(max_epochs=2))
        assert info.value.state.stop_reason == "numerical-error"
        assert info.value.state.log_csv() == "epoch,lr,train_loss,dev_acc\n"

    def test_abort_after_a_completed_epoch_keeps_its_row(self):
        """An error in epoch 2's dev evaluation keeps epoch 1 in the
        history, and so in the train_abort.csv that train-eval writes."""
        train, dev, tokens = tiny_splits()
        accs = iter([40.0, 50.0])

        def dev_eval(params):
            for acc in accs:
                return acc
            raise FloatingPointError("overflow encountered in matmul")

        with pytest.raises(TrainAbort, match=r"^epoch 2: ") as info:
            fit(train, dev, tokens, tiny_params(), TrainConfig(max_epochs=5, batch_size=4),
                dev_eval=dev_eval)
        state = info.value.state
        assert state.stop_reason == "numerical-error"
        header, *rows = state.log_csv().splitlines()
        assert header == "epoch,lr,train_loss,dev_acc"
        assert [row.split(",")[::3] for row in rows] == [["1", "50.000000"]]

