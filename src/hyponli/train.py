"""SGD training loop with per-epoch decay and dev-driven lr halving-by-5.

Per epoch: shuffle the training split deterministically from seed+epoch,
apply SGD updates at the current learning rate, evaluate dev accuracy,
then multiply the rate by the decay factor and additionally divide it by
divide_on_decline when dev accuracy strictly decreased versus the previous
evaluation. Training stops when the rate falls below the floor or the
epoch bound is reached; the parameters from the best dev epoch are
returned.

The dev accuracy of the untrained model is evaluated once before epoch 1
and serves as the first comparison reference, so a first-epoch decline
already triggers a division. With every epoch declining, the rate after
epoch e is lr0 * (decay / divide_on_decline)^e and drops below the 1e-5
floor at epoch 6.

Both splits are row indices into one CSR token corpus, so a minibatch
is a slice of the shuffled train rows, handed to the model as it is.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .evaluate import accuracy
from .model import (
    ModelParameters, NumericalError, RowGradient, loss_and_gradients, predict_batch,
)


@dataclass
class TrainConfig:
    lr0: float = 0.1
    decay: float = 0.99
    divide_on_decline: float = 5.0
    lr_floor: float = 1e-5
    max_epochs: int = 20
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        # each check is "not (valid)", so that nan fails it too
        if not 0.0 < self.lr0 < math.inf:
            raise ValueError(f"lr0 must be positive and finite, got {self.lr0}")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError("decay must lie in (0, 1]")
        if not 1.0 < self.divide_on_decline < math.inf:
            raise ValueError(f"divide_on_decline must be > 1 and finite, "
                             f"got {self.divide_on_decline}")
        if not 0.0 < self.lr_floor < math.inf:
            raise ValueError(f"lr_floor must be positive and finite, got {self.lr_floor}")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class TrainState:
    epoch: int = 0
    lr: float = 0.0
    baseline_dev_acc: float = 0.0
    best_dev_acc: float = float("-inf")
    last_dev_acc: float = 0.0
    history: list[tuple[int, float, float, float]] = field(default_factory=list)
    best_params: ModelParameters | None = None
    stop_reason: str = ""

    def log_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["epoch", "lr", "train_loss", "dev_acc"])
        for epoch, lr, loss, acc in self.history:
            writer.writerow([epoch, f"{lr:.10g}", f"{loss:.8f}", f"{acc:.6f}"])
        return buf.getvalue()


class TrainAbort(RuntimeError):
    """Training hit a non-finite value or a floating-point overflow, invalid
    operation or division by zero; .state carries the trace so far."""

    def __init__(self, message: str, state: TrainState):
        super().__init__(message)
        self.state = state


def sgd_step(params: ModelParameters, gradients: dict, lr: float) -> ModelParameters:
    """In-place update params <- params - lr * gradient, array by array.

    A dense gradient must have its array's shape. A RowGradient updates
    only its rows, arr[rows] -= lr * values; its values must have one row
    per entry of rows, and rows must be strictly increasing, since a
    repeated row would keep only one of its updates. This equals the dense
    update bit for bit: an untouched row would compute x - lr * 0.0 = x.
    """
    if lr <= 0.0:
        raise ValueError("lr must be positive")
    for name, grad in gradients.items():
        arr = params.array(name)
        rows, shape = Ellipsis, arr.shape
        if isinstance(grad, RowGradient):
            if not (np.diff(grad.rows) > 0).all():
                raise ValueError(f"gradient rows for {name!r} are not strictly increasing")
            rows, shape, grad = grad.rows, (grad.rows.size, *arr.shape[1:]), grad.values
        if grad.shape != shape:
            raise ValueError(f"gradient shape mismatch for {name!r}: {grad.shape} vs {shape}")
        arr[rows] -= lr * grad
    return params


def _default_dev_eval(dev, tokens):
    rows, y = dev
    return lambda params: accuracy(predict_batch(rows, tokens, params), y)


def fit(train, dev, tokens, params: ModelParameters, config: TrainConfig, dev_eval=None):
    """Train params on the train split, stopping per the schedule.

    train and dev are (rows, y) pairs: int64 row indices into the CSR
    token corpus tokens = (ids, indptr) and their int64 label indices, as
    loss_and_gradients takes them. dev_eval, when given, must be a
    callable(params) -> accuracy; it exists so tests can script dev
    accuracies. Returns (best_params, state); the
    best parameters are the snapshot from the epoch with the highest dev
    accuracy (ties keep the earliest epoch).

    Each epoch, dev evaluation included, runs with numpy's overflow,
    invalid-operation and divide-by-zero errors raised; these and
    NumericalError end training in TrainAbort.
    """
    rows, y = train
    n = len(y)
    if not n or not len(dev[1]):
        raise ValueError("train and dev splits must both be nonempty")
    if dev_eval is None:
        dev_eval = _default_dev_eval(dev, tokens)

    state = TrainState()
    state.lr = config.lr0
    state.baseline_dev_acc = dev_eval(params)
    state.last_dev_acc = state.baseline_dev_acc

    for epoch in range(1, config.max_epochs + 1):
        order = np.random.default_rng(config.seed + epoch).permutation(n)
        loss_sum = 0.0
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                for start in range(0, n, config.batch_size):
                    idx = order[start:start + config.batch_size]
                    loss, grads = loss_and_gradients(rows[idx], tokens, y[idx], params)
                    sgd_step(params, grads, state.lr)
                    loss_sum += loss * len(idx)
                dev_acc = dev_eval(params)
                if dev_acc > state.best_dev_acc:
                    state.best_dev_acc = dev_acc
                    state.best_params = params.clone()
        except (FloatingPointError, NumericalError) as exc:
            state.stop_reason = "numerical-error"
            raise TrainAbort(f"epoch {epoch}: {exc}", state) from exc
        train_loss = loss_sum / n
        state.epoch = epoch
        state.history.append((epoch, state.lr, train_loss, dev_acc))
        state.lr *= config.decay
        if dev_acc < state.last_dev_acc:
            state.lr /= config.divide_on_decline
        state.last_dev_acc = dev_acc
        if state.lr < config.lr_floor:
            state.stop_reason = "lr_floor"
            break
    else:
        state.stop_reason = "max_epochs"
    return state.best_params, state
