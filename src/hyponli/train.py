"""SGD training loop with per-epoch decay and a dev-driven lr division.

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

import math
from dataclasses import dataclass, field

import numpy as np

from .evaluate import accuracy
from .model import (
    ModelParameters, NumericalError, RowGradient, loss_and_gradients, predict_batch,
)
from .util import ConfigError, csv_text


@dataclass
class TrainConfig:
    """fit's schedule, as the module docstring describes it. The defaults, InferSent's (Conneau
    et al. 2017), are train-eval's: each field but seed is the option of its name, and its
    metadata's help is that option's help."""

    lr0: float = field(default=0.1, metadata={
        "help": "SGD learning rate of epoch 1; the schedule's defaults are InferSent's"})
    decay: float = field(default=0.99, metadata={"help": "rate factor after each epoch"})
    divide_on_decline: float = field(default=5.0, metadata={
        "help": "further rate divisor after an epoch whose dev accuracy fell"})
    lr_floor: float = field(default=1e-5, metadata={"help": "stop once the rate is below this"})
    max_epochs: int = field(default=20, metadata={"help": "epoch bound"})
    batch_size: int = field(default=64, metadata={"help": "minibatch size"})
    seed: int = 0

    def __post_init__(self):
        # each check is "not (valid)", so that nan fails it too
        if not 0.0 < self.lr0 < math.inf:
            raise ConfigError(f"lr0 must be positive and finite, got {self.lr0}", "lr0")
        if not 0.0 < self.decay <= 1.0:
            raise ConfigError("decay must lie in (0, 1]", "decay")
        if not 1.0 < self.divide_on_decline < math.inf:
            raise ConfigError(f"divide_on_decline must be > 1 and finite, "
                              f"got {self.divide_on_decline}", "divide_on_decline")
        if not 0.0 < self.lr_floor < math.inf:
            raise ConfigError(f"lr_floor must be positive and finite, got {self.lr_floor}",
                              "lr_floor")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1", "max_epochs")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1", "batch_size")


@dataclass
class TrainState:
    """fit's trace: the rate after the last epoch, the untrained model's dev accuracy, one
    (epoch, lr used, mean train loss, dev accuracy) row per epoch run, and why it stopped."""

    lr: float = 0.0
    baseline_dev_acc: float = 0.0
    history: list[tuple[int, float, float, float]] = field(default_factory=list)
    stop_reason: str = ""

    def log_csv(self) -> str:
        return csv_text(["epoch", "lr", "train_loss", "dev_acc"],
                        ([epoch, f"{lr:.10g}", f"{loss:.8f}", f"{acc:.6f}"]
                         for epoch, lr, loss, acc in self.history))


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
        arr = params.arrays[name]
        rows, shape = Ellipsis, arr.shape
        if isinstance(grad, RowGradient):
            if not (np.diff(grad.rows) > 0).all():
                raise ValueError(f"gradient rows for {name!r} are not strictly increasing")
            rows, shape, grad = grad.rows, (grad.rows.size, *arr.shape[1:]), grad.values
        if grad.shape != shape:
            raise ValueError(f"gradient shape mismatch for {name!r}: {grad.shape} vs {shape}")
        arr[rows] -= lr * grad
    return params


def fit(train, dev, tokens, params: ModelParameters, config: TrainConfig, dev_eval=None):
    """Train params on the train split, stopping per the schedule.

    train and dev are (rows, y) pairs: int64 row indices into the CSR
    token corpus tokens = (ids, indptr) and their int64 label indices, as
    loss_and_gradients takes them. dev_eval, when given, must be a
    callable(params) -> accuracy; it exists so tests can script dev
    accuracies. Returns (best_params, state); the
    best parameters are the snapshot from the epoch with the highest dev
    accuracy (ties keep the earliest epoch).

    The untrained model's dev evaluation (epoch 0) and every epoch run
    with numpy's overflow, invalid-operation and divide-by-zero errors
    raised; these and NumericalError end training in TrainAbort.
    """
    rows, y = train
    n = len(y)
    if not n or not len(dev[1]):
        raise ValueError("train and dev splits must both be nonempty")
    if dev_eval is None:
        def dev_eval(params):
            return accuracy(predict_batch(dev[0], tokens, params), dev[1])

    state = TrainState(lr=config.lr0)
    best_params, best_dev_acc = None, -math.inf
    epoch = 0  # the untrained model's dev evaluation
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            state.baseline_dev_acc = last_dev_acc = dev_eval(params)
            for epoch in range(1, config.max_epochs + 1):
                order = np.random.default_rng(config.seed + epoch).permutation(n)
                loss_sum = 0.0
                for start in range(0, n, config.batch_size):
                    idx = order[start:start + config.batch_size]
                    loss, grads = loss_and_gradients(rows[idx], tokens, y[idx], params)
                    sgd_step(params, grads, state.lr)
                    loss_sum += loss * len(idx)
                dev_acc = dev_eval(params)
                if dev_acc > best_dev_acc:
                    best_params, best_dev_acc = params.clone(), dev_acc
                state.history.append((epoch, state.lr, loss_sum / n, dev_acc))
                state.lr *= config.decay
                if dev_acc < last_dev_acc:
                    state.lr /= config.divide_on_decline
                last_dev_acc = dev_acc
                if state.lr < config.lr_floor:
                    state.stop_reason = "lr_floor"
                    break
            else:
                state.stop_reason = "max_epochs"
    except (FloatingPointError, NumericalError) as exc:
        state.stop_reason = "numerical-error"
        raise TrainAbort(f"epoch {epoch}: {exc}", state) from exc
    return best_params, state
