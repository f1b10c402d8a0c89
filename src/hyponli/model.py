"""Hypothesis-only classifiers with exact gradients.

Two sentence encoders feed one MLP head: a bag of embeddings (mean of the
token vectors) and a bidirectional recurrent encoder whose per-timestep
[forward; backward] states are max-pooled elementwise. The classification
path takes only hypothesis tokens; premises are unreachable by
construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import kernels
from .corpus import Label, LabelScheme
from .text import EmbeddingTable, Vocabulary
from .util import atomic_open

ENCODER_KINDS = ("bag", "birnn-maxpool")


class NumericalError(RuntimeError):
    """A non-finite value surfaced during a forward or backward pass."""


@dataclass(frozen=True)
class ModelConfig:
    encoder_kind: str
    embedding_dim: int
    hidden_dim: int = 64
    mlp_hidden: int = 64
    n_labels: int = 3
    seed: int = 0
    finetune_embeddings: bool = False

    def __post_init__(self):
        if self.encoder_kind not in ENCODER_KINDS:
            raise ValueError(f"encoder_kind must be one of {ENCODER_KINDS}")
        dims = (self.embedding_dim, self.hidden_dim, self.mlp_hidden)
        if not all(isinstance(v, (int, np.integer)) for v in (*dims, self.n_labels)):
            raise ValueError("dimensions and n_labels must be integers")
        if min(dims) < 1:
            raise ValueError("all dimensions must be >= 1")
        if self.n_labels not in (2, 3):
            raise ValueError("n_labels must be 2 or 3")

    @property
    def encoding_dim(self) -> int:
        if self.encoder_kind == "bag":
            return self.embedding_dim
        return 2 * self.hidden_dim


_LSTM_ARRAYS = ("wf_x", "wf_h", "wf_b", "wb_x", "wb_h", "wb_b")
_MLP_ARRAYS = ("mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2")


def _uniform_init(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape)


class ModelParameters:
    """All weights of one model, plus its config, scheme, and vocabulary.

    The embedding matrix has one row per vocabulary token and a final OOV
    row; it is trained only when config.finetune_embeddings is set.
    """

    def __init__(self, config: ModelConfig, scheme: LabelScheme,
                 vocab: Vocabulary, arrays: dict[str, np.ndarray]):
        if len(scheme) != config.n_labels:
            raise ValueError("scheme size does not match config.n_labels")
        self.config = config
        self.scheme = scheme
        self.vocab = vocab
        self._arrays = arrays
        for name, arr in arrays.items():
            if not np.isfinite(arr).all():
                raise NumericalError(f"parameter array {name!r} is not finite")

    @classmethod
    def init(cls, config: ModelConfig, embeddings: EmbeddingTable,
             vocab: Vocabulary, scheme: LabelScheme) -> "ModelParameters":
        """Seeded uniform initialization in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
        if embeddings.dimension != config.embedding_dim:
            raise ValueError("embedding table dimension does not match config")
        rng = np.random.default_rng(config.seed)
        d, H, m, n = (config.embedding_dim, config.hidden_dim,
                      config.mlp_hidden, config.n_labels)
        arrays: dict[str, np.ndarray] = {"emb": embeddings.matrix_for(vocab)}
        if config.encoder_kind == "birnn-maxpool":
            for prefix in ("wf", "wb"):
                arrays[f"{prefix}_x"] = _uniform_init(rng, (4 * H, d), d)
                arrays[f"{prefix}_h"] = _uniform_init(rng, (4 * H, H), H)
                arrays[f"{prefix}_b"] = _uniform_init(rng, 4 * H, H)
        enc = config.encoding_dim
        arrays["mlp_w1"] = _uniform_init(rng, (m, enc), enc)
        arrays["mlp_b1"] = _uniform_init(rng, m, enc)
        arrays["mlp_w2"] = _uniform_init(rng, (n, m), m)
        arrays["mlp_b2"] = _uniform_init(rng, n, m)
        return cls(config, scheme, vocab, arrays)

    def array(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def array_names(self) -> list[str]:
        return list(self._arrays.keys())

    def trainable_names(self) -> list[str]:
        names = [n for n in self._arrays if n != "emb"]
        if self.config.finetune_embeddings:
            names = ["emb"] + names
        return names

    def clone(self) -> "ModelParameters":
        arrays = {name: arr.copy() for name, arr in self._arrays.items()}
        return ModelParameters(self.config, self.scheme, self.vocab, arrays)


def zero_gradients(params: ModelParameters) -> dict[str, np.ndarray]:
    """A gradient accumulator shaped like the trainable parameters."""
    return {name: np.zeros_like(params.array(name)) for name in params.trainable_names()}


@dataclass
class Prediction:
    logits: np.ndarray
    label: Label
    probabilities: np.ndarray


def _encode_bag_rows(rows: np.ndarray, emb: np.ndarray) -> np.ndarray:
    """Arithmetic mean of the embedding rows; empty sentences encode to zero."""
    if rows.size == 0:
        return np.zeros(emb.shape[1])
    return emb[rows].mean(axis=0)


def _birnn_states(rows: np.ndarray, params: ModelParameters):
    """Forward/backward recurrent passes plus the aligned concatenated
    per-timestep states (T, 2H)."""
    emb = params.array("emb")
    x = np.ascontiguousarray(emb[rows])
    fwd = kernels.lstm_forward(x, params.array("wf_x"), params.array("wf_h"),
                               params.array("wf_b"))
    xr = np.ascontiguousarray(x[::-1])
    bwd = kernels.lstm_forward(xr, params.array("wb_x"), params.array("wb_h"),
                               params.array("wb_b"))
    h_cat = np.concatenate([fwd[0], bwd[0][::-1]], axis=1)
    if not np.isfinite(h_cat).all():
        bad = int(np.argwhere(~np.isfinite(h_cat).all(axis=1))[0][0])
        raise NumericalError(f"non-finite hidden state at token index {bad}")
    return x, fwd, bwd, h_cat


def encode_birnn_maxpool(rows: np.ndarray, params: ModelParameters) -> np.ndarray:
    """Elementwise max over timesteps of the concatenated [forward;
    backward] hidden states of the embedding rows (token ids); empty
    sentences encode to zero."""
    if rows.size == 0:
        return np.zeros(params.config.encoding_dim)
    _, _, _, h_cat = _birnn_states(rows, params)
    return h_cat.max(axis=0)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def classify(encoding: np.ndarray, params: ModelParameters) -> Prediction:
    """One tanh hidden layer, linear output, softmax probabilities."""
    cfg = params.config
    if encoding.shape != (cfg.encoding_dim,):
        raise ValueError(
            f"encoding shape {encoding.shape} does not match ({cfg.encoding_dim},)"
        )
    h1 = np.tanh(params.array("mlp_w1") @ encoding + params.array("mlp_b1"))
    logits = params.array("mlp_w2") @ h1 + params.array("mlp_b2")
    probs = _softmax(logits)
    return Prediction(logits=logits, label=params.scheme.by_index(int(np.argmax(logits))),
                      probabilities=probs)


def predict(rows: np.ndarray, params: ModelParameters) -> Prediction:
    """Classify one hypothesis from its token ids alone."""
    if params.config.encoder_kind == "bag":
        encoding = _encode_bag_rows(rows, params.array("emb"))
    else:
        encoding = encode_birnn_maxpool(rows, params)
    return classify(encoding, params)


def predict_batch(sentences, params: ModelParameters) -> list[Prediction]:
    return [predict(rows, params) for rows in sentences]


def loss_and_gradients(batch, params: ModelParameters):
    """Mean negative log-likelihood over (token ids, Label) pairs, with
    backpropagated gradients for every trainable array.

    Max-pool subgradients route to the argmax timestep (earliest on ties).
    """
    if not batch:
        raise ValueError("batch must be nonempty")
    cfg = params.config
    emb = params.array("emb")
    B = len(batch)
    enc = np.zeros((B, cfg.encoding_dim))
    caches = []
    for k, (rows, _) in enumerate(batch):
        if cfg.encoder_kind == "bag":
            enc[k] = _encode_bag_rows(rows, emb)
            caches.append(rows)
        else:
            if rows.size == 0:
                caches.append(None)
                continue
            x, fwd, bwd, h_cat = _birnn_states(rows, params)
            enc[k] = h_cat.max(axis=0)
            caches.append((rows, x, fwd, bwd, np.argmax(h_cat, axis=0)))

    w1, b1 = params.array("mlp_w1"), params.array("mlp_b1")
    w2, b2 = params.array("mlp_w2"), params.array("mlp_b2")
    h1 = np.tanh(enc @ w1.T + b1)
    logits = h1 @ w2.T + b2
    probs = _softmax(logits)
    y = np.array([label.index for _, label in batch], dtype=np.int64)
    picked = probs[np.arange(B), y]
    loss = float(-np.mean(np.log(picked)))
    if not np.isfinite(loss):
        raise NumericalError("non-finite loss")

    grads = zero_gradients(params)
    d_logits = probs.copy()
    d_logits[np.arange(B), y] -= 1.0
    d_logits /= B
    grads["mlp_w2"][...] = d_logits.T @ h1
    grads["mlp_b2"][...] = d_logits.sum(axis=0)
    d_h1 = d_logits @ w2
    d_a1 = d_h1 * (1.0 - h1 * h1)
    grads["mlp_w1"][...] = d_a1.T @ enc
    grads["mlp_b1"][...] = d_a1.sum(axis=0)
    d_enc = d_a1 @ w1

    finetune = cfg.finetune_embeddings
    if cfg.encoder_kind == "bag":
        if finetune:
            for k in range(B):
                rows = caches[k]
                if rows.size:
                    np.add.at(grads["emb"], rows, d_enc[k] / rows.size)
    else:
        H = cfg.hidden_dim
        for k in range(B):
            if caches[k] is None:
                continue
            rows, x, fwd, bwd, amax = caches[k]
            T = rows.size
            dh_f = np.zeros((T, H))
            dh_b_rev = np.zeros((T, H))
            cols = np.arange(H)
            np.add.at(dh_f, (amax[:H], cols), d_enc[k, :H])
            np.add.at(dh_b_rev, (T - 1 - amax[H:], cols), d_enc[k, H:])
            gfx, gfh, gfb, dxf = kernels.lstm_backward(
                x, params.array("wf_x"), params.array("wf_h"), *fwd, dh_f)
            xr = np.ascontiguousarray(x[::-1])
            gbx, gbh, gbb, dxb = kernels.lstm_backward(
                xr, params.array("wb_x"), params.array("wb_h"), *bwd, dh_b_rev)
            grads["wf_x"] += gfx
            grads["wf_h"] += gfh
            grads["wf_b"] += gfb
            grads["wb_x"] += gbx
            grads["wb_h"] += gbh
            grads["wb_b"] += gbb
            if finetune:
                np.add.at(grads["emb"], rows, dxf + dxb[::-1])
    return loss, grads


CHECKPOINT_MAGIC = "hyponli-checkpoint"
CHECKPOINT_VERSION = 1
_HEADER_KEYS = frozenset({"format", "version", "config", "scheme", "vocab", "arrays"})


def _array_shapes(config: ModelConfig, n_vocab: int) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter array, in checkpoint order."""
    d, H, m, n = (config.embedding_dim, config.hidden_dim,
                  config.mlp_hidden, config.n_labels)
    shapes = [("emb", (n_vocab + 1, d))]
    if config.encoder_kind == "birnn-maxpool":
        lstm = [(4 * H, d), (4 * H, H), (4 * H,)]
        shapes += list(zip(_LSTM_ARRAYS, lstm + lstm))
    shapes += list(zip(_MLP_ARRAYS, [(m, config.encoding_dim), (m,), (n, m), (n,)]))
    return shapes


def save_checkpoint(params: ModelParameters, path) -> None:
    """Write config + scheme + vocab + flat arrays, atomically.

    Layout: one UTF-8 JSON header line describing config, scheme, vocab,
    and an array manifest (name, shape), followed by each array's raw
    little-endian float64 bytes in manifest order. Byte-identical for
    identical parameters.
    """
    names = params.array_names()
    header = {
        "format": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "scheme": {"id": params.scheme.scheme_id, "labels": params.scheme.names},
        "vocab": params.vocab.tokens,
        "arrays": [{"name": n, "shape": list(params.array(n).shape)} for n in names],
    }
    with atomic_open(path) as fh:
        fh.write(json.dumps(header, ensure_ascii=False).encode("utf-8"))
        fh.write(b"\n")
        for name in names:
            fh.write(np.ascontiguousarray(params.array(name), dtype="<f8").tobytes())


def load_checkpoint(path) -> ModelParameters:
    """Read a save_checkpoint file.

    Raises ValueError naming the path and the reason when the header is
    not the expected object, the version is not 1, the manifest does not
    match the shapes the config implies, an array is cut short, or bytes
    follow the last array.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError as exc:
            raise ValueError(f"{path}: checkpoint header is not UTF-8 JSON ({exc})") from exc
        if not isinstance(header, dict) or set(header) != _HEADER_KEYS:
            raise ValueError(f"{path}: checkpoint header is not an object with keys "
                             f"{', '.join(sorted(_HEADER_KEYS))}")
        if header["format"] != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC} file")
        if header["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: checkpoint version {header['version']!r} is not "
                             f"{CHECKPOINT_VERSION}")
        try:
            config = ModelConfig(**header["config"])
            labels = tuple(Label(name, i) for i, name in enumerate(header["scheme"]["labels"]))
            scheme = LabelScheme(labels, header["scheme"]["id"])
            vocab = Vocabulary()
            for tok in header["vocab"]:
                vocab.add(tok)
            vocab.freeze()
            expected = _array_shapes(config, len(vocab))
        except (TypeError, ValueError, KeyError) as exc:
            raise ValueError(f"{path}: malformed checkpoint header ({exc!r})") from exc
        if header["arrays"] != [{"name": n, "shape": list(s)} for n, s in expected]:
            raise ValueError(f"{path}: array manifest does not match the model config")
        arrays = {}
        for name, shape in expected:
            size = 8 * math.prod(shape)
            buf = fh.read(size)
            if len(buf) != size:
                raise ValueError(f"{path}: array {name!r} is truncated "
                                 f"({len(buf)} of {size} bytes)")
            arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last array")
    try:
        return ModelParameters(config, scheme, vocab, arrays)
    except (ValueError, NumericalError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
