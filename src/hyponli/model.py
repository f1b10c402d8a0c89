"""Hypothesis-only classifiers with exact gradients.

Two sentence encoders feed one MLP head: a bag of embeddings (mean of the
token vectors) and a bidirectional LSTM whose forward and backward states
are each max-pooled over time into [forward; backward]. The classification
path takes only hypothesis tokens; premises are unreachable by
construction. Labels are label indices into the scheme: predict returns
one, predict_batch an int64 array, and loss_and_gradients takes an array
of them.

Sentences come as a CSR token corpus tokens = (ids, indptr) from
text.intern or Vocabulary.encode: sentence r is ids[indptr[r]:indptr[r+1]].
A batch, or a split to predict, is an int64 array of row indices into
it, in any order; predict alone takes one sentence's token ids.

The bag encoder runs batched: one forward and backward pass per
minibatch, and one forward pass over a whole split for prediction. Its
sums are ordered so that every result is bitwise equal to the
one-sentence-at-a-time computation. Each sentence's mean starts from 0.0
and adds its embedding rows in token order, as numpy's axis-0 reduction in
emb[rows].mean(axis=0) does (np.add.reduceat does not). With a single
embedding column numpy sums pairwise instead, so there the two agree only
to rounding.

The embedding gradient of both encoders is a RowGradient: the rows the
batch touched and their summed values, added token by token in batch
order, exactly as np.add.at into a dense zero matrix adds them. SGD then
writes only those rows.

Each encoder sits behind one pair of functions: _encode gives a batch's
encodings and a cache, and _encode_backward turns the encodings' gradient
into a per-token embedding gradient. So loss_and_gradients runs one path
for both encoders, and predict is the head's argmax on one _encode.

The BiLSTM runs everything but its recurrence once per direction per
batch: the input projection and its halving for the kernels' tanh-form
gates, the routing of d_enc, the local derivatives, and every weight
gradient and dx; the states' finiteness check and the max-pooling run
once for both directions. Only kernels.lstm_forward and lstm_backward run
one sentence at a time, writing into slices of the batch's h, c, tc and
dz arrays, so no per-sentence result is concatenated; the kernels leave
the floating-point error state alone, and the projection, computed here,
is the one place an overflow can arise. Its predict_batch calls predict
once per sentence. The benchmark's traced run checks
kernels.lstm_forward.calls = 2 x (examples + model.predict.calls), so a
time-major recurrence over the whole batch comes together with a new form
of that check. Batched products round differently from per-sentence ones,
so BiLSTM results depend on which sentences share a batch, in their last
bits.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import kernels
from .corpus import LabelScheme
from .text import Vocabulary
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
    def init(cls, config: ModelConfig, embeddings: np.ndarray,
             vocab: Vocabulary, scheme: LabelScheme) -> "ModelParameters":
        """Seeded uniform initialization in [-1/sqrt(fan_in), +1/sqrt(fan_in)];
        the (len(vocab) + 1, embedding_dim) embeddings become "emb", uncopied."""
        if embeddings.shape != (len(vocab) + 1, config.embedding_dim):
            raise ValueError(f"embedding matrix shape {embeddings.shape} is not "
                             f"({len(vocab) + 1}, {config.embedding_dim})")
        rng = np.random.default_rng(config.seed)
        arrays: dict[str, np.ndarray] = {"emb": embeddings}
        for name, shape in _array_shapes(config, len(vocab))[1:]:
            if len(shape) == 2:  # a bias takes the fan-in of the matrix before it
                fan_in = shape[1]
            arrays[name] = _uniform_init(rng, shape, fan_in)
        return cls(config, scheme, vocab, arrays)

    def array(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def array_names(self) -> list[str]:
        return list(self._arrays.keys())

    def clone(self) -> "ModelParameters":
        arrays = {name: arr.copy() for name, arr in self._arrays.items()}
        return ModelParameters(self.config, self.scheme, self.vocab, arrays)


@dataclass(frozen=True)
class RowGradient:
    """Gradient of a matrix that is zero outside some rows: values[k] is
    the gradient of row rows[k]. rows is strictly increasing."""

    rows: np.ndarray
    values: np.ndarray

    @property
    def size(self) -> int:
        return self.values.size


def _row_gradient(ids: np.ndarray, per_token: np.ndarray) -> RowGradient:
    """Sum the rows of per_token (N, d) into the embedding rows ids (N,),
    adding in the order of ids, as np.add.at into dense zeros does."""
    rows, inverse = np.unique(ids, return_inverse=True)
    d = per_token.shape[1]
    values = np.zeros((rows.size, d))
    np.add.at(values.reshape(-1), (inverse[:, None] * d + np.arange(d)).reshape(-1),
              per_token.reshape(-1))
    return RowGradient(rows, values)


def _gather(rows: np.ndarray, tokens) -> tuple[np.ndarray, np.ndarray]:
    """(token ids of the given rows end to end, their int64 lengths)."""
    ids, indptr = tokens
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    # a token's index in ids is its output index plus its sentence's shift
    shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return ids[np.arange(shift.size) + shift], lengths


def _encode_bag(ids: np.ndarray, lengths: np.ndarray, emb: np.ndarray) -> np.ndarray:
    """Mean embedding row of each sentence (B, d); empty sentences encode
    to zero. Sentences are sorted longest first, and step t adds token t of
    the leading ones still that long, so each sum runs from 0.0 in token
    order, as emb[rows].mean(axis=0) sums."""
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    longer_than = lengths.size - np.cumsum(np.bincount(lengths))  # count with length > t
    total = np.zeros((lengths.size, emb.shape[1]))
    for t, n in enumerate(longer_than[:-1]):
        total[:n] += emb[ids[starts[:n] + t]]
    enc = np.empty_like(total)
    enc[order] = total
    enc /= np.maximum(lengths, 1)[:, None]
    return enc


def _mlp_head(enc: np.ndarray, params: ModelParameters):
    """(hidden activations, logits) of the MLP on a batch of encodings."""
    h1 = np.tanh(enc @ params.array("mlp_w1").T + params.array("mlp_b1"))
    return h1, h1 @ params.array("mlp_w2").T + params.array("mlp_b2")


def _encode(ids: np.ndarray, lengths: np.ndarray, params: ModelParameters):
    """(encodings (B, D), cache for _encode_backward) of the sentences that
    lengths cuts ids into; an empty sentence encodes to zero.

    The BiLSTM holds each direction's tokens in its own step order: token
    order for the forward direction, and for the backward one an index
    array that reverses every sentence in place, so both directions cut
    their steps into sentences at the same rows. Each direction projects
    all of its tokens with one x @ wx.T + b, halves it for the kernels'
    tanh form (kernels.halve_ifo) and runs each non-empty sentence's
    recurrence through kernels.lstm_forward, which writes into that
    direction's half of the (2, N, H) arrays h, c and tc. One check then
    covers both directions' states (the forward direction's first), and
    one max-pooling pools them over each sentence."""
    emb = params.array("emb")
    if params.config.encoder_kind == "bag":
        return _encode_bag(ids, lengths, emb), lengths
    H = params.config.hidden_dim
    N = ids.size
    ends = np.cumsum(lengths)
    starts = ends - lengths
    nonempty = lengths > 0
    firsts = starts[nonempty]
    spans = list(zip(firsts.tolist(), ends[nonempty].tolist()))
    # step row r of direction j holds token row orders[j][r]; the backward
    # direction's order is its own inverse
    orders = (np.arange(N), np.repeat(starts + ends - 1, lengths) - np.arange(N))
    h, c, tc = np.empty((3, 2, N, H))
    xs, gates = [], []
    for j, order in enumerate(orders):
        wx, wh, b = map(params.array, _LSTM_ARRAYS[3 * j:3 * j + 3])
        x = emb[ids[order]]
        z = x @ wx.T
        z += b
        wh = kernels.halve_ifo(z, wh)
        for s, e in spans:
            kernels.lstm_forward(z[s:e], wh, h[j, s:e], c[j, s:e], tc[j, s:e])
        xs.append(x)
        gates.append(z)
    if not np.isfinite(h).all():
        finite = np.isfinite(h).all(axis=2)
        j = int(finite[0].all())
        p = int(np.argmin(finite[j, orders[j]]))  # the first such token in token order
        k = p - int(starts[np.searchsorted(ends, p, side="right")])
        raise NumericalError(f"non-finite hidden state at token index {k}")
    pooled = np.maximum.reduceat(h, firsts, axis=1)  # (2, S, H)
    enc = np.zeros((lengths.size, 2, H))
    enc[nonempty] = pooled.swapaxes(0, 1)
    return enc.reshape(-1, 2 * H), (lengths, firsts, spans, orders, xs, gates, h, c, tc, pooled)


def _encode_backward(cache, d_enc: np.ndarray, params: ModelParameters,
                     grads: dict) -> np.ndarray:
    """Per-token gradient (N, d) of the embedding rows _encode read, from
    the encodings' gradient d_enc (B, D); the BiLSTM also puts its six
    weight gradients into grads.

    Max-pooling picks exactly one step per sentence and hidden unit, the
    earliest at-max step in token order, so d_enc is routed to it by
    assignment. Each direction then runs each sentence's reverse loop
    through kernels.lstm_backward into a slice of its dz, and forms its
    weight gradients and dx with one matmul or sum each over all of its
    steps."""
    if params.config.encoder_kind == "bag":
        lengths = cache
        return np.repeat(d_enc / np.maximum(lengths, 1)[:, None], lengths, axis=0)
    lengths, firsts, spans, orders, xs, gates, h, c, tc, pooled = cache
    H = params.config.hidden_dim
    nonempty = lengths > 0
    counts, d_enc = lengths[nonempty], d_enc[nonempty]
    N = int(counts.sum())
    has_prev = np.ones(N, dtype=bool)
    has_prev[firsts] = False
    later = np.flatnonzero(has_prev)  # the steps that have a previous step
    d_x = []
    for j, order in enumerate(orders):
        name_x, name_h, name_b = _LSTM_ARRAYS[3 * j:3 * j + 3]
        wx, wh = params.array(name_x), params.array(name_h)
        at_max = np.where(h[j] == np.repeat(pooled[j], counts, axis=0), order[:, None], N)
        first = np.minimum.reduceat(at_max, firsts, axis=0)  # token rows (S, H)
        dh = np.zeros((N, H))
        dh[order[first], np.arange(H)] = d_enc[:, j * H:(j + 1) * H]
        c_prev = np.zeros((N, H))
        c_prev[later] = c[j, later - 1]
        local, dc_from_dh = kernels.local_derivatives(gates[j], c_prev, tc[j])
        f = gates[j][:, H:2 * H]
        dz = np.empty((N, 4, H))
        for s, e in spans:
            kernels.lstm_backward(wh, f[s:e], local[s:e], dc_from_dh[s:e], dh[s:e], dz[s:e])
        dz = dz.reshape(N, 4 * H)
        grads[name_x] = dz.T @ xs[j]
        grads[name_h] = dz[later].T @ h[j, later - 1]
        grads[name_b] = dz.sum(axis=0)
        d_x.append((dz @ wx)[order])
    return d_x[0] + d_x[1]


def predict(rows: np.ndarray, params: ModelParameters) -> int:
    """Label index of one hypothesis from its token ids alone: the argmax
    (lowest index on ties) of the MLP head's logits on its encoding."""
    enc = _encode(rows, np.array([rows.size]), params)[0]
    return int(np.argmax(_mlp_head(enc, params)[1]))


def predict_batch(rows: np.ndarray, tokens, params: ModelParameters) -> np.ndarray:
    """Label indices (int64) of the given rows of the token corpus: one
    forward pass over all of them for the bag, one predict call per
    sentence for the BiLSTM."""
    if params.config.encoder_kind != "bag":
        # the benchmark's count check expects
        # kernels.lstm_forward.calls = 2 x (examples + model.predict.calls)
        ids, indptr = tokens
        return np.array([predict(ids[indptr[r]:indptr[r + 1]], params) for r in rows.tolist()],
                        dtype=np.int64)
    enc = _encode(*_gather(rows, tokens), params)[0]
    return np.argmax(_mlp_head(enc, params)[1], axis=1).astype(np.int64, copy=False)


def loss_and_gradients(rows: np.ndarray, tokens, y, params: ModelParameters):
    """Mean negative log-likelihood of the label indices y given the rows
    of the token corpus, with backpropagated gradients for every trainable
    array; the embedding gradient is a RowGradient over the batch's ids.

    The loss is log(sum(exp(shifted))) - shifted[y] for the max-shifted
    logits, finite whenever the logits are.
    """
    if not len(rows):
        raise ValueError("batch must be nonempty")
    ids, lengths = _gather(rows, tokens)
    enc, cache = _encode(ids, lengths, params)
    h1, logits = _mlp_head(enc, params)
    B = len(rows)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(total[:, 0]) - shifted[np.arange(B), y]))
    if not np.isfinite(loss):
        raise NumericalError("non-finite loss")

    d_logits = e / total
    d_logits[np.arange(B), y] -= 1.0
    d_logits /= B
    grads = {"mlp_w2": d_logits.T @ h1, "mlp_b2": d_logits.sum(axis=0)}
    d_a1 = (d_logits @ params.array("mlp_w2")) * (1.0 - h1 * h1)
    grads["mlp_w1"] = d_a1.T @ enc
    grads["mlp_b1"] = d_a1.sum(axis=0)
    d_x = _encode_backward(cache, d_a1 @ params.array("mlp_w1"), params, grads)
    if params.config.finetune_embeddings:
        grads["emb"] = _row_gradient(ids, d_x)
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
    not the expected object, the version is not 1, the labels or the vocab
    are not a list of strings, a vocabulary token repeats, the manifest
    does not match the shapes the config implies, an array is cut short,
    or bytes follow the last array.
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
            labels, tokens = header["scheme"]["labels"], header["vocab"]
            if not all(isinstance(strings, list) and all(isinstance(s, str) for s in strings)
                       for strings in (labels, tokens)):
                raise ValueError("the labels and the vocab must be lists of strings")
            config = ModelConfig(**header["config"])
            scheme = LabelScheme(tuple(labels), header["scheme"]["id"])
            vocab = Vocabulary(tokens)
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
