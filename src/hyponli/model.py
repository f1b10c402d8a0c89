"""Hypothesis-only classifiers with exact gradients.

Two sentence encoders feed one MLP head: a bag of embeddings (mean of the
token vectors) and a bidirectional LSTM whose forward and backward states
are each max-pooled over time into [forward; backward]. The classification
path takes only hypothesis tokens; premises are unreachable by
construction. Labels are label indices into the scheme.

Sentences come as a CSR token corpus tokens = (ids, indptr) from
text.intern or Vocabulary.encode: sentence r is ids[indptr[r]:indptr[r+1]].
A batch, or a split to predict, is an int64 array of row indices into
it, in any order.

The bag encoder runs batched, and its results are bitwise equal to the
one-sentence-at-a-time computation: each sentence's sum starts from 0.0
and adds its embedding rows in token order, as numpy's axis-0 reduction in
emb[rows].mean(axis=0) does (np.add.reduceat does not). With a single
embedding column numpy sums pairwise instead, so there the two agree only
to rounding.

The BiLSTM recurrence runs time-major over a batch in prediction, but
one sentence at a time (kernels.lstm_forward and lstm_backward) in
loss_and_gradients: the benchmark's traced run checks
kernels.lstm_forward.calls = 2 x (examples + model.predict.calls) and
lstm_backward.calls = 2 x examples, so training keeps these kernels until
that rule is rewritten in terms of tokens. The kernels leave the
floating-point error state alone, and the projection, computed here, is
the one place an overflow can arise. Batched products round differently
from per-sentence ones, so BiLSTM results depend on which sentences share
a batch, and on the recurrence's form, in their last bits.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import kernels
from .corpus import LabelScheme
from .text import Vocabulary
from .util import ConfigError, atomic_open, parse_json

ENCODER_KINDS = ("bag", "birnn-maxpool")


class NumericalError(RuntimeError):
    """A non-finite value surfaced during a forward or backward pass."""


@dataclass(frozen=True)
class ModelConfig:
    """The encoder and its sizes; the label count is that of the model's scheme. The defaults
    are train-eval's: each field but encoder_kind and seed is the option of its name, and its
    metadata's help is that option's help."""

    encoder_kind: str
    embedding_dim: int = field(default=50, metadata={"help": "word-vector size"})
    hidden_dim: int = field(default=64, metadata={"help": "BiLSTM state size per direction"})
    mlp_hidden: int = field(default=64, metadata={"help": "MLP hidden layer size"})
    seed: int = 0
    finetune_embeddings: bool = field(default=False, metadata={
        "help": "train the word vectors too; without it they stay fixed"})

    def __post_init__(self):
        if self.encoder_kind not in ENCODER_KINDS:
            raise ConfigError(f"encoder={self.encoder_kind!r} is not one of "
                              f"{', '.join(ENCODER_KINDS)}", "encoder")
        dims = (self.embedding_dim, self.hidden_dim, self.mlp_hidden)
        # bool is a subclass of int, so True would pass for the integer 1
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   for v in (*dims, self.seed)):
            raise ValueError("dimensions and seed must be integers")
        if not isinstance(self.finetune_embeddings, bool):
            raise ValueError("finetune_embeddings must be true or false")
        for name, dim in zip(("embedding_dim", "hidden_dim", "mlp_hidden"), dims):
            if dim < 1:
                raise ConfigError(f"{name} must be >= 1", name)

    @property
    def encoding_dim(self) -> int:
        if self.encoder_kind == "bag":
            return self.embedding_dim
        return 2 * self.hidden_dim


_LSTM_ARRAYS = ("wf_x", "wf_h", "wf_b", "wb_x", "wb_h", "wb_b")
_MLP_ARRAYS = ("mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2")


@dataclass(frozen=True, eq=False)
class ModelParameters:
    """All weights of one model, read by its fields: config, scheme, vocab and arrays, the
    name-to-array dict in checkpoint order that train.sgd_step updates in place.

    The embedding matrix arrays["emb"] has one row per vocabulary token and a final OOV row;
    trains says which arrays training writes. Construction refuses a non-finite array by its
    min and max, which carry a NaN through and show an infinity: the check reads each array
    twice and allocates nothing. train.fit's best-epoch snapshot is the only copy src makes.
    """

    config: ModelConfig
    scheme: LabelScheme
    vocab: Vocabulary
    arrays: dict[str, np.ndarray]

    def __post_init__(self):
        for name, arr in self.arrays.items():
            if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
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
        for name, shape in _array_shapes(config, len(vocab), len(scheme))[1:]:
            if len(shape) == 2:  # a bias takes the bound of the matrix before it
                bound = 1.0 / np.sqrt(shape[1])
            arrays[name] = rng.uniform(-bound, bound, shape)
        return cls(config, scheme, vocab, arrays)


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


def _longest_first(lengths: np.ndarray):
    """(the sentences in order of length, longest first and stable; for
    each step t below the longest length, how many are longer than t)."""
    longer_than = lengths.size - np.cumsum(np.bincount(lengths))
    return np.argsort(-lengths, kind="stable"), longer_than[:-1]


def _encode_bag(ids: np.ndarray, lengths: np.ndarray, emb: np.ndarray) -> np.ndarray:
    """Mean embedding row of each sentence (B, d); empty sentences encode
    to zero. Sentences are sorted longest first, and step t adds token t of
    the leading ones still that long, so each sum runs from 0.0 in token
    order, as emb[rows].mean(axis=0) sums."""
    longest_first, longer_than = _longest_first(lengths)
    starts = (np.cumsum(lengths) - lengths)[longest_first]
    total = np.zeros((lengths.size, emb.shape[1]))
    for t, n in enumerate(longer_than):
        total[:n] += emb[ids[starts[:n] + t]]
    enc = np.empty_like(total)
    enc[longest_first] = total
    enc /= np.maximum(lengths, 1)[:, None]
    return enc


def _mlp_head(enc: np.ndarray, params: ModelParameters):
    """(hidden activations, logits) of the MLP on a batch of encodings."""
    h1 = np.tanh(enc @ params.arrays["mlp_w1"].T + params.arrays["mlp_b1"])
    return h1, h1 @ params.arrays["mlp_w2"].T + params.arrays["mlp_b2"]


def _packed_rows(lengths: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """(forward rows, backward rows, batch_sizes) of the time-major packed
    order: the sentences sorted longest first (stable), step t holds the
    batch_sizes[t] of them longer than t, and its forward rows are their
    token rows starts + t, its backward rows ends - 1 - t."""
    longest_first, batch_sizes = _longest_first(lengths)
    step = np.repeat(np.arange(batch_sizes.size), batch_sizes)
    rank = np.arange(step.size) - np.repeat(np.cumsum(batch_sizes) - batch_sizes, batch_sizes)
    sentence = longest_first[rank]
    return starts[sentence] + step, ends[sentence] - 1 - step, batch_sizes.tolist()


def _encode(ids: np.ndarray, lengths: np.ndarray, params: ModelParameters,
            per_sentence: bool = False):
    """(encodings (B, D), cache for _encode_backward) of the sentences that
    lengths cuts ids into; an empty sentence encodes to zero.

    The BiLSTM keeps both directions' rows in token order: row r of x, of
    each direction's projections and of h, c and tc belongs to token r. One
    embedding gather x = emb[ids] serves both directions. Each projects all
    tokens with one x @ wx.T + b and halves it for the kernels' tanh form
    (kernels.halve_ifo), then runs its recurrence into its half of the
    (2, N, H) arrays h, c and tc. By default that is one time-major loop
    over the batch (kernels.lstm_forward_packed) on the rows gathered into
    packed order (_packed_rows), written back to token order afterwards.
    With per_sentence, which loss_and_gradients alone asks for, each
    non-empty sentence runs through kernels.lstm_forward instead, on
    slices of the token-order arrays; the backward direction passes it
    reversed views ([::-1]), so it steps from the sentence's last token to
    its first. Both leave the same arrays. One check then covers both
    directions' states (the forward direction's first), and one
    max-pooling pools them over each sentence."""
    emb = params.arrays["emb"]
    if params.config.encoder_kind == "bag":
        return _encode_bag(ids, lengths, emb), lengths
    H = params.config.hidden_dim
    ends = np.cumsum(lengths)
    starts = ends - lengths
    nonempty = lengths > 0
    firsts = starts[nonempty]
    if per_sentence:
        spans = [slice(s, e) for s, e in zip(firsts.tolist(), ends[nonempty].tolist())]
    else:
        *packed, batch_sizes = _packed_rows(lengths, starts, ends)
    x = emb[ids]
    h, c, tc = np.empty((3, 2, ids.size, H))
    gates = []
    for j, step in enumerate((1, -1)):  # step -1: each sentence runs from its last token
        wx, wh, b = (params.arrays[name] for name in _LSTM_ARRAYS[3 * j:3 * j + 3])
        z = x @ wx.T
        z += b
        wh = kernels.halve_ifo(z, wh)
        if per_sentence:
            for s in spans:
                kernels.lstm_forward(z[s][::step], wh, h[j, s][::step], c[j, s][::step],
                                     tc[j, s][::step])
        else:
            order = packed[j]
            zp = z[order]
            hp, cp, tcp = np.empty((3, order.size, H))
            kernels.lstm_forward_packed(zp, wh, hp, cp, tcp, batch_sizes)
            z[order], h[j, order], c[j, order], tc[j, order] = zp, hp, cp, tcp
        gates.append(z)
    if not np.isfinite(h).all():
        finite = np.isfinite(h).all(axis=2)
        j = int(finite[0].all())
        p = int(np.argmin(finite[j]))  # the first such token
        k = p - int(starts[np.searchsorted(ends, p, side="right")])
        raise NumericalError(f"non-finite hidden state at token index {k}")
    pooled = np.maximum.reduceat(h, firsts, axis=1)  # (2, S, H)
    enc = np.zeros((lengths.size, 2, H))
    enc[nonempty] = pooled.swapaxes(0, 1)
    return enc.reshape(-1, 2 * H), (lengths, firsts, x, gates, h, c, tc, pooled)


def _encode_backward(cache, d_enc: np.ndarray, params: ModelParameters,
                     grads: dict) -> np.ndarray:
    """Per-token gradient (N, d) of the embedding rows _encode read, from
    the encodings' gradient d_enc (B, D); the BiLSTM also puts its six
    weight gradients into grads.

    Max-pooling picks exactly one token per sentence, direction and hidden
    unit, the earliest at-max one, so d_enc is routed to it by assignment.
    Every array stays in token order: token r's previous step is r - 1 in
    the forward direction and r + 1 in the backward one, which runs each
    sentence's reverse loop through kernels.lstm_backward on the same
    reversed views as _encode's per-sentence path. Each direction forms
    its weight gradients and its share of dx with one matmul or sum each
    over all tokens."""
    if params.config.encoder_kind == "bag":
        lengths = cache
        return np.repeat(d_enc / np.maximum(lengths, 1)[:, None], lengths, axis=0)
    lengths, firsts, x, gates, h, c, tc, pooled = cache
    N, H = h.shape[1:]
    nonempty = lengths > 0
    counts, d_enc = lengths[nonempty], d_enc[nonempty].reshape(-1, 2, H)
    spans = [slice(s, s + n) for s, n in zip(firsts.tolist(), counts.tolist())]
    rows = np.arange(N)
    at_max = np.where(h == np.repeat(pooled, counts, axis=1), rows[:, None], N)
    first = np.minimum.reduceat(at_max, firsts, axis=1)  # token rows (2, S, H)
    d_x = []
    # each direction's step, and the token each sentence's recurrence starts at
    for j, (step, origin) in enumerate(((1, firsts), (-1, firsts + counts - 1))):
        name_x, name_h, name_b = _LSTM_ARRAYS[3 * j:3 * j + 3]
        wx, wh = params.arrays[name_x], params.arrays[name_h]
        dh = np.zeros((N, H))
        dh[first[j], np.arange(H)] = d_enc[:, j]
        later = np.flatnonzero(rows != np.repeat(origin, counts))  # the tokens with a previous step
        c_prev = np.zeros((N, H))
        c_prev[later] = c[j, later - step]
        local, dc_from_dh = kernels.local_derivatives(gates[j], c_prev, tc[j])
        f = gates[j][:, H:2 * H]
        dz = np.empty((N, 4, H))
        for s in spans:
            kernels.lstm_backward(wh, f[s][::step], local[s][::step], dc_from_dh[s][::step],
                                  dh[s][::step], dz[s][::step])
        dz = dz.reshape(N, 4 * H)
        grads[name_x] = dz.T @ x
        grads[name_h] = dz[later].T @ h[j, later - step]
        grads[name_b] = dz.sum(axis=0)
        d_x.append(dz @ wx)
    return d_x[0] + d_x[1]


# Sentences per BiLSTM _encode call in predict_batch. It bounds the
# memory of the (tokens, 4H) arrays on a large split, and it timed as fast
# as any other size on 200-row and 2,000-row splits, with one BLAS thread
# and with two.
PREDICT_CHUNK = 64


def predict_batch(rows: np.ndarray, tokens, params: ModelParameters) -> np.ndarray:
    """Label indices (int64) of the given rows of the token corpus: the
    argmax (lowest index on ties) of the MLP head's logits. The BiLSTM
    encodes the rows PREDICT_CHUNK at a time through its time-major
    recurrence. The bag, whose memory is that of its encodings, encodes
    them in one pass: each chunk would add a loop over its time steps.
    One head runs over all the encodings."""
    size = max(len(rows), 1) if params.config.encoder_kind == "bag" else PREDICT_CHUNK
    chunks = range(0, max(len(rows), 1), size)  # an empty split is one empty chunk
    enc = np.concatenate([_encode(*_gather(rows[k:k + size], tokens), params)[0]
                          for k in chunks])
    return np.argmax(_mlp_head(enc, params)[1], axis=1).astype(np.int64, copy=False)


def trains(config: ModelConfig, name: str) -> bool:
    """Whether training writes the array of this name: every array but "emb",
    which it writes only under config.finetune_embeddings. loss_and_gradients
    gives a gradient for exactly these arrays, and train.fit's best-epoch
    snapshot shares the others with the parameters it trains."""
    return name != "emb" or config.finetune_embeddings


def loss_and_gradients(rows: np.ndarray, tokens, y, params: ModelParameters):
    """Mean negative log-likelihood of the label indices y given the rows
    of the token corpus, with backpropagated gradients for the arrays that
    training writes (trains); the embedding gradient is a RowGradient over
    the batch's ids.

    The loss is log(sum(exp(shifted))) - shifted[y] for the max-shifted
    logits, finite whenever the logits are.
    """
    if not len(rows):
        raise ValueError("batch must be nonempty")
    ids, lengths = _gather(rows, tokens)
    # the per-sentence kernels: the benchmark's traced run counts their calls
    enc, cache = _encode(ids, lengths, params, per_sentence=True)
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
    d_a1 = (d_logits @ params.arrays["mlp_w2"]) * (1.0 - h1 * h1)
    grads["mlp_w1"] = d_a1.T @ enc
    grads["mlp_b1"] = d_a1.sum(axis=0)
    d_x = _encode_backward(cache, d_a1 @ params.arrays["mlp_w1"], params, grads)
    if trains(params.config, "emb"):
        grads["emb"] = _row_gradient(ids, d_x)
    return loss, grads


CHECKPOINT_MAGIC = "hyponli-checkpoint"
CHECKPOINT_VERSION = 2
_HEADER_KEYS = frozenset({"format", "version", "config", "labels", "vocab", "arrays"})


def _array_shapes(config: ModelConfig, n_vocab: int,
                  n_labels: int) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter array, in checkpoint order."""
    d, H, m, n = config.embedding_dim, config.hidden_dim, config.mlp_hidden, n_labels
    shapes = [("emb", (n_vocab + 1, d))]
    if config.encoder_kind == "birnn-maxpool":
        lstm = [(4 * H, d), (4 * H, H), (4 * H,)]
        shapes += list(zip(_LSTM_ARRAYS, lstm + lstm))
    shapes += list(zip(_MLP_ARRAYS, [(m, config.encoding_dim), (m,), (n, m), (n,)]))
    return shapes


def save_checkpoint(params: ModelParameters, path) -> None:
    """Write config + labels + vocab + flat arrays, atomically.

    Layout: one UTF-8 JSON header line holding config, label names, vocab,
    and an array manifest (name, shape), followed by each array's raw
    little-endian float64 bytes in manifest order. Byte-identical for
    identical parameters. Each array is written from its own buffer, copied
    only if it is not C-contiguous little-endian float64, so saving makes
    no copy of a model's arrays.
    """
    header = {
        "format": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "labels": params.scheme.names,
        "vocab": params.vocab.tokens,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in params.arrays.items()],
    }
    with atomic_open(path) as fh:
        fh.write(json.dumps(header, ensure_ascii=False).encode("utf-8"))
        fh.write(b"\n")
        for arr in params.arrays.values():
            fh.write(memoryview(np.ascontiguousarray(arr, dtype="<f8")))


def load_checkpoint(path) -> ModelParameters:
    """Read a save_checkpoint file.

    Raises ValueError naming the path and the reason when the header line
    is not UTF-8 JSON (util.parse_json) or not the expected object, the
    version is not 2, the labels or the vocab are not a list of strings,
    the labels are not a LabelScheme's, a vocabulary token repeats, the
    manifest does not match the shapes the config and labels imply, an
    array is cut short, or bytes follow the last array.

    Each array is read straight into the array returned, so loading holds
    each one once. It is allocated only once the bytes left in the file
    cover it, so a manifest that names a huge array is refused as cut
    short without allocating it.
    """
    with open(path, "rb") as fh:
        header = parse_json(fh.readline(), f"{path}: checkpoint header")
        # the version before the keys: another version's header has other keys
        if (isinstance(header, dict)
                and header.get("version", CHECKPOINT_VERSION) != CHECKPOINT_VERSION):
            raise ValueError(f"{path}: checkpoint version {header['version']!r} is not "
                             f"{CHECKPOINT_VERSION}")
        if not isinstance(header, dict) or set(header) != _HEADER_KEYS:
            raise ValueError(f"{path}: checkpoint header is not an object with keys "
                             f"{', '.join(sorted(_HEADER_KEYS))}")
        if header["format"] != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC} file")
        try:
            labels, tokens = header["labels"], header["vocab"]
            if not all(isinstance(strings, list) and all(isinstance(s, str) for s in strings)
                       for strings in (labels, tokens)):
                raise ValueError("the labels and the vocab must be lists of strings")
            config = ModelConfig(**header["config"])
            scheme = LabelScheme(tuple(labels))
            vocab = Vocabulary(tokens)
            expected = _array_shapes(config, len(vocab), len(scheme))
        except (TypeError, ValueError, KeyError) as exc:
            raise ValueError(f"{path}: malformed checkpoint header ({exc!r})") from exc
        if header["arrays"] != [{"name": n, "shape": list(s)} for n, s in expected]:
            raise ValueError(f"{path}: array manifest does not match the model config")
        arrays = {}
        for name, shape in expected:
            size = 8 * math.prod(shape)
            got = min(size, os.fstat(fh.fileno()).st_size - fh.tell())
            if got == size:  # else allocating it could ask for more than the file holds
                arrays[name] = np.empty(shape, dtype="<f8")
                got = fh.readinto(arrays[name])
            if got != size:
                raise ValueError(f"{path}: array {name!r} is truncated "
                                 f"({got} of {size} bytes)")
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last array")
    try:
        return ModelParameters(config, scheme, vocab, arrays)
    except (ValueError, NumericalError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
