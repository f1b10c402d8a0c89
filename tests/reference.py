"""Reference implementations that the faster code must agree with.

encode_bag_rows and loss_and_gradients are the one-sentence-at-a-time
forward and backward passes the batched ones replaced: a per-sentence
embedding mean, and an embedding gradient scattered with one np.add.at per
example into a dense zero matrix. tokenize is the character loop the
regular expression replaced, lookup encodes a token list one dict lookup
at a time, sentences slices a CSR token corpus one row at a time, and
seeded_random_rows draws the embedding matrix one vector at a time, and
report_tally counts evaluate.build_report's fields row by row in dicts.
encode and logits give one sentence's encoding and head logits at a time,
the per-step cell below for the BiLSTM.
The faster code must agree with them bit for bit.

lstm_forward and lstm_backward are the recurrent-cell kernels with all
their work inside the time loop: one matrix-vector product per step for
each input projection, and per-step outer products for the weight
gradients. The hoisted kernels sum in another order, so they, and the
BiLSTM half of loss_and_gradients, agree with these to rounding.

The statistics and ingest oracles are the loops the array code replaced:
giveaway_words builds an entry for every candidate before sorting,
sentence_maxima interns and counts the hypotheses itself, with np.add.at,
and runs one reduceat per call, and read_jsonl and read_tsv
run the record loop that formatted every error location up front. The
faster code must give the same values, and the same exception class and
message.

bayes_accuracy enumerates every give-away presence pattern of a synth
spec; synth.bayes_accuracy's closed form agrees with it to rounding.
"""

import itertools

import numpy as np

from hyponli import corpus, model, stats, text
from hyponli.util import IngestError, as_integer, numbered_lines, parse_json


def tokenize(s):
    """Split on whitespace and peel marks off both ends of each chunk."""
    tokens = []
    for chunk in s.split():
        prefix = []
        while chunk and chunk[0] in text._PUNCT:
            prefix.append(chunk[0])
            chunk = chunk[1:]
        suffix = []
        while chunk and chunk[-1] in text._PUNCT:
            suffix.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(prefix)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(suffix))
    return tokens


def lookup(vocab, tokens):
    """Ids of a token list, one dict lookup per token, with len(vocab) (the
    OOV row) for unknown ones."""
    oov = len(vocab)
    return np.array([vocab.get(tok, oov) for tok in tokens], dtype=np.int64)


def sentences(rows, tokens):
    """The token-id array of each row of a CSR token corpus, sliced one at
    a time."""
    ids, indptr = tokens
    return [ids[indptr[r]:indptr[r + 1]] for r in rows]


def seeded_random_rows(vocab, dimension, seed):
    """One uniform [-0.1, 0.1] draw per vocabulary token, then one for the
    OOV row, stacked."""
    rng = np.random.default_rng(seed)
    rows = [rng.uniform(-0.1, 0.1, dimension) for _ in range(len(vocab) + 1)]
    return np.stack(rows)


def encode_bag_rows(rows, emb):
    """Arithmetic mean of the embedding rows; empty sentences encode to zero."""
    if rows.size == 0:
        return np.zeros(emb.shape[1])
    return emb[rows].mean(axis=0)


def dense(grad, like):
    """grad as an array shaped like `like`: a RowGradient scattered into
    zeros, a dense gradient as it is."""
    if not isinstance(grad, model.RowGradient):
        return grad
    out = np.zeros_like(like)
    out[grad.rows] = grad.values
    return out


@np.errstate(over="ignore")
def lstm_forward(x, wx, wh, b):
    """Run the cell over x (T, d) with zero initial states.

    The sigmoid 1/(1+exp(-z)) may overflow exp for very negative z; the
    result, 0, is the exact limit, so that overflow is not reported.

    Returns h (T, H), c (T, H), gates (T, 4H) holding the activated
    i/f/g/o values, and tc (T, H) = tanh(c), all needed by the backward
    pass.
    """
    T = x.shape[0]
    H = wh.shape[1]
    h = np.zeros((T, H))
    c = np.zeros((T, H))
    gates = np.zeros((T, 4 * H))
    tc = np.zeros((T, H))
    h_prev = np.zeros(H)
    c_prev = np.zeros(H)
    for t in range(T):
        z = np.dot(wx, x[t]) + np.dot(wh, h_prev) + b
        i = 1.0 / (1.0 + np.exp(-z[0:H]))
        f = 1.0 / (1.0 + np.exp(-z[H:2 * H]))
        g = np.tanh(z[2 * H:3 * H])
        o = 1.0 / (1.0 + np.exp(-z[3 * H:4 * H]))
        c_t = f * c_prev + i * g
        tc_t = np.tanh(c_t)
        h_t = o * tc_t
        gates[t, 0:H] = i
        gates[t, H:2 * H] = f
        gates[t, 2 * H:3 * H] = g
        gates[t, 3 * H:4 * H] = o
        c[t] = c_t
        tc[t] = tc_t
        h[t] = h_t
        h_prev = h_t
        c_prev = c_t
    return h, c, gates, tc


def lstm_backward(x, wx, wh, h, c, gates, tc, dh_out):
    """Backpropagate dh_out (T, H) through the recurrence.

    Returns (gwx, gwh, gb, dx) where dx (T, d) is the gradient w.r.t. the
    input vectors.
    """
    T = x.shape[0]
    d = x.shape[1]
    H = wh.shape[1]
    gwx = np.zeros((4 * H, d))
    gwh = np.zeros((4 * H, H))
    gb = np.zeros(4 * H)
    dx = np.zeros((T, d))
    wxT = np.ascontiguousarray(wx.T)
    whT = np.ascontiguousarray(wh.T)
    zeros_h = np.zeros(H)
    dh_next = np.zeros(H)
    dc_next = np.zeros(H)
    dz = np.empty(4 * H)
    for t in range(T - 1, -1, -1):
        i = gates[t, 0:H]
        f = gates[t, H:2 * H]
        g = gates[t, 2 * H:3 * H]
        o = gates[t, 3 * H:4 * H]
        c_prev = c[t - 1] if t > 0 else zeros_h
        h_prev = h[t - 1] if t > 0 else zeros_h
        dh = dh_out[t] + dh_next
        do = dh * tc[t]
        dc = dh * o * (1.0 - tc[t] * tc[t]) + dc_next
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dz[0:H] = di * i * (1.0 - i)
        dz[H:2 * H] = df * f * (1.0 - f)
        dz[2 * H:3 * H] = dg * (1.0 - g * g)
        dz[3 * H:4 * H] = do * o * (1.0 - o)
        gb += dz
        gwx += dz.reshape(4 * H, 1) * x[t].reshape(1, d)
        gwh += dz.reshape(4 * H, 1) * h_prev.reshape(1, H)
        dx[t] = np.dot(wxT, dz)
        dh_next = np.dot(whT, dz)
        dc_next = dc * f
    return gwx, gwh, gb, dx


def trainable_names(params):
    """Names of the arrays SGD updates: "emb" first when the embeddings
    are fine-tuned, then every other array in checkpoint order."""
    names = [n for n in params.array_names() if n != "emb"]
    if params.config.finetune_embeddings:
        names = ["emb"] + names
    return names


def birnn_states(rows, params):
    """(x, forward pass, backward pass, per-timestep [forward; backward]
    states (T, 2H)) of one nonempty sentence's embedding rows."""
    x = params.array("emb")[rows]
    fwd = lstm_forward(x, params.array("wf_x"), params.array("wf_h"), params.array("wf_b"))
    bwd = lstm_forward(x[::-1], params.array("wb_x"), params.array("wb_h"),
                       params.array("wb_b"))
    return x, fwd, bwd, np.concatenate([fwd[0], bwd[0][::-1]], axis=1)


def encode(rows, params):
    """One sentence's encoding from its token ids alone: the bag mean, or
    the max over its per-step [forward; backward] states (zero if empty)."""
    if params.config.encoder_kind == "bag":
        return encode_bag_rows(rows, params.array("emb"))
    if rows.size == 0:
        return np.zeros(params.config.encoding_dim)
    return birnn_states(rows, params)[3].max(axis=0)


def logits(batch, params):
    """The MLP head's logits (B, n_labels) of each sentence, one
    matrix-vector product at a time."""
    out = np.empty((len(batch), len(params.scheme)))
    for k, rows in enumerate(batch):
        h1 = np.tanh(params.array("mlp_w1") @ encode(rows, params) + params.array("mlp_b1"))
        out[k] = params.array("mlp_w2") @ h1 + params.array("mlp_b2")
    return out


def loss_and_gradients(batch, y, params):
    """(loss, dense gradients) of model.loss_and_gradients, one sentence at
    a time."""
    cfg = params.config
    emb = params.array("emb")
    B = len(batch)
    enc = np.zeros((B, cfg.encoding_dim))
    caches = []
    for k, rows in enumerate(batch):
        if cfg.encoder_kind == "bag":
            enc[k] = encode_bag_rows(rows, emb)
            caches.append(rows)
        else:
            if rows.size == 0:
                caches.append(None)
                continue
            x, fwd, bwd, h_cat = birnn_states(rows, params)
            enc[k] = h_cat.max(axis=0)
            caches.append((rows, x, fwd, bwd, np.argmax(h_cat, axis=0)))

    w1, b1 = params.array("mlp_w1"), params.array("mlp_b1")
    w2, b2 = params.array("mlp_w2"), params.array("mlp_b2")
    h1 = np.tanh(enc @ w1.T + b1)
    logits = h1 @ w2.T + b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    probs = e / total
    loss = float(np.mean(np.log(total[:, 0]) - shifted[np.arange(B), y]))

    grads = {name: np.zeros_like(params.array(name)) for name in trainable_names(params)}
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
        return loss, grads
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
        gfx, gfh, gfb, dxf = lstm_backward(
            x, params.array("wf_x"), params.array("wf_h"), *fwd, dh_f)
        gbx, gbh, gbb, dxb = lstm_backward(
            x[::-1], params.array("wb_x"), params.array("wb_h"), *bwd, dh_b_rev)
        for name, g in zip(("wf_x", "wf_h", "wf_b", "wb_x", "wb_h", "wb_b"),
                           (gfx, gfh, gfb, gbx, gbh, gbb)):
            grads[name] += g
        if finetune:
            np.add.at(grads["emb"], rows, dxf + dxb[::-1])
    return loss, grads


def _rates(pairs):
    """(hyp-only, MAJ) of (gold, predicted) pairs: the share predicted
    right and the share of the most frequent gold class."""
    rows = {}
    for g, _ in pairs:
        rows[g] = rows.get(g, 0) + 1
    hits = sum(1 for g, p in pairs if g == p)
    return 100.0 * hits / len(pairs), 100.0 * max(rows.values()) / len(pairs)


def report_tally(pred, gold, groups, train_majority):
    """The fields of evaluate.build_report, counted one row at a time;
    per_class is a list of (class, (hyp-only, share)) in class order."""
    n = len(gold)
    rows, hits, by_group = {}, {}, {}
    for p, g, key in zip(pred, gold, groups):
        rows[g] = rows.get(g, 0) + 1
        hits[g] = hits.get(g, 0) + (p == g)
        if key is not None:
            by_group.setdefault(key, []).append((g, p))
    hyp, maj = _rates(list(zip(gold, pred)))[0], 100.0 * rows.get(train_majority, 0) / n
    mode = min(rows, key=lambda c: (-rows[c], c))
    per_group = {}
    for key, pairs in by_group.items():
        group_hyp, group_maj = _rates(pairs)
        per_group[key] = (group_hyp, group_maj, 100.0 * (group_hyp - group_maj) / group_maj)
    return {
        "hyp_only_acc": hyp,
        "maj_acc": maj,
        "abs_delta": hyp - maj,
        "pct_delta": 100.0 * (hyp - maj) / maj if maj > 0 else None,
        "per_class": [(c, (100.0 * hits[c] / rows[c], 100.0 * rows[c] / n))
                      for c in sorted(rows)],
        "constant_prediction": len(set(pred)) == 1,
        "maj_label": train_majority,
        "per_group": per_group,
        "notes": int(mode != train_majority),
    }


def giveaway_words(counts, min_freq, top_k):
    """stats.giveaway_words with one GiveawayEntry per candidate, each
    label's whole list sorted, then cut."""
    buckets = {i: [] for i in range(len(counts.scheme))}
    freq = counts.occ.sum(axis=1)
    best = counts.occ.argmax(axis=1)
    for w in np.flatnonzero(freq >= min_freq):
        idx, cw = int(best[w]), int(freq[w])
        buckets[idx].append(stats.GiveawayEntry(counts.vocab.token(w),
                                                int(counts.occ[w, idx]) / cw, cw))
    for entries in buckets.values():
        entries.sort(key=lambda e: (-e.frequency, -e.score, e.token))
        del entries[top_k:]
    return buckets


def sentence_maxima(hypotheses, labels, scheme, label, per_label):
    """Per sentence of the gold label, in corpus order, the best token
    score, from one reduceat over all sentences, interned and counted here."""
    vocab, ids, indptr = text.intern(hypotheses)
    labels = np.asarray(labels, dtype=np.int64)
    occ = np.zeros((len(vocab), len(scheme)), dtype=np.int64)
    np.add.at(occ, (ids, np.repeat(labels, np.diff(indptr))), 1)
    score = (occ[:, label] if per_label else occ.max(axis=1)) / occ.sum(axis=1)
    maxima = np.zeros(len(labels))
    nonempty = np.flatnonzero(np.diff(indptr))
    if nonempty.size:
        maxima[nonempty] = np.maximum.reduceat(score[ids], indptr[nonempty])
    return maxima[labels == label]


def bayes_accuracy(spec):
    """Sum, over every give-away presence pattern, the largest joint
    probability p(pattern, label)."""
    total = 0.0
    for pattern in itertools.product((False, True), repeat=len(spec.giveaway)):
        best = 0.0
        for label in range(spec.n_labels):
            p = spec.label_prior[label]
            for present, (_, target, rate) in zip(pattern, spec.giveaway):
                if target == label:
                    p *= rate if present else 1.0 - rate
                elif present:
                    p = 0.0
                    break
            best = max(best, p)
        total += best
    return 100.0 * total


def _read(path, roles, scheme, parse, remap_ordinal):
    """corpus._read with where formatted for every line and record."""
    premises, hypotheses, labels, ids, groups, ordinals = [], [], [], [], [], []
    mandatory = ("premise", "hypothesis") + (() if remap_ordinal else ("label",))
    unset = [role for role in mandatory + (("ordinal",) if remap_ordinal else ())
             if getattr(roles, role) is None]
    if unset:
        raise corpus.ConfigError(f"{path}: the role map has no field or column for "
                                 f"{', '.join(unset)}")
    skipped = 0
    for lineno, line in numbered_lines(path):
        if not line.strip():
            continue
        where = f"{path}: line {lineno}"
        record = parse(line, where)
        for role in mandatory:
            key = getattr(roles, role)
            if key not in record:
                raise corpus.ConfigError(f"{where}: no field {key!r} for role {role!r}")
        group, ordinal, instance_id = (record.get(roles.group), record.get(roles.ordinal),
                                       record.get(roles.id))
        label_field = None if remap_ordinal else str(record[roles.label])
        if (ordinal is None) if remap_ordinal else (label_field not in scheme.names):
            skipped += 1
            continue
        if ordinal is not None:
            try:
                ordinal = as_integer(ordinal)
            except ValueError:
                raise IngestError(f"{where}: bad ordinal {ordinal!r}") from None
        instance_id = (f"line-{lineno}" if instance_id is None
                       else corpus._key_text(instance_id, "id", where))
        where += f": instance {instance_id!r}"
        hypothesis = record[roles.hypothesis]
        if not isinstance(hypothesis, str):
            raise IngestError(f"{where}: hypothesis is not a string")
        if not hypothesis:
            raise IngestError(f"{where}: empty hypothesis")
        if ordinal is not None and not 1 <= ordinal <= 5:
            raise IngestError(f"{where}: ordinal {ordinal} outside [1, 5]")
        name = corpus.JOCI_ORDINAL_TO_LABEL[ordinal] if remap_ordinal else label_field
        premises.append(corpus._join_premise(record[roles.premise], where))
        hypotheses.append(hypothesis)
        labels.append(scheme.index(name))
        ids.append(instance_id)
        groups.append(None if group is None else corpus._key_text(group, "group", where))
        ordinals.append(ordinal)
    return corpus.Corpus(premises, hypotheses, np.array(labels, dtype=np.int64), ids,
                         groups, ordinals), skipped


def read_jsonl(path, roles, scheme, remap_ordinal=False):
    def parse(line, where):
        record = parse_json(line, where)
        if not isinstance(record, dict):
            raise IngestError(f"{where}: record is not an object")
        return record

    return _read(path, roles, scheme, parse, remap_ordinal)


def read_tsv(path, roles, scheme, remap_ordinal=False):
    width = 1 + max((c for c in vars(roles).values() if c is not None), default=-1)

    def parse(line, where):
        cells = line.rstrip("\n").split("\t")
        if len(cells) < width:
            raise IngestError(f"{where}: {len(cells)} columns, need {width}")
        return dict(enumerate(cells))

    return _read(path, roles, scheme, parse, remap_ordinal)
