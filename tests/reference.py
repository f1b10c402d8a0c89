"""Per-sentence reference for the batched model code.

encode_bag_rows and loss_and_gradients are the one-sentence-at-a-time
forward and backward passes the batched ones replaced: a per-sentence
embedding mean, and an embedding gradient scattered with one np.add.at per
example into a dense zero matrix. The batched code must agree with them
bit for bit.
"""

import numpy as np

from hyponli import kernels, model


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
            x, fwd, bwd, h_cat = model._birnn_states(rows, params)
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

    grads = {name: np.zeros_like(params.array(name)) for name in params.trainable_names()}
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
        gfx, gfh, gfb, dxf = kernels.lstm_backward(
            x, params.array("wf_x"), params.array("wf_h"), *fwd, dh_f)
        xr = np.ascontiguousarray(x[::-1])
        gbx, gbh, gbb, dxb = kernels.lstm_backward(
            xr, params.array("wb_x"), params.array("wb_h"), *bwd, dh_b_rev)
        for name, g in zip(("wf_x", "wf_h", "wf_b", "wb_x", "wb_h", "wb_b"),
                           (gfx, gfh, gfb, gbx, gbh, gbb)):
            grads[name] += g
        if finetune:
            np.add.at(grads["emb"], rows, dxf + dxb[::-1])
    return loss, grads
